//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root is the only catalogue: its
//! `end_to_end` and `per_layer` sections name every metric the benchmark
//! prints, with its unit. The result line refuses a metric that is not
//! declared there, or a declared one that is missing.

/// The repository's benchmark declaration, built into the program.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A declared metric: `(name, unit)`.
pub type Declared = (String, String);

/// The metrics one section of `BENCHMARK.json` declares (`end_to_end` or
/// `per_layer`), in file order.
pub fn catalogue(key: &str) -> Result<Vec<Declared>, String> {
    section(BENCHMARK_JSON, key)
}

/// `(name, unit)` of every object in the list under `key`. The file's
/// metric names and units are plain strings without escapes, so a scan for
/// the two fields is enough.
fn section(json: &str, key: &str) -> Result<Vec<Declared>, String> {
    let bad = |what: &str| format!("BENCHMARK.json: {key}: {what}");
    let at = json
        .find(&format!("\"{key}\""))
        .ok_or_else(|| bad("section missing"))?;
    let rest = json[at + key.len() + 2..].trim_start();
    let rest = rest.strip_prefix(':').ok_or_else(|| bad("no ':'"))?;
    let rest = rest
        .trim_start()
        .strip_prefix('[')
        .ok_or_else(|| bad("not a list"))?;
    let list = &rest[..rest.find(']').ok_or_else(|| bad("unclosed list"))?];
    let field = |obj: &str, f: &str| -> Result<String, String> {
        let at = obj
            .find(&format!("\"{f}\""))
            .ok_or_else(|| bad(&format!("an entry has no {f}")))?;
        let v = obj[at + f.len() + 2..].trim_start();
        let v = v
            .strip_prefix(':')
            .ok_or_else(|| bad("no ':'"))?
            .trim_start();
        let v = v
            .strip_prefix('"')
            .ok_or_else(|| bad(&format!("{f} is not a string")))?;
        Ok(v[..v.find('"').ok_or_else(|| bad("unclosed string"))?].to_string())
    };
    let metrics = list
        .split('{')
        .skip(1)
        .map(|obj| Ok((field(obj, "name")?, field(obj, "unit")?)))
        .collect::<Result<Vec<_>, String>>()?;
    if metrics.is_empty() {
        return Err(bad("no metrics"));
    }
    Ok(metrics)
}

/// Renders the result line: exactly the `declared` metrics, each once.
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64)],
    declared: &[Declared],
) -> Result<String, String> {
    for (name, _) in metrics {
        if !declared.iter().any(|(d, _)| d == name) {
            return Err(format!("metric {name} is not declared"));
        }
    }
    let mut body = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let mut found = metrics.iter().filter(|(m, _)| m == name);
        let (Some((_, value)), None) = (found.next(), found.next()) else {
            return Err(format!("metric {name} must be reported exactly once"));
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_reads_both_sections_of_benchmark_json() {
        let e2e = catalogue("end_to_end").unwrap();
        assert_eq!(e2e[0], ("pkts_per_s".to_string(), "pkt/s".to_string()));
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        let layers = catalogue("per_layer").unwrap();
        assert!(layers.iter().any(|(n, _)| n == "switch.aging_attrib_s"));
        assert!(catalogue("workloads_missing").is_err());
        let json = r#"{"m": [ {"name" : "a", "unit":"s"}, {"unit": "count", "name": "b"} ]}"#;
        assert_eq!(
            section(json, "m").unwrap(),
            vec![("a".into(), "s".into()), ("b".into(), "count".into())]
        );
        assert!(section(r#"{"m": [{"name": "a"}]}"#, "m").is_err());
    }

    #[test]
    fn render_refuses_undeclared_missing_and_duplicate_metrics() {
        let decl: &[Declared] = &[("a_s".into(), "s".into()), ("b".into(), "count".into())];
        let line = render(true, 3, 0, &[("b", 2.0), ("a_s", 0.125)], decl).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.125, \"unit\": \"s\"}, \
             \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        assert!(render(true, 1, 0, &[("a_s", 1.0)], decl).is_err());
        assert!(render(true, 1, 0, &[("a_s", 1.0), ("b", 1.0), ("c", 1.0)], decl).is_err());
        assert!(render(true, 1, 0, &[("a_s", 1.0), ("a_s", 1.0), ("b", 1.0)], decl).is_err());
        assert!(render(true, 1, 0, &[("a_s", f64::NAN), ("b", 1.0)], decl).is_err());
    }
}
