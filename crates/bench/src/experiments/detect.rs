//! Online detection: the `BENCH_detect.json` artifact.
//!
//! Trains a detector on a benign intrusion-scenario trace through the
//! `Training → Calibrating → Serving` lifecycle, then serves a labelled
//! attack trace with the frozen detector scoring inside the NIC shards
//! ([`StreamingPipeline::with_inference`]) and reports:
//!
//! - **detection** (deterministic for a given seed — byte-identical
//!   run-to-run, asserted in tests): calibrated threshold, the in-shard
//!   scorer's scored/alert counts, alerts split by ground-truth label,
//!   precision/recall/F1/AUC;
//! - **throughput** (timing-dependent): packets/second of extraction alone
//!   and with the float detector scoring in-shard — measured through the
//!   [`crate::harness`] warmup-then-measure protocol with run-to-run
//!   statistics;
//! - **in_pipeline** (with `in_pipeline`): the same for the SF09xx-certified
//!   fixed-point lowering of the detector.
//!
//! Label-split and ranking figures need a score for every vector, not just
//! for the alerts that leave the pipeline: they come from offline scoring
//! of the run's own vectors with the same model, which reproduces the
//! in-shard scores bitwise (`tests/detect_differential.rs`).

use std::collections::HashMap;
use std::sync::Arc;

use superfe_core::{Extraction, StreamingPipeline, SuperFe, SuperFeConfig};
use superfe_detect::{
    max_score_delta, score_offline, score_offline_quantized, DetectorKind, QuantizedSection,
    ScoredVector,
};
use superfe_ml::{auc, train_and_calibrate, CalibrationConfig, Confusion, FrozenDetector};
use superfe_net::{Granularity, GroupKey};
use superfe_policy::analyze::quant::{certify, QuantCheckConfig};
use superfe_policy::PolicyError;
use superfe_trafficgen::intrusion::{self, IntrusionConfig, Scenario};

use crate::harness::{self, host_json, HarnessConfig, Measurement, RunStats};

/// The policy under measurement: Kitsune's 115-dimensional per-packet
/// feature vector over three granularities.
pub const POLICY: &str = superfe_apps::policies::KITSUNE;

/// Configuration of the detect benchmark (CLI `superfe detect`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetectConfig {
    /// Which intrusion scenario to serve.
    pub scenario: Scenario,
    /// Which detector model to train.
    pub detector: DetectorKind,
    /// Benign packets in the training trace (seeded with `seed`).
    pub benign_packets: usize,
    /// Benign packets in the served trace (seeded with `seed + 1`).
    pub serve_benign: usize,
    /// Attack packets in the served trace.
    pub attack_packets: usize,
    /// Base RNG seed: the training trace uses `seed`, the served trace
    /// `seed + 1`, and the detector (KitNET init / CART background) `seed`.
    pub seed: u64,
    /// NIC shard count.
    pub workers: usize,
    /// Calibration quantile (see [`CalibrationConfig`]).
    pub quantile: f64,
    /// Calibration margin (see [`CalibrationConfig`]).
    pub margin: f64,
    /// Also measure the in-pipeline quantized path: certify the detector's
    /// fixed-point lowering (SF09xx), serve the same trace with it scoring
    /// in-shard, and report its cost next to the float scorer's.
    pub in_pipeline: bool,
}

impl Default for DetectConfig {
    fn default() -> Self {
        let cal = CalibrationConfig::default();
        DetectConfig {
            scenario: Scenario::Mirai,
            detector: DetectorKind::KitNet,
            benign_packets: 6_000,
            serve_benign: 3_000,
            attack_packets: 1_500,
            seed: 1,
            workers: 2,
            quantile: cal.quantile,
            margin: cal.margin,
            in_pipeline: false,
        }
    }
}

/// Parses a scenario name (case-insensitive, `-`/`_` interchangeable).
pub fn parse_scenario(s: &str) -> Option<Scenario> {
    let norm = s.to_ascii_lowercase().replace('-', "_");
    Scenario::all()
        .into_iter()
        .find(|sc| sc.name().to_ascii_lowercase() == norm)
}

/// The deterministic half of the measurement: same seed, same bytes.
#[derive(Clone, Debug)]
pub struct DetectionSummary {
    /// Feature dimension of the policy's per-packet vectors.
    pub feature_dim: usize,
    /// Vectors used for training (before the calibration split).
    pub train_vectors: usize,
    /// Held-out benign vectors used for calibration.
    pub calibration_vectors: usize,
    /// The calibrated alert threshold.
    pub threshold: f64,
    /// Vectors scored by the in-shard float scorer.
    pub scored: u64,
    /// Scored vectors matched to a ground-truth label.
    pub matched: usize,
    /// Alerts the in-shard float scorer raised.
    pub alerts: u64,
    /// Alerts whose vector is labelled attack (true positives).
    pub alerts_on_attack: usize,
    /// Alerts whose vector is labelled benign (false positives; the CI
    /// smoke requires 0 here).
    pub alerts_on_benign: usize,
    /// Precision at the calibrated threshold.
    pub precision: f64,
    /// Recall at the calibrated threshold.
    pub recall: f64,
    /// F1 at the calibrated threshold.
    pub f1: f64,
    /// Threshold-free ranking quality.
    pub auc: f64,
}

/// The timing half of the measurement (not reproducible run-to-run).
#[derive(Clone, Debug)]
pub struct ThroughputSummary {
    /// Packets in the served trace.
    pub packets: usize,
    /// Streaming extraction alone, packets/second (mean run).
    pub extract_pkts_per_sec: f64,
    /// Extraction with the float detector scoring in-shard,
    /// packets/second (mean run).
    pub detect_pkts_per_sec: f64,
    /// Extraction-only wall-clock statistics, milliseconds.
    pub extract_elapsed_ms: RunStats,
    /// Extraction-plus-scoring wall-clock statistics, milliseconds.
    pub detect_elapsed_ms: RunStats,
    /// Relative slowdown of attaching the scorer, percent.
    pub inference_overhead_pct: f64,
}

/// The in-pipeline half of the measurement: the SF09xx certificate, the
/// fixed-point stage's alert stream, and its cost next to extraction-only.
#[derive(Clone, Debug)]
pub enum InPipelineSummary {
    /// The detector has no fixed-point lowering (e.g. `knn`); the reason is
    /// the SF0902 culprit.
    Unsupported {
        /// Blocking layer reported by the SF09xx pass.
        reason: String,
    },
    /// The quantized stage ran in-pipeline.
    Measured {
        /// Certificate-derived report section (format, bound, measured
        /// delta, inline alert counts).
        section: QuantizedSection,
        /// In-pipeline serving throughput, packets/second (mean run).
        pkts_per_sec: f64,
        /// In-pipeline wall-clock statistics, milliseconds.
        elapsed_ms: RunStats,
        /// In-pipeline throughput relative to extraction-only (the
        /// acceptance floor is 0.85).
        vs_extract_ratio: f64,
        /// Quantized-scored vectors matched to a ground-truth label.
        matched: usize,
        /// Inline alerts on attack-labelled vectors.
        alerts_on_attack: usize,
        /// Inline alerts on benign-labelled vectors.
        alerts_on_benign: usize,
    },
}

/// The full `BENCH_detect.json` measurement.
#[derive(Clone, Debug)]
pub struct DetectBench {
    /// The configuration measured.
    pub cfg: DetectConfig,
    /// Warmup/measured run protocol in force.
    pub harness: HarnessConfig,
    /// Deterministic detection results.
    pub detection: DetectionSummary,
    /// Timing results.
    pub throughput: ThroughputSummary,
    /// In-pipeline quantized results (when `cfg.in_pipeline`).
    pub in_pipeline: Option<InPipelineSummary>,
}

/// Runs the benchmark: train + calibrate offline, serve online, score.
///
/// Returns an error string for degenerate configurations (for the CLI to
/// surface) instead of panicking.
pub fn measure(cfg: &DetectConfig) -> Result<DetectBench, String> {
    measure_with(cfg, &HarnessConfig::default())
}

/// [`measure`] under an explicit warmup/runs protocol.
///
/// Only the throughput section depends on the protocol: the detection
/// section is deterministic per seed, so repeating the serving run changes
/// which (byte-identical) report is summarized, not its content.
pub fn measure_with(cfg: &DetectConfig, hcfg: &HarnessConfig) -> Result<DetectBench, String> {
    // --- Train + calibrate on a benign trace (offline extraction). ---
    let train_set = intrusion::generate(&IntrusionConfig {
        scenario: cfg.scenario,
        benign_packets: cfg.benign_packets,
        attack_packets: 0,
        seed: cfg.seed,
    });
    let mut fe = SuperFe::from_dsl(POLICY).map_err(|e| e.to_string())?;
    for (p, _) in &train_set.labelled {
        fe.push(p);
    }
    let train_vectors = fe.finish().packet_vectors;
    if train_vectors.is_empty() {
        return Err("training trace produced no feature vectors".into());
    }
    let dim = train_vectors[0].values.len();
    let refs: Vec<&[f64]> = train_vectors.iter().map(|v| v.values.as_slice()).collect();
    let cal_frac = 0.2;
    let det = cfg
        .detector
        .build(dim, cfg.seed)
        .map_err(|e| e.to_string())?;
    let frozen = train_and_calibrate(
        det,
        &refs,
        cal_frac,
        CalibrationConfig {
            quantile: cfg.quantile,
            margin: cfg.margin,
        },
    )
    .map_err(|e| e.to_string())?;
    let calibration_vectors =
        ((refs.len() as f64 * cal_frac).round() as usize).clamp(1, refs.len() - 1);

    // --- The served trace: benign warm-up, then the attack window. ---
    let serve_set = intrusion::generate(&IntrusionConfig {
        scenario: cfg.scenario,
        benign_packets: cfg.serve_benign,
        attack_packets: cfg.attack_packets,
        seed: cfg.seed + 1,
    });
    let packets = serve_set.labelled.len();

    // Baseline: streaming extraction with no detector attached; then the
    // frozen detector scoring in-shard.
    let policy = superfe_policy::dsl::parse(POLICY).map_err(|e| e.to_string())?;
    let (extract, _) = serve_runs(hcfg, &serve_set.labelled, || {
        StreamingPipeline::with_config(&policy, SuperFeConfig::default(), cfg.workers)
    })?;
    let (detect, ex) = serve_runs(hcfg, &serve_set.labelled, || {
        StreamingPipeline::with_inference(
            &policy,
            SuperFeConfig::default(),
            cfg.workers,
            frozen.clone(),
        )
    })?;
    let stats = ex.inline_stats.unwrap_or_default();

    // --- Match scores to ground truth by (socket key, occurrence). ---
    let mut occurrence: HashMap<GroupKey, usize> = HashMap::new();
    let mut label_of: HashMap<(GroupKey, usize), bool> = HashMap::new();
    for (p, l) in &serve_set.labelled {
        let k = Granularity::Socket.key_of(p);
        let n = occurrence.entry(k).or_insert(0);
        label_of.insert((k, *n), *l);
        *n += 1;
    }
    let off = score_offline(
        &frozen,
        &ex.packet_vectors,
        &ex.group_vectors,
        cfg.scenario.name(),
    );
    let scored_pairs = labelled_scores(&off.scores, &label_of);
    let threshold = frozen.threshold();
    let (alerts_on_attack, alerts_on_benign) = split_alerts(&scored_pairs, threshold);
    let conf = Confusion::from_pairs(scored_pairs.iter().map(|&(s, l)| (s > threshold, l)));
    let roc = auc(&scored_pairs);

    let extract_pps = packets as f64 / extract.mean_secs();
    let detect_pps = packets as f64 / detect.mean_secs();
    let in_pipeline = if cfg.in_pipeline {
        Some(measure_in_pipeline(
            cfg,
            hcfg,
            &frozen,
            &serve_set.labelled,
            &label_of,
            extract_pps,
        )?)
    } else {
        None
    };
    Ok(DetectBench {
        cfg: *cfg,
        harness: *hcfg,
        detection: DetectionSummary {
            feature_dim: dim,
            train_vectors: refs.len() - calibration_vectors,
            calibration_vectors,
            threshold,
            scored: stats.scored,
            matched: scored_pairs.len(),
            alerts: stats.alerts,
            alerts_on_attack,
            alerts_on_benign,
            precision: conf.precision(),
            recall: conf.recall(),
            f1: conf.f1(),
            auc: roc,
        },
        throughput: ThroughputSummary {
            packets,
            extract_pkts_per_sec: extract_pps,
            detect_pkts_per_sec: detect_pps,
            extract_elapsed_ms: extract.elapsed_ms(),
            detect_elapsed_ms: detect.elapsed_ms(),
            inference_overhead_pct: (extract_pps / detect_pps - 1.0) * 100.0,
        },
        in_pipeline,
    })
}

/// Serves `labelled` through pipelines built by `deploy` under the harness
/// protocol. Deployment errors surface once, from a pre-flight build; the
/// per-run rebuilds then cannot fail differently (same inputs). Returns the
/// timing and the last run's extraction — deterministic per seed, so
/// summarizing it is summarizing every run's.
fn serve_runs(
    hcfg: &HarnessConfig,
    labelled: &[(superfe_net::PacketRecord, bool)],
    deploy: impl Fn() -> Result<StreamingPipeline, PolicyError>,
) -> Result<(Measurement, Extraction), String> {
    deploy().map_err(|e| e.to_string())?;
    let mut last = None;
    let run = harness::measure(hcfg, |_| {
        let mut fe = deploy().expect("pre-flight deployed");
        for (p, _) in labelled {
            fe.push(p).expect("workers alive");
        }
        last = Some(fe.finish().expect("workers alive"));
    });
    Ok((run, last.expect("at least one measured run")))
}

/// Pairs each canonically ordered score with its ground-truth label, by
/// (key, per-key occurrence); unlabelled vectors are skipped.
fn labelled_scores(
    scores: &[ScoredVector],
    label_of: &HashMap<(GroupKey, usize), bool>,
) -> Vec<(f64, bool)> {
    let mut occ: HashMap<GroupKey, usize> = HashMap::new();
    scores
        .iter()
        .filter_map(|s| {
            let n = occ.entry(s.key).or_insert(0);
            let key = (s.key, *n);
            *n += 1;
            label_of.get(&key).map(|&l| (s.score, l))
        })
        .collect()
}

/// Alerts (`score > threshold`) on attack- and benign-labelled vectors.
fn split_alerts(pairs: &[(f64, bool)], threshold: f64) -> (usize, usize) {
    let on = |label: bool| {
        pairs
            .iter()
            .filter(|&&(s, l)| l == label && s > threshold)
            .count()
    };
    (on(true), on(false))
}

/// Certifies the fixed-point lowering, serves the trace through the
/// in-pipeline stage under the harness protocol, and assembles the
/// in-pipeline section.
fn measure_in_pipeline(
    cfg: &DetectConfig,
    hcfg: &HarnessConfig,
    frozen: &FrozenDetector,
    labelled: &[(superfe_net::PacketRecord, bool)],
    label_of: &HashMap<(GroupKey, usize), bool>,
    extract_pps: f64,
) -> Result<InPipelineSummary, String> {
    let policy = superfe_policy::dsl::parse(POLICY).map_err(|e| e.to_string())?;
    let cert = certify(&policy, frozen, &QuantCheckConfig::default());
    let Some(model) = cert.detector else {
        return Ok(InPipelineSummary::Unsupported {
            reason: cert.culprit.unwrap_or_else(|| "lowering".into()),
        });
    };
    let model = Arc::new(model);

    let (run, ex) = serve_runs(hcfg, labelled, || {
        StreamingPipeline::with_inference(
            &policy,
            SuperFeConfig::default(),
            cfg.workers,
            model.clone(),
        )
    })?;
    let stats = ex.inline_stats.unwrap_or_default();

    // Reference-score the extraction's own vectors with the same quantized
    // model to split inline alerts by ground-truth label, and measure the
    // float-vs-quantized divergence the SF0901 bound must dominate.
    let off = score_offline_quantized(
        &model,
        &ex.packet_vectors,
        &ex.group_vectors,
        cfg.scenario.name(),
    );
    let pairs = labelled_scores(&off.scores, label_of);
    let (alerts_on_attack, alerts_on_benign) = split_alerts(&pairs, model.threshold());
    let delta = max_score_delta(
        frozen,
        &model,
        ex.packet_vectors.iter().chain(&ex.group_vectors),
    );

    let pps = labelled.len() as f64 / run.mean_secs();
    Ok(InPipelineSummary::Measured {
        section: QuantizedSection {
            format: model.format(),
            certified: cert.certified,
            bound: cert.bound,
            culprit: cert.culprit,
            alu_ops: cert.alu_ops,
            threshold: model.threshold(),
            scored: stats.scored,
            alerts: stats.alerts,
            dim_errors: stats.dim_errors,
            score_delta_max: delta,
        },
        pkts_per_sec: pps,
        elapsed_ms: run.elapsed_ms(),
        vs_extract_ratio: pps / extract_pps,
        matched: pairs.len(),
        alerts_on_attack,
        alerts_on_benign,
    })
}

impl DetectBench {
    /// The deterministic detection section alone (the part asserted
    /// byte-identical across same-seed runs).
    pub fn detection_json(&self) -> String {
        let d = &self.detection;
        let mut out = String::from("  \"detection\": {\n");
        out.push_str(&format!("    \"feature_dim\": {},\n", d.feature_dim));
        out.push_str(&format!("    \"train_vectors\": {},\n", d.train_vectors));
        out.push_str(&format!(
            "    \"calibration_vectors\": {},\n",
            d.calibration_vectors
        ));
        out.push_str(&format!("    \"threshold\": {:.9e},\n", d.threshold));
        out.push_str(&format!("    \"scored\": {},\n", d.scored));
        out.push_str(&format!("    \"matched\": {},\n", d.matched));
        out.push_str(&format!("    \"alerts\": {},\n", d.alerts));
        out.push_str(&format!(
            "    \"alerts_on_attack\": {},\n",
            d.alerts_on_attack
        ));
        out.push_str(&format!(
            "    \"alerts_on_benign\": {},\n",
            d.alerts_on_benign
        ));
        out.push_str(&format!("    \"precision\": {:.4},\n", d.precision));
        out.push_str(&format!("    \"recall\": {:.4},\n", d.recall));
        out.push_str(&format!("    \"f1\": {:.4},\n", d.f1));
        out.push_str(&format!("    \"auc\": {:.4}\n", d.auc));
        out.push_str("  }");
        out
    }

    /// Renders the full `BENCH_detect.json` document.
    pub fn to_json(&self) -> String {
        let t = &self.throughput;
        let mut out = String::from("{\n");
        out.push_str("  \"experiment\": \"online_detection\",\n");
        out.push_str("  \"policy\": \"Kitsune\",\n");
        out.push_str(&format!(
            "  \"scenario\": \"{}\",\n",
            self.cfg.scenario.name()
        ));
        out.push_str(&format!(
            "  \"detector\": \"{}\",\n",
            self.cfg.detector.name()
        ));
        out.push_str(&format!("  \"seed\": {},\n", self.cfg.seed));
        out.push_str(&format!("  \"workers\": {},\n", self.cfg.workers));
        out.push_str(&format!("  {},\n", host_json()));
        out.push_str(&format!(
            "  \"warmup_runs\": {}, \"measured_runs\": {},\n",
            self.harness.warmup,
            self.harness.runs.max(1)
        ));
        out.push_str(&self.detection_json());
        out.push_str(",\n");
        out.push_str("  \"throughput\": {\n");
        out.push_str(&format!("    \"packets\": {},\n", t.packets));
        out.push_str(&format!(
            "    \"extract_pkts_per_sec\": {:.0},\n",
            t.extract_pkts_per_sec
        ));
        out.push_str(&format!(
            "    \"detect_pkts_per_sec\": {:.0},\n",
            t.detect_pkts_per_sec
        ));
        out.push_str(&format!(
            "    \"inference_overhead_pct\": {:.1},\n",
            t.inference_overhead_pct
        ));
        out.push_str(&format!(
            "    {},\n",
            t.extract_elapsed_ms.to_json_fields("extract_elapsed_ms")
        ));
        out.push_str(&format!(
            "    {}\n",
            t.detect_elapsed_ms.to_json_fields("detect_elapsed_ms")
        ));
        out.push_str("  }");
        if let Some(ip) = &self.in_pipeline {
            out.push_str(",\n");
            out.push_str(&Self::in_pipeline_json(ip));
        }
        out.push_str("\n}\n");
        out
    }

    /// Renders the `"in_pipeline"` section: the SF09xx certificate next to
    /// the measured in-pipeline cost and score fidelity.
    fn in_pipeline_json(ip: &InPipelineSummary) -> String {
        let mut out = String::from("  \"in_pipeline\": {\n");
        match ip {
            InPipelineSummary::Unsupported { reason } => {
                out.push_str("    \"supported\": false,\n");
                out.push_str(&format!("    \"reason\": \"{reason}\"\n"));
            }
            InPipelineSummary::Measured {
                section,
                pkts_per_sec,
                elapsed_ms,
                vs_extract_ratio,
                matched,
                alerts_on_attack,
                alerts_on_benign,
            } => {
                out.push_str("    \"supported\": true,\n");
                out.push_str(&format!("    \"format\": \"{}\",\n", section.format));
                out.push_str(&format!("    \"certified\": {},\n", section.certified));
                if section.bound.is_finite() {
                    out.push_str(&format!("    \"bound\": {:.9e},\n", section.bound));
                } else {
                    out.push_str("    \"bound\": null,\n");
                }
                match &section.culprit {
                    Some(c) => out.push_str(&format!("    \"culprit\": \"{c}\",\n")),
                    None => out.push_str("    \"culprit\": null,\n"),
                }
                out.push_str(&format!("    \"alu_ops\": {},\n", section.alu_ops));
                out.push_str(&format!("    \"threshold\": {:.9e},\n", section.threshold));
                out.push_str(&format!("    \"scored\": {},\n", section.scored));
                out.push_str(&format!("    \"alerts\": {},\n", section.alerts));
                out.push_str(&format!("    \"dim_errors\": {},\n", section.dim_errors));
                out.push_str(&format!("    \"matched\": {matched},\n"));
                out.push_str(&format!("    \"alerts_on_attack\": {alerts_on_attack},\n"));
                out.push_str(&format!("    \"alerts_on_benign\": {alerts_on_benign},\n"));
                out.push_str(&format!(
                    "    \"score_delta_max\": {:.9e},\n",
                    section.score_delta_max
                ));
                out.push_str(&format!(
                    "    \"delta_within_bound\": {},\n",
                    section.delta_within_bound()
                ));
                out.push_str(&format!(
                    "    \"inpipeline_pkts_per_sec\": {pkts_per_sec:.0},\n"
                ));
                out.push_str(&format!(
                    "    \"vs_extract_ratio\": {vs_extract_ratio:.3},\n"
                ));
                out.push_str(&format!(
                    "    {}\n",
                    elapsed_ms.to_json_fields("inpipeline_elapsed_ms")
                ));
            }
        }
        out.push_str("  }");
        out
    }
}

/// Runs the default configuration (with the in-pipeline row enabled) and
/// returns the JSON document.
pub fn run() -> String {
    measure(&DetectConfig {
        in_pipeline: true,
        ..DetectConfig::default()
    })
    .map(|b| b.to_json())
    .unwrap_or_else(|e| format!("{{ \"error\": \"{e}\" }}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small, fast configuration for tests.
    fn small() -> DetectConfig {
        DetectConfig {
            detector: DetectorKind::Centroid,
            benign_packets: 1_200,
            serve_benign: 600,
            attack_packets: 300,
            workers: 2,
            ..DetectConfig::default()
        }
    }

    /// One run, no warmup: keeps each test's workload identical to the
    /// pre-harness single-run bench.
    fn fast() -> HarnessConfig {
        HarnessConfig { warmup: 0, runs: 1 }
    }

    #[test]
    fn detection_section_is_byte_identical_across_runs() {
        let cfg = small();
        let a = measure_with(&cfg, &fast()).unwrap();
        let b = measure_with(&cfg, &fast()).unwrap();
        assert_eq!(
            a.detection_json(),
            b.detection_json(),
            "same seed must reproduce the detection section byte-for-byte"
        );
    }

    #[test]
    fn different_seed_changes_the_workload() {
        let a = measure_with(&small(), &fast()).unwrap();
        let b = measure_with(
            &DetectConfig {
                seed: 99,
                ..small()
            },
            &fast(),
        )
        .unwrap();
        // The threshold is derived from seeded traffic: a different seed
        // must be visible in the deterministic section.
        assert_ne!(a.detection_json(), b.detection_json());
    }

    #[test]
    fn json_has_expected_schema() {
        let json = measure_with(&small(), &fast()).unwrap().to_json();
        for key in [
            "\"experiment\"",
            "\"scenario\"",
            "\"detector\"",
            "\"seed\"",
            "\"detection\"",
            "\"threshold\"",
            "\"alerts_on_attack\"",
            "\"alerts_on_benign\"",
            "\"f1\"",
            "\"auc\"",
            "\"throughput\"",
            "\"inference_overhead_pct\"",
            "\"host_parallelism\"",
            "\"flat_expected\"",
            "\"warmup_runs\"",
            "\"measured_runs\"",
            "\"extract_elapsed_ms_mean\"",
            "\"detect_elapsed_ms_stddev\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn in_pipeline_section_measures_the_quantized_path() {
        // A tighter margin than the default 1.1 so the small centroid
        // config actually crosses the threshold on attack traffic.
        let cfg = DetectConfig {
            in_pipeline: true,
            quantile: 0.99,
            margin: 1.0,
            ..small()
        };
        let bench = measure_with(&cfg, &fast()).unwrap();
        let Some(InPipelineSummary::Measured {
            section,
            matched,
            alerts_on_attack,
            vs_extract_ratio,
            ..
        }) = &bench.in_pipeline
        else {
            panic!("centroid must lower to a measured in-pipeline section");
        };
        assert!(section.scored > 0, "inline stage scored nothing");
        assert_eq!(section.dim_errors, 0);
        assert!(*matched > 0, "no quantized scores matched a label");
        assert!(
            section.delta_within_bound(),
            "measured delta {} exceeds certified bound {}",
            section.score_delta_max,
            section.bound
        );
        // The attack must still be visible through the fixed-point path.
        assert!(*alerts_on_attack > 0, "quantized path missed the attack");
        assert!(*vs_extract_ratio > 0.0);
        let json = bench.to_json();
        for key in [
            "\"in_pipeline\"",
            "\"supported\": true",
            "\"format\"",
            "\"certified\"",
            "\"score_delta_max\"",
            "\"delta_within_bound\"",
            "\"vs_extract_ratio\"",
            "\"inpipeline_pkts_per_sec\"",
            "\"inpipeline_elapsed_ms_mean\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn unquantizable_detector_reports_unsupported() {
        let cfg = DetectConfig {
            detector: DetectorKind::Knn,
            in_pipeline: true,
            ..small()
        };
        let bench = measure_with(&cfg, &fast()).unwrap();
        let Some(InPipelineSummary::Unsupported { reason }) = &bench.in_pipeline else {
            panic!("knn has no fixed-point lowering");
        };
        assert!(!reason.is_empty());
        let json = bench.to_json();
        assert!(json.contains("\"supported\": false"));
    }

    #[test]
    fn scenario_names_parse() {
        for sc in Scenario::all() {
            assert_eq!(parse_scenario(sc.name()), Some(sc));
        }
        assert_eq!(parse_scenario("syn-dos"), Some(Scenario::SynDos));
        assert_eq!(parse_scenario("unknown"), None);
    }
}
