//! Closed-loop replay benchmark for the SuperFE pipeline.
//!
//! ```text
//! perfbench --workload <mawi_tenants|mirai_detect|corpus_evict>
//!           --seed <n> --seconds <s> --trace <0|1> [--holdout-seed <n>]
//! ```
//!
//! With `--trace 0` the benchmark deploys and replays the workload's trace
//! repeatedly for `--seconds` and reports the end-to-end metrics (medians
//! over the timed replays). With `--trace 1` it makes the traced passes
//! instead and reports the per-layer metrics. Either way every run's
//! outputs are checked bitwise against a sequential oracle, and the last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, where `attempted` and
//! `failed` count outputs (feature vectors and alerts).

#![deny(unsafe_code)]

mod check;
mod host;
mod inputs;
mod report;
mod spans;
mod stats;
mod watchdog;
mod workloads;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use superfe_net::PacketRecord;

use crate::check::Tally;
use crate::spans::Tracer;
use crate::workloads::{Ctx, Oracle, Outputs, SHARDS, THREADS};

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// MAWI-IXP trace, four tenants on one control plane.
    MawiTenants,
    /// Sparse Mirai trace, Kitsune with in-pipeline quantized KitNET.
    MiraiDetect,
    /// 100k-flow corpus under NIC table eviction.
    CorpusEvict,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::MawiTenants, Kind::MiraiDetect, Kind::CorpusEvict];

    fn name(self) -> &'static str {
        match self {
            Kind::MawiTenants => "mawi_tenants",
            Kind::MiraiDetect => "mirai_detect",
            Kind::CorpusEvict => "corpus_evict",
        }
    }
}

/// Timed replays at least, whatever `--seconds` says.
const MIN_REPS: usize = 5;
/// Untimed replays before the timed ones (checked like every replay).
const WARMUP_REPS: usize = 1;
/// Repetitions of each traced-mode pass (medians are reported).
const TRACE_REPS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    holdout: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut holdout = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == v)
                        .ok_or_else(|| format!("unknown workload {v}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--holdout-seed" => {
                holdout = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--holdout-seed: {e}"))?,
                );
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        holdout,
    })
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Samples of the end-to-end metrics.
#[derive(Default)]
struct Samples {
    pkts_per_s: Vec<f64>,
    setup_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    feature_delay_ms: Vec<f64>,
}

/// Resident memory of the inputs (trace, detector, oracle), measured once
/// before the first deploy after returning free pages to the kernel.
/// Peak resident memory of each replay is reported above this level.
fn inputs_resident_mb() -> Option<f64> {
    host::release_free_memory();
    host::rss_mb()
}

/// Deploys, replays closed loop, and checks the outputs against the
/// oracle, recording samples into `s` when given. A run error fails every
/// expected output.
fn one_rep(
    ctx: &Ctx,
    packets: &[PacketRecord],
    oracle: &Oracle,
    base_mb: Option<f64>,
    s: Option<&mut Samples>,
) -> Tally {
    watchdog::beat();
    let rep = || -> Result<Tally, String> {
        host::release_free_memory();
        host::reset_peak();
        let t0 = Instant::now();
        let (live, _) = workloads::deploy(ctx)?;
        let t1 = Instant::now();
        let out = workloads::replay(live, packets, None)?;
        let t2 = Instant::now();
        let peak = host::peak_mb();
        if let Some(s) = s {
            s.setup_s.push(secs(t1 - t0));
            s.pkts_per_s.push(packets.len() as f64 / secs(t2 - t1));
            s.peak_rss_mb
                .push(peak.zip(base_mb).map_or(0.0, |(p, b)| p - b));
            s.feature_delay_ms.push(out.delay_ms());
        }
        Ok(oracle.compare(&out))
    };
    rep().unwrap_or_else(|e| {
        eprintln!("run error: {e}");
        Tally::run_error(oracle.expected())
    })
}

fn describe(name: &str, unit: &str, v: &[f64]) {
    let (q1, m, q3) = stats::quartiles(v);
    println!(
        "  {name:<20} median {m:>14.6} {unit:<6} q1 {q1:.6} q3 {q3:.6} spread {:.4} n={}",
        stats::spread(v),
        v.len()
    );
}

fn end_to_end(
    ctx: &Ctx,
    packets: &[PacketRecord],
    seconds: f64,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, String> {
    watchdog::beat();
    let t = Instant::now();
    let oracle = Oracle::build(ctx, packets)?;
    println!(
        "oracle: {} expected outputs ({} alerts) in {:.3} s (untimed)",
        oracle.expected(),
        oracle.alert_count(),
        secs(t.elapsed())
    );
    let base = inputs_resident_mb();
    for _ in 0..WARMUP_REPS {
        tally.absorb(&one_rep(ctx, packets, &oracle, base, None));
    }
    let mut s = Samples::default();
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || secs(start.elapsed()) < seconds {
        tally.absorb(&one_rep(ctx, packets, &oracle, base, Some(&mut s)));
        reps += 1;
    }
    println!(
        "timed replays: {reps} in {:.3} s ({} packets each, closed loop)",
        secs(start.elapsed()),
        packets.len()
    );
    describe("pkts_per_s", "pkt/s", &s.pkts_per_s);
    describe("setup_s", "s", &s.setup_s);
    describe("peak_rss_mb", "MB", &s.peak_rss_mb);
    describe("feature_delay_ms", "ms", &s.feature_delay_ms);
    Ok(vec![
        ("pkts_per_s", stats::median(&s.pkts_per_s)),
        ("setup_s", stats::median(&s.setup_s)),
        ("peak_rss_mb", stats::median(&s.peak_rss_mb)),
        ("feature_delay_ms", stats::median(&s.feature_delay_ms)),
    ])
}

/// One streaming replay, with or without spans. Returns the replay wall time (first push to `finish`) and the
/// deploy breakdown.
fn stream_pass(
    ctx: &Ctx,
    packets: &[PacketRecord],
    oracle: &Oracle,
    tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Result<(f64, workloads::SetupParts), String> {
    watchdog::beat();
    let (live, parts) = workloads::deploy(ctx)?;
    let t = Instant::now();
    let out: Outputs = workloads::replay(live, packets, tracer)?;
    let wall = secs(t.elapsed());
    tally.absorb(&oracle.compare(&out));
    Ok((wall, parts))
}

fn med(v: impl IntoIterator<Item = f64>) -> f64 {
    stats::median(&v.into_iter().collect::<Vec<_>>())
}

fn traced(
    ctx: &Ctx,
    packets: &[PacketRecord],
    gen_s: f64,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, String> {
    use workloads::span;
    watchdog::beat();
    let oracle = Oracle::build(ctx, packets)?;
    watchdog::beat();
    let mut gate_s = Vec::new();
    let mut compiled = Vec::new();
    for _ in 0..TRACE_REPS {
        let t = Instant::now();
        compiled = workloads::compile_all(ctx.kind)?;
        gate_s.push(secs(t.elapsed()));
    }

    // Pass 1: the sequential composition, every call a span.
    let model = match ctx.kind {
        Kind::MiraiDetect => {
            let policy = superfe_policy::dsl::parse(superfe_apps::policies::KITSUNE)
                .map_err(|e| e.to_string())?;
            let frozen = ctx.frozen.as_ref().ok_or("mirai_detect needs a detector")?;
            Some(Arc::new(workloads::certified_model(&policy, frozen)?))
        }
        _ => None,
    };
    let mut seq = Tracer::default();
    watchdog::beat();
    let t = Instant::now();
    let (seq_out, counters) =
        workloads::sequential(ctx.kind, &compiled, model.as_ref(), packets, Some(&mut seq))?;
    let seq_wall = secs(t.elapsed());
    tally.absorb(&oracle.compare(&seq_out));
    drop(seq_out);
    print!(
        "{}",
        seq.table("sequential pass (one thread, every call timed)")
    );

    // Aging attribution: switch-only passes with the probe on and off.
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_REPS {
        watchdog::beat();
        on.push(workloads::switch_only(&compiled, packets, true)?);
        off.push(workloads::switch_only(&compiled, packets, false)?);
    }

    // Pass 2: the streaming composition, untraced and traced in turn.
    let (mut plain, mut traced_walls, mut tracers, mut parts) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TRACE_REPS {
        let (w, p) = stream_pass(ctx, packets, &oracle, None, tally)?;
        plain.push(w);
        parts.push(p);
        let mut tr = Tracer::default();
        let (w, _) = stream_pass(ctx, packets, &oracle, Some(&mut tr), tally)?;
        traced_walls.push(w);
        tracers.push(tr);
    }
    let median_run = {
        let m = stats::median(&traced_walls);
        traced_walls
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - m).abs().total_cmp(&(b.1 - m).abs()))
            .map_or(0, |(i, _)| i)
    };
    print!(
        "{}",
        tracers[median_run].table("streaming pass (producer + 1 NIC shard, median run)")
    );
    let stream = |name: &str| med(tracers.iter().map(|t| t.total_s(name)));

    let switch_busy = seq.total_s("switch.process_into") + seq.total_s("switch.flush_into");
    let handle_s = seq.total_s("nic.handle");
    let nic_busy =
        handle_s + seq.total_s("nic.take_packet_vectors") + seq.total_s("nic.take_evicted");
    let score_s = seq.total_s("ml.score");
    let per = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e9 / n as f64 };
    let ev = counters.cache.evictions;
    let plain_wall = stats::median(&plain);
    let traced_wall = stats::median(&traced_walls);
    let aging = stats::median(&on) - stats::median(&off);
    let seq_sum = seq.sum_s();
    let metrics = vec![
        ("trafficgen.gen_s", gen_s),
        ("policy.gate_s", stats::median(&gate_s)),
        ("ml.certify_s", med(parts.iter().map(|p| p.certify_s))),
        ("ml.score_s", score_s),
        ("ml.ns_per_vector", per(score_s, counters.scored)),
        ("ml.vectors", counters.scored as f64),
        ("ml.alerts", counters.alerts as f64),
        ("ctrl.attach_s", med(parts.iter().map(|p| p.attach_s))),
        ("ctrl.push_s", stream(span::CTRL_PUSH)),
        ("ctrl.finish_s", stream(span::CTRL_FINISH)),
        ("ctrl.units", parts.first().map_or(0, |p| p.units) as f64),
        (
            "ctrl.partitions",
            parts.first().map_or(0, |p| p.partitions) as f64,
        ),
        ("switch.busy_s", switch_busy),
        (
            "switch.ns_per_pkt",
            per(switch_busy, counters.switch.pkts_in),
        ),
        ("switch.aging_attrib_s", aging),
        ("switch.msgs", counters.switch.msgs_out as f64),
        (
            "switch.records_per_msg",
            counters.cache.records_per_message(),
        ),
        ("switch.evictions_collision", ev[0] as f64),
        ("switch.evictions_full", (ev[1] + ev[2]) as f64),
        ("switch.evictions_aging", ev[3] as f64),
        ("switch.evictions_fg", ev[4] as f64),
        ("net.push_s", stream(span::PUSH)),
        ("net.drain_s", stream(span::DRAIN)),
        ("nic.busy_s", nic_busy),
        ("nic.ns_per_record", per(handle_s, counters.nic.records)),
        ("nic.records", counters.nic.records as f64),
        ("nic.finish_s", seq.total_s("nic.finish")),
        ("nic.evicted_groups", counters.nic.evicted_groups as f64),
        ("nic.overflow_drops", counters.nic.overflow_drops as f64),
        ("bench.trace_overhead_frac", traced_wall / plain_wall - 1.0),
        ("bench.seq_unattributed_frac", 1.0 - seq_sum / seq_wall),
        ("host.nproc", host::nproc() as f64),
        ("host.threads", THREADS as f64),
    ];
    println!(
        "attribution: switch-only {:.6} s with aging, {:.6} s without ({:.1}% aging); \
         sequential wall {seq_wall:.6} s, spans cover {:.2}%; streaming wall {plain_wall:.6} s \
         untraced, {traced_wall:.6} s traced ({:+.2}%)",
        stats::median(&on),
        stats::median(&off),
        100.0 * aging / stats::median(&on),
        100.0 * seq_sum / seq_wall,
        100.0 * (traced_wall / plain_wall - 1.0),
    );
    Ok(metrics)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let kind = args.kind;
    let nproc = host::nproc();
    println!(
        "workload {} seed={} host nproc={nproc} threads={THREADS} (producer + {SHARDS} NIC shard)",
        kind.name(),
        args.seed
    );
    if THREADS > nproc {
        let msg = format!(
            "WARNING: {THREADS} threads on {nproc} core(s): the replay is oversubscribed and \
             its throughput measures time slicing, not the pipeline"
        );
        println!("{msg}");
        eprintln!("{msg}");
    }

    let t = Instant::now();
    let packets = inputs::trace(kind, args.seed);
    let gen_s = secs(t.elapsed());
    println!(
        "{} generated in {gen_s:.3} s (untimed)",
        inputs::Fingerprint::of(&packets).line(args.seed)
    );
    let frozen = match kind {
        Kind::MiraiDetect => {
            let (f, train_s) = inputs::train_detector()?;
            println!(
                "detector: kitnet threshold={:.6e} trained in {train_s:.3} s (untimed)",
                f.threshold()
            );
            Some(f)
        }
        _ => None,
    };
    let ctx = Ctx { kind, frozen };
    watchdog::beat();

    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(&ctx, &packets, gen_s, &mut tally)?
    } else {
        end_to_end(&ctx, &packets, args.seconds, &mut tally)?
    };
    drop(packets);

    if let Some(h) = args.holdout {
        watchdog::beat();
        let packets = inputs::trace(kind, h);
        let oracle = Oracle::build(&ctx, &packets)?;
        let t = one_rep(&ctx, &packets, &oracle, None, None);
        println!(
            "holdout {}: {} outputs, {} failed",
            inputs::Fingerprint::of(&packets).line(h),
            t.expected,
            t.failed()
        );
        tally.absorb(&t);
    }
    println!("{}", result_line(args.trace, metrics, &tally)?);
    Ok(())
}

/// The result line: the mode's metrics, each declared in `BENCHMARK.json`,
/// with `output_match_frac` added to the end-to-end ones.
fn result_line(
    trace: bool,
    mut metrics: Vec<(&'static str, f64)>,
    tally: &Tally,
) -> Result<String, String> {
    let error_frac = if tally.expected == 0 {
        1.0
    } else {
        tally.failed() as f64 / tally.expected as f64
    };
    println!(
        "outputs: {} expected, {} missing, {} extra, {} mismatched; output_error_frac {error_frac}",
        tally.expected, tally.missing, tally.extra, tally.mismatched
    );
    let declared = if trace {
        report::catalogue("per_layer")?
    } else {
        metrics.push(("output_match_frac", 1.0 - error_frac));
        report::catalogue("end_to_end")?
    };
    report::render(
        tally.failed() == 0 && tally.expected > 0,
        tally.expected.max(1),
        tally.failed(),
        &metrics,
        &declared,
    )
}

fn main() -> ExitCode {
    match watchdog::guard(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> Vec<PacketRecord> {
        (0..3000u64)
            .map(|i| {
                let flow = (i % 37) as u32;
                PacketRecord::tcp(i * 20_000, 100 + (i % 7) as u16, 10 + flow, 1000, 99, 80)
            })
            .collect()
    }

    #[test]
    fn healthy_replay_matches_the_oracle() {
        let packets = tiny_trace();
        let ctx = Ctx {
            kind: Kind::CorpusEvict,
            frozen: None,
        };
        let oracle = Oracle::build(&ctx, &packets).unwrap();
        let mut s = Samples::default();
        let t = one_rep(&ctx, &packets, &oracle, inputs_resident_mb(), Some(&mut s));
        assert!(t.expected > 0);
        assert_eq!(t.failed(), 0, "{t:?}");
        assert_eq!(s.pkts_per_s.len(), 1);
    }

    #[test]
    fn every_printed_metric_is_declared_in_benchmark_json() {
        let packets = tiny_trace();
        let ctx = Ctx {
            kind: Kind::CorpusEvict,
            frozen: None,
        };
        for trace in [false, true] {
            let mut tally = Tally::default();
            let metrics = if trace {
                traced(&ctx, &packets, 0.5, &mut tally).unwrap()
            } else {
                end_to_end(&ctx, &packets, 0.0, &mut tally).unwrap()
            };
            let line = result_line(trace, metrics, &tally).unwrap();
            assert!(line.starts_with("{\"correct\": true,"), "{line}");
        }
    }

    #[test]
    fn injected_run_error_fails_every_expected_output() {
        let packets = tiny_trace();
        let oracle = Oracle::build(
            &Ctx {
                kind: Kind::CorpusEvict,
                frozen: None,
            },
            &packets,
        )
        .unwrap();
        // Mirai without its detector cannot deploy: the rep must turn the
        // error into failed outputs instead of panicking.
        let broken = Ctx {
            kind: Kind::MiraiDetect,
            frozen: None,
        };
        let mut s = Samples::default();
        let t = one_rep(&broken, &packets, &oracle, None, Some(&mut s));
        assert_eq!(
            (t.expected, t.failed()),
            (oracle.expected(), oracle.expected())
        );
        assert!(s.pkts_per_s.is_empty());
    }
}
