//! The reusable measurement harness: warmup, repeated runs, run-to-run
//! statistics, and per-stage latency breakdowns on one monotonic clock.
//!
//! Every `superfe bench` experiment (`throughput`, `ctrl`, `detect`) runs
//! its workloads through [`measure`] instead of a bare `Instant::now()`
//! pair:
//!
//! - **Warmup runs** execute the workload and discard the timing, so cold
//!   caches, first-touch page faults, and thread spawn-up never pollute the
//!   reported numbers.
//! - **N measured runs** each get one wall-clock sample from
//!   [`superfe_net::monotonic_ns`] — the same process-wide monotonic
//!   anchor the data-path instrumentation uses, so every number in a bench
//!   document shares one time base.
//! - **Run-to-run statistics** ([`RunStats`]) report mean, stddev, min,
//!   max, and p50/p95/p99 over the measured samples — a flat stddev is the
//!   difference between a trustworthy speedup and noise.
//! - **Per-stage histograms**: workloads that thread the provided
//!   [`StageMetrics`] into their pipeline (queue dwell → shard processing →
//!   in-shard scoring, reported as `sink`) get the merged distribution
//!   across all measured runs in
//!   [`Measurement::stages`].
//!
//! JSON emission helpers ([`RunStats::to_json`],
//! [`stage_summaries_json`], [`host_json`]) keep the enriched
//! `BENCH_*.json` schema identical across the three runners, including the
//! `host_parallelism` / `flat_expected` pair that tells readers whether
//! flat worker-sweep speedups are expected on this host (1 core) or a
//! regression.

use std::sync::Arc;

use superfe_net::metrics::{monotonic_ns, HistSummary, StageMetrics, StageSummaries};

/// How many warmup and measured runs a measurement performs.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Untimed runs executed (and discarded) before measurement.
    pub warmup: usize,
    /// Timed runs (clamped to ≥ 1).
    pub runs: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig { warmup: 1, runs: 3 }
    }
}

/// Order statistics over the measured runs of one workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Measured samples.
    pub runs: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation (0 for a single run).
    pub stddev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

impl RunStats {
    /// Computes the statistics of `samples` (empty input yields zeros).
    pub fn from_samples(samples: &[f64]) -> RunStats {
        if samples.is_empty() {
            return RunStats::default();
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |q: f64| -> f64 {
            let idx = ((q * n).ceil() as usize).clamp(1, sorted.len()) - 1;
            sorted[idx]
        };
        RunStats {
            runs: samples.len(),
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
        }
    }

    /// Renders the statistics as a JSON object with a unit-suffixed key
    /// prefix, e.g. `prefix = "elapsed_ms"` →
    /// `{ "elapsed_ms_mean": …, "elapsed_ms_stddev": …, … }` (inline, no
    /// surrounding braces so callers can embed extra fields).
    pub fn to_json_fields(&self, prefix: &str) -> String {
        format!(
            "\"{prefix}_mean\": {:.3}, \"{prefix}_stddev\": {:.3}, \
             \"{prefix}_min\": {:.3}, \"{prefix}_max\": {:.3}, \
             \"{prefix}_p50\": {:.3}, \"{prefix}_p95\": {:.3}, \"{prefix}_p99\": {:.3}",
            self.mean, self.stddev, self.min, self.max, self.p50, self.p95, self.p99
        )
    }
}

/// What [`measure`] hands back: wall-clock statistics plus the per-stage
/// latency distributions accumulated by instrumented runs.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Warmup runs executed and discarded.
    pub warmup_runs: usize,
    /// Measured runs.
    pub measured_runs: usize,
    /// Per-run wall-clock nanoseconds.
    pub elapsed_ns: RunStats,
    /// Merged stage histograms over every measured run (all counts zero if
    /// the workload did not thread the metrics into a pipeline).
    pub stages: StageSummaries,
}

impl Measurement {
    /// Mean wall-clock seconds of a measured run.
    pub fn mean_secs(&self) -> f64 {
        self.elapsed_ns.mean / 1e9
    }

    /// Mean wall-clock milliseconds of a measured run.
    pub fn mean_ms(&self) -> f64 {
        self.elapsed_ns.mean / 1e6
    }

    /// Per-run elapsed milliseconds statistics.
    pub fn elapsed_ms(&self) -> RunStats {
        let ns = self.elapsed_ns;
        RunStats {
            runs: ns.runs,
            mean: ns.mean / 1e6,
            stddev: ns.stddev / 1e6,
            min: ns.min / 1e6,
            max: ns.max / 1e6,
            p50: ns.p50 / 1e6,
            p95: ns.p95 / 1e6,
            p99: ns.p99 / 1e6,
        }
    }
}

/// Runs `work` through the warmup-then-measure protocol.
///
/// The closure receives the [`StageMetrics`] to thread into its pipeline
/// (ignore it for workloads without stage instrumentation) — warmup runs
/// get a throwaway instance so only measured runs contribute to
/// [`Measurement::stages`]. Each measured run is timed with
/// [`monotonic_ns`].
pub fn measure(cfg: &HarnessConfig, mut work: impl FnMut(&Arc<StageMetrics>)) -> Measurement {
    let discard = Arc::new(StageMetrics::default());
    for _ in 0..cfg.warmup {
        work(&discard);
    }
    let metrics = Arc::new(StageMetrics::default());
    let runs = cfg.runs.max(1);
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = monotonic_ns();
        work(&metrics);
        samples.push(monotonic_ns().saturating_sub(t0) as f64);
    }
    Measurement {
        warmup_runs: cfg.warmup,
        measured_runs: runs,
        elapsed_ns: RunStats::from_samples(&samples),
        stages: metrics.summaries(),
    }
}

/// Renders one stage histogram summary as a JSON object.
pub fn hist_summary_json(s: &HistSummary) -> String {
    format!(
        "{{ \"count\": {}, \"mean_ns\": {:.0}, \"p50_ns\": {}, \"p95_ns\": {}, \
         \"p99_ns\": {}, \"max_ns\": {} }}",
        s.count, s.mean_ns, s.p50_ns, s.p95_ns, s.p99_ns, s.max_ns
    )
}

/// Renders the producer→shard→sink stage breakdown as a JSON object.
pub fn stage_summaries_json(s: &StageSummaries) -> String {
    format!(
        "{{ \"queue\": {}, \"shard\": {}, \"sink\": {} }}",
        hist_summary_json(&s.queue),
        hist_summary_json(&s.shard),
        hist_summary_json(&s.sink)
    )
}

/// Peak resident set size of this process in kiB (Linux `VmHWM`), or 0
/// when the platform doesn't expose `/proc/self/status`.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// Resets the process peak-RSS watermark (`VmHWM`) so a following
/// [`peak_rss_kb`] reflects only the work since the reset. Best effort:
/// writing `"5"` to `/proc/self/clear_refs` is Linux-specific and may be
/// refused — callers get a cumulative high-water mark in that case, which
/// is still an upper bound.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Cores the host exposes (the upper bound on real parallel speedup).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The `host_parallelism` / `flat_expected` field pair every bench JSON
/// carries: on a 1-core host worker sweeps are *expected* to be flat, and
/// downstream readers must not misread that as a regression.
pub fn host_json() -> String {
    let cores = host_parallelism();
    format!(
        "\"host_parallelism\": {cores}, \"flat_expected\": {}",
        cores == 1
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_stats_order_statistics() {
        let s = RunStats::from_samples(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!(s.runs, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p95, 5.0);
        assert!((s.stddev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_stddev() {
        let s = RunStats::from_samples(&[7.0]);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.p99, 7.0);
    }

    #[test]
    fn empty_samples_yield_zeros() {
        let s = RunStats::from_samples(&[]);
        assert_eq!(s.runs, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn measure_counts_warmup_and_runs() {
        let mut calls = 0usize;
        let m = measure(&HarnessConfig { warmup: 2, runs: 3 }, |_| calls += 1);
        assert_eq!(calls, 5);
        assert_eq!(m.warmup_runs, 2);
        assert_eq!(m.measured_runs, 3);
        assert_eq!(m.elapsed_ns.runs, 3);
        assert!(m.elapsed_ns.mean >= 0.0);
        assert_eq!(m.stages.queue.count, 0);
    }

    #[test]
    fn warmup_metrics_are_discarded() {
        let m = measure(&HarnessConfig { warmup: 1, runs: 2 }, |metrics| {
            metrics.shard.record(1000);
        });
        // 1 warmup (discarded) + 2 measured samples.
        assert_eq!(m.stages.shard.count, 2);
    }

    #[test]
    fn json_helpers_have_stable_keys() {
        let m = measure(&HarnessConfig::default(), |_| {});
        let stats = m.elapsed_ms().to_json_fields("elapsed_ms");
        for key in ["elapsed_ms_mean", "elapsed_ms_stddev", "elapsed_ms_p99"] {
            assert!(stats.contains(key), "missing {key}");
        }
        let stages = stage_summaries_json(&m.stages);
        for key in ["\"queue\"", "\"shard\"", "\"sink\"", "\"p95_ns\""] {
            assert!(stages.contains(key), "missing {key}");
        }
        assert!(host_json().contains("\"flat_expected\""));
    }
}
