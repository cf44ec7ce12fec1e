//! Streaming-pipeline throughput: the `BENCH_pipeline.json` artifact.
//!
//! Measures end-to-end packets/second of the staged streaming executor
//! ([`superfe_core::StreamingPipeline`]) against the single-threaded
//! collect-then-process baseline ([`superfe_core::SuperFe`]) on the Fig. 9
//! MAWI-like workload, for a sweep of worker counts — through the
//! [`crate::harness`] protocol: warmup run(s), N measured runs, run-to-run
//! mean/stddev/p50/p95/p99, and the producer→shard→sink stage latency
//! histograms recorded by the ring data path.
//!
//! The report records `host_parallelism`
//! ([`std::thread::available_parallelism`]) and a `flat_expected` flag:
//! worker counts beyond the host's cores exercise the sharding and ring
//! machinery but cannot buy wall-clock speedup, so readers (and CI) must
//! interpret the numbers relative to those fields.

use superfe_core::{StreamingPipeline, SuperFe, SuperFeConfig};
use superfe_net::PacketRecord;
use superfe_policy::dsl;
use superfe_trafficgen::Workload;

use crate::harness::{self, host_json, stage_summaries_json, HarnessConfig, Measurement};

/// Default packets in the measurement trace (matches Fig. 9).
pub const PACKETS: usize = 60_000;

/// Default workload seed (`--seed` on `superfe bench` overrides it).
pub const DEFAULT_SEED: u64 = 4;

/// Default worker-count sweep.
pub const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The policy under measurement (flow-granularity statistical features).
pub const POLICY: &str = superfe_apps::policies::NPOD;

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct WorkerRun {
    /// NIC worker shards.
    pub workers: usize,
    /// The harnessed measurement (wall-clock stats + stage histograms).
    pub measurement: Measurement,
    /// End-to-end throughput in packets/second (from the mean run).
    pub pkts_per_sec: f64,
    /// Throughput relative to the single-threaded baseline.
    pub speedup_vs_baseline: f64,
}

/// The full measurement.
#[derive(Clone, Debug)]
pub struct PipelineBench {
    /// Packets in the trace.
    pub packets: usize,
    /// Warmup/measured run protocol in force.
    pub harness: HarnessConfig,
    /// Single-threaded `SuperFe` baseline measurement.
    pub baseline: Measurement,
    /// Baseline throughput, packets/second (from the mean run).
    pub baseline_pkts_per_sec: f64,
    /// One row per swept worker count.
    pub runs: Vec<WorkerRun>,
}

/// Runs the sweep on `packets` MAWI-like packets generated from `seed`
/// (the same seed always yields the same trace, so reported group counts
/// are reproducible run-to-run), under the given warmup/runs protocol.
pub fn measure_with(
    packets: usize,
    worker_counts: &[usize],
    seed: u64,
    cfg: &HarnessConfig,
) -> PipelineBench {
    let trace = Workload::mawi().packets(packets).seed(seed).generate();
    let records: &[PacketRecord] = &trace.records;
    let policy = dsl::parse(POLICY).expect("bundled policy parses");

    let mut baseline_groups = 0usize;
    let baseline = harness::measure(cfg, |_| {
        let mut base = SuperFe::from_dsl(POLICY).expect("policy deploys");
        for p in records {
            base.push(p);
        }
        baseline_groups = base.finish().group_vectors.len();
    });
    let baseline_pps = records.len() as f64 / baseline.mean_secs();

    let runs = worker_counts
        .iter()
        .map(|&w| {
            let measurement = harness::measure(cfg, |metrics| {
                let mut fe = StreamingPipeline::with_options(
                    &policy,
                    SuperFeConfig::default(),
                    w,
                    Some(metrics.clone()),
                )
                .expect("policy deploys");
                for p in records {
                    fe.push(p).expect("workers alive");
                }
                let out = fe.finish().expect("workers alive");
                assert_eq!(
                    out.group_vectors.len(),
                    baseline_groups,
                    "streaming run diverged from baseline"
                );
            });
            let pps = records.len() as f64 / measurement.mean_secs();
            WorkerRun {
                workers: w,
                pkts_per_sec: pps,
                speedup_vs_baseline: pps / baseline_pps,
                measurement,
            }
        })
        .collect();

    PipelineBench {
        packets: records.len(),
        harness: *cfg,
        baseline,
        baseline_pkts_per_sec: baseline_pps,
        runs,
    }
}

/// [`measure_with`] under the default harness protocol.
pub fn measure(packets: usize, worker_counts: &[usize], seed: u64) -> PipelineBench {
    measure_with(packets, worker_counts, seed, &HarnessConfig::default())
}

impl PipelineBench {
    /// Renders the measurement as the `BENCH_pipeline.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"experiment\": \"streaming_pipeline_throughput\",\n");
        out.push_str("  \"workload\": \"mawi\",\n");
        out.push_str("  \"policy\": \"NPOD\",\n");
        out.push_str(&format!("  \"packets\": {},\n", self.packets));
        out.push_str(&format!("  {},\n", host_json()));
        out.push_str(&format!(
            "  \"warmup_runs\": {}, \"measured_runs\": {},\n",
            self.harness.warmup,
            self.harness.runs.max(1)
        ));
        out.push_str(&format!(
            "  \"baseline\": {{ \"name\": \"single_thread\", \"pkts_per_sec\": {:.0}, {} }},\n",
            self.baseline_pkts_per_sec,
            self.baseline.elapsed_ms().to_json_fields("elapsed_ms")
        ));
        out.push_str("  \"workers\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let sep = if i + 1 == self.runs.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{ \"workers\": {}, \"pkts_per_sec\": {:.0}, \
                 \"speedup_vs_baseline\": {:.3}, {},\n      \"stage_latency\": {} }}{sep}\n",
                r.workers,
                r.pkts_per_sec,
                r.speedup_vs_baseline,
                r.measurement.elapsed_ms().to_json_fields("elapsed_ms"),
                stage_summaries_json(&r.measurement.stages)
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Runs the default sweep and returns the JSON document.
pub fn run() -> String {
    measure(PACKETS, &WORKER_SWEEP, DEFAULT_SEED).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_produces_schema() {
        let b = measure_with(
            2_000,
            &[1, 2],
            DEFAULT_SEED,
            &HarnessConfig { warmup: 1, runs: 2 },
        );
        assert_eq!(b.packets, 2_000);
        assert!(b.baseline_pkts_per_sec > 0.0);
        assert_eq!(b.runs.len(), 2);
        assert!(b.runs.iter().all(|r| r.pkts_per_sec > 0.0));
        // Stage instrumentation observed the measured runs: the ring
        // recorded queue dwell, the workers recorded shard time.
        for r in &b.runs {
            assert!(r.measurement.stages.queue.count > 0, "no queue samples");
            assert_eq!(
                r.measurement.stages.queue.count,
                r.measurement.stages.shard.count
            );
            assert_eq!(r.measurement.elapsed_ns.runs, 2);
        }
        let json = b.to_json();
        for key in [
            "\"experiment\"",
            "\"host_parallelism\"",
            "\"flat_expected\"",
            "\"warmup_runs\"",
            "\"measured_runs\"",
            "\"baseline\"",
            "\"pkts_per_sec\"",
            "\"speedup_vs_baseline\"",
            "\"elapsed_ms_mean\"",
            "\"elapsed_ms_stddev\"",
            "\"elapsed_ms_p99\"",
            "\"stage_latency\"",
            "\"queue\"",
            "\"shard\"",
            "\"sink\"",
            "\"p50_ns\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
