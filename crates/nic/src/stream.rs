//! The single-policy streaming NIC executor: a
//! [`SharedStreamingNic`] with one execution unit.
//!
//! [`StreamingNic`] runs one compiled policy over the switch's event
//! stream. It is a front end, not a second worker pool: construction
//! builds one engine per shard and spawns the crate's NIC runtime
//! ([`crate::shared`]) with a single unit, `TenantId(0)`, resident from
//! the first event; [`StreamingNic::push`] tags each
//! [`SwitchEvent`] for that unit and [`StreamingNic::finish`] unwraps the
//! unit's merged output. Sharding by CG key, the FG broadcast, bounded
//! rings, frame recycling and the deterministic merge are the runtime's
//! (see DESIGN.md "Threading model").
//!
//! This module also holds the vocabulary both front ends share: the frame
//! geometry and [`StreamOutput`].

use std::sync::Arc;

use superfe_net::metrics::StageMetrics;
use superfe_net::Granularity;
use superfe_policy::CompiledPolicy;
use superfe_switch::tenant::TaggedEvent;
use superfe_switch::SwitchEvent;

use crate::engine::{EvictedVector, FeatureVector, NicStats};
use crate::error::NicError;
use crate::inference::{InlineAlert, InlineStats, Scorer};
use crate::shared::{SharedStreamingNic, SOLO};
use crate::table::TableBudget;

/// Events per channel frame (amortizes one synchronization over the frame).
pub const FRAME_SIZE: usize = 256;

/// Frames in flight per worker before the producer blocks.
pub const CHANNEL_DEPTH: usize = 8;

/// Frames published per doorbell ring on the event path: the producer
/// stages up to this many frames locally and wakes the worker once for the
/// batch. Must stay below [`CHANNEL_DEPTH`] so a full ring still has
/// published frames for the worker to drain.
pub const DOORBELL_FRAMES: usize = 4;

/// Capacity of each worker's frame recycle ring. When a worker drains
/// frames faster than the producer re-takes them the ring fills and excess
/// frames are dropped (freed), never blocked on.
pub const RECYCLE_DEPTH: usize = CHANNEL_DEPTH + 2;

/// Merged output of a streaming run.
#[derive(Debug, Default)]
pub struct StreamOutput {
    /// Per-group feature vectors, concatenated in shard order.
    pub group_vectors: Vec<FeatureVector>,
    /// Per-packet feature vectors, concatenated in shard order (arrival
    /// order within each shard).
    pub packet_vectors: Vec<FeatureVector>,
    /// Aggregated engine counters. Note `fg_updates` counts per worker:
    /// broadcasts are applied once per shard.
    pub stats: NicStats,
    /// Live groups per granularity level, summed across shards (groups
    /// never span shards, so the sum is exact).
    pub groups_per_level: Vec<(Granularity, usize)>,
    /// Groups finalized early by DRAM budget eviction, concatenated in
    /// shard order. Empty under the default budget.
    pub evicted_vectors: Vec<EvictedVector>,
    /// Alerts raised by the in-shard inference stage, concatenated in
    /// shard order. Empty unless the executor was built with
    /// [`StreamingNic::with_inference`]. Use
    /// [`canonicalize`](crate::inference::canonicalize) for a
    /// worker-count-independent order.
    pub inline_alerts: Vec<InlineAlert>,
    /// Merged counters of the in-shard inference stage; `None` when no
    /// scorer was attached.
    pub inline_stats: Option<InlineStats>,
}

/// A streaming, CG-key-sharded multi-core NIC executor for one policy.
///
/// Construction spawns one thread per shard, each owning a private
/// [`FeNic`](crate::FeNic); [`StreamingNic::push`] routes events as they
/// arrive and [`StreamingNic::finish`] flushes, joins, and merges
/// deterministically.
pub struct StreamingNic {
    plane: SharedStreamingNic,
}

impl StreamingNic {
    /// Spawns `workers` shard threads (clamped to ≥ 1) for `compiled`.
    ///
    /// All engines are instantiated up front so configuration problems
    /// surface here as [`NicError::Engine`], not inside a worker thread.
    pub fn new(
        compiled: &CompiledPolicy,
        fg_table_size: usize,
        workers: usize,
    ) -> Result<Self, NicError> {
        Self::with_budget(compiled, fg_table_size, workers, TableBudget::default())
    }

    /// Like [`StreamingNic::new`], but with an explicit per-level DRAM
    /// budget on every shard engine. Evicted groups surface in
    /// [`StreamOutput::evicted_vectors`].
    pub fn with_budget(
        compiled: &CompiledPolicy,
        fg_table_size: usize,
        workers: usize,
        budget: TableBudget,
    ) -> Result<Self, NicError> {
        SharedStreamingNic::solo(compiled, fg_table_size, workers, budget, None, None)
            .map(|plane| StreamingNic { plane })
    }

    /// Like [`StreamingNic::new`], but attaches an in-shard scorer: every
    /// finalized feature vector (per-packet and per-group) is scored
    /// *inside its worker shard* before egress, and alerts surface in
    /// [`StreamOutput::inline_alerts`].
    ///
    /// The model is shared read-only across shards and scoring is pure, so
    /// the alert stream per group key is bitwise identical at every worker
    /// count.
    pub fn with_inference(
        compiled: &CompiledPolicy,
        fg_table_size: usize,
        workers: usize,
        model: impl Into<Scorer>,
    ) -> Result<Self, NicError> {
        SharedStreamingNic::solo(
            compiled,
            fg_table_size,
            workers,
            TableBudget::default(),
            Some(model.into()),
            None,
        )
        .map(|plane| StreamingNic { plane })
    }

    /// Like [`StreamingNic::new`], with per-stage latency instrumentation:
    /// every frame's ring dwell (producer send → worker receive) and
    /// per-frame shard processing time are recorded into the shared
    /// [`StageMetrics`] histograms.
    pub fn with_options(
        compiled: &CompiledPolicy,
        fg_table_size: usize,
        workers: usize,
        metrics: Option<Arc<StageMetrics>>,
    ) -> Result<Self, NicError> {
        SharedStreamingNic::solo(
            compiled,
            fg_table_size,
            workers,
            TableBudget::default(),
            None,
            metrics,
        )
        .map(|plane| StreamingNic { plane })
    }

    /// Number of shards.
    pub fn workers(&self) -> usize {
        self.plane.workers()
    }

    /// Routes one event: Mgpv to its CG-key shard, FgUpdate to every shard.
    ///
    /// Blocks when the target worker is [`CHANNEL_DEPTH`] frames behind
    /// (backpressure). Fails only if a worker thread has died.
    pub fn push(&mut self, event: SwitchEvent) -> Result<(), NicError> {
        self.plane.push(TaggedEvent {
            tenant: SOLO,
            event,
        })
    }

    /// Routes a batch of events in order (a switch frame).
    pub fn push_all(
        &mut self,
        events: impl IntoIterator<Item = SwitchEvent>,
    ) -> Result<(), NicError> {
        for e in events {
            self.push(e)?;
        }
        Ok(())
    }

    /// Flushes remaining frames, closes the rings, joins every worker in
    /// shard order, and merges their outputs deterministically.
    pub fn finish(self) -> Result<StreamOutput, NicError> {
        let (_, out) = self
            .plane
            .finish()?
            .pop()
            .expect("the solo unit stays attached for the executor's lifetime");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_net::PacketRecord;
    use superfe_policy::compile;
    use superfe_policy::dsl::parse;
    use superfe_switch::FeSwitch;

    fn compiled(src: &str) -> CompiledPolicy {
        compile(&parse(src).unwrap()).unwrap()
    }

    fn run_streaming(c: &CompiledPolicy, n: u32, workers: usize) -> StreamOutput {
        let mut sw = FeSwitch::new(c.switch.clone()).unwrap();
        let mut nic = StreamingNic::new(c, 16_384, workers).unwrap();
        let mut frame = Vec::new();
        for i in 0..n {
            let p = PacketRecord::tcp(u64::from(i) * 100, 100, i % 31 + 1, 1000, 2, 80);
            frame.clear();
            sw.process_into(&p, &mut frame);
            nic.push_all(frame.drain(..)).unwrap();
        }
        frame.clear();
        sw.flush_into(&mut frame);
        nic.push_all(frame.drain(..)).unwrap();
        nic.finish().unwrap()
    }

    fn sorted(mut v: Vec<FeatureVector>) -> Vec<FeatureVector> {
        v.sort_by(|a, b| format!("{:?}", a.key).cmp(&format!("{:?}", b.key)));
        v
    }

    #[test]
    fn streaming_matches_single_worker() {
        let c = compiled("pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)");
        let seq = run_streaming(&c, 2000, 1);
        let par = run_streaming(&c, 2000, 8);
        assert_eq!(seq.stats.records, 2000);
        assert_eq!(par.stats.records, 2000);
        // Shards partition the MGPV messages: each is handled exactly once.
        assert_eq!(par.stats.msgs, seq.stats.msgs);
        assert_eq!(sorted(seq.group_vectors), sorted(par.group_vectors));
    }

    #[test]
    fn worker_count_clamped_to_one() {
        let c = compiled("pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)");
        assert_eq!(StreamingNic::new(&c, 16_384, 0).unwrap().workers(), 1);
    }

    #[test]
    fn merge_order_is_deterministic() {
        // Same input, many runs: output order must be identical every time
        // (workers are joined in shard order, not completion order).
        let c = compiled("pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)");
        let baseline = run_streaming(&c, 1500, 4);
        for _ in 0..3 {
            let again = run_streaming(&c, 1500, 4);
            assert_eq!(baseline.group_vectors, again.group_vectors);
            assert_eq!(baseline.packet_vectors, again.packet_vectors);
        }
    }

    #[test]
    fn frames_are_recycled() {
        // Push far more events than CHANNEL_DEPTH × workers frames; with
        // recycling the executor still completes with bounded memory, and
        // every record survives the frame transport.
        let c = compiled("pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)");
        let out = run_streaming(&c, 20_000, 2);
        assert_eq!(out.stats.records, 20_000);
        let total: f64 = out.group_vectors.iter().map(|g| g.values[0]).sum();
        assert!((total - 20_000.0 * 100.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn stage_metrics_observe_the_run() {
        let c = compiled("pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)");
        let metrics = Arc::new(StageMetrics::default());
        let mut sw = FeSwitch::new(c.switch.clone()).unwrap();
        let mut nic = StreamingNic::with_options(&c, 16_384, 2, Some(metrics.clone())).unwrap();
        let mut frame = Vec::new();
        for i in 0..5000u32 {
            let p = PacketRecord::tcp(u64::from(i) * 100, 100, i % 31 + 1, 1000, 2, 80);
            frame.clear();
            sw.process_into(&p, &mut frame);
            nic.push_all(frame.drain(..)).unwrap();
        }
        frame.clear();
        sw.flush_into(&mut frame);
        nic.push_all(frame.drain(..)).unwrap();
        let out = nic.finish().unwrap();
        assert_eq!(out.stats.records, 5000);
        let s = metrics.summaries();
        // Every delivered frame contributes one queue-dwell and one shard
        // sample; no scorer is attached so the scoring histogram stays
        // empty.
        assert!(s.queue.count > 0);
        assert_eq!(s.queue.count, s.shard.count);
        assert_eq!(s.sink.count, 0);
        assert!(s.shard.p99_ns >= s.shard.p50_ns);
    }

    fn quant_model(train: &[Vec<f64>]) -> Arc<superfe_ml::QuantizedDetector> {
        use superfe_ml::{
            quantize, train_and_calibrate, CalibrationConfig, CentroidDetector, Detector,
            QuantConfig,
        };
        let refs: Vec<&[f64]> = train.iter().map(Vec::as_slice).collect();
        let frozen = train_and_calibrate(
            Box::new(CentroidDetector::new(train[0].len()).unwrap()) as Box<dyn Detector>,
            &refs,
            0.05,
            CalibrationConfig::default(),
        )
        .unwrap();
        Arc::new(quantize(&frozen, &QuantConfig::default()).unwrap())
    }

    fn run_with_inference(
        c: &CompiledPolicy,
        n: u32,
        workers: usize,
        model: impl Into<Scorer>,
    ) -> StreamOutput {
        let mut sw = FeSwitch::new(c.switch.clone()).unwrap();
        let mut nic = StreamingNic::with_inference(c, 16_384, workers, model).unwrap();
        let mut frame = Vec::new();
        for i in 0..n {
            let p = PacketRecord::tcp(u64::from(i) * 100, 100, i % 31 + 1, 1000, 2, 80);
            frame.clear();
            sw.process_into(&p, &mut frame);
            nic.push_all(frame.drain(..)).unwrap();
        }
        frame.clear();
        sw.flush_into(&mut frame);
        nic.push_all(frame.drain(..)).unwrap();
        nic.finish().unwrap()
    }

    #[test]
    fn inline_inference_raises_alerts_on_group_vectors() {
        let c =
            compiled("pktstream\n.groupby(host)\n.reduce(size, [f_sum, f_max])\n.collect(host)");
        // Train far away (second axis dominant) from what the pipeline
        // emits ([~6400, 100], first axis dominant): every host alerts.
        let train: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![1.0 + f64::from(i % 5) * 0.1, 500.0 + f64::from(i % 7)])
            .collect();
        let out = run_with_inference(&c, 2000, 2, quant_model(&train));
        let stats = out.inline_stats.expect("inference was attached");
        assert_eq!(stats.scored, out.group_vectors.len() as u64);
        assert_eq!(stats.dim_errors, 0);
        assert_eq!(stats.alerts, out.group_vectors.len() as u64);
        assert_eq!(out.inline_alerts.len(), out.group_vectors.len());
        for a in &out.inline_alerts {
            assert!(a.score > a.threshold);
        }
        // Without inference the same run reports no inline stage at all.
        let plain = run_streaming(&c, 2000, 2);
        assert!(plain.inline_stats.is_none());
        assert!(plain.inline_alerts.is_empty());
        // And the vector outputs themselves are unchanged by scoring.
        assert_eq!(sorted(plain.group_vectors), sorted(out.group_vectors));
    }

    #[test]
    fn inline_alert_stream_is_worker_count_independent() {
        let c =
            compiled("pktstream\n.groupby(host)\n.reduce(size, [f_sum, f_max])\n.collect(host)");
        let train: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![1.0 + f64::from(i % 5) * 0.1, 500.0 + f64::from(i % 7)])
            .collect();
        let model = quant_model(&train);
        let mut fingerprints = Vec::new();
        for workers in [1, 2, 4, 8] {
            let out = run_with_inference(&c, 2000, workers, model.clone());
            let mut alerts = out.inline_alerts;
            crate::inference::canonicalize(&mut alerts, |a| (a.key, a.seq));
            fingerprints.push(crate::inference::inline_alert_fingerprint(&alerts));
        }
        assert!(!fingerprints[0].is_empty());
        for fp in &fingerprints[1..] {
            assert_eq!(&fingerprints[0], fp, "alert stream depends on worker count");
        }
    }

    #[test]
    fn inline_inference_scores_packet_vectors_without_diverting_them() {
        let c = compiled("pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(pkt)");
        let train: Vec<Vec<f64>> = (0..64).map(|i| vec![100.0 + f64::from(i % 5)]).collect();
        let out = run_with_inference(&c, 2000, 2, quant_model(&train));
        // Scored per-packet vectors are still returned.
        let plain = run_streaming(&c, 2000, 2);
        assert_eq!(out.packet_vectors.len(), plain.packet_vectors.len());
        let stats = out.inline_stats.expect("inference was attached");
        assert_eq!(
            stats.scored,
            (plain.packet_vectors.len() + plain.group_vectors.len()) as u64
        );
        assert_eq!(sorted(out.packet_vectors), sorted(plain.packet_vectors));
    }

    #[test]
    fn multi_granularity_fg_broadcast() {
        // FG updates must reach every worker so finer levels resolve on
        // whichever shard their CG records land.
        let c = compiled(
            "pktstream\n.groupby(socket)\n.reduce(size, [f_sum])\n.collect(socket)\n\
             .groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
        );
        let out = run_streaming(&c, 600, 4);
        assert_eq!(out.stats.unresolved_fg, 0);
        let hosts = out
            .group_vectors
            .iter()
            .filter(|v| matches!(v.key, superfe_net::GroupKey::Host(_)))
            .count();
        assert_eq!(hosts, 31);
    }
}
