//! Deploy, replay and the sequential oracle for the three workloads.
//!
//! Each workload deploys one streaming composition with two threads — the
//! calling thread is the producer (switch simulator) and one NIC shard
//! thread reduces — and replays its trace in a closed loop: the next
//! packet is pushed as soon as `push` returns, and a full switch→NIC ring
//! blocks the producer.
//!
//! - `mawi_tenants`: four tenants on one [`CtrlPlane`].
//! - `mirai_detect`: Kitsune on a [`FeSwitch`] feeding
//!   [`StreamingNic::with_inference`], which scores every vector with the
//!   certified quantized KitNET in the shard. This is the composition
//!   `StreamingPipeline::with_inference` builds.
//! - `corpus_evict`: `flow_sum_max` on a [`FeSwitch`] feeding a
//!   [`StreamingNic`] under a 16384-entry `EvictOldest` DRAM budget.
//!
//! The oracle is the single-threaded composition ([`FeSwitch`] +
//! [`FeNic`] with the same budget, each tenant on its own) plus
//! [`score_offline_quantized`] for alerts.

use std::sync::Arc;
use std::time::Instant;

use superfe_core::analyze::AnalyzeConfig;
use superfe_core::{gate, SuperFeConfig};
use superfe_ctrl::{CtrlPlane, TenantSpec};
use superfe_detect::score_offline_quantized;
use superfe_ml::{FrozenDetector, QuantizedDetector};
use superfe_net::PacketRecord;
use superfe_nic::{
    EvictionPolicy, FeNic, FeatureVector, InlineAlert, InlineInference, NicStats, StreamOutput,
    StreamingNic, TableBudget,
};
use superfe_policy::analyze::quant::{certify, QuantCheckConfig};
use superfe_policy::{dsl, CompiledPolicy, Policy};
use superfe_switch::{FeSwitch, MgpvConfig, MgpvStats, SwitchEvent, SwitchStats, TenantId};

use crate::check::{self, AlertItem, Expected, Tally};
use crate::spans::Tracer;
use crate::Kind;

/// NIC shards per deployment: with the producer thread, two threads in
/// total.
pub const SHARDS: usize = 1;

/// Threads a replay runs: the producer plus one per NIC shard.
pub const THREADS: usize = 1 + SHARDS;

/// The corpus workload's policy: one group per flow, a mergeable and a
/// max reduction.
pub const FLOW_SUM_MAX: &str =
    "pktstream\n.groupby(flow)\n.reduce(size, [f_sum, f_max])\n.collect(flow)";

/// DRAM entries per group-table level on the corpus workload.
pub const CORPUS_DRAM_ENTRIES: usize = 16_384;

/// Packets between incremental eviction drains in the sequential pass.
const DRAIN_EVERY: usize = 4096;

/// The policies a workload deploys, as `(name, source)`. On
/// `mawi_tenants` the order is the attach order: the two `npod` copies
/// fuse into one unit (SF07xx) and the two example policies share a switch
/// prefix (SF08xx), giving 3 units in 2 partitions.
pub fn sources(kind: Kind) -> Vec<(&'static str, &'static str)> {
    match kind {
        Kind::MawiTenants => vec![
            ("npod", superfe_apps::policies::NPOD),
            ("npod-b", superfe_apps::policies::NPOD),
            ("flow_stats", include_str!("../../examples/flow_stats.sfe")),
            (
                "flow_volume",
                include_str!("../../examples/flow_volume.sfe"),
            ),
        ],
        Kind::MiraiDetect => vec![("kitsune", superfe_apps::policies::KITSUNE)],
        Kind::CorpusEvict => vec![("flow_sum_max", FLOW_SUM_MAX)],
    }
}

/// The NIC group-table budget a workload runs under.
pub fn budget(kind: Kind) -> TableBudget {
    match kind {
        Kind::CorpusEvict => TableBudget::capped(CORPUS_DRAM_ENTRIES, EvictionPolicy::EvictOldest),
        _ => TableBudget::default(),
    }
}

fn parse_all(kind: Kind) -> Result<Vec<(&'static str, Policy)>, String> {
    sources(kind)
        .into_iter()
        .map(|(name, src)| {
            dsl::parse(src)
                .map(|p| (name, p))
                .map_err(|e| format!("{name}: {e}"))
        })
        .collect()
}

/// Everything a workload needs besides its trace.
pub struct Ctx {
    /// Which workload.
    pub kind: Kind,
    /// The trained detector (mirai only).
    pub frozen: Option<FrozenDetector>,
}

/// Deploy time broken down by layer (traced mode).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupParts {
    /// Parse + analysis gate + compile.
    pub gate_s: f64,
    /// SF09xx certification and fixed-point lowering.
    pub certify_s: f64,
    /// Tenant admission and attach (each attach runs its own gate).
    pub attach_s: f64,
    /// Switch partitions at the end of deploy.
    pub partitions: usize,
    /// NIC execution units at the end of deploy.
    pub units: usize,
}

/// A deployed streaming composition.
pub enum Live {
    /// The multi-tenant plane and its tenants in attach order.
    Plane(Box<CtrlPlane>, Vec<TenantId>),
    /// Switch + streaming NIC composed from the layers' own APIs, as
    /// `StreamingPipeline` composes them.
    Composed(FeSwitch, StreamingNic),
}

/// Certifies the detector's fixed-point lowering against the policy
/// (SF09xx) and returns the lowered model.
pub fn certified_model(
    policy: &Policy,
    frozen: &FrozenDetector,
) -> Result<QuantizedDetector, String> {
    let cert = certify(policy, frozen, &QuantCheckConfig::default());
    if !cert.certified {
        return Err(format!(
            "SF09xx did not certify the lowering (culprit: {})",
            cert.culprit.as_deref().unwrap_or("unknown")
        ));
    }
    cert.detector
        .ok_or_else(|| "certified lowering carries no detector".to_string())
}

fn model_of(ctx: &Ctx) -> Result<&FrozenDetector, String> {
    ctx.frozen
        .as_ref()
        .ok_or_else(|| "mirai_detect needs a trained detector".to_string())
}

/// Deploys the workload's streaming composition.
pub fn deploy(ctx: &Ctx) -> Result<(Live, SetupParts), String> {
    let mut parts = SetupParts::default();
    let cfg = SuperFeConfig::default();
    match ctx.kind {
        Kind::MawiTenants => {
            let t = Instant::now();
            let specs: Vec<TenantSpec> = parse_all(ctx.kind)?
                .into_iter()
                .map(|(name, policy)| TenantSpec {
                    name: name.to_string(),
                    policy,
                    cfg,
                })
                .collect();
            parts.gate_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut plane = CtrlPlane::new(SHARDS, AnalyzeConfig::default());
            let mut ids = Vec::with_capacity(specs.len());
            for spec in &specs {
                ids.push(
                    plane
                        .attach(spec, None)
                        .map_err(|e| format!("attach {}: {e}", spec.name))?,
                );
            }
            parts.attach_s = t.elapsed().as_secs_f64();
            parts.units = plane.units().len();
            parts.partitions = plane.groups().len();
            Ok((Live::Plane(Box::new(plane), ids), parts))
        }
        Kind::MiraiDetect => {
            let t = Instant::now();
            let policy = dsl::parse(superfe_apps::policies::KITSUNE).map_err(|e| e.to_string())?;
            let compiled = gate(&policy, &cfg).map_err(|e| e.to_string())?;
            parts.gate_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let model = Arc::new(certified_model(&policy, model_of(ctx)?)?);
            parts.certify_s = t.elapsed().as_secs_f64();
            let switch = new_switch(&compiled, cfg.cache)?;
            let nic =
                StreamingNic::with_inference(&compiled, cfg.cache.fg_table_size, SHARDS, model)
                    .map_err(|e| e.to_string())?;
            Ok((Live::Composed(switch, nic), parts))
        }
        Kind::CorpusEvict => {
            let t = Instant::now();
            let policy = dsl::parse(FLOW_SUM_MAX).map_err(|e| e.to_string())?;
            let compiled = gate(&policy, &cfg).map_err(|e| e.to_string())?;
            parts.gate_s = t.elapsed().as_secs_f64();
            let switch = new_switch(&compiled, cfg.cache)?;
            let nic = StreamingNic::with_budget(
                &compiled,
                cfg.cache.fg_table_size,
                SHARDS,
                budget(ctx.kind),
            )
            .map_err(|e| e.to_string())?;
            Ok((Live::Composed(switch, nic), parts))
        }
    }
}

fn new_switch(compiled: &CompiledPolicy, cache: MgpvConfig) -> Result<FeSwitch, String> {
    FeSwitch::with_config(
        compiled.switch.clone(),
        cache,
        SuperFeConfig::default().mode,
    )
    .ok_or_else(|| "degenerate switch cache configuration".to_string())
}

/// One run's outputs, named by stream.
#[derive(Debug, Default)]
pub struct Outputs {
    /// `(stream name, vectors in emission order)`.
    pub streams: Vec<(String, Vec<FeatureVector>)>,
    /// In-pipeline alerts.
    pub alerts: Vec<InlineAlert>,
    /// Σ per-record MGPV batching delay and its sample count.
    pub delay: (u64, u64),
}

impl Outputs {
    /// Mean modelled MGPV batching delay, milliseconds.
    pub fn delay_ms(&self) -> f64 {
        if self.delay.1 == 0 {
            0.0
        } else {
            self.delay.0 as f64 / self.delay.1 as f64 * 1e-6
        }
    }

    fn push_stream(&mut self, prefix: &str, out: StreamOutput) {
        self.streams
            .push((format!("{prefix}group"), out.group_vectors));
        self.streams
            .push((format!("{prefix}packet"), out.packet_vectors));
        self.streams.push((
            format!("{prefix}evicted"),
            out.evicted_vectors.into_iter().map(|e| e.vector).collect(),
        ));
        self.alerts.extend(out.inline_alerts);
    }
}

fn add_delay(acc: &mut (u64, u64), s: &MgpvStats) {
    acc.0 += s.delay_sum_ns;
    acc.1 += s.delay_samples;
}

/// Span names of the streaming replay.
pub mod span {
    /// `FeSwitch::process_into` on the producer.
    pub const SWITCH: &str = "switch.process_into";
    /// `StreamingNic::push_all`: ring send plus backpressure wait.
    pub const PUSH: &str = "net.push_all";
    /// `FeSwitch::flush_into` at end of stream.
    pub const FLUSH: &str = "switch.flush_into";
    /// `StreamingNic::finish`: drain, join and merge.
    pub const DRAIN: &str = "net.finish";
    /// `CtrlPlane::push` (switch + ring, shared plane).
    pub const CTRL_PUSH: &str = "ctrl.push";
    /// `CtrlPlane::finish`.
    pub const CTRL_FINISH: &str = "ctrl.finish";
}

/// Times `f` as one span when tracing.
fn timed<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer.as_deref_mut() {
        Some(tr) => {
            let id = tr.span(name);
            tr.time(id, f)
        }
        None => f(),
    }
}

/// Replays `packets` through a deployment, closed loop, and collects its
/// outputs. With a tracer, every call into a layer is a span.
pub fn replay(
    live: Live,
    packets: &[PacketRecord],
    mut tracer: Option<&mut Tracer>,
) -> Result<Outputs, String> {
    let mut out = Outputs::default();
    match live {
        Live::Plane(mut plane, ids) => {
            match tracer.as_deref_mut() {
                None => {
                    for p in packets {
                        plane.push(p).map_err(|e| e.to_string())?;
                    }
                }
                Some(tr) => {
                    let id = tr.span(span::CTRL_PUSH);
                    for p in packets {
                        let t = Instant::now();
                        let r = plane.push(p);
                        tr.end(id, t);
                        r.map_err(|e| e.to_string())?;
                    }
                }
            }
            for id in &ids {
                if let Some(s) = plane.tenant_cache_stats(*id) {
                    add_delay(&mut out.delay, &s);
                }
            }
            let runs = timed(&mut tracer, span::CTRL_FINISH, || (*plane).finish())
                .map_err(|e| e.to_string())?;
            for (i, run) in runs.into_iter().enumerate() {
                out.push_stream(&format!("t{i}."), run.output);
            }
        }
        Live::Composed(mut switch, mut nic) => {
            let mut frame: Vec<SwitchEvent> = Vec::new();
            match tracer.as_deref_mut() {
                None => {
                    for p in packets {
                        frame.clear();
                        switch.process_into(p, &mut frame);
                        nic.push_all(frame.drain(..)).map_err(|e| e.to_string())?;
                    }
                }
                Some(tr) => {
                    let (sw, push) = (tr.span(span::SWITCH), tr.span(span::PUSH));
                    for p in packets {
                        frame.clear();
                        let t = Instant::now();
                        switch.process_into(p, &mut frame);
                        let t = tr.end(sw, t);
                        let r = nic.push_all(frame.drain(..));
                        tr.end(push, t);
                        r.map_err(|e| e.to_string())?;
                    }
                }
            }
            frame.clear();
            timed(&mut tracer, span::FLUSH, || switch.flush_into(&mut frame));
            timed(&mut tracer, span::PUSH, || nic.push_all(frame.drain(..)))
                .map_err(|e| e.to_string())?;
            add_delay(&mut out.delay, &switch.cache_stats());
            let so = timed(&mut tracer, span::DRAIN, || nic.finish()).map_err(|e| e.to_string())?;
            out.push_stream("", so);
        }
    }
    Ok(out)
}

/// Span names of the sequential composition, in the order they run.
/// `core.build` and `core.teardown` are the construction of the switch and
/// NIC state and its release with the assembly of the outputs.
const SEQ_SPANS: [&str; 9] = [
    "core.build",
    "switch.process_into",
    "nic.handle",
    "nic.take_packet_vectors",
    "ml.score",
    "nic.take_evicted",
    "switch.flush_into",
    "nic.finish",
    "core.teardown",
];

#[derive(Clone, Copy)]
enum S {
    Build,
    Switch,
    Handle,
    TakePkts,
    Score,
    TakeEvicted,
    Flush,
    Finish,
    Teardown,
}

/// Back-to-back spans over one optional tracer: each lap ends one span
/// and starts the next on the same clock read, so the spans tile the pass
/// and their self times add up to its wall time.
struct Clock<'a> {
    tr: Option<(&'a mut Tracer, [crate::spans::SpanId; 9])>,
}

impl<'a> Clock<'a> {
    fn new(tr: Option<&'a mut Tracer>) -> Self {
        Clock {
            tr: tr.map(|tr| {
                let ids = SEQ_SPANS.map(|n| tr.span(n));
                (tr, ids)
            }),
        }
    }

    fn now(&self) -> Option<Instant> {
        self.tr.as_ref().map(|_| Instant::now())
    }

    fn lap(&mut self, s: S, t: Option<Instant>) -> Option<Instant> {
        match (&mut self.tr, t) {
            (Some((tr, ids)), Some(t)) => Some(tr.end(ids[s as usize], t)),
            _ => None,
        }
    }
}

/// Counters of one sequential run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeqCounters {
    /// Switch link counters.
    pub switch: SwitchStats,
    /// Switch cache counters.
    pub cache: MgpvStats,
    /// NIC engine counters.
    pub nic: NicStats,
    /// Vectors scored in the pass (with a model).
    pub scored: u64,
    /// Alerts raised in the pass (with a model).
    pub alerts: u64,
}

impl SeqCounters {
    fn absorb(&mut self, o: &SeqCounters) {
        let (s, c) = (&mut self.switch, &mut self.cache);
        s.pkts_in += o.switch.pkts_in;
        s.pkts_matched += o.switch.pkts_matched;
        s.msgs_out += o.switch.msgs_out;
        s.fg_msgs_out += o.switch.fg_msgs_out;
        for (a, b) in c.evictions.iter_mut().zip(o.cache.evictions) {
            *a += b;
        }
        c.evicted_records += o.cache.evicted_records;
        c.delay_sum_ns += o.cache.delay_sum_ns;
        c.delay_samples += o.cache.delay_samples;
        self.nic.absorb(&o.nic);
        self.scored += o.scored;
        self.alerts += o.alerts;
    }
}

/// One policy through [`FeSwitch`] + [`FeNic`] on the calling thread.
/// With a model the packet vectors are scored as they appear, in the same
/// stream positions the NIC shard uses.
fn seq_one(
    compiled: &CompiledPolicy,
    budget: TableBudget,
    model: Option<&Arc<QuantizedDetector>>,
    packets: &[PacketRecord],
    prefix: &str,
    clk: &mut Clock<'_>,
    out: &mut Outputs,
) -> Result<SeqCounters, String> {
    let cfg = SuperFeConfig::default();
    let mut t = clk.now();
    let mut switch = new_switch(compiled, cfg.cache)?;
    let mut nic = FeNic::with_budget(compiled, cfg.cache.fg_table_size, budget)
        .ok_or_else(|| "degenerate NIC table configuration".to_string())?;
    let mut infer = model.map(|m| InlineInference::new(m.clone()));
    let drain_evicted = budget != TableBudget::default();
    let mut frame: Vec<SwitchEvent> = Vec::new();
    let mut pkts: Vec<FeatureVector> = Vec::new();
    let mut evicted: Vec<FeatureVector> = Vec::new();
    let mut seq = 0u64;
    t = clk.lap(S::Build, t);
    for (i, p) in packets.iter().enumerate() {
        frame.clear();
        switch.process_into(p, &mut frame);
        t = clk.lap(S::Switch, t);
        for e in &frame {
            nic.handle(e);
        }
        t = clk.lap(S::Handle, t);
        if let Some(inf) = infer.as_mut() {
            let first = pkts.len();
            pkts.extend(nic.take_packet_vectors());
            t = clk.lap(S::TakePkts, t);
            for v in &pkts[first..] {
                inf.score(0, seq, v);
                seq += 1;
            }
            t = clk.lap(S::Score, t);
        }
        if drain_evicted && (i + 1) % DRAIN_EVERY == 0 {
            evicted.extend(nic.take_evicted().into_iter().map(|e| e.vector));
            t = clk.lap(S::TakeEvicted, t);
        }
    }
    frame.clear();
    switch.flush_into(&mut frame);
    t = clk.lap(S::Flush, t);
    for e in &frame {
        nic.handle(e);
    }
    t = clk.lap(S::Handle, t);
    let groups = nic.finish();
    t = clk.lap(S::Finish, t);
    pkts.extend(nic.take_packet_vectors());
    t = clk.lap(S::TakePkts, t);
    evicted.extend(nic.take_evicted().into_iter().map(|e| e.vector));
    t = clk.lap(S::TakeEvicted, t);
    let mut counters = SeqCounters {
        switch: *switch.stats(),
        cache: switch.cache_stats(),
        nic: *nic.stats(),
        ..SeqCounters::default()
    };
    if let Some(mut inf) = infer {
        // Stragglers, then group vectors, as the shard scores them.
        let first_straggler = usize::try_from(seq).expect("vector count fits usize");
        for v in pkts[first_straggler..].iter().chain(&groups) {
            inf.score(0, seq, v);
            seq += 1;
        }
        t = clk.lap(S::Score, t);
        let (alerts, stats) = inf.into_parts();
        counters.scored = stats.scored;
        counters.alerts = stats.alerts;
        out.alerts.extend(alerts);
    }
    drop((switch, nic, frame));
    add_delay(&mut out.delay, &counters.cache);
    out.streams.push((format!("{prefix}group"), groups));
    out.streams.push((format!("{prefix}packet"), pkts));
    out.streams.push((format!("{prefix}evicted"), evicted));
    clk.lap(S::Teardown, t);
    Ok(counters)
}

/// The workload's policies compiled through the deployment gate, in
/// attach order.
pub fn compile_all(kind: Kind) -> Result<Vec<CompiledPolicy>, String> {
    parse_all(kind)?
        .iter()
        .map(|(name, p)| gate(p, &SuperFeConfig::default()).map_err(|e| format!("{name}: {e}")))
        .collect()
}

/// Runs the sequential composition of a workload on the calling thread:
/// every tenant on its own, mirai with its certified model scoring in
/// place when `model` is given. Spans go to `tracer` when given.
pub fn sequential(
    kind: Kind,
    compiled: &[CompiledPolicy],
    model: Option<&Arc<QuantizedDetector>>,
    packets: &[PacketRecord],
    tracer: Option<&mut Tracer>,
) -> Result<(Outputs, SeqCounters), String> {
    let mut clk = Clock::new(tracer);
    let mut out = Outputs::default();
    let mut total = SeqCounters::default();
    let tenants = kind == Kind::MawiTenants;
    for (i, c) in compiled.iter().enumerate() {
        let prefix = if tenants {
            format!("t{i}.")
        } else {
            String::new()
        };
        let n = seq_one(c, budget(kind), model, packets, &prefix, &mut clk, &mut out)?;
        total.absorb(&n);
    }
    Ok((out, total))
}

/// Seconds a switch-only replay of every policy takes, with the default
/// aging probe or with aging off.
pub fn switch_only(
    compiled: &[CompiledPolicy],
    packets: &[PacketRecord],
    aging: bool,
) -> Result<f64, String> {
    let mut cache = SuperFeConfig::default().cache;
    if !aging {
        cache.aging_t_ns = None;
    }
    let mut busy = 0.0;
    for c in compiled {
        let mut switch = new_switch(c, cache)?;
        let mut frame: Vec<SwitchEvent> = Vec::with_capacity(64);
        let t = Instant::now();
        for p in packets {
            frame.clear();
            switch.process_into(p, &mut frame);
        }
        frame.clear();
        switch.flush_into(&mut frame);
        busy += t.elapsed().as_secs_f64();
        std::hint::black_box(switch.stats());
    }
    Ok(busy)
}

/// The expected outputs of one input, computed once per invocation.
pub struct Oracle {
    streams: Vec<(String, Expected)>,
    alerts: Vec<AlertItem>,
}

impl Oracle {
    /// Runs the sequential composition on `packets` and scores its vectors
    /// offline with the certified model (mirai).
    pub fn build(ctx: &Ctx, packets: &[PacketRecord]) -> Result<Self, String> {
        let compiled = compile_all(ctx.kind)?;
        let (out, _) = sequential(ctx.kind, &compiled, None, packets, None)?;
        let alerts = match ctx.kind {
            Kind::MiraiDetect => {
                let policy =
                    dsl::parse(superfe_apps::policies::KITSUNE).map_err(|e| e.to_string())?;
                let model = certified_model(&policy, model_of(ctx)?)?;
                let find = |name: &str| {
                    out.streams
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(&[][..], |(_, v)| v.as_slice())
                };
                let off = score_offline_quantized(&model, find("packet"), find("group"), "bench");
                check::oracle_alerts(&off.alerts)
            }
            _ => Vec::new(),
        };
        Ok(Oracle {
            streams: out
                .streams
                .into_iter()
                .map(|(n, v)| (n, Expected::new(v)))
                .collect(),
            alerts,
        })
    }

    /// Outputs every correct run produces.
    pub fn expected(&self) -> u64 {
        self.streams
            .iter()
            .map(|(_, e)| e.len() as u64)
            .sum::<u64>()
            + self.alerts.len() as u64
    }

    /// Alerts the oracle expects.
    pub fn alert_count(&self) -> usize {
        self.alerts.len()
    }

    /// Compares one run's outputs with the oracle's.
    pub fn compare(&self, got: &Outputs) -> Tally {
        let mut t = Tally::default();
        for (name, exp) in &self.streams {
            let actual = got
                .streams
                .iter()
                .find(|(n, _)| n == name)
                .map_or(&[][..], |(_, v)| v.as_slice());
            t.absorb(&check::compare_vectors(exp, actual));
        }
        for (name, v) in &got.streams {
            if !self.streams.iter().any(|(n, _)| n == name) {
                t.extra += v.len() as u64;
            }
        }
        t.absorb(&check::compare_alerts(&self.alerts, &got.alerts));
        t
    }
}
