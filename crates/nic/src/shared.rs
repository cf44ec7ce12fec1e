//! The NIC streaming runtime: one CG-key-sharded worker pool serving any
//! number of execution units.
//!
//! The NFP's ingress NBI distributes packets to cores on a per-IP basis so
//! cores never contend on group state (§6.2). This module is the software
//! analogue as a *pipeline stage*: the producer (the switch) pushes tagged
//! events as they are emitted, the executor routes each one to the worker
//! owning its CG-key shard, and workers compute features concurrently while
//! the producer is still parsing packets — the full event stream is never
//! materialized. It is the crate's only NIC worker pool: a single-policy
//! [`StreamingNic`](crate::stream::StreamingNic) is this runtime with one
//! unit resident from the start, and the `superfe-ctrl` control plane
//! attaches and detaches many while the stream flows.
//!
//! Design invariants (see DESIGN.md "Threading model"):
//!
//! - **Shard by CG key**: an MGPV eviction goes to shard `hash % workers`
//!   — *not* tenant-salted. Every record of a group carries the same CG
//!   hash, so a group's state lives on exactly one worker (no locks, no
//!   cross-worker merges), and a unit's per-shard event subsequence — hence
//!   its merged output order and `(shard, seq)` egress tags — depends only
//!   on its own events and the worker count, never on its co-tenants.
//! - **FG broadcast**: FG updates are appended to *every* shard's frame, in
//!   stream order relative to the MGPV events around them, which preserves
//!   the switch's FgUpdate-before-reference ordering on each shard.
//! - **Bounded rings**: each worker is fed over a [`superfe_net::ring`]
//!   SPSC ring holding at most [`CHANNEL_DEPTH`] messages. A producer
//!   outrunning a worker blocks (backpressure) instead of buffering
//!   unboundedly; the doorbell publishes [`DOORBELL_FRAMES`] frames per
//!   wakeup.
//! - **Frame batching and bounded recycling**: events travel in
//!   [`FRAME_SIZE`]-event frames; drained frames return to the producer
//!   over a bounded per-worker recycle ring ([`RECYCLE_DEPTH`] slots) with
//!   drop-on-full semantics, so the frame inventory is capped at
//!   `workers × (CHANNEL_DEPTH + RECYCLE_DEPTH + 2)` frames.
//! - **Execution units with member demux**: each worker owns one private
//!   [`FeNic`] per *unit* — a set of tenants the SF07xx analysis proved
//!   semantically equivalent (`superfe_policy::analyze::equiv`), fused by
//!   the control plane. A solo tenant is a unit of one. The unit's engine
//!   runs the extraction once and the **demux contract** fans the emitted
//!   vectors out per member: every member receives its own copy of each
//!   feature vector and its own egress `(shard, seq)` numbering, so
//!   member-visible output is bitwise a solo run's and state never crosses
//!   unit boundaries. Several units may consume one shared-prefix switch
//!   partition's stream (SF08xx).
//! - **In-shard egress**: a member's [`VectorSink`] runs on the worker, and
//!   so does the quantized scorer of a
//!   [`StreamingNic::with_inference`](crate::stream::StreamingNic::with_inference)
//!   unit; both tag a vector with the same `seq`.
//! - **Epoch-based reconfiguration**: [`SharedStreamingNic::attach`],
//!   [`SharedStreamingNic::join`] and the detach handshakes travel
//!   *in-band* as control markers through the same rings as event frames
//!   (markers ring the doorbell immediately, so a handshake is never parked
//!   behind a half-staged frame batch), so every worker applies them at the
//!   same point of the event stream — the epoch boundary. Detaching a
//!   unit's last member is a drain-and-flush handshake
//!   ([`SharedStreamingNic::detach`]); detaching a member of a
//!   still-populated unit is a **snapshot** handshake
//!   ([`SharedStreamingNic::snapshot_detach`]): each worker clones the
//!   unit's engine, applies the caller-provided snapshot flush of the
//!   switch partition to the clone, and finalizes the clone — the departing
//!   member gets exactly the output a destructive detach would have
//!   produced while the survivors' live state is never touched.
//! - **Deterministic merge**: worker outputs (joins and handshake acks) are
//!   merged in shard order, independent of thread scheduling.

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use superfe_ml::QuantizedDetector;
use superfe_net::metrics::{monotonic_ns, StageMetrics};
use superfe_net::ring;
use superfe_net::Granularity;
use superfe_policy::CompiledPolicy;
use superfe_switch::tenant::{TaggedEvent, TenantId};
use superfe_switch::SwitchEvent;

use crate::engine::{EvictedVector, FeNic, FeatureVector, NicStats};
use crate::error::NicError;
use crate::inference::{InlineAlert, InlineInference, InlineStats};
use crate::stream::{
    EgressVector, StreamOutput, VectorSink, CHANNEL_DEPTH, DOORBELL_FRAMES, FRAME_SIZE,
    RECYCLE_DEPTH,
};
use crate::table::TableBudget;

/// The unit (and its only member) that [`SharedStreamingNic::solo`]
/// attaches.
pub(crate) const SOLO: TenantId = TenantId(0);

/// One shard's dump payload: `(unit, group, state)` per resident unit.
type ShardDump = Vec<(TenantId, TenantId, ShardUnitState)>;

/// What travels to a worker: an event frame or an epoch control marker.
enum ShardMsg {
    /// A batch of tagged events in stream order.
    Frame(Vec<TaggedEvent>),
    /// Attach marker: adopt this pre-built engine as a new unit whose
    /// first member is the unit id itself, effective for all events after
    /// this point in the stream. `group` names the switch partition whose
    /// tagged events feed the engine — the unit itself for a solo attach,
    /// or a shared-prefix group id when several units consume one
    /// partition's stream.
    Attach {
        unit: TenantId,
        group: TenantId,
        engine: Box<FeNic>,
        sink: Option<Box<dyn VectorSink>>,
    },
    /// Join marker: add `member` to an existing unit's demux fan-out.
    Join {
        unit: TenantId,
        member: TenantId,
        sink: Option<Box<dyn VectorSink>>,
    },
    /// Detach marker for a whole unit: finalize its engine, flush every
    /// member's sink, and ack one finished piece per member.
    Detach {
        unit: TenantId,
        ack: Sender<(usize, TenantPiece)>,
    },
    /// Snapshot marker: finalize *one member* of a live unit against a
    /// clone of its engine fed the given switch-partition snapshot flush,
    /// leaving the unit itself untouched.
    Snapshot {
        unit: TenantId,
        member: TenantId,
        events: Vec<SwitchEvent>,
        ack: Sender<(usize, TenantPiece)>,
    },
    /// Prefix-detach marker: destructively finalize a whole unit that
    /// shares its switch partition with other units. The partition stays
    /// live for the survivors, so its snapshot flush cannot travel as
    /// ordinary frames (they would corrupt the surviving units' state);
    /// it rides in the marker and feeds only the departing unit's engine.
    PrefixDetach {
        unit: TenantId,
        events: Vec<SwitchEvent>,
        ack: Sender<(usize, TenantPiece)>,
    },
    /// Dump marker: non-destructively capture every unit's engine state on
    /// this shard (clones — live processing state is untouched). One ack
    /// per shard carrying all of its units.
    Dump { ack: Sender<(usize, ShardDump)> },
    /// Restore marker: overwrite one unit's dynamic state (engine, member
    /// egress sequence counters, accumulated per-packet vectors) with a
    /// previously dumped shard state. The unit must already exist with the
    /// same member roster; acks `false` otherwise.
    Restore {
        unit: TenantId,
        engine: Box<FeNic>,
        seqs: Vec<(TenantId, u64)>,
        pkts_accum: Vec<FeatureVector>,
        ack: Sender<(usize, bool)>,
    },
    /// Pressure marker: report every unit's live state occupancy on this
    /// shard (resident groups per level plus eviction/overflow counters).
    Pressure {
        ack: Sender<(usize, Vec<UnitPressure>)>,
    },
}

/// One unit's dumped state on one shard (see
/// [`SharedStreamingNic::dump_state`]).
pub struct ShardUnitState {
    /// The shard this state came from (and must return to).
    pub shard: usize,
    /// A clone of the unit's engine at the dump's stream cut.
    pub engine: Box<FeNic>,
    /// Per-member `(member, next egress seq)` counters, in join order.
    pub member_seqs: Vec<(TenantId, u64)>,
    /// Per-packet vectors accumulated for sinkless members.
    pub pkts_accum: Vec<FeatureVector>,
}

/// One execution unit's dumped state across every shard, in shard order.
pub struct UnitStateDump {
    /// The unit id.
    pub unit: TenantId,
    /// The shared-prefix group (switch partition) feeding the unit.
    pub group: TenantId,
    /// Per-shard state, sorted by shard index.
    pub shards: Vec<ShardUnitState>,
}

/// One unit's live state occupancy, merged across shards (see
/// [`SharedStreamingNic::state_pressure`]). This is the population feedback
/// the control plane's admission uses in place of static estimates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitPressure {
    /// The unit id.
    pub unit: TenantId,
    /// Resident groups per granularity level, summed across shards.
    pub groups_per_level: Vec<(Granularity, usize)>,
    /// Group-table overflow drops (DropNew budget refusals), summed.
    pub overflow_drops: u64,
    /// Groups evicted by the table budget, summed.
    pub evicted_groups: u64,
}

/// One member's finished output on one shard.
struct TenantPiece {
    tenant: TenantId,
    groups: Vec<FeatureVector>,
    pkts: Vec<FeatureVector>,
    /// Groups the table budget finalized early, in eviction order.
    evicted: Vec<EvictedVector>,
    stats: NicStats,
    groups_per_level: Vec<(Granularity, usize)>,
    /// Alerts and counters of the member's in-shard scorer, if it had one.
    inline: Option<(Vec<InlineAlert>, InlineStats)>,
}

/// One member's egress half: its sink, its optional in-shard scorer, and
/// the `(shard, seq)` numbering the two share.
struct MemberEgress {
    member: TenantId,
    sink: Option<Box<dyn VectorSink>>,
    /// Quantized detector scoring every vector this member egresses.
    scorer: Option<InlineInference>,
    /// Per-(member, shard) monotonic egress sequence number. It advances
    /// once per egressed vector whenever the member has a sink or a scorer.
    seq: u64,
}

impl MemberEgress {
    fn new(member: TenantId, sink: Option<Box<dyn VectorSink>>) -> Self {
        MemberEgress {
            member,
            sink,
            scorer: None,
            seq: 0,
        }
    }

    /// Egresses `vectors` in order at this member's next positions: each
    /// is scored (with a scorer) and emitted (with a sink) under one `seq`.
    /// The sink takes the vectors; a sinkless member hands them back.
    fn egress(&mut self, shard: usize, vectors: Vec<FeatureVector>) -> Vec<FeatureVector> {
        if let Some(scorer) = self.scorer.as_mut() {
            for (seq, vector) in (self.seq..).zip(&vectors) {
                scorer.score(shard, seq, vector);
            }
        }
        let Some(sink) = self.sink.as_mut() else {
            if self.scorer.is_some() {
                self.seq += vectors.len() as u64;
            }
            return vectors;
        };
        for vector in vectors {
            sink.emit(EgressVector {
                shard,
                seq: self.seq,
                vector,
            });
            self.seq += 1;
        }
        Vec::new()
    }
}

/// Hands `buf` to one of several consumers: a copy, or — for the last
/// consumer — the buffer itself.
fn hand_out<T: Clone>(buf: &mut Vec<T>, last: bool) -> Vec<T> {
    if last {
        std::mem::take(buf)
    } else {
        buf.clone()
    }
}

/// One execution unit's state on one worker: a single engine shared by
/// every member, plus the per-member demux fan-out.
struct UnitEngine {
    unit: TenantId,
    /// The switch partition (shared-prefix group) whose events feed this
    /// engine; equals `unit` outside prefix sharing.
    group: TenantId,
    nic: Box<FeNic>,
    members: Vec<MemberEgress>,
    /// Per-packet vectors accumulated for sinkless members' final output
    /// (sinked members stream theirs out per frame).
    pkts_accum: Vec<FeatureVector>,
    shard: usize,
}

impl UnitEngine {
    fn has_sink(&self) -> bool {
        self.members.iter().any(|m| m.sink.is_some())
    }

    /// Demuxes freshly accumulated per-packet vectors: every member
    /// egresses them under its own sequence numbering, and they land in
    /// the unit buffer when any sinkless member still needs them.
    fn drain_packets(&mut self) {
        let mut fresh = self.nic.take_packet_vectors();
        if fresh.is_empty() {
            return;
        }
        let keep = self.members.iter().any(|m| m.sink.is_none());
        let n = self.members.len();
        for (i, m) in self.members.iter_mut().enumerate() {
            if m.sink.is_some() {
                m.egress(self.shard, hand_out(&mut fresh, i + 1 == n && !keep));
            } else {
                fresh = m.egress(self.shard, fresh);
            }
        }
        if keep {
            self.pkts_accum.extend(fresh);
        }
    }

    /// End of stream for the whole unit on this shard: drain the last
    /// per-packet vectors, finish the engine once, then demux — every
    /// member gets its own copy of the group vectors (and its sink
    /// flushed). The last member takes the buffers themselves.
    fn finalize(mut self) -> Vec<TenantPiece> {
        self.drain_packets();
        let UnitEngine {
            mut nic,
            members,
            mut pkts_accum,
            shard,
            ..
        } = self;
        let mut groups = nic.finish();
        let mut evicted = nic.take_evicted();
        let stats = *nic.stats();
        let groups_per_level = nic.groups_per_level();
        let n = members.len();
        let last_sinkless = members.iter().rposition(|m| m.sink.is_none());
        let mut pieces = Vec::with_capacity(n);
        for (i, mut m) in members.into_iter().enumerate() {
            let pkts = if m.sink.is_some() {
                m.egress(shard, groups.clone());
                Vec::new()
            } else {
                groups = m.egress(shard, groups);
                hand_out(&mut pkts_accum, Some(i) == last_sinkless)
            };
            if let Some(mut sink) = m.sink.take() {
                sink.flush();
            }
            pieces.push(TenantPiece {
                tenant: m.member,
                groups: hand_out(&mut groups, i + 1 == n),
                pkts,
                evicted: hand_out(&mut evicted, i + 1 == n),
                stats,
                groups_per_level: groups_per_level.clone(),
                inline: m.scorer.map(InlineInference::into_parts),
            });
        }
        pieces
    }

    /// Finalizes one departing member against a clone of the unit engine
    /// fed `events` (the snapshot flush of the switch partition): the
    /// member's output is exactly what a destructive detach would have
    /// produced at this stream position, while the live engine and the
    /// surviving members are untouched.
    fn snapshot_member(&mut self, member: TenantId, events: &[SwitchEvent]) -> Option<TenantPiece> {
        let pos = self.members.iter().position(|m| m.member == member)?;
        let departing = self.members.remove(pos);
        let mut nic = self.nic.clone();
        for e in events {
            nic.handle(e);
        }
        let survivors_need = self.members.iter().any(|m| m.sink.is_none());
        let pkts_accum = if departing.sink.is_some() {
            Vec::new()
        } else {
            hand_out(&mut self.pkts_accum, !survivors_need)
        };
        if !survivors_need {
            self.pkts_accum.clear();
        }
        let clone = UnitEngine {
            unit: self.unit,
            group: self.group,
            nic,
            members: vec![departing],
            pkts_accum,
            shard: self.shard,
        };
        clone.finalize().pop()
    }
}

/// One shard worker: applies frames and epoch markers in stream order
/// until the ring closes, then finalizes every unit still resident.
fn run_shard(
    shard: usize,
    mut rx: ring::Consumer<ShardMsg>,
    mut recycle: ring::Producer<Vec<TaggedEvent>>,
    mut engines: Vec<UnitEngine>,
    metrics: Option<Arc<StageMetrics>>,
) -> Vec<TenantPiece> {
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Frame(mut frame) => {
                let t0 = metrics.as_ref().map(|_| monotonic_ns());
                for e in &frame {
                    // One shared-prefix partition's event feeds every unit
                    // in its group.
                    for u in engines.iter_mut() {
                        if u.group == e.tenant {
                            u.nic.handle(&e.event);
                        }
                    }
                }
                if let (Some(m), Some(t0)) = (&metrics, t0) {
                    m.shard.record(monotonic_ns().saturating_sub(t0));
                }
                // Egress is timed only when a sink takes vectors.
                let t1 = metrics
                    .as_ref()
                    .filter(|_| engines.iter().any(UnitEngine::has_sink))
                    .map(|_| monotonic_ns());
                for u in engines.iter_mut() {
                    u.drain_packets();
                }
                if let (Some(m), Some(t1)) = (&metrics, t1) {
                    m.sink.record(monotonic_ns().saturating_sub(t1));
                }
                frame.clear();
                // Bounded recycling: hand the frame back if the ring has
                // room, otherwise drop it.
                let _ = recycle.try_send(frame);
            }
            ShardMsg::Attach {
                unit,
                group,
                engine,
                sink,
            } => {
                engines.push(UnitEngine {
                    unit,
                    group,
                    nic: engine,
                    members: vec![MemberEgress::new(unit, sink)],
                    pkts_accum: Vec::new(),
                    shard,
                });
            }
            ShardMsg::Join { unit, member, sink } => {
                if let Some(u) = engines.iter_mut().find(|u| u.unit == unit) {
                    u.members.push(MemberEgress::new(member, sink));
                }
            }
            ShardMsg::Detach { unit, ack } => {
                if let Some(pos) = engines.iter().position(|u| u.unit == unit) {
                    for piece in engines.remove(pos).finalize() {
                        let _ = ack.send((shard, piece));
                    }
                }
            }
            ShardMsg::Snapshot {
                unit,
                member,
                events,
                ack,
            } => {
                if let Some(u) = engines.iter_mut().find(|u| u.unit == unit) {
                    if let Some(piece) = u.snapshot_member(member, &events) {
                        let _ = ack.send((shard, piece));
                    }
                }
            }
            ShardMsg::PrefixDetach { unit, events, ack } => {
                if let Some(pos) = engines.iter().position(|u| u.unit == unit) {
                    let mut u = engines.remove(pos);
                    // The partition flush, then the usual end of stream.
                    for e in &events {
                        u.nic.handle(e);
                    }
                    for piece in u.finalize() {
                        let _ = ack.send((shard, piece));
                    }
                }
            }
            ShardMsg::Dump { ack } => {
                let states = engines
                    .iter()
                    .map(|u| {
                        (
                            u.unit,
                            u.group,
                            ShardUnitState {
                                shard,
                                engine: u.nic.clone(),
                                member_seqs: u.members.iter().map(|m| (m.member, m.seq)).collect(),
                                pkts_accum: u.pkts_accum.clone(),
                            },
                        )
                    })
                    .collect();
                let _ = ack.send((shard, states));
            }
            ShardMsg::Restore {
                unit,
                engine,
                seqs,
                pkts_accum,
                ack,
            } => {
                let ok = match engines.iter_mut().find(|u| u.unit == unit) {
                    Some(u)
                        if u.members.len() == seqs.len()
                            && u.members
                                .iter()
                                .zip(&seqs)
                                .all(|(m, (id, _))| m.member == *id) =>
                    {
                        u.nic = engine;
                        for (m, (_, s)) in u.members.iter_mut().zip(&seqs) {
                            m.seq = *s;
                        }
                        u.pkts_accum = pkts_accum;
                        true
                    }
                    _ => false,
                };
                let _ = ack.send((shard, ok));
            }
            ShardMsg::Pressure { ack } => {
                let pressures = engines
                    .iter()
                    .map(|u| UnitPressure {
                        unit: u.unit,
                        groups_per_level: u.nic.groups_per_level(),
                        overflow_drops: u.nic.stats().overflow_drops,
                        evicted_groups: u.nic.stats().evicted_groups,
                    })
                    .collect();
                let _ = ack.send((shard, pressures));
            }
        }
    }
    // Ring closed: end of stream for every unit left.
    engines.into_iter().flat_map(UnitEngine::finalize).collect()
}

/// Builds one engine per shard for a new unit.
fn build_engines(
    compiled: &CompiledPolicy,
    fg_table_size: usize,
    workers: usize,
    budget: TableBudget,
) -> Result<Vec<FeNic>, NicError> {
    (0..workers)
        .map(|_| {
            FeNic::with_budget(compiled, fg_table_size, budget)
                .ok_or_else(|| NicError::Engine("degenerate NIC group-table configuration".into()))
        })
        .collect()
}

/// Validates and splits an optional per-shard sink list.
fn split_sinks(
    workers: usize,
    sinks: Option<Vec<Box<dyn VectorSink>>>,
) -> Result<Vec<Option<Box<dyn VectorSink>>>, NicError> {
    match sinks {
        Some(s) if s.len() != workers => Err(NicError::Engine(format!(
            "sink count {} does not match worker count {workers}",
            s.len()
        ))),
        Some(s) => Ok(s.into_iter().map(Some).collect()),
        None => Ok((0..workers).map(|_| None).collect()),
    }
}

struct SharedWorker {
    tx: ring::Producer<ShardMsg>,
    /// Consumer end of this worker's bounded frame recycle ring.
    recycle: ring::Consumer<Vec<TaggedEvent>>,
    join: JoinHandle<Vec<TenantPiece>>,
    pending: Vec<TaggedEvent>,
}

/// One attached member and the unit whose engine serves it.
struct MemberEntry {
    member: TenantId,
    unit: TenantId,
}

/// One execution unit and the shared-prefix group (switch partition) whose
/// event stream feeds it; `group == unit` outside prefix sharing.
struct UnitEntry {
    unit: TenantId,
    group: TenantId,
}

/// The streaming NIC executor: one CG-key-sharded worker pool shared by
/// every attached execution unit.
///
/// [`SharedStreamingNic::new`] starts it empty; units come and go via
/// [`SharedStreamingNic::attach`] / [`SharedStreamingNic::detach`], and
/// fused members via [`SharedStreamingNic::join`] /
/// [`SharedStreamingNic::snapshot_detach`], while the event stream flows.
pub struct SharedStreamingNic {
    workers: Vec<SharedWorker>,
    /// Locally stashed recycled frames ready for reuse (bounded: refilled
    /// only from the fixed-capacity recycle rings).
    spare: Vec<Vec<TaggedEvent>>,
    /// Attached members in attach order.
    members: Vec<MemberEntry>,
    /// Execution units in creation order.
    units: Vec<UnitEntry>,
    /// Shared-prefix groups (switch partitions) in creation order, with
    /// events-routed counters; a solo unit is a group of one.
    groups: Vec<(TenantId, u64)>,
    /// Group-table budget applied to every subsequently attached unit.
    budget: TableBudget,
}

impl SharedStreamingNic {
    /// Spawns `workers` shard threads (clamped to ≥ 1) with no tenants.
    pub fn new(workers: usize) -> Self {
        Self::spawn((0..workers.max(1)).map(|_| Vec::new()).collect(), None)
    }

    /// Spawns a pool whose only unit, [`SOLO`], is resident on every shard
    /// from the first event: the runtime behind
    /// [`StreamingNic`](crate::stream::StreamingNic). Engines are built
    /// before any thread starts, so configuration problems surface here.
    ///
    /// `model` gives the member an in-shard scorer; `metrics` records every
    /// frame's ring dwell, shard processing time and sink egress time.
    pub(crate) fn solo(
        compiled: &CompiledPolicy,
        fg_table_size: usize,
        workers: usize,
        budget: TableBudget,
        sinks: Option<Vec<Box<dyn VectorSink>>>,
        model: Option<Arc<QuantizedDetector>>,
        metrics: Option<Arc<StageMetrics>>,
    ) -> Result<Self, NicError> {
        let n = workers.max(1);
        let sinks = split_sinks(n, sinks)?;
        let engines = build_engines(compiled, fg_table_size, n, budget)?;
        let initial = engines
            .into_iter()
            .zip(sinks)
            .enumerate()
            .map(|(shard, (nic, sink))| {
                let mut member = MemberEgress::new(SOLO, sink);
                member.scorer = model.clone().map(InlineInference::new);
                vec![UnitEngine {
                    unit: SOLO,
                    group: SOLO,
                    nic: Box::new(nic),
                    members: vec![member],
                    pkts_accum: Vec::new(),
                    shard,
                }]
            })
            .collect();
        let mut plane = Self::spawn(initial, metrics);
        plane.units.push(UnitEntry {
            unit: SOLO,
            group: SOLO,
        });
        plane.members.push(MemberEntry {
            member: SOLO,
            unit: SOLO,
        });
        plane.groups.push((SOLO, 0));
        Ok(plane)
    }

    /// Spawns one shard thread per entry of `initial`, each starting with
    /// those units resident.
    fn spawn(initial: Vec<Vec<UnitEngine>>, metrics: Option<Arc<StageMetrics>>) -> Self {
        let workers = initial
            .into_iter()
            .enumerate()
            .map(|(shard, engines)| {
                let (tx, rx) = ring::channel_with::<ShardMsg>(
                    CHANNEL_DEPTH,
                    DOORBELL_FRAMES,
                    Arc::default(),
                    metrics.as_ref().map(|m| m.queue.clone()),
                );
                // Recycle ring: the worker produces drained frames, the
                // routing thread consumes them. try_send drops on full.
                let (recycle, recycle_rx) = ring::channel::<Vec<TaggedEvent>>(RECYCLE_DEPTH, 1);
                let metrics = metrics.clone();
                let join =
                    std::thread::spawn(move || run_shard(shard, rx, recycle, engines, metrics));
                SharedWorker {
                    tx,
                    recycle: recycle_rx,
                    join,
                    pending: Vec::with_capacity(FRAME_SIZE),
                }
            })
            .collect();
        SharedStreamingNic {
            workers,
            spare: Vec::new(),
            members: Vec::new(),
            units: Vec::new(),
            groups: Vec::new(),
            budget: TableBudget::default(),
        }
    }

    /// Sets the group-table budget (DRAM cap + eviction policy) used by
    /// every unit attached *after* this call; already-attached units keep
    /// theirs. Lets operators pin `RandomWay` to an explicit seed
    /// (CLI `--evict-seed`) so evictions replay deterministically.
    pub fn set_table_budget(&mut self, budget: TableBudget) {
        self.budget = budget;
    }

    /// Number of shards.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Attached members in attach order, each with its group's
    /// events-routed counter (fused and prefix-shared members share one
    /// stream).
    pub fn tenants(&self) -> Vec<(TenantId, u64)> {
        self.members
            .iter()
            .map(|m| (m.member, self.routed_of_unit(m.unit)))
            .collect()
    }

    fn group_of_unit(&self, unit: TenantId) -> Option<TenantId> {
        self.units.iter().find(|u| u.unit == unit).map(|u| u.group)
    }

    fn routed_of_unit(&self, unit: TenantId) -> u64 {
        self.group_of_unit(unit)
            .and_then(|g| self.groups.iter().find(|(id, _)| *id == g))
            .map_or(0, |(_, n)| *n)
    }

    /// Attaches `tenant` as a new unit (of which it is the first member)
    /// at the current epoch: all events pushed after this call are
    /// processed by its engines; nothing before is.
    ///
    /// `fg_table_size` is the unit's NIC group-table quota. `sinks`, when
    /// given, must hold one sink per shard (`sinks[i]` moves into worker
    /// `i`); with sinks attached the tenant's per-packet vectors are
    /// diverted exactly as in
    /// [`StreamingNic::with_sinks`](crate::stream::StreamingNic::with_sinks).
    pub fn attach(
        &mut self,
        tenant: TenantId,
        compiled: &CompiledPolicy,
        fg_table_size: usize,
        sinks: Option<Vec<Box<dyn VectorSink>>>,
    ) -> Result<(), NicError> {
        self.attach_unit(tenant, tenant, compiled, fg_table_size, sinks)?;
        self.groups.push((tenant, 0));
        Ok(())
    }

    /// Attaches `tenant` as a new unit consuming the event stream of the
    /// already-attached shared-prefix group `group` (the id the shared
    /// switch partition tags its events with). The unit gets its own
    /// engines and its own NIC program — only the switch-side prefix is
    /// shared — so its output is bitwise a solo run's.
    ///
    /// The group must still be at stream position zero (no events routed),
    /// or the new unit's output would miss history; the control plane
    /// additionally guarantees no *packets* reached the shared partition.
    pub fn attach_to_group(
        &mut self,
        group: TenantId,
        tenant: TenantId,
        compiled: &CompiledPolicy,
        fg_table_size: usize,
        sinks: Option<Vec<Box<dyn VectorSink>>>,
    ) -> Result<(), NicError> {
        let Some(routed) = self
            .groups
            .iter()
            .find(|(g, _)| *g == group)
            .map(|(_, n)| *n)
        else {
            return Err(NicError::Engine(format!("group {group} is not attached")));
        };
        if routed != 0 {
            return Err(NicError::Engine(format!(
                "group {group} has already processed events; a late unit cannot share its prefix"
            )));
        }
        self.attach_unit(group, tenant, compiled, fg_table_size, sinks)
    }

    /// Builds per-shard engines for a new unit of one and sends the attach
    /// markers; shared by [`SharedStreamingNic::attach`] (solo group) and
    /// [`SharedStreamingNic::attach_to_group`] (existing group).
    fn attach_unit(
        &mut self,
        group: TenantId,
        tenant: TenantId,
        compiled: &CompiledPolicy,
        fg_table_size: usize,
        sinks: Option<Vec<Box<dyn VectorSink>>>,
    ) -> Result<(), NicError> {
        if self.members.iter().any(|m| m.member == tenant) {
            return Err(NicError::Engine(format!(
                "tenant {tenant} is already attached"
            )));
        }
        let n = self.workers.len();
        let mut sinks = split_sinks(n, sinks)?;
        let engines = build_engines(compiled, fg_table_size, n, self.budget)?;
        // Everything already queued belongs to the previous epoch: flush it
        // ahead of the markers so the attach point is a clean stream cut.
        self.flush_all()?;
        for (w, engine) in engines.into_iter().enumerate() {
            let sink = sinks[w].take();
            // Control markers publish immediately (send_now): an epoch cut
            // must not sit staged behind the doorbell batch.
            self.workers[w]
                .tx
                .send_now(ShardMsg::Attach {
                    unit: tenant,
                    group,
                    engine: Box::new(engine),
                    sink,
                })
                .map_err(|_| NicError::WorkerLost { worker: w })?;
        }
        self.units.push(UnitEntry {
            unit: tenant,
            group,
        });
        self.members.push(MemberEntry {
            member: tenant,
            unit: tenant,
        });
        Ok(())
    }

    /// Joins `member` to the existing unit `unit`'s demux fan-out.
    ///
    /// The caller (the control plane) certifies equivalence and must
    /// guarantee the unit is still at stream position zero — no events
    /// routed to it yet — otherwise the member's output would include
    /// history from before its attach point. That necessary condition is
    /// re-checked here; the sufficient condition (no *packets* offered to
    /// the unit's switch partition, which could be batching records that
    /// have not evicted yet) is the control plane's.
    pub fn join(
        &mut self,
        unit: TenantId,
        member: TenantId,
        sinks: Option<Vec<Box<dyn VectorSink>>>,
    ) -> Result<(), NicError> {
        if self.group_of_unit(unit).is_none() {
            return Err(NicError::Engine(format!("unit {unit} is not attached")));
        }
        if self.routed_of_unit(unit) != 0 {
            return Err(NicError::Engine(format!(
                "unit {unit} has already processed events; a late member cannot join"
            )));
        }
        if self.members.iter().any(|m| m.member == member) {
            return Err(NicError::Engine(format!(
                "tenant {member} is already attached"
            )));
        }
        let mut sinks = split_sinks(self.workers.len(), sinks)?;
        self.flush_all()?;
        for (w, worker) in self.workers.iter_mut().enumerate() {
            let sink = sinks[w].take();
            worker
                .tx
                .send_now(ShardMsg::Join { unit, member, sink })
                .map_err(|_| NicError::WorkerLost { worker: w })?;
        }
        self.members.push(MemberEntry { member, unit });
        Ok(())
    }

    /// Detaches `member` — the *sole* member of its unit — with a
    /// drain-and-flush handshake: pending frames are flushed, every shard
    /// finalizes the unit's engine (egressing its remaining vectors and
    /// flushing its sink), and the merged output is returned once all
    /// shards have acked. Blocks until the epoch completes.
    ///
    /// For a member of a still-populated unit use
    /// [`SharedStreamingNic::snapshot_detach`].
    pub fn detach(&mut self, member: TenantId) -> Result<StreamOutput, NicError> {
        let Some(pos) = self.members.iter().position(|m| m.member == member) else {
            return Err(NicError::Engine(format!("tenant {member} is not attached")));
        };
        let unit = self.members[pos].unit;
        if self.members.iter().filter(|m| m.unit == unit).count() > 1 {
            return Err(NicError::Engine(format!(
                "tenant {member} shares unit {unit}; detach it with a snapshot"
            )));
        }
        let group = self
            .group_of_unit(unit)
            .expect("attached members have units");
        if self
            .units
            .iter()
            .any(|u| u.unit != unit && u.group == group)
        {
            return Err(NicError::Engine(format!(
                "tenant {member} shares switch partition {group}; detach it with a prefix detach"
            )));
        }
        self.flush_all()?;
        let pieces = self.collect_acks(|ack| ShardMsg::Detach { unit, ack })?;
        self.members.remove(pos);
        self.units.retain(|u| u.unit != unit);
        self.groups.retain(|(g, _)| *g != group);
        Ok(merge_pieces(pieces))
    }

    /// Detaches `member` — the sole member of its unit — whose unit shares
    /// its switch partition with other units. `events` must be the
    /// *snapshot flush* of the shared partition (`SharedSwitch::
    /// snapshot_into` — the partition itself stays live for the surviving
    /// units, which is why the flush cannot travel as ordinary frames).
    /// Each shard destructively finalizes the unit's engine against its
    /// share of the flush, so the departing member's output is exactly
    /// what a solo detach would have produced at this stream position.
    pub fn prefix_detach(
        &mut self,
        member: TenantId,
        events: Vec<TaggedEvent>,
    ) -> Result<StreamOutput, NicError> {
        let Some(pos) = self.members.iter().position(|m| m.member == member) else {
            return Err(NicError::Engine(format!("tenant {member} is not attached")));
        };
        let unit = self.members[pos].unit;
        if self.members.iter().filter(|m| m.unit == unit).count() > 1 {
            return Err(NicError::Engine(format!(
                "tenant {member} shares unit {unit}; detach it with a snapshot"
            )));
        }
        let group = self
            .group_of_unit(unit)
            .expect("attached members have units");
        if !self
            .units
            .iter()
            .any(|u| u.unit != unit && u.group == group)
        {
            return Err(NicError::Engine(format!(
                "tenant {member} is its partition's sole consumer; use a draining detach"
            )));
        }
        let mut per_shard = self.route_snapshot(group, events);
        self.flush_all()?;
        let mut shards = per_shard.drain(..);
        let pieces = self.collect_acks(|ack| ShardMsg::PrefixDetach {
            unit,
            events: shards.next().unwrap_or_default(),
            ack,
        })?;
        self.members.remove(pos);
        self.units.retain(|u| u.unit != unit);
        Ok(merge_pieces(pieces))
    }

    /// Detaches `member` from a still-populated unit: `events` must be the
    /// *snapshot flush* of the unit's switch partition (a clone's flush —
    /// see `SharedSwitch::snapshot_into`), which is routed to the shards
    /// exactly like live traffic; each shard then finalizes a clone of the
    /// unit engine for the departing member. The surviving members and the
    /// live engine state are untouched.
    pub fn snapshot_detach(
        &mut self,
        member: TenantId,
        events: Vec<TaggedEvent>,
    ) -> Result<StreamOutput, NicError> {
        let Some(pos) = self.members.iter().position(|m| m.member == member) else {
            return Err(NicError::Engine(format!("tenant {member} is not attached")));
        };
        let unit = self.members[pos].unit;
        if self.members.iter().filter(|m| m.unit == unit).count() < 2 {
            return Err(NicError::Engine(format!(
                "tenant {member} is its unit's sole member; use a draining detach"
            )));
        }
        let group = self
            .group_of_unit(unit)
            .expect("attached members have units");
        let mut per_shard = self.route_snapshot(group, events);
        self.flush_all()?;
        let mut shards = per_shard.drain(..);
        let pieces = self.collect_acks(|ack| ShardMsg::Snapshot {
            unit,
            member,
            events: shards.next().unwrap_or_default(),
            ack,
        })?;
        self.members.remove(pos);
        Ok(merge_pieces(pieces))
    }

    /// Routes a switch-partition snapshot flush per shard with the live
    /// routing rules — MGPV evictions to `hash % workers`, FG updates
    /// broadcast — keeping only events tagged with `group`.
    fn route_snapshot(&self, group: TenantId, events: Vec<TaggedEvent>) -> Vec<Vec<SwitchEvent>> {
        let n = self.workers.len();
        let mut per_shard: Vec<Vec<SwitchEvent>> = (0..n).map(|_| Vec::new()).collect();
        for e in events {
            if e.tenant != group {
                continue;
            }
            match &e.event {
                SwitchEvent::FgUpdate(_) => {
                    for v in per_shard.iter_mut() {
                        v.push(e.event.clone());
                    }
                }
                SwitchEvent::Mgpv(m) => {
                    per_shard[(m.hash as usize) % n].push(e.event);
                }
            }
        }
        per_shard
    }

    /// Non-destructively captures every unit's engine state on every shard
    /// at the current stream cut — the NIC half of a plane snapshot. The
    /// live engines keep processing afterwards; pending frames are flushed
    /// first so the dump lands on a clean epoch boundary. Units are
    /// returned in creation order, shards sorted within each unit.
    pub fn dump_state(&mut self) -> Result<Vec<UnitStateDump>, NicError> {
        self.flush_all()?;
        let acks = self.collect_acks(|ack| ShardMsg::Dump { ack })?;
        let mut units: Vec<UnitStateDump> = self
            .units
            .iter()
            .map(|u| UnitStateDump {
                unit: u.unit,
                group: u.group,
                shards: Vec::with_capacity(self.workers.len()),
            })
            .collect();
        for (_, pieces) in acks {
            for (unit, _, state) in pieces {
                if let Some(u) = units.iter_mut().find(|x| x.unit == unit) {
                    u.shards.push(state);
                }
            }
        }
        Ok(units)
    }

    /// Overwrites one attached unit's dynamic state with a previously
    /// dumped per-shard state (see [`SharedStreamingNic::dump_state`]).
    ///
    /// The unit must already be attached — structurally rebuilt by
    /// replaying its attach/join history — with the same member roster and
    /// at the same worker count; `shards` must hold exactly one state per
    /// shard. Fails without touching the unit otherwise.
    pub fn restore_unit(
        &mut self,
        unit: TenantId,
        shards: Vec<ShardUnitState>,
    ) -> Result<(), NicError> {
        let n = self.workers.len();
        if shards.len() != n {
            return Err(NicError::Engine(format!(
                "restore of unit {unit} carries {} shard states for {n} workers",
                shards.len()
            )));
        }
        let mut by_shard: Vec<Option<ShardUnitState>> = (0..n).map(|_| None).collect();
        for s in shards {
            let idx = s.shard;
            if idx >= n || by_shard[idx].is_some() {
                return Err(NicError::Engine(format!(
                    "restore of unit {unit} has a missing or duplicate shard index"
                )));
            }
            by_shard[idx] = Some(s);
        }
        self.flush_all()?;
        let mut states = by_shard.into_iter().flatten();
        let acks = self.collect_acks(|ack| {
            let s = states.next().expect("all shard slots filled");
            ShardMsg::Restore {
                unit,
                engine: s.engine,
                seqs: s.member_seqs,
                pkts_accum: s.pkts_accum,
                ack,
            }
        })?;
        match acks.into_iter().find(|(_, ok)| !ok) {
            Some((shard, _)) => Err(NicError::Engine(format!(
                "shard {shard} rejected the restore of unit {unit}: \
                 engine geometry or member roster mismatch"
            ))),
            None => Ok(()),
        }
    }

    /// Reports every unit's live state occupancy — resident groups per
    /// level plus budget-eviction counters, merged across shards in unit
    /// creation order. This is the population feedback the control plane's
    /// admission consumes in place of its static per-tenant estimates.
    pub fn state_pressure(&mut self) -> Result<Vec<UnitPressure>, NicError> {
        self.flush_all()?;
        let acks = self.collect_acks(|ack| ShardMsg::Pressure { ack })?;
        let mut merged: Vec<UnitPressure> = self
            .units
            .iter()
            .map(|u| UnitPressure {
                unit: u.unit,
                groups_per_level: Vec::new(),
                overflow_drops: 0,
                evicted_groups: 0,
            })
            .collect();
        for (_, pieces) in acks {
            for p in pieces {
                if let Some(m) = merged.iter_mut().find(|m| m.unit == p.unit) {
                    add_levels(&mut m.groups_per_level, p.groups_per_level);
                    m.overflow_drops += p.overflow_drops;
                    m.evicted_groups += p.evicted_groups;
                }
            }
        }
        Ok(merged)
    }

    /// The shared-prefix groups' events-routed counters, in creation order
    /// — the stream positions a plane snapshot must persist, because they
    /// gate late joins and prefix shares.
    pub fn group_positions(&self) -> Vec<(TenantId, u64)> {
        self.groups.clone()
    }

    /// Overwrites one group's events-routed counter (plane restore).
    /// Returns `false` for an unknown group.
    pub fn set_group_position(&mut self, group: TenantId, routed: u64) -> bool {
        match self.groups.iter_mut().find(|(g, _)| *g == group) {
            Some(entry) => {
                entry.1 = routed;
                true
            }
            None => false,
        }
    }

    /// Sends one marker per shard (built by `msg`, in shard order) and
    /// blocks for one ack per shard, returned sorted by shard.
    ///
    /// Markers go out with `send_now` (publish + doorbell immediately):
    /// this call blocks on the acks, so a marker left staged behind the
    /// doorbell batch would deadlock the handshake.
    fn collect_acks<T>(
        &mut self,
        mut msg: impl FnMut(Sender<(usize, T)>) -> ShardMsg,
    ) -> Result<Vec<(usize, T)>, NicError> {
        let (ack_tx, ack_rx) = channel();
        for w in 0..self.workers.len() {
            self.workers[w]
                .tx
                .send_now(msg(ack_tx.clone()))
                .map_err(|_| NicError::WorkerLost { worker: w })?;
        }
        drop(ack_tx);
        let mut pieces: Vec<(usize, T)> = Vec::with_capacity(self.workers.len());
        for i in 0..self.workers.len() {
            pieces.push(
                ack_rx
                    .recv()
                    .map_err(|_| NicError::WorkerLost { worker: i })?,
            );
        }
        // Deterministic merge in shard order, independent of ack arrival.
        pieces.sort_by_key(|(shard, _)| *shard);
        Ok(pieces)
    }

    /// Routes one tagged event: MGPV evictions to shard `hash % workers`,
    /// FG updates to every shard.
    ///
    /// Blocks when the target worker is [`CHANNEL_DEPTH`] frames behind
    /// (backpressure). Fails only if a worker thread has died.
    pub fn push(&mut self, event: TaggedEvent) -> Result<(), NicError> {
        if let Some(entry) = self.groups.iter_mut().find(|(g, _)| *g == event.tenant) {
            entry.1 += 1;
        }
        match &event.event {
            SwitchEvent::FgUpdate(_) => {
                for w in 0..self.workers.len() {
                    self.workers[w].pending.push(event.clone());
                    self.flush_if_full(w)?;
                }
                Ok(())
            }
            SwitchEvent::Mgpv(m) => {
                let w = (m.hash as usize) % self.workers.len();
                self.workers[w].pending.push(event);
                self.flush_if_full(w)
            }
        }
    }

    /// Routes a batch of tagged events in order.
    pub fn push_all(
        &mut self,
        events: impl IntoIterator<Item = TaggedEvent>,
    ) -> Result<(), NicError> {
        for e in events {
            self.push(e)?;
        }
        Ok(())
    }

    /// Drains one frame for worker `w` if it reached [`FRAME_SIZE`].
    fn flush_if_full(&mut self, w: usize) -> Result<(), NicError> {
        if self.workers[w].pending.len() >= FRAME_SIZE {
            self.flush_worker(w)?;
        }
        Ok(())
    }

    /// Sends worker `w`'s pending frame, replacing it with a recycled one.
    /// The ring doorbell batches publication: the worker is woken once per
    /// [`DOORBELL_FRAMES`] frames, when the producer blocks on a full ring,
    /// or when a control marker or the close follows.
    fn flush_worker(&mut self, w: usize) -> Result<(), NicError> {
        if self.workers[w].pending.is_empty() {
            return Ok(());
        }
        let replacement = self.take_spare();
        let frame = std::mem::replace(&mut self.workers[w].pending, replacement);
        self.workers[w]
            .tx
            .send(ShardMsg::Frame(frame))
            .map_err(|_| NicError::WorkerLost { worker: w })
    }

    fn flush_all(&mut self) -> Result<(), NicError> {
        for w in 0..self.workers.len() {
            self.flush_worker(w)?;
        }
        Ok(())
    }

    /// A recycled frame if one is available, else a fresh allocation.
    fn take_spare(&mut self) -> Vec<TaggedEvent> {
        for w in &mut self.workers {
            while let Ok(f) = w.recycle.try_recv() {
                self.spare.push(f);
            }
        }
        self.spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(FRAME_SIZE))
    }

    /// Flushes, joins every worker in shard order, and returns each
    /// remaining member's merged output in attach order.
    pub fn finish(mut self) -> Result<Vec<(TenantId, StreamOutput)>, NicError> {
        self.flush_all()?;
        let mut merged: Vec<(TenantId, StreamOutput)> = self
            .members
            .iter()
            .map(|m| (m.member, StreamOutput::default()))
            .collect();
        for (i, worker) in self.workers.into_iter().enumerate() {
            // Dropping the producer publishes any staged frames, closes the
            // ring, and wakes the worker; its loop drains and exits.
            drop(worker.tx);
            let pieces = worker
                .join
                .join()
                .map_err(|_| NicError::WorkerLost { worker: i })?;
            for piece in pieces {
                if let Some((_, out)) = merged.iter_mut().find(|(t, _)| *t == piece.tenant) {
                    merge_piece(out, piece);
                }
            }
        }
        Ok(merged)
    }
}

fn merge_pieces(pieces: Vec<(usize, TenantPiece)>) -> StreamOutput {
    let mut out = StreamOutput::default();
    for (_, piece) in pieces {
        merge_piece(&mut out, piece);
    }
    out
}

fn merge_piece(out: &mut StreamOutput, piece: TenantPiece) {
    out.group_vectors.extend(piece.groups);
    out.packet_vectors.extend(piece.pkts);
    out.evicted_vectors.extend(piece.evicted);
    out.stats.absorb(&piece.stats);
    add_levels(&mut out.groups_per_level, piece.groups_per_level);
    if let Some((alerts, stats)) = piece.inline {
        out.inline_alerts.extend(alerts);
        out.inline_stats
            .get_or_insert_with(InlineStats::default)
            .absorb(&stats);
    }
}

/// Sums one shard's live groups per level into `acc`. Groups never span
/// shards, so the sum is exact; every engine of a unit reports the same
/// level list in policy order.
fn add_levels(acc: &mut Vec<(Granularity, usize)>, shard: Vec<(Granularity, usize)>) {
    if acc.is_empty() {
        *acc = shard;
    } else {
        for (a, (_, n)) in acc.iter_mut().zip(shard) {
            a.1 += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_net::PacketRecord;
    use superfe_policy::compile;
    use superfe_policy::dsl::parse;
    use superfe_switch::tenant::SharedSwitch;
    use superfe_switch::{CacheMode, FeSwitch, MgpvConfig};

    fn compiled(src: &str) -> CompiledPolicy {
        compile(&parse(src).unwrap()).unwrap()
    }

    fn host_sum() -> CompiledPolicy {
        compiled("pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)")
    }

    fn flow_tcp() -> CompiledPolicy {
        compiled(
            "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_sum, f_max])\n\
             .collect(flow)",
        )
    }

    fn packets(n: u64) -> impl Iterator<Item = PacketRecord> {
        (0..n).map(|i| {
            if i % 4 == 0 {
                PacketRecord::udp(i * 500, 120, (i % 13 + 1) as u32, 53, 7, 53)
            } else {
                PacketRecord::tcp(i * 500, 300, (i % 13 + 1) as u32, 2000, 7, 443)
            }
        })
    }

    /// Key-sorted copy (stable, so each key keeps its vector order): the
    /// merge order of a sharded run depends on the worker count, the
    /// per-key order does not.
    fn sorted(v: &[FeatureVector]) -> Vec<FeatureVector> {
        let mut v = v.to_vec();
        v.sort_by_cached_key(|f| format!("{:?}", f.key));
        v
    }

    /// The independent oracle: the policy alone on a sequential `FeSwitch`
    /// + `FeNic`, vectors key-sorted.
    fn solo_run(c: &CompiledPolicy, n: u64) -> StreamOutput {
        let mut sw = FeSwitch::new(c.switch.clone()).unwrap();
        let mut nic = FeNic::new(c, 16_384).unwrap();
        let mut frame = Vec::new();
        for p in packets(n) {
            sw.process_into(&p, &mut frame);
        }
        sw.flush_into(&mut frame);
        for e in &frame {
            nic.handle(e);
        }
        let groups = nic.finish();
        StreamOutput {
            group_vectors: sorted(&groups),
            packet_vectors: sorted(&nic.take_packet_vectors()),
            stats: *nic.stats(),
            ..StreamOutput::default()
        }
    }

    #[test]
    fn two_tenants_match_their_solo_runs() {
        for workers in [1usize, 4] {
            let a = host_sum();
            let b = flow_tcp();
            let mut sw = SharedSwitch::new();
            sw.attach(
                TenantId(0),
                a.switch.clone(),
                MgpvConfig::default(),
                CacheMode::Mgpv,
            );
            sw.attach(
                TenantId(1),
                b.switch.clone(),
                MgpvConfig::default(),
                CacheMode::Mgpv,
            );
            let mut nic = SharedStreamingNic::new(workers);
            nic.attach(TenantId(0), &a, 16_384, None).unwrap();
            nic.attach(TenantId(1), &b, 16_384, None).unwrap();
            let mut frame = Vec::new();
            for p in packets(800) {
                frame.clear();
                sw.process_into(&p, &mut frame);
                nic.push_all(frame.drain(..)).unwrap();
            }
            frame.clear();
            sw.flush_into(&mut frame);
            nic.push_all(frame.drain(..)).unwrap();
            let outs = nic.finish().unwrap();
            assert_eq!(outs.len(), 2);
            let solo_a = solo_run(&a, 800);
            let solo_b = solo_run(&b, 800);
            assert_eq!(sorted(&outs[0].1.group_vectors), solo_a.group_vectors);
            assert_eq!(sorted(&outs[1].1.group_vectors), solo_b.group_vectors);
            assert_eq!(outs[0].1.stats.records, solo_a.stats.records);
            assert_eq!(outs[1].1.stats.records, solo_b.stats.records);
        }
    }

    #[test]
    fn detach_handshake_returns_output_and_isolates_survivor() {
        let a = host_sum();
        let b = flow_tcp();
        let mut sw = SharedSwitch::new();
        sw.attach(
            TenantId(0),
            a.switch.clone(),
            MgpvConfig::default(),
            CacheMode::Mgpv,
        );
        sw.attach(
            TenantId(1),
            b.switch.clone(),
            MgpvConfig::default(),
            CacheMode::Mgpv,
        );
        let mut nic = SharedStreamingNic::new(2);
        nic.attach(TenantId(0), &a, 16_384, None).unwrap();
        nic.attach(TenantId(1), &b, 16_384, None).unwrap();
        let mut frame = Vec::new();
        for (i, p) in packets(1000).enumerate() {
            if i == 500 {
                // Epoch: drain tenant 1 out of switch and NIC mid-stream.
                sw.detach_into(TenantId(1), &mut frame);
                nic.push_all(frame.drain(..)).unwrap();
                let gone = nic.detach(TenantId(1)).unwrap();
                assert!(gone.stats.records > 0);
            }
            frame.clear();
            sw.process_into(&p, &mut frame);
            nic.push_all(frame.drain(..)).unwrap();
        }
        frame.clear();
        sw.flush_into(&mut frame);
        nic.push_all(frame.drain(..)).unwrap();
        let outs = nic.finish().unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, TenantId(0));
        // The survivor is bit-identical to its solo run.
        let solo = solo_run(&a, 1000);
        assert_eq!(sorted(&outs[0].1.group_vectors), solo.group_vectors);
    }

    #[test]
    fn fused_unit_demuxes_members_bitwise() {
        for workers in [1usize, 3] {
            let a = host_sum();
            let mut sw = SharedSwitch::new();
            sw.attach(
                TenantId(0),
                a.switch.clone(),
                MgpvConfig::default(),
                CacheMode::Mgpv,
            );
            let mut nic = SharedStreamingNic::new(workers);
            nic.attach(TenantId(0), &a, 16_384, None).unwrap();
            nic.join(TenantId(0), TenantId(1), None).unwrap();
            nic.join(TenantId(0), TenantId(2), None).unwrap();
            let mut frame = Vec::new();
            for p in packets(800) {
                frame.clear();
                sw.process_into(&p, &mut frame);
                nic.push_all(frame.drain(..)).unwrap();
            }
            frame.clear();
            sw.flush_into(&mut frame);
            nic.push_all(frame.drain(..)).unwrap();
            let outs = nic.finish().unwrap();
            assert_eq!(outs.len(), 3);
            let solo = solo_run(&a, 800);
            for (id, out) in &outs {
                assert_eq!(
                    sorted(&out.group_vectors),
                    solo.group_vectors,
                    "member {id} diverged at {workers} workers"
                );
                assert_eq!(out.stats.records, solo.stats.records);
            }
        }
    }

    #[test]
    fn snapshot_detach_is_bitwise_solo_and_spares_survivors() {
        let a = host_sum();
        let mut sw = SharedSwitch::new();
        sw.attach(
            TenantId(0),
            a.switch.clone(),
            MgpvConfig::default(),
            CacheMode::Mgpv,
        );
        let mut nic = SharedStreamingNic::new(2);
        nic.attach(TenantId(0), &a, 16_384, None).unwrap();
        nic.join(TenantId(0), TenantId(1), None).unwrap();
        let mut frame = Vec::new();
        let mut gone = None;
        for (i, p) in packets(1000).enumerate() {
            if i == 500 {
                // Member detach: snapshot the switch partition (live state
                // untouched) and finalize member 1 against it.
                frame.clear();
                sw.snapshot_into(TenantId(0), &mut frame);
                let events: Vec<TaggedEvent> = std::mem::take(&mut frame);
                gone = Some(nic.snapshot_detach(TenantId(1), events).unwrap());
            }
            frame.clear();
            sw.process_into(&p, &mut frame);
            nic.push_all(frame.drain(..)).unwrap();
        }
        frame.clear();
        sw.flush_into(&mut frame);
        nic.push_all(frame.drain(..)).unwrap();
        let outs = nic.finish().unwrap();
        // The departed member equals a solo run over its window; the
        // survivor equals a solo run over the whole trace.
        let solo_half = solo_run(&a, 500);
        let solo_full = solo_run(&a, 1000);
        let gone = gone.unwrap();
        assert_eq!(sorted(&gone.group_vectors), solo_half.group_vectors);
        assert_eq!(sorted(&gone.packet_vectors), solo_half.packet_vectors);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, TenantId(0));
        assert_eq!(sorted(&outs[0].1.group_vectors), solo_full.group_vectors);
    }

    #[test]
    fn join_guards_stream_position_and_detach_kind() {
        let a = host_sum();
        let mut sw = SharedSwitch::new();
        sw.attach(
            TenantId(0),
            a.switch.clone(),
            MgpvConfig::default(),
            CacheMode::Mgpv,
        );
        let mut nic = SharedStreamingNic::new(2);
        nic.attach(TenantId(0), &a, 16_384, None).unwrap();
        nic.join(TenantId(0), TenantId(1), None).unwrap();
        // A shared member cannot take the draining detach path, and a sole
        // member cannot take the snapshot path.
        assert!(nic.detach(TenantId(1)).is_err());
        assert!(nic.snapshot_detach(TenantId(1), Vec::new()).is_ok());
        assert!(nic.snapshot_detach(TenantId(0), Vec::new()).is_err());
        // Once the unit has routed events, late joins are refused.
        let mut frame = Vec::new();
        for p in packets(50) {
            frame.clear();
            sw.process_into(&p, &mut frame);
            nic.push_all(frame.drain(..)).unwrap();
        }
        frame.clear();
        sw.flush_into(&mut frame);
        nic.push_all(frame.drain(..)).unwrap();
        assert!(nic.join(TenantId(0), TenantId(2), None).is_err());
        assert!(nic.join(TenantId(9), TenantId(3), None).is_err());
        nic.finish().unwrap();
    }

    #[test]
    fn prefix_group_units_match_their_solo_runs() {
        // Two tenants sharing one switch partition (same prefix: no
        // filter, groupby host) but running different reduce tails: each
        // unit's output must be bitwise identical to a solo run of its own
        // full policy.
        for workers in [1usize, 3] {
            let a = host_sum();
            let b = compiled("pktstream\n.groupby(host)\n.reduce(size, [f_max])\n.collect(host)");
            let mut sw = SharedSwitch::new();
            // One partition, attached under the group id (tenant 0).
            sw.attach(
                TenantId(0),
                a.switch.clone(),
                MgpvConfig::default(),
                CacheMode::Mgpv,
            );
            let mut nic = SharedStreamingNic::new(workers);
            nic.attach(TenantId(0), &a, 16_384, None).unwrap();
            nic.attach_to_group(TenantId(0), TenantId(1), &b, 16_384, None)
                .unwrap();
            let mut frame = Vec::new();
            for p in packets(800) {
                frame.clear();
                sw.process_into(&p, &mut frame);
                nic.push_all(frame.drain(..)).unwrap();
            }
            frame.clear();
            sw.flush_into(&mut frame);
            nic.push_all(frame.drain(..)).unwrap();
            let outs = nic.finish().unwrap();
            assert_eq!(outs.len(), 2);
            let solo_a = solo_run(&a, 800);
            let solo_b = solo_run(&b, 800);
            assert_eq!(sorted(&outs[0].1.group_vectors), solo_a.group_vectors);
            assert_eq!(sorted(&outs[1].1.group_vectors), solo_b.group_vectors);
            assert_eq!(outs[0].1.stats.records, solo_a.stats.records);
            assert_eq!(outs[1].1.stats.records, solo_b.stats.records);
        }
    }

    #[test]
    fn prefix_detach_is_bitwise_solo_and_spares_survivors() {
        let a = host_sum();
        let b = compiled("pktstream\n.groupby(host)\n.reduce(size, [f_max])\n.collect(host)");
        let mut sw = SharedSwitch::new();
        sw.attach(
            TenantId(0),
            a.switch.clone(),
            MgpvConfig::default(),
            CacheMode::Mgpv,
        );
        let mut nic = SharedStreamingNic::new(2);
        nic.attach(TenantId(0), &a, 16_384, None).unwrap();
        nic.attach_to_group(TenantId(0), TenantId(1), &b, 16_384, None)
            .unwrap();
        let mut frame = Vec::new();
        let mut gone = None;
        for (i, p) in packets(1000).enumerate() {
            if i == 500 {
                // The shared partition stays live for tenant 0; tenant 1
                // finalizes against the partition's snapshot flush.
                frame.clear();
                sw.snapshot_into(TenantId(0), &mut frame);
                let events: Vec<TaggedEvent> = std::mem::take(&mut frame);
                gone = Some(nic.prefix_detach(TenantId(1), events).unwrap());
            }
            frame.clear();
            sw.process_into(&p, &mut frame);
            nic.push_all(frame.drain(..)).unwrap();
        }
        frame.clear();
        sw.flush_into(&mut frame);
        nic.push_all(frame.drain(..)).unwrap();
        let outs = nic.finish().unwrap();
        let solo_half = solo_run(&b, 500);
        let solo_full = solo_run(&a, 1000);
        let gone = gone.unwrap();
        assert_eq!(sorted(&gone.group_vectors), solo_half.group_vectors);
        assert_eq!(sorted(&gone.packet_vectors), solo_half.packet_vectors);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, TenantId(0));
        assert_eq!(sorted(&outs[0].1.group_vectors), solo_full.group_vectors);
    }

    #[test]
    fn prefix_group_guards_position_and_detach_kind() {
        let a = host_sum();
        let b = compiled("pktstream\n.groupby(host)\n.reduce(size, [f_max])\n.collect(host)");
        let mut sw = SharedSwitch::new();
        sw.attach(
            TenantId(0),
            a.switch.clone(),
            MgpvConfig::default(),
            CacheMode::Mgpv,
        );
        let mut nic = SharedStreamingNic::new(2);
        nic.attach(TenantId(0), &a, 16_384, None).unwrap();
        // Unknown group, and duplicate members, are refused.
        assert!(nic
            .attach_to_group(TenantId(9), TenantId(1), &b, 16_384, None)
            .is_err());
        nic.attach_to_group(TenantId(0), TenantId(1), &b, 16_384, None)
            .unwrap();
        assert!(nic
            .attach_to_group(TenantId(0), TenantId(1), &b, 16_384, None)
            .is_err());
        // A partition-sharing unit cannot take the draining detach path; a
        // partition's sole consumer cannot take the prefix path.
        assert_eq!(
            nic.detach(TenantId(1)).unwrap_err(),
            NicError::Engine(
                "tenant t1 shares switch partition t0; detach it with a prefix detach".into()
            )
        );
        assert!(nic.prefix_detach(TenantId(1), Vec::new()).is_ok());
        assert!(nic.prefix_detach(TenantId(0), Vec::new()).is_err());
        // Once the group has routed events, late prefix shares are refused.
        let mut frame = Vec::new();
        for p in packets(50) {
            frame.clear();
            sw.process_into(&p, &mut frame);
            nic.push_all(frame.drain(..)).unwrap();
        }
        frame.clear();
        sw.flush_into(&mut frame);
        nic.push_all(frame.drain(..)).unwrap();
        assert!(nic
            .attach_to_group(TenantId(0), TenantId(2), &b, 16_384, None)
            .is_err());
        nic.finish().unwrap();
    }

    #[test]
    fn attach_rejects_duplicates_and_bad_sink_counts() {
        let a = host_sum();
        let mut nic = SharedStreamingNic::new(2);
        nic.attach(TenantId(7), &a, 16_384, None).unwrap();
        assert!(nic.attach(TenantId(7), &a, 16_384, None).is_err());
        assert!(nic
            .attach(TenantId(8), &a, 16_384, Some(Vec::new()))
            .is_err());
        assert!(nic.detach(TenantId(9)).is_err());
        assert!(nic.join(TenantId(7), TenantId(7), None).is_err());
        nic.finish().unwrap();
    }

    #[test]
    fn dump_restore_resumes_bitwise_identically() {
        // Run half the stream, dump every unit, rebuild a fresh executor
        // (replayed attach), restore the dumped state, run the rest: every
        // member's output must be bitwise what the uninterrupted run made.
        for workers in [1usize, 4] {
            let a = host_sum();
            let b = flow_tcp();
            let drive = |nic: &mut SharedStreamingNic,
                         sw: &mut SharedSwitch,
                         range: std::ops::Range<u64>,
                         flush: bool| {
                let mut frame = Vec::new();
                for p in packets(1000)
                    .skip(range.start as usize)
                    .take((range.end - range.start) as usize)
                {
                    frame.clear();
                    sw.process_into(&p, &mut frame);
                    nic.push_all(frame.drain(..)).unwrap();
                }
                if flush {
                    frame.clear();
                    sw.flush_into(&mut frame);
                    nic.push_all(frame.drain(..)).unwrap();
                }
            };
            let attach_both = |sw: &mut SharedSwitch, nic: &mut SharedStreamingNic| {
                sw.attach(
                    TenantId(0),
                    a.switch.clone(),
                    MgpvConfig::default(),
                    CacheMode::Mgpv,
                );
                sw.attach(
                    TenantId(1),
                    b.switch.clone(),
                    MgpvConfig::default(),
                    CacheMode::Mgpv,
                );
                nic.attach(TenantId(0), &a, 16_384, None).unwrap();
                nic.attach(TenantId(1), &b, 16_384, None).unwrap();
            };
            // Uninterrupted reference.
            let mut sw = SharedSwitch::new();
            let mut nic = SharedStreamingNic::new(workers);
            attach_both(&mut sw, &mut nic);
            drive(&mut nic, &mut sw, 0..1000, true);
            let full = nic.finish().unwrap();
            // Interrupted run: dump at the half-way cut...
            let mut sw1 = SharedSwitch::new();
            let mut nic1 = SharedStreamingNic::new(workers);
            attach_both(&mut sw1, &mut nic1);
            drive(&mut nic1, &mut sw1, 0..500, false);
            let dumps = nic1.dump_state().unwrap();
            let positions = nic1.group_positions();
            assert_eq!(dumps.len(), 2);
            assert!(dumps.iter().all(|d| d.shards.len() == workers));
            drop(nic1.finish().unwrap());
            // ...then rebuild structurally and refill the dumped state.
            // The switch side keeps running (sw1 still holds its state).
            let mut nic2 = SharedStreamingNic::new(workers);
            nic2.attach(TenantId(0), &a, 16_384, None).unwrap();
            nic2.attach(TenantId(1), &b, 16_384, None).unwrap();
            for d in dumps {
                nic2.restore_unit(d.unit, d.shards).unwrap();
            }
            for (g, n) in positions {
                assert!(nic2.set_group_position(g, n));
            }
            drive(&mut nic2, &mut sw1, 500..1000, true);
            let resumed = nic2.finish().unwrap();
            assert_eq!(full.len(), resumed.len());
            for ((t1, o1), (t2, o2)) in full.iter().zip(&resumed) {
                assert_eq!(t1, t2);
                assert_eq!(
                    o1.group_vectors, o2.group_vectors,
                    "tenant {t1} diverged at {workers} workers"
                );
                assert_eq!(o1.packet_vectors, o2.packet_vectors);
                assert_eq!(o1.stats.records, o2.stats.records);
                assert_eq!(o1.stats.vectors, o2.stats.vectors);
            }
        }
    }

    #[test]
    fn restore_guards_roster_and_shard_count() {
        let a = host_sum();
        let mut nic = SharedStreamingNic::new(2);
        nic.attach(TenantId(0), &a, 16_384, None).unwrap();
        let dumps = nic.dump_state().unwrap();
        let shards = dumps.into_iter().next().unwrap().shards;
        // Wrong unit id: the roster check rejects it.
        assert!(nic.restore_unit(TenantId(9), shards).is_err());
        // Wrong shard count.
        let dumps = nic.dump_state().unwrap();
        let mut shards = dumps.into_iter().next().unwrap().shards;
        shards.pop();
        assert!(nic.restore_unit(TenantId(0), shards).is_err());
        nic.finish().unwrap();
    }

    #[test]
    fn state_pressure_reports_populations() {
        let a = host_sum();
        let b = flow_tcp();
        let mut sw = SharedSwitch::new();
        sw.attach(
            TenantId(0),
            a.switch.clone(),
            MgpvConfig::default(),
            CacheMode::Mgpv,
        );
        sw.attach(
            TenantId(1),
            b.switch.clone(),
            MgpvConfig::default(),
            CacheMode::Mgpv,
        );
        let mut nic = SharedStreamingNic::new(2);
        nic.attach(TenantId(0), &a, 16_384, None).unwrap();
        nic.attach(TenantId(1), &b, 16_384, None).unwrap();
        let mut frame = Vec::new();
        for p in packets(600) {
            frame.clear();
            sw.process_into(&p, &mut frame);
            nic.push_all(frame.drain(..)).unwrap();
        }
        let pressure = nic.state_pressure().unwrap();
        assert_eq!(pressure.len(), 2);
        for p in &pressure {
            let total: usize = p.groups_per_level.iter().map(|(_, n)| n).sum();
            assert!(total > 0, "unit {} reports no resident groups", p.unit);
            // Default budgets are far above this workload: no evictions.
            assert_eq!(p.overflow_drops, 0);
            assert_eq!(p.evicted_groups, 0);
        }
        nic.finish().unwrap();
    }

    #[test]
    fn routed_counters_account_per_tenant() {
        let a = host_sum();
        let b = flow_tcp();
        let mut sw = SharedSwitch::new();
        sw.attach(
            TenantId(0),
            a.switch.clone(),
            MgpvConfig::default(),
            CacheMode::Mgpv,
        );
        sw.attach(
            TenantId(1),
            b.switch.clone(),
            MgpvConfig::default(),
            CacheMode::Mgpv,
        );
        let mut nic = SharedStreamingNic::new(2);
        nic.attach(TenantId(0), &a, 16_384, None).unwrap();
        nic.attach(TenantId(1), &b, 16_384, None).unwrap();
        let mut frame = Vec::new();
        for p in packets(600) {
            frame.clear();
            sw.process_into(&p, &mut frame);
            nic.push_all(frame.drain(..)).unwrap();
        }
        frame.clear();
        sw.flush_into(&mut frame);
        nic.push_all(frame.drain(..)).unwrap();
        let tenants = nic.tenants();
        assert_eq!(tenants.len(), 2);
        assert!(tenants.iter().all(|(_, n)| *n > 0));
        nic.finish().unwrap();
    }
}
