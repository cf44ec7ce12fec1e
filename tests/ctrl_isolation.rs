//! Keystone isolation differential for the multi-tenant control plane:
//! for random tenant subsets, random traces, and every worker count, each
//! tenant's feature vectors on the shared switch/NIC must be **bitwise
//! identical** to the same policy running alone on the sequential
//! [`superfe::SuperFe`] — including under mid-stream hot attach and detach
//! of *other* tenants. This is the executable form of the control plane's
//! isolation contract: tenancy is invisible in the output. The oracle
//! shares no code with the sharded runtime, so vectors are compared in
//! stable key-sorted order: the merge order depends on the worker count,
//! the order of each key's vectors does not.
//!
//! A second, deterministic differential extends the claim through the
//! serving layer: a tenant's alert stream alongside a noisy neighbor must
//! equal its alert stream running alone.

use proptest::prelude::*;

use superfe::ctrl::{CtrlPlane, TenantSpec};
use superfe::net::{Direction, PacketRecord};
use superfe::nic::FeatureVector;
use superfe::policy::dsl;
use superfe::{AnalyzeConfig, SuperFe, SuperFeConfig};

/// Worker counts every property must hold for.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The tenant candidate pool: distinct granularities, filters, collect
/// units, and a multi-granularity program (exercises the per-tenant FG
/// broadcast on the shared NIC). Any subset fits the default Tofino
/// budget.
const POOL: [&str; 4] = [
    "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
    "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_mean, f_max])\n.collect(flow)",
    "pktstream\n.groupby(socket)\n.reduce(size, [f_sum])\n.collect(socket)\n\
     .groupby(host)\n.reduce(size, [f_mean])\n.collect(host)",
    "pktstream\n.filter(udp.exist)\n.groupby(channel)\n.reduce(size, [f_min, f_max])\n.collect(pkt)",
];

/// One tenant's randomized lifecycle, as fractions of the trace length:
/// attach at `attach_pct`%, detach at `detach_pct`% when set.
#[derive(Clone, Copy, Debug)]
struct Lifecycle {
    pool_index: usize,
    attach_pct: u8,
    detach_pct: Option<u8>,
}

/// Random non-empty tenant subsets with per-tenant attach/detach epochs.
fn subset() -> impl Strategy<Value = Vec<Lifecycle>> {
    proptest::collection::vec(
        (0usize..POOL.len(), 0u8..50, proptest::bool::ANY, 55u8..100),
        1..4,
    )
    .prop_map(|picks| {
        let mut out: Vec<Lifecycle> = Vec::new();
        for (pool_index, attach_pct, detaches, detach_pct) in picks {
            // One tenant per pool policy: duplicates would be legal but
            // make the differential redundant.
            if out.iter().any(|l| l.pool_index == pool_index) {
                continue;
            }
            out.push(Lifecycle {
                pool_index,
                attach_pct,
                detach_pct: detaches.then_some(detach_pct),
            });
        }
        out
    })
}

/// Random short traces with mixed protocols, directions, and group keys.
fn trace() -> impl Strategy<Value = Vec<PacketRecord>> {
    proptest::collection::vec(
        (
            0u64..5_000_000u64,
            40u16..1500u16,
            1u32..6u32,
            1u16..4u16,
            1u32..3u32,
            prop_oneof![Just(53u16), Just(80u16), Just(443u16)],
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
        20..200,
    )
    .prop_map(|mut specs| {
        specs.sort_by_key(|s| s.0);
        specs
            .into_iter()
            .map(|(ts, size, sip, sport, dip, dport, is_tcp, egress)| {
                let mut p = if is_tcp {
                    PacketRecord::tcp(ts, size, sip, sport, dip, dport)
                } else {
                    PacketRecord::udp(ts, size, sip, sport, dip, dport)
                };
                if egress {
                    p.direction = Direction::Egress;
                }
                p
            })
            .collect()
    })
}

fn spec(pool_index: usize) -> TenantSpec {
    TenantSpec {
        name: format!("pool{pool_index}"),
        policy: dsl::parse(POOL[pool_index]).expect("pool policy is valid"),
        cfg: SuperFeConfig::default(),
    }
}

/// Key-sorted copy; the sort is stable, so each key keeps its vector order.
fn sorted(v: &[FeatureVector]) -> Vec<FeatureVector> {
    let mut v = v.to_vec();
    v.sort_by_cached_key(|f| format!("{:?}", f.key));
    v
}

/// Runs `spec` alone on the sequential pipeline over `l`'s attach..detach
/// window: key-sorted (group vectors, packet vectors).
fn sequential_run(
    spec: &TenantSpec,
    l: &Lifecycle,
    pkts: &[PacketRecord],
) -> (Vec<FeatureVector>, Vec<FeatureVector>) {
    let lo = l.attach_pct as usize * pkts.len() / 100;
    let hi = l
        .detach_pct
        .map_or(pkts.len(), |d| d as usize * pkts.len() / 100);
    let mut fe = SuperFe::with_config(&spec.policy, spec.cfg).expect("policy deploys");
    for p in &pkts[lo..hi] {
        fe.push(p);
    }
    let out = fe.finish();
    (sorted(&out.group_vectors), sorted(&out.packet_vectors))
}

/// Replays `tenants` against a fused control plane at every worker count
/// and checks each tenant's vectors bitwise against its sequential run.
fn assert_bitwise_solo(
    tenants: &[Lifecycle],
    pkts: &[PacketRecord],
) -> Result<(), proptest::test_runner::TestCaseError> {
    for &workers in &WORKER_COUNTS {
        let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
        let mut ids = vec![None; tenants.len()];
        let mut outputs: Vec<Option<superfe::nic::StreamOutput>> =
            (0..tenants.len()).map(|_| None).collect();
        for (i, p) in pkts.iter().enumerate() {
            for (ti, l) in tenants.iter().enumerate() {
                if l.attach_pct as usize * pkts.len() / 100 == i {
                    let id = plane
                        .attach(&spec(l.pool_index), None)
                        .expect("pool subsets are admissible");
                    ids[ti] = Some(id);
                }
                if l.detach_pct.map(|d| d as usize * pkts.len() / 100) == Some(i) {
                    let id = ids[ti].expect("detach window follows attach");
                    outputs[ti] = Some(plane.detach(id).expect("drain handshake"));
                }
            }
            plane.push(p).expect("workers alive");
        }
        for run in plane.finish().expect("workers alive") {
            let ti = ids
                .iter()
                .position(|id| *id == Some(run.id))
                .expect("run belongs to a scheduled tenant");
            outputs[ti] = Some(run.output);
        }
        for (ti, l) in tenants.iter().enumerate() {
            let out = outputs[ti].as_ref().expect("every tenant ran");
            let (solo_groups, solo_pkts) = sequential_run(&spec(l.pool_index), l, pkts);
            prop_assert_eq!(
                &sorted(&out.group_vectors),
                &solo_groups,
                "tenant {} group vectors diverged at {} workers",
                ti,
                workers
            );
            prop_assert_eq!(
                &sorted(&out.packet_vectors),
                &solo_pkts,
                "tenant {} packet vectors diverged at {} workers",
                ti,
                workers
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The isolation differential: every tenant of every random subset,
    /// under random hot attach/detach schedules, produces vectors bitwise
    /// equal to its solo run — at every worker count.
    #[test]
    fn shared_plane_is_bitwise_identical_to_solo(
        tenants in subset(),
        pkts in trace(),
    ) {
        assert_bitwise_solo(&tenants, &pkts)?;
    }
}

mod fusion_isolation {
    use super::*;

    /// Duplicate-friendly lifecycles: pool indices may repeat and attach
    /// points are quantized to two sites, so equivalent tenants land on
    /// the same epoch and **fuse** into one execution unit; random
    /// detaches of fused members exercise the snapshot handshake.
    fn fused_subset() -> impl Strategy<Value = Vec<Lifecycle>> {
        proptest::collection::vec(
            (
                0usize..POOL.len(),
                prop_oneof![Just(0u8), Just(30u8)],
                proptest::bool::ANY,
                55u8..100,
            ),
            2..5,
        )
        .prop_map(|picks| {
            picks
                .into_iter()
                .map(|(pool_index, attach_pct, detaches, detach_pct)| Lifecycle {
                    pool_index,
                    attach_pct,
                    detach_pct: detaches.then_some(detach_pct),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The same bitwise differential with SF07xx fusion actively
        /// engaged: duplicate policies share one plan through the demux
        /// fan-out and leave it mid-stream through snapshot detaches —
        /// every member must still match its solo run exactly, at every
        /// worker count.
        #[test]
        fn fused_plane_is_bitwise_identical_to_solo(
            tenants in fused_subset(),
            pkts in trace(),
        ) {
            assert_bitwise_solo(&tenants, &pkts)?;
        }
    }
}

mod prefix_isolation {
    use super::*;

    /// A pool whose members all share the parse → filter(tcp.exist) →
    /// groupby(flow) switch prefix but keep distinct reduce tails: none
    /// are SF07xx-equivalent, so co-attached members engage SF08xx prefix
    /// sharing (one switch partition, one execution unit each).
    const PREFIX_POOL: [&str; 4] = [
        "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)",
        "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_mean])\n.collect(flow)",
        "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_max])\n.collect(flow)",
        "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_min, f_max])\n\
         .collect(flow)",
    ];

    fn prefix_spec(pool_index: usize) -> TenantSpec {
        TenantSpec {
            name: format!("prefix{pool_index}"),
            policy: dsl::parse(PREFIX_POOL[pool_index]).expect("pool policy is valid"),
            cfg: SuperFeConfig::default(),
        }
    }

    /// Like [`assert_bitwise_solo`] but over the prefix pool, so
    /// co-attached tenants land on one shared partition and mid-stream
    /// detaches of shared-prefix members exercise the prefix-detach
    /// handshake.
    fn assert_prefix_bitwise_solo(
        tenants: &[Lifecycle],
        pkts: &[PacketRecord],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        for &workers in &WORKER_COUNTS {
            let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
            let mut ids = vec![None; tenants.len()];
            let mut outputs: Vec<Option<superfe::nic::StreamOutput>> =
                (0..tenants.len()).map(|_| None).collect();
            for (i, p) in pkts.iter().enumerate() {
                for (ti, l) in tenants.iter().enumerate() {
                    if l.attach_pct as usize * pkts.len() / 100 == i {
                        let id = plane
                            .attach(&prefix_spec(l.pool_index), None)
                            .expect("pool subsets are admissible");
                        ids[ti] = Some(id);
                    }
                    if l.detach_pct.map(|d| d as usize * pkts.len() / 100) == Some(i) {
                        let id = ids[ti].expect("detach window follows attach");
                        outputs[ti] = Some(plane.detach(id).expect("drain handshake"));
                    }
                }
                plane.push(p).expect("workers alive");
            }
            // Co-attached distinct tails must actually share partitions.
            prop_assert!(
                plane.groups().len() <= plane.units().len(),
                "groups cannot outnumber units"
            );
            for run in plane.finish().expect("workers alive") {
                let ti = ids
                    .iter()
                    .position(|id| *id == Some(run.id))
                    .expect("run belongs to a scheduled tenant");
                outputs[ti] = Some(run.output);
            }
            for (ti, l) in tenants.iter().enumerate() {
                let out = outputs[ti].as_ref().expect("every tenant ran");
                let (solo_groups, solo_pkts) = sequential_run(&prefix_spec(l.pool_index), l, pkts);
                prop_assert_eq!(
                    &sorted(&out.group_vectors),
                    &solo_groups,
                    "tenant {} group vectors diverged at {} workers",
                    ti,
                    workers
                );
                prop_assert_eq!(
                    &sorted(&out.packet_vectors),
                    &solo_pkts,
                    "tenant {} packet vectors diverged at {} workers",
                    ti,
                    workers
                );
            }
        }
        Ok(())
    }

    /// Shared-prefix lifecycles: distinct tails from the prefix pool with
    /// attach points quantized to two sites, so co-attached tenants hash
    /// to one partition; random detaches of shared-prefix members
    /// exercise the partition-sparing prefix detach.
    fn prefix_subset() -> impl Strategy<Value = Vec<Lifecycle>> {
        proptest::collection::vec(
            (
                0usize..PREFIX_POOL.len(),
                prop_oneof![Just(0u8), Just(30u8)],
                proptest::bool::ANY,
                55u8..100,
            ),
            2..5,
        )
        .prop_map(|picks| {
            let mut out: Vec<Lifecycle> = Vec::new();
            for (pool_index, attach_pct, detaches, detach_pct) in picks {
                if out.iter().any(|l| l.pool_index == pool_index) {
                    continue;
                }
                out.push(Lifecycle {
                    pool_index,
                    attach_pct,
                    detach_pct: detaches.then_some(detach_pct),
                });
            }
            out
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The same bitwise differential with SF08xx prefix sharing
        /// actively engaged: distinct reduce tails ride one switch
        /// partition and leave it mid-stream through prefix detaches —
        /// every tenant must still match its solo run exactly, at every
        /// worker count.
        #[test]
        fn prefix_shared_plane_is_bitwise_identical_to_solo(
            tenants in prefix_subset(),
            pkts in trace(),
        ) {
            assert_prefix_bitwise_solo(&tenants, &pkts)?;
        }
    }
}

mod alert_isolation {
    use superfe::ctrl::{CtrlPlane, TenantSpec};
    use superfe::detect::{inline_to_alerts, score_offline, Alert};
    use superfe::ml::{train_and_calibrate, CalibrationConfig, CentroidDetector, FrozenDetector};
    use superfe::net::PacketRecord;
    use superfe::nic::InlineStats;
    use superfe::policy::dsl;
    use superfe::switch::TenantId;
    use superfe::{AnalyzeConfig, SuperFe, SuperFeConfig};

    /// Per-packet flow statistics for the monitored tenant (dim 2).
    const MONITORED: &str =
        "pktstream\n.groupby(flow)\n.reduce(size, [f_mean, f_var])\n.collect(pkt)";
    /// The noisy neighbor: different granularity, heavy eviction churn.
    const NEIGHBOR: &str =
        "pktstream\n.groupby(host)\n.reduce(size, [f_sum, f_min, f_max])\n.collect(host)";

    fn detector() -> FrozenDetector {
        // Benign profile: flows of ~400 B packets, near-zero variance.
        let data: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![395.0 + f64::from(i % 11), f64::from(i % 7)])
            .collect();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        train_and_calibrate(
            Box::new(CentroidDetector::new(2).expect("dim 2")),
            &refs,
            0.2,
            CalibrationConfig::default(),
        )
        .expect("calibrates")
    }

    fn traffic() -> Vec<PacketRecord> {
        let mut pkts = Vec::new();
        for i in 0..800u64 {
            // Benign flows: steady 400-ish byte packets.
            pkts.push(PacketRecord::tcp(
                i * 900,
                398 + (i % 9) as u16,
                (i % 6 + 1) as u32,
                1000 + (i % 3) as u16,
                7,
                443,
            ));
            // The anomaly: one flow alternating tiny/huge packets — large
            // mean shift and variance, far from the benign profile.
            if i % 8 == 0 {
                pkts.push(PacketRecord::tcp(
                    i * 900 + 450,
                    if i % 16 == 0 { 40 } else { 1500 },
                    66,
                    6666,
                    7,
                    443,
                ));
            }
        }
        pkts
    }

    /// `(key, score bits, threshold bits)` per alert, in canonical order.
    fn fingerprint(alerts: &[Alert]) -> Vec<(String, u64, u64)> {
        alerts
            .iter()
            .map(|a| {
                (
                    format!("{:?}", a.key),
                    a.score.to_bits(),
                    a.threshold.to_bits(),
                )
            })
            .collect()
    }

    /// Serves the monitored tenant with an in-shard float scorer,
    /// optionally alongside the neighbor, and returns its canonical alert
    /// stream and scorer counters.
    fn serve(with_neighbor: bool, workers: usize) -> (Vec<Alert>, InlineStats) {
        let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
        let monitored = TenantSpec {
            name: "monitored".into(),
            policy: dsl::parse(MONITORED).expect("valid"),
            cfg: SuperFeConfig::default(),
        };
        let id = plane
            .attach(&monitored, Some(detector().into()))
            .expect("admitted");
        assert_eq!(id, TenantId(0));
        if with_neighbor {
            let neighbor = TenantSpec {
                name: "neighbor".into(),
                policy: dsl::parse(NEIGHBOR).expect("valid"),
                cfg: SuperFeConfig::default(),
            };
            plane.attach(&neighbor, None).expect("admitted");
        }
        for p in traffic() {
            plane.push(&p).expect("workers alive");
        }
        let run = plane
            .finish()
            .expect("workers alive")
            .into_iter()
            .find(|r| r.id == id)
            .expect("monitored tenant output");
        let stats = run.output.inline_stats.expect("scorer attached");
        (inline_to_alerts(&run.output.inline_alerts, "live"), stats)
    }

    /// Tenant A's alert stream, alone and alongside a noisy neighbor, must be
    /// bitwise that of the independent oracle — the policy on a sequential
    /// `SuperFe`, scored offline — at every worker count: scored count and
    /// every alert's key, score and threshold.
    #[test]
    fn alerts_unchanged_by_noisy_neighbor() {
        let mut fe = SuperFe::from_dsl(MONITORED).expect("valid");
        for p in traffic() {
            fe.push(&p);
        }
        let out = fe.finish();
        let oracle = score_offline(&detector(), &out.packet_vectors, &out.group_vectors, "live");
        assert!(
            !oracle.alerts.is_empty(),
            "the anomalous flow must trip the detector"
        );
        for workers in [1, 2, 4] {
            for with_neighbor in [false, true] {
                let (alerts, stats) = serve(with_neighbor, workers);
                assert_eq!(
                    stats.scored,
                    oracle.scores.len() as u64,
                    "scored count diverged at {workers} workers (neighbor: {with_neighbor})"
                );
                assert_eq!(
                    fingerprint(&alerts),
                    fingerprint(&oracle.alerts),
                    "alert stream diverged at {workers} workers (neighbor: {with_neighbor})"
                );
            }
        }
    }
}

/// Groups the NIC table budget finalizes early are tenant output too: on a
/// plane with a capped [`superfe::nic::TableBudget`], no tenant may lose
/// an evicted vector at any worker count, and at one shard every tenant's
/// evicted vectors — solo unit, fused member and snapshot-detached fused
/// member alike — must be bitwise those of the same policy on a sequential
/// `FeSwitch` + `FeNic` under the same budget.
mod budget_evictions {
    use superfe::ctrl::{CtrlPlane, TenantSpec};
    use superfe::net::PacketRecord;
    use superfe::nic::{EvictedVector, EvictionPolicy, FeNic, TableBudget};
    use superfe::policy::dsl;
    use superfe::switch::FeSwitch;
    use superfe::{AnalyzeConfig, SuperFeConfig};

    use super::POOL;

    fn budget() -> TableBudget {
        TableBudget::capped(4, EvictionPolicy::EvictOldest)
    }

    fn spec(name: &str, pool_index: usize) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            policy: dsl::parse(POOL[pool_index]).expect("pool policy is valid"),
            cfg: SuperFeConfig::default(),
        }
    }

    /// One packet per host, so both the host and the flow policy see more
    /// groups than the NIC's on-chip table holds without spilling: about
    /// one group in a hundred overflows to the capped DRAM tier. Host
    /// addresses are scrambled because the key hash is a CRC, which spreads
    /// consecutive addresses perfectly over the buckets.
    fn traffic() -> Vec<PacketRecord> {
        (0..20_000u32)
            .map(|i| {
                PacketRecord::tcp(
                    u64::from(i) * 2_000,
                    60 + (i % 50) as u16,
                    (i + 1).wrapping_mul(0x9E37_79B1),
                    1000 + (i % 5) as u16,
                    9,
                    80,
                )
            })
            .collect()
    }

    fn solo_evicted(spec: &TenantSpec, pkts: &[PacketRecord]) -> Vec<EvictedVector> {
        let compiled = superfe::gate(&spec.policy, &spec.cfg).expect("policy deploys");
        let mut switch =
            FeSwitch::with_config(compiled.switch.clone(), spec.cfg.cache, spec.cfg.mode)
                .expect("valid cache config");
        let mut nic = FeNic::with_budget(&compiled, spec.cfg.cache.fg_table_size, budget())
            .expect("valid table geometry");
        let mut frame = Vec::new();
        for p in pkts {
            switch.process_into(p, &mut frame);
        }
        switch.flush_into(&mut frame);
        for e in &frame {
            nic.handle(e);
        }
        nic.finish();
        nic.take_evicted()
    }

    #[test]
    fn capped_plane_keeps_every_tenants_evicted_vectors() {
        let specs = [spec("host", 0), spec("flow", 1), spec("flow-twin", 1)];
        let pkts = traffic();
        let detach_at = pkts.len() * 3 / 5;
        for workers in [1, 2, 4] {
            let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
            plane.set_table_budget(budget());
            let ids: Vec<_> = specs
                .iter()
                .map(|s| plane.attach(s, None).expect("admitted"))
                .collect();
            assert_eq!(plane.units().len(), 2, "the flow twins fuse into one unit");
            let mut outputs = [None, None, None];
            for (i, p) in pkts.iter().enumerate() {
                if i == detach_at {
                    // A fused member leaves through the snapshot handshake.
                    outputs[2] = Some(plane.detach(ids[2]).expect("snapshot detach"));
                }
                plane.push(p).expect("workers alive");
            }
            for run in plane.finish().expect("workers alive") {
                let ti = ids
                    .iter()
                    .position(|id| *id == run.id)
                    .expect("known tenant");
                outputs[ti] = Some(run.output);
            }
            for (ti, spec) in specs.iter().enumerate() {
                let out = outputs[ti].as_ref().expect("every tenant ran");
                assert!(
                    !out.evicted_vectors.is_empty(),
                    "tenant {} evicted nothing at {workers} workers; the budget is not binding",
                    spec.name
                );
                assert_eq!(
                    out.evicted_vectors.len() as u64,
                    out.stats.evicted_groups,
                    "tenant {} lost evicted vectors at {workers} workers",
                    spec.name
                );
                if workers == 1 {
                    // One shard is one table under the budget: bitwise solo.
                    let window = if ti == 2 {
                        &pkts[..detach_at]
                    } else {
                        &pkts[..]
                    };
                    assert_eq!(
                        out.evicted_vectors,
                        solo_evicted(spec, window),
                        "tenant {} evicted vectors diverged from the solo run",
                        spec.name
                    );
                }
            }
        }
    }
}
