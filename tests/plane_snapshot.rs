//! Differential tests for live control-plane snapshot/restore: a plane
//! snapshotted mid-stream and restored into a fresh process-equivalent
//! plane must produce **bitwise-identical** remaining output — across
//! worker counts, with SF07xx fusion and SF08xx prefix sharing engaged,
//! after detach of a fused unit's founder, and under bounded-state
//! eviction churn with epoch markers in flight. Snapshot decoding is total:
//! arbitrary or damaged bytes are refused with an error, never a panic.

use proptest::prelude::*;

use superfe::ctrl::{CtrlPlane, TenantSpec};
use superfe::net::PacketRecord;
use superfe::nic::StreamOutput;
use superfe::policy::dsl;
use superfe::switch::CgEvictPolicy;
use superfe::{AnalyzeConfig, SuperFeConfig};

/// Worker counts the snapshot differential must hold for.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn spec(name: &str, src: &str) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        policy: dsl::parse(src).expect("pool policy is valid"),
        cfg: SuperFeConfig::default(),
    }
}

fn host_sum() -> TenantSpec {
    spec(
        "host-sum",
        "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
    )
}

/// Same program as [`host_sum`] under another name — fuses with it.
fn host_sum_b() -> TenantSpec {
    spec(
        "host-sum-b",
        "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
    )
}

/// Shares the `groupby(host)` switch prefix with [`host_sum`] but keeps a
/// distinct reduce tail — prefix-shares, never fuses.
fn host_max() -> TenantSpec {
    spec(
        "host-max",
        "pktstream\n.groupby(host)\n.reduce(size, [f_max])\n.collect(host)",
    )
}

fn flow_stats() -> TenantSpec {
    spec(
        "flow-stats",
        "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_mean, f_max])\n\
         .collect(flow)",
    )
}

fn packets(n: u64) -> Vec<PacketRecord> {
    (0..n)
        .map(|i| {
            if i % 5 == 0 {
                PacketRecord::udp(i * 700, 90, (i % 13 + 1) as u32, 53, 4, 53)
            } else {
                PacketRecord::tcp(
                    i * 700,
                    400 + (i % 37) as u16,
                    (i % 13 + 1) as u32,
                    1500,
                    4,
                    443,
                )
            }
        })
        .collect()
}

/// Attaches every spec, pushes `pkts`, and returns each tenant's final
/// output keyed by name.
fn run_uninterrupted(
    specs: &[TenantSpec],
    pkts: &[PacketRecord],
    workers: usize,
) -> Vec<(String, StreamOutput)> {
    let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
    for s in specs {
        plane.attach(s, None).expect("admitted");
    }
    for p in pkts {
        plane.push(p).expect("workers alive");
    }
    plane
        .finish()
        .expect("workers alive")
        .into_iter()
        .map(|r| (r.name, r.output))
        .collect()
}

/// Same schedule, but snapshots at `split`, abandons the original plane,
/// restores a fresh one from the bytes, and serves the remainder there.
fn run_restored(
    specs: &[TenantSpec],
    pkts: &[PacketRecord],
    split: usize,
    workers: usize,
) -> Vec<(String, StreamOutput)> {
    let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
    for s in specs {
        plane.attach(s, None).expect("admitted");
    }
    for p in &pkts[..split] {
        plane.push(p).expect("workers alive");
    }
    let bytes = plane.snapshot().expect("snapshot");
    // The snapshotted plane is abandoned (the crash it models); drain it
    // so its worker threads exit cleanly.
    plane.finish().expect("workers alive");
    let mut restored =
        CtrlPlane::restore(AnalyzeConfig::default(), specs, &bytes).expect("restore");
    assert_eq!(restored.tenants().len(), specs.len());
    for p in &pkts[split..] {
        restored.push(p).expect("workers alive");
    }
    restored
        .finish()
        .expect("workers alive")
        .into_iter()
        .map(|r| (r.name, r.output))
        .collect()
}

fn assert_outputs_bitwise(
    full: &[(String, StreamOutput)],
    resumed: &[(String, StreamOutput)],
    workers: usize,
) {
    assert_eq!(
        full.len(),
        resumed.len(),
        "tenant count at {workers} workers"
    );
    for (name, out) in full {
        let (_, res) = resumed
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("tenant {name} missing after restore"));
        assert_eq!(
            out.group_vectors, res.group_vectors,
            "{name} group vectors diverged at {workers} workers"
        );
        assert_eq!(
            out.packet_vectors, res.packet_vectors,
            "{name} packet vectors diverged at {workers} workers"
        );
        assert_eq!(
            out.stats.records, res.stats.records,
            "{name} record count diverged at {workers} workers"
        );
        assert_eq!(
            out.stats.vectors, res.stats.vectors,
            "{name} vector count diverged at {workers} workers"
        );
    }
}

/// The headline differential: a plane serving a fused pair, a
/// prefix-shared tenant, and an independent tenant is snapshotted
/// mid-stream; the restored plane's remaining output is bitwise the
/// uninterrupted run's — at every worker count.
#[test]
fn restore_mid_stream_is_bitwise_identical() {
    let specs = [host_sum(), host_sum_b(), host_max(), flow_stats()];
    let pkts = packets(1200);
    for &workers in &WORKER_COUNTS {
        let full = run_uninterrupted(&specs, &pkts, workers);
        let resumed = run_restored(&specs, &pkts, 600, workers);
        assert_outputs_bitwise(&full, &resumed, workers);
    }
}

/// Restore after the fused unit's *founder* detached: the surviving
/// member keeps running under the founder's unit id; restore re-seats the
/// unit onto the survivor and the remaining output stays bitwise.
#[test]
fn restore_after_founder_detach_of_fused_unit() {
    let specs = [host_sum(), host_sum_b()];
    let pkts = packets(1200);
    for &workers in &[1usize, 4] {
        // Reference: attach both, detach the founder at 300, run through.
        let mut reference = CtrlPlane::new(workers, AnalyzeConfig::default());
        let a = reference.attach(&specs[0], None).expect("admitted");
        reference.attach(&specs[1], None).expect("admitted");
        for p in &pkts[..300] {
            reference.push(p).expect("workers alive");
        }
        let ref_gone = reference.detach(a).expect("drain handshake");
        for p in &pkts[300..] {
            reference.push(p).expect("workers alive");
        }
        let full: Vec<_> = reference
            .finish()
            .expect("workers alive")
            .into_iter()
            .map(|r| (r.name, r.output))
            .collect();

        // Same schedule, snapshotted at 600 — after the founder left.
        let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
        let a = plane.attach(&specs[0], None).expect("admitted");
        plane.attach(&specs[1], None).expect("admitted");
        for p in &pkts[..300] {
            plane.push(p).expect("workers alive");
        }
        let gone = plane.detach(a).expect("drain handshake");
        for p in &pkts[300..600] {
            plane.push(p).expect("workers alive");
        }
        let bytes = plane.snapshot().expect("snapshot");
        plane.finish().expect("workers alive");
        // Only the survivor's spec is needed — the founder is gone.
        let mut restored =
            CtrlPlane::restore(AnalyzeConfig::default(), &specs[1..], &bytes).expect("restore");
        for p in &pkts[600..] {
            restored.push(p).expect("workers alive");
        }
        let resumed: Vec<_> = restored
            .finish()
            .expect("workers alive")
            .into_iter()
            .map(|r| (r.name, r.output))
            .collect();

        assert_eq!(
            gone.group_vectors, ref_gone.group_vectors,
            "founder's detach output must not depend on the later snapshot"
        );
        assert_outputs_bitwise(&full, &resumed, workers);
    }
}

/// Bounded state + epoch churn: a tenant under an aggressive random-way
/// cache budget (constant CG eviction churn) rides out a mid-stream
/// detach of its neighbor (epoch marker in flight between evictions) and
/// a later snapshot/restore — both tenants stay bitwise.
#[test]
fn restore_under_bounded_state_churn_and_epoch_markers() {
    let mut churn = spec(
        "churny",
        "pktstream\n.groupby(host)\n.reduce(size, [f_sum, f_max])\n.collect(host)",
    );
    churn.cfg.cache.short_count = 64;
    churn.cfg.cache.short_size = 2;
    churn.cfg.cache.aging_t_ns = Some(50_000);
    churn.cfg.cache.policy = CgEvictPolicy::RandomWay { ways: 4, seed: 9 };
    let neighbor = flow_stats();
    let pkts = packets(1000);

    for &workers in &[1usize, 2, 8] {
        let drive = |snapshot_at: Option<usize>| -> (StreamOutput, Vec<(String, StreamOutput)>) {
            let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
            let c = plane.attach(&churn, None).expect("admitted");
            let n = plane.attach(&neighbor, None).expect("admitted");
            assert!(c != n);
            for p in &pkts[..400] {
                plane.push(p).expect("workers alive");
            }
            // Epoch marker between evictions: the churny tenant's cache is
            // evicting on nearly every insert while this detach drains.
            let gone = plane.detach(n).expect("drain handshake");
            for p in &pkts[400..600] {
                plane.push(p).expect("workers alive");
            }
            let mut plane = match snapshot_at {
                Some(_) => {
                    let bytes = plane.snapshot().expect("snapshot");
                    plane.finish().expect("workers alive");
                    CtrlPlane::restore(
                        AnalyzeConfig::default(),
                        std::slice::from_ref(&churn),
                        &bytes,
                    )
                    .expect("restore")
                }
                None => plane,
            };
            for p in &pkts[600..] {
                plane.push(p).expect("workers alive");
            }
            let outs = plane
                .finish()
                .expect("workers alive")
                .into_iter()
                .map(|r| (r.name, r.output))
                .collect();
            (gone, outs)
        };
        let (ref_gone, full) = drive(None);
        let (gone, resumed) = drive(Some(600));
        assert!(
            ref_gone.stats.records > 0,
            "neighbor saw records before its detach"
        );
        assert_eq!(gone.group_vectors, ref_gone.group_vectors);
        assert_outputs_bitwise(&full, &resumed, workers);
    }
}

/// Corrupt, truncated, or mismatched snapshots are refused — and a spec
/// set that doesn't match the saved topology is named in the error.
#[test]
fn restore_rejects_bad_bytes_and_wrong_specs() {
    let specs = [host_sum()];
    let pkts = packets(200);
    let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
    plane.attach(&specs[0], None).expect("admitted");
    for p in &pkts {
        plane.push(p).expect("workers alive");
    }
    let bytes = plane.snapshot().expect("snapshot");
    plane.finish().expect("workers alive");

    assert!(CtrlPlane::restore(AnalyzeConfig::default(), &specs, b"junk").is_err());
    assert!(
        CtrlPlane::restore(AnalyzeConfig::default(), &specs, &bytes[..bytes.len() / 2]).is_err(),
        "truncated snapshot must be refused"
    );
    // Same tenant name, different program: the canonical-hash check
    // refuses the swap instead of silently diverging.
    let mut wrong = flow_stats();
    wrong.name = "host-sum".into();
    assert!(
        CtrlPlane::restore(AnalyzeConfig::default(), &[wrong], &bytes).is_err(),
        "hash-mismatched spec must be refused"
    );
    // And the happy path still works with the right spec.
    let restored = CtrlPlane::restore(AnalyzeConfig::default(), &specs, &bytes).expect("restore");
    assert_eq!(restored.tenants().len(), 1);
    assert_eq!(restored.workers(), 2);
    restored.finish().expect("workers alive");
}

/// Snapshot bytes of a small two-tenant plane (a fused pair) at 2 workers,
/// taken mid-stream.
fn real_snapshot() -> (Vec<TenantSpec>, Vec<u8>) {
    let specs = vec![host_sum(), host_sum_b(), flow_stats()];
    let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
    for s in &specs {
        plane.attach(s, None).expect("admitted");
    }
    for p in &packets(150) {
        plane.push(p).expect("workers alive");
    }
    let bytes = plane.snapshot().expect("snapshot");
    plane.finish().expect("workers alive");
    (specs, bytes)
}

/// Restores `bytes`, draining any plane that comes back so its workers
/// exit. Panics propagate and fail the property.
fn restore_is_err(specs: &[TenantSpec], bytes: &[u8]) -> bool {
    match CtrlPlane::restore(AnalyzeConfig::default(), specs, bytes) {
        Ok(plane) => {
            let _ = plane.finish();
            false
        }
        Err(_) => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes — raw, or behind a valid magic and version header —
    /// are refused.
    #[test]
    fn restore_refuses_random_bytes(
        bytes in proptest::collection::vec(0u8..=255u8, 0..512),
        with_header in proptest::bool::ANY,
    ) {
        let (specs, real) = real_snapshot_cached();
        // The header is the magic's length prefix, the magic and the
        // version: the first 10 bytes of every snapshot.
        let input = if with_header {
            let mut v = real[..10].to_vec();
            v.extend_from_slice(&bytes);
            v
        } else {
            bytes
        };
        prop_assert!(restore_is_err(specs, &input));
    }

    /// A real snapshot cut short, or with bytes appended, is refused; with
    /// bytes overwritten it decodes to an error or to a plane, never a
    /// panic. (SFSN carries no checksum, so an overwritten accumulator can
    /// be a well-formed snapshot of a different state.)
    #[test]
    fn restore_survives_damaged_snapshots(
        cut in 0usize..1 << 20,
        tail in proptest::collection::vec(0u8..=255u8, 1..16),
        flips in proptest::collection::vec(
            (0usize..1 << 20, 1u8..=255u8),
            1..4,
        ),
    ) {
        let (specs, real) = real_snapshot_cached();
        let truncated = &real[..cut % real.len()];
        prop_assert!(restore_is_err(specs, truncated));
        let mut extended = real.clone();
        extended.extend_from_slice(&tail);
        prop_assert!(restore_is_err(specs, &extended));
        let mut mutated = real.clone();
        for (at, x) in flips {
            let i = at % mutated.len();
            mutated[i] ^= x;
        }
        restore_is_err(specs, &mutated);
    }
}

/// [`real_snapshot`], built once per test process.
fn real_snapshot_cached() -> &'static (Vec<TenantSpec>, Vec<u8>) {
    static SNAPSHOT: std::sync::OnceLock<(Vec<TenantSpec>, Vec<u8>)> = std::sync::OnceLock::new();
    SNAPSHOT.get_or_init(real_snapshot)
}
