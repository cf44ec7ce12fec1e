//! Workload inputs: traces generated from the seed, and the mirai detector.
//!
//! Everything here runs before any timed region. The program under test
//! only ever receives the generated packets.

use std::collections::HashSet;
use std::time::Instant;

use superfe_core::SuperFe;
use superfe_detect::DetectorKind;
use superfe_ml::{train_and_calibrate, CalibrationConfig, FrozenDetector};
use superfe_net::{Granularity, PacketRecord};
use superfe_trafficgen::intrusion::{self, IntrusionConfig, Scenario};
use superfe_trafficgen::{ScaleWorkload, Workload};

use crate::Kind;

/// Packets of the MAWI-IXP trace.
pub const MAWI_PACKETS: usize = 150_000;
/// Trace seconds the MAWI packets span (1.7k pps). Denser traces leave
/// the shared plane bound by per-packet table accesses, whose speed drifts
/// with the host by more than the benchmark's bound; see the README.
pub const MAWI_TRACE_S: f64 = 90.0;
/// Back-to-back Mirai scenario epochs in the served trace.
pub const MIRAI_EPOCHS: u64 = 10;
/// Trace seconds per Mirai epoch (the generator's fixed window).
pub const MIRAI_EPOCH_NS: u64 = 30_000_000_000;
/// Benign packets per served Mirai epoch.
pub const MIRAI_BENIGN: usize = 3_000;
/// Attack packets per served Mirai epoch.
pub const MIRAI_ATTACK: usize = 1_500;
/// Benign packets the detector is trained and calibrated on.
pub const MIRAI_TRAIN: usize = 6_000;
/// Background flows of the corpus workload.
pub const CORPUS_FLOWS: usize = 100_000;

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What identifies a replayed input: two runs with equal fingerprints
/// replayed the same packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Packets in the trace.
    pub packets: usize,
    /// Distinct flows (canonical 5-tuples).
    pub flows: usize,
    /// Trace time from first to last packet, nanoseconds.
    pub span_ns: u64,
    /// FNV-1a digest over every packet's fields.
    pub digest: u64,
}

impl Fingerprint {
    /// Fingerprints a trace.
    pub fn of(packets: &[PacketRecord]) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        let mut flows = HashSet::new();
        for p in packets {
            eat(&p.ts_ns.to_le_bytes());
            eat(&p.size.to_le_bytes());
            eat(&p.src_ip.to_le_bytes());
            eat(&p.dst_ip.to_le_bytes());
            eat(&p.src_port.to_le_bytes());
            eat(&p.dst_port.to_le_bytes());
            eat(&[
                p.proto.number(),
                p.tcp_flags,
                u8::from(p.direction == superfe_net::Direction::Egress),
            ]);
            flows.insert(Granularity::Flow.key_of(p));
        }
        let span_ns = match (packets.first(), packets.last()) {
            (Some(a), Some(b)) => b.ts_ns.saturating_sub(a.ts_ns),
            _ => 0,
        };
        Fingerprint {
            packets: packets.len(),
            flows: flows.len(),
            span_ns,
            digest: h,
        }
    }

    /// One printable line.
    pub fn line(&self, seed: u64) -> String {
        format!(
            "trace seed={seed} packets={} flows={} trace_s={:.3} fnv64={:016x}",
            self.packets,
            self.flows,
            self.span_ns as f64 * 1e-9,
            self.digest
        )
    }
}

/// The replayed packets of a workload, generated from `seed`.
pub fn trace(kind: Kind, seed: u64) -> Vec<PacketRecord> {
    match kind {
        Kind::MawiTenants => {
            Workload::mawi()
                .packets(MAWI_PACKETS)
                .duration_s(MAWI_TRACE_S)
                .seed(seed)
                .generate()
                .records
        }
        Kind::MiraiDetect => {
            let mut pkts = Vec::new();
            for epoch in 0..MIRAI_EPOCHS {
                let set = intrusion::generate(&IntrusionConfig {
                    scenario: Scenario::Mirai,
                    benign_packets: MIRAI_BENIGN,
                    attack_packets: MIRAI_ATTACK,
                    seed: mix(seed, epoch + 1),
                });
                let shift = epoch * MIRAI_EPOCH_NS;
                pkts.extend(set.labelled.into_iter().map(|(mut p, _)| {
                    p.ts_ns += shift;
                    p
                }));
            }
            // Benign flows may run past their epoch's window; keep the
            // concatenation time-sorted (stable, so ties keep their order).
            pkts.sort_by_key(|p| p.ts_ns);
            pkts
        }
        Kind::CorpusEvict => ScaleWorkload::flows(CORPUS_FLOWS)
            .seed(seed)
            .stream()
            .collect(),
    }
}

/// Seed of the detector's benign training trace and of KitNET's weights
/// (the training set of `bench detect`).
///
/// The detector is part of the deployment, like the policy: every seed
/// serves new traffic to the same certified model. Training on
/// seed-dependent traces would make the deployment itself vary, and SF09xx
/// rightly refuses to certify some of those models (the output-norm bound
/// exceeds the tolerance), so the workload would fail to deploy on some
/// seeds.
pub const DETECTOR_SEED: u64 = 1;

/// Trains KitNET on a benign Mirai trace and calibrates its threshold.
/// Returns the frozen detector and the training seconds.
pub fn train_detector() -> Result<(FrozenDetector, f64), String> {
    let t = Instant::now();
    let train = intrusion::generate(&IntrusionConfig {
        scenario: Scenario::Mirai,
        benign_packets: MIRAI_TRAIN,
        attack_packets: 0,
        seed: DETECTOR_SEED,
    });
    let mut fe = SuperFe::from_dsl(superfe_apps::policies::KITSUNE).map_err(|e| e.to_string())?;
    for (p, _) in &train.labelled {
        fe.push(p);
    }
    let vectors = fe.finish().packet_vectors;
    let Some(first) = vectors.first() else {
        return Err("training trace produced no feature vectors".into());
    };
    let dim = first.values.len();
    let refs: Vec<&[f64]> = vectors.iter().map(|v| v.values.as_slice()).collect();
    let det = DetectorKind::KitNet
        .build(dim, DETECTOR_SEED)
        .map_err(|e| e.to_string())?;
    let frozen = train_and_calibrate(det, &refs, 0.2, CalibrationConfig::default())
        .map_err(|e| e.to_string())?;
    Ok((frozen, t.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_a_function_of_the_packets() {
        let a = [
            PacketRecord::tcp(5, 100, 1, 2, 3, 4),
            PacketRecord::tcp(9, 100, 3, 4, 1, 2),
        ];
        let fa = Fingerprint::of(&a);
        assert_eq!(fa, Fingerprint::of(&a));
        assert_eq!((fa.packets, fa.flows, fa.span_ns), (2, 1, 4));
        let mut b = a;
        b[1].size = 101;
        assert_ne!(fa.digest, Fingerprint::of(&b).digest);
    }

    #[test]
    fn sub_seeds_differ() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 1), mix(2, 1));
    }
}
