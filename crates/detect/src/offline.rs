//! Offline batch scoring — the reference semantics the in-shard scorers
//! are differentially tested against.

use std::collections::HashMap;

use superfe_ml::FrozenDetector;
use superfe_net::GroupKey;
use superfe_nic::{canonicalize, FeatureVector, Scorer};

use crate::alert::{Alert, ScoredVector};

/// Result of scoring an extraction offline.
#[derive(Debug)]
pub struct OfflineScores {
    /// Every score in canonical order (key, then per-key position).
    pub scores: Vec<ScoredVector>,
    /// Alerts in canonical order.
    pub alerts: Vec<Alert>,
    /// Vectors rejected with a dimension mismatch (skipped, as in-shard).
    pub dim_errors: u64,
}

/// Scores a batch extraction with a frozen float detector, producing the
/// same canonical score/alert streams an in-shard float scorer emits for
/// the same input.
///
/// `packet_vectors` must precede `group_vectors` (matching the in-shard
/// egress order: per-packet vectors are scored as frames drain, per-group
/// vectors at end of stream). The `(shard, seq)` tags are synthetic —
/// shard 0, per-key occurrence index — since only the *per-key order* is
/// part of the cross-path contract.
pub fn score_offline(
    det: &FrozenDetector,
    packet_vectors: &[FeatureVector],
    group_vectors: &[FeatureVector],
    scenario: &str,
) -> OfflineScores {
    score_with(
        &Scorer::Float(det.clone()),
        packet_vectors,
        group_vectors,
        scenario,
    )
}

/// The scoring loop behind [`score_offline`] and
/// [`crate::score_offline_quantized`], for either back-end.
pub(crate) fn score_with(
    model: &Scorer,
    packet_vectors: &[FeatureVector],
    group_vectors: &[FeatureVector],
    scenario: &str,
) -> OfflineScores {
    let mut out = OfflineScores {
        scores: Vec::with_capacity(packet_vectors.len() + group_vectors.len()),
        alerts: Vec::new(),
        dim_errors: 0,
    };
    let mut occurrence: HashMap<GroupKey, u64> = HashMap::new();
    for v in packet_vectors.iter().chain(group_vectors) {
        let Ok(score) = model.score(v.values.as_slice()) else {
            out.dim_errors += 1;
            continue;
        };
        let seq = occurrence.entry(v.key).or_insert(0);
        out.scores.push(ScoredVector {
            key: v.key,
            shard: 0,
            seq: *seq,
            score,
        });
        if model.is_alert(score) {
            out.alerts.push(Alert {
                scenario: scenario.to_string(),
                key: v.key,
                score,
                threshold: model.threshold(),
                shard: 0,
                seq: *seq,
            });
        }
        *seq += 1;
    }
    canonicalize(&mut out.scores, |s| (s.key, s.seq));
    canonicalize(&mut out.alerts, |a| (a.key, a.seq));
    out
}
