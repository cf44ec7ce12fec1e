//! The in-pipeline quantized inference path: offline reference scoring,
//! alert-stream conversion, and the report section.
//!
//! A fixed-point [`QuantizedDetector`] is the quantized back-end of the
//! in-shard [`superfe_nic::Scorer`]
//! ([`superfe_core::StreamingPipeline::with_inference`]), so only alerts
//! leave the extraction pipeline. This module supplies the pieces around
//! that stage:
//!
//! - [`score_offline_quantized`]: batch scoring with the quantized model
//!   under the same canonical `(key, per-key position)` semantics as
//!   [`crate::score_offline`] — the reference the in-pipeline stage is
//!   differentially tested against;
//! - [`inline_to_alerts`]: lifts the NIC's [`InlineAlert`]s into the typed
//!   [`Alert`] stream (canonical order, scenario stamped);
//! - [`max_score_delta`]: the measured float-vs-quantized score divergence,
//!   which the SF0901 certificate upper-bounds;
//! - [`QuantizedSection`]: the report section `superfe detect
//!   --in-pipeline` and `bench detect` attach to their output.

use std::sync::Arc;

use superfe_ml::{FrozenDetector, QuantizedDetector};
use superfe_nic::{canonicalize, FeatureVector, InlineAlert, Scorer};

use crate::alert::Alert;
use crate::offline::{score_with, OfflineScores};

/// Scores a batch extraction with a fixed-point model, producing canonical
/// score/alert streams bitwise-comparable with the in-pipeline stage's
/// output for the same vectors.
///
/// `packet_vectors` must precede `group_vectors` (the in-pipeline egress
/// order); `(shard, seq)` tags are synthetic per-key occurrence indices, as
/// in [`crate::score_offline`].
pub fn score_offline_quantized(
    model: &QuantizedDetector,
    packet_vectors: &[FeatureVector],
    group_vectors: &[FeatureVector],
    scenario: &str,
) -> OfflineScores {
    score_with(
        &Scorer::Quantized(Arc::new(model.clone())),
        packet_vectors,
        group_vectors,
        scenario,
    )
}

/// Lifts the NIC's in-shard alerts into the typed [`Alert`] stream, in
/// canonical order with the scenario label stamped.
pub fn inline_to_alerts(inline: &[InlineAlert], scenario: &str) -> Vec<Alert> {
    let mut alerts: Vec<Alert> = inline
        .iter()
        .map(|a| Alert {
            scenario: scenario.to_string(),
            key: a.key,
            score: a.score,
            threshold: a.threshold,
            shard: a.shard,
            seq: a.seq,
        })
        .collect();
    canonicalize(&mut alerts, |a| (a.key, a.seq));
    alerts
}

/// The measured maximum |float − quantized| score divergence over a vector
/// set. The SF0901 certificate proves an upper bound on this figure over
/// the policy's whole feature hull; the measurement checks the bound on the
/// vectors actually served. Vectors either model rejects (dimension
/// mismatch) are skipped.
pub fn max_score_delta<'a>(
    float: &FrozenDetector,
    quant: &QuantizedDetector,
    vectors: impl IntoIterator<Item = &'a FeatureVector>,
) -> f64 {
    let mut max = 0.0f64;
    for v in vectors {
        let (Ok(f), Ok(q)) = (
            float.score(v.values.as_slice()),
            quant.score(v.values.as_slice()),
        ) else {
            continue;
        };
        max = max.max((f - q).abs());
    }
    max
}

/// The quantized-inference section of a detect report: what model ran
/// in-pipeline, what the SF09xx pass certified, and how far the fixed-point
/// scores actually strayed from float.
#[derive(Clone, Debug)]
pub struct QuantizedSection {
    /// Fixed-point format of the lowering (e.g. `"Q39.24"`).
    pub format: String,
    /// Whether SF0901 certification held (error bound within tolerance).
    pub certified: bool,
    /// The certified worst-case |float − quantized| score error bound over
    /// the policy's feature hull (infinite when unprovable).
    pub bound: f64,
    /// Culprit layer when the bound exceeded tolerance or was unprovable.
    pub culprit: Option<String>,
    /// Integer ALU ops the model executes per scored vector.
    pub alu_ops: u64,
    /// Grid-snapped alert threshold of the quantized model.
    pub threshold: f64,
    /// Vectors scored by the in-pipeline stage.
    pub scored: u64,
    /// Alerts the in-pipeline stage raised.
    pub alerts: u64,
    /// Vectors skipped on dimension mismatch.
    pub dim_errors: u64,
    /// Measured max |float − quantized| over the served vectors — must sit
    /// under `bound` whenever `certified` (and whenever the bound is
    /// finite).
    pub score_delta_max: f64,
}

impl QuantizedSection {
    /// Whether the measured divergence respects the certified bound (an
    /// infinite bound is trivially respected; the point of SF0902 is that
    /// nothing is *promised*).
    pub fn delta_within_bound(&self) -> bool {
        self.score_delta_max <= self.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_ml::{
        quantize, train_and_calibrate, CalibrationConfig, CentroidDetector, QuantConfig,
    };
    use superfe_net::GroupKey;
    use superfe_streaming::FeatureValues;

    fn vector(host: u32, vals: &[f64]) -> FeatureVector {
        let mut values = FeatureValues::new();
        for &v in vals {
            values.push(v);
        }
        FeatureVector {
            key: GroupKey::Host(host),
            values,
        }
    }

    fn models(dim: usize) -> (FrozenDetector, QuantizedDetector) {
        let data: Vec<Vec<f64>> = (0..64)
            .map(|i| (0..dim).map(|d| 3.0 + ((i + d) % 5) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let frozen = train_and_calibrate(
            Box::new(CentroidDetector::new(dim).unwrap()),
            &refs,
            0.2,
            CalibrationConfig::default(),
        )
        .unwrap();
        let quant = quantize(&frozen, &QuantConfig::default()).unwrap();
        (frozen, quant)
    }

    #[test]
    fn offline_quantized_matches_inline_semantics() {
        let (_, quant) = models(2);
        let pkts = vec![
            vector(1, &[3.0, 4.0]),
            vector(2, &[-9.0, -1.0]),
            vector(1, &[4.0, 3.0]),
        ];
        let out = score_offline_quantized(&quant, &pkts, &[], "q");
        assert_eq!(out.scores.len(), 3);
        assert_eq!(out.dim_errors, 0);
        // The hostile vector (opposed direction) alerts; benign ones don't.
        assert_eq!(out.alerts.len(), 1);
        assert_eq!(out.alerts[0].key, GroupKey::Host(2));
        // Scores are the exact rationals score_q / 2^fa.
        for s in &out.scores {
            let q = quant.score_q(&[3.0, 4.0]);
            assert!(q.is_ok() || s.score >= 0.0);
        }
    }

    #[test]
    fn inline_alerts_lift_to_canonical_typed_alerts() {
        let inline = vec![
            InlineAlert {
                shard: 1,
                seq: 4,
                key: GroupKey::Host(9),
                score: 1.5,
                threshold: 0.5,
            },
            InlineAlert {
                shard: 0,
                seq: 0,
                key: GroupKey::Host(2),
                score: 1.25,
                threshold: 0.5,
            },
        ];
        let alerts = inline_to_alerts(&inline, "run");
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].key, GroupKey::Host(2));
        assert_eq!(alerts[1].key, GroupKey::Host(9));
        assert!(alerts.iter().all(|a| a.scenario == "run"));
    }

    #[test]
    fn measured_delta_respects_certified_bound() {
        let (frozen, quant) = models(3);
        let vectors: Vec<FeatureVector> = (0..50)
            .map(|i| {
                vector(
                    i,
                    &[
                        1.0 + f64::from(i),
                        8.0 - f64::from(i % 7),
                        f64::from(i % 11),
                    ],
                )
            })
            .collect();
        let delta = max_score_delta(&frozen, &quant, &vectors);
        // A hull bounded away from zero in the first two coordinates keeps
        // the input-norm lower bound positive (provable for centroid).
        let bound = quant
            .error_bound(&[(1.0, 64.0), (1.0, 64.0), (0.0, 16.0)])
            .unwrap();
        assert!(bound.bound.is_finite());
        assert!(
            delta <= bound.bound,
            "measured {delta} exceeds certified {}",
            bound.bound
        );
        // Mismatched vectors are skipped, not fatal.
        let with_bad = vec![vector(0, &[1.0])];
        assert_eq!(max_score_delta(&frozen, &quant, &with_bad), 0.0);
    }
}
