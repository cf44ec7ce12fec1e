//! In-shard inference: scoring finalized feature vectors inside the worker
//! shards, before egress.
//!
//! Every finalized vector is scored right where it is computed, and only
//! *alerts* leave the pipeline. The model is a [`Scorer`] with two
//! back-ends: a float [`FrozenDetector`] (any trained model, k-NN
//! included) or a fixed-point [`QuantizedDetector`] compiled and certified
//! by the SF09xx pass.
//!
//! Determinism: scoring is pure (the quantized back-end is pure integer
//! arithmetic), every group key lives on exactly one shard, and each alert
//! carries the shard's `(key, seq)` stream position, so the alert sequence
//! per key is bitwise identical at every worker count.

use std::sync::Arc;

use superfe_ml::{FrozenDetector, MlError, QuantizedDetector};
use superfe_net::GroupKey;

use crate::engine::FeatureVector;

/// The model an in-shard inference stage runs.
#[derive(Clone)]
pub enum Scorer {
    /// A trained, calibrated float detector.
    Float(FrozenDetector),
    /// A fixed-point detector lowered by the SF09xx pass.
    Quantized(Arc<QuantizedDetector>),
}

impl Scorer {
    /// Scores one vector (pure).
    pub fn score(&self, x: &[f64]) -> Result<f64, MlError> {
        match self {
            Scorer::Float(d) => d.score(x),
            Scorer::Quantized(q) => q.score(x),
        }
    }

    /// Whether a score crosses the alert threshold (strictly above).
    pub fn is_alert(&self, score: f64) -> bool {
        match self {
            Scorer::Float(d) => d.is_alert(score),
            Scorer::Quantized(q) => q.is_alert(score),
        }
    }

    /// The alert threshold in force (grid-snapped for the quantized
    /// back-end).
    pub fn threshold(&self) -> f64 {
        match self {
            Scorer::Float(d) => d.threshold(),
            Scorer::Quantized(q) => q.threshold(),
        }
    }
}

impl From<FrozenDetector> for Scorer {
    fn from(d: FrozenDetector) -> Self {
        Scorer::Float(d)
    }
}

impl From<Arc<QuantizedDetector>> for Scorer {
    fn from(q: Arc<QuantizedDetector>) -> Self {
        Scorer::Quantized(q)
    }
}

/// One alert raised by the in-shard inference stage.
#[derive(Clone, Debug)]
pub struct InlineAlert {
    /// NIC shard that computed (and scored) the vector.
    pub shard: usize,
    /// Per-shard monotonic sequence number of the scored vector.
    pub seq: u64,
    /// Group key of the offending vector.
    pub key: GroupKey,
    /// The anomaly score (for the quantized back-end `score_q / 2^FA`,
    /// exactly representable).
    pub score: f64,
    /// The alert threshold in force.
    pub threshold: f64,
}

/// Counters of one shard's (or one merged run's) inference stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InlineStats {
    /// Vectors scored.
    pub scored: u64,
    /// Alerts raised (score strictly above the threshold).
    pub alerts: u64,
    /// Vectors skipped because their dimension did not match the model
    /// (a policy/detector mismatch that certification would have flagged).
    pub dim_errors: u64,
}

impl InlineStats {
    /// Accumulates another shard's counters.
    pub fn absorb(&mut self, other: &InlineStats) {
        self.scored += other.scored;
        self.alerts += other.alerts;
        self.dim_errors += other.dim_errors;
    }
}

/// The per-shard inference stage: one shared model, private counters and
/// alert buffer. Lives inside the worker thread; scoring is pure, so
/// sharing the model read-only across shards cannot introduce
/// nondeterminism.
pub struct InlineInference {
    model: Scorer,
    alerts: Vec<InlineAlert>,
    stats: InlineStats,
}

impl InlineInference {
    /// Creates a shard stage over a shared model.
    pub fn new(model: impl Into<Scorer>) -> Self {
        InlineInference {
            model: model.into(),
            alerts: Vec::new(),
            stats: InlineStats::default(),
        }
    }

    /// Scores one finalized vector at its `(shard, seq)` stream position,
    /// buffering an alert when the score crosses the threshold.
    pub fn score(&mut self, shard: usize, seq: u64, vector: &FeatureVector) {
        let Ok(score) = self.model.score(vector.values()) else {
            self.stats.dim_errors += 1;
            return;
        };
        self.stats.scored += 1;
        if self.model.is_alert(score) {
            self.stats.alerts += 1;
            self.alerts.push(InlineAlert {
                shard,
                seq,
                key: vector.key,
                score,
                threshold: self.model.threshold(),
            });
        }
    }

    /// Drains the stage into its buffered alerts and final counters.
    pub fn into_parts(self) -> (Vec<InlineAlert>, InlineStats) {
        (self.alerts, self.stats)
    }
}

/// Sorts stream items into the canonical order: by group key, then by
/// per-key stream position. Every group key lives on one shard and each
/// shard numbers its vectors in stream order, so `seq` *values* differ
/// across worker counts but the per-key order does not: the canonical
/// sequence is worker-count-independent. The sort is stable and renders
/// each item's key once.
pub fn canonicalize<T>(items: &mut [T], position: impl Fn(&T) -> (GroupKey, u64)) {
    items.sort_by_cached_key(|item| {
        let (key, seq) = position(item);
        (format!("{key:?}"), seq)
    });
}

/// The worker-count-independent fingerprint of a canonical inline alert
/// stream: `(key, score bits, threshold bits)` triples in canonical order.
pub fn inline_alert_fingerprint(alerts: &[InlineAlert]) -> Vec<(String, u64, u64)> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_ml::{
        quantize, train_and_calibrate, CalibrationConfig, CentroidDetector, Detector, QuantConfig,
    };
    use superfe_streaming::FeatureValues;

    fn model(dim: usize) -> Arc<QuantizedDetector> {
        let data: Vec<Vec<f64>> = (0..80)
            .map(|i| (0..dim).map(|d| 5.0 + ((i + d) % 7) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let frozen = train_and_calibrate(
            Box::new(CentroidDetector::new(dim).unwrap()) as Box<dyn Detector>,
            &refs,
            0.2,
            CalibrationConfig::default(),
        )
        .unwrap();
        Arc::new(quantize(&frozen, &QuantConfig::default()).unwrap())
    }

    fn vector(key_host: u32, values: &[f64]) -> FeatureVector {
        let mut buf = FeatureValues::with_capacity(values.len());
        buf.extend_from_slice(values);
        FeatureVector {
            key: GroupKey::Host(key_host),
            values: buf,
        }
    }

    #[test]
    fn scores_and_counts_alerts() {
        let m = model(3);
        let mut inf = InlineInference::new(m.clone());
        // A benign vector (near the centroid) and a hostile one (opposed).
        inf.score(0, 0, &vector(1, &[5.0, 6.0, 5.0]));
        inf.score(0, 1, &vector(2, &[-5.0, -6.0, -5.0]));
        let (alerts, stats) = inf.into_parts();
        assert_eq!(stats.scored, 2);
        assert_eq!(stats.alerts, 1);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].key, GroupKey::Host(2));
        assert!(alerts[0].score > alerts[0].threshold);
        assert_eq!(alerts[0].threshold, m.threshold());
    }

    #[test]
    fn float_back_end_scores_like_its_detector() {
        let data: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![5.0 + f64::from(i % 7), 6.0 + f64::from(i % 5)])
            .collect();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let frozen = train_and_calibrate(
            Box::new(CentroidDetector::new(2).unwrap()) as Box<dyn Detector>,
            &refs,
            0.2,
            CalibrationConfig::default(),
        )
        .unwrap();
        let hostile = vector(2, &[-5.0, -6.0]);
        let mut inf = InlineInference::new(frozen.clone());
        inf.score(0, 0, &vector(1, &[5.0, 6.0]));
        inf.score(0, 1, &hostile);
        let (alerts, stats) = inf.into_parts();
        assert_eq!((stats.scored, stats.alerts), (2, 1));
        let expected = frozen.score(hostile.values()).unwrap();
        assert_eq!(alerts[0].score.to_bits(), expected.to_bits());
        assert_eq!(alerts[0].threshold, frozen.threshold());
    }

    #[test]
    fn dimension_mismatch_is_counted_not_fatal() {
        let mut inf = InlineInference::new(model(3));
        inf.score(0, 0, &vector(1, &[1.0]));
        let (alerts, stats) = inf.into_parts();
        assert!(alerts.is_empty());
        assert_eq!(
            stats,
            InlineStats {
                scored: 0,
                alerts: 0,
                dim_errors: 1
            }
        );
    }

    #[test]
    fn canonical_order_drops_shard_dependence() {
        let mk = |shard, seq, host| InlineAlert {
            shard,
            seq,
            key: GroupKey::Host(host),
            score: 1.0,
            threshold: 0.5,
        };
        // Same logical stream sharded two ways.
        let mut a = vec![mk(0, 0, 2), mk(0, 1, 1), mk(0, 2, 2)];
        let mut b = vec![mk(1, 0, 2), mk(0, 0, 1), mk(1, 1, 2)];
        canonicalize(&mut a, |x| (x.key, x.seq));
        canonicalize(&mut b, |x| (x.key, x.seq));
        assert_eq!(inline_alert_fingerprint(&a), inline_alert_fingerprint(&b));
    }

    #[test]
    fn stats_absorb_sums_counters() {
        let mut a = InlineStats {
            scored: 3,
            alerts: 1,
            dim_errors: 0,
        };
        a.absorb(&InlineStats {
            scored: 2,
            alerts: 2,
            dim_errors: 1,
        });
        assert_eq!(
            a,
            InlineStats {
                scored: 5,
                alerts: 3,
                dim_errors: 1
            }
        );
    }
}
