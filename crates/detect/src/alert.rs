//! The typed alert stream.

use superfe_net::GroupKey;

/// One anomaly alert raised by an in-shard scorer (or by offline scoring).
#[derive(Clone, Debug)]
pub struct Alert {
    /// The scenario label the run was started with (for operators
    /// correlating alert streams across runs).
    pub scenario: String,
    /// The group key of the offending feature vector (the finest
    /// granularity for per-packet vectors).
    pub key: GroupKey,
    /// The anomaly score that crossed the threshold.
    pub score: f64,
    /// The calibrated threshold in force when the alert fired.
    pub threshold: f64,
    /// Stream position: NIC shard that computed the vector.
    pub shard: usize,
    /// Stream position: per-shard monotonic sequence number.
    pub seq: u64,
}

/// One scored vector of an offline scoring pass.
#[derive(Clone, Debug)]
pub struct ScoredVector {
    /// Group key of the scored vector.
    pub key: GroupKey,
    /// NIC shard that computed the vector.
    pub shard: usize,
    /// Per-shard monotonic sequence number.
    pub seq: u64,
    /// Anomaly score.
    pub score: f64,
}
