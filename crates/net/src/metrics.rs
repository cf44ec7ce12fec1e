//! Lock-free latency telemetry shared by the data path and the bench
//! harness: a monotonic nanosecond clock and atomic histograms.
//!
//! The streaming pipeline is instrumented at three stages
//! (producer→shard queue dwell, per-frame shard processing, in-shard
//! scoring at egress);
//! workers record into [`AtomicHistogram`]s through a shared
//! [`StageMetrics`] handle with one `fetch_add` per sample, so measurement
//! never takes a lock on the hot path. All timestamps come from
//! [`monotonic_ns`] — a single process-wide monotonic clock anchor — so
//! every stage and every run reports on the same time base instead of
//! scattering independent `Instant::now()` pairs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process-wide monotonic anchor (first call).
///
/// The anchor is a [`std::time::Instant`], so the value is monotonic and
/// immune to wall-clock adjustments. Every component that timestamps —
/// ring instrumentation, stage metrics, the bench harness clock — reads
/// this one source.
pub fn monotonic_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    let anchor = ANCHOR.get_or_init(Instant::now);
    // u64 nanoseconds cover ~584 years of process uptime.
    anchor.elapsed().as_nanos() as u64
}

/// Default smallest histogram bin, nanoseconds.
pub const HIST_UNIT_NS: u64 = 64;

/// Default histogram bin count (geometric, base 2: 64 ns × 2^39 ≈ 10 h).
pub const HIST_BINS: usize = 40;

/// A fixed-shape geometric latency histogram updatable from many threads
/// without locks.
///
/// Bin `i` covers `[unit·2^(i-1), unit·2^i)` nanoseconds (bin 0 is
/// `[0, unit)`); percentile queries report the upper edge of the bin the
/// quantile falls into, so they are conservative to within one power of
/// two. Alongside the bins it tracks exact count, sum, and max.
#[derive(Debug)]
pub struct AtomicHistogram {
    unit: u64,
    bins: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new(HIST_UNIT_NS, HIST_BINS)
    }
}

impl AtomicHistogram {
    /// A histogram with `bins` geometric (base-2) bins starting at `unit`
    /// nanoseconds (both clamped to ≥ 1).
    pub fn new(unit: u64, bins: usize) -> Self {
        AtomicHistogram {
            unit: unit.max(1),
            bins: (0..bins.max(1)).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    fn bin_of(&self, ns: u64) -> usize {
        if ns < self.unit {
            return 0;
        }
        // floor(log2(ns / unit)) + 1, saturated into the last bin.
        let ratio = ns / self.unit;
        let idx = (u64::BITS - ratio.leading_zeros()) as usize;
        idx.min(self.bins.len() - 1)
    }

    /// Upper edge of bin `i` in nanoseconds.
    fn bin_edge(&self, i: usize) -> u64 {
        self.unit
            .saturating_mul(1u64.checked_shl(i as u32).unwrap_or(u64::MAX))
    }

    /// Records one sample (relaxed ordering: counters, not synchronization).
    pub fn record(&self, ns: u64) {
        self.bins[self.bin_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Conservative (upper-bin-edge) estimate of quantile `q` in [0, 1].
    ///
    /// `None` when the histogram is empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.bins.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // The last bin is open-ended (saturating), so its edge may
                // under-report; fall back to the exact max there.
                if i + 1 == self.bins.len() {
                    break;
                }
                return Some(self.bin_edge(i).min(self.max_ns.load(Ordering::Relaxed)));
            }
        }
        Some(self.max_ns.load(Ordering::Relaxed))
    }

    /// A point-in-time summary of the distribution.
    pub fn summary(&self) -> HistSummary {
        let count = self.count();
        let sum = self.sum_ns.load(Ordering::Relaxed);
        HistSummary {
            count,
            mean_ns: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50_ns: self.percentile(0.50).unwrap_or(0),
            p95_ns: self.percentile(0.95).unwrap_or(0),
            p99_ns: self.percentile(0.99).unwrap_or(0),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of one [`AtomicHistogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact mean, nanoseconds.
    pub mean_ns: f64,
    /// Median (upper bin edge), nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile (upper bin edge), nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile (upper bin edge), nanoseconds.
    pub p99_ns: u64,
    /// Exact maximum, nanoseconds.
    pub max_ns: u64,
}

/// Per-stage latency histograms for one streaming-pipeline run:
/// producer→shard queue dwell, per-frame shard processing, and in-shard
/// scoring at egress.
///
/// Constructed by the bench harness, shared (`Arc`) into the executor; the
/// ring transport records `queue` itself (each histogram is independently
/// `Arc`-shareable so a ring can hold just the dwell histogram), the worker
/// loops record `shard` and `sink`.
#[derive(Debug, Default)]
pub struct StageMetrics {
    /// Frame dwell time in the event ring (producer send → worker receive).
    pub queue: std::sync::Arc<AtomicHistogram>,
    /// Per-frame NIC processing time on the worker.
    pub shard: std::sync::Arc<AtomicHistogram>,
    /// Per-frame egress time on the worker: the in-shard scorers scoring
    /// the frame's fresh vectors. Empty when no member has a scorer.
    pub sink: std::sync::Arc<AtomicHistogram>,
}

impl StageMetrics {
    /// Snapshots all three stages.
    pub fn summaries(&self) -> StageSummaries {
        StageSummaries {
            queue: self.queue.summary(),
            shard: self.shard.summary(),
            sink: self.sink.summary(),
        }
    }
}

/// Snapshot of [`StageMetrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageSummaries {
    /// Queue-dwell distribution.
    pub queue: HistSummary,
    /// Shard-processing distribution.
    pub shard: HistSummary,
    /// Egress (in-shard scoring) distribution.
    pub sink: HistSummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let h = AtomicHistogram::new(64, 16);
        for ns in [10, 100, 1000, 10_000, 100_000] {
            h.record(ns);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.max_ns, 100_000);
        assert!((s.mean_ns - 22_222.0).abs() < 1.0);
        // p50 of {10,100,1000,10_000,100_000} lands in the bin holding 1000;
        // the conservative estimate is that bin's upper edge.
        assert!(s.p50_ns >= 1000 && s.p50_ns <= 2048, "p50 {}", s.p50_ns);
        assert!(s.p99_ns >= 100_000 || s.p99_ns == s.max_ns);
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = AtomicHistogram::default();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.summary().count, 0);
    }

    #[test]
    fn overflow_samples_land_in_last_bin() {
        let h = AtomicHistogram::new(64, 4);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(1.0), Some(u64::MAX / 2));
    }

    #[test]
    fn percentiles_are_bounded_by_max() {
        let h = AtomicHistogram::new(64, 32);
        h.record(100);
        // A single 100 ns sample: every quantile reports ≤ max (100), not
        // the 128 ns bin edge.
        assert_eq!(h.percentile(0.5), Some(100));
        assert_eq!(h.summary().p99_ns, 100);
    }

    #[test]
    fn stage_metrics_snapshot() {
        let m = StageMetrics::default();
        m.queue.record(500);
        m.shard.record(1500);
        let s = m.summaries();
        assert_eq!(s.queue.count, 1);
        assert_eq!(s.shard.count, 1);
        assert_eq!(s.sink.count, 0);
    }
}
