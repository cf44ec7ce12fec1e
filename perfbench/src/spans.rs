//! In-memory span aggregation for the traced mode.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public API; nothing inside the program is instrumented. Each span name
//! keeps a count, a total and a log-linear histogram (5 sub-bucket bits,
//! about 3% relative resolution) for its p50/p99, and the table is printed
//! when the run ends.

use std::time::Instant;

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// Log-linear histogram of nanosecond durations.
#[derive(Clone, Debug)]
struct Hist {
    buckets: Vec<u64>,
}

impl Hist {
    fn new() -> Self {
        Hist {
            buckets: vec![0; (64 - SUB_BITS as usize + 1) * SUB as usize],
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros(); // >= SUB_BITS
        let shift = exp - SUB_BITS;
        let sub = (ns >> shift) - SUB; // in [0, SUB)
        ((shift as u64 + 1) * SUB + sub) as usize
    }

    /// Lower edge of bucket `i` (the value reported for a quantile).
    fn lower(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            return i;
        }
        let shift = i / SUB - 1;
        (SUB + i % SUB) << shift
    }

    fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
    }

    fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::lower(i);
            }
        }
        0
    }
}

/// One named span aggregate.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call` name.
    pub name: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Sum of their durations, nanoseconds.
    pub total_ns: u64,
    hist: Hist,
}

impl Span {
    /// Total duration in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Duration quantile `q` in nanoseconds (bucket lower edge).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        self.hist.quantile(q)
    }
}

/// A set of span aggregates addressed by index.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

/// Handle of a registered span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

impl Tracer {
    /// Registers (or finds) a span by name.
    pub fn span(&mut self, name: &'static str) -> SpanId {
        if let Some(i) = self.spans.iter().position(|s| s.name == name) {
            return SpanId(i);
        }
        self.spans.push(Span {
            name,
            count: 0,
            total_ns: 0,
            hist: Hist::new(),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Records one span that started at `start` and ends now; returns the
    /// end instant so consecutive spans can share a clock read.
    pub fn end(&mut self, id: SpanId, start: Instant) -> Instant {
        let now = Instant::now();
        let ns = u64::try_from(now.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
        let s = &mut self.spans[id.0];
        s.count += 1;
        s.total_ns += ns;
        s.hist.record(ns);
        now
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, id: SpanId, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.end(id, t);
        r
    }

    /// Total seconds of a span by name (0 when never registered).
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, Span::total_s)
    }

    /// Sum of every span's total, seconds. Spans recorded by one tracer
    /// never nest, so this is the sum of their self times.
    pub fn sum_s(&self) -> f64 {
        self.spans.iter().map(Span::total_s).sum()
    }

    /// The aggregate table, one line per span.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!(
            "{title}\n  {:<28} {:>10} {:>12} {:>10} {:>10}\n",
            "span", "count", "total_s", "p50_ns", "p99_ns"
        );
        for s in &self.spans {
            out.push_str(&format!(
                "  {:<28} {:>10} {:>12.6} {:>10} {:>10}\n",
                s.name,
                s.count,
                s.total_s(),
                s.quantile_ns(0.5),
                s.quantile_ns(0.99)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        let mut prev = 0;
        for ns in [0u64, 1, 31, 32, 33, 63, 64, 1000, 123_456, 1 << 40] {
            let i = Hist::index(ns);
            assert!(i >= prev);
            prev = i;
            let lo = Hist::lower(i);
            assert!(lo <= ns, "{ns}: lower {lo}");
            assert!(
                (ns - lo) as f64 <= ns as f64 / SUB as f64,
                "{ns}: lower {lo}"
            );
        }
    }

    #[test]
    fn quantiles_follow_the_recorded_distribution() {
        let mut h = Hist::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        assert!((96..=100).contains(&h.quantile(0.5)));
        assert!((96..=100).contains(&h.quantile(0.99)));
        assert!(h.quantile(1.0) > 900_000);
    }
}
