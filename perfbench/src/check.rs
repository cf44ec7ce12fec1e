//! Output checking against the sequential oracle.
//!
//! Every output is compared in canonical order: by group key, then in
//! emission order among that key's outputs. That order is the same for the
//! single-threaded composition and for any sharded run, because a key's
//! vectors are produced by exactly one shard in stream order. Within a key
//! the two sequences are aligned with the fewest failures (an edit
//! distance), so one lost output costs one failure and does not shift the
//! key's later outputs out of step. An output fails when it is missing,
//! extra, or not bitwise equal to the oracle output it is aligned with.

use std::collections::HashMap;

use superfe_detect::Alert;
use superfe_net::GroupKey;
use superfe_nic::{FeatureVector, InlineAlert};

/// A totally ordered, allocation-free form of a [`GroupKey`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CKey {
    tag: u8,
    bytes: [u8; GroupKey::MAX_KEY_BYTES],
}

impl CKey {
    /// The canonical form of `key`.
    pub fn of(key: &GroupKey) -> Self {
        let tag = match key {
            GroupKey::Flow(_) => 0,
            GroupKey::Host(_) => 1,
            GroupKey::Channel(..) => 2,
            GroupKey::Socket(_) => 3,
        };
        let mut bytes = [0u8; GroupKey::MAX_KEY_BYTES];
        key.write_bytes(&mut bytes);
        CKey { tag, bytes }
    }
}

/// One output stream of the oracle in canonical order.
#[derive(Clone, Debug, Default)]
pub struct Expected {
    vectors: Vec<FeatureVector>,
    order: Vec<(CKey, u32, u32)>,
}

impl Expected {
    /// Canonicalizes an emission-ordered vector stream.
    pub fn new(vectors: Vec<FeatureVector>) -> Self {
        let order = canonical_order(&vectors);
        Expected { vectors, order }
    }

    /// Outputs in the stream.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }
}

/// `(key, per-key position, index)` for every vector, sorted.
fn canonical_order(vectors: &[FeatureVector]) -> Vec<(CKey, u32, u32)> {
    let mut seen: HashMap<CKey, u32> = HashMap::new();
    let mut order: Vec<(CKey, u32, u32)> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let k = CKey::of(&v.key);
            let n = seen.entry(k).or_insert(0);
            let pos = *n;
            *n += 1;
            (k, pos, u32::try_from(i).expect("stream fits u32 indices"))
        })
        .collect();
    order.sort_unstable();
    order
}

/// Outcome of comparing one run's outputs with the oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Outputs the oracle produced.
    pub expected: u64,
    /// Oracle outputs the run did not produce.
    pub missing: u64,
    /// Run outputs the oracle did not produce.
    pub extra: u64,
    /// Aligned outputs whose bits differ.
    pub mismatched: u64,
}

impl Tally {
    /// Failed outputs: missing, extra and mismatched ones.
    pub fn failed(&self) -> u64 {
        self.missing + self.extra + self.mismatched
    }

    /// A run that returned an error instead of outputs: every expected
    /// output counts as failed.
    pub fn run_error(expected: u64) -> Self {
        Tally {
            expected,
            missing: expected,
            ..Tally::default()
        }
    }

    /// Adds another comparison's counts.
    pub fn absorb(&mut self, o: &Tally) {
        self.expected += o.expected;
        self.missing += o.missing;
        self.extra += o.extra;
        self.mismatched += o.mismatched;
    }
}

/// Per key, the largest `expected × actual` differing middle aligned by
/// edit distance. Beyond it (a run whose outputs for one key are almost
/// all wrong) the middle is paired position by position, which can only
/// overstate the failures.
const MAX_ALIGN_CELLS: usize = 1 << 24;

/// Compares two canonical sequences key by key.
fn merge<A, B>(
    exp: &[(CKey, u32, A)],
    act: &[(CKey, u32, B)],
    same: impl Fn(&A, &B) -> bool,
) -> Tally {
    let mut t = Tally {
        expected: exp.len() as u64,
        ..Tally::default()
    };
    let (mut i, mut j) = (0, 0);
    while i < exp.len() || j < act.len() {
        let key = match (exp.get(i), act.get(j)) {
            (Some(e), Some(a)) => e.0.min(a.0),
            (Some(e), None) => e.0,
            (None, Some(a)) => a.0,
            (None, None) => unreachable!("loop condition"),
        };
        let ie = i + exp[i..].iter().take_while(|e| e.0 == key).count();
        let je = j + act[j..].iter().take_while(|a| a.0 == key).count();
        t.absorb(&align(&exp[i..ie], &act[j..je], &same));
        (i, j) = (ie, je);
    }
    t
}

/// Failures of one key's outputs: the common prefix and suffix match, and
/// the differing middle is aligned by edit distance (a missing, extra or
/// unequal output each cost one).
fn align<A, B>(
    exp: &[(CKey, u32, A)],
    act: &[(CKey, u32, B)],
    same: &impl Fn(&A, &B) -> bool,
) -> Tally {
    let eq = |i: usize, j: usize| same(&exp[i].2, &act[j].2);
    let (n, m) = (exp.len(), act.len());
    let mut pre = 0;
    while pre < n.min(m) && eq(pre, pre) {
        pre += 1;
    }
    let mut suf = 0;
    while suf < n.min(m) - pre && eq(n - 1 - suf, m - 1 - suf) {
        suf += 1;
    }
    let (e, a) = (pre..n - suf, pre..m - suf);
    let (ne, na) = (e.len(), a.len());
    let (cost, subs) = if ne == 0 || na == 0 {
        (ne + na, 0)
    } else if ne.saturating_mul(na) > MAX_ALIGN_CELLS {
        (ne.max(na), ne.min(na))
    } else {
        // Rolling rows of (cost, substitutions) over the middle, minimized
        // lexicographically.
        let mut prev: Vec<(usize, usize)> = (0..=na).map(|k| (k, 0)).collect();
        let mut cur = vec![(0, 0); na + 1];
        for (r, i) in e.enumerate() {
            cur[0] = (r + 1, 0);
            for (c, j) in a.clone().enumerate() {
                let diag = if eq(i, j) {
                    prev[c]
                } else {
                    (prev[c].0 + 1, prev[c].1 + 1)
                };
                let up = (prev[c + 1].0 + 1, prev[c + 1].1);
                let left = (cur[c].0 + 1, cur[c].1);
                cur[c + 1] = diag.min(up).min(left);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[na]
    };
    // cost = subs + missing + extra, and every aligned pair is a match or a
    // substitution: ne = matched + subs + missing, na = matched + subs + extra.
    let matched = (ne + na - cost - subs) / 2;
    Tally {
        expected: 0,
        missing: (ne - matched - subs) as u64,
        extra: (na - matched - subs) as u64,
        mismatched: subs as u64,
    }
}

fn bitwise_equal(a: &FeatureVector, b: &FeatureVector) -> bool {
    let (a, b) = (a.values(), b.values());
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Compares a run's vector stream with the oracle's.
pub fn compare_vectors(exp: &Expected, actual: &[FeatureVector]) -> Tally {
    let act = canonical_order(actual);
    merge(&exp.order, &act, |&e, &a| {
        bitwise_equal(&exp.vectors[e as usize], &actual[a as usize])
    })
}

/// An alert in comparable form: `(key, per-key alert position, (score
/// bits, threshold bits))`.
pub type AlertItem = (CKey, u32, (u64, u64));

/// Ranks `(key, stream position, payload)` alerts into canonical items.
fn rank_alerts(mut raw: Vec<(CKey, u64, (u64, u64))>) -> Vec<AlertItem> {
    raw.sort_unstable();
    let mut out = Vec::with_capacity(raw.len());
    let mut prev: Option<CKey> = None;
    let mut pos = 0u32;
    for (k, _, payload) in raw {
        pos = if prev == Some(k) { pos + 1 } else { 0 };
        prev = Some(k);
        out.push((k, pos, payload));
    }
    out
}

/// The oracle's alerts (from offline quantized scoring) in canonical form.
pub fn oracle_alerts(alerts: &[Alert]) -> Vec<AlertItem> {
    rank_alerts(
        alerts
            .iter()
            .map(|a| {
                (
                    CKey::of(&a.key),
                    a.seq,
                    (a.score.to_bits(), a.threshold.to_bits()),
                )
            })
            .collect(),
    )
}

/// Compares the in-pipeline stage's alerts with the oracle's.
pub fn compare_alerts(exp: &[AlertItem], inline: &[InlineAlert]) -> Tally {
    let act = rank_alerts(
        inline
            .iter()
            .map(|a| {
                (
                    CKey::of(&a.key),
                    a.seq,
                    (a.score.to_bits(), a.threshold.to_bits()),
                )
            })
            .collect(),
    );
    merge(exp, &act, |e, a| e == a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_streaming::FeatureValues;

    fn v(host: u32, vals: &[f64]) -> FeatureVector {
        FeatureVector {
            key: GroupKey::Host(host),
            values: FeatureValues::from(vals.to_vec()),
        }
    }

    fn stream() -> Vec<FeatureVector> {
        vec![
            v(1, &[1.0, 2.0]),
            v(2, &[3.0]),
            v(1, &[4.0, 5.0]),
            v(3, &[0.1]),
            v(2, &[6.0]),
        ]
    }

    #[test]
    fn identical_and_reordered_streams_pass() {
        let exp = Expected::new(stream());
        assert_eq!(compare_vectors(&exp, &stream()).failed(), 0);
        // Interleaving across keys may change; per-key order may not.
        let mut shuffled = stream();
        shuffled.swap(0, 1);
        shuffled.swap(3, 4);
        let t = compare_vectors(&exp, &shuffled);
        assert_eq!((t.expected, t.failed()), (5, 0));
    }

    #[test]
    fn one_ulp_change_is_caught() {
        let exp = Expected::new(stream());
        let mut got = stream();
        let x = got[3].values.as_slice()[0];
        got[3] = v(3, &[f64::from_bits(x.to_bits() + 1)]);
        let t = compare_vectors(&exp, &got);
        assert_eq!(t.mismatched, 1);
        assert_eq!(t.failed(), 1);
    }

    #[test]
    fn dropped_and_extra_vectors_are_caught() {
        let exp = Expected::new(stream());
        let mut dropped = stream();
        dropped.remove(2); // host 1's second (last) vector
        let t = compare_vectors(&exp, &dropped);
        assert_eq!((t.missing, t.extra, t.mismatched), (1, 0, 0));

        let mut extra = stream();
        extra.push(v(9, &[1.0]));
        let t = compare_vectors(&exp, &extra);
        assert_eq!((t.missing, t.extra, t.mismatched), (0, 1, 0));
    }

    /// A long-lived key: one lost or extra output early on must not shift
    /// the key's later outputs out of step.
    fn long_key() -> Vec<FeatureVector> {
        (0..50).map(|i| v(7, &[f64::from(i)])).collect()
    }

    #[test]
    fn dropping_a_keys_first_vector_fails_once() {
        let exp = Expected::new(stream());
        let mut dropped = stream();
        dropped.remove(0); // host 1's first vector
        let t = compare_vectors(&exp, &dropped);
        assert_eq!((t.missing, t.extra, t.mismatched), (1, 0, 0));

        let exp = Expected::new(long_key());
        let mut got = long_key();
        got.remove(30);
        got.remove(3);
        got.insert(10, v(7, &[-1.0]));
        let x = got[40].values.as_slice()[0];
        got[40] = v(7, &[f64::from_bits(x.to_bits() + 1)]);
        let t = compare_vectors(&exp, &got);
        assert_eq!(
            (t.expected, t.missing, t.extra, t.mismatched),
            (50, 2, 1, 1)
        );
    }

    #[test]
    fn oversized_middles_are_paired_by_position() {
        // 5000 × 4998 cells exceed MAX_ALIGN_CELLS.
        let exp: Vec<FeatureVector> = (0..5000).map(|i| v(7, &[f64::from(i)])).collect();
        let got: Vec<FeatureVector> = (1..4999).map(|i| v(7, &[f64::from(-i)])).collect();
        let t = compare_vectors(&Expected::new(exp), &got);
        assert_eq!((t.missing, t.extra, t.mismatched), (2, 0, 4998));
    }

    #[test]
    fn run_error_fails_every_expected_output() {
        let mut total = Tally::default();
        total.absorb(&Tally::run_error(5));
        assert_eq!((total.expected, total.failed()), (5, 5));
    }

    #[test]
    fn alert_comparison_follows_per_key_order() {
        let alert = |host: u32, seq: u64, score: f64| InlineAlert {
            shard: 0,
            seq,
            key: GroupKey::Host(host),
            score,
            threshold: 1.0,
        };
        let exp_alerts: Vec<Alert> = [(1, 0, 2.0), (1, 5, 3.0), (2, 1, 4.0)]
            .iter()
            .map(|&(h, seq, score)| Alert {
                scenario: "t".into(),
                key: GroupKey::Host(h),
                score,
                threshold: 1.0,
                shard: 0,
                seq,
            })
            .collect();
        let exp = oracle_alerts(&exp_alerts);
        // Stream positions differ from the oracle's per-key indices; only
        // the per-key order matters.
        let got = [alert(2, 40, 4.0), alert(1, 7, 2.0), alert(1, 90, 3.0)];
        assert_eq!(compare_alerts(&exp, &got).failed(), 0);
        let bumped = [
            alert(2, 40, 4.0),
            alert(1, 7, 2.0),
            alert(1, 90, f64::from_bits(3.0f64.to_bits() + 1)),
        ];
        assert_eq!(compare_alerts(&exp, &bumped).mismatched, 1);
        assert_eq!(compare_alerts(&exp, &got[..2]).missing, 1);
    }
}
