//! Order statistics over run samples.
//!
//! `quartiles` follows Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so the spreads printed here are the ones a
//! reader recomputes from the raw samples with the standard library.

/// The median of `v` (mean of the middle pair for even lengths); 0 when
/// `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    let (_, m, _) = quartiles(v);
    m
}

/// First quartile, median and third quartile of `v`, as
/// `statistics.quantiles(v, n=4)` computes them. A single sample is its own
/// quartiles; an empty slice gives zeros.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut data: Vec<f64> = v.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    // Python's exact integer arithmetic; `delta` goes negative (and the
    // result extrapolates) when `j` is clamped up on very short inputs.
    const N: i64 = 4;
    let ld = i64::try_from(ld).expect("sample count fits i64");
    let m = ld + 1;
    let mut q = [0.0; 3];
    for (i, slot) in (1..N).zip(q.iter_mut()) {
        let j = (i * m / N).clamp(1, ld - 1);
        let delta = (i * m - j * N) as f64;
        let j = usize::try_from(j).expect("clamped to a valid index");
        *slot = (data[j - 1] * (N as f64 - delta) + data[j] * delta) / N as f64;
    }
    (q[0], q[1], q[2])
}

/// Inter-quartile distance as a share of the median (0 when the median is
/// 0): the run-to-run spread the benchmark's bounds are judged against.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, m, q3) = quartiles(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
        // statistics.quantiles([1, 2, 3, 4, 100], n=4) == [1.5, 3.0, 52.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 100.0]), (1.5, 3.0, 52.0));
    }

    #[test]
    fn spread_is_relative_iqr() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
