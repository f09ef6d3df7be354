//! Order statistics for latency samples and for run-to-run spread.

/// Tail percentiles tried, highest first, as `(percentile, num, den)`
/// with `percentile = 100 * num / den`: counting samples beyond one is
/// done in integers, so 100 samples have exactly ten beyond p90.
const TAILS: [(f64, usize, usize); 6] = [
    (99.99, 9_999, 10_000),
    (99.9, 999, 1_000),
    (99.0, 99, 100),
    (95.0, 95, 100),
    (90.0, 90, 100),
    (75.0, 75, 100),
];

/// A latency distribution reduced to what the benchmark reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Number of samples.
    pub n: usize,
    /// Median, in the samples' unit.
    pub p50: f64,
    /// The 99th percentile if at least ten samples lie beyond it.
    pub p99: Option<f64>,
    /// The highest percentile in [`TAILS`] with at least ten samples
    /// beyond it, and its value; `None` below 40 samples.
    pub tail: Option<(f64, f64)>,
}

/// The value at quantile `q` (0..=1) of an ascending slice, by the
/// nearest-rank rule. Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that still has at least ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .find(|(_, num, den)| n - (n * num).div_ceil(*den) >= 10)
        .map(|(p, _, _)| *p)
}

/// Summarise `samples` (any order; sorted in place). `None` when empty.
pub fn latency(samples: &mut [f64]) -> Option<Latency> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    let tail = tail_percentile(n).map(|p| (p, quantile(samples, p / 100.0)));
    let p99 = tail
        .filter(|(p, _)| *p >= 99.0)
        .map(|_| quantile(samples, 0.99));
    Some(Latency {
        n,
        p50: quantile(samples, 0.5),
        p99,
        tail,
    })
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so `repeat` judges spread exactly as the acceptance check
/// does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Mean of the middle of `values`: the lowest and highest fifth (rounded
/// down, so nothing is dropped below five values) are left out. This is
/// how per-process measurements are combined into a run's value: the
/// processes' speeds are not normally distributed (they cluster around a
/// few levels), where the median of ten hops between levels and the
/// plain mean follows every disturbed process; the trimmed mean does
/// neither.
pub fn trimmed_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let drop = v.len() / 5;
    let kept = &v[drop..v.len() - drop];
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark's bounds are judged against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_selection() {
        let mut s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let l = latency(&mut s).unwrap();
        assert_eq!(l.n, 1000);
        assert_eq!(l.p50, 500.0);
        // 1000 samples: 10 lie beyond p99, only 1 beyond p99.9.
        assert_eq!(l.tail, Some((99.0, 990.0)));
        assert_eq!(l.p99, Some(990.0));

        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        let l = latency(&mut s).unwrap();
        // 100 samples: p90 is the highest with ten beyond it; no p99.
        assert_eq!(l.tail, Some((90.0, 90.0)));
        assert_eq!(l.p99, None);

        let mut s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(latency(&mut s).unwrap().tail, None);
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert!(latency(&mut []).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 15.0, 22.5)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(relative_spread(&v), Some(1.0));
    }

    #[test]
    fn trimmed_mean_drops_a_fifth_from_each_end() {
        // Ten values: the two lowest and two highest are left out.
        let v = [100.0, 1.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 2.0, 1000.0];
        assert_eq!(
            trimmed_mean(&v),
            Some((5.0 + 6.0 + 7.0 + 8.0 + 9.0 + 10.0) / 6.0)
        );
        // Fewer than five: a plain mean.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(trimmed_mean(&[]), None);
    }
}
