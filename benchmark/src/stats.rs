//! Order statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so spreads printed here match the ones
//! an outside script computes from the same run files.

/// The sorted copy of `values` (NaN-free input assumed: every sample is
/// a measured duration, count or ratio).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, or `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The first and third quartiles, exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them. A single sample
/// is its own quartiles; an empty one has none.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// The interquartile range as a share of the median: the run-to-run
/// spread a bound is compared against. `None` when the median is 0.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let med = median(values)?;
    let (q1, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The nearest-rank `pct`-th percentile, refused (`None`) unless at
/// least ten samples lie beyond it: a tail read from fewer samples is
/// one or two slow outliers, not a percentile. So p99 needs 1000
/// samples and p90 needs 100.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    if !(0.0..=100.0).contains(&pct) || rank == 0 || n - rank.min(n) < 10 {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some((15.0, 45.0))
        );
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&ten).expect("spread");
        assert!((s - 5.5 / 5.5).abs() < 1e-12, "{s}");
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), Some(0.0));
        assert_eq!(relative_spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), None, "999 samples leave 9 beyond p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v[..99], 90.0), None);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(
            percentile(&[1.0; 19], 50.0),
            None,
            "p50 of 19 leaves 9 beyond"
        );
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&v, 101.0), None);
    }
}
