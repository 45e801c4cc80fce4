//! Order statistics the benchmark reports: medians, quartiles and latency
//! percentiles.

/// `values` sorted ascending. Panics on NaN, which no timing or error
/// measurement should produce.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// The median (the mean of the middle pair for an even count); `NaN` for
/// no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads printed here match ones computed from the result lines with
/// Python's `statistics` module. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median — the spread each
/// end-to-end metric's bound is compared against across runs.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    Some((q3 - q1) / q2)
}

/// A log-line summary of one run's samples: count, quartiles and spread.
pub fn describe(values: &[f64]) -> String {
    match (quartiles(values), spread(values)) {
        (Some((q1, q2, q3)), Some(s)) => {
            format!(
                "n {}, quartiles {q1:.6} {q2:.6} {q3:.6}, spread {s:.3}",
                values.len()
            )
        }
        _ => format!("n {}", values.len()),
    }
}

/// Nearest-rank percentile `p` (0–100] of `values`: the smallest value with
/// at least `p`% of the samples at or below it. `NaN` for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: with
        // few points the exclusive method extrapolates past the extremes.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).expect("ten values");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[7.0; 4]), Some(0.0));
        assert_eq!(describe(&[1.0]), "n 1");
        assert!(describe(&v).starts_with("n 10, quartiles 2.750000 5.500000 8.250000"));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 1.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0], 99.0), 5.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
