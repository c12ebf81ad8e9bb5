//! Order statistics over small samples of repetition timings.

/// Five-number summary plus the sample count of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has run at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile with the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses, so the spread the harness
/// prints is the one the acceptance check computes. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| -> f64 {
        // Position i*(n+1)/4 on the 1-based sorted sample, clamped to it.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Summary of a non-empty series; a single value is its own quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    let med = median(values);
    let (q1, q3) = if values.len() >= 2 {
        quartiles(values)
    } else {
        (med, med)
    };
    Summary {
        n: values.len(),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        q1,
        median: med,
        q3,
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let (q1, q3) = quartiles(&[8.0, 1.0, 4.0, 2.0]);
        assert!((q1 - 1.25).abs() < 1e-12 && (q3 - 7.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_extremes_and_count() {
        let s = summarize(&[2.0, 9.0, 4.0, 6.0, 1.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 4.0, 9.0));
        assert!(s.q1 <= s.median && s.median <= s.q3);
        let one = summarize(&[5.0]);
        assert_eq!((one.q1, one.q3), (5.0, 5.0));
    }
}
