//! Order statistics the benchmark reports: medians, and the highest
//! percentile a sample supports.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`: p67 at 31 samples, p90 at 100. With ten samples or
/// fewer no percentile qualifies and the median is reported as p50.
pub fn high_percentile(values: &[f64]) -> (u32, f64) {
    assert!(!values.is_empty(), "percentile of no samples");
    let n = values.len();
    if n <= 10 {
        return (50, median(values));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - 10;
    ((100 * rank / n) as u32, sorted[rank - 1])
}

/// A timed run in calibration units: its wall-clock divided by the mean of
/// the calibration kernel's wall-clock just before and just after it.
pub fn calibration_units(run_secs: f64, calib_before: f64, calib_after: f64) -> f64 {
    run_secs / (0.5 * (calib_before + calib_after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=31).map(f64::from).collect();
        let (pct, value) = high_percentile(&samples);
        assert_eq!(pct, 67);
        assert_eq!(value, 21.0);
        assert_eq!(samples.iter().filter(|&&v| v > value).count(), 10);

        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(high_percentile(&hundred), (90, 90.0));
    }

    #[test]
    fn high_percentile_falls_back_to_the_median_on_small_samples() {
        assert_eq!(high_percentile(&[5.0, 1.0, 3.0]), (50, 3.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(high_percentile(&ten), (50, 5.5));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(high_percentile(&eleven), (9, 1.0));
    }

    #[test]
    fn calibration_units_divide_by_the_bracketing_mean() {
        assert_eq!(calibration_units(0.6, 0.03, 0.05), 15.0);
        // A machine twice as slow doubles both walls and leaves the ratio.
        assert_eq!(
            calibration_units(1.2, 0.06, 0.10),
            calibration_units(0.6, 0.03, 0.05)
        );
    }
}
