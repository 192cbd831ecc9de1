//! Order statistics for timing samples.

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it (`p` in `(0, 100]`). Returns `None` for an empty
/// slice. Nearest rank always returns a measured value, never an
/// interpolation between two.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median as the middle order statistic; an even count averages the two
/// middle samples. Returns `None` for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 91.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&xs, 1.0), Some(1.0));
    }

    #[test]
    fn nearest_rank_ignores_input_order_and_handles_edges() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_averages_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
