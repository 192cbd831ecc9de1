//! Descriptive statistics on `f64` slices.

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Population variance (divides by `n`). Returns 0 for an empty slice.
pub fn variance(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Population standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Root-mean-square value. Returns 0 for an empty slice.
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
}

/// Largest absolute value. Returns 0 for an empty slice.
pub fn peak(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// Minimum and maximum, or `None` for an empty slice.
pub fn min_max(x: &[f64]) -> Option<(f64, f64)> {
    if x.is_empty() {
        return None;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in x {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    Some((lo, hi))
}

/// Linear-interpolated percentile, `p` in `[0, 100]`.
///
/// # Panics
///
/// Panics if `x` is empty or `p` is outside `[0, 100]`.
pub fn percentile(x: &[f64], p: f64) -> f64 {
    assert!(!x.is_empty(), "percentile of an empty slice is undefined");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} must be in [0, 100]"
    );
    let mut v = x.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let i = pos.floor() as usize;
    if i + 1 >= v.len() {
        return v[v.len() - 1];
    }
    let frac = pos - i as f64;
    v[i] * (1.0 - frac) + v[i + 1] * frac
}

/// Median (50th percentile).
///
/// # Panics
///
/// Panics if `x` is empty.
pub fn median(x: &[f64]) -> f64 {
    percentile(x, 50.0)
}

/// Line length: `Σ |x[i] − x[i−1]|`, a classic EEG seizure feature.
pub fn line_length(x: &[f64]) -> f64 {
    x.windows(2).map(|w| (w[1] - w[0]).abs()).sum()
}

/// Hjorth mobility and complexity of `x`, building its first and second
/// differences once.
///
/// Mobility is `σ(x') / σ(x)`, a normalised dominant-frequency proxy;
/// complexity is `mobility(x') / mobility(x)`, a bandwidth-like measure.
/// Each is 0 where it is undefined (too few samples, constant signal).
pub fn hjorth(x: &[f64]) -> (f64, f64) {
    // √(v_num / v_den), or 0 for a constant signal.
    fn ratio(v_num: f64, v_den: f64) -> f64 {
        if crate::approx::is_zero(v_den) {
            0.0
        } else {
            (v_num / v_den).sqrt()
        }
    }
    if x.len() < 2 {
        return (0.0, 0.0);
    }
    let dx = differences(x);
    let v_dx = variance(&dx);
    let mobility = ratio(v_dx, variance(x));
    if x.len() < 3 || crate::approx::is_zero(mobility) {
        return (mobility, 0.0);
    }
    let v_ddx = variance(&differences(&dx));
    (mobility, ratio(v_ddx, v_dx) / mobility)
}

fn differences(x: &[f64]) -> Vec<f64> {
    x.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Hjorth mobility: `σ(x') / σ(x)`; see [`hjorth`].
pub fn hjorth_mobility(x: &[f64]) -> f64 {
    hjorth(x).0
}

/// Hjorth complexity: `mobility(x') / mobility(x)`; see [`hjorth`].
pub fn hjorth_complexity(x: &[f64]) -> f64 {
    hjorth(x).1
}

/// Number of zero crossings (sign changes).
pub fn zero_crossings(x: &[f64]) -> usize {
    x.windows(2)
        .filter(|w| (w[0] >= 0.0 && w[1] < 0.0) || (w[0] < 0.0 && w[1] >= 0.0))
        .count()
}

/// Kurtosis (excess, Fisher). Returns 0 for fewer than 4 samples or a
/// constant signal.
pub fn kurtosis(x: &[f64]) -> f64 {
    if x.len() < 4 {
        return 0.0;
    }
    let m = mean(x);
    let v = variance(x);
    if crate::approx::is_zero(v) {
        return 0.0;
    }
    let m4 = x.iter().map(|u| (u - m).powi(4)).sum::<f64>() / x.len() as f64;
    m4 / (v * v) - 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basic() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&x), 2.5);
        assert!((variance(&x) - 1.25).abs() < 1e-12);
        assert!((std_dev(&x) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_do_not_panic() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(rms(&[]), 0.0);
        assert_eq!(peak(&[]), 0.0);
        assert_eq!(min_max(&[]), None);
        assert_eq!(line_length(&[]), 0.0);
        assert_eq!(zero_crossings(&[]), 0);
    }

    #[test]
    fn rms_of_sine_is_a_over_sqrt2() {
        let x = crate::spectrum::sine(10000, 10000.0, 100.0, 3.0, 0.0);
        assert!((rms(&x) - 3.0 / 2f64.sqrt()).abs() < 1e-3);
    }

    #[test]
    fn percentile_and_median() {
        let x = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&x), 3.0);
        assert_eq!(percentile(&x, 0.0), 1.0);
        assert_eq!(percentile(&x, 100.0), 5.0);
        assert_eq!(percentile(&x, 25.0), 2.0);
    }

    #[test]
    fn line_length_of_ramp() {
        let x = [0.0, 1.0, 2.0, 1.0];
        assert_eq!(line_length(&x), 3.0);
    }

    #[test]
    fn mobility_tracks_frequency() {
        let slow = crate::spectrum::sine(4096, 1024.0, 10.0, 1.0, 0.0);
        let fast = crate::spectrum::sine(4096, 1024.0, 100.0, 1.0, 0.0);
        assert!(hjorth_mobility(&fast) > 5.0 * hjorth_mobility(&slow));
    }

    #[test]
    fn complexity_of_pure_sine_near_one() {
        let x = crate::spectrum::sine(8192, 1024.0, 50.0, 1.0, 0.0);
        let c = hjorth_complexity(&x);
        assert!((c - 1.0).abs() < 0.05, "complexity {c}");
    }

    #[test]
    fn zero_crossings_counts_cycles() {
        // 10 full cycles -> 20 crossings (±1 boundary effect).
        let x = crate::spectrum::sine(1000, 1000.0, 10.0, 1.0, 0.1);
        let zc = zero_crossings(&x);
        assert!((19..=21).contains(&zc), "zc={zc}");
    }

    #[test]
    fn kurtosis_of_constant_is_zero() {
        assert_eq!(kurtosis(&[2.0; 100]), 0.0);
    }

    #[test]
    fn kurtosis_sign_discriminates_spiky_signals() {
        // Sparse spikes have positive excess kurtosis, a sine negative.
        let mut spiky = vec![0.0; 1000];
        spiky[100] = 10.0;
        spiky[500] = -9.0;
        assert!(kurtosis(&spiky) > 10.0);
        let x = crate::spectrum::sine(1000, 1000.0, 10.0, 1.0, 0.0);
        assert!(kurtosis(&x) < 0.0);
    }

    #[test]
    fn min_max_finds_extremes() {
        assert_eq!(min_max(&[3.0, -1.0, 2.0]), Some((-1.0, 3.0)));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        let _ = percentile(&[], 50.0);
    }
}
