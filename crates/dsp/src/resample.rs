//! Sample-rate conversion.
//!
//! EffiCSense represents the sensor input on a dense "continuous-time proxy"
//! grid and lets samplers pick values off it at arbitrary instants; this
//! module provides the conversions between the dataset rate, the proxy rate
//! and block sample rates.

use crate::filter::FirFilter;

/// Linearly interpolates `x` (sampled at `fs_in`) at time `t` seconds.
///
/// Values outside the record are clamped to the edge samples.
pub fn sample_at(x: &[f64], fs_in: f64, t: f64) -> f64 {
    assert!(!x.is_empty(), "cannot sample an empty signal");
    let pos = t * fs_in;
    if pos <= 0.0 {
        return x[0];
    }
    let i = pos.floor() as usize;
    if i + 1 >= x.len() {
        return x[x.len() - 1];
    }
    let frac = pos - i as f64;
    x[i] * (1.0 - frac) + x[i + 1] * frac
}

/// Length of [`resample_linear`]'s output for an `n`-sample record: the
/// record's time span at `fs_out`, rounded to the nearest sample. Lets a
/// caller size (or key) a resampled buffer without building it.
#[must_use]
pub fn resampled_len(n: usize, fs_in: f64, fs_out: f64) -> usize {
    let duration = n as f64 / fs_in;
    (duration * fs_out).round() as usize
}

/// Linear-interpolation resampling from `fs_in` to `fs_out`, covering the
/// same time span as the input record.
///
/// # Panics
///
/// Panics if `x` is empty or a rate is not positive.
pub fn resample_linear(x: &[f64], fs_in: f64, fs_out: f64) -> Vec<f64> {
    assert!(!x.is_empty(), "cannot resample an empty signal");
    assert!(fs_in > 0.0 && fs_out > 0.0, "sample rates must be positive");
    (0..resampled_len(x.len(), fs_in, fs_out))
        .map(|i| sample_at(x, fs_in, i as f64 / fs_out))
        .collect()
}

/// Integer-factor zero-stuffing upsampler followed by an anti-imaging FIR.
///
/// Produces a smoother continuous-time proxy than linear interpolation; used
/// when converting the 173.61 Hz dataset records to the dense simulation grid.
///
/// # Panics
///
/// Panics if `factor == 0` or `x` is empty.
pub fn upsample_fir(x: &[f64], factor: usize, taps: usize) -> Vec<f64> {
    assert!(factor > 0, "upsampling factor must be positive");
    assert!(!x.is_empty(), "cannot upsample an empty signal");
    if factor == 1 {
        return x.to_vec();
    }
    let mut stuffed = vec![0.0; x.len() * factor];
    for (i, &v) in x.iter().enumerate() {
        stuffed[i * factor] = v * factor as f64; // compensate interpolation gain
    }
    // Cut at the original Nyquist: fc = 0.5 / factor of the new rate.
    let fs = factor as f64;
    let mut fir = FirFilter::lowpass(taps, 0.45, fs);
    let delay = fir.group_delay();
    let mut y = fir.filter(&stuffed);
    // Flush the group delay so output aligns with input timing.
    for _ in 0..delay {
        y.push(fir.process(0.0));
    }
    y.drain(..delay);
    y
}

/// Integer-factor decimator with anti-aliasing FIR.
///
/// # Panics
///
/// Panics if `factor == 0` or `x` is empty.
pub fn decimate(x: &[f64], factor: usize, taps: usize) -> Vec<f64> {
    assert!(factor > 0, "decimation factor must be positive");
    assert!(!x.is_empty(), "cannot decimate an empty signal");
    if factor == 1 {
        return x.to_vec();
    }
    let mut fir = FirFilter::lowpass(taps, 0.45 / factor as f64, 1.0);
    let delay = fir.group_delay();
    let mut filtered = fir.filter(x);
    for _ in 0..delay {
        filtered.push(fir.process(0.0));
    }
    filtered.drain(..delay);
    filtered.into_iter().step_by(factor).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::sine;
    use crate::stats::rms;

    #[test]
    fn sample_at_hits_grid_points() {
        let x = vec![0.0, 1.0, 4.0, 9.0];
        for (i, &v) in x.iter().enumerate() {
            assert_eq!(sample_at(&x, 10.0, i as f64 / 10.0), v);
        }
    }

    #[test]
    fn sample_at_interpolates_midpoints() {
        let x = vec![0.0, 2.0];
        assert!((sample_at(&x, 1.0, 0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_at_clamps_out_of_range() {
        let x = vec![3.0, 5.0];
        assert_eq!(sample_at(&x, 1.0, -1.0), 3.0);
        assert_eq!(sample_at(&x, 1.0, 100.0), 5.0);
    }

    #[test]
    fn resample_preserves_duration() {
        let x = vec![1.0; 1000];
        let y = resample_linear(&x, 100.0, 250.0);
        assert_eq!(y.len(), 2500);
    }

    #[test]
    fn resample_preserves_tone() {
        let fs_in = 500.0;
        let x = sine(5000, fs_in, 20.0, 1.0, 0.0);
        let y = resample_linear(&x, fs_in, 2000.0);
        let expect = sine(y.len(), 2000.0, 20.0, 1.0, 0.0);
        let err: f64 = y
            .iter()
            .zip(&expect)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / y.len() as f64;
        assert!(err.sqrt() < 0.02, "rms error {}", err.sqrt());
    }

    #[test]
    fn upsample_fir_preserves_tone_amplitude() {
        let x = sine(2048, 512.0, 10.0, 1.0, 0.0);
        let y = upsample_fir(&x, 4, 63);
        assert_eq!(y.len(), x.len() * 4);
        let r = rms(&y[2000..6000]);
        assert!(
            (r - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.02,
            "rms {r}"
        );
    }

    #[test]
    fn upsample_factor_one_is_identity() {
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(upsample_fir(&x, 1, 31), x);
    }

    #[test]
    fn decimate_then_length() {
        let x = sine(4000, 4000.0, 50.0, 1.0, 0.0);
        let y = decimate(&x, 4, 63);
        assert_eq!(y.len(), 1000);
        let r = rms(&y[200..800]);
        assert!((r - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.05);
    }

    #[test]
    fn decimate_removes_aliasing_tone() {
        let fs = 4000.0;
        // A 1.9 kHz tone would alias to 100 Hz after /4 decimation without filtering.
        let x = sine(8000, fs, 1900.0, 1.0, 0.0);
        let y = decimate(&x, 4, 127);
        assert!(rms(&y[200..1800]) < 0.02);
    }
}
