//! Radix-2 fast Fourier transform.
//!
//! The [`Fft`] planner precomputes twiddle factors and the bit-reversal
//! permutation for a fixed power-of-two size, then performs forward and
//! inverse transforms in place. A convenience real-input path
//! ([`Fft::forward_real`]) zero-pads/windows at the caller's discretion and
//! returns the complex spectrum.

use crate::complex::Complex;

/// Planned radix-2 FFT of a fixed power-of-two length.
///
/// ```
/// use efficsense_dsp::{Complex, Fft};
/// let fft = Fft::new(8);
/// let mut x: Vec<Complex> = (0..8).map(|n| Complex::from_real(n as f64)).collect();
/// let orig = x.clone();
/// fft.forward(&mut x);
/// fft.inverse(&mut x);
/// for (a, b) in x.iter().zip(&orig) {
///     assert!((a.re - b.re).abs() < 1e-10);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    // Forward twiddles laid out stage by stage: the stage with half-length h
    // holds exp(-2πi·k·(n/2h)/n) for k < h at offset h − 1, so each stage's
    // butterflies read one contiguous slice (n − 1 entries in total).
    twiddles: Vec<Complex>,
    bitrev: Vec<usize>,
}

impl Fft {
    /// Plans an FFT of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n > 0 && n.is_power_of_two(),
            "FFT length {n} must be a power of two"
        );
        let base: Vec<Complex> = (0..n / 2)
            .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut half = 1;
        while half < n {
            let step = n / (2 * half);
            twiddles.extend((0..half).map(|k| base[k * step]));
            half *= 2;
        }
        let bits = n.trailing_zeros();
        let bitrev = (0..n)
            .map(|i| i.reverse_bits() >> (usize::BITS - bits.max(1)))
            .collect::<Vec<_>>();
        // For n == 1 the shift above is wrong; fix up trivially.
        let bitrev = if n == 1 { vec![0] } else { bitrev };
        Self {
            n,
            twiddles,
            bitrev,
        }
    }

    /// Transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` when the planned length is zero (never; kept for API
    /// completeness alongside [`Fft::len`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn permute(&self, buf: &mut [Complex]) {
        for i in 0..self.n {
            let j = self.bitrev[i];
            if i < j {
                buf.swap(i, j);
            }
        }
    }

    /// Radix-2 butterfly passes over a bit-reversed buffer, reading each
    /// stage's twiddles from the stage-major table `twiddles`.
    fn butterflies(buf: &mut [Complex], twiddles: &[Complex]) {
        let mut half = 1;
        while half < buf.len() {
            let w = &twiddles[half - 1..2 * half - 1];
            for block in buf.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(w) {
                    let t = *b * w;
                    let u = *a;
                    *a = u + t;
                    *b = u - t;
                }
            }
            half *= 2;
        }
    }

    /// In-place forward DFT: `X[k] = Σ x[n]·e^(−2πikn/N)`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the planned length.
    pub fn forward(&self, buf: &mut [Complex]) {
        assert_eq!(
            buf.len(),
            self.n,
            "buffer length must equal planned FFT length"
        );
        debug_assert!(
            buf.iter().all(|z| z.re.is_finite() && z.im.is_finite()),
            "fft::forward: non-finite input sample"
        );
        self.permute(buf);
        Self::butterflies(buf, &self.twiddles);
        debug_assert!(
            buf.iter().all(|z| z.re.is_finite() && z.im.is_finite()),
            "fft::forward: non-finite spectrum bin"
        );
    }

    /// In-place inverse DFT including the `1/N` normalisation.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the planned length.
    pub fn inverse(&self, buf: &mut [Complex]) {
        assert_eq!(
            buf.len(),
            self.n,
            "buffer length must equal planned FFT length"
        );
        self.permute(buf);
        // The inverse runs the same butterflies over conjugated twiddles.
        let conj: Vec<Complex> = self.twiddles.iter().map(|w| w.conj()).collect();
        Self::butterflies(buf, &conj);
        let inv = 1.0 / self.n as f64;
        for z in buf.iter_mut() {
            *z = z.scale(inv);
        }
        debug_assert!(
            buf.iter().all(|z| z.re.is_finite() && z.im.is_finite()),
            "fft::inverse: non-finite output sample"
        );
    }

    /// Forward transform of a real signal.
    ///
    /// The input is zero-padded (or truncated) to the planned length and the
    /// full complex spectrum of length `N` is returned.
    pub fn forward_real(&self, x: &[f64]) -> Vec<Complex> {
        let mut buf = vec![Complex::ZERO; self.n];
        for (b, &v) in buf.iter_mut().zip(x.iter()) {
            *b = Complex::from_real(v);
        }
        self.forward(&mut buf);
        buf
    }
}

/// Returns the smallest power of two that is `>= n`.
///
/// ```
/// assert_eq!(efficsense_dsp::fft::next_pow2(1000), 1024);
/// assert_eq!(efficsense_dsp::fft::next_pow2(1024), 1024);
/// ```
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

/// Naive O(N²) DFT used as a reference in tests and for odd lengths.
///
/// Computes `X[k] = Σ x[n]·e^(−2πikn/N)` for any length.
pub fn dft_naive(x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &v) in x.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc += v * Complex::cis(ang);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn matches_naive_dft() {
        for &n in &[2usize, 4, 8, 16, 64] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let expect = dft_naive(&x);
            let fft = Fft::new(n);
            let mut got = x.clone();
            fft.forward(&mut got);
            for (g, e) in got.iter().zip(&expect) {
                assert!(close(*g, *e, 1e-9), "n={n}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        let n = 256;
        let fft = Fft::new(n);
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 2.0).cos()))
            .collect();
        let mut y = x.clone();
        fft.forward(&mut y);
        fft.inverse(&mut y);
        for (a, b) in y.iter().zip(&x) {
            assert!(close(*a, *b, 1e-9));
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let n = 32;
        let fft = Fft::new(n);
        let mut x = vec![Complex::ZERO; n];
        x[0] = Complex::ONE;
        fft.forward(&mut x);
        for z in &x {
            assert!(close(*z, Complex::ONE, 1e-12));
        }
    }

    #[test]
    fn single_bin_sine() {
        let n = 64;
        let fft = Fft::new(n);
        let k0 = 5;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k0 as f64 * i as f64 / n as f64).sin())
            .collect();
        let spec = fft.forward_real(&x);
        // Energy concentrated in bins k0 and n-k0, each with magnitude n/2.
        assert!((spec[k0].abs() - n as f64 / 2.0).abs() < 1e-9);
        assert!((spec[n - k0].abs() - n as f64 / 2.0).abs() < 1e-9);
        for (k, z) in spec.iter().enumerate() {
            if k != k0 && k != n - k0 {
                assert!(z.abs() < 1e-9, "leakage at bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 128;
        let fft = Fft::new(n);
        let x: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.013).sin()).collect();
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let spec = fft.forward_real(&x);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
    }

    #[test]
    fn length_one_is_identity() {
        let fft = Fft::new(1);
        let mut x = vec![Complex::new(3.0, -2.0)];
        fft.forward(&mut x);
        assert_eq!(x[0], Complex::new(3.0, -2.0));
        fft.inverse(&mut x);
        assert_eq!(x[0], Complex::new(3.0, -2.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        let _ = Fft::new(12);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn rejects_wrong_buffer() {
        let fft = Fft::new(8);
        let mut x = vec![Complex::ZERO; 4];
        fft.forward(&mut x);
    }
}
