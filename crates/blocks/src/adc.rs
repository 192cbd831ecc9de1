//! Behavioural SAR ADC with comparator noise/offset and capacitive-DAC
//! mismatch.
//!
//! The converter performs a real successive-approximation search against a
//! binary-weighted capacitor DAC whose per-bit weights carry mismatch drawn
//! from the technology's matching coefficient. The digital output is
//! interpreted with *ideal* weights, so mismatch appears as INL/DNL, exactly
//! as in silicon.

use efficsense_faults::AdcStuckBitFault;
use efficsense_power::models::{ComparatorModel, DacModel, SarLogicModel};
use efficsense_power::{DesignParams, PowerBreakdown, PowerModel, TechnologyParams};
use efficsense_signals::noise::Gaussian;

/// Behavioural SAR analog-to-digital converter.
///
/// Input range is bipolar `[-V_FS/2, +V_FS/2]`.
#[derive(Debug, Clone)]
pub struct SarAdc {
    // Resolution (bits) and full-scale range (V) are fixed at construction:
    // the caps and the level table below are derived from them.
    n_bits: u32,
    v_fs: f64,
    /// Unit capacitor of the DAC array (F).
    pub c_u_f: f64,
    /// Comparator input-referred noise (V rms per decision).
    pub comparator_noise_v: f64,
    /// Comparator offset (V).
    pub comparator_offset_v: f64,
    /// Actual (mismatched) per-bit capacitances, LSB first, in units of `C_u`.
    bit_caps: Vec<f64>,
    /// Total array capacitance including the termination cap, in `C_u`.
    c_total: f64,
    /// DAC output voltage (unipolar, V) of every code, tabulated once from
    /// the caps and `v_fs` (2^`n_bits` entries).
    levels: Vec<f64>,
    noise: Gaussian,
    stuck: Option<AdcStuckBitFault>,
}

impl SarAdc {
    /// Creates an ADC, drawing the DAC mismatch deterministically from
    /// `seed` using the technology matching coefficient.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n_bits <= 16`, `v_fs > 0` and `c_u_f` is at least
    /// the technology minimum.
    pub fn new(
        n_bits: u32,
        v_fs: f64,
        c_u_f: f64,
        comparator_noise_v: f64,
        comparator_offset_v: f64,
        tech: &TechnologyParams,
        seed: u64,
    ) -> Self {
        assert!(
            (1..=16).contains(&n_bits),
            "resolution {n_bits} out of range 1..=16"
        );
        assert!(v_fs > 0.0, "full scale must be positive");
        assert!(
            c_u_f >= tech.c_u_min_f,
            "unit cap {c_u_f} below technology minimum {}",
            tech.c_u_min_f
        );
        assert!(
            comparator_noise_v >= 0.0,
            "comparator noise must be non-negative"
        );
        let mut rng = Gaussian::new(seed ^ 0xADC0_ADC0);
        let sigma_unit = tech.cap_mismatch_sigma(c_u_f);
        // Bit i holds 2^i unit caps; its relative mismatch shrinks as 1/√2^i.
        let bit_caps: Vec<f64> = (0..n_bits)
            .map(|i| {
                let units = 2f64.powi(i as i32);
                let sigma = sigma_unit / units.sqrt();
                units * (1.0 + rng.sample_scaled(sigma))
            })
            .collect();
        let c_total = bit_caps.iter().sum::<f64>() + 1.0; // + termination cap
        let mut adc = Self {
            n_bits,
            v_fs,
            c_u_f,
            comparator_noise_v,
            comparator_offset_v,
            bit_caps,
            c_total,
            levels: Vec::new(),
            noise: Gaussian::new(seed ^ 0xC0DE),
            stuck: None,
        };
        adc.tabulate_levels();
        adc
    }

    /// Injects (or clears) a stuck-output-bit fault. The stuck bit index is
    /// clamped to the converter's MSB.
    pub fn inject_stuck_bit(&mut self, fault: Option<AdcStuckBitFault>) {
        self.stuck = fault;
    }

    /// An ideal converter (no mismatch, no comparator non-idealities).
    pub fn ideal(n_bits: u32, v_fs: f64) -> Self {
        let tech = TechnologyParams::gpdk045();
        let mut adc = Self::new(n_bits, v_fs, tech.c_u_min_f, 0.0, 0.0, &tech, 0);
        for (i, c) in adc.bit_caps.iter_mut().enumerate() {
            *c = 2f64.powi(i as i32);
        }
        adc.c_total = adc.bit_caps.iter().sum::<f64>() + 1.0;
        adc.tabulate_levels();
        adc
    }

    /// Rebuilds the DAC level table from the current caps: the unipolar DAC
    /// output (V) of every code under the actual mismatched weights.
    fn tabulate_levels(&mut self) {
        // A code's switched-in capacitance sums its set bits' caps LSB first,
        // so it extends the sum of the code without its top bit by one term.
        let mut levels = vec![0.0; 1usize << self.n_bits];
        for code in 1..levels.len() {
            let top = code.ilog2() as usize;
            levels[code] = levels[code ^ (1 << top)] + self.bit_caps[top];
        }
        for v in &mut levels {
            *v = self.v_fs * *v / self.c_total;
        }
        self.levels = levels;
    }

    /// Converts an input voltage to a digital code via successive
    /// approximation (input clipped to the full-scale range).
    pub fn quantize(&mut self, v_in: f64) -> u32 {
        // Shift to unipolar [0, FS].
        let u = (v_in + self.v_fs / 2.0).clamp(0.0, self.v_fs);
        let mut code = 0u32;
        for i in (0..self.n_bits).rev() {
            let trial = code | (1 << i);
            let v_dac = self.levels[trial as usize];
            let decision_noise = if self.comparator_noise_v > 0.0 {
                self.noise.sample_scaled(self.comparator_noise_v)
            } else {
                0.0
            };
            // Keep the bit if the input (plus comparator error) is above the
            // trial level's midpoint reference. Bit `i` is still clear here,
            // so OR-ing the decision in equals assigning `trial` on a keep.
            let keep = u + decision_noise + self.comparator_offset_v >= v_dac;
            code |= u32::from(keep) << i;
        }
        if let Some(f) = &self.stuck {
            let mask = 1u32 << f.bit.min(self.n_bits - 1);
            if f.stuck_high {
                code |= mask;
            } else {
                code &= !mask;
            }
        }
        code
    }

    /// Converts a digital code back to a bipolar voltage using *ideal*
    /// weights (what the digital back-end believes).
    pub fn reconstruct(&self, code: u32) -> f64 {
        let steps = (1u64 << self.n_bits) as f64;
        (code as f64 + 0.5) / steps * self.v_fs - self.v_fs / 2.0
    }

    /// Full conversion: analog in, ideal-weight analog interpretation out.
    pub fn process(&mut self, v_in: f64) -> f64 {
        let code = self.quantize(v_in);
        self.reconstruct(code)
    }

    /// Converts a whole buffer.
    pub fn process_buffer(&mut self, x: &[f64]) -> Vec<f64> {
        x.iter().map(|&v| self.process(v)).collect()
    }

    /// Quantisation step (ideal LSB, V).
    pub fn lsb(&self) -> f64 {
        self.v_fs / (1u64 << self.n_bits) as f64
    }

    /// Integral nonlinearity curve in LSB, one entry per code, measured from
    /// the actual DAC levels (excludes comparator noise).
    pub fn inl_lsb(&self) -> Vec<f64> {
        let lsb = self.lsb();
        self.levels
            .iter()
            .enumerate()
            .map(|(code, &actual)| {
                let ideal = code as f64 * lsb;
                (actual - ideal) / lsb
            })
            .collect()
    }

    /// Differential nonlinearity in LSB, one entry per code transition
    /// (`steps − 1` entries): the deviation of each step width from one LSB.
    pub fn dnl_lsb(&self) -> Vec<f64> {
        let inl = self.inl_lsb();
        inl.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Code-density (histogram) linearity test: converts a slow full-range
    /// ramp of `samples_per_code · 2^N` points and estimates DNL from the
    /// relative occupancy of each code — the standard lab method, which sees
    /// the *whole* converter (comparator noise included), unlike
    /// [`SarAdc::dnl_lsb`] which reads the DAC levels directly.
    ///
    /// Returns per-code DNL estimates in LSB (first and last code excluded,
    /// as is conventional — their bins are unbounded).
    pub fn histogram_dnl_lsb(&mut self, samples_per_code: usize) -> Vec<f64> {
        assert!(samples_per_code >= 4, "need several samples per code");
        let steps = 1usize << self.n_bits;
        let total = samples_per_code * steps;
        let mut counts = vec![0usize; steps];
        for i in 0..total {
            // Slow ramp covering slightly beyond full scale.
            let v = -self.v_fs / 2.0 + self.v_fs * (i as f64 + 0.5) / total as f64;
            counts[self.quantize(v) as usize] += 1;
        }
        // Interior codes: expected occupancy is samples_per_code.
        counts[1..steps - 1]
            .iter()
            .map(|&c| c as f64 / samples_per_code as f64 - 1.0)
            .collect()
    }

    /// Combined power breakdown of the converter's three Table II models
    /// (comparator, SAR logic, DAC) for a scenario with RMS input `v_in_rms`.
    pub fn power_breakdown(
        &self,
        v_in_rms: f64,
        tech: &TechnologyParams,
        design: &DesignParams,
    ) -> PowerBreakdown {
        let mut b = PowerBreakdown::new();
        let comp = ComparatorModel;
        let logic = SarLogicModel::default();
        let dac = DacModel {
            c_u_f: self.c_u_f,
            v_in_rms,
        };
        b.add(comp.kind(), comp.power(tech, design));
        b.add(logic.kind(), logic.power(tech, design));
        b.add(dac.kind(), dac.power(tech, design));
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_dsp::metrics::enob;
    use efficsense_dsp::spectrum::{coherent_frequency, sine};

    #[test]
    fn ideal_quantization_error_bounded_by_half_lsb() {
        let mut adc = SarAdc::ideal(8, 2.0);
        let lsb = adc.lsb();
        for k in -100..=100 {
            let v = k as f64 * 0.009;
            let out = adc.process(v);
            assert!((out - v).abs() <= lsb, "error {} at {v}", (out - v).abs());
        }
    }

    #[test]
    fn codes_monotonic_for_ideal_adc() {
        let mut adc = SarAdc::ideal(6, 2.0);
        let mut last = 0;
        for i in 0..2000 {
            let v = -1.0 + 2.0 * i as f64 / 2000.0;
            let c = adc.quantize(v);
            assert!(c >= last, "non-monotonic at {v}");
            last = c;
        }
        assert_eq!(last, 63);
    }

    #[test]
    fn full_scale_extremes() {
        let mut adc = SarAdc::ideal(8, 2.0);
        assert_eq!(adc.quantize(-2.0), 0); // clipped
        assert_eq!(adc.quantize(2.0), 255); // clipped
    }

    #[test]
    fn ideal_adc_achieves_nominal_enob() {
        let fs = 8192.0;
        let n = 16384;
        let f0 = coherent_frequency(419.0, fs, n);
        let x = sine(n, fs, f0, 0.99, 0.0); // almost full scale of ±1
        let mut adc = SarAdc::ideal(8, 2.0);
        let y = adc.process_buffer(&x);
        let e = enob(&y, fs, f0);
        assert!((e - 8.0).abs() < 0.3, "ENOB {e}");
    }

    #[test]
    fn comparator_noise_degrades_enob() {
        let fs = 8192.0;
        let n = 16384;
        let f0 = coherent_frequency(419.0, fs, n);
        let x = sine(n, fs, f0, 0.99, 0.0);
        let tech = TechnologyParams::gpdk045();
        let mut noisy = SarAdc::new(8, 2.0, 1e-15, 0.02, 0.0, &tech, 1);
        let y = noisy.process_buffer(&x);
        let e = enob(&y, fs, f0);
        assert!(
            e < 7.0,
            "noisy comparator ENOB {e} should drop well below 8"
        );
    }

    #[test]
    fn mismatch_creates_inl() {
        let tech = TechnologyParams::gpdk045();
        // Small unit cap → bad matching → visible INL.
        let adc = SarAdc::new(10, 2.0, 1e-15, 0.0, 0.0, &tech, 3);
        let inl = adc.inl_lsb();
        let max_inl = inl.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max_inl > 0.01, "max INL {max_inl}");
        // Ideal converter has zero INL.
        let ideal = SarAdc::ideal(10, 2.0);
        let max_ideal = ideal.inl_lsb().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max_ideal < 1e-9);
    }

    #[test]
    fn larger_unit_caps_match_better() {
        let tech = TechnologyParams::gpdk045();
        let small = SarAdc::new(10, 2.0, 1e-15, 0.0, 0.0, &tech, 5);
        let large = SarAdc::new(10, 2.0, 100e-15, 0.0, 0.0, &tech, 5);
        let worst = |a: &SarAdc| a.inl_lsb().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(worst(&large) < worst(&small));
    }

    #[test]
    fn dnl_derives_from_inl() {
        let tech = TechnologyParams::gpdk045();
        let adc = SarAdc::new(8, 2.0, 1e-15, 0.0, 0.0, &tech, 11);
        let inl = adc.inl_lsb();
        let dnl = adc.dnl_lsb();
        assert_eq!(dnl.len(), inl.len() - 1);
        // Reconstruct INL by integrating DNL.
        let mut acc = inl[0];
        for (k, d) in dnl.iter().enumerate() {
            acc += d;
            assert!((acc - inl[k + 1]).abs() < 1e-12);
        }
    }

    #[test]
    fn ideal_adc_histogram_dnl_is_flat() {
        let mut adc = SarAdc::ideal(6, 2.0);
        let dnl = adc.histogram_dnl_lsb(64);
        let worst = dnl.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(worst < 0.05, "ideal histogram DNL {worst}");
    }

    #[test]
    fn histogram_test_sees_mismatch() {
        let tech = TechnologyParams::gpdk045();
        // Bad matching: visible DNL through the histogram method too.
        let mut adc = SarAdc::new(8, 2.0, 1e-15, 0.0, 0.0, &tech, 3);
        let hist = adc.histogram_dnl_lsb(32);
        let worst_hist = hist.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let worst_direct = adc.dnl_lsb().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(
            worst_hist > 0.3 * worst_direct,
            "{worst_hist} vs {worst_direct}"
        );
    }

    #[test]
    fn offset_shifts_transfer() {
        let tech = TechnologyParams::gpdk045();
        let mut plain = SarAdc::new(8, 2.0, 1e-12, 0.0, 0.0, &tech, 7);
        let mut offset = SarAdc::new(8, 2.0, 1e-12, 0.0, 0.1, &tech, 7);
        // +100 mV offset moves codes up by ~12.8 LSB at mid-scale.
        let c0 = plain.quantize(0.0);
        let c1 = offset.quantize(0.0);
        assert!(
            (c1 as i64 - c0 as i64 - 13).unsigned_abs() <= 1,
            "{c0} vs {c1}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let tech = TechnologyParams::gpdk045();
        let mut a = SarAdc::new(8, 2.0, 1e-15, 0.01, 0.0, &tech, 9);
        let mut b = SarAdc::new(8, 2.0, 1e-15, 0.01, 0.0, &tech, 9);
        let x: Vec<f64> = (0..100).map(|i| (i as f64 * 0.07).sin()).collect();
        assert_eq!(a.process_buffer(&x), b.process_buffer(&x));
    }

    #[test]
    fn power_breakdown_has_three_blocks() {
        let tech = TechnologyParams::gpdk045();
        let design = DesignParams::paper_defaults(8);
        let adc = SarAdc::ideal(8, 2.0);
        let b = adc.power_breakdown(0.5, &tech, &design);
        assert!(b.get(efficsense_power::BlockKind::Comparator).value() > 0.0);
        assert!(b.get(efficsense_power::BlockKind::SarLogic).value() > 0.0);
        assert!(b.get(efficsense_power::BlockKind::Dac).value() > 0.0);
    }

    #[test]
    #[should_panic(expected = "below technology minimum")]
    fn rejects_tiny_unit_cap() {
        let tech = TechnologyParams::gpdk045();
        let _ = SarAdc::new(8, 2.0, 1e-16, 0.0, 0.0, &tech, 0);
    }

    #[test]
    fn stuck_high_bit_never_clears() {
        use efficsense_faults::AdcStuckBitFault;
        let mut adc = SarAdc::ideal(8, 2.0);
        adc.inject_stuck_bit(Some(AdcStuckBitFault {
            bit: 5,
            stuck_high: true,
        }));
        for i in 0..500 {
            let v = -1.0 + 2.0 * i as f64 / 500.0;
            assert_ne!(adc.quantize(v) & (1 << 5), 0, "bit 5 must read high at {v}");
        }
    }

    #[test]
    fn stuck_msb_halves_the_code_space() {
        use efficsense_faults::AdcStuckBitFault;
        let mut adc = SarAdc::ideal(8, 2.0);
        adc.inject_stuck_bit(Some(AdcStuckBitFault {
            bit: 7,
            stuck_high: false,
        }));
        assert_eq!(adc.quantize(0.999), 127, "MSB stuck low caps the range");
    }

    #[test]
    fn stuck_bit_index_clamps_to_msb() {
        use efficsense_faults::AdcStuckBitFault;
        let mut adc = SarAdc::ideal(6, 2.0);
        adc.inject_stuck_bit(Some(AdcStuckBitFault {
            bit: 31,
            stuck_high: true,
        }));
        assert_ne!(adc.quantize(-1.0) & (1 << 5), 0, "clamped to bit 5 of 6");
    }

    #[test]
    fn msb_stuck_degrades_more_than_lsb_stuck() {
        use efficsense_faults::AdcStuckBitFault;
        let x: Vec<f64> = (0..512).map(|i| 0.9 * (i as f64 * 0.13).sin()).collect();
        let err_with_bit = |bit: u32| {
            let mut adc = SarAdc::ideal(8, 2.0);
            adc.inject_stuck_bit(Some(AdcStuckBitFault {
                bit,
                stuck_high: true,
            }));
            let y = adc.process_buffer(&x);
            x.iter()
                .zip(&y)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        };
        assert!(err_with_bit(7) > 10.0 * err_with_bit(0));
    }
}
