//! Golden fixtures: FNV-1a checksums over the IEEE 754 bit patterns of the
//! behavioural SAR ADC's and charge-sharing encoder's outputs.
//!
//! Conversion consumes comparator-noise draws in a fixed order and sums the
//! mismatched DAC weights in a fixed order; encoding draws mismatch once and
//! kT/C noise per share in schedule order. All of it must survive any
//! rewrite of either block bit for bit.

use efficsense_blocks::cs_frontend::EncoderImperfections;
use efficsense_blocks::{ChargeSharingEncoder, SarAdc};
use efficsense_cs::SensingMatrix;
use efficsense_faults::{AdcStuckBitFault, CapLeakageFault};
use efficsense_power::{DesignParams, TechnologyParams};
use efficsense_rng::Rng64;

/// FNV-1a (64-bit) over the little-endian bit patterns of `xs`.
fn fnv(xs: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// 4300 samples spanning slightly beyond the ±1 V full scale (so clipping
/// is exercised), one detector record at the default sample rate.
fn input() -> Vec<f64> {
    let mut g = Rng64::new(0x5A2);
    (0..4300)
        .map(|i| 1.05 * (i as f64 * 0.0137).sin() + 0.01 * g.normal())
        .collect()
}

#[test]
fn sar_adc_outputs_are_pinned() {
    let tech = TechnologyParams::gpdk045();
    let x = input();
    let mut got = Vec::new();
    for bits in [6u32, 8, 10] {
        // Small unit cap (visible mismatch), comparator noise and offset.
        let mut adc = SarAdc::new(bits, 2.0, 1e-15, 2e-3, 1e-3, &tech, 17 + u64::from(bits));
        got.push((format!("nonideal_{bits}"), fnv(&adc.process_buffer(&x))));
        got.push((format!("inl_{bits}"), fnv(&adc.inl_lsb())));
        let mut ideal = SarAdc::ideal(bits, 2.0);
        got.push((format!("ideal_{bits}"), fnv(&ideal.process_buffer(&x))));
        got.push((format!("ideal_inl_{bits}"), fnv(&ideal.inl_lsb())));
    }
    // A full scale that is not a power of two, so scaling the levels rounds.
    let mut odd = SarAdc::new(8, 1.8, 1e-15, 2e-3, 1e-3, &tech, 29);
    got.push((
        "nonideal_8_vfs_1v8".to_string(),
        fnv(&odd.process_buffer(&x)),
    ));
    got.push(("inl_8_vfs_1v8".to_string(), fnv(&odd.inl_lsb())));
    let mut stuck = SarAdc::new(8, 2.0, 1e-15, 2e-3, 0.0, &tech, 23);
    stuck.inject_stuck_bit(Some(AdcStuckBitFault {
        bit: 6,
        stuck_high: true,
    }));
    got.push(("stuck_high_6".to_string(), fnv(&stuck.process_buffer(&x))));
    stuck.inject_stuck_bit(Some(AdcStuckBitFault {
        bit: 2,
        stuck_high: false,
    }));
    got.push(("stuck_low_2".to_string(), fnv(&stuck.process_buffer(&x))));
    let pinned: [u64; 16] = [
        0x9a0531291dc103bf,
        0xf76eb76570b5842c,
        0x8cc20606e15fdc22,
        0x7da144b97d054b25,
        0x1de7f1d0a4bb292d,
        0x9382273a40e03269,
        0x7468e6184ce87a59,
        0x28c31cf8df2ec325,
        0x54826625a28974b1,
        0xc50e76a47d67cc57,
        0x01b4606f75361ae7,
        0xb9d103fd6854a325,
        0xe8d01b4701422399,
        0x1c2e53b9f62c50f9,
        0xc5c9d30d5223a884,
        0x5c7febdd7f93cc14,
    ];
    assert_eq!(got.len(), pinned.len(), "case count changed");
    let moved: Vec<String> = got
        .iter()
        .zip(&pinned)
        .filter(|((_, g), p)| g != *p)
        .map(|((name, g), p)| format!("{name}: got {g:#018x}, pinned {p:#018x}"))
        .collect();
    assert!(moved.is_empty(), "golden mismatch:\n{}", moved.join("\n"));
}

/// An amplified-scale record at the encoder's sample rate: 11 frames of
/// N_Φ = 384 plus a partial frame the encoder must drop.
fn encoder_input() -> Vec<f64> {
    let mut g = Rng64::new(0xC5E);
    (0..4300)
        .map(|i| 0.4 * (i as f64 * 0.093).sin() + 0.05 * g.normal())
        .collect()
}

fn assert_pinned(got: &[(String, u64)], pinned: &[u64]) {
    assert_eq!(got.len(), pinned.len(), "case count changed");
    let moved: Vec<String> = got
        .iter()
        .zip(pinned)
        .filter(|((_, g), p)| g != *p)
        .map(|((name, g), p)| format!("{name}: got {g:#018x}, pinned {p:#018x}"))
        .collect();
    assert!(moved.is_empty(), "golden mismatch:\n{}", moved.join("\n"));
}

#[test]
fn cs_encoder_outputs_are_pinned() {
    let tech = TechnologyParams::gpdk045();
    let design = DesignParams::paper_defaults(8);
    let x = encoder_input();
    let encoder = |m: usize, imperfections: EncoderImperfections, seed: u64| {
        ChargeSharingEncoder::new(
            SensingMatrix::srbm(m, 384, 2, 0x5EB1 ^ m as u64),
            0.1e-12,
            0.5e-12,
            1.0 / design.f_sample_hz(),
            imperfections,
            &tech,
            &design,
            seed,
        )
    };
    let leak = Some(CapLeakageFault {
        leak_multiplier: 100.0,
    });
    let mut got = Vec::new();
    for m in [75usize, 192] {
        // Mismatch, kT/C and leakage; a second record continues the
        // encoder's noise stream.
        let mut enc = encoder(m, EncoderImperfections::realistic(), 0xE1 + m as u64);
        got.push((format!("realistic_m{m}"), fnv(&enc.encode_record(&x))));
        got.push((format!("realistic_m{m}_again"), fnv(&enc.encode_record(&x))));
        // The same chip with an injected hold-cap leakage fault.
        let mut faulted = encoder(m, EncoderImperfections::realistic(), 0xE1 + m as u64);
        faulted.inject_leakage_fault(leak, &tech, &design);
        got.push((format!("cap_leakage_m{m}"), fnv(&faulted.encode_record(&x))));
    }
    // The fault forces droop on even with modelled leakage switched off.
    let mut ideal = encoder(75, EncoderImperfections::ideal(), 3);
    got.push(("ideal_m75".to_string(), fnv(&ideal.encode_record(&x))));
    ideal.inject_leakage_fault(leak, &tech, &design);
    got.push((
        "ideal_cap_leakage_m75".to_string(),
        fnv(&ideal.encode_record(&x)),
    ));
    let pinned: [u64; 8] = [
        0x28323599d09532a9,
        0x3afb28d56a73e069,
        0x41864b94f88cf00a,
        0x042ae763a9256bcd,
        0x2c4edc4476be11d6,
        0xd21407ab4e381ee8,
        0xa18528edc7eb224d,
        0xba6b58f67a799a34,
    ];
    assert_pinned(&got, &pinned);
}
