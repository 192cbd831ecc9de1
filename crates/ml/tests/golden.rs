//! Golden fixtures: FNV-1a checksums over the IEEE 754 bit patterns of
//! [`FeatureExtractor::extract`] on seeded EEG windows.
//!
//! The detector's accuracy is a function of these bits, so a rewrite of the
//! Welch or Hjorth kernels underneath must keep every one of them. One
//! extractor serves all calls, in an order that mixes short and full-length
//! records, so state reused across calls is covered too.

use efficsense_ml::{FeatureConfig, FeatureExtractor};
use efficsense_signals::{EegClass, EegGenerator, EegParams};

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

/// The detector's sample rate and decision window (2 s at 537.6 Hz).
const FS: f64 = 537.6;
const EPOCH_S: f64 = 2.0;

#[test]
fn features_of_seeded_windows_are_pinned() {
    let mut gen = EegGenerator::new(EegParams::default(), 0x6E0);
    let ex = FeatureExtractor::default();
    let mut got = Vec::new();
    for class in [EegClass::Normal, EegClass::Interictal, EegClass::Seizure] {
        let w = gen.record(class, FS, EPOCH_S);
        assert_eq!(w.len(), 1075);
        got.push((format!("{class:?}"), fnv(&ex.extract(&w, FS))));
        // A record shorter than one Welch segment, between full windows.
        got.push((format!("{class:?}_short"), fnv(&ex.extract(&w[..200], FS))));
    }
    let w = gen.record(EegClass::Seizure, FS, EPOCH_S);
    let narrow = FeatureExtractor::new(FeatureConfig {
        welch_segment: 128,
        ..FeatureConfig::default()
    });
    got.push(("segment_128".to_string(), fnv(&narrow.extract(&w, FS))));
    got.push(("silence".to_string(), fnv(&ex.extract(&[0.0; 1075], FS))));
    let pinned: [u64; 8] = [
        0x7c2da2d8248d4851,
        0x33201edff17618d1,
        0xa107d9dc85227de0,
        0x46af18e8f586c241,
        0xcfc6a627754ac08f,
        0x5be7ad79cfac84a8,
        0x70a345498180648f,
        0x9fa9e0898654ba85,
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
