//! Golden fixtures: FNV-1a checksums over the IEEE 754 bit patterns of the
//! bit-stable DSP kernels (FFT, periodogram, Welch PSD, Hjorth parameters,
//! kurtosis).
//!
//! A kernel rewrite that keeps every output bit passes unmodified; any
//! change in rounding, summation order or edge-case handling fails here
//! with the name of the case that moved. Inputs are seeded, so the
//! checksums are reproducible on any IEEE 754 host.

use efficsense_dsp::spectrum::{periodogram, welch, Psd};
use efficsense_dsp::stats::{hjorth_complexity, hjorth_mobility, kurtosis};
use efficsense_dsp::window::Window;
use efficsense_dsp::{Complex, Fft};
use efficsense_rng::Rng64;

/// FNV-1a (64-bit) over the little-endian bit patterns of `xs`.
fn fnv(xs: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fnv_complex(z: &[Complex]) -> u64 {
    fnv(z.iter().flat_map(|c| [c.re, c.im]))
}

fn fnv_psd(p: &Psd) -> u64 {
    fnv(p.values.iter().copied().chain([p.freq_resolution]))
}

fn signal(seed: u64, n: usize) -> Vec<f64> {
    let mut g = Rng64::new(seed);
    (0..n).map(|_| g.normal()).collect()
}

/// Compares every computed checksum with its pin and reports all the cases
/// that moved at once.
fn assert_golden(got: &[(String, u64)], pinned: &[u64]) {
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
fn fft_forward_and_inverse_are_pinned() {
    let mut got = Vec::new();
    for n in [1usize, 2, 8, 256, 8192] {
        let fft = Fft::new(n);
        let mut g = Rng64::new(0xF0F0 + n as u64);
        let x: Vec<Complex> = (0..n)
            .map(|_| Complex::new(g.normal(), g.normal()))
            .collect();
        let mut fwd = x.clone();
        fft.forward(&mut fwd);
        got.push((format!("forward_{n}"), fnv_complex(&fwd)));
        let mut inv = x;
        fft.inverse(&mut inv);
        got.push((format!("inverse_{n}"), fnv_complex(&inv)));
    }
    assert_golden(
        &got,
        &[
            0xa8ab344041bb88f3,
            0xa8ab344041bb88f3,
            0x68a91bb8c875be97,
            0xa8e88971bcc5f04e,
            0xa6f0310900ed6ebc,
            0xafb7a813b70d2ebc,
            0xcf11ddf50ae8e4dc,
            0xaa6c1bd0e726ea24,
            0x15a86e0093002840,
            0x65c0287f3d48388a,
        ],
    );
}

#[test]
fn periodogram_and_welch_are_pinned() {
    let mut got = Vec::new();
    // 1075 samples: a 2-s window at 537.6 Hz, the detector's decision unit.
    let x = signal(0x5EC7, 1075);
    let short = signal(0x5407, 200);
    for w in [Window::Hann, Window::Rect, Window::BlackmanHarris] {
        got.push((
            format!("periodogram_{w:?}"),
            fnv_psd(&periodogram(&x, 537.6, w)),
        ));
        got.push((
            format!("welch_256_{w:?}"),
            fnv_psd(&welch(&x, 537.6, 256, w)),
        ));
        got.push((
            format!("welch_short_{w:?}"),
            fnv_psd(&welch(&short, 537.6, 256, w)),
        ));
    }
    // One segment exactly, and a segment length that is not a power of two.
    got.push((
        "welch_exact_segment".to_string(),
        fnv_psd(&welch(&x[..256], 537.6, 256, Window::Hann)),
    ));
    got.push((
        "welch_300".to_string(),
        fnv_psd(&welch(&x, 537.6, 300, Window::Hann)),
    ));
    assert_golden(
        &got,
        &[
            0xe2031c430ba63159,
            0xd0fa9891cb4efb8f,
            0x1f1cb2c53f486a15,
            0xb06226ca127ea372,
            0xe850fea696dbc500,
            0x0a22cec3bfe81f76,
            0x49ef5d45d861f3f1,
            0xfdb4dc5c2a013cee,
            0x29716a4d32c4d32d,
            0x422179b9a16cdcf9,
            0xa6642d94448e1cbd,
        ],
    );
}

#[test]
fn hjorth_and_kurtosis_are_pinned() {
    let noise = signal(0x47_0274, 1075);
    let tone: Vec<f64> = (0..1075).map(|i| (i as f64 * 0.21).sin()).collect();
    let ramp: Vec<f64> = (0..64).map(|i| i as f64 * 0.5).collect();
    let inputs: [(&str, Vec<f64>); 10] = [
        ("noise", noise),
        ("tone", tone),
        ("ramp", ramp),
        ("constant", vec![1.5; 100]),
        ("empty", Vec::new()),
        ("len1", vec![0.3]),
        ("len2", vec![0.3, -0.7]),
        ("len3", vec![0.3, -0.7, 1.1]),
        ("len4", vec![0.3, -0.7, 1.1, 0.2]),
        ("zeros", vec![0.0; 8]),
    ];
    let got: Vec<(String, u64)> = inputs
        .iter()
        .map(|(name, x)| {
            let h = fnv([hjorth_mobility(x), hjorth_complexity(x), kurtosis(x)]);
            (name.to_string(), h)
        })
        .collect();
    assert_golden(
        &got,
        &[
            0x6bc6a0010a8a233a,
            0xe12baffbb6059fbb,
            0x089098101159bc84,
            0x81d23fd7003c2305,
            0x81d23fd7003c2305,
            0x81d23fd7003c2305,
            0x81d23fd7003c2305,
            0x70fc846f6a6e99e3,
            0x80416235fa358844,
            0x81d23fd7003c2305,
        ],
    );
}
