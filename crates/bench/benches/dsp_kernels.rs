//! Benchmark: DSP kernels (FFT, Welch PSD, filtering, SNDR, detector
//! features) that every behavioural simulation leans on.

use efficsense_bench::harness::{black_box, Harness};
use efficsense_dsp::fft::Fft;
use efficsense_dsp::filter::{FirFilter, IirFilter, OnePole};
use efficsense_dsp::metrics::sndr_db;
use efficsense_dsp::spectrum::{sine, welch};
use efficsense_dsp::window::Window;
use efficsense_dsp::Complex;
use efficsense_ml::FeatureExtractor;
use efficsense_signals::{EegClass, EegGenerator, EegParams};

fn main() {
    let mut h = Harness::from_args();
    let x = sine(8192, 8192.0, 441.0, 1.0, 0.0);
    h.bench_function("dsp/fft_8192", |b| {
        let fft = Fft::new(8192);
        let buf: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v)).collect();
        b.iter(|| {
            let mut work = buf.clone();
            fft.forward(&mut work);
            black_box(work)
        })
    });
    h.bench_function("dsp/welch_8192_seg1024", |b| {
        b.iter(|| black_box(welch(&x, 8192.0, 1024, Window::Hann)))
    });
    // One detector decision window: 2 s at 537.6 Hz (seven Welch segments).
    let window = EegGenerator::new(EegParams::default(), 7).record(EegClass::Seizure, 537.6, 2.0);
    let extractor = FeatureExtractor::default();
    h.bench_function("dsp/features_window_1075", |b| {
        b.iter(|| black_box(extractor.extract(black_box(&window), 537.6)))
    });
    h.bench_function("dsp/sndr_8192", |b| {
        b.iter(|| black_box(sndr_db(&x, 8192.0, 441.0)))
    });
    h.bench_function("dsp/butterworth4_8192", |b| {
        b.iter(|| {
            let mut f = IirFilter::butterworth_lowpass(4, 768.0, 8192.0);
            black_box(f.filter(&x))
        })
    });
    h.bench_function("dsp/one_pole_8192", |b| {
        b.iter(|| {
            let mut f = OnePole::lowpass(768.0, 8192.0);
            black_box(x.iter().map(|&v| f.process(v)).collect::<Vec<_>>())
        })
    });
    h.bench_function("dsp/fir63_8192", |b| {
        b.iter(|| {
            let mut f = FirFilter::lowpass(63, 768.0, 8192.0);
            black_box(f.filter(&x))
        })
    });
}
