//! Benchmark: end-to-end design-point evaluation — one baseline and one CS
//! point over a single record, the unit of work the pathfinding sweep
//! repeats thousands of times — and the SAR conversion of one record.

use efficsense_bench::harness::{black_box, Harness};
use efficsense_blocks::SarAdc;
use efficsense_core::config::{CsConfig, SystemConfig};
use efficsense_core::simulate::Simulator;
use efficsense_signals::{DatasetConfig, EegDataset};

fn main() {
    let mut h = Harness::from_args();
    h.sample_size(10);
    let ds = EegDataset::generate(&DatasetConfig {
        records_per_class: 1,
        duration_s: 4.0,
        ..Default::default()
    });
    let record = &ds.records[0];

    let baseline = Simulator::new(SystemConfig::baseline(8)).expect("valid");
    h.bench_function("simulate/baseline_record_4s", |b| {
        b.iter(|| black_box(baseline.run(black_box(&record.samples), record.fs, 1)))
    });
    // The converter the baseline point builds, over one 4300-sample record.
    let cfg = SystemConfig::baseline(8);
    let input: Vec<f64> = (0..4300).map(|i| 0.9 * (i as f64 * 0.0137).sin()).collect();
    h.bench_function("simulate/sar_adc_8b_record_4300", |b| {
        b.iter(|| {
            let mut adc = SarAdc::new(
                cfg.design.n_bits,
                cfg.design.v_fs,
                cfg.adc.c_u_f,
                cfg.adc.comparator_noise_v,
                cfg.adc.comparator_offset_v,
                &cfg.tech,
                cfg.seed,
            );
            black_box(adc.process_buffer(black_box(&input)))
        })
    });
    let cs75 = Simulator::new(SystemConfig::compressive(
        8,
        CsConfig {
            m: 75,
            omp_sparsity: 30,
            ..Default::default()
        },
    ))
    .expect("valid");
    h.bench_function("simulate/cs_m75_record_4s", |b| {
        b.iter(|| black_box(cs75.run(black_box(&record.samples), record.fs, 1)))
    });
    let cs150 = Simulator::new(SystemConfig::compressive(
        8,
        CsConfig {
            m: 150,
            omp_sparsity: 50,
            ..Default::default()
        },
    ))
    .expect("valid");
    h.bench_function("simulate/cs_m150_record_4s", |b| {
        b.iter(|| black_box(cs150.run(black_box(&record.samples), record.fs, 1)))
    });
    h.bench_function("simulate/simulator_build_cs_m150", |b| {
        b.iter(|| {
            black_box(
                Simulator::new(SystemConfig::compressive(8, CsConfig::default())).expect("valid"),
            )
        })
    });
}
