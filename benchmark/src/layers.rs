//! The traced run: the workload with a trace sink installed, then timed
//! calls into each layer's public functions on the workload's own inputs.
//!
//! Layer timings are taken from outside the program, around its public
//! calls; the cache counters come from the traced phase of the workload.

use crate::inputs::{self, DETECTOR_SEED, EPOCH_S, PUSH_LEN};
use crate::stats;
use crate::workload::{ms, remove_scratch, scratch_file, us, SetupTimes, Timed};
use efficsense_blocks::{ChargeSharingEncoder, Lna, SarAdc};
use efficsense_core::cache::{dataset_fingerprint, goal_descriptor, point_key, trained_detector};
use efficsense_core::goal::DetectionGoal;
use efficsense_core::prelude::*;
use efficsense_core::simulate::SimScratch;
use efficsense_core::sweep::{evaluate_point_prefixed, Metric};
use efficsense_cs::decode::{omp_fast, reconstruct_batch, OmpScratch};
use efficsense_cs::memo::{self, DictionaryArtifacts, DictionaryParams, StoreStats};
use efficsense_cs::recon::OmpConfig;
use efficsense_dsp::resample::resample_linear;
use efficsense_ml::FeatureExtractor;
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A trace sink that counts the bytes it is given and keeps none, so the
/// traced run pays for building and formatting every event without
/// growing memory or touching the disk.
struct CountingSink(Arc<AtomicU64>);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // relaxed: a statistic read once after the sink is removed.
        self.0.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A timed phase run with the trace sink installed.
pub struct Traced {
    /// What the phase measured.
    pub timed: Timed,
    /// Σ `sweep.point` span time over the phase (s).
    sweep_point_s: f64,
    /// L2 dictionary-store counters over the phase.
    memo: StoreStats,
    /// Trace bytes the phase emitted.
    pub trace_bytes: u64,
}

fn sweep_point_ns() -> u64 {
    efficsense_obs::global()
        .snapshot()
        .span("sweep.point")
        .map_or(0, |s| s.total_ns)
}

/// Runs the workload for `seconds` with every span and counter event
/// going to a trace sink.
pub fn traced(run: impl FnOnce(f64) -> Timed, seconds: f64) -> Traced {
    let obs = efficsense_obs::global();
    memo::reset_stats();
    let before = sweep_point_ns();
    let bytes = Arc::new(AtomicU64::new(0));
    obs.set_sink(Some(Box::new(CountingSink(Arc::clone(&bytes)))));
    let timed = run(seconds);
    obs.set_sink(None);
    let sweep_point_s = sweep_point_ns().saturating_sub(before) as f64 * 1e-9;
    Traced {
        timed,
        sweep_point_s,
        memo: memo::stats().dictionary,
        trace_bytes: bytes.load(Ordering::Relaxed),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Mean microseconds per call of `f` over `n` calls, after one untimed
/// warm-up call.
fn mean_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    f(0);
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    us(t) / n as f64
}

/// The dictionary parameters a CS configuration decodes with (the
/// derivation `Simulator::new` applies: leakage droop folded in).
fn dictionary_params(cfg: &SystemConfig) -> Option<DictionaryParams> {
    let cs = cfg.cs.as_ref()?;
    let decay = if cs.imperfections.leakage {
        let tau = cs.c_hold_f * cfg.design.v_ref / cfg.tech.i_leak_a;
        (-(1.0 / cfg.design.f_sample_hz()) / tau).exp()
    } else {
        1.0
    };
    Some(DictionaryParams {
        m: cs.m,
        n_phi: cs.n_phi,
        s: cs.s,
        seed: cfg.seed ^ 0x5EB1,
        c_sample_f: cs.c_sample_f,
        c_hold_f: cs.c_hold_f,
        decay,
        basis: cs.basis,
    })
}

/// Runs every record through resampling and the LNA (timed, µs per
/// record into `t_us`) and returns the amplified records at `f_sample`.
fn front_end(cfg: &SystemConfig, dataset: &EegDataset, t_us: &mut f64) -> Vec<Vec<f64>> {
    let f_ct = cfg.f_ct_hz();
    let t = Instant::now();
    let amplified: Vec<Vec<f64>> = dataset
        .records
        .iter()
        .map(|rec| {
            let ct = resample_linear(&rec.samples, rec.fs, f_ct);
            let mut lna = Lna::from_design(
                &cfg.design,
                cfg.lna.gain,
                cfg.lna.noise_floor_vrms,
                cfg.lna.k3,
                f_ct,
                cfg.seed ^ rec.id as u64,
            );
            black_box(lna.process_buffer(&ct))
        })
        .collect();
    *t_us = us(t) / dataset.records.len() as f64;
    amplified
        .iter()
        .map(|a| resample_linear(a, f_ct, cfg.design.f_sample_hz()))
        .collect()
}

fn adc_for(cfg: &SystemConfig) -> SarAdc {
    SarAdc::new(
        cfg.design.n_bits,
        cfg.design.v_fs,
        cfg.adc.c_u_f,
        cfg.adc.comparator_noise_v,
        cfg.adc.comparator_offset_v,
        &cfg.tech,
        cfg.seed,
    )
}

/// CS measurement frames of every record plus their decoder settings (the
/// simulator's discrepancy rule for the residual tolerance).
fn cs_frames(
    cfg: &SystemConfig,
    art: &DictionaryArtifacts,
    sampled: &[Vec<f64>],
    encode_us: &mut f64,
) -> (Vec<Vec<f64>>, Vec<OmpConfig>) {
    let cs = cfg.cs.as_ref().expect("a CS configuration");
    let f_s = cfg.design.f_sample_hz();
    let phi = memo::srbm(cs.m, cs.n_phi, cs.s, cfg.seed ^ 0x5EB1);
    let ktc_var = if cs.imperfections.ktc_noise {
        efficsense_power::kt() / cs.c_sample_f
    } else {
        0.0
    };
    let vn = cfg.lna.noise_floor_vrms * cfg.lna.gain;
    let lsb = cfg.design.lsb();
    let noise_norm =
        (((vn * vn + ktc_var) * art.mean_row_w2 + lsb * lsb / 12.0) * cs.m as f64).sqrt();
    let mut frames = Vec::new();
    let mut cfgs = Vec::new();
    let mut encode_s = 0.0;
    for (i, rec) in sampled.iter().enumerate() {
        let mut encoder = ChargeSharingEncoder::new(
            (*phi).clone(),
            cs.c_sample_f,
            cs.c_hold_f,
            1.0 / f_s,
            cs.imperfections,
            &cfg.tech,
            &cfg.design,
            cfg.seed ^ (i as u64).rotate_left(17),
        );
        let mut adc = adc_for(cfg);
        for frame in rec.chunks_exact(cs.n_phi) {
            let t = Instant::now();
            let y = black_box(encoder.encode_frame(frame));
            encode_s += t.elapsed().as_secs_f64();
            let digitised: Vec<f64> = y.iter().map(|&v| adc.process(v)).collect();
            let y_norm = efficsense_cs::linalg::norm2(&digitised).max(1e-300);
            cfgs.push(OmpConfig {
                sparsity: cs.omp_sparsity,
                residual_tol: (noise_norm / y_norm).clamp(1e-4, 0.9),
            });
            frames.push(digitised);
        }
    }
    *encode_us = encode_s * 1e6 / frames.len().max(1) as f64;
    (frames, cfgs)
}

/// p50 push latency and total push + finish time of one clean stream.
fn stream_timing(sim: &Simulator, input: &[f64], fs_in: f64) -> (f64, f64) {
    let mut stream = StreamSimulator::new(sim, fs_in, 1);
    let mut push_us = Vec::new();
    for piece in input.chunks(PUSH_LEN) {
        let t = Instant::now();
        black_box(stream.push(piece));
        push_us.push(us(t));
    }
    let t = Instant::now();
    black_box(stream.finish());
    let total_s = (push_us.iter().sum::<f64>() + us(t)) * 1e-6;
    (stats::percentile(&push_us, 50.0).unwrap_or(0.0), total_s)
}

/// Every per-layer metric except `trace.overhead`, which the caller
/// derives from the two timed phases.
#[allow(clippy::too_many_lines)]
pub fn measure(
    dataset: &EegDataset,
    seed: u64,
    traced: &Traced,
    reps: &[SetupTimes],
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let med = |f: fn(&SetupTimes) -> f64| {
        stats::median(&reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.push(("signals.generate_ms", med(|r| r.generate_ms)));
    out.push(("detector.train_ms", med(|r| r.train_ms)));

    let space = inputs::space();
    let points = space.points();
    let configs = inputs::configs(&space);
    let cells = inputs::cells(seed);
    let fs = inputs::goal_fs();

    // L2: every distinct dictionary of the space, built without the memo.
    let mut params: Vec<DictionaryParams> = Vec::new();
    for p in configs.iter().filter_map(dictionary_params) {
        if !params.contains(&p) {
            params.push(p);
        }
    }
    let t = Instant::now();
    for p in &params {
        black_box(DictionaryArtifacts::build(p));
    }
    out.push(("memo.dictionary_build_ms", ms(t) / params.len() as f64));
    let m = traced.memo;
    out.push(("memo.hit_ratio", ratio(m.hits, m.hits + m.misses)));

    // Sweep: one faulted cell on one thread with a fresh L3 store.
    let detector = trained_detector(dataset, fs, EPOCH_S, DETECTOR_SEED);
    let goal = DetectionGoal::new((*detector).clone());
    let store = Arc::new(PrefixStore::new());
    let mut scratch = SimScratch::new();
    let t = Instant::now();
    for point in &points {
        let r = evaluate_point_prefixed(
            point,
            &space,
            dataset,
            &goal,
            Some(&cells[1].plan),
            0,
            1,
            Some(Arc::clone(&store)),
            &mut scratch,
        );
        black_box(r.is_ok());
    }
    out.push(("sweep.point_ms", ms(t) / points.len() as f64));
    let busy = traced.timed.traffic.sweep_busy_s;
    out.push((
        "sweep.parallel_efficiency",
        if busy > 0.0 {
            traced.sweep_point_s / busy
        } else {
            0.0
        },
    ));

    // Simulation: the first baseline point and the last CS point, no store.
    let (base_cfg, cs_cfg) = (&configs[0], &configs[configs.len() - 1]);
    let mut record_us = 0.0;
    for cfg in [base_cfg, cs_cfg] {
        let sim = Simulator::new(cfg.clone()).expect("space configurations are valid");
        let mut scratch = SimScratch::new();
        record_us += mean_us(dataset.records.len(), |i| {
            let rec = &dataset.records[i];
            let out = sim.run_with_scratch(&rec.samples, rec.fs, rec.id as u64 + 1, &mut scratch);
            scratch.reclaim_output(black_box(out));
        });
    }
    out.push(("simulate.record_us", record_us / 2.0));

    // Blocks and decode over the front end of every CS point of the space.
    let cs_configs: Vec<&SystemConfig> = configs.iter().filter(|c| c.cs.is_some()).collect();
    let (mut frontend_us, mut encode_us, mut adc_us) = (0.0, 0.0, 0.0);
    let (mut decode_s, mut frames_total, mut support) = (0.0, 0usize, 0usize);
    let mut ws = OmpScratch::new();
    for cfg in &cs_configs {
        let mut fe_us = 0.0;
        let sampled = front_end(cfg, dataset, &mut fe_us);
        frontend_us += fe_us;
        let art = memo::dictionary(&dictionary_params(cfg).expect("a CS point"));
        let mut enc_us = 0.0;
        let (frames, cfgs) = cs_frames(cfg, &art, &sampled, &mut enc_us);
        encode_us += enc_us;
        adc_us += mean_us(sampled.len(), |i| {
            black_box(adc_for(cfg).process_buffer(&sampled[i]));
        });
        let t = Instant::now();
        black_box(reconstruct_batch(&art, &frames, &cfgs, 1));
        decode_s += t.elapsed().as_secs_f64();
        frames_total += frames.len();
        support += frames
            .iter()
            .zip(&cfgs)
            .map(|(y, c)| {
                let a = &art;
                omp_fast(&a.dictionary, &a.gram, &a.col_norms, a.ridge, y, c, &mut ws)
                    .iter()
                    .filter(|v| **v != 0.0)
                    .count()
            })
            .sum::<usize>();
    }
    let n_cs = cs_configs.len() as f64;
    out.push(("blocks.frontend_us", frontend_us / n_cs));
    out.push(("blocks.cs_encode_us", encode_us / n_cs));
    out.push(("blocks.adc_us", adc_us / n_cs));
    out.push((
        "cs.decode_us_per_frame",
        decode_s * 1e6 / frames_total as f64,
    ));
    out.push(("cs.omp_support", support as f64 / frames_total as f64));

    // Detection on 2-s windows of the clean records at the goal rate.
    let win = (EPOCH_S * fs) as usize;
    let windows: Vec<Vec<f64>> = dataset
        .records
        .iter()
        .flat_map(|r| {
            resample_linear(&r.samples, r.fs, fs)
                .chunks_exact(win)
                .map(<[f64]>::to_vec)
                .collect::<Vec<_>>()
        })
        .collect();
    let extractor = FeatureExtractor::default();
    out.push((
        "ml.features_us",
        mean_us(windows.len(), |i| {
            black_box(extractor.extract(&windows[i], fs));
        }),
    ));
    out.push((
        "detector.window_us",
        mean_us(windows.len(), |i| {
            black_box(detector.predict_window(&windows[i], fs));
        }),
    ));

    let cs_sim = Simulator::new(cs_cfg.clone()).expect("space configurations are valid");
    let v_half = cs_cfg.design.v_fs / 2.0;
    out.push((
        "power.breakdown_us",
        mean_us(2000, |_| {
            black_box(cs_sim.power_breakdown(black_box(v_half)));
        }),
    ));

    // L3 and L1 traffic of the traced phase.
    let names = [
        "prefix.ct.hit_ratio",
        "prefix.analog.hit_ratio",
        "prefix.reference.hit_ratio",
        "prefix.sampled.hit_ratio",
        "prefix.acquired.hit_ratio",
    ];
    let traffic = &traced.timed.traffic;
    for (name, (hits, misses)) in names.iter().zip(traffic.prefix) {
        out.push((name, ratio(hits, hits + misses)));
    }
    out.push(("prefix.evictions", traffic.prefix_evictions as f64));

    // L1 calls, on a cache keyed like the product's cells.
    out.push((
        "cache.dataset_fingerprint_us",
        mean_us(20, |_| {
            black_box(dataset_fingerprint(dataset));
        }),
    ));
    let ctx = EvalContext {
        goal: goal_descriptor(Metric::DetectionAccuracy, DETECTOR_SEED, EPOCH_S),
        dataset_fingerprint: dataset_fingerprint(dataset),
    };
    let pairs: Vec<(&SystemConfig, &FaultPlan)> = cells
        .iter()
        .flat_map(|c| configs.iter().map(move |cfg| (cfg, &c.plan)))
        .collect();
    let keys: Vec<PointKey> = pairs
        .iter()
        .map(|(cfg, plan)| point_key(cfg, Some(plan), &ctx))
        .collect();
    out.push((
        "cache.point_key_us",
        mean_us(pairs.len(), |i| {
            black_box(point_key(pairs[i].0, Some(pairs[i].1), &ctx));
        }),
    ));
    let cache = SweepCache::new();
    for (key, (cfg, point)) in keys.iter().zip(configs.iter().zip(&points).cycle()) {
        let sim = Simulator::new(cfg.clone()).expect("space configurations are valid");
        let breakdown = sim.power_breakdown(cfg.design.v_fs / 2.0);
        cache.insert(
            *key,
            SweepResult {
                point: point.clone(),
                metric: 0.5,
                power_w: breakdown.total().value(),
                breakdown,
                area_units: sim.area_units(),
            },
        );
    }
    out.push((
        "cache.get_us",
        mean_us(keys.len(), |i| {
            black_box(cache.get(&keys[i]));
        }),
    ));
    out.push((
        "cache.detector_lookup_us",
        mean_us(20, |_| {
            black_box((*trained_detector(dataset, fs, EPOCH_S, DETECTOR_SEED)).clone());
        }),
    ));
    let (hits, misses) = traffic.cache;
    out.push(("cache.hit_ratio", ratio(hits, hits + misses)));
    let path = scratch_file("layers");
    let t = Instant::now();
    cache.save(&path).expect("can save the probe cache");
    out.push(("cache.save_ms", ms(t)));
    let reloaded = SweepCache::new();
    let t = Instant::now();
    reloaded.load(&path).expect("can load the probe cache");
    out.push(("cache.load_ms", ms(t)));
    remove_scratch(&path);

    // Streaming vs batch on the replay input, clean static plan.
    let replay = inputs::replay(dataset);
    let (mut batch_s, mut stream_s) = (0.0, 0.0);
    for (name, arch) in [
        ("stream.push_us.baseline", Architecture::Baseline),
        ("stream.push_us.cs", Architecture::CompressiveSensing),
    ] {
        let sim =
            Simulator::new(inputs::config_for(arch)).expect("native configurations are valid");
        let (p50, total) = stream_timing(&sim, &replay.input, replay.fs_in);
        out.push((name, p50));
        stream_s += total;
        let t = Instant::now();
        black_box(sim.run(&replay.input, replay.fs_in, 1));
        batch_s += t.elapsed().as_secs_f64();
    }
    out.push(("stream.batch_ratio", batch_s / stream_s));
    out
}
