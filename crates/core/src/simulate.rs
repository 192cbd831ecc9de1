//! End-to-end system simulation (functional + power, simultaneously).

use crate::config::{ConfigError, CsConfig, SystemConfig};
use crate::prefix::{self, AcquiredPrefix, AnalogParams, EncodedParams, PrefixKey, PrefixStore};
use efficsense_blocks::{ChargeSharingEncoder, Lna, Sampler, SarAdc, Transmitter};
use efficsense_cs::decode::reconstruct_batch;
use efficsense_cs::matrix::SensingMatrix;
use efficsense_cs::memo::{self, DictionaryArtifacts, DictionaryParams};
use efficsense_cs::recon::OmpConfig;
use efficsense_dsp::resample::{resample_linear, resampled_len, sample_at};
use efficsense_faults::{FaultPlan, LinkStats};
use efficsense_power::area::AreaModel;
use efficsense_power::models::SampleHoldModel;
use efficsense_power::{PowerBreakdown, PowerModel};
use efficsense_rng::Rng64;
use efficsense_signals::noise::Gaussian;
use std::sync::Arc;

/// Per-block fault-stream salts (see [`FaultPlan::stream`]); spaced so the
/// per-record mix `salt + 256·noise_seed` stays injective.
pub(crate) const SALT_LNA: u64 = 1;
pub(crate) const SALT_CLOCK: u64 = 2;
pub(crate) const SALT_LINK: u64 = 3;

/// Mixes a block salt with the record's noise seed so every record sees a
/// fresh fault realisation while staying reproducible.
pub(crate) fn record_salt(salt: u64, noise_seed: u64) -> u64 {
    salt.wrapping_add(noise_seed.wrapping_mul(256))
}

/// The result of simulating one record through a candidate system.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutput {
    /// The acquired signal referred back to the sensor input (V), at
    /// `f_sample`. For the CS architecture this is the reconstruction.
    pub input_referred: Vec<f64>,
    /// The clean input resampled to `f_sample` and trimmed to the same
    /// length — the reference for SNR-style metrics.
    pub reference: Vec<f64>,
    /// Output sample rate (Hz).
    pub fs_out: f64,
    /// Per-block power estimate of the configuration (W).
    pub power: PowerBreakdown,
    /// Total capacitor count in multiples of `C_u,min` (the Fig. 9 x-axis).
    pub area_units: f64,
    /// Data words sent to the transmitter for this record.
    pub words: u64,
    /// Radio-link accounting when a packet-loss fault is injected; `None`
    /// on the clean path.
    pub link: Option<LinkStats>,
}

impl SimOutput {
    /// Total power (W).
    #[must_use]
    pub fn total_power_w(&self) -> f64 {
        self.power.total().value()
    }
}

/// Executes a [`SystemConfig`] on input records.
///
/// The simulator precomputes everything that is fixed per design point
/// (sensing matrix, effective-matrix dictionary); [`Simulator::run`] then
/// processes one record. Mismatch draws are fixed per simulator (one "chip"),
/// noise streams vary with the `noise_seed` so repeated records see fresh
/// noise.
#[derive(Debug, Clone)]
pub struct Simulator {
    pub(crate) cfg: SystemConfig,
    pub(crate) arch: ArchState,
    /// Injected fault plan; `None` (and clean plans) leave every block's
    /// behaviour bit-identical to the unfaulted simulator.
    pub(crate) plan: Option<FaultPlan>,
    /// Worker threads for the batched per-record OMP decode (`<= 1` decodes
    /// inline). Not part of [`SystemConfig`]: thread count never changes
    /// results (the batch decoder is bit-identical across counts), so it
    /// must not perturb cache keys.
    pub(crate) decode_threads: usize,
    /// Attached Level-3 prefix store ([`crate::prefix`]); `None` runs every
    /// stage from scratch. Like `decode_threads`, the store never changes
    /// results — artifacts are derived from their keys — so it is not part
    /// of any cache key.
    pub(crate) prefix: Option<Arc<PrefixStore>>,
    /// Full configuration rendering, computed once per simulator; the
    /// config axis of the `acquired` prefix key.
    pub(crate) cfg_key: Arc<str>,
    /// Canonical fault-plan rendering (`"clean"` when no active plan); the
    /// plan axis of the `acquired` prefix key. Kept in lockstep with `plan`
    /// by [`Simulator::set_fault_plan`].
    pub(crate) plan_key: Arc<str>,
    /// The converter as built for `cfg` (mismatch drawn, DAC levels
    /// tabulated). Each record converts on a fresh clone, whose
    /// comparator-noise stream starts where a newly built converter's would.
    pub(crate) adc: SarAdc,
}

/// Reusable per-thread simulation buffers. A sweep worker holds one scratch
/// for its whole run: [`Simulator::run_with_scratch`] draws output buffers
/// from the pool instead of allocating, and the worker returns them with
/// [`SimScratch::reclaim_output`] once the goal function has consumed the
/// [`SimOutput`]. Purely an allocation-traffic optimisation — every buffer
/// is cleared before reuse, so results are bit-identical with or without
/// scratch reuse.
#[derive(Debug, Default)]
pub struct SimScratch {
    pool: Vec<Vec<f64>>,
}

impl SimScratch {
    /// An empty scratch pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pops a cleared buffer with at least `capacity` reserved.
    fn take(&mut self, capacity: usize) -> Vec<f64> {
        let mut v = self.pool.pop().unwrap_or_default();
        v.clear();
        v.reserve(capacity);
        v
    }

    /// Returns a buffer to the pool for reuse.
    pub fn reclaim(&mut self, v: Vec<f64>) {
        // Cap the pool so a scratch held across heterogeneous workloads
        // cannot accumulate buffers without bound.
        if self.pool.len() < 8 {
            self.pool.push(v);
        }
    }

    /// Returns a consumed output's signal buffers to the pool.
    pub fn reclaim_output(&mut self, out: SimOutput) {
        self.reclaim(out.input_referred);
        self.reclaim(out.reference);
    }
}

/// A signal buffer that is either shared out of the prefix store or owned
/// by this run; both deref to the same slice, keeping the downstream
/// pipeline agnostic of where its input came from.
enum Buf {
    Shared(Arc<Vec<f64>>),
    Owned(Vec<f64>),
}

impl std::ops::Deref for Buf {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match self {
            Buf::Shared(v) => v,
            Buf::Owned(v) => v,
        }
    }
}

/// Architecture-specific precomputed state. Splitting this out of
/// [`Simulator`] (instead of a trio of `Option`s) lets the CS paths borrow
/// their state without `expect`-style unwrapping.
#[derive(Debug, Clone)]
pub(crate) enum ArchState {
    /// Nyquist baseline: nothing to precompute per design point.
    Baseline,
    /// Compressive sensing: sensing schedule and decoder dictionary.
    Cs(CsState),
}

#[derive(Debug, Clone)]
pub(crate) struct CsState {
    /// The CS design variables (copied out of the config so the CS paths
    /// never have to re-unwrap `cfg.cs`).
    pub(crate) cs: CsConfig,
    /// The sensing schedule, shared process-wide across simulators with the
    /// same `(M, N_Φ, s, seed)` via [`efficsense_cs::memo`].
    pub(crate) phi: Arc<SensingMatrix>,
    /// The seed `phi` was drawn from (an axis of the `encoded` prefix key).
    pub(crate) phi_seed: u64,
    /// Decoder dictionary `A = Φ_eff·Ψ`, its OMP column norms, and the
    /// mean row energy of the effective matrix (the per-measurement noise
    /// gain of the discrepancy stopping rule) — likewise memoized.
    pub(crate) art: Arc<DictionaryArtifacts>,
}

impl Simulator {
    /// Builds a simulator after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint as a [`ConfigError`].
    pub fn new(cfg: SystemConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let arch = if let Some(cs) = &cfg.cs {
            let seed = cfg.seed ^ 0x5EB1;
            let phi = memo::srbm(cs.m, cs.n_phi, cs.s, seed);
            // Leakage-aware decoding: the droop is set by design constants
            // (τ = C_hold·V_ref/I_leak), so the decoder folds it into the
            // effective matrix alongside the Eq. (1) weights. Only the
            // random imperfections (mismatch, kT/C) stay unmodelled.
            let decay = if cs.imperfections.leakage {
                let tau = cs.c_hold_f * cfg.design.v_ref / cfg.tech.i_leak_a;
                (-(1.0 / cfg.design.f_sample_hz()) / tau).exp()
            } else {
                1.0
            };
            // Dictionary, column norms and noise gain are memoized
            // process-wide: every design point sharing this sensing
            // configuration reuses one bit-identical instance.
            let art = memo::dictionary(&DictionaryParams {
                m: cs.m,
                n_phi: cs.n_phi,
                s: cs.s,
                seed,
                c_sample_f: cs.c_sample_f,
                c_hold_f: cs.c_hold_f,
                decay,
                basis: cs.basis,
            });
            ArchState::Cs(CsState {
                cs: cs.clone(),
                phi,
                phi_seed: seed,
                art,
            })
        } else {
            ArchState::Baseline
        };
        // The full `Debug` rendering covers every configuration field — the
        // same sufficiency argument as the L1 point key — and is computed
        // once here rather than per record.
        let cfg_key = Arc::from(format!("{cfg:?}"));
        let adc = SarAdc::new(
            cfg.design.n_bits,
            cfg.design.v_fs,
            cfg.adc.c_u_f,
            cfg.adc.comparator_noise_v,
            cfg.adc.comparator_offset_v,
            &cfg.tech,
            cfg.seed,
        );
        Ok(Self {
            adc,
            cfg,
            arch,
            plan: None,
            decode_threads: 1,
            prefix: None,
            cfg_key,
            plan_key: Arc::from("clean"),
        })
    }

    /// Sets the decode fan-out for subsequent [`Simulator::run`] calls.
    /// Sweeps already parallelise across points, so the default (inline)
    /// is right unless a single point is being evaluated in isolation.
    pub fn set_decode_threads(&mut self, threads: usize) {
        self.decode_threads = threads.max(1);
    }

    /// Builds a simulator with a fault plan injected from the start.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint as a [`ConfigError`].
    pub fn with_fault_plan(cfg: SystemConfig, plan: FaultPlan) -> Result<Self, ConfigError> {
        let mut sim = Self::new(cfg)?;
        sim.set_fault_plan(Some(plan));
        Ok(sim)
    }

    /// Installs (or clears) the fault plan for subsequent [`Simulator::run`]
    /// calls. Members the architecture never reads are dropped first (today:
    /// hold-cap leakage on the baseline chain, which has no charge-sharing
    /// encoder), so the plan and its `acquired` key cover only faults that
    /// reach a stage. Plans left clean are dropped so the clean path stays
    /// bit-identical.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan
            .map(|mut p| {
                if matches!(self.arch, ArchState::Baseline) {
                    p.leakage = None;
                }
                p
            })
            .filter(|p| !p.is_clean());
        self.plan_key = match &self.plan {
            Some(p) => Arc::from(p.canonical_key()),
            None => Arc::from("clean"),
        };
    }

    /// Attaches (or detaches) a Level-3 prefix store. Attaching a store
    /// never changes any output bit — see [`crate::prefix`] — it only lets
    /// records reuse front-end artifacts built by earlier runs, including
    /// runs of other simulators sharing the same store.
    pub fn set_prefix_store(&mut self, store: Option<Arc<PrefixStore>>) {
        self.prefix = store;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// The configuration under simulation.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Baseline S&H capacitor (F): the kT/C bound clamped to the technology
    /// minimum — at biomedical resolutions matching, not noise, sets the cap.
    pub(crate) fn sh_cap_f(&self) -> f64 {
        self.cfg
            .design
            .c_sample_bound()
            .value()
            .max(self.cfg.tech.c_u_min_f)
    }

    /// Capacitance loading the LNA: S&H cap (baseline) or `C_hold` (CS).
    pub fn lna_load_f(&self) -> f64 {
        match &self.cfg.cs {
            Some(cs) => cs.c_hold_f,
            None => self.sh_cap_f(),
        }
    }

    /// Simulates one record (`input` at `fs_in` Hz). `noise_seed` decorrelates
    /// the noise streams between records.
    ///
    /// # Panics
    ///
    /// Panics if `input` is empty, `fs_in <= 0`, or (CS only) the record is
    /// shorter than one `N_Φ`-sample frame at `f_sample`.
    pub fn run(&self, input: &[f64], fs_in: f64, noise_seed: u64) -> SimOutput {
        self.run_with_scratch(input, fs_in, noise_seed, &mut SimScratch::new())
    }

    /// [`Simulator::run`] drawing its output buffers from a caller-held
    /// scratch pool; sweep workers keep one per thread so steady-state
    /// evaluation stops allocating per record.
    ///
    /// # Panics
    ///
    /// As [`Simulator::run`].
    pub fn run_with_scratch(
        &self,
        input: &[f64],
        fs_in: f64,
        noise_seed: u64,
        scratch: &mut SimScratch,
    ) -> SimOutput {
        assert!(!input.is_empty(), "cannot simulate an empty record");
        assert!(fs_in > 0.0, "input rate must be positive");
        if let ArchState::Cs(state) = &self.arch {
            let n_samples = (input.len() as f64 / fs_in * self.cfg.design.f_sample_hz()) as usize;
            assert!(
                n_samples >= state.cs.n_phi,
                "record too short for the CS architecture: {n_samples} samples at f_sample \
                 but one frame needs N_Φ = {}",
                state.cs.n_phi
            );
        }
        let cfg = &self.cfg;
        let f_s = cfg.design.f_sample_hz();
        // L3: fingerprint the record once per run; every prefix key hangs
        // off it. `None` keeps the store-less path allocation-for-allocation
        // identical to before the store existed.
        let store = self
            .prefix
            .as_deref()
            .map(|s| (s, prefix::record_fingerprint(input)));
        let build = |scratch: &mut SimScratch| {
            let (acquired, words, adc_in_rms, link) = self.acquire(input, fs_in, noise_seed, store);
            // Refer back to the sensor input.
            let mut input_referred = scratch.take(acquired.len());
            input_referred.extend(acquired.iter().map(|v| v / cfg.lna.gain));
            efficsense_dsp::approx::debug_assert_all_finite(
                &input_referred,
                "simulate: input-referred output",
            );
            scratch.reclaim(acquired);
            AcquiredPrefix {
                input_referred,
                words,
                adc_in_rms,
                link,
            }
        };
        // Deepest prefix first: a whole acquired front-end output makes the
        // resample/LNA/encode/decode chain unnecessary.
        let acq = match store {
            None => build(scratch),
            Some((s, fp)) => {
                let key =
                    prefix::acquired_key(&self.cfg_key, &self.plan_key, fp, fs_in, noise_seed);
                let shared = s.acquired.get_or_insert_with(&key, || {
                    let built = build(scratch);
                    efficsense_dsp::approx::debug_assert_all_finite(
                        &built.input_referred,
                        "prefix: acquired artifact",
                    );
                    built
                });
                let mut input_referred = scratch.take(shared.input_referred.len());
                input_referred.extend_from_slice(&shared.input_referred);
                AcquiredPrefix {
                    input_referred,
                    ..*shared
                }
            }
        };
        let reference =
            self.reference_signal(input, fs_in, f_s, acq.input_referred.len(), store, scratch);
        let power = {
            let _power_span = efficsense_obs::span!("stage.power");
            self.power_breakdown(acq.adc_in_rms)
        };
        SimOutput {
            input_referred: acq.input_referred,
            reference,
            fs_out: f_s,
            power,
            area_units: self.area_units(),
            words: acq.words,
            link: acq.link,
        }
    }

    /// Steps 1–3: the analog front end (resample + LNA) and the
    /// architecture-specific acquisition, with the front-end output shared
    /// through the prefix store when one is attached. The analog key is
    /// derived from the exact LNA constructor inputs and fault stream, so
    /// two runs sharing a key are bit-identical by construction.
    fn acquire(
        &self,
        input: &[f64],
        fs_in: f64,
        noise_seed: u64,
        store: Option<(&PrefixStore, u64)>,
    ) -> (Vec<f64>, u64, f64, Option<LinkStats>) {
        let cfg = &self.cfg;
        let f_ct = cfg.f_ct_hz();
        let lna_seed = cfg.seed ^ noise_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let lna_fault = self.plan.as_ref().and_then(|plan| {
            plan.lna
                .filter(|f| !f.is_noop())
                .map(|f| (f, plan.stream(record_salt(SALT_LNA, noise_seed))))
        });
        let analog_key = store.map(|(s, fp)| {
            (
                s,
                prefix::analog_key(&AnalogParams {
                    record_fp: fp,
                    fs_in,
                    f_ct,
                    gain: cfg.lna.gain,
                    noise_floor_vrms: cfg.lna.noise_floor_vrms,
                    bandwidth_hz: cfg.design.bw_lna_hz(),
                    k3: cfg.lna.k3,
                    v_clip: cfg.design.v_dd / 2.0,
                    lna_seed,
                    fault: lna_fault,
                }),
            )
        });
        // Steps 1–2 under their own span so per-stage telemetry separates the
        // analog front end from acquisition and decode. Run on demand: a CS
        // `encoded` hit needs no amplified buffer at all.
        let amplified = || -> Buf {
            let _analog_span = efficsense_obs::span!("sim.analog");
            let build = || {
                // Priced by the L3 cache-efficacy report: this span is
                // exactly the work an `memo.analog` hit avoids.
                let _build_span = efficsense_obs::span!("sim.analog.build");
                let ct = self.ct_signal(input, fs_in, f_ct, store);
                // LNA: fresh instance; noise varies with the record.
                let mut lna = Lna::from_design(
                    &cfg.design,
                    cfg.lna.gain,
                    cfg.lna.noise_floor_vrms,
                    cfg.lna.k3,
                    f_ct,
                    lna_seed,
                );
                if let Some((fault, stream_seed)) = lna_fault {
                    lna.inject_rail_fault(Some(fault), stream_seed);
                }
                lna.process_buffer(&ct)
            };
            let amplified = match analog_key {
                Some((s, key)) => Buf::Shared(s.analog.get_or_insert_with(&key, || {
                    let built = build();
                    efficsense_dsp::approx::debug_assert_all_finite(
                        &built,
                        "prefix: analog artifact",
                    );
                    built
                })),
                None => Buf::Owned(build()),
            };
            efficsense_dsp::approx::debug_assert_all_finite(&amplified, "simulate: LNA output");
            amplified
        };
        // Step 3: architecture-specific acquisition.
        match &self.arch {
            ArchState::Baseline => self.acquire_baseline(&amplified(), f_ct, noise_seed),
            ArchState::Cs(state) => {
                let n_ct = resampled_len(input.len(), fs_in, f_ct);
                self.acquire_cs(state, n_ct, f_ct, noise_seed, analog_key, amplified)
            }
        }
    }

    /// The resampled continuous-time record — via the prefix store when one
    /// is attached (the artifact is fault-free and config-independent, so it
    /// is shared across every sweep point touching this record).
    fn ct_signal(
        &self,
        input: &[f64],
        fs_in: f64,
        f_ct: f64,
        store: Option<(&PrefixStore, u64)>,
    ) -> Buf {
        match store {
            Some((s, fp)) => {
                let key = prefix::ct_key(fp, fs_in, f_ct);
                Buf::Shared(s.ct.get_or_insert_with(&key, || {
                    let ct = resample_linear(input, fs_in, f_ct);
                    efficsense_dsp::approx::debug_assert_all_finite(&ct, "prefix: ct artifact");
                    ct
                }))
            }
            None => Buf::Owned(resample_linear(input, fs_in, f_ct)),
        }
    }

    /// The clean reference signal (input at `f_sample`, exactly `len`
    /// samples), memoized per record when a store is attached. The collect
    /// covers `0..len` exactly, so no trailing truncation is needed.
    fn reference_signal(
        &self,
        input: &[f64],
        fs_in: f64,
        f_s: f64,
        len: usize,
        store: Option<(&PrefixStore, u64)>,
        scratch: &mut SimScratch,
    ) -> Vec<f64> {
        let build = |out: &mut Vec<f64>| {
            // Priced by the L3 cache-efficacy report (memo.reference).
            let _build_span = efficsense_obs::span!("sim.reference.build");
            out.extend((0..len).map(|i| sample_at(input, fs_in, i as f64 / f_s)));
        };
        let mut reference = scratch.take(len);
        match store {
            Some((s, fp)) => {
                let key = prefix::reference_key(fp, fs_in, f_s, len);
                let shared = s.reference.get_or_insert_with(&key, || {
                    let mut built = Vec::with_capacity(len);
                    build(&mut built);
                    built
                });
                reference.extend_from_slice(&shared);
            }
            None => build(&mut reference),
        }
        reference
    }

    /// Simulates the lossy link over a word stream, concealing undelivered
    /// words by holding the last delivered value (the receiver's zero-order
    /// concealment). Returns `None` stats when no link fault is active.
    fn apply_link_hold(&self, data: &mut [f64], noise_seed: u64) -> Option<LinkStats> {
        let plan = self.plan.as_ref()?;
        let link = plan.link.filter(|l| !l.is_noop())?;
        let mut rng = Rng64::new(plan.stream(record_salt(SALT_LINK, noise_seed)));
        let (delivered, stats) = link.apply(data.len(), &mut rng);
        let mut held = 0.0;
        for (v, ok) in data.iter_mut().zip(&delivered) {
            if *ok {
                held = *v;
            } else {
                *v = held;
            }
        }
        Some(stats)
    }

    fn acquire_baseline(
        &self,
        amplified: &[f64],
        f_ct: f64,
        noise_seed: u64,
    ) -> (Vec<f64>, u64, f64, Option<LinkStats>) {
        let cfg = &self.cfg;
        let mut sampler = Sampler::new(
            cfg.design.f_sample_hz(),
            self.sh_cap_f(),
            0.0,
            cfg.seed ^ noise_seed ^ 0x5A5A,
        );
        if let Some(plan) = &self.plan {
            sampler
                .inject_clock_fault(plan.clock, plan.stream(record_salt(SALT_CLOCK, noise_seed)));
        }
        let sampled = sampler.sample(amplified, f_ct);
        let mut adc = self.adc.clone();
        if let Some(plan) = &self.plan {
            adc.inject_stuck_bit(plan.adc);
        }
        // Shifted RMS as a running fold — the same sequential square/sum/
        // sqrt order as `dsp::stats::rms` over a shifted copy (bit-identical)
        // without materialising the copy.
        let mut shifted_sq = 0.0;
        for v in &sampled {
            let s = v + cfg.design.v_fs / 2.0;
            shifted_sq += s * s;
        }
        let shifted_rms = if sampled.is_empty() {
            0.0
        } else {
            (shifted_sq / sampled.len() as f64).sqrt()
        };
        let mut out = adc.process_buffer(&sampled);
        let words = out.len() as u64;
        let link = self.apply_link_hold(&mut out, noise_seed);
        (out, words, shifted_rms, link)
    }

    /// Step 3 of the CS chain. `n_ct` is the length of the amplified buffer
    /// that `amplified` builds on demand; the `encoded` prefix key needs it
    /// before (and, on a hit, instead of) the buffer itself.
    fn acquire_cs(
        &self,
        state: &CsState,
        n_ct: usize,
        f_ct: f64,
        noise_seed: u64,
        analog_key: Option<(&PrefixStore, PrefixKey)>,
        amplified: impl FnOnce() -> Buf,
    ) -> (Vec<f64>, u64, f64, Option<LinkStats>) {
        let cfg = &self.cfg;
        let cs = &state.cs;
        let art = state.art.as_ref();
        let f_s = cfg.design.f_sample_hz();
        // The encoder's own sample caps do the sampling; take ideal instants
        // unless a clock fault jitters/drops them.
        let duration = n_ct as f64 / f_ct;
        let n_samples = (duration * f_s).floor() as usize;
        let clock = self
            .plan
            .as_ref()
            .and_then(|p| p.clock.filter(|c| !c.is_noop()));
        let leakage = self
            .plan
            .as_ref()
            .and_then(|p| p.leakage.filter(|f| !f.is_noop()));
        let encoder_seed = cfg.seed ^ noise_seed.rotate_left(17);
        // Charge sharing runs before the ADC: the whole record's `n_frames × M`
        // measurements depend on the sampled input, the encoder's constructor
        // inputs and the leakage fault only. The encoder and ADC draw from
        // independent streams, so encoding every frame before digitising any
        // changes no bit.
        let encode = |sampled: &[f64]| -> Vec<f64> {
            // Priced by the L3 cache-efficacy report (memo.encoded).
            let _build_span = efficsense_obs::span!("sim.encode.build");
            let mut encoder = ChargeSharingEncoder::new(
                state.phi.as_ref().clone(),
                cs.c_sample_f,
                cs.c_hold_f,
                1.0 / f_s,
                cs.imperfections,
                &cfg.tech,
                &cfg.design,
                encoder_seed,
            );
            encoder.inject_leakage_fault(leakage, &cfg.tech, &cfg.design);
            encoder.encode_record(sampled)
        };
        let sample = |amplified: &[f64]| -> Vec<f64> {
            // Priced by the L3 cache-efficacy report (memo.sampled).
            let _build_span = efficsense_obs::span!("sim.sample.build");
            debug_assert_eq!(amplified.len(), n_ct, "amplified buffer length");
            (0..n_samples)
                .map(|i| sample_at(amplified, f_ct, i as f64 / f_s))
                .collect()
        };
        let measurements: Buf = match (clock, analog_key) {
            (Some(c), _) => {
                // Mirrors Sampler's fault path: a failed acquisition holds the
                // previous sample-cap charge. (Not memoized: clock faults are a
                // per-plan stream, so sharing would buy nothing.)
                let amplified = amplified();
                let seed = self
                    .plan
                    .as_ref()
                    .map_or(0, |p| p.stream(record_salt(SALT_CLOCK, noise_seed)));
                let mut jitter_rng = Gaussian::new(seed ^ 0x0C10_CC00);
                let mut drop_rng = Rng64::new(seed ^ 0x0D20_9ED5);
                let mut sampled = Vec::with_capacity(n_samples);
                let mut held = 0.0;
                for i in 0..n_samples {
                    let mut t = i as f64 / f_s;
                    if c.jitter_periods > 0.0 {
                        t += jitter_rng.sample_scaled(c.jitter_periods / f_s);
                    }
                    if drop_rng.chance(c.drop_prob) {
                        sampled.push(held);
                        continue;
                    }
                    held = sample_at(&amplified, f_ct, t.max(0.0));
                    sampled.push(held);
                }
                Buf::Owned(encode(&sampled))
            }
            (None, Some((s, analog))) => {
                // Clean-clock sampling is a pure function of the amplified
                // buffer, so its key composes the analog key, and the encoded
                // key composes that. Deepest first: an encoded hit touches
                // neither the sampled nor the analog class.
                let sampled_key = prefix::sampled_key(analog, f_s, n_samples);
                let key = prefix::encoded_key(&EncodedParams {
                    sampled: sampled_key,
                    m: cs.m,
                    n_phi: cs.n_phi,
                    s: cs.s,
                    phi_seed: state.phi_seed,
                    c_sample_f: cs.c_sample_f,
                    c_hold_f: cs.c_hold_f,
                    sample_period_s: 1.0 / f_s,
                    imperfections: cs.imperfections,
                    cap_density_f_per_um2: cfg.tech.cap_density_f_per_um2,
                    c_pk_frac_um2: cfg.tech.c_pk_frac_um2,
                    i_leak_a: cfg.tech.i_leak_a,
                    v_ref: cfg.design.v_ref,
                    encoder_seed,
                    leakage,
                });
                Buf::Shared(s.encoded.get_or_insert_with(&key, || {
                    let sampled = s
                        .sampled
                        .get_or_insert_with(&sampled_key, || sample(&amplified()));
                    encode(&sampled)
                }))
            }
            (None, None) => Buf::Owned(encode(&sample(&amplified()))),
        };
        let mut adc = self.adc.clone();
        let mut link_ctx = None;
        if let Some(plan) = &self.plan {
            adc.inject_stuck_bit(plan.adc);
            if let Some(l) = plan.link.filter(|l| !l.is_noop()) {
                link_ctx = Some((
                    l,
                    Rng64::new(plan.stream(record_salt(SALT_LINK, noise_seed))),
                ));
            }
        }
        // Discrepancy-principle stopping (Morozov): the designer knows the
        // front-end noise level, so the decoder stops fitting once the
        // residual reaches the expected measurement noise instead of fitting
        // noise into spurious atoms. Per-measurement noise variance:
        //   (vn·gain)²·Σw²  (sampled LNA noise through the weights)
        // + σ_kTC²·Σw²      (per-share sampling noise)
        // + LSB²/12         (measurement quantisation).
        let sampled_noise = cfg.lna.noise_floor_vrms * cfg.lna.gain;
        let ktc_var = if cs.imperfections.ktc_noise {
            efficsense_power::kt() / cs.c_sample_f
        } else {
            0.0
        };
        let lsb = cfg.design.lsb();
        let meas_noise_var =
            (sampled_noise * sampled_noise + ktc_var) * art.mean_row_w2 + lsb * lsb / 12.0;
        let noise_norm = (meas_noise_var * cs.m as f64).sqrt();
        let mut out = Vec::with_capacity(n_samples);
        let mut words = 0u64;
        let mut rms_acc = 0.0;
        let mut rms_n = 0usize;
        let mut link_stats: Option<LinkStats> = None;
        // Digitise every frame (the ADC is stateful, so its sample order is
        // unchanged), then hand the whole record to the batched decoder in
        // one call.
        let n_frames = n_samples / cs.n_phi;
        let mut frames: Vec<Vec<f64>> = Vec::with_capacity(n_frames);
        let mut omp_cfgs: Vec<OmpConfig> = Vec::with_capacity(n_frames);
        let encode_span = efficsense_obs::span!("sim.encode");
        for y in measurements.chunks_exact(cs.m) {
            // Digitise the measurements.
            let mut digitised: Vec<f64> = y.iter().map(|&v| adc.process(v)).collect();
            words += digitised.len() as u64;
            for &v in &digitised {
                rms_acc += (v + cfg.design.v_fs / 2.0).powi(2);
                rms_n += 1;
            }
            // Measurement words lost on the radio: the decoder knows which
            // packets never arrived, so it treats them as zero-valued
            // measurements (erasure handling) before inverting.
            if let Some((l, rng)) = &mut link_ctx {
                let (delivered, stats) = l.apply(digitised.len(), rng);
                for (v, ok) in digitised.iter_mut().zip(&delivered) {
                    if !*ok {
                        *v = 0.0;
                    }
                }
                link_stats
                    .get_or_insert_with(LinkStats::default)
                    .accumulate(&stats);
            }
            let y_norm = efficsense_cs::linalg::norm2(&digitised).max(1e-300);
            omp_cfgs.push(OmpConfig {
                sparsity: cs.omp_sparsity,
                residual_tol: (noise_norm / y_norm).clamp(1e-4, 0.9),
            });
            frames.push(digitised);
        }
        drop(encode_span);
        // Decode with the nominal dictionary (the decoder does not know the
        // mismatch/kTC realisation). All frames of the record go through the
        // Gram-cached batch decoder in one call.
        {
            let _recon_span = efficsense_obs::span!("stage.reconstruct");
            let decoded = reconstruct_batch(art, &frames, &omp_cfgs, self.decode_threads);
            for xh in decoded {
                out.extend(xh);
            }
        }
        let adc_in_rms = if rms_n > 0 {
            (rms_acc / rms_n as f64).sqrt()
        } else {
            0.0
        };
        (out, words, adc_in_rms, link_stats)
    }

    /// Assembles the Table II power breakdown for this configuration.
    ///
    /// `adc_in_rms` is the measured RMS at the converter input (unipolar
    /// frame), feeding the signal-dependent DAC switching model.
    pub fn power_breakdown(&self, adc_in_rms: f64) -> PowerBreakdown {
        let cfg = &self.cfg;
        let mut b = PowerBreakdown::new();
        // LNA.
        let lna = Lna::from_design(
            &cfg.design,
            cfg.lna.gain,
            cfg.lna.noise_floor_vrms,
            cfg.lna.k3,
            cfg.f_ct_hz(),
            0,
        );
        b.add(
            efficsense_power::BlockKind::Lna,
            lna.power(self.lna_load_f(), &cfg.tech, &cfg.design),
        );
        // ADC (comparator + SAR logic + DAC).
        b = b.merged(&self.adc.power_breakdown(adc_in_rms, &cfg.tech, &cfg.design));
        // A lossy link retransmits: the radio clocks out expected-attempts×
        // the data words, inflating the average TX power by the same factor.
        let retry_factor = self
            .plan
            .as_ref()
            .and_then(|p| p.link.filter(|l| !l.is_noop()))
            .map_or(1.0, |l| l.expected_attempts());
        match &self.arch {
            ArchState::Baseline => {
                // S&H plus Nyquist-rate transmission.
                b.add(
                    efficsense_power::BlockKind::SampleHold,
                    SampleHoldModel.power(&cfg.tech, &cfg.design),
                );
                let tx = Transmitter::baseline(&cfg.design);
                b.add(
                    efficsense_power::BlockKind::Transmitter,
                    tx.power(&cfg.tech, &cfg.design) * retry_factor,
                );
            }
            ArchState::Cs(state) => {
                let cs = &state.cs;
                let enc = ChargeSharingEncoder::new(
                    state.phi.as_ref().clone(),
                    cs.c_sample_f,
                    cs.c_hold_f,
                    1.0 / cfg.design.f_sample_hz(),
                    cs.imperfections,
                    &cfg.tech,
                    &cfg.design,
                    cfg.seed,
                );
                b = b.merged(&enc.power_breakdown(&cfg.tech, &cfg.design));
                let tx = Transmitter::compressive(&cfg.design, cs.m, cs.n_phi);
                b.add(
                    efficsense_power::BlockKind::Transmitter,
                    tx.power(&cfg.tech, &cfg.design) * retry_factor,
                );
            }
        }
        b
    }

    /// A human-readable specification sheet of this design point: the
    /// architecture, its Table III parameters, the estimated per-block power
    /// at a nominal mid-scale input, area, and data rate.
    pub fn spec_sheet(&self) -> String {
        use std::fmt::Write as _;
        let cfg = &self.cfg;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "EffiCSense design point — {} architecture",
            cfg.architecture()
        );
        let _ = writeln!(s, "--------------------------------------------------");
        let _ = writeln!(
            s,
            "ADC: {} bit SAR @ {:.1} Hz (f_clk {:.1} Hz), V_FS {} V",
            cfg.design.n_bits,
            cfg.design.f_sample_hz(),
            cfg.design.f_clk_hz(),
            cfg.design.v_fs
        );
        let _ = writeln!(
            s,
            "LNA: gain {:.0}, noise floor {:.2} µVrms, BW {:.0} Hz",
            cfg.lna.gain,
            cfg.lna.noise_floor_vrms * 1e6,
            cfg.design.bw_lna_hz()
        );
        if let Some(cs) = &cfg.cs {
            let _ = writeln!(
                s,
                "CS encoder: M {} / N_Φ {} (s = {}), C_sample {:.2} pF, C_hold {:.2} pF, basis {}",
                cs.m,
                cs.n_phi,
                cs.s,
                cs.c_sample_f * 1e12,
                cs.c_hold_f * 1e12,
                cs.basis
            );
            let _ = writeln!(
                s,
                "decoder: OMP k = {}, leakage-aware effective matrix",
                cs.omp_sparsity
            );
        }
        let _ = writeln!(s, "area: {:.0} C_u,min", self.area_units());
        let _ = writeln!(s, "power @ mid-scale input:");
        let _ = write!(s, "{}", self.power_breakdown(cfg.design.v_fs / 2.0));
        s
    }

    /// Total capacitor count in `C_u,min` multiples (Fig. 9 x-axis).
    pub fn area_units(&self) -> f64 {
        let cfg = &self.cfg;
        let model = match &cfg.cs {
            None => AreaModel::baseline(&cfg.tech, &cfg.design, cfg.adc.c_u_f),
            Some(cs) => AreaModel::compressive(
                &cfg.tech,
                &cfg.design,
                cfg.adc.c_u_f,
                cs.m,
                cs.s,
                cs.c_hold_f,
                cs.c_sample_f,
            ),
        };
        model.total_units(&cfg.tech)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CsConfig;
    use efficsense_dsp::metrics::snr_fit_db;
    use efficsense_dsp::spectrum::sine;

    fn eeg_like_tone(fs: f64, seconds: f64) -> Vec<f64> {
        // 8 Hz, 100 µV: inside every band of interest.
        sine((fs * seconds) as usize, fs, 8.0, 100e-6, 0.3)
    }

    #[test]
    fn baseline_acquires_tone_with_good_snr() {
        let mut cfg = SystemConfig::baseline(8);
        cfg.lna.noise_floor_vrms = 1e-6;
        let sim = Simulator::new(cfg).expect("valid");
        let x = eeg_like_tone(173.61, 4.0);
        let out = sim.run(&x, 173.61, 1);
        assert_eq!(out.fs_out, 537.6);
        assert_eq!(out.input_referred.len(), out.reference.len());
        let snr = snr_fit_db(&out.reference, &out.input_referred);
        assert!(snr > 20.0, "baseline SNR {snr} dB");
    }

    #[test]
    fn baseline_snr_degrades_with_lna_noise() {
        let x = eeg_like_tone(173.61, 4.0);
        let snr_at = |noise: f64| {
            let mut cfg = SystemConfig::baseline(8);
            cfg.lna.noise_floor_vrms = noise;
            let sim = Simulator::new(cfg).expect("valid");
            let out = sim.run(&x, 173.61, 1);
            snr_fit_db(&out.reference, &out.input_referred)
        };
        let quiet = snr_at(1e-6);
        let noisy = snr_at(20e-6);
        assert!(quiet > noisy + 10.0, "quiet {quiet} vs noisy {noisy}");
    }

    #[test]
    fn cs_reconstructs_tone() {
        let mut cfg = SystemConfig::compressive(8, CsConfig::default());
        cfg.lna.noise_floor_vrms = 2e-6;
        let sim = Simulator::new(cfg).expect("valid");
        let x = eeg_like_tone(173.61, 4.0);
        let out = sim.run(&x, 173.61, 1);
        // 4 s → 2150 samples → 5 full frames of 384.
        assert_eq!(out.input_referred.len(), 5 * 384);
        let snr = snr_fit_db(&out.reference, &out.input_referred);
        assert!(snr > 8.0, "CS reconstruction SNR {snr} dB");
    }

    #[test]
    fn cs_sends_fewer_words_than_baseline() {
        let x = eeg_like_tone(173.61, 4.0);
        let base = Simulator::new(SystemConfig::baseline(8))
            .expect("valid")
            .run(&x, 173.61, 0);
        let cs_cfg = CsConfig {
            m: 75,
            ..Default::default()
        };
        let cs = Simulator::new(SystemConfig::compressive(8, cs_cfg))
            .expect("valid")
            .run(&x, 173.61, 0);
        assert!(
            cs.words * 4 < base.words,
            "cs {} vs baseline {}",
            cs.words,
            base.words
        );
    }

    #[test]
    fn cs_transmitter_power_lower_baseline_logic_higher() {
        let x = eeg_like_tone(173.61, 4.0);
        let base = Simulator::new(SystemConfig::baseline(8))
            .expect("valid")
            .run(&x, 173.61, 0);
        let cs = Simulator::new(SystemConfig::compressive(
            8,
            CsConfig {
                m: 75,
                ..Default::default()
            },
        ))
        .expect("valid")
        .run(&x, 173.61, 0);
        use efficsense_power::BlockKind::*;
        assert!(cs.power.get(Transmitter) < 0.3 * base.power.get(Transmitter));
        assert!(cs.power.get(CsEncoderLogic) > base.power.get(CsEncoderLogic));
    }

    #[test]
    fn cs_area_much_larger() {
        let base = Simulator::new(SystemConfig::baseline(8)).expect("valid");
        let cs = Simulator::new(SystemConfig::compressive(8, CsConfig::default())).expect("valid");
        assert!(cs.area_units() > 10.0 * base.area_units());
    }

    #[test]
    fn deterministic_per_seed() {
        let x = eeg_like_tone(173.61, 2.0);
        let sim = Simulator::new(SystemConfig::baseline(8)).expect("valid");
        assert_eq!(sim.run(&x, 173.61, 7), sim.run(&x, 173.61, 7));
    }

    #[test]
    fn different_noise_seeds_differ() {
        let x = eeg_like_tone(173.61, 2.0);
        let sim = Simulator::new(SystemConfig::baseline(8)).expect("valid");
        assert_ne!(
            sim.run(&x, 173.61, 1).input_referred,
            sim.run(&x, 173.61, 2).input_referred
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = SystemConfig::baseline(8);
        cfg.lna.gain = -1.0;
        assert!(Simulator::new(cfg).is_err());
    }

    #[test]
    #[should_panic(expected = "record too short")]
    fn cs_rejects_sub_frame_records() {
        let sim = Simulator::new(SystemConfig::compressive(8, CsConfig::default())).expect("valid");
        // 0.5 s at 537.6 Hz is only 268 samples < N_Φ = 384.
        let x = eeg_like_tone(173.61, 0.5);
        let _ = sim.run(&x, 173.61, 1);
    }

    #[test]
    fn spec_sheet_mentions_key_parameters() {
        let sim = Simulator::new(SystemConfig::compressive(8, CsConfig::default())).expect("valid");
        let sheet = sim.spec_sheet();
        assert!(sheet.contains("cs architecture"));
        assert!(sheet.contains("8 bit SAR"));
        assert!(sheet.contains("M 150 / N_Φ 384"));
        assert!(sheet.contains("TOTAL"));
        let base = Simulator::new(SystemConfig::baseline(6)).expect("valid");
        let sheet = base.spec_sheet();
        assert!(sheet.contains("baseline architecture"));
        assert!(sheet.contains("6 bit SAR"));
        assert!(!sheet.contains("CS encoder"));
    }

    #[test]
    fn clean_fault_plan_is_bit_identical_for_both_architectures() {
        use efficsense_faults::FaultPlan;
        let x = eeg_like_tone(173.61, 4.0);
        for cfg in [
            SystemConfig::baseline(8),
            SystemConfig::compressive(8, CsConfig::default()),
        ] {
            let clean = Simulator::new(cfg.clone()).expect("valid");
            let faulted = Simulator::with_fault_plan(cfg, FaultPlan::clean(0xFA17)).expect("valid");
            assert_eq!(
                clean.run(&x, 173.61, 3),
                faulted.run(&x, 173.61, 3),
                "a clean plan must not perturb the simulation"
            );
        }
    }

    #[test]
    fn baseline_drops_the_leakage_fault_it_never_reads() {
        use efficsense_faults::{FaultKind, FaultPlan};
        let x = eeg_like_tone(173.61, 4.0);
        let leak = FaultPlan::single(FaultKind::CapLeakage, 1.0, 0xFA17);
        let mut clean = Simulator::new(SystemConfig::baseline(8)).expect("valid");
        let mut leaky =
            Simulator::with_fault_plan(SystemConfig::baseline(8), leak.clone()).expect("valid");
        assert_eq!(
            leaky.fault_plan(),
            None,
            "a leakage-only plan is clean here"
        );
        assert_eq!(leaky.plan_key, clean.plan_key);
        let store = Arc::new(PrefixStore::new());
        clean.set_prefix_store(Some(Arc::clone(&store)));
        leaky.set_prefix_store(Some(Arc::clone(&store)));
        let a = clean.run(&x, 173.61, 3);
        let b = leaky.run(&x, 173.61, 3);
        assert_eq!(a, b, "leakage must not perturb the baseline chain");
        let acquired = store.stats().acquired;
        assert_eq!((acquired.misses, acquired.hits), (1, 1), "one shared key");
        // Other members survive the scoping, and CS keeps the leakage.
        let mut mixed = leak.clone();
        mixed.adc = FaultPlan::single(FaultKind::AdcStuckBit, 1.0, 0xFA17).adc;
        leaky.set_fault_plan(Some(mixed));
        let kept = leaky.fault_plan().expect("the ADC fault stays");
        assert!(kept.adc.is_some() && kept.leakage.is_none());
        let cs =
            Simulator::with_fault_plan(SystemConfig::compressive(8, CsConfig::default()), leak)
                .expect("valid");
        assert!(cs.fault_plan().is_some_and(|p| p.leakage.is_some()));
    }

    #[test]
    fn encoded_artifact_is_shared_across_resolutions_and_adc_faults() {
        use efficsense_faults::{FaultKind, FaultPlan};
        let x = eeg_like_tone(173.61, 4.0);
        let cs = |bits: u32, plan: Option<FaultPlan>| {
            let mut sim = Simulator::new(SystemConfig::compressive(bits, CsConfig::default()))
                .expect("valid");
            sim.set_fault_plan(plan);
            sim
        };
        let adc = FaultPlan::single(FaultKind::AdcStuckBit, 1.0, 5);
        let link = FaultPlan::single(FaultKind::PacketLoss, 0.5, 5);
        let leak = FaultPlan::single(FaultKind::CapLeakage, 1.0, 5);
        let sims = [
            cs(8, None),
            cs(6, None),
            cs(8, Some(adc)),
            cs(10, Some(link)),
            cs(8, Some(leak)),
        ];
        let store = Arc::new(PrefixStore::new());
        for (i, sim) in sims.iter().enumerate() {
            let off = sim.run(&x, 173.61, 2);
            let mut on = sim.clone();
            on.set_prefix_store(Some(Arc::clone(&store)));
            assert_eq!(
                off,
                on.run(&x, 173.61, 2),
                "store changed output of sim {i}"
            );
        }
        // Resolution, ADC and link faults share the clean encoding; the
        // leakage fault reaches the encoder and keys apart.
        let encoded = store.stats().encoded;
        assert_eq!((encoded.misses, encoded.hits), (2, 3));
        // Encoded hits touch no shallower class, and the leaky encoding's
        // sampled hit touches no LNA buffer: one sampling, one LNA pass.
        let s = store.stats();
        assert_eq!((s.sampled.misses, s.sampled.hits), (1, 1));
        assert_eq!((s.analog.misses, s.analog.hits), (1, 0));
    }

    #[test]
    fn every_fault_kind_degrades_snr_on_its_architecture() {
        use efficsense_faults::{FaultKind, FaultPlan};
        let x = eeg_like_tone(173.61, 4.0);
        let snr_of = |cfg: SystemConfig, plan: Option<FaultPlan>| {
            let mut sim = Simulator::new(cfg).expect("valid");
            sim.set_fault_plan(plan);
            let out = sim.run(&x, 173.61, 1);
            snr_fit_db(&out.reference, &out.input_referred)
        };
        for kind in FaultKind::ALL {
            // CapLeakage only exists in the CS chain; everything else is
            // checked on the cheaper baseline chain.
            let cfg = if kind == FaultKind::CapLeakage {
                SystemConfig::compressive(8, CsConfig::default())
            } else {
                SystemConfig::baseline(8)
            };
            let clean = snr_of(cfg.clone(), None);
            let faulted = snr_of(cfg, Some(FaultPlan::single(kind, 1.0, 0xFA17)));
            assert!(
                faulted < clean - 1.0,
                "{kind} at severity 1: {faulted:.1} dB !< clean {clean:.1} dB"
            );
        }
    }

    #[test]
    fn packet_loss_records_link_stats_and_inflates_tx_power() {
        use efficsense_faults::{FaultKind, FaultPlan};
        let x = eeg_like_tone(173.61, 4.0);
        let cfg = SystemConfig::baseline(8);
        let clean = Simulator::new(cfg.clone())
            .expect("valid")
            .run(&x, 173.61, 1);
        assert_eq!(clean.link, None);
        let plan = FaultPlan::single(FaultKind::PacketLoss, 0.6, 7);
        let lossy = Simulator::with_fault_plan(cfg, plan.clone())
            .expect("valid")
            .run(&x, 173.61, 1);
        let stats = lossy.link.expect("link fault must record stats");
        assert_eq!(stats.data_words, lossy.words);
        assert!(stats.lost_packets > 0, "54% loss must drop packets");
        assert!(
            stats.tx_words > stats.data_words,
            "retries must inflate the clocked-out words"
        );
        use efficsense_power::BlockKind::Transmitter;
        let expected = plan
            .link
            .expect("plan has a link fault")
            .expected_attempts();
        let ratio = lossy.power.get(Transmitter).value() / clean.power.get(Transmitter).value();
        assert!(
            (ratio - expected).abs() < 1e-9,
            "TX power ratio {ratio} vs expected attempts {expected}"
        );
    }

    #[test]
    fn cs_chain_survives_packet_loss_with_reduced_quality() {
        use efficsense_faults::{FaultKind, FaultPlan};
        let x = eeg_like_tone(173.61, 4.0);
        let cfg = SystemConfig::compressive(8, CsConfig::default());
        let clean = Simulator::new(cfg.clone())
            .expect("valid")
            .run(&x, 173.61, 1);
        let lossy =
            Simulator::with_fault_plan(cfg, FaultPlan::single(FaultKind::PacketLoss, 0.5, 3))
                .expect("valid")
                .run(&x, 173.61, 1);
        let snr_clean = snr_fit_db(&clean.reference, &clean.input_referred);
        let snr_lossy = snr_fit_db(&lossy.reference, &lossy.input_referred);
        assert!(snr_lossy < snr_clean, "{snr_lossy} !< {snr_clean}");
        assert!(lossy.link.is_some());
        assert!(snr_lossy.is_finite(), "erasures must not break the decoder");
    }

    #[test]
    fn fault_runs_are_deterministic() {
        use efficsense_faults::{FaultKind, FaultPlan};
        let x = eeg_like_tone(173.61, 2.0);
        let mk = || {
            Simulator::with_fault_plan(
                SystemConfig::baseline(8),
                FaultPlan::single(FaultKind::DroppedSamples, 0.7, 9),
            )
            .expect("valid")
        };
        assert_eq!(mk().run(&x, 173.61, 5), mk().run(&x, 173.61, 5));
        // Different records draw different fault realisations.
        assert_ne!(
            mk().run(&x, 173.61, 5).input_referred,
            mk().run(&x, 173.61, 6).input_referred
        );
    }

    #[test]
    fn power_breakdown_dominated_by_tx_or_lna_baseline() {
        let sim = Simulator::new(SystemConfig::baseline(8)).expect("valid");
        let b = sim.power_breakdown(1.0);
        use efficsense_power::BlockKind::*;
        let dom = b.dominant().expect("non-empty");
        assert!(dom == Transmitter || dom == Lna, "dominant {dom}");
        // Total in the paper's µW regime.
        let total = b.total().value();
        assert!((1e-6..1e-4).contains(&total), "total {total}");
    }
}
