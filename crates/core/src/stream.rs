//! Streaming, bounded-memory simulation of the acquisition chain.
//!
//! [`Simulator::run`](crate::simulate::Simulator::run) evaluates one record
//! held entirely in memory. Long-duration scenarios — a sensor that runs
//! for months while its faults age — need the same chain as a *stream*:
//! input arrives in chunks of any size, every block carries its state
//! (filter tails, hold charge, partial CS frames, link packet accounting)
//! across chunk boundaries, and memory stays bounded no matter how long
//! the stream runs.
//!
//! [`StreamSimulator`] is that pipeline. Its contract has two halves:
//!
//! * **Static plans are bit-identical to the batch path.** For any chunking
//!   of the input, the concatenated output of [`StreamSimulator::push`] +
//!   [`StreamSimulator::finish`] equals [`Simulator::run`] on the whole
//!   record, bit for bit — clean or with any static [`FaultPlan`](efficsense_faults::FaultPlan). This
//!   holds because every random draw happens in the same stream and the
//!   same order as the batch path: values are emitted *eagerly* once their
//!   inputs can no longer change (interior interpolation points), and
//!   end-of-record clamps are resolved only at [`StreamSimulator::finish`].
//! * **Compound plans are chunk-invariant.** A [`CompoundPlan`] threads
//!   time-varying severity through the per-block fault hooks. Parameters
//!   update only at epoch boundaries computed from absolute sample indices
//!   in each block's own sample domain, and every fault keeps its private
//!   RNG stream, so the realisation depends on the plan and the input —
//!   never on how the stream was chunked or how many decode threads run.
//!
//! The streaming path reports progress: a `stream.heartbeat` counter (plus
//! a `stream.progress` trace event when a sink is installed) ticks at
//! fixed output-sample intervals, and each batched decode flush is timed
//! under a `stream.chunk` span. All instrumentation fires at
//! chunk-invariant points so [`LogicalClock`](efficsense_obs::LogicalClock)
//! snapshots stay identical across chunkings.

use crate::config::CsConfig;
use crate::simulate::{
    record_salt, ArchState, SimOutput, Simulator, SALT_CLOCK, SALT_LINK, SALT_LNA,
};
use efficsense_blocks::{ChargeSharingEncoder, Lna, Sampler, SarAdc};
use efficsense_cs::decode::reconstruct_batch;
use efficsense_cs::memo::DictionaryArtifacts;
use efficsense_cs::recon::OmpConfig;
use efficsense_faults::{ClockFault, CompoundPlan, FaultKind, LinkFault, LinkStats, LnaRailFault};
use efficsense_power::{DesignParams, PowerBreakdown, TechnologyParams};
use efficsense_rng::Rng64;
use efficsense_signals::noise::Gaussian;
use std::sync::Arc;

/// Frames digitised before each batched decode flush. Flush boundaries are
/// counted in *frames*, so they are invariant to how the raw input was
/// chunked; each flush runs under a `stream.chunk` span.
const DECODE_BATCH: usize = 16;

/// Output samples between `stream.heartbeat` ticks.
const HEARTBEAT_EVERY: u64 = 8192;

/// Stream-side look-back guard (continuous-time samples) kept behind the
/// consumer position to serve jittered acquisition instants. The largest
/// clock fault jitters by half a sample period — a few CT samples — so
/// 4096 is hundreds of standard deviations of margin.
const CT_GUARD: u64 = 4096;

/// Raw-ring guard (input samples) behind the resampler/reference cursors.
const RAW_GUARD: u64 = 8;

/// A zero-effect railing fault, used to arm the LNA's private fault stream
/// before a severity profile first becomes active.
const NOOP_RAIL: LnaRailFault = LnaRailFault {
    rail_prob: 0.0,
    episode_len: 0,
    v_clip_factor: 1.0,
};

/// A zero-effect clock fault (same role as [`NOOP_RAIL`]).
const NOOP_CLOCK: ClockFault = ClockFault {
    jitter_periods: 0.0,
    drop_prob: 0.0,
};

/// Link parameters in force while a packet-loss profile sits at severity 0:
/// lossless, but with the same packet geometry [`FaultPlan::single`] maps
/// active severities onto, so packet boundaries never move when severity
/// does.
const NOOP_LINK: LinkFault = LinkFault {
    loss_prob: 0.0,
    max_retries: 2,
    packet_words: 16,
};

/// An append-only sample buffer addressed by *absolute* index, with
/// deterministic pruning of the consumed prefix. The first sample is
/// cached so the `t <= 0` edge clamp of
/// [`sample_at`](efficsense_dsp::resample::sample_at) survives pruning.
#[derive(Debug, Clone, Default)]
struct Ring {
    /// Absolute index of `buf[0]`.
    base: u64,
    buf: Vec<f64>,
    /// Value at absolute index 0 (valid once `total > 0`).
    first: f64,
    /// Total samples ever pushed (`base + buf.len()`).
    total: u64,
}

impl Ring {
    fn push(&mut self, v: f64) {
        if self.total == 0 {
            self.first = v;
        }
        self.buf.push(v);
        self.total += 1;
    }

    fn len(&self) -> u64 {
        self.total
    }

    /// Value at absolute index `i`, clamped into the retained window. The
    /// below-`base` clamp is unreachable under the pruning guards; it
    /// exists so the accessor is total.
    fn get_clamped(&self, i: u64) -> f64 {
        if self.buf.is_empty() {
            return self.first;
        }
        let idx = i.saturating_sub(self.base).min(self.buf.len() as u64 - 1);
        self.buf[idx as usize]
    }

    /// Mirrors [`sample_at`](efficsense_dsp::resample::sample_at) bit for
    /// bit on the growing record: returns `None` while the interpolation
    /// neighbourhood could still change (the end clamp is only valid once
    /// `finished`).
    fn interp_at(&self, fs: f64, t: f64, finished: bool) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let pos = t * fs;
        if pos <= 0.0 {
            return Some(self.first);
        }
        let i = pos.floor() as u64;
        if i + 1 >= self.total {
            return finished.then(|| self.get_clamped(self.total - 1));
        }
        let frac = pos - i as f64;
        Some(self.get_clamped(i) * (1.0 - frac) + self.get_clamped(i + 1) * frac)
    }

    /// Drops samples below absolute index `keep_from` (amortised: only
    /// compacts once ≥ 1024 samples are prunable). Always retains at least
    /// one sample so the end clamp stays serviceable.
    fn prune_below(&mut self, keep_from: u64) {
        let keep = keep_from.min(self.total.saturating_sub(1)).max(self.base);
        let n = keep - self.base;
        if n >= 1024 {
            self.buf.drain(..n as usize);
            self.base = keep;
        }
    }
}

/// Which fault hooks a [`CompoundPlan`] can ever activate. Member blocks
/// get their fault state *installed* up front (private streams armed, even
/// at severity 0) so later severity changes never shift any stream.
#[derive(Debug, Clone, Copy, Default)]
struct Members {
    lna: bool,
    adc: bool,
    leakage: bool,
    clock: bool,
    link: bool,
}

fn members_of(plan: &CompoundPlan) -> Members {
    let mut m = Members::default();
    for (kind, profile) in plan.faults() {
        if profile.max_severity() <= 0.0 {
            continue;
        }
        match kind {
            FaultKind::LnaRail => m.lna = true,
            FaultKind::AdcStuckBit => m.adc = true,
            FaultKind::CapLeakage => m.leakage = true,
            FaultKind::ClockJitter | FaultKind::DroppedSamples => m.clock = true,
            FaultKind::PacketLoss => m.link = true,
        }
    }
    m
}

/// Link parameters in force during the epoch containing `t_s`, with the
/// [`NOOP_LINK`] geometry when the profile sits at severity 0.
fn link_params_at(plan: &CompoundPlan, t_s: f64) -> LinkFault {
    plan.materialize(t_s).link.unwrap_or(NOOP_LINK)
}

/// How faults are driven through the stream.
#[derive(Debug, Clone)]
enum FaultMode {
    /// The simulator's own static [`FaultPlan`](efficsense_faults::FaultPlan) snapshot; injection mirrors
    /// the batch path exactly (bit-identical).
    Static,
    /// A compound plan with per-epoch severity updates.
    Compound {
        plan: CompoundPlan,
        members: Members,
    },
}

/// The pair sequence produced by one [`StreamSimulator::push`] (or the
/// final flush): acquired samples referred to the sensor input, and the
/// clean reference resampled to the output rate. Both vectors are always
/// the same length; concatenating every chunk reproduces the
/// [`SimOutput`] vectors of the batch path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamChunk {
    /// Input-referred acquired signal (V) at `f_sample`.
    pub input_referred: Vec<f64>,
    /// Clean input resampled to `f_sample`, aligned with `input_referred`.
    pub reference: Vec<f64>,
}

impl StreamChunk {
    /// Number of sample pairs in the chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.input_referred.len()
    }

    /// `true` when the chunk carries no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.input_referred.is_empty()
    }
}

/// Whole-stream accounting returned by [`StreamSimulator::finish`] — the
/// scalar half of [`SimOutput`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// Output sample rate (Hz).
    pub fs_out: f64,
    /// Per-block power estimate (W). Static plans reproduce the batch
    /// breakdown; compound plans scale the transmitter entry by the
    /// *measured* retry factor of the time-varying link.
    pub power: PowerBreakdown,
    /// Capacitor area in `C_u,min` multiples.
    pub area_units: f64,
    /// Data words handed to the transmitter.
    pub words: u64,
    /// Link accounting when a packet-loss fault was armed.
    pub link: Option<LinkStats>,
    /// Total output samples emitted across every chunk.
    pub out_samples: u64,
}

/// Streaming link state for the baseline chain: words buffer until a
/// packet fills, then one bounded-retry decision is drawn — the same
/// packet boundaries and RNG order as
/// [`LinkFault::apply`] over the whole record.
#[derive(Debug, Clone)]
struct StreamLink {
    rng: Rng64,
    cur: LinkFault,
    /// `true` in static mode: parameters never change mid-stream.
    fixed: bool,
    buf: Vec<f64>,
    held: f64,
    stats: LinkStats,
    /// Absolute index of the first word in `buf`.
    word_index: u64,
}

impl StreamLink {
    fn push_word(
        &mut self,
        w: f64,
        compound: Option<&CompoundPlan>,
        f_s: f64,
        gain: f64,
        out: &mut Vec<f64>,
    ) {
        if self.buf.is_empty() && !self.fixed {
            if let Some(plan) = compound {
                self.cur = link_params_at(plan, self.word_index as f64 / f_s);
            }
        }
        self.buf.push(w);
        if self.buf.len() >= self.cur.packet_words.max(1) {
            self.decide_packet(gain, out);
        }
    }

    /// Draws the bounded-retry outcome for the buffered packet and emits
    /// its words with hold-last-delivered concealment.
    fn decide_packet(&mut self, gain: f64, out: &mut Vec<f64>) {
        if self.buf.is_empty() {
            return;
        }
        let p = self.cur.loss_prob.clamp(0.0, 1.0);
        let len = self.buf.len() as u64;
        self.stats.packets += 1;
        self.stats.data_words += len;
        let mut attempts = 0u64;
        let mut ok = false;
        while attempts <= u64::from(self.cur.max_retries) {
            attempts += 1;
            if !self.rng.chance(p) {
                ok = true;
                break;
            }
        }
        self.stats.tx_words += attempts * len;
        if !ok {
            self.stats.lost_packets += 1;
        }
        for &v in &self.buf {
            if ok {
                self.held = v;
            }
            out.push(self.held / gain);
        }
        self.buf.clear();
        self.word_index += len;
    }
}

/// Baseline (Nyquist) back end: S&H → SAR ADC → link.
#[derive(Debug, Clone)]
struct BaselineBack {
    sampler: Sampler,
    adc: SarAdc,
    /// Next output sample index to decide.
    next_i: u64,
    /// Acquisition instant decided (draws consumed) but awaiting proxy
    /// data that covers it.
    pending_t: Option<f64>,
    held: f64,
    rms_acc: f64,
    rms_n: u64,
    words: u64,
    link: Option<StreamLink>,
    /// Epoch of the last sampler/ADC parameter update (compound mode).
    sample_epoch: u64,
    f_s: f64,
    f_ct: f64,
    v_fs: f64,
    gain: f64,
}

impl BaselineBack {
    fn drain(&mut self, amplified: &Ring, mode: &FaultMode, finished: bool, out: &mut Vec<f64>) {
        let n_out = (amplified.len() as f64 / self.f_ct * self.f_s).floor() as u64;
        loop {
            if self.pending_t.is_none() {
                if self.next_i >= n_out {
                    break;
                }
                let t0 = self.next_i as f64 / self.f_s;
                if let FaultMode::Compound { plan, members } = mode {
                    if (members.clock || members.adc) && plan.epoch_index(t0) != self.sample_epoch {
                        self.sample_epoch = plan.epoch_index(t0);
                        let p = plan.materialize_at_epoch(self.sample_epoch);
                        if members.clock {
                            self.sampler
                                .set_clock_fault_params(p.clock.unwrap_or(NOOP_CLOCK));
                        }
                        if members.adc {
                            self.adc.inject_stuck_bit(p.adc);
                        }
                    }
                }
                match self.sampler.acquisition_instant(self.next_i) {
                    Some(t) => self.pending_t = Some(t),
                    // Dropped conversion: conceal with the held value and
                    // fall through to the common digitising tail.
                    None => {
                        self.convert(self.held, mode, out);
                        continue;
                    }
                }
            }
            if let Some(t) = self.pending_t {
                match amplified.interp_at(self.f_ct, t.max(0.0), finished) {
                    Some(v) => {
                        self.pending_t = None;
                        self.held = self.sampler.acquire(v);
                        self.convert(self.held, mode, out);
                    }
                    None => break,
                }
            }
        }
        if finished {
            if let Some(link) = &mut self.link {
                link.decide_packet(self.gain, out);
            }
        }
    }

    /// Digitises one sampled value: RMS accounting, ADC, link. Mirrors the
    /// batch order (the whole-record RMS sum accumulates left-to-right
    /// before the ADC in the batch path, but the two use disjoint state so
    /// interleaving per sample keeps both bit-identical).
    fn convert(&mut self, v: f64, mode: &FaultMode, out: &mut Vec<f64>) {
        let shifted = v + self.v_fs / 2.0;
        self.rms_acc += shifted * shifted;
        self.rms_n += 1;
        let code = self.adc.process(v);
        self.words += 1;
        let compound = match mode {
            FaultMode::Compound { plan, .. } => Some(plan),
            FaultMode::Static => None,
        };
        match &mut self.link {
            Some(link) => link.push_word(code, compound, self.f_s, self.gain, out),
            None => out.push(code / self.gain),
        }
        self.next_i += 1;
    }

    fn min_ct_needed(&self) -> u64 {
        let pos = self
            .pending_t
            .unwrap_or(self.next_i as f64 / self.f_s)
            .max(0.0)
            * self.f_ct;
        (pos.floor() as u64).saturating_sub(CT_GUARD)
    }
}

/// The CS chain's clock-fault state, mirroring the inline jitter/dropout
/// path of the batch simulator (the encoder's sample caps take the
/// acquisition, so there is no kT/C-noising [`Sampler`] here).
#[derive(Debug, Clone)]
struct CsClock {
    fault: ClockFault,
    jitter_rng: Gaussian,
    drop_rng: Rng64,
}

/// Compressive-sensing back end: frame assembly → charge-sharing encoder →
/// SAR ADC → per-frame link erasures → batched OMP decode.
#[derive(Debug, Clone)]
struct CsBack {
    cs: CsConfig,
    art: Arc<DictionaryArtifacts>,
    encoder: ChargeSharingEncoder,
    adc: SarAdc,
    clock: Option<CsClock>,
    tech: TechnologyParams,
    design: DesignParams,
    next_i: u64,
    pending_t: Option<f64>,
    held: f64,
    frame_buf: Vec<f64>,
    frames: Vec<Vec<f64>>,
    omp_cfgs: Vec<OmpConfig>,
    frames_encoded: u64,
    noise_norm: f64,
    rms_acc: f64,
    rms_n: u64,
    words: u64,
    link: Option<(LinkFault, Rng64)>,
    link_stats: Option<LinkStats>,
    threads: usize,
    /// Epoch of the last clock parameter update (compound mode).
    clock_epoch: u64,
    /// Epoch of the last encoder/ADC/link parameter update (compound mode).
    frame_epoch: u64,
    f_s: f64,
    f_ct: f64,
    v_fs: f64,
    gain: f64,
}

impl CsBack {
    fn drain(&mut self, amplified: &Ring, mode: &FaultMode, finished: bool, out: &mut Vec<f64>) {
        let n_samples = (amplified.len() as f64 / self.f_ct * self.f_s).floor() as u64;
        loop {
            if self.pending_t.is_none() {
                if self.next_i >= n_samples {
                    break;
                }
                let t0 = self.next_i as f64 / self.f_s;
                if let FaultMode::Compound { plan, members } = mode {
                    if members.clock && plan.epoch_index(t0) != self.clock_epoch {
                        self.clock_epoch = plan.epoch_index(t0);
                        let p = plan.materialize_at_epoch(self.clock_epoch);
                        if let Some(c) = &mut self.clock {
                            c.fault = p.clock.unwrap_or(NOOP_CLOCK);
                        }
                    }
                }
                if let Some(c) = &mut self.clock {
                    let mut t = t0;
                    if c.fault.jitter_periods > 0.0 {
                        t += c
                            .jitter_rng
                            .sample_scaled(c.fault.jitter_periods / self.f_s);
                    }
                    if c.drop_rng.chance(c.fault.drop_prob) {
                        // Dropped acquisition: the sample cap keeps its
                        // previous charge.
                        let held = self.held;
                        self.take_sample(held, mode, out);
                        continue;
                    }
                    self.pending_t = Some(t);
                } else {
                    self.pending_t = Some(t0);
                }
            }
            if let Some(t) = self.pending_t {
                match amplified.interp_at(self.f_ct, t.max(0.0), finished) {
                    Some(v) => {
                        self.pending_t = None;
                        self.held = v;
                        self.take_sample(v, mode, out);
                    }
                    None => break,
                }
            }
        }
        if finished {
            // A trailing partial frame never reaches the encoder (the batch
            // path only encodes `chunks_exact(N_Φ)`).
            self.frame_buf.clear();
            self.flush_decode(out);
        }
    }

    fn take_sample(&mut self, v: f64, mode: &FaultMode, out: &mut Vec<f64>) {
        self.frame_buf.push(v);
        self.next_i += 1;
        if self.frame_buf.len() >= self.cs.n_phi {
            self.encode_frame(mode, out);
        }
    }

    fn encode_frame(&mut self, mode: &FaultMode, out: &mut Vec<f64>) {
        if let FaultMode::Compound { plan, members } = mode {
            let t = (self.frames_encoded * self.cs.n_phi as u64) as f64 / self.f_s;
            if (members.leakage || members.adc || members.link)
                && plan.epoch_index(t) != self.frame_epoch
            {
                self.frame_epoch = plan.epoch_index(t);
                let p = plan.materialize_at_epoch(self.frame_epoch);
                if members.leakage {
                    self.encoder
                        .inject_leakage_fault(p.leakage, &self.tech, &self.design);
                }
                if members.adc {
                    self.adc.inject_stuck_bit(p.adc);
                }
                if members.link {
                    if let Some((params, _)) = &mut self.link {
                        *params = p.link.unwrap_or(NOOP_LINK);
                    }
                }
            }
        }
        let measurements = self.encoder.encode_frame(&self.frame_buf);
        let mut digitised: Vec<f64> = measurements.iter().map(|&v| self.adc.process(v)).collect();
        self.words += digitised.len() as u64;
        for &v in &digitised {
            self.rms_acc += (v + self.v_fs / 2.0).powi(2);
            self.rms_n += 1;
        }
        if let Some((params, rng)) = &mut self.link {
            let (delivered, stats) = params.apply(digitised.len(), rng);
            for (v, ok) in digitised.iter_mut().zip(&delivered) {
                if !*ok {
                    *v = 0.0;
                }
            }
            self.link_stats
                .get_or_insert_with(LinkStats::default)
                .accumulate(&stats);
        }
        let y_norm = efficsense_cs::linalg::norm2(&digitised).max(1e-300);
        self.omp_cfgs.push(OmpConfig {
            sparsity: self.cs.omp_sparsity,
            residual_tol: (self.noise_norm / y_norm).clamp(1e-4, 0.9),
        });
        self.frames.push(digitised);
        self.frames_encoded += 1;
        self.frame_buf.clear();
        if self.frames.len() >= DECODE_BATCH {
            self.flush_decode(out);
        }
    }

    /// Decodes the buffered frames in one batched call. The batch decoder
    /// is per-frame independent, so flushing every [`DECODE_BATCH`] frames
    /// is bit-identical to the batch path's single whole-record call.
    fn flush_decode(&mut self, out: &mut Vec<f64>) {
        if self.frames.is_empty() {
            return;
        }
        let _chunk_span = efficsense_obs::span!("stream.chunk");
        let decoded = reconstruct_batch(&self.art, &self.frames, &self.omp_cfgs, self.threads);
        for xh in decoded {
            for v in xh {
                out.push(v / self.gain);
            }
        }
        self.frames.clear();
        self.omp_cfgs.clear();
    }

    fn min_ct_needed(&self) -> u64 {
        let pos = self
            .pending_t
            .unwrap_or(self.next_i as f64 / self.f_s)
            .max(0.0)
            * self.f_ct;
        (pos.floor() as u64).saturating_sub(CT_GUARD)
    }
}

#[derive(Debug, Clone)]
enum BackEnd {
    Baseline(Box<BaselineBack>),
    Cs(Box<CsBack>),
}

impl BackEnd {
    fn drain(&mut self, amplified: &Ring, mode: &FaultMode, finished: bool, out: &mut Vec<f64>) {
        match self {
            BackEnd::Baseline(b) => b.drain(amplified, mode, finished, out),
            BackEnd::Cs(b) => b.drain(amplified, mode, finished, out),
        }
    }

    fn min_ct_needed(&self) -> u64 {
        match self {
            BackEnd::Baseline(b) => b.min_ct_needed(),
            BackEnd::Cs(b) => b.min_ct_needed(),
        }
    }

    /// `(adc_in_rms, words, link_stats)` for the summary.
    fn summary_parts(&self) -> (f64, u64, Option<LinkStats>) {
        let (acc, n, words, link) = match self {
            BackEnd::Baseline(b) => (
                b.rms_acc,
                b.rms_n,
                b.words,
                b.link.as_ref().map(|l| l.stats),
            ),
            BackEnd::Cs(b) => (b.rms_acc, b.rms_n, b.words, b.link_stats),
        };
        let rms = if n > 0 { (acc / n as f64).sqrt() } else { 0.0 };
        (rms, words, link)
    }
}

/// Streaming front for a [`Simulator`]: feed input in chunks of any size
/// with [`StreamSimulator::push`], collect aligned
/// (`input_referred`, `reference`) pairs as they become final, and close
/// the stream with [`StreamSimulator::finish`].
#[derive(Debug, Clone)]
pub struct StreamSimulator {
    sim: Simulator,
    mode: FaultMode,
    fs_in: f64,
    f_ct: f64,
    f_s: f64,
    raw: Ring,
    /// Continuous-time proxy samples emitted so far.
    next_ct: u64,
    lna: Lna,
    /// Epoch of the last LNA parameter update (compound mode).
    lna_epoch: u64,
    amplified: Ring,
    back: BackEnd,
    /// Final input-referred values not yet paired with a reference.
    pending_out: Vec<f64>,
    /// Final reference values not yet paired.
    pending_ref: Vec<f64>,
    /// Total output samples produced (drained or pending).
    out_produced: u64,
    /// Next reference index to interpolate.
    ref_next: u64,
    started_ns: u64,
    last_progress_ns: u64,
}

impl StreamSimulator {
    /// Opens a stream that mirrors `sim`'s batch behaviour — including its
    /// static fault plan, if any — for one record at `fs_in` Hz with the
    /// given `noise_seed`. Concatenated chunk output is bit-identical to
    /// [`Simulator::run`] on the whole record.
    ///
    /// # Panics
    ///
    /// Panics if `fs_in` is not positive.
    #[must_use]
    pub fn new(sim: &Simulator, fs_in: f64, noise_seed: u64) -> Self {
        Self::build(sim, fs_in, noise_seed, FaultMode::Static)
    }

    /// Opens a stream driven by a compound, time-varying fault plan. The
    /// simulator's own static plan is ignored; every member fault of
    /// `plan` is armed up front with its private stream, and parameters
    /// follow the severity profiles on the plan's epoch grid. Output is
    /// invariant to chunk size and decode thread count.
    ///
    /// # Panics
    ///
    /// Panics if `fs_in` is not positive.
    #[must_use]
    pub fn with_compound(
        sim: &Simulator,
        fs_in: f64,
        noise_seed: u64,
        plan: &CompoundPlan,
    ) -> Self {
        let members = members_of(plan);
        Self::build(
            sim,
            fs_in,
            noise_seed,
            FaultMode::Compound {
                plan: plan.clone(),
                members,
            },
        )
    }

    fn build(sim: &Simulator, fs_in: f64, noise_seed: u64, mode: FaultMode) -> Self {
        assert!(fs_in > 0.0, "input rate must be positive");
        let cfg = &sim.cfg;
        let f_ct = cfg.f_ct_hz();
        let f_s = cfg.design.f_sample_hz();
        let mut lna = Lna::from_design(
            &cfg.design,
            cfg.lna.gain,
            cfg.lna.noise_floor_vrms,
            cfg.lna.k3,
            f_ct,
            cfg.seed ^ noise_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        match &mode {
            FaultMode::Static => {
                if let Some(plan) = &sim.plan {
                    lna.inject_rail_fault(plan.lna, plan.stream(record_salt(SALT_LNA, noise_seed)));
                }
            }
            FaultMode::Compound { plan, members } => {
                if members.lna {
                    let epoch0 = plan.materialize_at_epoch(0);
                    lna.install_rail_fault(
                        epoch0.lna.unwrap_or(NOOP_RAIL),
                        epoch0.stream(record_salt(SALT_LNA, noise_seed)),
                    );
                }
            }
        }
        let back = match &sim.arch {
            ArchState::Baseline => BackEnd::Baseline(Box::new(Self::build_baseline(
                sim, noise_seed, &mode, f_ct, f_s,
            ))),
            ArchState::Cs(state) => BackEnd::Cs(Box::new(Self::build_cs(
                sim, state, noise_seed, &mode, f_ct, f_s,
            ))),
        };
        let started_ns = efficsense_obs::global().now_ns();
        Self {
            sim: sim.clone(),
            mode,
            fs_in,
            f_ct,
            f_s,
            raw: Ring::default(),
            next_ct: 0,
            lna,
            lna_epoch: 0,
            amplified: Ring::default(),
            back,
            pending_out: Vec::new(),
            pending_ref: Vec::new(),
            out_produced: 0,
            ref_next: 0,
            started_ns,
            last_progress_ns: started_ns,
        }
    }

    fn build_baseline(
        sim: &Simulator,
        noise_seed: u64,
        mode: &FaultMode,
        f_ct: f64,
        f_s: f64,
    ) -> BaselineBack {
        let cfg = &sim.cfg;
        let mut sampler = Sampler::new(f_s, sim.sh_cap_f(), 0.0, cfg.seed ^ noise_seed ^ 0x5A5A);
        let mut adc = sim.adc.clone();
        let mut link = None;
        match mode {
            FaultMode::Static => {
                if let Some(plan) = &sim.plan {
                    sampler.inject_clock_fault(
                        plan.clock,
                        plan.stream(record_salt(SALT_CLOCK, noise_seed)),
                    );
                    adc.inject_stuck_bit(plan.adc);
                    if let Some(l) = plan.link.filter(|l| !l.is_noop()) {
                        link = Some(StreamLink {
                            rng: Rng64::new(plan.stream(record_salt(SALT_LINK, noise_seed))),
                            cur: l,
                            fixed: true,
                            buf: Vec::new(),
                            held: 0.0,
                            stats: LinkStats::default(),
                            word_index: 0,
                        });
                    }
                }
            }
            FaultMode::Compound { plan, members } => {
                let epoch0 = plan.materialize_at_epoch(0);
                if members.clock {
                    sampler.install_clock_fault(
                        epoch0.clock.unwrap_or(NOOP_CLOCK),
                        epoch0.stream(record_salt(SALT_CLOCK, noise_seed)),
                    );
                }
                if members.adc {
                    adc.inject_stuck_bit(epoch0.adc);
                }
                if members.link {
                    link = Some(StreamLink {
                        rng: Rng64::new(epoch0.stream(record_salt(SALT_LINK, noise_seed))),
                        cur: epoch0.link.unwrap_or(NOOP_LINK),
                        fixed: false,
                        buf: Vec::new(),
                        held: 0.0,
                        stats: LinkStats::default(),
                        word_index: 0,
                    });
                }
            }
        }
        BaselineBack {
            sampler,
            adc,
            next_i: 0,
            pending_t: None,
            held: 0.0,
            rms_acc: 0.0,
            rms_n: 0,
            words: 0,
            link,
            sample_epoch: 0,
            f_s,
            f_ct,
            v_fs: cfg.design.v_fs,
            gain: cfg.lna.gain,
        }
    }

    fn build_cs(
        sim: &Simulator,
        state: &crate::simulate::CsState,
        noise_seed: u64,
        mode: &FaultMode,
        f_ct: f64,
        f_s: f64,
    ) -> CsBack {
        let cfg = &sim.cfg;
        let cs = &state.cs;
        let mut encoder = ChargeSharingEncoder::new(
            state.phi.as_ref().clone(),
            cs.c_sample_f,
            cs.c_hold_f,
            1.0 / f_s,
            cs.imperfections,
            &cfg.tech,
            &cfg.design,
            cfg.seed ^ noise_seed.rotate_left(17),
        );
        let mut adc = sim.adc.clone();
        let mut clock = None;
        let mut link = None;
        match mode {
            FaultMode::Static => {
                if let Some(plan) = &sim.plan {
                    encoder.inject_leakage_fault(plan.leakage, &cfg.tech, &cfg.design);
                    adc.inject_stuck_bit(plan.adc);
                    if let Some(c) = plan.clock.filter(|c| !c.is_noop()) {
                        let seed = plan.stream(record_salt(SALT_CLOCK, noise_seed));
                        clock = Some(CsClock {
                            fault: c,
                            jitter_rng: Gaussian::new(seed ^ 0x0C10_CC00),
                            drop_rng: Rng64::new(seed ^ 0x0D20_9ED5),
                        });
                    }
                    if let Some(l) = plan.link.filter(|l| !l.is_noop()) {
                        link = Some((
                            l,
                            Rng64::new(plan.stream(record_salt(SALT_LINK, noise_seed))),
                        ));
                    }
                }
            }
            FaultMode::Compound { plan, members } => {
                let epoch0 = plan.materialize_at_epoch(0);
                if members.leakage {
                    encoder.inject_leakage_fault(epoch0.leakage, &cfg.tech, &cfg.design);
                }
                if members.adc {
                    adc.inject_stuck_bit(epoch0.adc);
                }
                if members.clock {
                    let seed = epoch0.stream(record_salt(SALT_CLOCK, noise_seed));
                    clock = Some(CsClock {
                        fault: epoch0.clock.unwrap_or(NOOP_CLOCK),
                        jitter_rng: Gaussian::new(seed ^ 0x0C10_CC00),
                        drop_rng: Rng64::new(seed ^ 0x0D20_9ED5),
                    });
                }
                if members.link {
                    link = Some((
                        epoch0.link.unwrap_or(NOOP_LINK),
                        Rng64::new(epoch0.stream(record_salt(SALT_LINK, noise_seed))),
                    ));
                }
            }
        }
        // Same discrepancy-principle stopping threshold as the batch path.
        let sampled_noise = cfg.lna.noise_floor_vrms * cfg.lna.gain;
        let ktc_var = if cs.imperfections.ktc_noise {
            efficsense_power::kt() / cs.c_sample_f
        } else {
            0.0
        };
        let lsb = cfg.design.lsb();
        let meas_noise_var =
            (sampled_noise * sampled_noise + ktc_var) * state.art.mean_row_w2 + lsb * lsb / 12.0;
        let noise_norm = (meas_noise_var * cs.m as f64).sqrt();
        CsBack {
            cs: cs.clone(),
            art: state.art.clone(),
            encoder,
            adc,
            clock,
            tech: cfg.tech.clone(),
            design: cfg.design.clone(),
            next_i: 0,
            pending_t: None,
            held: 0.0,
            frame_buf: Vec::new(),
            frames: Vec::new(),
            omp_cfgs: Vec::new(),
            frames_encoded: 0,
            noise_norm,
            rms_acc: 0.0,
            rms_n: 0,
            words: 0,
            link,
            link_stats: None,
            threads: sim.decode_threads,
            clock_epoch: 0,
            frame_epoch: 0,
            f_s,
            f_ct,
            v_fs: cfg.design.v_fs,
            gain: cfg.lna.gain,
        }
    }

    /// Feeds the next chunk of raw input (any length, including empty) and
    /// returns every (acquired, reference) pair that became final.
    pub fn push(&mut self, input: &[f64]) -> StreamChunk {
        for &v in input {
            self.raw.push(v);
        }
        self.advance(false);
        self.prune();
        self.take_pairs()
    }

    /// Closes the stream: resolves every end-of-record clamp, flushes the
    /// final link packet and decode batch, and returns the last chunk with
    /// the whole-stream summary.
    pub fn finish(mut self) -> (StreamChunk, StreamSummary) {
        self.advance(true);
        let chunk = self.take_pairs();
        let (adc_in_rms, words, link) = self.back.summary_parts();
        let mut power = {
            let _power_span = efficsense_obs::span!("stage.power");
            self.sim.power_breakdown(adc_in_rms)
        };
        if matches!(self.mode, FaultMode::Compound { .. }) {
            // The static path scales TX analytically from the plan; a
            // time-varying link has no single expected-attempts figure, so
            // use the measured retry inflation instead.
            if let Some(stats) = &link {
                let tx = efficsense_power::BlockKind::Transmitter;
                let extra = power.get(tx) * (stats.retry_factor() - 1.0);
                power.add(tx, extra);
            }
        }
        let summary = StreamSummary {
            fs_out: self.f_s,
            power,
            area_units: self.sim.area_units(),
            words,
            link,
            out_samples: self.out_produced,
        };
        (chunk, summary)
    }

    /// Convenience wrapper proving the contract: runs `input` through the
    /// stream in `chunk_len`-sample pushes and assembles a [`SimOutput`]
    /// directly comparable with [`Simulator::run`]. An empty `input`
    /// yields an empty output (the batch path rejects empty records).
    #[must_use]
    pub fn run_chunked(
        sim: &Simulator,
        input: &[f64],
        fs_in: f64,
        noise_seed: u64,
        chunk_len: usize,
    ) -> SimOutput {
        let mut stream = Self::new(sim, fs_in, noise_seed);
        let mut input_referred = Vec::new();
        let mut reference = Vec::new();
        for chunk in input.chunks(chunk_len.max(1)) {
            let got = stream.push(chunk);
            input_referred.extend(got.input_referred);
            reference.extend(got.reference);
        }
        let (last, summary) = stream.finish();
        input_referred.extend(last.input_referred);
        reference.extend(last.reference);
        SimOutput {
            input_referred,
            reference,
            fs_out: summary.fs_out,
            power: summary.power,
            area_units: summary.area_units,
            words: summary.words,
            link: summary.link,
        }
    }

    /// Total output samples produced so far (drained and pending).
    #[must_use]
    pub fn out_samples(&self) -> u64 {
        self.out_produced
    }

    /// Advances every stage as far as the available data allows.
    fn advance(&mut self, finished: bool) {
        // Stage 1: resample the raw input onto the continuous-time proxy
        // grid and amplify. Eager emission: a proxy sample is final once
        // its interpolation neighbourhood is interior (or the stream has
        // finished and the edge clamp is known).
        let n_ct = (self.raw.len() as f64 / self.fs_in * self.f_ct).round() as u64;
        while self.next_ct < n_ct {
            let t = self.next_ct as f64 / self.f_ct;
            let Some(v) = self.raw.interp_at(self.fs_in, t, finished) else {
                break;
            };
            if let FaultMode::Compound { plan, members } = &self.mode {
                if members.lna && plan.epoch_index(t) != self.lna_epoch {
                    self.lna_epoch = plan.epoch_index(t);
                    let p = plan.materialize_at_epoch(self.lna_epoch);
                    self.lna.set_rail_fault_params(p.lna.unwrap_or(NOOP_RAIL));
                }
            }
            let amplified = self.lna.process(v);
            efficsense_dsp::approx::debug_assert_all_finite(
                std::slice::from_ref(&amplified),
                "stream: LNA output",
            );
            self.amplified.push(amplified);
            self.next_ct += 1;
        }
        // Stage 2: architecture back end.
        let before = self.out_produced;
        let pending_before = self.pending_out.len();
        self.back
            .drain(&self.amplified, &self.mode, finished, &mut self.pending_out);
        self.out_produced += (self.pending_out.len() - pending_before) as u64;
        self.heartbeat(before);
        // Stage 3: the clean reference, one value per produced output.
        while self.ref_next < self.out_produced {
            let t = self.ref_next as f64 / self.f_s;
            let Some(v) = self.raw.interp_at(self.fs_in, t, finished) else {
                break;
            };
            self.pending_ref.push(v);
            self.ref_next += 1;
        }
    }

    fn heartbeat(&mut self, before: u64) {
        let crossings = self.out_produced / HEARTBEAT_EVERY - before / HEARTBEAT_EVERY;
        if crossings == 0 {
            return;
        }
        efficsense_obs::counter!("stream.heartbeat").add(crossings);
        let obs = efficsense_obs::global();
        let now_ns = obs.now_ns();
        if obs.sink_enabled() {
            let ev = efficsense_obs::TraceEvent::new(now_ns, "heartbeat", "stream.progress")
                .field(
                    "out_samples",
                    efficsense_obs::FieldValue::U64(self.out_produced),
                )
                .field(
                    "raw_samples",
                    efficsense_obs::FieldValue::U64(self.raw.len()),
                );
            obs.emit(&ev);
        }
        const PROGRESS_NS: u64 = 10_000_000_000;
        if now_ns.saturating_sub(self.started_ns) > PROGRESS_NS
            && now_ns.saturating_sub(self.last_progress_ns) > PROGRESS_NS
        {
            self.last_progress_ns = now_ns;
            eprintln!(
                "stream: {} output samples ({} raw samples in)",
                self.out_produced,
                self.raw.len()
            );
        }
    }

    /// Hands out the aligned prefix of the two pending queues.
    fn take_pairs(&mut self) -> StreamChunk {
        let n = self.pending_out.len().min(self.pending_ref.len());
        let chunk = StreamChunk {
            input_referred: self.pending_out.drain(..n).collect(),
            reference: self.pending_ref.drain(..n).collect(),
        };
        efficsense_dsp::approx::debug_assert_all_finite(
            &chunk.input_referred,
            "stream: input-referred output",
        );
        chunk
    }

    /// Bounds memory: drops ring prefixes no consumer can revisit.
    fn prune(&mut self) {
        let ct_pos = (self.next_ct as f64 / self.f_ct * self.fs_in).floor() as u64;
        let ref_pos = (self.ref_next as f64 / self.f_s * self.fs_in).floor() as u64;
        self.raw
            .prune_below(ct_pos.min(ref_pos).saturating_sub(RAW_GUARD));
        self.amplified.prune_below(self.back.min_ct_needed());
    }
}
