//! Level-3 prefix memoization: shared analog front-end artifacts.
//!
//! A design-space sweep evaluates hundreds of points that differ only
//! *downstream* of the analog front end: every point sharing an LNA noise
//! configuration re-resamples the same records to the continuous-time proxy
//! rate, re-runs the same LNA noise realisation over them, and rebuilds the
//! same clean reference signal — per point, per record. This module is the
//! third cache level closing that redundancy:
//!
//! * **L1** ([`crate::cache::SweepCache`]) — whole point evaluations,
//!   content-addressed by [`crate::cache::point_key`];
//! * **L2** ([`efficsense_cs::memo`]) — sensing matrices and decoder
//!   dictionaries shared per sensing configuration;
//! * **L3** (this module) — *stage-prefix artifacts* of the simulation
//!   pipeline, shared across sweep points whose prefixes coincide.
//!
//! Six artifact classes are stored, from shallowest to deepest prefix:
//!
//! | class       | contents                                   | key axes |
//! |-------------|--------------------------------------------|----------|
//! | `ct`        | record resampled to the proxy rate         | record fingerprint, `fs_in`, `f_ct` |
//! | `analog`    | LNA-amplified proxy buffer                 | `ct` axes + LNA gain/noise/bandwidth/k3/v_clip, mixed LNA seed, canonical LNA-fault params + stream seed |
//! | `reference` | clean input at `f_s`, trimmed to a length  | record fingerprint, `fs_in`, `f_s`, length |
//! | `sampled`   | clean-clock CS sampling of the `analog` buffer | `analog` key, `f_s`, sample count |
//! | `encoded`   | charge-sharing encoder output for the whole record (`n_frames × M` pre-ADC measurements) | `sampled` key + M, N_Φ, s, Φ seed, C_sample, C_hold, sample period, imperfection flags, the tech/design fields the encoder reads, encoder seed, canonical leakage fault |
//! | `acquired`  | full front-end output (input-referred samples, word count, ADC input RMS, link stats) | full `SystemConfig`, canonical fault plan, record fingerprint, `fs_in`, noise seed |
//!
//! In the CS chain charge sharing happens before the ADC, so one `encoded`
//! artifact serves every resolution and every ADC or link fault of a
//! sensing front end. Fault keys are scoped to the stage a fault reaches:
//! `analog` carries only the LNA fault, `encoded` only the leakage fault,
//! and the simulator drops plan members an architecture never reads before
//! it derives the `acquired` plan axis.
//!
//! Every artifact is **derived deterministically from its key**, so a
//! memoized artifact is bit-identical to a freshly built one: attaching a
//! store to a [`crate::simulate::Simulator`] (directly or through
//! [`crate::sweep::Sweep::with_prefix_store`]) never changes any
//! `SimOutput` bit, only the wall clock. Keys are 128-bit FNV-1a hashes
//! over length-prefixed fields (the [`crate::cache`] scheme) with float
//! axes compared by IEEE-754 bit pattern.
//!
//! Each class is one [`efficsense_obs::Store`], the store type behind every
//! cache level. Unlike the unbounded L2 stores, every class here is
//! **capped**: values are whole per-record signal buffers, so a
//! long-running sweep server holding a store open must not grow without
//! bound. Each class carries an element budget (one element ≈ one `f64`);
//! inserts beyond the budget evict the oldest entries first. Eviction only
//! ever costs future hits — rebuilt artifacts are bit-identical by
//! construction. Workers that miss on the same key wait for one build.

use crate::cache::KeyHasher;
use efficsense_blocks::cs_frontend::EncoderImperfections;
use efficsense_faults::{CapLeakageFault, LinkStats, LnaRailFault};
use efficsense_obs::{Store, StoreStats};

/// Bump on any change to prefix-key derivation; disjoint from the L1
/// `efficsense-pointkey-*` tags so the two key families can never alias.
const KEY_VERSION: &str = "efficsense-prefixkey-v1";

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// 128-bit content hash identifying one prefix artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrefixKey(u128);

/// 64-bit content fingerprint of one input record: its length and the
/// exact bit pattern of every sample. Computed per [`Simulator::run`]
/// call when a store is attached — the caller need not carry record
/// identity, and two byte-identical records share artifacts even across
/// datasets.
///
/// [`Simulator::run`]: crate::simulate::Simulator::run
#[must_use]
pub fn record_fingerprint(samples: &[f64]) -> u64 {
    // Every artifact class derives from this record.
    efficsense_dsp::approx::debug_assert_all_finite(samples, "prefix: input record");
    // FNV-1a over 64-bit words (not bytes): one multiply per sample keeps
    // the per-run fingerprint cost far below the work the store amortizes.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut acc = OFFSET ^ (samples.len() as u64).wrapping_mul(PRIME);
    for s in samples {
        acc ^= s.to_bits();
        acc = acc.wrapping_mul(PRIME);
    }
    acc
}

fn hasher(class: &str) -> KeyHasher {
    let mut h = KeyHasher::new();
    h.field("version", KEY_VERSION);
    h.field("class", class);
    h
}

/// Key of the resampled continuous-time record (fully fault-free).
#[must_use]
pub fn ct_key(record_fp: u64, fs_in: f64, f_ct: f64) -> PrefixKey {
    let mut h = hasher("ct");
    h.field_u64("record", record_fp);
    h.field_u64("fs_in", fs_in.to_bits());
    h.field_u64("f_ct", f_ct.to_bits());
    PrefixKey(h.digest())
}

/// Everything the LNA-amplified buffer depends on beyond the CT record:
/// the exact constructor inputs of [`efficsense_blocks::Lna`] plus the
/// canonical parameters of an injected rail fault. Keying the constructor
/// inputs (rather than a curated subset of the design) makes the key
/// sufficient by construction — any configuration axis that reaches the
/// LNA reaches the key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalogParams {
    /// [`record_fingerprint`] of the input record.
    pub record_fp: u64,
    /// Input record rate (Hz).
    pub fs_in: f64,
    /// Continuous-time proxy rate (Hz).
    pub f_ct: f64,
    /// Closed-loop LNA gain.
    pub gain: f64,
    /// Input-referred integrated noise (V rms).
    pub noise_floor_vrms: f64,
    /// −3 dB bandwidth (Hz).
    pub bandwidth_hz: f64,
    /// Third-order nonlinearity coefficient.
    pub k3: f64,
    /// Output clipping level (V).
    pub v_clip: f64,
    /// The mixed LNA noise-stream seed (`cfg.seed ^ noise_seed·φ64`).
    pub lna_seed: u64,
    /// Active rail fault and its per-record stream seed; `None` covers
    /// both "no plan" and noop faults (the simulator drops those before
    /// they can perturb the signal, so they must share the clean key).
    pub fault: Option<(LnaRailFault, u64)>,
}

/// Key of the LNA-amplified proxy buffer.
#[must_use]
pub fn analog_key(p: &AnalogParams) -> PrefixKey {
    let mut h = hasher("analog");
    h.field_u64("record", p.record_fp);
    h.field_u64("fs_in", p.fs_in.to_bits());
    h.field_u64("f_ct", p.f_ct.to_bits());
    h.field_u64("gain", p.gain.to_bits());
    h.field_u64("noise", p.noise_floor_vrms.to_bits());
    h.field_u64("bw", p.bandwidth_hz.to_bits());
    h.field_u64("k3", p.k3.to_bits());
    h.field_u64("v_clip", p.v_clip.to_bits());
    h.field_u64("seed", p.lna_seed);
    match p.fault {
        None => h.field("fault", "clean"),
        Some((f, stream_seed)) => {
            h.field("fault", "rail");
            h.field_u64("rail_prob", f.rail_prob.to_bits());
            h.field_u64("episode_len", f.episode_len as u64);
            h.field_u64("v_clip_factor", f.v_clip_factor.to_bits());
            h.field_u64("fault_seed", stream_seed);
        }
    }
    PrefixKey(h.digest())
}

/// Key of the clean reference signal: the input sampled at `f_s`, exactly
/// `len` samples.
#[must_use]
pub fn reference_key(record_fp: u64, fs_in: f64, f_s: f64, len: usize) -> PrefixKey {
    let mut h = hasher("reference");
    h.field_u64("record", record_fp);
    h.field_u64("fs_in", fs_in.to_bits());
    h.field_u64("f_s", f_s.to_bits());
    h.field_u64("len", len as u64);
    PrefixKey(h.digest())
}

/// Key of the clean-clock CS sampling of an amplified buffer (`n` samples
/// at `f_s`). Composes the `analog` key, so every axis the amplified
/// buffer depends on is inherited.
#[must_use]
pub fn sampled_key(analog: PrefixKey, f_s: f64, n: usize) -> PrefixKey {
    let mut h = hasher("sampled");
    h.field("analog", &format!("{:032x}", analog.0));
    h.field_u64("f_s", f_s.to_bits());
    h.field_u64("n", n as u64);
    PrefixKey(h.digest())
}

/// Everything the charge-sharing encoder's output depends on beyond its
/// sampled input: the exact [`efficsense_blocks::ChargeSharingEncoder::new`]
/// inputs (the schedule by its memo key) and the leakage fault the encoder
/// is injected with. Nothing downstream of the encoder — resolution, ADC
/// or link faults — is an axis, so those points share one artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodedParams {
    /// The [`sampled_key`] of the encoder's input.
    pub sampled: PrefixKey,
    /// Measurements per frame (M).
    pub m: usize,
    /// Frame length N_Φ.
    pub n_phi: usize,
    /// Non-zeros per Φ column.
    pub s: usize,
    /// Seed of the Φ schedule.
    pub phi_seed: u64,
    /// Nominal sample capacitor (F).
    pub c_sample_f: f64,
    /// Nominal hold capacitor (F).
    pub c_hold_f: f64,
    /// Sample period driving the leakage droop (s).
    pub sample_period_s: f64,
    /// Mismatch, kT/C and leakage switches.
    pub imperfections: EncoderImperfections,
    /// Technology capacitor density (sets the mismatch σ).
    pub cap_density_f_per_um2: f64,
    /// Technology mismatch coefficient (sets the mismatch σ).
    pub c_pk_frac_um2: f64,
    /// Technology off-current (sets the droop time constant).
    pub i_leak_a: f64,
    /// Reference voltage (sets the droop time constant).
    pub v_ref: f64,
    /// Encoder seed (mismatch draws and kT/C noise stream).
    pub encoder_seed: u64,
    /// Active leakage fault; `None` covers both "no fault" and a noop one.
    pub leakage: Option<CapLeakageFault>,
}

/// Key of the charge-sharing encoder's output for one record.
#[must_use]
pub fn encoded_key(p: &EncodedParams) -> PrefixKey {
    let mut h = hasher("encoded");
    h.field("sampled", &format!("{:032x}", p.sampled.0));
    h.field_u64("m", p.m as u64);
    h.field_u64("n_phi", p.n_phi as u64);
    h.field_u64("s", p.s as u64);
    h.field_u64("phi_seed", p.phi_seed);
    h.field_u64("c_sample", p.c_sample_f.to_bits());
    h.field_u64("c_hold", p.c_hold_f.to_bits());
    h.field_u64("period", p.sample_period_s.to_bits());
    h.field_u64("mismatch", u64::from(p.imperfections.mismatch));
    h.field_u64("ktc", u64::from(p.imperfections.ktc_noise));
    h.field_u64("leak", u64::from(p.imperfections.leakage));
    h.field_u64("cap_density", p.cap_density_f_per_um2.to_bits());
    h.field_u64("c_pk", p.c_pk_frac_um2.to_bits());
    h.field_u64("i_leak", p.i_leak_a.to_bits());
    h.field_u64("v_ref", p.v_ref.to_bits());
    h.field_u64("seed", p.encoder_seed);
    match p.leakage {
        None => h.field("fault", "clean"),
        Some(f) => {
            h.field("fault", "leakage");
            h.field_u64("leak_multiplier", f.leak_multiplier.to_bits());
        }
    }
    PrefixKey(h.digest())
}

/// Key of the full acquired front-end output for one record. The deepest
/// prefix: everything up to (and including) reconstruction, just before
/// the goal function. Keyed by the complete configuration rendering and
/// the canonical fault plan — the same canonicalisation discipline as the
/// L1 [`crate::cache::point_key`] — plus the record content and noise
/// seed, so it is sufficient for every block the chain instantiates.
#[must_use]
pub fn acquired_key(
    cfg_key: &str,
    plan_key: &str,
    record_fp: u64,
    fs_in: f64,
    noise_seed: u64,
) -> PrefixKey {
    let mut h = hasher("acquired");
    h.field("cfg", cfg_key);
    h.field("plan", plan_key);
    h.field_u64("record", record_fp);
    h.field_u64("fs_in", fs_in.to_bits());
    h.field_u64("noise_seed", noise_seed);
    PrefixKey(h.digest())
}

// ---------------------------------------------------------------------------
// Artifact values
// ---------------------------------------------------------------------------

/// The acquired front-end output of one record: everything
/// [`crate::simulate::Simulator::run`] derives from the signal path (the
/// power/area models re-derive cheaply from the config and the stored RMS).
#[derive(Debug, Clone, PartialEq)]
pub struct AcquiredPrefix {
    /// Acquired samples referred back to the sensor input (already divided
    /// by the LNA gain, which is part of the key).
    pub input_referred: Vec<f64>,
    /// Data words sent to the transmitter.
    pub words: u64,
    /// Measured RMS at the converter input (feeds the DAC switching model).
    pub adc_in_rms: f64,
    /// Radio-link accounting when a packet-loss fault was active.
    pub link: Option<LinkStats>,
}

/// Budget weight of an acquired output (a signal buffer weighs its `f64`
/// count); words/rms/link are a rounding error next to the samples.
fn acquired_samples(v: &AcquiredPrefix) -> usize {
    v.input_referred.len() + 8
}

// ---------------------------------------------------------------------------
// PrefixStore
// ---------------------------------------------------------------------------

/// Element budgets (≈ `f64`s) per artifact class; see
/// [`PrefixStore::with_budgets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixBudgets {
    /// Resampled continuous-time records.
    pub ct: usize,
    /// LNA-amplified buffers.
    pub analog: usize,
    /// Clean reference signals.
    pub reference: usize,
    /// Clean-clock CS samplings.
    pub sampled: usize,
    /// Charge-sharing encoder outputs.
    pub encoded: usize,
    /// Acquired front-end outputs.
    pub acquired: usize,
}

impl Default for PrefixBudgets {
    fn default() -> Self {
        // ~136 MB total at f64 size: comfortably holds a reduced-scale
        // product sweep while bounding a long-running server. The CT and
        // amplified buffers run at the proxy rate (8× oversampled), so they
        // get the larger shares; an encoded record is M/N_Φ of its sampling.
        Self {
            ct: 4 << 20,
            analog: 4 << 20,
            reference: 1 << 20,
            sampled: 2 << 20,
            encoded: 2 << 20,
            acquired: 4 << 20,
        }
    }
}

/// The Level-3 prefix store: six bounded, content-addressed artifact
/// classes (see the module docs), each a single-flight [`Store`]. Cheap to
/// share: clone an `Arc<PrefixStore>` into every [`crate::sweep::Sweep`]
/// (or attach it to a bare [`crate::simulate::Simulator`]) that should
/// amortize front-end work; attaching it never changes results, only cost.
#[derive(Debug)]
pub struct PrefixStore {
    pub(crate) ct: Store<PrefixKey, Vec<f64>>,
    pub(crate) analog: Store<PrefixKey, Vec<f64>>,
    pub(crate) reference: Store<PrefixKey, Vec<f64>>,
    pub(crate) sampled: Store<PrefixKey, Vec<f64>>,
    pub(crate) encoded: Store<PrefixKey, Vec<f64>>,
    pub(crate) acquired: Store<PrefixKey, AcquiredPrefix>,
}

impl Default for PrefixStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixStore {
    /// A store with the default budgets.
    #[must_use]
    pub fn new() -> Self {
        Self::with_budgets(PrefixBudgets::default())
    }

    /// A store with explicit per-class element budgets (≈ `f64`s each).
    /// Tiny budgets are legal — the store then churns, and churn only costs
    /// rebuilds, never correctness.
    #[must_use]
    pub fn with_budgets(b: PrefixBudgets) -> Self {
        Self {
            ct: Store::bounded("memo.ct", b.ct, Vec::len),
            analog: Store::bounded("memo.analog", b.analog, Vec::len),
            reference: Store::bounded("memo.reference", b.reference, Vec::len),
            sampled: Store::bounded("memo.sampled", b.sampled, Vec::len),
            encoded: Store::bounded("memo.encoded", b.encoded, Vec::len),
            acquired: Store::bounded("memo.acquired", b.acquired, acquired_samples),
        }
    }

    /// Current counters of every class.
    #[must_use]
    pub fn stats(&self) -> PrefixStats {
        PrefixStats {
            ct: self.ct.stats(),
            analog: self.analog.stats(),
            reference: self.reference.stats(),
            sampled: self.sampled.stats(),
            encoded: self.encoded.stats(),
            acquired: self.acquired.stats(),
        }
    }

    /// Zeroes the hit/miss/eviction counters (entries stay cached).
    pub fn reset_stats(&self) {
        self.ct.reset_stats();
        self.analog.reset_stats();
        self.reference.reset_stats();
        self.sampled.reset_stats();
        self.encoded.reset_stats();
        self.acquired.reset_stats();
    }
}

/// Counters of every artifact class of a [`PrefixStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixStats {
    /// Resampled CT records.
    pub ct: StoreStats,
    /// LNA-amplified buffers.
    pub analog: StoreStats,
    /// Clean reference signals.
    pub reference: StoreStats,
    /// Clean-clock CS samplings.
    pub sampled: StoreStats,
    /// Charge-sharing encoder outputs.
    pub encoded: StoreStats,
    /// Acquired front-end outputs (elements count input-referred samples).
    pub acquired: StoreStats,
}

impl PrefixStats {
    /// Total hits across every class.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.ct.hits
            + self.analog.hits
            + self.reference.hits
            + self.sampled.hits
            + self.encoded.hits
            + self.acquired.hits
    }

    /// Total misses across every class.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.ct.misses
            + self.analog.misses
            + self.reference.misses
            + self.sampled.misses
            + self.encoded.misses
            + self.acquired.misses
    }

    /// Total evictions across every class.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.ct.evictions
            + self.analog.evictions
            + self.reference.evictions
            + self.sampled.evictions
            + self.encoded.evictions
            + self.acquired.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn params() -> AnalogParams {
        AnalogParams {
            record_fp: 0xABCD_EF01,
            fs_in: 173.61,
            f_ct: 4300.8,
            gain: 4000.0,
            noise_floor_vrms: 2e-6,
            bandwidth_hz: 768.0,
            k3: 0.01,
            v_clip: 1.0,
            lna_seed: 0xEFF1,
            fault: None,
        }
    }

    // One collision regression per key axis: the 128-bit FNV scheme must
    // separate every axis that can change an artifact bit pattern.

    #[test]
    fn record_axis_separates_keys() {
        let a = record_fingerprint(&[1.0, 2.0, 3.0]);
        let b = record_fingerprint(&[1.0, 2.0, 4.0]);
        assert_ne!(a, b, "sample content must change the fingerprint");
        // Length participates even when the value stream prefix matches.
        assert_ne!(
            record_fingerprint(&[1.0, 2.0]),
            record_fingerprint(&[1.0, 2.0, 0.0])
        );
        assert_ne!(
            ct_key(a, 173.61, 4300.8),
            ct_key(b, 173.61, 4300.8),
            "record axis must separate CT keys"
        );
    }

    #[test]
    fn f_ct_axis_separates_keys() {
        let fp = record_fingerprint(&[0.5; 8]);
        assert_ne!(ct_key(fp, 173.61, 4300.8), ct_key(fp, 173.61, 8601.6));
        assert_ne!(
            analog_key(&params()),
            analog_key(&AnalogParams {
                f_ct: 8601.6,
                ..params()
            })
        );
    }

    #[test]
    fn fs_in_axis_separates_keys() {
        let fp = record_fingerprint(&[0.5; 8]);
        assert_ne!(ct_key(fp, 173.61, 4300.8), ct_key(fp, 256.0, 4300.8));
    }

    #[test]
    fn lna_gain_axis_separates_keys() {
        assert_ne!(
            analog_key(&params()),
            analog_key(&AnalogParams {
                gain: 2000.0,
                ..params()
            })
        );
    }

    #[test]
    fn lna_noise_axis_separates_keys() {
        assert_ne!(
            analog_key(&params()),
            analog_key(&AnalogParams {
                noise_floor_vrms: 4e-6,
                ..params()
            })
        );
    }

    #[test]
    fn lna_k3_axis_separates_keys() {
        assert_ne!(
            analog_key(&params()),
            analog_key(&AnalogParams {
                k3: 0.02,
                ..params()
            })
        );
        // The float axes key by bit pattern: -0.0 and 0.0 key apart (a
        // harmless extra miss, never a false hit).
        assert_ne!(
            analog_key(&AnalogParams {
                k3: 0.0,
                ..params()
            }),
            analog_key(&AnalogParams {
                k3: -0.0,
                ..params()
            })
        );
    }

    #[test]
    fn seed_axis_separates_keys() {
        assert_ne!(
            analog_key(&params()),
            analog_key(&AnalogParams {
                lna_seed: 0xEFF2,
                ..params()
            })
        );
    }

    #[test]
    fn fault_axis_separates_clean_from_active_and_per_parameter() {
        let rail = LnaRailFault {
            rail_prob: 0.01,
            episode_len: 64,
            v_clip_factor: 0.8,
        };
        let clean = analog_key(&params());
        let faulted = analog_key(&AnalogParams {
            fault: Some((rail, 7)),
            ..params()
        });
        assert_ne!(clean, faulted, "fault vs clean must separate");
        // Fault stream seed and each fault parameter separate too.
        assert_ne!(
            faulted,
            analog_key(&AnalogParams {
                fault: Some((rail, 8)),
                ..params()
            })
        );
        assert_ne!(
            faulted,
            analog_key(&AnalogParams {
                fault: Some((
                    LnaRailFault {
                        v_clip_factor: 0.5,
                        ..rail
                    },
                    7
                )),
                ..params()
            })
        );
    }

    #[test]
    fn reference_key_separates_length_and_rate() {
        let fp = record_fingerprint(&[0.25; 16]);
        let k = reference_key(fp, 173.61, 537.6, 4224);
        assert_ne!(k, reference_key(fp, 173.61, 537.6, 4301));
        assert_ne!(k, reference_key(fp, 173.61, 268.8, 4224));
        assert_ne!(k, reference_key(fp ^ 1, 173.61, 537.6, 4224));
    }

    #[test]
    fn sampled_key_inherits_analog_axes() {
        let a = analog_key(&params());
        let b = analog_key(&AnalogParams {
            noise_floor_vrms: 4e-6,
            ..params()
        });
        assert_ne!(sampled_key(a, 537.6, 4301), sampled_key(b, 537.6, 4301));
        assert_ne!(sampled_key(a, 537.6, 4301), sampled_key(a, 537.6, 4300));
    }

    fn encoded_params() -> EncodedParams {
        EncodedParams {
            sampled: sampled_key(analog_key(&params()), 537.6, 4300),
            m: 75,
            n_phi: 384,
            s: 2,
            phi_seed: 0x5EB1,
            c_sample_f: 0.1e-12,
            c_hold_f: 0.5e-12,
            sample_period_s: 1.0 / 537.6,
            imperfections: EncoderImperfections::realistic(),
            cap_density_f_per_um2: 2e-15,
            c_pk_frac_um2: 1e-4,
            i_leak_a: 1e-15,
            v_ref: 1.0,
            encoder_seed: 0xE7C0,
            leakage: None,
        }
    }

    #[test]
    fn every_encoder_input_separates_encoded_keys() {
        let base = encoded_params();
        let k = encoded_key(&base);
        assert_eq!(k, encoded_key(&encoded_params()), "keys are deterministic");
        let imp = base.imperfections;
        let variants = [
            EncodedParams {
                sampled: sampled_key(analog_key(&params()), 537.6, 4301),
                ..base
            },
            EncodedParams { m: 192, ..base },
            EncodedParams { n_phi: 256, ..base },
            EncodedParams { s: 3, ..base },
            EncodedParams {
                phi_seed: 0x5EB2,
                ..base
            },
            EncodedParams {
                c_sample_f: 0.2e-12,
                ..base
            },
            EncodedParams {
                c_hold_f: 1e-12,
                ..base
            },
            EncodedParams {
                sample_period_s: 1.0 / 268.8,
                ..base
            },
            EncodedParams {
                imperfections: EncoderImperfections {
                    mismatch: false,
                    ..imp
                },
                ..base
            },
            EncodedParams {
                imperfections: EncoderImperfections {
                    ktc_noise: false,
                    ..imp
                },
                ..base
            },
            EncodedParams {
                imperfections: EncoderImperfections {
                    leakage: false,
                    ..imp
                },
                ..base
            },
            EncodedParams {
                cap_density_f_per_um2: 1e-15,
                ..base
            },
            EncodedParams {
                c_pk_frac_um2: 2e-4,
                ..base
            },
            EncodedParams {
                i_leak_a: 2e-15,
                ..base
            },
            EncodedParams { v_ref: 0.9, ..base },
            EncodedParams {
                encoder_seed: 0xE7C1,
                ..base
            },
            EncodedParams {
                leakage: Some(CapLeakageFault {
                    leak_multiplier: 100.0,
                }),
                ..base
            },
        ];
        let mut seen = vec![k];
        for v in &variants {
            let kv = encoded_key(v);
            assert!(!seen.contains(&kv), "axis collided: {v:?}");
            seen.push(kv);
        }
        // The leakage multiplier itself is an axis, not just its presence.
        assert_ne!(
            encoded_key(&variants[16]),
            encoded_key(&EncodedParams {
                leakage: Some(CapLeakageFault {
                    leak_multiplier: 10.0,
                }),
                ..base
            })
        );
    }

    #[test]
    fn acquired_key_separates_config_plan_record_and_seed() {
        let k = acquired_key("cfg-a", "clean", 1, 173.61, 5);
        assert_ne!(k, acquired_key("cfg-b", "clean", 1, 173.61, 5));
        assert_ne!(k, acquired_key("cfg-a", "plan;seed=1;x", 1, 173.61, 5));
        assert_ne!(k, acquired_key("cfg-a", "clean", 2, 173.61, 5));
        assert_ne!(k, acquired_key("cfg-a", "clean", 1, 173.61, 6));
    }

    #[test]
    fn classes_never_alias_even_on_equal_axes() {
        // A CT key and a reference key over identical field values must
        // differ: the class tag is part of every key.
        let fp = record_fingerprint(&[1.0]);
        let ct = ct_key(fp, 100.0, 200.0);
        let reference = reference_key(fp, 100.0, 200.0, 0);
        assert_ne!(ct, reference);
    }

    fn budgets(elements: usize) -> PrefixBudgets {
        PrefixBudgets {
            ct: elements,
            analog: elements,
            reference: elements,
            sampled: elements,
            encoded: elements,
            acquired: elements,
        }
    }

    #[test]
    fn classes_share_built_artifacts_and_count_samples() {
        let store = PrefixStore::new();
        let key = ct_key(1, 100.0, 800.0);
        let v = store.ct.get_or_insert_with(&key, || vec![1.0, 2.0]);
        let again = store
            .ct
            .get_or_insert_with(&key, || unreachable!("a hit never builds"));
        assert!(Arc::ptr_eq(&v, &again), "same key must share one instance");
        let s = store.stats();
        assert_eq!((s.ct.hits, s.ct.misses, s.ct.entries), (1, 1, 1));
        assert_eq!(s.ct.elements, 2, "a buffer weighs one element per f64");
        assert_eq!((s.hits(), s.misses()), (1, 1));
        let acquired = store.acquired.get_or_insert_with(&key, || AcquiredPrefix {
            input_referred: vec![0.0; 4],
            words: 4,
            adc_in_rms: 0.1,
            link: None,
        });
        assert_eq!(acquired.words, 4);
        assert_eq!(store.stats().acquired.elements, 4 + 8);
        store.reset_stats();
        assert_eq!(store.stats().hits(), 0);
        assert_eq!(store.stats().ct.entries, 1, "reset keeps entries");
    }

    #[test]
    fn capped_class_evicts_and_rebuilds() {
        // Budget 32 elements → 2 per shard; 8-element values force churn.
        let store = PrefixStore::with_budgets(budgets(32));
        let keys: Vec<PrefixKey> = (0..64).map(|i| ct_key(i, 100.0, 800.0)).collect();
        for k in &keys {
            store.ct.get_or_insert_with(k, || vec![0.5; 8]);
        }
        let s = store.stats();
        assert_eq!(s.evictions(), 64 - s.ct.entries as u64);
        assert!(s.ct.elements <= 16 * 8, "held {} elements", s.ct.elements);
        // The newest key survives; an evicted key misses and rebuilds.
        assert!(store.ct.get(&keys[63]).is_some());
        let evicted = keys
            .iter()
            .find(|k| store.ct.get(k).is_none())
            .expect("an over-budget class evicts");
        let before = store.stats().ct.misses;
        store.ct.get_or_insert_with(evicted, || vec![0.5; 8]);
        assert_eq!(store.stats().ct.misses, before + 1);
        // Budgets are per class: the other classes are untouched.
        assert_eq!(store.stats().analog, StoreStats::default());
    }
}
