//! Workload inputs, derived from the `--seed` argument only.
//!
//! The scale is fixed here and nowhere else: no environment variable
//! changes it, so two runs with one seed always see the same inputs.

use efficsense_core::config::CsConfig;
use efficsense_core::prelude::*;
use efficsense_core::sweep::Metric;

/// The seed at which every workload's output digest is pinned.
pub const DEFAULT_SEED: u64 = 1;

/// Detector training seed and decision window of every workload (the
/// `SweepConfig` defaults, so the benchmark sweeps exactly what a default
/// sweep would).
pub const DETECTOR_SEED: u64 = 0xD0D0;
/// Detection decision window (s).
pub const EPOCH_S: f64 = 2.0;

/// Input samples per `StreamSimulator::push`.
pub const PUSH_LEN: usize = 4096;
/// Requested length of the aging replay (s); the built replay is aligned
/// down to whole record cycles.
pub const REPLAY_S: f64 = 600.0;
/// Score windows of the replay; the record cycle repeats once per window.
const REPLAY_WINDOWS: usize = 8;

/// SplitMix64 finaliser: decorrelates the derived seeds of one `--seed`.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 15 records of 8 s (5 per class): the repository's reduced scale.
#[must_use]
pub fn dataset_config(seed: u64) -> DatasetConfig {
    DatasetConfig {
        records_per_class: 5,
        duration_s: 8.0,
        seed: mix(seed, 0xEEC5),
        ..Default::default()
    }
}

/// Master seed of every injected fault stream.
#[must_use]
pub fn fault_seed(seed: u64) -> u64 {
    mix(seed, 0xFA_017)
}

/// The reduced design space: 8 baseline + 16 CS points.
#[must_use]
pub fn space() -> DesignSpace {
    DesignSpace::reduced()
}

/// The system configuration of every point of `space`.
#[must_use]
pub fn configs(space: &DesignSpace) -> Vec<SystemConfig> {
    space
        .points()
        .iter()
        .map(|p| p.to_config(&space.template))
        .collect()
}

/// One `(fault kind, severity)` cell of the product.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// `kind@severity`.
    pub label: String,
    /// The injected plan.
    pub plan: FaultPlan,
}

/// `AdcStuckBit` and `CapLeakage` at severity 0 and 1. The two severity-0
/// cells are the clean plan, so they share every L3 artifact.
#[must_use]
pub fn cells(seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    for kind in [FaultKind::AdcStuckBit, FaultKind::CapLeakage] {
        for severity in [0.0, 1.0] {
            out.push(Cell {
                label: format!("{kind}@{severity}"),
                plan: FaultPlan::single(kind, severity, fault_seed(seed)),
            });
        }
    }
    out
}

/// The sweep configuration of one cell: detection-accuracy goal, skip
/// policy, one decode thread, `workers` sweep workers.
#[must_use]
pub fn sweep_config(cell: &Cell, workers: usize) -> SweepConfig {
    SweepConfig {
        metric: Metric::DetectionAccuracy,
        threads: workers,
        detector_seed: DETECTOR_SEED,
        epoch_s: EPOCH_S,
        failure_policy: FailurePolicy::Skip,
        fault_plan: Some(cell.plan.clone()),
        decode_threads: 1,
    }
}

/// Sweep workers: every core the host offers.
#[must_use]
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Rate the sweep goals run at (the design space's sample rate).
#[must_use]
pub fn goal_fs() -> f64 {
    space().template.design.f_sample_hz()
}

/// The architecture a fault kind natively lives on.
#[must_use]
pub fn native_architecture(kind: FaultKind) -> Architecture {
    match kind {
        FaultKind::CapLeakage => Architecture::CompressiveSensing,
        _ => Architecture::Baseline,
    }
}

/// The paper-default 8-bit system of an architecture.
#[must_use]
pub fn config_for(arch: Architecture) -> SystemConfig {
    match arch {
        Architecture::Baseline => SystemConfig::baseline(8),
        Architecture::CompressiveSensing => SystemConfig::compressive(8, CsConfig::default()),
    }
}

/// One labelled slice of the replay input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First input sample.
    pub start: usize,
    /// Length in input samples.
    pub len: usize,
    /// Seizure label.
    pub label: usize,
}

/// The long aging-replay input: one cycle of dataset records repeated once
/// per score window, so every window carries the same signal content.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Concatenated input samples.
    pub input: Vec<f64>,
    /// Labelled record boundaries.
    pub segments: Vec<Segment>,
    /// Input rate (Hz).
    pub fs_in: f64,
    /// Replay length (s).
    pub seconds: f64,
}

/// Builds the replay from the dataset (the longevity replay at its reduced
/// scale).
#[must_use]
pub fn replay(dataset: &EegDataset) -> Replay {
    let fs_in = dataset.records[0].fs;
    let window_target = (REPLAY_S / REPLAY_WINDOWS as f64 * fs_in) as usize;
    let mut cycle: Vec<&Record> = Vec::new();
    let mut cycle_len = 0usize;
    for rec in &dataset.records {
        if cycle.len() >= 2 && cycle_len + rec.samples.len() > window_target {
            break;
        }
        cycle_len += rec.samples.len();
        cycle.push(rec);
    }
    let mut input = Vec::with_capacity(cycle_len * REPLAY_WINDOWS);
    let mut segments = Vec::new();
    for _ in 0..REPLAY_WINDOWS {
        for rec in &cycle {
            segments.push(Segment {
                start: input.len(),
                len: rec.samples.len(),
                label: rec.label(),
            });
            input.extend_from_slice(&rec.samples);
        }
    }
    let seconds = input.len() as f64 / fs_in;
    Replay {
        input,
        segments,
        fs_in,
        seconds,
    }
}

/// The aging plan of one fault kind: a linear 0→1 severity ramp over the
/// whole replay.
#[must_use]
pub fn aging_plan(kind: FaultKind, seed: u64, seconds: f64) -> CompoundPlan {
    CompoundPlan::new(fault_seed(seed), seconds / 64.0).with(
        kind,
        SeverityProfile::Linear {
            start: 0.0,
            end: 1.0,
            ramp_s: seconds,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_core::cache::dataset_fingerprint;

    #[test]
    fn same_seed_gives_identical_inputs() {
        let a = EegDataset::generate(&dataset_config(7));
        let b = EegDataset::generate(&dataset_config(7));
        assert_eq!(dataset_fingerprint(&a), dataset_fingerprint(&b));
        assert_eq!(cells(7), cells(7));
        assert_eq!(replay(&a), replay(&b));
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        let a = EegDataset::generate(&dataset_config(7));
        let b = EegDataset::generate(&dataset_config(8));
        assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&b));
        assert_ne!(replay(&a).input, replay(&b).input);
        // Severity-0 cells are clean for every seed; the faulted ones differ.
        let (ca, cb) = (cells(7), cells(8));
        assert_ne!(ca[1].plan, cb[1].plan);
        assert_ne!(
            aging_plan(FaultKind::LnaRail, 7, 60.0),
            aging_plan(FaultKind::LnaRail, 8, 60.0)
        );
    }

    #[test]
    fn workload_scale_is_fixed() {
        assert_eq!(space().len(), 24);
        assert_eq!(cells(DEFAULT_SEED).len(), 4);
        assert_eq!(
            EegDataset::generate(&dataset_config(DEFAULT_SEED)).len(),
            15
        );
    }
}
