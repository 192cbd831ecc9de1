//! What the three workloads share: set-up, timing records and traffic.

use crate::inputs::{dataset_config, goal_fs, DETECTOR_SEED, EPOCH_S};
use efficsense_core::cache::trained_detector;
use efficsense_core::prelude::*;
use efficsense_cs::memo;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// One closed-loop round of a workload (a product pass, a sweep over the
/// four cells, or one aging replay of every fault kind).
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Design points the round delivered.
    pub points: f64,
    /// Signal seconds behind those points.
    pub signal_s: f64,
    /// Wall time of the round (s).
    pub wall_s: f64,
}

/// Cache and worker traffic of a timed phase.
#[derive(Debug, Clone, Default)]
pub struct Traffic {
    /// L3 `(hits, misses)` per class: ct, analog, reference, sampled,
    /// acquired.
    pub prefix: [(u64, u64); 5],
    /// L3 evictions.
    pub prefix_evictions: u64,
    /// L1 `(hits, misses)`.
    pub cache: (u64, u64),
    /// Sum over sweep calls of call wall time × workers (s).
    pub sweep_busy_s: f64,
}

impl Traffic {
    /// Adds one prefix store's counters.
    pub fn add_prefix(&mut self, s: &PrefixStats) {
        for (acc, c) in
            self.prefix
                .iter_mut()
                .zip([&s.ct, &s.analog, &s.reference, &s.sampled, &s.acquired])
        {
            acc.0 += c.hits;
            acc.1 += c.misses;
        }
        self.prefix_evictions += s.evictions();
    }
}

/// What a timed phase measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Completed rounds.
    pub rounds: Vec<Round>,
    /// Latency of every closed-loop call (µs).
    pub latencies_us: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Quarantined points plus output mismatches.
    pub failed: u64,
    /// Cache and worker traffic.
    pub traffic: Traffic,
}

/// Per-layer set-up timings of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Whole repetition (s).
    pub total_s: f64,
    /// `EegDataset::generate` (ms).
    pub generate_ms: f64,
    /// Detector training (ms).
    pub train_ms: f64,
}

/// The set-up every workload starts with: a fresh L2 memo, the dataset,
/// the trained detector and the L2 dictionaries of `configs`.
///
/// Repetition 0 trains through the process-wide detector memo, leaving it
/// warm for the timed phase; later repetitions train directly (the memo
/// would answer them for free) so that every repetition does the same work.
pub fn common_setup(
    seed: u64,
    rep: usize,
    configs: &[SystemConfig],
    times: &mut SetupTimes,
) -> (EegDataset, Arc<SeizureDetector>) {
    if rep > 0 {
        memo::clear();
    }
    let t = Instant::now();
    let dataset = EegDataset::generate(&dataset_config(seed));
    times.generate_ms = ms(t);
    let t = Instant::now();
    let detector = if rep == 0 {
        trained_detector(&dataset, goal_fs(), EPOCH_S, DETECTOR_SEED)
    } else {
        Arc::new(SeizureDetector::train_epoched(
            &dataset,
            goal_fs(),
            EPOCH_S,
            DETECTOR_SEED,
        ))
    };
    times.train_ms = ms(t);
    for cfg in configs {
        // Building a simulator fetches its dictionary through the L2 memo.
        let _ = Simulator::new(cfg.clone()).expect("workload configurations are valid");
    }
    (dataset, detector)
}

/// Milliseconds since `t`.
#[must_use]
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Microseconds since `t`.
#[must_use]
pub fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Signal seconds in a dataset.
#[must_use]
pub fn dataset_seconds(dataset: &EegDataset) -> f64 {
    dataset.records.iter().map(Record::duration_s).sum()
}

/// Scratch directory for files a run writes and removes again.
const SCRATCH_DIR: &str = ".bench_tmp";

/// A per-process scratch file under [`SCRATCH_DIR`] in the working
/// directory, which is created on demand.
///
/// # Panics
///
/// Panics when the directory cannot be created.
#[must_use]
pub fn scratch_file(stem: &str) -> PathBuf {
    std::fs::create_dir_all(SCRATCH_DIR).expect("can create the scratch directory");
    Path::new(SCRATCH_DIR).join(format!("{stem}-{}.jsonl", std::process::id()))
}

/// Removes a scratch file and, once empty, the scratch directory.
pub fn remove_scratch(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_dir(SCRATCH_DIR);
}
