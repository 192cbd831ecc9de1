//! `warm_requery`: single-cell re-queries served from a reloaded L1 cache.
//!
//! Set-up fills an L1 `SweepCache` with the four cells (cold fill, with a
//! fresh L3 store), saves it, and loads it into a fresh cache. The timed
//! phase only reads: every re-query must come back bit-identical to its
//! cold fill without evaluating a point.

use crate::digest::{of_report, Digest};
use crate::host::HostProbe;
use crate::inputs::{self, Cell};
use crate::workload::{
    common_setup, dataset_seconds, remove_scratch, scratch_file, us, Round, SetupTimes, Timed,
};
use efficsense_core::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// The cache state every timed re-query starts in.
pub const STATE: &str = "L1 SweepCache reloaded from the saved cold fill, no L3 store, \
                         detector warm from set-up";

/// Workload state after set-up.
pub struct WarmRequery {
    dataset: EegDataset,
    space: DesignSpace,
    cells: Vec<Cell>,
    workers: usize,
    cache: Arc<SweepCache>,
    /// Cold-fill digest per cell: what every re-query must reproduce.
    cold: Vec<u64>,
    cold_digest: u64,
}

impl WarmRequery {
    /// One set-up repetition: common set-up, cold fill, save, load.
    ///
    /// # Panics
    ///
    /// Panics when the scratch cache file cannot be written or read back.
    #[must_use]
    pub fn setup(seed: u64, rep: usize, times: &mut SetupTimes) -> Self {
        let space = inputs::space();
        let (dataset, _) = common_setup(seed, rep, &inputs::configs(&space), times);
        let cells = inputs::cells(seed);
        let workers = inputs::workers();
        let fill = Arc::new(SweepCache::new());
        let store = Arc::new(PrefixStore::new());
        let mut cold_digest = Digest::default();
        let cold: Vec<u64> = cells
            .iter()
            .map(|cell| {
                let report = Sweep::new(inputs::sweep_config(cell, workers))
                    .with_cache(Arc::clone(&fill))
                    .with_prefix_store(Arc::clone(&store))
                    .run_report(&space, &dataset);
                cold_digest.report(&report);
                of_report(&report)
            })
            .collect();
        let path = scratch_file("warm_requery");
        fill.save(&path).expect("can save the cold-filled cache");
        let cache = Arc::new(SweepCache::new());
        let (loaded, skipped) = cache.load(&path).expect("can load the saved cache");
        remove_scratch(&path);
        assert!(
            loaded == fill.len() && skipped == 0,
            "reload must restore every entry ({loaded} of {}, {skipped} skipped)",
            fill.len()
        );
        Self {
            dataset,
            space,
            cells,
            workers,
            cache,
            cold,
            cold_digest: cold_digest.value(),
        }
    }

    /// The dataset the workload sweeps.
    #[must_use]
    pub fn dataset(&self) -> &EegDataset {
        &self.dataset
    }

    /// Re-queries the four cells, one round after another, until `seconds`
    /// have elapsed, probing the host speed between rounds. Every re-query
    /// is compared bit for bit with its cold fill; any evaluation (an L1
    /// miss) also counts as a failure.
    pub fn run(&mut self, seconds: f64, probe: &mut HostProbe) -> Timed {
        let mut timed = Timed::default();
        let points = (self.space.len() * self.cells.len()) as f64;
        let signal_s = points * dataset_seconds(&self.dataset);
        self.cache.reset_stats();
        let start = Instant::now();
        while timed.rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
            probe.tick();
            let round_start = Instant::now();
            for (cell, cold) in self.cells.iter().zip(&self.cold) {
                let t = Instant::now();
                let report = Sweep::new(inputs::sweep_config(cell, self.workers))
                    .with_cache(Arc::clone(&self.cache))
                    .run_report(&self.space, &self.dataset);
                let call_us = us(t);
                timed.latencies_us.push(call_us);
                timed.traffic.sweep_busy_s +=
                    call_us * 1e-6 * self.workers.min(self.space.len()) as f64;
                timed.attempted += 1;
                if of_report(&report) != *cold {
                    timed.failed += 1;
                }
            }
            timed.rounds.push(Round {
                points,
                signal_s,
                wall_s: round_start.elapsed().as_secs_f64(),
            });
        }
        let stats = self.cache.stats();
        timed.traffic.cache = (stats.hits, stats.misses);
        timed.failed += stats.misses;
        timed
    }

    /// Digest over every result bit of the cold fill.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.cold_digest
    }
}
