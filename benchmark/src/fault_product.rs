//! `fault_product`: the reduced design space × four fault cells, the
//! paper's pathfinding loop.
//!
//! Every timed pass starts from one stated state: a fresh L3 prefix store
//! shared by the pass's four cells, no L1 cache, and the L2 dictionaries
//! and the trained detector warmed in set-up.

use crate::digest::{of_report, Digest};
use crate::host::HostProbe;
use crate::inputs::{self, Cell, DETECTOR_SEED, EPOCH_S};
use crate::workload::{common_setup, dataset_seconds, us, Round, SetupTimes, Timed};
use efficsense_core::cache::trained_detector;
use efficsense_core::goal::DetectionGoal;
use efficsense_core::prelude::*;
use efficsense_core::sweep::evaluate_point;
use std::sync::Arc;
use std::time::Instant;

/// Point indices re-evaluated store-off on one thread by the output check:
/// the first and last baseline point and the first and last CS point.
const CHECK_POINTS: [usize; 4] = [0, 7, 8, 23];

/// The cache state every timed pass starts in.
pub const STATE: &str = "fresh L3 PrefixStore per pass (default budgets), no L1 cache, \
                         L2 dictionaries and detector warm from set-up";

/// Workload state after set-up.
pub struct FaultProduct {
    dataset: EegDataset,
    space: DesignSpace,
    cells: Vec<Cell>,
    workers: usize,
    /// The first timed pass, the reference every later pass must match.
    first_pass: Option<Vec<SweepReport>>,
}

impl FaultProduct {
    /// One set-up repetition.
    #[must_use]
    pub fn setup(seed: u64, rep: usize, times: &mut SetupTimes) -> Self {
        let space = inputs::space();
        let (dataset, _) = common_setup(seed, rep, &inputs::configs(&space), times);
        Self {
            dataset,
            space,
            cells: inputs::cells(seed),
            workers: inputs::workers(),
            first_pass: None,
        }
    }

    /// The dataset the workload sweeps.
    #[must_use]
    pub fn dataset(&self) -> &EegDataset {
        &self.dataset
    }

    /// Runs whole passes until `seconds` have elapsed, probing the host
    /// speed between passes.
    pub fn run(&mut self, seconds: f64, probe: &mut HostProbe) -> Timed {
        let mut timed = Timed::default();
        let points = (self.space.len() * self.cells.len()) as f64;
        let signal_s = points * dataset_seconds(&self.dataset);
        let start = Instant::now();
        while timed.rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
            probe.tick();
            let store = Arc::new(PrefixStore::new());
            let pass_start = Instant::now();
            let mut pass = Vec::with_capacity(self.cells.len());
            for cell in &self.cells {
                let t = Instant::now();
                let report = Sweep::new(inputs::sweep_config(cell, self.workers))
                    .with_prefix_store(Arc::clone(&store))
                    .run_report(&self.space, &self.dataset);
                let call_us = us(t);
                timed.latencies_us.push(call_us);
                timed.traffic.sweep_busy_s +=
                    call_us * 1e-6 * self.workers.min(self.space.len()) as f64;
                pass.push(report);
            }
            let wall_s = pass_start.elapsed().as_secs_f64();
            timed.rounds.push(Round {
                points,
                signal_s,
                wall_s,
            });
            timed.traffic.add_prefix(&store.stats());
            for report in &pass {
                timed.attempted += report.points_total as u64;
                timed.failed += (report.quarantine.len() + report.missing()) as u64;
            }
            match &self.first_pass {
                None => self.first_pass = Some(pass),
                Some(first) => {
                    timed.failed += first
                        .iter()
                        .zip(&pass)
                        .filter(|(a, b)| of_report(a) != of_report(b))
                        .count() as u64;
                }
            }
        }
        timed
    }

    /// Output check: re-evaluates [`CHECK_POINTS`] of every cell with
    /// `evaluate_point` (no prefix store, one thread) and compares them bit
    /// for bit with the first timed pass. Returns `(checked, mismatches)`.
    #[must_use]
    pub fn check(&self) -> (u64, u64) {
        let first = self
            .first_pass
            .as_ref()
            .expect("check runs after a timed pass");
        let detector = trained_detector(&self.dataset, inputs::goal_fs(), EPOCH_S, DETECTOR_SEED);
        let goal = DetectionGoal::new((*detector).clone());
        let points = self.space.points();
        let (mut checked, mut mismatches) = (0, 0);
        for (cell, report) in self.cells.iter().zip(first) {
            for &i in &CHECK_POINTS {
                checked += 1;
                let fresh = evaluate_point(
                    &points[i],
                    &self.space,
                    &self.dataset,
                    &goal,
                    Some(&cell.plan),
                );
                let swept = report.results.iter().find(|r| r.point == points[i]);
                let same = match (fresh, swept) {
                    (Ok(a), Some(b)) => {
                        let (mut da, mut db) = (Digest::default(), Digest::default());
                        da.result(&a);
                        db.result(b);
                        da.value() == db.value()
                    }
                    _ => false,
                };
                if !same {
                    mismatches += 1;
                }
            }
        }
        (checked, mismatches)
    }

    /// Digest over every result bit of the first timed pass.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for report in self.first_pass.iter().flatten() {
            d.report(report);
        }
        d.value()
    }
}
