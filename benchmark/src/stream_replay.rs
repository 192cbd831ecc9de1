//! `stream_replay`: the longevity aging replay through
//! `StreamSimulator::with_compound`, one fault kind after another.
//!
//! Each kind streams a linear 0→1 severity ramp on its native architecture
//! in `PUSH_LEN`-sample pushes on one thread, then every replay segment is
//! classified by the detector. No L1 cache or L3 store is involved.

use crate::digest::Digest;
use crate::host::HostProbe;
use crate::inputs::{self, Replay, PUSH_LEN};
use crate::workload::{common_setup, us, Round, SetupTimes, Timed};
use efficsense_core::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// The cache state every timed replay starts in.
pub const STATE: &str = "no L1 cache, no L3 store, L2 dictionaries and detector warm from set-up";

/// Output of one kind's replay.
#[derive(Debug)]
struct ReplayOutput {
    out: Vec<f64>,
    reference: Vec<f64>,
    labels: Vec<usize>,
}

impl ReplayOutput {
    fn signal_digest(&self) -> u64 {
        let mut d = Digest::default();
        d.signal(&self.out);
        d.signal(&self.reference);
        d.value()
    }
}

/// Workload state after set-up.
pub struct StreamReplay {
    seed: u64,
    dataset: EegDataset,
    replay: Replay,
    detector: Arc<SeizureDetector>,
    /// First-round output per fault kind.
    first_round: Option<Vec<ReplayOutput>>,
}

impl StreamReplay {
    /// One set-up repetition: common set-up plus the replay input.
    #[must_use]
    pub fn setup(seed: u64, rep: usize, times: &mut SetupTimes) -> Self {
        let configs = [
            inputs::config_for(Architecture::Baseline),
            inputs::config_for(Architecture::CompressiveSensing),
        ];
        let (dataset, detector) = common_setup(seed, rep, &configs, times);
        let replay = inputs::replay(&dataset);
        Self {
            seed,
            dataset,
            replay,
            detector,
            first_round: None,
        }
    }

    /// The dataset the replay is cut from.
    #[must_use]
    pub fn dataset(&self) -> &EegDataset {
        &self.dataset
    }

    /// Streams one kind's aging replay in `chunk`-sample pushes, recording
    /// every push latency, and classifies each replay segment.
    fn replay_kind(&self, kind: FaultKind, chunk: usize, push_us: &mut Vec<f64>) -> ReplayOutput {
        let cfg = inputs::config_for(inputs::native_architecture(kind));
        let f_s = cfg.design.f_sample_hz();
        let sim = Simulator::new(cfg).expect("native configurations are valid");
        let plan = inputs::aging_plan(kind, self.seed, self.replay.seconds);
        let fs_in = self.replay.fs_in;
        let mut stream = StreamSimulator::with_compound(&sim, fs_in, 1, &plan);
        let mut out = Vec::new();
        let mut reference = Vec::new();
        for piece in self.replay.input.chunks(chunk) {
            let t = Instant::now();
            let got = stream.push(piece);
            push_us.push(us(t));
            out.extend(got.input_referred);
            reference.extend(got.reference);
        }
        let (last, _) = stream.finish();
        out.extend(last.input_referred);
        reference.extend(last.reference);
        let n = out.len();
        let labels = self
            .replay
            .segments
            .iter()
            .filter_map(|seg| {
                let lo = ((seg.start as f64 / fs_in * f_s) as usize).min(n);
                let hi = (((seg.start + seg.len) as f64 / fs_in * f_s) as usize).min(n);
                (hi > lo).then(|| self.detector.predict(&out[lo..hi], f_s))
            })
            .collect();
        ReplayOutput {
            out,
            reference,
            labels,
        }
    }

    /// Replays every fault kind, round after round, until `seconds` have
    /// elapsed, probing the host speed between rounds. Later rounds must
    /// reproduce the first bit for bit.
    pub fn run(&mut self, seconds: f64, probe: &mut HostProbe) -> Timed {
        let mut timed = Timed::default();
        let kinds = FaultKind::ALL;
        let start = Instant::now();
        while timed.rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
            probe.tick();
            let round_start = Instant::now();
            let round: Vec<ReplayOutput> = kinds
                .iter()
                .map(|&k| self.replay_kind(k, PUSH_LEN, &mut timed.latencies_us))
                .collect();
            timed.rounds.push(Round {
                points: kinds.len() as f64,
                signal_s: kinds.len() as f64 * self.replay.seconds,
                wall_s: round_start.elapsed().as_secs_f64(),
            });
            timed.attempted += kinds.len() as u64;
            match &self.first_round {
                None => self.first_round = Some(round),
                Some(first) => {
                    timed.failed += first
                        .iter()
                        .zip(&round)
                        .filter(|(a, b)| {
                            a.signal_digest() != b.signal_digest() || a.labels != b.labels
                        })
                        .count() as u64;
                }
            }
        }
        timed
    }

    /// Output check: re-streams one seed-selected kind in pushes of a
    /// different size; the output must be bit-identical. Returns
    /// `(checked, mismatches)`.
    #[must_use]
    pub fn check(&self) -> (u64, u64) {
        let first = self
            .first_round
            .as_ref()
            .expect("check runs after a timed round");
        let i = (self.seed % FaultKind::ALL.len() as u64) as usize;
        let again = self.replay_kind(FaultKind::ALL[i], PUSH_LEN / 4 - 1, &mut Vec::new());
        let same =
            again.signal_digest() == first[i].signal_digest() && again.labels == first[i].labels;
        (1, u64::from(!same))
    }

    /// Digest over every output bit and segment label of the first round.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for r in self.first_round.iter().flatten() {
            d.signal(&r.out);
            d.signal(&r.reference);
            for &l in &r.labels {
                d.u64(l as u64);
            }
        }
        d.value()
    }
}
