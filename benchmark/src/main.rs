//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload fault_product|warm_requery|stream_replay \
//!     --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` for the workloads and the metric map.

mod digest;
mod fault_product;
mod host;
mod inputs;
mod layers;
mod report;
mod stats;
mod stream_replay;
mod warm_requery;
mod workload;

use report::{Metrics, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;
use workload::{SetupTimes, Timed, SETUP_REPS};

/// Output digests at [`inputs::DEFAULT_SEED`]: a run at that seed must
/// reproduce them bit for bit.
const PINNED_DIGESTS: [(&str, u64); 3] = [
    ("fault_product", 0xf123_576d_4338_f4ff),
    ("warm_requery", 0xf123_576d_4338_f4ff),
    ("stream_replay", 0x7289_2ade_806c_f487),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FaultProduct,
    WarmRequery,
    StreamReplay,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "fault_product" => Some(Self::FaultProduct),
            "warm_requery" => Some(Self::WarmRequery),
            "stream_replay" => Some(Self::StreamReplay),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::FaultProduct => "fault_product",
            Self::WarmRequery => "warm_requery",
            Self::StreamReplay => "stream_replay",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: --workload fault_product|warm_requery|stream_replay --seed <u64> --seconds <s> --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(inputs::DEFAULT_SEED),
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// A set-up workload, whichever it is.
enum State {
    FaultProduct(fault_product::FaultProduct),
    WarmRequery(warm_requery::WarmRequery),
    StreamReplay(stream_replay::StreamReplay),
}

impl State {
    fn setup(w: Workload, seed: u64, rep: usize, times: &mut SetupTimes) -> Self {
        match w {
            Workload::FaultProduct => {
                Self::FaultProduct(fault_product::FaultProduct::setup(seed, rep, times))
            }
            Workload::WarmRequery => {
                Self::WarmRequery(warm_requery::WarmRequery::setup(seed, rep, times))
            }
            Workload::StreamReplay => {
                Self::StreamReplay(stream_replay::StreamReplay::setup(seed, rep, times))
            }
        }
    }

    fn run(&mut self, seconds: f64, probe: &mut host::HostProbe) -> Timed {
        match self {
            Self::FaultProduct(s) => s.run(seconds, probe),
            Self::WarmRequery(s) => s.run(seconds, probe),
            Self::StreamReplay(s) => s.run(seconds, probe),
        }
    }

    /// `(checked, mismatches)` of the workload's own output check.
    fn check(&self) -> (u64, u64) {
        match self {
            Self::FaultProduct(s) => s.check(),
            // Every re-query is already compared with its cold fill.
            Self::WarmRequery(_) => (0, 0),
            Self::StreamReplay(s) => s.check(),
        }
    }

    fn digest(&self) -> u64 {
        match self {
            Self::FaultProduct(s) => s.digest(),
            Self::WarmRequery(s) => s.digest(),
            Self::StreamReplay(s) => s.digest(),
        }
    }

    fn dataset(&self) -> &efficsense_core::prelude::EegDataset {
        match self {
            Self::FaultProduct(s) => s.dataset(),
            Self::WarmRequery(s) => s.dataset(),
            Self::StreamReplay(s) => s.dataset(),
        }
    }

    /// Traced ÷ untraced cost of the workload's headline metric, as a time
    /// (above 1 means tracing slows the workload down).
    fn overhead(&self, untraced: &EndToEnd, traced: &EndToEnd) -> f64 {
        match self {
            Self::FaultProduct(_) => untraced.points_per_s / traced.points_per_s,
            Self::WarmRequery(_) => traced.p50_us / untraced.p50_us,
            Self::StreamReplay(_) => untraced.signal_s_per_s / traced.signal_s_per_s,
        }
    }

    fn state(&self) -> &'static str {
        match self {
            Self::FaultProduct(_) => fault_product::STATE,
            Self::WarmRequery(_) => warm_requery::STATE,
            Self::StreamReplay(_) => stream_replay::STATE,
        }
    }
}

/// The end-to-end figures of one timed phase.
struct EndToEnd {
    points_per_s: f64,
    p50_us: f64,
    p90_us: f64,
    signal_s_per_s: f64,
}

impl EndToEnd {
    fn of(t: &Timed) -> Self {
        let rate = |f: fn(&workload::Round) -> f64| {
            let per_round: Vec<f64> = t.rounds.iter().map(|r| f(r) / r.wall_s).collect();
            stats::median(&per_round).unwrap_or(0.0)
        };
        Self {
            points_per_s: rate(|r| r.points),
            p50_us: stats::percentile(&t.latencies_us, 50.0).unwrap_or(0.0),
            p90_us: stats::percentile(&t.latencies_us, 90.0).unwrap_or(0.0),
            signal_s_per_s: rate(|r| r.signal_s),
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let process_start = Instant::now();
    println!("host: {}", host::block());
    println!(
        "workload: {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut probe = host::HostProbe::new();
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let mut times = SetupTimes::default();
        let s = State::setup(args.workload, args.seed, rep, &mut times);
        times.total_s = t.elapsed().as_secs_f64();
        reps.push(times);
        state.get_or_insert(s);
        probe.sample();
    }
    let mut state = state.expect("at least one set-up repetition");
    let setup_med = |f: fn(&SetupTimes) -> f64| {
        stats::median(&reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    println!("state: {}", state.state());
    println!(
        "setup: {SETUP_REPS} repetitions, median {:.3} s; first timed operation at {:.3} s",
        setup_med(|r| r.total_s),
        process_start.elapsed().as_secs_f64()
    );

    let mut metrics = Metrics::default();
    let (timed, probe_metrics) = if args.trace {
        let untraced = state.run(args.seconds / 2.0, &mut probe);
        let mut traced = layers::traced(|s| state.run(s, &mut probe), args.seconds / 2.0);
        println!("trace: {} bytes emitted", traced.trace_bytes);
        let mut layer_metrics = layers::measure(state.dataset(), args.seed, &traced, &reps);
        layer_metrics.push((
            "trace.overhead",
            state.overhead(&EndToEnd::of(&untraced), &EndToEnd::of(&traced.timed)),
        ));
        traced.timed.attempted += untraced.attempted;
        traced.timed.failed += untraced.failed;
        (traced.timed, Some(layer_metrics))
    } else {
        (state.run(args.seconds, &mut probe), None)
    };
    let (checked, mismatches) = state.check();
    let digest = state.digest();
    let pinned = PINNED_DIGESTS
        .iter()
        .find(|(n, _)| *n == args.workload.name())
        .map(|(_, d)| *d);
    let pinned_seed = args.seed == inputs::DEFAULT_SEED;
    let digest_ok = !pinned_seed || pinned == Some(digest);
    println!(
        "digest: {digest:016x}{}",
        match (pinned_seed, digest_ok) {
            (false, _) => " (not pinned at this seed)",
            (true, true) => " (matches the pinned digest)",
            (true, false) => " (DOES NOT match the pinned digest)",
        }
    );
    let attempted = timed.attempted + checked + u64::from(pinned_seed);
    let failed = timed.failed + mismatches + u64::from(!digest_ok);

    let e2e = EndToEnd::of(&timed);
    let setup_s = setup_med(|r| r.total_s);
    // Times at the reference host speed: divide by the slowdown, multiply
    // rates by it.
    let slowdown = probe.slowdown().unwrap_or(f64::NAN);
    println!(
        "host speed: probe median {:.4} ms over {} samples, reference {} ms, slowdown {slowdown:.4}",
        probe.median_ms().unwrap_or(f64::NAN),
        probe.count(),
        host::REFERENCE_PROBE_MS
    );
    match probe_metrics {
        None => {
            println!(
                "wall clock: points_per_s {:.4}, requery_p50_us {:.1}, requery_p90_us {:.1}, \
                 signal_s_per_s {:.2}, setup_s {setup_s:.4}",
                e2e.points_per_s, e2e.p50_us, e2e.p90_us, e2e.signal_s_per_s
            );
            // The tail is printed but not declared in BENCHMARK.json: slow
            // calls wait for a descheduled vCPU, so on a shared host its
            // spread between runs exceeds any bound the contract allows.
            println!(
                "tail: requery_p90_us {:.1} us at the reference speed over {} calls",
                e2e.p90_us / slowdown,
                timed.latencies_us.len()
            );
            metrics.set(&END_TO_END, "points_per_s", e2e.points_per_s * slowdown);
            metrics.set(&END_TO_END, "requery_p50_us", e2e.p50_us / slowdown);
            metrics.set(&END_TO_END, "signal_s_per_s", e2e.signal_s_per_s * slowdown);
            metrics.set(&END_TO_END, "setup_s", setup_s / slowdown);
            metrics.set(
                &END_TO_END,
                "peak_rss_mb",
                host::peak_rss_mb().unwrap_or(f64::NAN),
            );
        }
        Some(layer_metrics) => {
            for (name, value) in layer_metrics {
                metrics.set(&PER_LAYER, name, value);
            }
        }
    }
    println!(
        "timed: {} rounds, {} latency samples, failed_share {} ({failed} of {attempted})",
        timed.rounds.len(),
        timed.latencies_us.len(),
        failed as f64 / attempted as f64
    );
    for line in metrics.lines() {
        println!("{line}");
    }
    let declared = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let complete = declared
        .iter()
        .all(|(n, _)| metrics.names().any(|m| m == *n));
    let correct = failed == 0 && complete && metrics.all_finite();
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
