//! The host: its description, its memory high-water mark and its speed.
//!
//! On a shared host the speed of the machine drifts by up to 2× over
//! minutes as co-tenants load the shared L3 cache. The benchmark therefore
//! times a fixed L3-bound probe between rounds and expresses every
//! end-to-end time at the reference host speed ([`REFERENCE_PROBE_MS`]);
//! the raw wall-clock figures are printed next to them.

use std::hint::black_box;
use std::time::Instant;

/// Probe buffer: 32 MiB of `f64`, eight times a core's L2, so every pass
/// over it is served from the shared L3. It adds 32 MiB to `peak_rss_mb`.
const PROBE_ELEMS: usize = 4 << 20;
/// Passes over the buffer per probe (~9 ms).
const PROBE_PASSES: usize = 3;
/// Minimum spacing of probes during a timed phase (s).
const PROBE_EVERY_S: f64 = 0.25;
/// Probe time (ms) at the reference host speed.
pub const REFERENCE_PROBE_MS: f64 = 9.0;

/// Times the host-speed probe between workload rounds.
pub struct HostProbe {
    buf: Vec<f64>,
    samples_ms: Vec<f64>,
    last: Option<Instant>,
}

impl HostProbe {
    /// Allocates and touches the probe buffer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: vec![1.0; PROBE_ELEMS],
            samples_ms: Vec::new(),
            last: None,
        }
    }

    /// Times one probe: one load per cache line over the whole buffer.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut acc = 0.0;
        for _ in 0..PROBE_PASSES {
            acc += black_box(&self.buf).iter().step_by(8).sum::<f64>();
        }
        black_box(acc);
        self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.last = Some(Instant::now());
    }

    /// Times one probe unless one ran in the last [`PROBE_EVERY_S`].
    pub fn tick(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= PROBE_EVERY_S)
        {
            self.sample();
        }
    }

    /// Median probe time (ms), if any probe ran.
    #[must_use]
    pub fn median_ms(&self) -> Option<f64> {
        crate::stats::median(&self.samples_ms)
    }

    /// Probes taken.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples_ms.len()
    }

    /// Host slowness relative to the reference: above 1 on a slower host.
    /// A time measured here, divided by this, is the time at the reference
    /// speed; a rate is multiplied by it.
    #[must_use]
    pub fn slowdown(&self) -> Option<f64> {
        self.median_ms().map(|m| m / REFERENCE_PROBE_MS)
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The host block: results compare only between runs whose blocks match.
#[must_use]
pub fn block() -> String {
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\"}}",
        crate::inputs::workers(),
        escape(&cpu_model()),
        escape(env!("BENCH_RUSTC_VERSION")),
        escape(env!("BENCH_BUILD_PROFILE")),
    )
}
