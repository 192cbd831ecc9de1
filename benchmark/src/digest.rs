//! Bit-pattern digests of workload outputs.
//!
//! Every value is folded by its exact IEEE-754 bit pattern, so two outputs
//! digest equal only when they are bit-identical (`-0.0` and `0.0`
//! differ; NaNs compare by payload).

use efficsense_core::prelude::{SweepReport, SweepResult};

/// 64-bit FNV-1a accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a signal, length first so concatenations cannot collide.
    pub fn signal(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }

    /// Folds one design point's result: metric, total power, every block
    /// of the power breakdown and the area.
    pub fn result(&mut self, r: &SweepResult) {
        self.bytes(r.point.label().as_bytes());
        self.f64(r.metric);
        self.f64(r.power_w);
        for (kind, watts) in r.breakdown.iter() {
            self.bytes(format!("{kind:?}").as_bytes());
            self.f64(watts.value());
        }
        self.f64(r.area_units);
    }

    /// Folds a whole sweep report: every result plus the quarantine count.
    pub fn report(&mut self, report: &SweepReport) {
        self.u64(report.results.len() as u64);
        for r in &report.results {
            self.result(r);
        }
        self.u64(report.quarantine.len() as u64);
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of one sweep report.
#[must_use]
pub fn of_report(report: &SweepReport) -> u64 {
    let mut d = Digest::default();
    d.report(report);
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut d = Digest::default();
        d.bytes(b"");
        assert_eq!(d.value(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
        let mut d = Digest::default();
        d.bytes(b"foobar");
        assert_eq!(d.value(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn signal_digest_is_stable_and_bit_exact() {
        let sig = [0.0, 1.5, -2.25, 1e-300];
        let run = |xs: &[f64]| {
            let mut d = Digest::default();
            d.signal(xs);
            d.value()
        };
        assert_eq!(run(&sig), run(&sig));
        // Independently computed: FNV-1a over the little-endian length and
        // IEEE-754 bit patterns.
        assert_eq!(run(&sig), 0x8f09_cd48_d575_b5c3);
        assert_ne!(run(&[0.0]), run(&[-0.0]));
        assert_ne!(run(&[1.0, 2.0]), run(&[2.0, 1.0]));
    }
}
