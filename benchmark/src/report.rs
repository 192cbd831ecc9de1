//! Metric names, the host block and the result line.

/// End-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("points_per_s", "1/s"),
    ("requery_p50_us", "us"),
    ("signal_s_per_s", "s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports, with units.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("signals.generate_ms", "ms"),
    ("detector.train_ms", "ms"),
    ("memo.dictionary_build_ms", "ms"),
    ("memo.hit_ratio", "ratio"),
    ("sweep.point_ms", "ms"),
    ("sweep.parallel_efficiency", "ratio"),
    ("simulate.record_us", "us"),
    ("blocks.frontend_us", "us"),
    ("blocks.cs_encode_us", "us"),
    ("blocks.adc_us", "us"),
    ("cs.decode_us_per_frame", "us"),
    ("cs.omp_support", "count"),
    ("ml.features_us", "us"),
    ("detector.window_us", "us"),
    ("power.breakdown_us", "us"),
    ("prefix.ct.hit_ratio", "ratio"),
    ("prefix.analog.hit_ratio", "ratio"),
    ("prefix.reference.hit_ratio", "ratio"),
    ("prefix.sampled.hit_ratio", "ratio"),
    ("prefix.acquired.hit_ratio", "ratio"),
    ("prefix.evictions", "count"),
    ("cache.dataset_fingerprint_us", "us"),
    ("cache.point_key_us", "us"),
    ("cache.get_us", "us"),
    ("cache.detector_lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.save_ms", "ms"),
    ("cache.load_ms", "ms"),
    ("stream.push_us.baseline", "us"),
    ("stream.push_us.cs", "us"),
    ("stream.batch_ratio", "ratio"),
    ("trace.overhead", "ratio"),
];

/// A metric name is 1–64 characters of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metric values in emission order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Records `name`, which must be declared in `table`.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name: a bug in this benchmark.
    pub fn set(&mut self, table: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(
            valid_name(name),
            "metric name {name} breaks the naming rule"
        );
        self.0.retain(|(n, _, _)| *n != name);
        self.0.push((name, value, unit));
    }

    /// The names recorded so far.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|(n, _, _)| *n)
    }

    /// Human-readable lines, one metric each.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|(n, v, u)| format!("  {n:<32} {v:>16.6} {u}"))
            .collect()
    }

    /// The `metrics` JSON object. Non-finite values, which JSON cannot
    /// carry, are written as 0 and flagged by the caller as a failure.
    #[must_use]
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// `true` when every value is finite.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }
}

/// The closing result line the benchmark prints last.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "metric names must be unique");
    }

    #[test]
    fn name_rule_rejects_outside_characters() {
        assert!(valid_name("prefix.ct.hit_ratio"));
        assert!(valid_name("9-a_b.c"));
        assert!(!valid_name(""));
        assert!(!valid_name(".lead"));
        assert!(!valid_name("µs"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn declared_names_match_benchmark_json() {
        // The contract file sits at the repository root, one level up.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.set(&END_TO_END, "setup_s", 0.5);
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
