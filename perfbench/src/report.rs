//! Run outcome, the final JSON line, and the environment stamp.

use std::fmt::Write as _;

use invector_core::BackendChoice;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run attempted, what failed, and what it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (submit calls, reads, solves, checks).
    pub attempted: u64,
    /// Operations that failed: an error reply, a transport error, or a
    /// wrong result.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (sample counts,
    /// percentiles, the ledger, failure messages).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value: every metric is a duration, a count or
    /// a ratio of positive quantities, so NaN or infinity is a bug here.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one attempted operation and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one failed operation and keeps its message.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.op(false);
        self.note(format!("FAILED: {}", what.into()));
    }

    /// Checks a correctness condition: counts it as one attempted
    /// operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: &str) {
        if ok {
            self.op(true);
        } else {
            self.fail(format!("check: {what}"));
        }
    }

    /// Failed operations over attempted ones.
    pub fn error_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Folds `other` in, prefixing its metric names with `prefix.`.
    pub fn absorb(&mut self, prefix: &str, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.metrics {
            self.metrics.push(Metric { name: format!("{prefix}.{}", m.name), ..m });
        }
        self.notes.extend(other.notes.into_iter().map(|n| format!("[{prefix}] {n}")));
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ =
                write!(out, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `true` when this build charges the portable instruction model on every
/// accumulate call (the `count` feature, enabled by any crate in the build),
/// which slows every timing.
pub fn count_build() -> bool {
    invector_simd::count::enabled()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Per-core L2 size as the kernel reports it for cpu0 (e.g. `2048K`).
fn l2_size() -> String {
    (0..8)
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            (level.trim() == "2")
                .then(|| std::fs::read_to_string(format!("{dir}/size")).ok())
                .flatten()
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The environment every result is stamped with, as one JSON object.
pub fn stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"features\": \"{}\", \"count_build\": {}, \"backend\": \"{}\", \"nproc\": {nproc}, \
         \"cpu\": \"{}\", \"l2_per_core\": \"{}\"}}",
        if count_build() { "obs,count" } else { "obs" },
        count_build(),
        BackendChoice::Auto.resolve().name(),
        cpu_model().replace('"', "'"),
        l2_size(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_four_keys_and_prefixes_absorbed_metrics() {
        let mut inner = Outcome::default();
        inner.op(true);
        inner.metric("wall_s", 0.5, "s");
        let mut o = Outcome::default();
        o.absorb("ingest", inner);
        o.metric("setup_s", 1.25, "s");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"ingest.wall_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut o = Outcome::default();
        o.op(true);
        o.check(false, "bits differ");
        assert!(o.json().starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert_eq!(o.error_ratio(), 0.5);
        assert!(o.notes[0].contains("bits differ"));
    }

    #[test]
    fn stamp_names_backend_and_features() {
        let s = stamp();
        assert!(s.contains("\"backend\"") && s.contains("\"count_build\""), "{s}");
        assert!(peak_rss_mb() > 0.0);
    }
}
