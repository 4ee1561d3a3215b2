//! Timed end-to-end benchmark of the G-QED stack, with a separate traced
//! run that attributes time to layers.
//!
//! Three workloads ([`workload`]) each stress a different part of the
//! stack: `hunt` (the paper's bug hunt: BMC on shallow satisfiable
//! queries), `escalate` (budget-limited Luby retries over warm sessions)
//! and `serve` (a closed-loop TCP client against an in-process `serve`
//! with an on-disk verdict store).
//!
//! [`timed::run`] measures a workload with tracing off and reports the
//! end-to-end metrics; [`trace::run`] re-executes one pass of it on one
//! thread with spans around every layer call, followed by a fixed probe
//! suite ([`probes`]), and reports the per-layer metrics. [`agree`]
//! compares two sets of timed results by the benchmark's own bounds.

pub mod agree;
pub mod probes;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workload;

use gqed_campaign::{JobVerdict, JsonValue, Obligation};

/// One measured value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The answers a run checked: obligations' verdicts and, on the trace,
/// probe results.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Answers checked.
    pub attempted: u64,
    /// Checked answers that failed: a wrong answer, or none (failed, timed
    /// out, unknown, cancelled, poisoned, transport error).
    pub failed: u64,
    /// The subset of `failed` that is a wrong answer: a verdict that
    /// contradicts the catalogue, a cache hit that differs from the first
    /// answer, or a probe whose result is provably wrong.
    pub wrong: u64,
}

impl Checks {
    /// Counts one answer.
    pub fn check(&mut self, conclusive: bool, wrong: bool) {
        self.attempted += 1;
        if wrong {
            self.wrong += 1;
        }
        if wrong || !conclusive {
            self.failed += 1;
        }
    }

    /// Counts one verdict against the catalogue; `differs` marks a cache
    /// hit that does not repeat the first answer.
    pub fn verdict(&mut self, o: &Obligation, v: &JobVerdict, differs: bool) {
        let contradicts =
            v.is_conclusive() && o.expect_violation.is_some_and(|e| e != v.is_violation());
        self.check(v.is_conclusive(), contradicts || differs);
    }
}

/// The outcome of one timed or traced run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// The answers the run checked.
    pub checks: Checks,
    /// Free-form lines printed before the metrics (sample counts).
    pub notes: Vec<String>,
}

impl Report {
    /// The value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result object: `correct`, `attempted`, `failed` and the
    /// metrics as `{name: {value, unit}}`.
    pub fn to_json(&self) -> JsonValue {
        let metrics = self.metrics.iter().fold(JsonValue::obj(), |acc, m| {
            acc.field(
                m.name,
                JsonValue::obj()
                    .field("value", m.value)
                    .field("unit", m.unit),
            )
        });
        JsonValue::obj()
            .field("correct", self.checks.wrong == 0)
            .field("attempted", self.checks.attempted)
            .field("failed", self.checks.failed)
            .field("metrics", metrics)
    }

    /// One `name value unit` line per metric.
    pub fn lines(&self) -> String {
        self.metrics
            .iter()
            .map(|m| format!("{} {} {}\n", m.name, m.value, m.unit))
            .collect()
    }
}

/// A scratch directory under the benchmark's own tree, removed on drop.
pub struct ScratchDir {
    path: std::path::PathBuf,
}

impl ScratchDir {
    /// Creates `<root>/<name>-<pid>`, emptying any leftover of the same
    /// name first.
    pub fn new(root: &std::path::Path, name: &str) -> std::io::Result<ScratchDir> {
        let path = root.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
