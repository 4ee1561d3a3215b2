//! Each workload's timed and traced runs, twice on a 2–3-obligation
//! subset: every `BENCHMARK.json` metric is reported with its unit, no
//! answer fails, the traced run's exact counters repeat and its spans
//! cover the run.

use gqed_campaign::JsonValue;
use gqed_perfbench::agree::{read_json, spec_list};
use gqed_perfbench::workload::Workload;
use gqed_perfbench::{timed, trace, Report, ScratchDir};
use std::path::Path;

/// Work counters that must be identical across runs of the same input.
const EXACT: [&str; 4] = [
    "campaign.frames_solved",
    "sat.conflicts",
    "pdr.queries",
    "campaign.attempts_per_obligation",
];

fn spec() -> JsonValue {
    read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    let spec = spec();
    spec_list(&spec, key)
        .expect("list present")
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

fn assert_reports(report: &Report, key: &str) {
    for (name, unit) in listed(key) {
        let m = report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} not reported"));
        assert_eq!(m.unit, unit, "{name}");
        assert!(m.value.is_finite(), "{name} = {}", m.value);
    }
    assert_eq!(report.checks.failed, 0, "fail_rate must be 0: {report:?}");
    assert!(report.checks.attempted > 0);
}

/// The benchmark's program, which times set-ups of the full workload.
fn exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_perf"))
}

fn check(workload: &str, subset: &[&str]) {
    let w = Workload::named(workload).unwrap().subset(subset);
    assert_eq!(w.obligations.len(), subset.len());
    // Every run starts from an empty directory, as a fresh process does.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tmp");
    let fresh = |run: &str| ScratchDir::new(&root, &format!("test-{workload}-{run}")).unwrap();
    for seed in [1, 2] {
        let dir = fresh(&format!("run{seed}"));
        let ready = timed::set_up(&w, dir.path()).unwrap();
        let report = timed::run(&w, ready, exe(), seed, 0.01, dir.path()).unwrap();
        assert_reports(&report, "end_to_end");
    }
    let a = trace::run(&w, 1, fresh("trace1").path()).unwrap();
    let b = trace::run(&w, 1, fresh("trace2").path()).unwrap();
    for t in [&a, &b] {
        assert_reports(&t.report, "per_layer");
        let coverage = t.report.get("trace.coverage").unwrap();
        assert!(coverage >= 0.95, "{workload}: trace.coverage {coverage}");
    }
    for name in EXACT {
        assert_eq!(a.report.get(name), b.report.get(name), "{workload}: {name}");
    }
}

#[test]
fn hunt_subset() {
    check(
        "hunt",
        &[
            "relu/stall-sign-flip/gqed",
            "crc32/uninit-crc/gqed",
            "histogram/drop-on-bin5/gqed",
        ],
    );
}

#[test]
fn setup_is_timed_in_fresh_processes() {
    let times = timed::setup_times(exe(), "escalate", 1, 3).unwrap();
    assert_eq!(times.len(), 3);
    assert!(times.iter().all(|&s| s > 0.0 && s < 10.0), "{times:?}");
    assert!(timed::setup_times(exe(), "no-such-workload", 1, 1).is_err());
}

#[test]
fn escalate_subset() {
    check(
        "escalate",
        &[
            "vecadd/drop-on-equal-operands/gqed",
            "accum/hang-on-zero-data/gqed",
        ],
    );
}

#[test]
fn serve_subset() {
    check(
        "serve",
        &[
            "relu/stall-sign-flip/gqed",
            "bitflip/stall-flip/gqed",
            "dma/uninit-stride/gqed",
        ],
    );
}

#[test]
fn benchmark_json_stays_within_limits() {
    let e2e = listed("end_to_end");
    let layers = listed("per_layer");
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|(n, _)| n.as_str()).collect();
    for n in &names {
        assert!(
            !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {n:?}"
        );
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "metric names must be unique");
}
