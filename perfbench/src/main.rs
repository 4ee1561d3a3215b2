//! `perf` — the G-QED benchmark.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1 [--out F.json]
//! perf agree A/ B/
//! ```
//!
//! `--trace 0` sets up, measures the workload for `S` seconds with
//! tracing off (timing further set-ups by running this program with
//! `--seconds 0`) and prints one `name value unit` line per end-to-end
//! metric. `--trace 1` is the separate traced run and prints the
//! per-layer metrics. Both end with one JSON line `{"correct",
//! "attempted", "failed", "metrics"}`; `--out` also writes it (with the
//! workload and seed, and for a trace every span) to a file, which is what
//! `agree` reads. `--seconds 0` only sets up: it prints `ready` once the
//! workload could be measured, and exits.
//!
//! Exit status: 0, or 1 when any answer was wrong (after everything is
//! printed), or 2 when the run could not be made.

use gqed_campaign::JsonValue;
use gqed_perfbench::agree::{agree, bounds, load_results, read_json};
use gqed_perfbench::workload::Workload;
use gqed_perfbench::{timed, trace, Report, ScratchDir};
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perf --workload W --seed N --seconds S --trace 0|1 [--out F.json]
       perf agree A/ B/
workloads: hunt, escalate, serve";

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `--name value` pairs, each name at most once.
fn parse_flags(raw: &[String], allowed: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut flags: Vec<(String, String)> = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .filter(|n| allowed.contains(n))
            .ok_or_else(|| format!("unexpected argument '{a}'"))?;
        if flags.iter().any(|(n, _)| n == name) {
            return Err(format!("--{name} given twice"));
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.push((name.to_string(), value.clone()));
    }
    Ok(flags)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Result<&'a str, String> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| format!("missing --{name}"))
}

fn number<T: std::str::FromStr>(flags: &[(String, String)], name: &str) -> Result<T, String> {
    let v = flag(flags, name)?;
    v.parse().map_err(|_| format!("--{name}: bad value '{v}'"))
}

/// One run of a workload: set-up only, timed, or traced.
fn measure(flags: &[(String, String)]) -> Result<ExitCode, String> {
    let name = flag(flags, "workload")?;
    let seed: u64 = number(flags, "seed")?;
    let seconds: f64 = number(flags, "seconds")?;
    let traced = match flag(flags, "trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got '{other}'")),
    };
    if seconds.is_nan() || seconds < 0.0 {
        return Err("--seconds must not be negative".to_string());
    }
    let out = flag(flags, "out").ok();
    // The set-up is everything from process start to the measured phase:
    // resolving the workload and, on `serve`, warming a server.
    let workload = Workload::named(name)?;
    let scratch = ScratchDir::new(&package_dir().join("tmp"), name)
        .map_err(|e| format!("scratch directory: {e}"))?;
    if seconds == 0.0 && !traced {
        let ready = timed::set_up(&workload, scratch.path())?;
        println!("ready");
        std::io::stdout()
            .flush()
            .map_err(|e| format!("stdout: {e}"))?;
        drop(ready);
        return Ok(ExitCode::SUCCESS);
    }
    let (report, file): (Report, JsonValue) = if traced {
        let t = trace::run(&workload, seed, scratch.path())?;
        let file = t.to_json(name, seed);
        (t.report, file)
    } else {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let ready = timed::set_up(&workload, scratch.path())?;
        let report = timed::run(&workload, ready, &exe, seed, seconds, scratch.path())?;
        let file = report.to_json().field("workload", name).field("seed", seed);
        (report, file)
    };
    for note in &report.notes {
        println!("# {note}");
    }
    print!("{}", report.lines());
    let c = &report.checks;
    println!(
        "# fail_rate {} ({} of {} answers; {} wrong)",
        c.failed as f64 / c.attempted.max(1) as f64,
        c.failed,
        c.attempted,
        c.wrong
    );
    if let Some(path) = out {
        std::fs::write(path, file.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", report.to_json().render());
    Ok(if c.wrong > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let bounds = bounds(&read_json(&package_dir().join("../BENCHMARK.json"))?)?;
    let (table, ok) = agree(
        &bounds,
        &load_results(Path::new(a))?,
        &load_results(Path::new(b))?,
    );
    print!("{table}");
    if ok {
        println!("agree: every metric within its bound");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("agree: FLAGGED metrics");
        Ok(ExitCode::from(1))
    }
}

fn run(raw: &[String]) -> Result<ExitCode, String> {
    match raw {
        [cmd, a, b] if cmd == "agree" => compare(a, b),
        _ => measure(&parse_flags(
            raw,
            &["workload", "seed", "seconds", "trace", "out"],
        )?),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
