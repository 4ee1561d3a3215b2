//! Timed runs, tracing off.
//!
//! The set-up is timed from the outside: [`setup_times`] starts the
//! benchmark's own program with `--seconds 0`, which resolves the
//! workload, calls [`set_up`] and prints `ready`; one sample runs from the
//! spawn to that line. `setup_s` is the median of a run's samples.
//!
//! The measured phase runs for the given number of seconds. Campaign
//! workloads run whole passes over their suite (a fresh seeded order each
//! pass) and start another pass only while the last pass's duration still
//! fits, so the measured phase never overruns. `serve` runs its closed
//! loop (one client, one connection at a time, [`THINK`] between batches)
//! until the time is up.

use crate::stats::{mean, median, minimum, peak_rss_mb, tail_mean};
use crate::workload::{permuted, BatchStream, Kind, Workload, BLOCK, THINK};
use crate::{Checks, Metric, Report};
use gqed_campaign::{
    request_shutdown, serve, submit_batch, BatchRequest, BatchResponse, Campaign, CampaignConfig,
    CampaignSummary, Journal, Obligation, ObligationSpec, ServeOptions, ServeSummary, Telemetry,
};
use gqed_logic::SplitMix64;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::thread::JoinHandle;
use std::time::Instant;

/// Set-up samples taken before each campaign pass. The set-up's time
/// swings by up to half with the machine's state, which holds for a
/// second or so; samples spread over the measured phase see the same
/// stretch of the machine the measured work does.
const SETUPS_PER_PASS: usize = 8;
/// `serve` takes one set-up sample before its first block and one after
/// every this many blocks; each sample warms a server, a tenth of a
/// second.
const SERVE_BLOCKS_PER_SETUP: usize = 8;

/// Times `reps` set-ups of workload `name`, each in a fresh process: `exe`
/// (this benchmark's program) run with `--seconds 0`, from spawn until it
/// prints `ready`. Returns seconds.
pub fn setup_times(exe: &Path, name: &str, seed: u64, reps: usize) -> Result<Vec<f64>, String> {
    let seed = seed.to_string();
    let args = [
        "--workload",
        name,
        "--seed",
        &seed,
        "--seconds",
        "0",
        "--trace",
        "0",
    ];
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            let mut child = Command::new(exe)
                .args(args)
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let mut line = String::new();
            let stdout = child.stdout.take().expect("stdout is piped");
            let read = BufReader::new(stdout).read_line(&mut line);
            let elapsed = secs(t);
            let status = child.wait().map_err(|e| format!("set-up process: {e}"))?;
            match read {
                Ok(_) if line.trim_end() == "ready" && status.success() => Ok(elapsed),
                _ => Err(format!("set-up of '{name}' failed ({status})")),
            }
        })
        .collect()
}

/// What the set-up hands the measured phase.
pub struct Ready {
    /// The warm-up's answers, checked against the catalogue.
    checks: Checks,
    /// On `serve`: the warmed server and the pool's first answers.
    warm: Option<(Server, HashMap<String, String>)>,
}

/// The set-up after [`Workload::named`]: nothing more on a campaign
/// workload; on `serve`, a fresh server on an empty store under `dir` that
/// has solved the whole pool once.
pub fn set_up(w: &Workload, dir: &Path) -> Result<Ready, String> {
    let mut checks = Checks::default();
    let warm = match w.kind {
        Kind::Campaign => None,
        Kind::Serve => Some(warm_server(w, &dir.join("serve"), &mut checks)?),
    };
    Ok(Ready { checks, warm })
}

/// Runs `w`, made ready by [`set_up`], for about `seconds` and reports its
/// end-to-end metrics. `exe` is the benchmark's program, which times the
/// set-up. Scratch files go under `dir`.
pub fn run(
    w: &Workload,
    ready: Ready,
    exe: &Path,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<Report, String> {
    match ready.warm {
        None => run_campaign(w, ready.checks, exe, seed, seconds, dir),
        Some(warm) => run_serve(w, ready.checks, warm, exe, seed, seconds),
    }
}

/// Counts one answer line (`id flow verdict`) of a served batch against
/// the catalogue; `differs` marks a cache hit that does not repeat the
/// first answer.
fn check_answer(checks: &mut Checks, line: &str, o: &Obligation, differs: bool) {
    let verdict = line.split(' ').nth(2).unwrap_or("");
    let conclusive = verdict == "pass" || verdict.starts_with("violation");
    let contradicts = conclusive
        && o.expect_violation
            .is_some_and(|e| e != verdict.starts_with("violation"));
    checks.check(conclusive, contradicts || differs);
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The end-to-end metrics. `throughput` is in obligations per second;
/// `latencies_ms` are the samples the latency mean and tail cover;
/// `rss_mb` is the peak RSS read after the first pass (or block): later
/// passes repeat the same work, and the memory the allocator keeps across
/// them grows with how many passes the machine's speed lets fit.
fn report(
    setups: &[f64],
    throughput: f64,
    latencies_ms: &[f64],
    rss_mb: f64,
    checks: Checks,
    mut notes: Vec<String>,
) -> Report {
    let (lo, hi) = setups.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| {
        (lo.min(s), hi.max(s))
    });
    notes.push(format!(
        "set-up median of {} processes (from {lo:.6} to {hi:.6} s)",
        setups.len()
    ));
    Report {
        metrics: vec![
            Metric::new("setup_s", median(setups), "s"),
            Metric::new("obligations_per_s", throughput, "1/s"),
            Metric::new("latency_mean_ms", mean(latencies_ms), "ms"),
            Metric::new("latency_tail_ms", tail_mean(latencies_ms, 0.1), "ms"),
            Metric::new("peak_rss_mb", rss_mb, "MiB"),
        ],
        checks,
        notes,
    }
}

/// A campaign pass repeats deterministic work, which the machine's other
/// tenants can only slow down, never speed up. So each obligation's
/// latency is its fastest wall over the run's passes, and throughput is
/// the suite size over a pass assembled the same way: the sum of those
/// fastest walls plus the median time a pass spent outside its jobs
/// (scheduling, journal, telemetry).
fn run_campaign(
    w: &Workload,
    mut checks: Checks,
    exe: &Path,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<Report, String> {
    let suite = &w.obligations;
    let mut rng = SplitMix64::new(seed);
    let mut setups = Vec::new();
    let mut walls: HashMap<String, Vec<f64>> = HashMap::new();
    let mut pass_walls = Vec::new();
    let mut outside_jobs = Vec::new();
    let mut rss = 0.0;
    let (mut elapsed, mut last, mut passes) = (0.0, 0.0, 0u32);
    while passes == 0 || elapsed + last <= seconds {
        setups.extend(setup_times(exe, w.name, seed, SETUPS_PER_PASS)?);
        let order = permuted(suite, &mut rng);
        let t = Instant::now();
        let summary = campaign_pass(w, &order, dir, passes)?;
        last = secs(t);
        elapsed += last;
        passes += 1;
        pass_walls.push(last);
        if passes == 1 {
            rss = peak_rss_mb();
        }
        let mut jobs_s = 0.0;
        for r in &summary.records {
            checks.verdict(&r.obligation, &r.verdict, false);
            jobs_s += r.wall.as_secs_f64();
            walls
                .entry(r.obligation.id.clone())
                .or_default()
                .push(r.wall.as_secs_f64() * 1e3);
        }
        outside_jobs.push(last - jobs_s);
    }
    let latencies: Vec<f64> = walls.values().map(|w| minimum(w)).collect();
    let best_pass = latencies.iter().sum::<f64>() / 1e3 + median(&outside_jobs);
    let notes = vec![format!(
        "{passes} passes of {} obligations in {elapsed:.3} s (pass walls {}); \
         fastest walls sum to a {best_pass:.3} s pass",
        suite.len(),
        pass_walls
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
    )];
    let throughput = suite.len() as f64 / best_pass;
    Ok(report(&setups, throughput, &latencies, rss, checks, notes))
}

/// One campaign over `order`. A journaled workload journals every verdict
/// (fsync'd) and writes file telemetry, as a production campaign does.
fn campaign_pass(
    w: &Workload,
    order: &[Obligation],
    dir: &Path,
    pass: u32,
) -> Result<CampaignSummary, String> {
    let campaign = Campaign::new(order).config(w.config.clone());
    if w.journaled {
        let journal = Journal::create(&dir.join(format!("pass{pass}.journal")))
            .map_err(|e| format!("journal: {e}"))?;
        let telemetry = Telemetry::file(&dir.join(format!("pass{pass}.jsonl")))
            .map_err(|e| format!("telemetry: {e}"))?;
        Ok(campaign.journal(&journal).run(&telemetry))
    } else {
        Ok(campaign.run(&Telemetry::null()))
    }
}

/// An in-process `serve` on an ephemeral loopback port, stopped (and its
/// thread joined) on [`Server::stop`] or drop.
pub struct Server {
    /// `host:port` the server listens on.
    pub addr: String,
    handle: Option<JoinHandle<std::io::Result<ServeSummary>>>,
}

impl Server {
    /// Starts a server whose verdict store lives at `store`.
    pub fn start(store: PathBuf, config: CampaignConfig) -> Result<Server, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let handle = std::thread::spawn(move || {
            let opts = ServeOptions {
                config,
                store: Some(store),
                ..ServeOptions::default()
            };
            serve(listener, &opts)
        });
        Ok(Server {
            addr,
            handle: Some(handle),
        })
    }

    /// Shuts the server down and returns its lifetime counters.
    pub fn stop(mut self) -> Result<ServeSummary, String> {
        request_shutdown(&self.addr).map_err(|e| format!("shutdown: {e}"))?;
        let handle = self.handle.take().expect("a running server has a thread");
        handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = request_shutdown(&self.addr);
            let _ = handle.join();
        }
    }
}

/// A batch request over `specs`; `budget` overrides the server's base
/// conflict budget.
pub fn request(label: String, specs: Vec<ObligationSpec>, budget: Option<u64>) -> BatchRequest {
    BatchRequest {
        batch: label,
        jobs: None,
        deadline_ms: None,
        budget,
        max_attempts: None,
        engines: None,
        obligations: specs,
    }
}

/// The wire form of a catalogue obligation.
pub fn spec(o: &Obligation) -> ObligationSpec {
    ObligationSpec::from_obligation(o).expect("catalogue obligations are wire-representable")
}

/// Splits a response's normalized render into `id -> "id flow verdict"`.
fn answers(resp: &BatchResponse) -> HashMap<String, String> {
    resp.normalized
        .lines()
        .filter_map(|l| Some((l.split(' ').next()?.to_string(), l.to_string())))
        .collect()
}

/// Starts a fresh server with an empty store under `dir` and solves the
/// whole pool once. Returns the server and the pool's answers.
fn warm_server(
    w: &Workload,
    dir: &Path,
    checks: &mut Checks,
) -> Result<(Server, HashMap<String, String>), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let server = Server::start(dir.join("store.j1"), w.config.clone())?;
    // The client thinks before its first request as before every other:
    // connecting at once would race the server's first accept poll, and
    // the set-up would take 25 ms longer in some processes than in others.
    std::thread::sleep(THINK);
    let pool = &w.obligations;
    let warm = request("warm".to_string(), pool.iter().map(spec).collect(), None);
    let resp = submit_batch(&server.addr, &warm, |_| {}).map_err(|e| format!("warm-up: {e}"))?;
    let answers = answers(&resp);
    for o in pool {
        let line = answers.get(&o.id).map_or("", String::as_str);
        check_answer(checks, line, o, false);
    }
    Ok((server, answers))
}

/// `serve`'s closed loop. Throughput is the median over whole blocks of
/// the per-block rate, so a stretch slowed by the machine cannot move it.
fn run_serve(
    w: &Workload,
    mut checks: Checks,
    (server, first): (Server, HashMap<String, String>),
    exe: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let pool = &w.obligations;
    let mut setups = Vec::new();
    let mut reads_ms = Vec::new();
    let mut block_rates = Vec::new();
    let mut rss = 0.0;
    let (mut in_block, mut writes, mut elapsed) = (0u64, 0u64, 0.0);
    let mut block_start = Instant::now();
    for (i, batch) in BatchStream::new(seed, pool.len()).enumerate() {
        if i % BLOCK == 0 {
            if i > 0 {
                let block_s = secs(block_start);
                elapsed += block_s;
                block_rates.push(in_block as f64 / block_s);
                if block_rates.len() == 1 {
                    rss = peak_rss_mb();
                }
                if elapsed >= seconds {
                    break;
                }
            }
            if block_rates.len() % SERVE_BLOCKS_PER_SETUP == 0 {
                setups.extend(setup_times(exe, w.name, seed, 1)?);
            }
            in_block = 0;
            block_start = Instant::now();
        }
        std::thread::sleep(THINK);
        let members: Vec<&Obligation> = batch.obligations.iter().map(|&k| &pool[k]).collect();
        let req = request(
            format!("b{i}"),
            members.iter().map(|o| spec(o)).collect(),
            batch.write_budget,
        );
        let t = Instant::now();
        let resp = match submit_batch(&server.addr, &req, |_| {}) {
            Ok(resp) => resp,
            Err(e) => {
                eprintln!("batch {i}: {e}");
                checks.attempted += members.len() as u64;
                checks.failed += members.len() as u64;
                break;
            }
        };
        let rt_ms = secs(t) * 1e3;
        let got = answers(&resp);
        for o in &members {
            let line = got.get(&o.id).map_or("", String::as_str);
            // A cache hit must repeat the first answer exactly.
            let differs =
                batch.write_budget.is_none() && first.get(&o.id).map(String::as_str) != Some(line);
            check_answer(&mut checks, line, o, differs);
        }
        in_block += members.len() as u64;
        match batch.write_budget {
            Some(_) => writes += 1,
            None => reads_ms.push(rt_ms),
        }
    }
    let summary = server.stop()?;
    if summary.connection_errors > 0 {
        checks.failed += summary.connection_errors;
    }
    let notes = vec![format!(
        "{} read and {writes} write batches in {elapsed:.3} s; throughput over {} blocks, \
         latency over {} read batches",
        reads_ms.len(),
        block_rates.len(),
        reads_ms.len()
    )];
    Ok(report(
        &setups,
        median(&block_rates),
        &reads_ms,
        rss,
        checks,
        notes,
    ))
}
