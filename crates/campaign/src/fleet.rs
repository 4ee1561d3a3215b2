//! Supervised multi-process worker fleet: the campaign's crash-isolated
//! dispatch path.
//!
//! The in-process runner isolates panicking jobs with `catch_unwind`,
//! but a `catch_unwind` cannot contain an abort, a stack overflow or the
//! OS OOM killer — one bad SAT query can still take the whole campaign
//! (and, in serve mode, the verdict cache) down with it. With a fleet
//! attached, each runner worker thread owns a [`Dispatcher`] that sends
//! wire-representable obligations to a `gqed worker` *child process*
//! over stdin/stdout (the same line-delimited JSON language as
//! [`crate::api`]) instead of solving them on the thread. The child runs
//! the obligation's escalation attempts back to back, as the runner's
//! in-process path does; the runner keeps the claiming and the settling,
//! and this module only speaks the child protocol and watches for three
//! death shapes —
//!
//! * **exit/signal** — the child's stdout closes and `wait` reports how
//!   it died;
//! * **heartbeat loss** — the child goes silent (no output for
//!   [`FleetConfig::heartbeat_timeout_ms`]) without dying, and the
//!   dispatcher kills it;
//! * **spawn failure** — the worker executable cannot start at all, and
//!   the runner solves the obligation in-process.
//!
//! A crashed child is respawned under capped exponential backoff and its
//! in-flight obligation is re-dispatched — until the obligation has
//! crashed its worker [`FleetConfig::crash_budget`] times, at which
//! point it is quarantined as [`JobVerdict::Poisoned`] instead of
//! crashing the campaign. This extends the journal's "faults delay,
//! never flip" contract to process death: a poisoned obligation is not a
//! settled verdict (resume re-runs it; the verdict store refuses it),
//! and every *other* obligation's verdict is exactly what the in-process
//! runner would have produced — the normalized summary is byte-identical
//! at any worker count, including under injected kills
//! ([`FaultPlan::kill_job`], executed by the child the moment the marked
//! dispatch arrives, before any solving). A child that answers with a
//! structured `error` line settles the obligation as `failed` at once.
//!
//! Obligations with no wire form (synthesized mutants, the test-only
//! debug kinds) never reach a dispatcher: the runner solves them
//! in-process, exactly as without a fleet.

use crate::api::{self, ApiError, ObligationSpec, SCHEMA_VERSION};
use crate::journal::{replay_verdict, FaultPlan, KillFault, ReplayedRecord};
use crate::json::{parse_json, JsonValue};
use crate::portfolio::EngineId;
use crate::runner::{Campaign, CampaignConfig, JobVerdict};
use crate::telemetry::Telemetry;
use gqed_logic::SplitMix64;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the supervised worker fleet.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Supervisor slots = worker processes (capped at the obligation
    /// count, like the in-process worker pool).
    pub workers: usize,
    /// The worker executable. `None` re-executes the current binary
    /// (which must understand a `worker` argument — `gqed` does).
    pub worker_exe: Option<PathBuf>,
    /// Worker crashes one obligation may cause before it is quarantined
    /// as [`JobVerdict::Poisoned`].
    pub crash_budget: u32,
    /// Interval at which a solving child emits heartbeat lines.
    pub heartbeat_ms: u64,
    /// Silence (no child output) after which the supervisor declares
    /// heartbeat loss, kills the child and counts a crash.
    pub heartbeat_timeout_ms: u64,
    /// Base respawn delay after a crash; doubles per consecutive crash.
    pub backoff_base_ms: u64,
    /// Upper bound on the respawn delay.
    pub backoff_cap_ms: u64,
    /// Fault plan carrying deterministic worker-kill points
    /// ([`FaultPlan::kill_job`]) for chaos testing.
    pub faults: FaultPlan,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 1,
            worker_exe: None,
            crash_budget: 3,
            heartbeat_ms: 100,
            heartbeat_timeout_ms: 30_000,
            backoff_base_ms: 50,
            backoff_cap_ms: 5_000,
            faults: FaultPlan::new(),
        }
    }
}

impl FleetConfig {
    /// Sets the worker-process count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the worker executable (tests point this at the built `gqed`
    /// binary; the CLI leaves it `None` to re-execute itself).
    pub fn with_worker_exe(mut self, exe: PathBuf) -> Self {
        self.worker_exe = Some(exe);
        self
    }

    /// Sets the per-obligation crash budget.
    pub fn with_crash_budget(mut self, budget: u32) -> Self {
        self.crash_budget = budget.max(1);
        self
    }

    /// Sets the heartbeat-loss timeout in milliseconds.
    pub fn with_heartbeat_timeout_ms(mut self, ms: u64) -> Self {
        self.heartbeat_timeout_ms = ms.max(1);
        self
    }

    /// Sets the respawn backoff base and cap in milliseconds.
    pub fn with_backoff_ms(mut self, base: u64, cap: u64) -> Self {
        self.backoff_base_ms = base;
        self.backoff_cap_ms = cap.max(base);
        self
    }

    /// Attaches a fault plan with worker-kill points.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// The capped exponential respawn delay after `consecutive` crashes in a
/// row on one slot (1 = first crash).
fn backoff_ms(fleet: &FleetConfig, consecutive: u32) -> u64 {
    let shift = consecutive.saturating_sub(1).min(16);
    fleet
        .backoff_base_ms
        .saturating_mul(1u64 << shift)
        .min(fleet.backoff_cap_ms)
}

/// A seeded chaos plan: pick `kills` distinct wire-representable
/// obligations (partial Fisher–Yates over the obligation order, driven
/// by SplitMix64) and mark each one's *first* dispatch with an
/// alternating SIGKILL/abort death. Deterministic in `(obligations,
/// kills, seed)` — the smoke script and the chaos tests rely on that.
pub fn chaos_kill_plan(
    obligations: &[crate::obligation::Obligation],
    kills: usize,
    seed: u64,
) -> FaultPlan {
    let mut eligible: Vec<&str> = obligations
        .iter()
        .filter(|o| ObligationSpec::from_obligation(o).is_some())
        .map(|o| o.id.as_str())
        .collect();
    let mut rng = SplitMix64::new(seed);
    let mut plan = FaultPlan::new();
    let picks = kills.min(eligible.len());
    for i in 0..picks {
        let j = i + rng.below((eligible.len() - i) as u64) as usize;
        eligible.swap(i, j);
        let fault = if i % 2 == 0 {
            KillFault::SigKill
        } else {
            KillFault::Abort
        };
        plan = plan.kill_job(eligible[i], 1, fault);
    }
    plan
}

/// How [`Dispatcher::dispatch`] left an obligation; the runner settles
/// it through the same bookkeeping as an in-process solve.
pub(crate) enum DispatchOutcome {
    /// A child answered the dispatch with this record.
    Settled(ReplayedRecord),
    /// The campaign interrupt was raised while the obligation was in
    /// flight.
    Cancelled,
    /// The obligation crashed its worker on every dispatch up to the
    /// crash budget: quarantine it.
    Poisoned {
        /// Worker crashes attributed to the obligation.
        crashes: u32,
    },
    /// No worker child could be spawned: solve this attempt in-process.
    SpawnFailed,
}

/// A single-attempt `failed` answer: what the child sends for a request
/// it cannot resolve, and how the supervisor reads an `error` reply or
/// an undecodable `work_result`.
fn failed_record(message: String) -> ReplayedRecord {
    ReplayedRecord {
        verdict: JobVerdict::Failed { message },
        attempts: 1,
        engine: "-",
        frames_solved: 0,
        wall_ms: 0,
    }
}

/// The supervisor's reading of a `work_result` line: the journal's
/// record decoder, admitting unsettled verdicts too (a child's
/// timeout-escalated or failed obligation is a final answer).
fn decode_work_result(result: &JsonValue) -> ReplayedRecord {
    replay_verdict(result, api::decode_verdict)
        .unwrap_or_else(|| failed_record("worker returned an undecodable work_result".to_string()))
}

/// The `failed` answer to an `error` reply.
fn decode_error_reply(reply: &JsonValue) -> ReplayedRecord {
    failed_record(match ApiError::from_json(reply) {
        Some(e) => format!("worker error {e}"),
        None => "worker sent a malformed error reply".to_string(),
    })
}

/// How one round trip with a worker child ended.
enum RoundTrip {
    Answered(ReplayedRecord),
    /// The child died (exit, signal, or heartbeat loss) with a cause tag.
    Crashed(String),
    Cancelled,
}

/// Per-slot fleet counters, summed into the campaign summary.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FleetTally {
    /// Worker-process deaths observed.
    pub(crate) crashes: u64,
    /// Crashed worker processes respawned after backoff.
    pub(crate) restarts: u64,
    /// In-flight obligations re-dispatched after a worker death.
    pub(crate) requeued: u64,
}

/// A live worker child: the process, its stdin, and a reader thread
/// forwarding stdout lines over a channel (so the supervisor can wait
/// for output *with a timeout* — the heartbeat monitor).
struct WorkerChild {
    child: Child,
    stdin: ChildStdin,
    rx: Receiver<String>,
    pid: u32,
}

impl WorkerChild {
    fn spawn(fleet: &FleetConfig) -> std::io::Result<WorkerChild> {
        let exe = match &fleet.worker_exe {
            Some(path) => path.clone(),
            None => std::env::current_exe()?,
        };
        let mut child = Command::new(exe)
            .arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child
            .stdin
            .take()
            .ok_or_else(|| std::io::Error::other("worker child has no stdin"))?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| std::io::Error::other("worker child has no stdout"))?;
        let (tx, rx) = mpsc::channel();
        // The reader thread lives as long as the child's stdout; it is
        // deliberately detached — EOF (child death) ends it, and a
        // dropped receiver just makes sends fail silently.
        std::thread::spawn(move || {
            let reader = std::io::BufReader::new(stdout);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let pid = child.id();
        Ok(WorkerChild {
            child,
            stdin,
            rx,
            pid,
        })
    }

    /// Sends one request line to the child. An error means the child is
    /// already dead (broken pipe).
    fn send(&mut self, value: &JsonValue) -> std::io::Result<()> {
        self.stdin.write_all(value.render().as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()
    }

    /// Kills the child and reaps it.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Reaps the (already dead) child and describes how it died.
    fn death_cause(&mut self) -> String {
        match self.child.wait() {
            Ok(status) => {
                #[cfg(unix)]
                {
                    use std::os::unix::process::ExitStatusExt;
                    if let Some(sig) = status.signal() {
                        return format!("signal-{sig}");
                    }
                }
                match status.code() {
                    Some(code) => format!("exit-{code}"),
                    None => "exit-unknown".to_string(),
                }
            }
            Err(e) => format!("wait-failed: {e}"),
        }
    }
}

/// One fleet slot of a campaign worker thread: the child process it
/// dispatches to (spawned lazily, respawned under backoff after a crash)
/// and the slot's crash tally. Dropping it retires the child.
pub(crate) struct Dispatcher<'a> {
    fleet: &'a FleetConfig,
    config: &'a CampaignConfig,
    telemetry: &'a Telemetry,
    cancel: &'a AtomicBool,
    slot: usize,
    child: Option<WorkerChild>,
    consecutive_crashes: u32,
    pub(crate) tally: FleetTally,
}

impl<'a> Dispatcher<'a> {
    pub(crate) fn new(
        fleet: &'a FleetConfig,
        config: &'a CampaignConfig,
        telemetry: &'a Telemetry,
        cancel: &'a AtomicBool,
        slot: usize,
    ) -> Self {
        Dispatcher {
            fleet,
            config,
            telemetry,
            cancel,
            slot,
            child: None,
            consecutive_crashes: 0,
            tally: FleetTally::default(),
        }
    }

    /// Solves obligation `id` on a worker child, one full obligation
    /// solve (every escalation attempt) per dispatch. A crash
    /// re-dispatches in place — an obligation is dispatched by one slot
    /// only, so no other slot can race it — until the obligation's crash
    /// count reaches the crash budget.
    pub(crate) fn dispatch(&mut self, id: &str, spec: &ObligationSpec) -> DispatchOutcome {
        let mut crashes = 0u32;
        loop {
            let dispatch = crashes + 1;
            if self.child.is_none() {
                if self.consecutive_crashes > 0 {
                    let delay = backoff_ms(self.fleet, self.consecutive_crashes);
                    std::thread::sleep(Duration::from_millis(delay));
                    self.tally.restarts += 1;
                }
                match WorkerChild::spawn(self.fleet) {
                    Ok(c) => self.child = Some(c),
                    Err(e) => {
                        // The worker executable cannot start: the runner
                        // degrades to an in-process solve rather than
                        // wedging the slot.
                        self.telemetry.emit(
                            &JsonValue::obj()
                                .field("type", "worker_spawn_failed")
                                .field("slot", self.slot)
                                .field("job", id)
                                .field("error", e.to_string()),
                        );
                        return DispatchOutcome::SpawnFailed;
                    }
                }
            }
            let c = self.child.as_mut().expect("child ensured above");
            let pid = c.pid;
            self.telemetry.emit(
                &JsonValue::obj()
                    .field("type", "job_dispatch")
                    .field("job", id)
                    .field("slot", self.slot)
                    .field("dispatch", dispatch)
                    .field("pid", pid),
            );
            let kill = self.fleet.faults.kill_for(id, dispatch);
            let request = work_request(spec, self.config, self.fleet, dispatch, kill);
            let trip = if c.send(&request).is_err() {
                // Broken pipe: the child died between dispatches.
                RoundTrip::Crashed(c.death_cause())
            } else {
                monitor_dispatch(self.fleet, self.cancel, c)
            };
            let cause = match trip {
                RoundTrip::Answered(result) => {
                    self.consecutive_crashes = 0;
                    return DispatchOutcome::Settled(result);
                }
                RoundTrip::Cancelled => {
                    if let Some(mut c) = self.child.take() {
                        c.kill();
                    }
                    return DispatchOutcome::Cancelled;
                }
                RoundTrip::Crashed(cause) => cause,
            };
            self.child = None;
            self.consecutive_crashes += 1;
            self.tally.crashes += 1;
            crashes += 1;
            self.telemetry.emit(
                &JsonValue::obj()
                    .field("type", "worker_crash")
                    .field("job", id)
                    .field("slot", self.slot)
                    .field("pid", pid)
                    .field("dispatch", dispatch)
                    .field("cause", cause.as_str())
                    .field("crashes", crashes),
            );
            if crashes >= self.fleet.crash_budget {
                return DispatchOutcome::Poisoned { crashes };
            }
            self.tally.requeued += 1;
            self.telemetry.emit(
                &JsonValue::obj()
                    .field("type", "job_requeued")
                    .field("job", id)
                    .field("slot", self.slot)
                    .field("dispatch", dispatch)
                    .field("crashes", crashes),
            );
            if self.cancel.load(Ordering::Relaxed) {
                return DispatchOutcome::Cancelled;
            }
        }
    }
}

impl Drop for Dispatcher<'_> {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            // Idle child at drain time: ask it to exit, then make sure.
            let _ = c.send(&JsonValue::obj().field("type", "worker_exit"));
            c.kill();
        }
    }
}

/// Waits for the in-flight dispatch to end: a `work_result` or `error`
/// line, child death (stdout EOF), heartbeat loss, or a campaign
/// interrupt. Any child output — heartbeats included — refreshes the
/// silence clock.
fn monitor_dispatch(fleet: &FleetConfig, cancel: &AtomicBool, c: &mut WorkerChild) -> RoundTrip {
    let timeout = Duration::from_millis(fleet.heartbeat_timeout_ms);
    let mut last_output = Instant::now();
    loop {
        if cancel.load(Ordering::Relaxed) {
            return RoundTrip::Cancelled;
        }
        match c.rx.recv_timeout(Duration::from_millis(50)) {
            Ok(line) => {
                last_output = Instant::now();
                if let Some(v) = parse_json(&line) {
                    match v.get("type").and_then(JsonValue::as_str) {
                        Some("work_result") => return RoundTrip::Answered(decode_work_result(&v)),
                        // The child rejected the request (schema
                        // mismatch, unparseable line): it is alive but
                        // will never answer, so settle now.
                        Some("error") => return RoundTrip::Answered(decode_error_reply(&v)),
                        _ => {} // heartbeat / hello: clock refreshed above
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if last_output.elapsed() >= timeout {
                    c.kill();
                    return RoundTrip::Crashed("heartbeat-loss".to_string());
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return RoundTrip::Crashed(c.death_cause());
            }
        }
    }
}

/// The `work_request` line the supervisor sends for one dispatch: the
/// obligation's wire form plus the campaign's solver knobs (the child
/// runs the full Luby escalation itself, so fleet and in-process
/// attempts follow the same schedule) and, under a chaos plan, the kill
/// directive this dispatch must execute on receipt.
fn work_request(
    spec: &ObligationSpec,
    config: &CampaignConfig,
    fleet: &FleetConfig,
    dispatch: u32,
    kill: Option<KillFault>,
) -> JsonValue {
    JsonValue::obj()
        .field("type", "work_request")
        .field("schema_version", SCHEMA_VERSION)
        .field("dispatch", dispatch)
        .field("heartbeat_ms", fleet.heartbeat_ms)
        .field("kill", kill.map(|k| k.tag()))
        .field("deadline_ms", config.deadline_ms)
        .field("budget", config.base_budget)
        .field("max_attempts", config.max_attempts)
        .field(
            "engines",
            JsonValue::Array(
                config
                    .engines
                    .iter()
                    .map(|e| JsonValue::Str(e.name().to_string()))
                    .collect(),
            ),
        )
        .field("mem_limit", config.mem_limit.map(|b| b as u64))
        .field("inprocessing", config.inprocessing)
        .field("obligation", spec.to_json())
}

/// Writes one line to stdout and flushes it immediately — a worker
/// child's stdout is a pipe (block-buffered), and the supervisor's
/// heartbeat monitor needs every line the moment it is produced.
fn emit_line(value: &JsonValue) {
    let out = std::io::stdout();
    let mut lock = out.lock();
    let _ = lock.write_all(value.render().as_bytes());
    let _ = lock.write_all(b"\n");
    let _ = lock.flush();
}

/// Executes an injected death directive (see [`KillFault`]). Runs before
/// any solving and before heartbeats start, so the outcome is
/// deterministic: the supervisor always observes the dispatch in flight.
fn execute_kill(fault: KillFault) {
    match fault {
        KillFault::Abort => std::process::abort(),
        KillFault::SigKill => {
            #[cfg(unix)]
            {
                extern "C" {
                    fn kill(pid: i32, sig: i32) -> i32;
                }
                // SAFETY: raising SIGKILL on our own pid; both arguments
                // are plain integers and the call does not return.
                unsafe {
                    kill(std::process::id() as i32, 9);
                }
            }
            // Non-unix (or if the raise somehow returned): die anyway.
            std::process::abort();
        }
        KillFault::Hang => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
}

/// The `gqed worker` child loop: reads `work_request` lines from stdin,
/// solves each obligation as a single-obligation in-process campaign
/// (same config knobs, same Luby escalation as the parent would run),
/// emits `heartbeat` lines while solving, and answers each request with
/// one `work_result` line. Returns the process exit code. Exits on
/// stdin EOF or a `worker_exit` line.
pub fn run_worker() -> i32 {
    emit_line(
        &JsonValue::obj()
            .field("type", "worker_hello")
            .field("schema_version", SCHEMA_VERSION)
            .field("pid", std::process::id()),
    );
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let Some(value) = parse_json(&line) else {
            emit_line(&ApiError::new("bad-request", "invalid JSON").to_json());
            continue;
        };
        match value.get("type").and_then(JsonValue::as_str) {
            Some("work_request") => {
                if let Err(e) = api::check_schema_version(&value) {
                    emit_line(&e.to_json());
                    continue;
                }
                handle_work_request(&value);
            }
            Some("worker_exit") => return 0,
            other => {
                let what = other.unwrap_or("<missing type>");
                emit_line(
                    &ApiError::new("bad-request", format!("unknown request type '{what}'"))
                        .to_json(),
                );
            }
        }
    }
    0
}

/// Solves one `work_request` and emits its `work_result`. A request that
/// cannot be resolved answers as a `failed` verdict — mirroring how the
/// in-process runner turns a panicking job into `Failed` — rather than
/// crash-looping the child.
fn handle_work_request(value: &JsonValue) {
    if let Some(kill) = value
        .get("kill")
        .and_then(JsonValue::as_str)
        .and_then(KillFault::parse)
    {
        execute_kill(kill);
    }
    let job_id = value
        .get("obligation")
        .and_then(|o| o.get("id"))
        .and_then(JsonValue::as_str)
        .unwrap_or("<unknown>")
        .to_string();
    let fail = |message: String| emit_work_result(&job_id, &failed_record(message));
    let obligation = match value.get("obligation") {
        Some(spec) => match ObligationSpec::from_json(spec).and_then(|s| s.resolve()) {
            Ok(obl) => obl,
            Err(e) => return fail(e.to_string()),
        },
        None => return fail("work_request missing obligation".to_string()),
    };
    let config = match worker_config(value) {
        Ok(config) => config,
        Err(e) => return fail(e.to_string()),
    };
    let heartbeat_ms = value
        .get("heartbeat_ms")
        .and_then(JsonValue::as_u64)
        .unwrap_or(100)
        .max(1);

    // Heartbeats while solving: any stdout line refreshes the
    // supervisor's silence clock, so the cadence only has to beat the
    // heartbeat timeout, not be precise.
    let done = Arc::new(AtomicBool::new(false));
    let beat_done = Arc::clone(&done);
    let beat_job = job_id.clone();
    let beater = std::thread::spawn(move || {
        while !beat_done.load(Ordering::Relaxed) {
            emit_line(
                &JsonValue::obj()
                    .field("type", "heartbeat")
                    .field("job", beat_job.as_str()),
            );
            std::thread::sleep(Duration::from_millis(heartbeat_ms));
        }
    });

    let obligations = [obligation];
    let summary = Campaign::new(&obligations)
        .config(config)
        .run(&Telemetry::null());
    done.store(true, Ordering::Relaxed);
    let _ = beater.join();

    let record = &summary.records[0];
    emit_work_result(
        &job_id,
        &ReplayedRecord {
            verdict: record.verdict.clone(),
            attempts: record.attempts,
            engine: record.engine,
            frames_solved: record.frames_solved,
            wall_ms: record.wall.as_millis() as u64,
        },
    );
}

/// Emits the `work_result` line answering the request for `job`.
fn emit_work_result(job: &str, record: &ReplayedRecord) {
    emit_line(&api::encode_verdict_fields(
        JsonValue::obj()
            .field("type", "work_result")
            .field("schema_version", SCHEMA_VERSION)
            .field("job", job)
            .field("verdict", record.verdict.tag())
            .field("attempts", record.attempts)
            .field("engine", record.engine)
            .field("frames_solved", record.frames_solved)
            .field("wall_ms", record.wall_ms),
        &record.verdict,
    ));
}

/// Rebuilds the parent campaign's solver knobs from a `work_request`.
fn worker_config(value: &JsonValue) -> Result<CampaignConfig, ApiError> {
    let mut config = CampaignConfig::default().with_jobs(1);
    if let Some(ms) = value.get("deadline_ms").and_then(JsonValue::as_u64) {
        config = config.with_deadline_ms(ms);
    }
    if let Some(budget) = value.get("budget").and_then(JsonValue::as_u64) {
        config = config.with_base_budget(budget);
    }
    if let Some(attempts) = value.get("max_attempts").and_then(JsonValue::as_u64) {
        let attempts = u32::try_from(attempts)
            .map_err(|_| ApiError::new("bad-request", "max_attempts out of range"))?;
        config = config.with_max_attempts(attempts);
    }
    if let Some(JsonValue::Array(items)) = value.get("engines") {
        let mut engines = Vec::with_capacity(items.len());
        for item in items {
            let name = item
                .as_str()
                .ok_or_else(|| ApiError::new("bad-request", "engine not a string"))?;
            engines.push(EngineId::parse(name).map_err(|e| ApiError::new("unknown-engine", e))?);
        }
        if !engines.is_empty() {
            config = config.with_engines(engines);
        }
    }
    if let Some(bytes) = value.get("mem_limit").and_then(JsonValue::as_u64) {
        config = config.with_mem_limit(bytes as usize);
    }
    if let Some(on) = value.get("inprocessing").and_then(JsonValue::as_bool) {
        config = config.with_inprocessing(on);
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obligation::{enumerate_obligations, FlowFilter};

    #[test]
    fn backoff_doubles_and_caps() {
        let fleet = FleetConfig::default().with_backoff_ms(50, 400);
        assert_eq!(backoff_ms(&fleet, 1), 50);
        assert_eq!(backoff_ms(&fleet, 2), 100);
        assert_eq!(backoff_ms(&fleet, 3), 200);
        assert_eq!(backoff_ms(&fleet, 4), 400);
        assert_eq!(backoff_ms(&fleet, 5), 400); // capped
        assert_eq!(backoff_ms(&fleet, 63), 400); // shift is clamped, no overflow
    }

    #[test]
    fn chaos_plan_is_deterministic_and_capped() {
        let obls = enumerate_obligations(FlowFilter::all(), &["relu".to_string()]);
        let a = chaos_kill_plan(&obls, 3, 7);
        let b = chaos_kill_plan(&obls, 3, 7);
        let mut hits_a = 0;
        let mut hits_b = 0;
        for o in &obls {
            assert_eq!(a.kill_for(&o.id, 1), b.kill_for(&o.id, 1));
            hits_a += usize::from(a.kill_for(&o.id, 1).is_some());
            hits_b += usize::from(b.kill_for(&o.id, 1).is_some());
        }
        assert_eq!(hits_a, 3);
        assert_eq!(hits_b, 3);
        // More kills than obligations: every wire-representable
        // obligation gets marked, and nothing blows up.
        let all = chaos_kill_plan(&obls, 10_000, 1);
        let marked: usize = obls
            .iter()
            .filter(|o| all.kill_for(&o.id, 1).is_some())
            .count();
        let eligible = obls
            .iter()
            .filter(|o| ObligationSpec::from_obligation(o).is_some())
            .count();
        assert_eq!(marked, eligible);
    }

    #[test]
    fn kill_fault_tags_round_trip() {
        for fault in [KillFault::Abort, KillFault::SigKill, KillFault::Hang] {
            assert_eq!(KillFault::parse(fault.tag()), Some(fault));
        }
        assert_eq!(KillFault::parse("nonsense"), None);
    }

    #[test]
    fn work_request_round_trips_the_config() {
        let obls = enumerate_obligations(FlowFilter::all(), &["relu".to_string()]);
        let spec = obls
            .iter()
            .find_map(ObligationSpec::from_obligation)
            .expect("relu has wire-representable obligations");
        let config = CampaignConfig::default()
            .with_deadline_ms(1234)
            .with_base_budget(99)
            .with_max_attempts(7)
            .with_mem_limit(1 << 20)
            .with_inprocessing(false);
        let req = work_request(&spec, &config, &FleetConfig::default(), 2, None);
        assert_eq!(
            req.get("type").and_then(JsonValue::as_str),
            Some("work_request")
        );
        let rebuilt = worker_config(&req).expect("request must resolve");
        assert_eq!(rebuilt.jobs, 1);
        assert_eq!(rebuilt.deadline_ms, Some(1234));
        assert_eq!(rebuilt.base_budget, Some(99));
        assert_eq!(rebuilt.max_attempts, 7);
        assert_eq!(rebuilt.engines, config.engines);
        assert_eq!(rebuilt.mem_limit, Some(1 << 20));
        assert!(!rebuilt.inprocessing);
        // The obligation survives the round trip too.
        let spec2 = ObligationSpec::from_json(req.get("obligation").unwrap()).unwrap();
        assert_eq!(spec2, spec);
    }

    #[test]
    fn decode_verdict_covers_unsettled_outcomes() {
        use crate::api::decode_verdict;
        for verdict in [
            JobVerdict::TimeoutEscalated { attempts: 4 },
            JobVerdict::Failed {
                message: "boom".to_string(),
            },
            JobVerdict::Cancelled,
            JobVerdict::Poisoned { crashes: 3 },
            JobVerdict::Clean { bound: 12 },
        ] {
            let rec = api::encode_verdict_fields(
                JsonValue::obj().field("verdict", verdict.tag()),
                &verdict,
            );
            assert_eq!(decode_verdict(&rec), Some(verdict));
        }
    }
}
