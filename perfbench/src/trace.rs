//! The traced run: one pass of a workload re-executed on one thread,
//! calling each layer's public function from here with a span around the
//! call, then the fixed probe suite ([`crate::probes`]).
//!
//! Spans are kept in memory (name, start, end, parent, obligation) and
//! reduced at the end: a layer's self time is its spans' durations minus
//! the parts their child spans cover. The per-layer metrics follow one
//! rule: times and per-call means cover the whole traced run, workload
//! pass and probe suite together, so every layer is measured on every
//! workload; work counters and ratios count the workload pass alone; the
//! `*probe*` metrics isolate the probe suite's fixed-input parts.
//!
//! Splitting time between encoding and solving inside `BmcEngine` needs
//! spans inside the program; here that split shows in the work counters
//! (`bmc.aig_ands`, `bmc.cnf_clauses`, `sat.*`) and the `ir`/`sat` probes.

use crate::probes::{self, frame_ands, ProbeResults};
use crate::stats::median;
use crate::timed::{request, spec};
use crate::workload::{permuted, BatchStream, Kind, Workload, BLOCK};
use crate::{Checks, Metric, Report};
use gqed_bmc::{replay, BmcLimits, BmcStats};
use gqed_campaign::{
    derive_key, parse_json, BatchRequest, BatchResponse, CampaignConfig, JobVerdict, Journal,
    JsonValue, Obligation, ObligationKind, ReplayedRecord, Telemetry, VerdictStore,
};
use gqed_core::{
    build_model, model_fingerprint, CheckKind, CheckSession, CheckStatus, ModelCache, ModelKey,
    Verdict,
};
use gqed_ha::{all_designs, Design};
use gqed_ir::Model;
use gqed_logic::SplitMix64;
use gqed_sat::luby;
use std::cell::{Cell, RefCell};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `bmc.check`.
    pub name: &'static str,
    /// Start, from the tracer's origin.
    pub start: Duration,
    /// End, from the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Index of the obligation (in pass order) the span worked for.
    pub obligation: Option<u32>,
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    obligation: Cell<Option<u32>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            obligation: Cell::new(None),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.origin.elapsed(),
                end: Duration::ZERO,
                parent: self.open.borrow().last().copied(),
                obligation: self.obligation.get(),
            });
            (spans.len() - 1) as u32
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index as usize].end = self.origin.elapsed();
        out
    }

    /// Tags the spans that follow with an obligation index.
    pub fn set_obligation(&self, index: Option<usize>) {
        self.obligation.set(index.map(|i| i as u32));
    }

    /// Time since the tracer was created.
    pub fn elapsed(&self) -> Duration {
        self.origin.elapsed()
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Each span's self time: its duration minus its children's durations.
fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut covered = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.end.saturating_sub(s.start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.end.saturating_sub(s.start).saturating_sub(c))
        .collect()
}

/// The measured cost of recording one span on this machine (median of
/// five batches of 10 000 empty spans).
fn span_cost() -> Duration {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let tr = Tracer::new();
            let t = Instant::now();
            for _ in 0..10_000 {
                tr.span("calibrate", || std::hint::black_box(()));
            }
            t.elapsed().as_secs_f64() / 10_000.0
        })
        .collect();
    Duration::from_secs_f64(median(&batches))
}

/// Work counters of the workload pass.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Obligations solved by an engine (cache hits excluded).
    pub solved: u64,
    /// BMC session runs, Luby retries included.
    pub attempts: u64,
    /// Retries that resumed a kept session.
    pub session_resumes: u64,
    /// Per-frame BMC queries solved across all attempts.
    pub frames_solved: u64,
    /// Model-cache lookups answered from the cache.
    pub model_hits: u64,
    /// Model-cache lookups that built the model.
    pub model_misses: u64,
    /// Verdict-store probes.
    pub store_gets: u64,
    /// Verdict-store probes that hit.
    pub store_hits: u64,
    /// Counterexamples replayed.
    pub replays: u64,
    /// Counterexamples that failed to replay (wrong answers).
    pub replay_failures: u64,
    /// AND gates of one-frame blasts of every built model.
    pub frame_ands: u64,
    /// SAT conflicts of the BMC sessions.
    pub sat_conflicts: u64,
    /// SAT decisions.
    pub sat_decisions: u64,
    /// SAT propagations.
    pub sat_propagations: u64,
    /// SAT restarts.
    pub sat_restarts: u64,
    /// Largest clause-arena high-water mark, bytes.
    pub sat_peak_arena_bytes: u64,
    /// Inprocessing rounds.
    pub sat_simplify_rounds: u64,
    /// Variables eliminated by inprocessing.
    pub sat_eliminated_vars: u64,
    /// AND gates in the BMC unrollings, summed over sessions.
    pub bmc_aig_ands: u64,
    /// CNF clauses of the BMC unrollings, summed over sessions.
    pub bmc_cnf_clauses: u64,
}

impl Counters {
    fn add_bmc(&mut self, s: &BmcStats) {
        let solver = &s.solver;
        self.sat_conflicts += solver.conflicts;
        self.sat_decisions += solver.decisions;
        self.sat_propagations += solver.propagations;
        self.sat_restarts += solver.restarts;
        self.sat_peak_arena_bytes = self
            .sat_peak_arena_bytes
            .max(solver.peak_arena_bytes as u64);
        self.sat_simplify_rounds += solver.simplify_rounds;
        self.sat_eliminated_vars += solver.eliminated_vars;
        self.bmc_aig_ands += s.aig_ands as u64;
        self.bmc_cnf_clauses += s.cnf_clauses as u64;
    }
}

/// A finished traced run.
pub struct Trace {
    /// The per-layer metrics and the answer checks.
    pub report: Report,
    /// Every recorded span.
    pub spans: Vec<Span>,
    /// Obligation ids, indexed by the spans' `obligation`.
    pub obligations: Vec<String>,
    /// Wall time of the traced run.
    pub wall: Duration,
}

impl Trace {
    /// The trace file: metrics plus every span (times in microseconds).
    pub fn to_json(&self, workload: &str, seed: u64) -> JsonValue {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                JsonValue::obj()
                    .field("name", s.name)
                    .field("start_us", s.start.as_secs_f64() * 1e6)
                    .field("end_us", s.end.as_secs_f64() * 1e6)
                    .field("parent", s.parent)
                    .field("obligation", s.obligation)
            })
            .collect();
        let obligations = self
            .obligations
            .iter()
            .map(|id| JsonValue::Str(id.clone()))
            .collect();
        JsonValue::obj()
            .field("workload", workload)
            .field("seed", seed)
            .field("wall_ms", self.wall.as_secs_f64() * 1e3)
            .field("result", self.report.to_json())
            .field("obligations", JsonValue::Array(obligations))
            .field("spans", JsonValue::Array(spans))
    }
}

/// Traces one pass of `w` followed by the probe suite. Scratch files go
/// under `dir`, which must start empty (the verdict stores reopen).
pub fn run(w: &Workload, seed: u64, dir: &Path) -> Result<Trace, String> {
    let cost = span_cost();
    let tr = Tracer::new();
    let mut c = Counters::default();
    let mut checks = Checks::default();
    let mut rng = SplitMix64::new(seed);
    let order = permuted(&w.obligations, &mut rng);
    let sinks = Sinks::open(w, dir)?;
    let mut obligations: Vec<String> = Vec::new();
    match w.kind {
        Kind::Campaign => {
            let cache = ModelCache::new();
            for (i, o) in order.iter().enumerate() {
                tr.set_obligation(Some(i));
                let verdict = solve(&tr, o, &w.config, &cache, &sinks, &mut c);
                checks.verdict(o, &verdict, false);
                obligations.push(o.id.clone());
            }
        }
        Kind::Serve => serve_pass(
            &tr,
            w,
            seed,
            dir,
            &sinks,
            &mut c,
            &mut checks,
            &mut obligations,
        )?,
    }
    tr.set_obligation(None);
    for _ in 0..c.replay_failures {
        checks.check(true, true);
    }
    let probe = probes::run(&tr, dir, &mut checks)?;
    let wall = tr.elapsed();
    let spans = tr.into_spans();
    let metrics = layer_metrics(&spans, wall, cost, &c, &probe);
    Ok(Trace {
        report: Report {
            metrics,
            checks,
            notes: vec![format!(
                "{} obligations and the probe suite, {} spans in {:.3} s",
                obligations.len(),
                spans.len(),
                wall.as_secs_f64()
            )],
        },
        spans,
        obligations,
        wall,
    })
}

/// Where the runner's per-obligation records go: telemetry always (a
/// null sink renders events all the same), and on a journaled workload a
/// journal and a telemetry file.
struct Sinks {
    telemetry: Telemetry,
    journal: Option<Journal>,
}

impl Sinks {
    fn open(w: &Workload, dir: &Path) -> Result<Sinks, String> {
        if !w.journaled {
            return Ok(Sinks {
                telemetry: Telemetry::null(),
                journal: None,
            });
        }
        Ok(Sinks {
            telemetry: Telemetry::file(&dir.join("trace.jsonl"))
                .map_err(|e| format!("telemetry: {e}"))?,
            journal: Some(
                Journal::create(&dir.join("trace.journal")).map_err(|e| format!("journal: {e}"))?,
            ),
        })
    }

    fn emit(&self, tr: &Tracer, event: impl FnOnce() -> JsonValue) {
        tr.span("campaign.telemetry_emit", || self.telemetry.emit(&event()));
    }

    fn journal(&self, tr: &Tracer, record: impl FnOnce() -> JsonValue, sync: bool) {
        if let Some(j) = &self.journal {
            if let Err(e) = tr.span("campaign.journal_append", || j.append(&record(), sync)) {
                eprintln!("journal append failed: {e}");
            }
        }
    }
}

/// Builds the catalogue design an obligation names.
fn build_design(tr: &Tracer, o: &Obligation) -> Design {
    tr.span("ha.build", || {
        let entry = all_designs()
            .into_iter()
            .find(|e| e.name == o.design)
            .expect("workload obligations name catalogue designs");
        (entry.build)(o.bug)
    })
}

/// The model an obligation checks under `kind`, through the model cache
/// as the runner resolves it. A freshly built model is also blasted one
/// frame deep (`ir.bitblast`), to show the encoding share.
fn model_for(
    tr: &Tracer,
    o: &Obligation,
    kind: CheckKind,
    cache: &ModelCache,
    c: &mut Counters,
) -> Arc<Model> {
    let mut built = false;
    let model = tr.span("core.build_model", || {
        cache.get_or_build(ModelKey::new(o.design, o.bug, kind), || {
            built = true;
            build_model(&build_design(tr, o), kind)
        })
    });
    if built {
        c.model_misses += 1;
        c.frame_ands += tr.span("ir.bitblast", || frame_ands(&model.ctx, &model.ts));
    } else {
        c.model_hits += 1;
    }
    model
}

/// Settles one obligation the way the runner's in-process worker does,
/// and writes its verdict records.
fn solve(
    tr: &Tracer,
    o: &Obligation,
    config: &CampaignConfig,
    cache: &ModelCache,
    sinks: &Sinks,
    c: &mut Counters,
) -> JobVerdict {
    let ObligationKind::Check { kind, bound } = o.kind else {
        unreachable!("workloads hold bounded checks only")
    };
    let (verdict, attempts) = check(tr, o, kind, bound, config, cache, sinks, c);
    c.solved += 1;
    emit_verdict(tr, sinks, o, &verdict, attempts, false);
    sinks.journal(
        tr,
        || {
            let rec = JsonValue::obj()
                .field("type", "verdict")
                .field("job", o.id.as_str())
                .field("verdict", verdict.tag())
                .field("attempts", attempts)
                .field("proof_engine", "bmc");
            gqed_campaign::api::encode_verdict_fields(rec, &verdict)
        },
        true,
    );
    verdict
}

/// The runner's `job_verdict` telemetry event.
fn emit_verdict(
    tr: &Tracer,
    sinks: &Sinks,
    o: &Obligation,
    verdict: &JobVerdict,
    attempts: u32,
    cache_hit: bool,
) {
    sinks.emit(tr, || {
        let ev = JsonValue::obj()
            .field("type", "job_verdict")
            .field("job", o.id.as_str())
            .field("verdict", verdict.tag())
            .field("attempts", attempts)
            .field("proof_engine", "bmc")
            .field("mismatch", false)
            .field("cache_hit", cache_hit);
        gqed_campaign::api::encode_verdict_fields(ev, verdict)
    });
}

/// A bounded check: one session, re-run per Luby attempt while the
/// budget stops it, exactly as the runner's warm path resumes it.
#[allow(clippy::too_many_arguments)]
fn check(
    tr: &Tracer,
    o: &Obligation,
    kind: CheckKind,
    bound: u32,
    config: &CampaignConfig,
    cache: &ModelCache,
    sinks: &Sinks,
    c: &mut Counters,
) -> (JobVerdict, u32) {
    let model = model_for(tr, o, kind, cache, c);
    let mut session = CheckSession::new(kind, bound, Arc::clone(&model));
    session.set_inprocessing(config.inprocessing);
    let mut attempt = 1u32;
    loop {
        let budget = config
            .base_budget
            .map(|b| b.saturating_mul(luby(u64::from(attempt))));
        sinks.emit(tr, || {
            JsonValue::obj()
                .field("type", "job_start")
                .field("job", o.id.as_str())
                .field("design", o.design)
                .field("bug", o.bug)
                .field("flow", o.flow_tag())
                .field("attempt", attempt)
                .field("budget", budget)
        });
        let limits = BmcLimits {
            budget,
            ..BmcLimits::default()
        };
        let before = session.frame_queries();
        let status = tr.span("bmc.check", || session.run(&limits));
        c.attempts += 1;
        c.frames_solved += session.frame_queries() - before;
        match status {
            CheckStatus::Done(out) => {
                c.add_bmc(&out.stats);
                if let Some(trace) = &out.trace {
                    c.replays += 1;
                    let replayed = tr.span("bmc.replay", || replay(&model.ctx, &model.ts, trace));
                    if replayed.is_err() {
                        c.replay_failures += 1;
                    }
                }
                let verdict = match out.verdict {
                    Verdict::Violation { property, cycles } => {
                        JobVerdict::Violation { property, cycles }
                    }
                    Verdict::CleanUpTo(bound) => JobVerdict::Clean { bound },
                };
                return (verdict, attempt);
            }
            CheckStatus::Stopped { stats, .. } if attempt >= config.max_attempts => {
                c.add_bmc(&stats);
                return (JobVerdict::TimeoutEscalated { attempts: attempt }, attempt);
            }
            CheckStatus::Stopped { .. } => {
                sinks.journal(
                    tr,
                    || {
                        JsonValue::obj()
                            .field("type", "attempt")
                            .field("job", o.id.as_str())
                            .field("attempt", attempt)
                            .field("reason", "budget-exhausted")
                    },
                    false,
                );
                c.session_resumes += 1;
                attempt += 1;
            }
        }
    }
}

/// `serve`'s pass: a fresh store warmed with the pool, then the first two
/// blocks of the seeded batch stream — the server's per-batch work (wire
/// codec, store probe, solve on a miss, publish) called in-thread.
#[allow(clippy::too_many_arguments)]
fn serve_pass(
    tr: &Tracer,
    w: &Workload,
    seed: u64,
    dir: &Path,
    sinks: &Sinks,
    c: &mut Counters,
    checks: &mut Checks,
    obligations: &mut Vec<String>,
) -> Result<(), String> {
    let store = tr
        .span("campaign.store_open", || {
            VerdictStore::open(&dir.join("trace-store.j1"))
        })
        .map_err(|e| format!("verdict store: {e}"))?;
    let cache = ModelCache::new();
    let pool: Vec<&Obligation> = w.obligations.iter().collect();
    let first = serve_batch(tr, w, &pool, None, &store, &cache, sinks, c, obligations)?;
    for (o, (_, verdict)) in pool.iter().zip(&first) {
        checks.verdict(o, verdict, false);
    }
    for batch in BatchStream::new(seed, pool.len()).take(2 * BLOCK) {
        let members: Vec<&Obligation> = batch.obligations.iter().map(|&k| pool[k]).collect();
        let got = serve_batch(
            tr,
            w,
            &members,
            batch.write_budget,
            &store,
            &cache,
            sinks,
            c,
            obligations,
        )?;
        for ((o, (_, verdict)), &k) in members.iter().zip(&got).zip(&batch.obligations) {
            let differs =
                batch.write_budget.is_none() && verdict.normalized() != first[k].1.normalized();
            checks.verdict(o, verdict, differs);
        }
    }
    Ok(())
}

/// One batch as the server handles it. Returns each member's verdict and
/// whether it came from the store.
#[allow(clippy::too_many_arguments)]
fn serve_batch(
    tr: &Tracer,
    w: &Workload,
    members: &[&Obligation],
    budget: Option<u64>,
    store: &VerdictStore,
    cache: &ModelCache,
    sinks: &Sinks,
    c: &mut Counters,
    obligations: &mut Vec<String>,
) -> Result<Vec<(bool, JobVerdict)>, String> {
    let req = request(
        "trace".to_string(),
        members.iter().map(|o| spec(o)).collect(),
        budget,
    );
    let (config, resolved) = tr.span("campaign.api_codec", || {
        let line = req.to_json().render();
        let parsed = BatchRequest::from_json(&parse_json(&line).ok_or("request does not parse")?)
            .map_err(|e| e.to_string())?;
        let config = parsed.apply_to(&w.config).map_err(|e| e.to_string())?;
        let resolved = parsed.resolve_obligations().map_err(|e| e.to_string())?;
        Ok::<_, String>((config, resolved))
    })?;
    let mut out = Vec::with_capacity(resolved.len());
    for o in &resolved {
        tr.set_obligation(Some(obligations.len()));
        obligations.push(o.id.clone());
        let ObligationKind::Check { kind, .. } = o.kind else {
            unreachable!("the serve pool holds bounded checks only")
        };
        let model = model_for(tr, o, kind, cache, c);
        let fingerprint = tr.span("core.fingerprint", || model_fingerprint(&model));
        let key = derive_key(fingerprint, o, &config);
        c.store_gets += 1;
        let entry = match tr.span("campaign.store_get", || store.get(key)) {
            Some(hit) => {
                c.store_hits += 1;
                sinks.emit(tr, || {
                    JsonValue::obj()
                        .field("type", "job_cached")
                        .field("job", o.id.as_str())
                        .field("key", key.hex())
                        .field("verdict", hit.verdict.tag())
                        .field("source", "verdict-store")
                });
                emit_verdict(tr, sinks, o, &hit.verdict, hit.attempts, true);
                (true, hit.verdict)
            }
            None => {
                let verdict = solve(tr, o, &config, cache, sinks, c);
                let record = ReplayedRecord {
                    verdict: verdict.clone(),
                    attempts: 1,
                    engine: "bmc",
                    frames_solved: 0,
                    wall_ms: 0,
                };
                tr.span("campaign.store_put", || store.put(key, &record))
                    .map_err(|e| format!("verdict store: {e}"))?;
                (false, verdict)
            }
        };
        out.push(entry);
    }
    tr.set_obligation(None);
    let normalized: String = resolved
        .iter()
        .zip(&out)
        .map(|(o, (_, v))| format!("{} {} {}\n", o.id, o.flow_tag(), v.normalized()))
        .collect();
    let hits = out.iter().filter(|(hit, _)| *hit).count() as u64;
    tr.span("campaign.api_codec", || {
        let resp = BatchResponse {
            batch: req.batch.clone(),
            obligations: out.len() as u64,
            violations: out.iter().filter(|(_, v)| v.is_violation()).count() as u64,
            passes: out.iter().filter(|(_, v)| !v.is_violation()).count() as u64,
            unknowns: 0,
            timeouts: 0,
            failures: 0,
            cancelled: 0,
            replayed: 0,
            mismatches: 0,
            cache_hits: hits,
            cache_misses: out.len() as u64 - hits,
            jobs: 1,
            wall_ms: 0,
            exit_code: 0,
            normalized,
        };
        let line = resp.to_json().render();
        parse_json(&line).map(|v| BatchResponse::from_json(&v))
    })
    .ok_or("response does not parse")?
    .map_err(|e| e.to_string())?;
    Ok(out)
}

/// Sum of self times (ms) of the spans named `names`.
fn self_ms(spans: &[Span], st: &[Duration], names: &[&str]) -> f64 {
    spans
        .iter()
        .zip(st)
        .filter(|(s, _)| names.contains(&s.name))
        .map(|(_, d)| d.as_secs_f64() * 1e3)
        .sum()
}

/// Mean self time (ms) per span named `name`; 0 when there is none.
fn mean_ms(spans: &[Span], st: &[Duration], name: &str) -> f64 {
    let n = spans.iter().filter(|s| s.name == name).count();
    if n == 0 {
        0.0
    } else {
        self_ms(spans, st, &[name]) / n as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn layer_metrics(
    spans: &[Span],
    wall: Duration,
    cost: Duration,
    c: &Counters,
    p: &ProbeResults,
) -> Vec<Metric> {
    let st = self_times(spans);
    let ms = |names: &[&str]| self_ms(spans, &st, names);
    let mean = |name: &str| mean_ms(spans, &st, name);
    let wall_s = wall.as_secs_f64();
    let covered: f64 = st.iter().map(Duration::as_secs_f64).sum();
    let pdr_ms = ms(&["pdr.probe"]);
    vec![
        Metric::new("ha.build_ms", ms(&["ha.build"]), "ms"),
        Metric::new(
            "core.build_model_ms",
            ms(&["core.build_model", "core.synthesize"]),
            "ms",
        ),
        Metric::new("core.fingerprint_ms", ms(&["core.fingerprint"]), "ms"),
        Metric::new("core.wrapper_probe_us", p.wrapper_us, "us"),
        Metric::new("ir.bitblast_ms", ms(&["ir.bitblast"]), "ms"),
        Metric::new("ir.frame_ands", c.frame_ands as f64, "count"),
        Metric::new("sat.conflicts", c.sat_conflicts as f64, "count"),
        Metric::new("sat.decisions", c.sat_decisions as f64, "count"),
        Metric::new("sat.propagations", c.sat_propagations as f64, "count"),
        Metric::new("sat.restarts", c.sat_restarts as f64, "count"),
        Metric::new(
            "sat.peak_arena_bytes",
            c.sat_peak_arena_bytes as f64,
            "bytes",
        ),
        Metric::new("sat.simplify_rounds", c.sat_simplify_rounds as f64, "count"),
        Metric::new("sat.eliminated_vars", c.sat_eliminated_vars as f64, "count"),
        Metric::new(
            "sat.props_per_s",
            p.sat_propagations as f64 / p.sat_solve_s,
            "1/s",
        ),
        Metric::new("sat.probe_3sat_ms", p.sat_3sat_ms, "ms"),
        Metric::new("sat.probe_php_ms", p.sat_php_ms, "ms"),
        Metric::new("bmc.check_ms", ms(&["bmc.check"]), "ms"),
        Metric::new("bmc.aig_ands", c.bmc_aig_ands as f64, "count"),
        Metric::new("bmc.cnf_clauses", c.bmc_cnf_clauses as f64, "count"),
        Metric::new("bmc.replay_ms", ms(&["bmc.replay"]), "ms"),
        Metric::new("bmc.replays", c.replays as f64, "count"),
        Metric::new("bmc.kind_ms", ms(&["bmc.kind"]), "ms"),
        Metric::new("bmc.frames_probe_ms", p.frames_ms, "ms"),
        Metric::new("pdr.ms", pdr_ms, "ms"),
        Metric::new("pdr.queries", p.pdr_queries as f64, "count"),
        Metric::new("pdr.ctis", p.pdr_ctis as f64, "count"),
        Metric::new("pdr.blocked_cubes", p.pdr_blocked_cubes as f64, "count"),
        Metric::new("pdr.frames", f64::from(p.pdr_frames), "count"),
        Metric::new(
            "pdr.queries_per_s",
            p.pdr_queries as f64 / (pdr_ms / 1e3),
            "1/s",
        ),
        Metric::new(
            "campaign.attempts_per_obligation",
            ratio(c.attempts, c.solved),
            "ratio",
        ),
        Metric::new(
            "campaign.session_resumes",
            c.session_resumes as f64,
            "count",
        ),
        Metric::new(
            "campaign.model_cache_hit_rate",
            ratio(c.model_hits, c.model_hits + c.model_misses),
            "frac",
        ),
        Metric::new("campaign.frames_solved", c.frames_solved as f64, "count"),
        Metric::new(
            "campaign.store_get_us",
            mean("campaign.store_get") * 1e3,
            "us",
        ),
        Metric::new(
            "campaign.store_hit_rate",
            ratio(c.store_hits, c.store_gets),
            "frac",
        ),
        Metric::new("campaign.store_put_ms", mean("campaign.store_put"), "ms"),
        Metric::new(
            "campaign.journal_append_ms",
            mean("campaign.journal_append"),
            "ms",
        ),
        Metric::new(
            "campaign.telemetry_emit_us",
            mean("campaign.telemetry_emit") * 1e3,
            "us",
        ),
        Metric::new(
            "campaign.api_codec_us",
            mean("campaign.api_codec") * 1e3,
            "us",
        ),
        Metric::new("campaign.serve_gap_ms", median(&p.serve_gaps_ms), "ms"),
        Metric::new("trace.coverage", covered / wall_s, "frac"),
        Metric::new(
            "trace.overhead_frac",
            cost.as_secs_f64() * spans.len() as f64 / wall_s,
            "frac",
        ),
    ]
}
