//! The parallel campaign runner.
//!
//! Obligations go into a shared work queue; `jobs` worker threads drain
//! it. Each attempt runs under a conflict budget and wall-clock deadline
//! scaled by the Luby sequence of the attempt number — a timed-out
//! obligation goes back on the queue with a larger allowance until
//! `max_attempts` is reached, at which point it is recorded as
//! `timeout-escalated`. Panicking jobs are isolated with `catch_unwind`
//! and recorded as `failed`; neither ever takes the campaign down.
//!
//! Clean-design proof obligations run an N-way engine *portfolio*
//! ([`CampaignConfig::engines`]): bounded BMC, k-induction and IC3/PDR
//! run concurrently sharing one prebuilt model and one cancellation
//! flag, and the first engine to reach a *conclusive* result raises the
//! flag, interrupting the others mid-search. An inconclusive outcome
//! (`Unknown`) drops that engine out without cancelling the race — a
//! bounded-clean certificate from the BMC side is still worth waiting
//! for. When the portfolio is exactly `[bmc]` the obligation runs on the
//! plain session path instead (fully deterministic certificates, used by
//! the table generators and the bench).
//!
//! Three robustness mechanisms wrap the queue (all optional):
//!
//! * **journaling** — a campaign built with [`Campaign::journal`]
//!   appends every verdict (fsync'd) and escalation attempt to a
//!   crash-safe [`Journal`](crate::journal::Journal), and
//!   [`Campaign::resume`] replays a prior run's journal so completed
//!   obligations are skipped on `--resume`;
//! * **memory degradation** — when the solver's clause arena exceeds
//!   [`CampaignConfig::mem_limit`] the attempt stops with
//!   [`StopReason::MemoryLimit`]; the worker sheds the obligation's kept
//!   session and retries cold at the *base* budget (no Luby escalation —
//!   a bigger budget would just hit the wall again);
//! * **cancellation** — raising [`CampaignConfig::interrupt`] (the CLI
//!   wires SIGINT/SIGTERM to it) interrupts in-flight solvers; affected
//!   obligations finish as `cancelled` with a journal checkpoint so a
//!   resumed campaign re-runs exactly them.

use crate::journal::{Journal, ReplayedRecord, ResumeState};
use crate::json::JsonValue;
use crate::obligation::{Obligation, ObligationKind};
use crate::portfolio::{default_portfolio, EngineId, PDR_QUERY_CAP};
use crate::store::{derive_key, StoreKey, VerdictStore};
use crate::telemetry::Telemetry;
use gqed_bmc::{BmcEngine, BmcLimits, BmcStats, StopReason};
use gqed_core::{
    build_model, model_fingerprint, CheckKind, CheckSession, CheckStatus, ModelCache, ModelKey,
    Verdict,
};
use gqed_ha::{all_designs, Design};
use gqed_ir::Model;
use gqed_pdr::{prove_pdr_limited, PdrOptions, PdrStats, PdrVerdict};
use gqed_sat::{luby, SolveOutcome, Solver};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Campaign-wide configuration.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Worker threads draining the obligation queue.
    pub jobs: usize,
    /// Base per-attempt wall-clock deadline in milliseconds; scaled by
    /// `luby(attempt)` on retries. `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Base per-attempt conflict budget (per solver query); scaled by
    /// `luby(attempt)` on retries. `None` = unlimited.
    pub base_budget: Option<u64>,
    /// Attempts before an obligation is recorded as timeout-escalated.
    pub max_attempts: u32,
    /// Proof engines raced on clean-design proof obligations (see
    /// [`crate::portfolio`]). `[EngineId::Bmc]` alone selects the plain
    /// deterministic session path with no racing (fully deterministic
    /// certificates, used by the table generators); an empty list is
    /// treated the same way.
    pub engines: Vec<EngineId>,
    /// Warm-start pipeline: share synthesized models across a design's
    /// obligations through a [`ModelCache`], and keep the live
    /// [`CheckSession`] of a budget/deadline-stopped obligation so its
    /// retry resumes at the stopped frame instead of re-synthesizing,
    /// re-bitblasting and re-solving from frame 0. Off = every attempt
    /// pays the full encoding cost (the cold baseline the bench
    /// compares against).
    pub warm_start: bool,
    /// Clause-arena byte budget per solver. When the learnt-clause arena
    /// exceeds it the solver first sheds learnt clauses; if still over,
    /// the attempt stops with [`StopReason::MemoryLimit`] and retries
    /// cold at the base budget. `None` = unlimited.
    pub mem_limit: Option<usize>,
    /// Cooperative shutdown flag. When raised, in-flight solvers stop at
    /// their next poll, affected obligations finish as `cancelled`, and
    /// queued obligations drain without running. The CLI raises it from
    /// SIGINT/SIGTERM.
    pub interrupt: Option<Arc<AtomicBool>>,
    /// SAT-core inprocessing (subsumption, bounded variable elimination,
    /// vivification) on every session solver. On by default; a pure
    /// performance knob — verdicts never depend on it — exposed so the
    /// bench can run matched on/off campaigns.
    pub inprocessing: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            jobs: 1,
            deadline_ms: None,
            base_budget: None,
            max_attempts: 4,
            engines: default_portfolio(),
            warm_start: true,
            mem_limit: None,
            interrupt: None,
            inprocessing: true,
        }
    }
}

/// Builder-style setters so every caller — CLI, bench, service, tests —
/// derives its configuration from the same [`Default`] instead of
/// assembling the struct field by field (which let a new field silently
/// default differently per caller).
impl CampaignConfig {
    /// Sets the worker-thread count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the base per-attempt wall-clock deadline in milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the base per-attempt conflict budget.
    pub fn with_base_budget(mut self, budget: u64) -> Self {
        self.base_budget = Some(budget);
        self
    }

    /// Sets the escalation-attempt limit.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Sets the proof-engine portfolio.
    pub fn with_engines(mut self, engines: Vec<EngineId>) -> Self {
        self.engines = engines;
        self
    }

    /// Enables or disables the warm-start pipeline.
    pub fn with_warm_start(mut self, warm: bool) -> Self {
        self.warm_start = warm;
        self
    }

    /// Sets the clause-arena byte budget per solver.
    pub fn with_mem_limit(mut self, bytes: usize) -> Self {
        self.mem_limit = Some(bytes);
        self
    }

    /// Wires a cooperative shutdown flag.
    pub fn with_interrupt(mut self, flag: Arc<AtomicBool>) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// Enables or disables SAT-core inprocessing on session solvers.
    pub fn with_inprocessing(mut self, on: bool) -> Self {
        self.inprocessing = on;
        self
    }
}

/// Final verdict of one obligation.
#[derive(Clone, Debug, PartialEq)]
pub enum JobVerdict {
    /// A property violation was found (replay-confirmed).
    Violation {
        /// Violated property name.
        property: String,
        /// Counterexample length in cycles.
        cycles: usize,
    },
    /// No violation up to the bound (inclusive).
    Clean {
        /// The bound that was exhausted.
        bound: u32,
    },
    /// Proven unreachable at every depth by k-induction.
    Proven {
        /// Deepest induction depth used across the properties.
        k: u32,
    },
    /// k-induction gave up without the BMC side being able to certify a
    /// bound either (only possible when limits stopped the BMC side).
    Unknown {
        /// The exhausted induction depth limit.
        max_k: u32,
    },
    /// Every attempt timed out, budgets exhausted through the Luby
    /// escalation schedule.
    TimeoutEscalated {
        /// Attempts made.
        attempts: u32,
    },
    /// The job panicked (isolated by `catch_unwind`).
    Failed {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The campaign was interrupted (SIGINT/SIGTERM or an explicit
    /// [`CampaignConfig::interrupt`]) before this obligation settled. A
    /// resumed campaign re-runs it.
    Cancelled,
    /// The obligation crashed its worker process (abort, signal, or
    /// heartbeat loss) on every dispatch up to the fleet's crash budget
    /// and was quarantined instead of taking the campaign down. Like
    /// `Cancelled`, a resumed campaign re-runs it, and the verdict store
    /// refuses it — "faults delay, never flip" extends to process death.
    Poisoned {
        /// Worker crashes attributed to this obligation.
        crashes: u32,
    },
}

impl JobVerdict {
    /// Whether this is a confirmed violation.
    pub fn is_violation(&self) -> bool {
        matches!(self, JobVerdict::Violation { .. })
    }

    /// Whether a definite verdict was reached (violation, bounded-clean
    /// or proven).
    pub fn is_conclusive(&self) -> bool {
        matches!(
            self,
            JobVerdict::Violation { .. } | JobVerdict::Clean { .. } | JobVerdict::Proven { .. }
        )
    }

    /// Stable telemetry tag.
    pub fn tag(&self) -> &'static str {
        match self {
            JobVerdict::Violation { .. } => "violation",
            JobVerdict::Clean { .. } => "clean",
            JobVerdict::Proven { .. } => "proven",
            JobVerdict::Unknown { .. } => "unknown",
            JobVerdict::TimeoutEscalated { .. } => "timeout-escalated",
            JobVerdict::Failed { .. } => "failed",
            JobVerdict::Cancelled => "cancelled",
            JobVerdict::Poisoned { .. } => "poisoned",
        }
    }

    /// A normalized comparison key, stable across scheduling orders. The
    /// soundness-relevant content (violation or not, which property, how
    /// many cycles) is deterministic; *which* engine certified a pass
    /// (bounded-clean vs proven) is a latency race on proof obligations,
    /// so passes normalize to one key.
    pub fn normalized(&self) -> String {
        match self {
            JobVerdict::Violation { property, cycles } => {
                format!("violation:{property}:{cycles}")
            }
            JobVerdict::Clean { .. } | JobVerdict::Proven { .. } => "pass".to_string(),
            JobVerdict::Unknown { .. } => "unknown".to_string(),
            JobVerdict::TimeoutEscalated { .. } => "timeout".to_string(),
            JobVerdict::Failed { .. } => "failed".to_string(),
            JobVerdict::Cancelled => "cancelled".to_string(),
            JobVerdict::Poisoned { .. } => "poisoned".to_string(),
        }
    }
}

/// One obligation's complete campaign record.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// The obligation.
    pub obligation: Obligation,
    /// Final verdict.
    pub verdict: JobVerdict,
    /// Attempts made (1 = no retries).
    pub attempts: u32,
    /// Total wall-clock across all attempts.
    pub wall: Duration,
    /// Which engine produced the verdict: `bmc`, `kind`, `pdr`, or `-`.
    pub engine: &'static str,
    /// BMC engine statistics of the deciding run, when available. CNF
    /// sizes are cumulative over the incremental unrolling, so
    /// `cnf_clauses`/`cnf_vars` are the peak encoding size.
    pub stats: Option<BmcStats>,
    /// Aggregate PDR statistics across the obligation's properties, when
    /// the portfolio fielded the PDR engine on this obligation.
    pub pdr_stats: Option<PdrStats>,
    /// Total per-frame BMC queries solved across *all* attempts of this
    /// obligation. Cold restarts re-solve every frame from zero on each
    /// retry; warm resumes do not — this is the deterministic metric the
    /// bench regression gate compares.
    pub frames_solved: u64,
    /// Whether a conclusive verdict contradicts the catalogue ground
    /// truth.
    pub mismatch: bool,
    /// Whether the verdict was served from the content-addressed verdict
    /// store instead of a solver (reported as `cache_hit` in telemetry).
    pub cached: bool,
}

/// Aggregated campaign outcome.
#[derive(Clone, Debug)]
pub struct CampaignSummary {
    /// Per-obligation records, in obligation order.
    pub records: Vec<JobRecord>,
    /// Wall-clock of the whole campaign.
    pub wall: Duration,
    /// Worker threads used.
    pub jobs: usize,
    /// Confirmed violations.
    pub violations: usize,
    /// Conclusive non-violations (bounded-clean or proven).
    pub passes: usize,
    /// Inconclusive k-induction outcomes.
    pub unknowns: usize,
    /// Obligations that exhausted every escalation attempt.
    pub timeouts: usize,
    /// Panicked obligations.
    pub failures: usize,
    /// Obligations cancelled by an interrupt before settling.
    pub cancelled: usize,
    /// Obligations quarantined after exhausting the fleet's per-job
    /// crash budget. Zero outside fleet mode.
    pub poisoned: usize,
    /// Worker-process deaths observed by the fleet supervisor (exit,
    /// signal, or heartbeat loss). Zero outside fleet mode.
    pub worker_crashes: u64,
    /// Crashed worker processes respawned (after capped exponential
    /// backoff). Zero outside fleet mode.
    pub worker_restarts: u64,
    /// In-flight obligations re-dispatched after their worker died.
    /// Zero outside fleet mode.
    pub requeued: u64,
    /// Obligations whose verdict was replayed from a resume journal
    /// instead of being re-run.
    pub replayed: usize,
    /// Conclusive verdicts contradicting the catalogue ground truth.
    pub mismatches: usize,
    /// Obligations answered from the content-addressed verdict store
    /// without running a solver.
    pub cache_hits: u64,
    /// Obligations that probed the verdict store and missed (and were
    /// then solved normally). Zero when no store was attached.
    pub cache_misses: u64,
    /// Model-cache lookups answered without re-synthesizing (counted for
    /// this campaign only, even when the model cache is shared across
    /// batches by the service).
    pub encoding_cache_hits: u64,
    /// Model-cache lookups that built the model.
    pub encoding_cache_misses: u64,
    /// Attempts that resumed a kept session instead of starting cold.
    pub session_resumes: u64,
    /// Total per-frame BMC queries solved across all obligations and
    /// attempts (see [`JobRecord::frames_solved`]).
    pub frames_solved: u64,
    /// Verdicts won by the bounded BMC engine.
    pub wins_bmc: usize,
    /// Verdicts won by the k-induction engine.
    pub wins_kind: usize,
    /// Verdicts won by the IC3/PDR engine.
    pub wins_pdr: usize,
}

impl CampaignSummary {
    /// Whether every obligation reached a conclusive verdict agreeing
    /// with the catalogue.
    pub fn is_success(&self) -> bool {
        self.failures == 0
            && self.timeouts == 0
            && self.mismatches == 0
            && self.cancelled == 0
            && self.poisoned == 0
    }

    /// Process exit code for the CLI: 0 on success, 130 when the
    /// campaign was interrupted (the conventional SIGINT code), 1
    /// otherwise.
    pub fn exit_code(&self) -> i32 {
        if self.cancelled > 0 {
            130
        } else {
            i32::from(!self.is_success())
        }
    }

    /// A scheduling-independent rendering of the campaign outcome: one
    /// line per obligation (in obligation order) with its normalized
    /// verdict. A resumed campaign's merged summary renders
    /// byte-identically to an uninterrupted run's — the crash-recovery
    /// test and the CI kill-and-resume smoke job diff exactly this.
    ///
    /// The winning engine is deliberately absent: which portfolio member
    /// certifies a pass is a latency race (an interrupted-and-resumed run
    /// may crown a different winner than an uninterrupted one), so engine
    /// attribution lives in the summary's `wins_*` counters, the CLI
    /// footer and telemetry — never in the byte-compared render.
    pub fn normalized_render(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.obligation.id);
            out.push(' ');
            out.push_str(r.obligation.flow_tag());
            out.push(' ');
            out.push_str(&r.verdict.normalized());
            if r.mismatch {
                out.push_str(" MISMATCH");
            }
            out.push('\n');
        }
        out
    }
}

/// Result of one attempt at one obligation: the verdict, the BMC side's
/// solver statistics (when a BMC session ran), the winning engine's name
/// ("bmc", "kind", "pdr", or "-"), and the PDR side's statistics (when a
/// PDR side ran, regardless of which engine won).
enum AttemptResult {
    Verdict(
        JobVerdict,
        Option<Box<BmcStats>>,
        &'static str,
        Option<Box<PdrStats>>,
    ),
    Stopped(StopReason),
}

pub(crate) struct QueueState {
    pub(crate) pending: VecDeque<(usize, u32)>, // (obligation index, attempt number)
    pub(crate) active: usize,
}

pub(crate) struct Shared<'a> {
    pub(crate) obligations: &'a [Obligation],
    pub(crate) config: &'a CampaignConfig,
    pub(crate) telemetry: &'a Telemetry,
    pub(crate) queue: Mutex<QueueState>,
    pub(crate) cv: Condvar,
    pub(crate) results: Mutex<Vec<Option<JobRecord>>>,
    pub(crate) wall_acc: Mutex<Vec<Duration>>,
    /// Per-obligation frames-solved accumulator across attempts.
    pub(crate) frames_acc: Mutex<Vec<u64>>,
    /// Synthesized models shared across obligations (warm-start mode) —
    /// and across batches, when the service supplies a persistent cache.
    pub(crate) cache: Arc<ModelCache>,
    /// Content-addressed verdict store, when one is attached.
    pub(crate) store: Option<&'a VerdictStore>,
    /// Per-obligation store key, computed by the first attempt's probe
    /// and consumed when the settled verdict is published to the store.
    pub(crate) store_keys: Mutex<Vec<Option<StoreKey>>>,
    /// Obligations answered from the verdict store this campaign.
    pub(crate) cache_hits: AtomicU64,
    /// Obligations that probed the store and missed this campaign.
    pub(crate) cache_misses: AtomicU64,
    /// Live sessions of stopped obligations, keyed by obligation index,
    /// kept across retries so an escalated attempt resumes mid-unrolling.
    pub(crate) sessions: Mutex<HashMap<usize, CheckSession>>,
    /// Attempts that resumed a kept session.
    pub(crate) session_resumes: AtomicU64,
    /// Write-ahead journal, when the campaign is journaled.
    pub(crate) journal: Option<&'a Journal>,
    /// Journal appends that reported an error (faults are tolerated —
    /// they cost a re-run on resume, never a verdict).
    pub(crate) journal_faults: AtomicU64,
    /// Cooperative shutdown flag (always present; shared with
    /// [`CampaignConfig::interrupt`] when the caller supplied one).
    pub(crate) cancel: Arc<AtomicBool>,
    /// Obligations degraded to cold base-budget retries after a
    /// [`StopReason::MemoryLimit`] stop.
    pub(crate) mem_degraded: Mutex<Vec<bool>>,
    /// Per-obligation worker-crash counts (fleet mode): the quarantine
    /// budget compares against this.
    pub(crate) crash_counts: Mutex<Vec<u32>>,
    /// Worker-process deaths observed by the fleet supervisor.
    pub(crate) worker_crashes: AtomicU64,
    /// Crashed worker processes respawned after backoff.
    pub(crate) worker_restarts: AtomicU64,
    /// In-flight obligations re-dispatched after a worker death.
    pub(crate) requeued: AtomicU64,
}

impl Shared<'_> {
    /// Appends a journal record; errors are counted and reported but
    /// never abort the campaign.
    pub(crate) fn journal_append(&self, record: &JsonValue, sync: bool) {
        if let Some(j) = self.journal {
            if let Err(e) = j.append(record, sync) {
                self.journal_faults.fetch_add(1, Ordering::Relaxed);
                eprintln!("journal write failed: {e}");
            }
        }
    }
}

/// The single campaign entry point, builder style.
///
/// Every way of running a campaign — one-shot CLI, bench, the serve
/// loop, journaled resumption, store-backed re-verification — drives the
/// same path:
///
/// ```no_run
/// # use gqed_campaign::{Campaign, CampaignConfig, Telemetry, enumerate_obligations, FlowFilter};
/// let obligations = enumerate_obligations(FlowFilter::all(), &[]);
/// let summary = Campaign::new(&obligations)
///     .config(CampaignConfig::default().with_jobs(4))
///     .run(&Telemetry::null());
/// # let _ = summary;
/// ```
///
/// Optional attachments: [`Campaign::journal`] for crash-safe verdict
/// journaling, [`Campaign::resume`] to replay a prior journal,
/// [`Campaign::verdict_store`] for content-addressed verdict caching,
/// and [`Campaign::model_cache`] to share synthesized models across
/// campaigns (the serve loop keeps one cache for its whole lifetime).
///
/// Every obligation ends in exactly one `job_verdict` telemetry event; a
/// `campaign_summary` event closes the stream.
pub struct Campaign<'a> {
    obligations: &'a [Obligation],
    config: CampaignConfig,
    journal: Option<&'a Journal>,
    resume: Option<&'a ResumeState>,
    store: Option<&'a VerdictStore>,
    model_cache: Option<Arc<ModelCache>>,
    fleet: Option<crate::fleet::FleetConfig>,
}

impl<'a> Campaign<'a> {
    /// A campaign over `obligations` with the default configuration.
    pub fn new(obligations: &'a [Obligation]) -> Campaign<'a> {
        Campaign {
            obligations,
            config: CampaignConfig::default(),
            journal: None,
            resume: None,
            store: None,
            model_cache: None,
            fleet: None,
        }
    }

    /// Sets the campaign configuration.
    pub fn config(mut self, config: CampaignConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a crash-safe write-ahead journal: every escalation
    /// attempt and verdict is appended as a framed record (verdicts
    /// fsync'd).
    pub fn journal(mut self, journal: &'a Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Attaches a resume state (replayed from a previous run's journal by
    /// [`Journal::resume`]): obligations that already reached a settled
    /// verdict are *replayed* — their records enter the summary directly
    /// (a `job_replayed` telemetry event each) and only the rest re-run.
    /// The merged summary's [`CampaignSummary::normalized_render`] is
    /// byte-identical to an uninterrupted run's.
    pub fn resume(mut self, state: &'a ResumeState) -> Self {
        self.resume = Some(state);
        self
    }

    /// Attaches a content-addressed verdict store: each obligation's
    /// first attempt probes the store and a hit is served without running
    /// a solver (a `job_cached` telemetry event, `cache_hit: true` on the
    /// verdict event, and the summary's `cache_hits` counter); settled
    /// conclusive verdicts of misses are published back to the store.
    pub fn verdict_store(mut self, store: &'a VerdictStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Shares a synthesized-model cache with other campaigns (the serve
    /// loop passes one cache to every batch, so repeat traffic skips
    /// wrapper synthesis entirely). Without this, each run uses a private
    /// cache. The summary's encoding-cache counters always report this
    /// campaign's lookups only.
    pub fn model_cache(mut self, cache: Arc<ModelCache>) -> Self {
        self.model_cache = Some(cache);
        self
    }

    /// Runs the campaign on a supervised fleet of worker *processes*
    /// instead of in-process threads: each supervisor slot dispatches
    /// obligations to a `gqed worker` child over stdin/stdout, restarts
    /// crashed children and requeues their in-flight obligations, and
    /// quarantines an obligation as [`JobVerdict::Poisoned`] once it
    /// exhausts the fleet's per-job crash budget. The normalized summary
    /// is byte-identical to the in-process runner's at any worker count,
    /// including under injected worker kills.
    pub fn fleet(mut self, fleet: crate::fleet::FleetConfig) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Runs every obligation to a final verdict and returns the
    /// aggregate.
    pub fn run(&self, telemetry: &Telemetry) -> CampaignSummary {
        run_campaign_inner(
            self.obligations,
            &self.config,
            telemetry,
            self.journal,
            self.resume,
            self.store,
            self.model_cache.clone(),
            self.fleet.as_ref(),
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn run_campaign_inner(
    obligations: &[Obligation],
    config: &CampaignConfig,
    telemetry: &Telemetry,
    journal: Option<&Journal>,
    resume: Option<&ResumeState>,
    store: Option<&VerdictStore>,
    model_cache: Option<Arc<ModelCache>>,
    fleet: Option<&crate::fleet::FleetConfig>,
) -> CampaignSummary {
    let t0 = Instant::now();
    let n = obligations.len();

    // Replay settled verdicts from the resume state; queue the rest.
    let mut results: Vec<Option<JobRecord>> = vec![None; n];
    let mut pending: VecDeque<(usize, u32)> = VecDeque::new();
    let mut replayed = 0usize;
    for (i, obl) in obligations.iter().enumerate() {
        let prior = resume.and_then(|s| s.completed.get(&obl.id));
        match prior {
            Some(rr) => {
                let mismatch = match (obl.expect_violation, rr.verdict.is_conclusive()) {
                    (Some(expected), true) => rr.verdict.is_violation() != expected,
                    _ => false,
                };
                telemetry.emit(
                    &JsonValue::obj()
                        .field("type", "job_replayed")
                        .field("job", obl.id.as_str())
                        .field("verdict", rr.verdict.tag())
                        .field("attempts", rr.attempts)
                        .field("source", "journal"),
                );
                results[i] = Some(JobRecord {
                    obligation: obl.clone(),
                    verdict: rr.verdict.clone(),
                    attempts: rr.attempts,
                    wall: Duration::from_millis(rr.wall_ms),
                    engine: rr.engine,
                    stats: None,
                    pdr_stats: None,
                    frames_solved: rr.frames_solved,
                    mismatch,
                    cached: false,
                });
                replayed += 1;
            }
            None => pending.push_back((i, 1)),
        }
    }

    let cache = model_cache.unwrap_or_else(|| Arc::new(ModelCache::new()));
    // The model cache may be shared across batches by the service; the
    // summary reports this campaign's lookups only.
    let (encoding_hits_before, encoding_misses_before) = (cache.hits(), cache.misses());
    let shared = Shared {
        obligations,
        config,
        telemetry,
        queue: Mutex::new(QueueState { pending, active: 0 }),
        cv: Condvar::new(),
        results: Mutex::new(results),
        wall_acc: Mutex::new(vec![Duration::ZERO; n]),
        frames_acc: Mutex::new(vec![0; n]),
        cache,
        store,
        store_keys: Mutex::new(vec![None; n]),
        cache_hits: AtomicU64::new(0),
        cache_misses: AtomicU64::new(0),
        sessions: Mutex::new(HashMap::new()),
        session_resumes: AtomicU64::new(0),
        journal,
        journal_faults: AtomicU64::new(0),
        cancel: config
            .interrupt
            .clone()
            .unwrap_or_else(|| Arc::new(AtomicBool::new(false))),
        mem_degraded: Mutex::new(vec![false; n]),
        crash_counts: Mutex::new(vec![0; n]),
        worker_crashes: AtomicU64::new(0),
        worker_restarts: AtomicU64::new(0),
        requeued: AtomicU64::new(0),
    };
    if journal.is_some() {
        let record = match resume {
            None => JsonValue::obj()
                .field("type", "campaign_start")
                .field("version", 1u32)
                .field("obligations", n)
                .field("manifest_crc", crate::journal::manifest_crc(obligations)),
            Some(_) => JsonValue::obj()
                .field("type", "campaign_resume")
                .field("skipped", replayed),
        };
        shared.journal_append(&record, true);
    }
    let workers = match fleet {
        Some(f) => f.workers.max(1).min(n.max(1)),
        None => config.jobs.max(1).min(n.max(1)),
    };
    let shared_ref = &shared;
    std::thread::scope(|s| match fleet {
        Some(f) => {
            for slot in 0..workers {
                s.spawn(move || crate::fleet::fleet_worker(shared_ref, f, slot));
            }
        }
        None => {
            for _ in 0..workers {
                s.spawn(move || worker(shared_ref));
            }
        }
    });
    let records: Vec<JobRecord> = shared
        .results
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|r| r.expect("every obligation ends in a verdict"))
        .collect();

    let mut summary = CampaignSummary {
        wall: t0.elapsed(),
        jobs: workers,
        violations: 0,
        passes: 0,
        unknowns: 0,
        timeouts: 0,
        failures: 0,
        cancelled: 0,
        poisoned: 0,
        worker_crashes: shared.worker_crashes.load(Ordering::Relaxed),
        worker_restarts: shared.worker_restarts.load(Ordering::Relaxed),
        requeued: shared.requeued.load(Ordering::Relaxed),
        replayed,
        mismatches: 0,
        cache_hits: shared.cache_hits.load(Ordering::Relaxed),
        cache_misses: shared.cache_misses.load(Ordering::Relaxed),
        encoding_cache_hits: shared.cache.hits() - encoding_hits_before,
        encoding_cache_misses: shared.cache.misses() - encoding_misses_before,
        session_resumes: shared.session_resumes.load(Ordering::Relaxed),
        frames_solved: records.iter().map(|r| r.frames_solved).sum(),
        wins_bmc: 0,
        wins_kind: 0,
        wins_pdr: 0,
        records: Vec::new(),
    };
    for r in &records {
        match r.engine {
            "bmc" => summary.wins_bmc += 1,
            "kind" => summary.wins_kind += 1,
            "pdr" => summary.wins_pdr += 1,
            _ => {}
        }
        match &r.verdict {
            JobVerdict::Violation { .. } => summary.violations += 1,
            JobVerdict::Clean { .. } | JobVerdict::Proven { .. } => summary.passes += 1,
            JobVerdict::Unknown { .. } => summary.unknowns += 1,
            JobVerdict::TimeoutEscalated { .. } => summary.timeouts += 1,
            JobVerdict::Failed { .. } => summary.failures += 1,
            JobVerdict::Cancelled => summary.cancelled += 1,
            JobVerdict::Poisoned { .. } => summary.poisoned += 1,
        }
        if r.mismatch {
            summary.mismatches += 1;
        }
    }
    summary.records = records;
    telemetry.emit(
        &JsonValue::obj()
            .field("type", "campaign_summary")
            .field("obligations", summary.records.len())
            .field("violations", summary.violations)
            .field("passes", summary.passes)
            .field("unknowns", summary.unknowns)
            .field("timeouts", summary.timeouts)
            .field("failures", summary.failures)
            .field("cancelled", summary.cancelled)
            .field("poisoned", summary.poisoned)
            .field("worker_crashes", summary.worker_crashes)
            .field("worker_restarts", summary.worker_restarts)
            .field("requeued", summary.requeued)
            .field("replayed", summary.replayed)
            .field("mismatches", summary.mismatches)
            .field("cache_hits", summary.cache_hits)
            .field("cache_misses", summary.cache_misses)
            .field("jobs", summary.jobs)
            .field("wall_ms", summary.wall.as_millis() as u64)
            .field("encoding_cache_hits", summary.encoding_cache_hits)
            .field("encoding_cache_misses", summary.encoding_cache_misses)
            .field("session_resumes", summary.session_resumes)
            .field("frames_solved", summary.frames_solved)
            .field("wins_bmc", summary.wins_bmc)
            .field("wins_kind", summary.wins_kind)
            .field("wins_pdr", summary.wins_pdr)
            .field(
                "journal_faults",
                shared.journal_faults.load(Ordering::Relaxed),
            ),
    );
    telemetry.flush();
    telemetry.sync();
    summary
}

fn worker(shared: &Shared) {
    while let Some((index, attempt)) = next_job(shared) {
        if preflight(shared, index, attempt) {
            job_done(shared, None);
            continue;
        }
        let requeue = solve_job(shared, index, attempt);
        job_done(shared, requeue);
    }
}

/// Pops the next attempt off the shared queue, or returns `None` when
/// the queue is drained AND no attempt is in flight (an in-flight
/// attempt may still re-enqueue its obligation for escalation). The
/// in-process worker pool and the fleet supervisor slots share this.
pub(crate) fn next_job(shared: &Shared) -> Option<(usize, u32)> {
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if let Some(job) = q.pending.pop_front() {
            q.active += 1;
            return Some(job);
        }
        if q.active == 0 {
            shared.cv.notify_all();
            return None;
        }
        q = shared.cv.wait(q).unwrap_or_else(|e| e.into_inner());
    }
}

/// Returns a popped job to the queue bookkeeping: requeues an escalation
/// attempt (if any) and releases the in-flight slot.
pub(crate) fn job_done(shared: &Shared, requeue: Option<(usize, u32)>) {
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(job) = requeue {
        q.pending.push_back(job);
    }
    q.active -= 1;
    shared.cv.notify_all();
}

/// Pre-solve checks shared by the in-process worker and the fleet
/// supervisor. Returns `true` when the obligation was settled without a
/// solve: the shutdown drain (queued obligations finish as cancelled
/// once the interrupt is raised, with a journal checkpoint so a resumed
/// campaign re-runs them) and the content-addressed store probe (the
/// first attempt probes before paying for a solve; the key needs the
/// built model's fingerprint, so synthesis still happens on a hit —
/// only solving is skipped).
pub(crate) fn preflight(shared: &Shared, index: usize, attempt: u32) -> bool {
    if shared.cancel.load(Ordering::Relaxed) {
        let total_wall = shared.wall_acc.lock().unwrap_or_else(|e| e.into_inner())[index];
        let total_frames = shared.frames_acc.lock().unwrap_or_else(|e| e.into_inner())[index];
        cancel_job(shared, index, attempt - 1, total_wall, total_frames, None);
        return true;
    }
    if attempt == 1 && store_probe(shared, index) {
        return true;
    }
    false
}

/// Runs one in-process attempt of one obligation to completion: limits
/// derivation, warm-session resume, the solve itself (panic-isolated),
/// and verdict/retry bookkeeping. Returns the escalation job to requeue
/// when the attempt stopped without settling, `None` otherwise.
pub(crate) fn solve_job(shared: &Shared, index: usize, attempt: u32) -> Option<(usize, u32)> {
    let obl = &shared.obligations[index];
    // Memory-degraded obligations retry cold at the base budget: the
    // Luby schedule would grow the clause arena straight back into
    // the wall it just hit.
    let degraded = shared
        .mem_degraded
        .lock()
        .unwrap_or_else(|e| e.into_inner())[index];
    let factor = if degraded {
        1
    } else {
        luby(u64::from(attempt))
    };
    let budget = shared.config.base_budget.map(|b| b.saturating_mul(factor));
    let deadline_ms = shared
        .config
        .deadline_ms
        .map(|ms| ms.saturating_mul(factor));
    let limits = BmcLimits {
        budget,
        deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        interrupt: Some(Arc::clone(&shared.cancel)),
        mem_limit: shared.config.mem_limit,
    };

    // Warm start: pull the kept session of a previously stopped
    // attempt (resumes mid-unrolling), and record what this attempt
    // reuses before it runs.
    let warm = shared.config.warm_start;
    let mut session_slot: Option<CheckSession> = if warm {
        shared
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&index)
    } else {
        None
    };
    let resumed_from_frame = session_slot.as_ref().map(|s| s.resume_frame());
    if resumed_from_frame.is_some() {
        shared.session_resumes.fetch_add(1, Ordering::Relaxed);
    }
    let encoding_reused = session_slot.is_some()
        || (warm && model_key(obl).is_some_and(|k| shared.cache.contains(&k)));

    shared.telemetry.emit(
        &JsonValue::obj()
            .field("type", "job_start")
            .field("job", obl.id.as_str())
            .field("design", obl.design)
            .field("bug", obl.bug)
            .field("flow", obl.flow_tag())
            .field("attempt", attempt)
            .field("budget", budget)
            .field("deadline_ms", deadline_ms)
            .field("resumed_from_frame", resumed_from_frame)
            .field("encoding_reused", encoding_reused),
    );

    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_attempt(
            obl,
            &limits,
            shared.config,
            &shared.cache,
            &mut session_slot,
        )
    }));
    let attempt_wall = t0.elapsed();
    let total_wall = {
        let mut acc = shared.wall_acc.lock().unwrap_or_else(|e| e.into_inner());
        acc[index] += attempt_wall;
        acc[index]
    };
    let add_frames = |frames: u64| {
        let mut acc = shared.frames_acc.lock().unwrap_or_else(|e| e.into_inner());
        acc[index] += frames;
        acc[index]
    };

    let mut requeue = false;
    match outcome {
        Ok((AttemptResult::Verdict(verdict, stats, engine, pdr_stats), frames)) => {
            let stats = stats.map(|b| *b);
            let pdr_stats = pdr_stats.map(|b| *b);
            let total_frames = add_frames(frames);
            if shared.cancel.load(Ordering::Relaxed)
                && matches!(verdict, JobVerdict::Unknown { .. })
            {
                // An Unknown reached during shutdown is an artifact of
                // the interrupt (the BMC side was cut short), not a
                // genuine exhaustion — record it as cancelled so the
                // resumed campaign re-runs it to the same verdict an
                // uninterrupted run would reach.
                let frame = session_slot.as_ref().map(|s| s.resume_frame());
                cancel_job(shared, index, attempt, total_wall, total_frames, frame);
            } else {
                finish(
                    shared,
                    index,
                    verdict,
                    attempt,
                    total_wall,
                    engine,
                    stats,
                    pdr_stats,
                    total_frames,
                    false,
                );
            }
        }
        Ok((AttemptResult::Stopped(reason), frames)) => {
            let total_frames = add_frames(frames);
            if shared.cancel.load(Ordering::Relaxed) {
                let frame = session_slot.as_ref().map(|s| s.resume_frame());
                cancel_job(shared, index, attempt, total_wall, total_frames, frame);
            } else if attempt < shared.config.max_attempts {
                let memory_stopped = reason == StopReason::MemoryLimit;
                if memory_stopped {
                    // Shed the session (its learnt clauses are the
                    // memory) and pin future attempts to the base
                    // budget.
                    session_slot = None;
                    shared
                        .mem_degraded
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())[index] = true;
                }
                let next_factor = if memory_stopped || degraded {
                    1
                } else {
                    luby(u64::from(attempt + 1))
                };
                shared.journal_append(
                    &JsonValue::obj()
                        .field("type", "attempt")
                        .field("job", obl.id.as_str())
                        .field("attempt", attempt)
                        .field("reason", stop_tag(reason)),
                    false,
                );
                shared.telemetry.emit(
                    &JsonValue::obj()
                        .field("type", "job_retry")
                        .field("job", obl.id.as_str())
                        .field("attempt", attempt)
                        .field("reason", stop_tag(reason))
                        .field(
                            "next_budget",
                            shared
                                .config
                                .base_budget
                                .map(|b| b.saturating_mul(next_factor)),
                        )
                        .field(
                            "next_deadline_ms",
                            shared
                                .config
                                .deadline_ms
                                .map(|ms| ms.saturating_mul(next_factor)),
                        ),
                );
                // Keep the live session: the retry resumes at the
                // stopped frame with all learnt clauses intact.
                if warm {
                    if let Some(s) = session_slot.take() {
                        shared
                            .sessions
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .insert(index, s);
                    }
                }
                requeue = true;
            } else {
                finish(
                    shared,
                    index,
                    JobVerdict::TimeoutEscalated { attempts: attempt },
                    attempt,
                    total_wall,
                    "-",
                    None,
                    None,
                    total_frames,
                    false,
                );
            }
        }
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            let total_frames = add_frames(0);
            finish(
                shared,
                index,
                JobVerdict::Failed { message },
                attempt,
                total_wall,
                "-",
                None,
                None,
                total_frames,
                false,
            );
        }
    }

    if requeue {
        Some((index, attempt + 1))
    } else {
        None
    }
}

/// Finishes an obligation as [`JobVerdict::Cancelled`] and writes a
/// journal *checkpoint* record (not a verdict — a resumed campaign must
/// re-run cancelled obligations, and [`ResumeState`] only skips settled
/// verdicts).
pub(crate) fn cancel_job(
    shared: &Shared,
    index: usize,
    attempts: u32,
    wall: Duration,
    frames: u64,
    frame: Option<u32>,
) {
    let obl = &shared.obligations[index];
    shared.journal_append(
        &JsonValue::obj()
            .field("type", "checkpoint")
            .field("job", obl.id.as_str())
            .field("frame", frame),
        false,
    );
    finish(
        shared,
        index,
        JobVerdict::Cancelled,
        attempts,
        wall,
        "-",
        None,
        None,
        frames,
        false,
    );
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<Box<String>>() {
        // `panic_any(Box::new(String))` and friends: the payload is the
        // box itself, so the plain `String` downcast above misses it.
        s.as_str().to_string()
    } else if let Some(s) = payload.downcast_ref::<Box<&str>>() {
        (**s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

fn stop_tag(reason: StopReason) -> &'static str {
    match reason {
        StopReason::BudgetExhausted => "budget-exhausted",
        StopReason::Interrupted => "interrupted",
        StopReason::DeadlineExpired => "deadline-expired",
        StopReason::MemoryLimit => "memory-limit",
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn finish(
    shared: &Shared,
    index: usize,
    verdict: JobVerdict,
    attempts: u32,
    wall: Duration,
    engine: &'static str,
    stats: Option<BmcStats>,
    pdr_stats: Option<PdrStats>,
    frames_solved: u64,
    cached: bool,
) {
    let obl = &shared.obligations[index];
    let mismatch = match (obl.expect_violation, verdict.is_conclusive()) {
        (Some(expected), true) => verdict.is_violation() != expected,
        _ => false,
    };
    let mut ev = JsonValue::obj()
        .field("type", "job_verdict")
        .field("job", obl.id.as_str())
        .field("verdict", verdict.tag())
        .field("attempts", attempts)
        .field("wall_ms", wall.as_millis() as u64)
        .field("proof_engine", engine)
        .field("mismatch", mismatch)
        .field("cache_hit", cached)
        .field("frames_solved", frames_solved);
    if let Some(m) = obl.mutation {
        ev = ev
            .field("mutant_seed", m.seed)
            .field("mutant_ordinal", m.ordinal)
            .field("mutant_class", m.class);
    }
    ev = crate::api::encode_verdict_fields(ev, &verdict);
    if let Some(s) = &stats {
        ev = ev
            .field("frames", s.frames)
            .field("aig_ands", s.aig_ands)
            .field("cnf_vars", s.cnf_vars)
            .field("peak_cnf_clauses", s.cnf_clauses)
            .field("conflicts", s.solver.conflicts)
            .field("decisions", s.solver.decisions)
            .field("propagations", s.solver.propagations)
            .field("restarts", s.solver.restarts)
            .field("simplify_rounds", s.solver.simplify_rounds)
            .field("eliminated_vars", s.solver.eliminated_vars)
            .field("restored_vars", s.solver.restored_vars)
            .field("subsumed_clauses", s.solver.subsumed_clauses)
            .field("strengthened_clauses", s.solver.strengthened_clauses)
            .field("vivified_clauses", s.solver.vivified_clauses)
            .field("bmc_wall_ms", s.wall.as_millis() as u64);
    }
    if let Some(p) = &pdr_stats {
        ev = ev
            .field("pdr_frames", p.frames)
            .field("pdr_ctis", p.ctis)
            .field("pdr_blocked_cubes", p.blocked_cubes)
            .field("pdr_generalize_drops", p.generalize_drops)
            .field("pdr_propagated", p.propagated)
            .field("pdr_queries", p.queries)
            .field("pdr_conflicts", p.solver.conflicts);
    }
    shared.telemetry.emit(&ev);

    // The journal's verdict record carries exactly the fields
    // `ResumeState` needs to rebuild the verdict on `--resume`; it is
    // fsync'd so an immediately following crash cannot lose it.
    let jrec = crate::api::encode_verdict_fields(
        JsonValue::obj()
            .field("type", "verdict")
            .field("job", obl.id.as_str())
            .field("verdict", verdict.tag())
            .field("attempts", attempts)
            .field("engine", engine)
            .field("frames_solved", frames_solved)
            .field("wall_ms", wall.as_millis() as u64)
            .field("mismatch", mismatch),
        &verdict,
    );
    shared.journal_append(&jrec, true);

    // Publish a freshly solved verdict to the verdict store (a cached one
    // came from there; re-putting it would be a no-op append). The store
    // itself refuses non-conclusive verdicts. Store faults are tolerated
    // exactly like journal faults: they cost a future re-solve, never a
    // verdict.
    if !cached {
        if let (Some(store), Some(key)) = (
            shared.store,
            shared.store_keys.lock().unwrap_or_else(|e| e.into_inner())[index],
        ) {
            let rr = ReplayedRecord {
                verdict: verdict.clone(),
                attempts,
                engine,
                frames_solved,
                wall_ms: wall.as_millis() as u64,
            };
            if let Err(e) = store.put(key, &rr) {
                eprintln!("verdict store write failed: {e}");
            }
        }
    }
    let record = JobRecord {
        obligation: obl.clone(),
        verdict,
        attempts,
        wall,
        engine,
        stats,
        pdr_stats,
        frames_solved,
        mismatch,
        cached,
    };
    shared.results.lock().unwrap_or_else(|e| e.into_inner())[index] = Some(record);
}

fn build_design(obl: &Obligation) -> Design {
    let entry = all_designs()
        .into_iter()
        .find(|e| e.name == obl.design)
        .unwrap_or_else(|| panic!("unknown design '{}'", obl.design));
    match obl.mutation {
        // Synthesized mutants are regenerated deterministically from
        // (design, seed, ordinal) — the obligation never carries the IR.
        Some(m) => gqed_ha::mutation::generate(&entry, m.seed, m.ordinal).design,
        None => (entry.build)(obl.bug),
    }
}

/// The flow whose model decides this obligation, when it has one (debug
/// obligations do not).
fn obligation_check_kind(obl: &Obligation) -> Option<CheckKind> {
    match &obl.kind {
        ObligationKind::Check { kind, .. } => Some(*kind),
        ObligationKind::ProveClean { .. } => Some(CheckKind::GQed),
        ObligationKind::DebugPanic | ObligationKind::DebugExhaust => None,
    }
}

/// The model-cache key for an obligation's design variant under `kind`:
/// catalogue bug id for hand-written bugs, `mut-s{seed}-{ordinal}` for
/// synthesized mutants (each mutant is its own variant — sharing the
/// clean model would solve the wrong design).
fn cache_model_key(obl: &Obligation, kind: CheckKind) -> ModelKey {
    match obl.mutation {
        Some(m) => {
            let variant = format!("mut-s{}-{}", m.seed, m.ordinal);
            ModelKey::new(obl.design, Some(&variant), kind)
        }
        None => ModelKey::new(obl.design, obl.bug, kind),
    }
}

/// The model-cache key of an obligation's deciding BMC model, when the
/// obligation has one (debug obligations do not).
fn model_key(obl: &Obligation) -> Option<ModelKey> {
    obligation_check_kind(obl).map(|kind| cache_model_key(obl, kind))
}

/// Probes the content-addressed verdict store for this obligation.
/// Returns `true` when the obligation was finished from a stored verdict
/// (no solver runs). On a miss, remembers the derived key so the settled
/// verdict is published to the store by [`finish`].
fn store_probe(shared: &Shared, index: usize) -> bool {
    let Some(store) = shared.store else {
        return false;
    };
    let obl = &shared.obligations[index];
    let Some(kind) = obligation_check_kind(obl) else {
        return false; // debug obligations have no model, hence no key
    };
    // Building a model panics on an unknown design; skip the probe and
    // let the normal attempt path hit the same panic, which the worker
    // isolates into a Failed verdict. Warm-start mode reads the
    // fingerprint memoised beside the cached model; cold mode renders
    // each fresh build, as its attempts do not share models either.
    let key = match catch_unwind(AssertUnwindSafe(|| {
        let fingerprint = if shared.config.warm_start {
            let key = cache_model_key(obl, kind);
            shared
                .cache
                .fingerprint(key, || build_model(&build_design(obl), kind))
        } else {
            model_fingerprint(&build_model(&build_design(obl), kind))
        };
        derive_key(fingerprint, obl, shared.config)
    })) {
        Ok(key) => key,
        Err(_) => return false,
    };
    shared.store_keys.lock().unwrap_or_else(|e| e.into_inner())[index] = Some(key);
    let Some(rr) = store.get(key) else {
        shared.cache_misses.fetch_add(1, Ordering::Relaxed);
        return false;
    };
    shared.cache_hits.fetch_add(1, Ordering::Relaxed);
    shared.telemetry.emit(
        &JsonValue::obj()
            .field("type", "job_cached")
            .field("job", obl.id.as_str())
            .field("key", key.hex())
            .field("verdict", rr.verdict.tag())
            .field("engine", rr.engine)
            .field("source", "verdict-store"),
    );
    finish(
        shared,
        index,
        rr.verdict,
        rr.attempts,
        Duration::from_millis(rr.wall_ms),
        rr.engine,
        None,
        None,
        rr.frames_solved,
        true,
    );
    true
}

/// The synthesized model for this obligation's flow: from the shared
/// cache in warm-start mode (built at most once per `(design, flow)`),
/// or built fresh on every attempt in cold mode.
fn resolve_model(
    obl: &Obligation,
    kind: CheckKind,
    config: &CampaignConfig,
    cache: &ModelCache,
) -> Arc<Model> {
    if config.warm_start {
        let key = cache_model_key(obl, kind);
        cache.get_or_build(key, || build_model(&build_design(obl), kind))
    } else {
        Arc::new(build_model(&build_design(obl), kind))
    }
}

/// Runs one attempt. Returns the result plus the number of per-frame BMC
/// queries this attempt solved (the warm-vs-cold work metric). The
/// session in `session_slot` — resumed by the worker or created here —
/// is left in the slot; the worker keeps it for the retry only when the
/// attempt stopped without a verdict.
fn run_attempt(
    obl: &Obligation,
    limits: &BmcLimits,
    config: &CampaignConfig,
    cache: &ModelCache,
    session_slot: &mut Option<CheckSession>,
) -> (AttemptResult, u64) {
    match &obl.kind {
        ObligationKind::Check { kind, bound } => {
            run_session_check(obl, *kind, *bound, limits, config, cache, session_slot)
        }
        ObligationKind::ProveClean { bound, max_k } => {
            if config.engines.iter().any(|e| *e != EngineId::Bmc) {
                let model = resolve_model(obl, CheckKind::GQed, config, cache);
                let session = session_slot.take().unwrap_or_else(|| {
                    let mut s = CheckSession::new(CheckKind::GQed, *bound, Arc::clone(&model));
                    s.set_inprocessing(config.inprocessing);
                    s
                });
                let before = session.frame_queries();
                let (result, session) =
                    portfolio_prove_clean(&model, session, *max_k, limits, &config.engines);
                let frames = session.frame_queries() - before;
                *session_slot = Some(session);
                (result, frames)
            } else {
                // `--engines bmc` (or an empty list): the deterministic
                // single-engine path, bounded BMC only.
                run_session_check(
                    obl,
                    CheckKind::GQed,
                    *bound,
                    limits,
                    config,
                    cache,
                    session_slot,
                )
            }
        }
        ObligationKind::DebugPanic => {
            panic!("injected campaign panic (obligation {})", obl.id)
        }
        ObligationKind::DebugExhaust => (run_debug_exhaust(limits), 0),
    }
}

/// Runs (or resumes) the session-backed bounded check for one flow.
#[allow(clippy::too_many_arguments)]
fn run_session_check(
    obl: &Obligation,
    kind: CheckKind,
    bound: u32,
    limits: &BmcLimits,
    config: &CampaignConfig,
    cache: &ModelCache,
    session_slot: &mut Option<CheckSession>,
) -> (AttemptResult, u64) {
    if session_slot.is_none() {
        let model = resolve_model(obl, kind, config, cache);
        let mut session = CheckSession::new(kind, bound, model);
        session.set_inprocessing(config.inprocessing);
        *session_slot = Some(session);
    }
    let session = session_slot.as_mut().expect("slot just filled");
    let before = session.frame_queries();
    let status = session.run(limits);
    let frames = session.frame_queries() - before;
    let result = match status {
        CheckStatus::Done(o) => {
            let verdict = match o.verdict {
                Verdict::Violation { property, cycles } => {
                    JobVerdict::Violation { property, cycles }
                }
                Verdict::CleanUpTo(b) => JobVerdict::Clean { bound: b },
            };
            AttemptResult::Verdict(verdict, Some(Box::new(o.stats)), "bmc", None)
        }
        CheckStatus::Stopped { reason, .. } => AttemptResult::Stopped(reason),
    };
    (result, frames)
}

/// Unwraps a joined side thread, propagating its panic to the caller
/// (the worker's `catch_unwind` turns it into a `Failed` verdict).
fn join_side<T>(r: std::thread::Result<T>) -> T {
    match r {
        Ok(v) => v,
        Err(p) => std::panic::resume_unwind(p),
    }
}

/// What an auxiliary (non-BMC) portfolio side concluded.
enum AuxSide {
    Violation { property: String, cycles: usize },
    Proven { k: u32 },
    Unknown { max_k: u32 },
    Stopped(StopReason),
}

/// First-proof-wins portfolio of engine sides over the clean design's
/// G-QED properties, selected by `engines`: bounded BMC (the caller's
/// possibly-resumed [`CheckSession`]), k-induction, and IC3/PDR. All
/// sides share one prebuilt [`Model`] — none re-runs wrapper synthesis —
/// and one cancellation flag wired through
/// [`gqed_sat::Solver::set_interrupt`].
///
/// Cancellation is asymmetric, per the portfolio contract: a side raises
/// the flag only on a verdict that *settles* the obligation — a
/// violation from any side, or a proof (`Proven`) from an auxiliary
/// side. A bounded `Clean` from the BMC side does NOT cancel: it is a
/// certificate only up to the bound, and a still-running prover may yet
/// upgrade it to `Proven`. An `Unknown` side simply drops out.
///
/// The merge is deterministic given the sides' outcomes (which are
/// themselves deterministic under the PDR query cap): violations first,
/// then proofs in the fixed order [kind, pdr], then the bounded
/// certificate, then stop reasons. The session is always handed back so
/// a stopped attempt's retry resumes mid-unrolling.
fn portfolio_prove_clean(
    model: &Arc<Model>,
    session: CheckSession,
    max_k: u32,
    limits: &BmcLimits,
    engines: &[EngineId],
) -> (AttemptResult, CheckSession) {
    let cancel = Arc::new(AtomicBool::new(false));
    let side_limits = BmcLimits {
        budget: limits.budget,
        deadline: limits.deadline,
        interrupt: Some(Arc::clone(&cancel)),
        mem_limit: limits.mem_limit,
    };
    let has = |e: EngineId| engines.contains(&e);

    let ((bmc_status, session), kind_out, pdr_out) = std::thread::scope(|s| {
        let bmc = if has(EngineId::Bmc) {
            let bmc_limits = side_limits.clone();
            let bmc_cancel = Arc::clone(&cancel);
            let mut session = session;
            Ok(s.spawn(move || {
                let r = session.run(&bmc_limits);
                // Only a violation settles the obligation; a bounded
                // Clean must wait for the provers.
                if matches!(&r, CheckStatus::Done(o)
                    if matches!(o.verdict, Verdict::Violation { .. }))
                {
                    bmc_cancel.store(true, Ordering::Relaxed);
                }
                (r, session)
            }))
        } else {
            Err(session)
        };
        let kind = has(EngineId::KInduction).then(|| {
            let kind_limits = side_limits.clone();
            let kind_cancel = Arc::clone(&cancel);
            s.spawn(move || {
                let r = run_kind_side(model, max_k, &kind_limits);
                if matches!(r, AuxSide::Violation { .. } | AuxSide::Proven { .. }) {
                    kind_cancel.store(true, Ordering::Relaxed);
                }
                r
            })
        });
        let pdr = has(EngineId::Pdr).then(|| {
            let pdr_limits = side_limits.clone();
            let pdr_cancel = Arc::clone(&cancel);
            s.spawn(move || {
                let r = run_pdr_side(model, &pdr_limits);
                if matches!(r.0, AuxSide::Violation { .. } | AuxSide::Proven { .. }) {
                    pdr_cancel.store(true, Ordering::Relaxed);
                }
                r
            })
        });
        // The portfolio replaces the caller's interrupt with its own
        // flag, so a campaign-wide shutdown must be forwarded in or the
        // sides would run to their budgets oblivious of it.
        let done = Arc::new(AtomicBool::new(false));
        if let Some(outer) = limits.interrupt.clone() {
            let fwd_cancel = Arc::clone(&cancel);
            let fwd_done = Arc::clone(&done);
            s.spawn(move || {
                while !fwd_done.load(Ordering::Relaxed) {
                    if outer.load(Ordering::Relaxed) {
                        fwd_cancel.store(true, Ordering::Relaxed);
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
        let bmc_out = match bmc {
            Ok(h) => {
                let (r, session) = join_side(h.join());
                (Some(r), session)
            }
            Err(session) => (None, session),
        };
        let kind_out = kind.map(|h| join_side(h.join()));
        let pdr_out = pdr.map(|h| join_side(h.join()));
        done.store(true, Ordering::Relaxed);
        (bmc_out, kind_out, pdr_out)
    });

    // Decompose the sides once, then merge by fixed priority.
    let (pdr_side, pdr_stats) = match pdr_out {
        Some((side, stats)) => (Some(side), Some(Box::new(stats))),
        None => (None, None),
    };
    let (bmc_verdict, bmc_stats, bmc_stop) = match bmc_status {
        Some(CheckStatus::Done(o)) => (Some(o.verdict), Some(Box::new(o.stats)), None),
        Some(CheckStatus::Stopped { reason, stats, .. }) => {
            (None, Some(Box::new(stats)), Some(reason))
        }
        None => (None, None, None),
    };
    let aux: [(&'static str, Option<&AuxSide>); 2] =
        [("kind", kind_out.as_ref()), ("pdr", pdr_side.as_ref())];

    // 1. A BMC violation is the shallowest counterexample (BMC searches
    //    frame by frame) — it outranks everything.
    if let Some(Verdict::Violation { property, cycles }) = bmc_verdict {
        let result = AttemptResult::Verdict(
            JobVerdict::Violation { property, cycles },
            bmc_stats,
            "bmc",
            pdr_stats,
        );
        return (result, session);
    }
    // 2. An auxiliary side's violation, in fixed side order.
    for (name, side) in aux {
        if let Some(AuxSide::Violation { property, cycles }) = side {
            let result = AttemptResult::Verdict(
                JobVerdict::Violation {
                    property: property.clone(),
                    cycles: *cycles,
                },
                bmc_stats,
                name,
                pdr_stats,
            );
            return (result, session);
        }
    }
    // 3. An unbounded proof outranks the bounded certificate.
    for (name, side) in aux {
        if let Some(AuxSide::Proven { k }) = side {
            let result =
                AttemptResult::Verdict(JobVerdict::Proven { k: *k }, bmc_stats, name, pdr_stats);
            return (result, session);
        }
    }
    // 4. The bounded certificate.
    if let Some(Verdict::CleanUpTo(b)) = bmc_verdict {
        let result =
            AttemptResult::Verdict(JobVerdict::Clean { bound: b }, bmc_stats, "bmc", pdr_stats);
        return (result, session);
    }
    // 5. No side concluded. A genuine resource stop (not the
    //    mutual-cancellation echo) means the attempt should escalate and
    //    retry; otherwise the strongest inconclusive outcome is an
    //    auxiliary Unknown — final only when the stop was the outer
    //    interrupt, which the worker detects and converts to Cancelled.
    let stops = bmc_stop
        .into_iter()
        .chain(aux.iter().filter_map(|(_, side)| match side {
            Some(AuxSide::Stopped(r)) => Some(*r),
            _ => None,
        }));
    for r in stops {
        if r != StopReason::Interrupted {
            return (AttemptResult::Stopped(r), session);
        }
    }
    for (name, side) in aux {
        if let Some(AuxSide::Unknown { max_k }) = side {
            let result = AttemptResult::Verdict(
                JobVerdict::Unknown { max_k: *max_k },
                bmc_stats,
                name,
                pdr_stats,
            );
            return (result, session);
        }
    }
    (AttemptResult::Stopped(StopReason::Interrupted), session)
}

/// The k-induction side of a clean-design portfolio: proves every G-QED
/// property of the prebuilt model, shallow depths first per property.
fn run_kind_side(model: &Model, max_k: u32, limits: &BmcLimits) -> AuxSide {
    let mut deepest = 0u32;
    for i in 0..model.ts.bads.len() {
        match gqed_bmc::prove_k_induction_limited(&model.ctx, &model.ts, i, max_k, limits) {
            gqed_bmc::ProofResult::Proven { k } => deepest = deepest.max(k),
            gqed_bmc::ProofResult::Falsified(t) => {
                return AuxSide::Violation {
                    property: t.bad_name.clone(),
                    cycles: t.len(),
                }
            }
            gqed_bmc::ProofResult::Unknown { max_k } => return AuxSide::Unknown { max_k },
            gqed_bmc::ProofResult::Cancelled { reason, .. } => return AuxSide::Stopped(reason),
        }
    }
    AuxSide::Proven { k: deepest }
}

/// The IC3/PDR side of a clean-design portfolio: proves every G-QED
/// property of the prebuilt model under the deterministic query cap,
/// aggregating statistics across properties (counters sum, frame depth
/// and live-clause gauges take the maximum).
///
/// A `Falsified` from PDR is confirmed through an independent bounded
/// BMC query at the reported depth before it is allowed to settle the
/// obligation — the confirming trace supplies the property name and
/// cycle count. An unconfirmed falsification is downgraded to `Unknown`
/// (it indicates an engine defect, never a verdict).
fn run_pdr_side(model: &Model, limits: &BmcLimits) -> (AuxSide, PdrStats) {
    let opts = PdrOptions {
        max_queries: Some(PDR_QUERY_CAP),
        ..PdrOptions::default()
    };
    let mut agg = PdrStats::default();
    let mut deepest = 0u32;
    for i in 0..model.ts.bads.len() {
        let out = prove_pdr_limited(&model.ctx, &model.ts, i, &opts, limits);
        add_pdr_stats(&mut agg, &out.stats);
        match out.verdict {
            PdrVerdict::Proven { frames, .. } => deepest = deepest.max(frames),
            PdrVerdict::Falsified { depth } => {
                let mut engine = BmcEngine::new(&model.ctx, &model.ts);
                return match engine.check_bad_at_limited(i, depth, limits) {
                    Ok(Some(t)) => (
                        AuxSide::Violation {
                            property: t.bad_name.clone(),
                            cycles: t.len(),
                        },
                        agg,
                    ),
                    Ok(None) => (AuxSide::Unknown { max_k: depth }, agg),
                    Err(reason) => (AuxSide::Stopped(reason), agg),
                };
            }
            PdrVerdict::Unknown { frames } => return (AuxSide::Unknown { max_k: frames }, agg),
            PdrVerdict::Cancelled { reason, .. } => return (AuxSide::Stopped(reason), agg),
        }
    }
    (AuxSide::Proven { k: deepest }, agg)
}

/// Accumulates one property's PDR statistics into a per-obligation
/// aggregate: counters sum; the frame depth and the live learnt-clause
/// gauge take the maximum.
fn add_pdr_stats(acc: &mut PdrStats, s: &PdrStats) {
    acc.frames = acc.frames.max(s.frames);
    acc.ctis += s.ctis;
    acc.blocked_cubes += s.blocked_cubes;
    acc.generalize_drops += s.generalize_drops;
    acc.propagated += s.propagated;
    acc.queries += s.queries;
    acc.recheck_failures += s.recheck_failures;
    acc.solver.decisions += s.solver.decisions;
    acc.solver.propagations += s.solver.propagations;
    acc.solver.conflicts += s.solver.conflicts;
    acc.solver.restarts += s.solver.restarts;
    acc.solver.learnt_clauses = acc.solver.learnt_clauses.max(s.solver.learnt_clauses);
    acc.solver.deleted_clauses += s.solver.deleted_clauses;
    acc.solver.compactions += s.solver.compactions;
    acc.solver.peak_arena_bytes = acc.solver.peak_arena_bytes.max(s.solver.peak_arena_bytes);
    acc.solver.emergency_reductions += s.solver.emergency_reductions;
    acc.solver.simplify_rounds += s.solver.simplify_rounds;
    acc.solver.eliminated_vars += s.solver.eliminated_vars;
    acc.solver.restored_vars += s.solver.restored_vars;
    acc.solver.subsumed_clauses += s.solver.subsumed_clauses;
    acc.solver.strengthened_clauses += s.solver.strengthened_clauses;
    acc.solver.vivified_clauses += s.solver.vivified_clauses;
}

/// Test-only obligation body: a pigeonhole refutation far larger than any
/// sane conflict budget, guaranteeing `BudgetExhausted`/`DeadlineExpired`
/// stops that drive the Luby escalation path end to end.
fn run_debug_exhaust(limits: &BmcLimits) -> AttemptResult {
    let mut s = Solver::new();
    let pigeons = 11usize;
    let holes = pigeons - 1;
    let var = |p: usize, h: usize| (p * holes + h + 1) as i32;
    for p in 0..pigeons {
        let clause: Vec<i32> = (0..holes).map(|h| var(p, h)).collect();
        s.add_clause(&clause);
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                s.add_clause(&[-var(p1, h), -var(p2, h)]);
            }
        }
    }
    if let Some(flag) = &limits.interrupt {
        s.set_interrupt(Arc::clone(flag));
    }
    if let Some(d) = limits.deadline {
        s.set_deadline(d);
    }
    if let Some(m) = limits.mem_limit {
        s.set_memory_limit(m);
    }
    match s.solve_bounded(&[], limits.budget.unwrap_or(u64::MAX)) {
        SolveOutcome::Sat | SolveOutcome::Unsat => {
            // Only reachable with an effectively unlimited budget.
            AttemptResult::Verdict(JobVerdict::Clean { bound: 0 }, None, "-", None)
        }
        stop => {
            AttemptResult::Stopped(StopReason::from_outcome(stop).expect("verdicts handled above"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obligation::{enumerate_obligations, FlowFilter};

    fn relu_obligations() -> Vec<Obligation> {
        enumerate_obligations(FlowFilter::all(), &["relu".to_string()])
    }

    #[test]
    fn sequential_campaign_reaches_verdicts() {
        let obls = relu_obligations();
        let summary = Campaign::new(&obls).run(&Telemetry::null());
        assert_eq!(summary.records.len(), obls.len());
        assert!(summary.is_success(), "summary: {summary:?}");
        for r in &summary.records {
            assert!(
                r.verdict.is_conclusive(),
                "{}: {:?}",
                r.obligation.id,
                r.verdict
            );
            assert_eq!(r.attempts, 1);
        }
    }

    #[test]
    fn queue_drains_with_more_workers_than_jobs() {
        let obls = enumerate_obligations(
            FlowFilter {
                gqed: false,
                aqed: false,
                conventional: true,
            },
            &["relu".to_string()],
        );
        let summary = Campaign::new(&obls)
            .config(CampaignConfig::default().with_jobs(8))
            .run(&Telemetry::null());
        assert_eq!(summary.records.len(), obls.len());
        assert!(summary.is_success());
    }

    #[test]
    fn empty_campaign_terminates() {
        let summary = Campaign::new(&[]).run(&Telemetry::null());
        assert!(summary.records.is_empty());
        assert!(summary.is_success());
    }

    #[test]
    fn panic_message_extracts_every_payload_shape() {
        use std::panic::panic_any;
        let msg = |p: Box<dyn std::any::Any + Send>| panic_message(p.as_ref());
        let p = catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(msg(p), "formatted 7");
        let p = catch_unwind(|| panic!("literal")).unwrap_err();
        assert_eq!(msg(p), "literal");
        let p = catch_unwind(|| panic_any(Box::new("boxed string".to_string()))).unwrap_err();
        assert_eq!(msg(p), "boxed string");
        let p = catch_unwind(|| panic_any(Box::new("boxed str"))).unwrap_err();
        assert_eq!(msg(p), "boxed str");
        let p = catch_unwind(|| panic_any(42i32)).unwrap_err();
        assert_eq!(msg(p), "non-string panic payload");
    }

    #[test]
    fn pre_raised_interrupt_cancels_the_whole_campaign() {
        let obls = relu_obligations();
        let summary = Campaign::new(&obls)
            .config(CampaignConfig::default().with_interrupt(Arc::new(AtomicBool::new(true))))
            .run(&Telemetry::null());
        assert_eq!(summary.cancelled, obls.len());
        assert!(!summary.is_success());
        assert_eq!(summary.exit_code(), 130);
        for r in &summary.records {
            assert_eq!(r.verdict, JobVerdict::Cancelled);
        }
    }

    #[test]
    fn normalized_render_is_one_line_per_obligation() {
        let obls = relu_obligations();
        let summary = Campaign::new(&obls).run(&Telemetry::null());
        let render = summary.normalized_render();
        assert_eq!(render.lines().count(), obls.len());
        for (line, obl) in render.lines().zip(&obls) {
            assert!(line.starts_with(&obl.id), "line {line:?} vs {}", obl.id);
            assert!(!line.contains("MISMATCH"));
        }
    }
}
