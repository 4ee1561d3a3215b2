//! The parallel campaign runner.
//!
//! Worker threads claim obligations from one shared cursor, and each
//! worker settles the obligation it claimed completely before it claims
//! the next. An obligation's attempts run back to back, each under a
//! conflict budget and wall-clock deadline scaled by the Luby sequence of
//! the attempt number; a stopped attempt's session is resumed by the next
//! attempt at the frame where it stopped, until `max_attempts` is reached
//! and the obligation is recorded as `timeout-escalated`. Panicking jobs
//! are isolated with `catch_unwind` and recorded as `failed`; neither
//! ever takes the campaign down. What an obligation has spent so far —
//! its session, wall-clock, frames, store key — is local to the function
//! settling it; workers return their records and the campaign assembles
//! them in obligation order.
//!
//! Clean-design proof obligations run an engine *portfolio*
//! ([`CampaignConfig::engines`]): bounded BMC and IC3/PDR run
//! concurrently sharing one prebuilt model and one cancellation flag,
//! and the first engine to reach a *conclusive* result raises the flag,
//! interrupting the other mid-search. An inconclusive PDR outcome
//! (`Unknown`) drops it out without cancelling the race — a
//! bounded-clean certificate from the BMC side is still worth waiting
//! for. When the portfolio is exactly `[bmc]` the obligation runs on the
//! plain session path instead (fully deterministic certificates, used by
//! the table generators and the bench).
//!
//! Three robustness mechanisms wrap the workers (all optional):
//!
//! * **journaling** — a campaign built with [`Campaign::journal`]
//!   appends every verdict (fsync'd) and escalation attempt to a
//!   crash-safe [`Journal`], and
//!   [`Campaign::resume`] replays a prior run's journal so completed
//!   obligations are skipped on `--resume`;
//! * **memory degradation** — when the solver's clause arena exceeds
//!   [`CampaignConfig::mem_limit`] the attempt stops with
//!   [`StopReason::MemoryLimit`]; the worker drops the obligation's
//!   session and retries from frame 0 at the *base* budget (no Luby
//!   escalation — a bigger budget would just hit the wall again);
//! * **cancellation** — raising [`CampaignConfig::interrupt`] (the CLI
//!   wires SIGINT/SIGTERM to it) interrupts in-flight solvers; affected
//!   obligations finish as `cancelled` with a journal checkpoint so a
//!   resumed campaign re-runs exactly them.
//!
//! Process death (an abort, a stack overflow, the OS OOM killer) is
//! recovered from the journal: its fsync'd verdicts survive the process,
//! and [`Campaign::resume`] re-runs only what had not settled.

use crate::journal::{Journal, ReplayedRecord, ResumeState};
use crate::json::JsonValue;
use crate::obligation::{Obligation, ObligationKind};
use crate::portfolio::{default_portfolio, EngineId, PDR_QUERY_CAP};
use crate::service::StopWaker;
use crate::store::{derive_key, StoreKey, VerdictStore};
use crate::telemetry::Telemetry;
use gqed_bmc::{BmcEngine, BmcLimits, BmcStats, StopReason};
use gqed_core::{build_model, CheckKind, CheckSession, CheckStatus, ModelCache, ModelKey, Verdict};
use gqed_ha::{all_designs, Design};
use gqed_ir::Model;
use gqed_pdr::{prove_pdr_limited, PdrOptions, PdrStats, PdrVerdict};
use gqed_sat::{luby, Solver};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Campaign-wide configuration.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Worker threads settling obligations.
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
    /// Clause-arena byte budget per solver. When the learnt-clause arena
    /// exceeds it the solver first sheds learnt clauses; if still over,
    /// the attempt stops with [`StopReason::MemoryLimit`] and retries
    /// cold at the base budget. `None` = unlimited.
    pub mem_limit: Option<usize>,
    /// Cooperative shutdown flag. When raised, in-flight solvers stop at
    /// their next poll, affected obligations finish as `cancelled`, and
    /// unclaimed obligations drain without running. The CLI raises it
    /// from SIGINT/SIGTERM.
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
    /// Proven unreachable at every depth by IC3/PDR.
    Proven {
        /// Deepest PDR frame at which an inductive invariant closed,
        /// across the properties.
        k: u32,
    },
    /// PDR gave up (query cap, or an unconfirmed falsification) without
    /// the BMC side being able to certify a bound either (only possible
    /// when limits stopped the BMC side, or BMC was not fielded).
    Unknown {
        /// PDR's frame depth when it gave up.
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
    /// Which engine produced the verdict: `bmc`, `pdr`, or `-`.
    pub engine: &'static str,
    /// BMC engine statistics of the deciding run, when available. CNF
    /// sizes are cumulative over the incremental unrolling, so
    /// `cnf_clauses`/`cnf_vars` are the peak encoding size.
    pub stats: Option<BmcStats>,
    /// Aggregate PDR statistics across the obligation's properties, when
    /// the portfolio fielded the PDR engine on this obligation.
    pub pdr_stats: Option<PdrStats>,
    /// Total per-frame BMC queries solved across *all* attempts of this
    /// obligation. A resumed retry re-queries only the frame its
    /// predecessor stopped on, so a settled record at depth `d` after `a`
    /// attempts solved exactly `d + a - 1` frames — the identity the
    /// bench regression gate checks.
    pub frames_solved: u64,
    /// Whether a conclusive verdict contradicts the catalogue ground
    /// truth.
    pub mismatch: bool,
    /// Whether the verdict was served from the content-addressed verdict
    /// store instead of a solver (reported as `cache_hit` in telemetry).
    pub cached: bool,
}

/// Aggregated campaign outcome.
#[derive(Clone, Debug, Default)]
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
    /// Inconclusive PDR outcomes.
    pub unknowns: usize,
    /// Obligations that exhausted every escalation attempt.
    pub timeouts: usize,
    /// Panicked obligations.
    pub failures: usize,
    /// Obligations cancelled by an interrupt before settling.
    pub cancelled: usize,
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
    /// Verdicts won by the IC3/PDR engine.
    pub wins_pdr: usize,
}

impl CampaignSummary {
    /// Whether every obligation reached a conclusive verdict agreeing
    /// with the catalogue.
    pub fn is_success(&self) -> bool {
        self.failures == 0 && self.timeouts == 0 && self.mismatches == 0 && self.cancelled == 0
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
/// ("bmc", "pdr", or "-"), and the PDR side's statistics (when a
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

/// What one obligation has spent so far — attempts, wall-clock (a
/// cached verdict's stored wall), per-frame BMC queries — and where its
/// verdict came from or goes: served from the verdict store (`cached`),
/// or published there under `store_key` once settled.
#[derive(Default)]
struct Spent {
    attempts: u32,
    wall: Duration,
    frames: u64,
    store_key: Option<StoreKey>,
    cached: bool,
}

struct Shared<'a> {
    obligations: &'a [Obligation],
    config: &'a CampaignConfig,
    telemetry: &'a Telemetry,
    /// Indices of the obligations to run (those not replayed from a
    /// resume journal), in obligation order.
    pending: Vec<usize>,
    /// Position in `pending` of the next unclaimed obligation. `Relaxed`
    /// suffices: `fetch_add` hands each position to exactly one worker,
    /// and the cursor publishes no other data.
    next: AtomicUsize,
    /// Synthesized models shared across obligations — and across
    /// batches, when the service supplies a persistent cache.
    cache: Arc<ModelCache>,
    /// Content-addressed verdict store, when one is attached.
    store: Option<&'a VerdictStore>,
    /// Obligations answered from the verdict store this campaign.
    cache_hits: AtomicU64,
    /// Obligations that probed the store and missed this campaign.
    cache_misses: AtomicU64,
    /// Attempts that resumed a stopped attempt's session.
    session_resumes: AtomicU64,
    /// Write-ahead journal, when the campaign is journaled.
    journal: Option<&'a Journal>,
    /// Journal appends that reported an error (faults are tolerated —
    /// they cost a re-run on resume, never a verdict).
    journal_faults: AtomicU64,
    /// Cooperative shutdown flag (always present; shared with
    /// [`CampaignConfig::interrupt`] when the caller supplied one).
    cancel: Arc<AtomicBool>,
}

impl Shared<'_> {
    /// Appends a journal record; errors are counted and reported but
    /// never abort the campaign.
    fn journal_append(&self, record: &JsonValue, sync: bool) {
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
/// [`Campaign::model_cache`] to share synthesized models across
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

    /// Attaches a content-addressed verdict store: each obligation probes
    /// the store before its first attempt and a hit is served without
    /// running a solver (a `job_cached` telemetry event, `cache_hit: true`
    /// on the verdict event, and the summary's `cache_hits` counter);
    /// settled conclusive verdicts of misses are published back to the
    /// store.
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

    /// Runs every obligation to a final verdict and returns the
    /// aggregate.
    pub fn run(&self, telemetry: &Telemetry) -> CampaignSummary {
        let t0 = Instant::now();
        let n = self.obligations.len();

        // Replay settled verdicts from the resume state; run the rest.
        let mut records: Vec<Option<JobRecord>> = vec![None; n];
        let mut pending = Vec::new();
        let mut replayed = 0usize;
        for (i, obl) in self.obligations.iter().enumerate() {
            let Some(rr) = self.resume.and_then(|s| s.completed.get(&obl.id)) else {
                pending.push(i);
                continue;
            };
            telemetry.emit(
                &JsonValue::obj()
                    .field("type", "job_replayed")
                    .field("job", obl.id.as_str())
                    .field("verdict", rr.verdict.tag())
                    .field("attempts", rr.attempts)
                    .field("source", "journal"),
            );
            records[i] = Some(JobRecord {
                obligation: obl.clone(),
                verdict: rr.verdict.clone(),
                attempts: rr.attempts,
                wall: Duration::from_millis(rr.wall_ms),
                engine: rr.engine,
                stats: None,
                pdr_stats: None,
                frames_solved: rr.frames_solved,
                mismatch: is_mismatch(obl, &rr.verdict),
                cached: false,
            });
            replayed += 1;
        }

        let cache = self
            .model_cache
            .clone()
            .unwrap_or_else(|| Arc::new(ModelCache::new()));
        // The model cache may be shared across batches by the service;
        // the summary reports this campaign's lookups only.
        let (encoding_hits_before, encoding_misses_before) = (cache.hits(), cache.misses());
        let shared = Shared {
            obligations: self.obligations,
            config: &self.config,
            telemetry,
            pending,
            next: AtomicUsize::new(0),
            cache,
            store: self.store,
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            session_resumes: AtomicU64::new(0),
            journal: self.journal,
            journal_faults: AtomicU64::new(0),
            cancel: self
                .config
                .interrupt
                .clone()
                .unwrap_or_else(|| Arc::new(AtomicBool::new(false))),
        };
        if self.journal.is_some() {
            let record = match self.resume {
                None => JsonValue::obj()
                    .field("type", "campaign_start")
                    .field("version", 1u32)
                    .field("obligations", n)
                    .field(
                        "manifest_crc",
                        crate::journal::manifest_crc(self.obligations),
                    ),
                Some(_) => JsonValue::obj()
                    .field("type", "campaign_resume")
                    .field("skipped", replayed),
            };
            shared.journal_append(&record, true);
        }
        let workers = self.config.jobs.max(1).min(n.max(1));
        let shared_ref = &shared;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| s.spawn(move || worker(shared_ref)))
                .collect();
            for h in handles {
                for (i, record) in join_side(h.join()) {
                    records[i] = Some(record);
                }
            }
        });
        let records: Vec<JobRecord> = records
            .into_iter()
            .map(|r| r.expect("every obligation ends in a verdict"))
            .collect();

        let mut summary = CampaignSummary {
            wall: t0.elapsed(),
            jobs: workers,
            replayed,
            cache_hits: shared.cache_hits.load(Ordering::Relaxed),
            cache_misses: shared.cache_misses.load(Ordering::Relaxed),
            encoding_cache_hits: shared.cache.hits() - encoding_hits_before,
            encoding_cache_misses: shared.cache.misses() - encoding_misses_before,
            session_resumes: shared.session_resumes.load(Ordering::Relaxed),
            frames_solved: records.iter().map(|r| r.frames_solved).sum(),
            ..CampaignSummary::default()
        };
        for r in &records {
            match r.engine {
                "bmc" => summary.wins_bmc += 1,
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
}

/// Whether a conclusive verdict contradicts the obligation's catalogue
/// ground truth.
fn is_mismatch(obl: &Obligation, verdict: &JobVerdict) -> bool {
    match (obl.expect_violation, verdict.is_conclusive()) {
        (Some(expected), true) => verdict.is_violation() != expected,
        _ => false,
    }
}

/// The campaign worker loop, one per worker thread: claims obligations
/// until none is left and settles each one completely. Nothing is ever
/// re-enqueued, so the cursor passing the end means the worker is done.
/// Returns the settled records with their obligation indices.
fn worker(shared: &Shared) -> Vec<(usize, JobRecord)> {
    let mut settled = Vec::new();
    while let Some(&index) = shared
        .pending
        .get(shared.next.fetch_add(1, Ordering::Relaxed))
    {
        settled.push((index, settle(shared, index)));
    }
    settled
}

/// Settles obligation `index`: the shutdown drain (once the interrupt is
/// raised, an unclaimed obligation finishes as cancelled without a probe
/// or a solve), the content-addressed store probe, and otherwise the
/// attempts.
fn settle(shared: &Shared, index: usize) -> JobRecord {
    let mut spent = Spent::default();
    if shared.cancel.load(Ordering::Relaxed) {
        return cancel_job(shared, index, spent, None);
    }
    if let Some(record) = store_probe(shared, index, &mut spent) {
        return record;
    }
    solve_attempts(shared, index, spent)
}

/// Runs obligation `index`'s attempts in-process, back to back, until one
/// settles it or `max_attempts` are spent (at least one attempt always
/// runs). Each attempt resumes the previous attempt's stopped session at
/// the frame where it stopped, under a Luby-scaled budget and deadline;
/// the solve itself is panic-isolated.
fn solve_attempts(shared: &Shared, index: usize, mut spent: Spent) -> JobRecord {
    let obl = &shared.obligations[index];
    let config = shared.config;
    let mut session: Option<CheckSession> = None;
    // After a memory stop every retry starts from frame 0 at the base
    // budget: the Luby schedule would grow the clause arena straight back
    // into the wall it just hit.
    let mut mem_degraded = false;
    let scaled = |base: Option<u64>, attempt: u32, degraded: bool| {
        let factor = if degraded {
            1
        } else {
            luby(u64::from(attempt))
        };
        base.map(|b| b.saturating_mul(factor))
    };
    loop {
        let resumed_from_frame = session.as_ref().map(CheckSession::resume_frame);
        if shared.cancel.load(Ordering::Relaxed) {
            return cancel_job(shared, index, spent, resumed_from_frame);
        }
        spent.attempts += 1;
        let attempt = spent.attempts;
        let budget = scaled(config.base_budget, attempt, mem_degraded);
        let deadline_ms = scaled(config.deadline_ms, attempt, mem_degraded);
        let limits = BmcLimits {
            budget,
            deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
            interrupt: Some(Arc::clone(&shared.cancel)),
            mem_limit: config.mem_limit,
        };
        if resumed_from_frame.is_some() {
            shared.session_resumes.fetch_add(1, Ordering::Relaxed);
        }
        let encoding_reused =
            session.is_some() || model_key(obl).is_some_and(|k| shared.cache.contains(&k));
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
            run_attempt(obl, &limits, config, &shared.cache, &mut session)
        }));
        spent.wall += t0.elapsed();
        spent.frames += outcome.as_ref().map_or(0, |(_, frames)| *frames);
        let stopped_at = session.as_ref().map(CheckSession::resume_frame);
        let reason = match outcome {
            Ok((AttemptResult::Verdict(verdict, stats, engine, pdr_stats), _)) => {
                // An Unknown reached during shutdown is an artifact of
                // the interrupt (the BMC side was cut short), not a
                // genuine exhaustion — record it as cancelled so the
                // resumed campaign re-runs it to the same verdict an
                // uninterrupted run would reach.
                if shared.cancel.load(Ordering::Relaxed)
                    && matches!(verdict, JobVerdict::Unknown { .. })
                {
                    return cancel_job(shared, index, spent, stopped_at);
                }
                let (stats, pdr_stats) = (stats.map(|b| *b), pdr_stats.map(|b| *b));
                return finish(shared, index, spent, verdict, engine, stats, pdr_stats);
            }
            Ok((AttemptResult::Stopped(reason), _)) => reason,
            Err(payload) => {
                let verdict = JobVerdict::Failed {
                    message: panic_message(payload.as_ref()),
                };
                return finish(shared, index, spent, verdict, "-", None, None);
            }
        };
        if shared.cancel.load(Ordering::Relaxed) {
            return cancel_job(shared, index, spent, stopped_at);
        }
        if attempt >= config.max_attempts {
            let verdict = JobVerdict::TimeoutEscalated { attempts: attempt };
            return finish(shared, index, spent, verdict, "-", None, None);
        }
        // A memory stop drops the session (its learnt clauses are the
        // memory); any other stop keeps it, so the retry resumes at the
        // stopped frame with all learnt clauses intact.
        if reason == StopReason::MemoryLimit {
            mem_degraded = true;
            session = None;
        }
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
                    scaled(config.base_budget, attempt + 1, mem_degraded),
                )
                .field(
                    "next_deadline_ms",
                    scaled(config.deadline_ms, attempt + 1, mem_degraded),
                ),
        );
    }
}

/// Finishes an obligation as [`JobVerdict::Cancelled`] and writes a
/// journal *checkpoint* record carrying the session's stopped frame, if
/// it had one (not a verdict — a resumed campaign must re-run cancelled
/// obligations, and [`ResumeState`] only skips settled verdicts).
fn cancel_job(shared: &Shared, index: usize, spent: Spent, frame: Option<u32>) -> JobRecord {
    let obl = &shared.obligations[index];
    shared.journal_append(
        &JsonValue::obj()
            .field("type", "checkpoint")
            .field("job", obl.id.as_str())
            .field("frame", frame),
        false,
    );
    finish(shared, index, spent, JobVerdict::Cancelled, "-", None, None)
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

/// Settles obligation `index` with what it `spent`: the `job_verdict`
/// telemetry event, the fsync'd journal verdict record and the
/// verdict-store publication. Returns the summary record.
fn finish(
    shared: &Shared,
    index: usize,
    spent: Spent,
    verdict: JobVerdict,
    engine: &'static str,
    stats: Option<BmcStats>,
    pdr_stats: Option<PdrStats>,
) -> JobRecord {
    let obl = &shared.obligations[index];
    let Spent {
        attempts,
        wall,
        frames: frames_solved,
        store_key,
        cached,
    } = spent;
    let mismatch = is_mismatch(obl, &verdict);
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
            .field("peak_arena_bytes", s.solver.peak_arena_bytes)
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

    // Publish a freshly solved verdict to the verdict store (only a store
    // miss leaves a key; a cached verdict came from there). The store
    // itself refuses non-conclusive verdicts. Store faults are tolerated
    // exactly like journal faults: they cost a future re-solve, never a
    // verdict.
    if let (Some(store), Some(key)) = (shared.store, store_key) {
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
    JobRecord {
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
    }
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

/// Probes the content-addressed verdict store for this obligation
/// before paying for a solve (the key needs the built model's
/// fingerprint, so synthesis still happens on a hit — only solving is
/// skipped). Returns the record finished from a stored verdict. On a
/// miss, remembers the derived key in `spent` so the settled verdict is
/// published to the store by [`finish`].
fn store_probe(shared: &Shared, index: usize, spent: &mut Spent) -> Option<JobRecord> {
    let store = shared.store?;
    let obl = &shared.obligations[index];
    // Debug obligations have no model, hence no key.
    let kind = obligation_check_kind(obl)?;
    // Building a model panics on an unknown design; skip the probe and
    // let the normal attempt path hit the same panic, which the worker
    // isolates into a Failed verdict. The fingerprint is the one
    // memoised beside the cached model.
    let key = catch_unwind(AssertUnwindSafe(|| {
        let fingerprint = shared.cache.fingerprint(cache_model_key(obl, kind), || {
            build_model(&build_design(obl), kind)
        });
        derive_key(fingerprint, obl, shared.config)
    }))
    .ok()?;
    let Some(rr) = store.get(key) else {
        shared.cache_misses.fetch_add(1, Ordering::Relaxed);
        spent.store_key = Some(key);
        return None;
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
    let spent = Spent {
        attempts: rr.attempts,
        wall: Duration::from_millis(rr.wall_ms),
        frames: rr.frames_solved,
        store_key: None,
        cached: true,
    };
    Some(finish(
        shared, index, spent, rr.verdict, rr.engine, None, None,
    ))
}

/// The synthesized model for this obligation's flow, from the shared
/// cache (built at most once per `(design, flow)`).
fn resolve_model(obl: &Obligation, kind: CheckKind, cache: &ModelCache) -> Arc<Model> {
    cache.get_or_build(cache_model_key(obl, kind), || {
        build_model(&build_design(obl), kind)
    })
}

/// Runs one attempt. Returns the result plus the number of per-frame BMC
/// queries this attempt solved (the bench's work metric). The
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
        ObligationKind::ProveClean { bound, .. } => {
            if config.engines.iter().any(|e| *e != EngineId::Bmc) {
                let model = resolve_model(obl, CheckKind::GQed, cache);
                let session = session_slot.take().unwrap_or_else(|| {
                    let mut s = CheckSession::new(CheckKind::GQed, *bound, Arc::clone(&model));
                    s.set_inprocessing(config.inprocessing);
                    s
                });
                let before = session.frame_queries();
                let (result, session) =
                    portfolio_prove_clean(&model, session, limits, &config.engines);
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
        let model = resolve_model(obl, kind, cache);
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

/// Unwraps a joined thread, propagating its panic to the caller (for a
/// portfolio side, the worker's `catch_unwind` turns it into a `Failed`
/// verdict).
fn join_side<T>(r: std::thread::Result<T>) -> T {
    match r {
        Ok(v) => v,
        Err(p) => std::panic::resume_unwind(p),
    }
}

/// What the PDR side of a portfolio concluded.
enum PdrSide {
    Violation { property: String, cycles: usize },
    Proven { k: u32 },
    Unknown { max_k: u32 },
    Stopped(StopReason),
}

/// First-proof-wins portfolio over the clean design's G-QED properties,
/// selected by `engines`: bounded BMC (the caller's possibly-resumed
/// [`CheckSession`]) and IC3/PDR. Both sides share one prebuilt
/// [`Model`] — neither re-runs wrapper synthesis — and one cancellation
/// flag wired through [`gqed_sat::Solver::set_interrupt`].
///
/// Cancellation is asymmetric, per the portfolio contract: a side raises
/// the flag only on a verdict that *settles* the obligation — a
/// violation from either side, or a proof from PDR. A bounded `Clean`
/// from the BMC side does NOT cancel: it is a certificate only up to the
/// bound, and a still-running PDR may yet upgrade it to `Proven`. A PDR
/// `Unknown` simply drops out.
///
/// The merge is deterministic given the sides' outcomes (which are
/// themselves deterministic under the PDR query cap), one fixed priority:
/// BMC violation, PDR violation, PDR proof, BMC `clean@bound`, resource
/// stops, PDR `Unknown`. The session is always handed back so a stopped
/// attempt's retry resumes mid-unrolling.
fn portfolio_prove_clean(
    model: &Arc<Model>,
    session: CheckSession,
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

    let ((bmc_status, session), pdr_out) = std::thread::scope(|s| {
        // The portfolio replaces the caller's interrupt with its own
        // flag, so a campaign-wide shutdown must be forwarded in or the
        // sides would run to their budgets oblivious of it. The guard
        // raises the flag and wakes the forwarder when the scope ends,
        // also when a side's panic unwinds through it, so the scope's
        // join never waits on the forwarder or on a side left running.
        let flag: &AtomicBool = &cancel;
        let _stop = limits.interrupt.as_deref().map(|outer| {
            let forwarder = s.spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    if outer.load(Ordering::Relaxed) {
                        flag.store(true, Ordering::Relaxed);
                    }
                    std::thread::park_timeout(Duration::from_millis(5));
                }
            });
            StopWaker {
                done: flag,
                waker: forwarder.thread().clone(),
            }
        });
        let bmc = if has(EngineId::Bmc) {
            let bmc_limits = side_limits.clone();
            let mut session = session;
            Ok(s.spawn(move || {
                let r = session.run(&bmc_limits);
                // Only a violation settles the obligation; a bounded
                // Clean must wait for PDR.
                if matches!(&r, CheckStatus::Done(o)
                    if matches!(o.verdict, Verdict::Violation { .. }))
                {
                    flag.store(true, Ordering::Relaxed);
                }
                (r, session)
            }))
        } else {
            Err(session)
        };
        let pdr = has(EngineId::Pdr).then(|| {
            let pdr_limits = side_limits.clone();
            s.spawn(move || {
                let r = run_pdr_side(model, &pdr_limits);
                if matches!(r.0, PdrSide::Violation { .. } | PdrSide::Proven { .. }) {
                    flag.store(true, Ordering::Relaxed);
                }
                r
            })
        });
        let bmc_out = match bmc {
            Ok(h) => {
                let (r, session) = join_side(h.join());
                (Some(r), session)
            }
            Err(session) => (None, session),
        };
        (bmc_out, pdr.map(|h| join_side(h.join())))
    });

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
    let (verdict, engine) = match (bmc_verdict, pdr_side) {
        // A BMC violation is the shallowest counterexample (BMC searches
        // frame by frame) — it outranks everything.
        (Some(Verdict::Violation { property, cycles }), _) => {
            (JobVerdict::Violation { property, cycles }, "bmc")
        }
        (_, Some(PdrSide::Violation { property, cycles })) => {
            (JobVerdict::Violation { property, cycles }, "pdr")
        }
        // An unbounded proof outranks the bounded certificate.
        (_, Some(PdrSide::Proven { k })) => (JobVerdict::Proven { k }, "pdr"),
        (Some(Verdict::CleanUpTo(bound)), _) => (JobVerdict::Clean { bound }, "bmc"),
        // No side concluded. A genuine resource stop (not the
        // mutual-cancellation echo) means the attempt should escalate and
        // retry; otherwise PDR's Unknown is the answer — final only when
        // the stop was the outer interrupt, which the worker detects and
        // converts to Cancelled.
        (None, pdr_side) => {
            let pdr_stop = match pdr_side {
                Some(PdrSide::Stopped(r)) => Some(r),
                _ => None,
            };
            let mut stops = bmc_stop.into_iter().chain(pdr_stop);
            if let Some(r) = stops.find(|&r| r != StopReason::Interrupted) {
                return (AttemptResult::Stopped(r), session);
            }
            match pdr_side {
                Some(PdrSide::Unknown { max_k }) => (JobVerdict::Unknown { max_k }, "pdr"),
                _ => return (AttemptResult::Stopped(StopReason::Interrupted), session),
            }
        }
    };
    (
        AttemptResult::Verdict(verdict, bmc_stats, engine, pdr_stats),
        session,
    )
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
fn run_pdr_side(model: &Model, limits: &BmcLimits) -> (PdrSide, PdrStats) {
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
                        PdrSide::Violation {
                            property: t.bad_name.clone(),
                            cycles: t.len(),
                        },
                        agg,
                    ),
                    Ok(None) => (PdrSide::Unknown { max_k: depth }, agg),
                    Err(reason) => (PdrSide::Stopped(reason), agg),
                };
            }
            PdrVerdict::Unknown { frames } => return (PdrSide::Unknown { max_k: frames }, agg),
            PdrVerdict::Cancelled { reason, .. } => return (PdrSide::Stopped(reason), agg),
        }
    }
    (PdrSide::Proven { k: deepest }, agg)
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
    match limits.solve(&mut s, &[]) {
        // Only reachable with an effectively unlimited budget.
        Ok(_) => AttemptResult::Verdict(JobVerdict::Clean { bound: 0 }, None, "-", None),
        Err(reason) => AttemptResult::Stopped(reason),
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
    fn a_panicking_portfolio_side_returns_its_panic_promptly() {
        // A state reset to an input rather than a constant: PDR's
        // encoder rejects it with a panic.
        let mut ctx = gqed_ir::Context::new();
        let input = ctx.input("i", 1);
        let state = ctx.state("s", 1);
        let mut ts = gqed_ir::TransitionSystem::new("input-reset");
        ts.inputs.push(input);
        ts.add_state(state, Some(input), state);
        ts.add_bad("s", state);
        let model = Arc::new(Model { ctx, ts });
        let (tx, rx) = std::sync::mpsc::channel();
        // On a hang the thread is leaked and the timeout fails the test.
        let handle = std::thread::spawn(move || {
            let session = CheckSession::new(CheckKind::GQed, 4, Arc::clone(&model));
            let limits = BmcLimits {
                interrupt: Some(Arc::new(AtomicBool::new(false))),
                ..BmcLimits::default()
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                portfolio_prove_clean(&model, session, &limits, &[EngineId::Pdr])
            }));
            let _ = tx.send(outcome.is_err());
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(30)),
            Ok(true),
            "the side's panic must unwind out of the portfolio"
        );
        handle.join().expect("the test thread catches the panic");
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
