//! Parallel verification campaign runner.
//!
//! A *campaign* is the full set of verification obligations implied by the
//! HA catalog: for every design, the clean-design proof obligations plus one
//! bounded check per (bug version × flow ∈ {G-QED, A-QED, Conventional}).
//! This crate enumerates those obligations, runs them on a `std::thread`
//! worker pool with per-job wall-clock deadlines and conflict budgets,
//! escalates budgets Luby-style on timeout (one obligation's attempts back
//! to back on the worker that claimed it), isolates
//! panicking jobs with `catch_unwind`, races an engine [`portfolio`]
//! (bounded BMC, IC3/PDR) on clean designs under a
//! cooperative cancellation flag, and records everything as JSONL
//! telemetry.
//!
//! Campaigns are additionally *crash-safe*: the [`journal`] module keeps
//! an append-only write-ahead journal of verdicts and escalation attempts
//! (CRC32-framed, fsync'd on verdict), and a [`runner::Campaign`] built
//! with [`runner::Campaign::resume`] continues an interrupted campaign
//! from it, truncating torn records, skipping settled obligations and
//! producing a merged summary identical to an uninterrupted run's.
//!
//! Campaigns also compose into a long-running *service*: [`service`]
//! exposes the runner over a line-delimited JSON TCP protocol (see
//! [`api`] for the versioned wire types), and [`store`] provides a
//! content-addressed, crash-safe verdict store so obligations whose
//! design IR, flow, bounds and solver configuration are unchanged are
//! answered from disk instead of re-solved.

#![warn(missing_docs)]
pub mod api;
pub mod bench;
pub mod fleet;
pub mod journal;
pub mod json;
pub mod mutants;
pub mod obligation;
pub mod portfolio;
pub mod runner;
pub mod service;
pub mod store;
pub mod telemetry;

pub use api::{ApiError, BatchRequest, BatchResponse, ObligationSpec, SCHEMA_VERSION};
pub use bench::{
    run_bench, run_pdr_probe, run_simplify_probe, BenchReport, BenchRun, PdrProbe, SimplifyProbe,
};
pub use fleet::{chaos_kill_plan, run_worker, FleetConfig};
pub use journal::{
    crc32, manifest_crc, read_journal, FaultPlan, Journal, JournalReplay, KillFault,
    ReplayedRecord, ResumeState, WriteFault,
};
pub use json::{parse_json, JsonValue};
pub use mutants::{
    enumerate_mutant_obligations, MutantBatch, MutantPlan, MutantRow, MutantsReport,
    DEFAULT_DETECTION_FLOOR,
};
pub use obligation::{enumerate_obligations, FlowFilter, MutationSpec, Obligation, ObligationKind};
pub use portfolio::{default_portfolio, EngineId, PDR_QUERY_CAP};
pub use runner::{Campaign, CampaignConfig, CampaignSummary, JobRecord, JobVerdict};
pub use service::{
    request_shutdown, serve, submit_batch, submit_batch_with_retry, ServeOptions, ServeSummary,
};
pub use store::{derive_key, StoreKey, VerdictStore};
pub use telemetry::{SharedBuffer, Telemetry};
