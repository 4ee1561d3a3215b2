//! `gqed bench` — the campaign pipeline benchmark.
//!
//! Runs a fixed obligation suite once under a deliberately tiny,
//! Luby-escalated conflict budget, so every non-trivial obligation is
//! stopped and retried at least once: the model cache and the resumable
//! sessions carry each retry. The report — rendered to
//! `BENCH_pipeline.json` by the CLI — gives wall-clock, conflicts,
//! propagations, peak clause-arena bytes and frames/second.
//!
//! Wall-clock is noisy on shared CI hardware, so the regression gate is
//! an exact work identity instead. The BMC engine counts every frame
//! query it issues, and a resumed retry re-queries only the frame its
//! predecessor stopped on, so an obligation settled at depth `d` after
//! `a` attempts solved exactly `d + a − 1` frames. `frames_redone` sums
//! each settled obligation's distance from that count; anything above 0
//! means a retry re-did verified work.
//!
//! The report also carries a [`PdrProbe`]: deterministic IC3/PDR effort
//! counters (blocked cubes, CTIs, frames, queries) from a fixed
//! non-inductive fixture, gated so the engine can neither lose the proof
//! nor drift past the portfolio's query cap without failing CI.

use crate::json::JsonValue;
use crate::obligation::{enumerate_obligations, FlowFilter, Obligation};
use crate::portfolio::{EngineId, PDR_QUERY_CAP};
use crate::runner::{Campaign, CampaignConfig, CampaignSummary, JobVerdict};
use crate::telemetry::Telemetry;
use gqed_bmc::BmcLimits;
use gqed_core::{build_model, CheckKind};
use gqed_ha::all_designs;
use gqed_pdr::{prove_pdr_limited, PdrOptions, PdrVerdict};
use std::time::Duration;

/// Designs in the bench suite. `--quick` keeps one cheap design so the
/// CI smoke step finishes in seconds; the full suite adds an interfering
/// design (deeper unrollings, more escalation rounds).
fn bench_designs(quick: bool) -> Vec<String> {
    let names: &[&str] = if quick {
        &["relu"]
    } else {
        &["relu", "vecadd", "accum"]
    };
    names.iter().map(|s| s.to_string()).collect()
}

/// The fixed obligation suite the bench solves: every bounded check of
/// the bench designs. Clean-design proof obligations are excluded —
/// their deepest queries need orders of magnitude more conflicts than
/// the bench budget, and they exercise the same session/cache machinery
/// the bounded checks already cover.
pub fn bench_obligations(quick: bool) -> Vec<Obligation> {
    enumerate_obligations(FlowFilter::all(), &bench_designs(quick))
        .into_iter()
        .filter(|o| !matches!(o.kind, crate::obligation::ObligationKind::ProveClean { .. }))
        .collect()
}

/// The bench campaign configuration. One worker and no race keep every
/// run fully deterministic; the small base budget forces the escalation
/// path the bench exists to measure.
pub fn bench_config() -> CampaignConfig {
    CampaignConfig::default()
        .with_base_budget(600)
        .with_max_attempts(16)
        .with_engines(vec![EngineId::Bmc])
}

/// Frames a settled obligation's retries re-did: the distance of
/// `frames_solved` from `depth + attempts − 1`, where `depth` is the
/// frame count of one uninterrupted run (`cycles` for a violation,
/// `bound + 1` for a bounded-clean verdict). 0 for verdicts with no
/// depth.
fn frames_redone(verdict: &JobVerdict, attempts: u32, frames_solved: u64) -> u64 {
    let depth = match verdict {
        JobVerdict::Violation { cycles, .. } => *cycles as u64,
        JobVerdict::Clean { bound } => u64::from(*bound) + 1,
        _ => return 0,
    };
    frames_solved.abs_diff(depth + u64::from(attempts) - 1)
}

/// Aggregated metrics of one bench campaign run.
#[derive(Clone, Debug)]
pub struct BenchRun {
    /// Wall-clock of the whole campaign.
    pub wall: Duration,
    /// Total per-frame BMC queries issued.
    pub frames_solved: u64,
    /// Frames re-done by retries, summed over settled obligations (see
    /// `frames_redone`); the regression gate requires 0.
    pub frames_redone: u64,
    /// SAT conflicts of the deciding runs, summed over obligations.
    pub conflicts: u64,
    /// SAT propagations of the deciding runs, summed over obligations.
    pub propagations: u64,
    /// Largest clause-arena high-water mark across obligations, bytes.
    pub peak_arena_bytes: usize,
    /// Total attempts across obligations (retries included).
    pub attempts: u64,
    /// Model-cache hits.
    pub encoding_cache_hits: u64,
    /// Model-cache misses (model builds).
    pub encoding_cache_misses: u64,
    /// Attempts that resumed a kept session.
    pub session_resumes: u64,
    /// Obligations that exhausted every escalation attempt.
    pub timeouts: usize,
    /// Conclusive verdicts contradicting the catalogue.
    pub mismatches: usize,
}

impl BenchRun {
    fn from_summary(s: &CampaignSummary) -> BenchRun {
        let mut conflicts = 0u64;
        let mut propagations = 0u64;
        let mut peak = 0usize;
        let mut redone = 0u64;
        for r in &s.records {
            redone += frames_redone(&r.verdict, r.attempts, r.frames_solved);
            if let Some(st) = &r.stats {
                conflicts += st.solver.conflicts;
                propagations += st.solver.propagations;
                peak = peak.max(st.solver.peak_arena_bytes);
            }
        }
        BenchRun {
            wall: s.wall,
            frames_solved: s.frames_solved,
            frames_redone: redone,
            conflicts,
            propagations,
            peak_arena_bytes: peak,
            attempts: s.records.iter().map(|r| u64::from(r.attempts)).sum(),
            encoding_cache_hits: s.encoding_cache_hits,
            encoding_cache_misses: s.encoding_cache_misses,
            session_resumes: s.session_resumes,
            timeouts: s.timeouts,
            mismatches: s.mismatches,
        }
    }

    /// Frames solved per wall-clock second (0 when the run was too fast
    /// to time).
    pub fn frames_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.frames_solved as f64 / secs
        } else {
            0.0
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("wall_ms", self.wall.as_millis() as u64)
            .field("frames_solved", self.frames_solved)
            .field("frames_redone", self.frames_redone)
            .field("frames_per_sec", self.frames_per_sec())
            .field("conflicts", self.conflicts)
            .field("propagations", self.propagations)
            .field("peak_arena_bytes", self.peak_arena_bytes)
            .field("attempts", self.attempts)
            .field("encoding_cache_hits", self.encoding_cache_hits)
            .field("encoding_cache_misses", self.encoding_cache_misses)
            .field("session_resumes", self.session_resumes)
            .field("timeouts", self.timeouts)
            .field("mismatches", self.mismatches)
    }
}

/// Fixture design of the deterministic PDR probe.
const PDR_PROBE_DESIGN: &str = "bitflip";
/// Fixture property of the deterministic PDR probe (looked up by name,
/// so catalogue reordering cannot silently change what is measured).
const PDR_PROBE_PROPERTY: &str = "flow.orphan.c1";

/// Deterministic IC3/PDR effort metrics on a fixed fixture, for the
/// regression gate.
///
/// The probe runs [`prove_pdr_limited`] on one G-QED property of the
/// seeded PDR-win design — the property is cheap (≲0.3 s) but genuinely
/// non-inductive, so the engine exercises its full CTI/blocking/
/// generalization/propagation loop. Every counter here is an exact
/// function of the model (single thread, no randomness, no wall-clock
/// cutoffs), so any change between runs is a real change in the encoding
/// or the engine's heuristics, never CI noise — unlike the wall-clock
/// columns of the pipeline comparison.
#[derive(Clone, Debug)]
pub struct PdrProbe {
    /// Fixture design name (`PDR_PROBE_DESIGN`).
    pub fixture: &'static str,
    /// Fixture property name (`PDR_PROBE_PROPERTY`).
    pub property: &'static str,
    /// Whether PDR proved the property (the gate requires it).
    pub proven: bool,
    /// Frame at which the inductive invariant closed.
    pub frames: u32,
    /// Counterexamples-to-induction extracted.
    pub ctis: u64,
    /// Cubes blocked into frames.
    pub blocked_cubes: u64,
    /// Literals dropped by failed-assumptions generalization.
    pub generalize_drops: u64,
    /// Clauses pushed forward during propagation.
    pub propagated: u64,
    /// Total SAT queries (gated against [`PDR_QUERY_CAP`]).
    pub queries: u64,
    /// Final-invariant re-check failures (must be 0).
    pub recheck_failures: u64,
}

/// Runs the deterministic PDR probe on the fixed fixture.
pub fn run_pdr_probe() -> PdrProbe {
    let entry = all_designs()
        .into_iter()
        .find(|e| e.name == PDR_PROBE_DESIGN)
        .expect("PDR probe fixture design exists in the catalogue");
    let model = build_model(&entry.build_clean(), CheckKind::GQed);
    let bad = model
        .ts
        .bads
        .iter()
        .position(|b| b.name == PDR_PROBE_PROPERTY)
        .expect("PDR probe fixture property exists in the G-QED model");
    let opts = PdrOptions {
        max_queries: Some(PDR_QUERY_CAP),
        ..PdrOptions::default()
    };
    let out = prove_pdr_limited(&model.ctx, &model.ts, bad, &opts, &BmcLimits::default());
    let (proven, frames) = match out.verdict {
        PdrVerdict::Proven { frames, .. } => (true, frames),
        _ => (false, out.stats.frames),
    };
    PdrProbe {
        fixture: PDR_PROBE_DESIGN,
        property: PDR_PROBE_PROPERTY,
        proven,
        frames,
        ctis: out.stats.ctis,
        blocked_cubes: out.stats.blocked_cubes,
        generalize_drops: out.stats.generalize_drops,
        propagated: out.stats.propagated,
        queries: out.stats.queries,
        recheck_failures: out.stats.recheck_failures,
    }
}

impl PdrProbe {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("fixture", self.fixture)
            .field("property", self.property)
            .field("proven", self.proven)
            .field("frames", self.frames)
            .field("ctis", self.ctis)
            .field("blocked_cubes", self.blocked_cubes)
            .field("generalize_drops", self.generalize_drops)
            .field("propagated", self.propagated)
            .field("queries", self.queries)
            .field("query_cap", PDR_QUERY_CAP)
            .field("recheck_failures", self.recheck_failures)
    }

    /// `Some(reason)` when the probe shows the engine regressed: the
    /// fixture stopped proving, the final invariant failed its
    /// re-check, or the query count crossed the portfolio
    /// cap (the fixture would start burning the cap in every campaign).
    fn regression(&self) -> Option<String> {
        if !self.proven {
            return Some(format!(
                "PDR probe no longer proves {}/{} (frames reached: {})",
                self.fixture, self.property, self.frames
            ));
        }
        if self.recheck_failures > 0 {
            return Some(format!(
                "PDR probe invariant failed its re-check {} time(s)",
                self.recheck_failures
            ));
        }
        if self.queries > PDR_QUERY_CAP {
            return Some(format!(
                "PDR probe exceeded the portfolio query cap ({} > {})",
                self.queries, PDR_QUERY_CAP
            ));
        }
        None
    }
}

/// Deterministic SAT-inprocessing effort probe, for the regression gate.
///
/// Runs the bench suite twice — inprocessing (bounded variable
/// elimination, subsumption, vivification, tiered learnt DB) on and off —
/// and compares the two on the deterministic `frames_solved` metric,
/// falling back to SAT conflicts as a tiebreak. Inprocessing is a pure
/// performance knob: a verdict flip between the runs (see
/// `verdicts_equivalent`), or the `on` run doing strictly more
/// frame-solving work (or the same frames at more conflicts), is a
/// regression.
#[derive(Clone, Debug)]
pub struct SimplifyProbe {
    /// Per-frame BMC queries with inprocessing on.
    pub frames_on: u64,
    /// Per-frame BMC queries with inprocessing off.
    pub frames_off: u64,
    /// SAT conflicts of the deciding runs with inprocessing on.
    pub conflicts_on: u64,
    /// SAT conflicts of the deciding runs with inprocessing off.
    pub conflicts_off: u64,
    /// Obligations that exhausted escalation with inprocessing on.
    pub timeouts_on: usize,
    /// Obligations that exhausted escalation with inprocessing off.
    pub timeouts_off: usize,
    /// Verdicts contradicting the catalogue, summed over both runs.
    pub mismatches: usize,
    /// Whether every obligation got an equivalent verdict in both runs
    /// (see `verdicts_equivalent`).
    pub verdicts_match: bool,
    /// Inprocessing passes completed in the `on` run.
    pub simplify_rounds: u64,
    /// Variables eliminated by BVE in the `on` run.
    pub eliminated_vars: u64,
    /// Clauses deleted by subsumption in the `on` run.
    pub subsumed_clauses: u64,
    /// Clauses strengthened by self-subsuming resolution in the `on` run.
    pub strengthened_clauses: u64,
    /// Clauses shortened by vivification in the `on` run.
    pub vivified_clauses: u64,
}

/// Whether the inprocessing-on verdict `on` is equivalent to the
/// inprocessing-off verdict `off` of the same obligation. Violations
/// must agree on depth only: when several properties fire at the same
/// depth, which one the witness exhibits depends on the model the solver
/// happened to find, and inprocessing legitimately changes that model.
/// An `off` timeout against a conclusive `on` verdict is no flip either:
/// inprocessing settled an obligation the plain run ran out of budget
/// on. Every other difference — an `on` timeout included — is a flip.
fn verdicts_equivalent(on: &JobVerdict, off: &JobVerdict) -> bool {
    match (on, off) {
        (JobVerdict::Violation { cycles: a, .. }, JobVerdict::Violation { cycles: b, .. }) => {
            a == b
        }
        (_, JobVerdict::TimeoutEscalated { .. }) if on.is_conclusive() => true,
        _ => on == off,
    }
}

/// Runs the bench suite with inprocessing on then off and returns the
/// comparison.
pub fn run_simplify_probe(quick: bool, telemetry: &Telemetry) -> SimplifyProbe {
    let obligations = bench_obligations(quick);
    let on = Campaign::new(&obligations)
        .config(bench_config().with_inprocessing(true))
        .run(telemetry);
    let off = Campaign::new(&obligations)
        .config(bench_config().with_inprocessing(false))
        .run(telemetry);
    let conflicts = |s: &CampaignSummary| -> u64 {
        s.records
            .iter()
            .filter_map(|r| r.stats.as_ref())
            .map(|st| st.solver.conflicts)
            .sum()
    };
    let verdicts_match = on.records.len() == off.records.len()
        && on
            .records
            .iter()
            .zip(off.records.iter())
            .all(|(a, b)| verdicts_equivalent(&a.verdict, &b.verdict));
    let mut simplify_rounds = 0u64;
    let mut eliminated_vars = 0u64;
    let mut subsumed_clauses = 0u64;
    let mut strengthened_clauses = 0u64;
    let mut vivified_clauses = 0u64;
    for st in on.records.iter().filter_map(|r| r.stats.as_ref()) {
        simplify_rounds += st.solver.simplify_rounds;
        eliminated_vars += st.solver.eliminated_vars;
        subsumed_clauses += st.solver.subsumed_clauses;
        strengthened_clauses += st.solver.strengthened_clauses;
        vivified_clauses += st.solver.vivified_clauses;
    }
    SimplifyProbe {
        frames_on: on.frames_solved,
        frames_off: off.frames_solved,
        conflicts_on: conflicts(&on),
        conflicts_off: conflicts(&off),
        timeouts_on: on.timeouts,
        timeouts_off: off.timeouts,
        mismatches: on.mismatches + off.mismatches,
        verdicts_match,
        simplify_rounds,
        eliminated_vars,
        subsumed_clauses,
        strengthened_clauses,
        vivified_clauses,
    }
}

impl SimplifyProbe {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("frames_on", self.frames_on)
            .field("frames_off", self.frames_off)
            .field("conflicts_on", self.conflicts_on)
            .field("conflicts_off", self.conflicts_off)
            .field("timeouts_on", self.timeouts_on)
            .field("timeouts_off", self.timeouts_off)
            .field("mismatches", self.mismatches)
            .field("verdicts_match", self.verdicts_match)
            .field("simplify_rounds", self.simplify_rounds)
            .field("eliminated_vars", self.eliminated_vars)
            .field("subsumed_clauses", self.subsumed_clauses)
            .field("strengthened_clauses", self.strengthened_clauses)
            .field("vivified_clauses", self.vivified_clauses)
    }

    /// `Some(reason)` when the probe shows inprocessing regressed: any
    /// verdict flipped or contradicted the catalogue (it must be
    /// verdict-invariant), a timeout appeared that the plain run did not
    /// have, or it made the solver do strictly more work — more frame
    /// queries, or the same frame queries at more conflicts.
    fn regression(&self) -> Option<String> {
        if self.mismatches > 0 {
            return Some(format!(
                "simplify probe produced {} verdict(s) contradicting the catalogue",
                self.mismatches
            ));
        }
        if !self.verdicts_match {
            return Some(
                "inprocessing flipped an obligation verdict (must be verdict-invariant)"
                    .to_string(),
            );
        }
        if self.timeouts_on > self.timeouts_off {
            return Some(format!(
                "inprocessing timed out on more obligations ({} > {})",
                self.timeouts_on, self.timeouts_off
            ));
        }
        if self.frames_on > self.frames_off {
            return Some(format!(
                "inprocessing solved more frames than the plain run ({} > {})",
                self.frames_on, self.frames_off
            ));
        }
        if self.frames_on == self.frames_off && self.conflicts_on > self.conflicts_off {
            return Some(format!(
                "inprocessing needed more conflicts at equal frames ({} > {})",
                self.conflicts_on, self.conflicts_off
            ));
        }
        None
    }
}

/// The full pipeline report (`BENCH_pipeline.json`).
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Whether the `--quick` suite was used.
    pub quick: bool,
    /// Obligations in the suite.
    pub obligations: usize,
    /// Base conflict budget (Luby-escalated on retries).
    pub base_budget: u64,
    /// Escalation attempts allowed per obligation.
    pub max_attempts: u32,
    /// The pipeline run (model cache and resumable sessions).
    pub warm: BenchRun,
    /// The deterministic PDR effort probe.
    pub pdr: PdrProbe,
    /// The deterministic SAT-inprocessing probe.
    pub simplify: SimplifyProbe,
}

impl BenchReport {
    /// The `BENCH_pipeline.json` document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("bench", "pipeline")
            .field("quick", self.quick)
            .field("obligations", self.obligations)
            .field("base_budget", self.base_budget)
            .field("max_attempts", self.max_attempts)
            .field("warm", self.warm.to_json())
            .field("pdr", self.pdr.to_json())
            .field("simplify", self.simplify.to_json())
            .field("regression", self.regression().is_some())
    }

    /// The regression gate: `Some(reason)` when a retry re-did verified
    /// frames (a resume restarted below its stopped frame), when the run
    /// produced a verdict contradicting the catalogue, or when the PDR or
    /// simplify probe regressed.
    pub fn regression(&self) -> Option<String> {
        if self.warm.frames_redone > 0 {
            return Some(format!(
                "retries re-did {} verified frame(s): a resume did not pick up at its stopped frame",
                self.warm.frames_redone
            ));
        }
        if self.warm.mismatches > 0 {
            return Some(format!(
                "pipeline run produced {} verdict(s) contradicting the catalogue",
                self.warm.mismatches
            ));
        }
        if let Some(r) = self.pdr.regression() {
            return Some(r);
        }
        self.simplify.regression()
    }
}

/// Runs the bench suite and both probes and returns the report.
/// Attempt-level progress goes to `telemetry` (pass
/// [`Telemetry::null`] to discard it).
pub fn run_bench(quick: bool, telemetry: &Telemetry) -> BenchReport {
    let obligations = bench_obligations(quick);
    let config = bench_config();
    let summary = Campaign::new(&obligations)
        .config(config.clone())
        .run(telemetry);
    BenchReport {
        quick,
        obligations: obligations.len(),
        base_budget: config.base_budget.expect("bench always sets a budget"),
        max_attempts: config.max_attempts,
        warm: BenchRun::from_summary(&summary),
        pdr: run_pdr_probe(),
        simplify: run_simplify_probe(quick, telemetry),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    #[test]
    fn quick_bench_resumes_exactly_and_reuses_encodings() {
        let report = run_bench(true, &Telemetry::null());
        assert!(
            report.regression().is_none(),
            "quick bench regressed: {report:?}"
        );
        assert_eq!(report.warm.frames_redone, 0);
        // The tiny budget must actually force escalation, and escalated
        // attempts must resume sessions / reuse cached models — the
        // acceptance criterion that retries never re-run synthesis or
        // bitblasting.
        assert!(
            report.warm.attempts > report.obligations as u64,
            "budget never forced a retry: {report:?}"
        );
        assert!(report.warm.session_resumes > 0, "no session was resumed");
        assert!(
            report.warm.encoding_cache_misses < report.warm.attempts,
            "every attempt rebuilt its model"
        );
        // Resumes accumulate conflicts across attempts, so every quick
        // obligation settles within the escalation schedule.
        assert_eq!(report.warm.timeouts, 0, "pipeline timed out: {report:?}");
        let json = report.to_json().render();
        assert!(parse_json(&json).is_some(), "bad bench JSON: {json}");
    }

    #[test]
    fn frames_redone_measures_distance_from_an_exact_resume_chain() {
        let clean = JobVerdict::Clean { bound: 12 };
        let violation = JobVerdict::Violation {
            property: "p".to_string(),
            cycles: 4,
        };
        // Depth 13, three attempts: two stopped frames re-queried once.
        assert_eq!(frames_redone(&clean, 3, 15), 0);
        assert_eq!(frames_redone(&clean, 3, 20), 5);
        assert_eq!(frames_redone(&clean, 3, 14), 1);
        assert_eq!(frames_redone(&violation, 1, 4), 0);
        assert_eq!(frames_redone(&violation, 2, 9), 4);
        let timeout = JobVerdict::TimeoutEscalated { attempts: 16 };
        assert_eq!(frames_redone(&timeout, 16, 300), 0);
    }

    #[test]
    fn verdict_equivalence_admits_only_an_off_side_timeout() {
        let clean = JobVerdict::Clean { bound: 12 };
        let timeout = JobVerdict::TimeoutEscalated { attempts: 16 };
        let violation = |property: &str, cycles| JobVerdict::Violation {
            property: property.to_string(),
            cycles,
        };
        // Inprocessing settled what the plain run timed out on.
        assert!(verdicts_equivalent(&clean, &timeout));
        assert!(verdicts_equivalent(&violation("a", 3), &timeout));
        // The converse is a regression.
        assert!(!verdicts_equivalent(&timeout, &clean));
        // Violations: the depth must match, the witness property need not.
        assert!(verdicts_equivalent(&violation("a", 3), &violation("b", 3)));
        assert!(!verdicts_equivalent(&violation("a", 3), &violation("a", 4)));
        assert!(!verdicts_equivalent(&clean, &violation("a", 3)));
        assert!(!verdicts_equivalent(&violation("a", 3), &clean));
        assert!(verdicts_equivalent(&clean, &clean));
        assert!(verdicts_equivalent(&timeout, &timeout));
    }

    #[test]
    fn simplify_probe_is_verdict_invariant_and_never_slower() {
        let probe = run_simplify_probe(true, &Telemetry::null());
        assert!(
            probe.regression().is_none(),
            "simplify probe regressed: {probe:?}"
        );
        // The probe gates nothing if inprocessing never actually ran.
        assert!(
            probe.simplify_rounds > 0,
            "no simplify pass fired: {probe:?}"
        );
        assert!(
            probe.subsumed_clauses
                + probe.strengthened_clauses
                + probe.vivified_clauses
                + probe.eliminated_vars
                > 0,
            "simplification did no work: {probe:?}"
        );
        // The acceptance criterion: strictly fewer frame queries, or the
        // same frames at strictly fewer conflicts.
        assert!(
            probe.frames_on < probe.frames_off
                || (probe.frames_on == probe.frames_off
                    && probe.conflicts_on < probe.conflicts_off),
            "inprocessing bought nothing: {probe:?}"
        );
    }

    #[test]
    fn pdr_probe_proves_deterministically_within_cap() {
        let a = run_pdr_probe();
        assert!(a.regression().is_none(), "probe regressed: {a:?}");
        // The fixture must be genuinely non-inductive work, not a
        // degenerate instant proof — otherwise the counters gate nothing.
        assert!(a.frames > 1, "fixture proved without a frame ladder: {a:?}");
        assert!(a.ctis > 0 && a.blocked_cubes > 0, "no blocking work: {a:?}");
        // Exact reproducibility: the probe is the one bench metric CI may
        // compare as a number, so two in-process runs must agree bit for
        // bit.
        let b = run_pdr_probe();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
