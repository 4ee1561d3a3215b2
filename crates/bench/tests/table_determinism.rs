//! Satellite: Table 2 is byte-identical regardless of campaign worker
//! count *and* of the retry schedule. Rows are rendered from the
//! deterministically ordered record vector, never from completion order,
//! and a budget-forced escalation run (warm-start resumes included) must
//! reach exactly the verdicts and counterexample lengths of an unlimited
//! run — this test pins both down on a single-design subset (the full
//! sweep is the table binary's job).

use gqed_bench::tables::{render_table2, render_table2_with};
use gqed_campaign::{CampaignConfig, EngineId, Telemetry};

#[test]
fn table2_bytes_identical_across_worker_counts() {
    let one = render_table2(Some("relu"), 1, &Telemetry::null());
    let four = render_table2(Some("relu"), 4, &Telemetry::null());
    assert_eq!(one.mismatches, 0);
    assert_eq!(four.mismatches, 0);
    assert_eq!(one.markdown, four.markdown);
    // Sanity: the subset actually rendered rows.
    assert!(one.markdown.contains("relu"));
    assert!(one.markdown.contains("Table 2b"));
}

#[test]
fn table2_bytes_identical_with_inprocessing_across_worker_counts() {
    // SAT-core inprocessing (BVE, subsumption, vivification) is pure
    // solver-internal work under a deterministic step budget, so the
    // rendered table must stay byte-identical across worker counts with
    // it explicitly on. The tight budget forces escalation with
    // warm-start resumes, where sessions grow past the inprocessing
    // trigger and the passes genuinely fire.
    let cfg = |jobs| {
        CampaignConfig::default()
            .with_jobs(jobs)
            .with_engines(vec![EngineId::Bmc])
            .with_base_budget(600)
            .with_max_attempts(16)
            .with_inprocessing(true)
    };
    let one = render_table2_with(Some("relu"), &cfg(1), &Telemetry::null());
    let four = render_table2_with(Some("relu"), &cfg(4), &Telemetry::null());
    assert_eq!(one.mismatches, 0);
    assert_eq!(four.mismatches, 0);
    assert_eq!(
        one.markdown, four.markdown,
        "inprocessing broke worker-count determinism"
    );
}

#[test]
fn table2_bytes_identical_under_forced_escalation() {
    let unlimited = render_table2(Some("relu"), 1, &Telemetry::null());
    // A conflict budget far below the hardest query forces every
    // non-trivial obligation through budget-exhausted stops and
    // Luby-escalated retries; session resumes pick each one up at the
    // stopped frame. None of that may leak into the verdicts: same
    // violations, same counterexample lengths, same bytes.
    let escalated_config = CampaignConfig {
        jobs: 1,
        deadline_ms: None,
        base_budget: Some(600),
        max_attempts: 16,
        engines: vec![EngineId::Bmc],
        ..CampaignConfig::default()
    };
    let escalated = render_table2_with(Some("relu"), &escalated_config, &Telemetry::null());
    assert_eq!(escalated.mismatches, 0);
    assert_eq!(
        unlimited.markdown, escalated.markdown,
        "escalated retries changed the rendered table"
    );
}
