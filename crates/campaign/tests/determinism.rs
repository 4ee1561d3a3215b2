//! Satellite: campaign verdicts are independent of worker count.
//!
//! `--jobs 4` must yield exactly the same records as `--jobs 1`.
//! Scheduling order differs wildly between the two, so this exercises the
//! result-slot indexing and the absence of cross-job state. The campaign
//! runs bounded BMC only: relu's clean proof obligation is out of PDR's
//! reach, so a PDR side would spend its full query cap re-deriving
//! `Unknown` in every run (~30 s each) without changing any verdict. The
//! racing portfolio's worker-count determinism is pinned on the
//! PDR-winnable design by `portfolio_win.rs` instead.

use gqed_campaign::{
    enumerate_obligations, Campaign, CampaignConfig, CampaignSummary, EngineId, FlowFilter,
    JobVerdict, Telemetry,
};

fn run(jobs: usize) -> CampaignSummary {
    let obls = enumerate_obligations(FlowFilter::all(), &["relu".to_string()]);
    assert!(!obls.is_empty());
    Campaign::new(&obls)
        .config(
            CampaignConfig::default()
                .with_jobs(jobs)
                .with_engines(vec![EngineId::Bmc]),
        )
        .run(&Telemetry::null())
}

#[test]
fn campaign_is_fully_deterministic_across_worker_counts() {
    // Every verdict (not just its normalization) must match exactly,
    // including which engine decided, the counterexample lengths and the
    // bounded-clean bound.
    let seq = run(1);
    let par = run(4);
    assert!(seq.is_success(), "sequential campaign failed: {seq:?}");
    assert!(par.is_success(), "parallel campaign failed: {par:?}");
    let exact = |s: &CampaignSummary| {
        s.records
            .iter()
            .map(|r| {
                (
                    r.obligation.id.clone(),
                    format!("{:?}", r.verdict),
                    r.engine,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(exact(&seq), exact(&par));
    assert!(
        seq.records
            .iter()
            .any(|r| matches!(r.verdict, JobVerdict::Violation { .. })),
        "relu bug checks must find violations"
    );
}
