//! The `job_verdict` event carries the deciding BMC session's solver
//! counters, accumulated across the obligation's warm attempts.

use gqed_campaign::{
    parse_json, Campaign, CampaignConfig, EngineId, JobVerdict, Obligation, ObligationKind,
    Telemetry,
};
use gqed_core::CheckKind;

#[test]
fn job_verdict_reports_the_sessions_peak_arena_bytes() {
    let obls = vec![Obligation {
        id: "relu/clean/aqed".to_string(),
        design: "relu",
        bug: None,
        mutation: None,
        kind: ObligationKind::Check {
            kind: CheckKind::AQed,
            bound: 8,
        },
        expect_violation: Some(false),
    }];
    // A small budget stops and resumes the session before it settles.
    let config = CampaignConfig::default()
        .with_jobs(1)
        .with_engines(vec![EngineId::Bmc])
        .with_base_budget(50)
        .with_max_attempts(16);
    let (telemetry, buf) = Telemetry::buffer();
    let summary = Campaign::new(&obls).config(config).run(&telemetry);
    let record = &summary.records[0];
    assert!(matches!(record.verdict, JobVerdict::Clean { .. }));
    assert!(record.attempts > 1, "the budget never stopped the session");
    let stats = record.stats.as_ref().expect("BMC decided");
    let line = buf
        .lines()
        .into_iter()
        .find(|l| l.contains(r#""type":"job_verdict""#))
        .expect("one job_verdict");
    let event = parse_json(&line).expect("valid JSON");
    let field = |name: &str| event.get(name).and_then(|v| v.as_u64());
    let peak = field("peak_arena_bytes").expect("peak_arena_bytes emitted");
    assert!(peak > 0);
    assert_eq!(peak, stats.solver.peak_arena_bytes as u64);
    assert_eq!(field("conflicts"), Some(stats.solver.conflicts));
}
