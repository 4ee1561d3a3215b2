//! Satellite: a campaign survives panicking and budget-exhausting jobs.
//!
//! Injects one obligation that panics and one that can never finish within
//! its conflict budget, alongside a genuine check. The campaign must run
//! to completion, mark the bad obligations `failed` / `timeout-escalated`
//! in both the records and the telemetry stream, retry the exhausting one
//! through the full Luby escalation schedule, and report a failing
//! aggregate exit status — while still producing the genuine verdict.

use gqed_campaign::{
    parse_json, Campaign, CampaignConfig, JobVerdict, Obligation, ObligationKind, Telemetry,
};
use gqed_core::CheckKind;

fn injected_obligations() -> Vec<Obligation> {
    vec![
        Obligation {
            id: "debug/panic".to_string(),
            design: "relu",
            bug: None,
            mutation: None,
            kind: ObligationKind::DebugPanic,
            expect_violation: None,
        },
        exhausting("debug/exhaust"),
        Obligation {
            id: "relu/clean/conv".to_string(),
            design: "relu",
            bug: None,
            mutation: None,
            kind: ObligationKind::Check {
                kind: CheckKind::Conventional,
                bound: 6,
            },
            expect_violation: Some(false),
        },
    ]
}

#[test]
fn campaign_survives_panics_and_exhaustion() {
    let (telemetry, buf) = Telemetry::buffer();
    let config = CampaignConfig::default()
        .with_jobs(2)
        .with_base_budget(50) // far too small for the pigeonhole instance
        .with_max_attempts(3);
    let obls = injected_obligations();
    let summary = Campaign::new(&obls).config(config).run(&telemetry);

    // Every obligation reached a final record, in obligation order.
    assert_eq!(summary.records.len(), 3);
    let by_id = |id: &str| {
        summary
            .records
            .iter()
            .find(|r| r.obligation.id == id)
            .unwrap()
    };

    let panicked = by_id("debug/panic");
    match &panicked.verdict {
        JobVerdict::Failed { message } => {
            assert!(
                message.contains("injected campaign panic"),
                "unexpected panic message: {message}"
            );
        }
        other => panic!("expected Failed, got {other:?}"),
    }

    let exhausted = by_id("debug/exhaust");
    assert!(
        matches!(
            exhausted.verdict,
            JobVerdict::TimeoutEscalated { attempts: 3 }
        ),
        "expected TimeoutEscalated after 3 attempts, got {:?}",
        exhausted.verdict
    );
    assert_eq!(exhausted.attempts, 3);

    let genuine = by_id("relu/clean/conv");
    assert!(
        matches!(genuine.verdict, JobVerdict::Clean { .. }),
        "the genuine check must still complete: {:?}",
        genuine.verdict
    );

    // Aggregate status: failures and timeouts force a non-zero exit.
    assert_eq!(summary.failures, 1);
    assert_eq!(summary.timeouts, 1);
    assert_eq!(summary.passes, 1);
    assert!(!summary.is_success());
    assert_eq!(summary.exit_code(), 1);

    // Telemetry: every line is valid JSON; the stream contains the two
    // escalation retries, one verdict per obligation and the final summary.
    let lines = buf.lines();
    assert!(!lines.is_empty());
    for l in &lines {
        assert!(parse_json(l).is_some(), "invalid telemetry line: {l}");
    }
    let count = |needle: &str| lines.iter().filter(|l| l.contains(needle)).count();
    assert_eq!(count(r#""type":"job_verdict""#), 3);
    // Engine attribution goes by one name only.
    let verdicts = lines
        .iter()
        .filter(|l| l.contains(r#""type":"job_verdict""#));
    for l in verdicts {
        assert!(l.contains(r#""proof_engine":"#), "no proof_engine: {l}");
        assert!(!l.contains(r#""engine":"#), "duplicate engine field: {l}");
    }
    assert_eq!(count(r#""type":"job_retry""#), 2);
    assert_eq!(count(r#""type":"campaign_summary""#), 1);
    assert_eq!(count(r#""verdict":"failed""#), 1);
    assert_eq!(count(r#""verdict":"timeout-escalated""#), 1);
    // The retries escalate the budget along the Luby sequence (1, 1, 2).
    assert_eq!(count(r#""next_budget":50"#), 1);
    assert_eq!(count(r#""next_budget":100"#), 1);
    // job_start events: 1 (panic) + 3 (exhaust attempts) + 1 (check).
    assert_eq!(count(r#""type":"job_start""#), 5);
}

#[test]
fn deadline_escalation_eventually_completes_a_real_check() {
    // A deadline so short the first attempts expire, long enough after
    // Luby growth that the check finishes: the obligation must end with a
    // real verdict, not a timeout.
    let config = CampaignConfig::default()
        .with_deadline_ms(10)
        .with_max_attempts(10);
    let obls = vec![Obligation {
        id: "relu/clean/conv".to_string(),
        design: "relu",
        bug: None,
        mutation: None,
        kind: ObligationKind::Check {
            kind: CheckKind::Conventional,
            bound: 4,
        },
        expect_violation: Some(false),
    }];
    let summary = Campaign::new(&obls).config(config).run(&Telemetry::null());
    let r = &summary.records[0];
    // Either an early attempt squeaked through or escalation rescued it;
    // a small bounded check must not end timeout-escalated with 10 tries
    // (the Luby-scaled deadline reaches 40ms by then).
    assert!(
        r.verdict.is_conclusive(),
        "expected a conclusive verdict, got {:?} after {} attempts",
        r.verdict,
        r.attempts
    );
}

/// An obligation that no sane conflict budget lets finish.
fn exhausting(id: &str) -> Obligation {
    Obligation {
        id: id.to_string(),
        design: "relu",
        bug: None,
        mutation: None,
        kind: ObligationKind::DebugExhaust,
        expect_violation: None,
    }
}

/// The `job` field of every `job_start` event, in stream order.
fn started_jobs(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter_map(|l| parse_json(l))
        .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some("job_start"))
        .map(|v| v.get("job").and_then(|j| j.as_str()).unwrap().to_string())
        .collect()
}

#[test]
fn a_worker_runs_one_obligations_attempts_back_to_back() {
    let (telemetry, buf) = Telemetry::buffer();
    let config = CampaignConfig::default()
        .with_jobs(1)
        .with_base_budget(50)
        .with_max_attempts(3);
    let obls = vec![exhausting("a"), exhausting("b")];
    let summary = Campaign::new(&obls).config(config).run(&telemetry);
    for r in &summary.records {
        assert_eq!(r.verdict, JobVerdict::TimeoutEscalated { attempts: 3 });
    }
    assert_eq!(
        started_jobs(&buf.lines()),
        ["a", "a", "a", "b", "b", "b"],
        "every attempt of one obligation runs before the next obligation starts"
    );
}

#[test]
fn zero_max_attempts_still_makes_exactly_one_attempt() {
    let (telemetry, buf) = Telemetry::buffer();
    let config = CampaignConfig::default()
        .with_base_budget(50)
        .with_max_attempts(0);
    let obls = vec![exhausting("a")];
    let summary = Campaign::new(&obls).config(config).run(&telemetry);
    let r = &summary.records[0];
    assert_eq!(r.verdict, JobVerdict::TimeoutEscalated { attempts: 1 });
    assert_eq!(r.attempts, 1);
    assert_eq!(started_jobs(&buf.lines()), ["a"]);
}
