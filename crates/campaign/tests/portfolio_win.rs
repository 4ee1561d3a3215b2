//! Acceptance: the `bmc,pdr` portfolio settles a clean-design proof
//! obligation that k-induction cannot.
//!
//! The seeded design is `bitflip`: its G-QED consistency properties are
//! not inductive at `max_k = 8` (the complement relation between the
//! duplicated copies needs a strengthening invariant over the
//! transaction-control state), so k-induction returns `Unknown` — while
//! the portfolio's IC3/PDR side discovers the invariant and upgrades the
//! obligation to `Proven`, well inside the deterministic query cap.
//! These tests pin that win, the racing path's worker-count
//! independence, and the byte-identity of resuming an interrupted
//! portfolio campaign.

use gqed_bmc::{prove_k_induction_limited, BmcLimits, ProofResult};
use gqed_campaign::{
    default_portfolio, enumerate_obligations, Campaign, CampaignConfig, CampaignSummary,
    FlowFilter, JobVerdict, Journal, Obligation, Telemetry, PDR_QUERY_CAP,
};
use gqed_core::{build_model, CheckKind};
use gqed_ha::all_designs;
use gqed_pdr::{prove_pdr_limited, PdrOptions, PdrVerdict};
use std::path::PathBuf;

const DESIGN: &str = "bitflip";
const PROVE_ID: &str = "bitflip/clean/prove";

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gqed-portfolio-{}-{name}", std::process::id()))
}

fn bitflip_obligations() -> Vec<Obligation> {
    let obls = enumerate_obligations(FlowFilter::all(), &[DESIGN.to_string()]);
    assert!(obls.iter().any(|o| o.id == PROVE_ID));
    obls
}

fn portfolio_config(jobs: usize) -> CampaignConfig {
    CampaignConfig::default()
        .with_jobs(jobs)
        .with_engines(default_portfolio())
}

/// The soundness-plus-attribution content a portfolio campaign must
/// reproduce exactly at any worker count: verdict (debug form, so bounds,
/// depths and cycle counts are included) and deciding engine per
/// obligation.
fn exact(s: &CampaignSummary) -> Vec<(String, String, &'static str)> {
    s.records
        .iter()
        .map(|r| {
            (
                r.obligation.id.clone(),
                format!("{:?}", r.verdict),
                r.engine,
            )
        })
        .collect()
}

/// The unit-level demonstration that PDR proves what k-induction gives
/// up on, run directly on one property of the bitflip G-QED model.
#[test]
fn kind_unknown_but_pdr_proves_on_bitflip() {
    let entry = all_designs()
        .into_iter()
        .find(|e| e.name == DESIGN)
        .expect("bitflip is catalogued");
    let model = build_model(&entry.build_clean(), CheckKind::GQed);
    let bad = model
        .ts
        .bads
        .iter()
        .position(|b| b.name == "flow.orphan.c1")
        .expect("bitflip G-QED model has the orphan-response property");

    let limits = BmcLimits::default();
    match prove_k_induction_limited(&model.ctx, &model.ts, bad, 8, &limits) {
        ProofResult::Unknown { max_k } => assert_eq!(max_k, 8),
        other => panic!("k-induction unexpectedly settled bitflip: {other:?}"),
    }

    let opts = PdrOptions {
        max_queries: Some(PDR_QUERY_CAP),
        ..PdrOptions::default()
    };
    let out = prove_pdr_limited(&model.ctx, &model.ts, bad, &opts, &limits);
    match out.verdict {
        PdrVerdict::Proven { frames, .. } => assert!(frames > 8, "trivially shallow: {frames}"),
        other => panic!("PDR failed on bitflip: {other:?}"),
    }
    assert_eq!(out.stats.recheck_failures, 0);
    assert!(out.stats.queries <= PDR_QUERY_CAP);
}

/// Acceptance: the default portfolio settles the bitflip proof
/// obligation as `Proven` via the PDR engine, identically at one and four
/// workers — and an interrupted journaled portfolio campaign, resumed,
/// reproduces the uninterrupted summary byte for byte whether the proof
/// obligation was already settled or still pending at the crash.
#[test]
fn portfolio_proves_bitflip_deterministically_and_survives_resume() {
    let obls = bitflip_obligations();

    // Reference: an uninterrupted journaled single-worker run.
    let ref_path = tmp("ref.j1");
    let journal = Journal::create(&ref_path).unwrap();
    let reference = Campaign::new(&obls)
        .config(portfolio_config(1))
        .journal(&journal)
        .run(&Telemetry::null());
    drop(journal);
    assert!(reference.is_success(), "reference failed: {reference:?}");
    assert_eq!(reference.mismatches, 0);

    // The win: k-induction cannot settle this obligation (pinned by
    // `kind_unknown_but_pdr_proves_on_bitflip`), yet the
    // portfolio reports it Proven — decided by the PDR engine, with the
    // invariant having passed its re-check and the query
    // budget respected on every property.
    let prove = reference
        .records
        .iter()
        .find(|r| r.obligation.id == PROVE_ID)
        .unwrap();
    assert!(
        matches!(prove.verdict, JobVerdict::Proven { k } if k > 8),
        "expected a deep PDR proof, got {:?}",
        prove.verdict
    );
    assert_eq!(prove.engine, "pdr");
    let stats = prove.pdr_stats.as_ref().expect("PDR side ran");
    assert_eq!(stats.recheck_failures, 0);
    assert!(stats.ctis > 0 && stats.blocked_cubes > 0);
    assert!(stats.queries <= PDR_QUERY_CAP * model_bad_count() as u64);
    assert!(reference.wins_pdr >= 1, "no PDR win counted");

    // Worker-count independence of the racing portfolio: verdicts AND
    // engine attribution are exact, not merely normalized — the merge
    // policy is priority-ordered, never first-to-finish.
    let par = Campaign::new(&obls)
        .config(portfolio_config(4))
        .run(&Telemetry::null());
    assert_eq!(exact(&reference), exact(&par));

    // Resume with the proof obligation still pending: cut the journal
    // just before its verdict record was appended.
    let lines: Vec<String> = std::fs::read_to_string(&ref_path)
        .unwrap()
        .lines()
        .map(|l| format!("{l}\n"))
        .collect();
    let prove_line = lines
        .iter()
        .position(|l| l.contains(PROVE_ID))
        .expect("journal records the proof verdict");
    let cut_path = tmp("cut.j1");
    for (cut, prove_settled) in [(prove_line, false), (prove_line + 1, true)] {
        std::fs::write(&cut_path, lines[..cut].concat()).unwrap();
        let (journal, state) = Journal::resume(&cut_path).unwrap();
        assert_eq!(
            state.completed.contains_key(PROVE_ID),
            prove_settled,
            "cut at line {cut}"
        );
        let resumed = Campaign::new(&obls)
            .config(portfolio_config(1))
            .journal(&journal)
            .resume(&state)
            .run(&Telemetry::null());
        assert_eq!(resumed.replayed, state.completed.len());
        assert_eq!(
            resumed.normalized_render(),
            reference.normalized_render(),
            "resume diverged (cut at line {cut})"
        );
        if prove_settled {
            // Satellite: engine attribution round-trips through the
            // journal — the replayed record still credits PDR.
            let replayed = resumed
                .records
                .iter()
                .find(|r| r.obligation.id == PROVE_ID)
                .unwrap();
            assert_eq!(replayed.engine, "pdr");
        }
    }
    std::fs::remove_file(&ref_path).ok();
    std::fs::remove_file(&cut_path).ok();
}

/// Properties in the bitflip G-QED model (the PDR side's aggregate query
/// count is capped per property, not per obligation).
fn model_bad_count() -> usize {
    let entry = all_designs()
        .into_iter()
        .find(|e| e.name == DESIGN)
        .unwrap();
    build_model(&entry.build_clean(), CheckKind::GQed)
        .ts
        .bads
        .len()
}
