//! Detection integration tests (Theorem 2, empirically): representative
//! bugs from every class are caught by the flows the catalogue says
//! should catch them — and missed by the flows it says should miss them.
//!
//! The complete 48-bug × 3-flow sweep lives in the Table 2 generator
//! (`cargo run -p gqed-bench --bin table2`); this suite keeps one
//! representative per (design-family, bug-class) cell so `cargo test`
//! stays minutes, not hours.

use gqed::core::theory::{baseline_bound, evaluation_bound};
use gqed::core::{check_design, CheckKind};
use gqed::ha::all_designs;

fn run_case(design: &str, bug: &str) {
    let entry = all_designs()
        .into_iter()
        .find(|e| e.name == design)
        .unwrap();
    let info = (entry.bugs)()
        .into_iter()
        .find(|b| b.id == bug)
        .unwrap_or_else(|| panic!("{design} has no bug '{bug}'"));
    let d = entry.build_buggy(bug);
    let bound = evaluation_bound(&d, &info);

    let g = check_design(&d, CheckKind::GQed, bound);
    assert_eq!(
        g.verdict.is_violation(),
        info.expected.gqed,
        "{design}::{bug}: G-QED expected {} got {:?}",
        info.expected.gqed,
        g.verdict
    );

    // Baseline flows use the shared policy from `gqed_core::theory` (same
    // as the Table 2 generator): deep enough for an expected detection —
    // the run stops at the violating frame anyway — and the cheap
    // recommended bound for escape demonstrations.
    let c = check_design(
        &d,
        CheckKind::Conventional,
        baseline_bound(&d, &info, info.expected.conventional),
    );
    assert_eq!(
        c.verdict.is_violation(),
        info.expected.conventional,
        "{design}::{bug}: conventional expected {} got {:?}",
        info.expected.conventional,
        c.verdict
    );

    // A-QED expectations only apply on non-interfering designs (on
    // interfering ones any violation may be a false alarm, so the verdict
    // carries no detection information).
    if !entry.interfering {
        let a = check_design(
            &d,
            CheckKind::AQed,
            baseline_bound(&d, &info, info.expected.aqed),
        );
        assert_eq!(
            a.verdict.is_violation(),
            info.expected.aqed,
            "{design}::{bug}: A-QED expected {} got {:?}",
            info.expected.aqed,
            a.verdict
        );
    }
}

#[test]
fn context_dependent_interfering_accum() {
    run_case("accum", "backpressure-acc-corrupt");
}

#[test]
fn state_leak_interfering_accum() {
    run_case("accum", "carry-leak");
}

#[test]
fn uninitialized_interfering_crc() {
    run_case("crc32", "uninit-crc");
}

#[test]
fn context_dependent_interfering_crc() {
    run_case("crc32", "feed-drop-on-stall");
}

#[test]
fn consistent_functional_escape_crc() {
    run_case("crc32", "init-partial");
}

#[test]
fn handshake_hang_dma() {
    run_case("dma", "len-zero-hang");
}

#[test]
fn industrial_cfg_leak_dma() {
    run_case("dma", "cfg-leak-while-busy");
}

#[test]
fn context_dependent_non_interfering_vecadd() {
    run_case("vecadd", "result-recomputed-from-bus");
}

#[test]
fn state_leak_non_interfering_alu() {
    run_case("alu", "flag-leak");
}

#[test]
fn canonical_aqed_bug_matvec() {
    run_case("matvec", "mac-not-cleared");
}

#[test]
fn context_dependent_caught_by_reference_matvec() {
    // Offering the next request while busy corrupts the current
    // transaction's own dot product, so the conventional reference
    // assertion catches it too (a 3-cycle trace).
    run_case("matvec", "index-stuck-on-early-valid");
}

#[test]
fn consistent_functional_escape_vecadd() {
    run_case("vecadd", "nibble-carry-break");
}

#[test]
fn context_dependent_interfering_movavg() {
    run_case("movavg", "shift-during-stall");
}

#[test]
fn context_dependent_interfering_histogram() {
    run_case("histogram", "double-inc-on-early-valid");
}

#[test]
fn hang_bug_kvstore() {
    // The deep live-bus case (del-uses-live-bus, ~14-cycle witness on the
    // largest design) lives in the Table 2 sweep; the suite keeps the
    // shallow RB representative so `cargo test` stays tractable.
    run_case("kvstore", "hang-on-del-miss");
}

#[test]
fn pipelined_bubble_collapse_pipeadd() {
    run_case("pipeadd", "stall-collapses-bubble");
}

#[test]
fn pipelined_ghost_response_pipeadd() {
    run_case("pipeadd", "uninit-stage2");
}
