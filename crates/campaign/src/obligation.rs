//! Enumeration of the verification obligations implied by the HA catalog.
//!
//! One *obligation* is one independently runnable unit of verification
//! work with a stable identifier. The full campaign comprises, for every
//! design in [`gqed_ha::all_designs`]:
//!
//! * an A-QED applicability check on the clean build (Table 2a);
//! * a clean-design G-QED proof obligation, raced between BMC and
//!   IC3/PDR (the "passes G-QED" rows);
//! * per catalogued bug: a G-QED check at the bug's evaluation bound, a
//!   conventional-assertion check, and — on non-interfering designs
//!   only — an A-QED check (Table 2b).
//!
//! Obligation order (and therefore identifier order) is deterministic:
//! catalog order, clean obligations first, bugs in catalogue order.

use gqed_core::theory::{baseline_bound, evaluation_bound};
use gqed_core::CheckKind;
use gqed_ha::all_designs;

/// Which flows to enumerate obligations for.
#[derive(Clone, Copy, Debug)]
pub struct FlowFilter {
    /// Include G-QED obligations (bug checks and clean-design proofs).
    pub gqed: bool,
    /// Include A-QED obligations.
    pub aqed: bool,
    /// Include conventional-assertion obligations.
    pub conventional: bool,
}

impl FlowFilter {
    /// Every flow.
    pub fn all() -> Self {
        FlowFilter {
            gqed: true,
            aqed: true,
            conventional: true,
        }
    }
}

impl Default for FlowFilter {
    fn default() -> Self {
        Self::all()
    }
}

/// The work a single obligation performs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObligationKind {
    /// Bounded check of one flow at the given bound.
    Check {
        /// The flow to run.
        kind: CheckKind,
        /// BMC bound (inclusive).
        bound: u32,
    },
    /// Clean-design proof: race bounded G-QED BMC (up to `bound`) against
    /// IC3/PDR (under its query cap); a violation or a PDR proof settles
    /// the obligation and cancels the other engine.
    ProveClean {
        /// BMC bound for the racing bounded engine.
        bound: u32,
        /// Induction depth limit. No portfolio engine reads it; it stays
        /// because the wire format and the verdict-store key carry it.
        max_k: u32,
    },
    /// Test-only: a job whose body panics, exercising `catch_unwind`
    /// isolation. Never produced by [`enumerate_obligations`].
    DebugPanic,
    /// Test-only: a job that burns its whole conflict budget on a hard
    /// pigeonhole instance and never produces a verdict, exercising the
    /// Luby escalation path. Never produced by [`enumerate_obligations`].
    DebugExhaust,
}

/// Identifies a synthesized mutant: the runner regenerates the mutated
/// design deterministically from `(design, seed, ordinal)` via
/// [`gqed_ha::mutation::generate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutationSpec {
    /// Campaign seed.
    pub seed: u64,
    /// Per-design mutant ordinal.
    pub ordinal: u64,
    /// The mutant's bug-class tag ([`gqed_ha::MutationClass::tag`]) —
    /// carried for tables and telemetry, not needed for regeneration.
    pub class: &'static str,
}

/// One unit of verification work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Obligation {
    /// Stable identifier, e.g. `accum/carry-leak/gqed` or
    /// `accum/clean/prove`.
    pub id: String,
    /// Design name (a [`gqed_ha::all_designs`] entry).
    pub design: &'static str,
    /// Injected bug, `None` for the clean build.
    pub bug: Option<&'static str>,
    /// Synthesized mutation to apply instead of a catalogued bug
    /// (mutually exclusive with `bug`; `None` for catalogue obligations).
    pub mutation: Option<MutationSpec>,
    /// The work to perform.
    pub kind: ObligationKind,
    /// Catalogue ground truth: whether this obligation is expected to
    /// find a violation (`None` when the catalogue has no expectation,
    /// e.g. for the debug obligations).
    pub expect_violation: Option<bool>,
}

impl Obligation {
    /// Short flow tag for telemetry (`gqed`, `aqed`, `conv`, `prove`,
    /// `debug`).
    pub fn flow_tag(&self) -> &'static str {
        match &self.kind {
            ObligationKind::Check { kind, .. } => match kind {
                CheckKind::GQed => "gqed",
                CheckKind::AQed => "aqed",
                CheckKind::Conventional => "conv",
            },
            ObligationKind::ProveClean { .. } => "prove",
            ObligationKind::DebugPanic | ObligationKind::DebugExhaust => "debug",
        }
    }
}

/// Enumerates the campaign obligations for every catalogued design whose
/// name passes `design_filter` (empty filter = all designs), restricted to
/// the flows in `flows`. The order is deterministic.
pub fn enumerate_obligations(flows: FlowFilter, design_filter: &[String]) -> Vec<Obligation> {
    let mut out = Vec::new();
    for entry in all_designs() {
        if !design_filter.is_empty() && !design_filter.iter().any(|f| f == entry.name) {
            continue;
        }
        let clean = entry.build_clean();
        let rec = clean.meta.recommended_bound;
        // Table 2a: A-QED applicability on the clean build. On an
        // interfering design the *expected* outcome is a false alarm —
        // that demonstration is the obligation.
        if flows.aqed {
            out.push(Obligation {
                id: format!("{}/clean/aqed", entry.name),
                design: entry.name,
                bug: None,
                mutation: None,
                kind: ObligationKind::Check {
                    kind: CheckKind::AQed,
                    bound: rec.min(14),
                },
                expect_violation: Some(entry.interfering),
            });
        }
        // Clean-design G-QED proof obligation (raced BMC vs PDR).
        if flows.gqed {
            out.push(Obligation {
                id: format!("{}/clean/prove", entry.name),
                design: entry.name,
                bug: None,
                mutation: None,
                kind: ObligationKind::ProveClean {
                    bound: rec.min(12),
                    max_k: 8,
                },
                expect_violation: Some(false),
            });
        }
        // Table 2b: per-bug checks.
        for bug in (entry.bugs)() {
            let d = entry.build_buggy(bug.id);
            if flows.gqed {
                out.push(Obligation {
                    id: format!("{}/{}/gqed", entry.name, bug.id),
                    design: entry.name,
                    bug: Some(bug.id),
                    mutation: None,
                    kind: ObligationKind::Check {
                        kind: CheckKind::GQed,
                        bound: evaluation_bound(&d, &bug),
                    },
                    expect_violation: Some(bug.expected.gqed),
                });
            }
            if flows.aqed && !entry.interfering {
                out.push(Obligation {
                    id: format!("{}/{}/aqed", entry.name, bug.id),
                    design: entry.name,
                    bug: Some(bug.id),
                    mutation: None,
                    kind: ObligationKind::Check {
                        kind: CheckKind::AQed,
                        bound: baseline_bound(&d, &bug, bug.expected.aqed),
                    },
                    expect_violation: Some(bug.expected.aqed),
                });
            }
            if flows.conventional {
                out.push(Obligation {
                    id: format!("{}/{}/conv", entry.name, bug.id),
                    design: entry.name,
                    bug: Some(bug.id),
                    mutation: None,
                    kind: ObligationKind::Check {
                        kind: CheckKind::Conventional,
                        bound: baseline_bound(&d, &bug, bug.expected.conventional),
                    },
                    expect_violation: Some(bug.expected.conventional),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_enumeration_covers_catalogue() {
        let obls = enumerate_obligations(FlowFilter::all(), &[]);
        let designs = all_designs();
        let bug_total: usize = designs.iter().map(|e| (e.bugs)().len()).sum();
        let noninterfering_bugs: usize = designs
            .iter()
            .filter(|e| !e.interfering)
            .map(|e| (e.bugs)().len())
            .sum();
        // clean aqed + clean prove per design; gqed + conv per bug; aqed
        // per non-interfering bug.
        let expected = 2 * designs.len() + 2 * bug_total + noninterfering_bugs;
        assert_eq!(obls.len(), expected);
        // Identifiers are unique.
        let mut ids: Vec<&str> = obls.iter().map(|o| o.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), obls.len());
    }

    #[test]
    fn enumeration_is_deterministic() {
        let a = enumerate_obligations(FlowFilter::all(), &[]);
        let b = enumerate_obligations(FlowFilter::all(), &[]);
        assert_eq!(
            a.iter().map(|o| &o.id).collect::<Vec<_>>(),
            b.iter().map(|o| &o.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn design_filter_restricts() {
        let obls = enumerate_obligations(FlowFilter::all(), &["relu".to_string()]);
        assert!(!obls.is_empty());
        assert!(obls.iter().all(|o| o.design == "relu"));
    }

    #[test]
    fn flow_filter_restricts() {
        let only_conv = enumerate_obligations(
            FlowFilter {
                gqed: false,
                aqed: false,
                conventional: true,
            },
            &[],
        );
        assert!(only_conv.iter().all(|o| o.flow_tag() == "conv"));
        assert!(!only_conv.is_empty());
    }

    #[test]
    fn interfering_designs_have_no_buggy_aqed_obligations() {
        let obls = enumerate_obligations(FlowFilter::all(), &["accum".to_string()]);
        assert!(!obls
            .iter()
            .any(|o| o.bug.is_some() && o.flow_tag() == "aqed"));
        // ...but the clean applicability demonstration is present and
        // expects the false alarm.
        let clean_aqed = obls.iter().find(|o| o.id == "accum/clean/aqed").unwrap();
        assert_eq!(clean_aqed.expect_violation, Some(true));
    }
}
