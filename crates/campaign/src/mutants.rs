//! Mutation campaigns: obligation synthesis and the detection-rate table
//! for generatively injected bugs (`gqed mutants`).
//!
//! [`enumerate_mutant_obligations`] drives [`gqed_ha::mutation::generate`]
//! over the catalogue: per design it walks mutant ordinals, discarding
//! candidates whose observable-IR fingerprint equals the clean design's
//! (semantic no-ops — never solved) and deduping the rest by fingerprint
//! (the campaign never pays twice for one variant), until `per_design`
//! distinct mutants are accepted. Each accepted mutant becomes one bounded
//! obligation per enabled flow, with `expect_violation` derived from the
//! mutation site's reachability class: a site provably outside a flow's
//! observable cone expects *no* violation (a violation there is a false
//! positive and fails the campaign), a site inside the cone may or may not
//! be detected (`None` — a miss is honest inconclusiveness).
//!
//! [`MutantsReport`] folds the campaign summary into a per-design ×
//! bug-class detection-rate table with engine attribution, rendered to
//! `BENCH_mutants.json` with a CI regression gate: zero false positives on
//! negative controls and out-of-cone sites, a detection-rate floor, and
//! full synthesis (every design produced its requested mutant count).
//!
//! Everything here is a pure function of `(seed, per_design, flows,
//! design filter)` plus the summary, so the table and the JSON report are
//! byte-identical at any worker count and across interrupt/resume.

use crate::json::JsonValue;
use crate::obligation::{FlowFilter, MutationSpec, Obligation, ObligationKind};
use crate::runner::CampaignSummary;
use gqed_core::fingerprint::fnv1a64;
use gqed_core::CheckKind;
use gqed_ha::all_designs;
use gqed_ha::mutation::{self, FlowDetectability, MutationClass};
use std::collections::{HashMap, HashSet};

/// Hard per-design ordinal cap: synthesis stops after this many candidate
/// ordinals even if fewer than `per_design` mutants were accepted (the
/// report's regression gate then flags the design as exhausted).
fn ordinal_cap(per_design: usize) -> u64 {
    per_design as u64 * 64 + 16
}

/// Default detection-rate floor for the regression gate (fraction of
/// maybe-detectable mutants that must be detected). Calibrated on the
/// seeded CI batch; `gqed mutants --floor` overrides it.
pub const DEFAULT_DETECTION_FLOOR: f64 = 0.25;

/// One accepted mutant of the batch plan.
#[derive(Clone, Debug)]
pub struct MutantPlan {
    /// Design name.
    pub design: &'static str,
    /// Mutant ordinal (`generate(entry, seed, ordinal)`).
    pub ordinal: u64,
    /// Synthesized bug class.
    pub class: MutationClass,
    /// Site description from the generator.
    pub label: String,
    /// Reachability-derived ground truth.
    pub detectable: FlowDetectability,
    /// FNV-1a 64 fingerprint of the mutant's observable rendering.
    pub fingerprint: u64,
}

/// A synthesized mutation campaign: the accepted mutant plans, their
/// obligations, and the discard statistics.
#[derive(Clone, Debug)]
pub struct MutantBatch {
    /// Campaign seed.
    pub seed: u64,
    /// Requested mutants per design.
    pub per_design: usize,
    /// Accepted mutants, in deterministic (design, ordinal) order.
    pub plans: Vec<MutantPlan>,
    /// One obligation per accepted mutant × enabled flow, in plan order.
    pub obligations: Vec<Obligation>,
    /// Candidates discarded because their fingerprint equals the clean
    /// design's (semantic no-ops — includes every fold-noop control).
    pub discarded_noops: usize,
    /// Candidates discarded as duplicates of an already-accepted mutant.
    pub discarded_dups: usize,
    /// Designs whose ordinal cap was reached before `per_design` mutants
    /// were accepted.
    pub exhausted: Vec<&'static str>,
}

/// Synthesizes the mutant obligations for every catalogued design passing
/// `design_filter` (empty = all), restricted to `flows`. Deterministic in
/// all arguments; independent of worker count by construction.
pub fn enumerate_mutant_obligations(
    seed: u64,
    per_design: usize,
    flows: FlowFilter,
    design_filter: &[String],
) -> MutantBatch {
    let mut plans = Vec::new();
    let mut obligations = Vec::new();
    let mut discarded_noops = 0usize;
    let mut discarded_dups = 0usize;
    let mut exhausted = Vec::new();
    for entry in all_designs() {
        if !design_filter.is_empty() && !design_filter.iter().any(|f| f == entry.name) {
            continue;
        }
        let clean = entry.build_clean();
        let bound = clean.meta.recommended_bound.min(12);
        let clean_fp = fnv1a64(mutation::observable_render(&clean).as_bytes());
        let mut seen: HashSet<u64> = HashSet::new();
        let mut accepted = 0usize;
        let cap = ordinal_cap(per_design);
        for ordinal in 0..cap {
            if accepted >= per_design {
                break;
            }
            let m = mutation::generate(&entry, seed, ordinal);
            let fp = fnv1a64(mutation::observable_render(&m.design).as_bytes());
            if fp == clean_fp {
                discarded_noops += 1;
                continue;
            }
            if !seen.insert(fp) {
                discarded_dups += 1;
                continue;
            }
            let tag = m.class.tag();
            let spec = MutationSpec {
                seed,
                ordinal,
                class: tag,
            };
            let stem = format!("{}/mut-s{}-{:04}-{}", entry.name, seed, ordinal, tag);
            let expect = |in_cone: bool| if in_cone { None } else { Some(false) };
            if flows.gqed {
                obligations.push(Obligation {
                    id: format!("{stem}/gqed"),
                    design: entry.name,
                    bug: None,
                    mutation: Some(spec),
                    kind: ObligationKind::Check {
                        kind: CheckKind::GQed,
                        bound,
                    },
                    expect_violation: expect(m.detectable.gqed),
                });
            }
            if flows.aqed && !entry.interfering {
                obligations.push(Obligation {
                    id: format!("{stem}/aqed"),
                    design: entry.name,
                    bug: None,
                    mutation: Some(spec),
                    kind: ObligationKind::Check {
                        kind: CheckKind::AQed,
                        bound,
                    },
                    expect_violation: expect(m.detectable.aqed),
                });
            }
            if flows.conventional {
                obligations.push(Obligation {
                    id: format!("{stem}/conv"),
                    design: entry.name,
                    bug: None,
                    mutation: Some(spec),
                    kind: ObligationKind::Check {
                        kind: CheckKind::Conventional,
                        bound,
                    },
                    expect_violation: expect(m.detectable.conventional),
                });
            }
            plans.push(MutantPlan {
                design: entry.name,
                ordinal,
                class: m.class,
                label: m.label,
                detectable: m.detectable,
                fingerprint: fp,
            });
            accepted += 1;
        }
        if accepted < per_design {
            exhausted.push(entry.name);
        }
    }
    MutantBatch {
        seed,
        per_design,
        plans,
        obligations,
        discarded_noops,
        discarded_dups,
        exhausted,
    }
}

/// One row of the detection-rate table: a (design, bug class) cell.
#[derive(Clone, Debug, Default)]
pub struct MutantRow {
    /// Mutants of this class accepted for this design.
    pub mutants: usize,
    /// Mutants with at least one flow violation.
    pub detected: usize,
    /// Maybe-detectable mutants with conclusive non-violations everywhere.
    pub missed: usize,
    /// Maybe-detectable mutants with a non-conclusive obligation and no
    /// violation (unknown / timeout / failed / cancelled).
    pub inconclusive: usize,
}

/// The mutation-campaign report (`BENCH_mutants.json`).
#[derive(Clone, Debug)]
pub struct MutantsReport {
    /// Campaign seed.
    pub seed: u64,
    /// Requested mutants per design.
    pub per_design: usize,
    /// Detection-rate floor for the regression gate.
    pub floor: f64,
    /// Per (design, class) cells, in design-catalogue then class order.
    pub table: Vec<(&'static str, MutationClass, MutantRow)>,
    /// Accepted mutants.
    pub mutants: usize,
    /// Mutants detected by at least one flow.
    pub detected: usize,
    /// Maybe-detectable mutants missed everywhere (conclusively).
    pub missed: usize,
    /// Maybe-detectable mutants with at least one inconclusive verdict
    /// and no detection.
    pub inconclusive: usize,
    /// Mutants undetectable by every enumerated flow (negative controls
    /// and out-of-cone sites) — must never be "detected".
    pub controls: usize,
    /// Violations reported on obligations expecting none — the gate's
    /// hard zero.
    pub false_positives: usize,
    /// Fingerprint-identical candidates rejected before solving.
    pub discarded_noops: usize,
    /// Duplicate candidates rejected before solving.
    pub discarded_dups: usize,
    /// Designs that could not fill their requested mutant count.
    pub exhausted: Vec<&'static str>,
    /// Violations attributed to the bounded BMC engine.
    pub wins_bmc: usize,
    /// Violations attributed to the IC3/PDR engine.
    pub wins_pdr: usize,
}

impl MutantsReport {
    /// Folds a finished campaign summary over its batch plan into the
    /// detection-rate report.
    ///
    /// # Panics
    ///
    /// Panics if the summary's mutant obligations don't match the batch
    /// (wrong campaign passed in).
    pub fn from_summary(batch: &MutantBatch, summary: &CampaignSummary, floor: f64) -> Self {
        // Group the summary's mutant records by (design, ordinal).
        struct Cell {
            violated: bool,
            inconclusive: bool,
            maybe: bool, // any flow with expect None (in-cone)
        }
        let mut cells: HashMap<(&'static str, u64), Cell> = HashMap::new();
        let mut false_positives = 0usize;
        let mut wins = (0usize, 0usize);
        for r in &summary.records {
            let Some(m) = r.obligation.mutation else {
                continue;
            };
            assert_eq!(m.seed, batch.seed, "summary is from a different batch");
            let cell = cells
                .entry((r.obligation.design, m.ordinal))
                .or_insert(Cell {
                    violated: false,
                    inconclusive: false,
                    maybe: false,
                });
            if r.verdict.is_violation() {
                cell.violated = true;
                if r.obligation.expect_violation == Some(false) {
                    false_positives += 1;
                }
                match r.engine {
                    "bmc" => wins.0 += 1,
                    "pdr" => wins.1 += 1,
                    _ => {}
                }
            } else if !r.verdict.is_conclusive() {
                cell.inconclusive = true;
            }
            if r.obligation.expect_violation.is_none() {
                cell.maybe = true;
            }
        }

        let mut table: HashMap<(&'static str, MutationClass), MutantRow> = HashMap::new();
        let (mut detected, mut missed, mut inconclusive, mut controls) = (0, 0, 0, 0);
        for p in &batch.plans {
            let row = table.entry((p.design, p.class)).or_default();
            row.mutants += 1;
            let Some(cell) = cells.get(&(p.design, p.ordinal)) else {
                continue; // obligations filtered out entirely (e.g. no flows)
            };
            if cell.violated {
                row.detected += 1;
                detected += 1;
            } else if !cell.maybe {
                controls += 1;
            } else if cell.inconclusive {
                row.inconclusive += 1;
                inconclusive += 1;
            } else {
                row.missed += 1;
                missed += 1;
            }
        }
        // Deterministic row order: catalogue design order, then class
        // order — never hash order.
        let mut ordered = Vec::new();
        for entry in all_designs() {
            for &class in MutationClass::all() {
                if let Some(row) = table.remove(&(entry.name, class)) {
                    ordered.push((entry.name, class, row));
                }
            }
        }
        MutantsReport {
            seed: batch.seed,
            per_design: batch.per_design,
            floor,
            table: ordered,
            mutants: batch.plans.len(),
            detected,
            missed,
            inconclusive,
            controls,
            false_positives,
            discarded_noops: batch.discarded_noops,
            discarded_dups: batch.discarded_dups,
            exhausted: batch.exhausted.clone(),
            wins_bmc: wins.0,
            wins_pdr: wins.1,
        }
    }

    /// Detected fraction of the conclusively decided maybe-detectable
    /// mutants; `None` when nothing was decided.
    pub fn detection_rate(&self) -> Option<f64> {
        let decided = self.detected + self.missed;
        if decided == 0 {
            None
        } else {
            Some(self.detected as f64 / decided as f64)
        }
    }

    /// The CI regression gate: `Some(reason)` on any false positive, a
    /// detection rate under the floor, or a design that could not fill
    /// its requested mutant count.
    pub fn regression(&self) -> Option<String> {
        if self.false_positives > 0 {
            return Some(format!(
                "{} violation(s) on obligations expecting none (no-op controls / out-of-cone sites)",
                self.false_positives
            ));
        }
        if let Some(rate) = self.detection_rate() {
            if rate < self.floor {
                return Some(format!(
                    "detection rate {rate:.4} below floor {:.4} ({} detected / {} missed)",
                    self.floor, self.detected, self.missed
                ));
            }
        }
        if !self.exhausted.is_empty() {
            return Some(format!(
                "design(s) exhausted their ordinal cap before {} mutants: {}",
                self.per_design,
                self.exhausted.join(", ")
            ));
        }
        None
    }

    /// The `BENCH_mutants.json` document (fixed field order, byte-stable).
    pub fn to_json(&self) -> JsonValue {
        let mut rows = Vec::new();
        for (design, class, row) in &self.table {
            rows.push(
                JsonValue::obj()
                    .field("design", *design)
                    .field("class", class.tag())
                    .field("mutants", row.mutants as u64)
                    .field("detected", row.detected as u64)
                    .field("missed", row.missed as u64)
                    .field("inconclusive", row.inconclusive as u64),
            );
        }
        JsonValue::obj()
            .field("bench", "mutants")
            .field("seed", self.seed)
            .field("per_design", self.per_design as u64)
            .field("mutants", self.mutants as u64)
            .field("detected", self.detected as u64)
            .field("missed", self.missed as u64)
            .field("inconclusive", self.inconclusive as u64)
            .field("controls", self.controls as u64)
            .field("false_positives", self.false_positives as u64)
            .field("discarded_noops", self.discarded_noops as u64)
            .field("discarded_dups", self.discarded_dups as u64)
            .field(
                "exhausted",
                JsonValue::Array(
                    self.exhausted
                        .iter()
                        .map(|d| JsonValue::Str((*d).to_string()))
                        .collect(),
                ),
            )
            .field("detection_rate", self.detection_rate())
            .field("floor", self.floor)
            .field("wins_bmc", self.wins_bmc as u64)
            .field("wins_pdr", self.wins_pdr as u64)
            .field("table", JsonValue::Array(rows))
            .field("regression", self.regression().is_some())
    }

    /// Fixed-width detection-rate table for the CLI (deterministic).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:<21} {:>7} {:>8} {:>6} {:>12}\n",
            "design", "class", "mutants", "detected", "missed", "inconclusive"
        ));
        for (design, class, row) in &self.table {
            out.push_str(&format!(
                "{:<10} {:<21} {:>7} {:>8} {:>6} {:>12}\n",
                design,
                class.tag(),
                row.mutants,
                row.detected,
                row.missed,
                row.inconclusive
            ));
        }
        match self.detection_rate() {
            Some(rate) => out.push_str(&format!(
                "detection rate: {rate:.4} ({} detected / {} missed / {} inconclusive, {} controls)\n",
                self.detected, self.missed, self.inconclusive, self.controls
            )),
            None => out.push_str("detection rate: n/a (nothing decided)\n"),
        }
        out.push_str(&format!(
            "discarded before solving: {} no-ops, {} duplicates; false positives: {}\n",
            self.discarded_noops, self.discarded_dups, self.false_positives
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_deterministic_and_deduped() {
        let a = enumerate_mutant_obligations(9, 4, FlowFilter::all(), &["relu".to_string()]);
        let b = enumerate_mutant_obligations(9, 4, FlowFilter::all(), &["relu".to_string()]);
        assert_eq!(
            a.obligations, b.obligations,
            "enumeration must be reproducible"
        );
        assert_eq!(a.plans.len(), 4);
        let fps: HashSet<u64> = a.plans.iter().map(|p| p.fingerprint).collect();
        assert_eq!(fps.len(), a.plans.len(), "fingerprints must be distinct");
        // The fold-noop control (ordinal 1) is always discarded pre-solve.
        assert!(a.discarded_noops >= 1);
        // The shadow-counter control (ordinal 0) is always accepted.
        assert_eq!(a.plans[0].class, MutationClass::NoopControl);
        assert!(a.plans[0].detectable.none());
    }

    #[test]
    fn seed_changes_obligation_ids() {
        let a = enumerate_mutant_obligations(1, 3, FlowFilter::all(), &["relu".to_string()]);
        let b = enumerate_mutant_obligations(2, 3, FlowFilter::all(), &["relu".to_string()]);
        // Ids embed the seed, so a resume against a different seed's
        // journal fails the manifest CRC instead of replaying wrong
        // verdicts.
        assert_ne!(
            a.obligations.iter().map(|o| &o.id).collect::<Vec<_>>(),
            b.obligations.iter().map(|o| &o.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn interfering_designs_get_no_aqed_obligations() {
        let batch = enumerate_mutant_obligations(1, 3, FlowFilter::all(), &["accum".to_string()]);
        assert!(!batch.obligations.is_empty());
        assert!(batch.obligations.iter().all(|o| o.flow_tag() != "aqed"));
    }

    #[test]
    fn out_of_cone_sites_expect_no_violation() {
        let batch = enumerate_mutant_obligations(1, 3, FlowFilter::all(), &["relu".to_string()]);
        for (p, o) in batch
            .plans
            .iter()
            .zip(batch.obligations.iter().filter(|o| o.flow_tag() == "gqed"))
        {
            if !p.detectable.gqed {
                assert_eq!(o.expect_violation, Some(false), "{}", o.id);
            } else {
                assert_eq!(o.expect_violation, None, "{}", o.id);
            }
        }
    }
}
