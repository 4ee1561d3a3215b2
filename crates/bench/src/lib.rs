//! Shared infrastructure for the evaluation harness.
//!
//! Every table (T1–T4) and figure (F1–F3) of the reconstructed evaluation
//! (see `DESIGN.md` §3) has a binary in `src/bin/` that regenerates it on
//! stdout in Markdown/CSV form. This library holds the pieces they share:
//! design metrics, Markdown emission, and the random-simulation baseline
//! used by F2.

#![warn(missing_docs)]
pub mod tables;

use gqed_ha::Design;
use gqed_ir::{BitBlaster, Context, Sim, TransitionSystem};
use gqed_logic::{Aig, SplitMix64};
use std::collections::HashMap;

/// Bit-blasts one frame of `ts` (all next-state functions plus outputs
/// and properties) and returns the AND-gate count — the "design size"
/// metric of Table 1 and the model sizes of Table 5.
pub fn gate_count(ctx: &Context, ts: &TransitionSystem) -> usize {
    let mut aig = Aig::new();
    let mut blaster = BitBlaster::new();
    let mut leaf = |aig: &mut Aig, _t, w: u32| (0..w).map(|_| aig.input()).collect::<Vec<_>>();
    for root in ts.roots() {
        let _ = blaster.blast(ctx, &mut aig, root, &mut leaf);
    }
    aig.num_ands()
}

/// Renders one Markdown table row.
pub fn md_row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Renders a Markdown header row plus separator.
pub fn md_header(cells: &[&str]) -> String {
    format!(
        "| {} |\n|{}|",
        cells.join(" | "),
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    )
}

/// Outcome of the random-differential-simulation baseline (Figure 2).
#[derive(Clone, Copy, Debug)]
pub enum ExposeResult {
    /// First cycle at which the buggy build observably diverged from the
    /// clean build.
    ExposedAt(u64),
    /// No divergence within the cycle budget.
    NotExposed(u64),
}

/// The simulation baseline: drive the buggy and the clean build of a
/// design in lockstep with identical random stimulus (handshake and
/// payloads) and report the first cycle where their *delivered responses*
/// diverge (or where the buggy build hangs while the clean one responds).
///
/// This models the conventional constrained-random regression a
/// traditional flow relies on; comparing its exposure depth against the
/// BMC counterexample length reproduces the QED line's
/// "dramatically shorter counterexamples" claim.
pub fn random_differential_expose(
    clean: &Design,
    buggy: &Design,
    seed: u64,
    max_cycles: u64,
) -> ExposeResult {
    let mut rng = SplitMix64::new(seed);
    let mut sim_c = Sim::new(&clean.ctx, &clean.ts);
    let mut sim_b = Sim::new(&buggy.ctx, &buggy.ts);
    // Uninitialized states in the buggy build start at a random value
    // (that is what "uninitialized" means on silicon).
    for s in &buggy.ts.states {
        if s.init.is_none() {
            let w = buggy.ctx.width(s.term);
            sim_b = sim_b.with_initial(s.term, rng.bits(w));
        }
    }

    let mut inp_c: HashMap<gqed_ir::TermId, u128> = HashMap::new();
    let mut inp_b: HashMap<gqed_ir::TermId, u128> = HashMap::new();
    for cycle in 0..max_cycles {
        // Identical stimulus for both builds (the interfaces are
        // structurally identical, so payload k of one maps to payload k
        // of the other).
        let iv = u128::from(rng.next_bool());
        let or = u128::from(rng.ratio(3, 4)); // mostly responsive env
        inp_c.insert(clean.iface.in_valid, iv);
        inp_b.insert(buggy.iface.in_valid, iv);
        inp_c.insert(clean.iface.out_ready, or);
        inp_b.insert(buggy.iface.out_ready, or);
        for (pc, pb) in clean.iface.in_payload.iter().zip(&buggy.iface.in_payload) {
            let w = clean.ctx.width(*pc);
            let v = rng.bits(w);
            inp_c.insert(*pc, v);
            inp_b.insert(*pb, v);
        }

        // Observe delivered responses this cycle.
        let deliver_c = sim_c.peek(&inp_c, clean.iface.out_valid) == 1 && or == 1;
        let deliver_b = sim_b.peek(&inp_b, buggy.iface.out_valid) == 1 && or == 1;
        if deliver_c != deliver_b {
            return ExposeResult::ExposedAt(cycle);
        }
        if deliver_c && deliver_b {
            for (oc, ob) in clean.iface.out_payload.iter().zip(&buggy.iface.out_payload) {
                let vc = sim_c.peek(&inp_c, *oc);
                let vb = sim_b.peek(&inp_b, *ob);
                if vc != vb {
                    return ExposeResult::ExposedAt(cycle);
                }
            }
        }
        // (A hang — one build responding while the other never does —
        // surfaces as a delivery mismatch at the responder's delivery
        // cycle, so no separate hang tracking is needed.)
        sim_c.step(&inp_c);
        sim_b.step(&inp_b);
    }
    ExposeResult::NotExposed(max_cycles)
}

/// Mean exposure depth of the simulation baseline over `seeds` runs
/// (unexposed runs count as the full budget — an optimistic lower bound
/// for the baseline).
pub fn mean_expose_depth(clean: &Design, buggy: &Design, seeds: u64, max_cycles: u64) -> f64 {
    let mut total = 0u64;
    for s in 0..seeds {
        total += match random_differential_expose(clean, buggy, 0xf00d + s, max_cycles) {
            ExposeResult::ExposedAt(c) => c + 1,
            ExposeResult::NotExposed(c) => c,
        };
    }
    total as f64 / seeds as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqed_ha::designs::accum;

    #[test]
    fn gate_count_positive_and_stable() {
        let d = accum::build(&accum::Params::default(), None);
        let g1 = gate_count(&d.ctx, &d.ts);
        let g2 = gate_count(&d.ctx, &d.ts);
        assert!(g1 > 50, "accum should have a nontrivial gate count");
        assert_eq!(g1, g2);
    }

    #[test]
    fn differential_sim_exposes_observable_bug() {
        let clean = accum::build(&accum::Params::default(), None);
        let buggy = accum::build(&accum::Params::default(), Some("carry-leak"));
        let mut exposed = 0;
        for seed in 0..5 {
            if let ExposeResult::ExposedAt(_) =
                random_differential_expose(&clean, &buggy, seed, 5_000)
            {
                exposed += 1;
            }
        }
        assert!(
            exposed >= 3,
            "carry-leak should usually expose in 5k cycles"
        );
    }

    #[test]
    fn differential_sim_clean_vs_clean_never_diverges() {
        let a = accum::build(&accum::Params::default(), None);
        let b = accum::build(&accum::Params::default(), None);
        for seed in 0..3 {
            assert!(matches!(
                random_differential_expose(&a, &b, seed, 2_000),
                ExposeResult::NotExposed(_)
            ));
        }
    }

    #[test]
    fn markdown_helpers_shape() {
        let h = md_header(&["a", "b"]);
        assert!(h.starts_with("| a | b |\n|---|---|"));
        assert_eq!(md_row(&["1".into(), "2".into()]), "| 1 | 2 |");
    }
}
