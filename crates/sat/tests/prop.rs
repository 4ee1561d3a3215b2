//! Property-based validation of the CDCL solver against brute force.
//!
//! Random small CNFs are solved both by exhaustive enumeration and by the
//! CDCL engine; verdicts must agree, and every SAT model must actually
//! satisfy the formula. Assumptions and incremental clause addition are
//! fuzzed the same way — these paths carry the BMC engine, so they get the
//! heaviest scrutiny.
//!
//! The fuzz is seeded (SplitMix64), so every run checks the same
//! instances and needs nothing beyond the workspace.

use gqed_logic::SplitMix64;
use gqed_sat::{SatResult, Solver};

fn brute_force_sat(num_vars: i32, clauses: &[Vec<i32>], fixed: &[i32]) -> bool {
    'outer: for m in 0u32..(1 << num_vars) {
        let val = |l: i32| {
            let b = m >> (l.unsigned_abs() - 1) & 1 != 0;
            if l > 0 {
                b
            } else {
                !b
            }
        };
        for &f in fixed {
            if !val(f) {
                continue 'outer;
            }
        }
        if clauses.iter().all(|c| c.iter().any(|&l| val(l))) {
            return true;
        }
    }
    false
}

fn model_satisfies(s: &Solver, clauses: &[Vec<i32>]) -> bool {
    clauses.iter().all(|c| c.iter().any(|&l| s.value(l)))
}

/// A random 3-clause over `1..=nv` with distinct variables.
fn random_clause(rng: &mut SplitMix64, nv: i32, max_len: usize) -> Vec<i32> {
    let len = 1 + rng.below(max_len as u64) as usize;
    let mut c: Vec<i32> = Vec::new();
    while c.len() < len {
        let v = rng.range_i32(1, nv);
        if !c.contains(&v) && !c.contains(&-v) {
            c.push(if rng.next_bool() { v } else { -v });
        }
    }
    c
}

/// Seeded replacement for the proptest agreement suite: random small CNFs
/// checked against exhaustive enumeration, including assumption solving
/// and incremental addition. Runs offline on every `cargo test`.
#[test]
fn seeded_fuzz_agrees_with_brute_force() {
    let mut rng = SplitMix64::new(0xdac_2023);
    for round in 0..300 {
        let nv = 2 + rng.below(9) as i32; // 2..=10 variables
        let nc = 1 + rng.below(40) as usize;
        let clauses: Vec<Vec<i32>> = (0..nc)
            .map(|_| random_clause(&mut rng, nv, nv.min(4) as usize))
            .collect();
        let mut s = Solver::new();
        for _ in 0..nv {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c);
        }
        let expect = brute_force_sat(nv, &clauses, &[]);
        let got = s.solve(&[]);
        assert_eq!(got == SatResult::Sat, expect, "round {round}");
        if got == SatResult::Sat {
            assert!(model_satisfies(&s, &clauses), "round {round}: bad model");
        }

        // Assumption agreement on the same formula.
        let assumps: Vec<i32> = (1..=nv.min(3))
            .map(|v| if rng.next_bool() { v } else { -v })
            .collect();
        let expect_a = brute_force_sat(nv, &clauses, &assumps);
        let got_a = s.solve(&assumps);
        assert_eq!(got_a == SatResult::Sat, expect_a, "round {round} (assumed)");
        if got_a == SatResult::Sat {
            assert!(model_satisfies(&s, &clauses));
            for &a in &assumps {
                assert!(s.value(a), "round {round}: assumption {a} violated");
            }
        }
        // The solver must remain usable and consistent afterwards.
        assert_eq!(s.solve(&[]) == SatResult::Sat, expect, "round {round}");
    }
}

/// Seeded replacement for the incremental-vs-monolithic proptest.
#[test]
fn seeded_incremental_matches_monolithic() {
    let mut rng = SplitMix64::new(0x1c4e_beef);
    for round in 0..150 {
        let nv = 2 + rng.below(9) as i32;
        let nc = 2 + rng.below(30) as usize;
        let clauses: Vec<Vec<i32>> = (0..nc)
            .map(|_| random_clause(&mut rng, nv, nv.min(4) as usize))
            .collect();
        let split = rng.below(clauses.len() as u64) as usize;
        let mut s = Solver::new();
        for _ in 0..nv {
            s.new_var();
        }
        for c in &clauses[..split] {
            s.add_clause(c);
        }
        let _ = s.solve(&[]);
        for c in &clauses[split..] {
            s.add_clause(c);
        }
        let got = s.solve(&[]);
        let expect = brute_force_sat(nv, &clauses, &[]);
        assert_eq!(got == SatResult::Sat, expect, "round {round}");
        if got == SatResult::Sat {
            assert!(model_satisfies(&s, &clauses), "round {round}");
        }
        // Verdicts must be stable across repeated solves.
        for _ in 0..3 {
            assert_eq!(s.solve(&[]), got, "round {round}: instability");
        }
    }
}

/// Deterministic regression: a formula family that exercises restarts and
/// clause-database reduction (many conflicts).
#[test]
fn random_hard_instances_solved_consistently() {
    let mut rng = SplitMix64::new(0x6_9ed);
    for round in 0..8 {
        let nv = 30;
        // Near the 3-SAT phase transition (ratio ≈ 4.26) instances are hard.
        let nc = (nv as f64 * 4.26) as usize;
        let mut clauses = Vec::new();
        for _ in 0..nc {
            let mut c = Vec::new();
            while c.len() < 3 {
                let v = rng.range_i32(1, nv);
                if !c.contains(&v) && !c.contains(&-v) {
                    c.push(if rng.next_bool() { v } else { -v });
                }
            }
            clauses.push(c);
        }
        let mut s = Solver::new();
        for c in &clauses {
            s.add_clause(c);
        }
        let r1 = s.solve(&[]);
        if r1 == SatResult::Sat {
            assert!(
                clauses.iter().all(|c| c.iter().any(|&l| s.value(l))),
                "round {round}: invalid model"
            );
        }
        // Solve again from scratch: verdict must match.
        let mut s2 = Solver::new();
        for c in &clauses {
            s2.add_clause(c);
        }
        assert_eq!(s2.solve(&[]), r1, "round {round}: verdict instability");
    }
}
