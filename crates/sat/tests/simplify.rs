//! Property-based validation of inprocessing (subsumption, bounded
//! variable elimination, vivification).
//!
//! Random small CNFs solved with a forced simplification pass must agree
//! — verdicts *and* models — with both brute-force enumeration and a
//! solver running with simplification disabled, including under
//! assumptions (which exercise eliminated-variable restore) and across
//! incremental clause additions (restore-on-demand). UNSAT runs with
//! proof logging on must still produce DRAT refutations the in-tree RUP
//! checker accepts.

use gqed_logic::SplitMix64;
use gqed_sat::drat::check_rup_proof;
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

/// Simplification on vs. off must agree with each other and with brute
/// force, on plain solving, under assumptions, and after incremental
/// additions that mention eliminated variables.
#[test]
fn seeded_fuzz_simplify_on_off_agree() {
    let mut rng = SplitMix64::new(0x51A4_11F1);
    for round in 0..250 {
        let nv = 3 + rng.below(8) as i32; // 3..=10 variables
        let nc = 2 + rng.below(35) as usize;
        let clauses: Vec<Vec<i32>> = (0..nc)
            .map(|_| random_clause(&mut rng, nv, nv.min(4) as usize))
            .collect();

        let mut on = Solver::new();
        let mut off = Solver::new();
        off.set_simplify(false);
        for s in [&mut on, &mut off] {
            for _ in 0..nv {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
        }
        // Force a pass (the scheduled trigger needs hundreds of clauses).
        on.simplify();

        let expect = brute_force_sat(nv, &clauses, &[]);
        let got_on = on.solve(&[]);
        let got_off = off.solve(&[]);
        assert_eq!(got_on, got_off, "round {round}: on/off disagree");
        assert_eq!(got_on == SatResult::Sat, expect, "round {round}");
        if got_on == SatResult::Sat {
            assert!(
                model_satisfies(&on, &clauses),
                "round {round}: simplified model violates a clause"
            );
        }

        // Assumptions over possibly-eliminated variables: the solver must
        // restore them on demand and still agree with brute force.
        let assumps: Vec<i32> = (1..=nv.min(3))
            .map(|v| if rng.next_bool() { v } else { -v })
            .collect();
        let expect_a = brute_force_sat(nv, &clauses, &assumps);
        let got_a = on.solve(&assumps);
        assert_eq!(got_a == SatResult::Sat, expect_a, "round {round} (assumed)");
        if got_a == SatResult::Sat {
            assert!(model_satisfies(&on, &clauses), "round {round} (assumed)");
            for &a in &assumps {
                assert!(on.value(a), "round {round}: assumption {a} violated");
            }
        }

        // Incremental: new clauses mentioning any variable (eliminated or
        // not) keep the solver sound.
        let extra: Vec<Vec<i32>> = (0..1 + rng.below(5) as usize)
            .map(|_| random_clause(&mut rng, nv, nv.min(3) as usize))
            .collect();
        let mut all = clauses.clone();
        for c in &extra {
            on.add_clause(c);
            off.add_clause(c);
            all.push(c.clone());
        }
        on.simplify();
        let expect_i = brute_force_sat(nv, &all, &[]);
        let got_i = on.solve(&[]);
        assert_eq!(got_i, off.solve(&[]), "round {round} (incremental)");
        assert_eq!(
            got_i == SatResult::Sat,
            expect_i,
            "round {round} (incremental)"
        );
        if got_i == SatResult::Sat {
            assert!(model_satisfies(&on, &all), "round {round} (incremental)");
        }
    }
}

/// DRAT proofs logged across simplification (strengthening, BVE
/// resolvents, vivification) must pass the independent RUP checker.
#[test]
fn simplified_unsat_runs_yield_checkable_proofs() {
    let mut rng = SplitMix64::new(0xd7a7_2026);
    let mut checked = 0;
    for _ in 0..60 {
        let nv = 12;
        let nc = 80; // well above the unsat threshold
        let clauses: Vec<Vec<i32>> = (0..nc).map(|_| random_clause(&mut rng, nv, 3)).collect();
        let mut s = Solver::new();
        s.enable_proof();
        for c in &clauses {
            s.add_clause(c);
        }
        s.simplify();
        let r = s.solve(&[]);
        if r == SatResult::Unsat {
            let proof = s.take_proof();
            assert_eq!(check_rup_proof(&clauses, &proof), Ok(()));
            checked += 1;
        }
    }
    assert!(checked >= 10, "too few unsat instances sampled: {checked}");
}

/// A chain formula whose interior variables are prime elimination
/// targets: elimination must actually fire, the model must stay valid,
/// and a later clause over an eliminated variable must restore it.
#[test]
fn chain_elimination_and_restore() {
    let mut s = Solver::new();
    let n = 12;
    for _ in 0..n {
        s.new_var();
    }
    let clauses: Vec<Vec<i32>> = (1..n).map(|i| vec![-i, i + 1]).collect(); // i → i+1
    for c in &clauses {
        s.add_clause(c);
    }
    s.simplify();
    assert!(
        s.stats().eliminated_vars > 0,
        "chain variables should be eliminable"
    );
    assert_eq!(s.solve(&[]), SatResult::Sat);
    assert!(
        model_satisfies(&s, &clauses),
        "reconstructed model violates a chain clause"
    );
    // A new unit over an eliminated variable restores it (cascading into
    // the rest of the chain its saved clauses mention).
    s.add_clause(&[1]);
    assert_eq!(s.solve(&[]), SatResult::Sat);
    assert!(s.stats().restored_vars > 0, "restore-on-demand never fired");
    for v in 1..=n {
        assert!(s.value(v), "chain variable {v} should be true");
    }
    s.add_clause(&[-n]);
    assert_eq!(s.solve(&[]), SatResult::Unsat);
}

/// Frozen variables must survive elimination and stay usable as
/// assumption literals without a restore.
#[test]
fn frozen_variables_are_not_eliminated() {
    let mut s = Solver::new();
    let n = 10;
    for _ in 0..n {
        s.new_var();
    }
    for i in 1..n {
        s.add_clause(&[-i, i + 1]);
    }
    for v in 1..=n {
        s.freeze(v);
    }
    s.simplify();
    assert_eq!(
        s.stats().eliminated_vars,
        0,
        "frozen variables were eliminated"
    );
    assert_eq!(s.solve(&[n]), SatResult::Sat);
    assert_eq!(s.solve(&[1, -n]), SatResult::Unsat);
    // Unfreezing re-opens them to the next pass.
    for v in 1..=n {
        s.unfreeze(v);
    }
    s.simplify();
    assert_eq!(s.solve(&[]), SatResult::Sat);
}

/// Distinct random literals over variables `1..=top`.
fn random_lits(rng: &mut SplitMix64, top: i32, n: usize) -> Vec<i32> {
    let mut out: Vec<i32> = Vec::new();
    while out.len() < n {
        let v = rng.range_i32(1, top);
        if !out.contains(&v) && !out.contains(&-v) {
            out.push(if rng.next_bool() { v } else { -v });
        }
    }
    out
}

/// AND-gate definitions `x ↔ (a ∧ b [∧ c])` make BVE candidates whose
/// saved clauses differ in length: binary implications next to one long
/// clause. Some of the eliminated gate outputs are then restored through
/// assumptions and through new clauses; every verdict must match brute
/// force and every model must satisfy every clause ever added, the
/// eliminated variables' saved clauses included.
#[test]
fn mixed_length_eliminations_restore_soundly() {
    let mut rng = SplitMix64::new(0xE11A_5EED);
    let (mut eliminated, mut restored) = (0, 0);
    for round in 0..200 {
        let nv = 8 + rng.below(5) as i32; // 8..=12 variables
        let gates = 2 + rng.below(3) as i32; // the top 2..=4 are gate outputs
        let base = nv - gates;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for x in base + 1..=nv {
            let fanin = 2 + rng.below(2) as usize;
            let ins = random_lits(&mut rng, x - 1, fanin);
            for &i in &ins {
                clauses.push(vec![-x, i]);
            }
            let mut long: Vec<i32> = ins.iter().map(|&i| -i).collect();
            long.push(x);
            clauses.push(long);
        }
        for _ in 0..rng.below(2 * base as u64) {
            clauses.push(random_clause(&mut rng, base, 3));
        }

        let mut s = Solver::new();
        for _ in 0..nv {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c);
        }
        s.simplify();
        eliminated += s.stats().eliminated_vars;

        let check = |s: &Solver, got: SatResult, all: &[Vec<i32>], fixed: &[i32], what: &str| {
            let expect = brute_force_sat(nv, all, fixed);
            assert_eq!(got == SatResult::Sat, expect, "round {round} ({what})");
            if got == SatResult::Sat {
                assert!(model_satisfies(s, all), "round {round} ({what}): bad model");
                for &f in fixed {
                    assert!(
                        s.value(f),
                        "round {round} ({what}): assumption {f} violated"
                    );
                }
            }
        };
        let got = s.solve(&[]);
        check(&s, got, &clauses, &[], "plain");

        // Restore through assumptions on gate outputs.
        let assumps: Vec<i32> = (base + 1..=nv)
            .map(|x| match rng.below(3) {
                0 => x,
                1 => -x,
                _ => 0,
            })
            .filter(|&l| l != 0)
            .collect();
        let got = s.solve(&assumps);
        check(&s, got, &clauses, &assumps, "assumed");

        // Restore through new clauses tying a gate output to a base literal.
        let x = rng.range_i32(base + 1, nv);
        let extra = vec![
            if rng.next_bool() { x } else { -x },
            random_lits(&mut rng, base, 1)[0],
        ];
        s.add_clause(&extra);
        clauses.push(extra);
        s.simplify();
        let got = s.solve(&[]);
        check(&s, got, &clauses, &[], "incremental");
        restored += s.stats().restored_vars;
    }
    assert!(eliminated > 0, "no variable was ever eliminated");
    assert!(restored > 0, "no eliminated variable was ever restored");
}
