//! Cross-validation of solver refutations: every Unsat verdict on an
//! assumption-free formula must come with a DRAT proof that the
//! independent RUP checker accepts.

use gqed_logic::SplitMix64;
use gqed_sat::drat::{check_rup_proof, to_drat, ProofStep};
use gqed_sat::{SatResult, Solver};

fn solve_with_proof(clauses: &[Vec<i32>]) -> (SatResult, Vec<ProofStep>) {
    let mut s = Solver::new();
    s.enable_proof();
    for c in clauses {
        s.add_clause(c);
    }
    let r = s.solve(&[]);
    (r, s.take_proof())
}

fn pigeonhole(pigeons: usize) -> Vec<Vec<i32>> {
    let holes = pigeons - 1;
    let var = |p: usize, h: usize| (p * holes + h + 1) as i32;
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        clauses.push((0..holes).map(|h| var(p, h)).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(vec![-var(p1, h), -var(p2, h)]);
            }
        }
    }
    clauses
}

#[test]
fn pigeonhole_refutations_check() {
    for p in 3..=6usize {
        let clauses = pigeonhole(p);
        let (r, proof) = solve_with_proof(&clauses);
        assert_eq!(r, SatResult::Unsat);
        assert!(!proof.is_empty());
        check_rup_proof(&clauses, &proof)
            .unwrap_or_else(|e| panic!("PHP({p}): proof rejected: {e}"));
        // The textual form round-trips basic shape.
        let text = to_drat(&proof);
        assert!(text.ends_with("0\n"));
    }
}

#[test]
fn xor_chain_refutations_check() {
    // x1 ⊕ x2, x2 ⊕ x3, …, xn ⊕ x1 with odd parity is unsatisfiable.
    for n in [3usize, 5, 7] {
        let mut clauses = Vec::new();
        for i in 0..n {
            let a = (i + 1) as i32;
            let b = ((i + 1) % n + 1) as i32;
            // a ⊕ b = 1 around the whole cycle: XOR-ing all n equations
            // gives 0 = n mod 2, contradictory for odd n.
            clauses.push(vec![a, b]);
            clauses.push(vec![-a, -b]);
        }
        let (r, proof) = solve_with_proof(&clauses);
        assert_eq!(r, SatResult::Unsat, "n = {n}");
        assert_eq!(check_rup_proof(&clauses, &proof), Ok(()), "n = {n}");
    }
}

#[test]
fn random_unsat_instances_yield_checkable_proofs() {
    let mut rng = SplitMix64::new(2023);
    let mut checked = 0;
    for _ in 0..60 {
        let nv = 12;
        let nc = 80; // well above the unsat threshold
        let clauses: Vec<Vec<i32>> = (0..nc)
            .map(|_| {
                let mut c = Vec::new();
                while c.len() < 3 {
                    let v = rng.range_i32(1, nv);
                    if !c.contains(&v) && !c.contains(&-v) {
                        c.push(if rng.next_bool() { v } else { -v });
                    }
                }
                c
            })
            .collect();
        let (r, proof) = solve_with_proof(&clauses);
        if r == SatResult::Unsat {
            assert_eq!(check_rup_proof(&clauses, &proof), Ok(()));
            checked += 1;
        }
    }
    assert!(checked >= 10, "too few unsat instances sampled: {checked}");
}
