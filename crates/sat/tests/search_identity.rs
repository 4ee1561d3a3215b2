//! Search-identity pins: the exact search counters of three fixed inputs.
//!
//! A change that only makes the solver faster must leave every counter
//! below as it is: same conflicts, decisions, propagations and restarts,
//! same variables eliminated, same clauses vivified. The pins were
//! recorded with the per-clause `Vec` storage that the flat clause arena
//! replaced, so they also hold the arena to the old search. A change that
//! alters the search on purpose updates the pins and says so in
//! CHANGES.md.

use gqed_logic::SplitMix64;
use gqed_sat::{SatResult, Solver};

/// `[conflicts, decisions, propagations, restarts, eliminated_vars,
/// vivified_clauses]`.
type Counters = [u64; 6];

fn counters(s: &Solver) -> Counters {
    let st = s.stats();
    [
        st.conflicts,
        st.decisions,
        st.propagations,
        st.restarts,
        st.eliminated_vars,
        st.vivified_clauses,
    ]
}

fn random_3sat(num_vars: i32, ratio: f64, seed: u64) -> Vec<Vec<i32>> {
    let mut rng = SplitMix64::new(seed);
    let clauses = (f64::from(num_vars) * ratio) as usize;
    (0..clauses)
        .map(|_| {
            let mut c = Vec::with_capacity(3);
            while c.len() < 3 {
                let v = rng.range_i32(1, num_vars);
                if !c.contains(&v) && !c.contains(&-v) {
                    c.push(if rng.next_bool() { v } else { -v });
                }
            }
            c
        })
        .collect()
}

fn pigeonhole(pigeons: usize) -> Vec<Vec<i32>> {
    let holes = pigeons - 1;
    let var = |p: usize, h: usize| (p * holes + h + 1) as i32;
    let mut clauses: Vec<Vec<i32>> = (0..pigeons)
        .map(|p| (0..holes).map(|h| var(p, h)).collect())
        .collect();
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(vec![-var(p1, h), -var(p2, h)]);
            }
        }
    }
    clauses
}

fn solve_fresh(clauses: &[Vec<i32>]) -> (SatResult, Counters) {
    let mut s = Solver::new();
    for c in clauses {
        s.add_clause(c);
    }
    let r = s.solve(&[]);
    if r == SatResult::Sat {
        assert!(clauses.iter().all(|c| c.iter().any(|&l| s.value(l))));
    }
    (r, counters(&s))
}

#[test]
fn random_3sat_search_is_pinned() {
    let pins: [(SatResult, Counters); 4] = [
        (SatResult::Sat, [3, 26, 107, 0, 0, 0]),
        (SatResult::Unsat, [264, 311, 5654, 2, 0, 0]),
        (SatResult::Unsat, [199, 248, 3762, 3, 0, 0]),
        (SatResult::Sat, [54, 79, 979, 0, 0, 0]),
    ];
    let got: Vec<_> = (0..4)
        .map(|seed| solve_fresh(&random_3sat(80, 4.1, seed)))
        .collect();
    assert_eq!(got, pins);
}

#[test]
fn pigeonhole_search_is_pinned() {
    let got = solve_fresh(&pigeonhole(7));
    assert_eq!(got, (SatResult::Unsat, [876, 1052, 11564, 9, 0, 0]));
}

/// Adds `n` Tseitin AND gates, each over two random literals of earlier
/// variables, appending the gate outputs to `gates`.
fn add_gates(s: &mut Solver, rng: &mut SplitMix64, n: usize, gates: &mut Vec<i32>) {
    for _ in 0..n {
        let top = s.num_vars() as i32;
        let mut pick = || {
            let v = rng.range_i32(1, top);
            if rng.next_bool() {
                v
            } else {
                -v
            }
        };
        let (a, b) = (pick(), pick());
        let g = s.new_var();
        s.add_clause(&[-g, a]);
        s.add_clause(&[-g, b]);
        s.add_clause(&[g, -a, -b]);
        gates.push(g);
    }
}

/// An incremental run in the shape BMC drives the solver: a random 3-SAT
/// base near the threshold, then Tseitin AND gates over random earlier
/// literals, queried under assumptions on gate outputs, with a second
/// batch of gates added between query rounds. Each batch is large enough
/// to schedule an inprocessing pass; the later gates and assumptions
/// mention variables the first pass eliminated, so restores happen; and
/// the conflicts are enough for database reductions, whose tombstones an
/// explicit compaction after each round reclaims.
#[test]
fn incremental_inprocessing_search_is_pinned() {
    let mut rng = SplitMix64::new(0x9ed_5a7);
    let mut s = Solver::new();
    for c in random_3sat(160, 4.15, 7) {
        s.add_clause(&c);
    }
    let mut gates: Vec<i32> = Vec::new();
    let mut verdicts = String::new();
    for round in 0..2 {
        add_gates(&mut s, &mut rng, 300, &mut gates);
        for _ in 0..12 {
            let mut assumptions = Vec::new();
            for _ in 0..2 + round {
                let g = gates[rng.below(gates.len() as u64) as usize];
                assumptions.push(if rng.next_bool() { g } else { -g });
            }
            let sat = s.solve(&assumptions) == SatResult::Sat;
            verdicts.push(if sat { 'S' } else { 'U' });
        }
        // Relocation must keep every order the search depends on.
        s.compact();
    }
    let st = s.stats();
    assert_eq!(
        (
            verdicts.as_str(),
            [
                st.simplify_rounds,
                st.restored_vars,
                st.deleted_clauses,
                st.compactions
            ],
            counters(&s)
        ),
        (
            "USUUSUSUUSUSUUUUUUUUUSSU",
            [2, 206, 3325, 2],
            [9253, 11222, 424317, 61, 567, 45]
        )
    );
}
