//! Property-based validation of the BMC engine against exhaustive
//! simulation.
//!
//! For random small transition systems with narrow inputs, a `bad`
//! property is reachable within bound `k` iff some input sequence of
//! length ≤ k+1 drives the simulator into it. Enumerating all sequences
//! gives ground truth to compare the engine's verdict against — this
//! closes the loop across bit-blasting, Tseitin, the SAT solver and trace
//! extraction at once.
//!
//! Driven by the workspace's deterministic splitmix64 PRNG: a failing
//! case number reproduces exactly.

use gqed_bmc::{prove_k_induction, BmcEngine, BmcResult, ProofResult};
use gqed_ir::{eval_terms, Context, Sim, TermId, TransitionSystem};
use gqed_logic::rng::SplitMix64;
use std::collections::HashMap;

/// A small random sequential design over one input and two state regs.
#[derive(Clone, Debug)]
struct RandomTs {
    widths: (u32, u32),
    consts: (u128, u128, u128),
    ops: (u8, u8, u8),
    target: u128,
}

fn build_ts(r: &RandomTs) -> (Context, TransitionSystem, TermId) {
    let (w1, w2) = (r.widths.0.clamp(2, 5), r.widths.1.clamp(2, 5));
    let mut ctx = Context::new();
    let inp = ctx.input("in", 2);
    let s1 = ctx.state("s1", w1);
    let s2 = ctx.state("s2", w2);

    let pick = |ctx: &mut Context, op: u8, a: TermId, b: TermId| {
        let b = if ctx.width(b) == ctx.width(a) {
            b
        } else {
            let w = ctx.width(a);
            let bw = ctx.width(b);
            if bw < w {
                ctx.zext(b, w)
            } else {
                ctx.extract(b, w - 1, 0)
            }
        };
        match op % 5 {
            0 => ctx.add(a, b),
            1 => ctx.xor(a, b),
            2 => ctx.sub(a, b),
            3 => ctx.and(a, b),
            _ => ctx.or(a, b),
        }
    };

    let inz1 = ctx.zext(inp, w1);
    let c1 = ctx.constant(r.consts.0, w1);
    let t1 = pick(&mut ctx, r.ops.0, s1, inz1);
    let n1 = pick(&mut ctx, r.ops.1, t1, c1);

    let inz2 = ctx.zext(inp, w2);
    let c2 = ctx.constant(r.consts.1, w2);
    let t2 = pick(&mut ctx, r.ops.2, s2, inz2);
    let s1x = pick(&mut ctx, r.ops.0 ^ 3, t2, s1);
    let n2 = pick(&mut ctx, r.ops.1 ^ 1, s1x, c2);

    let tgt = ctx.constant(r.target, w1);
    let hit1 = ctx.eq(s1, tgt);
    let c2b = ctx.constant(r.consts.2, w2);
    let hit2 = ctx.ult(c2b, s2);
    let bad = ctx.and(hit1, hit2);

    let init1 = ctx.zero(w1);
    let init2 = ctx.constant(1, w2);
    let mut ts = TransitionSystem::new("random");
    ts.inputs.push(inp);
    ts.add_state(s1, Some(init1), n1);
    ts.add_state(s2, Some(init2), n2);
    ts.add_bad("hit", bad);
    (ctx, ts, inp)
}

/// A random design: register widths in `2..5`, full-width constants and
/// operator bytes, and a target in `0..16`.
fn gen_ts(rng: &mut SplitMix64) -> RandomTs {
    RandomTs {
        widths: (2 + rng.below(3) as u32, 2 + rng.below(3) as u32),
        consts: (rng.next_u128(), rng.next_u128(), rng.next_u128()),
        ops: (
            rng.next_u64() as u8,
            rng.next_u64() as u8,
            rng.next_u64() as u8,
        ),
        target: u128::from(rng.below(16)),
    }
}

/// Ground truth: is the bad reachable within `bound` (inclusive) for any
/// input sequence? Exhaustive over the 2-bit input.
fn exhaustive_reachable(
    ctx: &Context,
    ts: &TransitionSystem,
    inp: TermId,
    bound: u32,
) -> Option<u32> {
    // BFS over concrete state values.
    let mut frontier: Vec<HashMap<TermId, u128>> = vec![ts
        .states
        .iter()
        .map(|s| {
            let v = s
                .init
                .map(|i| eval_terms(ctx, &[i], |_| None)[0])
                .unwrap_or(0);
            (s.term, v)
        })
        .collect()];
    for frame in 0..=bound {
        let mut next_frontier = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for state in &frontier {
            for iv in 0..4u128 {
                let mut sim = Sim::new(ctx, ts);
                for (&t, &v) in state {
                    sim = sim.with_initial(t, v);
                }
                let mut inputs = HashMap::new();
                inputs.insert(inp, iv);
                let r = sim.step(&inputs);
                if !r.fired_bads.is_empty() {
                    return Some(frame);
                }
                let ns: Vec<(TermId, u128)> = ts
                    .states
                    .iter()
                    .map(|s| (s.term, sim.state_value(s.term)))
                    .collect();
                let key: Vec<u128> = ns.iter().map(|&(_, v)| v).collect();
                if seen.insert(key) {
                    next_frontier.push(ns.into_iter().collect());
                }
            }
        }
        frontier = next_frontier;
    }
    None
}

/// Cone-of-influence reduction must never change a BMC verdict — even
/// on systems with states that are irrelevant to the property.
#[test]
fn coi_preserves_bmc_verdicts() {
    let mut rng = SplitMix64::new(0xC01_C01);
    for case in 0..60 {
        let r = gen_ts(&mut rng);
        let bound = rng.below(5) as u32;
        let (mut ctx, mut ts, _inp) = build_ts(&r);
        // Add an unrelated free-running register the property never reads.
        let junk = ctx.state("junk", 6);
        let jn = ctx.inc(junk);
        let z6 = ctx.zero(6);
        ts.add_state(junk, Some(z6), jn);

        let reduced = ts.cone_of_influence(&ctx);
        assert!(
            reduced.states.len() < ts.states.len(),
            "case {case}: junk must be pruned"
        );

        let mut e1 = BmcEngine::new(&ctx, &ts);
        let mut e2 = BmcEngine::new(&ctx, &reduced);
        let r1 = e1.check_up_to(bound);
        let r2 = e2.check_up_to(bound);
        assert_eq!(r1.is_violated(), r2.is_violated(), "case {case}: {r:?}");
        if let (Some(t1), Some(t2)) = (r1.trace(), r2.trace()) {
            assert_eq!(
                t1.len(),
                t2.len(),
                "case {case}: detection frame must match"
            );
        }
    }
}

#[test]
fn bmc_agrees_with_exhaustive_search() {
    let mut rng = SplitMix64::new(0xE4_4A57);
    for case in 0..60 {
        let r = gen_ts(&mut rng);
        let bound = rng.below(6) as u32;
        let (ctx, ts, inp) = build_ts(&r);
        let expected = exhaustive_reachable(&ctx, &ts, inp, bound);
        let mut engine = BmcEngine::new(&ctx, &ts);
        match engine.check_up_to(bound) {
            BmcResult::Violated(trace) => {
                let first = expected.unwrap_or_else(|| {
                    panic!("case {case}: BMC found a violation the exhaustive search missed: {r:?}")
                });
                // The engine searches frame by frame, so its trace must hit
                // the *first* reachable frame.
                assert_eq!(trace.len() as u32, first + 1, "case {case}: {r:?}");
            }
            BmcResult::NoneUpTo(_) => {
                assert_eq!(
                    expected, None,
                    "case {case}: BMC missed a reachable violation: {r:?}"
                );
            }
        }
    }
}

/// k-induction against the same ground truth: a proof must mean the bad
/// is unreachable at every depth (searched up to the size of the state
/// space, which bounds the diameter), a falsification must land on the
/// first reachable frame, and giving up must mean no violation within
/// the depth limit.
#[test]
fn kind_agrees_with_exhaustive_search() {
    let mut rng = SplitMix64::new(0x4B_1D);
    let max_k = 4;
    let mut proven = 0;
    for case in 0..60 {
        let r = gen_ts(&mut rng);
        let (ctx, ts, inp) = build_ts(&r);
        match prove_k_induction(&ctx, &ts, 0, max_k) {
            ProofResult::Proven { k } => {
                proven += 1;
                let diameter = 1u32 << ts.state_bits(&ctx);
                assert_eq!(
                    exhaustive_reachable(&ctx, &ts, inp, diameter),
                    None,
                    "case {case}: proven at k = {k} but reachable: {r:?}"
                );
            }
            ProofResult::Falsified(t) => {
                assert_eq!(
                    exhaustive_reachable(&ctx, &ts, inp, max_k),
                    Some(t.len() as u32 - 1),
                    "case {case}: {r:?}"
                );
            }
            ProofResult::Unknown { max_k: limit } => {
                assert_eq!(limit, max_k);
                assert_eq!(
                    exhaustive_reachable(&ctx, &ts, inp, max_k),
                    None,
                    "case {case}: gave up on a reachable violation: {r:?}"
                );
            }
            ProofResult::Cancelled { .. } => panic!("case {case}: no limits were set"),
        }
    }
    assert!(proven > 0, "no case exercised the inductive step");
}
