//! Property-based cross-validation of the three semantic layers.
//!
//! A random word-level term DAG is evaluated (a) by the concrete evaluator
//! and (b) by bit-blasting to an AIG and simulating the AIG; the results
//! must agree bit-for-bit. This is the load-bearing guarantee of the whole
//! stack: BMC verdicts are only as trustworthy as the bit-blaster.
//!
//! Driven by the workspace's deterministic splitmix64 PRNG: each case's
//! DAG, widths and input values come from one seeded stream, so a failing
//! case number reproduces exactly.

use gqed_ir::{BitBlaster, Context, TermId};
use gqed_logic::rng::SplitMix64;
use gqed_logic::Aig;

/// Recipe for one random DAG node.
#[derive(Clone, Debug)]
enum NodeRecipe {
    Const(u128),
    Input,
    Not(usize),
    Neg(usize),
    And(usize, usize),
    Or(usize, usize),
    Xor(usize, usize),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Eq(usize, usize),
    Ult(usize, usize),
    Slt(usize, usize),
    Ite(usize, usize, usize),
    Concat(usize, usize),
    Extract(usize, u32, u32),
    Zext(usize, u32),
    Sext(usize, u32),
    Shl(usize, usize),
    Lshr(usize, usize),
    Redor(usize),
    Redand(usize),
}

/// One random DAG node; operand indices are drawn from `0..64` and wrap
/// onto the nodes built so far.
fn gen_recipe(rng: &mut SplitMix64) -> NodeRecipe {
    let mut idx = || rng.below(64) as usize;
    let (a, b, c) = (idx(), idx(), idx());
    match rng.below(22) {
        0 => NodeRecipe::Const(rng.next_u128()),
        1 => NodeRecipe::Input,
        2 => NodeRecipe::Not(a),
        3 => NodeRecipe::Neg(a),
        4 => NodeRecipe::And(a, b),
        5 => NodeRecipe::Or(a, b),
        6 => NodeRecipe::Xor(a, b),
        7 => NodeRecipe::Add(a, b),
        8 => NodeRecipe::Sub(a, b),
        9 => NodeRecipe::Mul(a, b),
        10 => NodeRecipe::Eq(a, b),
        11 => NodeRecipe::Ult(a, b),
        12 => NodeRecipe::Slt(a, b),
        13 => NodeRecipe::Ite(a, b, c),
        14 => NodeRecipe::Concat(a, b),
        15 => NodeRecipe::Extract(a, rng.below(16) as u32, rng.below(16) as u32),
        16 => NodeRecipe::Zext(a, 1 + rng.below(23) as u32),
        17 => NodeRecipe::Sext(a, 1 + rng.below(23) as u32),
        18 => NodeRecipe::Shl(a, b),
        19 => NodeRecipe::Lshr(a, b),
        20 => NodeRecipe::Redor(a),
        _ => NodeRecipe::Redand(a),
    }
}

/// A random case: `1..max_nodes` recipes, `1..8` widths in `1..16`, and
/// 64 full-width input values.
fn gen_case(rng: &mut SplitMix64, max_nodes: u64) -> (Vec<NodeRecipe>, Vec<u32>, Vec<u128>) {
    let n = 1 + rng.below(max_nodes - 1) as usize;
    let recipes = (0..n).map(|_| gen_recipe(rng)).collect();
    let nw = 1 + rng.below(7) as usize;
    let widths = (0..nw).map(|_| 1 + rng.below(15) as u32).collect();
    let input_vals = (0..64).map(|_| rng.next_u128()).collect();
    (recipes, widths, input_vals)
}

/// Builds a term DAG from recipes, fixing up widths so every node is legal.
/// Returns (context, all nodes, input terms).
fn build_dag(recipes: &[NodeRecipe], widths: &[u32]) -> (Context, Vec<TermId>, Vec<TermId>) {
    let mut ctx = Context::new();
    let mut nodes: Vec<TermId> = Vec::new();
    let mut inputs: Vec<TermId> = Vec::new();
    // Seed nodes so references always resolve.
    let w0 = widths[0].clamp(1, 16);
    let seed = ctx.input("seed", w0);
    nodes.push(seed);
    inputs.push(seed);

    for (i, r) in recipes.iter().enumerate() {
        let w = widths[i % widths.len()].clamp(1, 16);
        let pick = |k: usize| nodes[k % nodes.len()];
        let t = match r.clone() {
            NodeRecipe::Const(v) => ctx.constant(v, w),
            NodeRecipe::Input => {
                let t = ctx.input(format!("in{i}"), w);
                inputs.push(t);
                t
            }
            NodeRecipe::Not(a) => ctx.not(pick(a)),
            NodeRecipe::Neg(a) => ctx.neg(pick(a)),
            NodeRecipe::And(a, b) => {
                let (x, y) = same_width(&mut ctx, pick(a), pick(b));
                ctx.and(x, y)
            }
            NodeRecipe::Or(a, b) => {
                let (x, y) = same_width(&mut ctx, pick(a), pick(b));
                ctx.or(x, y)
            }
            NodeRecipe::Xor(a, b) => {
                let (x, y) = same_width(&mut ctx, pick(a), pick(b));
                ctx.xor(x, y)
            }
            NodeRecipe::Add(a, b) => {
                let (x, y) = same_width(&mut ctx, pick(a), pick(b));
                ctx.add(x, y)
            }
            NodeRecipe::Sub(a, b) => {
                let (x, y) = same_width(&mut ctx, pick(a), pick(b));
                ctx.sub(x, y)
            }
            NodeRecipe::Mul(a, b) => {
                let (x, y) = same_width(&mut ctx, pick(a), pick(b));
                ctx.mul(x, y)
            }
            NodeRecipe::Eq(a, b) => {
                let (x, y) = same_width(&mut ctx, pick(a), pick(b));
                ctx.eq(x, y)
            }
            NodeRecipe::Ult(a, b) => {
                let (x, y) = same_width(&mut ctx, pick(a), pick(b));
                ctx.ult(x, y)
            }
            NodeRecipe::Slt(a, b) => {
                let (x, y) = same_width(&mut ctx, pick(a), pick(b));
                ctx.slt(x, y)
            }
            NodeRecipe::Ite(c, a, b) => {
                let cw = pick(c);
                let c1 = to_bool(&mut ctx, cw);
                let (x, y) = same_width(&mut ctx, pick(a), pick(b));
                ctx.ite(c1, x, y)
            }
            NodeRecipe::Concat(a, b) => {
                let (x, y) = (pick(a), pick(b));
                if ctx.width(x) + ctx.width(y) <= 32 {
                    ctx.concat(x, y)
                } else {
                    x
                }
            }
            NodeRecipe::Extract(a, h, l) => {
                let x = pick(a);
                let w = ctx.width(x);
                let (h, l) = (h.min(w - 1), l.min(w - 1));
                let (h, l) = (h.max(l), l.min(h));
                ctx.extract(x, h, l)
            }
            NodeRecipe::Zext(a, extra) => {
                let x = pick(a);
                let target = (ctx.width(x) + extra % 8).min(32);
                ctx.zext(x, target)
            }
            NodeRecipe::Sext(a, extra) => {
                let x = pick(a);
                let target = (ctx.width(x) + extra % 8).min(32);
                ctx.sext(x, target)
            }
            NodeRecipe::Shl(a, s) => ctx.shl(pick(a), pick(s)),
            NodeRecipe::Lshr(a, s) => ctx.lshr(pick(a), pick(s)),
            NodeRecipe::Redor(a) => ctx.redor(pick(a)),
            NodeRecipe::Redand(a) => ctx.redand(pick(a)),
        };
        nodes.push(t);
    }
    (ctx, nodes, inputs)
}

fn same_width(ctx: &mut Context, a: TermId, b: TermId) -> (TermId, TermId) {
    let (wa, wb) = (ctx.width(a), ctx.width(b));
    if wa == wb {
        (a, b)
    } else if wa < wb {
        (ctx.zext(a, wb), b)
    } else {
        (a, ctx.zext(b, wa))
    }
}

fn to_bool(ctx: &mut Context, t: TermId) -> TermId {
    if ctx.width(t) == 1 {
        t
    } else {
        ctx.redor(t)
    }
}

#[test]
fn bitblast_agrees_with_eval() {
    let mut rng = SplitMix64::new(0xB17_B1A5);
    for case in 0..200 {
        let (recipes, widths, input_vals) = gen_case(&mut rng, 60);
        let (ctx, nodes, inputs) = build_dag(&recipes, &widths);
        let root = *nodes.last().unwrap();

        // Concrete evaluation.
        let val_of = |t: TermId| {
            inputs.iter().position(|&i| i == t).map(|k| {
                let w = ctx.width(t);
                input_vals[k % input_vals.len()] & if w >= 128 { u128::MAX } else { (1 << w) - 1 }
            })
        };
        let expect = gqed_ir::eval_terms(&ctx, &[root], val_of)[0];

        // Bit-blast and simulate the AIG on the same valuation.
        let mut aig = Aig::new();
        let mut blaster = BitBlaster::new();
        let mut leaf_order: Vec<TermId> = Vec::new();
        let bits = blaster.blast(&ctx, &mut aig, root, &mut |aig, t, w| {
            leaf_order.push(t);
            (0..w).map(|_| aig.input()).collect()
        });
        let mut aig_inputs: Vec<bool> = Vec::new();
        for &t in &leaf_order {
            let v = val_of(t).expect("leaf is an input");
            for i in 0..ctx.width(t) {
                aig_inputs.push(v >> i & 1 != 0);
            }
        }
        let got: u128 = bits
            .iter()
            .enumerate()
            .map(|(i, &b)| u128::from(aig.eval(b, &aig_inputs)) << i)
            .sum();
        assert_eq!(got, expect, "case {case}: bit-blast/eval divergence");
    }
}

#[test]
fn instantiation_preserves_semantics() {
    let mut rng = SplitMix64::new(0x1D_5B57);
    for case in 0..200 {
        // Substituting every leaf with itself must produce a term that
        // evaluates identically (the instantiation engine's identity case).
        let (recipes, widths, input_vals) = gen_case(&mut rng, 40);
        let (mut ctx, nodes, inputs) = build_dag(&recipes, &widths);
        let root = *nodes.last().unwrap();
        let mut map: std::collections::HashMap<TermId, TermId> =
            inputs.iter().map(|&i| (i, i)).collect();
        gqed_ir::ts::substitute_all(&mut ctx, &[root], &mut map);
        let root2 = map[&root];

        let val_of = |t: TermId| {
            inputs.iter().position(|&i| i == t).map(|k| {
                let w = ctx.width(t);
                input_vals[k % input_vals.len()] & if w >= 128 { u128::MAX } else { (1 << w) - 1 }
            })
        };
        let v1 = gqed_ir::eval_terms(&ctx, &[root], val_of)[0];
        let v2 = gqed_ir::eval_terms(&ctx, &[root2], val_of)[0];
        assert_eq!(v1, v2, "case {case}: substitution changed the value");
    }
}
