//! Concrete (cycle-accurate) semantics: term evaluation and the reference
//! simulator.
//!
//! [`eval_terms`] evaluates a set of root terms bottom-up given a valuation
//! of the leaves (inputs and states). [`Sim`] drives a
//! [`TransitionSystem`] cycle by cycle; it is
//! the ground truth the bit-blaster and BMC engine are validated against,
//! and the replay oracle used to confirm every counterexample the paper's
//! flow reports (soundness in practice).

use crate::term::{mask, sign_val, Context, Op, TermId};
use crate::ts::TransitionSystem;
use std::collections::HashMap;

/// Evaluates `roots` bottom-up. `leaf` must return the value of every
/// input/state term reachable from the roots; other term kinds are computed.
///
/// Values are returned masked to their term widths.
///
/// # Panics
///
/// Panics if `leaf` returns `None` for a reachable input or state.
pub fn eval_terms(
    ctx: &Context,
    roots: &[TermId],
    leaf: impl Fn(TermId) -> Option<u128>,
) -> Vec<u128> {
    let mut cache: HashMap<TermId, u128> = HashMap::new();
    for &root in roots {
        eval_into(ctx, root, &leaf, &mut cache);
    }
    roots.iter().map(|r| cache[r]).collect()
}

fn eval_into(
    ctx: &Context,
    root: TermId,
    leaf: &impl Fn(TermId) -> Option<u128>,
    cache: &mut HashMap<TermId, u128>,
) {
    // Iterative post-order to tolerate deep DAGs.
    let mut stack: Vec<(TermId, bool)> = vec![(root, false)];
    while let Some((t, expanded)) = stack.pop() {
        if cache.contains_key(&t) {
            continue;
        }
        if !expanded {
            stack.push((t, true));
            for o in ctx.operands(t) {
                if !cache.contains_key(&o) {
                    stack.push((o, false));
                }
            }
            continue;
        }
        let w = ctx.width(t);
        let get = |x: TermId| cache[&x];
        let v = match ctx.op(t) {
            Op::Const(c) => c,
            Op::Input(_) | Op::State(_) => leaf(t).unwrap_or_else(|| {
                panic!(
                    "no value supplied for leaf '{}'",
                    ctx.var_name(t).unwrap_or("?")
                )
            }),
            Op::Not(a) => !get(a),
            Op::Neg(a) => get(a).wrapping_neg(),
            Op::And(a, b) => get(a) & get(b),
            Op::Or(a, b) => get(a) | get(b),
            Op::Xor(a, b) => get(a) ^ get(b),
            Op::Add(a, b) => get(a).wrapping_add(get(b)),
            Op::Sub(a, b) => get(a).wrapping_sub(get(b)),
            Op::Mul(a, b) => get(a).wrapping_mul(get(b)),
            Op::Eq(a, b) => u128::from(get(a) == get(b)),
            Op::Ult(a, b) => u128::from(get(a) < get(b)),
            Op::Slt(a, b) => {
                let wa = ctx.width(a);
                u128::from(sign_val(get(a), wa) < sign_val(get(b), wa))
            }
            Op::Ite(c, x, y) => {
                if get(c) != 0 {
                    get(x)
                } else {
                    get(y)
                }
            }
            Op::Concat(hi, lo) => {
                let wl = ctx.width(lo);
                get(hi) << wl | get(lo)
            }
            Op::Extract(a, _, lo) => get(a) >> lo,
            Op::Zext(a) => get(a),
            Op::Sext(a) => {
                let wa = ctx.width(a);
                let v = get(a);
                if v >> (wa - 1) & 1 != 0 {
                    v | (mask(w) & !mask(wa))
                } else {
                    v
                }
            }
            Op::Shl(a, s) => {
                let sv = get(s);
                if sv >= u128::from(w) {
                    0
                } else {
                    get(a) << sv
                }
            }
            Op::Lshr(a, s) => {
                let sv = get(s);
                if sv >= u128::from(w) {
                    0
                } else {
                    get(a) >> sv
                }
            }
            Op::Redor(a) => u128::from(get(a) != 0),
            Op::Redand(a) => {
                let wa = ctx.width(a);
                u128::from(get(a) == mask(wa))
            }
        };
        cache.insert(t, v & mask(w));
    }
}

/// Result of one simulated cycle.
#[derive(Clone, Debug)]
pub struct StepResult {
    /// Value of each named output, in the system's output order.
    pub outputs: Vec<u128>,
    /// Indices of violated environment constraints this cycle.
    pub violated_constraints: Vec<usize>,
    /// Indices of `bad` properties that fired this cycle.
    pub fired_bads: Vec<usize>,
}

/// Cycle-accurate simulator for a [`TransitionSystem`].
///
/// States with an `init` expression start at its (constant-evaluated)
/// value; uninitialized states start at the value supplied via
/// [`Sim::with_initial`] (default 0).
pub struct Sim<'a> {
    ctx: &'a Context,
    ts: &'a TransitionSystem,
    /// Current value of each state, keyed by the state term.
    state_vals: HashMap<TermId, u128>,
    cycle: u64,
}

impl<'a> Sim<'a> {
    /// Creates a simulator positioned at cycle 0, all states at their
    /// initial values (uninitialized states at 0).
    pub fn new(ctx: &'a Context, ts: &'a TransitionSystem) -> Self {
        let mut state_vals = HashMap::new();
        for st in &ts.states {
            let v = match st.init {
                Some(init) => {
                    let vals = eval_terms(ctx, &[init], |t| {
                        panic!(
                            "init expression must be constant; found leaf '{}'",
                            ctx.var_name(t).unwrap_or("?")
                        )
                    });
                    vals[0]
                }
                None => 0,
            };
            state_vals.insert(st.term, v);
        }
        Sim {
            ctx,
            ts,
            state_vals,
            cycle: 0,
        }
    }

    /// Overrides the starting value of an (uninitialized) state. Must be
    /// called before the first [`Sim::step`].
    pub fn with_initial(mut self, state: TermId, value: u128) -> Self {
        assert_eq!(self.cycle, 0, "with_initial must precede stepping");
        let w = self.ctx.width(state);
        self.state_vals.insert(state, value & mask(w));
        self
    }

    /// Current cycle number (number of completed steps).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current value of a state.
    pub fn state_value(&self, state: TermId) -> u128 {
        self.state_vals[&state]
    }

    /// Evaluates an arbitrary term under the current state and the given
    /// input valuation without advancing the clock.
    pub fn peek(&self, inputs: &HashMap<TermId, u128>, term: TermId) -> u128 {
        let vals = eval_terms(self.ctx, &[term], |t| {
            self.state_vals
                .get(&t)
                .copied()
                .or_else(|| inputs.get(&t).copied())
        });
        vals[0]
    }

    /// Advances one cycle with the given input valuation (keyed by input
    /// terms). Returns the outputs and property status *of the current
    /// cycle* (sampled before the state update).
    pub fn step(&mut self, inputs: &HashMap<TermId, u128>) -> StepResult {
        let ctx = self.ctx;
        let ts = self.ts;
        // Gather every root we need this cycle: outputs, constraints, bads,
        // and next-state functions.
        let mut roots: Vec<TermId> = Vec::new();
        roots.extend(ts.outputs.iter().map(|(_, t)| *t));
        roots.extend(ts.constraints.iter().copied());
        roots.extend(ts.bads.iter().map(|b| b.term));
        roots.extend(ts.states.iter().map(|s| s.next));
        let vals = eval_terms(ctx, &roots, |t| {
            self.state_vals
                .get(&t)
                .copied()
                .or_else(|| inputs.get(&t).copied())
        });
        let no = ts.outputs.len();
        let nc = ts.constraints.len();
        let nb = ts.bads.len();
        let outputs = vals[..no].to_vec();
        let violated_constraints = (0..nc).filter(|&i| vals[no + i] == 0).collect();
        let fired_bads = (0..nb).filter(|&i| vals[no + nc + i] != 0).collect();
        // Commit the state update.
        for (i, st) in ts.states.iter().enumerate() {
            self.state_vals.insert(st.term, vals[no + nc + nb + i]);
        }
        self.cycle += 1;
        StepResult {
            outputs,
            violated_constraints,
            fired_bads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ts::TransitionSystem;

    /// An 8-bit counter with enable: next = en ? cnt + 1 : cnt.
    fn counter() -> (Context, TransitionSystem, TermId, TermId) {
        let mut ctx = Context::new();
        let en = ctx.input("en", 1);
        let cnt = ctx.state("cnt", 8);
        let inc = ctx.inc(cnt);
        let next = ctx.ite(en, inc, cnt);
        let zero = ctx.zero(8);
        let mut ts = TransitionSystem::new("counter");
        ts.inputs.push(en);
        ts.add_state(cnt, Some(zero), next);
        ts.outputs.push(("cnt".into(), cnt));
        (ctx, ts, en, cnt)
    }

    #[test]
    fn counter_counts_when_enabled() {
        let (ctx, ts, en, cnt) = counter();
        let mut sim = Sim::new(&ctx, &ts);
        let mut inp = HashMap::new();
        inp.insert(en, 1u128);
        for expected in 0..5u128 {
            let r = sim.step(&inp);
            assert_eq!(r.outputs[0], expected);
        }
        inp.insert(en, 0);
        sim.step(&inp);
        assert_eq!(sim.state_value(cnt), 5);
        sim.step(&inp);
        assert_eq!(sim.state_value(cnt), 5);
    }

    #[test]
    fn counter_wraps_at_width() {
        let (ctx, ts, en, cnt) = counter();
        let mut sim = Sim::new(&ctx, &ts).with_initial(cnt, 255);
        let mut inp = HashMap::new();
        inp.insert(en, 1u128);
        sim.step(&inp);
        assert_eq!(sim.state_value(cnt), 0);
    }

    #[test]
    fn bad_property_fires() {
        let (mut ctx, mut ts, en, cnt) = counter();
        let three = ctx.constant(3, 8);
        let hit = ctx.eq(cnt, three);
        ts.bads.push(crate::ts::Bad {
            name: "cnt_is_3".into(),
            term: hit,
        });
        let mut sim = Sim::new(&ctx, &ts);
        let mut inp = HashMap::new();
        inp.insert(en, 1u128);
        let mut fired_at = None;
        for cycle in 0..6 {
            let r = sim.step(&inp);
            if !r.fired_bads.is_empty() {
                fired_at = Some(cycle);
                break;
            }
        }
        assert_eq!(fired_at, Some(3));
    }

    #[test]
    fn constraint_violation_reported() {
        let (mut ctx, mut ts, en, _) = counter();
        // Environment constraint: en must be 1.
        ts.constraints.push(en);
        let _ = &mut ctx;
        let mut sim = Sim::new(&ctx, &ts);
        let mut inp = HashMap::new();
        inp.insert(en, 0u128);
        let r = sim.step(&inp);
        assert_eq!(r.violated_constraints, vec![0]);
    }

    #[test]
    fn peek_does_not_advance() {
        let (ctx, ts, en, cnt) = counter();
        let sim = Sim::new(&ctx, &ts);
        let mut inp = HashMap::new();
        inp.insert(en, 1u128);
        assert_eq!(sim.peek(&inp, cnt), 0);
        assert_eq!(sim.cycle(), 0);
    }

    #[test]
    #[should_panic(expected = "no value supplied")]
    fn missing_leaf_value_panics() {
        let mut ctx = Context::new();
        let x = ctx.input("x", 8);
        let y = ctx.inc(x);
        let _ = eval_terms(&ctx, &[y], |_| None);
    }

    #[test]
    fn eval_deep_chain_is_iterative() {
        // A chain of 20_000 increments must not overflow the stack.
        let mut ctx = Context::new();
        let x = ctx.input("x", 32);
        let mut t = x;
        for _ in 0..20_000 {
            t = ctx.inc(t);
        }
        let v = eval_terms(&ctx, &[t], |l| if l == x { Some(5) } else { None });
        assert_eq!(v[0], 20_005);
    }
}
