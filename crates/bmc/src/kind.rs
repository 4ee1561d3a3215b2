//! k-induction: unbounded proofs on top of the bounded unroller.
//!
//! For a `bad` property `P` the classic two-part scheme is used:
//!
//! * **base case** — BMC from the initial states: `P` does not fire within
//!   `k` cycles;
//! * **inductive step** — from an *arbitrary* state, if `P` stays silent
//!   for `k` consecutive cycles (under the environment constraints), it
//!   cannot fire at cycle `k + 1`.
//!
//! Both parts together prove `P` unreachable at every depth. Each part
//! runs on one incremental [`BmcEngine`]: the base case on the system
//! itself, the step on a copy whose states all start unconstrained
//! ([`BmcEngine::bad_can_fire_first_at`]), so deepening `k` adds one
//! frame to each unrolling instead of re-encoding them. The step is
//! checked without path-uniqueness strengthening, so the prover may return
//! [`ProofResult::Unknown`] on properties that need an invariant — that is
//! reported honestly rather than iterating forever. `gqed prove` and
//! `gqed bmc --prove` use it on conventional assertions; the campaign's
//! clean-design proofs use IC3/PDR instead.

use crate::engine::{without_init, BmcEngine, BmcLimits, StopReason};
use crate::trace::Trace;
use gqed_ir::{Context, TransitionSystem};

/// Outcome of a k-induction proof attempt.
#[derive(Clone, Debug)]
pub enum ProofResult {
    /// The property can never fire; proven at induction depth `k`.
    Proven {
        /// Induction depth at which the step became unsatisfiable.
        k: u32,
    },
    /// A concrete, replay-confirmed counterexample from reset.
    Falsified(Trace),
    /// Neither proven nor falsified up to the depth limit.
    Unknown {
        /// The depth limit that was exhausted.
        max_k: u32,
    },
    /// The attempt stopped early under resource limits
    /// ([`prove_k_induction_limited`]).
    Cancelled {
        /// Depth being examined when the attempt stopped; depths `0..k`
        /// completed both their base and step queries.
        k: u32,
        /// Why the attempt stopped.
        reason: StopReason,
    },
}

impl ProofResult {
    /// Whether the property was proven unreachable.
    pub fn is_proven(&self) -> bool {
        matches!(self, ProofResult::Proven { .. })
    }
}

/// Attempts to prove `bad` property `bad_index` unreachable by k-induction
/// with depths `0..=max_k`.
pub fn prove_k_induction(
    ctx: &Context,
    ts: &TransitionSystem,
    bad_index: usize,
    max_k: u32,
) -> ProofResult {
    prove_k_induction_limited(ctx, ts, bad_index, max_k, &BmcLimits::default())
}

/// [`prove_k_induction`] under resource limits: the base-case and
/// inductive-step queries both run with the limits' conflict budget,
/// deadline and interrupt flag, and the flag is additionally polled
/// between depths so cancellation lands before the next frame is even
/// encoded.
pub fn prove_k_induction_limited(
    ctx: &Context,
    ts: &TransitionSystem,
    bad_index: usize,
    max_k: u32,
    limits: &BmcLimits,
) -> ProofResult {
    let free = without_init(ts);
    let mut base = BmcEngine::new(ctx, ts);
    let mut step = BmcEngine::new(ctx, &free);
    for k in 0..=max_k {
        if let Some(reason) = limits.poll() {
            return ProofResult::Cancelled { k, reason };
        }
        match base.check_bad_at_limited(bad_index, k, limits) {
            Ok(Some(trace)) => return ProofResult::Falsified(trace),
            Ok(None) => {}
            Err(reason) => return ProofResult::Cancelled { k, reason },
        }
        match step.bad_can_fire_first_at(bad_index, k, limits) {
            Ok(false) => return ProofResult::Proven { k },
            Ok(true) => {}
            Err(reason) => return ProofResult::Cancelled { k, reason },
        }
    }
    ProofResult::Unknown { max_k }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariant_property_proven() {
        // cnt' = cnt (frozen at 0); bad: cnt == 1. 1-inductive.
        let mut ctx = Context::new();
        let cnt = ctx.state("cnt", 4);
        let zero = ctx.zero(4);
        let one = ctx.constant(1, 4);
        let bad = ctx.eq(cnt, one);
        let mut ts = TransitionSystem::new("frozen");
        ts.add_state(cnt, Some(zero), cnt);
        ts.add_bad("is_one", bad);
        assert!(prove_k_induction(&ctx, &ts, 0, 4).is_proven());
    }

    #[test]
    fn reachable_property_falsified() {
        let mut ctx = Context::new();
        let cnt = ctx.state("cnt", 4);
        let zero = ctx.zero(4);
        let next = ctx.inc(cnt);
        let c3 = ctx.constant(3, 4);
        let bad = ctx.eq(cnt, c3);
        let mut ts = TransitionSystem::new("counter");
        ts.add_state(cnt, Some(zero), next);
        ts.add_bad("reach3", bad);
        match prove_k_induction(&ctx, &ts, 0, 10) {
            ProofResult::Falsified(t) => assert_eq!(t.len(), 4),
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    #[test]
    fn non_inductive_property_unknown() {
        // cnt counts 0..15 and wraps; bad: cnt == 15, but an environment
        // constraint freezes counting above 7 — from an arbitrary state
        // (e.g. 14) the step fails, yet from reset 15 is unreachable only
        // with the constraint; make it genuinely unreachable but not
        // k-inductive for small k: cnt' = (cnt < 7) ? cnt+1 : 0, bad: cnt == 12.
        let mut ctx = Context::new();
        let cnt = ctx.state("cnt", 4);
        let zero = ctx.zero(4);
        let c7 = ctx.constant(7, 4);
        let lt = ctx.ult(cnt, c7);
        let inc = ctx.inc(cnt);
        let next = ctx.ite(lt, inc, zero);
        let c12 = ctx.constant(12, 4);
        let bad = ctx.eq(cnt, c12);
        let mut ts = TransitionSystem::new("sat7");
        ts.add_state(cnt, Some(zero), next);
        ts.add_bad("reach12", bad);
        // Unreachable from reset (counter stays ≤ 7)...
        let mut engine = BmcEngine::new(&ctx, &ts);
        assert!(!engine.check_up_to(12).is_violated());
        // ...but from the arbitrary state 11 the successor is 0 (11 >= 7),
        // so 12 is never *produced*; k-induction actually proves this at
        // k=1: no state transitions into 12. Verify it proves.
        assert!(prove_k_induction(&ctx, &ts, 0, 4).is_proven());
    }

    #[test]
    fn genuinely_non_inductive_returns_unknown() {
        // Two counters locked in step from reset: a == b is an invariant
        // from reset, but from an arbitrary state a != b is possible and
        // persists; bad: a != b && a == 5 is unreachable from reset yet
        // never k-inductive without the a == b invariant.
        let mut ctx = Context::new();
        let a = ctx.state("a", 4);
        let b = ctx.state("b", 4);
        let zero = ctx.zero(4);
        let na = ctx.inc(a);
        let nb = ctx.inc(b);
        let c5 = ctx.constant(5, 4);
        let diff = ctx.ne(a, b);
        let at5 = ctx.eq(a, c5);
        let bad = ctx.and(diff, at5);
        let mut ts = TransitionSystem::new("lockstep");
        ts.add_state(a, Some(zero), na);
        ts.add_state(b, Some(zero), nb);
        ts.add_bad("diverged_at_5", bad);
        match prove_k_induction(&ctx, &ts, 0, 3) {
            ProofResult::Unknown { max_k } => assert_eq!(max_k, 3),
            other => panic!("expected unknown, got {other:?}"),
        }
    }
}
