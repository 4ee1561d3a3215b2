//! `matvec` — an iterative dot-product engine (non-interfering).
//!
//! A transaction carries two 4-element vectors packed into two words
//! (element width `W`, so each packed word is `4 * W` bits). The engine
//! multiplies two element pairs per cycle (a 2-cycle busy phase) and
//! responds with the dot product.
//!
//! Payload: `a[4W-1:0], b[4W-1:0]`. Response: `dot[2W+2-1:0]`.
//!
//! The `mac-not-cleared` bug is the canonical A-QED bug (A-QED, DAC 2020):
//! the MAC accumulator carries the previous transaction's dot product into
//! the next one.

use crate::iface::{resolve_bug, BugClass, BugInfo, Design, DesignMeta, Detectors, HaInterface};
use crate::skeleton::{capture, get_next, override_next, TxnControl};
use gqed_ir::{Context, TransitionSystem};

/// Number of vector elements per transaction.
pub const ELEMS: u32 = 4;

/// Build parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Element width in bits.
    pub width: u32,
}

impl Default for Params {
    fn default() -> Self {
        Params { width: 3 }
    }
}

/// Reference model of the dot product (unsigned elements).
pub fn dot_model(a: u128, b: u128, width: u32) -> u128 {
    let m = (1u128 << width) - 1;
    let rw = 2 * width + 2;
    let rm = (1u128 << rw) - 1;
    let mut acc = 0u128;
    for i in 0..ELEMS {
        let ae = a >> (i * width) & m;
        let be = b >> (i * width) & m;
        acc = acc.wrapping_add(ae * be) & rm;
    }
    acc
}

/// The injectable-bug catalogue.
pub fn bugs() -> Vec<BugInfo> {
    let both = |conv| Detectors {
        gqed: true,
        aqed: true,
        conventional: conv,
    };
    vec![
        BugInfo {
            id: "mac-not-cleared",
            description: "the MAC accumulator is not cleared between transactions \
                          (the canonical A-QED bug); the stale accumulator shifts \
                          the second response, so the reference-model assertion \
                          also flags it",
            class: BugClass::StateLeak,
            expected: both(true),
            min_transactions: 2,
        },
        BugInfo {
            id: "index-stuck-on-early-valid",
            description: "a request offered (not accepted) while busy freezes the element \
                          index for one cycle: the first element pair is accumulated twice \
                          and the last pair never, so the reference-model assertion sees \
                          the wrong dot product as soon as the next request is offered early",
            class: BugClass::ContextDependent,
            expected: both(true),
            min_transactions: 1,
        },
        BugInfo {
            id: "last-element-dropped",
            description: "the last two elements are never accumulated \
                          (deterministic functional error)",
            class: BugClass::ConsistentFunctional,
            expected: Detectors {
                gqed: false,
                aqed: false,
                conventional: true,
            },
            min_transactions: 1,
        },
        BugInfo {
            id: "hang-on-zero-vector",
            description: "a transaction whose first vector is all zeros never completes",
            class: BugClass::HandshakeProtocol,
            expected: both(false),
            min_transactions: 1,
        },
    ]
}

/// Builds the design, optionally injecting the named bug.
pub fn build(params: &Params, bug: Option<&str>) -> Design {
    let bug = bug.map(|id| resolve_bug(&bugs(), id));
    let w = params.width;
    let pw = ELEMS * w; // packed payload width
    let rw = 2 * w + 2; // result width
    let mut ctx = Context::new();
    let mut ts = TransitionSystem::new("matvec");

    // Busy phase: two element pairs per cycle.
    let ctl = TxnControl::build(&mut ctx, &mut ts, ELEMS / 2);

    let a = ctx.input("a", pw);
    let b = ctx.input("b", pw);
    ts.inputs.push(a);
    ts.inputs.push(b);
    let a_r = capture(&mut ctx, &mut ts, "a_r", ctl.accept, a);
    let b_r = capture(&mut ctx, &mut ts, "b_r", ctl.accept, b);

    // Pair index and MAC accumulator: pair 0 is elements {0, 1}, pair 1
    // is elements {2, 3}.
    let idx = ctx.state("idx", 1);
    let mac = ctx.state("mac", rw);
    let zero_i = ctx.zero(1);
    let zero_m = ctx.zero(rw);

    // Split each packed vector into its two element pairs.
    let a_lo = ctx.extract(a_r, 2 * w - 1, 0);
    let a_hi = ctx.extract(a_r, 4 * w - 1, 2 * w);
    let b_lo = ctx.extract(b_r, 2 * w - 1, 0);
    let b_hi = ctx.extract(b_r, 4 * w - 1, 2 * w);
    let a_pair = ctx.ite(idx, a_hi, a_lo);
    let b_pair = ctx.ite(idx, b_hi, b_lo);
    // Two products per step.
    let ae0 = ctx.extract(a_pair, w - 1, 0);
    let ae1 = ctx.extract(a_pair, 2 * w - 1, w);
    let be0 = ctx.extract(b_pair, w - 1, 0);
    let be1 = ctx.extract(b_pair, 2 * w - 1, w);
    let a0z = ctx.zext(ae0, rw);
    let b0z = ctx.zext(be0, rw);
    let a1z = ctx.zext(ae1, rw);
    let b1z = ctx.zext(be1, rw);
    let p0 = ctx.mul(a0z, b0z);
    let p1 = ctx.mul(a1z, b1z);
    let prod = ctx.add(p0, p1);

    // The skip bug: the last pair's products are suppressed.
    let stepping = ctl.busy;
    let effective_step = if bug == Some("last-element-dropped") {
        let not_last = ctx.not(idx);
        ctx.and(stepping, not_last)
    } else {
        stepping
    };

    let mac_acc = ctx.add(mac, prod);
    let mac_step = ctx.ite(effective_step, mac_acc, mac);
    let mac_next = if bug == Some("mac-not-cleared") {
        mac_step // accumulator never reset at accept
    } else {
        ctx.ite(ctl.accept, zero_m, mac_step)
    };
    ts.add_state(mac, Some(zero_m), mac_next);

    // Index advance (optionally frozen by an offered request).
    let one_i = ctx.constant(1, 1);
    let idx_inc = ctx.add(idx, one_i);
    let freeze = if bug == Some("index-stuck-on-early-valid") {
        let not_ready = ctx.not(ctl.in_ready);
        ctx.and(ctl.in_valid, not_ready)
    } else {
        ctx.fls()
    };
    let adv0 = ctx.ite(stepping, idx_inc, idx);
    let adv1 = ctx.ite(freeze, idx, adv0);
    let idx_next = ctx.ite(ctl.accept, zero_i, adv1);
    ts.add_state(idx, Some(zero_i), idx_next);

    // Response: the accumulator at done already includes the final product
    // (done coincides with the last busy cycle's commit).
    let res_val = ctx.ite(effective_step, mac_acc, mac);
    let res_r = capture(&mut ctx, &mut ts, "res_r", ctl.done, res_val);

    if bug == Some("hang-on-zero-vector") {
        let zp = ctx.zero(pw);
        let a_zero = ctx.eq(a_r, zp);
        let hang = ctx.and(ctl.busy, a_zero);
        let tw = ctx.width(ctl.timer);
        let one_t = ctx.constant(1, tw);
        let orig = get_next(&ts, ctl.timer);
        let tn = ctx.ite(hang, one_t, orig);
        override_next(&mut ts, ctl.timer, tn);
    }

    ts.outputs = vec![
        ("in_ready".into(), ctl.in_ready),
        ("out_valid".into(), ctl.out_valid),
        ("dot".into(), res_r),
    ];

    // Conventional assertion: the committed response equals the fully
    // combinational reference dot product.
    let conventional = {
        let mut reference = ctx.zero(rw);
        for i in 0..ELEMS {
            let ae = ctx.extract(a_r, (i + 1) * w - 1, i * w);
            let be = ctx.extract(b_r, (i + 1) * w - 1, i * w);
            let az = ctx.zext(ae, rw);
            let bz = ctx.zext(be, rw);
            let p = ctx.mul(az, bz);
            reference = ctx.add(reference, p);
        }
        let neq = ctx.ne(res_val, reference);
        let t = ctx.and(ctl.done, neq);
        vec![gqed_ir::Bad {
            name: "conv.dot_matches_reference".into(),
            term: t,
        }]
    };

    let iface = HaInterface {
        in_valid: ctl.in_valid,
        in_ready: ctl.in_ready,
        in_payload: vec![a, b],
        out_valid: ctl.out_valid,
        out_ready: ctl.out_ready,
        out_payload: vec![res_r],
    };

    Design {
        ctx,
        ts,
        iface,
        arch_state: vec![],
        conventional,
        meta: DesignMeta {
            name: "matvec",
            interfering: false,
            description: "iterative 4-element dot-product engine",
            latency: ELEMS / 2,
            recommended_bound: 6,
        },
        injected_bug: bug,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqed_ir::Sim;
    use std::collections::HashMap;

    fn dot(sim: &mut Sim, d: &Design, a: u128, b: u128) -> u128 {
        let mut inp = HashMap::new();
        inp.insert(d.iface.in_valid, 1u128);
        inp.insert(d.iface.out_ready, 1u128);
        inp.insert(d.iface.in_payload[0], a);
        inp.insert(d.iface.in_payload[1], b);
        loop {
            let accepted = sim.peek(&inp, d.iface.in_ready) == 1;
            sim.step(&inp);
            if accepted {
                break;
            }
        }
        inp.insert(d.iface.in_valid, 0);
        for _ in 0..30 {
            if sim.peek(&inp, d.iface.out_valid) == 1 {
                let res = sim.peek(&inp, d.iface.out_payload[0]);
                sim.step(&inp);
                return res;
            }
            sim.step(&inp);
        }
        panic!("transaction did not complete");
    }

    fn pack(e: [u128; 4], w: u32) -> u128 {
        e.iter()
            .enumerate()
            .map(|(i, &v)| (v & ((1 << w) - 1)) << (i as u32 * w))
            .sum()
    }

    #[test]
    fn computes_dot_product() {
        let p = Params::default();
        let d = build(&p, None);
        let mut sim = Sim::new(&d.ctx, &d.ts);
        let a = pack([1, 2, 3, 4], p.width);
        let b = pack([5, 6, 7, 3], p.width);
        assert_eq!(dot(&mut sim, &d, a, b), 5 + 12 + 21 + 12);
        assert_eq!(dot(&mut sim, &d, a, b), dot_model(a, b, p.width));
    }

    #[test]
    fn consecutive_transactions_independent() {
        let p = Params::default();
        let d = build(&p, None);
        let mut sim = Sim::new(&d.ctx, &d.ts);
        let a = pack([7, 7, 7, 7], p.width);
        let first = dot(&mut sim, &d, a, a);
        let second = dot(&mut sim, &d, a, a);
        assert_eq!(first, second, "non-interfering by contract");
        assert_eq!(first, dot_model(a, a, p.width));
    }

    #[test]
    fn mac_bug_accumulates_across_transactions() {
        let p = Params::default();
        let d = build(&p, Some("mac-not-cleared"));
        let mut sim = Sim::new(&d.ctx, &d.ts);
        let a = pack([1, 0, 0, 0], p.width);
        let first = dot(&mut sim, &d, a, a);
        let second = dot(&mut sim, &d, a, a);
        assert_eq!(first, 1);
        assert_eq!(second, 2, "leaked accumulator");
    }

    #[test]
    fn dropped_element_bug() {
        let p = Params::default();
        let d = build(&p, Some("last-element-dropped"));
        let mut sim = Sim::new(&d.ctx, &d.ts);
        let a = pack([1, 1, 1, 1], p.width);
        assert_eq!(dot(&mut sim, &d, a, a), 2);
    }

    #[test]
    fn bug_ids_unique_and_buildable() {
        let all = bugs();
        let mut ids: Vec<&str> = all.iter().map(|b| b.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
        for b in &all {
            let _ = build(&Params::default(), Some(b.id));
        }
    }
}
