//! Deterministic generative bug injection over the design catalogue.
//!
//! The paper's evaluation rests on detecting a large population of buggy
//! design versions; the hand-written catalogue ([`crate::catalog`]) carries
//! only a handful per design. This module synthesizes *unbounded* buggy
//! variants by rewriting a design's IR — seeded, fully deterministic, and
//! tagged with ground truth derived from the mutation site's reachability
//! class, so a detection-rate campaign over the mutants has a sound
//! "zero false positives" gate.
//!
//! ## Bug taxonomy
//!
//! Each mutant carries one [`MutationClass`], mirroring the paper's bug
//! taxonomy at the IR level:
//!
//! * **operator flips** (`and`↔`or`, `+`↔`-`, `<`→`≤`, mux-arm swap, …) —
//!   consistent functional errors;
//! * **bit flips** in constants and **off-by-one** skews on arithmetic and
//!   state reads — the "off-by-one counter" family;
//! * **stuck handshakes** (`in_ready`/`out_valid` forced high or low) and
//!   **dropped back-pressure** (the design ignores `out_ready`) — the
//!   handshake-protocol family;
//! * **stale state** (a register stops updating) and **dropped init**
//!   (a register loses its reset value) — state-leak / uninitialized-state
//!   families;
//! * two *negative controls*: [`MutationClass::NoopControl`] adds a dead
//!   shadow counter (distinct IR rendering, provably unobservable) and
//!   [`MutationClass::FoldNoop`] rewrites a term to `t + 0`, which the
//!   hash-consing builders fold back to `t` — the resulting candidate is
//!   *fingerprint-identical* to the clean design and must be rejected
//!   before any solving.
//!
//! ## Ground truth
//!
//! `expected_detectable` per flow is derived from [`gqed_ir::influence_cone`]
//! on the **clean** design: a mutation site outside a flow's observable cone
//! provably cannot change that flow's behavior, so a reported violation
//! there would be a false positive (`expect_violation = Some(false)`); a
//! site inside the cone *may* be detected (`expect_violation = None` — a
//! miss is honest inconclusiveness, e.g. a consistent functional bug seen
//! through a self-consistency lens).
//!
//! ## Determinism
//!
//! Everything is a pure function of `(design, seed, ordinal)`: candidate
//! sites are enumerated in [`TermId`] order (never hash-map order), the
//! generator is [`SplitMix64`], and ordinals 0 and 1 of every per-design
//! batch are pinned to the two negative controls so every campaign carries
//! its own controls.

use crate::catalog::DesignEntry;
use crate::iface::Design;
use gqed_ir::ts::substitute_all;
use gqed_ir::{influence_cone, reachable_terms, to_btor2, Context, Op, TermId};
use gqed_logic::{fnv1a64, SplitMix64};
use std::collections::HashMap;

/// The synthesized bug classes. `NoopControl` and `FoldNoop` are negative
/// controls, not bugs: they must never be reported as detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MutationClass {
    /// A binary/unary operator replaced by a near-miss (`and`→`or`, …).
    OperatorFlip,
    /// One bit flipped in a constant.
    BitFlip,
    /// An arithmetic result or state read skewed by ±1.
    OffByOne,
    /// `in_ready` or `out_valid` forced constant high/low.
    StuckHandshake,
    /// The design's logic reads `out_ready` as always-asserted.
    DroppedBackpressure,
    /// A register stops updating (holds its current value forever).
    StaleState,
    /// A register loses its reset value (becomes nondeterministic at init).
    DropInit,
    /// Negative control: a dead shadow counter — distinct IR, provably
    /// unobservable at every interface.
    NoopControl,
    /// Negative control: a `t + 0` rewrite the builders fold away — the
    /// candidate is fingerprint-identical to the clean design.
    FoldNoop,
}

impl MutationClass {
    /// Stable short tag used in obligation ids, tables and telemetry.
    pub fn tag(self) -> &'static str {
        match self {
            MutationClass::OperatorFlip => "op-flip",
            MutationClass::BitFlip => "bit-flip",
            MutationClass::OffByOne => "off-by-one",
            MutationClass::StuckHandshake => "stuck-handshake",
            MutationClass::DroppedBackpressure => "dropped-backpressure",
            MutationClass::StaleState => "stale-state",
            MutationClass::DropInit => "drop-init",
            MutationClass::NoopControl => "noop-control",
            MutationClass::FoldNoop => "fold-noop",
        }
    }

    /// All classes, controls last — the fixed rendering order of the
    /// detection-rate table.
    pub fn all() -> &'static [MutationClass] {
        &[
            MutationClass::OperatorFlip,
            MutationClass::BitFlip,
            MutationClass::OffByOne,
            MutationClass::StuckHandshake,
            MutationClass::DroppedBackpressure,
            MutationClass::StaleState,
            MutationClass::DropInit,
            MutationClass::NoopControl,
            MutationClass::FoldNoop,
        ]
    }
}

/// Per-flow ground truth: whether the mutation site lies inside the flow's
/// observable influence cone. `false` is a *proof* of undetectability;
/// `true` means "may be detected".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowDetectability {
    /// Site can reach a G-QED observable (interface + architectural state).
    pub gqed: bool,
    /// Site can reach an A-QED observable (interface only).
    pub aqed: bool,
    /// Site can reach a conventional assertion.
    pub conventional: bool,
}

impl FlowDetectability {
    /// True when no flow can possibly observe the mutation.
    pub fn none(&self) -> bool {
        !self.gqed && !self.aqed && !self.conventional
    }
}

/// One synthesized buggy variant.
#[derive(Clone, Debug)]
pub struct Mutant {
    /// The mutated design (same catalogue metadata as the clean build).
    pub design: Design,
    /// Synthesized bug class.
    pub class: MutationClass,
    /// Human-readable site description (deterministic).
    pub label: String,
    /// Reachability-derived ground truth per flow.
    pub detectable: FlowDetectability,
}

/// Deterministic BTOR2 rendering of the design *with its transactional
/// observables and architectural state appended as outputs* — the
/// fingerprint basis for mutant dedup.
///
/// The raw transition system alone is not enough: a design whose
/// `in_ready`/`out_valid`/response terms are derived combinationally may
/// not mention them in any state/constraint/output root, so a mutation
/// visible *only* at the interface would falsely render identically to the
/// clean design. Appending the interface and the architectural-state
/// projection makes the rendering injective up to observable behavior.
pub fn observable_render(d: &Design) -> String {
    let mut ts = d.ts.clone();
    ts.outputs
        .push(("mut.obs.in_ready".into(), d.iface.in_ready));
    ts.outputs
        .push(("mut.obs.out_valid".into(), d.iface.out_valid));
    for (i, &t) in d.iface.out_payload.iter().enumerate() {
        ts.outputs.push((format!("mut.obs.out{i}"), t));
    }
    for (i, &t) in d.arch_state.iter().enumerate() {
        ts.outputs.push((format!("mut.obs.arch{i}"), t));
    }
    to_btor2(&d.ctx, &ts)
}

/// The roots whose cones a mutation may rewrite: actual design behavior
/// (state updates, properties, outputs, derived interface signals).
/// Environment constraints, conventional assertions and the
/// architectural-state projection are *spec side* and deliberately
/// excluded — co-mutating the reference would make consistent bugs
/// self-consistently invisible.
fn mutation_roots(d: &Design) -> Vec<TermId> {
    let mut r: Vec<TermId> = Vec::new();
    r.extend(d.ts.states.iter().map(|s| s.next));
    r.extend(d.ts.states.iter().filter_map(|s| s.init));
    r.extend(d.ts.bads.iter().map(|b| b.term));
    r.extend(d.ts.outputs.iter().map(|(_, t)| *t));
    r.push(d.iface.in_ready);
    r.push(d.iface.out_valid);
    r.extend(d.iface.out_payload.iter().copied());
    r
}

/// Which handshake signal a stuck-at mutation targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Handshake {
    InReady,
    OutValid,
}

/// A concrete mutation site, pre-application.
#[derive(Clone, Copy, Debug)]
enum Site {
    OpFlip(TermId),
    BitFlip(TermId),
    OffByOne(TermId),
    Stuck { which: Handshake, high: bool },
    DroppedBackpressure,
    StaleState(usize),
    DropInit(usize),
}

fn flip_replacement(ctx: &mut Context, t: TermId) -> Option<TermId> {
    match ctx.op(t) {
        Op::And(a, b) => Some(ctx.or(a, b)),
        Op::Or(a, b) => Some(ctx.and(a, b)),
        Op::Xor(a, b) => Some(ctx.or(a, b)),
        Op::Add(a, b) => Some(ctx.sub(a, b)),
        Op::Sub(a, b) => Some(ctx.add(a, b)),
        Op::Mul(a, b) => Some(ctx.add(a, b)),
        Op::Eq(a, b) => Some(ctx.ule(a, b)),
        Op::Ult(a, b) => Some(ctx.ule(a, b)),
        Op::Slt(a, b) => Some(ctx.ult(a, b)),
        Op::Ite(c, x, y) => Some(ctx.ite(c, y, x)),
        Op::Not(a) => Some(a),
        Op::Neg(a) => Some(ctx.not(a)),
        Op::Shl(a, s) => Some(ctx.lshr(a, s)),
        Op::Lshr(a, s) => Some(ctx.shl(a, s)),
        Op::Redor(a) => Some(ctx.redand(a)),
        Op::Redand(a) => Some(ctx.redor(a)),
        _ => None,
    }
}

fn flippable(op: Op) -> bool {
    matches!(
        op,
        Op::And(..)
            | Op::Or(..)
            | Op::Xor(..)
            | Op::Add(..)
            | Op::Sub(..)
            | Op::Mul(..)
            | Op::Eq(..)
            | Op::Ult(..)
            | Op::Slt(..)
            | Op::Ite(..)
            | Op::Not(..)
            | Op::Neg(..)
            | Op::Shl(..)
            | Op::Lshr(..)
            | Op::Redor(..)
            | Op::Redand(..)
    )
}

/// Enumerates every mutation site of a design, in deterministic order:
/// term sites sorted by [`TermId`], then interface sites, then per-state
/// sites in declaration order.
fn candidate_sites(d: &Design) -> Vec<Site> {
    let ctx = &d.ctx;
    let roots = mutation_roots(d);
    let terms = reachable_terms(ctx, &roots);
    let mut sites: Vec<Site> = Vec::new();
    for &t in &terms {
        let w = ctx.width(t);
        match ctx.op(t) {
            Op::Const(_) if w > 1 => sites.push(Site::BitFlip(t)),
            op @ (Op::Add(..) | Op::Sub(..)) => {
                if w > 1 {
                    sites.push(Site::OffByOne(t));
                }
                debug_assert!(flippable(op));
                sites.push(Site::OpFlip(t));
            }
            Op::State(_) if w > 1 => sites.push(Site::OffByOne(t)),
            op if flippable(op) => sites.push(Site::OpFlip(t)),
            _ => {}
        }
    }
    for (sig, which) in [
        (d.iface.in_ready, Handshake::InReady),
        (d.iface.out_valid, Handshake::OutValid),
    ] {
        // A constant handshake signal can't be "stuck" differently without
        // remapping a shared constant across the whole design — skip.
        if ctx.as_const(sig).is_none() {
            sites.push(Site::Stuck { which, high: true });
            sites.push(Site::Stuck { which, high: false });
        }
    }
    if terms.contains(&d.iface.out_ready) {
        sites.push(Site::DroppedBackpressure);
    }
    for (i, s) in d.ts.states.iter().enumerate() {
        if s.next != s.term {
            sites.push(Site::StaleState(i));
        }
        if s.init.is_some() {
            sites.push(Site::DropInit(i));
        }
    }
    sites
}

/// Rewrites the design's behavior cone under `map` (pre-seeded with the
/// mutation), leaving the spec side — constraints, conventional
/// assertions, architectural-state projection, environment-driven inputs —
/// on the original terms.
fn apply_map(d: &mut Design, mut map: HashMap<TermId, TermId>) {
    let roots = mutation_roots(d);
    substitute_all(&mut d.ctx, &roots, &mut map);
    for s in &mut d.ts.states {
        s.next = map[&s.next];
        s.init = s.init.map(|i| map[&i]);
    }
    for b in &mut d.ts.bads {
        b.term = map[&b.term];
    }
    for (_, t) in &mut d.ts.outputs {
        *t = map[t];
    }
    d.iface.in_ready = map[&d.iface.in_ready];
    d.iface.out_valid = map[&d.iface.out_valid];
    for t in &mut d.iface.out_payload {
        *t = map[t];
    }
}

/// Ground truth for a mutation whose clean-design site terms are `targets`:
/// per flow, whether any target lies inside the flow's observable cone.
fn detectability(d: &Design, targets: &[TermId]) -> FlowDetectability {
    let mut iface_obs = vec![d.iface.in_ready, d.iface.out_valid];
    iface_obs.extend(d.iface.out_payload.iter().copied());
    let mut gqed_obs = iface_obs.clone();
    gqed_obs.extend(d.arch_state.iter().copied());
    let conv_obs: Vec<TermId> = d.conventional.iter().map(|b| b.term).collect();
    let g = influence_cone(&d.ctx, &d.ts.states, &gqed_obs);
    let a = influence_cone(&d.ctx, &d.ts.states, &iface_obs);
    let c = influence_cone(&d.ctx, &d.ts.states, &conv_obs);
    FlowDetectability {
        gqed: targets.iter().any(|t| g.contains(t)),
        aqed: targets.iter().any(|t| a.contains(t)),
        conventional: targets.iter().any(|t| c.contains(t)),
    }
}

/// Mixes `(seed, design, ordinal)` into one SplitMix64 stream seed.
fn stream_seed(seed: u64, design: &str, ordinal: u64) -> u64 {
    seed ^ fnv1a64(design.as_bytes()) ^ ordinal.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Synthesizes the mutant `(seed, ordinal)` of a design — a pure function
/// of its arguments.
///
/// Ordinals 0 and 1 are pinned to the negative controls
/// ([`MutationClass::NoopControl`], [`MutationClass::FoldNoop`]); ordinals
/// ≥ 2 draw a site from the deterministic candidate enumeration. Callers
/// are expected to discard mutants whose [`observable_render`] fingerprint
/// equals the clean design's (semantic no-op candidates — every `FoldNoop`
/// lands here by construction) and to dedup the rest by fingerprint.
pub fn generate(entry: &DesignEntry, seed: u64, ordinal: u64) -> Mutant {
    let mut d = entry.build_clean();
    let mut rng = SplitMix64::new(stream_seed(seed, entry.name, ordinal));

    if ordinal == 0 {
        // Dead shadow counter: renders (states always render in BTOR2)
        // but is outside every observable cone.
        let z = d.ctx.zero(8);
        let sh = d.ctx.state("mut.shadow", 8);
        let nx = d.ctx.inc(sh);
        d.ts.add_state(sh, Some(z), nx);
        let detectable = FlowDetectability::default();
        debug_assert!(detectability(&d, &[sh]).none());
        return Mutant {
            design: d,
            class: MutationClass::NoopControl,
            label: "noop-control: dead shadow counter".into(),
            detectable,
        };
    }
    if ordinal == 1 {
        // `t + 0` on the first behavior root: the builders fold the
        // rewrite away, so the mutant renders identically to the clean
        // design and must be rejected by the fingerprint filter.
        let roots = mutation_roots(&d);
        let t = roots[0];
        let w = d.ctx.width(t);
        let z = d.ctx.zero(w);
        let r = d.ctx.add(t, z);
        debug_assert_eq!(r, t, "x + 0 must fold to x");
        let mut map = HashMap::new();
        map.insert(t, r);
        apply_map(&mut d, map);
        return Mutant {
            design: d,
            class: MutationClass::FoldNoop,
            label: "fold-noop: t + 0 rewrite".into(),
            detectable: FlowDetectability::default(),
        };
    }

    let sites = candidate_sites(&d);
    assert!(!sites.is_empty(), "{}: no mutation sites", entry.name);
    // Compound mutants: most ordinals rewrite one site, but a quarter
    // combine two and a quarter three — the combinatorial space keeps
    // even the smallest designs from exhausting their distinct-mutant
    // supply at realistic batch sizes.
    let k = match rng.below(4) {
        0 | 1 => 1,
        2 => 2,
        _ => 3,
    }
    .min(sites.len());
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < k {
        let i = rng.below(sites.len() as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    // Ground truth comes from the *clean* reachability structure, so the
    // target terms must be resolved before any rewrite touches `d`.
    let targets: Vec<TermId> = picked
        .iter()
        .flat_map(|&i| site_targets(&d, sites[i]))
        .collect();
    let detectable = detectability(&d, &targets);
    let mut class = None;
    let mut labels = Vec::new();
    for &i in &picked {
        let (c, l) = apply_site(&mut d, &mut rng, sites[i]);
        class.get_or_insert(c);
        labels.push(l);
    }
    Mutant {
        design: d,
        class: class.expect("k >= 1"),
        label: labels.join(" + "),
        detectable,
    }
}

/// The clean-design terms a site rewrites — the basis for the
/// reachability-derived ground truth. Must be called *before* the site is
/// applied (later rewrites remap the interface handles).
fn site_targets(d: &Design, site: Site) -> Vec<TermId> {
    match site {
        Site::OpFlip(t) | Site::BitFlip(t) | Site::OffByOne(t) => vec![t],
        Site::Stuck { which, .. } => vec![match which {
            Handshake::InReady => d.iface.in_ready,
            Handshake::OutValid => d.iface.out_valid,
        }],
        Site::DroppedBackpressure => vec![d.iface.out_ready],
        Site::StaleState(i) | Site::DropInit(i) => vec![d.ts.states[i].term],
    }
}

/// Applies one site to the design, returning its class and label.
fn apply_site(d: &mut Design, rng: &mut SplitMix64, site: Site) -> (MutationClass, String) {
    match site {
        Site::OpFlip(t) => {
            let op = d.ctx.op(t);
            let r = flip_replacement(&mut d.ctx, t).expect("flippable site");
            let mut map = HashMap::new();
            map.insert(t, r);
            apply_map(d, map);
            (
                MutationClass::OperatorFlip,
                format!("op-flip @ t{}: {op:?}", t.index()),
            )
        }
        Site::BitFlip(t) => {
            let w = d.ctx.width(t);
            let v = d.ctx.as_const(t).expect("const site");
            let bit = rng.below(u64::from(w)) as u32;
            let r = d.ctx.constant(v ^ (1u128 << bit), w);
            let mut map = HashMap::new();
            map.insert(t, r);
            apply_map(d, map);
            (
                MutationClass::BitFlip,
                format!("bit-flip @ t{}: bit {bit} of {v:#x}", t.index()),
            )
        }
        Site::OffByOne(t) => {
            let up = rng.next_bool();
            let w = d.ctx.width(t);
            let one = d.ctx.constant(1, w);
            let r = if up {
                d.ctx.add(t, one)
            } else {
                d.ctx.sub(t, one)
            };
            let mut map = HashMap::new();
            map.insert(t, r);
            apply_map(d, map);
            (
                MutationClass::OffByOne,
                format!(
                    "off-by-one @ t{}: {}",
                    t.index(),
                    if up { "+1" } else { "-1" }
                ),
            )
        }
        Site::Stuck { which, high } => {
            let sig = match which {
                Handshake::InReady => d.iface.in_ready,
                Handshake::OutValid => d.iface.out_valid,
            };
            let r = if high { d.ctx.tru() } else { d.ctx.fls() };
            let mut map = HashMap::new();
            map.insert(sig, r);
            apply_map(d, map);
            (
                MutationClass::StuckHandshake,
                format!(
                    "stuck-handshake: {} stuck {}",
                    match which {
                        Handshake::InReady => "in_ready",
                        Handshake::OutValid => "out_valid",
                    },
                    if high { "high" } else { "low" }
                ),
            )
        }
        Site::DroppedBackpressure => {
            // Design logic reads out_ready as always-asserted; the real
            // environment input stays on the interface, so the monitors
            // still see genuine back-pressure.
            let or = d.iface.out_ready;
            let t = d.ctx.tru();
            let mut map = HashMap::new();
            map.insert(or, t);
            apply_map(d, map);
            d.iface.out_ready = or;
            (
                MutationClass::DroppedBackpressure,
                "dropped-backpressure: logic ignores out_ready".into(),
            )
        }
        Site::StaleState(i) => {
            let s = d.ts.states[i];
            let name = d.ctx.var_name(s.term).unwrap_or("state").to_string();
            d.ts.states[i].next = s.term;
            (
                MutationClass::StaleState,
                format!("stale-state: '{name}' never updates"),
            )
        }
        Site::DropInit(i) => {
            let s = d.ts.states[i];
            let name = d.ctx.var_name(s.term).unwrap_or("state").to_string();
            d.ts.states[i].init = None;
            (
                MutationClass::DropInit,
                format!("drop-init: '{name}' uninitialized"),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::all_designs;

    #[test]
    fn generation_is_deterministic() {
        let entries = all_designs();
        let e = entries.iter().find(|e| e.name == "accum").unwrap();
        for ordinal in 0..8 {
            let a = generate(e, 7, ordinal);
            let b = generate(e, 7, ordinal);
            assert_eq!(a.class, b.class);
            assert_eq!(a.label, b.label);
            assert_eq!(a.detectable, b.detectable);
            assert_eq!(
                observable_render(&a.design),
                observable_render(&b.design),
                "ordinal {ordinal} not reproducible"
            );
        }
    }

    #[test]
    fn controls_are_pinned_and_undetectable() {
        for e in all_designs() {
            let noop = generate(&e, 1, 0);
            assert_eq!(noop.class, MutationClass::NoopControl);
            assert!(noop.detectable.none());
            let clean_fp = observable_render(&e.build_clean());
            assert_ne!(
                observable_render(&noop.design),
                clean_fp,
                "{}: shadow counter must change the rendering",
                e.name
            );
            let fold = generate(&e, 1, 1);
            assert_eq!(fold.class, MutationClass::FoldNoop);
            assert_eq!(
                observable_render(&fold.design),
                clean_fp,
                "{}: fold-noop must render identically to clean",
                e.name
            );
        }
    }

    #[test]
    fn every_design_yields_many_distinct_mutants() {
        for e in all_designs() {
            let clean = observable_render(&e.build_clean());
            let mut seen = std::collections::HashSet::new();
            let mut noops = 0usize;
            for ordinal in 0..40u64 {
                let m = generate(&e, 3, ordinal);
                let r = observable_render(&m.design);
                if r == clean {
                    noops += 1;
                } else {
                    seen.insert(r);
                }
            }
            assert!(
                seen.len() >= 8,
                "{}: only {} distinct mutants in 40 ordinals",
                e.name,
                seen.len()
            );
            assert!(noops >= 1, "{}: fold-noop control missing", e.name);
        }
    }

    #[test]
    fn mutated_designs_still_simulate() {
        // The driver must still be able to step a mutated design: the
        // rewrite may change behavior but must keep the model well-formed.
        for e in all_designs() {
            for ordinal in 0..6u64 {
                let m = generate(&e, 5, ordinal);
                let mut sim = gqed_ir::Sim::new(&m.design.ctx, &m.design.ts);
                let inputs: HashMap<TermId, u128> =
                    m.design.ts.inputs.iter().map(|&i| (i, 0u128)).collect();
                for _ in 0..4 {
                    sim.step(&inputs);
                }
            }
        }
    }
}
