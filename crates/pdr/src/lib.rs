//! IC3/PDR — property-directed reachability over bit-blasted transition
//! systems.
//!
//! This crate is the unbounded proof engine that complements the BMC +
//! k-induction pair in `gqed-bmc`: where k-induction fails on properties
//! whose proof needs an auxiliary invariant (it returns `Unknown` rather
//! than iterating forever), IC3/PDR *discovers* that invariant
//! incrementally (Bradley, *SAT-Based Model Checking without Unrolling*,
//! VMCAI 2011; Eén, Mishchenko & Brayton, *Efficient Implementation of
//! Property Directed Reachability*, FMCAD 2011).
//!
//! The engine maintains a ladder of *frames* `F_0 ⊆ F_1 ⊆ … ⊆ F_K`:
//! clause sets over the state bits where `F_0` is the reset predicate and
//! each `F_i` over-approximates the states reachable in at most `i`
//! cycles. All frames live on **one incremental SAT solver** holding a
//! single static copy of the transition relation (no unrolling) — the
//! BMC unroller's one-step view, [`StepEncoding`], so this crate holds
//! IC3 logic only and encodes nothing itself: a lemma
//! learnt at exact level `j` is guarded by that level's activation
//! literal, and a query against `F_i` simply assumes the activation
//! literals of every level `j ≥ i`. Each bad state reachable from `F_K`
//! (a *counterexample to induction*) is pulled from the SAT model and
//! blocked by recursive relative induction; blocked cubes are generalized
//! by the solver's failed-assumption core plus a literal-dropping pass,
//! and clauses are propagated forward each round. When some delta frame
//! empties, `F_i = F_{i+1}` is an inductive invariant — which is
//! **re-checked** before the engine ever reports [`PdrVerdict::Proven`]:
//! consecution and safety on a fresh solver over a fresh step encoding
//! (the encoder is shared with BMC, whose counterexamples are all
//! replay-confirmed), initiation against the reset constants with no
//! encoder at all.

#![warn(missing_docs)]

use gqed_bmc::{BmcLimits, StepEncoding, StopReason};
use gqed_ir::{Context, TransitionSystem};
use gqed_sat::{SolveOutcome, SolverStats};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A cube over the flattened state bits: each literal is `±(g + 1)` for
/// global state-bit index `g`, positive meaning the bit is 1. Kept sorted
/// by bit index so cubes compare and subsume deterministically.
type Cube = Vec<i32>;

/// Tuning knobs for a PDR run.
#[derive(Clone, Copy, Debug)]
pub struct PdrOptions {
    /// Give up with [`PdrVerdict::Unknown`] once the frame ladder reaches
    /// this many frames. PDR terminates on finite-state systems without a
    /// bound, but campaign callers want a defined worst case.
    pub max_frames: u32,
    /// Give up with [`PdrVerdict::Unknown`] once this many SAT queries
    /// have been issued. Unlike a wall-clock deadline, the query count is
    /// deterministic for a given model, so a capped run reaches the same
    /// verdict on every machine — the campaign portfolio relies on this
    /// to keep PDR's drop-out point reproducible. `None` = uncapped.
    pub max_queries: Option<u64>,
}

impl Default for PdrOptions {
    fn default() -> Self {
        PdrOptions {
            max_frames: 4096,
            max_queries: None,
        }
    }
}

/// One disjunct of an invariant clause: asserts that bit `bit` of state
/// variable `state` (an index into `TransitionSystem::states`) has value
/// `value`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateBitLit {
    /// Index into `TransitionSystem::states`.
    pub state: usize,
    /// Bit position within that state variable (LSB = 0).
    pub bit: u32,
    /// The asserted bit value.
    pub value: bool,
}

/// An inductive invariant as a conjunction of clauses over state bits —
/// the proof certificate returned with [`PdrVerdict::Proven`]. Validate
/// it with [`check_invariant`], which shares only the step encoder with
/// the engine, not its frames or solver.
#[derive(Clone, Debug, Default)]
pub struct Invariant {
    /// The clauses; each is a disjunction of [`StateBitLit`]s.
    pub clauses: Vec<Vec<StateBitLit>>,
}

/// Effort counters of a PDR run, for telemetry and the bench gate. All
/// counters except the solver statistics are deterministic for a given
/// model (the engine is single-threaded and seeds nothing from time).
#[derive(Clone, Copy, Debug, Default)]
pub struct PdrStats {
    /// Frames on the ladder when the run ended.
    pub frames: u32,
    /// Counterexamples-to-induction extracted at the frontier.
    pub ctis: u64,
    /// Cubes blocked (lemmas learnt), including via recursive obligations.
    pub blocked_cubes: u64,
    /// Literals removed by the generalization pass (beyond the
    /// failed-assumption core).
    pub generalize_drops: u64,
    /// Lemmas pushed forward a frame during propagation.
    pub propagated: u64,
    /// SAT queries issued.
    pub queries: u64,
    /// Proven invariants that failed the re-check (always 0
    /// unless the engine itself is broken; counted, not silently dropped).
    pub recheck_failures: u64,
    /// Search statistics of the underlying solver.
    pub solver: SolverStats,
}

/// Verdict of a PDR run.
#[derive(Clone, Debug)]
pub enum PdrVerdict {
    /// The property can never fire. The invariant passed
    /// [`check_invariant`] before this verdict was produced: consecution
    /// and safety on a fresh solver over the shared step encoder,
    /// initiation against the reset constants.
    Proven {
        /// Frames on the ladder when the fixpoint closed.
        frames: u32,
        /// The certifying inductive invariant.
        invariant: Invariant,
    },
    /// A concrete path from reset fires the property at cycle `depth`.
    /// PDR reports only the depth: campaign callers re-derive (and
    /// replay-confirm) the trace with the BMC engine at this exact bound.
    Falsified {
        /// Cycle at which the bad property fires.
        depth: u32,
    },
    /// The frame limit was reached without a fixpoint.
    Unknown {
        /// Frames explored before giving up.
        frames: u32,
    },
    /// The run stopped early under resource limits.
    Cancelled {
        /// Frames on the ladder when the run stopped.
        frames: u32,
        /// Why the run stopped.
        reason: StopReason,
    },
}

impl PdrVerdict {
    /// Whether the property was proven unreachable.
    pub fn is_proven(&self) -> bool {
        matches!(self, PdrVerdict::Proven { .. })
    }
}

/// A PDR verdict together with the run's effort counters.
#[derive(Clone, Debug)]
pub struct PdrOutcome {
    /// The verdict.
    pub verdict: PdrVerdict,
    /// Effort counters.
    pub stats: PdrStats,
}

/// Proves or refutes `bad` property `bad_index` with no resource limits.
///
/// # Examples
///
/// ```
/// use gqed_ir::{Context, TransitionSystem};
/// use gqed_pdr::{check_invariant, prove_pdr, PdrOptions, PdrVerdict};
///
/// // Two counters locked in step from reset; `a != b && a == 5` is
/// // unreachable but not k-inductive — k-induction gives up, PDR finds
/// // the a == b lemmas.
/// let mut ctx = Context::new();
/// let a = ctx.state("a", 4);
/// let b = ctx.state("b", 4);
/// let zero = ctx.zero(4);
/// let (na, nb) = (ctx.inc(a), ctx.inc(b));
/// let c5 = ctx.constant(5, 4);
/// let diff = ctx.ne(a, b);
/// let at5 = ctx.eq(a, c5);
/// let bad = ctx.and(diff, at5);
/// let mut ts = TransitionSystem::new("lockstep");
/// ts.add_state(a, Some(zero), na);
/// ts.add_state(b, Some(zero), nb);
/// ts.add_bad("diverged_at_5", bad);
///
/// let out = prove_pdr(&ctx, &ts, 0, &PdrOptions::default());
/// let PdrVerdict::Proven { invariant, .. } = out.verdict else {
///     panic!("expected a proof");
/// };
/// assert!(check_invariant(&ctx, &ts, 0, &invariant).is_ok());
/// ```
pub fn prove_pdr(
    ctx: &Context,
    ts: &TransitionSystem,
    bad_index: usize,
    opts: &PdrOptions,
) -> PdrOutcome {
    prove_pdr_limited(ctx, ts, bad_index, opts, &BmcLimits::default())
}

/// [`prove_pdr`] under resource limits: every SAT query runs armed with
/// the limits' conflict budget, interrupt flag, deadline and memory
/// limit ([`BmcLimits::solve`]); the flag and deadline are also polled
/// between obligations, so cancellation lands promptly even outside a
/// query.
pub fn prove_pdr_limited(
    ctx: &Context,
    ts: &TransitionSystem,
    bad_index: usize,
    opts: &PdrOptions,
    limits: &BmcLimits,
) -> PdrOutcome {
    let mut pdr = Pdr::new(ctx, ts, bad_index, limits);
    let verdict = pdr.run(ctx, ts, bad_index, opts);
    pdr.stats.solver = pdr.step.solver.stats();
    PdrOutcome {
        verdict,
        stats: pdr.stats,
    }
}

/// The `(state, bit)` ↔ global state-bit table of a transition system
/// (states in order, LSB first, the numbering of [`StepEncoding`]'s
/// `cur`/`nxt`) with each bit's reset value. Built once per run and
/// shared by the engine and its invariant re-check.
struct StateBits {
    /// Global state-bit index → (state index, bit position).
    bits: Vec<(usize, u32)>,
    /// State index → global index of its bit 0; one trailing entry holds
    /// the total, so state `s` spans `offset[s]..offset[s + 1]`.
    offset: Vec<usize>,
    /// Global state-bit index → reset value; `None` = nondeterministic.
    init_val: Vec<Option<bool>>,
}

impl StateBits {
    fn new(ctx: &Context, ts: &TransitionSystem) -> StateBits {
        let mut map = StateBits {
            bits: Vec::new(),
            offset: vec![0],
            init_val: Vec::new(),
        };
        for (si, s) in ts.states.iter().enumerate() {
            let init = s.init.map(|t| {
                ctx.as_const(t)
                    .expect("state reset value must be a constant term")
            });
            for b in 0..ctx.width(s.term) {
                map.bits.push((si, b));
                map.init_val.push(init.map(|v| (v >> b) & 1 != 0));
            }
            map.offset.push(map.bits.len());
        }
        map
    }

    /// The cube literal (`±(g + 1)`) of a caller-supplied invariant
    /// disjunct, range-checked against the system's states and widths.
    fn cube_lit(&self, l: &StateBitLit) -> Result<i32, String> {
        if l.state + 1 >= self.offset.len() {
            return Err(format!("clause names state {} out of range", l.state));
        }
        let g = self.offset[l.state] + l.bit as usize;
        if g >= self.offset[l.state + 1] {
            return Err(format!("clause names bit {} out of range", l.bit));
        }
        let lit = g as i32 + 1;
        Ok(if l.value { lit } else { -lit })
    }

    /// Whether cube literal `l` contradicts a defined reset bit.
    fn excludes_init(&self, l: i32) -> bool {
        matches!(self.init_val[(l.unsigned_abs() - 1) as usize], Some(v) if v != (l > 0))
    }

    /// Whether `cube` admits a reset state: no literal contradicts a
    /// defined reset bit (bits with nondeterministic reset are free, as
    /// are bits the cube does not mention).
    fn intersects_init(&self, cube: &[i32]) -> bool {
        !cube.iter().any(|&l| self.excludes_init(l))
    }
}

/// DIMACS literal of cube literal `l` in the copy whose variable for
/// global state bit `g` is `vars[g]` (`cur` or `nxt`).
fn copy_lit(vars: &[i32], l: i32) -> i32 {
    let v = vars[(l.unsigned_abs() - 1) as usize];
    if l > 0 {
        v
    } else {
        -v
    }
}

/// Outcome of one relative-induction blocking query.
enum QueryOutcome {
    /// UNSAT — the cube is blocked; carries the init-repaired,
    /// failed-assumption-shrunk subcube.
    Blocked(Cube),
    /// SAT — carries the (full-assignment) predecessor state cube.
    Reachable(Cube),
}

/// A proof obligation: block `cube` at frame `level`; `dist` transitions
/// lead from `cube` to the original bad state. Ordered by `(level, seq)`
/// so the queue pops the lowest level first and ties break by insertion
/// order — fully deterministic.
struct Obl {
    level: u32,
    seq: u64,
    dist: u32,
    cube: Cube,
}

impl PartialEq for Obl {
    fn eq(&self, other: &Self) -> bool {
        (self.level, self.seq) == (other.level, other.seq)
    }
}
impl Eq for Obl {}
impl PartialOrd for Obl {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Obl {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.level, self.seq).cmp(&(other.level, other.seq))
    }
}

enum Blocked {
    Done,
    Cex {
        depth: u32,
    },
    /// The query cap ran out mid-blocking; the run ends `Unknown`.
    Capped,
}

struct Pdr<'a> {
    /// The shared one-step encoding; every query runs on its solver.
    step: StepEncoding,
    bits: StateBits,
    /// Tie variable of `step.nxt` → global state-bit index (unsat-core
    /// un-priming).
    nxt_gbit: HashMap<i32, usize>,
    /// Assumption literals pinning every defined reset bit.
    init_asmps: Vec<i32>,
    /// Activation literal per frame level (`acts[0]` is unused — `F_0` is
    /// the reset predicate, expressed by assumption literals instead).
    acts: Vec<i32>,
    /// Delta encoding: `frames[j]` holds the cubes whose lemma clause
    /// sits at *exact* level `j`; `F_i` is the conjunction over `j ≥ i`.
    frames: Vec<Vec<Cube>>,
    stats: PdrStats,
    limits: &'a BmcLimits,
    seq: u64,
}

impl<'a> Pdr<'a> {
    fn new(
        ctx: &Context,
        ts: &TransitionSystem,
        bad_index: usize,
        limits: &'a BmcLimits,
    ) -> Pdr<'a> {
        let step = StepEncoding::new(ctx, ts, bad_index);
        let bits = StateBits::new(ctx, ts);
        let nxt_gbit = step.nxt.iter().enumerate().map(|(g, &v)| (v, g)).collect();
        let init_asmps = step
            .cur
            .iter()
            .zip(&bits.init_val)
            .filter_map(|(&l, iv)| iv.map(|v| if v { l } else { -l }))
            .collect();
        Pdr {
            step,
            bits,
            nxt_gbit,
            init_asmps,
            acts: vec![0],
            frames: vec![Vec::new()],
            stats: PdrStats::default(),
            limits,
            seq: 0,
        }
    }

    fn top(&self) -> u32 {
        self.acts.len() as u32 - 1
    }

    fn push_frame(&mut self) {
        let a = self.step.solver.new_var();
        self.acts.push(a);
        self.frames.push(Vec::new());
    }

    fn solve(&mut self, assumps: &[i32]) -> Result<bool, StopReason> {
        self.stats.queries += 1;
        self.limits.solve(&mut self.step.solver, assumps)
    }

    /// The full current-state assignment of the last SAT query, as a cube.
    fn extract_state_cube(&self) -> Cube {
        (0..self.step.cur.len())
            .map(|g| {
                let lit = g as i32 + 1;
                if self.step.solver.value(self.step.cur[g]) {
                    lit
                } else {
                    -lit
                }
            })
            .collect()
    }

    /// If `cube` admits a reset state, restore the first literal of
    /// `full` that contradicts a defined reset bit. `full` must be
    /// init-disjoint, so such a literal exists.
    fn repair_init(&self, cube: &mut Cube, full: &[i32]) {
        if !self.bits.intersects_init(cube) {
            return;
        }
        let l = full
            .iter()
            .copied()
            .find(|&l| self.bits.excludes_init(l))
            .expect("blocked cube must exclude the reset states");
        cube.push(l);
        cube.sort_unstable_by_key(|x| x.unsigned_abs());
    }

    /// The relative-induction query `SAT?[F_{level-1} ∧ C ∧ ¬cube ∧ T ∧
    /// cube']` (`F_0` = the reset predicate, via assumptions). On UNSAT
    /// the returned subcube is shrunk to the failed-assumption core over
    /// the primed literals and repaired to stay init-disjoint — dropping
    /// cube literals is sound on both sides of the query, because a
    /// smaller cube both weakens the primed target and *strengthens*
    /// `¬cube`.
    fn blocking_query(&mut self, cube: &[i32], level: u32) -> Result<QueryOutcome, StopReason> {
        let t = self.step.solver.new_var();
        let mut cl = Vec::with_capacity(cube.len() + 1);
        cl.push(-t);
        for &l in cube {
            cl.push(-copy_lit(&self.step.cur, l));
        }
        self.step.solver.add_clause(&cl);
        let mut assumps = vec![t];
        if level == 1 {
            assumps.extend_from_slice(&self.init_asmps);
        }
        let from = (level.saturating_sub(1)).max(1) as usize;
        assumps.extend_from_slice(&self.acts[from..]);
        for &l in cube {
            assumps.push(copy_lit(&self.step.nxt, l));
        }
        let res = self.solve(&assumps);
        // Read the model / core before retiring `t`: adding the retiring
        // unit cancels the solver back to the root, wiping both.
        let out = match res {
            Err(reason) => {
                self.step.solver.add_clause(&[-t]);
                return Err(reason);
            }
            Ok(true) => QueryOutcome::Reachable(self.extract_state_cube()),
            Ok(false) => {
                let mut core: Cube = self
                    .step
                    .solver
                    .failed_assumptions()
                    .iter()
                    .filter_map(|&fa| {
                        self.nxt_gbit.get(&(fa.unsigned_abs() as i32)).map(|&g| {
                            if fa > 0 {
                                g as i32 + 1
                            } else {
                                -(g as i32 + 1)
                            }
                        })
                    })
                    .collect();
                core.sort_unstable_by_key(|l| l.unsigned_abs());
                self.repair_init(&mut core, cube);
                QueryOutcome::Blocked(core)
            }
        };
        self.step.solver.add_clause(&[-t]);
        Ok(out)
    }

    /// MIC-style generalization: try to drop each literal of the already
    /// core-shrunk cube, re-verifying every drop with its own relative
    /// query (and adopting that query's core when it succeeds).
    fn generalize(&mut self, mut cube: Cube, level: u32) -> Result<Cube, StopReason> {
        let before = cube.len();
        let snapshot = cube.clone();
        for &l in &snapshot {
            if cube.len() <= 1 {
                break;
            }
            let Some(pos) = cube.iter().position(|&x| x == l) else {
                continue;
            };
            let mut cand = cube.clone();
            cand.remove(pos);
            if self.bits.intersects_init(&cand) {
                continue;
            }
            if let QueryOutcome::Blocked(core) = self.blocking_query(&cand, level)? {
                cube = core;
            }
        }
        self.stats.generalize_drops += (before - cube.len()) as u64;
        Ok(cube)
    }

    /// Learns `¬cube` at exact level `level`.
    fn add_lemma(&mut self, cube: &[i32], level: u32) {
        let mut cl = Vec::with_capacity(cube.len() + 1);
        cl.push(-self.acts[level as usize]);
        for &l in cube {
            cl.push(-copy_lit(&self.step.cur, l));
        }
        self.step.solver.add_clause(&cl);
        self.frames[level as usize].push(cube.to_vec());
        self.stats.blocked_cubes += 1;
    }

    fn push_ob(&mut self, queue: &mut BinaryHeap<Reverse<Obl>>, cube: Cube, level: u32, dist: u32) {
        self.seq += 1;
        queue.push(Reverse(Obl {
            level,
            seq: self.seq,
            dist,
            cube,
        }));
    }

    /// Blocks one CTI at the frontier by recursive relative induction.
    fn block_cti(&mut self, cti: Cube, k: u32, query_cap: u64) -> Result<Blocked, StopReason> {
        let mut queue: BinaryHeap<Reverse<Obl>> = BinaryHeap::new();
        self.push_ob(&mut queue, cti, k, 0);
        while let Some(Reverse(ob)) = queue.pop() {
            if let Some(reason) = self.limits.poll() {
                return Err(reason);
            }
            if self.stats.queries >= query_cap {
                return Ok(Blocked::Capped);
            }
            match self.blocking_query(&ob.cube, ob.level)? {
                QueryOutcome::Blocked(core) => {
                    let lemma = self.generalize(core, ob.level)?;
                    self.add_lemma(&lemma, ob.level);
                    // Chase the same cube one frame up so the frontier
                    // lemma set keeps pace with the ladder.
                    if ob.level < k {
                        self.push_ob(&mut queue, ob.cube, ob.level + 1, ob.dist);
                    }
                }
                QueryOutcome::Reachable(pred) => {
                    if ob.level == 1 || self.bits.intersects_init(&pred) {
                        // The predecessor is a reset state: a concrete
                        // path reset → cube → … → bad of dist+1 steps.
                        return Ok(Blocked::Cex { depth: ob.dist + 1 });
                    }
                    let (level, dist) = (ob.level, ob.dist);
                    self.push_ob(&mut queue, pred, level - 1, dist + 1);
                    queue.push(Reverse(ob));
                }
            }
        }
        Ok(Blocked::Done)
    }

    fn run(
        &mut self,
        ctx: &Context,
        ts: &TransitionSystem,
        bad_index: usize,
        opts: &PdrOptions,
    ) -> PdrVerdict {
        let query_cap = opts.max_queries.unwrap_or(u64::MAX);
        // Depth-0 base case: SAT?[Init ∧ C ∧ bad].
        let mut asmps = self.init_asmps.clone();
        asmps.push(self.step.bad_lit);
        match self.solve(&asmps) {
            Err(reason) => return PdrVerdict::Cancelled { frames: 0, reason },
            Ok(true) => return PdrVerdict::Falsified { depth: 0 },
            Ok(false) => {}
        }
        loop {
            let k = self.top();
            if let Some(reason) = self.limits.poll() {
                return PdrVerdict::Cancelled { frames: k, reason };
            }
            if k >= opts.max_frames || self.stats.queries >= query_cap {
                return PdrVerdict::Unknown { frames: k };
            }
            self.push_frame();
            let k = self.top();
            self.stats.frames = k;
            // Blocking phase: clear every bad state out of F_k. In the
            // delta encoding the frontier is `acts[k..]` — exactly the
            // lemmas at level ≥ k.
            loop {
                if self.stats.queries >= query_cap {
                    return PdrVerdict::Unknown { frames: k };
                }
                let mut asmps: Vec<i32> = self.acts[k as usize..].to_vec();
                asmps.push(self.step.bad_lit);
                match self.solve(&asmps) {
                    Err(reason) => return PdrVerdict::Cancelled { frames: k, reason },
                    Ok(false) => break,
                    Ok(true) => {
                        let cti = self.extract_state_cube();
                        self.stats.ctis += 1;
                        if self.bits.intersects_init(&cti) {
                            // A reset state satisfies bad — the depth-0
                            // base case precludes this; defensive only.
                            return PdrVerdict::Falsified { depth: 0 };
                        }
                        match self.block_cti(cti, k, query_cap) {
                            Err(reason) => return PdrVerdict::Cancelled { frames: k, reason },
                            Ok(Blocked::Cex { depth }) => return PdrVerdict::Falsified { depth },
                            Ok(Blocked::Capped) => return PdrVerdict::Unknown { frames: k },
                            Ok(Blocked::Done) => {}
                        }
                    }
                }
            }
            // Propagation: push each lemma as far up the ladder as it
            // stays inductive; an emptied delta frame is a fixpoint.
            for i in 1..k {
                if self.stats.queries >= query_cap {
                    return PdrVerdict::Unknown { frames: k };
                }
                let lemmas = std::mem::take(&mut self.frames[i as usize]);
                let mut kept = Vec::new();
                for c in lemmas {
                    // SAT?[F_i ∧ C ∧ T ∧ c'] — c's own clause is active at
                    // frame i, so ¬c needs no extra assertion.
                    let mut asmps: Vec<i32> = self.acts[i as usize..].to_vec();
                    for &l in &c {
                        asmps.push(copy_lit(&self.step.nxt, l));
                    }
                    match self.solve(&asmps) {
                        Err(reason) => return PdrVerdict::Cancelled { frames: k, reason },
                        Ok(false) => {
                            let mut cl = Vec::with_capacity(c.len() + 1);
                            cl.push(-self.acts[(i + 1) as usize]);
                            for &l in &c {
                                cl.push(-copy_lit(&self.step.cur, l));
                            }
                            self.step.solver.add_clause(&cl);
                            self.frames[(i + 1) as usize].push(c);
                            self.stats.propagated += 1;
                        }
                        Ok(true) => kept.push(c),
                    }
                }
                let fixpoint = kept.is_empty();
                self.frames[i as usize] = kept;
                if fixpoint {
                    // F_i == F_{i+1}: inductive. Extract and re-check.
                    let invariant = self.extract_invariant(i + 1);
                    if check_invariant_on(ctx, ts, bad_index, &self.bits, &invariant).is_ok() {
                        return PdrVerdict::Proven {
                            frames: k,
                            invariant,
                        };
                    }
                    self.stats.recheck_failures += 1;
                    return PdrVerdict::Unknown { frames: k };
                }
            }
        }
    }

    /// The invariant `F_level`: every lemma at levels `level..`, with each
    /// blocked cube negated into a clause over state bits.
    fn extract_invariant(&self, level: u32) -> Invariant {
        let mut clauses = Vec::new();
        for frame in &self.frames[level as usize..] {
            for cube in frame {
                clauses.push(
                    cube.iter()
                        .map(|&l| {
                            let (state, bit) = self.bits.bits[(l.unsigned_abs() - 1) as usize];
                            StateBitLit {
                                state,
                                bit,
                                value: l < 0,
                            }
                        })
                        .collect(),
                );
            }
        }
        Invariant { clauses }
    }
}

/// Re-checks that `inv` certifies `bad` property `bad_index` as
/// unreachable:
///
/// 1. **initiation** — every reset state satisfies every clause, checked
///    against the reset constants without any encoder: a clause passes
///    iff some disjunct is pinned true by a defined reset bit, since bits
///    with nondeterministic reset can always be set to falsify a
///    disjunct;
/// 2. **consecution** — `INV ∧ C ∧ T ∧ ¬INV'` is unsatisfiable;
/// 3. **safety** — `INV ∧ C ∧ bad` is unsatisfiable.
///
/// Consecution and safety run on a fresh solver over a fresh
/// [`StepEncoding`], the encoder BMC's replay-confirmed counterexamples
/// also run on, so a bug in the engine's frame bookkeeping cannot vouch
/// for its own invariant. The encoder itself is shared with the engine.
pub fn check_invariant(
    ctx: &Context,
    ts: &TransitionSystem,
    bad_index: usize,
    inv: &Invariant,
) -> Result<(), String> {
    check_invariant_on(ctx, ts, bad_index, &StateBits::new(ctx, ts), inv)
}

/// [`check_invariant`] over a prebuilt state-bit table of `ts`.
fn check_invariant_on(
    ctx: &Context,
    ts: &TransitionSystem,
    bad_index: usize,
    bits: &StateBits,
    inv: &Invariant,
) -> Result<(), String> {
    let clauses = inv
        .clauses
        .iter()
        .map(|c| c.iter().map(|l| bits.cube_lit(l)).collect())
        .collect::<Result<Vec<Cube>, String>>()?;

    // 1) Initiation, against the reset constants.
    let pinned = |l: i32| bits.init_val[(l.unsigned_abs() - 1) as usize] == Some(l > 0);
    for (ci, clause) in clauses.iter().enumerate() {
        if !clause.iter().any(|&l| pinned(l)) {
            return Err(format!("clause {ci} does not contain the reset states"));
        }
    }

    // 2) + 3) on one fresh step encoding. The ¬INV' disjunction is
    // guarded by an activation literal so it cannot leak into the safety
    // query.
    let mut step = StepEncoding::new(ctx, ts, bad_index);
    for clause in &clauses {
        let cl: Vec<i32> = clause.iter().map(|&l| copy_lit(&step.cur, l)).collect();
        step.solver.add_clause(&cl);
    }
    let t = step.solver.new_var();
    let mut big = vec![-t];
    for clause in &clauses {
        let d = step.solver.new_var();
        for &l in clause {
            // d ⇒ ¬l': the primed disjunct is false.
            let primed = copy_lit(&step.nxt, l);
            step.solver.add_clause(&[-d, -primed]);
        }
        big.push(d);
    }
    step.solver.add_clause(&big);
    match step.solver.solve_bounded(&[t], u64::MAX) {
        SolveOutcome::Unsat => {}
        SolveOutcome::Sat => return Err("invariant is not inductive".into()),
        stop => return Err(format!("consecution check stopped: {stop:?}")),
    }
    match step.solver.solve_bounded(&[step.bad_lit], u64::MAX) {
        SolveOutcome::Unsat => Ok(()),
        SolveOutcome::Sat => Err("invariant does not exclude the bad states".into()),
        stop => Err(format!("safety check stopped: {stop:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqed_ir::TermId;
    use gqed_logic::rng::SplitMix64;

    /// cnt frozen at 0; bad: cnt == 1. 1-inductive, provable immediately.
    fn frozen() -> (Context, TransitionSystem) {
        let mut ctx = Context::new();
        let cnt = ctx.state("cnt", 4);
        let zero = ctx.zero(4);
        let one = ctx.constant(1, 4);
        let bad = ctx.eq(cnt, one);
        let mut ts = TransitionSystem::new("frozen");
        ts.add_state(cnt, Some(zero), cnt);
        ts.add_bad("is_one", bad);
        (ctx, ts)
    }

    /// Two counters in lockstep; bad: a != b && a == 5. Unreachable but
    /// not k-inductive at small k (k-induction returns Unknown at 3).
    fn lockstep() -> (Context, TransitionSystem) {
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
        (ctx, ts)
    }

    #[test]
    fn frozen_counter_proven_with_checked_invariant() {
        let (ctx, ts) = frozen();
        let out = prove_pdr(&ctx, &ts, 0, &PdrOptions::default());
        match out.verdict {
            PdrVerdict::Proven { invariant, frames } => {
                assert!(frames <= 3, "tiny system closed late: {frames} frames");
                assert!(check_invariant(&ctx, &ts, 0, &invariant).is_ok());
                assert!(!invariant.clauses.is_empty());
            }
            other => panic!("expected proof, got {other:?}"),
        }
        assert!(out.stats.blocked_cubes > 0);
        assert_eq!(out.stats.recheck_failures, 0);
    }

    #[test]
    fn counting_to_three_falsified_at_exact_depth() {
        let mut ctx = Context::new();
        let cnt = ctx.state("cnt", 4);
        let zero = ctx.zero(4);
        let next = ctx.inc(cnt);
        let c3 = ctx.constant(3, 4);
        let bad = ctx.eq(cnt, c3);
        let mut ts = TransitionSystem::new("counter");
        ts.add_state(cnt, Some(zero), next);
        ts.add_bad("reach3", bad);
        match prove_pdr(&ctx, &ts, 0, &PdrOptions::default()).verdict {
            PdrVerdict::Falsified { depth } => assert_eq!(depth, 3),
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    #[test]
    fn bad_reset_state_falsified_at_depth_zero() {
        let mut ctx = Context::new();
        let cnt = ctx.state("cnt", 4);
        let zero = ctx.zero(4);
        let bad = ctx.eq(cnt, zero);
        let mut ts = TransitionSystem::new("bad-at-reset");
        ts.add_state(cnt, Some(zero), cnt);
        ts.add_bad("zero_at_reset", bad);
        match prove_pdr(&ctx, &ts, 0, &PdrOptions::default()).verdict {
            PdrVerdict::Falsified { depth } => assert_eq!(depth, 0),
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    #[test]
    fn lockstep_needs_invariant_discovery_and_pdr_finds_it() {
        let (ctx, ts) = lockstep();
        // k-induction honestly gives up on this one…
        assert!(matches!(
            gqed_bmc::prove_k_induction(&ctx, &ts, 0, 3),
            gqed_bmc::ProofResult::Unknown { .. }
        ));
        // …PDR discovers the lockstep lemmas and closes the proof.
        let out = prove_pdr(&ctx, &ts, 0, &PdrOptions::default());
        match out.verdict {
            PdrVerdict::Proven { invariant, .. } => {
                assert!(check_invariant(&ctx, &ts, 0, &invariant).is_ok());
            }
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn frame_limit_reports_unknown() {
        let (ctx, ts) = lockstep();
        let out = prove_pdr(
            &ctx,
            &ts,
            0,
            &PdrOptions {
                max_frames: 1,
                ..PdrOptions::default()
            },
        );
        match out.verdict {
            PdrVerdict::Unknown { frames } => assert_eq!(frames, 1),
            // A very lucky generalization could still close at frame 1;
            // that would be a Proven with a checked invariant. Don't
            // accept anything else.
            PdrVerdict::Proven { invariant, .. } => {
                assert!(check_invariant(&ctx, &ts, 0, &invariant).is_ok());
            }
            other => panic!("expected unknown or proof, got {other:?}"),
        }
    }

    #[test]
    fn pre_raised_interrupt_cancels_immediately() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let (ctx, ts) = lockstep();
        let flag = Arc::new(AtomicBool::new(true));
        let limits = BmcLimits {
            interrupt: Some(Arc::clone(&flag)),
            ..BmcLimits::default()
        };
        let out = prove_pdr_limited(&ctx, &ts, 0, &PdrOptions::default(), &limits);
        assert!(matches!(
            out.verdict,
            PdrVerdict::Cancelled {
                reason: StopReason::Interrupted,
                ..
            }
        ));
    }

    #[test]
    fn tampered_invariant_fails_recheck() {
        let (ctx, ts) = lockstep();
        let out = prove_pdr(&ctx, &ts, 0, &PdrOptions::default());
        let PdrVerdict::Proven { mut invariant, .. } = out.verdict else {
            panic!("expected proof");
        };
        // Flip one disjunct: the clause family no longer holds from reset
        // or is no longer inductive — either way the re-check must fail.
        let l = &mut invariant.clauses[0][0];
        l.value = !l.value;
        assert!(check_invariant(&ctx, &ts, 0, &invariant).is_err());
        // An empty invariant cannot exclude the (reachable) bad-free
        // system's bad states unless they are unsatisfiable — for
        // lockstep, `a != b && a == 5` is satisfiable, so this fails too.
        let empty = Invariant::default();
        assert!(check_invariant(&ctx, &ts, 0, &empty).is_err());
    }

    /// A small deterministic family of random transition systems: one to
    /// three counters with assorted reset values and next functions built
    /// from a tiny grammar, and a conjunction-of-comparisons bad.
    fn random_ts(rng: &mut SplitMix64) -> (Context, TransitionSystem) {
        let mut ctx = Context::new();
        let n = 1 + rng.below(3) as usize;
        let w = 2 + rng.below(3) as u32;
        let states: Vec<TermId> = (0..n).map(|i| ctx.state(format!("s{i}"), w)).collect();
        let mut ts = TransitionSystem::new("fuzz");
        for (i, &s) in states.iter().enumerate() {
            let init = if rng.below(4) == 0 {
                None
            } else {
                Some(ctx.constant(rng.below(1 << w) as u128, w))
            };
            let next = match rng.below(5) {
                0 => ctx.inc(s),
                1 => s,
                2 => {
                    let other = states[rng.below(n as u64) as usize];
                    let k = ctx.constant(rng.below(1 << w) as u128, w);
                    let lt = ctx.ult(s, k);
                    let inc = ctx.inc(s);
                    ctx.ite(lt, inc, other)
                }
                3 => {
                    let k = ctx.constant(rng.below(1 << w) as u128, w);
                    ctx.add(s, k)
                }
                _ => {
                    let z = ctx.zero(w);
                    let lt = {
                        let k = ctx.constant(rng.below(1 << w) as u128, w);
                        ctx.ult(s, k)
                    };
                    let inc = ctx.inc(s);
                    ctx.ite(lt, inc, z)
                }
            };
            let _ = i;
            ts.add_state(s, init, next);
        }
        let t1 = {
            let s = states[rng.below(n as u64) as usize];
            let k = ctx.constant(rng.below(1 << w) as u128, w);
            if rng.next_bool() {
                ctx.eq(s, k)
            } else {
                ctx.ult(k, s)
            }
        };
        let bad = if rng.next_bool() {
            let s = states[rng.below(n as u64) as usize];
            let k = ctx.constant(rng.below(1 << w) as u128, w);
            let t2 = ctx.eq(s, k);
            ctx.and(t1, t2)
        } else {
            t1
        };
        ts.add_bad("fuzz_bad", bad);
        (ctx, ts)
    }

    /// Property: the generalized cube is a sub-cube of its CTI (so the
    /// learnt clause still blocks the CTI state), stays disjoint from the
    /// reset states, and remains blocked by its own relative query.
    #[test]
    fn prop_generalized_cube_still_blocks_its_cti() {
        let mut rng = SplitMix64::new(0xdac2_39de_d001);
        let mut exercised = 0;
        for case in 0..200 {
            let (ctx, ts) = random_ts(&mut rng);
            let limits = BmcLimits::default();
            let mut pdr = Pdr::new(&ctx, &ts, 0, &limits);
            // Skip systems whose bad property fires at reset.
            let mut asmps = pdr.init_asmps.clone();
            asmps.push(pdr.step.bad_lit);
            if pdr.solve(&asmps) != Ok(false) {
                continue;
            }
            pdr.push_frame();
            // Find a CTI at frame 1, if any.
            let mut asmps: Vec<i32> = pdr.acts[1..].to_vec();
            asmps.push(pdr.step.bad_lit);
            if pdr.solve(&asmps) != Ok(true) {
                continue;
            }
            let cti = pdr.extract_state_cube();
            if pdr.bits.intersects_init(&cti) {
                continue;
            }
            let QueryOutcome::Blocked(core) = pdr.blocking_query(&cti, 1).unwrap() else {
                continue; // reachable in one step: falsified, not blocked
            };
            let lemma = pdr.generalize(core, 1).unwrap();
            exercised += 1;
            // Sub-cube of the CTI: every literal appears in the CTI with
            // the same phase, so ¬lemma excludes the CTI state.
            for &l in &lemma {
                assert!(
                    cti.contains(&l),
                    "case {case}: lemma literal {l} not in CTI"
                );
            }
            assert!(
                !pdr.bits.intersects_init(&lemma),
                "case {case}: generalized cube intersects reset"
            );
            // And the generalized cube itself is still blocked.
            assert!(
                matches!(
                    pdr.blocking_query(&lemma, 1).unwrap(),
                    QueryOutcome::Blocked(_)
                ),
                "case {case}: generalized cube no longer blocked"
            );
        }
        assert!(exercised >= 20, "only {exercised} cases exercised the path");
    }

    /// Runs PDR (frame limit 64) on `bad` 0 of `ts` and holds its verdict
    /// against BMC ground truth: a `Proven` invariant passes the re-check
    /// and BMC finds no counterexample within 16 cycles, a `Falsified {
    /// depth }` reproduces on the BMC engine at that bound. Returns
    /// `Some(true)` for a proof, `Some(false)` for a counterexample and
    /// `None` for `Unknown`.
    fn pdr_verdict_matches_bmc(case: u32, ctx: &Context, ts: &TransitionSystem) -> Option<bool> {
        let out = prove_pdr(
            ctx,
            ts,
            0,
            &PdrOptions {
                max_frames: 64,
                ..PdrOptions::default()
            },
        );
        assert_eq!(out.stats.recheck_failures, 0, "case {case}");
        match out.verdict {
            PdrVerdict::Proven { invariant, .. } => {
                assert!(
                    check_invariant(ctx, ts, 0, &invariant).is_ok(),
                    "case {case}: invariant failed re-check"
                );
                let mut engine = gqed_bmc::BmcEngine::new(ctx, ts);
                assert!(
                    !engine.check_up_to(16).is_violated(),
                    "case {case}: proven system has a counterexample"
                );
                Some(true)
            }
            PdrVerdict::Falsified { depth } => {
                let mut engine = gqed_bmc::BmcEngine::new(ctx, ts);
                assert!(
                    engine.check_bad_at(0, depth).is_some(),
                    "case {case}: no counterexample at reported depth {depth}"
                );
                Some(false)
            }
            PdrVerdict::Unknown { .. } => None,
            PdrVerdict::Cancelled { .. } => panic!("case {case}: unlimited run cancelled"),
        }
    }

    /// Property: every returned invariant is genuinely inductive (passes
    /// the re-check), and verdicts agree with BMC ground truth.
    #[test]
    fn prop_returned_invariants_are_inductive_and_verdicts_match_bmc() {
        let mut rng = SplitMix64::new(0x01c3_badc_afe1);
        let (mut proofs, mut cexs) = (0u32, 0u32);
        for case in 0..120 {
            let (ctx, ts) = random_ts(&mut rng);
            match pdr_verdict_matches_bmc(case, &ctx, &ts) {
                Some(true) => proofs += 1,
                Some(false) => cexs += 1,
                None => {}
            }
        }
        assert!(proofs >= 10, "only {proofs} proofs across the family");
        assert!(cexs >= 10, "only {cexs} counterexamples across the family");
    }

    /// Property: the environment-constraint path agrees with BMC. Each
    /// system of the random family gets one constraint `s != k` over a
    /// random state; the step encoding asserts it over the current state
    /// only (frame 0's activation literal as a unit), BMC at every frame.
    #[test]
    fn prop_constrained_systems_match_bmc() {
        let mut rng = SplitMix64::new(0x5eed_c0de_0042);
        let (mut proofs, mut cexs) = (0u32, 0u32);
        for case in 0..200 {
            let (mut ctx, mut ts) = random_ts(&mut rng);
            let s = ts.states[rng.below(ts.states.len() as u64) as usize].term;
            let w = ctx.width(s);
            let k = ctx.constant(rng.below(1 << w) as u128, w);
            let ne = ctx.ne(s, k);
            ts.constraints.push(ne);
            match pdr_verdict_matches_bmc(case, &ctx, &ts) {
                Some(true) => proofs += 1,
                Some(false) => cexs += 1,
                None => {}
            }
        }
        assert!(proofs >= 120, "only {proofs} proofs across the family");
        assert!(cexs >= 60, "only {cexs} counterexamples across the family");
    }
}
