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
//! single static copy of the transition relation (no unrolling): a lemma
//! learnt at exact level `j` is guarded by that level's activation
//! literal, and a query against `F_i` simply assumes the activation
//! literals of every level `j ≥ i`. Each bad state reachable from `F_K`
//! (a *counterexample to induction*) is pulled from the SAT model and
//! blocked by recursive relative induction; blocked cubes are generalized
//! by the solver's failed-assumption core plus a literal-dropping pass,
//! and clauses are propagated forward each round. When some delta frame
//! empties, `F_i = F_{i+1}` is an inductive invariant — which is
//! **re-checked against the model on an independent encoding** before the
//! engine ever reports [`PdrVerdict::Proven`].

#![warn(missing_docs)]

use gqed_bmc::{BmcLimits, StopReason};
use gqed_ir::{BitBlaster, Context, TermId, TransitionSystem};
use gqed_logic::aig::{Aig, AigLit};
use gqed_logic::{Cnf, Tseitin};
use gqed_sat::{SolveOutcome, Solver, SolverStats};
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
/// it independently with [`check_invariant`].
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
    /// Proven invariants that failed the independent re-check (always 0
    /// unless the engine itself is broken; counted, not silently dropped).
    pub recheck_failures: u64,
    /// Search statistics of the underlying solver.
    pub solver: SolverStats,
}

/// Verdict of a PDR run.
#[derive(Clone, Debug)]
pub enum PdrVerdict {
    /// The property can never fire. The invariant passed an independent
    /// inductiveness re-check before this verdict was produced.
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
    pdr.stats.solver = pdr.enc.solver.stats();
    PdrOutcome {
        verdict,
        stats: pdr.stats,
    }
}

/// The static single-copy encoding of a transition system shared by the
/// engine and the independent invariant re-check.
///
/// All Tseitin encoding happens up front against one [`Cnf`] (the
/// encoder allocates variables from the CNF's counter); only after the
/// clauses are loaded — and the solver padded to the CNF's variable
/// count — may further variables be allocated through
/// [`Solver::new_var`], which activation literals and per-query
/// temporaries then use. Interleaving the two allocators would silently
/// alias variables.
struct TsEncoding {
    solver: Solver,
    /// Global state-bit index → DIMACS literal of the current-state copy.
    cur: Vec<i32>,
    /// Global state-bit index → DIMACS variable equivalent to that bit's
    /// next-state function (a dedicated tie variable, so priming a cube
    /// is injective even when two bits share a hash-consed function).
    nxt: Vec<i32>,
    /// Tie variable → global state-bit index (unsat-core un-priming).
    nxt_gbit: HashMap<i32, usize>,
    /// Global state-bit index → reset value; `None` = nondeterministic.
    init_val: Vec<Option<bool>>,
    /// Assumption literals pinning every defined reset bit.
    init_asmps: Vec<i32>,
    /// Literal of the checked `bad` property over the current copy
    /// (asserted only by assumption).
    bad_lit: i32,
    /// Global state-bit index → (state index, bit position).
    bits: Vec<(usize, u32)>,
}

impl TsEncoding {
    fn build(ctx: &Context, ts: &TransitionSystem, bad_index: usize) -> TsEncoding {
        let mut aig = Aig::new();
        let mut cnf = Cnf::new();
        let mut enc = Tseitin::new();
        let mut blaster = BitBlaster::new();

        // Current-state bits are fresh AIG inputs seeded into the blaster.
        let mut state_aig_bits: Vec<AigLit> = Vec::new();
        let mut bits = Vec::new();
        let mut init_val = Vec::new();
        for (si, s) in ts.states.iter().enumerate() {
            let w = ctx.width(s.term);
            let init = s.init.map(|t| {
                ctx.as_const(t)
                    .expect("state reset value must be a constant term")
            });
            let mut sb = Vec::with_capacity(w as usize);
            for b in 0..w {
                let l = aig.input();
                sb.push(l);
                state_aig_bits.push(l);
                bits.push((si, b));
                init_val.push(init.map(|v| (v >> b) & 1 != 0));
            }
            blaster.seed(ctx, s.term, sb);
        }
        let mut input_bits: HashMap<TermId, Vec<AigLit>> = HashMap::new();
        let mut leaf = |aig: &mut Aig, t, w: u32| {
            input_bits
                .entry(t)
                .or_insert_with(|| (0..w).map(|_| aig.input()).collect::<Vec<_>>())
                .clone()
        };
        // Environment constraints hold in the current copy: root units.
        // They are deliberately *not* asserted over the next copy — the
        // BMC/k-induction path asserts constraints per reached frame, and
        // the blocking query's next copy plays the role of the following
        // frame's *pre*-state, which that path never constrains either.
        for &c in &ts.constraints {
            let cb = blaster.blast(ctx, &mut aig, c, &mut leaf);
            let lit = enc.lit(&aig, &mut cnf, cb[0]);
            cnf.add_clause(&[lit]);
        }
        // The bad property, encoded but only ever assumed.
        let bb = blaster.blast(ctx, &mut aig, ts.bads[bad_index].term, &mut leaf);
        let bad_lit = enc.lit(&aig, &mut cnf, bb[0]);
        // Next-state functions, each tied to a dedicated variable.
        let mut nxt = Vec::with_capacity(bits.len());
        let mut nxt_gbit = HashMap::new();
        for s in &ts.states {
            let nb = blaster.blast(ctx, &mut aig, s.next, &mut leaf);
            for &l in &nb {
                let fl = enc.lit(&aig, &mut cnf, l);
                let v = cnf.fresh_var();
                cnf.add_clause(&[-v, fl]);
                cnf.add_clause(&[v, -fl]);
                nxt_gbit.insert(v, nxt.len());
                nxt.push(v);
            }
        }
        let cur: Vec<i32> = state_aig_bits
            .iter()
            .map(|&l| enc.lit(&aig, &mut cnf, l))
            .collect();

        let mut solver = Solver::new();
        // PDR issues thousands of tiny activation-literal queries whose
        // failed-assumption cores drive cube generalization; inprocessing
        // between them perturbs the cores (changing CTI counts against
        // the deterministic query cap) for no per-query win, so it stays
        // off here. The solve-call schedule below is the wrong shape for
        // it anyway.
        solver.set_simplify(false);
        for c in cnf.clauses() {
            solver.add_clause(c);
        }
        // `add_clause` grows variables only to the largest literal it has
        // seen; pad to the CNF's counter so `new_var` cannot alias a
        // Tseitin variable that never appeared in a clause.
        while solver.num_vars() < cnf.num_vars() {
            let _ = solver.new_var();
        }

        let init_asmps = cur
            .iter()
            .zip(&init_val)
            .filter_map(|(&l, iv)| iv.map(|v| if v { l } else { -l }))
            .collect();
        TsEncoding {
            solver,
            cur,
            nxt,
            nxt_gbit,
            init_val,
            init_asmps,
            bad_lit,
            bits,
        }
    }

    /// Current-copy DIMACS literal of cube literal `l`.
    fn cur_lit(&self, l: i32) -> i32 {
        let v = self.cur[(l.unsigned_abs() - 1) as usize];
        if l > 0 {
            v
        } else {
            -v
        }
    }

    /// Next-copy DIMACS literal of cube literal `l`.
    fn nxt_lit(&self, l: i32) -> i32 {
        let v = self.nxt[(l.unsigned_abs() - 1) as usize];
        if l > 0 {
            v
        } else {
            -v
        }
    }

    /// Whether `cube` admits a reset state: no literal contradicts a
    /// defined reset bit (bits with nondeterministic reset are free, as
    /// are bits the cube does not mention).
    fn intersects_init(&self, cube: &[i32]) -> bool {
        !cube
            .iter()
            .any(|&l| match self.init_val[(l.unsigned_abs() - 1) as usize] {
                Some(v) => v != (l > 0),
                None => false,
            })
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
    enc: TsEncoding,
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
        Pdr {
            enc: TsEncoding::build(ctx, ts, bad_index),
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
        let a = self.enc.solver.new_var();
        self.acts.push(a);
        self.frames.push(Vec::new());
    }

    fn solve(&mut self, assumps: &[i32]) -> Result<bool, StopReason> {
        self.stats.queries += 1;
        self.limits.solve(&mut self.enc.solver, assumps)
    }

    /// The full current-state assignment of the last SAT query, as a cube.
    fn extract_state_cube(&self) -> Cube {
        (0..self.enc.cur.len())
            .map(|g| {
                let lit = g as i32 + 1;
                if self.enc.solver.value(self.enc.cur[g]) {
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
        if !self.enc.intersects_init(cube) {
            return;
        }
        let l = full
            .iter()
            .copied()
            .find(
                |&l| match self.enc.init_val[(l.unsigned_abs() - 1) as usize] {
                    Some(v) => v != (l > 0),
                    None => false,
                },
            )
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
        let t = self.enc.solver.new_var();
        let mut cl = Vec::with_capacity(cube.len() + 1);
        cl.push(-t);
        for &l in cube {
            cl.push(-self.enc.cur_lit(l));
        }
        self.enc.solver.add_clause(&cl);
        let mut assumps = vec![t];
        if level == 1 {
            assumps.extend_from_slice(&self.enc.init_asmps);
        }
        let from = (level.saturating_sub(1)).max(1) as usize;
        assumps.extend_from_slice(&self.acts[from..]);
        for &l in cube {
            assumps.push(self.enc.nxt_lit(l));
        }
        let res = self.solve(&assumps);
        // Read the model / core before retiring `t`: adding the retiring
        // unit cancels the solver back to the root, wiping both.
        let out = match res {
            Err(reason) => {
                self.enc.solver.add_clause(&[-t]);
                return Err(reason);
            }
            Ok(true) => QueryOutcome::Reachable(self.extract_state_cube()),
            Ok(false) => {
                let mut core: Cube = self
                    .enc
                    .solver
                    .failed_assumptions()
                    .iter()
                    .filter_map(|&fa| {
                        self.enc
                            .nxt_gbit
                            .get(&(fa.unsigned_abs() as i32))
                            .map(|&g| {
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
        self.enc.solver.add_clause(&[-t]);
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
            if self.enc.intersects_init(&cand) {
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
            cl.push(-self.enc.cur_lit(l));
        }
        self.enc.solver.add_clause(&cl);
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
                    if ob.level == 1 || self.enc.intersects_init(&pred) {
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
        let mut asmps = self.enc.init_asmps.clone();
        asmps.push(self.enc.bad_lit);
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
                asmps.push(self.enc.bad_lit);
                match self.solve(&asmps) {
                    Err(reason) => return PdrVerdict::Cancelled { frames: k, reason },
                    Ok(false) => break,
                    Ok(true) => {
                        let cti = self.extract_state_cube();
                        self.stats.ctis += 1;
                        if self.enc.intersects_init(&cti) {
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
                        asmps.push(self.enc.nxt_lit(l));
                    }
                    match self.solve(&asmps) {
                        Err(reason) => return PdrVerdict::Cancelled { frames: k, reason },
                        Ok(false) => {
                            let mut cl = Vec::with_capacity(c.len() + 1);
                            cl.push(-self.acts[(i + 1) as usize]);
                            for &l in &c {
                                cl.push(-self.enc.cur_lit(l));
                            }
                            self.enc.solver.add_clause(&cl);
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
                    if check_invariant(ctx, ts, bad_index, &invariant).is_ok() {
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
                            let (state, bit) = self.enc.bits[(l.unsigned_abs() - 1) as usize];
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

/// Independently re-checks that `inv` certifies `bad` property
/// `bad_index` as unreachable:
///
/// 1. **initiation** — every reset state satisfies every clause (checked
///    against the reset constants: a clause passes iff some disjunct is
///    pinned true by a defined reset bit, since bits with
///    nondeterministic reset can always be set to falsify a disjunct);
/// 2. **consecution** — `INV ∧ C ∧ T ∧ ¬INV'` is unsatisfiable, on a
///    fresh encoding of the transition relation;
/// 3. **safety** — `INV ∧ C ∧ bad` is unsatisfiable.
///
/// The encoding is rebuilt from the transition system, so a bug in the
/// engine's frame bookkeeping cannot vouch for its own invariant.
pub fn check_invariant(
    ctx: &Context,
    ts: &TransitionSystem,
    bad_index: usize,
    inv: &Invariant,
) -> Result<(), String> {
    // Map (state, bit) → global bit index.
    let mut offset = Vec::with_capacity(ts.states.len());
    let mut total = 0usize;
    for s in &ts.states {
        offset.push(total);
        total += ctx.width(s.term) as usize;
    }
    let gbit = |l: &StateBitLit| -> Result<usize, String> {
        let s = ts
            .states
            .get(l.state)
            .ok_or_else(|| format!("clause names state {} out of range", l.state))?;
        if l.bit >= ctx.width(s.term) {
            return Err(format!("clause names bit {} out of range", l.bit));
        }
        Ok(offset[l.state] + l.bit as usize)
    };

    // 1) Initiation, against the reset constants.
    for (ci, clause) in inv.clauses.iter().enumerate() {
        let mut holds = false;
        for l in clause {
            let g = gbit(l)?;
            let s = &ts.states[l.state];
            let iv = s.init.map(|t| {
                ctx.as_const(t)
                    .expect("state reset value must be a constant term")
            });
            let _ = g;
            if let Some(v) = iv {
                if ((v >> l.bit) & 1 != 0) == l.value {
                    holds = true;
                    break;
                }
            }
        }
        if !holds {
            return Err(format!("clause {ci} does not contain the reset states"));
        }
    }

    // 2) + 3) on one fresh encoding. The ¬INV' disjunction is guarded by
    // an activation literal so it cannot leak into the safety query.
    let mut enc = TsEncoding::build(ctx, ts, bad_index);
    for clause in &inv.clauses {
        let mut cl = Vec::with_capacity(clause.len());
        for l in clause {
            let g = gbit(l)? as i32 + 1;
            cl.push(enc.cur_lit(if l.value { g } else { -g }));
        }
        enc.solver.add_clause(&cl);
    }
    let t = enc.solver.new_var();
    let mut big = vec![-t];
    for clause in &inv.clauses {
        let d = enc.solver.new_var();
        for l in clause {
            // d ⇒ ¬l': the primed disjunct is false.
            let g = gbit(l)? as i32 + 1;
            let primed = enc.nxt_lit(if l.value { g } else { -g });
            enc.solver.add_clause(&[-d, -primed]);
        }
        big.push(d);
    }
    enc.solver.add_clause(&big);
    match enc.solver.solve_bounded(&[t], u64::MAX) {
        SolveOutcome::Unsat => {}
        SolveOutcome::Sat => return Err("invariant is not inductive".into()),
        stop => return Err(format!("consecution check stopped: {stop:?}")),
    }
    match enc.solver.solve_bounded(&[enc.bad_lit], u64::MAX) {
        SolveOutcome::Unsat => Ok(()),
        SolveOutcome::Sat => Err("invariant does not exclude the bad states".into()),
        stop => Err(format!("safety check stopped: {stop:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let mut asmps = pdr.enc.init_asmps.clone();
            asmps.push(pdr.enc.bad_lit);
            if pdr.solve(&asmps) != Ok(false) {
                continue;
            }
            pdr.push_frame();
            // Find a CTI at frame 1, if any.
            let mut asmps: Vec<i32> = pdr.acts[1..].to_vec();
            asmps.push(pdr.enc.bad_lit);
            if pdr.solve(&asmps) != Ok(true) {
                continue;
            }
            let cti = pdr.extract_state_cube();
            if pdr.enc.intersects_init(&cti) {
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
                !pdr.enc.intersects_init(&lemma),
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

    /// Property: every returned invariant is genuinely inductive (passes
    /// the independent re-check), and verdicts agree with BMC ground
    /// truth — `Proven` systems have no counterexample within 16 cycles,
    /// `Falsified { depth }` reproduces on the BMC engine at that bound.
    #[test]
    fn prop_returned_invariants_are_inductive_and_verdicts_match_bmc() {
        let mut rng = SplitMix64::new(0x01c3_badc_afe1);
        let (mut proofs, mut cexs) = (0u32, 0u32);
        for case in 0..120 {
            let (ctx, ts) = random_ts(&mut rng);
            let out = prove_pdr(
                &ctx,
                &ts,
                0,
                &PdrOptions {
                    max_frames: 64,
                    ..PdrOptions::default()
                },
            );
            match out.verdict {
                PdrVerdict::Proven { invariant, .. } => {
                    proofs += 1;
                    assert!(
                        check_invariant(&ctx, &ts, 0, &invariant).is_ok(),
                        "case {case}: invariant failed re-check"
                    );
                    let mut engine = gqed_bmc::BmcEngine::new(&ctx, &ts);
                    assert!(
                        !engine.check_up_to(16).is_violated(),
                        "case {case}: proven system has a counterexample"
                    );
                }
                PdrVerdict::Falsified { depth } => {
                    cexs += 1;
                    let mut engine = gqed_bmc::BmcEngine::new(&ctx, &ts);
                    assert!(
                        engine.check_bad_at(0, depth).is_some(),
                        "case {case}: no counterexample at reported depth {depth}"
                    );
                }
                PdrVerdict::Unknown { .. } => {}
                PdrVerdict::Cancelled { .. } => panic!("case {case}: unlimited run cancelled"),
            }
            assert_eq!(out.stats.recheck_failures, 0, "case {case}");
        }
        assert!(proofs >= 10, "only {proofs} proofs across the family");
        assert!(cexs >= 10, "only {cexs} counterexamples across the family");
    }
}
