//! The incremental bounded model checker.
//!
//! One engine instance owns one growing unrolling: a shared AIG, a
//! persistent Tseitin encoding and one incremental SAT solver. Extending
//! the bound adds the new frame's logic; nothing is re-encoded.
//! Environment constraints are attached to per-frame *activation
//! literals* so that a query at frame `k` assumes exactly the constraints
//! of frames `0..=k` — later frames (if already built) cannot prune
//! behavior, which would be unsound for BMC.
//!
//! New clauses are staged in a [`Cnf`] only until the next query drains
//! them into the solver, so a long-lived engine (such as a stopped,
//! resumable campaign session) holds each clause once, in the solver's
//! arena.

use crate::replay::replay;
use crate::trace::Trace;
use gqed_ir::{BitBlaster, Context, Model, TermId, TransitionSystem};
use gqed_logic::aig::{Aig, AigLit};
use gqed_logic::{Cnf, Tseitin};
use gqed_sat::{SolveOutcome, Solver, SolverStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of a bounded check.
#[derive(Clone, Debug)]
pub enum BmcResult {
    /// A violation was found (and confirmed by concrete replay).
    Violated(Trace),
    /// No `bad` property fires within the given bound (inclusive).
    NoneUpTo(u32),
}

impl BmcResult {
    /// The trace, if the result is a violation.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            BmcResult::Violated(t) => Some(t),
            BmcResult::NoneUpTo(_) => None,
        }
    }

    /// Whether a violation was found.
    pub fn is_violated(&self) -> bool {
        matches!(self, BmcResult::Violated(_))
    }
}

/// Why a limited check stopped without a verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The per-query conflict budget ran out.
    BudgetExhausted,
    /// The cooperative cancellation flag was raised.
    Interrupted,
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// The solver's clause arena exceeded the configured byte budget and
    /// emergency reclamation could not bring it back under.
    MemoryLimit,
}

impl StopReason {
    /// The stop reason of an inconclusive solver outcome, `None` for
    /// verdicts.
    pub fn from_outcome(outcome: SolveOutcome) -> Option<StopReason> {
        match outcome {
            SolveOutcome::BudgetExhausted => Some(StopReason::BudgetExhausted),
            SolveOutcome::Interrupted => Some(StopReason::Interrupted),
            SolveOutcome::DeadlineExpired => Some(StopReason::DeadlineExpired),
            SolveOutcome::MemoryLimit => Some(StopReason::MemoryLimit),
            SolveOutcome::Sat | SolveOutcome::Unsat => None,
        }
    }
}

/// Outcome of a limited bounded check ([`BmcEngine::try_check_up_to`]).
#[derive(Clone, Debug)]
pub enum BmcStatus {
    /// A violation was found (and confirmed by concrete replay).
    Violated(Trace),
    /// No `bad` property fires within the given bound (inclusive).
    NoneUpTo(u32),
    /// The check stopped early without a verdict.
    Stopped {
        /// The frame being examined when the check stopped. Frames
        /// `0..frame` are fully checked and clean.
        frame: u32,
        /// Why the check stopped.
        reason: StopReason,
    },
}

impl BmcStatus {
    /// Whether a violation was found.
    pub fn is_violated(&self) -> bool {
        matches!(self, BmcStatus::Violated(_))
    }
}

/// Resource limits applied to each solver query of a limited check.
/// `Default` means unlimited: no budget, no deadline, no interrupt.
#[derive(Clone, Default)]
pub struct BmcLimits {
    /// Conflict budget per solver query.
    pub budget: Option<u64>,
    /// Wall-clock deadline for the whole check.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag, shared with whoever may want to stop
    /// this check (e.g. a faster racing engine).
    pub interrupt: Option<Arc<AtomicBool>>,
    /// Clause-arena byte budget for the solver; exceeding it (after the
    /// solver's emergency reclamation) stops the check with
    /// [`StopReason::MemoryLimit`].
    pub mem_limit: Option<usize>,
}

impl BmcLimits {
    /// Polls the wall-clock signals (interrupt and deadline, not budget) —
    /// used between frames so a raised flag stops the check before the
    /// next frame is encoded, not just at the next solver call.
    pub fn poll(&self) -> Option<StopReason> {
        if let Some(flag) = &self.interrupt {
            if flag.load(Ordering::Relaxed) {
                return Some(StopReason::Interrupted);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(StopReason::DeadlineExpired);
            }
        }
        None
    }

    /// Runs one query on `solver` under these limits: arms the interrupt
    /// flag, deadline and arena budget (clearing any these limits leave
    /// unset) and solves with the conflict budget. `Ok(true)` means SAT,
    /// `Ok(false)` UNSAT, `Err` why the query stopped without a verdict.
    pub fn solve(&self, solver: &mut Solver, assumptions: &[i32]) -> Result<bool, StopReason> {
        match &self.interrupt {
            Some(flag) => solver.set_interrupt(Arc::clone(flag)),
            None => solver.clear_interrupt(),
        }
        match self.deadline {
            Some(d) => solver.set_deadline(d),
            None => solver.clear_deadline(),
        }
        match self.mem_limit {
            Some(m) => solver.set_memory_limit(m),
            None => solver.clear_memory_limit(),
        }
        match solver.solve_bounded(assumptions, self.budget.unwrap_or(u64::MAX)) {
            SolveOutcome::Sat => Ok(true),
            SolveOutcome::Unsat => Ok(false),
            stop => Err(StopReason::from_outcome(stop).expect("verdicts handled above")),
        }
    }
}

/// Size and effort metrics of an engine instance (reported in the
/// evaluation tables).
#[derive(Clone, Copy, Debug)]
pub struct BmcStats {
    /// Number of frames currently unrolled.
    pub frames: u32,
    /// AND gates in the shared AIG.
    pub aig_ands: usize,
    /// CNF variables allocated.
    pub cnf_vars: u32,
    /// CNF clauses added.
    pub cnf_clauses: usize,
    /// Cumulative wall-clock time spent inside this engine's check calls
    /// (encoding + solving + trace extraction).
    pub wall: Duration,
    /// Cumulative number of per-frame queries issued by
    /// [`BmcEngine::try_check_up_to`] over this engine's lifetime, a
    /// query cut short by a limit included. A resume re-queries only the
    /// frame it stopped on, never a verified one — the exact accounting
    /// the bench regression gate checks.
    pub frame_queries: u64,
    /// SAT solver search statistics.
    pub solver: SolverStats,
}

struct Frame {
    /// Bits of every term evaluated in this frame (states seeded).
    blaster: BitBlaster,
    /// AIG input bits allocated for each TS input in this frame.
    input_bits: HashMap<TermId, Vec<AigLit>>,
    /// Activation literal (DIMACS) for this frame's constraints.
    constraint_act: Option<i32>,
}

/// How an engine holds its model: borrowed from the caller (the classic
/// construction) or shared ownership of a prebuilt [`Model`]. The enum
/// stays private; the accessors [`mctx`]/[`mts`] are free functions over
/// `&ModelRef` so the borrow checker sees field-disjoint borrows of the
/// engine (a method taking `&self` would conflict with `&mut self.aig` on
/// the blasting paths).
enum ModelRef<'a> {
    Borrowed {
        ctx: &'a Context,
        ts: &'a TransitionSystem,
    },
    Shared(Arc<Model>),
}

fn mctx<'b>(m: &'b ModelRef<'_>) -> &'b Context {
    match m {
        ModelRef::Borrowed { ctx, .. } => ctx,
        ModelRef::Shared(model) => &model.ctx,
    }
}

fn mts<'b>(m: &'b ModelRef<'_>) -> &'b TransitionSystem {
    match m {
        ModelRef::Borrowed { ts, .. } => ts,
        ModelRef::Shared(model) => &model.ts,
    }
}

/// Incremental BMC engine for a single `(Context, TransitionSystem)` pair.
///
/// The context and system are borrowed for the engine's lifetime
/// ([`BmcEngine::new`]) or owned via a shared [`Model`]
/// ([`BmcEngine::for_model`], which yields a `'static` engine that can
/// live inside a resumable session). Build the full model (including any
/// QED wrapper logic) before constructing the engine.
pub struct BmcEngine<'a> {
    model: ModelRef<'a>,
    aig: Aig,
    cnf: Cnf,
    solver: Solver,
    tseitin: Tseitin,
    frames: Vec<Frame>,
    /// AIG input bits of nondeterministically initialized states.
    init_state_bits: HashMap<TermId, Vec<AigLit>>,
    /// Cached CNF literal of each (bad, frame) pair already encoded.
    bad_lits: HashMap<(usize, u32), i32>,
    /// Wall-clock time accumulated across check calls.
    wall: Duration,
    /// Frames `0..verified_clean` are proven clean (no bad fires there);
    /// [`BmcEngine::try_check_up_to`] resumes from here, making a re-run
    /// after an early stop a warm start rather than a re-solve.
    verified_clean: u32,
    /// Reusable assumption buffer for solver queries (constraint
    /// activation literals + the query literal), to avoid a fresh `Vec`
    /// per query.
    assumption_buf: Vec<i32>,
    /// Per-frame queries solved by `try_check_up_to` (see [`BmcStats`]).
    frame_queries: u64,
}

impl<'a> BmcEngine<'a> {
    /// Creates an engine with no frames unrolled yet.
    pub fn new(ctx: &'a Context, ts: &'a TransitionSystem) -> Self {
        Self::with_model(ModelRef::Borrowed { ctx, ts })
    }

    fn with_model(model: ModelRef<'a>) -> Self {
        BmcEngine {
            model,
            aig: Aig::new(),
            cnf: Cnf::new(),
            solver: Solver::new(),
            tseitin: Tseitin::new(),
            frames: Vec::new(),
            init_state_bits: HashMap::new(),
            bad_lits: HashMap::new(),
            wall: Duration::ZERO,
            verified_clean: 0,
            assumption_buf: Vec::new(),
            frame_queries: 0,
        }
    }

    /// Number of leading frames proven clean so far. A later
    /// [`BmcEngine::try_check_up_to`] call starts checking at this frame,
    /// which is what makes re-running after a budget/deadline stop a
    /// resume instead of a restart.
    pub fn verified_clean(&self) -> u32 {
        self.verified_clean
    }

    /// Enables or disables the solver's scheduled inprocessing
    /// (subsumption, bounded variable elimination, vivification) for this
    /// engine's queries. On by default; soundness never depends on the
    /// setting — eliminated variables restore on demand — so this is
    /// purely a performance knob for A/B benchmarking.
    pub fn set_inprocessing(&mut self, on: bool) {
        self.solver.set_simplify(on);
    }

    /// Current metrics.
    pub fn stats(&self) -> BmcStats {
        BmcStats {
            frames: self.frames.len() as u32,
            aig_ands: self.aig.num_ands(),
            cnf_vars: self.cnf.num_vars(),
            cnf_clauses: self.cnf.num_clauses(),
            wall: self.wall,
            frame_queries: self.frame_queries,
            solver: self.solver.stats(),
        }
    }

    fn const_bits(v: u128, w: u32) -> Vec<AigLit> {
        (0..w)
            .map(|i| {
                if v >> i & 1 != 0 {
                    AigLit::TRUE
                } else {
                    AigLit::FALSE
                }
            })
            .collect()
    }

    /// Builds frames up to and including `frame`.
    fn extend_to(&mut self, frame: u32) {
        while self.frames.len() <= frame as usize {
            let f = self.frames.len() as u32;
            let mut blaster = BitBlaster::new();
            // Seed state bits.
            if f == 0 {
                for s in &mts(&self.model).states {
                    let w = mctx(&self.model).width(s.term);
                    let bits = match s.init {
                        Some(init) => {
                            let v = gqed_ir::eval_terms(mctx(&self.model), &[init], |t| {
                                panic!(
                                    "init must be constant, found leaf '{}'",
                                    mctx(&self.model).var_name(t).unwrap_or("?")
                                )
                            })[0];
                            Self::const_bits(v, w)
                        }
                        None => {
                            let bits: Vec<AigLit> = (0..w).map(|_| self.aig.input()).collect();
                            self.init_state_bits.insert(s.term, bits.clone());
                            bits
                        }
                    };
                    blaster.seed(mctx(&self.model), s.term, bits);
                }
            } else {
                // Next-state bits computed in the previous frame.
                for (t, bits) in self.blast_next_states(f - 1) {
                    blaster.seed(mctx(&self.model), t, bits);
                }
            }
            let mut fr = Frame {
                blaster,
                input_bits: HashMap::new(),
                constraint_act: None,
            };
            // Encode this frame's environment constraints behind one
            // activation literal.
            if !mts(&self.model).constraints.is_empty() {
                let act = self.cnf.fresh_var();
                for &c in &mts(&self.model).constraints {
                    let bits = fr.blaster.blast(
                        mctx(&self.model),
                        &mut self.aig,
                        c,
                        &mut leaf_provider(&mut fr.input_bits),
                    );
                    let lit = self.tseitin.lit(&self.aig, &mut self.cnf, bits[0]);
                    self.cnf.add_clause(&[-act, lit]);
                }
                fr.constraint_act = Some(act);
            }
            self.frames.push(fr);
        }
    }

    /// Blasts every state's next-state function in built frame `frame`,
    /// in state order; the bits seed frame `frame + 1`.
    fn blast_next_states(&mut self, frame: u32) -> Vec<(TermId, Vec<AigLit>)> {
        let fr = &mut self.frames[frame as usize];
        mts(&self.model)
            .states
            .iter()
            .map(|s| {
                let bits = fr.blaster.blast(
                    mctx(&self.model),
                    &mut self.aig,
                    s.next,
                    &mut leaf_provider(&mut fr.input_bits),
                );
                (s.term, bits)
            })
            .collect()
    }

    /// Encodes `bad` property `bad_index` at `frame`; returns its CNF literal.
    fn encode_bad_at(&mut self, bad_index: usize, frame: u32) -> i32 {
        if let Some(&l) = self.bad_lits.get(&(bad_index, frame)) {
            return l;
        }
        self.extend_to(frame);
        let term = mts(&self.model).bads[bad_index].term;
        let fr = &mut self.frames[frame as usize];
        let bits = fr.blaster.blast(
            mctx(&self.model),
            &mut self.aig,
            term,
            &mut leaf_provider(&mut fr.input_bits),
        );
        let lit = self.tseitin.lit(&self.aig, &mut self.cnf, bits[0]);
        self.bad_lits.insert((bad_index, frame), lit);
        lit
    }

    /// Checks a single `bad` property at exactly `frame`; returns a
    /// replay-confirmed trace if violated there.
    pub fn check_bad_at(&mut self, bad_index: usize, frame: u32) -> Option<Trace> {
        let t0 = Instant::now();
        let r = self
            .check_bad_at_inner(bad_index, frame, &BmcLimits::default())
            .expect("unlimited check cannot stop early");
        self.wall += t0.elapsed();
        r
    }

    /// [`BmcEngine::check_bad_at`] under resource limits: `Err` carries the
    /// reason the query stopped without a verdict.
    pub fn check_bad_at_limited(
        &mut self,
        bad_index: usize,
        frame: u32,
        limits: &BmcLimits,
    ) -> Result<Option<Trace>, StopReason> {
        let t0 = Instant::now();
        let r = self.check_bad_at_inner(bad_index, frame, limits);
        self.wall += t0.elapsed();
        r
    }

    fn check_bad_at_inner(
        &mut self,
        bad_index: usize,
        frame: u32,
        limits: &BmcLimits,
    ) -> Result<Option<Trace>, StopReason> {
        let bad_lit = self.encode_bad_at(bad_index, frame);
        // Constraint clauses added during extension must reach the solver
        // too; encode_bad_at only syncs its own cone, so sync again.
        self.flush_cnf();
        if !self.solve_with_constraints(frame, &[bad_lit], limits)? {
            return Ok(None);
        }
        let trace = self.extract_trace(bad_index, frame);
        // Hard soundness guard: every trace must replay concretely.
        replay(mctx(&self.model), mts(&self.model), &trace)
            .unwrap_or_else(|e| panic!("BMC produced a non-replayable counterexample: {e}"));
        Ok(Some(trace))
    }

    /// The inductive-step query of k-induction at depth `frame`, on an
    /// engine over a system whose states all start unconstrained
    /// (`init: None`): can `bad` property `bad_index` fire at `frame`
    /// after staying silent at every earlier frame, with the constraints
    /// of frames `0..=frame` assumed? `Ok(false)` means the step holds at
    /// this depth. Successive depths reuse the unrolling and the solver.
    pub fn bad_can_fire_first_at(
        &mut self,
        bad_index: usize,
        frame: u32,
        limits: &BmcLimits,
    ) -> Result<bool, StopReason> {
        let lits: Vec<i32> = (0..=frame)
            .map(|f| {
                let lit = self.encode_bad_at(bad_index, f);
                if f == frame {
                    lit
                } else {
                    -lit
                }
            })
            .collect();
        self.flush_cnf();
        self.solve_with_constraints(frame, &lits, limits)
    }

    /// Moves into the solver every CNF variable and clause produced since
    /// the last flush (the Tseitin encoder and constraint encoding write
    /// into `self.cnf` only). All new variables go first, then the
    /// clauses in encoding order; the drained clauses are dropped from
    /// `self.cnf`, so the solver holds the only copy.
    fn flush_cnf(&mut self) {
        let (cnf, solver) = (&mut self.cnf, &mut self.solver);
        while solver.num_vars() < cnf.num_vars() {
            let _ = solver.new_var();
        }
        cnf.drain_clauses(|c| {
            solver.add_clause(c);
        });
    }

    /// Checks *all* `bad` properties at exactly `frame` through a single
    /// disjunction query (one solver call per frame instead of one per
    /// property); returns a replay-confirmed trace for the property that
    /// fired, if any.
    fn check_any_bad_at_inner(
        &mut self,
        frame: u32,
        limits: &BmcLimits,
    ) -> Result<Option<Trace>, StopReason> {
        if mts(&self.model).bads.is_empty() {
            return Ok(None);
        }
        if mts(&self.model).bads.len() == 1 {
            return self.check_bad_at_inner(0, frame, limits);
        }
        // Blast every bad at this frame and OR them in the AIG (sharing
        // their cones), caching the individual bits for identification.
        self.extend_to(frame);
        let mut bad_bits: Vec<AigLit> = Vec::with_capacity(mts(&self.model).bads.len());
        for bad_index in 0..mts(&self.model).bads.len() {
            let term = mts(&self.model).bads[bad_index].term;
            let fr = &mut self.frames[frame as usize];
            let bits = fr.blaster.blast(
                mctx(&self.model),
                &mut self.aig,
                term,
                &mut leaf_provider(&mut fr.input_bits),
            );
            bad_bits.push(bits[0]);
        }
        let any = self.aig.or_all(&bad_bits);
        if any == AigLit::FALSE {
            return Ok(None); // all bads fold to constant false here
        }
        let any_lit = self.tseitin.lit(&self.aig, &mut self.cnf, any);
        self.flush_cnf();
        if !self.solve_with_constraints(frame, &[any_lit], limits)? {
            return Ok(None);
        }
        // Identify which property fired in the model.
        let bad_index = bad_bits
            .iter()
            .position(|&b| self.bits_value(&[b]) == 1)
            .expect("disjunction satisfied but no disjunct true");
        let trace = self.extract_trace(bad_index, frame);
        replay(mctx(&self.model), mts(&self.model), &trace)
            .unwrap_or_else(|e| panic!("BMC produced a non-replayable counterexample: {e}"));
        Ok(Some(trace))
    }

    /// Runs one solver query assuming the constraint activation literals
    /// of frames `0..=frame` plus the query literals `extra`, reusing the
    /// engine's assumption buffer instead of building a fresh `Vec` per
    /// query.
    fn solve_with_constraints(
        &mut self,
        frame: u32,
        extra: &[i32],
        limits: &BmcLimits,
    ) -> Result<bool, StopReason> {
        let mut assumptions = std::mem::take(&mut self.assumption_buf);
        assumptions.clear();
        assumptions.extend((0..=frame).filter_map(|f| self.frames[f as usize].constraint_act));
        assumptions.extend_from_slice(extra);
        let out = limits.solve(&mut self.solver, &assumptions);
        self.assumption_buf = assumptions;
        out
    }

    /// Checks all `bad` properties at frames `0..=bound`, depth-first by
    /// frame; returns the first (shallowest) confirmed violation.
    pub fn check_up_to(&mut self, bound: u32) -> BmcResult {
        match self.try_check_up_to(bound, &BmcLimits::default()) {
            BmcStatus::Violated(t) => BmcResult::Violated(t),
            BmcStatus::NoneUpTo(b) => BmcResult::NoneUpTo(b),
            BmcStatus::Stopped { .. } => unreachable!("no limits installed"),
        }
    }

    /// [`BmcEngine::check_up_to`] under resource limits. The interrupt
    /// flag and deadline are also polled *between* frames, so a raised
    /// flag stops the check before the next frame is even encoded; frames
    /// `0..frame` of a [`BmcStatus::Stopped`] result are fully checked.
    pub fn try_check_up_to(&mut self, bound: u32, limits: &BmcLimits) -> BmcStatus {
        let t0 = Instant::now();
        let status = self.try_check_up_to_inner(bound, limits);
        self.wall += t0.elapsed();
        status
    }

    fn try_check_up_to_inner(&mut self, bound: u32, limits: &BmcLimits) -> BmcStatus {
        // Frames below `verified_clean` were proven clean by earlier calls
        // on this engine; start where the last run stopped (warm start).
        for frame in self.verified_clean..=bound {
            if let Some(reason) = limits.poll() {
                return BmcStatus::Stopped { frame, reason };
            }
            self.frame_queries += 1;
            match self.check_any_bad_at_inner(frame, limits) {
                Ok(Some(t)) => return BmcStatus::Violated(t),
                Ok(None) => self.verified_clean = frame + 1,
                Err(reason) => return BmcStatus::Stopped { frame, reason },
            }
        }
        BmcStatus::NoneUpTo(bound)
    }

    /// Reads the model value of a vector of AIG literals.
    fn bits_value(&self, bits: &[AigLit]) -> u128 {
        let mut v = 0u128;
        for (i, &b) in bits.iter().enumerate() {
            let bit = if b == AigLit::TRUE {
                true
            } else if b == AigLit::FALSE {
                false
            } else {
                match self.tseitin.existing_var(b) {
                    // Unencoded (outside every solved cone): unconstrained.
                    None => false,
                    Some(l) => self.solver.value(l),
                }
            };
            v |= u128::from(bit) << i;
        }
        v
    }

    fn extract_trace(&self, bad_index: usize, frame: u32) -> Trace {
        let mut frames = Vec::with_capacity(frame as usize + 1);
        for f in 0..=frame {
            let fr = &self.frames[f as usize];
            let mut m = HashMap::new();
            for &inp in &mts(&self.model).inputs {
                let v = match fr.input_bits.get(&inp) {
                    Some(bits) => self.bits_value(bits),
                    None => 0, // input not referenced in this frame's cones
                };
                m.insert(inp, v);
            }
            frames.push(m);
        }
        let initial_states = self
            .init_state_bits
            .iter()
            .map(|(&t, bits)| (t, self.bits_value(bits)))
            .collect();
        Trace {
            frames,
            initial_states,
            bad_index,
            bad_name: mts(&self.model).bads[bad_index].name.clone(),
        }
    }
}

impl BmcEngine<'static> {
    /// Creates an engine that shares ownership of a prebuilt [`Model`].
    /// The engine has no borrowed lifetime, so it can live inside a
    /// long-lived resumable session (e.g. across campaign retries) while
    /// other sessions of the same design share the same model.
    pub fn for_model(model: Arc<Model>) -> Self {
        Self::with_model(ModelRef::Shared(model))
    }
}

/// `ts` with every state's reset value dropped (`init: None`): the
/// system k-induction's step case and [`StepEncoding`] reason about, where
/// the first frame may be any state.
pub(crate) fn without_init(ts: &TransitionSystem) -> TransitionSystem {
    let mut free = ts.clone();
    for s in &mut free.states {
        s.init = None;
    }
    free
}

/// One transition step of a system as CNF on a solver — the unroller's
/// frame 0 from an arbitrary state, with each next-state bit tied to a
/// variable — so BMC, k-induction and IC3/PDR share one encoder.
///
/// The environment constraints hold over the current state (frame 0's
/// activation literal is asserted as a unit) and deliberately not over
/// the next one: a PDR query's next state plays the role of the following
/// frame's *pre*-state, which the unroller never constrains either.
///
/// [`StepEncoding::new`] consumes the engine that encoded the step, so no
/// Tseitin variable can be allocated once the caller starts calling
/// [`Solver::new_var`] for its own literals: the two allocators cannot
/// interleave and alias a variable.
pub struct StepEncoding {
    /// The solver holding the step's clauses. Inprocessing is off: it
    /// would perturb the failed-assumption cores of PDR's many small
    /// queries for no per-query win.
    pub solver: Solver,
    /// Global state-bit index (states in order, LSB first) → DIMACS
    /// literal of that current-state bit.
    pub cur: Vec<i32>,
    /// Global state-bit index → DIMACS variable equivalent to that bit's
    /// next-state function. Each is a dedicated tie variable, so priming
    /// a cube is injective even when two bits share a hash-consed
    /// function.
    pub nxt: Vec<i32>,
    /// Literal of `bad` property `bad_index` over the current state; it
    /// is only ever assumed, never asserted.
    pub bad_lit: i32,
}

impl StepEncoding {
    /// Encodes one step of `ts` from an arbitrary state, checking `bad`
    /// property `bad_index`.
    pub fn new(ctx: &Context, ts: &TransitionSystem, bad_index: usize) -> StepEncoding {
        let free = without_init(ts);
        let mut engine = BmcEngine::new(ctx, &free);
        engine.set_inprocessing(false);
        let bad_lit = engine.encode_bad_at(bad_index, 0);
        if let Some(act) = engine.frames[0].constraint_act {
            engine.cnf.add_clause(&[act]);
        }
        let mut nxt = Vec::new();
        for (_, bits) in engine.blast_next_states(0) {
            for l in bits {
                let fl = engine.tseitin.lit(&engine.aig, &mut engine.cnf, l);
                let v = engine.cnf.fresh_var();
                engine.cnf.add_clause(&[-v, fl]);
                engine.cnf.add_clause(&[v, -fl]);
                nxt.push(v);
            }
        }
        let mut cur = Vec::with_capacity(nxt.len());
        for s in &free.states {
            for &l in &engine.init_state_bits[&s.term] {
                cur.push(engine.tseitin.lit(&engine.aig, &mut engine.cnf, l));
            }
        }
        engine.flush_cnf();
        StepEncoding {
            solver: engine.solver,
            cur,
            nxt,
            bad_lit,
        }
    }
}

/// Leaf provider that allocates fresh AIG inputs for TS inputs and records
/// them; panics on unseeded states (states are always seeded per frame).
fn leaf_provider(
    input_bits: &mut HashMap<TermId, Vec<AigLit>>,
) -> impl FnMut(&mut Aig, TermId, u32) -> Vec<AigLit> + '_ {
    move |aig, t, w| {
        input_bits
            .entry(t)
            .or_insert_with(|| (0..w).map(|_| aig.input()).collect())
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counter with enable; bad = (cnt == target).
    fn counter_reaches(target: u128, width: u32) -> (Context, TransitionSystem) {
        let mut ctx = Context::new();
        let en = ctx.input("en", 1);
        let cnt = ctx.state("cnt", width);
        let inc = ctx.inc(cnt);
        let next = ctx.ite(en, inc, cnt);
        let zero = ctx.zero(width);
        let tgt = ctx.constant(target, width);
        let hit = ctx.eq(cnt, tgt);
        let mut ts = TransitionSystem::new("counter");
        ts.inputs.push(en);
        ts.add_state(cnt, Some(zero), next);
        ts.add_bad("reaches_target", hit);
        (ctx, ts)
    }

    #[test]
    fn finds_shallowest_violation() {
        let (ctx, ts) = counter_reaches(3, 8);
        let mut engine = BmcEngine::new(&ctx, &ts);
        match engine.check_up_to(10) {
            BmcResult::Violated(t) => assert_eq!(t.len(), 4), // cycles 0..3
            BmcResult::NoneUpTo(_) => panic!("expected violation"),
        }
    }

    #[test]
    fn respects_bound() {
        let (ctx, ts) = counter_reaches(9, 8);
        let mut engine = BmcEngine::new(&ctx, &ts);
        match engine.check_up_to(5) {
            BmcResult::NoneUpTo(b) => assert_eq!(b, 5),
            BmcResult::Violated(_) => panic!("target 9 cannot be hit in 6 cycles"),
        }
        // Deepening the same engine finds it.
        assert!(engine.check_up_to(9).is_violated());
    }

    #[test]
    fn constraints_prune_counterexamples() {
        let (mut ctx, mut ts) = counter_reaches(2, 8);
        // Constrain en = 0: the counter can never move.
        let en = ts.inputs[0];
        let not_en = ctx.not(en);
        ts.constraints.push(not_en);
        let mut engine = BmcEngine::new(&ctx, &ts);
        assert!(!engine.check_up_to(8).is_violated());
    }

    #[test]
    fn nondet_initial_state_found() {
        let mut ctx = Context::new();
        let x = ctx.state("x", 8); // uninitialized
        let next = x;
        let c42 = ctx.constant(42, 8);
        let hit = ctx.eq(x, c42);
        let mut ts = TransitionSystem::new("nondet");
        ts.add_state(x, None, next);
        ts.add_bad("x_is_42", hit);
        let mut engine = BmcEngine::new(&ctx, &ts);
        match engine.check_up_to(0) {
            BmcResult::Violated(t) => {
                assert_eq!(t.initial_states[&x], 42);
            }
            BmcResult::NoneUpTo(_) => panic!("expected violation at frame 0"),
        }
    }

    #[test]
    fn unsatisfiable_bad_never_fires() {
        let mut ctx = Context::new();
        let a = ctx.input("a", 8);
        let cnt = ctx.state("c", 8);
        let next = ctx.add(cnt, a);
        let zero = ctx.zero(8);
        // bad: cnt != cnt  (always false)
        let bad = ctx.ne(cnt, cnt);
        let mut ts = TransitionSystem::new("t");
        ts.inputs.push(a);
        ts.add_state(cnt, Some(zero), next);
        ts.add_bad("never", bad);
        let mut engine = BmcEngine::new(&ctx, &ts);
        assert!(!engine.check_up_to(6).is_violated());
    }

    #[test]
    fn every_encoded_clause_is_drained_into_the_solver() {
        // A constrained design, so flushes carry activation clauses too.
        let (mut ctx, mut ts) = counter_reaches(5, 8);
        let en = ts.inputs[0];
        let not_en = ctx.not(en);
        let always = ctx.or(en, not_en);
        ts.constraints.push(always);
        let mut engine = BmcEngine::new(&ctx, &ts);
        let _ = engine.check_up_to(3);
        assert_eq!(engine.cnf.clauses().count(), 0);

        // Same encoding steps by hand: each flush hands over exactly the
        // clauses pending before it, and the reported size is their sum.
        let mut twin = BmcEngine::new(&ctx, &ts);
        let mut handed = 0;
        for frame in 0..=3 {
            let _ = twin.encode_bad_at(0, frame);
            handed += twin.cnf.clauses().count();
            twin.flush_cnf();
            assert_eq!(twin.cnf.clauses().count(), 0);
        }
        assert_eq!(twin.solver.num_vars(), twin.cnf.num_vars());
        assert_eq!(twin.stats().cnf_clauses, handed);
        assert_eq!(engine.stats().cnf_clauses, handed);
        assert_eq!(engine.stats().cnf_vars, twin.stats().cnf_vars);
    }

    #[test]
    fn stats_grow_with_frames() {
        let (ctx, ts) = counter_reaches(200, 8);
        let mut engine = BmcEngine::new(&ctx, &ts);
        let _ = engine.check_up_to(2);
        let s2 = engine.stats();
        let _ = engine.check_up_to(6);
        let s6 = engine.stats();
        assert!(s6.frames > s2.frames);
        assert!(s6.cnf_clauses >= s2.cnf_clauses);
        assert!(s6.aig_ands >= s2.aig_ands);
    }

    #[test]
    fn wall_time_accumulates() {
        let (ctx, ts) = counter_reaches(200, 8);
        let mut engine = BmcEngine::new(&ctx, &ts);
        assert_eq!(engine.stats().wall, Duration::ZERO);
        let _ = engine.check_up_to(4);
        let w4 = engine.stats().wall;
        assert!(w4 > Duration::ZERO);
        let _ = engine.check_up_to(8);
        assert!(engine.stats().wall >= w4);
    }

    #[test]
    fn raised_interrupt_stops_check() {
        let (ctx, ts) = counter_reaches(200, 8);
        let mut engine = BmcEngine::new(&ctx, &ts);
        let flag = Arc::new(AtomicBool::new(true));
        let limits = BmcLimits {
            interrupt: Some(Arc::clone(&flag)),
            ..BmcLimits::default()
        };
        match engine.try_check_up_to(10, &limits) {
            BmcStatus::Stopped {
                frame: 0,
                reason: StopReason::Interrupted,
            } => {}
            other => panic!("expected immediate interrupt, got {other:?}"),
        }
        // Lowering the flag lets the same engine finish.
        flag.store(false, Ordering::Relaxed);
        assert!(matches!(
            engine.try_check_up_to(10, &limits),
            BmcStatus::NoneUpTo(10)
        ));
    }

    #[test]
    fn expired_deadline_stops_check() {
        let (ctx, ts) = counter_reaches(200, 8);
        let mut engine = BmcEngine::new(&ctx, &ts);
        let limits = BmcLimits {
            deadline: Some(Instant::now()),
            ..BmcLimits::default()
        };
        match engine.try_check_up_to(10, &limits) {
            BmcStatus::Stopped {
                reason: StopReason::DeadlineExpired,
                ..
            } => {}
            other => panic!("expected deadline stop, got {other:?}"),
        }
    }

    #[test]
    fn limited_check_still_finds_violations() {
        let (ctx, ts) = counter_reaches(3, 8);
        let mut engine = BmcEngine::new(&ctx, &ts);
        let limits = BmcLimits {
            budget: Some(1_000_000),
            ..BmcLimits::default()
        };
        match engine.try_check_up_to(10, &limits) {
            BmcStatus::Violated(t) => assert_eq!(t.len(), 4),
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn warm_start_resumes_at_stopped_frame() {
        let (ctx, ts) = counter_reaches(200, 8);
        let mut engine = BmcEngine::new(&ctx, &ts);
        assert_eq!(engine.verified_clean(), 0);
        assert!(!engine.check_up_to(4).is_violated());
        assert_eq!(engine.verified_clean(), 5);
        // An expired deadline stops the next run before frame 5 is
        // examined — at the resume point, not at frame 0.
        let limits = BmcLimits {
            deadline: Some(Instant::now()),
            ..BmcLimits::default()
        };
        match engine.try_check_up_to(10, &limits) {
            BmcStatus::Stopped {
                frame: 5,
                reason: StopReason::DeadlineExpired,
            } => {}
            other => panic!("expected stop at frame 5, got {other:?}"),
        }
        // A retry picks up at frame 5; nothing below is re-solved.
        assert!(!engine.check_up_to(10).is_violated());
        assert_eq!(engine.verified_clean(), 11);
        // A bound entirely below the clean prefix is answered instantly.
        assert!(matches!(engine.check_up_to(3), BmcResult::NoneUpTo(3)));
    }

    #[test]
    fn shared_model_engine_matches_borrowed() {
        let (ctx, ts) = counter_reaches(3, 8);
        let model = Arc::new(Model { ctx, ts });
        let mut engine = BmcEngine::for_model(Arc::clone(&model));
        match engine.check_up_to(10) {
            BmcResult::Violated(t) => assert_eq!(t.len(), 4),
            BmcResult::NoneUpTo(_) => panic!("expected violation"),
        }
        // The model is still shared and usable for another engine.
        let mut second = BmcEngine::for_model(model);
        assert!(second.check_up_to(10).is_violated());
    }

    #[test]
    fn multiple_bads_identified_correctly() {
        let mut ctx = Context::new();
        let en = ctx.input("en", 1);
        let cnt = ctx.state("cnt", 4);
        let inc = ctx.inc(cnt);
        let next = ctx.ite(en, inc, cnt);
        let zero = ctx.zero(4);
        let c5 = ctx.constant(5, 4);
        let c2 = ctx.constant(2, 4);
        let at5 = ctx.eq(cnt, c5);
        let at2 = ctx.eq(cnt, c2);
        let mut ts = TransitionSystem::new("two_bads");
        ts.inputs.push(en);
        ts.add_state(cnt, Some(zero), next);
        ts.add_bad("reach5", at5);
        ts.add_bad("reach2", at2);
        let mut engine = BmcEngine::new(&ctx, &ts);
        match engine.check_up_to(10) {
            BmcResult::Violated(t) => {
                assert_eq!(t.bad_name, "reach2"); // shallower target
                assert_eq!(t.len(), 3);
            }
            BmcResult::NoneUpTo(_) => panic!("expected violation"),
        }
    }
}
