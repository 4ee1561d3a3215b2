//! The CDCL search engine.

mod simplify;

use crate::clause::{ClauseDb, ClauseRef, Tier, CORE_LBD_MAX, MID_LBD_MAX};
use crate::drat::ProofStep;
use crate::heap::VarHeap;
use crate::lit::{Lit, Var};
use crate::luby::luby;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula is unsatisfiable under the given assumptions.
    Unsat,
}

/// Outcome of a [`Solver::solve_bounded`] call: either a definite verdict
/// or the reason the search stopped early. Early stops leave the solver
/// backtracked to the root level and fully usable for further calls.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveOutcome {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula is unsatisfiable under the given assumptions.
    Unsat,
    /// The conflict budget ran out before a verdict.
    BudgetExhausted,
    /// The flag installed with [`Solver::set_interrupt`] was raised.
    Interrupted,
    /// The wall-clock deadline from [`Solver::set_deadline`] passed.
    DeadlineExpired,
    /// The clause arena exceeded the byte budget from
    /// [`Solver::set_memory_limit`] and emergency reclamation could not
    /// bring it back under.
    MemoryLimit,
}

/// Cumulative search statistics, exposed for the evaluation tables.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently live.
    pub learnt_clauses: usize,
    /// Number of clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Number of scheduled clause-arena compactions: database
    /// reduction's, emergency reclamation's and explicit
    /// [`Solver::compact`] calls. The compaction that ends every
    /// inprocessing pass is not counted.
    pub compactions: u64,
    /// High-water mark of clause-arena bytes: the capacity of the one
    /// flat arena, 4 bytes per header word or literal slot, tombstones
    /// and the slack of clauses shrunk in place included until the next
    /// compaction (at the latest, the end of the next inprocessing pass)
    /// reclaims them. Compaction keeps the capacity, and the mark never
    /// falls.
    pub peak_arena_bytes: usize,
    /// Number of emergency learnt-clause purges forced by the memory
    /// limit ([`Solver::set_memory_limit`]).
    pub emergency_reductions: u64,
    /// Inprocessing passes run at solve-call boundaries (scheduled or via
    /// [`Solver::simplify`]).
    pub simplify_rounds: u64,
    /// Variables eliminated by bounded variable elimination, cumulative
    /// (restored variables stay counted; see
    /// [`SolverStats::restored_vars`]).
    pub eliminated_vars: u64,
    /// Eliminated variables restored on demand because a later clause,
    /// assumption or freeze mentioned them.
    pub restored_vars: u64,
    /// Clauses deleted because another clause subsumes them.
    pub subsumed_clauses: u64,
    /// Clauses shortened by self-subsuming resolution.
    pub strengthened_clauses: u64,
    /// Clauses shortened or deleted by vivification.
    pub vivified_clauses: u64,
    /// Live learnt clauses in the core tier (LBD ≤ 2, kept forever).
    pub tier_core: usize,
    /// Live learnt clauses in the mid tier (use-protected).
    pub tier_mid: usize,
    /// Live learnt clauses in the local tier (delete-half pool).
    pub tier_local: usize,
}

/// An 8-byte watch-list entry.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    /// The clause's arena offset, with [`Watcher::BINARY`] set when the
    /// clause has exactly two literals (inlined fast path).
    tagged: u32,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause is satisfied and the watcher need not be inspected.
    /// For binary clauses this is *the* other literal, so propagation
    /// resolves entirely from the watcher without touching the clause
    /// arena (the hottest path in the solver).
    blocker: Lit,
}

impl Watcher {
    const BINARY: u32 = 1 << 31;

    fn new(r: ClauseRef, blocker: Lit, binary: bool) -> Watcher {
        debug_assert!(r.0 < Self::BINARY, "clause arena exceeds 2^31 words");
        Watcher {
            tagged: r.0 | if binary { Self::BINARY } else { 0 },
            blocker,
        }
    }

    fn cref(self) -> ClauseRef {
        ClauseRef(self.tagged & !Self::BINARY)
    }

    fn is_binary(self) -> bool {
        self.tagged & Self::BINARY != 0
    }
}

/// Distinct-level counting by stamping: a level counts once per round,
/// when its stamp differs from the round's. Sized on demand, since a
/// level can exceed the variable count (assumption dummy levels).
#[derive(Clone, Debug, Default)]
struct LevelStamps {
    stamp: Vec<u32>,
    round: u32,
}

impl LevelStamps {
    /// Number of distinct decision levels among `lits` (the LBD).
    fn count(&mut self, level: &[u32], lits: &[Lit]) -> u32 {
        self.round = self.round.wrapping_add(1);
        if self.round == 0 {
            self.stamp.fill(0);
            self.round = 1;
        }
        let mut n = 0;
        for l in lits {
            let lv = level[l.var().index()] as usize;
            if lv >= self.stamp.len() {
                self.stamp.resize(lv + 1, 0);
            }
            if self.stamp[lv] != self.round {
                self.stamp[lv] = self.round;
                n += 1;
            }
        }
        n
    }
}

/// Record of one bounded-variable-elimination step: the variable and
/// every original clause that mentioned it when it was eliminated.
/// Kept in elimination order so [model reconstruction] walks the records
/// in reverse, and so an eliminated variable can be *restored* on demand
/// (clauses re-added, record marked restored) when an incremental caller
/// mentions it again in a new clause, assumption or freeze.
///
/// [model reconstruction]: Solver::extend_model
#[derive(Clone, Debug)]
struct ElimRecord {
    var: Var,
    /// The eliminated variable's original clauses (positive occurrences
    /// first, then negative), flat: each clause is a length word (the
    /// count in a `Lit`'s `u32`, as in the clause arena's header)
    /// followed by its literals. Walk it with [`saved_clauses`].
    clauses: Vec<Lit>,
    /// Whether the variable has been restored; restored records are
    /// skipped by model reconstruction and can never be re-activated
    /// (a re-elimination pushes a fresh record).
    restored: bool,
}

/// The clauses of a flat elimination record ([`ElimRecord::clauses`]),
/// in the order they were saved.
fn saved_clauses(flat: &[Lit]) -> impl Iterator<Item = &[Lit]> {
    let mut rest = flat;
    std::iter::from_fn(move || {
        let (len, tail) = rest.split_first()?;
        let (clause, next) = tail.split_at(len.0 as usize);
        rest = next;
        Some(clause)
    })
}

/// Incremental CDCL SAT solver. See the crate docs for an overview.
#[derive(Clone, Debug)]
pub struct Solver {
    db: ClauseDb,
    /// `watches[l.code()]` — clauses currently watching literal `l`.
    watches: Vec<Vec<Watcher>>,
    /// `dirty[l.code()]` — the watch list may hold watchers of deleted
    /// clauses. Deletion only sets the flag (lazy detach); the list is
    /// cleaned, order kept, before `propagate` walks it and before
    /// compaction.
    dirty: Vec<bool>,
    /// Per literal code: 0 unassigned, 1 true, -1 false (both polarities
    /// of a variable are written together).
    vals: Vec<i8>,
    /// Saved phase for phase-saving polarity selection.
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    /// Indexed max-heap over variable activities.
    heap: VarHeap,
    seen: Vec<bool>,
    /// Scratch buffer for clause normalization in `add_lits`.
    norm: Vec<Lit>,
    /// Conflict-analysis buffers, reused across conflicts: the learnt
    /// clause, the variables to unmark, the minimisation stack, and the
    /// level stamps behind LBD counting.
    learnt: Vec<Lit>,
    to_clear: Vec<Var>,
    min_stack: Vec<ClauseRef>,
    levels: LevelStamps,
    /// Formula known unsatisfiable at level 0.
    ok: bool,
    model: Vec<i8>,
    stats: SolverStats,
    /// Conflicts at which the next database reduction triggers.
    next_reduce: u64,
    reduce_inc: u64,
    /// Scratch buffer reused across database reductions.
    reduce_scratch: Vec<ClauseRef>,
    /// DRAT proof log, when enabled.
    proof: Option<Vec<ProofStep>>,
    /// Subset of the last `solve` call's assumptions responsible for an
    /// Unsat-under-assumptions verdict (empty when Unsat is global).
    conflict_core: Vec<i32>,
    /// Cooperative cancellation flag, polled during search when set.
    interrupt: Option<Arc<AtomicBool>>,
    /// Wall-clock deadline, polled during search when set.
    deadline: Option<Instant>,
    /// Clause-arena byte budget, checked during search when set.
    mem_limit: Option<usize>,
    /// Per variable: index of its elimination record while eliminated by
    /// bounded variable elimination (no attached clause mentions it;
    /// restored on demand).
    elim_record: Vec<Option<u32>>,
    /// Per variable: protected from elimination ([`Solver::freeze`] and
    /// every assumption variable).
    frozen: Vec<bool>,
    /// Elimination records in elimination order (model reconstruction
    /// walks them in reverse).
    elim_records: Vec<ElimRecord>,
    /// Original clauses added since the last inprocessing pass — the
    /// deterministic trigger counter for scheduled simplification.
    simplify_pending: usize,
    /// Whether scheduled inprocessing runs at solve-call boundaries.
    simplify_enabled: bool,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            db: ClauseDb::new(),
            watches: Vec::new(),
            dirty: Vec::new(),
            vals: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: VarHeap::new(),
            seen: Vec::new(),
            norm: Vec::new(),
            learnt: Vec::new(),
            to_clear: Vec::new(),
            min_stack: Vec::new(),
            levels: LevelStamps::default(),
            ok: true,
            model: Vec::new(),
            stats: SolverStats::default(),
            next_reduce: 2000,
            reduce_inc: 500,
            reduce_scratch: Vec::new(),
            proof: None,
            conflict_core: Vec::new(),
            interrupt: None,
            deadline: None,
            mem_limit: None,
            elim_record: Vec::new(),
            frozen: Vec::new(),
            elim_records: Vec::new(),
            simplify_pending: 0,
            simplify_enabled: true,
        }
    }

    /// Enables or disables scheduled inprocessing (on by default). An
    /// explicit [`Solver::simplify`] call still runs a pass either way.
    pub fn set_simplify(&mut self, on: bool) {
        self.simplify_enabled = on;
    }

    /// Freezes the variable of DIMACS literal `l` against bounded
    /// variable elimination, restoring it first if a previous pass
    /// already eliminated it. Freezing is a performance hint for
    /// incremental callers whose future clauses or assumptions will
    /// mention the variable — soundness never depends on it, because
    /// eliminated variables are restored on demand.
    pub fn freeze(&mut self, l: i32) {
        self.ensure_vars(&[l]);
        self.cancel_until(0);
        let v = Lit::from_dimacs(l).var();
        self.restore_var(v);
        self.frozen[v.index()] = true;
    }

    /// Removes the elimination protection installed by
    /// [`Solver::freeze`] (assumption variables re-freeze themselves on
    /// the next solve call that assumes them).
    pub fn unfreeze(&mut self, l: i32) {
        self.ensure_vars(&[l]);
        let v = Lit::from_dimacs(l).var();
        self.frozen[v.index()] = false;
    }

    /// Installs a cooperative cancellation flag. The CDCL search polls it
    /// every few hundred steps with a relaxed atomic load; raising it from
    /// any thread makes in-flight and future [`Solver::solve_bounded`]
    /// calls return [`SolveOutcome::Interrupted`] promptly. This is the
    /// mechanism behind first-verdict-wins engine racing: both engines
    /// share one flag and the winner raises it.
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }

    /// Removes the flag installed with [`Solver::set_interrupt`].
    pub fn clear_interrupt(&mut self) {
        self.interrupt = None;
    }

    /// Installs a wall-clock deadline. Search calls past the deadline
    /// return [`SolveOutcome::DeadlineExpired`]. `Instant::now` is only
    /// consulted at the same polling cadence as the interrupt flag, so the
    /// deadline costs nothing on the hot path.
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    /// Removes the deadline installed with [`Solver::set_deadline`].
    pub fn clear_deadline(&mut self) {
        self.deadline = None;
    }

    /// Installs a clause-arena byte budget. When the arena grows past it
    /// the search first performs an emergency reduction — purge every
    /// unlocked non-binary learnt clause and compact the arena — and only
    /// if that is not enough does [`Solver::solve_bounded`] stop with
    /// [`SolveOutcome::MemoryLimit`]. Learnt clauses are redundant, so
    /// the purge can slow the search down but never change a verdict.
    pub fn set_memory_limit(&mut self, bytes: usize) {
        self.mem_limit = Some(bytes);
    }

    /// Removes the budget installed with [`Solver::set_memory_limit`].
    pub fn clear_memory_limit(&mut self) {
        self.mem_limit = None;
    }

    /// Bytes currently held by the clause arena (the capacity of its one
    /// flat word vector, tombstones included until compaction) — the
    /// quantity [`Solver::set_memory_limit`] bounds.
    pub fn arena_bytes(&self) -> usize {
        self.db.arena_bytes()
    }

    fn over_memory(&self) -> bool {
        self.mem_limit
            .is_some_and(|limit| self.db.arena_bytes() > limit)
    }

    /// Last-resort reclamation when the clause arena exceeds the memory
    /// limit: backtrack to the root, drop every unlocked non-binary
    /// learnt clause, compact the arena and release its spare capacity.
    /// Far more aggressive than [`Solver::reduce_db`]; only search
    /// strength is lost, never soundness.
    fn emergency_reduce(&mut self) {
        self.cancel_until(0);
        let mut learnts = std::mem::take(&mut self.reduce_scratch);
        self.db.learnt_refs_into(&mut learnts);
        learnts.retain(|&r| !(self.db.len(r) == 2 || self.locked(r)));
        for &r in &learnts {
            self.remove_clause(r);
            self.stats.deleted_clauses += 1;
        }
        learnts.clear();
        self.reduce_scratch = learnts;
        self.compact();
        self.db.shrink();
        self.stats.emergency_reductions += 1;
    }

    /// Polls the cooperative stop signals.
    fn poll_stop(&self) -> Option<SolveOutcome> {
        if let Some(flag) = &self.interrupt {
            if flag.load(Ordering::Relaxed) {
                return Some(SolveOutcome::Interrupted);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(SolveOutcome::DeadlineExpired);
            }
        }
        None
    }

    /// After an Unsat verdict from [`Solver::solve`] with assumptions: the
    /// subset of those assumptions that already suffices for
    /// unsatisfiability (the *failed assumptions* / unsat core over
    /// assumptions). Empty when the formula is unsatisfiable on its own.
    pub fn failed_assumptions(&self) -> &[i32] {
        &self.conflict_core
    }

    /// Computes the assumption core when assumption `p` is found already
    /// falsified: walks the implication ancestry of `¬p` back to the
    /// assumption decisions that forced it (MiniSat's `analyzeFinal`).
    fn analyze_final(&mut self, p: Lit) -> Vec<i32> {
        let mut core = vec![p.to_dimacs()];
        if self.decision_level() == 0 {
            return core;
        }
        let mut to_clear = std::mem::take(&mut self.to_clear);
        self.seen[p.var().index()] = true;
        to_clear.push(p.var());
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            if !self.seen[v] {
                continue;
            }
            match self.reason[v] {
                None => {
                    // A decision below the assumption prefix is itself an
                    // assumption; it belongs to the core.
                    if l.var() != p.var() {
                        core.push(l.to_dimacs());
                    }
                }
                Some(r) => {
                    for q in &self.db.lits(r)[1..] {
                        let qv = q.var();
                        if !self.seen[qv.index()] && self.level[qv.index()] > 0 {
                            self.seen[qv.index()] = true;
                            to_clear.push(qv);
                        }
                    }
                }
            }
        }
        for v in to_clear.drain(..) {
            self.seen[v.index()] = false;
        }
        self.to_clear = to_clear;
        core
    }

    /// Turns on DRAT proof logging. For a formula solved **without
    /// assumptions** to an Unsat verdict, [`Solver::take_proof`] then
    /// yields a clausal refutation checkable with
    /// [`crate::drat::check_rup_proof`].
    pub fn enable_proof(&mut self) {
        if self.proof.is_none() {
            self.proof = Some(Vec::new());
        }
    }

    /// Takes the recorded proof (and stops logging until re-enabled).
    pub fn take_proof(&mut self) -> Vec<ProofStep> {
        self.proof.take().unwrap_or_default()
    }

    fn log_add(&mut self, lits: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.push(ProofStep::Add(lits.iter().map(|l| l.to_dimacs()).collect()));
        }
    }

    /// Logs the deletion of stored clause `r` (its current literals).
    fn log_delete(&mut self, r: ClauseRef) {
        if let Some(p) = &mut self.proof {
            p.push(ProofStep::Delete(
                self.db.lits(r).iter().map(|l| l.to_dimacs()).collect(),
            ));
        }
    }

    /// DRAT-logs the deletion of attached clause `r`, then deletes it.
    fn remove_clause(&mut self, r: ClauseRef) {
        self.log_delete(r);
        self.delete_attached(r);
    }

    /// Tombstones attached clause `r` and detaches its watchers lazily:
    /// its two watch lists are only marked dirty.
    fn delete_attached(&mut self, r: ClauseRef) {
        let lits = self.db.lits(r);
        self.dirty[lits[0].code()] = true;
        self.dirty[lits[1].code()] = true;
        self.db.delete(r);
    }

    /// Whether `r` is the reason of a current assignment (it then
    /// implies its first literal).
    fn locked(&self, r: ClauseRef) -> bool {
        let l0 = self.db.lits(r)[0];
        self.value_lit(l0) == 1 && self.reason[l0.var().index()] == Some(r)
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> u32 {
        self.level.len() as u32
    }

    /// Number of live clauses (original + learnt).
    pub fn num_clauses(&self) -> usize {
        self.db.num_live()
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnt_clauses = self.db.num_learnt;
        s.peak_arena_bytes = self.db.peak_bytes.max(self.db.arena_bytes());
        let (core, mid, local) = self.db.tier_counts();
        s.tier_core = core;
        s.tier_mid = mid;
        s.tier_local = local;
        s
    }

    /// Allocates a fresh variable; returns its DIMACS number.
    pub fn new_var(&mut self) -> i32 {
        let v = self.num_vars();
        self.vals.extend([0, 0]);
        self.dirty.extend([false, false]);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.elim_record.push(None);
        self.frozen.push(false);
        self.heap.grow();
        self.heap.push(v, &self.activity);
        v as i32 + 1
    }

    /// Ensures variables up to `|l|` exist for every literal mentioned.
    fn ensure_vars(&mut self, lits: &[i32]) {
        let max = lits.iter().map(|l| l.unsigned_abs()).max().unwrap_or(0);
        while self.num_vars() < max {
            let _ = self.new_var();
        }
    }

    fn value_lit(&self, l: Lit) -> i8 {
        self.vals[l.code()]
    }

    fn value_var(&self, v: Var) -> i8 {
        self.vals[v.pos().code()]
    }

    fn is_eliminated(&self, v: Var) -> bool {
        self.elim_record[v.index()].is_some()
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause of DIMACS literals. May be called between `solve`
    /// calls (the solver backtracks to the root level first). Returns
    /// `false` if the formula became trivially unsatisfiable.
    pub fn add_clause(&mut self, lits: &[i32]) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        self.ensure_vars(lits);
        // Restore-on-demand: any eliminated variable the new clause
        // mentions gets its saved clauses back before the formula changes,
        // so incremental callers never need a freeze discipline for
        // soundness.
        for &l in lits {
            self.restore_var(Lit::from_dimacs(l).var());
            if !self.ok {
                return false;
            }
        }
        self.simplify_pending += 1;
        self.add_lits(lits.iter().map(|&l| Lit::from_dimacs(l)), false);
        self.ok
    }

    /// Normalizes (sort, dedupe, drop root-false lits, detect tautology
    /// and root-true lits) and installs a clause of internal literals at
    /// the root level. Returns the stored ref when a clause of ≥ 2
    /// literals was attached (`None` for tautologies, root-satisfied
    /// clauses, units and the empty clause; the last two set `ok`
    /// accordingly). With `force_log` the stored clause is DRAT-logged
    /// even when normalization left it unchanged — used for derived
    /// clauses such as BVE resolvents.
    fn add_lits(
        &mut self,
        lits_in: impl IntoIterator<Item = Lit>,
        force_log: bool,
    ) -> Option<ClauseRef> {
        debug_assert_eq!(self.decision_level(), 0);
        let mut out = std::mem::take(&mut self.norm);
        out.clear();
        out.extend(lits_in);
        let n_in = out.len();
        let r = if self.normalize(&mut out) {
            // When proof logging is on and normalization strengthened the
            // clause, record the stored (stronger) version as a derived
            // addition so the checker's database matches the solver's.
            let changed = force_log || out.len() != n_in;
            if changed {
                self.log_add(&out);
            }
            match out.len() {
                0 => {
                    self.ok = false;
                    None
                }
                1 => {
                    self.enqueue(out[0], None);
                    if self.propagate().is_some() {
                        self.log_add(&[]);
                        self.ok = false;
                    }
                    None
                }
                _ => {
                    let r = self.db.alloc(&out, false, 0);
                    self.attach(r);
                    Some(r)
                }
            }
        } else {
            None
        };
        self.norm = out;
        r
    }

    /// Sorts and dedupes `ls` and drops its root-false literals, in
    /// place; false when the clause is a tautology or already satisfied
    /// at the root (and need not be stored at all).
    fn normalize(&self, ls: &mut Vec<Lit>) -> bool {
        ls.sort_unstable();
        ls.dedup();
        let mut n = 0;
        for i in 0..ls.len() {
            let l = ls[i];
            if n > 0 && ls[n - 1] == l.negate() {
                return false; // tautology (sorted order puts v, ¬v adjacent)
            }
            match self.value_lit(l) {
                1 => return false, // already satisfied at root
                -1 => continue,    // false at root: drop
                _ => {
                    ls[n] = l;
                    n += 1;
                }
            }
        }
        ls.truncate(n);
        true
    }

    /// Re-activates `v` if it is eliminated: marks its elimination
    /// record restored and re-adds every saved original clause, cascading
    /// into other eliminated variables those clauses mention. The saved
    /// clauses were never DRAT-deleted, so re-adding logs nothing unless
    /// normalization strengthens them.
    fn restore_var(&mut self, v: Var) {
        debug_assert_eq!(self.decision_level(), 0);
        let Some(idx) = self.elim_record[v.index()].take() else {
            return;
        };
        let rec = &mut self.elim_records[idx as usize];
        rec.restored = true;
        let clauses = std::mem::take(&mut rec.clauses);
        self.stats.restored_vars += 1;
        self.heap.push(v.0, &self.activity);
        for c in saved_clauses(&clauses) {
            for &l in c {
                self.restore_var(l.var());
                if !self.ok {
                    return;
                }
            }
            self.add_lits(c.iter().copied(), false);
            if !self.ok {
                return;
            }
        }
    }

    /// Extends the model over eliminated variables: walks the
    /// elimination records in reverse order, giving each variable the
    /// polarity that satisfies its saved clauses. At most one polarity's
    /// clauses can be falsified by the rest of the model (otherwise a
    /// resolvent kept in the formula would be falsified too), so a single
    /// scan per record suffices.
    fn extend_model(&mut self) {
        let records = std::mem::take(&mut self.elim_records);
        for rec in records.iter().rev() {
            if rec.restored {
                continue;
            }
            // Default to false, matching Solver::value's unassigned default.
            let mut val: i8 = -1;
            for c in saved_clauses(&rec.clauses) {
                let mut sat = false;
                let mut vlit = None;
                for &l in c {
                    if l.var() == rec.var {
                        vlit = Some(l);
                        continue;
                    }
                    let a = self.model[l.var().index()];
                    // An unassigned model value (0) reads as false.
                    if if l.is_neg() { a != 1 } else { a == 1 } {
                        sat = true;
                        break;
                    }
                }
                if !sat {
                    let l = vlit.expect("saved clause mentions its variable");
                    val = if l.is_neg() { -1 } else { 1 };
                    break;
                }
            }
            self.model[rec.var.index()] = val;
        }
        self.elim_records = records;
    }

    fn attach(&mut self, r: ClauseRef) {
        let lits = self.db.lits(r);
        let (l0, l1, binary) = (lits[0], lits[1], lits.len() == 2);
        self.watches[l0.code()].push(Watcher::new(r, l1, binary));
        self.watches[l1.code()].push(Watcher::new(r, l0, binary));
    }

    /// Eagerly removes the watchers of `r`, which stays stored (it is
    /// about to be rewritten and re-attached), cleaning both lists of
    /// deleted clauses' watchers on the way.
    fn detach(&mut self, r: ClauseRef) {
        let lits = self.db.lits(r);
        for code in [lits[0].code(), lits[1].code()] {
            if self.dirty[code] {
                self.dirty[code] = false;
                let db = &self.db;
                self.watches[code].retain(|w| w.cref() != r && !db.is_deleted(w.cref()));
            } else {
                self.watches[code].retain(|w| w.cref() != r);
            }
        }
    }

    /// Drops deleted clauses' watchers from list `code`, keeping the
    /// order of the rest.
    fn clean_watches(&mut self, code: usize) {
        if self.dirty[code] {
            self.dirty[code] = false;
            let db = &self.db;
            self.watches[code].retain(|w| !db.is_deleted(w.cref()));
        }
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value_lit(l), 0);
        let v = l.var().index();
        self.vals[l.code()] = 1;
        self.vals[l.negate().code()] = -1;
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negate();
            // Take the watch list for the literal that just became false.
            self.clean_watches(false_lit.code());
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            let mut kept = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Fast path: blocker already true.
                let bv = self.vals[w.blocker.code()];
                if bv == 1 {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let cref = w.cref();
                // Binary clauses resolve entirely from the watcher: the
                // blocker is the only other literal, so the clause arena is
                // never touched unless we actually propagate or conflict.
                if w.is_binary() {
                    ws[kept] = w;
                    kept += 1;
                    if bv == -1 {
                        // Conflict: keep remaining watchers and stop.
                        while i < ws.len() {
                            ws[kept] = ws[i];
                            kept += 1;
                            i += 1;
                        }
                        self.qhead = self.trail.len();
                        conflict = Some(cref);
                        continue;
                    }
                    // Normalize lits[0] to the implied literal so conflict
                    // analysis and locked-clause checks see the invariant.
                    let c = self.db.lits_mut(cref);
                    if c[0] != w.blocker {
                        c.swap(0, 1);
                    }
                    self.enqueue(w.blocker, Some(cref));
                    continue;
                }
                // Normalize: put the false literal at position 1.
                let c = self.db.lits_mut(cref);
                if c[0] == false_lit {
                    c.swap(0, 1);
                }
                debug_assert_eq!(c[1], false_lit);
                let first = c[0];
                let watcher = Watcher::new(cref, first, false);
                if first != w.blocker && self.vals[first.code()] == 1 {
                    ws[kept] = watcher;
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..c.len() {
                    let lk = c[k];
                    if self.vals[lk.code()] != -1 {
                        c.swap(1, k);
                        self.watches[lk.code()].push(watcher);
                        continue 'watchers; // watcher moved; not kept here
                    }
                }
                // Clause is unit or conflicting.
                ws[kept] = watcher;
                kept += 1;
                if self.vals[first.code()] == -1 {
                    // Conflict: keep remaining watchers and stop.
                    while i < ws.len() {
                        ws[kept] = ws[i];
                        kept += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(cref);
                } else {
                    self.enqueue(first, Some(cref));
                }
            }
            ws.truncate(kept);
            self.watches[false_lit.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn cancel_until(&mut self, lvl: u32) {
        if self.decision_level() <= lvl {
            return;
        }
        let bound = self.trail_lim[lvl as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.phase[v] = !l.is_neg();
            self.vals[l.code()] = 0;
            self.vals[l.negate().code()] = 0;
            self.reason[v] = None;
            self.heap.push(v as u32, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(lvl as usize);
        self.qhead = bound;
    }

    fn bump_var(&mut self, v: Var) {
        let i = v.index();
        self.activity[i] += self.var_inc;
        if self.activity[i] > 1e100 {
            // Uniform rescale preserves the heap order.
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.increased(v.0, &self.activity);
    }

    /// First-UIP conflict analysis. Leaves the learnt clause in
    /// `self.learnt` (asserting literal first, highest-level other literal
    /// second) and returns (backtrack level, LBD).
    fn analyze(&mut self, conflict: ClauseRef) -> (u32, u32) {
        let mut learnt = std::mem::take(&mut self.learnt);
        let mut to_clear = std::mem::take(&mut self.to_clear);
        learnt.clear();
        // Placeholder for the asserting literal, known only at the end.
        learnt.push(Lit(0));
        let mut path_c: u32 = 0;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = conflict;
        let dl = self.decision_level();

        loop {
            if self.db.is_learnt(confl) {
                self.db.bump_activity(confl);
                self.bump_clause_use(confl);
            }
            let start = usize::from(p.is_some());
            for k in start..self.db.len(confl) {
                let q = self.db.lits(confl)[k];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v.index()] >= dl {
                        path_c += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_c -= 1;
            p = Some(pl);
            if path_c == 0 {
                break;
            }
            confl = self.reason[pl.var().index()].expect("resolved literal has a reason");
        }
        learnt[0] = p.expect("analysis produces an asserting literal").negate();

        // Recursive clause minimization (MiniSat's litRedundant): a
        // literal is redundant if its entire reason tree bottoms out in
        // literals already marked seen (i.e. already in the clause) or at
        // level 0. Survivors compact in place, order kept.
        let mut n = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if !self.lit_redundant(l, &mut to_clear) {
                learnt[n] = l;
                n += 1;
            }
        }
        learnt.truncate(n);
        for v in to_clear.drain(..) {
            self.seen[v.index()] = false;
        }

        // Highest-level other literal second.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        // LBD: number of distinct decision levels in the clause.
        let lbd = self.levels.count(&self.level, &learnt);
        self.learnt = learnt;
        self.to_clear = to_clear;
        (bt_level, lbd)
    }

    /// Whether literal `l` (already marked seen) is redundant in the
    /// learnt clause: every path through its implication ancestry ends in
    /// a seen literal or at level 0. On success the speculative marks are
    /// kept (a proven-redundant var may legitimately shortcut later
    /// tests); on failure they are rolled back, since an unproven mark
    /// would unsoundly shortcut later tests.
    fn lit_redundant(&mut self, l: Lit, to_clear: &mut Vec<Var>) -> bool {
        let Some(root) = self.reason[l.var().index()] else {
            return false; // decision literal: never redundant
        };
        let top = to_clear.len();
        let stack = &mut self.min_stack;
        stack.clear();
        stack.push(root);
        while let Some(r) = stack.pop() {
            for q in &self.db.lits(r)[1..] {
                let v = q.var();
                if self.seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                match self.reason[v.index()] {
                    None => {
                        // Reaches an unseen decision: not redundant. Roll
                        // back every speculative mark from this test.
                        for &sv in &to_clear[top..] {
                            self.seen[sv.index()] = false;
                        }
                        to_clear.truncate(top);
                        return false;
                    }
                    Some(qr) => {
                        self.seen[v.index()] = true;
                        to_clear.push(v);
                        stack.push(qr);
                    }
                }
            }
        }
        true
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while !self.heap.is_empty() {
            let v = self.heap.pop_max(&self.activity).expect("non-empty");
            if self.value_var(Var(v)) == 0 && !self.is_eliminated(Var(v)) {
                return Some(Var(v));
            }
        }
        None
    }

    /// Marks a learnt clause as used in conflict analysis: refreshes its
    /// use credits and recomputes its LBD against the current assignment,
    /// promoting it when the glue improved (anything → core, local → mid).
    fn bump_clause_use(&mut self, r: ClauseRef) {
        let lbd = self
            .levels
            .count(&self.level, self.db.lits(r))
            .min(self.db.lbd(r));
        let db = &mut self.db;
        db.set_used(r, 2);
        db.set_lbd(r, lbd);
        if lbd <= CORE_LBD_MAX {
            db.set_tier(r, Tier::Core);
        } else if lbd <= MID_LBD_MAX && db.tier(r) == Tier::Local {
            db.set_tier(r, Tier::Mid);
        }
    }

    /// Minimum live learnt clauses before a database reduction is worth
    /// the collect/sort pass at all.
    const REDUCE_MIN_LEARNT: usize = 50;

    /// Tiered database reduction. Core clauses are untouchable; an idle
    /// mid-tier clause (no use credits left) demotes to local; a local
    /// clause spends a credit to survive one round, and once idle it
    /// joins the delete-half candidate pool, sorted worst-first by LBD
    /// then activity.
    fn reduce_db(&mut self) {
        if self.db.num_learnt < Self::REDUCE_MIN_LEARNT {
            return;
        }
        let mut learnts = std::mem::take(&mut self.reduce_scratch);
        self.db.learnt_refs_into(&mut learnts);
        // One pass: spend credits, demote idle mid-tier clauses, and keep
        // only the idle local candidates (compacted into the prefix).
        // Locked clauses (reasons of current assignments) must stay.
        let mut n_cand = 0;
        for i in 0..learnts.len() {
            let r = learnts[i];
            if self.locked(r) {
                continue;
            }
            let db = &mut self.db;
            let used = db.used(r);
            match db.tier(r) {
                Tier::Core => {}
                Tier::Mid => {
                    if used == 0 {
                        db.set_tier(r, Tier::Local);
                        if db.len(r) > 2 {
                            learnts[n_cand] = r;
                            n_cand += 1;
                        }
                    } else {
                        db.set_used(r, used - 1);
                    }
                }
                Tier::Local => {
                    if used > 0 {
                        db.set_used(r, used - 1);
                    } else if db.len(r) > 2 {
                        learnts[n_cand] = r;
                        n_cand += 1;
                    }
                }
            }
        }
        learnts.truncate(n_cand);
        // Delete the worse half: high LBD first, then low activity
        // (total_cmp gives a total order even for degenerate floats).
        // The sort is stable and `learnts` is in allocation order, so
        // ties fall the same way whatever the arena offsets are.
        let db = &self.db;
        learnts.sort_by(|&a, &b| {
            db.lbd(b)
                .cmp(&db.lbd(a))
                .then(db.activity(a).total_cmp(&db.activity(b)))
        });
        let n = learnts.len() / 2;
        for &r in &learnts[..n] {
            self.remove_clause(r);
            self.stats.deleted_clauses += 1;
        }
        learnts.clear();
        self.reduce_scratch = learnts;
        // Once more clauses were deleted since the last scheduled
        // compaction than are live, compact the arena. The backtrack to
        // the root that comes with it acts as a restart, so this schedule
        // is part of the search; the compaction after every inprocessing
        // pass does not move it.
        if self.db.compaction_debt > self.db.num_live() {
            self.compact();
        }
    }

    /// Reclaims tombstoned clause slots and the slack of clauses shrunk
    /// in place, rewriting every live `ClauseRef` (watch lists and
    /// propagation reasons) through the arena's relocation map.
    /// Backtracks to the root level first so no stale reason survives
    /// above it. Safe to call between `solve` calls; also triggered
    /// automatically from database reduction. Counts in
    /// [`SolverStats::compactions`] and restarts database reduction's
    /// compaction schedule.
    pub fn compact(&mut self) {
        self.reclaim();
        self.db.compaction_debt = 0;
        self.stats.compactions += 1;
    }

    /// The compaction itself, off the schedule: cleans every watch list
    /// (order kept), slides the arena down and relocates every reference.
    /// Run at the root after each inprocessing pass; it neither counts as
    /// a compaction nor moves database reduction's schedule, so the
    /// search is the same as without it.
    fn reclaim(&mut self) {
        self.cancel_until(0);
        for code in 0..self.watches.len() {
            self.clean_watches(code);
        }
        let map = self.db.compact();
        let remap = |r: ClauseRef| map.get(r).expect("live ref points at reclaimed clause");
        for ws in &mut self.watches {
            for w in ws.iter_mut() {
                *w = Watcher::new(remap(w.cref()), w.blocker, w.is_binary());
            }
        }
        // Only root assignments remain, and a root reason is never
        // dereferenced; one left pointing at a reclaimed clause becomes
        // `None` rather than aliasing a relocated clause.
        for slot in &mut self.reason {
            *slot = slot.and_then(|r| map.get(r));
        }
    }

    /// Solves the formula under the given DIMACS assumption literals.
    ///
    /// On [`SatResult::Sat`], the model is available through
    /// [`Solver::value`]. The solver stays usable for further `add_clause`
    /// / `solve` calls either way.
    ///
    /// # Panics
    ///
    /// Panics if an interrupt flag or deadline installed on this solver
    /// stops the search — use [`Solver::solve_bounded`] when cancellation
    /// is in play.
    pub fn solve(&mut self, assumptions: &[i32]) -> SatResult {
        match self.solve_bounded(assumptions, u64::MAX) {
            SolveOutcome::Sat => SatResult::Sat,
            SolveOutcome::Unsat => SatResult::Unsat,
            stop => panic!("unlimited solve stopped without a verdict: {stop:?}"),
        }
    }

    /// The full search entry point: a conflict budget plus the cooperative
    /// interrupt flag and wall-clock deadline installed on the solver.
    /// Early stops report *why* the search gave up; the solver backtracks
    /// to the root level and stays usable for further calls.
    pub fn solve_bounded(&mut self, assumptions: &[i32], budget: u64) -> SolveOutcome {
        self.conflict_core.clear();
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        if let Some(stop) = self.poll_stop() {
            return stop;
        }
        if self.over_memory() {
            self.emergency_reduce();
            if self.over_memory() {
                return SolveOutcome::MemoryLimit;
            }
        }
        self.cancel_until(0);
        self.ensure_vars(assumptions);
        // Assumption variables auto-freeze: restored if a previous pass
        // eliminated them, protected from elimination afterwards. This is
        // what keeps activation-literal callers (PDR frames, BMC
        // constraint selectors) sound with inprocessing on.
        for &a in assumptions {
            let v = Lit::from_dimacs(a).var();
            self.restore_var(v);
            self.frozen[v.index()] = true;
        }
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        let assumps: Vec<Lit> = assumptions.iter().map(|&l| Lit::from_dimacs(l)).collect();

        if self.propagate().is_some() {
            self.log_add(&[]);
            self.ok = false;
            return SolveOutcome::Unsat;
        }
        // Scheduled inprocessing at the solve-call boundary: enough new
        // original clauses since the last pass, and simplification not
        // disabled by the caller.
        if self.simplify_enabled && self.simplify_pending >= simplify::SIMPLIFY_INTERVAL {
            self.simplify();
            if !self.ok {
                return SolveOutcome::Unsat;
            }
        }
        let conflicts_at_entry = self.stats.conflicts;
        // Interrupt/deadline polling cadence: every 64 search steps
        // (conflicts + decisions), cheap relative to clause propagation.
        let mut steps_until_poll: u32 = 64;

        let mut restart_round: u64 = 0;
        let mut conflicts_this_round: u64 = 0;
        let mut restart_budget = 100 * luby(1);
        // Glucose-style adaptive restarts: exponential moving averages of
        // learnt-clause LBD. When recent quality (fast EMA) degrades
        // relative to the whole run (slow EMA), restart early.
        let mut lbd_fast: f64 = 0.0;
        let mut lbd_slow: f64 = 0.0;
        let mut ema_initialized = false;

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_round += 1;
                if self.decision_level() == 0 {
                    self.log_add(&[]);
                    self.ok = false;
                    return SolveOutcome::Unsat;
                }
                if self.stats.conflicts - conflicts_at_entry >= budget {
                    self.cancel_until(0);
                    return SolveOutcome::BudgetExhausted;
                }
                steps_until_poll = steps_until_poll.saturating_sub(1);
                if steps_until_poll == 0 {
                    steps_until_poll = 64;
                    if let Some(stop) = self.poll_stop() {
                        self.cancel_until(0);
                        return stop;
                    }
                    if self.over_memory() {
                        // Reclamation backtracks to the root and relocates
                        // the arena, invalidating the pending conflict —
                        // restart the loop instead of analyzing it.
                        self.emergency_reduce();
                        if self.over_memory() {
                            return SolveOutcome::MemoryLimit;
                        }
                        continue;
                    }
                }
                let (bt, lbd) = self.analyze(confl);
                let clause = std::mem::take(&mut self.learnt);
                self.log_add(&clause);
                let l = f64::from(lbd);
                if ema_initialized {
                    lbd_fast += (l - lbd_fast) / 32.0;
                    lbd_slow += (l - lbd_slow) / 8192.0;
                } else {
                    lbd_fast = l;
                    lbd_slow = l;
                    ema_initialized = true;
                }
                self.cancel_until(bt);
                if clause.len() == 1 {
                    self.enqueue(clause[0], None);
                } else {
                    let r = self.db.alloc(&clause, true, lbd);
                    self.attach(r);
                    self.enqueue(clause[0], Some(r));
                }
                self.learnt = clause;
                self.var_inc /= 0.95;
                self.db.decay_activity();
                if self.stats.conflicts >= self.next_reduce {
                    self.next_reduce += self.reduce_inc;
                    self.reduce_inc += 200;
                    self.reduce_db();
                }
            } else {
                let adaptive =
                    ema_initialized && conflicts_this_round >= 50 && lbd_fast > 1.25 * lbd_slow;
                if conflicts_this_round >= restart_budget || adaptive {
                    // Restart (Luby schedule or adaptive LBD trigger).
                    self.stats.restarts += 1;
                    restart_round += 1;
                    conflicts_this_round = 0;
                    lbd_fast = lbd_slow; // reset the recent-quality window
                    restart_budget = 100 * luby(restart_round + 1);
                    self.cancel_until(0);
                    continue;
                }
                // Assumptions act as forced decisions below real decisions.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumps.len() {
                    let a = assumps[self.decision_level() as usize];
                    match self.value_lit(a) {
                        1 => self.new_decision_level(), // already true: dummy level
                        -1 => {
                            // The assumption is already falsified: report
                            // the failing core and stop.
                            self.conflict_core = self.analyze_final(a);
                            return SolveOutcome::Unsat;
                        }
                        _ => {
                            next = Some(a);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(a) => Some(a),
                    None => self.pick_branch_var().map(|v| {
                        if self.phase[v.index()] {
                            v.pos()
                        } else {
                            v.neg()
                        }
                    }),
                };
                match decision {
                    None => {
                        // Complete assignment: SAT. Extend the model over
                        // eliminated variables before reporting it.
                        self.model.clear();
                        self.model.extend(self.vals.iter().step_by(2));
                        self.extend_model();
                        return SolveOutcome::Sat;
                    }
                    Some(d) => {
                        self.stats.decisions += 1;
                        steps_until_poll = steps_until_poll.saturating_sub(1);
                        if steps_until_poll == 0 {
                            steps_until_poll = 64;
                            // Return the picked variable to the heap before
                            // any early exit: backtracking only re-heaps
                            // variables that were actually assigned, and a
                            // var silently dropped here would never be
                            // decided again.
                            if let Some(stop) = self.poll_stop() {
                                self.heap.push(d.var().0, &self.activity);
                                self.cancel_until(0);
                                return stop;
                            }
                            if self.over_memory() {
                                self.heap.push(d.var().0, &self.activity);
                                self.emergency_reduce();
                                if self.over_memory() {
                                    return SolveOutcome::MemoryLimit;
                                }
                                continue;
                            }
                        }
                        self.new_decision_level();
                        self.enqueue(d, None);
                    }
                }
            }
        }
    }

    /// Value of a DIMACS literal in the last model.
    ///
    /// Variables the search never assigned default to `false` (positive
    /// literal). Only meaningful after a [`SatResult::Sat`] result.
    ///
    /// # Panics
    ///
    /// Panics if `l` is zero or references an unallocated variable.
    pub fn value(&self, l: i32) -> bool {
        let lit = Lit::from_dimacs(l);
        let a = self.model[lit.var().index()];
        let pos = a == 1;
        if lit.is_neg() {
            !pos
        } else {
            pos
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::HEADER;

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn single_unit() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a]));
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(s.value(a));
    }

    #[test]
    fn contradictory_units() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a]);
        assert!(!s.add_clause(&[-a]));
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn simple_3sat() {
        let mut s = Solver::new();
        let (a, b, c) = (s.new_var(), s.new_var(), s.new_var());
        s.add_clause(&[a, b, c]);
        s.add_clause(&[-a, b]);
        s.add_clause(&[-b, c]);
        s.add_clause(&[-c, -a]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        // Check the model satisfies all clauses.
        let m = |l: i32| s.value(l);
        assert!(m(a) || m(b) || m(c));
        assert!(!m(a) || m(b));
        assert!(!m(b) || m(c));
        assert!(!m(c) || !m(a));
    }

    #[test]
    fn pigeonhole_2_into_1_unsat() {
        // Two pigeons, one hole.
        let mut s = Solver::new();
        let p1 = s.new_var();
        let p2 = s.new_var();
        s.add_clause(&[p1]); // pigeon 1 in the hole
        s.add_clause(&[p2]); // pigeon 2 in the hole
        s.add_clause(&[-p1, -p2]); // not both
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_4_into_3_unsat() {
        // PHP(4,3): pigeon i in some hole, no two pigeons share a hole.
        let mut s = Solver::new();
        let mut v = [[0i32; 3]; 4];
        for row in &mut v {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for pv in &v {
            s.add_clause(pv);
        }
        #[allow(clippy::needless_range_loop)]
        for h in 0..3 {
            for p1 in 0..4 {
                for p2 in (p1 + 1)..4 {
                    s.add_clause(&[-v[p1][h], -v[p2][h]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a, b]);
        assert_eq!(s.solve(&[-a, -b]), SatResult::Unsat);
        assert_eq!(s.solve(&[-a]), SatResult::Sat);
        assert!(s.value(b));
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a, b]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        s.add_clause(&[-a]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(s.value(b));
        s.add_clause(&[-b]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a, -a]));
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn duplicate_literals_are_merged() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        assert!(s.add_clause(&[a, a, b, b]));
        s.add_clause(&[-a]);
        s.add_clause(&[-b]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn auto_allocates_variables() {
        let mut s = Solver::new();
        s.add_clause(&[5, -7]);
        assert!(s.num_vars() >= 7);
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn xor_chain_forces_propagation() {
        // x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, x1 = 1 ⟹ x3 = 1.
        let mut s = Solver::new();
        let (x1, x2, x3) = (s.new_var(), s.new_var(), s.new_var());
        for (a, b) in [(x1, x2), (x2, x3)] {
            s.add_clause(&[a, b]);
            s.add_clause(&[-a, -b]);
        }
        s.add_clause(&[x1]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(s.value(x1));
        assert!(!s.value(x2));
        assert!(s.value(x3));
    }

    #[test]
    fn unsat_stays_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a]);
        s.add_clause(&[-a]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        assert_eq!(s.solve(&[a]), SatResult::Unsat);
        assert!(!s.add_clause(&[a]));
    }

    #[test]
    fn failed_assumptions_form_a_core() {
        // a ∧ b → c; assuming a, b, ¬c is unsat and every reported core
        // member must be one of the given assumptions.
        let mut s = Solver::new();
        let (a, b, c) = (s.new_var(), s.new_var(), s.new_var());
        s.add_clause(&[-a, -b, c]);
        assert_eq!(s.solve(&[a, b, -c]), SatResult::Unsat);
        let core: Vec<i32> = s.failed_assumptions().to_vec();
        assert!(!core.is_empty());
        for l in &core {
            assert!([a, b, -c].contains(l), "core member {l} not an assumption");
        }
        // The core must itself be unsatisfiable with the formula.
        let mut s2 = Solver::new();
        for _ in 0..3 {
            s2.new_var();
        }
        s2.add_clause(&[-a, -b, c]);
        assert_eq!(s2.solve(&core), SatResult::Unsat);
    }

    #[test]
    fn no_core_for_globally_unsat_formula() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a]);
        s.add_clause(&[-a]);
        assert_eq!(s.solve(&[a]), SatResult::Unsat);
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn core_is_cleared_between_solves() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a, b]);
        assert_eq!(s.solve(&[-a, -b]), SatResult::Unsat);
        assert!(!s.failed_assumptions().is_empty());
        assert_eq!(s.solve(&[a]), SatResult::Sat);
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn solve_bounded_exhausts_and_recovers() {
        // A hard instance with a 1-conflict budget must time out…
        let mut s = Solver::new();
        let mut v = [[0i32; 4]; 5];
        for row in &mut v {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &v {
            s.add_clause(row);
        }
        #[allow(clippy::needless_range_loop)]
        for h in 0..4 {
            for p1 in 0..5 {
                for p2 in (p1 + 1)..5 {
                    s.add_clause(&[-v[p1][h], -v[p2][h]]);
                }
            }
        }
        assert_eq!(s.solve_bounded(&[], 1), SolveOutcome::BudgetExhausted);
        // …and the solver must stay usable for a full solve afterwards.
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn solve_bounded_trivial_within_budget() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a]);
        assert_eq!(s.solve_bounded(&[], 5), SolveOutcome::Sat);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let mut vars = Vec::new();
        for _ in 0..6 {
            vars.push(s.new_var());
        }
        for i in 0..5 {
            s.add_clause(&[vars[i], vars[i + 1]]);
        }
        let _ = s.solve(&[]);
        assert!(s.stats().decisions > 0 || s.stats().propagations > 0);
    }

    /// A pigeonhole instance big enough that the search cannot finish
    /// before the first interrupt poll.
    fn hard_pigeonhole(s: &mut Solver, pigeons: usize) {
        let holes = pigeons - 1;
        let mut v = Vec::new();
        for _ in 0..pigeons {
            let mut row = Vec::new();
            for _ in 0..holes {
                row.push(s.new_var());
            }
            v.push(row);
        }
        for row in &v {
            s.add_clause(row);
        }
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                for (a, b) in v[p1].iter().zip(&v[p2]) {
                    s.add_clause(&[-a, -b]);
                }
            }
        }
    }

    #[test]
    fn raised_interrupt_stops_search() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let mut s = Solver::new();
        hard_pigeonhole(&mut s, 10);
        let flag = Arc::new(AtomicBool::new(true));
        s.set_interrupt(Arc::clone(&flag));
        assert_eq!(
            s.solve_bounded(&[], u64::MAX),
            SolveOutcome::Interrupted,
            "pre-raised flag must stop the search at entry"
        );
        // Lower the flag: the same solver finishes normally.
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve_bounded(&[], u64::MAX), SolveOutcome::Unsat);
    }

    #[test]
    fn expired_deadline_stops_search() {
        let mut s = Solver::new();
        hard_pigeonhole(&mut s, 10);
        s.set_deadline(Instant::now());
        assert_eq!(
            s.solve_bounded(&[], u64::MAX),
            SolveOutcome::DeadlineExpired
        );
        s.clear_deadline();
        assert_eq!(s.solve_bounded(&[], u64::MAX), SolveOutcome::Unsat);
    }

    #[test]
    fn budget_exhaustion_reported_as_outcome() {
        let mut s = Solver::new();
        hard_pigeonhole(&mut s, 8);
        assert_eq!(s.solve_bounded(&[], 1), SolveOutcome::BudgetExhausted);
        assert_eq!(s.solve_bounded(&[], u64::MAX), SolveOutcome::Unsat);
    }

    #[test]
    fn compaction_preserves_verdicts_and_cores() {
        // Mixed incremental workload: a hard UNSAT core plus satisfiable
        // side constraints, queried under assumptions, with learnt-clause
        // deletion and arena compaction in between. Verdicts and failed-
        // assumption sets must be identical before and after compaction.
        let mut s = Solver::new();
        hard_pigeonhole(&mut s, 8);
        let sel = s.new_var(); // selector guarding an extra constraint
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause(&[-sel, x, y]);
        s.add_clause(&[-sel, -x, y]);
        let queries: Vec<Vec<i32>> = vec![vec![sel], vec![sel, -y], vec![-sel], vec![sel, x]];
        let run = |s: &mut Solver| {
            queries
                .iter()
                .map(|q| {
                    let r = s.solve(q);
                    let mut core = s.failed_assumptions().to_vec();
                    core.sort_unstable();
                    (r, core)
                })
                .collect::<Vec<_>>()
        };
        // Exercise the solver (learns + deletes clauses), then snapshot.
        let _ = s.solve(&[]);
        let before = run(&mut s);
        let deleted_before = s.stats().deleted_clauses;
        s.compact();
        assert!(s.stats().compactions >= 1);
        let after = run(&mut s);
        assert_eq!(before, after, "compaction changed verdicts or cores");
        // The workload is hard enough that reduction actually tombstoned
        // clauses at some point, so compaction had something to reclaim.
        assert!(deleted_before > 0, "workload never deleted a clause");
        // Another compaction round on the already-compacted DB is a no-op
        // for correctness too.
        s.compact();
        assert_eq!(run(&mut s), after);
    }

    #[test]
    fn lazily_deleted_clause_implies_nothing() {
        // One binary (inlined watcher path) and one ternary clause; each
        // is deleted lazily, then its other literals are assigned false.
        let mut s = Solver::new();
        let (a, b, c) = (s.new_var(), s.new_var(), s.new_var());
        s.add_clause(&[a, b]);
        s.add_clause(&[a, b, c]);
        let (la, lb, lc) = (
            Lit::from_dimacs(a),
            Lit::from_dimacs(b),
            Lit::from_dimacs(c),
        );
        let mut refs = Vec::new();
        let mut cur = s.db.cursor();
        while let Some(r) = cur.next(&s.db) {
            refs.push(r);
        }
        for r in refs {
            s.remove_clause(r);
        }
        // Detach is lazy: the watchers are still listed, the lists dirty.
        assert_eq!(s.watches[la.code()].len(), 2);
        assert!(s.dirty[la.code()] && s.dirty[lb.code()]);
        s.new_decision_level();
        s.enqueue(la.negate(), None);
        assert_eq!(s.propagate(), None);
        assert_eq!(s.value_lit(lb), 0, "deleted binary clause implied b");
        assert!(s.watches[la.code()].is_empty() && !s.dirty[la.code()]);
        s.new_decision_level();
        s.enqueue(lb.negate(), None);
        assert_eq!(s.propagate(), None);
        assert_eq!(s.value_lit(lc), 0, "deleted ternary clause implied c");
        s.cancel_until(0);
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(&[-a, -b]), SatResult::Sat);
    }

    /// Adds `n` Tseitin AND gates over random literals of earlier
    /// variables (enough original clauses for `n` ≥ 234 to schedule an
    /// inprocessing pass) and returns the gate outputs.
    fn add_gates(s: &mut Solver, rng: &mut gqed_logic::SplitMix64, n: usize) -> Vec<i32> {
        (0..n)
            .map(|_| {
                let top = s.num_vars() as i32;
                let mut lit = || {
                    let v = rng.range_i32(1, top);
                    if rng.next_bool() {
                        v
                    } else {
                        -v
                    }
                };
                let (a, b) = (lit(), lit());
                let g = s.new_var();
                s.add_clause(&[-g, a]);
                s.add_clause(&[-g, b]);
                s.add_clause(&[g, -a, -b]);
                g
            })
            .collect()
    }

    /// Asserts the arena is dense — every clause live, each header right
    /// after the last literal slot of the one before — and that every
    /// watcher points at a live clause that watches the list's literal.
    fn assert_dense_and_clean(s: &Solver) {
        assert_eq!(s.db.num_deleted, 0, "tombstones survived");
        let mut cur = s.db.cursor();
        let (mut at, mut n) = (0, 0);
        while let Some(r) = cur.next(&s.db) {
            assert_eq!(r.0 as usize, at, "gap in front of clause {r:?}");
            at += HEADER + s.db.len(r);
            n += 1;
        }
        assert_eq!(n, s.num_clauses());
        for (code, ws) in s.watches.iter().enumerate() {
            assert!(!s.dirty[code]);
            for w in ws {
                let r = w.cref();
                assert!(r.0 < at as u32 && !s.db.is_deleted(r), "stale watcher");
                assert!(s.db.lits(r)[..2].iter().any(|l| l.code() == code));
            }
        }
    }

    #[test]
    fn simplify_leaves_a_dense_arena_and_live_watchers() {
        let mut s = Solver::new();
        hard_pigeonhole(&mut s, 9);
        let mut rng = gqed_logic::SplitMix64::new(11);
        let gates = add_gates(&mut s, &mut rng, 300);
        // Learn, reduce and tombstone first, so the pass meets learnt
        // clauses and old tombstones as well as its own deletions.
        assert_eq!(
            s.solve_bounded(&[gates[0]], 2600),
            SolveOutcome::BudgetExhausted
        );
        let st = s.stats();
        assert!(st.simplify_rounds == 1 && st.deleted_clauses > 0);
        let _ = add_gates(&mut s, &mut rng, 50);
        let debt = s.db.compaction_debt;
        s.simplify();
        let st = s.stats();
        assert_eq!(st.simplify_rounds, 2);
        assert!(st.eliminated_vars + st.subsumed_clauses + st.vivified_clauses > 0);
        // The pass's compaction is off reduce_db's schedule: it neither
        // counts nor forgets the deletions that trigger the next one.
        assert_eq!(st.compactions, 0, "post-pass compaction counted");
        assert!(
            s.db.compaction_debt > debt,
            "post-pass compaction reset the schedule"
        );
        assert_dense_and_clean(&s);
        assert_ne!(s.solve_bounded(&[gates[1]], 2000), SolveOutcome::Sat);
    }

    #[test]
    fn impossible_memory_limit_stops_without_flipping() {
        // A limit below even the original clauses: emergency reduction has
        // nothing to purge, so the search must stop with MemoryLimit — and
        // once the limit is lifted the verdict is unchanged.
        let mut s = Solver::new();
        hard_pigeonhole(&mut s, 10);
        assert!(s.arena_bytes() > 1);
        s.set_memory_limit(1);
        assert_eq!(s.solve_bounded(&[], u64::MAX), SolveOutcome::MemoryLimit);
        assert!(s.stats().emergency_reductions >= 1);
        s.clear_memory_limit();
        assert_eq!(s.solve_bounded(&[], u64::MAX), SolveOutcome::Unsat);
    }

    #[test]
    fn tight_memory_limit_delays_but_never_flips() {
        // A limit with just a little headroom over the original clauses:
        // the search repeatedly hits it mid-flight and purges its learnt
        // clauses, but whatever it reports must never be Sat, and a later
        // unlimited run still refutes the instance.
        let mut s = Solver::new();
        hard_pigeonhole(&mut s, 8);
        s.set_memory_limit(s.arena_bytes() + 16 * 1024);
        let out = s.solve_bounded(&[], 200_000);
        assert_ne!(out, SolveOutcome::Sat, "memory pressure flipped a verdict");
        assert!(
            s.stats().emergency_reductions >= 1,
            "the limit was never hit — headroom too generous for the test"
        );
        s.clear_memory_limit();
        assert_eq!(s.solve_bounded(&[], u64::MAX), SolveOutcome::Unsat);
    }

    #[test]
    fn memory_limit_with_headroom_still_solves() {
        // A generous limit must not disturb an easy instance at all.
        let mut s = Solver::new();
        let (a, b) = (s.new_var(), s.new_var());
        s.add_clause(&[a, b]);
        s.add_clause(&[-a, b]);
        s.set_memory_limit(64 * 1024 * 1024);
        assert_eq!(s.solve_bounded(&[], u64::MAX), SolveOutcome::Sat);
        assert!(s.value(b));
        assert_eq!(s.stats().emergency_reductions, 0);
    }

    #[test]
    fn concurrent_interrupt_from_other_thread() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let mut s = Solver::new();
        hard_pigeonhole(&mut s, 12);
        let flag = Arc::new(AtomicBool::new(false));
        s.set_interrupt(Arc::clone(&flag));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(30));
                flag.store(true, Ordering::Relaxed);
            });
            let out = s.solve_bounded(&[], u64::MAX);
            // Either the solver was fast enough to refute PHP(12) (very
            // unlikely) or the interrupt landed.
            assert!(
                out == SolveOutcome::Interrupted || out == SolveOutcome::Unsat,
                "unexpected outcome {out:?}"
            );
        });
    }
}
