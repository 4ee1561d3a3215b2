//! Inprocessing at solve-call boundaries.
//!
//! One [`Solver::simplify`] pass runs, in order: top-level clause
//! simplification (drop root-satisfied clauses, strip root-false
//! literals), occurrence-list forward subsumption with self-subsuming
//! resolution, bounded variable elimination (BVE) with a clause-growth
//! cutoff, and clause vivification — all under one deterministic step
//! budget (no wall clock, so campaign runs stay byte-reproducible at any
//! worker count) — and ends with a compaction of the clause arena.
//!
//! Soundness with incremental callers rests on restore-on-demand: every
//! eliminated variable keeps its original clauses in an elimination
//! record, and any later clause, assumption or freeze that mentions the
//! variable re-adds them (`Solver::restore_var`). Model reconstruction
//! (`Solver::extend_model`) walks the records in reverse to value
//! eliminated variables.
//!
//! DRAT contract: subsumed/satisfied clauses log `Delete`; strengthened
//! and vivified clauses log `Add` of the stronger clause (RUP) before
//! `Delete` of the old one; BVE resolvents log `Add` (RUP from the two
//! parents); the *original* clauses a BVE step removes are deliberately
//! **not** logged as deleted — DRAT deletions are optional, the checker
//! keeping them preserves checkability of later strengthenings, and it
//! lets restore re-add them without any non-RUP re-derivation.

use super::Solver;
use crate::clause::ClauseRef;
use crate::lit::{Lit, Var};

/// Original-clause additions between scheduled inprocessing passes.
pub(crate) const SIMPLIFY_INTERVAL: usize = 700;
/// Deterministic step budget per pass, spent on occurrence scans,
/// resolvent construction and vivification propagations.
const STEP_BUDGET: usize = 2_000_000;
/// Clauses longer than this are neither subsumption nor vivification
/// candidates (quadratic scans on long clauses drown the budget).
const SUBSUME_LEN_MAX: usize = 24;
/// Variables with more occurrences than this in either polarity are not
/// BVE candidates.
const ELIM_OCC_MAX: usize = 16;
/// Resolvents longer than this veto the elimination producing them.
const RESOLVENT_LEN_MAX: usize = 24;
/// Vivification only pays off for clauses at least this long.
const VIVIFY_LEN_MIN: usize = 3;

impl Solver {
    /// Runs one inprocessing pass (top-level simplification; subsumption
    /// and self-subsuming resolution; bounded variable elimination;
    /// vivification) at the root level under a deterministic step
    /// budget, then compacts the clause arena: the pass's tombstones and
    /// shrink slack are reclaimed and every watch list is cleaned, order
    /// kept. That compaction is off database reduction's schedule and
    /// does not count in [`SolverStats::compactions`](crate::SolverStats).
    /// Scheduled automatically from [`Solver::solve_bounded`] when
    /// enough clauses arrived since the last pass; public so callers can
    /// force a pass regardless of [`Solver::set_simplify`].
    pub fn simplify(&mut self) {
        if !self.ok {
            return;
        }
        self.inprocess();
        if self.ok {
            self.reclaim();
        }
    }

    /// The passes of [`Solver::simplify`], stopping early once the
    /// formula is found unsatisfiable.
    fn inprocess(&mut self) {
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.log_add(&[]);
            self.ok = false;
            return;
        }
        // Root-level reasons only matter to in-flight conflict analysis;
        // clearing them means no clause is locked while we rewrite the
        // database.
        self.clear_root_reasons(0);
        self.simplify_pending = 0;
        self.stats.simplify_rounds += 1;
        self.remove_satisfied();
        if !self.ok {
            return;
        }
        let mut budget = STEP_BUDGET;
        let mut occ = self.build_occ();
        self.subsume_round(&occ, &mut budget);
        if !self.ok {
            return;
        }
        self.eliminate_round(&mut occ, &mut budget);
        if !self.ok {
            return;
        }
        self.vivify_round(&mut budget);
    }

    /// Root assignments need no reason clause (conflict analysis never
    /// resolves on level-0 literals, and `analyze_final` only walks the
    /// trail above the first assumption level), so drop them to unlock
    /// every clause for deletion and strengthening. Entries before
    /// `from` were cleared already: root reasons are only ever set by
    /// new root enqueues.
    fn clear_root_reasons(&mut self, from: usize) {
        debug_assert_eq!(self.decision_level(), 0);
        for i in from..self.trail.len() {
            let v = self.trail[i].var().index();
            self.reason[v] = None;
        }
    }

    /// Asserts unit `u` at the root after a clause shrank to it,
    /// propagating and clearing the new root reasons.
    fn assert_root_unit(&mut self, u: Lit) {
        match self.value_lit(u) {
            1 => {}
            -1 => {
                self.log_add(&[]);
                self.ok = false;
            }
            _ => {
                let from = self.trail.len();
                self.enqueue(u, None);
                if self.propagate().is_some() {
                    self.log_add(&[]);
                    self.ok = false;
                }
                self.clear_root_reasons(from);
            }
        }
    }

    /// MiniSat-style top-level simplification: delete every clause
    /// satisfied at the root and strip root-false literals from the
    /// rest, so the later passes only see unassigned literals.
    fn remove_satisfied(&mut self) {
        let mut new: Vec<Lit> = Vec::new();
        let mut cur = self.db.cursor();
        while let Some(r) = cur.next(&self.db) {
            let (sat, has_false) = {
                let mut sat = false;
                let mut f = false;
                for &l in self.db.lits(r) {
                    match self.value_lit(l) {
                        1 => sat = true,
                        -1 => f = true,
                        _ => {}
                    }
                }
                (sat, f)
            };
            if sat {
                self.remove_clause(r);
                self.stats.deleted_clauses += 1;
            } else if has_false {
                new.clear();
                new.extend(
                    self.db
                        .lits(r)
                        .iter()
                        .copied()
                        .filter(|&l| self.value_lit(l) == 0),
                );
                // At the propagation fixpoint an unsatisfied clause with
                // one unassigned literal cannot exist.
                debug_assert!(new.len() >= 2, "root-unit clause survived propagation");
                self.log_add(&new);
                self.log_delete(r);
                self.detach(r);
                self.db.set_lits(r, &new);
                self.attach(r);
            }
        }
    }

    /// Occurrence lists over live *original* clauses, indexed by literal
    /// code. Entries can go stale (clauses deleted or strengthened by
    /// later steps); every consumer re-verifies membership.
    fn build_occ(&self) -> Vec<Vec<ClauseRef>> {
        let mut occ: Vec<Vec<ClauseRef>> = vec![Vec::new(); self.watches.len()];
        let mut cur = self.db.cursor();
        while let Some(r) = cur.next(&self.db) {
            if self.db.is_learnt(r) {
                continue;
            }
            for &l in self.db.lits(r) {
                occ[l.code()].push(r);
            }
        }
        occ
    }

    /// Forward subsumption and self-subsuming resolution. For each
    /// candidate clause C, scan the occurrence lists of its
    /// least-occurring literal (both polarities) counting hits (literals
    /// of D also in C) and flips (literals of D whose negation is in C):
    /// all-hits means C subsumes D (delete D); one flip and the rest
    /// hits means the resolvent of C and D on the flipped variable
    /// subsumes D minus that literal (strengthen D).
    fn subsume_round(&mut self, occ: &[Vec<ClauseRef>], budget: &mut usize) {
        let mut marks: Vec<i8> = vec![0; self.num_vars() as usize];
        let mut lits: Vec<Lit> = Vec::new();
        let mut cur = self.db.cursor();
        while let Some(c) = cur.next(&self.db) {
            if *budget == 0 || !self.ok {
                break;
            }
            if self.db.is_learnt(c) || self.db.len(c) > SUBSUME_LEN_MAX {
                continue;
            }
            lits.clear();
            lits.extend_from_slice(self.db.lits(c));
            if lits.iter().any(|&l| self.value_lit(l) != 0) {
                continue;
            }
            for &l in &lits {
                marks[l.var().index()] = if l.is_neg() { -1 } else { 1 };
            }
            let l_min = *lits
                .iter()
                .min_by_key(|l| occ[l.code()].len())
                .expect("clauses are never empty");
            for key in [l_min, l_min.negate()] {
                for &d in &occ[key.code()] {
                    if d == c || !self.ok {
                        continue;
                    }
                    if self.db.is_deleted(d) {
                        continue;
                    }
                    let dl = self.db.lits(d);
                    if dl.len() < lits.len() || !dl.contains(&key) {
                        continue;
                    }
                    *budget = budget.saturating_sub(dl.len());
                    let mut hits = 0usize;
                    let mut flips = 0usize;
                    let mut flip = None;
                    let mut assigned = false;
                    for &l in dl {
                        if self.value_lit(l) != 0 {
                            assigned = true;
                        }
                        let m = marks[l.var().index()];
                        if m == 0 {
                            continue;
                        }
                        if m == if l.is_neg() { -1 } else { 1 } {
                            hits += 1;
                        } else {
                            flips += 1;
                            flip = Some(l);
                        }
                    }
                    if flips > 1 {
                        continue;
                    }
                    match flip {
                        None if hits == lits.len() => {
                            self.remove_clause(d);
                            self.stats.subsumed_clauses += 1;
                        }
                        Some(l) if hits == lits.len() - 1 && !assigned => {
                            self.strengthen_clause(d, l);
                        }
                        _ => {}
                    }
                }
            }
            for &l in &lits {
                marks[l.var().index()] = 0;
            }
        }
    }

    /// Removes literal `l` from clause `d` in place (self-subsuming
    /// resolution), logging the stronger clause before deleting the old
    /// one and propagating the unit case at the root.
    fn strengthen_clause(&mut self, d: ClauseRef, l: Lit) {
        if self.proof.is_some() {
            let new: Vec<Lit> = self
                .db
                .lits(d)
                .iter()
                .copied()
                .filter(|&x| x != l)
                .collect();
            self.log_add(&new);
            self.log_delete(d);
        }
        self.detach(d);
        self.db.remove_lit(d, l);
        self.stats.strengthened_clauses += 1;
        if self.db.len(d) >= 2 {
            self.attach(d);
        } else {
            let u = self.db.lits(d)[0];
            self.db.delete(d);
            self.assert_root_unit(u);
        }
    }

    /// Live original clauses from `occ[l]` that still contain `l`,
    /// collected into `out` (cleared first).
    fn gather_occ(&self, occ: &[Vec<ClauseRef>], l: Lit, out: &mut Vec<ClauseRef>) {
        out.clear();
        out.extend(occ[l.code()].iter().copied().filter(|&r| {
            !self.db.is_deleted(r) && !self.db.is_learnt(r) && self.db.lits(r).contains(&l)
        }));
    }

    /// Bounded variable elimination. A variable is a candidate when it
    /// is unassigned, not frozen and occurs at most [`ELIM_OCC_MAX`]
    /// times per polarity; it is eliminated when its non-tautological
    /// resolvents do not outnumber the clauses they replace and none
    /// exceeds [`RESOLVENT_LEN_MAX`]. Resolvents are first only counted
    /// and measured against a literal mark array; they are built only for
    /// a committed elimination. The ordering within a commit — save
    /// originals, detach and delete them, mark eliminated, only then add
    /// resolvents — guarantees a unit resolvent propagating can never
    /// re-assign the variable (no attached clause mentions it).
    fn eliminate_round(&mut self, occ: &mut [Vec<ClauseRef>], budget: &mut usize) {
        let nv = self.num_vars() as usize;
        let mut any_elim = false;
        let (mut pos, mut neg) = (Vec::new(), Vec::new());
        let mut marks: Vec<bool> = vec![false; 2 * nv];
        let mut res: Vec<Lit> = Vec::new();
        for vi in 0..nv {
            if *budget == 0 || !self.ok {
                break;
            }
            let v = Var(vi as u32);
            if self.frozen[vi] || self.is_eliminated(v) || self.value_var(v) != 0 {
                continue;
            }
            self.gather_occ(occ, v.pos(), &mut pos);
            self.gather_occ(occ, v.neg(), &mut neg);
            if pos.len() > ELIM_OCC_MAX || neg.len() > ELIM_OCC_MAX {
                continue;
            }
            if pos.is_empty() && neg.is_empty() {
                continue;
            }
            if !self.resolvents_fit(v, &pos, &neg, &mut marks, budget) {
                continue;
            }
            // Commit: save → delete originals (unlogged; see module docs)
            // → mark eliminated → add resolvents. The record is sized
            // exactly: one length word plus the literals per clause.
            let words =
                |refs: &[ClauseRef]| -> usize { refs.iter().map(|&r| 1 + self.db.len(r)).sum() };
            let split = words(&pos);
            let mut saved: Vec<Lit> = Vec::with_capacity(split + words(&neg));
            for &r in pos.iter().chain(neg.iter()) {
                let lits = self.db.lits(r);
                saved.push(Lit(lits.len() as u32));
                saved.extend_from_slice(lits);
                self.delete_attached(r);
            }
            self.elim_record[vi] = Some(self.elim_records.len() as u32);
            self.stats.eliminated_vars += 1;
            any_elim = true;
            let (ps, ns) = saved.split_at(split);
            'resolvents: for p in super::saved_clauses(ps) {
                for n in super::saved_clauses(ns) {
                    if !resolve(p, n, v, &mut res) {
                        continue;
                    }
                    let from = self.trail.len();
                    if let Some(r) = self.add_lits(res.iter().copied(), true) {
                        // Register resolvents so later eliminations this
                        // round see them.
                        for l in self.db.lits(r) {
                            occ[l.code()].push(r);
                        }
                    }
                    self.clear_root_reasons(from);
                    if !self.ok {
                        break 'resolvents;
                    }
                }
            }
            self.elim_records.push(super::ElimRecord {
                var: v,
                clauses: saved,
                restored: false,
            });
            if !self.ok {
                return;
            }
        }
        if any_elim {
            self.purge_eliminated_learnts();
        }
    }

    /// Whether eliminating `v` passes the growth cutoff: no more
    /// non-tautological resolvents of `pos` × `neg` than the clauses
    /// they replace, none longer than [`RESOLVENT_LEN_MAX`]. Marks each
    /// positive clause's other literals in `marks` (all false again on
    /// return) so every pair costs one scan of the negative clause;
    /// charges both clause lengths per pair examined.
    fn resolvents_fit(
        &self,
        v: Var,
        pos: &[ClauseRef],
        neg: &[ClauseRef],
        marks: &mut [bool],
        budget: &mut usize,
    ) -> bool {
        let limit = pos.len() + neg.len();
        let mut count = 0;
        for &p in pos {
            let pl = self.db.lits(p);
            for l in pl {
                marks[l.code()] = l.var() != v;
            }
            let mut fit = true;
            for &n in neg {
                let nl = self.db.lits(n);
                *budget = budget.saturating_sub(pl.len() + nl.len());
                let mut len = pl.len() - 1;
                let mut tautology = false;
                for l in nl {
                    if l.var() == v {
                        continue;
                    }
                    if marks[l.negate().code()] {
                        tautology = true;
                        break;
                    }
                    if !marks[l.code()] {
                        len += 1;
                    }
                }
                if tautology {
                    continue;
                }
                if len > RESOLVENT_LEN_MAX || count == limit {
                    fit = false;
                    break;
                }
                count += 1;
            }
            for l in pl {
                marks[l.code()] = false;
            }
            if !fit {
                return false;
            }
        }
        true
    }

    /// Deletes (and DRAT-logs) every learnt clause mentioning an
    /// eliminated variable. Learnt clauses are implied by the original
    /// formula, so keeping them would stay sound, but dropping them
    /// restores the invariant that no attached clause mentions an
    /// eliminated variable.
    fn purge_eliminated_learnts(&mut self) {
        let mut learnts = std::mem::take(&mut self.reduce_scratch);
        self.db.learnt_refs_into(&mut learnts);
        for &r in &learnts {
            if self.db.lits(r).iter().any(|&l| self.is_eliminated(l.var())) {
                self.remove_clause(r);
                self.stats.deleted_clauses += 1;
            }
        }
        learnts.clear();
        self.reduce_scratch = learnts;
    }

    /// Vivification sweep over medium-length original clauses.
    fn vivify_round(&mut self, budget: &mut usize) {
        let (mut old, mut kept) = (Vec::new(), Vec::new());
        let mut cur = self.db.cursor();
        while let Some(r) = cur.next(&self.db) {
            if *budget == 0 || !self.ok {
                break;
            }
            let len = self.db.len(r);
            if self.db.is_learnt(r) || !(VIVIFY_LEN_MIN..=SUBSUME_LEN_MAX).contains(&len) {
                continue;
            }
            if self.db.lits(r).iter().any(|&l| self.value_lit(l) != 0) {
                continue;
            }
            old.clear();
            old.extend_from_slice(self.db.lits(r));
            self.vivify_clause(r, &old, &mut kept, budget);
        }
    }

    /// Vivifies clause `r` (whose literals are `old`): detach it, then
    /// assume the negation of each literal in turn. A conflict proves the
    /// assumed prefix is already a clause; a literal found true under the
    /// prefix closes the clause early; a literal found false is redundant
    /// and dropped. Any shortening rewrites the clause in place
    /// (Add-then-Delete in the DRAT log).
    fn vivify_clause(
        &mut self,
        r: ClauseRef,
        old: &[Lit],
        kept: &mut Vec<Lit>,
        budget: &mut usize,
    ) {
        self.detach(r);
        let before = self.stats.propagations;
        kept.clear();
        for (i, &l) in old.iter().enumerate() {
            match self.value_lit(l) {
                1 => {
                    kept.push(l);
                    break;
                }
                -1 => continue,
                _ => {}
            }
            kept.push(l);
            if i + 1 == old.len() {
                break;
            }
            self.new_decision_level();
            self.enqueue(l.negate(), None);
            if self.propagate().is_some() {
                break;
            }
        }
        self.cancel_until(0);
        *budget = budget.saturating_sub((self.stats.propagations - before) as usize + old.len());
        if kept.len() == old.len() {
            self.attach(r);
            return;
        }
        self.stats.vivified_clauses += 1;
        self.log_add(kept);
        self.log_delete(r);
        self.db.set_lits(r, kept);
        match kept.len() {
            0 => {
                self.db.delete(r);
                self.ok = false;
            }
            1 => {
                self.db.delete(r);
                self.assert_root_unit(kept[0]);
            }
            _ => self.attach(r),
        }
    }
}

/// Resolvent of clauses `p` and `n` on `v` into `out`, in the order
/// `p`'s literals then `n`'s new ones; false when tautological.
fn resolve(p: &[Lit], n: &[Lit], v: Var, out: &mut Vec<Lit>) -> bool {
    out.clear();
    out.extend(p.iter().copied().filter(|l| l.var() != v));
    for &l in n {
        if l.var() == v {
            continue;
        }
        if out.contains(&l.negate()) {
            return false;
        }
        if !out.contains(&l) {
            out.push(l);
        }
    }
    true
}
