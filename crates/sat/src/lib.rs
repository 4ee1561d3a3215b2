//! A CDCL SAT solver — the back-end engine of the G-QED BMC flow.
//!
//! This is a from-scratch conflict-driven clause-learning solver in the
//! MiniSat lineage, providing everything the bounded model checker needs:
//!
//! * two-literal watching with blocker literals,
//! * first-UIP conflict analysis with clause minimization,
//! * exponential VSIDS variable activities with phase saving,
//! * Luby-sequence restarts,
//! * learnt-clause database reduction driven by LBD (glue level),
//! * **incremental solving under assumptions** — the BMC engine keeps one
//!   solver alive across unrolling depths, adding frame clauses and
//!   activating per-frame properties through assumption literals.
//!
//! The external interface speaks DIMACS conventions: variables are positive
//! `i32`s, a negative literal is the negation of its variable.
//!
//! # Storage
//!
//! * **Flat clause arena.** All clauses live in one `Vec` of 4-byte
//!   words: a 5-word header (length, capacity, flags with tier, use
//!   credits and LBD, and the `f64` activity) followed inline by the
//!   literals. A clause reference is the word offset of its header.
//!   Strengthening and vivification shrink a clause in place; compaction
//!   slides live clauses down in allocation order and rewrites every
//!   reference through the relocation map it returns, a dense table
//!   indexed by old offset / 7 (a clause spans at least 7 words).
//! * **Compaction after every pass.** Each inprocessing pass ends at the
//!   root with a compaction, so its tombstones and shrink slack never
//!   outlive it. Database reduction keeps its own compaction schedule,
//!   counting deletions since the last *scheduled* compaction: that
//!   compaction backtracks to the root, which acts as a restart, so it
//!   must fall at the same conflicts whatever else compacted.
//! * **Watchers** are 8 bytes: the clause offset with a binary-clause tag
//!   bit, and a blocker literal. Assignments are one `i8` per literal
//!   code, so a literal's value is a single load.
//! * **Lazy detach.** Deleting a clause only tombstones it and marks its
//!   two watch lists dirty. A dirty list is cleaned, keeping the order of
//!   its live watchers, before propagation walks it and before every
//!   compaction (so at the latest at the end of the next inprocessing
//!   pass); a tombstone's literals stay readable until then.
//! * **Order preservation.** The search depends on three orders, and no
//!   storage change may alter them: the literals within each clause, the
//!   watchers within each list, and the allocation order of learnt
//!   clauses that database reduction's stable sort breaks ties by.
//!   Compaction keeps all three and never moves a clause relative to
//!   another, so when and how often it runs is not part of the search —
//!   only the backtrack of a scheduled compaction is.
//!   `tests/search_identity.rs` pins the search counters that would move
//!   if one did.
//!
//! # Examples
//!
//! ```
//! use gqed_sat::{SatResult, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[a, b]);
//! s.add_clause(&[-a, b]);
//! assert_eq!(s.solve(&[]), SatResult::Sat);
//! assert!(s.value(b));
//! // Under the assumption ¬b the formula is unsatisfiable.
//! assert_eq!(s.solve(&[-b]), SatResult::Unsat);
//! // The solver remains usable afterwards.
//! assert_eq!(s.solve(&[]), SatResult::Sat);
//! ```

#![warn(missing_docs)]
mod clause;
pub mod dimacs;
pub mod drat;
mod heap;
mod lit;
mod luby;
mod solver;

pub use dimacs::{parse_dimacs, solver_from_dimacs};
pub use drat::{check_rup_proof, to_drat, ProofStep};
pub use lit::{Lit, Var};
pub use luby::luby;
pub use solver::{SatResult, SolveOutcome, Solver, SolverStats};
