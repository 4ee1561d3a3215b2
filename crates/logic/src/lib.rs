//! Bit-level logic substrate for the G-QED verification stack.
//!
//! This crate provides the three bit-level artifacts every SAT-based
//! model-checking flow needs:
//!
//! * [`aig`] — an And-Inverter Graph with structural hashing and constant
//!   folding. Word-level designs are bit-blasted (in `gqed-ir`) into an
//!   [`aig::Aig`], which doubles as the gate-count metric used in the
//!   evaluation tables.
//! * [`cnf`] — a clause buffer in DIMACS conventions (`i32` literals,
//!   variable `v` ↦ literals `v` / `-v`) that producers drain into a
//!   solver.
//! * [`tseitin`] — the Tseitin transformation from an AIG cone to CNF.
//!
//! It also hosts [`rng`] — a tiny deterministic splitmix64 PRNG shared by
//! tests, benchmarks and the simulation baseline so the workspace needs no
//! external randomness crate and builds fully offline — and [`fnv`], the
//! FNV-1a hash behind model fingerprints, store keys and mutant seeds.
//!
//! The crate is dependency-free and independent of the SAT solver: the
//! solver (`gqed-sat`) consumes DIMACS-style clauses, so either side can be
//! swapped out.

#![warn(missing_docs)]
pub mod aig;
pub mod aiger;
pub mod cnf;
pub mod fnv;
pub mod rng;
pub mod tseitin;

pub use aig::{Aig, AigLit};
pub use aiger::to_aiger;
pub use cnf::Cnf;
pub use fnv::{fnv1a64, fnv1a64_extend};
pub use rng::SplitMix64;
pub use tseitin::Tseitin;
