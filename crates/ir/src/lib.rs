//! Word-level intermediate representation for hardware designs.
//!
//! This crate is the design-entry layer of the G-QED stack — the role RTL
//! (or an HLS netlist) plays in the paper. It provides:
//!
//! * [`term`] — a hash-consed, width-checked bit-vector term language in the
//!   BTOR2 tradition (constants, inputs, states, arithmetic, comparisons,
//!   muxes, shifts, slicing), built through [`Context`];
//! * [`ts`] — sequential [`TransitionSystem`]s: states with init/next
//!   functions, environment constraints, named outputs and `bad` properties,
//!   plus *instantiation* (duplicating a system with fresh state, the core
//!   of the dual-copy G-QED miter);
//! * [`eval`] — cycle-accurate concrete semantics ([`Sim`]): the reference
//!   model everything else is validated against, and the replay engine for
//!   counterexample confirmation;
//! * [`bitblast`] — lowering of term cones to an And-Inverter Graph from
//!   `gqed-logic`, shared by the BMC unroller;
//! * [`mem`] — register-file modeling helpers (mux-tree read, per-word
//!   write-enable next functions) used by the accelerator library;
//! * [`vcd`] — Value Change Dump output for inspecting counterexample
//!   waveforms in standard tooling.
//!
//! Widths are limited to 128 bits (`u128` carrier); every constructor
//! checks operand widths and panics on mismatch — width bugs in a
//! verification tool must fail fast, not produce wrong proofs.

#![warn(missing_docs)]
pub mod bitblast;
pub mod btor2;
pub mod btor2_parse;
pub mod dot;
pub mod eval;
pub mod mem;
pub mod smt2;
pub mod term;
pub mod ts;
pub mod vcd;

/// The bit-level substrate, re-exported because [`BitBlaster`] takes and
/// returns its AIG types.
pub use gqed_logic;

pub use bitblast::BitBlaster;
pub use btor2::to_btor2;
pub use btor2_parse::from_btor2;
pub use dot::to_dot;
pub use eval::{eval_terms, Sim};
pub use mem::RegFile;
pub use smt2::unrolling_to_smt2;
pub use term::{Context, Op, TermId};
pub use ts::{
    influence_cone, reachable_terms, substitute_all, Bad, Model, StateDef, TransitionSystem,
};
