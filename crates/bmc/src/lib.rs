//! SAT-based bounded model checking for word-level transition systems.
//!
//! This crate is the proof engine of the G-QED flow (the role a commercial
//! model checker plays in the paper):
//!
//! * [`engine`] — the incremental BMC engine: it unrolls a
//!   [`TransitionSystem`](gqed_ir::TransitionSystem) frame by frame into a
//!   shared AIG, Tseitin-encodes new cones into one persistent SAT solver,
//!   activates per-frame environment constraints through assumption
//!   literals, and checks `bad` properties at increasing depths. Its
//!   frame 0 over the init-free system, with tied next-state variables,
//!   is [`StepEncoding`]: the one-step view IC3/PDR (`gqed-pdr`) and its
//!   invariant re-check run on;
//! * [`trace`] — counterexample traces: per-frame input valuations plus
//!   initial values of nondeterministic states;
//! * [`replay`](mod@replay) — independent confirmation of every counterexample on the
//!   concrete simulator (the engine refuses to return a trace that does not
//!   replay — a hard soundness guard against bit-blasting or encoding
//!   bugs);
//! * [`kind`] — a k-induction prover layered on the same unroller (one
//!   engine for the base case, one over unconstrained initial states for
//!   the step), used by `gqed prove` for unbounded proofs of the
//!   conventional assertions.

#![warn(missing_docs)]
pub mod engine;
pub mod kind;
pub mod replay;
pub mod trace;

pub use engine::{BmcEngine, BmcLimits, BmcResult, BmcStats, BmcStatus, StepEncoding, StopReason};
pub use kind::{prove_k_induction, prove_k_induction_limited, ProofResult};
pub use replay::{replay, ReplayError};
pub use trace::Trace;
