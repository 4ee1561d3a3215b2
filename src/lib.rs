//! **gqed** — a from-scratch reproduction of *G-QED: Generalized QED
//! Pre-silicon Verification beyond Non-Interfering Hardware Accelerators*
//! (Chattopadhyay et al., DAC 2023).
//!
//! G-QED verifies hardware accelerators by *self-consistency*: instead of
//! design-specific properties or a functional specification, it checks
//! universal properties every transactional accelerator must satisfy —
//! and, unlike its predecessor A-QED, it remains sound and effective on
//! **interfering** accelerators, whose responses depend on earlier
//! transactions.
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`campaign`] | `gqed-campaign` | parallel verification campaign runner + JSONL telemetry |
//! | [`core`] | `gqed-core` | G-QED/A-QED wrapper synthesis, check flows, productivity model, theory |
//! | [`ha`] | `gqed-ha` | the accelerator design library + bug catalogues |
//! | [`bmc`] | `gqed-bmc` | the bounded model checker + k-induction + replay |
//! | [`pdr`] | `gqed-pdr` | the IC3/PDR unbounded proof engine |
//! | [`ir`] | `gqed-ir` | word-level IR, simulator, bit-blaster, VCD |
//! | [`sat`] | `gqed-sat` | the CDCL SAT solver |
//! | [`logic`] | `gqed-logic` | AIG, CNF, Tseitin |
//!
//! # Quickstart
//!
//! ```
//! use gqed::core::{check_design, CheckKind};
//! use gqed::ha::designs::accum;
//!
//! // Build an interfering accumulator with an injected state-leak bug…
//! let design = accum::build(&accum::Params::default(), Some("carry-leak"));
//! // …and let G-QED find it with no design-specific properties at all.
//! let outcome = check_design(&design, CheckKind::GQed, 16);
//! assert!(outcome.verdict.is_violation());
//! println!(
//!     "found '{}' in {} cycles",
//!     design.injected_bug.unwrap(),
//!     outcome.trace.unwrap().len()
//! );
//! ```
//!
//! See `examples/` for complete walkthroughs (the A-QED false-alarm demo,
//! the industrial case study, a catalogue-wide bug hunt) and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

#![warn(missing_docs)]
pub use gqed_bmc as bmc;
pub use gqed_campaign as campaign;
pub use gqed_core as core;
pub use gqed_ha as ha;
pub use gqed_ir as ir;
pub use gqed_logic as logic;
pub use gqed_pdr as pdr;
pub use gqed_sat as sat;

/// Convenience re-exports of the types most applications need.
pub mod prelude {
    pub use gqed_bmc::{prove_k_induction, BmcEngine, BmcResult, Trace};
    pub use gqed_core::{check_design, synthesize, CheckKind, CheckOutcome, QedConfig, Verdict};
    pub use gqed_ha::{all_designs, Design, DesignEntry, Driver};
    pub use gqed_ir::{to_btor2, unrolling_to_smt2, Context, Sim, TransitionSystem};
}
