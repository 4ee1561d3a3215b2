//! Proof-engine identities for the clean-design portfolio.
//!
//! Clean-design obligations are discharged by a *portfolio*: the
//! selected engines (bounded BMC and IC3/PDR) run concurrently on the
//! shared [`gqed_ir::Model`], a settling verdict cancels the other
//! through the cooperative interrupt flag, and an inconclusive PDR drops
//! out without cancelling BMC. This module names the engines and parses
//! the CLI's `--engines` selection; the racing itself lives in
//! [`runner`](crate::runner).

/// One proof engine the portfolio can field on a clean-design obligation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineId {
    /// Bounded model checking up to the obligation's bound. Complete for
    /// violations within the bound and the only engine that can certify
    /// `clean@bound`; never proves unbounded safety.
    Bmc,
    /// IC3/PDR ([`gqed_pdr`]). Discovers a strengthening inductive
    /// invariant frame by frame, so it proves unbounded safety where
    /// plain k-induction gives up; returns `Unknown` (and drops out of
    /// the race) at its query cap.
    Pdr,
}

impl EngineId {
    /// Stable lower-case name, as used in telemetry, journal records and
    /// the `--engines` flag.
    pub fn name(self) -> &'static str {
        match self {
            EngineId::Bmc => "bmc",
            EngineId::Pdr => "pdr",
        }
    }

    /// Parses one engine name as accepted by `--engines`.
    pub fn parse(s: &str) -> Result<EngineId, String> {
        match s {
            "bmc" => Ok(EngineId::Bmc),
            "pdr" | "ic3" => Ok(EngineId::Pdr),
            other => Err(format!(
                "unknown engine '{other}' (expected a comma-separated subset of: bmc, pdr)"
            )),
        }
    }

    /// Parses a comma-separated engine list (`bmc,pdr`). Whitespace
    /// around names is ignored and duplicates collapse; an empty list is
    /// an error.
    pub fn parse_list(s: &str) -> Result<Vec<EngineId>, String> {
        let mut engines = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let e = EngineId::parse(part)?;
            if !engines.contains(&e) {
                engines.push(e);
            }
        }
        if engines.is_empty() {
            return Err("empty engine list (expected e.g. 'bmc,pdr')".to_string());
        }
        Ok(engines)
    }
}

/// The default portfolio: both engines.
pub fn default_portfolio() -> Vec<EngineId> {
    vec![EngineId::Bmc, EngineId::Pdr]
}

/// Per-property SAT-query cap on the portfolio's PDR side.
///
/// PDR has no natural bound: on a design whose invariant it cannot find
/// it deepens the frame ladder forever, so an uncapped side would turn
/// every unbounded-budget campaign into a hang. The cap is counted in
/// solver queries — a deterministic function of the model (single
/// thread, no randomness) — so the side's verdict is identical on every
/// run and every machine, unlike a wall-clock cutoff. At the cap the
/// side reports `Unknown` and drops out of the race without cancelling
/// anyone (and without triggering a Luby retry — the capped outcome
/// would repeat identically).
///
/// The cap is soft: PDR checks it before each proof obligation and each
/// propagation level, not per query, so one obligation's blocking and
/// generalization queries can overshoot it. Both the check points and
/// the counts are deterministic.
///
/// Sizing: the seeded PDR-win design (`bitflip`) proves its hardest
/// G-QED property (`fcg.inconsistent`) in 56,532 queries, and all five
/// of its properties in 122,054 — each under its own cap. Query counts
/// are exactly reproducible, so the headroom only has to absorb future
/// drift in the wrapper or the engine's heuristics, not run-to-run
/// noise. Designs out of PDR's reach burn the cap once (the
/// side drops out at its first capped property) and yield to bounded
/// BMC; on the default-size catalogue designs that costs roughly
/// 30–45 s of solver time per clean obligation. The `gqed bench` PDR
/// probe gates its fixture's query count against this cap in CI.
pub const PDR_QUERY_CAP: u64 = 100_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_names_and_aliases() {
        assert_eq!(EngineId::parse("bmc"), Ok(EngineId::Bmc));
        assert!(EngineId::parse("kind").is_err());
        assert_eq!(EngineId::parse("ic3"), Ok(EngineId::Pdr));
        assert!(EngineId::parse("cegar").is_err());
    }

    #[test]
    fn parses_lists_with_dedup_and_whitespace() {
        assert_eq!(
            EngineId::parse_list(" bmc , pdr, bmc "),
            Ok(vec![EngineId::Bmc, EngineId::Pdr])
        );
        assert_eq!(EngineId::parse_list("pdr"), Ok(vec![EngineId::Pdr]));
        assert!(EngineId::parse_list("").is_err());
        assert!(EngineId::parse_list("bmc,nope").is_err());
        let err = EngineId::parse_list("bmc,nope").unwrap_err();
        assert!(err.contains("nope") && err.contains("bmc, pdr"), "{err}");
    }

    #[test]
    fn default_portfolio_races_everything() {
        let d = default_portfolio();
        assert_eq!(d, vec![EngineId::Bmc, EngineId::Pdr]);
    }

    #[test]
    fn names_round_trip() {
        for e in default_portfolio() {
            assert_eq!(EngineId::parse(e.name()), Ok(e));
        }
    }
}
