//! Verification-productivity cost model for the industrial case study.
//!
//! **\[SUBSTITUTION\]** The paper reports an 18× productivity improvement —
//! 370 person-days for the conventional flow vs 21 person-days for G-QED —
//! measured on an Infineon IP. Person-days cannot be re-measured in a
//! library, so this module reproduces the claim with an explicit,
//! parameterized cost model whose structure follows how the two flows
//! actually spend effort:
//!
//! * a **conventional flow** writes and maintains design-specific
//!   assertions: effort scales with the number of architectural features
//!   (each needs properties, environment constraints, reviews and
//!   regression debugging);
//! * a **G-QED flow** pays a fixed methodology cost plus a small
//!   per-design cost to identify the transactional interface and the
//!   architectural-state projection — *independent of the number of
//!   properties*, because the three QED checks are universal.
//!
//! The default parameters are calibrated so the DMA-class case study
//! reproduces the paper's 370 vs 21 person-days; the model is then reused
//! unchanged across the whole design suite for Table 4.

/// Effort parameters (person-days) of a conventional assertion flow.
#[derive(Clone, Copy, Debug)]
pub struct ConventionalCosts {
    /// Understand the spec and write a verification plan, per feature.
    pub plan_per_feature: f64,
    /// Write and debug assertions + environment constraints, per property.
    pub write_per_property: f64,
    /// Review, triage and regression maintenance, per property.
    pub maintain_per_property: f64,
    /// One-time testbench / formal environment bring-up.
    pub bringup: f64,
}

impl Default for ConventionalCosts {
    fn default() -> Self {
        ConventionalCosts {
            plan_per_feature: 1.0,
            write_per_property: 1.0,
            maintain_per_property: 0.5,
            bringup: 10.0,
        }
    }
}

/// Effort parameters (person-days) of a G-QED flow.
#[derive(Clone, Copy, Debug)]
pub struct GqedCosts {
    /// One-time methodology bring-up (tooling, wrapper integration).
    pub bringup: f64,
    /// Identify the transactional interface of the design.
    pub interface_per_design: f64,
    /// Identify the architectural-state projection, per architectural
    /// feature (the only feature-proportional manual work G-QED needs).
    pub arch_state_per_feature: f64,
    /// Triage/review of reported counterexamples.
    pub triage: f64,
}

impl Default for GqedCosts {
    fn default() -> Self {
        GqedCosts {
            bringup: 8.0,
            interface_per_design: 3.0,
            arch_state_per_feature: 0.05,
            triage: 4.0,
        }
    }
}

/// A case-study workload description.
#[derive(Clone, Copy, Debug)]
pub struct CaseStudy {
    /// Number of architectural features (config registers, op kinds,
    /// channels…) the verification plan must cover.
    pub features: u32,
    /// Number of design-specific properties the conventional plan needs
    /// (typically several per feature).
    pub properties: u32,
}

impl CaseStudy {
    /// The paper's industrial IP, sized so the default cost model lands on
    /// the reported numbers: 120 features, 160 properties → 370 vs ≈21
    /// person-days.
    pub fn industrial_dma() -> Self {
        CaseStudy {
            features: 120,
            properties: 160,
        }
    }
}

/// Person-days for the conventional flow.
pub fn conventional_person_days(cs: &CaseStudy, c: &ConventionalCosts) -> f64 {
    c.bringup
        + f64::from(cs.features) * c.plan_per_feature
        + f64::from(cs.properties) * (c.write_per_property + c.maintain_per_property)
}

/// Person-days for the G-QED flow.
pub fn gqed_person_days(cs: &CaseStudy, g: &GqedCosts) -> f64 {
    g.bringup
        + g.interface_per_design
        + f64::from(cs.features) * g.arch_state_per_feature
        + g.triage
}

/// Productivity ratio (conventional / G-QED).
pub fn productivity_gain(cs: &CaseStudy, c: &ConventionalCosts, g: &GqedCosts) -> f64 {
    conventional_person_days(cs, c) / gqed_person_days(cs, g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn industrial_case_study_matches_paper_headline() {
        let cs = CaseStudy::industrial_dma();
        let conv = conventional_person_days(&cs, &ConventionalCosts::default());
        let gqed = gqed_person_days(&cs, &GqedCosts::default());
        // Paper: 370 vs 21 person-days, 18×.
        assert_eq!(conv, 370.0);
        assert_eq!(gqed, 21.0);
        let gain = productivity_gain(&cs, &ConventionalCosts::default(), &GqedCosts::default());
        assert!(
            (17.0..19.5).contains(&gain),
            "gain {gain:.1} outside the paper's ≈18× band (conv={conv}, gqed={gqed})"
        );
    }

    #[test]
    fn gqed_cost_is_sublinear_in_properties() {
        let small = CaseStudy {
            features: 10,
            properties: 15,
        };
        let big = CaseStudy {
            features: 100,
            properties: 150,
        };
        let g = GqedCosts::default();
        let c = ConventionalCosts::default();
        let conv_ratio = conventional_person_days(&big, &c) / conventional_person_days(&small, &c);
        let gqed_ratio = gqed_person_days(&big, &g) / gqed_person_days(&small, &g);
        assert!(gqed_ratio < conv_ratio / 2.0);
    }

    #[test]
    fn gain_grows_with_design_complexity() {
        let c = ConventionalCosts::default();
        let g = GqedCosts::default();
        let mut last = 0.0;
        for f in [10u32, 40, 120, 400] {
            let cs = CaseStudy {
                features: f,
                properties: f + f / 3,
            };
            let gain = productivity_gain(&cs, &c, &g);
            assert!(gain > last, "gain must grow with complexity");
            last = gain;
        }
    }
}
