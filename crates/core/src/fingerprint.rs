//! Stable content fingerprints for built verification models.
//!
//! The campaign layer's content-addressed verdict store needs a key that
//! identifies *what was verified* independently of where or when: two
//! processes building the same design variant for the same flow must
//! derive the same key, and any change to the design's IR — a bug
//! injected, an operator swapped, a width widened — must change it.
//!
//! The fingerprint is the FNV-1a 64-bit hash of the model's BTOR2
//! rendering. That rendering is deterministic (node ids are assigned in
//! creation order by the deterministic synthesis + cone-of-influence
//! pipeline) and complete (sorts, constants, operations, state init/next,
//! constraints and bad properties all appear), so it is exactly the
//! "design IR fingerprint" the store key calls for. Hashing the textual
//! form rather than walking the term graph keeps the fingerprint stable
//! under refactors of in-memory representation: it changes only when the
//! semantics-bearing serialization changes.

use gqed_ir::{to_btor2, Model};

// The hash lives in `gqed-logic`; re-exported where callers found it.
pub use gqed_ir::gqed_logic::fnv::{fnv1a64, fnv1a64_extend};

/// Stable fingerprint of a built model's IR.
///
/// Hashes the deterministic BTOR2 rendering of the (wrapped,
/// cone-of-influence-reduced) transition system. Equal for repeated
/// builds of the same design variant and flow; different whenever the
/// IR differs — which is what lets a verdict store invalidate exactly
/// the entries of a design whose RTL changed.
pub fn model_fingerprint(model: &Model) -> u64 {
    fnv1a64(to_btor2(&model.ctx, &model.ts).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::build_model;
    use crate::CheckKind;
    use gqed_ha::all_designs;

    fn entry(name: &str) -> gqed_ha::DesignEntry {
        all_designs().into_iter().find(|e| e.name == name).unwrap()
    }

    #[test]
    fn fingerprint_is_stable_across_rebuilds() {
        let e = entry("relu");
        let a = model_fingerprint(&build_model(&e.build_clean(), CheckKind::GQed));
        let b = model_fingerprint(&build_model(&e.build_clean(), CheckKind::GQed));
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_separates_designs_flows_and_bugs() {
        let relu = entry("relu");
        let clean_gqed = model_fingerprint(&build_model(&relu.build_clean(), CheckKind::GQed));
        let clean_aqed = model_fingerprint(&build_model(&relu.build_clean(), CheckKind::AQed));
        assert_ne!(clean_gqed, clean_aqed, "flow must change the fingerprint");

        let bug = (relu.bugs)().first().expect("relu has a catalogued bug").id;
        let buggy = model_fingerprint(&build_model(&relu.build_buggy(bug), CheckKind::GQed));
        assert_ne!(clean_gqed, buggy, "IR mutation must change the fingerprint");

        let vecadd = entry("vecadd");
        let other = model_fingerprint(&build_model(&vecadd.build_clean(), CheckKind::GQed));
        assert_ne!(clean_gqed, other, "different designs must differ");
    }
}
