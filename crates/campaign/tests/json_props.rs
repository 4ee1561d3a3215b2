//! Property tests for the in-tree JSON encoder/decoder.
//!
//! Driven by the workspace's deterministic splitmix64 PRNG (the image has
//! no `proptest`): hundreds of randomly shaped values — nested
//! arrays/objects, strings full of control characters, quotes,
//! backslashes and astral-plane codepoints, extreme and non-finite
//! numbers — must render to valid JSON, survive `render → parse →
//! render` byte-identically, and round-trip through the journal's framed
//! record reader.

use gqed_campaign::{parse_json, read_journal, Journal, JsonValue};
use gqed_logic::rng::SplitMix64;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gqed-jsonprop-{}-{name}", std::process::id()))
}

/// Character pool biased toward the hostile cases: every C0 control
/// character, the escape-relevant ASCII, and some multibyte/astral text.
fn gen_string(rng: &mut SplitMix64) -> String {
    let len = rng.below(12) as usize;
    let mut s = String::new();
    for _ in 0..len {
        match rng.below(6) {
            0 => s.push(char::from_u32(rng.below(0x20) as u32).unwrap()),
            1 => s.push(['"', '\\', '/', '\u{7f}'][rng.below(4) as usize]),
            2 => s.push(['é', 'ß', '\u{2028}', '😀', '𝕊'][rng.below(5) as usize]),
            _ => s.push((b'a' + rng.below(26) as u8) as char),
        }
    }
    s
}

fn gen_value(rng: &mut SplitMix64, depth: u32) -> JsonValue {
    let variants = if depth == 0 { 6 } else { 8 };
    match rng.below(variants) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.next_bool()),
        2 => JsonValue::Int(rng.next_u64() as i64),
        3 => JsonValue::UInt(rng.next_u64()),
        4 => {
            // A mix of ordinary magnitudes, extremes, and non-finite
            // values (which must render as null).
            let f = match rng.below(6) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => f64::MAX,
                4 => f64::from_bits(rng.next_u64()),
                _ => (rng.range_i32(-1000, 1000) as f64) / 8.0,
            };
            JsonValue::Float(f)
        }
        5 => JsonValue::Str(gen_string(rng)),
        6 => {
            let n = rng.below(4) as usize;
            JsonValue::Array((0..n).map(|_| gen_value(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.below(4) as usize;
            JsonValue::Object(
                (0..n)
                    .map(|i| {
                        (
                            format!("k{i}_{}", gen_string(rng)),
                            gen_value(rng, depth - 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

#[test]
fn render_is_always_valid_and_parse_render_is_idempotent() {
    let mut rng = SplitMix64::new(0xC0FF_EE00);
    for i in 0..500 {
        let v = gen_value(&mut rng, 3);
        let rendered = v.render();
        let parsed = parse_json(&rendered)
            .unwrap_or_else(|| panic!("case {i}: invalid render of {v:?}: {rendered}"));
        assert_eq!(
            parsed.render(),
            rendered,
            "case {i}: render → parse → render not byte-stable"
        );
        // A rendered value never contains a raw control character — one
        // record must stay one journal/telemetry line.
        assert!(
            !rendered.bytes().any(|b| b < 0x20),
            "case {i}: raw control byte in {rendered:?}"
        );
    }
}

#[test]
fn control_characters_escape_exactly() {
    let v = JsonValue::Str("\u{0}\u{1}\n\r\t\"\\\u{1f}x".to_string());
    let rendered = v.render();
    let back = parse_json(&rendered).unwrap();
    assert_eq!(back, v, "escaped string must decode to the original");
}

#[test]
fn non_finite_floats_render_as_null() {
    for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(JsonValue::Float(f).render(), "null");
    }
    let obj = JsonValue::obj().field("x", f64::NAN).field("y", 1.5f64);
    assert_eq!(obj.render(), r#"{"x":null,"y":1.5}"#);
}

#[test]
fn random_records_round_trip_through_the_journal() {
    let mut rng = SplitMix64::new(0xBEEF_0001);
    let path = tmp("roundtrip.j1");
    let mut expected = Vec::new();
    let journal = Journal::create(&path).unwrap();
    for i in 0..120 {
        // Journal records are objects; make the value shapes adversarial.
        let record = JsonValue::obj()
            .field("i", i as u64)
            .field("payload", gen_value(&mut rng, 3))
            .field("s", gen_string(&mut rng).as_str());
        journal.append(&record, i % 17 == 0).unwrap();
        expected.push(record.render());
    }
    drop(journal);
    let replay = read_journal(&path).unwrap();
    assert!(!replay.truncated, "{:?}", replay.truncate_reason);
    assert_eq!(replay.records.len(), expected.len());
    for (got, want) in replay.records.iter().zip(&expected) {
        assert_eq!(&got.render(), want, "journal round-trip changed a record");
    }
    std::fs::remove_file(&path).ok();
}
