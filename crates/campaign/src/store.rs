//! Content-addressed, crash-safe verdict store.
//!
//! The scale unlock behind `gqed serve`: CI traffic re-verifies the same
//! designs after every small RTL change, so most obligations in a batch
//! are *identical* — same IR, same flow, same bounds, same engines — to
//! obligations already solved. The store memoizes settled verdicts under
//! a content-addressed key so a resubmitted batch answers from disk
//! instead of a solver, and a mutated design misses on exactly its own
//! entries (the IR fingerprint changed) while every other design still
//! hits.
//!
//! ## Key derivation
//!
//! A [`StoreKey`] is the FNV-1a 64-bit fold of everything the verdict
//! depends on:
//!
//! * the design **IR fingerprint** ([`gqed_core::model_fingerprint`] of
//!   the built, cone-of-influence-reduced model — so any IR mutation,
//!   including an injected bug, changes the key);
//! * the obligation **flow** tag and **kind bounds** (`bound`, and
//!   `max_k` for proof obligations);
//! * the **engine set** raced on the obligation;
//! * **solver-relevant config**: base conflict budget, max attempts and
//!   the memory limit.
//!
//! Deliberately *excluded*: worker count and wall-clock deadlines — they
//! affect scheduling and latency, never a conclusive verdict. And only *conclusive* verdicts (violation, bounded-clean,
//! proven) are admitted: unknown/timeout/failed/cancelled outcomes are
//! resource- or fault-dependent, so caching them could freeze a transient
//! condition into a permanent answer.
//!
//! ## On-disk format
//!
//! The same append-only `J1 <len> <crc32> <json>\n` framing as the
//! campaign journal (see [`crate::journal`]), with `cached_verdict`
//! records encoded by the shared wire codec in [`crate::api`]. Torn or
//! corrupt tails are truncated on open; later records for the same key
//! supersede earlier ones, so a re-put is an append, never a rewrite.

use crate::journal::{frame_record, read_journal, ReplayedRecord};
use crate::json::JsonValue;
use crate::obligation::{Obligation, ObligationKind};
use crate::portfolio::EngineId;
use crate::runner::CampaignConfig;
use gqed_core::{fnv1a64, fnv1a64_extend};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A content-addressed verdict-store key (see the module docs for the
/// derivation). Rendered as 16 lowercase hex digits on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StoreKey(u64);

impl StoreKey {
    /// The wire rendering: 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the wire rendering.
    pub fn from_hex(s: &str) -> Option<StoreKey> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(StoreKey)
    }
}

/// Derives the store key of one obligation under one campaign
/// configuration, given the stable fingerprint of its built model.
///
/// Components are folded with explicit separators so no two distinct
/// component sequences collide by concatenation.
pub fn derive_key(fingerprint: u64, obl: &Obligation, config: &CampaignConfig) -> StoreKey {
    let mut h = fnv1a64(&fingerprint.to_be_bytes());
    let mut fold = |part: &str| {
        h = fnv1a64_extend(h, part.as_bytes());
        h = fnv1a64_extend(h, b"\x1f");
    };
    fold(obl.flow_tag());
    match &obl.kind {
        ObligationKind::Check { bound, .. } => fold(&format!("check:{bound}")),
        ObligationKind::ProveClean { bound, max_k } => fold(&format!("prove:{bound}:{max_k}")),
        // Debug obligations have no model and never reach the store.
        ObligationKind::DebugPanic | ObligationKind::DebugExhaust => fold("debug"),
    }
    let engines: Vec<&str> = config.engines.iter().copied().map(EngineId::name).collect();
    fold(&engines.join(","));
    fold(&match config.base_budget {
        Some(b) => format!("budget:{b}"),
        None => "budget:-".to_string(),
    });
    fold(&format!("attempts:{}", config.max_attempts));
    fold(&match config.mem_limit {
        Some(m) => format!("mem:{m}"),
        None => "mem:-".to_string(),
    });
    StoreKey(h)
}

struct StoreInner {
    file: File,
    map: HashMap<u64, ReplayedRecord>,
}

/// Append-only, CRC-framed, content-addressed verdict store.
///
/// Thread-safe: workers probe and publish under an internal mutex. Every
/// `put` is fsync'd — a verdict admitted to the store survives an
/// immediate crash, mirroring the journal's durability contract.
pub struct VerdictStore {
    inner: Mutex<StoreInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl VerdictStore {
    /// Opens (or creates) a store at `path`, replaying its intact records
    /// and truncating any torn or corrupt tail.
    pub fn open(path: &Path) -> io::Result<VerdictStore> {
        // Ensure the file exists so the replay scan has something to read.
        OpenOptions::new().append(true).create(true).open(path)?;
        let replay = read_journal(path)?;
        let mut map = HashMap::new();
        for r in &replay.records {
            if r.get("type").and_then(JsonValue::as_str) != Some("cached_verdict") {
                continue;
            }
            let Some(key) = r
                .get("key")
                .and_then(JsonValue::as_str)
                .and_then(StoreKey::from_hex)
            else {
                continue;
            };
            if let Some(rr) = crate::journal::replay_verdict(r, crate::api::decode_settled_verdict)
            {
                if rr.verdict.is_conclusive() {
                    map.insert(key.0, rr);
                }
            }
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(replay.valid_bytes)?;
        file.seek(SeekFrom::End(0))?;
        Ok(VerdictStore {
            inner: Mutex::new(StoreInner { file, map }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// An empty in-memory store (no backing file) — useful in tests and
    /// for a serve mode run without `--store` (the cache then lives only
    /// as long as the process).
    pub fn in_memory() -> io::Result<VerdictStore> {
        let file = tempfile_like()?;
        Ok(VerdictStore {
            inner: Mutex::new(StoreInner {
                file,
                map: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Number of distinct keys with an admitted verdict.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }

    /// Whether the store holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime probe counters `(hits, misses)` across every campaign
    /// this store instance served — the serve-mode footer reports these.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Looks up a key, counting the probe.
    pub fn get(&self, key: StoreKey) -> Option<ReplayedRecord> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let found = inner.map.get(&key.0).cloned();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Admits a verdict under `key`: appends an fsync'd `cached_verdict`
    /// record and updates the in-memory map. Non-conclusive verdicts
    /// (unknown, timeout, failed, cancelled) are silently refused — they
    /// are resource- or fault-dependent, and caching them would freeze a
    /// transient condition into a permanent answer.
    pub fn put(&self, key: StoreKey, record: &ReplayedRecord) -> io::Result<()> {
        if !record.verdict.is_conclusive() {
            return Ok(());
        }
        let rec = crate::api::encode_verdict_fields(
            JsonValue::obj()
                .field("type", "cached_verdict")
                .field("key", key.hex())
                .field("verdict", record.verdict.tag())
                .field("attempts", record.attempts)
                .field("engine", record.engine)
                .field("frames_solved", record.frames_solved)
                .field("wall_ms", record.wall_ms),
            &record.verdict,
        );
        let framed = frame_record(&rec.render());
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.file.write_all(framed.as_bytes())?;
        inner.file.sync_data()?;
        inner.map.insert(key.0, record.clone());
        Ok(())
    }
}

/// An anonymous scratch file for the in-memory store: created in the
/// temp directory and unlinked immediately, so it never outlives the
/// process even on abrupt exit.
fn tempfile_like() -> io::Result<File> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "gqed-store-mem-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)?;
    let _ = std::fs::remove_file(&path);
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obligation::{enumerate_obligations, FlowFilter};
    use crate::runner::JobVerdict;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gqed-store-{}-{name}", std::process::id()))
    }

    fn relu_obl() -> Obligation {
        enumerate_obligations(FlowFilter::all(), &["relu".to_string()])
            .into_iter()
            .next()
            .unwrap()
    }

    fn clean_record() -> ReplayedRecord {
        ReplayedRecord {
            verdict: JobVerdict::Clean { bound: 6 },
            attempts: 1,
            engine: "bmc",
            frames_solved: 7,
            wall_ms: 12,
        }
    }

    #[test]
    fn key_tracks_fingerprint_kind_and_config() {
        let obl = relu_obl();
        let config = CampaignConfig::default();
        assert_eq!(derive_key(1, &obl, &config), derive_key(1, &obl, &config));
        assert_ne!(derive_key(1, &obl, &config), derive_key(2, &obl, &config));
        let other_config = CampaignConfig {
            base_budget: Some(1000),
            ..CampaignConfig::default()
        };
        assert_ne!(
            derive_key(1, &obl, &config),
            derive_key(1, &obl, &other_config)
        );
        let bmc_only = CampaignConfig {
            engines: vec![EngineId::Bmc],
            ..CampaignConfig::default()
        };
        assert_ne!(derive_key(1, &obl, &config), derive_key(1, &obl, &bmc_only));
    }

    #[test]
    fn key_hex_roundtrips() {
        let key = derive_key(42, &relu_obl(), &CampaignConfig::default());
        assert_eq!(StoreKey::from_hex(&key.hex()), Some(key));
        assert_eq!(StoreKey::from_hex("xyz"), None);
        assert_eq!(StoreKey::from_hex(""), None);
    }

    #[test]
    fn put_get_persists_across_reopen() {
        let path = tmp("persist.j1");
        std::fs::remove_file(&path).ok();
        let key = derive_key(7, &relu_obl(), &CampaignConfig::default());
        {
            let store = VerdictStore::open(&path).unwrap();
            assert!(store.get(key).is_none());
            store.put(key, &clean_record()).unwrap();
            assert_eq!(store.len(), 1);
            let hit = store.get(key).unwrap();
            assert_eq!(hit.verdict, JobVerdict::Clean { bound: 6 });
            assert_eq!(store.counters(), (1, 1));
        }
        let store = VerdictStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        let hit = store.get(key).unwrap();
        assert_eq!(hit.verdict, JobVerdict::Clean { bound: 6 });
        assert_eq!(hit.engine, "bmc");
        assert_eq!(hit.frames_solved, 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_conclusive_verdicts_are_refused() {
        let store = VerdictStore::in_memory().unwrap();
        let key = derive_key(9, &relu_obl(), &CampaignConfig::default());
        for verdict in [
            JobVerdict::Unknown { max_k: 8 },
            JobVerdict::TimeoutEscalated { attempts: 4 },
            JobVerdict::Failed {
                message: "boom".to_string(),
            },
            JobVerdict::Cancelled,
        ] {
            let rec = ReplayedRecord {
                verdict,
                ..clean_record()
            };
            store.put(key, &rec).unwrap();
        }
        assert!(store.is_empty());
        assert!(store.get(key).is_none());
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp("torn.j1");
        std::fs::remove_file(&path).ok();
        let key = derive_key(3, &relu_obl(), &CampaignConfig::default());
        {
            let store = VerdictStore::open(&path).unwrap();
            store.put(key, &clean_record()).unwrap();
        }
        let intact = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"J1 999 deadbeef {\"type\":").unwrap();
        drop(f);
        let store = VerdictStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        // The reopened store appends cleanly after the truncation point.
        let other = derive_key(4, &relu_obl(), &CampaignConfig::default());
        store.put(other, &clean_record()).unwrap();
        drop(store);
        let store = VerdictStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn later_records_supersede() {
        let path = tmp("supersede.j1");
        std::fs::remove_file(&path).ok();
        let key = derive_key(5, &relu_obl(), &CampaignConfig::default());
        {
            let store = VerdictStore::open(&path).unwrap();
            store.put(key, &clean_record()).unwrap();
            let newer = ReplayedRecord {
                verdict: JobVerdict::Violation {
                    property: "p".to_string(),
                    cycles: 3,
                },
                wall_ms: 99,
                ..clean_record()
            };
            store.put(key, &newer).unwrap();
        }
        let store = VerdictStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        let hit = store.get(key).unwrap();
        assert!(hit.verdict.is_violation());
        assert_eq!(hit.wall_ms, 99);
        std::fs::remove_file(&path).ok();
    }
}
