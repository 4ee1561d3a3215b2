//! Crash-safe write-ahead journal for verification campaigns.
//!
//! A campaign that dies — OOM-killed, SIGKILLed, power lost — must not
//! throw away hours of solved obligations. Every verdict and escalation
//! attempt is appended to a journal as a length-prefixed, CRC32-framed
//! JSON record; verdict records are fsync'd so they survive the very next
//! instruction being a crash. `gqed campaign --resume <journal>` replays
//! the journal, truncates any torn or corrupt trailing record, skips the
//! obligations that already reached a durable verdict and re-runs the
//! rest, merging old and new results into one summary.
//!
//! ## Framing
//!
//! One record per line:
//!
//! ```text
//! J1 <len> <crc32> <json>\n
//! ```
//!
//! where `<len>` is the decimal byte length of `<json>` and `<crc32>` is
//! the lowercase 8-hex-digit CRC-32 (IEEE, as in gzip) of `<json>`'s
//! bytes. The payload is a self-contained JSON object, so an intact
//! journal is also a valid JSONL stream for ad-hoc `grep`/`jq`-style
//! inspection; the frame exists so a *torn* tail (a record half-written
//! at crash time) is detected and truncated instead of misparsed.
//!
//! ## Fault injection
//!
//! [`FaultPlan`] injects write failures at chosen record indices — short
//! writes, corrupt CRCs, fsync errors — so the test-suite can prove the
//! soundness contract: a journal fault may delay a verdict (the record is
//! lost and the obligation re-runs on resume) but can never flip one.

use crate::json::{parse_json, JsonValue};
use crate::obligation::Obligation;
use crate::runner::JobVerdict;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

/// Journal format version tag at the start of every record line.
const FRAME_TAG: &str = "J1";

/// Frames one rendered JSON payload as a `J1 <len> <crc32> <json>\n`
/// record line — the encoding shared by the campaign journal and the
/// content-addressed verdict store.
pub(crate) fn frame_record(payload: &str) -> String {
    let crc = crc32(payload.as_bytes());
    format!("{FRAME_TAG} {} {crc:08x} {payload}\n", payload.len())
}

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3 polynomial, reflected — the gzip/zlib checksum).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// CRC-32 over the campaign's obligation identities (ids joined by
/// newlines), stored in the `campaign_start` record so `--resume` can
/// refuse a journal that belongs to a different obligation set.
pub fn manifest_crc(obligations: &[Obligation]) -> u32 {
    let ids: Vec<&str> = obligations.iter().map(|o| o.id.as_str()).collect();
    crc32(ids.join("\n").as_bytes())
}

/// An injectable journal-write failure (see [`FaultPlan`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteFault {
    /// Only the first half of the framed record reaches the file — the
    /// torn-record shape a crash mid-`write` leaves behind.
    ShortWrite,
    /// The record is fully written but its CRC field is corrupted — the
    /// shape of silent media corruption.
    CorruptCrc,
    /// The record is written but the fsync reports failure.
    FsyncError,
}

/// A plan of journal-write faults, keyed by the zero-based index of the
/// `append` call they strike (faulted appends still consume their
/// index).
#[derive(Clone, Default, Debug)]
pub struct FaultPlan {
    faults: HashMap<u64, WriteFault>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault at `record_index` (builder style).
    pub fn inject(mut self, record_index: u64, fault: WriteFault) -> Self {
        self.faults.insert(record_index, fault);
        self
    }
}

struct JournalInner {
    file: File,
    records_written: u64,
    faults: FaultPlan,
}

/// Append-only campaign journal. Thread-safe: workers append records
/// under an internal mutex, so frames never interleave.
pub struct Journal {
    inner: Mutex<JournalInner>,
}

impl Journal {
    /// Creates (or truncates) a journal at `path`.
    pub fn create(path: &Path) -> io::Result<Journal> {
        Self::create_with_faults(path, FaultPlan::new())
    }

    /// [`Journal::create`] with an injected fault plan — test harness for
    /// the crash-recovery soundness contract.
    pub fn create_with_faults(path: &Path, faults: FaultPlan) -> io::Result<Journal> {
        let file = File::create(path)?;
        Ok(Journal {
            inner: Mutex::new(JournalInner {
                file,
                records_written: 0,
                faults,
            }),
        })
    }

    /// Opens an existing journal for resumption: replays its records,
    /// truncates any torn/corrupt tail so the file ends at the last
    /// intact record, and returns the journal (positioned to append)
    /// together with the replayed [`ResumeState`].
    pub fn resume(path: &Path) -> io::Result<(Journal, ResumeState)> {
        let replay = read_journal(path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(replay.valid_bytes)?;
        file.seek(SeekFrom::End(0))?;
        let state = ResumeState::from_records(&replay.records);
        let journal = Journal {
            inner: Mutex::new(JournalInner {
                file,
                records_written: replay.records.len() as u64,
                faults: FaultPlan::new(),
            }),
        };
        Ok((journal, state))
    }

    /// Appends one record; `sync` additionally fsyncs so the record
    /// survives an immediate crash (used for verdicts — attempt records
    /// are cheap to lose, they only cost a re-run).
    ///
    /// Injected faults fire here: a faulted append leaves the file in the
    /// corresponding damaged state and reports the error. Callers treat
    /// journal errors as non-fatal — losing journal records must never
    /// lose (or flip) verdicts.
    pub fn append(&self, record: &JsonValue, sync: bool) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let index = inner.records_written;
        inner.records_written += 1;
        let payload = record.render();
        let mut crc = crc32(payload.as_bytes());
        let fault = inner.faults.faults.get(&index).copied();
        if fault == Some(WriteFault::CorruptCrc) {
            crc ^= 0xDEAD_BEEF;
        }
        let framed = format!("{FRAME_TAG} {} {crc:08x} {payload}\n", payload.len());
        let bytes = framed.as_bytes();
        if fault == Some(WriteFault::ShortWrite) {
            inner.file.write_all(&bytes[..bytes.len() / 2])?;
            let _ = inner.file.sync_data(); // make the torn bytes durable
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected short write",
            ));
        }
        inner.file.write_all(bytes)?;
        if fault == Some(WriteFault::FsyncError) {
            return Err(io::Error::other("injected fsync failure"));
        }
        if sync {
            inner.file.sync_data()?;
        }
        Ok(())
    }
}

/// The intact contents of a journal file (see [`read_journal`]).
#[derive(Debug)]
pub struct JournalReplay {
    /// Every intact record, in append order.
    pub records: Vec<JsonValue>,
    /// Byte offset just past the last intact record — the length the file
    /// is truncated to on [`Journal::resume`].
    pub valid_bytes: u64,
    /// Whether damaged trailing bytes were found (and will be dropped).
    pub truncated: bool,
    /// Human-readable reason the scan stopped, when it did.
    pub truncate_reason: Option<String>,
}

/// Reads a journal, stopping at the first damaged record: a bad frame
/// tag, a length that overruns the file, a CRC mismatch, malformed JSON
/// or a missing trailing newline all end the scan. Everything before the
/// damage is returned; everything from it on is reported as truncatable.
pub fn read_journal(path: &Path) -> io::Result<JournalReplay> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut reason = None;
    while pos < bytes.len() {
        match scan_record(&bytes, pos) {
            Ok((record, next)) => {
                records.push(record);
                pos = next;
            }
            Err(why) => {
                reason = Some(format!("record {} at byte {pos}: {why}", records.len()));
                break;
            }
        }
    }
    Ok(JournalReplay {
        records,
        valid_bytes: pos as u64,
        truncated: reason.is_some(),
        truncate_reason: reason,
    })
}

/// Scans one framed record starting at `pos`; returns the parsed payload
/// and the offset just past its newline.
fn scan_record(bytes: &[u8], pos: usize) -> Result<(JsonValue, usize), String> {
    let rest = &bytes[pos..];
    let header_end = rest
        .iter()
        .take(64)
        .position(|&b| b == b' ')
        .ok_or("no frame tag")?;
    if &rest[..header_end] != FRAME_TAG.as_bytes() {
        return Err("bad frame tag".to_string());
    }
    let mut cursor = header_end + 1;
    let len_end = rest[cursor..]
        .iter()
        .take(24)
        .position(|&b| b == b' ')
        .ok_or("unterminated length field")?
        + cursor;
    let len: usize = std::str::from_utf8(&rest[cursor..len_end])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or("bad length field")?;
    cursor = len_end + 1;
    if rest.len() < cursor + 8 {
        return Err("torn CRC field".to_string());
    }
    let crc_stated = std::str::from_utf8(&rest[cursor..cursor + 8])
        .ok()
        .and_then(|s| u32::from_str_radix(s, 16).ok())
        .ok_or("bad CRC field")?;
    cursor += 8;
    if rest.get(cursor) != Some(&b' ') {
        return Err("missing payload separator".to_string());
    }
    cursor += 1;
    if rest.len() < cursor + len + 1 {
        return Err("torn payload".to_string());
    }
    let payload = &rest[cursor..cursor + len];
    if rest[cursor + len] != b'\n' {
        return Err("missing record terminator".to_string());
    }
    let crc_actual = crc32(payload);
    if crc_actual != crc_stated {
        return Err(format!(
            "CRC mismatch (stated {crc_stated:08x}, actual {crc_actual:08x})"
        ));
    }
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let record = parse_json(text).ok_or("payload is not valid JSON")?;
    Ok((record, pos + cursor + len + 1))
}

/// One obligation's final record as a verdict line carries it: replayed
/// from a journal or read from the verdict store.
#[derive(Clone, Debug)]
pub struct ReplayedRecord {
    /// The reconstructed final verdict.
    pub verdict: JobVerdict,
    /// Attempts the original run made.
    pub attempts: u32,
    /// Which engine produced the verdict: `bmc`, `pdr`, or `-`.
    pub engine: &'static str,
    /// Per-frame BMC queries the original run solved for this obligation.
    pub frames_solved: u64,
    /// Wall-clock milliseconds the original run spent on this obligation.
    pub wall_ms: u64,
}

/// What a journal says about a previous run: which obligations reached a
/// durable verdict (and what it was), plus the manifest checksum guarding
/// against resuming someone else's journal.
#[derive(Debug, Default)]
pub struct ResumeState {
    /// Completed obligations by id. Only *settled* verdicts count:
    /// violations, bounded-clean, proofs and genuine unknowns are skipped
    /// on resume; failed, timeout-escalated and cancelled obligations
    /// re-run (a fault or interruption may delay a verdict, never settle
    /// one).
    pub completed: HashMap<String, ReplayedRecord>,
    /// Obligation-manifest checksum from the `campaign_start` record.
    pub manifest_crc: Option<u32>,
}

impl ResumeState {
    /// Reconstructs the resume state from replayed records, in order —
    /// later records win, so a re-run obligation's newer verdict
    /// supersedes its older one.
    pub fn from_records(records: &[JsonValue]) -> ResumeState {
        let mut state = ResumeState::default();
        for r in records {
            match r.get("type").and_then(JsonValue::as_str) {
                Some("campaign_start") => {
                    state.manifest_crc = r
                        .get("manifest_crc")
                        .and_then(JsonValue::as_u64)
                        .and_then(|v| u32::try_from(v).ok());
                }
                Some("verdict") => {
                    let Some(job) = r.get("job").and_then(JsonValue::as_str) else {
                        continue;
                    };
                    match replay_verdict(r) {
                        Some(rr) => {
                            state.completed.insert(job.to_string(), rr);
                        }
                        None => {
                            // Unsettled (failed / timeout / cancelled) or
                            // unparseable: the obligation must re-run.
                            state.completed.remove(job);
                        }
                    }
                }
                _ => {}
            }
        }
        state
    }
}

/// Rebuilds the record a verdict line carries; `None` unless its verdict
/// is settled (see [`crate::api::decode_settled_verdict`]), so unsettled
/// or malformed verdicts re-run. Journal resume and the verdict store
/// share this record vocabulary with the serve protocol.
pub(crate) fn replay_verdict(r: &JsonValue) -> Option<ReplayedRecord> {
    let verdict = crate::api::decode_settled_verdict(r)?;
    Some(ReplayedRecord {
        verdict,
        attempts: r
            .get("attempts")
            .and_then(JsonValue::as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .unwrap_or(1),
        engine: crate::api::decode_engine(r),
        frames_solved: r
            .get("frames_solved")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        wall_ms: r.get("wall_ms").and_then(JsonValue::as_u64).unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gqed-journal-{}-{name}", std::process::id()))
    }

    fn rec(kind: &str, n: u64) -> JsonValue {
        JsonValue::obj().field("type", kind).field("n", n)
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_and_greppable_frames() {
        let path = tmp("roundtrip.j1");
        let j = Journal::create(&path).unwrap();
        for i in 0..3 {
            j.append(&rec("verdict", i), i == 2).unwrap();
        }
        drop(j);
        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert!(!replay.truncated);
        // Compare renders: the parser reads small integers back as `Int`
        // where the builder used `UInt`, and render equality is what the
        // replay path relies on.
        assert_eq!(replay.records[1].render(), rec("verdict", 1).render());
        // Every line carries its JSON payload verbatim (JSONL-ish).
        let text = std::fs::read_to_string(&path).unwrap();
        for (i, line) in text.lines().enumerate() {
            assert!(line.starts_with("J1 "), "bad frame: {line}");
            assert!(line.ends_with(&rec("verdict", i as u64).render()));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_resume() {
        let path = tmp("torn.j1");
        let j = Journal::create(&path).unwrap();
        for i in 0..3 {
            j.append(&rec("verdict", i), false).unwrap();
        }
        drop(j);
        let intact = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: half a framed record at the tail.
        let full = format!("J1 21 deadbeef {}\n", r#"{"type":"verdict","n":3}"#);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&full.as_bytes()[..full.len() / 2]).unwrap();
        drop(f);

        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert!(replay.truncated);
        assert_eq!(replay.valid_bytes, intact);

        let (j, _state) = Journal::resume(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        // The resumed journal appends cleanly after the truncation point.
        j.append(&rec("verdict", 99), true).unwrap();
        drop(j);
        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.records.len(), 4);
        assert!(!replay.truncated);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_crc_ends_the_scan() {
        let path = tmp("crc.j1");
        let plan = FaultPlan::new().inject(1, WriteFault::CorruptCrc);
        let j = Journal::create_with_faults(&path, plan).unwrap();
        j.append(&rec("verdict", 0), false).unwrap();
        j.append(&rec("verdict", 1), false).unwrap(); // corrupted
        j.append(&rec("verdict", 2), false).unwrap(); // unreachable past damage
        drop(j);
        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.truncated);
        assert!(
            replay.truncate_reason.as_deref().unwrap().contains("CRC"),
            "reason: {:?}",
            replay.truncate_reason
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_write_fault_reports_and_tears() {
        let path = tmp("short.j1");
        let plan = FaultPlan::new().inject(1, WriteFault::ShortWrite);
        let j = Journal::create_with_faults(&path, plan).unwrap();
        j.append(&rec("verdict", 0), false).unwrap();
        assert!(j.append(&rec("verdict", 1), true).is_err());
        drop(j);
        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.truncated);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_fault_reports_but_record_lands() {
        let path = tmp("fsync.j1");
        let plan = FaultPlan::new().inject(0, WriteFault::FsyncError);
        let j = Journal::create_with_faults(&path, plan).unwrap();
        assert!(j.append(&rec("verdict", 0), true).is_err());
        j.append(&rec("verdict", 1), true).unwrap();
        drop(j);
        // The faulted record was written (only its durability failed), so
        // the scan sees both.
        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(!replay.truncated);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_state_settles_and_supersedes() {
        let records = vec![
            JsonValue::obj()
                .field("type", "campaign_start")
                .field("manifest_crc", 7u32),
            JsonValue::obj()
                .field("type", "verdict")
                .field("job", "a")
                .field("verdict", "clean")
                .field("bound", 6u32)
                .field("attempts", 1u32)
                .field("engine", "bmc"),
            JsonValue::obj()
                .field("type", "verdict")
                .field("job", "b")
                .field("verdict", "failed")
                .field("message", "boom"),
            JsonValue::obj()
                .field("type", "verdict")
                .field("job", "c")
                .field("verdict", "violation")
                .field("property", "p")
                .field("cycles", 3u32)
                .field("engine", "pdr"),
            // Written before k-induction left the portfolio: still loads.
            JsonValue::obj()
                .field("type", "verdict")
                .field("job", "d")
                .field("verdict", "proven")
                .field("k", 2u32)
                .field("engine", "kind"),
            // Written by the retired worker-process fleet: never settled.
            JsonValue::obj()
                .field("type", "verdict")
                .field("job", "e")
                .field("verdict", "poisoned")
                .field("crashes", 3u32),
            // A later run re-ran "a" and it timed out: it must re-run again.
            JsonValue::obj()
                .field("type", "verdict")
                .field("job", "a")
                .field("verdict", "timeout-escalated"),
        ];
        let state = ResumeState::from_records(&records);
        assert_eq!(state.manifest_crc, Some(7));
        assert!(!state.completed.contains_key("a"), "superseded by timeout");
        assert!(!state.completed.contains_key("b"), "failed must re-run");
        assert!(!state.completed.contains_key("e"), "poisoned must re-run");
        let c = &state.completed["c"];
        assert_eq!(c.engine, "pdr");
        assert!(matches!(
            &c.verdict,
            JobVerdict::Violation { property, cycles } if property == "p" && *cycles == 3
        ));
        let d = &state.completed["d"];
        assert_eq!(d.engine, "-");
        assert_eq!(d.verdict, JobVerdict::Proven { k: 2 });
    }

    #[test]
    fn manifest_crc_tracks_obligation_identity() {
        use crate::obligation::{enumerate_obligations, FlowFilter};
        let a = enumerate_obligations(FlowFilter::all(), &["relu".to_string()]);
        let b = enumerate_obligations(
            FlowFilter {
                gqed: true,
                aqed: false,
                conventional: false,
            },
            &["relu".to_string()],
        );
        assert_eq!(manifest_crc(&a), manifest_crc(&a));
        assert_ne!(manifest_crc(&a), manifest_crc(&b));
    }
}
