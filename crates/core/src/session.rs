//! Resumable check sessions and the per-design model cache — the
//! warm-start layer of the verification pipeline.
//!
//! [`check_design_limited`](crate::check_design_limited) pays the full
//! encoding cost on every call: clone the design, synthesize the QED
//! wrapper, cone-of-influence-reduce, bitblast, and solve from frame 0
//! with a fresh solver. For a campaign that retries budget-stopped
//! obligations with escalating allowances, all of that work is
//! attempt-independent. This module splits it off:
//!
//! * [`build_model`] performs the expensive, attempt-independent part
//!   once, producing an owned [`Model`];
//! * [`ModelCache`] shares built models across a design's obligations
//!   (bug check + clean proof + flows), keyed by `(design identity,
//!   flow)`, with hit/miss counters for telemetry;
//! * [`CheckSession`] owns a live [`BmcEngine`] over a shared model. On a
//!   budget/deadline stop the session can simply be kept and re-run: the
//!   engine resumes at the frame where it stopped, with the whole
//!   unrolling and every learnt clause intact.

use crate::check::{CheckKind, CheckOutcome, CheckStatus, Verdict};
use crate::fingerprint::model_fingerprint;
use crate::wrapper::{synthesize, QedConfig};
use gqed_bmc::{BmcEngine, BmcLimits, BmcStatus};
use gqed_ha::Design;
use gqed_ir::Model;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Builds the fully-preprocessed model that `kind` checks on `design`:
/// clone, synthesize the QED wrapper (or install the conventional
/// assertions), cone-of-influence-reduce. This is the expensive,
/// attempt-independent prefix of a check; everything downstream is the
/// incremental solve.
pub fn build_model(design: &Design, kind: CheckKind) -> Model {
    let mut d = design.clone();
    let (ctx, ts) = match kind {
        CheckKind::GQed => {
            let m = synthesize(&mut d, &QedConfig::gqed());
            (d.ctx, m.ts)
        }
        CheckKind::AQed => {
            let m = synthesize(&mut d, &QedConfig::aqed());
            (d.ctx, m.ts)
        }
        CheckKind::Conventional => {
            let mut ts = d.ts.clone();
            ts.bads = d.conventional.clone();
            (d.ctx, ts)
        }
    };
    let ts = ts.cone_of_influence(&ctx);
    Model { ctx, ts }
}

/// Cache key: a caller-chosen design identity (typically `name` or
/// `name/bug`) plus the flow whose wrapper the model carries. Two design
/// builds that differ (e.g. clean vs. an injected bug) must use distinct
/// identities.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ModelKey {
    /// Design identity, including any bug variant.
    pub design: String,
    /// The flow whose wrapper/properties the model carries.
    pub kind: CheckKind,
}

impl ModelKey {
    /// Key for `design` (with optional bug variant) under `kind`.
    pub fn new(design: &str, bug: Option<&str>, kind: CheckKind) -> Self {
        let design = match bug {
            Some(b) => format!("{design}/{b}"),
            None => design.to_string(),
        };
        ModelKey { design, kind }
    }
}

/// Thread-safe cache of built models, shared across the obligations (and
/// racing engine sides) of a verification campaign so wrapper synthesis
/// and preprocessing happen once per `(design, flow)` rather than once
/// per attempt. Each model's [`model_fingerprint`] is memoised beside it
/// on first request, so a warm verdict-store probe renders the model at
/// most once per cache lifetime.
#[derive(Default)]
pub struct ModelCache {
    entries: Mutex<HashMap<ModelKey, CachedModel>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A cached model and its lazily computed [`model_fingerprint`].
type CachedModel = (Arc<Model>, OnceLock<u64>);

impl ModelCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached model for `key`, building (and inserting) it with
    /// `build` on a miss. The build runs outside the cache lock, so a
    /// slow synthesis never blocks other designs; if two threads race on
    /// the same key the first insert wins and both get the same `Arc`.
    pub fn get_or_build(&self, key: ModelKey, build: impl FnOnce() -> Model) -> Arc<Model> {
        self.lookup(&key, build).0
    }

    /// The [`model_fingerprint`] of the model [`ModelCache::get_or_build`]
    /// returns for `key` (counted as a hit or miss the same way),
    /// computed on the first request and memoised beside the model. The
    /// rendering runs outside the cache lock; racing first requests
    /// compute the same value and the first one stored wins.
    pub fn fingerprint(&self, key: ModelKey, build: impl FnOnce() -> Model) -> u64 {
        let (model, memo) = self.lookup(&key, build);
        if let Some(fp) = memo {
            return fp;
        }
        let fp = model_fingerprint(&model);
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let (_, memo) = entries.get(&key).expect("entries are never evicted");
        *memo.get_or_init(|| fp)
    }

    /// The cached model for `key` (built and inserted on a miss) and its
    /// memoised fingerprint, if one was computed yet.
    fn lookup(&self, key: &ModelKey, build: impl FnOnce() -> Model) -> (Arc<Model>, Option<u64>) {
        {
            let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            if let Some((m, memo)) = entries.get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (Arc::clone(m), memo.get().copied());
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build());
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let (m, memo) = entries
            .entry(key.clone())
            .or_insert((built, OnceLock::new()));
        (Arc::clone(m), memo.get().copied())
    }

    #[cfg(test)]
    fn memoised_fingerprint(&self, key: &ModelKey) -> Option<u64> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.get(key).and_then(|(_, memo)| memo.get().copied())
    }

    /// Whether `key` is already cached (without counting a hit) — used
    /// for telemetry before an attempt actually resolves its model.
    pub fn contains(&self, key: &ModelKey) -> bool {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(key)
    }

    /// Number of lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to build the model.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// A resumable bounded check: one flow on one prebuilt model up to one
/// bound, owning the live [`BmcEngine`] between runs.
///
/// [`CheckSession::run`] behaves like
/// [`check_design_limited`](crate::check_design_limited), but when the
/// run stops on a budget or deadline the session stays valid: keep it,
/// and the next `run` resumes at the stopped frame with the unrolling,
/// the Tseitin encoding and every learnt clause intact — instead of
/// re-synthesizing, re-bitblasting and re-solving from frame 0.
pub struct CheckSession {
    kind: CheckKind,
    bound: u32,
    engine: BmcEngine<'static>,
    /// Wall-clock accumulated across runs of this session.
    wall: Duration,
}

impl CheckSession {
    /// A session over a prebuilt (typically cached) model.
    pub fn new(kind: CheckKind, bound: u32, model: Arc<Model>) -> Self {
        CheckSession {
            kind,
            bound,
            engine: BmcEngine::for_model(model),
            wall: Duration::ZERO,
        }
    }

    /// Enables or disables SAT-core inprocessing for this session's
    /// engine (on by default). A pure performance knob: verdicts never
    /// depend on it.
    pub fn set_inprocessing(&mut self, on: bool) {
        self.engine.set_inprocessing(on);
    }

    /// Convenience constructor: builds the model for `design` (no cache)
    /// and opens a session on it.
    pub fn for_design(design: &Design, kind: CheckKind, bound: u32) -> Self {
        Self::new(kind, bound, Arc::new(build_model(design, kind)))
    }

    /// The frame the next [`CheckSession::run`] starts at — `0` on a
    /// fresh session, the stopped frame after an inconclusive run.
    pub fn resume_frame(&self) -> u32 {
        self.engine.verified_clean()
    }

    /// Cumulative per-frame queries solved by this session's engine (the
    /// deterministic work metric; see [`gqed_bmc::BmcStats`]).
    pub fn frame_queries(&self) -> u64 {
        self.engine.stats().frame_queries
    }

    /// Runs — or, after a stop, resumes — the check under `limits`. A
    /// stopped session keeps its unrolling and learnt clauses, so the
    /// next run resumes at the stopped frame.
    pub fn run(&mut self, limits: &BmcLimits) -> CheckStatus {
        let start = Instant::now();
        let result = self.engine.try_check_up_to(self.bound, limits);
        let stats = self.engine.stats();
        self.wall += start.elapsed();
        let elapsed = self.wall;
        let kind = self.kind;
        match result {
            BmcStatus::Violated(trace) => CheckStatus::Done(CheckOutcome {
                kind,
                verdict: Verdict::Violation {
                    property: trace.bad_name.clone(),
                    cycles: trace.len(),
                },
                trace: Some(trace),
                stats,
                elapsed,
            }),
            BmcStatus::NoneUpTo(b) => CheckStatus::Done(CheckOutcome {
                kind,
                verdict: Verdict::CleanUpTo(b),
                trace: None,
                stats,
                elapsed,
            }),
            BmcStatus::Stopped { frame, reason } => CheckStatus::Stopped {
                kind,
                frame,
                reason,
                stats,
                elapsed,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqed_bmc::StopReason;
    use gqed_ha::designs::accum;

    #[test]
    fn session_matches_one_shot_check() {
        let d = accum::build(&accum::Params::default(), Some("carry-leak"));
        let one_shot = crate::check_design(&d, CheckKind::GQed, 16);
        let mut session = CheckSession::for_design(&d, CheckKind::GQed, 16);
        match session.run(&BmcLimits::default()) {
            CheckStatus::Done(o) => {
                assert_eq!(
                    format!("{:?}", o.verdict),
                    format!("{:?}", one_shot.verdict)
                );
            }
            CheckStatus::Stopped { .. } => panic!("unlimited run cannot stop"),
        }
    }

    #[test]
    fn stopped_session_resumes_not_restarts() {
        let d = accum::build(&accum::Params::default(), Some("carry-leak"));
        let mut session = CheckSession::for_design(&d, CheckKind::GQed, 16);
        // An expired deadline stops the first run at frame 0…
        let expired = BmcLimits {
            deadline: Some(Instant::now()),
            ..BmcLimits::default()
        };
        match session.run(&expired) {
            CheckStatus::Stopped {
                reason: StopReason::DeadlineExpired,
                ..
            } => {}
            other => panic!("expected deadline stop, got {other:?}"),
        }
        // …then escalating-budget runs resume where the last one stopped
        // (never backwards) until the violation is found.
        let mut stopped_at = 0;
        for attempt in 0..30u32 {
            let limits = BmcLimits {
                budget: Some(10u64 << attempt),
                ..BmcLimits::default()
            };
            match session.run(&limits) {
                CheckStatus::Stopped { frame, .. } => {
                    assert!(frame >= stopped_at, "resume went backwards");
                    assert_eq!(session.resume_frame(), frame);
                    stopped_at = frame;
                }
                CheckStatus::Done(o) => {
                    assert!(o.verdict.is_violation(), "carry-leak must be caught");
                    return;
                }
            }
        }
        panic!("escalating resumes never reached a verdict");
    }

    #[test]
    fn stopped_session_resumes_to_the_same_verdict() {
        let d = accum::build(&accum::Params::default(), Some("carry-leak"));
        let expected =
            match CheckSession::for_design(&d, CheckKind::GQed, 16).run(&BmcLimits::default()) {
                CheckStatus::Done(o) => format!("{:?}", o.verdict),
                CheckStatus::Stopped { .. } => panic!("unlimited run cannot stop"),
            };
        let mut session = CheckSession::for_design(&d, CheckKind::GQed, 16);
        let mut stops = 0;
        for attempt in 0..30u32 {
            let limits = BmcLimits {
                budget: Some(10u64 << attempt),
                ..BmcLimits::default()
            };
            match session.run(&limits) {
                CheckStatus::Stopped { .. } => stops += 1,
                CheckStatus::Done(o) => {
                    assert!(stops > 0, "the first budget already sufficed");
                    assert_eq!(format!("{:?}", o.verdict), expected);
                    return;
                }
            }
        }
        panic!("escalating resumes never reached a verdict");
    }

    #[test]
    fn cache_shares_and_counts() {
        let d = accum::build(&accum::Params::default(), None);
        let cache = ModelCache::new();
        let key = ModelKey::new("accum", None, CheckKind::GQed);
        let m1 = cache.get_or_build(key.clone(), || build_model(&d, CheckKind::GQed));
        let m2 = cache.get_or_build(key, || panic!("second lookup must not rebuild"));
        assert!(Arc::ptr_eq(&m1, &m2));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        // A different bug variant is a different key.
        let other = ModelKey::new("accum", Some("carry-leak"), CheckKind::GQed);
        assert_ne!(other, ModelKey::new("accum", None, CheckKind::GQed));
    }

    #[test]
    fn cache_memoises_the_returned_models_fingerprint() {
        let d = accum::build(&accum::Params::default(), None);
        let cache = ModelCache::new();
        let key = ModelKey::new("accum", None, CheckKind::GQed);
        let model = cache.get_or_build(key.clone(), || build_model(&d, CheckKind::GQed));
        assert_eq!(cache.memoised_fingerprint(&key), None, "computed lazily");
        let fp = cache.fingerprint(key.clone(), || unreachable!());
        assert_eq!(fp, model_fingerprint(&model));
        // The second request reads the memo instead of re-rendering.
        assert_eq!(cache.memoised_fingerprint(&key), Some(fp));
        assert_eq!(cache.fingerprint(key, || unreachable!()), fp);
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }
}
