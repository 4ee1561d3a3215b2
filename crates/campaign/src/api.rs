//! Versioned wire types for campaign-as-a-service.
//!
//! `gqed serve`, `gqed submit` and the crash-safe journal all speak the
//! same language: line-delimited JSON objects built from the in-tree
//! [`crate::json`] encoder. This module is the single definition of that
//! language — the obligation wire form ([`ObligationSpec`]), the batch
//! request/response envelope ([`BatchRequest`] / [`BatchResponse`]), the
//! structured error shape ([`ApiError`]), and the verdict codec shared
//! verbatim by the journal's `verdict` records, the verdict store's
//! `cached_verdict` records and the service's telemetry stream.
//!
//! Every envelope carries a `schema_version` field (`"MAJOR.MINOR"`). A
//! request or response whose *major* version is unknown is rejected with
//! a structured [`ApiError`] (`code: "unsupported-version"`) — never a
//! parse panic — so a newer client against an older server (or vice
//! versa) fails loudly and legibly. Minor-version skew is tolerated:
//! unknown fields are ignored on parse.

use crate::json::JsonValue;
use crate::obligation::{Obligation, ObligationKind};
use crate::portfolio::EngineId;
use crate::runner::{CampaignConfig, CampaignSummary, JobVerdict};
use gqed_core::CheckKind;
use gqed_ha::all_designs;

/// The wire-protocol version stamped into every envelope.
pub const SCHEMA_VERSION: &str = "1.0";

/// The major version this build understands (the part before the dot).
pub const SCHEMA_MAJOR: u64 = 1;

/// A structured protocol error: a stable machine-readable `code` plus a
/// human-readable `message`. Sent as a `{"type":"error",...}` line and
/// returned from every fallible parse in this module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// Stable error code: `bad-request`, `unsupported-version`,
    /// `unknown-design`, `unknown-bug`, `unknown-engine` or `io`.
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// Builds an error from a code and message.
    pub fn new(code: &str, message: impl Into<String>) -> ApiError {
        ApiError {
            code: code.to_string(),
            message: message.into(),
        }
    }

    /// The `{"type":"error",...}` wire line.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("type", "error")
            .field("schema_version", SCHEMA_VERSION)
            .field("code", self.code.as_str())
            .field("message", self.message.as_str())
    }

    /// Parses an error line (the inverse of [`ApiError::to_json`]).
    pub fn from_json(v: &JsonValue) -> Option<ApiError> {
        if v.get("type").and_then(JsonValue::as_str) != Some("error") {
            return None;
        }
        Some(ApiError {
            code: v.get("code")?.as_str()?.to_string(),
            message: v.get("message")?.as_str()?.to_string(),
        })
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Checks an envelope's `schema_version` field: absent, malformed or
/// unknown-major versions are rejected with a structured error.
pub fn check_schema_version(v: &JsonValue) -> Result<(), ApiError> {
    let Some(version) = v.get("schema_version").and_then(JsonValue::as_str) else {
        return Err(ApiError::new("bad-request", "missing schema_version"));
    };
    let major = version
        .split('.')
        .next()
        .and_then(|m| m.parse::<u64>().ok());
    match major {
        Some(m) if m == SCHEMA_MAJOR => Ok(()),
        Some(m) => Err(ApiError::new(
            "unsupported-version",
            format!("schema major version {m} not supported (this build speaks {SCHEMA_VERSION})"),
        )),
        None => Err(ApiError::new(
            "bad-request",
            format!("malformed schema_version '{version}'"),
        )),
    }
}

/// The wire form of one [`Obligation`].
///
/// `flow` selects the work: `gqed` / `aqed` / `conv` are bounded checks
/// (requiring `bound`), `prove` is a clean-design proof obligation
/// (requiring `bound` and `max_k`). The test-only debug obligation kinds
/// are deliberately not wire-representable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObligationSpec {
    /// Stable obligation identifier (e.g. `relu/clean/prove`).
    pub id: String,
    /// Catalogued design name.
    pub design: String,
    /// Injected bug id, `None` for the clean build.
    pub bug: Option<String>,
    /// Flow tag: `gqed`, `aqed`, `conv` or `prove`.
    pub flow: String,
    /// BMC bound (required by every wire-representable flow).
    pub bound: Option<u32>,
    /// Induction depth limit (required by `prove`; see
    /// [`ObligationKind::ProveClean`]).
    pub max_k: Option<u32>,
    /// Catalogue ground truth, when known.
    pub expect_violation: Option<bool>,
}

impl ObligationSpec {
    /// The wire form of a library obligation. Returns `None` for the
    /// test-only debug kinds and for synthesized-mutant obligations,
    /// which have no wire representation (mutants are regenerated from
    /// `(seed, ordinal)` by `gqed mutants`, not submitted over the wire).
    pub fn from_obligation(obl: &Obligation) -> Option<ObligationSpec> {
        if obl.mutation.is_some() {
            return None;
        }
        let (bound, max_k) = match &obl.kind {
            ObligationKind::Check { bound, .. } => (Some(*bound), None),
            ObligationKind::ProveClean { bound, max_k } => (Some(*bound), Some(*max_k)),
            ObligationKind::DebugPanic | ObligationKind::DebugExhaust => return None,
        };
        Some(ObligationSpec {
            id: obl.id.clone(),
            design: obl.design.to_string(),
            bug: obl.bug.map(str::to_string),
            flow: obl.flow_tag().to_string(),
            bound,
            max_k,
            expect_violation: obl.expect_violation,
        })
    }

    /// Canonical JSON encoding (fixed field order; absent options render
    /// as `null` so encode→parse→encode is byte-identical).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("id", self.id.as_str())
            .field("design", self.design.as_str())
            .field("bug", self.bug.as_deref())
            .field("flow", self.flow.as_str())
            .field("bound", self.bound)
            .field("max_k", self.max_k)
            .field("expect_violation", self.expect_violation)
    }

    /// Parses one obligation spec.
    pub fn from_json(v: &JsonValue) -> Result<ObligationSpec, ApiError> {
        let req_str = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| {
                    ApiError::new("bad-request", format!("obligation missing string '{key}'"))
                })
        };
        let opt_u32 = |key: &str| match v.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(n) => n
                .as_u64()
                .and_then(|u| u32::try_from(u).ok())
                .map(Some)
                .ok_or_else(|| {
                    ApiError::new("bad-request", format!("obligation field '{key}' not a u32"))
                }),
        };
        Ok(ObligationSpec {
            id: req_str("id")?,
            design: req_str("design")?,
            bug: match v.get("bug") {
                None | Some(JsonValue::Null) => None,
                Some(b) => Some(b.as_str().map(str::to_string).ok_or_else(|| {
                    ApiError::new("bad-request", "obligation field 'bug' not a string")
                })?),
            },
            flow: req_str("flow")?,
            bound: opt_u32("bound")?,
            max_k: opt_u32("max_k")?,
            expect_violation: match v.get("expect_violation") {
                None | Some(JsonValue::Null) => None,
                Some(b) => Some(b.as_bool().ok_or_else(|| {
                    ApiError::new(
                        "bad-request",
                        "obligation field 'expect_violation' not a bool",
                    )
                })?),
            },
        })
    }

    /// Resolves the spec against the design catalogue into a runnable
    /// [`Obligation`]. Unknown designs, bugs and flows produce structured
    /// errors — the service rejects the whole batch rather than panicking
    /// inside a worker.
    pub fn resolve(&self) -> Result<Obligation, ApiError> {
        let entry = all_designs()
            .into_iter()
            .find(|e| e.name == self.design)
            .ok_or_else(|| {
                ApiError::new("unknown-design", format!("no design '{}'", self.design))
            })?;
        let bug: Option<&'static str> = match &self.bug {
            None => None,
            Some(b) => Some(
                (entry.bugs)()
                    .iter()
                    .map(|info| info.id)
                    .find(|id| id == b)
                    .ok_or_else(|| {
                        ApiError::new(
                            "unknown-bug",
                            format!("design '{}' has no bug '{b}'", self.design),
                        )
                    })?,
            ),
        };
        let bound = self.bound.ok_or_else(|| {
            ApiError::new(
                "bad-request",
                format!("obligation '{}' missing bound", self.id),
            )
        })?;
        let kind = match self.flow.as_str() {
            "gqed" => ObligationKind::Check {
                kind: CheckKind::GQed,
                bound,
            },
            "aqed" => ObligationKind::Check {
                kind: CheckKind::AQed,
                bound,
            },
            "conv" => ObligationKind::Check {
                kind: CheckKind::Conventional,
                bound,
            },
            "prove" => ObligationKind::ProveClean {
                bound,
                max_k: self.max_k.ok_or_else(|| {
                    ApiError::new(
                        "bad-request",
                        format!("prove obligation '{}' missing max_k", self.id),
                    )
                })?,
            },
            other => {
                return Err(ApiError::new(
                    "bad-request",
                    format!("unknown flow '{other}' (expected gqed, aqed, conv or prove)"),
                ))
            }
        };
        Ok(Obligation {
            id: self.id.clone(),
            design: entry.name,
            bug,
            mutation: None,
            kind,
            expect_violation: self.expect_violation,
        })
    }
}

/// One batch of obligations submitted to `gqed serve`.
///
/// Solver knobs are optional overrides: `None` keeps the server's base
/// configuration for that knob. `engines` carries raw names so an
/// unknown engine is a structured `unknown-engine` error at apply time,
/// not a parse failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchRequest {
    /// Client-chosen batch label, echoed in telemetry and the response.
    pub batch: String,
    /// Worker-thread override.
    pub jobs: Option<u64>,
    /// Base per-attempt deadline override (milliseconds).
    pub deadline_ms: Option<u64>,
    /// Base per-attempt conflict-budget override.
    pub budget: Option<u64>,
    /// Escalation-attempt override.
    pub max_attempts: Option<u32>,
    /// Engine-portfolio override (names as accepted by `--engines`).
    pub engines: Option<Vec<String>>,
    /// The obligations to solve.
    pub obligations: Vec<ObligationSpec>,
}

impl BatchRequest {
    /// Canonical JSON encoding (fixed field order).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("type", "batch_request")
            .field("schema_version", SCHEMA_VERSION)
            .field("batch", self.batch.as_str())
            .field("jobs", self.jobs)
            .field("deadline_ms", self.deadline_ms)
            .field("budget", self.budget)
            .field("max_attempts", self.max_attempts)
            .field(
                "engines",
                match &self.engines {
                    None => JsonValue::Null,
                    Some(names) => {
                        JsonValue::Array(names.iter().map(|n| JsonValue::Str(n.clone())).collect())
                    }
                },
            )
            .field(
                "obligations",
                JsonValue::Array(
                    self.obligations
                        .iter()
                        .map(ObligationSpec::to_json)
                        .collect(),
                ),
            )
    }

    /// Parses a request envelope, rejecting unknown major versions.
    pub fn from_json(v: &JsonValue) -> Result<BatchRequest, ApiError> {
        if v.get("type").and_then(JsonValue::as_str) != Some("batch_request") {
            return Err(ApiError::new("bad-request", "not a batch_request"));
        }
        check_schema_version(v)?;
        let opt_u64 = |key: &str| match v.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(n) => n.as_u64().map(Some).ok_or_else(|| {
                ApiError::new("bad-request", format!("request field '{key}' not a u64"))
            }),
        };
        let engines = match v.get("engines") {
            None | Some(JsonValue::Null) => None,
            Some(JsonValue::Array(items)) => {
                let mut names = Vec::with_capacity(items.len());
                for item in items {
                    names.push(
                        item.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| ApiError::new("bad-request", "engine not a string"))?,
                    );
                }
                Some(names)
            }
            Some(_) => return Err(ApiError::new("bad-request", "'engines' not an array")),
        };
        let obligations = match v.get("obligations") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(ObligationSpec::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => {
                return Err(ApiError::new(
                    "bad-request",
                    "request missing 'obligations' array",
                ))
            }
        };
        Ok(BatchRequest {
            batch: v
                .get("batch")
                .and_then(JsonValue::as_str)
                .unwrap_or("batch")
                .to_string(),
            jobs: opt_u64("jobs")?,
            deadline_ms: opt_u64("deadline_ms")?,
            budget: opt_u64("budget")?,
            max_attempts: opt_u64("max_attempts")?
                .map(|u| {
                    u32::try_from(u)
                        .map_err(|_| ApiError::new("bad-request", "max_attempts out of range"))
                })
                .transpose()?,
            engines,
            obligations,
        })
    }

    /// The effective campaign configuration: the server's base `config`
    /// with this request's overrides applied. Unknown engine names are a
    /// structured error.
    pub fn apply_to(&self, base: &CampaignConfig) -> Result<CampaignConfig, ApiError> {
        let mut config = base.clone();
        if let Some(jobs) = self.jobs {
            config.jobs = usize::try_from(jobs).unwrap_or(usize::MAX).max(1);
        }
        if let Some(ms) = self.deadline_ms {
            config.deadline_ms = Some(ms);
        }
        if let Some(b) = self.budget {
            config.base_budget = Some(b);
        }
        if let Some(a) = self.max_attempts {
            config.max_attempts = a.max(1);
        }
        if let Some(names) = &self.engines {
            let mut engines = Vec::new();
            for name in names {
                let e = EngineId::parse(name).map_err(|m| ApiError::new("unknown-engine", m))?;
                if !engines.contains(&e) {
                    engines.push(e);
                }
            }
            config.engines = engines;
        }
        Ok(config)
    }

    /// Resolves every spec against the catalogue (see
    /// [`ObligationSpec::resolve`]); the first failure rejects the batch.
    pub fn resolve_obligations(&self) -> Result<Vec<Obligation>, ApiError> {
        self.obligations
            .iter()
            .map(ObligationSpec::resolve)
            .collect()
    }
}

/// The final line of a served batch: summary counters (including the
/// verdict-store hit/miss split) plus the scheduling-independent
/// normalized render — the artifact the cache-determinism contract is
/// stated over.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchResponse {
    /// The request's batch label, echoed back.
    pub batch: String,
    /// Obligations in the batch.
    pub obligations: u64,
    /// Confirmed violations.
    pub violations: u64,
    /// Conclusive non-violations.
    pub passes: u64,
    /// Inconclusive outcomes.
    pub unknowns: u64,
    /// Escalation-exhausted obligations.
    pub timeouts: u64,
    /// Panicked obligations.
    pub failures: u64,
    /// Interrupt-cancelled obligations.
    pub cancelled: u64,
    /// Verdicts replayed from a resume journal.
    pub replayed: u64,
    /// Conclusive verdicts contradicting the catalogue.
    pub mismatches: u64,
    /// Obligations answered from the content-addressed verdict store.
    pub cache_hits: u64,
    /// Obligations that probed the store and missed.
    pub cache_misses: u64,
    /// Worker threads used.
    pub jobs: u64,
    /// Batch wall-clock in milliseconds.
    pub wall_ms: u64,
    /// CLI-convention exit code for the batch (0 success, 130
    /// interrupted, 1 otherwise).
    pub exit_code: i64,
    /// The normalized summary render (one line per obligation).
    pub normalized: String,
}

impl BatchResponse {
    /// Builds the response from a finished campaign summary.
    pub fn from_summary(batch: &str, summary: &CampaignSummary) -> BatchResponse {
        BatchResponse {
            batch: batch.to_string(),
            obligations: summary.records.len() as u64,
            violations: summary.violations as u64,
            passes: summary.passes as u64,
            unknowns: summary.unknowns as u64,
            timeouts: summary.timeouts as u64,
            failures: summary.failures as u64,
            cancelled: summary.cancelled as u64,
            replayed: summary.replayed as u64,
            mismatches: summary.mismatches as u64,
            cache_hits: summary.cache_hits,
            cache_misses: summary.cache_misses,
            jobs: summary.jobs as u64,
            wall_ms: summary.wall.as_millis() as u64,
            exit_code: i64::from(summary.exit_code()),
            normalized: summary.normalized_render(),
        }
    }

    /// Canonical JSON encoding (fixed field order).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("type", "batch_response")
            .field("schema_version", SCHEMA_VERSION)
            .field("batch", self.batch.as_str())
            .field("obligations", self.obligations)
            .field("violations", self.violations)
            .field("passes", self.passes)
            .field("unknowns", self.unknowns)
            .field("timeouts", self.timeouts)
            .field("failures", self.failures)
            .field("cancelled", self.cancelled)
            .field("replayed", self.replayed)
            .field("mismatches", self.mismatches)
            .field("cache_hits", self.cache_hits)
            .field("cache_misses", self.cache_misses)
            .field("jobs", self.jobs)
            .field("wall_ms", self.wall_ms)
            .field("exit_code", self.exit_code)
            .field("normalized", self.normalized.as_str())
    }

    /// Parses a response envelope, rejecting unknown major versions.
    pub fn from_json(v: &JsonValue) -> Result<BatchResponse, ApiError> {
        if v.get("type").and_then(JsonValue::as_str) != Some("batch_response") {
            return Err(ApiError::new("bad-request", "not a batch_response"));
        }
        check_schema_version(v)?;
        let num = |key: &str| {
            v.get(key).and_then(JsonValue::as_u64).ok_or_else(|| {
                ApiError::new("bad-request", format!("response field '{key}' not a u64"))
            })
        };
        Ok(BatchResponse {
            batch: v
                .get("batch")
                .and_then(JsonValue::as_str)
                .unwrap_or("batch")
                .to_string(),
            obligations: num("obligations")?,
            violations: num("violations")?,
            passes: num("passes")?,
            unknowns: num("unknowns")?,
            timeouts: num("timeouts")?,
            failures: num("failures")?,
            cancelled: num("cancelled")?,
            replayed: num("replayed")?,
            mismatches: num("mismatches")?,
            cache_hits: num("cache_hits")?,
            cache_misses: num("cache_misses")?,
            jobs: num("jobs")?,
            wall_ms: num("wall_ms")?,
            exit_code: v
                .get("exit_code")
                .and_then(JsonValue::as_i64)
                .ok_or_else(|| ApiError::new("bad-request", "response missing exit_code"))?,
            normalized: v
                .get("normalized")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| ApiError::new("bad-request", "response missing normalized"))?
                .to_string(),
        })
    }
}

/// The `{"type":"shutdown",...}` request line that asks a running
/// `gqed serve` to stop accepting connections and exit.
pub fn shutdown_request() -> JsonValue {
    JsonValue::obj()
        .field("type", "shutdown")
        .field("schema_version", SCHEMA_VERSION)
}

/// The acknowledgement line a server sends before honouring a shutdown.
pub fn shutdown_ack() -> JsonValue {
    JsonValue::obj()
        .field("type", "shutdown_ack")
        .field("schema_version", SCHEMA_VERSION)
}

/// Appends a verdict's variant-specific fields to a record under
/// construction — the one encoding shared by the journal's `verdict`
/// records, the verdict store's `cached_verdict` records and the
/// `job_verdict` telemetry event.
pub fn encode_verdict_fields(rec: JsonValue, verdict: &JobVerdict) -> JsonValue {
    match verdict {
        JobVerdict::Violation { property, cycles } => rec
            .field("property", property.as_str())
            .field("cycles", *cycles),
        JobVerdict::Clean { bound } => rec.field("bound", *bound),
        JobVerdict::Proven { k } => rec.field("k", *k),
        JobVerdict::Unknown { max_k } => rec.field("max_k", *max_k),
        JobVerdict::TimeoutEscalated { attempts } => rec.field("attempts_made", *attempts),
        JobVerdict::Failed { message } => rec.field("message", message.as_str()),
        JobVerdict::Cancelled => rec,
    }
}

/// Rebuilds a *settled* verdict (violation, bounded-clean, proven or
/// genuine unknown) from a record carrying a `verdict` tag and the fields
/// written by [`encode_verdict_fields`]. `None` for unsettled or
/// malformed records — the journal re-runs those on resume, and the
/// verdict store never admits them.
pub fn decode_settled_verdict(r: &JsonValue) -> Option<JobVerdict> {
    let u32_field = |key: &str| {
        r.get(key)
            .and_then(JsonValue::as_u64)
            .and_then(|v| u32::try_from(v).ok())
    };
    Some(match r.get("verdict").and_then(JsonValue::as_str)? {
        "violation" => JobVerdict::Violation {
            property: r.get("property")?.as_str()?.to_string(),
            cycles: usize::try_from(r.get("cycles")?.as_u64()?).ok()?,
        },
        "clean" => JobVerdict::Clean {
            bound: u32_field("bound")?,
        },
        "proven" => JobVerdict::Proven { k: u32_field("k")? },
        "unknown" => JobVerdict::Unknown {
            max_k: u32_field("max_k")?,
        },
        _ => return None,
    })
}

/// Decodes a record's `engine` attribution into the interned name the
/// summary counters key on (`bmc`, `pdr`, or `-` for anything
/// unattributed or unrecognized, such as the retired `kind`).
pub fn decode_engine(r: &JsonValue) -> &'static str {
    match r.get("engine").and_then(JsonValue::as_str) {
        Some("bmc") => "bmc",
        Some("pdr") => "pdr",
        _ => "-",
    }
}
