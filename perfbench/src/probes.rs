//! The fixed probe suite that ends every traced run.
//!
//! Each probe runs one layer on a fixed input, so it does the same work
//! on every workload and every seed. Together they touch every layer the
//! per-layer metrics name, which keeps each layer's time defined on
//! workloads that do not use that layer themselves. Four probes keep the
//! inputs of the micro-benchmarks they replace: random 3-SAT at clause
//! ratio 4.1 with n = 40/60/80 and seeds 0–3, pigeonhole with 6, 7 and 8
//! pigeons, the wrapped `accum` design at BMC bounds 2/4/6, and G-QED
//! wrapper synthesis on all 13 designs. Every probe whose answer is
//! known checks it.

use crate::timed::{request, spec, Server};
use crate::trace::Tracer;
use crate::workload::THINK;
use crate::Checks;
use gqed_bmc::{prove_k_induction_limited, replay, BmcEngine, BmcLimits, ProofResult};
use gqed_campaign::{
    derive_key, enumerate_obligations, parse_json, run_pdr_probe, submit_batch, BatchRequest,
    CampaignConfig, FlowFilter, JobVerdict, Journal, JsonValue, Obligation, ReplayedRecord,
    Telemetry, VerdictStore,
};
use gqed_core::{build_model, model_fingerprint, synthesize, CheckKind, QedConfig};
use gqed_ha::designs::accum;
use gqed_ha::{all_designs, DesignEntry};
use gqed_ir::{BitBlaster, Context, TransitionSystem};
use gqed_logic::{Aig, SplitMix64};
use gqed_sat::{SatResult, Solver};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Times and counters the per-layer metrics take from the probes.
#[derive(Clone, Debug, Default)]
pub struct ProbeResults {
    /// The 3-SAT family, all repetitions, ms.
    pub sat_3sat_ms: f64,
    /// The pigeonhole family, ms.
    pub sat_php_ms: f64,
    /// Propagations of both SAT families.
    pub sat_propagations: u64,
    /// Time inside `solve` for both SAT families, s.
    pub sat_solve_s: f64,
    /// Mean G-QED wrapper synthesis time per design, µs.
    pub wrapper_us: f64,
    /// The wrapped-`accum` BMC family, ms.
    pub frames_ms: f64,
    /// The PDR fixture's SAT queries.
    pub pdr_queries: u64,
    /// The PDR fixture's counterexamples-to-induction.
    pub pdr_ctis: u64,
    /// Cubes the PDR fixture blocked.
    pub pdr_blocked_cubes: u64,
    /// Depth of the PDR fixture's frame ladder.
    pub pdr_frames: u32,
    /// Client round trip minus the server's batch `wall_ms`, per cached
    /// batch, ms.
    pub serve_gaps_ms: Vec<f64>,
}

/// Repetitions of the 3-SAT family: one pass takes about 4 ms, too
/// little to time.
const SAT_REPS: usize = 10;

/// Runs every probe, recording spans on `tr` and answer checks in
/// `checks`. Scratch files go under `dir`.
pub fn run(tr: &Tracer, dir: &Path, checks: &mut Checks) -> Result<ProbeResults, String> {
    let mut p = ProbeResults::default();
    sat(tr, &mut p, checks);
    designs(tr, &mut p);
    bmc(tr, &mut p, checks);
    let pdr = tr.span("pdr.probe", run_pdr_probe);
    p.pdr_queries = pdr.queries;
    p.pdr_ctis = pdr.ctis;
    p.pdr_blocked_cubes = pdr.blocked_cubes;
    p.pdr_frames = pdr.frames;
    checks.check(pdr.proven, pdr.recheck_failures > 0);
    plumbing(tr, dir, checks)?;
    serve(tr, dir, &mut p, checks)?;
    Ok(p)
}

/// AND gates of a one-frame blast of every next-state function,
/// constraint and property of `ts`.
pub fn frame_ands(ctx: &Context, ts: &TransitionSystem) -> u64 {
    let mut aig = Aig::new();
    let mut blaster = BitBlaster::new();
    let mut leaf = |aig: &mut Aig, _t, w: u32| (0..w).map(|_| aig.input()).collect::<Vec<_>>();
    for root in ts.roots() {
        let _ = blaster.blast(ctx, &mut aig, root, &mut leaf);
    }
    aig.num_ands() as u64
}

fn random_3sat(num_vars: i32, ratio: f64, seed: u64) -> Vec<Vec<i32>> {
    let mut rng = SplitMix64::new(seed);
    let clauses = (f64::from(num_vars) * ratio) as usize;
    (0..clauses)
        .map(|_| {
            let mut c = Vec::with_capacity(3);
            while c.len() < 3 {
                let v = rng.range_i32(1, num_vars);
                if !c.contains(&v) && !c.contains(&-v) {
                    c.push(if rng.next_bool() { v } else { -v });
                }
            }
            c
        })
        .collect()
}

fn pigeonhole(pigeons: usize) -> Vec<Vec<i32>> {
    let holes = pigeons - 1;
    let var = |p: usize, h: usize| (p * holes + h + 1) as i32;
    let mut clauses: Vec<Vec<i32>> = (0..pigeons)
        .map(|p| (0..holes).map(|h| var(p, h)).collect())
        .collect();
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(vec![-var(p1, h), -var(p2, h)]);
            }
        }
    }
    clauses
}

/// Solves `clauses` on a fresh solver; a satisfying assignment is
/// checked against every clause. Returns whether the formula was
/// satisfiable and whether the answer checked out.
fn solve(clauses: &[Vec<i32>], p: &mut ProbeResults) -> (bool, bool) {
    let mut s = Solver::new();
    for c in clauses {
        s.add_clause(c);
    }
    let t = Instant::now();
    let result = s.solve(&[]);
    p.sat_solve_s += t.elapsed().as_secs_f64();
    p.sat_propagations += s.stats().propagations;
    let sat = result == SatResult::Sat;
    let ok = !sat || clauses.iter().all(|c| c.iter().any(|&l| s.value(l)));
    (sat, ok)
}

fn sat(tr: &Tracer, p: &mut ProbeResults, checks: &mut Checks) {
    let t = Instant::now();
    let mut models_ok = true;
    for _ in 0..SAT_REPS {
        for n in [40, 60, 80] {
            for seed in 0..4 {
                let (_, ok) = tr.span("sat.probe_3sat", || solve(&random_3sat(n, 4.1, seed), p));
                models_ok &= ok;
            }
        }
    }
    p.sat_3sat_ms = t.elapsed().as_secs_f64() * 1e3;
    checks.check(true, !models_ok);
    let t = Instant::now();
    for pigeons in [6, 7, 8] {
        let (satisfiable, _) = tr.span("sat.probe_php", || solve(&pigeonhole(pigeons), p));
        checks.check(true, satisfiable);
    }
    p.sat_php_ms = t.elapsed().as_secs_f64() * 1e3;
}

/// One-frame bit-blasting and G-QED wrapper synthesis of every clean
/// catalogue design.
fn designs(tr: &Tracer, p: &mut ProbeResults) {
    let entries = all_designs();
    let mut synth_s = 0.0;
    for entry in &entries {
        let mut d = tr.span("ha.build", || entry.build_clean());
        tr.span("ir.bitblast", || frame_ands(&d.ctx, &d.ts));
        let t = Instant::now();
        tr.span("core.synthesize", || synthesize(&mut d, &QedConfig::gqed()));
        synth_s += t.elapsed().as_secs_f64();
    }
    p.wrapper_us = synth_s / entries.len() as f64 * 1e6;
}

fn entry(name: &str) -> DesignEntry {
    all_designs()
        .into_iter()
        .find(|e| e.name == name)
        .expect("probe fixtures are catalogue designs")
}

/// BMC frame cost on the wrapped clean `accum`, k-induction on clean
/// `bitflip` (not k-inductive at depth 8, so every property ends
/// Unknown, never Falsified) and the replay of relu's `stall-sign-flip`
/// counterexample.
fn bmc(tr: &Tracer, p: &mut ProbeResults, checks: &mut Checks) {
    let t = Instant::now();
    for bound in [2u32, 4, 6] {
        tr.span("bmc.frames_probe", || {
            let mut d = tr.span("ha.build", || accum::build(&accum::Params::default(), None));
            let wrapped = tr.span("core.synthesize", || synthesize(&mut d, &QedConfig::gqed()));
            let mut engine = BmcEngine::new(&d.ctx, &wrapped.ts);
            let result = tr.span("bmc.check", || engine.check_up_to(bound));
            checks.check(true, result.is_violated());
        });
    }
    p.frames_ms = t.elapsed().as_secs_f64() * 1e3;

    let unlimited = BmcLimits::default();
    let d = tr.span("ha.build", || entry("bitflip").build_clean());
    let model = tr.span("core.build_model", || build_model(&d, CheckKind::GQed));
    tr.span("core.fingerprint", || model_fingerprint(&model));
    for i in 0..model.ts.bads.len() {
        let r = tr.span("bmc.kind", || {
            prove_k_induction_limited(&model.ctx, &model.ts, i, 8, &unlimited)
        });
        checks.check(true, matches!(r, ProofResult::Falsified(_)));
    }

    let d = tr.span("ha.build", || entry("relu").build_buggy("stall-sign-flip"));
    let model = Arc::new(tr.span("core.build_model", || build_model(&d, CheckKind::GQed)));
    tr.span("core.fingerprint", || model_fingerprint(&model));
    let mut engine = BmcEngine::for_model(Arc::clone(&model));
    let result = tr.span("bmc.check", || engine.check_up_to(8));
    let replayed = result.trace().map(|t| {
        tr.span("bmc.replay", || replay(&model.ctx, &model.ts, t))
            .is_ok()
    });
    checks.check(true, replayed != Some(true));
}

/// Small fixed obligations for the plumbing probes: the G-QED bug checks
/// of relu, bitflip and accum, in catalogue order.
fn fixture(tr: &Tracer) -> Vec<Obligation> {
    let flows = FlowFilter {
        gqed: true,
        aqed: false,
        conventional: false,
    };
    let designs = ["relu", "bitflip", "accum"].map(String::from);
    tr.span("campaign.enumerate", || {
        enumerate_obligations(flows, &designs)
    })
    .into_iter()
    .filter(|o| o.bug.is_some())
    .collect()
}

/// Journal appends, verdict-store puts and gets, telemetry emits and the
/// batch-request wire codec, on fixed records.
fn plumbing(tr: &Tracer, dir: &Path, checks: &mut Checks) -> Result<(), String> {
    let fixture = fixture(tr);
    let verdict = JobVerdict::Violation {
        property: "tld.mismatch".to_string(),
        cycles: 5,
    };
    let record = |o: &Obligation| {
        gqed_campaign::api::encode_verdict_fields(
            JsonValue::obj()
                .field("type", "verdict")
                .field("job", o.id.as_str())
                .field("verdict", verdict.tag())
                .field("attempts", 1u32)
                .field("proof_engine", "bmc"),
            &verdict,
        )
    };

    let journal =
        Journal::create(&dir.join("probe.journal")).map_err(|e| format!("journal: {e}"))?;
    for i in 0..32 {
        let rec = record(&fixture[i % fixture.len()]);
        tr.span("campaign.journal_append", || journal.append(&rec, true))
            .map_err(|e| format!("journal: {e}"))?;
    }

    let store = tr
        .span("campaign.store_open", || {
            VerdictStore::open(&dir.join("probe-store.j1"))
        })
        .map_err(|e| format!("verdict store: {e}"))?;
    let config = CampaignConfig::default();
    let key = |i: usize| derive_key(i as u64, &fixture[i % fixture.len()], &config);
    let stored = ReplayedRecord {
        verdict: verdict.clone(),
        attempts: 1,
        engine: "bmc",
        frames_solved: 5,
        wall_ms: 1,
    };
    for i in 0..16 {
        tr.span("campaign.store_put", || store.put(key(i), &stored))
            .map_err(|e| format!("verdict store: {e}"))?;
    }
    let mut store_ok = true;
    for i in 0..32 {
        let got = tr.span("campaign.store_get", || store.get(key(i)));
        store_ok &= got.map(|r| r.verdict) == (i < 16).then(|| verdict.clone());
    }
    checks.check(true, !store_ok);

    let telemetry =
        Telemetry::file(&dir.join("probe.jsonl")).map_err(|e| format!("telemetry: {e}"))?;
    for i in 0..64 {
        let rec = record(&fixture[i % fixture.len()]);
        tr.span("campaign.telemetry_emit", || telemetry.emit(&rec));
    }
    tr.span("campaign.telemetry_emit", || telemetry.sync());

    let req = request(
        "probe".to_string(),
        fixture.iter().take(8).map(spec).collect(),
        None,
    );
    let mut codec_ok = true;
    for _ in 0..64 {
        let back = tr.span("campaign.api_codec", || {
            parse_json(&req.to_json().render()).map(|v| BatchRequest::from_json(&v))
        });
        codec_ok &= back == Some(Ok(req.clone()));
    }
    checks.check(true, !codec_ok);
    Ok(())
}

/// A real `serve` over loopback TCP: one batch solved, then eight
/// resubmissions answered from the verdict store. The gap between the
/// client's round trip and the server's own batch time is the accept
/// poll, TCP and the wire codec.
fn serve(tr: &Tracer, dir: &Path, p: &mut ProbeResults, checks: &mut Checks) -> Result<(), String> {
    let ids = ["relu/stall-sign-flip/gqed", "bitflip/stall-flip/gqed"];
    let batch: Vec<_> = fixture(tr)
        .iter()
        .filter(|o| ids.contains(&o.id.as_str()))
        .map(spec)
        .collect();
    let req = request("probe".to_string(), batch, None);
    let server = tr.span("campaign.serve", || {
        Server::start(dir.join("probe-serve.j1"), CampaignConfig::default())
    })?;
    let first = tr
        .span("campaign.serve", || {
            submit_batch(&server.addr, &req, |_| {})
        })
        .map_err(|e| format!("probe batch: {e}"))?;
    for _ in 0..8 {
        tr.span("client.think", || std::thread::sleep(THINK));
        let t = Instant::now();
        let resp = tr
            .span("campaign.serve", || {
                submit_batch(&server.addr, &req, |_| {})
            })
            .map_err(|e| format!("probe batch: {e}"))?;
        p.serve_gaps_ms
            .push(t.elapsed().as_secs_f64() * 1e3 - resp.wall_ms as f64);
        let hits_all = resp.cache_hits == req.obligations.len() as u64;
        checks.check(hits_all, resp.normalized != first.normalized);
    }
    tr.span("campaign.serve", || server.stop())?;
    Ok(())
}
