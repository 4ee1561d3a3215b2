//! The benchmark's workloads: which obligations each one solves, under
//! which configuration, and why.
//!
//! The definitions live here, not in `gqed-campaign`'s bench helpers, so a
//! change to the library cannot silently change what is measured: each
//! suite is resolved from the catalogue by a fixed rule and then checked
//! against a pinned digest of its `(id, flow, bound, expectation)` rows.
//!
//! The seed is the only workload input. It permutes obligation order
//! (per pass) and, on `serve`, draws the read batches, the write
//! obligations and the position of each write batch.

use gqed_campaign::{
    enumerate_obligations, CampaignConfig, EngineId, FlowFilter, Obligation, ObligationKind,
};
use gqed_logic::SplitMix64;

/// How a workload is run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Repeated campaign passes over a suite.
    Campaign,
    /// Closed-loop batches against an in-process `serve`.
    Serve,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["hunt", "escalate", "serve"];

/// G-QED bug checks left out of `hunt`. The first needs over 200 s. Each
/// of the others takes 0.6-10 s alone (35 s together, against 6.4 s for
/// the 46 kept); with them a 25 s run fits two passes, and a median over
/// passes needs three to outvote one pass the machine slowed down.
const HUNT_EXCLUDED: [&str; 12] = [
    "kvstore/del-uses-live-bus/gqed",
    "matvec/mac-not-cleared/gqed",
    "fir/stall-rotates-window/gqed",
    "matvec/hang-on-zero-vector/gqed",
    "alu/xor-as-or/gqed",
    "pipeadd/carry-between-stages-lost/gqed",
    "accum/carry-leak/gqed",
    "vecadd/nibble-carry-break/gqed",
    "crc32/stall-shift-corrupt/gqed",
    "movavg/sum-truncated/gqed",
    "crc32/init-partial/gqed",
    "matvec/last-element-dropped/gqed",
];

/// Obligations left out of `escalate`: both exhaust all 16 attempts at
/// its budget and end timed out, which would count as failures.
const ESCALATE_EXCLUDED: [&str; 2] = ["accum/carry-leak/gqed", "vecadd/nibble-carry-break/gqed"];

/// The `serve` pool: the G-QED bug checks of seven designs that each
/// settle in under 20 ms. A write batch then costs about what the store,
/// fsync and TCP layers around its solve cost, so `serve` measures the
/// service path; SAT search is `hunt`'s. With the pool's 40–120 ms checks
/// in it, write solves made up a third of serve's time and its throughput
/// followed the machine's speed, spreading 8% over ten runs.
const SERVE_POOL: [&str; 11] = [
    "relu/stall-sign-flip/gqed",
    "relu/double-deliver/gqed",
    "bitflip/stall-flip/gqed",
    "bitflip/double-deliver/gqed",
    "accum/uninit-acc/gqed",
    "accum/capture-without-accept/gqed",
    "crc32/uninit-crc/gqed",
    "histogram/uninit-bins/gqed",
    "movavg/uninit-window/gqed",
    "dma/cfg-leak-while-busy/gqed",
    "dma/uninit-stride/gqed",
];

/// Obligations per `serve` read batch.
const READ_BATCH: usize = 8;
/// Obligations per `serve` write batch.
const WRITE_BATCH: usize = 2;
/// `serve` sends batches in blocks of this many: one write at a seeded
/// position, the rest reads.
pub const BLOCK: usize = 11;
/// The `serve` client's think time between a response and its next
/// request. `serve` polls a non-blocking `accept` and sleeps 25 ms after
/// each miss; a client that reconnects at once races that poll, and which
/// side wins depends on thread placement, so a run's latency would land
/// at either ~1 ms or ~27 ms. Thinking longer than the race but shorter
/// than the sleep puts every batch on the same side of it.
pub const THINK: std::time::Duration = std::time::Duration::from_millis(5);
/// Base of the fresh `budget` each write batch carries: far above any
/// conflict count the pool needs, so it never binds, but a new key makes
/// the verdict store miss.
const WRITE_BUDGET_BASE: u64 = 1_000_000_000;

/// One workload: the obligations it draws from and the campaign
/// configuration it runs them under.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// How it is run.
    pub kind: Kind,
    /// Campaign workloads: the suite every pass solves. `serve`: the pool
    /// the batches draw from.
    pub obligations: Vec<Obligation>,
    /// Campaign configuration (on `serve`, the server's base
    /// configuration).
    pub config: CampaignConfig,
    /// Whether each pass keeps a journal and file telemetry.
    pub journaled: bool,
    /// Designs and flows the suite is resolved from (the set-up work).
    designs: Vec<String>,
    flows: FlowFilter,
    /// The rule that picks the workload's obligations from those.
    select: fn(&Obligation) -> bool,
}

impl Workload {
    /// Resolves a workload by name from the catalogue and checks it
    /// against its pinned digest.
    pub fn named(name: &str) -> Result<Workload, String> {
        let gqed = FlowFilter {
            gqed: true,
            aqed: false,
            conventional: false,
        };
        let designs = |names: &[&str]| names.iter().map(|d| d.to_string()).collect();
        let (mut w, pinned) = match name {
            // The paper's main use: the G-QED bug check over the
            // catalogue. BMC encoding plus SAT search on shallow
            // satisfiable queries and bound-deep UNSAT checks; a journal
            // and file telemetry as a production campaign keeps them. One
            // worker: on a shared 2-core host a 2-worker pass varied
            // 13-22% from run to run, one worker 8-10%.
            "hunt" => (
                Workload {
                    name: "hunt",
                    kind: Kind::Campaign,
                    obligations: Vec::new(),
                    config: CampaignConfig::default().with_engines(vec![EngineId::Bmc]),
                    journaled: true,
                    designs: Vec::new(),
                    flows: gqed,
                    select: |o| o.bug.is_some() && !HUNT_EXCLUDED.contains(&o.id.as_str()),
                },
                0x07ab_8eb5_3466_d55b,
            ),
            // The warm budget-escalation path: every SAT call is cut
            // short by a 600-conflict base budget, so the runner's Luby
            // retries, session resumes and model cache dominate.
            "escalate" => (
                Workload {
                    name: "escalate",
                    kind: Kind::Campaign,
                    obligations: Vec::new(),
                    config: CampaignConfig::default()
                        .with_base_budget(600)
                        .with_max_attempts(16)
                        .with_engines(vec![EngineId::Bmc]),
                    journaled: false,
                    designs: designs(&["relu", "vecadd", "accum"]),
                    flows: FlowFilter::all(),
                    select: |o| {
                        !matches!(o.kind, ObligationKind::ProveClean { .. })
                            && !ESCALATE_EXCLUDED.contains(&o.id.as_str())
                    },
                },
                0x6736_8404_39fb_3234,
            ),
            // The service path: reads are verdict-store hits (no SAT
            // work), writes are store misses solved and published with
            // an fsync — the same store in opposite directions.
            "serve" => (
                Workload {
                    name: "serve",
                    kind: Kind::Serve,
                    obligations: Vec::new(),
                    config: CampaignConfig::default(),
                    journaled: false,
                    designs: designs(&[
                        "relu",
                        "bitflip",
                        "accum",
                        "crc32",
                        "histogram",
                        "movavg",
                        "dma",
                    ]),
                    flows: gqed,
                    select: |o| SERVE_POOL.contains(&o.id.as_str()),
                },
                0x23ed_ce62_b928_c573,
            ),
            other => {
                return Err(format!(
                    "unknown workload '{other}' (expected one of {})",
                    NAMES.join(", ")
                ))
            }
        };
        w.obligations = enumerate_obligations(w.flows, &w.designs)
            .into_iter()
            .filter(|o| (w.select)(o))
            .collect();
        let digest = suite_digest(&w.obligations);
        if digest != pinned {
            return Err(format!(
                "workload '{name}' no longer matches its definition: the catalogue yields \
                 {} obligations with digest {digest:#018x}, pinned {pinned:#018x}",
                w.obligations.len()
            ));
        }
        Ok(w)
    }

    /// Keeps only the listed obligations (a small subset for tests).
    pub fn subset(mut self, ids: &[&str]) -> Workload {
        self.obligations.retain(|o| ids.contains(&o.id.as_str()));
        self
    }
}

/// FNV-1a digest of a suite's `(id, flow, bound, expectation)` rows.
fn suite_digest(obligations: &[Obligation]) -> u64 {
    let rows: String = obligations
        .iter()
        .map(|o| {
            let bound = match o.kind {
                ObligationKind::Check { bound, .. } => format!("{bound}"),
                ObligationKind::ProveClean { bound, max_k } => format!("{bound}:{max_k}"),
                ObligationKind::DebugPanic | ObligationKind::DebugExhaust => "-".to_string(),
            };
            format!(
                "{} {} {bound} {:?}\n",
                o.id,
                o.flow_tag(),
                o.expect_violation
            )
        })
        .collect();
    gqed_core::fnv1a64(rows.as_bytes())
}

/// A seeded Fisher–Yates permutation of `items`.
pub fn permuted<T: Clone>(items: &[T], rng: &mut SplitMix64) -> Vec<T> {
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        out.swap(i, j);
    }
    out
}

/// One `serve` batch: indices into the pool, and for a write the fresh
/// budget that makes the store miss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Batch {
    /// Pool indices of the batch's obligations.
    pub obligations: Vec<usize>,
    /// `Some(budget)` for a write batch.
    pub write_budget: Option<u64>,
}

/// The seeded, endless `serve` batch sequence: blocks of [`BLOCK`]
/// batches with one write at a seeded position; reads draw
/// [`READ_BATCH`] distinct pool members, writes take the next
/// [`WRITE_BATCH`] members of a cycle of seeded pool permutations (so
/// every stretch of writes solves the pool's members equally often).
pub struct BatchStream {
    rng: SplitMix64,
    pool: usize,
    block: Vec<Batch>,
    write_queue: Vec<usize>,
    writes: u64,
}

impl BatchStream {
    /// The stream for a pool of `pool` obligations.
    pub fn new(seed: u64, pool: usize) -> BatchStream {
        BatchStream {
            rng: SplitMix64::new(seed),
            pool,
            block: Vec::new(),
            write_queue: Vec::new(),
            writes: 0,
        }
    }

    fn next_write(&mut self) -> Batch {
        let mut obligations = Vec::with_capacity(WRITE_BATCH);
        while obligations.len() < WRITE_BATCH.min(self.pool) {
            if self.write_queue.is_empty() {
                let order: Vec<usize> = (0..self.pool).collect();
                self.write_queue = permuted(&order, &mut self.rng);
            }
            let next = self.write_queue.pop().expect("queue refilled above");
            if obligations.contains(&next) {
                // A fresh cycle began with the member just taken: defer it
                // to the end of this cycle rather than drop its turn.
                self.write_queue.insert(0, next);
            } else {
                obligations.push(next);
            }
        }
        self.writes += 1;
        Batch {
            obligations,
            write_budget: Some(WRITE_BUDGET_BASE + self.writes),
        }
    }

    fn next_read(&mut self) -> Batch {
        let order: Vec<usize> = (0..self.pool).collect();
        let mut obligations = permuted(&order, &mut self.rng);
        obligations.truncate(READ_BATCH);
        Batch {
            obligations,
            write_budget: None,
        }
    }
}

impl Iterator for BatchStream {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        if self.block.is_empty() {
            let write_at = self.rng.below(BLOCK as u64) as usize;
            // Drawn in send order, then reversed so `pop` yields them in
            // that order.
            let mut block: Vec<Batch> = (0..BLOCK)
                .map(|i| {
                    if i == write_at {
                        self.next_write()
                    } else {
                        self.next_read()
                    }
                })
                .collect();
            block.reverse();
            self.block = block;
        }
        self.block.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_stream_is_seeded_and_one_write_per_block() {
        let a: Vec<Batch> = BatchStream::new(7, 19).take(3 * BLOCK).collect();
        let b: Vec<Batch> = BatchStream::new(7, 19).take(3 * BLOCK).collect();
        assert_eq!(a, b);
        assert_ne!(
            a,
            BatchStream::new(8, 19).take(3 * BLOCK).collect::<Vec<_>>()
        );
        for block in a.chunks(BLOCK) {
            let writes: Vec<&Batch> = block.iter().filter(|b| b.write_budget.is_some()).collect();
            assert_eq!(writes.len(), 1);
            assert_eq!(writes[0].obligations.len(), WRITE_BATCH);
        }
        assert!(a
            .iter()
            .filter(|b| b.write_budget.is_none())
            .all(|b| b.obligations.len() == READ_BATCH));
    }

    #[test]
    fn writes_cover_the_pool_evenly() {
        let mut counts = [0u32; 19];
        let writes = BatchStream::new(3, 19)
            .filter(|b| b.write_budget.is_some())
            .take(19);
        for w in writes {
            for i in w.obligations {
                counts[i] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 2), "{counts:?}");
    }
}
