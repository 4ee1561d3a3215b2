//! `gqed` — command-line front-end to the G-QED verification flow.
//!
//! [`COMMANDS`] lists the subcommands; each one's flags are declared
//! once, in the flag tables below, with their meaning and defaults.
//! Arguments no table claims are the subcommand's operands. An unknown
//! flag, a missing or unparsable value, or a stray operand prints one
//! line naming it and exits 2.

use gqed::campaign::{
    CampaignConfig, CampaignSummary, EngineId, FleetConfig, FlowFilter, Obligation, Telemetry,
};
use gqed::core::productivity::{
    conventional_person_days, gqed_person_days, productivity_gain, CaseStudy, ConventionalCosts,
    GqedCosts,
};
use gqed::core::{check_design, synthesize, CheckKind, QedConfig, Verdict};
use gqed::ha::{all_designs, Design, DesignEntry};
use gqed::ir::to_btor2;
use std::path::Path;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One flag-table entry: the flag and whether it consumes the next
/// argument as its value.
type Flag = (&'static str, bool);
const VALUE: bool = true;
const SWITCH: bool = false;

/// Solver knobs: the configuration of `campaign`, `mutants` and `serve`
/// (whose batches may override it), and `submit`'s per-batch overrides.
const KNOBS: &[Flag] = &[
    ("--jobs", VALUE),         // worker threads (default 1)
    ("--deadline-ms", VALUE),  // per-attempt deadline, Luby-escalated
    ("--budget", VALUE),       // per-attempt conflict budget, Luby-escalated
    ("--max-attempts", VALUE), // escalation attempts (default 4)
    ("--engines", VALUE),      // clean-design portfolio from bmc,pdr (default both)
];
/// Knobs of a local solver process: `campaign`, `mutants`, `serve`.
const LOCAL: &[Flag] = &[
    ("--mem-limit", VALUE), // clause-arena bytes[K|M|G] per solver; stopped jobs retry from frame 0
];
/// A local campaign run: `campaign`, `mutants`. SIGINT/SIGTERM cancel it
/// gracefully: in-flight solvers stop at the next poll, pending
/// obligations drain as `cancelled` with journal checkpoints, and the
/// exit code is 130. A second signal exits immediately.
const RUN: &[Flag] = &[
    ("--flow", VALUE),        // restrict to flows from gqed,aqed,conv (default all)
    ("--telemetry", VALUE),   // JSONL telemetry file (schema: EXPERIMENTS.md)
    ("--journal", VALUE),     // crash-safe write-ahead journal of verdicts
    ("--resume", VALUE),      // resume a journal: re-run only the unsettled obligations
    ("--summary-out", VALUE), // normalized summary, stable across runs and resumes
    ("--store", VALUE),       // content-addressed verdict store: hits skip the solver
];
/// Solve on supervised `gqed worker` processes instead of threads:
/// crashes are contained, crashed obligations requeued, repeat offenders
/// quarantined as `poisoned`. The flags after `--fleet` require it.
const FLEET: &[Flag] = &[
    ("--fleet", VALUE),                // worker processes
    ("--crash-budget", VALUE),         // crashes one obligation may cause (default 3)
    ("--heartbeat-timeout-ms", VALUE), // silence before a restart (default 30000)
    ("--chaos-kills", VALUE),          // kill the worker on n seeded first dispatches
    ("--chaos-seed", VALUE),           // seed for --chaos-kills (default 1)
];
const CHECK: &[Flag] = &[
    ("--bug", VALUE),   // inject a catalogued bug
    ("--flow", VALUE),  // gqed|aqed|conv (default gqed)
    ("--bound", VALUE), // BMC bound (default: the design's recommendation)
    ("--vcd", VALUE),   // dump the counterexample waveform to this file
];
const EXPORT: &[Flag] = &[
    ("--bug", VALUE),      // inject a catalogued bug first
    ("--wrapped", SWITCH), // export the G-QED-wrapped model instead
    ("--format", VALUE),   // btor2|dot|smt2 (default btor2)
    ("--frame", VALUE),    // smt2: frame to assert the first property at (default 5)
];
const BMC: &[Flag] = &[
    ("--bound", VALUE),  // BMC bound (default 20)
    ("--prove", SWITCH), // try k-induction after a clean BMC run
];
const PROVE: &[Flag] = &[
    ("--bug", VALUE),   // inject a catalogued bug first
    ("--max-k", VALUE), // induction depth limit (default 6)
];
const ALL: &[Flag] = &[("--all", SWITCH)]; // every catalogued design
const MUTANTS: &[Flag] = &[
    ("--seed", VALUE),       // mutation seed (default 1)
    ("--per-design", VALUE), // distinct mutants per design (default 10)
    ("--out", VALUE),        // report path (default BENCH_mutants.json)
    ("--floor", VALUE),      // detection-rate regression floor
];
const SERVE: &[Flag] = &[
    ("--addr", VALUE),      // listen address (default 127.0.0.1:7878; port 0: any)
    ("--store", VALUE),     // persistent verdict store (default in-memory)
    ("--telemetry", VALUE), // serve_error/serve_summary JSONL telemetry
    ("--max-request-bytes", VALUE), // cap on one request line (default 8 MiB)
    ("--read-timeout-ms", VALUE), // socket read timeout (default 30000; 0 disables)
];
const SUBMIT: &[Flag] = &[
    ("--addr", VALUE),           // server address (default 127.0.0.1:7878)
    ("--batch", VALUE),          // batch label echoed in telemetry (default batch)
    ("--flow", VALUE),           // restrict to flows from gqed,aqed,conv (default all)
    ("--telemetry", VALUE),      // write the streamed JSONL telemetry
    ("--summary-out", VALUE),    // write the normalized summary
    ("--retries", VALUE),        // retry refused/broken connections, capped backoff (default 0)
    ("--retry-delay-ms", VALUE), // base retry delay (default 200)
    ("--shutdown", SWITCH),      // ask the server to shut down instead
];
const BENCH: &[Flag] = &[
    ("--quick", SWITCH),    // small suite for the CI smoke step
    ("--out", VALUE),       // report path (default BENCH_pipeline.json)
    ("--telemetry", VALUE), // attempt-level JSONL telemetry
];
const PRODUCTIVITY: &[Flag] = &[
    ("--features", VALUE),   // case-study features (default 120)
    ("--properties", VALUE), // case-study properties (default 160)
];

/// A subcommand.
struct Command(
    &'static str,               // name
    &'static str,               // operands as the usage line shows them; empty for none
    &'static [&'static [Flag]], // flag tables
    fn(&Args),                  // handler
);

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    // Designs and their bug catalogues.
    Command("list", "", &[], cmd_list),
    // One verification flow on one design.
    Command("check", "<design>", &[CHECK], cmd_check),
    // The design, or its G-QED-wrapped model, as BTOR2, dot or SMT2.
    Command("export", "<design>", &[EXPORT], cmd_export),
    // BMC of an external BTOR2 file.
    Command("bmc", "<file.btor2>", &[BMC], cmd_bmc),
    // k-induction on the conventional assertions.
    Command("prove", "<design>", &[PROVE], cmd_prove),
    // The verification campaign. `--flow gqed --engines bmc` is the
    // catalogue bug hunt: one G-QED check per bug, MISMATCH on disagreement.
    Command("campaign", "[<design>…|--all]", &[KNOBS, LOCAL, RUN, FLEET, ALL], cmd_campaign),
    // Seeded mutation campaign: synthesize mutants, solve them, report the
    // detection-rate table. Engines default to bmc-only so the table is
    // byte-identical at any worker count.
    Command("mutants", "[<design>…]", &[KNOBS, LOCAL, RUN, MUTANTS], cmd_mutants),
    // Long-running campaign service (TCP, line-delimited JSON; EXPERIMENTS.md).
    Command("serve", "", &[KNOBS, LOCAL, SERVE], cmd_serve),
    // One batch to a running server.
    Command("submit", "[<design>…|--all]", &[KNOBS, SUBMIT, ALL], cmd_submit),
    // Fleet worker child (internal): work_request lines on stdin, answers on
    // stdout (EXPERIMENTS.md).
    Command("worker", "", &[], cmd_worker),
    // Pipeline benchmark: one escalating campaign gated on exact resume
    // accounting, plus the PDR and inprocessing probes.
    Command("bench", "", &[BENCH], cmd_bench),
    // The person-day cost model.
    Command("productivity", "", &[PRODUCTIVITY], cmd_productivity),
];

fn main() {
    // A closed stdout (`gqed list | head -1`) makes `println!` panic; end
    // quietly instead, with the status a SIGPIPE death reports (128 + 13).
    let report_panic = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload_as_str().is_some_and(|m| {
            m.starts_with("failed printing to stdout") && m.contains("Broken pipe")
        }) {
            exit(141);
        }
        report_panic(info);
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.0 == name));
    let Some(command @ Command(.., run)) = command else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
        eprintln!("usage: gqed <{}> …", names.join("|"));
        eprintln!("       (see the crate docs or src/bin/gqed.rs for options)");
        exit(2);
    };
    run(&Args::parse(command, &argv[1..]));
}

/// A command line split by its subcommand's flag table: every argument
/// the table does not claim is positional.
struct Args {
    name: &'static str,
    operands: &'static str,
    groups: &'static [&'static [Flag]],
    flags: Vec<(&'static str, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(&Command(name, operands, groups, _): &Command, argv: &[String]) -> Args {
        let mut args = Args {
            name,
            operands,
            groups,
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                args.positional.push(arg.clone());
                continue;
            }
            let Some(&(name, takes_value)) = args.table().find(|f| f.0 == arg) else {
                args.fail(&format!("unknown flag {arg}"));
            };
            let value = if takes_value {
                match rest.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => args.fail(&format!("{name} expects a value")),
                }
            } else {
                None
            };
            args.flags.push((name, value));
        }
        if operands.is_empty() {
            if let Some(extra) = args.positional.first() {
                args.fail(&format!("unexpected argument '{extra}'"));
            }
        }
        args
    }

    fn table(&self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().flat_map(|group| group.iter())
    }

    fn fail(&self, msg: &str) -> ! {
        eprintln!("gqed {}: {msg}", self.name);
        exit(2);
    }

    /// The usage line, generated from the flag table.
    fn usage(&self) -> ! {
        let mut line = format!("usage: gqed {} {}", self.name, self.operands);
        for &(name, takes_value) in self.table() {
            line += &if takes_value {
                format!(" [{name} <value>]")
            } else {
                format!(" [{name}]")
            };
        }
        eprintln!("{line}");
        exit(2);
    }

    /// The flag's entry: `Some(None)` for a given switch, `Some(Some(v))`
    /// for a given value flag (its first occurrence).
    fn get(&self, name: &str) -> Option<&Option<String>> {
        debug_assert!(
            self.table().any(|f| f.0 == name),
            "{name} is not in the gqed {} flag table",
            self.name
        );
        self.flags.iter().find(|f| f.0 == name).map(|f| &f.1)
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(|v| v.as_deref())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| self.fail(&format!("bad {name} '{v}'")))
        })
    }

    /// The subcommand's single operand, or the usage line.
    fn operand(&self) -> &str {
        match self.positional.as_slice() {
            [one] => one,
            _ => self.usage(),
        }
    }

    /// The design operands, each validated. A subcommand that takes
    /// `--all` needs it or at least one design.
    fn designs(&self) -> &[String] {
        if self.positional.is_empty() && self.groups.contains(&ALL) && !self.has("--all") {
            self.usage();
        }
        for name in &self.positional {
            find_design(name); // validate early with the friendly error
        }
        &self.positional
    }
}

fn find_design(name: &str) -> DesignEntry {
    all_designs()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| {
            let names: Vec<&str> = all_designs().iter().map(|e| e.name).collect();
            eprintln!("unknown design '{name}'; available: {names:?}");
            exit(2);
        })
}

fn build(entry: &DesignEntry, args: &Args) -> Design {
    match args.value("--bug") {
        Some(b) => entry.build_buggy(b),
        None => entry.build_clean(),
    }
}

fn cmd_list(_: &Args) {
    for entry in all_designs() {
        let d = entry.build_clean();
        println!(
            "{:10} {:15} {}",
            entry.name,
            if entry.interfering {
                "interfering"
            } else {
                "non-interfering"
            },
            d.meta.description
        );
        for b in (entry.bugs)() {
            println!(
                "    {:32} [{:?}] {}",
                b.id,
                b.class,
                if b.expected.gqed {
                    "G-QED detects"
                } else {
                    "outside self-consistency class"
                }
            );
        }
    }
}

fn cmd_check(args: &Args) {
    let entry = find_design(args.operand());
    let design = build(&entry, args);
    let kind = match args.value("--flow") {
        None | Some("gqed") => CheckKind::GQed,
        Some("aqed") => CheckKind::AQed,
        Some("conv") | Some("conventional") => CheckKind::Conventional,
        Some(f) => args.fail(&format!("unknown flow '{f}'")),
    };
    let bound = args
        .parsed("--bound")
        .unwrap_or(design.meta.recommended_bound);
    eprintln!(
        "checking {} ({}) with {} at bound {bound}…",
        design.meta.name,
        design
            .injected_bug
            .map(|b| format!("bug: {b}"))
            .unwrap_or_else(|| "bug-free".into()),
        kind.name()
    );
    let o = check_design(&design, kind, bound);
    match &o.verdict {
        Verdict::Violation { property, cycles } => {
            println!(
                "VIOLATION of '{property}' in {cycles} cycles ({:.2?})",
                o.elapsed
            );
            let trace = o.trace.as_ref().expect("violation carries trace");
            // Re-synthesize to print against the right model.
            let mut d2 = design.clone();
            let ts = match kind {
                CheckKind::GQed => synthesize(&mut d2, &QedConfig::gqed()).ts,
                CheckKind::AQed => synthesize(&mut d2, &QedConfig::aqed()).ts,
                CheckKind::Conventional => {
                    let mut ts = d2.ts.clone();
                    ts.bads = d2.conventional.clone();
                    ts
                }
            };
            println!("{}", trace.pretty(&d2.ctx, &ts));
            if let Some(path) = args.value("--vcd") {
                let vcd = trace.to_vcd(&d2.ctx, &ts);
                std::fs::write(path, vcd.render()).expect("write VCD");
                eprintln!("waveform written to {path}");
            }
            exit(1);
        }
        Verdict::CleanUpTo(b) => {
            println!(
                "clean up to bound {b} ({:.2?}; {} clauses, {} conflicts)",
                o.elapsed, o.stats.cnf_clauses, o.stats.solver.conflicts
            );
        }
    }
}

fn cmd_export(args: &Args) {
    let entry = find_design(args.operand());
    let k = args.parsed("--frame").unwrap_or(5);
    let mut design = build(&entry, args);
    let ts = if args.has("--wrapped") {
        synthesize(&mut design, &QedConfig::gqed()).ts
    } else {
        // Attach the conventional assertions so the export carries
        // checkable properties.
        let mut ts = design.ts.clone();
        ts.bads = design.conventional.clone();
        ts
    };
    match args.value("--format") {
        None | Some("btor2") => print!("{}", to_btor2(&design.ctx, &ts)),
        Some("dot") => {
            let mut roots: Vec<(String, gqed::ir::TermId)> = ts.outputs.clone();
            roots.extend(ts.bads.iter().map(|b| (b.name.clone(), b.term)));
            print!("{}", gqed::ir::to_dot(&design.ctx, &roots));
        }
        Some("smt2") => {
            if ts.bads.is_empty() {
                eprintln!("no properties to export; use --wrapped or a buggy build");
                exit(2);
            }
            print!("{}", gqed::ir::unrolling_to_smt2(&design.ctx, &ts, 0, k));
        }
        Some(f) => args.fail(&format!("unknown format '{f}'")),
    }
}

fn cmd_bmc(args: &Args) {
    let path = args.operand();
    let bound: u32 = args.parsed("--bound").unwrap_or(20);
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let (ctx, ts) = gqed::ir::from_btor2(&text).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1);
    });
    if ts.bads.is_empty() {
        eprintln!("model has no bad properties");
        exit(2);
    }
    eprintln!(
        "model: {} inputs, {} states ({} bits), {} properties",
        ts.inputs.len(),
        ts.states.len(),
        ts.state_bits(&ctx),
        ts.bads.len()
    );
    let mut engine = gqed::bmc::BmcEngine::new(&ctx, &ts);
    match engine.check_up_to(bound) {
        gqed::bmc::BmcResult::Violated(trace) => {
            println!(
                "VIOLATION of '{}' in {} cycles",
                trace.bad_name,
                trace.len()
            );
            println!("{}", trace.pretty(&ctx, &ts));
            print!("{}", trace.to_btor2_witness(&ctx, &ts));
            exit(1);
        }
        gqed::bmc::BmcResult::NoneUpTo(b) => {
            println!("clean up to bound {b}");
            if args.has("--prove") {
                for (i, bad) in ts.bads.iter().enumerate() {
                    let r = gqed::bmc::prove_k_induction(&ctx, &ts, i, 8);
                    println!(
                        "{:30} {}",
                        bad.name,
                        match r {
                            gqed::bmc::ProofResult::Proven { k } => format!("PROVEN (k = {k})"),
                            gqed::bmc::ProofResult::Falsified(t) =>
                                format!("FALSIFIED ({} cycles)", t.len()),
                            gqed::bmc::ProofResult::Unknown { max_k } =>
                                format!("unknown up to k = {max_k}"),
                            gqed::bmc::ProofResult::Cancelled { k, reason } =>
                                format!("cancelled at k = {k} ({reason:?})"),
                        }
                    );
                }
            }
        }
    }
}

fn cmd_prove(args: &Args) {
    let entry = find_design(args.operand());
    let max_k: u32 = args.parsed("--max-k").unwrap_or(6);
    let design = build(&entry, args);
    let mut ts = design.ts.clone();
    ts.bads = design.conventional.clone();
    for (i, b) in ts.bads.iter().enumerate() {
        let r = gqed::bmc::prove_k_induction(&design.ctx, &ts, i, max_k);
        println!(
            "{:35} {}",
            b.name,
            match r {
                gqed::bmc::ProofResult::Proven { k } => format!("PROVEN (k = {k})"),
                gqed::bmc::ProofResult::Falsified(t) =>
                    format!("FALSIFIED ({}-cycle counterexample)", t.len()),
                gqed::bmc::ProofResult::Unknown { max_k } =>
                    format!("unknown up to k = {max_k} (needs an invariant)"),
                gqed::bmc::ProofResult::Cancelled { k, reason } =>
                    format!("cancelled at k = {k} ({reason:?})"),
            }
        );
    }
}

/// The `--flow` filter shared by `campaign`, `mutants` and `submit`.
fn parse_flows(args: &Args) -> FlowFilter {
    let Some(list) = args.value("--flow") else {
        return FlowFilter::all();
    };
    let mut f = FlowFilter {
        gqed: false,
        aqed: false,
        conventional: false,
    };
    for flow in list.split(',') {
        match flow {
            "gqed" => f.gqed = true,
            "aqed" => f.aqed = true,
            "conv" | "conventional" => f.conventional = true,
            other => args.fail(&format!(
                "unknown flow '{other}' (expected gqed, aqed or conv)"
            )),
        }
    }
    f
}

/// The campaign configuration implied by the [`KNOBS`] and [`LOCAL`]
/// flags — `campaign` and `mutants` use it directly, `serve` as the
/// base configuration batch requests override.
fn campaign_config(args: &Args) -> CampaignConfig {
    let engines = match args.value("--engines") {
        Some(list) => EngineId::parse_list(list)
            .unwrap_or_else(|e| args.fail(&format!("bad --engines '{list}': {e}"))),
        None => gqed::campaign::default_portfolio(),
    };
    let mut config = CampaignConfig::default().with_engines(engines);
    if let Some(jobs) = args.parsed("--jobs") {
        config = config.with_jobs(jobs);
    }
    if let Some(ms) = args.parsed("--deadline-ms") {
        config = config.with_deadline_ms(ms);
    }
    if let Some(budget) = args.parsed("--budget") {
        config = config.with_base_budget(budget);
    }
    if let Some(attempts) = args.parsed("--max-attempts") {
        config = config.with_max_attempts(attempts);
    }
    if let Some(v) = args.value("--mem-limit") {
        let bytes = parse_size(v).unwrap_or_else(|| {
            args.fail(&format!(
                "bad --mem-limit '{v}' (expected bytes with optional K/M/G suffix)"
            ))
        });
        config = config.with_mem_limit(bytes);
    }
    config
}

/// Parses a byte size with an optional `K`/`M`/`G` suffix (powers of
/// 1024), e.g. `512M`.
fn parse_size(v: &str) -> Option<usize> {
    let (digits, shift) = match v.as_bytes().last()? {
        b'K' | b'k' => (&v[..v.len() - 1], 10),
        b'M' | b'm' => (&v[..v.len() - 1], 20),
        b'G' | b'g' => (&v[..v.len() - 1], 30),
        _ => (v, 0),
    };
    digits
        .parse::<usize>()
        .ok()
        .and_then(|n| n.checked_shl(shift))
}

fn open_telemetry(args: &Args) -> Telemetry {
    match args.value("--telemetry") {
        Some(path) => Telemetry::file(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot open telemetry file {path}: {e}");
            exit(1);
        }),
        None => Telemetry::null(),
    }
}

fn write_or_exit(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(1);
    });
}

/// Raw SIGINT/SIGTERM handling (no libc dependency): the first signal
/// sets a flag the campaign monitor polls; a second one exits
/// immediately with the conventional interrupt code.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(code: i32) -> !;
    }

    extern "C" fn on_signal(_sig: i32) {
        if SHUTDOWN.swap(true, Ordering::Relaxed) {
            // Second signal: the user really means it.
            unsafe { _exit(130) }
        }
    }

    /// Installs the graceful handler for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(2, handler);
            signal(15, handler);
        }
    }
}

/// Graceful shutdown: returns a cooperative interrupt flag that
/// SIGINT/SIGTERM set, announcing it on stderr when `announce` is set.
fn interrupt_on_signal(announce: bool) -> Arc<AtomicBool> {
    let interrupt = Arc::new(AtomicBool::new(false));
    #[cfg(unix)]
    {
        signals::install();
        let flag = Arc::clone(&interrupt);
        std::thread::spawn(move || loop {
            if signals::SHUTDOWN.load(Ordering::Relaxed) {
                if announce {
                    eprintln!("interrupt received; checkpointing and shutting down…");
                }
                flag.store(true, Ordering::Relaxed);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        });
    }
    interrupt
}

/// Everything `campaign` and `mutants` share once their obligations are
/// known: journal or resume with its manifest check, telemetry, verdict
/// store, the signal watcher, the run itself and `--summary-out`.
fn run_obligations(
    args: &Args,
    obligations: &[Obligation],
    config: CampaignConfig,
    fleet: Option<FleetConfig>,
) -> CampaignSummary {
    use gqed::campaign::{manifest_crc, Campaign, Journal, VerdictStore};

    // Crash-safe journaling: --resume replays (and truncates) an existing
    // journal and keeps appending to it; --journal starts a fresh one.
    let (journal, resume) = match (args.value("--journal"), args.value("--resume")) {
        (Some(_), Some(_)) => args
            .fail("--journal and --resume are mutually exclusive (resume appends to its journal)"),
        (None, Some(path)) => {
            let (journal, state) = Journal::resume(Path::new(path)).unwrap_or_else(|e| {
                eprintln!("cannot resume journal {path}: {e}");
                exit(1);
            });
            match state.manifest_crc {
                Some(crc) if crc == manifest_crc(obligations) => {}
                // Mutant ids embed the seed, so this also rejects a
                // journal from a different --seed or --per-design.
                Some(_) => args.fail(&format!(
                    "journal {path} belongs to a different obligation set (manifest mismatch); \
                     re-run with the original arguments"
                )),
                None => args.fail(&format!(
                    "journal {path} has no campaign_start record; cannot verify manifest"
                )),
            }
            eprintln!(
                "resuming: {} of {} obligations already settled",
                state.completed.len(),
                obligations.len()
            );
            (Some(journal), Some(state))
        }
        (Some(path), None) => {
            let journal = Journal::create(Path::new(path)).unwrap_or_else(|e| {
                eprintln!("cannot create journal {path}: {e}");
                exit(1);
            });
            (Some(journal), None)
        }
        (None, None) => (None, None),
    };
    let telemetry = open_telemetry(args);
    let store = args.value("--store").map(|path| {
        VerdictStore::open(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot open verdict store {path}: {e}");
            exit(1);
        })
    });
    let config = config.with_interrupt(interrupt_on_signal(true));

    let name = args.name;
    match fleet.as_ref() {
        Some(f) => eprintln!(
            "{name}: {} obligations, {} worker process(es)…",
            obligations.len(),
            f.workers.max(1)
        ),
        None => eprintln!(
            "{name}: {} obligations, {} worker(s)…",
            obligations.len(),
            config.jobs.max(1)
        ),
    }
    let mut campaign = Campaign::new(obligations).config(config);
    if let Some(j) = journal.as_ref() {
        campaign = campaign.journal(j);
    }
    if let Some(s) = resume.as_ref() {
        campaign = campaign.resume(s);
    }
    if let Some(store) = store.as_ref() {
        campaign = campaign.verdict_store(store);
    }
    if let Some(f) = fleet {
        campaign = campaign.fleet(f);
    }
    let summary = campaign.run(&telemetry);

    if let Some(path) = args.value("--summary-out") {
        write_or_exit(path, &summary.normalized_render());
    }
    summary
}

/// The `--fleet` configuration, `None` without `--fleet`. The chaos plan
/// is drawn over `obligations`.
fn fleet_config(args: &Args, obligations: &[Obligation]) -> Option<FleetConfig> {
    let Some(workers) = args.parsed("--fleet") else {
        if let Some(&(name, _)) = FLEET[1..].iter().find(|f| args.has(f.0)) {
            args.fail(&format!("{name} requires --fleet"));
        }
        return None;
    };
    let mut f = FleetConfig::default().with_workers(workers);
    if let Some(budget) = args.parsed("--crash-budget") {
        f = f.with_crash_budget(budget);
    }
    if let Some(ms) = args.parsed("--heartbeat-timeout-ms") {
        f = f.with_heartbeat_timeout_ms(ms);
    }
    let seed = args.parsed("--chaos-seed").unwrap_or(1);
    if let Some(kills) = args.parsed("--chaos-kills") {
        f = f.with_faults(gqed::campaign::chaos_kill_plan(obligations, kills, seed));
    }
    Some(f)
}

fn cmd_campaign(args: &Args) {
    let designs = args.designs();
    let config = campaign_config(args);
    let obligations = gqed::campaign::enumerate_obligations(parse_flows(args), designs);
    let fleet = fleet_config(args, &obligations);
    let summary = run_obligations(args, &obligations, config, fleet);

    println!(
        "{:34} {:8} {:44} {:>3} {:>10}  engine",
        "obligation", "flow", "verdict", "try", "wall"
    );
    for r in &summary.records {
        println!(
            "{:34} {:8} {:44} {:>3} {:>10}  {}{}",
            r.obligation.id,
            r.obligation.flow_tag(),
            format!("{:?}", r.verdict),
            r.attempts,
            format!("{:.1?}", r.wall),
            r.engine,
            if r.mismatch { "  MISMATCH" } else { "" }
        );
    }
    println!(
        "\n{} obligations in {:.2?} on {} worker(s): {} violations, {} passes, {} unknown, {} timeouts, {} failures, {} cancelled, {} poisoned, {} replayed, {} mismatches",
        summary.records.len(),
        summary.wall,
        summary.jobs,
        summary.violations,
        summary.passes,
        summary.unknowns,
        summary.timeouts,
        summary.failures,
        summary.cancelled,
        summary.poisoned,
        summary.replayed,
        summary.mismatches
    );
    println!(
        "engine wins: {} bmc, {} pdr",
        summary.wins_bmc, summary.wins_pdr
    );
    if args.has("--fleet") {
        println!(
            "fleet: {} worker crash(es), {} restart(s), {} requeue(s)",
            summary.worker_crashes, summary.worker_restarts, summary.requeued
        );
    }
    if args.has("--store") {
        println!(
            "verdict store: {} cache hits, {} cache misses",
            summary.cache_hits, summary.cache_misses
        );
    }
    exit(summary.exit_code());
}

fn cmd_mutants(args: &Args) {
    use gqed::campaign::{enumerate_mutant_obligations, MutantsReport, DEFAULT_DETECTION_FLOOR};

    let designs = args.designs();
    let seed: u64 = args.parsed("--seed").unwrap_or(1);
    let per_design: usize = args.parsed("--per-design").unwrap_or(10);
    let floor: f64 = args.parsed("--floor").unwrap_or(DEFAULT_DETECTION_FLOOR);
    let out = args.value("--out").unwrap_or("BENCH_mutants.json");
    let flows = parse_flows(args);
    let mut config = campaign_config(args);
    // Detection-rate tables must be byte-identical across runs and worker
    // counts, so the racing portfolio defaults off; --engines opts back in.
    if !args.has("--engines") {
        config = config.with_engines(vec![EngineId::Bmc]);
    }

    eprintln!("mutants: synthesizing {per_design} mutant(s) per design with seed {seed}…");
    let batch = enumerate_mutant_obligations(seed, per_design, flows, designs);
    eprintln!(
        "mutants: {} accepted ({} no-ops and {} duplicates discarded before solving), {} obligations",
        batch.plans.len(),
        batch.discarded_noops,
        batch.discarded_dups,
        batch.obligations.len()
    );
    let summary = run_obligations(args, &batch.obligations, config, None);

    let report = MutantsReport::from_summary(&batch, &summary, floor);
    print!("{}", report.render_table());
    println!(
        "engine wins: {} bmc, {} pdr",
        report.wins_bmc, report.wins_pdr
    );
    if args.has("--store") {
        println!(
            "verdict store: {} cache hits, {} cache misses",
            summary.cache_hits, summary.cache_misses
        );
    }
    write_or_exit(out, &(report.to_json().render() + "\n"));
    eprintln!("report: {out}");
    if summary.exit_code() != 0 {
        exit(summary.exit_code());
    }
    if let Some(reason) = report.regression() {
        eprintln!("REGRESSION: {reason}");
        exit(1);
    }
}

fn cmd_serve(args: &Args) {
    use gqed::campaign::{serve, ServeOptions};

    let mut opts = ServeOptions {
        config: campaign_config(args),
        store: args.value("--store").map(std::path::PathBuf::from),
        ..ServeOptions::default()
    };
    if let Some(bytes) = args.parsed("--max-request-bytes") {
        opts.max_request_bytes = bytes;
    }
    if let Some(ms) = args.parsed::<u64>("--read-timeout-ms") {
        opts.read_timeout = (ms != 0).then(|| std::time::Duration::from_millis(ms));
    }
    opts.telemetry = open_telemetry(args);
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7878");
    let listener = std::net::TcpListener::bind(addr).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        exit(1);
    });
    let local = listener
        .local_addr()
        .expect("bound listener has an address");

    // Ctrl-C stops the loop: at once when idle (the serve waker unblocks
    // `accept`), after the current connection closes otherwise.
    opts.config = opts.config.with_interrupt(interrupt_on_signal(false));

    println!("gqed serve: listening on {local}");
    match opts.store.as_deref() {
        Some(path) => eprintln!("verdict store: {}", path.display()),
        None => eprintln!("verdict store: in-memory (process lifetime)"),
    }
    match serve(listener, &opts) {
        Ok(summary) => eprintln!(
            "gqed serve: shut down after {} connection(s), {} batch(es), {} connection error(s), {} oversize request(s), {} timeout(s)",
            summary.connections,
            summary.batches,
            summary.connection_errors,
            summary.oversize_requests,
            summary.timeouts
        ),
        Err(e) => {
            eprintln!("serve failed: {e}");
            exit(1);
        }
    }
}

fn cmd_submit(args: &Args) {
    use gqed::campaign::{
        enumerate_obligations, request_shutdown, submit_batch_with_retry, BatchRequest,
        ObligationSpec,
    };

    let addr = args.value("--addr").unwrap_or("127.0.0.1:7878");
    if args.has("--shutdown") {
        if let Err(e) = request_shutdown(addr) {
            eprintln!("shutdown request failed: {e}");
            exit(1);
        }
        eprintln!("server at {addr} acknowledged shutdown");
        return;
    }

    let obligations = enumerate_obligations(parse_flows(args), args.designs());
    let request = BatchRequest {
        batch: args.value("--batch").unwrap_or("batch").to_string(),
        jobs: args.parsed("--jobs"),
        deadline_ms: args.parsed("--deadline-ms"),
        budget: args.parsed("--budget"),
        max_attempts: args.parsed("--max-attempts"),
        engines: args
            .value("--engines")
            .map(|list| list.split(',').map(str::to_string).collect()),
        obligations: obligations
            .iter()
            .filter_map(ObligationSpec::from_obligation)
            .collect(),
    };
    let retries: u32 = args.parsed("--retries").unwrap_or(0);
    let retry_delay =
        std::time::Duration::from_millis(args.parsed("--retry-delay-ms").unwrap_or(200));

    let telemetry = open_telemetry(args);
    eprintln!(
        "submitting {} obligations to {addr}…",
        request.obligations.len()
    );
    let response = match submit_batch_with_retry(addr, &request, retries, retry_delay, |event| {
        telemetry.emit(event)
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("submit failed: {e}");
            exit(1);
        }
    };
    telemetry.sync();

    if let Some(path) = args.value("--summary-out") {
        write_or_exit(path, &response.normalized);
    }
    print!("{}", response.normalized);
    println!(
        "\nbatch '{}': {} obligations in {}ms on {} worker(s): {} violations, {} passes, {} unknown, {} timeouts, {} failures, {} cancelled, {} mismatches",
        response.batch,
        response.obligations,
        response.wall_ms,
        response.jobs,
        response.violations,
        response.passes,
        response.unknowns,
        response.timeouts,
        response.failures,
        response.cancelled,
        response.mismatches
    );
    println!(
        "verdict store: {} cache hits, {} cache misses",
        response.cache_hits, response.cache_misses
    );
    exit(i32::try_from(response.exit_code).unwrap_or(1));
}

fn cmd_worker(_: &Args) {
    exit(gqed::campaign::run_worker());
}

fn cmd_bench(args: &Args) {
    let quick = args.has("--quick");
    let out = args.value("--out").unwrap_or("BENCH_pipeline.json");
    let telemetry = open_telemetry(args);
    eprintln!("bench: {} suite…", if quick { "quick" } else { "full" });
    let report = gqed::campaign::run_bench(quick, &telemetry);
    write_or_exit(out, &(report.to_json().render() + "\n"));
    let run = &report.warm;
    println!(
        "{:>8.2?}  {} frames ({} redone)  {:.1} frames/s  {} conflicts  {} peak arena B  \
         {} resumes ({} obligations); report: {out}",
        run.wall,
        run.frames_solved,
        run.frames_redone,
        run.frames_per_sec(),
        run.conflicts,
        run.peak_arena_bytes,
        run.session_resumes,
        report.obligations
    );
    let sp = &report.simplify;
    println!(
        "simplify probe: {} vs {} frames ({} vs {} conflicts) inprocessing on/off; \
         {} rounds, {} vars eliminated, {} subsumed, {} strengthened, {} vivified",
        sp.frames_on,
        sp.frames_off,
        sp.conflicts_on,
        sp.conflicts_off,
        sp.simplify_rounds,
        sp.eliminated_vars,
        sp.subsumed_clauses,
        sp.strengthened_clauses,
        sp.vivified_clauses
    );
    if let Some(reason) = report.regression() {
        eprintln!("REGRESSION: {reason}");
        exit(1);
    }
}

fn cmd_productivity(args: &Args) {
    let cs = CaseStudy {
        features: args.parsed("--features").unwrap_or(120),
        properties: args.parsed("--properties").unwrap_or(160),
    };
    let c = ConventionalCosts::default();
    let g = GqedCosts::default();
    println!(
        "conventional: {:.0} person-days; G-QED: {:.0} person-days; gain {:.1}x",
        conventional_person_days(&cs, &c),
        gqed_person_days(&cs, &g),
        productivity_gain(&cs, &c, &g)
    );
}
