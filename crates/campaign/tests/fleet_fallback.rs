//! Fleet paths that need no `gqed` worker binary: the in-process
//! fallbacks (a worker that cannot spawn, obligations with no wire form,
//! an interrupt raised before any dispatch) and a worker child that
//! rejects every request with a structured `error` line.
//!
//! Every fallback must settle exactly as the thread runner settles: the
//! normalized render is compared byte for byte.

use gqed_campaign::{
    enumerate_mutant_obligations, enumerate_obligations, Campaign, CampaignConfig, CampaignSummary,
    EngineId, FleetConfig, FlowFilter, JobVerdict, Obligation, Telemetry,
};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

/// Serializes the tests in this file: the stub-worker test writes and
/// then executes a script, which must not race another test's fork.
static SERIAL: Mutex<()> = Mutex::new(());

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gqed-fleetfb-{}-{name}", std::process::id()))
}

fn bmc_config() -> CampaignConfig {
    CampaignConfig::default()
        .with_jobs(2)
        .with_engines(vec![EngineId::Bmc])
}

fn relu_obligations() -> Vec<Obligation> {
    enumerate_obligations(FlowFilter::all(), &["relu".to_string()])
}

fn missing_worker_fleet() -> FleetConfig {
    FleetConfig::default()
        .with_workers(2)
        .with_worker_exe(tmp("no-such-worker"))
}

fn thread_run(obls: &[Obligation]) -> CampaignSummary {
    Campaign::new(obls)
        .config(bmc_config())
        .run(&Telemetry::null())
}

/// Runs on `fleet` and returns the summary plus the telemetry lines.
fn fleet_run(
    obls: &[Obligation],
    config: CampaignConfig,
    fleet: FleetConfig,
) -> (CampaignSummary, Vec<String>) {
    let (telemetry, buf) = Telemetry::buffer();
    let summary = Campaign::new(obls)
        .config(config)
        .fleet(fleet)
        .run(&telemetry);
    (summary, buf.lines())
}

fn count_events(lines: &[String], kind: &str) -> usize {
    let tag = format!("\"type\":\"{kind}\"");
    lines.iter().filter(|l| l.contains(&tag)).count()
}

#[test]
fn unspawnable_worker_solves_every_obligation_in_process() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let obls = relu_obligations();
    let base = thread_run(&obls);
    let (fleet, lines) = fleet_run(&obls, bmc_config(), missing_worker_fleet());

    assert_eq!(fleet.normalized_render(), base.normalized_render());
    assert!(fleet.is_success(), "fallback campaign failed: {fleet:?}");
    assert_eq!(count_events(&lines, "job_dispatch"), 0);
    assert!(count_events(&lines, "worker_spawn_failed") > 0);
    assert_eq!(fleet.worker_crashes, 0);
}

#[test]
fn mutants_have_no_wire_form_and_solve_in_process() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let batch = enumerate_mutant_obligations(11, 3, FlowFilter::all(), &["relu".to_string()]);
    assert!(!batch.obligations.is_empty());
    let base = thread_run(&batch.obligations);
    let (fleet, lines) = fleet_run(&batch.obligations, bmc_config(), missing_worker_fleet());

    assert_eq!(fleet.normalized_render(), base.normalized_render());
    assert_eq!(count_events(&lines, "job_dispatch"), 0);
    assert_eq!(count_events(&lines, "worker_spawn_failed"), 0);
}

#[test]
fn pre_raised_interrupt_cancels_a_fleet_campaign_without_spawning() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let obls = relu_obligations();
    let config = bmc_config().with_interrupt(Arc::new(AtomicBool::new(true)));
    let (fleet, lines) = fleet_run(&obls, config, missing_worker_fleet());

    assert_eq!(fleet.cancelled, obls.len());
    assert!(fleet
        .records
        .iter()
        .all(|r| r.verdict == JobVerdict::Cancelled));
    assert_eq!(count_events(&lines, "worker_spawn_failed"), 0);
    assert_eq!(count_events(&lines, "job_dispatch"), 0);
    assert_eq!(fleet.exit_code(), 130);
}

#[cfg(unix)]
#[test]
fn worker_error_reply_fails_the_obligation_without_a_crash() {
    use std::os::unix::fs::PermissionsExt;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let script = tmp("error-worker.sh");
    std::fs::write(
        &script,
        "#!/bin/sh\nwhile read -r line; do\n  \
         echo '{\"type\":\"error\",\"code\":\"bad-request\",\"message\":\"stub rejects\"}'\n\
         done\n",
    )
    .unwrap();
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();

    let obls: Vec<Obligation> = relu_obligations().into_iter().take(1).collect();
    // A single crash would poison the obligation: the error reply must
    // settle it long before the heartbeat timeout.
    let fleet = FleetConfig::default()
        .with_worker_exe(script.clone())
        .with_crash_budget(1)
        .with_heartbeat_timeout_ms(10_000);
    let (summary, lines) = fleet_run(&obls, bmc_config(), fleet);
    let _ = std::fs::remove_file(&script);

    assert_eq!(summary.worker_crashes, 0);
    assert_eq!(summary.poisoned, 0);
    assert_eq!(count_events(&lines, "job_dispatch"), 1);
    match &summary.records[0].verdict {
        JobVerdict::Failed { message } => {
            assert!(message.contains("bad-request"), "{message}");
            assert!(message.contains("stub rejects"), "{message}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
}
