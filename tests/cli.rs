//! The `gqed` command line: strict flag parsing, the catalogue bug hunt
//! as a campaign filter, and a quiet exit on a closed stdout.

use std::process::{Command, Output, Stdio};

fn gqed(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gqed"))
        .args(args)
        .output()
        .expect("spawn gqed")
}

#[test]
fn bad_flags_exit_2_with_one_line_naming_the_flag() {
    let cases: &[(&[&str], &str)] = &[
        (&["campaign", "relu", "--coldd"], "--coldd"),
        (&["campaign", "relu", "--cold"], "--cold"),
        (&["campaign", "relu", "--no-race"], "--no-race"),
        (&["campaign", "relu", "--jobs"], "--jobs"),
        (
            &["campaign", "relu", "--summary-out", "--cold"],
            "--summary-out",
        ),
        (&["prove", "relu", "--max-k", "abc"], "--max-k"),
        (
            &["campaign", "relu", "--crash-budget", "2"],
            "--crash-budget",
        ),
        (&["campaign", "relu", "--engines", "kind"], "--engines"),
        (&["campaign", "relu", "--fleet", "2"], "--fleet"),
    ];
    for &(args, flag) in cases {
        let out = gqed(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "gqed {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "gqed {args:?}: {stderr}");
        assert!(stderr.contains(flag), "gqed {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "gqed {args:?} wrote to stdout");
    }
}

#[test]
fn campaign_gqed_bmc_is_the_catalogue_bug_hunt() {
    let out = gqed(&["campaign", "relu", "--flow", "gqed", "--engines", "bmc"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let entry = gqed::ha::all_designs()
        .into_iter()
        .find(|e| e.name == "relu")
        .expect("relu is catalogued");
    let bugs = (entry.bugs)();
    assert!(!bugs.is_empty());
    for bug in &bugs {
        let row = format!("relu/{}/gqed ", bug.id);
        let rows = stdout.lines().filter(|l| l.starts_with(&row)).count();
        assert_eq!(rows, 1, "expected one row for {}: {stdout}", bug.id);
    }
    assert!(!stdout.contains("MISMATCH"), "{stdout}");
}

#[test]
fn closed_stdout_ends_quietly() {
    // The pipe's read end is gone before the child writes anything.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_gqed"))
        .arg("list")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn gqed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(141), "{stderr}");
}
