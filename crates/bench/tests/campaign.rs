//! Crash/resume drills for the `exp_all` campaign runner, driven through
//! the real binary: a campaign killed mid-run and restarted with
//! `--resume` must produce byte-identical artifacts to an uninterrupted
//! run, and a kill between the `.tmp` write and the rename must never
//! leave a truncated CSV behind.

use cml_bench::scrub_knobs;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `exp_all` sandboxed into `dir` on a quick FIG2+FIG4 subset.
fn run_campaign(dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp_all"));
    scrub_knobs(&mut cmd)
        .args(args)
        .env("EXP_OUT_DIR", dir)
        .env("EXP_SCALE", "quick")
        .env("EXP_ONLY", "FIG2,FIG4");
    for (key, value) in envs {
        cmd.env(key, value);
    }
    cmd.output().expect("exp_all spawns")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("exp_campaign_tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// All CSV artifacts in `dir`, name → raw bytes.
fn csv_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "csv") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.insert(name, std::fs::read(&path).unwrap());
        }
    }
    out
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn killed_campaign_resumes_to_byte_identical_artifacts() {
    // Reference: one uninterrupted run.
    let clean_dir = fresh_dir("clean");
    let clean = run_campaign(&clean_dir, &[], &[]);
    assert!(clean.status.success(), "{}", stdout_of(&clean));
    let clean_csvs = csv_bytes(&clean_dir);
    assert!(
        clean_csvs.contains_key("fig2_levels.csv") && clean_csvs.contains_key("fig4_swings.csv"),
        "expected FIG2+FIG4 artifacts, got {:?}",
        clean_csvs.keys()
    );

    // Chaos: die after the first experiment, then resume.
    let chaos_dir = fresh_dir("killed");
    let killed = run_campaign(&chaos_dir, &[], &[("CHAOS_KILL_AFTER_EXPERIMENTS", "1")]);
    assert_eq!(killed.status.code(), Some(137), "{}", stdout_of(&killed));
    assert!(
        chaos_dir.join("MANIFEST.json").exists(),
        "manifest must survive the kill"
    );
    let partial = csv_bytes(&chaos_dir);
    assert!(
        !partial.contains_key("fig4_swings.csv"),
        "FIG4 must not have run before the kill"
    );

    let resumed = run_campaign(&chaos_dir, &["--resume"], &[]);
    assert!(resumed.status.success(), "{}", stdout_of(&resumed));
    let log = stdout_of(&resumed);
    assert!(
        log.contains("[FIG2] complete in manifest: skipped (resume)"),
        "{log}"
    );
    assert!(log.contains("[FIG4] done"), "{log}");

    // The acceptance check: every artifact byte-identical to the clean run.
    assert_eq!(csv_bytes(&chaos_dir), clean_csvs);

    // Resuming a *finished* campaign re-runs nothing.
    let idle = run_campaign(&chaos_dir, &["--resume"], &[]);
    let log = stdout_of(&idle);
    assert!(log.contains("(0 run, 2 resumed)"), "{log}");
    assert_eq!(csv_bytes(&chaos_dir), clean_csvs);
}

#[test]
fn mid_write_kill_never_leaves_a_truncated_csv() {
    let dir = fresh_dir("midwrite");
    // Die between writing fig2_levels.csv.tmp and renaming it.
    let killed = run_campaign(&dir, &[], &[("CHAOS_KILL_MID_WRITE", "fig2_levels")]);
    assert_eq!(killed.status.code(), Some(137), "{}", stdout_of(&killed));
    assert!(
        !dir.join("fig2_levels.csv").exists(),
        "the kill fired before the rename, so no final CSV may exist"
    );
    assert!(
        dir.join("fig2_levels.csv.tmp").exists(),
        "the tmp sibling carries the interrupted write"
    );

    // The interrupted experiment was never recorded as complete, so a
    // rerun (with or without --resume) redoes it and lands the real CSV.
    let rerun = run_campaign(&dir, &["--resume"], &[]);
    assert!(rerun.status.success(), "{}", stdout_of(&rerun));
    let body = std::fs::read_to_string(dir.join("fig2_levels.csv")).unwrap();
    assert!(body.starts_with("signal,"), "{body}");
}

#[test]
fn stale_input_hash_forces_a_rerun() {
    let dir = fresh_dir("stale_hash");
    let first = run_campaign(&dir, &[], &[]);
    assert!(first.status.success(), "{}", stdout_of(&first));
    // Same campaign resumed under different chaos knobs: the input hash
    // changes, so nothing may be skipped.
    let resumed = run_campaign(&dir, &["--resume"], &[("EXP_INJECT_BAD_CORNER", "1")]);
    assert!(resumed.status.success(), "{}", stdout_of(&resumed));
    let log = stdout_of(&resumed);
    assert!(log.contains("(2 run, 0 resumed)"), "{log}");
}

#[test]
fn input_that_selects_nothing_is_rejected_before_anything_runs() {
    // A malformed kill count or corner deadline is rejected too: read as
    // unset, it would run the campaign through without the kill or the
    // deadline it was asked for.
    for (name, envs) in [
        ("unknown_only", [("EXP_ONLY", "FIG4,TABLE1")]),
        ("unknown_scale", [("EXP_SCALE", "quik")]),
        ("malformed_kill", [("CHAOS_KILL_AFTER_EXPERIMENTS", "one")]),
        ("malformed_deadline", [("EXP_CORNER_DEADLINE_MS", "soon")]),
    ] {
        let dir = fresh_dir(name);
        let out = run_campaign(&dir, &[], &envs);
        assert!(!out.status.success(), "{name}: {}", stdout_of(&out));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(envs[0].0), "{name}: {stderr}");
        assert!(csv_bytes(&dir).is_empty(), "{name}: CSVs written");
        assert!(
            !dir.join("MANIFEST.json").exists(),
            "{name}: manifest written"
        );
    }
}
