//! Telemetry neutrality and flight-recorder drills, driven through the
//! real `exp_all` binary:
//!
//! * a campaign run with `EXP_TELEMETRY=1` must produce byte-identical
//!   CSV artifacts to a plain run (telemetry observes, never steers), and
//!   must additionally write `RUN_REPORT.json` with the per-experiment
//!   solver rollups;
//! * the `fig8.bad_corner` drill must leave a non-empty
//!   `FLIGHT_RECORDER.jsonl` identifying the failing corner.

use cml_bench::scrub_knobs;
use spicier::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `exp_all` sandboxed into `dir` on a quick single-experiment
/// subset.
fn run_campaign(dir: &Path, only: &str, envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp_all"));
    scrub_knobs(&mut cmd)
        .env("EXP_OUT_DIR", dir)
        .env("EXP_SCALE", "quick")
        .env("EXP_ONLY", only);
    for (key, value) in envs {
        cmd.env(key, value);
    }
    cmd.output().expect("exp_all spawns")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("exp_telemetry_tests").join(name);
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
fn telemetry_keeps_artifacts_byte_identical_and_writes_run_report() {
    let plain_dir = fresh_dir("fig5_plain");
    let plain = run_campaign(&plain_dir, "FIG5", &[]);
    assert!(plain.status.success(), "{}", stdout_of(&plain));
    assert!(
        !plain_dir.join("RUN_REPORT.json").exists(),
        "a plain run must not write a run report"
    );

    let traced_dir = fresh_dir("fig5_traced");
    let traced = run_campaign(&traced_dir, "FIG5", &[("EXP_TELEMETRY", "1")]);
    assert!(traced.status.success(), "{}", stdout_of(&traced));

    // Neutrality: telemetry observes, never steers — every CSV byte-equal.
    let plain_csvs = csv_bytes(&plain_dir);
    assert!(plain_csvs.contains_key("fig5.csv"), "{plain_csvs:?}");
    assert_eq!(csv_bytes(&traced_dir), plain_csvs);

    // The traced run additionally reports its solver work.
    let report = std::fs::read_to_string(traced_dir.join("RUN_REPORT.json"))
        .expect("EXP_TELEMETRY=1 must write RUN_REPORT.json");
    let doc = Json::parse(&report).unwrap_or_else(|e| panic!("{e} in:\n{report}"));
    assert_eq!(
        doc.str_field("schema").as_deref(),
        Some("spicier-run-report-v1")
    );
    let fig5 = doc
        .get("experiments")
        .and_then(|e| e.get("FIG5"))
        .unwrap_or_else(|| panic!("missing FIG5 in:\n{report}"));
    let totals = doc
        .get("totals")
        .unwrap_or_else(|| panic!("missing totals in:\n{report}"));
    assert_eq!(fig5.str_field("status").as_deref(), Some("ok"));
    for key in [
        "wall_secs",
        "analyses",
        "newton_iterations",
        "rung_iterations",
        "lu",
        "worst_backward_error",
        "quarantined",
        "timed_out",
    ] {
        assert!(fig5.get(key).is_some(), "missing {key} in:\n{report}");
    }
    let lu = fig5.get("lu").unwrap();
    for key in ["full_factors", "solves"] {
        assert!(lu.get(key).is_some(), "missing lu.{key} in:\n{report}");
    }
    assert!(
        !traced_dir.join("RUN_REPORT.json.tmp").exists(),
        "the report write must be atomic"
    );
    // FIG5 solves real circuits: the rollup cannot be all-zero.
    for entry in [fig5, totals] {
        assert!(
            entry.u64_field("newton_iterations").is_some_and(|n| n > 0),
            "{report}"
        );
    }
}

#[test]
fn bad_corner_drill_dumps_flight_recorder_naming_the_corner() {
    let dir = fresh_dir("fig8_bad_corner");
    let out = run_campaign(
        &dir,
        "FIG8",
        &[
            ("EXP_TELEMETRY", "1"),
            ("SPICIER_FAILPOINTS", "fig8.bad_corner"),
        ],
    );
    // One failed corner is fault-isolated, not a campaign failure.
    assert!(out.status.success(), "{}", stdout_of(&out));

    let dump = std::fs::read_to_string(dir.join("FLIGHT_RECORDER.jsonl"))
        .expect("the failing corner must dump the flight recorder");
    assert!(!dump.is_empty());
    assert!(dump.contains("\"dump_begin\""), "{dump}");
    assert!(dump.contains("CornerFailure"), "{dump}");
    assert!(dump.contains("corner_failed"), "{dump}");
    // The injected corner is the last one in the grid; the dump names an
    // explicit corner index.
    assert!(dump.contains("corner "), "{dump}");

    // The run report tallies the healthy corners alongside the failure.
    let report = std::fs::read_to_string(dir.join("RUN_REPORT.json")).unwrap();
    let doc = Json::parse(&report).unwrap();
    assert!(
        doc.get("experiments").and_then(|e| e.get("FIG8")).is_some(),
        "{report}"
    );
}
