//! Knob inventory: every environment knob the program reads must be
//! removed by `cml_bench::scrub_knobs`, documented in EXPERIMENTS.md, and
//! set by some test, CI step or load-harness phase. A knob nothing sets
//! is a configuration nobody runs; adding one means extending the list
//! below, the docs, and a test that exercises it.

use cml_bench::KNOB_PREFIXES;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Every knob name the workspace reads, sorted.
const KNOBS: [&str; 28] = [
    "BENCH_QUICK",
    "CHAOS_KILL_AFTER_EXPERIMENTS",
    "CHAOS_KILL_MID_WRITE",
    "CHAOS_PERTURB_LU",
    "EXP_CORNER_DEADLINE_MS",
    "EXP_INJECT_BAD_CORNER",
    "EXP_INJECT_HANG_CORNER",
    "EXP_ONLY",
    "EXP_OUT_DIR",
    "EXP_SCALE",
    "EXP_TELEMETRY",
    "LOADGEN_DIR",
    "LOADGEN_OUT",
    "SERVE_ACCESS_LOG",
    "SERVE_ADDR",
    "SERVE_BIN",
    "SERVE_JOURNAL_POLICY",
    "SERVE_QUEUE_BATCH",
    "SERVE_READ_TIMEOUT_MS",
    "SERVE_SLOW_CORNER_MS",
    "SERVE_STATE_DIR",
    "SERVE_WATCH_KEEPALIVE_MS",
    "SERVE_WATCH_LAG_BUDGET",
    "SERVE_WATCH_SNDBUF",
    "SERVE_WATCH_WRITE_TIMEOUT_MS",
    "SERVE_WORKERS",
    "SPICIER_FAILPOINTS",
    "SPICIER_TRACE",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `crates/<each crate>/<sub>`, for every crate.
fn crate_dirs(sub: &str) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path().join(sub))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// Knob-shaped string literals in the non-test part of `text`: an
/// upper-case name with an inner underscore, such as `"SERVE_WORKERS"`
/// but not the prefix `"SERVE_"`, in any family, so a knob outside [`KNOB_PREFIXES`] is caught too. Test
/// modules (from `#[cfg(test)]` on) and compile-time `env!` reads are
/// skipped.
fn knob_literals(text: &str, out: &mut BTreeSet<String>) {
    let text = text.split("#[cfg(test)]").next().unwrap_or_default();
    let bytes = text.as_bytes();
    for (i, _) in text.match_indices('"') {
        let start = i + 1;
        let len = bytes[start..]
            .iter()
            .take_while(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || **b == b'_')
            .count();
        let name = &text[start..start + len];
        if bytes.get(start + len) == Some(&b'"')
            && name.starts_with(|c: char| c.is_ascii_uppercase())
            && name.trim_end_matches('_').contains('_')
            && !text[..i].ends_with("env!(")
        {
            out.insert(name.to_string());
        }
    }
}

#[test]
fn every_knob_is_scrubbed_documented_and_set() {
    let mut sources = Vec::new();
    for dir in crate_dirs("src") {
        rust_files(&dir, &mut sources);
    }
    let mut read_names = BTreeSet::new();
    for path in &sources {
        knob_literals(&read(path), &mut read_names);
    }
    let expected: BTreeSet<String> = KNOBS.iter().map(|k| (*k).to_string()).collect();
    assert_eq!(
        read_names, expected,
        "the knobs read under crates/*/src changed; a new knob needs a caller that sets it"
    );

    // Where a knob may be set: a test (other than this one) passing it
    // to a child process, a CI step, or a loadgen phase's env list.
    let this_file = Path::new(file!()).file_name().unwrap();
    let mut setters = Vec::new();
    for dir in crate_dirs("tests") {
        rust_files(&dir, &mut setters);
    }
    setters.retain(|p| p.file_name() != Some(this_file));
    setters.push(root().join("crates/bench/src/server/loadgen.rs"));
    let rust_setters: Vec<String> = setters.iter().map(|p| read(p)).collect();
    let ci = read(&root().join(".github/workflows/ci.yml"));
    let experiments = read(&root().join("EXPERIMENTS.md"));

    let mut problems = Vec::new();
    for knob in KNOBS {
        if !KNOB_PREFIXES.iter().any(|p| knob.starts_with(p)) {
            problems.push(format!("{knob}: no prefix scrub_knobs removes"));
        }
        if !experiments.contains(knob) {
            problems.push(format!("{knob}: not documented in EXPERIMENTS.md"));
        }
        let in_rust = rust_setters
            .iter()
            .any(|text| text.contains(&format!("(\"{knob}\",")));
        if !in_rust && !ci.contains(&format!("{knob}=")) {
            problems.push(format!("{knob}: set by no test, CI step or loadgen phase"));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
