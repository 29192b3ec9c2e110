//! Knob and failpoint inventory: every environment knob the program
//! reads must be removed by `cml_bench::scrub_knobs`, documented in
//! EXPERIMENTS.md, and set by some test, CI step or load-harness phase;
//! every failpoint site it checks must be in `spicier::chaos::SITES`,
//! documented in EXPERIMENTS.md, and armed by some test, CI step or
//! load-harness phase. A knob nothing sets, or a site nothing arms, is a
//! configuration nobody runs; adding one means extending its list, the
//! docs, and a test that exercises it.

use cml_bench::KNOB_PREFIXES;
use spicier::chaos::SITES;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Every knob name the workspace reads, sorted.
const KNOBS: [&str; 23] = [
    "BENCH_QUICK",
    "EXP_CORNER_DEADLINE_MS",
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

/// `text` split at its test module (a `#[cfg(test)]` that starts a
/// line): the program part, and the test part if there is one.
fn split_tests(text: &str) -> (&str, Option<&str>) {
    match text.find("\n#[cfg(test)]") {
        Some(i) => (&text[..i], Some(&text[i..])),
        None => (text, None),
    }
}

/// Knob-shaped string literals in the non-test part of `text`: an
/// upper-case name with an inner underscore, such as `"SERVE_WORKERS"`
/// but not the prefix `"SERVE_"`, in any family, so a knob outside
/// [`KNOB_PREFIXES`] is caught too. Test modules ([`split_tests`]) and
/// compile-time `env!` reads are skipped.
fn knob_literals(text: &str, out: &mut BTreeSet<String>) {
    let text = split_tests(text).0;
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

/// The integration tests other than this file, and the load harness:
/// the Rust sources that set knobs for the processes they spawn.
fn rust_setters() -> Vec<String> {
    let this_file = Path::new(file!()).file_name().unwrap();
    let mut setters = Vec::new();
    for dir in crate_dirs("tests") {
        rust_files(&dir, &mut setters);
    }
    setters.retain(|p| p.file_name() != Some(this_file));
    setters.push(root().join("crates/bench/src/server/loadgen.rs"));
    setters.iter().map(|p| read(p)).collect()
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
    let rust_setters = rust_setters();
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

/// Failpoint sites checked in the non-test part of `text`: the string
/// literal opening a `failpoint(`, `io_failpoint(`, `fault(` or
/// `write_atomic(` call.
fn checked_sites(text: &str, out: &mut BTreeSet<String>) {
    let text = split_tests(text).0;
    for call in ["failpoint(", "fault(", "write_atomic("] {
        for (i, _) in text.match_indices(call) {
            let args = text[i + call.len()..].trim_start();
            if let Some(rest) = args.strip_prefix('"') {
                let end = rest.find('"').unwrap_or(0);
                out.insert(rest[..end].to_string());
            }
        }
    }
}

/// Whether `text` arms `site` in a spec: the site name as a whole entry
/// head, followed by `=`, `@`, `;`, a quote, a space or a line end.
fn arms(text: &str, site: &str) -> bool {
    text.match_indices(site).any(|(i, _)| {
        let before = text[..i].chars().next_back();
        let after = text[i + site.len()..].chars().next();
        !before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            && after.is_none_or(|c| "=@;\"'\n ".contains(c))
    })
}

#[test]
fn every_failpoint_site_is_listed_documented_and_armed() {
    let mut sources = Vec::new();
    for dir in crate_dirs("src") {
        rust_files(&dir, &mut sources);
    }
    let mut checked = BTreeSet::new();
    for path in &sources {
        checked_sites(&read(path), &mut checked);
    }
    let listed: BTreeSet<String> = SITES.iter().map(|(s, _)| (*s).to_string()).collect();
    assert_eq!(
        checked, listed,
        "the failpoint sites checked under crates/*/src differ from spicier::chaos::SITES"
    );

    // Where a site may be armed: an integration test, the load harness,
    // a unit test module under crates/*/src (other than the registry's
    // own grammar tests), or a CI step's `SPICIER_FAILPOINTS`.
    let mut armers = rust_setters();
    for path in &sources {
        if path.ends_with("spicier/src/chaos.rs") {
            continue;
        }
        if let Some(tests) = split_tests(&read(path)).1 {
            armers.push(tests.to_string());
        }
    }
    let ci = read(&root().join(".github/workflows/ci.yml"));
    armers.extend(
        ci.lines()
            .filter(|line| line.contains("SPICIER_FAILPOINTS="))
            .map(str::to_string),
    );
    let experiments = read(&root().join("EXPERIMENTS.md"));

    let mut problems = Vec::new();
    for (site, _) in SITES {
        if !experiments.contains(&format!("`{site}`")) {
            problems.push(format!("{site}: not documented in EXPERIMENTS.md"));
        }
        if !armers.iter().any(|text| arms(text, site)) {
            problems.push(format!(
                "{site}: armed by no test, CI step or loadgen phase"
            ));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
