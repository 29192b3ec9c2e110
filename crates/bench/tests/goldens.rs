//! Golden checker: the real `exp_all` campaign must reproduce every
//! committed CSV under `tests/goldens/`. `quick/` holds all of the
//! quick-scale campaign's CSVs; `full/` holds FIG8's and FIG10's at full
//! scale, whose ≥ 1 GHz corners are the ones the periodic copy and
//! extrapolation act on and quick scale never reaches.
//!
//! - The set of CSV files must match: a missing or an extra file fails.
//! - Tables need the same header and row count. Text cells must be equal;
//!   a numeric cell must lie within half a unit of the golden's last
//!   printed digit, so any change that shows in print fails.
//! - Waveform files (first column `time`) may change their time axis:
//!   each golden sample must lie within [`WAVE_TOL_V`] of the output
//!   linearly interpolated at the sample's time.
//!
//! A failure names the file, row and column, and both values.
//!
//! To regenerate the goldens after a deliberate change of results, run the
//! campaign into an empty directory and copy its CSVs over:
//!
//! ```text
//! rm -rf target/goldens
//! EXP_OUT_DIR=$PWD/target/goldens EXP_SCALE=quick cargo run --release -p cml-bench --bin exp_all
//! cp target/goldens/*.csv crates/bench/tests/goldens/quick/
//! rm -rf target/goldens
//! EXP_OUT_DIR=$PWD/target/goldens EXP_ONLY=FIG8,FIG10 cargo run --release -p cml-bench --bin exp_all
//! cp target/goldens/*.csv crates/bench/tests/goldens/full/
//! ```

use cml_bench::scrub_knobs;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Largest allowed distance of a golden waveform sample from the output.
const WAVE_TOL_V: f64 = 10.0e-6;

/// At most this many mismatches are listed in a failure message.
const MAX_REPORTED: usize = 20;

fn golden_dir(scale: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(scale)
}

/// Every CSV in `dir`, file name → contents.
fn csvs(dir: &Path) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "csv") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.insert(name, std::fs::read_to_string(&path).unwrap());
        }
    }
    out
}

fn rows(body: &str) -> Vec<Vec<&str>> {
    body.lines().map(|line| line.split(',').collect()).collect()
}

/// Half a unit of the last printed digit of `cell`, when it is a number.
fn half_unit(cell: &str) -> Option<f64> {
    let (mantissa, exponent) = match cell.find(['e', 'E']) {
        Some(k) => (&cell[..k], cell[k + 1..].parse::<i32>().ok()?),
        None => (cell, 0),
    };
    let decimals = mantissa.find('.').map_or(0, |k| mantissa.len() - k - 1) as i32;
    Some(0.5 * 10f64.powi(exponent - decimals))
}

/// Cell-by-cell comparison of a table; mismatches go to `errors`.
fn check_table(name: &str, golden: &[Vec<&str>], got: &[Vec<&str>], errors: &mut Vec<String>) {
    if golden.len() != got.len() {
        errors.push(format!(
            "{name}: {} rows, golden has {}",
            got.len(),
            golden.len()
        ));
        return;
    }
    let header = &golden[0];
    for (r, (want_row, got_row)) in golden.iter().zip(got).enumerate() {
        if want_row.len() != got_row.len() {
            errors.push(format!(
                "{name} row {r}: {} cells, golden has {}",
                got_row.len(),
                want_row.len()
            ));
            continue;
        }
        for (c, (want, have)) in want_row.iter().zip(got_row).enumerate() {
            let numbers = (want.parse::<f64>(), have.parse::<f64>(), half_unit(want));
            let same = match numbers {
                (Ok(w), Ok(h), Some(half)) if r > 0 => (w - h).abs() <= half * (1.0 + 1e-9),
                _ => want == have,
            };
            if !same {
                let column = header.get(c).copied().unwrap_or("?");
                errors.push(format!(
                    "{name} row {r} column {column}: got {have}, golden {want}"
                ));
            }
        }
    }
}

/// The numeric rows of a waveform table, header excluded.
fn numeric(name: &str, table: &[Vec<&str>]) -> Vec<Vec<f64>> {
    table[1..]
        .iter()
        .enumerate()
        .map(|(r, row)| {
            row.iter()
                .map(|cell| {
                    cell.parse()
                        .unwrap_or_else(|_| panic!("{name} row {}: non-numeric {cell}", r + 1))
                })
                .collect()
        })
        .collect()
}

/// Every golden sample against the output interpolated at its time.
fn check_waveform(name: &str, golden: &[Vec<&str>], got: &[Vec<&str>], errors: &mut Vec<String>) {
    if golden[0] != got[0] {
        errors.push(format!(
            "{name} header: got {:?}, golden {:?}",
            got[0], golden[0]
        ));
        return;
    }
    let (want, have) = (numeric(name, golden), numeric(name, got));
    for (r, sample) in want.iter().enumerate() {
        let t = sample[0];
        // First output sample at or after t.
        let k = have.partition_point(|row| row[0] < t);
        let (lo, hi) = match (k.checked_sub(1), have.get(k)) {
            (_, Some(hi)) if hi[0] == t => (hi, hi),
            (Some(lo), Some(hi)) => (&have[lo], hi),
            _ => {
                errors.push(format!(
                    "{name} row {}: time {t:e} outside the output's time axis",
                    r + 1
                ));
                continue;
            }
        };
        let w = if hi[0] > lo[0] {
            (t - lo[0]) / (hi[0] - lo[0])
        } else {
            0.0
        };
        for c in 1..sample.len() {
            let v = lo[c] + w * (hi[c] - lo[c]);
            if (v - sample[c]).abs() > WAVE_TOL_V {
                errors.push(format!(
                    "{name} row {} column {} (t = {t:e}): got {v:e}, golden {:e}",
                    r + 1,
                    golden[0][c],
                    sample[c]
                ));
            }
        }
    }
}

/// Runs `exp_all` with `knobs` into a fresh directory and checks every
/// CSV it writes against `tests/goldens/<scale>/`.
fn campaign_matches_the_goldens(scale: &str, knobs: &[(&str, &str)]) {
    let out = std::env::temp_dir().join("exp_goldens_tests").join(scale);
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp_all"));
    let run = scrub_knobs(&mut cmd)
        .env("EXP_OUT_DIR", &out)
        .envs(knobs.iter().copied())
        .output()
        .expect("exp_all spawns");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stdout)
    );

    let dir = golden_dir(scale);
    let golden = csvs(&dir);
    let got = csvs(&out);
    assert!(!golden.is_empty(), "no goldens under {dir:?}");
    let mut errors = Vec::new();
    for name in golden.keys().filter(|n| !got.contains_key(*n)) {
        errors.push(format!("{name}: golden file not produced"));
    }
    for name in got.keys().filter(|n| !golden.contains_key(*n)) {
        errors.push(format!("{name}: produced but has no golden"));
    }
    for (name, want) in &golden {
        let Some(have) = got.get(name) else { continue };
        let (want, have) = (rows(want), rows(have));
        if want.is_empty() || have.is_empty() {
            if want.len() != have.len() {
                errors.push(format!("{name}: one of output and golden is empty"));
            }
        } else if want[0].first() == Some(&"time") {
            check_waveform(name, &want, &have, &mut errors);
        } else {
            check_table(name, &want, &have, &mut errors);
        }
    }
    assert!(
        errors.is_empty(),
        "{} mismatch(es) against the goldens:\n{}",
        errors.len(),
        errors
            .iter()
            .take(MAX_REPORTED)
            .cloned()
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn quick_campaign_matches_the_goldens() {
    campaign_matches_the_goldens("quick", &[("EXP_SCALE", "quick")]);
}

#[test]
fn full_scale_fig8_and_fig10_match_the_goldens() {
    campaign_matches_the_goldens("full", &[("EXP_ONLY", "FIG8,FIG10")]);
}

#[test]
fn half_unit_follows_the_printed_precision() {
    assert_eq!(half_unit("1000"), Some(0.5));
    assert!((half_unit("2.524").unwrap() - 0.0005).abs() < 1e-15);
    assert!((half_unit("3.050000e0").unwrap() - 0.5e-6).abs() < 1e-18);
    assert!((half_unit("1.5e-11").unwrap() - 0.5e-12).abs() < 1e-25);
}

#[test]
fn a_change_that_shows_in_print_is_caught() {
    let golden = rows("f,v,status\n100,2.524,ok\n");
    let mut errors = Vec::new();
    check_table(
        "t.csv",
        &golden,
        &rows("f,v,status\n100,2.5240,ok\n"),
        &mut errors,
    );
    assert!(errors.is_empty(), "{errors:?}");
    check_table(
        "t.csv",
        &golden,
        &rows("f,v,status\n100,2.525,ok\n"),
        &mut errors,
    );
    check_table(
        "t.csv",
        &golden,
        &rows("f,v,status\n100,2.524,FAILED\n"),
        &mut errors,
    );
    assert_eq!(errors.len(), 2, "{errors:?}");
    assert!(errors[0].contains("row 1 column v: got 2.525, golden 2.524"));

    let golden = rows("time,v\n0,1.0\n1e-9,2.0\n");
    let mut errors = Vec::new();
    let denser = rows("time,v\n0,1.0\n5e-10,1.5\n1e-9,2.0\n");
    check_waveform("w.csv", &golden, &denser, &mut errors);
    assert!(errors.is_empty(), "{errors:?}");
    check_waveform(
        "w.csv",
        &golden,
        &rows("time,v\n0,1.0\n1e-9,2.0001\n"),
        &mut errors,
    );
    check_waveform("w.csv", &golden, &rows("time,v\n0,1.0\n"), &mut errors);
    assert_eq!(errors.len(), 2, "{errors:?}");
}
