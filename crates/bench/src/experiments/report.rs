//! Table printing and CSV output shared by all experiments.
//!
//! All output here is best-effort: a read-only filesystem or full disk
//! degrades to a printed warning, never a panic — losing a CSV must not
//! lose the sweep that produced it.

use spicier::analysis::sweep::{SweepFailure, SweepReport};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Quarantined corners seen by [`report_sweep`] since the last
/// [`take_quarantined`] call. The campaign driver drains this after each
/// experiment to stamp the count into the manifest record.
static QUARANTINED: AtomicUsize = AtomicUsize::new(0);

/// Drains and returns the quarantined-corner tally accumulated by
/// [`report_sweep`] since the previous call.
pub fn take_quarantined() -> usize {
    QUARANTINED.swap(0, Ordering::Relaxed)
}

/// Timed-out corners ([`SweepFailure::TimedOut`]) seen by [`report_sweep`]
/// since the last [`take_timed_out`] call; feeds `RUN_REPORT.json`.
static TIMED_OUT: AtomicUsize = AtomicUsize::new(0);

/// Drains and returns the timed-out-corner tally accumulated by
/// [`report_sweep`] since the previous call.
pub fn take_timed_out() -> usize {
    TIMED_OUT.swap(0, Ordering::Relaxed)
}

/// Directory experiment CSVs are written to (`target/experiments/`, or
/// `EXP_OUT_DIR` when set — the campaign kill/resume drills sandbox their
/// artifacts this way). Falls back to the system temp directory when it
/// cannot be created.
pub fn out_dir() -> PathBuf {
    let dir = match std::env::var("EXP_OUT_DIR") {
        Ok(v) if !v.is_empty() => PathBuf::from(v),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments"),
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        let fallback = std::env::temp_dir().join("experiments");
        eprintln!(
            "  [warn] cannot create {}: {e}; falling back to {}",
            dir.display(),
            fallback.display()
        );
        let _ = std::fs::create_dir_all(&fallback);
        return fallback;
    }
    dir
}

/// Prints a titled, column-aligned table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate() {
            if k < widths.len() {
                widths[k] = widths[k].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (k, cell) in cells.iter().enumerate() {
            out.push_str(&format!(
                "{cell:>width$}  ",
                width = widths[k.min(widths.len() - 1)]
            ));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Writes generic rows as CSV into `target/experiments/<name>.csv`.
/// IO failures are reported as warnings, not panics.
///
/// The write is crash-safe: content goes to `<name>.csv.tmp` and is
/// atomically renamed into place, so a process killed mid-write (see
/// `CHAOS_KILL_MID_WRITE`) can leave a stale or missing CSV behind, but
/// never a truncated one.
pub fn write_rows_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let path = out_dir().join(format!("{name}.csv"));
    let tmp = out_dir().join(format!("{name}.csv.tmp"));
    let write = || -> std::io::Result<()> {
        spicier::chaos::io_failpoint("csv.write")?;
        let mut f = std::fs::File::create(&tmp)?;
        writeln!(f, "{}", headers.join(","))?;
        for row in rows {
            writeln!(f, "{}", row.join(","))?;
        }
        f.sync_all()?;
        drop(f);
        chaos_kill_mid_write(name);
        std::fs::rename(&tmp, &path)?;
        crate::durable::fsync_parent(&path)
    };
    match write() {
        Ok(()) => println!("  [csv] {}", path.display()),
        Err(e) => eprintln!("  [warn] could not write {}: {e}", path.display()),
    }
}

/// Chaos hook for the crash-safety drills: when `CHAOS_KILL_MID_WRITE` is
/// set to `1` (any CSV) or to a CSV base name, the process dies between
/// writing the `.tmp` sibling and the rename — the worst possible moment
/// for a non-atomic writer. The final CSV must still be either absent or
/// the previous complete version, never truncated.
fn chaos_kill_mid_write(name: &str) {
    if let Ok(v) = std::env::var("CHAOS_KILL_MID_WRITE") {
        if !v.is_empty() && v != "0" && (v == "1" || v == name) {
            eprintln!("  [chaos] CHAOS_KILL_MID_WRITE: dying before renaming {name}.csv.tmp");
            std::process::exit(137);
        }
    }
}

/// Records a sweep's failed corners as `<name>_failures.csv` and prints
/// the one-line summary. `labels` names each corner by input index (same
/// order as the sweep's item list). No file is written when every corner
/// succeeded.
///
/// Corners quarantined by solution certification are flagged in their own
/// CSV column and tallied into the campaign-level counter drained by
/// [`take_quarantined`].
pub fn report_sweep(name: &str, report: &SweepReport, labels: &[String]) {
    println!("  [sweep] {}", report.summary());
    QUARANTINED.fetch_add(report.quarantined(), Ordering::Relaxed);
    let timed_out = report
        .failures
        .iter()
        .filter(|f| matches!(f.failure, SweepFailure::TimedOut { .. }))
        .count();
    TIMED_OUT.fetch_add(timed_out, Ordering::Relaxed);
    if report.all_ok() {
        return;
    }
    let rows: Vec<Vec<String>> = report
        .failures
        .iter()
        .map(|fail| {
            let quarantined = matches!(fail.failure, SweepFailure::Untrusted { .. });
            vec![
                fail.index.to_string(),
                labels
                    .get(fail.index)
                    .cloned()
                    .unwrap_or_else(|| "?".to_string()),
                if quarantined { "yes" } else { "no" }.to_string(),
                // Commas would break the CSV row.
                fail.failure.to_string().replace(',', ";"),
            ]
        })
        .collect();
    write_rows_csv(
        &format!("{name}_failures"),
        &["corner_index", "corner", "quarantined", "failure"],
        &rows,
    );
    for fail in &report.failures {
        let label = labels.get(fail.index).map(String::as_str).unwrap_or("?");
        eprintln!("  [warn] corner {label}: {}", fail.failure);
    }
}

/// Formats seconds as picoseconds with one decimal.
pub fn ps(seconds: f64) -> String {
    format!("{:.1}", seconds * 1e12)
}

/// Formats seconds as nanoseconds with two decimals.
pub fn ns(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e9)
}

/// Formats volts with three decimals.
pub fn v(volts: f64) -> String {
    format!("{volts:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(ps(53.0e-12), "53.0");
        assert_eq!(ns(25.5e-9), "25.50");
        assert_eq!(v(3.305), "3.305");
    }

    #[test]
    fn out_dir_exists() {
        assert!(out_dir().is_dir());
    }

    #[test]
    fn write_rows_csv_renames_tmp_into_place() {
        write_rows_csv(
            "report_atomic_test",
            &["a", "b"],
            &[vec!["1".into(), "2".into()]],
        );
        let path = out_dir().join("report_atomic_test.csv");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        assert!(!out_dir().join("report_atomic_test.csv.tmp").exists());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn report_sweep_writes_failure_rows() {
        use spicier::analysis::sweep::{CornerFailure, SweepFailure};
        let report = SweepReport {
            total: 2,
            succeeded: 1,
            failures: vec![CornerFailure {
                index: 1,
                failure: SweepFailure::Panicked("boom, with comma".to_string()),
            }],
            elapsed: std::time::Duration::from_millis(10),
        };
        report_sweep("report_test", &report, &["a".to_string(), "b".to_string()]);
        let path = out_dir().join("report_test_failures.csv");
        let body = std::fs::read_to_string(&path).expect("failures csv written");
        assert!(body.contains("corner_index"));
        assert!(body.contains("quarantined"), "{body}");
        assert!(body.contains("1,b,no,"), "{body}");
        assert!(body.contains("boom; with comma"), "{body}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn report_sweep_flags_quarantined_corners_and_tallies_them() {
        use spicier::analysis::sweep::{CornerFailure, SweepFailure};
        let report = SweepReport {
            total: 3,
            succeeded: 2,
            failures: vec![CornerFailure {
                index: 2,
                failure: SweepFailure::Untrusted {
                    error: spicier::Error::UntrustedSolution {
                        backward_error: 1.0e-3,
                        tolerance: 1.0e-8,
                        refinement_steps: 1,
                        cond_estimate: 1.0e16,
                    },
                },
            }],
            elapsed: std::time::Duration::from_millis(10),
        };
        take_quarantined(); // drain leftovers from other tests
        report_sweep(
            "report_quarantine_test",
            &report,
            &["a".into(), "b".into(), "c".into()],
        );
        assert_eq!(take_quarantined(), 1);
        let path = out_dir().join("report_quarantine_test_failures.csv");
        let body = std::fs::read_to_string(&path).expect("failures csv written");
        assert!(body.contains("2,c,yes,quarantined:"), "{body}");
        let _ = std::fs::remove_file(path);
    }
}
