//! Campaign run report: per-experiment telemetry rollups aggregated into
//! `target/experiments/RUN_REPORT.json`.
//!
//! Only written when telemetry is enabled (`EXP_TELEMETRY=1` or
//! `SPICIER_TRACE=<path>`); a plain campaign produces no report and pays
//! nothing. The document is written with [`spicier::json`]: one entry
//! per experiment with wall time, Newton totals, the
//! recovery-ladder rung histogram, linear-kernel counters, the worst
//! certified backward error, and quarantine/timeout counts — plus a
//! `totals` rollup over the whole campaign.
//!
//! Like the manifest, the file is rewritten atomically (tmp sibling +
//! rename) after every experiment, so a killed campaign leaves a
//! complete report covering everything that ran.

use super::report::out_dir;
use spicier::json::Json;
use spicier::TelemetrySummary;
use std::path::PathBuf;

/// Schema tag stamped into the report for downstream consumers.
pub const SCHEMA: &str = "spicier-run-report-v1";

/// Telemetry rollup of one experiment in the campaign.
#[derive(Debug, Clone, Default)]
pub struct ExperimentTelemetry {
    /// Experiment name (`FIG2`, `FIG4`, ...).
    pub name: String,
    /// `"ok"` or `"failed"` — mirrors the manifest record.
    pub status: String,
    /// Wall-clock time of the experiment, seconds.
    pub wall_secs: f64,
    /// Sweep corners quarantined by solve certification.
    pub quarantined: usize,
    /// Sweep corners cancelled on their per-corner deadline.
    pub timed_out: usize,
    /// Solver-side rollup drained from the telemetry layer.
    pub summary: TelemetrySummary,
}

/// The whole-campaign report: one entry per executed experiment.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-experiment entries, in execution order.
    pub entries: Vec<ExperimentTelemetry>,
}

/// Path of the report (`target/experiments/RUN_REPORT.json`).
pub fn run_report_path() -> PathBuf {
    out_dir().join("RUN_REPORT.json")
}

fn entry_json(e: &ExperimentTelemetry) -> Json {
    let mut entry = Json::obj(vec![
        ("status", Json::str(e.status.as_str())),
        ("wall_secs", Json::num(e.wall_secs)),
    ]);
    entry.extend(e.summary.to_json());
    entry.extend(Json::obj(vec![
        ("quarantined", Json::Num(e.quarantined as f64)),
        ("timed_out", Json::Num(e.timed_out as f64)),
    ]));
    entry
}

impl RunReport {
    /// Appends one experiment's rollup.
    pub fn push(&mut self, entry: ExperimentTelemetry) {
        self.entries.push(entry);
    }

    /// Campaign-wide totals across every entry.
    #[must_use]
    pub fn totals(&self) -> ExperimentTelemetry {
        ExperimentTelemetry {
            name: "totals".to_string(),
            status: if self.entries.iter().all(|e| e.status == "ok") {
                "ok".to_string()
            } else {
                "failed".to_string()
            },
            wall_secs: self.entries.iter().map(|e| e.wall_secs).sum(),
            quarantined: self.entries.iter().map(|e| e.quarantined).sum(),
            timed_out: self.entries.iter().map(|e| e.timed_out).sum(),
            summary: TelemetrySummary::merged(self.entries.iter().map(|e| &e.summary)),
        }
    }

    /// Serializes the report as JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let experiments = self
            .entries
            .iter()
            .map(|e| (e.name.clone(), entry_json(e)))
            .collect();
        let mut out = Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("experiments", Json::Obj(experiments)),
            ("totals", entry_json(&self.totals())),
        ])
        .render();
        out.push('\n');
        out
    }

    /// Atomically writes the report to [`run_report_path`] (tmp sibling +
    /// rename), like the manifest.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self) -> std::io::Result<()> {
        crate::durable::write_atomic("report.write", &run_report_path(), self.render().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, newton: u64, bwerr: Option<f64>) -> ExperimentTelemetry {
        let mut summary = TelemetrySummary {
            analyses: 2,
            newton_iterations: newton,
            rung_iterations: vec![("newton".to_string(), newton)],
            accepted_steps: 10,
            rejected_steps: 1,
            replicated_periods: 4,
            extrapolated_periods: 3,
            worst_backward_error: bwerr,
            ..TelemetrySummary::default()
        };
        summary.lu.full_factors = 3;
        summary.lu.solves = newton as usize;
        ExperimentTelemetry {
            name: name.to_string(),
            status: "ok".to_string(),
            wall_secs: 1.5,
            quarantined: 0,
            timed_out: 1,
            summary,
        }
    }

    #[test]
    fn render_contains_required_fields() {
        let mut report = RunReport::default();
        report.push(entry("FIG2", 40, Some(1.0e-14)));
        report.push(entry("FIG5", 60, Some(2.0e-13)));
        let text = report.render();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.str_field("schema").as_deref(),
            Some("spicier-run-report-v1")
        );
        let experiments = doc.get("experiments").unwrap();
        let fig2 = experiments.get("FIG2").unwrap();
        let fig5 = experiments.get("FIG5").unwrap();
        assert!(fig2.num_field("wall_secs").is_some(), "{text}");
        assert_eq!(fig2.u64_field("newton_iterations"), Some(40));
        assert_eq!(
            fig5.get("rung_iterations"),
            Some(&Json::obj(vec![("newton", Json::Num(60.0))]))
        );
        assert_eq!(
            fig2.get("lu").and_then(|lu| lu.u64_field("full_factors")),
            Some(3)
        );
        assert_eq!(fig5.num_field("worst_backward_error"), Some(2.0e-13));
        assert_eq!(fig2.u64_field("quarantined"), Some(0));
        assert_eq!(fig2.u64_field("timed_out"), Some(1));
        assert_eq!(fig2.u64_field("replicated_periods"), Some(4));
        let totals = doc.get("totals").unwrap();
        assert_eq!(totals.u64_field("newton_iterations"), Some(100));
        assert_eq!(totals.u64_field("replicated_periods"), Some(8));
        assert_eq!(fig2.u64_field("extrapolated_periods"), Some(3));
        assert_eq!(totals.u64_field("extrapolated_periods"), Some(6));
    }

    #[test]
    fn totals_merge_worsts_and_counts() {
        let mut report = RunReport::default();
        report.push(entry("A", 10, Some(1.0e-12)));
        report.push(entry("B", 20, None));
        let totals = report.totals();
        assert_eq!(totals.summary.newton_iterations, 30);
        assert_eq!(totals.summary.analyses, 4);
        assert_eq!(totals.timed_out, 2);
        assert_eq!(totals.summary.worst_backward_error, Some(1.0e-12));
        assert_eq!(
            totals.summary.rung_iterations,
            vec![("newton".to_string(), 30)]
        );
    }

    #[test]
    fn missing_worsts_render_as_null_and_nan_as_string() {
        let mut report = RunReport::default();
        report.push(entry("A", 1, None));
        let doc = Json::parse(&report.render()).unwrap();
        let a = doc.get("experiments").and_then(|e| e.get("A")).unwrap();
        assert_eq!(a.get("worst_backward_error"), Some(&Json::Null));
        let mut report = RunReport::default();
        report.push(entry("B", 1, Some(f64::NAN)));
        let doc = Json::parse(&report.render()).unwrap();
        let b = doc.get("experiments").and_then(|e| e.get("B")).unwrap();
        assert_eq!(b.str_field("worst_backward_error").as_deref(), Some("NaN"));
    }

    #[test]
    fn save_renames_tmp_into_place() {
        let mut report = RunReport::default();
        report.push(entry("SELF_TEST", 5, Some(1.0e-15)));
        report.save().unwrap();
        let body = std::fs::read_to_string(run_report_path()).unwrap();
        assert!(body.contains("SELF_TEST"));
        assert!(!out_dir().join("RUN_REPORT.json.tmp").exists());
        // An armed `report.write` fails the save before any bytes move.
        report.push(entry("LOST", 1, None));
        let err = spicier::chaos::with_failpoints("report.write=enospc", || report.save());
        assert_eq!(err.unwrap_err().kind(), std::io::ErrorKind::StorageFull);
        assert_eq!(std::fs::read_to_string(run_report_path()).unwrap(), body);
        let _ = std::fs::remove_file(run_report_path());
    }
}
