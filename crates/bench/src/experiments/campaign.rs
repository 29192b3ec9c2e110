//! Shareable campaign driver: the engine behind `exp_all`, factored out
//! of the binary so the campaign server (and tests) can run the same
//! manifest-tracked, resumable, chaos-drillable experiment loop without
//! spawning a process.
//!
//! Resilience contract: individual sweep corners that fail are handled
//! *inside* their experiments (annotated CSV gaps + `*_failures.csv`
//! companions) and do not fail the campaign; only an experiment that
//! cannot produce its artifact at all counts as a failure here.
//!
//! Campaign machinery:
//! * every experiment's outcome is recorded in
//!   `target/experiments/MANIFEST.json` (atomically rewritten after each
//!   one), with an input hash covering the scale and chaos knobs;
//! * `resume` skips experiments the manifest shows as complete under the
//!   same inputs, so a killed run restarts where it stopped and its final
//!   artifacts are identical to an uninterrupted run;
//! * sweep corners quarantined by residual certification
//!   (`UntrustedSolution`) are counted into the manifest entry, which
//!   then never satisfies the resume skip test — quarantined work is
//!   always redone;
//! * `EXP_ONLY=FIG2,FIG4` restricts the run to a comma-separated subset;
//!   an unknown name, like an unknown `EXP_SCALE`, is rejected before
//!   anything runs;
//! * `CHAOS_KILL_AFTER_EXPERIMENTS=N` kills the process (exit 137) after
//!   `N` experiments have executed — the kill/resume drill. A value that
//!   is not a count is rejected before anything runs, as is an
//!   `EXP_CORNER_DEADLINE_MS` that is not a number of milliseconds.

use super::manifest::{input_hash, ExperimentRecord, Manifest};
use super::run_report::{ExperimentTelemetry, RunReport};
use crate::{experiments as exp, Scale};
use spicier::telemetry;

/// One experiment entry point, as registered in [`standard_experiments`].
pub type ExperimentFn = fn(Scale) -> Result<(), spicier::Error>;

/// Every paper artifact, in canonical campaign order. `FIG4` produces
/// Figure 4, Table 1 and Table 2 from one simulation.
#[must_use]
pub fn standard_experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("FIG2", exp::fig2::execute as ExperimentFn),
        ("FIG4", exp::fig4::execute),
        ("FIG5", exp::fig5::execute),
        ("FIG7", exp::fig7::execute),
        ("FIG8", exp::fig8::execute),
        ("FIG10", exp::fig10::execute),
        ("FIG12", exp::fig12::execute),
        ("FIG14", exp::fig14::execute),
        ("THRESH", exp::thresholds::execute),
        ("TOGGLE", exp::toggle::execute),
        ("ABLATE", exp::ablations::execute),
        ("ACCHAR", exp::acchar::execute),
        ("ROBUST", exp::robust::execute),
        ("STUCKAT", exp::stuckat::execute),
        ("POWER", exp::power::execute),
    ]
}

/// Knobs for one campaign run.
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Grid scale for every experiment.
    pub scale: Scale,
    /// Keep the existing manifest and skip experiments it proves complete.
    pub resume: bool,
    /// Restrict the run to these experiment names (`None` = all).
    pub only: Option<Vec<String>>,
    /// Chaos: die with exit 137 after this many executed experiments.
    pub kill_after: Option<usize>,
}

impl CampaignOptions {
    /// The binary's configuration surface: `EXP_SCALE`, `--resume`,
    /// `EXP_ONLY`, `CHAOS_KILL_AFTER_EXPERIMENTS`, and the check of
    /// `EXP_CORNER_DEADLINE_MS`.
    ///
    /// # Errors
    ///
    /// An `EXP_SCALE` other than `quick` or `full` (any case), an
    /// `EXP_ONLY` name that is not in [`standard_experiments`], a
    /// `CHAOS_KILL_AFTER_EXPERIMENTS` that is not a count, or an
    /// `EXP_CORNER_DEADLINE_MS` that is not a number of milliseconds: a
    /// campaign that would silently run the wrong scale, nothing at all,
    /// without the kill it was asked for, or without its deadline.
    pub fn from_env_and_args() -> Result<Self, String> {
        // Read by each pooled experiment; checked here so that a malformed
        // value stops the campaign instead of running it unbounded.
        super::common::parse_corner_deadline(
            std::env::var("EXP_CORNER_DEADLINE_MS").ok().as_deref(),
        )?;
        Ok(Self {
            scale: Scale::from_env()?,
            resume: std::env::args().any(|a| a == "--resume"),
            only: parse_only(std::env::var("EXP_ONLY").ok().as_deref())?,
            kill_after: parse_kill_after(
                std::env::var("CHAOS_KILL_AFTER_EXPERIMENTS")
                    .ok()
                    .as_deref(),
            )?,
        })
    }
}

/// Parses `CHAOS_KILL_AFTER_EXPERIMENTS`: a non-negative count of
/// experiments. Unset or empty disables the kill.
fn parse_kill_after(value: Option<&str>) -> Result<Option<usize>, String> {
    match value.map(str::trim) {
        None | Some("") => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("CHAOS_KILL_AFTER_EXPERIMENTS={v} is not a count of experiments")),
    }
}

/// Parses `EXP_ONLY`: comma-separated, case-insensitive experiment
/// names, each of which must be in [`standard_experiments`]. Unset or
/// empty selects every experiment.
fn parse_only(value: Option<&str>) -> Result<Option<Vec<String>>, String> {
    let names: Vec<String> = value
        .unwrap_or_default()
        .split(',')
        .map(|s| s.trim().to_ascii_uppercase())
        .filter(|s| !s.is_empty())
        .collect();
    let known: Vec<&str> = standard_experiments().iter().map(|(n, _)| *n).collect();
    if let Some(bad) = names.iter().find(|n| !known.contains(&n.as_str())) {
        return Err(format!(
            "EXP_ONLY names unknown experiment {bad}; valid names: {}",
            known.join(", ")
        ));
    }
    Ok((!names.is_empty()).then_some(names))
}

/// Outcome of a campaign run.
#[derive(Debug, Clone, Default)]
#[must_use]
pub struct CampaignSummary {
    /// Experiments the filter selected.
    pub attempted: usize,
    /// Experiments actually executed this run.
    pub executed: usize,
    /// Experiments skipped because the manifest proved them complete.
    pub skipped: usize,
    /// Total corners quarantined by solve certification across the run.
    pub quarantined_total: usize,
    /// Experiments that could not produce their artifact, with the error.
    pub failed: Vec<(String, String)>,
    /// Wall-clock time of the whole campaign, seconds.
    pub wall_secs: f64,
}

impl CampaignSummary {
    /// Whether every selected experiment produced its artifact.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Runs the campaign over `steps`, with full manifest/resume/telemetry
/// bookkeeping. Prints the same per-experiment progress lines `exp_all`
/// always has; the caller owns the final summary rendering (or uses
/// [`print_summary`]).
pub fn run_campaign(opts: &CampaignOptions, steps: &[(&str, ExperimentFn)]) -> CampaignSummary {
    let t0 = std::time::Instant::now();
    // Telemetry (EXP_TELEMETRY=1 or SPICIER_TRACE=<path>): point failure
    // dumps at the campaign output directory unless the operator chose an
    // explicit path, and aggregate per-experiment rollups into
    // RUN_REPORT.json. With telemetry off, neither file is touched.
    let telemetry_on = telemetry::enabled();
    if telemetry_on {
        telemetry::set_fallback_dump_path(exp::report::out_dir().join("FLIGHT_RECORDER.jsonl"));
    }
    let mut run_report = RunReport::default();
    // A fresh campaign starts from an empty manifest; resume keeps the
    // previous one and skips whatever it proves complete.
    let mut manifest = if opts.resume {
        Manifest::load()
    } else {
        Manifest::default()
    };
    let mut summary = CampaignSummary::default();
    for &(name, f) in steps {
        if let Some(names) = &opts.only {
            if !names.iter().any(|n| n == name) {
                continue;
            }
        }
        summary.attempted += 1;
        let hash = input_hash(name, opts.scale);
        if opts.resume && manifest.is_complete(name, &hash) {
            println!("[{name}] complete in manifest: skipped (resume)");
            summary.skipped += 1;
            continue;
        }
        let t = std::time::Instant::now();
        exp::report::take_quarantined(); // drain stale tallies from prior experiment
        exp::report::take_timed_out();
        telemetry::take_global_summary();
        let record = match f(opts.scale) {
            Ok(()) => {
                let secs = t.elapsed().as_secs_f64();
                println!("[{name}] done in {secs:.1} s");
                ExperimentRecord::ok(hash, secs)
            }
            Err(e) => {
                let secs = t.elapsed().as_secs_f64();
                eprintln!("[{name}] FAILED: {e}");
                summary.failed.push((name.to_string(), e.to_string()));
                ExperimentRecord::failed(hash, secs, e.to_string())
            }
        };
        let quarantined = exp::report::take_quarantined();
        if quarantined > 0 {
            summary.quarantined_total += quarantined;
            eprintln!(
                "[{name}] {quarantined} corner(s) quarantined by solve certification; \
                 experiment will rerun on --resume"
            );
        }
        if telemetry_on {
            run_report.push(ExperimentTelemetry {
                name: name.to_string(),
                status: record.status.clone(),
                wall_secs: record.wall_secs,
                quarantined,
                timed_out: exp::report::take_timed_out(),
                summary: telemetry::take_global_summary(),
            });
            // Rewritten atomically after every experiment, so a killed
            // campaign still leaves a complete report of what ran.
            if let Err(e) = run_report.save() {
                eprintln!("  [warn] could not write run report: {e}");
            }
        }
        manifest.record(name, record.with_quarantined(quarantined));
        if let Err(e) = manifest.save() {
            eprintln!("  [warn] could not write manifest: {e}");
        }
        summary.executed += 1;
        if opts.kill_after == Some(summary.executed) {
            eprintln!(
                "[chaos] CHAOS_KILL_AFTER_EXPERIMENTS={}: dying mid-campaign",
                summary.executed
            );
            std::process::exit(137);
        }
    }
    summary.wall_secs = t0.elapsed().as_secs_f64();
    summary
}

/// Renders the classic `exp_all` end-of-run summary block.
pub fn print_summary(summary: &CampaignSummary) {
    println!(
        "\n== run summary: {}/{} experiments ok in {:.1} s ({} run, {} resumed) ==",
        summary.attempted - summary.failed.len(),
        summary.attempted,
        summary.wall_secs,
        summary.executed,
        summary.skipped
    );
    if telemetry::enabled() && summary.executed > 0 {
        println!(
            "  [telemetry] run report: {}",
            exp::run_report::run_report_path().display()
        );
    }
    if summary.quarantined_total > 0 {
        println!(
            "  {} sweep corner(s) quarantined by solve certification \
             (rerun with --resume to redo them)",
            summary.quarantined_total
        );
    }
    for (name, err) in &summary.failed {
        println!("  FAILED {name}: {err}");
    }
    if summary.failed.is_empty() {
        println!("  all experiments produced their artifacts");
        println!("  (per-corner sweep failures, if any, are in target/experiments/*_failures.csv)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_experiments_are_unique_and_complete() {
        let steps = standard_experiments();
        assert_eq!(steps.len(), 15);
        let mut names: Vec<&str> = steps.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15, "duplicate experiment name");
    }

    #[test]
    fn only_accepts_known_names_in_any_case() {
        assert_eq!(parse_only(None), Ok(None));
        assert_eq!(parse_only(Some(" , ")), Ok(None));
        assert_eq!(
            parse_only(Some("fig2, Fig4")),
            Ok(Some(vec!["FIG2".to_string(), "FIG4".to_string()]))
        );
        let err = parse_only(Some("FIG4,TABLE1")).unwrap_err();
        assert!(
            err.contains("TABLE1") && err.contains("FIG2, FIG4, FIG5"),
            "{err}"
        );
    }

    #[test]
    fn empty_step_list_is_a_clean_noop() {
        let summary = run_campaign(&CampaignOptions::default(), &[]);
        assert!(summary.all_ok());
        assert_eq!(summary.attempted, 0);
        assert_eq!(summary.executed, 0);
    }
}
