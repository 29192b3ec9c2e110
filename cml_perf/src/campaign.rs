//! `campaign`: the paper end to end — every experiment of
//! `standard_experiments()` at full scale through `run_campaign`,
//! one experiment per call so each is timed on its own. Sweep workers are
//! the program's own (`available_parallelism`). The paper grid is fixed,
//! so the seed selects nothing here.
//!
//! About four fifths of a pass is transient detector settling (FIG8 and
//! FIG10) on circuits of at most 80 unknowns, so transient and
//! dense-kernel changes show here, and DC-at-scale changes barely do.

use crate::calib::{self, Clock, Interval, Mark, Model, Sampler};
use crate::counts::Counts;
use crate::report::{self, EndToEnd, Json, Outcome};
use crate::rounds::repeated_setup;
use crate::{circuits, probe, trace, Config, OUT_DIR};
use cml_bench::experiments::campaign::{
    run_campaign, standard_experiments, CampaignOptions, ExperimentFn,
};
use cml_bench::experiments::report::take_timed_out;
use cml_bench::experiments::run_report::run_report_path;
use cml_bench::Scale;
use spicier::analysis::dc::{operating_point, DcOptions};
use spicier::linalg::LuStats;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Experiments the per-layer breakdown names; the rest are summed.
const NAMED: [&str; 7] = [
    "FIG8", "FIG10", "FIG5", "THRESH", "ABLATE", "FIG14", "ROBUST",
];
/// Set-ups per run: each is a 0.6 s quick-scale pass.
const SETUPS: usize = 5;
/// Full-scale passes per second of `--seconds`: one per 20 s. A pass
/// takes 8–12 s on the reference host, and a traced run adds an untraced
/// reference pass, so either run of `--seconds 20` stays within 30 s.
const PASSES_PER_SECOND: f64 = 0.05;
/// The campaign's sweeps run on every CPU, and about nine tenths of its
/// time follows the host's floating-point speed. A set-up's quick-scale
/// pass does little arithmetic between its 80-odd fsyncs, so its wall
/// time followed the host's disk: in one stretch of slow disk its median
/// rose 44%. It is timed by the CPU it costs (every thread's) instead.
const MODEL: Model = Model {
    clock: Clock::Wall,
    fp_share: 0.9,
    setup_clock: Clock::Cpu,
    setup_fp_share: 0.9,
};
/// The smoke run's two cheap experiments.
const SMOKE_STEPS: [&str; 2] = ["FIG2", "FIG4"];

type Step = (&'static str, ExperimentFn);

fn steps(smoke: bool) -> Vec<Step> {
    let all = standard_experiments();
    if smoke {
        all.into_iter()
            .filter(|(n, _)| SMOKE_STEPS.contains(n))
            .collect()
    } else {
        all
    }
}

/// One experiment's run: its interval and whether it produced its
/// artifact with no quarantined or timed-out corner.
struct StepRun {
    name: &'static str,
    took: Interval,
    problem: Option<String>,
    /// Solver counts, when telemetry is on.
    counts: Option<Counts>,
}

/// Runs every step once into `dir`; returns the per-step runs and the
/// pass's interval.
fn pass(
    steps: &[Step],
    scale: Scale,
    dir: &Path,
    telemetry: bool,
) -> Result<(Vec<StepRun>, Interval), String> {
    std::env::set_var("EXP_OUT_DIR", dir);
    let opts = CampaignOptions {
        scale,
        ..CampaignOptions::default()
    };
    let t_pass = Mark::now();
    let mut runs = Vec::with_capacity(steps.len());
    for &step in steps {
        let _span = trace::span(step.0);
        let t = Mark::now();
        let summary = run_campaign(&opts, &[step]);
        let took = Interval::since(t);
        let (counts, timed_out) = if telemetry {
            let (c, timed_out) = read_run_report(step.0)?;
            (Some(c), timed_out)
        } else {
            (None, take_timed_out() as u64)
        };
        let problem = if let Some((_, e)) = summary.failed.first() {
            Some(format!("{}: failed: {e}", step.0))
        } else if summary.quarantined_total > 0 || timed_out > 0 {
            Some(format!(
                "{}: {} quarantined and {timed_out} timed-out corner(s)",
                step.0, summary.quarantined_total
            ))
        } else {
            None
        };
        runs.push(StepRun {
            name: step.0,
            took,
            problem,
            counts,
        });
    }
    Ok((runs, Interval::since(t_pass)))
}

/// The solver counts and timed-out corners of `name` from the campaign's
/// `RUN_REPORT.json` (rewritten by every `run_campaign` call).
fn read_run_report(name: &str) -> Result<(Counts, u64), String> {
    let path = run_report_path();
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = report::parse_json(&text)?;
    let entry = doc
        .get("experiments")
        .and_then(|e| e.get(name))
        .ok_or_else(|| format!("{}: no entry for {name}", path.display()))?;
    let n = |v: Option<&Json>, key: &str| v.and_then(|v| v.u64_field(key)).unwrap_or(0);
    let lu = entry.get("lu");
    let rungs: Vec<(String, u64)> = match entry.get("rung_iterations") {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(0)))
            .collect(),
        _ => Vec::new(),
    };
    let counts = Counts::rollup(
        n(Some(entry), "newton_iterations"),
        rungs.iter().map(|(k, v)| (k.as_str(), *v)),
        n(Some(entry), "accepted_steps"),
        n(Some(entry), "rejected_steps"),
        LuStats {
            full_factors: n(lu, "full_factors") as usize,
            refactors: n(lu, "refactors") as usize,
            pivot_fallbacks: n(lu, "pivot_fallbacks") as usize,
            solves: n(lu, "solves") as usize,
        },
    );
    Ok((counts, n(Some(entry), "timed_out")))
}

fn scale(smoke: bool) -> Scale {
    if smoke {
        Scale::Quick
    } else {
        Scale::Full
    }
}

/// Set-up: a fresh output directory and one quick-scale pass over every
/// experiment (each experiment's warm-up op).
fn setup(steps: &[Step], dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (runs, _) = pass(steps, Scale::Quick, dir, false)?;
    match runs.iter().find_map(|r| r.problem.clone()) {
        Some(p) => Err(format!("warm-up: {p}")),
        None => Ok(()),
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let dir = Path::new(OUT_DIR).join("campaign");
    let steps = steps(cfg.smoke);
    let mut out = Outcome::default();
    if cfg.trace {
        return run_traced(cfg, &steps, &dir, out);
    }
    // The campaign's sweeps use every CPU, so the sampler measures them
    // all, and nothing is pinned.
    let mut sampler = Sampler::start(calib::allowed_cpus(), MODEL)?;
    let ((), setups) =
        repeated_setup(cfg.setups.min(SETUPS), || setup(&steps, &dir.join("setup")))?;
    // The op a user waits for is the whole campaign, so each pass is one
    // op of the latency figures; a pass with any failed experiment is a
    // failed op.
    let planned = cfg.work(PASSES_PER_SECOND);
    let (mut passes, mut ops) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while passes.len() < planned && (passes.is_empty() || !cfg.overran(started)) {
        let (runs, took) = pass(&steps, scale(cfg.smoke), &dir.join("out"), false)?;
        let mut ok = true;
        for r in runs {
            out.attempted += 1;
            if let Some(p) = r.problem {
                out.failed += 1;
                out.fail(p);
                ok = false;
            }
        }
        passes.push(took);
        ops.push(ok.then_some(took));
    }
    sampler.finish();
    EndToEnd {
        setups: &setups,
        work: &passes,
        done: passes.len(),
        planned,
        ops: &ops,
        peak_rss_mb: report::peak_rss_mb("self")?,
    }
    .push(&mut out, &sampler);
    Ok(out)
}

/// The untraced reference pass, run in a fresh process (the program's
/// telemetry switch is read once per process): pass time and each
/// experiment's time in reference-host seconds, and the pass's CPU
/// seconds and wall-clock length.
struct Reference {
    wall_s: f64,
    cpu_s: f64,
    clock_s: f64,
    experiments: Vec<(String, f64)>,
}

fn reference(cfg: &Config) -> Result<Reference, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--campaign-reference").stderr(Stdio::inherit());
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawn reference pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let doc = report::parse_json(stdout.lines().last().unwrap_or_default())
        .map_err(|e| format!("reference pass (exit {:?}): {e}", output.status.code()))?;
    if let Some(err) = doc.str_field("error") {
        return Err(format!("reference pass: {err}"));
    }
    let field = |k: &str| doc.num_field(k).ok_or(format!("reference pass: no {k}"));
    let experiments = match doc.get("experiments") {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
            .collect(),
        _ => return Err("reference pass: no experiments".to_string()),
    };
    Ok(Reference {
        wall_s: field("wall_s")?,
        cpu_s: field("cpu_s")?,
        clock_s: field("clock_s")?,
        experiments,
    })
}

/// `--campaign-reference [--smoke]`: one warm-up and one untraced pass;
/// prints `{wall_s, cpu_s, clock_s, experiments}` (or `{error}`) as its
/// last line.
pub fn reference_main(args: impl Iterator<Item = String>) -> ExitCode {
    let smoke = args.into_iter().any(|a| a == "--smoke");
    let dir = Path::new(OUT_DIR).join("campaign/reference");
    let steps = steps(smoke);
    let result = setup(&steps, &dir.join("setup")).and_then(|()| {
        let mut sampler = Sampler::start(calib::allowed_cpus(), MODEL)?;
        let (runs, took) = pass(&steps, scale(smoke), &dir.join("out"), false)?;
        sampler.finish();
        if let Some(p) = runs.iter().find_map(|r| r.problem.clone()) {
            return Err(p);
        }
        let experiments = runs
            .iter()
            .map(|r| (r.name.to_string(), Json::num(sampler.seconds(r.took))))
            .collect();
        Ok(Json::obj(vec![
            ("wall_s", Json::num(sampler.seconds(took))),
            ("cpu_s", Json::num(took.busy_s())),
            ("clock_s", Json::num(took.wall_s())),
            ("experiments", Json::Obj(experiments)),
        ]))
    });
    match result {
        Ok(doc) => {
            println!("{}", doc.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("{}", Json::obj(vec![("error", Json::str(e))]).render());
            ExitCode::FAILURE
        }
    }
}

/// Traced run: the untraced reference pass in a child process, one pass
/// here with the program's telemetry on (counts from `RUN_REPORT.json`),
/// then the layer probe on the FIG8 settling circuit.
fn run_traced(
    cfg: &Config,
    steps: &[Step],
    dir: &Path,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let reference = reference(cfg)?;
    // Read once per process by the program, so set before its first use.
    std::env::set_var("EXP_TELEMETRY", "1");
    setup(steps, &dir.join("setup"))?;
    let mut sampler = Sampler::start(calib::allowed_cpus(), MODEL)?;
    trace::set_enabled(true);
    let (runs, traced) = {
        let _span = trace::span("campaign pass");
        pass(steps, scale(cfg.smoke), &dir.join("out"), true)?
    };
    trace::set_enabled(false);
    sampler.finish();
    let mut per_pass = Counts::default();
    for r in &runs {
        out.attempted += 1;
        if let Some(p) = &r.problem {
            out.failed += 1;
            out.fail(p.clone());
        }
        per_pass.add(&r.counts.unwrap_or_default());
    }

    let mut named_s = 0.0;
    for name in NAMED {
        let secs = reference
            .experiments
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, s)| *s);
        named_s += secs;
        out.push(&format!("experiments.{name}.wall_s"), secs, 1);
    }
    out.push("experiments.rest.wall_s", reference.wall_s - named_s, 1);
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    out.push("sweep.cpu_s", reference.cpu_s, 1);
    out.push(
        "sweep.parallel_efficiency",
        reference.cpu_s / (reference.clock_s * nproc as f64),
        1,
    );
    per_pass.push_metrics(&mut out);

    // FIG8's settling circuit at a mid-grid corner stands for the whole
    // campaign's Newton iterations; the attribution denominator is the
    // untraced pass's CPU time.
    let circuit = circuits::settling(1.0e9, 3.0e3, 1.0e-12).map_err(|e| e.to_string())?;
    let op = operating_point(&circuit, &DcOptions::default()).map_err(|e| e.to_string())?;
    trace::set_enabled(true);
    let costs = {
        let _span = trace::span("probe FIG8 settling circuit");
        probe::probe(&circuit, &op)?
    };
    trace::set_enabled(false);
    probe::push_layer_metrics(&[(costs, per_pass)], reference.cpu_s, &mut out);
    out.push(
        "trace_overhead",
        sampler.seconds(traced) / reference.wall_s,
        1,
    );
    out.push("host.speed", sampler.speed(traced.from, traced.to), 1);
    out.not_applicable(&["server"]);
    Ok(out)
}
