//! `cml_perf` — the benchmark of the CML DFT reproduction.
//!
//! ```text
//! cml_perf --workload <campaign|analysis|dc|serve|all> [--seed N] [--seconds S]
//!          [--trace 0|1] [--smoke] [--runs N]
//! ```
//!
//! Each workload measures one end-to-end use of the system on a fixed
//! amount of work sized by `--seconds`, checks every output, prints each
//! metric with its unit and sample count, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 1` runs the
//! same work with spans on and reports per-layer metrics instead; see
//! README.md for the workloads, the metrics and the comparison protocol.

mod analysis;
mod calib;
mod campaign;
mod circuits;
mod counts;
mod dc;
mod probe;
mod report;
mod rounds;
mod serve;
mod trace;

use report::{Json, Outcome};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["campaign", "analysis", "dc", "serve"];

/// Environment prefixes of the program's knobs and chaos switches. The
/// benchmark clears them all, so a stray setting in the caller's shell
/// cannot change what is measured; it then sets only its own.
const SCRUBBED_PREFIXES: [&str; 6] = ["CHAOS_", "SPICIER_", "SERVE_", "CLIENT_", "EXP_", "SOLVE_"];

/// Where results, traces, campaign outputs and daemon state go, relative
/// to the directory the benchmark runs in (the repository root).
pub const OUT_DIR: &str = "target/perf";

/// Set-ups per run; the reported `setup_s` is their median.
const SETUPS: usize = 9;

/// A run starts no new work once this multiple of `--seconds` has passed,
/// so it ends in bounded time on a much slower machine or commit; its
/// wall time is then scaled up from the share of its fixed work it did.
const OVERRUN: f64 = 1.25;

/// Settings of one workload run.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny op counts, for the test suite (debug builds allowed).
    pub smoke: bool,
    pub setups: usize,
}

impl Config {
    /// The run's fixed work: `per_second` units for each second of
    /// `--seconds`, at least one. It depends on `--seconds` alone, so
    /// every commit does the same work.
    pub fn work(&self, per_second: f64) -> usize {
        (self.seconds * per_second).round().max(1.0) as usize
    }

    /// Whether the run has outlasted its time cap.
    pub fn overran(&self, started: Instant) -> bool {
        started.elapsed().as_secs_f64() > OVERRUN * self.seconds
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: Option<usize>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        runs: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--runs" => {
                let n: usize = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                args.runs = Some(n.max(1));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn scrub_environment() {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| SCRUBBED_PREFIXES.iter().any(|p| k.starts_with(p)))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    // The daemon keeps the environment its parent gave it; every other
    // mode starts from a scrubbed one.
    if argv.peek().map(String::as_str) == Some("--serve-daemon") {
        return serve::daemon_main();
    }
    scrub_environment();
    if argv.peek().map(String::as_str) == Some("--campaign-reference") {
        argv.next();
        return campaign::reference_main(argv);
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cml_perf: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!("cml_perf: timed runs need an optimised build (cargo run --release), or --smoke");
        return ExitCode::from(2);
    }
    if let Some(runs) = args.runs {
        return spread(&args, runs);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    run_one(&args)
}

fn config(args: &Args) -> Config {
    Config {
        seed: args.seed,
        seconds: if args.smoke {
            args.seconds.min(0.2)
        } else {
            args.seconds
        },
        trace: args.trace,
        smoke: args.smoke,
        setups: if args.smoke { 1 } else { SETUPS },
    }
}

fn run_one(args: &Args) -> ExitCode {
    let cfg = config(args);
    let result = match args.workload.as_str() {
        "campaign" => campaign::run(&cfg),
        "analysis" => analysis::run(&cfg),
        "dc" => dc::run(&cfg),
        "serve" => serve::run(&cfg),
        _ => unreachable!("workload validated by parse_args"),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("cml_perf: {} failed to run: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let declared = report::declared();
    let expected = if cfg.trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    if let Err(e) = check_metric_set(&out, expected) {
        eprintln!(
            "cml_perf: {} reported the wrong metrics: {e}",
            args.workload
        );
        return ExitCode::from(2);
    }
    for m in &out.metrics {
        if m.applicable() {
            println!(
                "{:<40} {:>16.6} {:<9} n={}",
                m.name,
                m.value,
                m.unit(),
                m.samples
            );
        } else {
            println!("{:<40} {:>16} {:<9} n=0", m.name, "n/a", m.unit());
        }
    }
    for (name, value) in &out.uncorrected {
        let unit = report::declared().unit(name).unwrap_or("");
        println!(
            "{:<40} {value:>16.6} {unit:<9} (wall clock)",
            format!("uncorrected {name}")
        );
    }
    for f in &out.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    if let Err(e) = write_outputs(args, &cfg, &out) {
        eprintln!("cml_perf: {e}");
        return ExitCode::from(2);
    }
    println!("{}", out.result_json().render());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every metric of `expected` reported exactly once, and no other.
fn check_metric_set(out: &Outcome, expected: &[(String, String)]) -> Result<(), String> {
    for (name, _) in expected {
        match out.metrics.iter().filter(|m| m.name == *name).count() {
            1 => {}
            0 => return Err(format!("{name} missing")),
            _ => return Err(format!("{name} reported twice")),
        }
    }
    if let Some(extra) = out
        .metrics
        .iter()
        .find(|m| !expected.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("undeclared metric {}", extra.name));
    }
    Ok(())
}

/// Commit of the checkout, when it is a git work tree.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `target/perf/<workload>.json` (result plus provenance and sample
/// counts) and, when tracing, the span file.
fn write_outputs(args: &Args, cfg: &Config, out: &Outcome) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let samples = out
        .metrics
        .iter()
        .map(|m| (m.name.clone(), Json::num(m.samples as f64)))
        .collect();
    let doc = Json::obj(vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("commit", Json::str(commit())),
        ("nproc", Json::num(nproc as f64)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("result", out.result_json()),
        (
            "uncorrected",
            Json::Obj(
                out.uncorrected
                    .iter()
                    .map(|(name, v)| (name.clone(), Json::num(*v)))
                    .collect(),
            ),
        ),
        ("samples", Json::Obj(samples)),
        (
            "not_applicable",
            Json::Arr(
                out.metrics
                    .iter()
                    .filter(|m| !m.applicable())
                    .map(|m| Json::str(&m.name))
                    .collect(),
            ),
        ),
        (
            "failures",
            Json::Arr(out.failures.iter().map(Json::str).collect()),
        ),
    ]);
    let tag = if cfg.trace { ".traced" } else { "" };
    let path = Path::new(OUT_DIR).join(format!("{}{tag}.json", args.workload));
    report::write_file(&path, &(doc.render() + "\n"))?;
    if cfg.trace {
        let spans = Path::new(OUT_DIR).join(format!("{}.trace.jsonl", args.workload));
        trace::write_jsonl(&spans)?;
        eprintln!(
            "cml_perf: {} spans written to {}",
            trace::recorded(),
            spans.display()
        );
    }
    Ok(())
}

/// Re-runs this binary with `args`, minus the modes that fan out, and
/// returns its result line.
fn child_run(args: &Args, workload: &str, seed: u64) -> Result<(Json, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default();
    let result = report::parse_json(last).map_err(|e| {
        format!(
            "{workload} (exit {:?}) printed no result: {e}",
            output.status.code()
        )
    })?;
    Ok((result, stdout))
}

/// `--workload all`: every workload in a fresh process of its own (own
/// peak RSS, own environment latches); their lines, then one combined
/// result with workload-prefixed metric names.
fn run_all(args: &Args) -> ExitCode {
    let mut correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        println!("== {w}");
        let (result, stdout) = match child_run(args, w, args.seed) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cml_perf: {e}");
                return ExitCode::from(2);
            }
        };
        let declared = report::declared();
        for line in stdout.lines() {
            if line
                .split_once(' ')
                .is_some_and(|(name, _)| declared.unit(name).is_some())
            {
                println!("{w}.{line}");
            }
        }
        correct &= result
            .get("correct")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        attempted += result.num_field("attempted").unwrap_or(0.0);
        failed += result.num_field("failed").unwrap_or(0.0);
        if let Some(Json::Obj(ms)) = result.get("metrics") {
            metrics.extend(ms.iter().map(|(k, v)| (format!("{w}.{k}"), v.clone())));
        }
    }
    let doc = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted)),
        ("failed", Json::num(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", doc.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--runs N`: the workload N times in fresh processes (seeds
/// `seed..seed+N`), then per metric the median, quartiles, range and
/// quartile spread as a share of the median.
fn spread(args: &Args, runs: usize) -> ExitCode {
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut doc = Vec::new();
    let mut ok = true;
    for w in workloads {
        let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
        for k in 0..runs {
            let (result, _) = match child_run(args, w, args.seed + k as u64) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("cml_perf: {e}");
                    return ExitCode::from(2);
                }
            };
            ok &= result
                .get("correct")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            let Some(Json::Obj(ms)) = result.get("metrics") else {
                continue;
            };
            for (name, m) in ms {
                let v = m.num_field("value").unwrap_or(f64::NAN);
                match values.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, vs)) => vs.push(v),
                    None => values.push((
                        name.clone(),
                        m.str_field("unit").unwrap_or_default(),
                        vec![v],
                    )),
                }
            }
        }
        println!("== {w}: {runs} runs");
        let mut per_metric = Vec::new();
        for (name, unit, vs) in &values {
            let (q1, q2, q3) = report::quartiles(vs);
            let (lo, hi) = vs
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
                    (a.min(v), b.max(v))
                });
            let iqr_share = if q2 != 0.0 { (q3 - q1) / q2 } else { 0.0 };
            println!(
                "{name:<40} median {q2:>14.6} {unit:<9} q1 {q1:.6} q3 {q3:.6} min {lo:.6} max {hi:.6} iqr/median {iqr_share:.4}"
            );
            per_metric.push((
                name.clone(),
                Json::obj(vec![
                    ("unit", Json::str(unit)),
                    ("median", Json::num(q2)),
                    ("q1", Json::num(q1)),
                    ("q3", Json::num(q3)),
                    ("min", Json::num(lo)),
                    ("max", Json::num(hi)),
                    ("iqr_over_median", Json::num(iqr_share)),
                ]),
            ));
        }
        doc.push((w.to_string(), Json::Obj(per_metric)));
    }
    let text = Json::obj(vec![
        ("runs", Json::num(runs as f64)),
        ("first_seed", Json::num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("workloads", Json::Obj(doc)),
    ])
    .render();
    let path = Path::new(OUT_DIR).join(format!("{}.spread.json", args.workload));
    if let Err(e) = report::write_file(&path, &(text.clone() + "\n")) {
        eprintln!("cml_perf: {e}");
    }
    println!("{text}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
