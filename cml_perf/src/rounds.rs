//! Closed-loop, single-threaded rounds of ops — the loop behind the
//! in-process `analysis` and `dc` workloads.
//!
//! A round runs a fixed pool of ops once each, plus a few ops whose
//! inputs the seed draws afresh for that round, in an order also drawn
//! from the seed. A run is a fixed number of rounds, set by `--seconds`
//! alone, so every commit does the same work.

use crate::calib::{Interval, Mark, Sampler};
use crate::counts::Counts;
use crate::report::{self, EndToEnd, Outcome};
use crate::{probe, trace, Config};
use spicier::linalg::verify::bwerr_tol;
use spicier::{Circuit, DcSolution};
use std::time::Instant;
use xrand::StdRng;

/// One unit of work of an in-process workload.
pub trait Op {
    fn label(&self) -> &str;
    fn circuit(&self) -> &Circuit;
    /// Runs the op once and checks its output; returns the solver's work
    /// counts, or why the op failed.
    fn run(&self) -> Result<Counts, String>;
    /// The op's DC operating point, for the layer probe, and whatever
    /// counts of its DC stage `run`'s own result leaves out.
    fn operating_point(&self) -> Result<(DcSolution, Counts), String>;
}

/// Timings of a run's rounds.
#[derive(Debug)]
pub struct Timing {
    /// Every op attempted (`None` if it failed).
    pub ops: Vec<Option<Interval>>,
    /// Each round with spans off / on.
    pub untraced_rounds: Vec<Interval>,
    pub traced_rounds: Vec<Interval>,
    /// Work counts of round 0's ops, fixed pool first.
    pub op_counts: Vec<Counts>,
    /// The rounds end to end.
    pub phase: Interval,
    /// Rounds the run's fixed work holds.
    pub planned: usize,
}

impl Timing {
    fn rounds(&self) -> usize {
        self.untraced_rounds.len() + self.traced_rounds.len()
    }
}

/// The solver's certification gate on a result's worst backward error (a
/// NaN fails).
pub fn certified(backward_error: f64) -> Result<(), String> {
    let tol = bwerr_tol();
    if backward_error.is_nan() || backward_error > tol {
        return Err(format!("backward error {backward_error:e} above {tol:e}"));
    }
    Ok(())
}

/// Runs the set-up `times` times and returns the last result with every
/// set-up's interval.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<Interval>), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let t = Mark::now();
        let value = setup()?;
        secs.push(Interval::since(t));
        // The previous set-up's result is dropped here, off the clock.
        last = Some(value);
    }
    Ok((last.expect("at least one set-up ran"), secs))
}

/// Runs the run's `rounds_per_second × --seconds` rounds (at least one;
/// two when tracing, so both a traced and an untraced round are
/// measured), unless its time cap stops it first. Round `k` runs `fixed`
/// plus `varied(k)`, built before the round's clock starts. When tracing,
/// odd rounds record spans.
pub fn run<O: Op>(
    fixed: &[O],
    varied: &mut dyn FnMut(usize) -> Result<Vec<O>, String>,
    cfg: &Config,
    rounds_per_second: f64,
    out: &mut Outcome,
) -> Result<Timing, String> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0c0f_fee0);
    let min_rounds = if cfg.trace { 2 } else { 1 };
    let started = Mark::now();
    let mut timing = Timing {
        ops: Vec::new(),
        untraced_rounds: Vec::new(),
        traced_rounds: Vec::new(),
        op_counts: Vec::new(),
        phase: Interval::since(started),
        planned: cfg.work(rounds_per_second).max(min_rounds),
    };
    let mut round = 0usize;
    while round < min_rounds || (round < timing.planned && !cfg.overran(started.at)) {
        let extra = varied(round)?;
        let ops: Vec<&O> = fixed.iter().chain(&extra).collect();
        let mut order: Vec<usize> = (0..ops.len()).collect();
        rng.shuffle(&mut order);
        let mut counts = vec![Counts::default(); ops.len()];
        let traced = cfg.trace && round % 2 == 1;
        trace::set_enabled(traced);
        let t_round = Mark::now();
        let round_span = trace::span(&format!("round {round}"));
        for &k in &order {
            let op = ops[k];
            let _span = trace::span(op.label());
            let t = Mark::now();
            let result = op.run();
            let took = Interval::since(t);
            out.attempted += 1;
            match result {
                Ok(c) => {
                    timing.ops.push(Some(took));
                    counts[k] = c;
                }
                Err(e) => {
                    timing.ops.push(None);
                    out.failed += 1;
                    out.fail(format!("{}: {e}", op.label()));
                }
            }
        }
        drop(round_span);
        let took = Interval::since(t_round);
        if traced {
            timing.traced_rounds.push(took);
        } else {
            timing.untraced_rounds.push(took);
        }
        if round == 0 {
            timing.op_counts = counts;
        }
        round += 1;
    }
    trace::set_enabled(false);
    timing.phase = Interval::since(started);
    Ok(timing)
}

/// The end-to-end metrics every in-process workload reports. `wall_s`
/// sums the rounds' own intervals, so building a round's seeded inputs is
/// left out.
pub fn push_end_to_end(
    out: &mut Outcome,
    setups: &[Interval],
    timing: &Timing,
    sampler: &Sampler,
) -> Result<(), String> {
    EndToEnd {
        setups,
        work: &timing.untraced_rounds,
        done: timing.rounds(),
        planned: timing.planned,
        ops: &timing.ops,
        peak_rss_mb: report::peak_rss_mb("self")?,
    }
    .push(out, sampler);
    Ok(())
}

/// The per-layer metrics of an in-process workload: round 0's work
/// counts, the layer probe on each of round 0's circuits, the CPU a round
/// costs, and the tracing overhead.
///
/// Each op of round 0 is replayed once, timed, right before its circuit
/// is probed: the attribution shares divide probed costs by that replay
/// time, so both sides see the same moment's machine speed. The replay
/// must also reproduce round 0's work counts exactly.
pub fn push_layers<O: Op>(
    out: &mut Outcome,
    round0: &[&O],
    timing: &Timing,
    sampler: &Sampler,
) -> Result<(), String> {
    trace::set_enabled(true);
    let mut per_round = Counts::default();
    let mut items = Vec::with_capacity(round0.len());
    let mut replay_s = 0.0;
    for (op, counts) in round0.iter().zip(&timing.op_counts) {
        let _span = trace::span(&format!("probe {}", op.label()));
        let t = Instant::now();
        let replayed = op.run()?;
        replay_s += t.elapsed().as_secs_f64();
        if replayed != *counts {
            out.fail(format!("{}: work counts differ on replay", op.label()));
        }
        let (sol, dc_stage) = op.operating_point()?;
        let mut c = *counts;
        c.add(&dc_stage);
        per_round.add(&c);
        items.push((probe::probe(op.circuit(), &sol)?, c));
    }
    trace::set_enabled(false);
    per_round.push_metrics(out);
    probe::push_layer_metrics(&items, replay_s, out);
    // One closed-loop caller: a round's CPU, and the CPU against one
    // worker's wall.
    let rounds = timing.rounds();
    out.push("sweep.cpu_s", timing.phase.busy_s() / rounds as f64, rounds);
    out.push(
        "sweep.parallel_efficiency",
        timing.phase.busy_s() / timing.phase.wall_s(),
        rounds,
    );
    let secs =
        |ivs: &[Interval]| -> Vec<f64> { ivs.iter().map(|&iv| sampler.seconds(iv)).collect() };
    out.push(
        "trace_overhead",
        report::median(&secs(&timing.traced_rounds))
            / report::median(&secs(&timing.untraced_rounds)),
        timing.traced_rounds.len(),
    );
    out.push(
        "host.speed",
        sampler.speed(timing.phase.from, timing.phase.to),
        rounds,
    );
    Ok(())
}
