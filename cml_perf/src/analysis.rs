//! `analysis`: one FIG3-chain transient over one stimulus period (its DC
//! operating point included), the ROADMAP's "one analysis", run
//! single-threaded so every op sees the solver's inner stages alone.

use crate::calib::{self, Clock, Model, Sampler};
use crate::circuits::{self, FIG3_FREQS};
use crate::counts::Counts;
use crate::report::Outcome;
use crate::rounds::{self, Op};
use crate::Config;
use spicier::analysis::dc::{operating_point, DcOptions};
use spicier::analysis::tran::{transient, TranOptions};
use spicier::{Circuit, DcSolution};
use xrand::StdRng;

/// Rounds per second of `--seconds`: a round (ten transients) takes about
/// 65 ms on the reference host in its fast phase and 110 ms in its slow
/// one, so a run's work fits in `--seconds` either way.
const ROUNDS_PER_SECOND: f64 = 8.0;

/// One thread computing on one pinned CPU, about nine tenths of its time
/// at the host's floating-point speed.
const MODEL: Model = Model {
    clock: Clock::Cpu,
    fp_share: 0.9,
    setup_clock: Clock::Cpu,
    setup_fp_share: 0.9,
};

struct TranOp {
    label: String,
    circuit: Circuit,
    t_stop: f64,
}

impl Op for TranOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    fn run(&self) -> Result<Counts, String> {
        let res =
            transient(&self.circuit, &TranOptions::new(self.t_stop)).map_err(|e| e.to_string())?;
        if !res.is_complete() {
            return Err(format!(
                "incomplete: {:?}",
                res.failure().map(|f| f.summary())
            ));
        }
        rounds::certified(res.quality().backward_error)?;
        Ok(Counts::tran(res.telemetry()))
    }

    /// The transient's result counts every linear solve but not its
    /// operating point's Newton iterations; the same operating point,
    /// solved on its own, supplies them.
    fn operating_point(&self) -> Result<(DcSolution, Counts), String> {
        let sol =
            operating_point(&self.circuit, &DcOptions::default()).map_err(|e| e.to_string())?;
        let dc = Counts::dc(sol.telemetry());
        let stage = Counts {
            dc_newton: dc.dc_newton,
            rungs: dc.rungs,
            ..Counts::default()
        };
        Ok((sol, stage))
    }
}

/// The fault-free FIG3 chain at every paper frequency.
fn clean_pool() -> Result<Vec<TranOp>, String> {
    FIG3_FREQS
        .iter()
        .map(|&freq| chain_op(freq, None))
        .collect()
}

/// Round `round`'s piped chains, one per frequency: the seed draws each
/// pipe resistance on `DUT.Q3` (1–5 kΩ) afresh every round, so a run's
/// figures average over many defects instead of hanging on five.
fn piped(seed: u64, round: usize) -> Result<Vec<TranOp>, String> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (round as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    FIG3_FREQS
        .iter()
        .map(|&freq| chain_op(freq, Some(rng.gen_range(1.0e3..5.0e3))))
        .collect()
}

fn chain_op(freq: f64, pipe: Option<f64>) -> Result<TranOp, String> {
    let (_, circuit) = circuits::fig3(freq, pipe).map_err(|e| e.to_string())?;
    let label = match pipe {
        None => format!("fig3 {:.0} MHz", freq / 1e6),
        Some(r) => format!("fig3 {:.0} MHz piped {r:.0} ohm", freq / 1e6),
    };
    Ok(TranOp {
        label,
        circuit,
        t_stop: 1.0 / freq,
    })
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut sampler = Sampler::start(vec![calib::pin_first()?], MODEL)?;
    // Set-up: build and compile the fault-free chains, then one warm-up
    // analysis at each frequency.
    let (ops, setups) = rounds::repeated_setup(cfg.setups, || {
        let ops = clean_pool()?;
        for op in &ops {
            op.run().map_err(|e| format!("warm-up {}: {e}", op.label))?;
        }
        Ok(ops)
    })?;
    let mut varied = |round| piped(cfg.seed, round);
    let timing = rounds::run(&ops, &mut varied, cfg, ROUNDS_PER_SECOND, &mut out)?;
    sampler.finish();
    if !cfg.trace {
        rounds::push_end_to_end(&mut out, &setups, &timing, &sampler)?;
        return Ok(out);
    }
    let first_piped = piped(cfg.seed, 0)?;
    let round0: Vec<&TranOp> = ops.iter().chain(&first_piped).collect();
    rounds::push_layers(&mut out, &round0, &timing, &sampler)?;
    out.not_applicable(&["experiments", "server"]);
    Ok(out)
}
