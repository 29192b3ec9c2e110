//! `dc`: cold-start DC operating points at scale — deep buffer chains, the
//! paper's Figure 14 shared detector, and generator-shaped wide circuits
//! on both sides of the fill-reducing-ordering threshold. The recovery
//! ladder, sparse factor/refactor and ordering do the work here;
//! transient step control is never reached.

use crate::calib::{self, Clock, Model, Sampler};
use crate::circuits;
use crate::counts::Counts;
use crate::report::Outcome;
use crate::rounds::{self, Op};
use crate::Config;
use cml_cells::{CmlProcess, DiffPair};
use cml_dft::{DetectorVerdict, HysteresisBand};
use spicier::analysis::dc::{operating_point, DcOptions};
use spicier::{Circuit, DcSolution, NodeId};
use xrand::StdRng;

/// Deep single chains of 2..=16 stages: depth 16 already needs source
/// stepping; at 18 the ladder fails from a cold start.
const MAX_DEPTH: usize = 16;
/// Shared-detector sizes; the paper's safe sharing limit is 45.
const SHARED_NS: [usize; 8] = [1, 8, 15, 23, 30, 38, 45, 60];
/// Piped detectors up to this size draw their defect from the seed every
/// round. Above it, which rungs of the recovery ladder a piped detector
/// needs — and so its cost — swings tenfold with the defect's place and
/// size (5–190 ms at N = 60), so those carry one fixed defect: the
/// middle buffer, 3 kΩ.
const SEEDED_MAX_N: usize = 15;
const FIXED_PIPE_OHMS: f64 = 3.0e3;
/// Depth of each chain of the wide circuits (the Figure 3 depth).
const WIDE_DEPTH: usize = 8;
/// Chains per wide circuit: 104, 200, 392, 584 and 776 unknowns solve in
/// natural order; 1160 and 2312 sit above `ORDERING_MIN_DIM` = 1024 and
/// ride the fill-reducing ordering. 968 unknowns (40 chains) is left out:
/// its natural-order solve takes seconds and would dominate every round.
const WIDE_CHAINS: [usize; 7] = [4, 8, 16, 24, 32, 48, 96];
/// Rounds per second of `--seconds`: a round takes about 0.6 s on the
/// reference host in its fast phase and 1 s in its slow one. 25 rounds
/// (1025 ops) leave ten ops beyond `p99_ms`.
const ROUNDS_PER_SECOND: f64 = 1.25;
/// One thread computing on one pinned CPU; the large sparse systems make
/// about a fifth of its time independent of the host's floating-point
/// speed.
const MODEL: Model = Model {
    clock: Clock::Cpu,
    fp_share: 0.8,
    setup_clock: Clock::Cpu,
    setup_fp_share: 0.8,
};
/// Figure 12's comparator hysteresis band.
const BAND: HysteresisBand = HysteresisBand {
    fail_below: 3.54,
    pass_above: 3.57,
};
/// Largest fault-free sharing the band check applies to (the paper's
/// safe limit).
const SAFE_SHARING: usize = 45;

enum Check {
    /// Non-inverting chains driven high: the final outputs sit at the
    /// process high level.
    OutputsHigh([DiffPair; 2]),
    /// Shared-detector output must classify as `Pass` (fault-free, within
    /// the safe sharing limit) or `Fail` (piped).
    Detector(NodeId, DetectorVerdict),
    /// Certification only.
    Certified,
}

struct DcOp {
    label: String,
    circuit: Circuit,
    check: Check,
}

impl DcOp {
    fn solve(&self) -> Result<DcSolution, String> {
        let sol =
            operating_point(&self.circuit, &DcOptions::default()).map_err(|e| e.to_string())?;
        rounds::certified(sol.quality().backward_error)?;
        match &self.check {
            Check::OutputsHigh(outs) => {
                let high = CmlProcess::paper().vhigh();
                for out in outs {
                    let v = sol.voltage(out.p);
                    if (v - high).abs() > 0.05 {
                        return Err(format!("chain output {v:.4} V, expected {high:.4} V"));
                    }
                }
            }
            Check::Detector(vout, want) => {
                let v = sol.voltage(*vout);
                if BAND.classify(v) != *want {
                    return Err(format!("detector vout {v:.4} V is not {want:?}"));
                }
            }
            Check::Certified => {}
        }
        Ok(sol)
    }
}

impl Op for DcOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    fn run(&self) -> Result<Counts, String> {
        self.solve().map(|sol| Counts::dc(sol.telemetry()))
    }

    fn operating_point(&self) -> Result<(DcSolution, Counts), String> {
        Ok((self.solve()?, Counts::default()))
    }
}

/// Smoke runs keep the small members of each family only (and one
/// ordered wide circuit, so both kernels' paths still run).
const SMOKE_MAX_N: usize = 15;
const SMOKE_MAX_DEPTH: usize = 8;
const SMOKE_WIDE_CHAINS: [usize; 3] = [4, 8, 48];

fn shared_ns(smoke: bool) -> impl Iterator<Item = usize> {
    SHARED_NS
        .into_iter()
        .filter(move |&n| !smoke || n <= SMOKE_MAX_N)
}

/// A piped shared detector.
fn piped_op(n: usize, at: usize, ohms: f64) -> Result<DcOp, String> {
    let (handle, circuit) = circuits::shared(n, Some((at, ohms))).map_err(|e| e.to_string())?;
    Ok(DcOp {
        label: format!("shared detector N={n} pipe B{at} {ohms:.0} ohm"),
        circuit,
        check: Check::Detector(handle.vout, DetectorVerdict::Fail),
    })
}

/// The ops every round runs: deep chains, shared detectors (fault-free,
/// and piped at a fixed defect above [`SEEDED_MAX_N`]), wide circuits.
fn fixed_pool(smoke: bool) -> Result<Vec<DcOp>, String> {
    let e = |e: spicier::Error| e.to_string();
    let mut ops = Vec::new();
    let max_depth = if smoke { SMOKE_MAX_DEPTH } else { MAX_DEPTH };
    for depth in 2..=max_depth {
        let (circuit, outs) = circuits::chains(1, depth).map_err(e)?;
        ops.push(DcOp {
            label: format!("deep chain {depth}"),
            circuit,
            check: Check::OutputsHigh(outs),
        });
    }
    for n in shared_ns(smoke) {
        let (handle, circuit) = circuits::shared(n, None).map_err(e)?;
        let check = if n <= SAFE_SHARING {
            Check::Detector(handle.vout, DetectorVerdict::Pass)
        } else {
            Check::Certified
        };
        ops.push(DcOp {
            label: format!("shared detector N={n}"),
            circuit,
            check,
        });
        if n > SEEDED_MAX_N {
            ops.push(piped_op(n, n / 2, FIXED_PIPE_OHMS)?);
        }
    }
    let wide: &[usize] = if smoke {
        &SMOKE_WIDE_CHAINS
    } else {
        &WIDE_CHAINS
    };
    for &k in wide {
        let (circuit, outs) = circuits::chains(k, WIDE_DEPTH).map_err(e)?;
        ops.push(DcOp {
            label: format!("wide {k}x{WIDE_DEPTH} ({} unknowns)", circuit.dim()),
            circuit,
            check: Check::OutputsHigh(outs),
        });
    }
    Ok(ops)
}

/// Round `round`'s seeded piped detectors: two per size up to
/// [`SEEDED_MAX_N`], each pipe resistance (1–5 kΩ) drawn afresh every
/// round. The faulty buffers walk a seeded order of all `n` buffers, two
/// a round, so every run pipes each buffer about equally often: which
/// buffer carries the pipe sets the op's cost more than anything else
/// drawn, and independent draws made the `p50_ms` of two seeds differ by
/// up to 9%.
fn piped(seed: u64, round: usize, smoke: bool) -> Result<Vec<DcOp>, String> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (round as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut ops = Vec::new();
    for n in shared_ns(smoke).filter(|&n| n <= SEEDED_MAX_N) {
        let mut order: Vec<usize> = (0..n).collect();
        StdRng::seed_from_u64(seed ^ n as u64).shuffle(&mut order);
        for k in 0..2 {
            let at = order[(2 * round + k) % n];
            ops.push(piped_op(n, at, rng.gen_range(1.0e3..5.0e3))?);
        }
    }
    Ok(ops)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut sampler = Sampler::start(vec![calib::pin_first()?], MODEL)?;
    // Set-up: build and compile the fixed pool, then one warm-up op per
    // family (a mid-size member of each, and the ordered wide circuit).
    let (ops, setups) = rounds::repeated_setup(cfg.setups, || {
        let ops = fixed_pool(cfg.smoke)?;
        for label in [
            "deep chain 8",
            "shared detector N=15",
            "wide 8x8",
            "wide 48x8",
        ] {
            if let Some(op) = ops.iter().find(|op| op.label.starts_with(label)) {
                op.run().map_err(|e| format!("warm-up {label}: {e}"))?;
            }
        }
        Ok(ops)
    })?;
    let mut varied = |round| piped(cfg.seed, round, cfg.smoke);
    let timing = rounds::run(&ops, &mut varied, cfg, ROUNDS_PER_SECOND, &mut out)?;
    sampler.finish();
    if !cfg.trace {
        rounds::push_end_to_end(&mut out, &setups, &timing, &sampler)?;
        return Ok(out);
    }
    let first_piped = piped(cfg.seed, 0, cfg.smoke)?;
    let round0: Vec<&DcOp> = ops.iter().chain(&first_piped).collect();
    rounds::push_layers(&mut out, &round0, &timing, &sampler)?;
    out.not_applicable(&["experiments", "server"]);
    Ok(out)
}
