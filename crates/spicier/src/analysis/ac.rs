//! Small-signal AC analysis.
//!
//! Linearizes every device at the DC operating point into conductance (`G`)
//! and capacitance (`C`) matrices, then solves `(G + jωC)·x = b` at each
//! frequency with a unit excitation on one designated source (all other
//! independent sources are zeroed, i.e. voltage sources become shorts and
//! current sources opens — standard AC semantics). Each complex system is
//! solved as its real equivalent on the certified real kernels
//! (`solve_complex`).
//!
//! Used here to characterize gate bandwidth and detector/comparator
//! frequency response, corroborating the paper's "works well below
//! at-speed frequencies" scoping.

use super::budget::{BudgetTracker, Phase, RunBudget};
use super::dc::{self, DcOptions};
use super::mna::{stamp_conductance, Assembler, EvalMode, SolveWorkspace};
use crate::error::Error;
use crate::linalg::complex::Complex;
use crate::linalg::{fresh_id, AutoSolver, ProgramKey, SolveQuality, Solver, Triplets};
use crate::netlist::{Circuit, Element, NodeId};
use crate::telemetry::{self, TelemetrySummary};

/// Options for [`ac_analysis`].
#[derive(Debug, Clone, PartialEq)]
pub struct AcOptions {
    /// Name of the voltage or current source carrying the unit AC
    /// excitation.
    pub source: String,
    /// Frequencies to evaluate, hertz.
    pub freqs: Vec<f64>,
    /// DC operating-point options.
    pub dc: DcOptions,
}

impl AcOptions {
    /// Unit excitation on `source` over a log-spaced grid.
    pub fn new(source: &str, freqs: Vec<f64>) -> Self {
        Self {
            source: source.to_string(),
            freqs,
            dc: DcOptions::default(),
        }
    }
}

/// Log-spaced frequency grid, `points_per_decade` points per decade from
/// `f_start` to `f_stop` inclusive.
pub fn decade_freqs(f_start: f64, f_stop: f64, points_per_decade: usize) -> Vec<f64> {
    let mut out = Vec::new();
    if f_start <= 0.0 || f_stop < f_start || points_per_decade == 0 {
        return out;
    }
    let step = 1.0 / points_per_decade as f64;
    let mut exp = f_start.log10();
    let stop_exp = f_stop.log10();
    while exp <= stop_exp + 1e-12 {
        out.push(10.0f64.powf(exp));
        exp += step;
    }
    out
}

/// Result of an AC run: complex node responses per frequency.
#[derive(Debug, Clone)]
pub struct AcResult {
    freqs: Vec<f64>,
    n_nodes: usize,
    /// `data[k][i]` = response of unknown `i` at frequency `k`.
    data: Vec<Vec<Complex>>,
    quality: SolveQuality,
    telemetry: TelemetrySummary,
}

impl AcResult {
    /// The frequency grid, hertz.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Complex transfer to `node` at frequency index `k`.
    pub fn response(&self, node: NodeId, k: usize) -> Complex {
        match node.unknown() {
            Some(i) => self.data[k][i],
            None => Complex::ZERO,
        }
    }

    /// Magnitude (in dB) of the transfer to `node` across the grid.
    pub fn mag_db(&self, node: NodeId) -> Vec<f64> {
        (0..self.freqs.len())
            .map(|k| self.response(node, k).db())
            .collect()
    }

    /// Phase (degrees) across the grid.
    pub fn phase_deg(&self, node: NodeId) -> Vec<f64> {
        (0..self.freqs.len())
            .map(|k| self.response(node, k).phase_deg())
            .collect()
    }

    /// The −3 dB bandwidth of the transfer to `node` relative to its
    /// response at the lowest frequency (linear interpolation in
    /// log-magnitude). `None` when the response never drops 3 dB.
    pub fn bandwidth_3db(&self, node: NodeId) -> Option<f64> {
        let mags = self.mag_db(node);
        let reference = *mags.first()?;
        let target = reference - 3.0;
        for k in 1..mags.len() {
            if mags[k] <= target {
                let (m0, m1) = (mags[k - 1], mags[k]);
                let (f0, f1) = (self.freqs[k - 1], self.freqs[k]);
                if (m1 - m0).abs() < 1e-12 {
                    return Some(f1);
                }
                let t = (target - m0) / (m1 - m0);
                // Interpolate in log-frequency.
                return Some(10.0f64.powf(f0.log10() + t * (f1.log10() - f0.log10())));
            }
        }
        None
    }

    /// `n_nodes` accessor for diagnostics.
    pub fn node_unknowns(&self) -> usize {
        self.n_nodes
    }

    /// Worst linear-solve certification across the run: the pessimistic
    /// merge of the operating point's quality and every per-frequency
    /// solve.
    pub fn quality(&self) -> SolveQuality {
        self.quality
    }

    /// Telemetry rollup for this run (wall time, kernel counters from the
    /// operating point, worst certification across all frequency solves).
    pub fn telemetry(&self) -> &TelemetrySummary {
        &self.telemetry
    }
}

/// Runs the AC analysis.
///
/// # Errors
///
/// Fails when the operating point does not converge, the named source does
/// not exist, a frequency point is singular, or the corner token installed
/// with [`with_corner_token`](super::budget::with_corner_token) is
/// cancelled ([`Error::DeadlineExceeded`] with phase `ac`).
pub fn ac_analysis(circuit: &Circuit, opts: &AcOptions) -> Result<AcResult, Error> {
    let _span = telemetry::span("ac");
    let mut ws = SolveWorkspace::for_circuit(circuit);
    let mut tracker = BudgetTracker::new(&RunBudget::default(), Phase::Ac, ws.solver.stats());
    // 1. Excitation vector: unit AC on the named source, checked before
    //    any solve.
    let dim = circuit.dim();
    let mut assembler = Assembler::new(circuit);
    let mut rhs0 = vec![Complex::ZERO; dim];
    let mut found_source = false;
    for (e_idx, (name, element)) in circuit.element_slice().iter().enumerate() {
        if name != &opts.source {
            continue;
        }
        match element {
            Element::VoltageSource { .. } => {
                rhs0[assembler.branch_unknown(e_idx)] = Complex::ONE;
                found_source = true;
            }
            Element::CurrentSource { p, n, .. } => {
                if let Some(i) = p.unknown() {
                    rhs0[i] += -Complex::ONE;
                }
                if let Some(j) = n.unknown() {
                    rhs0[j] += Complex::ONE;
                }
                found_source = true;
            }
            _ => {}
        }
    }
    if !found_source {
        return Err(Error::UnknownElement(opts.source.clone()));
    }

    // 2. Operating point, and G and C linearized there.
    let (x_op, _) = dc::recover_operating_point(
        circuit,
        &opts.dc,
        &mut assembler,
        &mut ws,
        &mut tracker,
        None,
    )?;
    let mut quality = ws.solver.last_quality();
    let (g, c) = linearized_matrices(circuit, &mut assembler, &x_op, opts.dc.gmin);

    // 3. Solve per frequency, on a solver of its own: its counters stay
    //    out of the operating point's cost account, and a stamp program
    //    of its own, which every frequency after the first replays.
    let (mut solver, mut system, owner) = (AutoSolver::new(), Triplets::default(), fresh_id());
    let mut data = Vec::with_capacity(opts.freqs.len());
    for (k, &f) in opts.freqs.iter().enumerate() {
        tracker.set_progress(k as f64 / opts.freqs.len().max(1) as f64);
        tracker.check()?;
        let omega = 2.0 * std::f64::consts::PI * f;
        let mut x = rhs0.clone();
        let point_quality = solve_complex(
            (&mut solver, &mut system),
            owner,
            (&g, &c),
            omega,
            false,
            &mut x,
        )?;
        quality = quality.worst(point_quality);
        if telemetry::enabled() {
            telemetry::event(
                "ac_point",
                &[
                    ("freq", f.into()),
                    ("bwerr", point_quality.backward_error.into()),
                ],
            );
        }
        data.push(x);
    }
    let summary = tracker.summary(ws.solver.stats(), quality, None);
    Ok(AcResult {
        freqs: opts.freqs.clone(),
        n_nodes: circuit.node_unknowns(),
        data,
        quality,
        telemetry: summary,
    })
}

/// Solves `(G + jωC)·x = b` in place (`b` holds `b` on entry, `x` on
/// exit), or its transpose `(G + jωC)ᵀ·x = b` when `transposed` is set,
/// as the real system `[[G, −ωC], [ωC, G]]·[Re x; Im x] = [Re b; Im b]`
/// of twice the dimension on `solver`. The one complex solve of the AC
/// and noise analyses: it is certified, drilled and traced like every
/// other solve.
///
/// The real system is compiled into `system` as a stamp program of
/// `owner`, one pattern per orientation. Its keys do not depend on ω, so
/// each later frequency replays the program, and the kernel keeps its
/// compilation and (on the dense kernel) its plans from one frequency to
/// the next.
///
/// # Errors
///
/// Returns [`Error::SingularMatrix`] or [`Error::UntrustedSolution`]
/// from the kernel.
pub(crate) fn solve_complex(
    (solver, system): (&mut AutoSolver, &mut Triplets),
    owner: u64,
    (g, c): (&Triplets, &Triplets),
    omega: f64,
    transposed: bool,
    b: &mut [Complex],
) -> Result<SolveQuality, Error> {
    let n = b.len();
    let key = |r: usize, col: usize| if transposed { (col, r) } else { (r, col) };
    let pattern = u8::from(transposed);
    system.open(2 * n, ProgramKey { owner, pattern });
    for &(r, col, v) in g.entries() {
        let (r, col) = key(r, col);
        system.stamps([(Some(r), Some(col)), (Some(n + r), Some(n + col))], [v, v]);
    }
    for &(r, col, v) in c.entries() {
        let (r, col) = key(r, col);
        let wc = omega * v;
        system.stamps(
            [(Some(r), Some(n + col)), (Some(n + r), Some(col))],
            [-wc, wc],
        );
    }
    system.seal();
    let mut x: Vec<f64> = b
        .iter()
        .map(|z| z.re)
        .chain(b.iter().map(|z| z.im))
        .collect();
    solver.solve_in_place(system, &mut x)?;
    for (k, z) in b.iter_mut().enumerate() {
        *z = Complex::new(x[k], x[n + k]);
    }
    Ok(solver.last_quality())
}

/// Linearizes the circuit at the operating point `x_op` into conductance
/// (`G`) and capacitance (`C`) triplet matrices. Shared by the AC and
/// noise analyses.
///
/// `G` is the DC Newton Jacobian at `x_op`, stamped by `assembler` itself:
/// the junction memory is reset to `x_op` so no voltage is limited, the
/// right-hand side is discarded, and the `gmin` diagonal is added after
/// the device stamps. Independent sources therefore drop out: voltage
/// sources keep their branch rows (AC shorts) and current sources stamp
/// nothing (opens). `C` holds the charge-storage derivatives: capacitors,
/// `−L` on each inductor's branch diagonal, and the diode and BJT
/// junction capacitances.
pub(crate) fn linearized_matrices(
    circuit: &Circuit,
    assembler: &mut Assembler<'_>,
    x_op: &[f64],
    gmin: f64,
) -> (Triplets, Triplets) {
    let dim = circuit.dim();
    let mut g = Triplets::new(dim);
    let mut rhs = Vec::with_capacity(dim);
    assembler.reset_junctions(x_op);
    assembler.assemble(x_op, &EvalMode::dc(0.0), &mut g, &mut rhs);
    for i in 0..circuit.node_unknowns() {
        g.add(i, i, gmin);
    }

    let mut c = Triplets::new(dim);
    let v_of = |node: NodeId| node.unknown().map_or(0.0, |i| x_op[i]);
    for (e_idx, (_, element)) in circuit.element_slice().iter().enumerate() {
        match element {
            Element::Capacitor { p, n, value } => stamp_conductance(&mut c, *p, *n, *value),
            Element::Inductor { value, .. } => {
                // v − jωL·i = 0 → −L into the C matrix at (branch, branch).
                let branch = assembler.branch_unknown(e_idx);
                c.add(branch, branch, -value);
            }
            Element::Diode {
                anode,
                cathode,
                model,
            } => {
                let eval = model.eval(v_of(*anode) - v_of(*cathode));
                stamp_conductance(&mut c, *anode, *cathode, eval.c);
            }
            Element::Bjt {
                collector,
                base,
                emitter,
                model,
            } => {
                let s = model.polarity.sign();
                let vbe = s * (v_of(*base) - v_of(*emitter));
                let vbc = s * (v_of(*base) - v_of(*collector));
                let eval = model.eval(vbe, vbc);
                stamp_conductance(&mut c, *base, *emitter, eval.cbe);
                stamp_conductance(&mut c, *base, *collector, eval.cbc);
            }
            _ => {}
        }
    }
    (g, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Netlist, SourceWave};

    #[test]
    fn rc_lowpass_pole() {
        // R = 1 kΩ, C = 1 nF → f_3dB = 159.2 kHz; phase −45° at the pole.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vdc("V1", a, Netlist::GROUND, 0.0).unwrap();
        nl.resistor("R1", a, b, 1.0e3).unwrap();
        nl.capacitor("C1", b, Netlist::GROUND, 1.0e-9).unwrap();
        let circuit = nl.compile().unwrap();
        let freqs = decade_freqs(1.0e3, 1.0e8, 40);
        let res = ac_analysis(&circuit, &AcOptions::new("V1", freqs)).unwrap();
        let f3 = res.bandwidth_3db(b).expect("pole in range");
        let expected = 1.0 / (2.0 * std::f64::consts::PI * 1.0e3 * 1.0e-9);
        assert!(
            (f3 - expected).abs() < 0.03 * expected,
            "f3dB {f3:.3e} vs {expected:.3e}"
        );
        // Low-frequency gain ≈ 0 dB; slope −20 dB/dec well past the pole.
        let mags = res.mag_db(b);
        assert!(mags[0].abs() < 0.05);
        let hf = mags[mags.len() - 1] - mags[mags.len() - 41];
        assert!((hf + 20.0).abs() < 1.0, "slope {hf} dB/decade");
        // Phase approaches −90°.
        let ph = res.phase_deg(b);
        assert!(ph.last().unwrap() < &-85.0);
    }

    #[test]
    fn rlc_series_resonance_peak() {
        // Series RLC driven across the capacitor: peak near
        // f0 = 1/(2π√(LC)) with Q = (1/R)·√(L/C).
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let c = nl.node("c");
        nl.vdc("V1", a, Netlist::GROUND, 0.0).unwrap();
        nl.resistor("R1", a, b, 10.0).unwrap();
        nl.inductor("L1", b, c, 1.0e-6).unwrap();
        nl.capacitor("C1", c, Netlist::GROUND, 1.0e-9).unwrap();
        let circuit = nl.compile().unwrap();
        let freqs = decade_freqs(1.0e5, 1.0e8, 60);
        let res = ac_analysis(&circuit, &AcOptions::new("V1", freqs)).unwrap();
        let mags = res.mag_db(c);
        let (k_peak, peak) = mags
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).expect("finite"))
            .unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1.0e-6f64 * 1.0e-9).sqrt());
        assert!(
            (res.freqs()[k_peak] - f0).abs() < 0.05 * f0,
            "peak at {:.3e} vs f0 {f0:.3e}",
            res.freqs()[k_peak]
        );
        let q = (1.0 / 10.0) * (1.0e-6f64 / 1.0e-9).sqrt();
        assert!(
            (*peak - 20.0 * q.log10()).abs() < 0.6,
            "peak {peak:.2} dB vs Q {:.2} dB",
            20.0 * q.log10()
        );
    }

    #[test]
    fn vcvs_gain_is_flat() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vdc("V1", a, Netlist::GROUND, 0.0).unwrap();
        nl.vcvs("E1", b, Netlist::GROUND, a, Netlist::GROUND, 10.0)
            .unwrap();
        nl.resistor("RL", b, Netlist::GROUND, 1.0e3).unwrap();
        let circuit = nl.compile().unwrap();
        let res = ac_analysis(&circuit, &AcOptions::new("V1", vec![1.0e3, 1.0e6, 1.0e9])).unwrap();
        for k in 0..3 {
            assert!((res.response(b, k).db() - 20.0).abs() < 1e-6);
        }
    }

    #[test]
    fn bjt_amplifier_has_finite_bandwidth() {
        // The common-emitter stage from the integration tests: gain ≈
        // Rc/(Re + 1/gm) at low frequency, rolling off in the GHz range
        // through Cjc/Cje.
        let mut nl = Netlist::new();
        let vcc = nl.node("vcc");
        let vb = nl.node("vb");
        let vc = nl.node("vc");
        let ve = nl.node("ve");
        nl.vdc("VCC", vcc, Netlist::GROUND, 5.0).unwrap();
        nl.vsource("VB", vb, Netlist::GROUND, SourceWave::Dc(1.4))
            .unwrap();
        nl.resistor("RC", vcc, vc, 2.0e3).unwrap();
        nl.resistor("RE", ve, Netlist::GROUND, 500.0).unwrap();
        nl.bjt("Q1", vc, vb, ve, crate::devices::BjtModel::fast_npn())
            .unwrap();
        let circuit = nl.compile().unwrap();
        let freqs = decade_freqs(1.0e5, 1.0e11, 20);
        let res = ac_analysis(&circuit, &AcOptions::new("VB", freqs)).unwrap();
        let dc_gain = res.response(vc, 0).abs();
        assert!(
            (dc_gain - 2.0e3 / 526.0).abs() < 0.15 * dc_gain,
            "AC low-frequency gain {dc_gain:.2}"
        );
        let f3 = res.bandwidth_3db(vc).expect("finite bandwidth");
        assert!(
            (1.0e8..1.0e11).contains(&f3),
            "bandwidth {f3:.3e} Hz should be GHz-scale"
        );
    }

    /// The source is looked up before any solve: with a second, parallel
    /// 2 V source there is no operating point, and the error must still
    /// name the source.
    #[test]
    fn unknown_source_is_an_error() {
        for contradictory in [false, true] {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            nl.vdc("V1", a, Netlist::GROUND, 1.0).unwrap();
            if contradictory {
                nl.vdc("V2", a, Netlist::GROUND, 2.0).unwrap();
            }
            nl.resistor("R1", a, Netlist::GROUND, 1.0).unwrap();
            let circuit = nl.compile().unwrap();
            let res = ac_analysis(&circuit, &AcOptions::new("VX", vec![1.0e3]));
            assert!(
                matches!(res, Err(Error::UnknownElement(ref name)) if name == "VX"),
                "{res:?}"
            );
        }
    }

    /// One circuit with every element kind: R, C, L, a diode, an NPN, a
    /// PNP, a VCVS, a VCCS, and V and I sources, biased at `vin` and `i1`.
    fn every_element(vin: f64, i1: f64) -> Circuit {
        use crate::devices::{BjtModel, DiodeModel};
        let gnd = Netlist::GROUND;
        let mut nl = Netlist::new();
        let vcc = nl.node("vcc");
        let input = nl.node("in");
        let b1 = nl.node("b1");
        let c1 = nl.node("c1");
        let e1 = nl.node("e1");
        let e2 = nl.node("e2");
        let c2 = nl.node("c2");
        let dn = nl.node("dn");
        let lo = nl.node("lo");
        let eo = nl.node("eo");
        nl.vdc("VCC", vcc, gnd, 3.3).unwrap();
        nl.vdc("VIN", input, gnd, vin).unwrap();
        nl.resistor("RB", input, b1, 1.0e3).unwrap();
        nl.bjt("Q1", c1, b1, e1, BjtModel::fast_npn()).unwrap();
        nl.resistor("RE1", e1, gnd, 500.0).unwrap();
        nl.resistor("RC1", vcc, c1, 2.0e3).unwrap();
        nl.capacitor("C1", c1, gnd, 1.0e-12).unwrap();
        nl.idc("I1", gnd, c1, i1).unwrap();
        nl.resistor("RE2", vcc, e2, 500.0).unwrap();
        nl.bjt("Q2", c2, c1, e2, BjtModel::fast_pnp()).unwrap();
        nl.resistor("RC2", c2, gnd, 1.0e3).unwrap();
        nl.vccs("G1", gnd, dn, c2, gnd, 1.0e-3).unwrap();
        nl.diode("D1", dn, gnd, DiodeModel::new()).unwrap();
        nl.inductor("L1", dn, lo, 1.0e-9).unwrap();
        nl.resistor("RL", lo, gnd, 10.0e3).unwrap();
        nl.vcvs("E1", eo, gnd, lo, e1, 2.0).unwrap();
        nl.resistor("RO", eo, gnd, 1.0e3).unwrap();
        nl.compile().unwrap()
    }

    /// At 1 Hz the AC response to a unit excitation is the derivative of
    /// the operating point with respect to that source. Check it on every
    /// node against a central difference of two operating points.
    #[test]
    fn small_signal_response_is_the_operating_point_derivative() {
        use crate::analysis::dc::operating_point;
        const VIN: f64 = 1.2;
        const I1: f64 = 50.0e-6;
        // Operating points converged far below the default tolerances;
        // `OP_ERROR` bounds their absolute error.
        const OP_ERROR: f64 = 1.0e-10;
        let dc = DcOptions {
            abstol_v: 1.0e-13,
            abstol_i: 1.0e-16,
            reltol: 1.0e-10,
            ..DcOptions::default()
        };
        let op = |vin: f64, i1: f64| operating_point(&every_element(vin, i1), &dc).unwrap();
        // (source, step, operating points at ∓step)
        let cases = [
            ("VIN", 1.0e-4, op(VIN - 1.0e-4, I1), op(VIN + 1.0e-4, I1)),
            ("I1", 5.0e-8, op(VIN, I1 - 5.0e-8), op(VIN, I1 + 5.0e-8)),
        ];
        let circuit = every_element(VIN, I1);
        for (source, step, low, high) in cases {
            let mut opts = AcOptions::new(source, vec![1.0]);
            opts.dc = dc.clone();
            let res = ac_analysis(&circuit, &opts).unwrap();
            let mut moved = 0;
            for node in circuit.node_ids() {
                let fd = (high.voltage(node) - low.voltage(node)) / (2.0 * step);
                let ac = res.response(node, 0);
                // Central-difference truncation is O((step/Vt)²) relative;
                // the operating points' error enters divided by the step.
                let tol = 1.0e-4 * fd.abs() + OP_ERROR / step;
                let name = circuit.node_name(node);
                assert!(
                    (ac.re - fd).abs() <= tol && ac.im.abs() <= tol,
                    "{source} → {name}: AC {ac:?} vs difference {fd:e}"
                );
                if fd.abs() > 1.0e3 * tol {
                    moved += 1;
                }
            }
            assert!(moved >= 6, "{source} moves only {moved} nodes");
        }
    }

    /// `G` and `C` from `(row, col, value)` lists.
    fn system(
        n: usize,
        g: &[(usize, usize, f64)],
        c: &[(usize, usize, f64)],
    ) -> (Triplets, Triplets) {
        let triplets = |entries: &[(usize, usize, f64)]| {
            let mut t = Triplets::new(n);
            for &(r, col, v) in entries {
                t.add(r, col, v);
            }
            t
        };
        (triplets(g), triplets(c))
    }

    /// [`solve_complex`] on a fresh system and a fresh solver.
    fn solve_fresh(
        gc: (&Triplets, &Triplets),
        omega: f64,
        transposed: bool,
        b: &mut [Complex],
    ) -> Result<SolveQuality, Error> {
        let mut system = Triplets::default();
        let solver = &mut AutoSolver::new();
        solve_complex((solver, &mut system), fresh_id(), gc, omega, transposed, b)
    }

    /// Solves with [`solve_complex`] on a fresh solver, and checks the
    /// complex residual `b − (G + jωC)x` (or the transpose's), computed
    /// entry by entry in `Complex` arithmetic, against `|b|`.
    fn solve_and_check(
        (g, c): (&Triplets, &Triplets),
        omega: f64,
        transposed: bool,
        b: &[Complex],
    ) -> Result<(Vec<Complex>, SolveQuality), Error> {
        let mut x = b.to_vec();
        let quality = solve_fresh((g, c), omega, transposed, &mut x)?;
        let mut r = b.to_vec();
        let entries = g
            .entries()
            .iter()
            .map(|&(row, col, v)| (row, col, Complex::real(v)));
        let entries = entries.chain(
            c.entries()
                .iter()
                .map(|&(row, col, v)| (row, col, Complex::imag(omega * v))),
        );
        for (row, col, a) in entries {
            let (row, col) = if transposed { (col, row) } else { (row, col) };
            r[row] = r[row] - a * x[col];
        }
        let b_inf = b.iter().fold(0.0f64, |m, z| m.max(z.abs()));
        for (k, rk) in r.iter().enumerate() {
            assert!(rk.abs() <= 1e-12 * b_inf, "residual {rk:?} in row {k}");
        }
        Ok((x, quality))
    }

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn solves_complex_2x2() {
        // (1+j)x + y = 2;  x + (1-j)y = 0, at ω = 1.
        let (g, c) = system(
            2,
            &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)],
            &[(0, 0, 1.0), (1, 1, -1.0)],
        );
        let b = [Complex::new(2.0, 0.0), Complex::ZERO];
        let (x, _) = solve_and_check((&g, &c), 1.0, false, &b).unwrap();
        // x = 2(1−j)/((1+j)(1−j) − 1) = 2 − 2j, y = −x/(1−j) = −2.
        assert!(close(x[0], Complex::new(2.0, -2.0)), "{x:?}");
        assert!(close(x[1], Complex::real(-2.0)), "{x:?}");
    }

    #[test]
    fn solves_the_transposed_system() {
        // Gᵀ and Cᵀ differ from G and C: (1+2j)x + 3y = 1; jx + 4y = j.
        let (g, c) = system(
            2,
            &[(0, 0, 1.0), (1, 0, 3.0), (1, 1, 4.0)],
            &[(0, 0, 2.0), (0, 1, 1.0)],
        );
        let b = [Complex::ONE, Complex::imag(1.0)];
        let (x, _) = solve_and_check((&g, &c), 1.0, true, &b).unwrap();
        let (y, _) = solve_and_check((&g, &c), 1.0, false, &b).unwrap();
        assert!(!close(x[0], y[0]), "the transpose solved the same system");
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let (g, c) = system(2, &[(0, 1, 2.0), (1, 0, 1.0)], &[]);
        let b = [Complex::real(4.0), Complex::real(3.0)];
        let (x, _) = solve_and_check((&g, &c), 1.0, false, &b).unwrap();
        assert!(close(x[0], Complex::real(3.0)), "{x:?}");
        assert!(close(x[1], Complex::real(2.0)), "{x:?}");
    }

    #[test]
    fn detects_singular() {
        let (g, c) = system(2, &[(0, 0, 1.0), (1, 0, 1.0)], &[]);
        let mut x = [Complex::ONE, Complex::ONE];
        let res = solve_fresh((&g, &c), 1.0, false, &mut x);
        assert!(matches!(res, Err(Error::SingularMatrix { .. })), "{res:?}");
    }

    #[test]
    fn healthy_solve_reports_tiny_backward_error() {
        let (g, c) = system(
            2,
            &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)],
            &[(0, 0, 1.0), (1, 1, -1.0)],
        );
        let b = [Complex::new(2.0, 0.0), Complex::ZERO];
        let (_, q) = solve_and_check((&g, &c), 1.0, false, &b).unwrap();
        assert_eq!(q.refinement_steps, 0);
        assert!(q.backward_error < 1e-12, "{}", q.backward_error);
    }

    #[test]
    fn perturbed_factorization_fails_certification() {
        let mut g = vec![(0, 1, 1.0), (2, 0, 0.5)];
        g.extend((0..3).map(|i| (i, i, 4.0)));
        let (g, c) = system(
            3,
            &g,
            &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (1, 2, -1.0)],
        );
        let mut x = [Complex::ONE; 3];
        let err = crate::chaos::with_failpoints("lu.perturb", || {
            solve_fresh((&g, &c), 1.0, false, &mut x).unwrap_err()
        });
        assert!(err.is_untrusted_solution(), "{err:?}");
    }

    /// An RC ladder of `sections` with an inductor to a resistive load on
    /// every fifth rung, driven by `V1`.
    fn rlc_ladder(sections: usize) -> Circuit {
        let gnd = Netlist::GROUND;
        let mut nl = Netlist::new();
        let mut prev = nl.node("n0");
        nl.vdc("V1", prev, gnd, 1.0).unwrap();
        for k in 1..=sections {
            let node = nl.node(&format!("n{k}"));
            nl.resistor(&format!("R{k}"), prev, node, 100.0).unwrap();
            nl.capacitor(&format!("C{k}"), node, gnd, 1.0e-12).unwrap();
            if k % 5 == 0 {
                let tap = nl.node(&format!("t{k}"));
                nl.inductor(&format!("L{k}"), node, tap, 1.0e-9).unwrap();
                nl.resistor(&format!("RT{k}"), tap, gnd, 1.0e3).unwrap();
            }
            prev = node;
        }
        nl.compile().unwrap()
    }

    /// One compiled system on one solver, swept over frequencies in both
    /// orientations, returns at every ω what a fresh system on a fresh
    /// solver returns, bit for bit: as slots, with the dense plans replayed
    /// (2n ≤ `DENSE_CUTOFF`) or on the sparse kernel (2n > `DENSE_CUTOFF`).
    #[test]
    fn compiled_system_matches_a_fresh_one_at_every_frequency() {
        use crate::analysis::dc::operating_point;
        use crate::linalg::DENSE_CUTOFF;
        let bits = |x: &[Complex]| {
            x.iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect::<Vec<_>>()
        };
        for (circuit, dense) in [(every_element(1.2, 50.0e-6), true), (rlc_ladder(80), false)] {
            let dim = circuit.dim();
            assert_eq!(2 * dim <= DENSE_CUTOFF, dense, "dimension {dim}");
            let x_op = operating_point(&circuit, &DcOptions::default())
                .unwrap()
                .into_unknowns();
            let mut assembler = Assembler::new(&circuit);
            let (g, c) = linearized_matrices(&circuit, &mut assembler, &x_op, 1.0e-12);
            let b: Vec<Complex> = (0..dim)
                .map(|i| Complex::new((i as f64 * 0.7).cos(), (i as f64 * 0.3).sin()))
                .collect();
            for transposed in [false, true] {
                let (mut solver, mut system, owner) =
                    (AutoSolver::new(), Triplets::default(), fresh_id());
                let mut id = None;
                for f in [1.0e3, 1.0e4, 1.0e5, 1.0e6, 1.0e8, 1.0e10] {
                    let omega = 2.0 * std::f64::consts::PI * f;
                    let (mut x, mut fresh) = (b.clone(), b.clone());
                    let quality = solve_complex(
                        (&mut solver, &mut system),
                        owner,
                        (&g, &c),
                        omega,
                        transposed,
                        &mut x,
                    )
                    .unwrap();
                    let fresh_quality =
                        solve_fresh((&g, &c), omega, transposed, &mut fresh).unwrap();
                    let label = format!("dim {dim}, transposed {transposed}, {f:e} Hz");
                    assert_eq!(bits(&x), bits(&fresh), "{label}");
                    assert_eq!(quality, fresh_quality, "{label}");
                    assert!(system.slots().is_some(), "{label}");
                    assert!(
                        id.is_none() || system.program_id() == id,
                        "{label}: recompiled"
                    );
                    id = system.program_id();
                }
                if dense {
                    assert!(solver.stats().refactors > 0, "no dense plan was replayed");
                }
            }
        }
    }

    #[test]
    fn decade_grid() {
        let f = decade_freqs(1.0e3, 1.0e6, 10);
        assert_eq!(f.len(), 31);
        assert!((f[0] - 1.0e3).abs() < 1e-9);
        assert!((f[30] - 1.0e6).abs() < 1e-3);
        assert!(decade_freqs(0.0, 1.0, 10).is_empty());
    }
}
