//! Modified nodal analysis: device stamps shared by the DC and transient
//! engines.
//!
//! The assembler produces, for a given iterate `x`, the linearized system
//! `A·x_new = b` in SPICE's companion-model form: each nonlinear device is
//! replaced by its tangent conductances plus a constant current source,
//! each charge-storage element by the conductance/current companion of the
//! active integration method. Junction-voltage limiting (`pnjlim`) is
//! applied inside the assembly so the Newton loop above stays generic.

use crate::devices::{pnjlim, BjtEval, BjtModel};
use crate::linalg::{fresh_id, AutoSolver, ProgramKey, Triplets};
use crate::netlist::{Circuit, Element, NodeId};
use crate::VT_300K;

/// Reusable scratch for the assemble–solve inner loop: the linear solver
/// (with its compiled slot maps and factorization pattern), the stamp
/// program, and the right-hand-side vector.
///
/// The assembler compiles the stamp program once per mode pattern and
/// then rewrites its values; the solver compiles the program's keys once
/// per program id and then refactors. Both caches pay off when *one*
/// workspace goes through consecutive solves of the same circuit: every
/// rung of the DC recovery ladder, every Newton iteration of a transient
/// run, every point of a source sweep, or every corner a sweep worker
/// processes. A new assembler recompiles the program under a new id, and
/// the solver keeps its caches when the keys are unchanged.
#[derive(Debug)]
pub struct SolveWorkspace {
    /// Linear solver: dense up to
    /// [`DENSE_CUTOFF`](crate::linalg::DENSE_CUTOFF) unknowns, which
    /// covers every paper circuit, and sparse above.
    pub solver: AutoSolver,
    /// Stamp program reused across assemblies.
    pub triplets: Triplets,
    /// Right-hand side on entry to a solve, solution on exit.
    pub rhs: Vec<f64>,
}

impl Default for SolveWorkspace {
    fn default() -> Self {
        Self::new(0)
    }
}

impl SolveWorkspace {
    /// Creates a workspace sized for a `dim`-unknown system.
    pub fn new(dim: usize) -> Self {
        Self {
            solver: AutoSolver::new(),
            triplets: Triplets::new(dim),
            rhs: Vec::with_capacity(dim),
        }
    }

    /// Creates a workspace sized for `circuit`.
    pub fn for_circuit(circuit: &Circuit) -> Self {
        Self::new(circuit.dim())
    }
}

/// Numerical integration method for charge-storage elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// First-order implicit Euler — L-stable, used right after breakpoints.
    BackwardEuler,
    /// Second-order trapezoidal rule — the default workhorse.
    #[default]
    Trapezoidal,
}

/// How charge-storage elements are treated during one assembly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Integration {
    /// DC: capacitors open, inductors short.
    Dc,
    /// Transient step of size `h` ending at the assembly's `time`.
    Step {
        /// Integration method for this step.
        method: Method,
        /// Step size, seconds.
        h: f64,
    },
}

/// Assembly-time context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalMode {
    /// Charge treatment.
    pub integ: Integration,
    /// Absolute time at the end of the step (sources are evaluated here).
    pub time: f64,
    /// Conductance added from every node to ground for convergence aid.
    pub gmin: f64,
    /// Scale factor on independent sources (source-stepping homotopy).
    pub source_scale: f64,
}

impl EvalMode {
    /// DC assembly at full source strength.
    pub fn dc(gmin: f64) -> Self {
        Self {
            integ: Integration::Dc,
            time: 0.0,
            gmin,
            source_scale: 1.0,
        }
    }
}

/// Committed state of one charge-storage site (capacitor, junction, or the
/// flux/voltage pair of an inductor).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChargeState {
    /// Stored charge (or flux for inductors), coulombs (webers).
    pub q: f64,
    /// Branch current (or branch voltage for inductors) at the last
    /// accepted time point.
    pub i: f64,
}

/// Per-circuit assembler holding device state between iterations/steps.
#[derive(Debug)]
pub struct Assembler<'c> {
    circuit: &'c Circuit,
    n_nodes: usize,
    /// Branch unknown index per element (usize::MAX = none).
    branch_index: Vec<usize>,
    /// Committed charge states (last accepted step).
    charges: Vec<ChargeState>,
    /// Scratch charge states (current Newton iterate).
    scratch: Vec<ChargeState>,
    charge_offset: Vec<usize>,
    /// Junction voltages from the previous Newton iteration (limiting).
    junctions: Vec<f64>,
    junction_offset: Vec<usize>,
    /// Limiting voltage (`vcrit`) per element; zero for elements without
    /// a junction.
    vcrit: Vec<f64>,
    /// Whether the last assembly clamped any junction voltage.
    limited: bool,
    /// Owner id of the stamp programs this assembler compiles.
    program_owner: u64,
}

fn charge_slots(e: &Element) -> usize {
    match e {
        Element::Capacitor { .. } | Element::Inductor { .. } | Element::Diode { .. } => 1,
        Element::Bjt { .. } => 2,
        _ => 0,
    }
}

fn junction_slots(e: &Element) -> usize {
    match e {
        Element::Diode { .. } => 1,
        Element::Bjt { .. } => 2,
        _ => 0,
    }
}

/// Voltage of `node` in the unknown vector (`0.0` for ground).
#[inline]
fn v_of(x: &[f64], node: NodeId) -> f64 {
    match node.unknown() {
        Some(i) => x[i],
        None => 0.0,
    }
}

impl<'c> Assembler<'c> {
    /// Creates an assembler with zeroed device state.
    pub fn new(circuit: &'c Circuit) -> Self {
        let n_nodes = circuit.node_unknowns();
        let elements = circuit.element_slice();
        let mut branch_index = vec![usize::MAX; elements.len()];
        for (b, &e_idx) in circuit.branch_elements().iter().enumerate() {
            branch_index[e_idx] = n_nodes + b;
        }
        let mut charge_offset = Vec::with_capacity(elements.len());
        let mut junction_offset = Vec::with_capacity(elements.len());
        let mut vcrit = Vec::with_capacity(elements.len());
        let mut n_charges = 0;
        let mut n_junctions = 0;
        for (_, e) in elements {
            charge_offset.push(n_charges);
            junction_offset.push(n_junctions);
            n_charges += charge_slots(e);
            n_junctions += junction_slots(e);
            vcrit.push(match e {
                Element::Diode { model, .. } => model.vcrit(),
                Element::Bjt { model, .. } => model.vcrit(),
                _ => 0.0,
            });
        }
        Self {
            circuit,
            n_nodes,
            branch_index,
            charges: vec![ChargeState::default(); n_charges],
            scratch: vec![ChargeState::default(); n_charges],
            charge_offset,
            junction_offset,
            junctions: vec![0.0; n_junctions],
            vcrit,
            limited: false,
            program_owner: fresh_id(),
        }
    }

    /// The circuit being assembled.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// The branch-current unknown of element `e_idx` (voltage sources,
    /// inductors and VCVSs have one).
    pub(crate) fn branch_unknown(&self, e_idx: usize) -> usize {
        self.branch_index[e_idx]
    }

    /// Whether the previous [`assemble`](Self::assemble) call clamped any
    /// junction voltage (convergence must not be declared on such an
    /// iteration).
    pub fn was_limited(&self) -> bool {
        self.limited
    }

    /// Accepts the scratch charge states computed by the last assembly as
    /// the committed state (call when a timestep is accepted).
    pub fn commit_charges(&mut self) {
        self.charges.copy_from_slice(&self.scratch);
    }

    /// Moves every committed charge by the change its device equation
    /// gives between the unknowns `from` and `to`, keeping its charging
    /// current: a charge whose terminals did not move stays, and the
    /// charges stay consistent with the moved unknowns.
    pub(crate) fn advance_charges(&mut self, from: &[f64], to: &[f64]) {
        let (before, after) = (self.charges_at(from), self.charges_at(to));
        for ((c, q0), q1) in self.charges.iter_mut().zip(before).zip(after) {
            c.q += q1 - q0;
        }
    }

    /// Initializes committed charge states from a converged DC solution
    /// (zero charging currents — steady state).
    pub fn init_charges(&mut self, x: &[f64]) {
        let charges = self.charges_at(x);
        for (c, q) in self.charges.iter_mut().zip(charges) {
            *c = ChargeState { q, i: 0.0 };
        }
        self.reset_junctions(x);
    }

    /// The charge of every charge-storage site at the unknowns `x`.
    fn charges_at(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.charges.len()];
        for (e_idx, (_, element)) in self.circuit.element_slice().iter().enumerate() {
            let off = self.charge_offset[e_idx];
            match element {
                Element::Capacitor { p, n, value } => {
                    let v = v_of(x, *p) - v_of(x, *n);
                    out[off] = value * v;
                }
                Element::Inductor { value, .. } => {
                    out[off] = value * x[self.branch_index[e_idx]];
                }
                Element::Diode {
                    anode,
                    cathode,
                    model,
                } => {
                    let vd = v_of(x, *anode) - v_of(x, *cathode);
                    out[off] = model.eval(vd).q;
                }
                Element::Bjt {
                    collector,
                    base,
                    emitter,
                    model,
                } => {
                    let s = model.polarity.sign();
                    let vbe = s * (v_of(x, *base) - v_of(x, *emitter));
                    let vbc = s * (v_of(x, *base) - v_of(x, *collector));
                    let eval = model.eval(vbe, vbc);
                    out[off] = eval.qbe;
                    out[off + 1] = eval.qbc;
                }
                _ => {}
            }
        }
        out
    }

    /// Seeds the junction-limiting memory from an unknown vector.
    pub fn reset_junctions(&mut self, x: &[f64]) {
        for (e_idx, (_, element)) in self.circuit.element_slice().iter().enumerate() {
            let off = self.junction_offset[e_idx];
            match element {
                Element::Diode { anode, cathode, .. } => {
                    self.junctions[off] = v_of(x, *anode) - v_of(x, *cathode);
                }
                Element::Bjt {
                    collector,
                    base,
                    emitter,
                    model,
                } => {
                    let s = model.polarity.sign();
                    self.junctions[off] = s * (v_of(x, *base) - v_of(x, *emitter));
                    self.junctions[off + 1] = s * (v_of(x, *base) - v_of(x, *collector));
                }
                _ => {}
            }
        }
    }

    /// Assembles `A·x_new = b` linearized at `x` into `triplets`/`rhs`.
    ///
    /// The first assembly of a mode pattern into `triplets` compiles the
    /// stamp program (see [`Triplets`]); later ones rewrite its values.
    pub fn assemble(
        &mut self,
        x: &[f64],
        mode: &EvalMode,
        triplets: &mut Triplets,
        rhs: &mut Vec<f64>,
    ) {
        self.assemble_with_ptran(x, mode, None, triplets, rhs);
    }

    /// [`assemble`](Self::assemble), plus the pseudo-transient conductance
    /// `ptran_g` on every node diagonal after the device stamps when
    /// given. The diagonal is part of the mode pattern, so switching it on
    /// or off recompiles the program.
    pub(crate) fn assemble_with_ptran(
        &mut self,
        x: &[f64],
        mode: &EvalMode,
        ptran_g: Option<f64>,
        triplets: &mut Triplets,
        rhs: &mut Vec<f64>,
    ) {
        let dim = self.circuit.dim();
        // The mode pattern: everything about the mode that changes which
        // keys the stamps emit.
        let pattern = u8::from(mode.gmin > 0.0)
            | u8::from(matches!(mode.integ, Integration::Step { .. })) << 1
            | u8::from(ptran_g.is_some()) << 2;
        triplets.open(
            dim,
            ProgramKey {
                owner: self.program_owner,
                pattern,
            },
        );
        rhs.clear();
        rhs.resize(dim, 0.0);
        self.limited = false;

        // gmin from every node to ground.
        if mode.gmin > 0.0 {
            triplets.stamp_diagonal(self.n_nodes, mode.gmin);
        }

        for (e_idx, (_, element)) in self.circuit.element_slice().iter().enumerate() {
            match element {
                Element::Resistor { p, n, value } => {
                    stamp_conductance(triplets, *p, *n, 1.0 / value);
                }
                Element::Capacitor { p, n, value } => {
                    if let Integration::Step { method, h } = mode.integ {
                        let v = v_of(x, *p) - v_of(x, *n);
                        let off = self.charge_offset[e_idx];
                        let old = self.charges[off];
                        let new = stamp_charge(
                            triplets,
                            rhs,
                            *p,
                            *n,
                            value * v,
                            *value,
                            v,
                            old,
                            method,
                            h,
                        );
                        self.scratch[off] = new;
                    }
                }
                Element::Inductor { p, n, value } => {
                    let branch = self.branch_index[e_idx];
                    // Branch current unknown i; KCL coupling.
                    stamp_branch_kcl(triplets, *p, *n, branch);
                    match mode.integ {
                        Integration::Dc => {
                            // Short: v_p - v_n = 0.
                            stamp_branch_voltage(triplets, *p, *n, branch);
                        }
                        Integration::Step { method, h } => {
                            // v = L di/dt companion.
                            stamp_branch_voltage(triplets, *p, *n, branch);
                            let off = self.charge_offset[e_idx];
                            let old = self.charges[off];
                            let i_now = x[branch];
                            match method {
                                Method::BackwardEuler => {
                                    // v - (L/h)·i = -(L/h)·i_old
                                    let leq = value / h;
                                    triplets.stamps([(Some(branch), Some(branch))], [-leq]);
                                    rhs[branch] = -leq * old.q / value;
                                }
                                Method::Trapezoidal => {
                                    // v - (2L/h)·i = -(2L/h)·i_old - v_old
                                    let leq = 2.0 * value / h;
                                    triplets.stamps([(Some(branch), Some(branch))], [-leq]);
                                    rhs[branch] = -leq * old.q / value - old.i;
                                }
                            }
                            // Track flux and branch voltage for the next step.
                            let v_now = v_of(x, *p) - v_of(x, *n);
                            self.scratch[off] = ChargeState {
                                q: value * i_now,
                                i: v_now,
                            };
                        }
                    }
                }
                Element::VoltageSource { p, n, wave } => {
                    let branch = self.branch_index[e_idx];
                    stamp_branch_kcl(triplets, *p, *n, branch);
                    stamp_branch_voltage(triplets, *p, *n, branch);
                    rhs[branch] = mode.source_scale * wave.value_at(mode.time);
                }
                Element::CurrentSource { p, n, wave } => {
                    let i = mode.source_scale * wave.value_at(mode.time);
                    stamp_current(rhs, *p, *n, i);
                }
                Element::Diode {
                    anode,
                    cathode,
                    model,
                } => {
                    let j_off = self.junction_offset[e_idx];
                    let vd_raw = v_of(x, *anode) - v_of(x, *cathode);
                    let vcrit = self.vcrit[e_idx];
                    let vd = self.limit_junction(j_off, vd_raw, vcrit, model.n * VT_300K);
                    let eval = model.eval(vd);
                    stamp_conductance(triplets, *anode, *cathode, eval.gd);
                    stamp_current(rhs, *anode, *cathode, eval.id - eval.gd * vd);
                    if let Integration::Step { method, h } = mode.integ {
                        let off = self.charge_offset[e_idx];
                        let old = self.charges[off];
                        let new = stamp_charge(
                            triplets, rhs, *anode, *cathode, eval.q, eval.c, vd, old, method, h,
                        );
                        self.scratch[off] = new;
                    }
                }
                Element::Bjt {
                    collector,
                    base,
                    emitter,
                    model,
                } => {
                    let s = model.polarity.sign();
                    let j_off = self.junction_offset[e_idx];
                    let vcrit = self.vcrit[e_idx];
                    let vbe_raw = s * (v_of(x, *base) - v_of(x, *emitter));
                    let vbc_raw = s * (v_of(x, *base) - v_of(x, *collector));
                    let vbe = self.limit_junction(j_off, vbe_raw, vcrit, VT_300K);
                    let vbc = self.limit_junction(j_off + 1, vbc_raw, vcrit, VT_300K);
                    let eval = model.eval(vbe, vbc);
                    self.stamp_bjt(
                        mode, triplets, rhs, e_idx, *collector, *base, *emitter, model, vbe, vbc,
                        eval,
                    );
                }
                Element::Vcvs { p, n, cp, cn, gain } => {
                    let branch = self.branch_index[e_idx];
                    stamp_branch_kcl(triplets, *p, *n, branch);
                    // Constitutive row: v_p − v_n − gain·(v_cp − v_cn) = 0.
                    stamp_branch_voltage(triplets, *p, *n, branch);
                    triplets.stamps(
                        [(Some(branch), cp.unknown()), (Some(branch), cn.unknown())],
                        [-gain, *gain],
                    );
                }
                Element::Vccs { p, n, cp, cn, gm } => {
                    // Current gm·(v_cp − v_cn) leaves node p, enters n.
                    let (p, n) = (p.unknown(), n.unknown());
                    let (cp, cn) = (cp.unknown(), cn.unknown());
                    triplets.stamps([(p, cp), (p, cn), (n, cp), (n, cn)], [*gm, -gm, -gm, *gm]);
                }
            }
        }
        if let Some(g) = ptran_g {
            triplets.stamp_diagonal(self.n_nodes, g);
        }
        triplets.seal();
    }

    fn limit_junction(&mut self, slot: usize, v_raw: f64, vcrit: f64, vt: f64) -> f64 {
        let v_old = self.junctions[slot];
        let v_lim = pnjlim(v_raw, v_old, vt, vcrit);
        if (v_lim - v_raw).abs() > 1e-12 {
            self.limited = true;
        }
        self.junctions[slot] = v_lim;
        v_lim
    }

    /// Stamps one BJT from its limited junction voltages and its
    /// evaluation there.
    #[allow(clippy::too_many_arguments)]
    fn stamp_bjt(
        &mut self,
        mode: &EvalMode,
        triplets: &mut Triplets,
        rhs: &mut [f64],
        e_idx: usize,
        collector: NodeId,
        base: NodeId,
        emitter: NodeId,
        model: &BjtModel,
        vbe: f64,
        vbc: f64,
        eval: BjtEval,
    ) {
        let s = model.polarity.sign();

        // Actual terminal currents (current into each terminal is positive
        // out of the node for KCL): normalized → actual with polarity sign.
        let ic = s * eval.ic;
        let ib = s * eval.ib;
        // Partials of actual currents w.r.t. actual node voltages
        // (vc, vb, ve). The two sign reflections cancel: s²=1.
        // ic_actual = s·ic(s(vb-ve), s(vb-vc))
        let dic = [
            -eval.dic_dvbc,                // ∂/∂vc
            eval.dic_dvbe + eval.dic_dvbc, // ∂/∂vb
            -eval.dic_dvbe,                // ∂/∂ve
        ];
        let dib = [
            -eval.dib_dvbc,
            eval.dib_dvbe + eval.dib_dvbc,
            -eval.dib_dvbe,
        ];
        let nodes = [collector, base, emitter];

        // Companion constants are formed in *junction* space around the
        // limited voltages, so the expansion point is exactly where the
        // device was evaluated (this matters whenever pnjlim clamps):
        // i(v) ≈ i(v_lim) + J·(v_junction − v_lim).
        let const_c = ic - s * (eval.dic_dvbe * vbe + eval.dic_dvbc * vbc);
        let const_b = ib - s * (eval.dib_dvbe * vbe + eval.dib_dvbc * vbc);

        // Rows: collector current leaves the collector node, etc.; the
        // emitter row is minus the sum of the other two (KCL inside the
        // device).
        let rows: [(NodeId, f64, [f64; 3]); 3] = [
            (collector, const_c, dic),
            (base, const_b, dib),
            (
                emitter,
                -(const_c + const_b),
                [-(dic[0] + dib[0]), -(dic[1] + dib[1]), -(dic[2] + dib[2])],
            ),
        ];
        let cols = nodes.map(NodeId::unknown);
        let mut keys = [(None, None); 9];
        let mut values = [0.0; 9];
        for (r, (row_node, i_const, partials)) in rows.into_iter().enumerate() {
            let row = row_node.unknown();
            for k in 0..3 {
                keys[3 * r + k] = (row, cols[k]);
                values[3 * r + k] = partials[k];
            }
            if let Some(row) = row {
                rhs[row] -= i_const;
            }
        }
        triplets.stamps(keys, values);

        if let Integration::Step { method, h } = mode.integ {
            let off = self.charge_offset[e_idx];
            // qbe between base and emitter; for PNP the actual charge and
            // branch voltage are both reflected, so the companion is the
            // same with actual charge s·q and actual voltage s·v. The
            // limited junction voltage is used as the expansion point,
            // consistent with the current companion above.
            let vbe_actual = s * vbe;
            let old_be = self.charges[off];
            let new_be = stamp_charge(
                triplets,
                rhs,
                base,
                emitter,
                s * eval.qbe,
                eval.cbe,
                vbe_actual,
                old_be,
                method,
                h,
            );
            self.scratch[off] = new_be;
            let vbc_actual = s * vbc;
            let old_bc = self.charges[off + 1];
            let new_bc = stamp_charge(
                triplets,
                rhs,
                base,
                collector,
                s * eval.qbc,
                eval.cbc,
                vbc_actual,
                old_bc,
                method,
                h,
            );
            self.scratch[off + 1] = new_bc;
        }
    }
}

/// Stamps a conductance `g` between `p` and `n`.
pub(crate) fn stamp_conductance(triplets: &mut Triplets, p: NodeId, n: NodeId, g: f64) {
    let (i, j) = (p.unknown(), n.unknown());
    triplets.stamps([(i, i), (j, j), (i, j), (j, i)], [g, g, -g, -g]);
}

/// Stamps a constant current `i` flowing from `p` to `n` *through the
/// device* (i.e. leaving node `p`).
fn stamp_current(rhs: &mut [f64], p: NodeId, n: NodeId, i: f64) {
    if let Some(k) = p.unknown() {
        rhs[k] -= i;
    }
    if let Some(k) = n.unknown() {
        rhs[k] += i;
    }
}

/// Couples a branch current into the KCL rows of its terminal nodes
/// (current flows from `p` through the element to `n`).
fn stamp_branch_kcl(triplets: &mut Triplets, p: NodeId, n: NodeId, branch: usize) {
    triplets.stamps(
        [(p.unknown(), Some(branch)), (n.unknown(), Some(branch))],
        [1.0, -1.0],
    );
}

/// Writes the `v_p − v_n` part of a branch constitutive row.
fn stamp_branch_voltage(triplets: &mut Triplets, p: NodeId, n: NodeId, branch: usize) {
    triplets.stamps(
        [(Some(branch), p.unknown()), (Some(branch), n.unknown())],
        [1.0, -1.0],
    );
}

/// Stamps the integration companion of a charge-storage branch between `p`
/// and `n` and returns the scratch state (charge and branch current at the
/// current iterate).
#[allow(clippy::too_many_arguments)]
fn stamp_charge(
    triplets: &mut Triplets,
    rhs: &mut [f64],
    p: NodeId,
    n: NodeId,
    q_new: f64,
    c_new: f64,
    v_now: f64,
    old: ChargeState,
    method: Method,
    h: f64,
) -> ChargeState {
    let (geq, i_now) = match method {
        Method::BackwardEuler => (c_new / h, (q_new - old.q) / h),
        Method::Trapezoidal => (2.0 * c_new / h, 2.0 * (q_new - old.q) / h - old.i),
    };
    stamp_conductance(triplets, p, n, geq);
    stamp_current(rhs, p, n, i_now - geq * v_now);
    ChargeState { q: q_new, i: i_now }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::{AutoSolver, Solver};
    use crate::netlist::Netlist;

    fn solve_linear_dc(circuit: &Circuit) -> Vec<f64> {
        let mut asm = Assembler::new(circuit);
        let x = vec![0.0; circuit.dim()];
        let mut t = Triplets::new(circuit.dim());
        let mut rhs = Vec::new();
        asm.assemble(&x, &EvalMode::dc(1e-12), &mut t, &mut rhs);
        AutoSolver::new().solve_in_place(&t, &mut rhs).unwrap();
        rhs
    }

    #[test]
    fn divider_solves_in_one_linear_step() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.vdc("V1", vin, Netlist::GROUND, 3.0).unwrap();
        nl.resistor("R1", vin, out, 1.0e3).unwrap();
        nl.resistor("R2", out, Netlist::GROUND, 2.0e3).unwrap();
        let c = nl.compile().unwrap();
        let x = solve_linear_dc(&c);
        let out_idx = out.unknown().unwrap();
        assert!((x[out_idx] - 2.0).abs() < 1e-6);
        // Branch current of V1: (3 V over 3 kΩ) flowing out of the source.
        let branch = c.node_unknowns();
        assert!((x[branch] + 1.0e-3).abs() < 1e-6, "i = {}", x[branch]);
    }

    #[test]
    fn current_source_direction() {
        // 1 mA pushed into node a (p = ground, n = a) across 1 kΩ → +1 V.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.idc("I1", Netlist::GROUND, a, 1.0e-3).unwrap();
        nl.resistor("R1", a, Netlist::GROUND, 1.0e3).unwrap();
        let c = nl.compile().unwrap();
        let x = solve_linear_dc(&c);
        assert!((x[a.unknown().unwrap()] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn capacitor_is_open_in_dc() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vdc("V1", a, Netlist::GROUND, 1.0).unwrap();
        nl.capacitor("C1", a, b, 1e-12).unwrap();
        nl.resistor("R1", b, Netlist::GROUND, 1.0e3).unwrap();
        let c = nl.compile().unwrap();
        let x = solve_linear_dc(&c);
        // b floats to ground through R1 (gmin keeps it defined).
        assert!(x[b.unknown().unwrap()].abs() < 1e-6);
    }

    #[test]
    fn inductor_is_short_in_dc() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vdc("V1", a, Netlist::GROUND, 2.0).unwrap();
        nl.inductor("L1", a, b, 1e-9).unwrap();
        nl.resistor("R1", b, Netlist::GROUND, 1.0e3).unwrap();
        let c = nl.compile().unwrap();
        let x = solve_linear_dc(&c);
        assert!((x[b.unknown().unwrap()] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn charge_companion_backward_euler() {
        // RC step response check of the companion algebra: one BE step.
        // v_c(h) for R=1k, C=1n, V=1: v = V·(1 - 1/(1 + h/RC)) for BE.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vdc("V1", a, Netlist::GROUND, 1.0).unwrap();
        nl.resistor("R1", a, b, 1.0e3).unwrap();
        nl.capacitor("C1", b, Netlist::GROUND, 1.0e-9).unwrap();
        let c = nl.compile().unwrap();
        let mut asm = Assembler::new(&c);
        // Start from uncharged capacitor.
        let x0 = vec![0.0; c.dim()];
        asm.init_charges(&x0);
        let h = 1.0e-6;
        let mode = EvalMode {
            integ: Integration::Step {
                method: Method::BackwardEuler,
                h,
            },
            time: h,
            gmin: 1e-12,
            source_scale: 1.0,
        };
        // The step is linear, so one Newton iteration is exact.
        let mut t = Triplets::new(c.dim());
        let mut rhs = Vec::new();
        asm.assemble(&x0, &mode, &mut t, &mut rhs);
        AutoSolver::new().solve_in_place(&t, &mut rhs).unwrap();
        let vb = rhs[b.unknown().unwrap()];
        let rc = 1.0e3 * 1.0e-9;
        let expected = 1.0 - 1.0 / (1.0 + h / rc);
        assert!(
            (vb - expected).abs() < 1e-9,
            "vb = {vb}, expected {expected}"
        );
    }

    #[test]
    fn pseudo_transient_diagonal_is_its_own_program() {
        // DC, pseudo-transient steps of falling g, a polish, and back: the
        // replayed program matches a fresh assembly bit for bit and
        // recompiles exactly when the diagonal switches on or off.
        let mut nl = Netlist::new();
        let vcc = nl.node("vcc");
        let b = nl.node("b");
        let e = nl.node("e");
        nl.vdc("VCC", vcc, Netlist::GROUND, 3.3).unwrap();
        nl.resistor("RB", vcc, b, 10.0e3).unwrap();
        nl.bjt("Q1", vcc, b, e, BjtModel::fast_npn()).unwrap();
        nl.resistor("RE", e, Netlist::GROUND, 1.0e3).unwrap();
        let c = nl.compile().unwrap();
        let mut asm = Assembler::new(&c);
        let mut program = Triplets::new(c.dim());
        let mut rhs = Vec::new();
        let mode = EvalMode::dc(1e-12);
        let mut previous: Option<(Option<f64>, u64)> = None;
        for (round, g) in [None, Some(1.0), Some(0.25), None, Some(1e-3), Some(1e-4)]
            .into_iter()
            .enumerate()
        {
            let x: Vec<f64> = (0..c.dim()).map(|i| 0.1 * (i + round) as f64).collect();
            asm.reset_junctions(&x);
            let mut fresh = Triplets::new(c.dim());
            let mut fresh_rhs = Vec::new();
            asm.assemble_with_ptran(&x, &mode, g, &mut fresh, &mut fresh_rhs);
            asm.reset_junctions(&x);
            asm.assemble_with_ptran(&x, &mode, g, &mut program, &mut rhs);
            let bits = |t: &Triplets| {
                t.entries()
                    .iter()
                    .map(|&(r, c, v)| (r, c, v.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&program), bits(&fresh), "round {round}");
            assert_eq!(rhs, fresh_rhs, "round {round}");
            let id = program.program_id().expect("sealed");
            if let Some((prev_g, prev_id)) = previous {
                assert_eq!(
                    id == prev_id,
                    prev_g.is_some() == g.is_some(),
                    "round {round}"
                );
            }
            previous = Some((g, id));
        }
    }

    #[test]
    fn bjt_emitter_follower_dc_stamp_is_consistent() {
        // One NR iteration from a good initial guess must keep KCL residual
        // small: check A·x - b ≈ 0 at the solution-ish point by iterating.
        let mut nl = Netlist::new();
        let vcc = nl.node("vcc");
        let b = nl.node("b");
        let e = nl.node("e");
        nl.vdc("VCC", vcc, Netlist::GROUND, 3.3).unwrap();
        nl.vdc("VB", b, Netlist::GROUND, 1.5).unwrap();
        nl.bjt("Q1", vcc, b, e, BjtModel::fast_npn()).unwrap();
        nl.resistor("RE", e, Netlist::GROUND, 1.0e3).unwrap();
        let c = nl.compile().unwrap();
        let mut asm = Assembler::new(&c);
        let mut x = vec![0.0; c.dim()];
        let mut t = Triplets::new(c.dim());
        let mut rhs = Vec::new();
        let mut solver = AutoSolver::new();
        for _ in 0..100 {
            asm.assemble(&x, &EvalMode::dc(1e-12), &mut t, &mut rhs);
            solver.solve_in_place(&t, &mut rhs).unwrap();
            x.copy_from_slice(&rhs);
        }
        let ve = x[e.unknown().unwrap()];
        // Emitter sits one VBE below the base; RE carries ~0.6 mA.
        assert!(
            (0.5..0.75).contains(&ve),
            "emitter follower output ve = {ve}"
        );
    }
}
