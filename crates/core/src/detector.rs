//! The three built-in detector variants (§6.1–§6.3, §6.5).

use cml_cells::{CmlCircuitBuilder, DiffPair};
use spicier::netlist::Netlist;
use spicier::{Error, NodeId};

/// The detector's output load network (§6.1): "a transistor with a diode
/// (or resistor)-capacitor parallel load network". The diode offers "a
/// relatively high dynamic resistance at low currents, while offering a
/// low dynamic resistance at high currents"; the paper notes the
/// resistor–capacitor alternative settles much more slowly (Figure 8 vs a
/// 160 kΩ resistor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorLoad {
    /// Diode-connected transistor in parallel with a capacitor.
    DiodeCap {
        /// Stabilizing capacitance, farads (the paper studies 1 pF and
        /// 10 pF).
        cap: f64,
    },
    /// Plain resistor in parallel with a capacitor (the paper's 160 kΩ
    /// alternative).
    ResistorCap {
        /// Load resistance, ohms.
        ohms: f64,
        /// Stabilizing capacitance, farads.
        cap: f64,
    },
}

impl DetectorLoad {
    /// Diode–capacitor load.
    pub fn diode_cap(cap: f64) -> Self {
        DetectorLoad::DiodeCap { cap }
    }

    /// Resistor–capacitor load (paper value: 160 kΩ).
    pub fn resistor_cap(ohms: f64, cap: f64) -> Self {
        DetectorLoad::ResistorCap { ohms, cap }
    }

    /// Wires the load between `supply` and `vout` using elements prefixed
    /// `inst` (the diode-connected transistor the paper calls Q5/Q6 is
    /// named `QLD` here to avoid clashing with the detector pair).
    fn attach(
        &self,
        b: &mut CmlCircuitBuilder,
        inst: &str,
        supply: NodeId,
        vout: NodeId,
    ) -> Result<(), Error> {
        let npn = b.process().npn;
        match *self {
            DetectorLoad::DiodeCap { cap } => {
                // Diode-connected transistor: collector and base at the
                // supply, emitter on vout (sources current into vout).
                b.netlist_mut()
                    .bjt(&format!("{inst}.QLD"), supply, supply, vout, npn)?;
                b.netlist_mut()
                    .capacitor(&format!("{inst}.C7"), supply, vout, cap)
            }
            DetectorLoad::ResistorCap { ohms, cap } => {
                b.netlist_mut()
                    .resistor(&format!("{inst}.RLD"), supply, vout, ohms)?;
                b.netlist_mut()
                    .capacitor(&format!("{inst}.C7"), supply, vout, cap)
            }
        }
    }

    /// Transistor count of this load (for overhead accounting).
    pub fn transistor_count(&self) -> usize {
        match self {
            DetectorLoad::DiodeCap { .. } => 1,
            DetectorLoad::ResistorCap { .. } => 0,
        }
    }
}

/// Whether the two detector transistors of variants 2/3 are drawn as two
/// devices or merged into one multiple-emitter transistor (§6.5, Figure
/// 15). Electrically the merged device behaves as two transistors sharing
/// base and collector, which is how every detector is simulated; only the
/// area accounting of [`crate::overhead::DftScheme`] differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MultiEmitterStyle {
    /// Two separate transistors (Figure 9).
    #[default]
    TwoTransistors,
    /// One transistor with two emitters (Figure 15).
    MergedEmitters,
}

impl MultiEmitterStyle {
    /// Transistors counted for area purposes.
    pub fn transistor_count(self) -> usize {
        match self {
            MultiEmitterStyle::TwoTransistors => 2,
            MultiEmitterStyle::MergedEmitters => 1,
        }
    }
}

/// Handle to an attached detector.
#[derive(Debug, Clone)]
pub struct DetectorHandle {
    /// Instance name (prefix of all detector element names).
    pub name: String,
    /// The detector output node (`vout` in the paper's figures): sits at
    /// the load supply when the monitored gate is healthy and is pulled
    /// down when an abnormal excursion occurs.
    pub vout: NodeId,
}

/// Variant 1 (§6.1, Figure 6): a **single-sided** detector.
///
/// Transistor Q4 has its base on `op` and its emitter on `opb`; whenever
/// `opb` goes lower than `op` by more than ≈ 0.57 V, Q4 conducts and sinks
/// current from the diode–capacitor load, pulling `vout` below `vgnd`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variant1 {
    /// Load network on `vout`.
    pub load: DetectorLoad,
}

impl Variant1 {
    /// Creates a variant-1 detector description.
    pub fn new(load: DetectorLoad) -> Self {
        Self { load }
    }

    /// Attaches the detector to a gate's output `pair`; `vout` is pulled
    /// low when `pair.n` drops more than one detector-VBE below `pair.p`.
    ///
    /// # Errors
    ///
    /// Fails on duplicate instance names.
    pub fn attach(
        &self,
        b: &mut CmlCircuitBuilder,
        inst: &str,
        pair: DiffPair,
    ) -> Result<DetectorHandle, Error> {
        let vout = b.node(&format!("{inst}.vout"));
        let vgnd = b.vgnd;
        let npn = b.process().npn;
        b.netlist_mut()
            .bjt(&format!("{inst}.Q4"), vout, pair.p, pair.n, npn)?;
        self.load.attach(b, inst, vgnd, vout)?;
        Ok(DetectorHandle {
            name: inst.to_string(),
            vout,
        })
    }
}

/// Variant 2 (§6.2, Figure 9): a **double-sided** detector with a
/// controlled base bias.
///
/// Both detector transistors have their bases on the test rail `vtest`
/// (= `vgnd` in normal mode, raised to ≈ 3.7 V in test mode for a
/// VBE = 900 mV technology) and their emitters on `op` / `opb`. Raising
/// `vtest` lets the detector respond to *any* output going below the
/// normal low level, cutting the detectable excursion to ≈ 0.35 V.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variant2 {
    /// Load network on `vout` (supplied from `vgnd` in this variant).
    pub load: DetectorLoad,
    /// Test-mode bias voltage on the detector bases.
    pub vtest: f64,
}

impl Variant2 {
    /// Creates a variant-2 detector with the given load and `vtest`.
    pub fn new(load: DetectorLoad, vtest: f64) -> Self {
        Self { load, vtest }
    }

    /// Sizes the test-mode bias for a target detectable amplitude: the
    /// detector transistor must reach a working forward bias (`i_on`,
    /// default 1 µA) exactly when the monitored output dips `amplitude`
    /// below the rail:
    ///
    /// ```text
    /// vtest = (vgnd − amplitude) + VBE(i_on)
    /// ```
    ///
    /// For the paper's process and its 0.35 V target this returns ≈ 3.7 V —
    /// the value §6.2 reports as "an excellent compromise for a
    /// VBE = 900 mV technology".
    pub fn vtest_for(process: &cml_cells::CmlProcess, amplitude: f64, i_on: f64) -> f64 {
        let vbe_on = process.npn.vbe_at(i_on);
        process.vgnd - amplitude + vbe_on
    }

    /// Attaches the detector; creates a dedicated `<inst>.vtest` rail with
    /// source `<inst>.VTEST`.
    ///
    /// # Errors
    ///
    /// Fails on duplicate instance names.
    pub fn attach(
        &self,
        b: &mut CmlCircuitBuilder,
        inst: &str,
        pair: DiffPair,
    ) -> Result<DetectorHandle, Error> {
        let vout = b.node(&format!("{inst}.vout"));
        let vtest = b.node(&format!("{inst}.vtest"));
        b.netlist_mut()
            .vdc(&format!("{inst}.VTEST"), vtest, Netlist::GROUND, self.vtest)?;
        attach_detector_pair(b, inst, pair, vtest, vout)?;
        let vgnd = b.vgnd;
        self.load.attach(b, inst, vgnd, vout)?;
        Ok(DetectorHandle {
            name: inst.to_string(),
            vout,
        })
    }
}

/// Adds the double-sided detector transistor pair: bases on `vtest`,
/// emitters on the monitored outputs, collectors on `vout`. With the
/// multiple-emitter optimization this is a single physical device; its
/// electrical model is identical.
pub(crate) fn attach_detector_pair(
    b: &mut CmlCircuitBuilder,
    inst: &str,
    pair: DiffPair,
    vtest: NodeId,
    vout: NodeId,
) -> Result<(), Error> {
    let npn = b.process().npn;
    b.netlist_mut()
        .bjt(&format!("{inst}.Q4"), vout, vtest, pair.p, npn)?;
    b.netlist_mut()
        .bjt(&format!("{inst}.Q5"), vout, vtest, pair.n, npn)
}

/// Variant 3 (§6.3, Figure 11): the production detector.
///
/// Adds to variant 2:
/// * the load cell supply pulled up to `vtest`, so it can source the
///   comparator's input bias current;
/// * a bleed resistor `R0` (paper: 40 kΩ) in parallel with the load diode,
///   dominating at low current so the fault-free droop stays linear;
/// * a CML comparator supplied from `vtest` whose complementary output
///   `vfb` is fed back as its own reference (positive feedback →
///   hysteresis, Figure 12);
/// * an emitter-follower level shifter back toward CML levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variant3 {
    /// Test rail voltage (paper: 3.7 V for VBE = 900 mV).
    pub vtest: f64,
    /// Bleed resistor in parallel with the load diode, ohms (paper: 40 kΩ).
    pub r0: f64,
    /// Load capacitor, farads.
    pub c0: f64,
    /// Comparator tail current, amperes.
    pub cmp_itail: f64,
    /// Comparator load resistance, ohms (sets the hysteresis width).
    pub cmp_rload: f64,
    /// `None` = positive feedback (`vfb` is the reference, §6.3's chosen
    /// design); `Some(v)` = a fixed reference voltage instead (the
    /// alternative §6.3 rejects because it halves the comparator's noise
    /// margin) — kept as an ablation.
    pub reference: Option<f64>,
}

impl Variant3 {
    /// Paper parameters: `vtest = 3.7 V`, `R0 = 40 kΩ`, `C0 = 10 pF`, and
    /// a comparator sized for a ≈ 150 mV swing at a 0.1 mA tail — small
    /// enough that its input bias current (≈ 1 µA through R0) leaves the
    /// fault-free `vout` above the hysteresis band.
    pub fn paper() -> Self {
        Self {
            vtest: 3.7,
            r0: 40.0e3,
            c0: 10.0e-12,
            cmp_itail: 0.1e-3,
            cmp_rload: 1.5e3,
            reference: None,
        }
    }

    /// Sets the bleed resistor.
    pub fn with_r0(mut self, r0: f64) -> Self {
        self.r0 = r0;
        self
    }

    /// Replaces the positive feedback with a fixed reference voltage
    /// (ablation of §6.3's feedback decision).
    pub fn with_fixed_reference(mut self, volts: f64) -> Self {
        self.reference = Some(volts);
        self
    }

    /// Attaches a complete variant-3 detector monitoring one output pair.
    ///
    /// # Errors
    ///
    /// Fails on duplicate instance names.
    pub fn attach(
        &self,
        b: &mut CmlCircuitBuilder,
        inst: &str,
        pair: DiffPair,
    ) -> Result<Variant3Handle, Error> {
        self.attach_shared(b, inst, &[pair])
    }

    /// Attaches one load cell + comparator shared by every pair in
    /// `pairs` (§6.4 load sharing). Each pair gets its own detector
    /// transistor pair wired onto the common `vout`.
    ///
    /// # Errors
    ///
    /// Fails on duplicate instance names or an empty `pairs` list.
    pub fn attach_shared(
        &self,
        b: &mut CmlCircuitBuilder,
        inst: &str,
        pairs: &[DiffPair],
    ) -> Result<Variant3Handle, Error> {
        if pairs.is_empty() {
            return Err(Error::InvalidOptions(
                "variant 3 needs at least one monitored pair".to_string(),
            ));
        }
        let vout = b.node(&format!("{inst}.vout"));
        let vtest = b.node(&format!("{inst}.vtest"));
        b.netlist_mut()
            .vdc(&format!("{inst}.VTEST"), vtest, Netlist::GROUND, self.vtest)?;

        // Detector pairs.
        for (k, pair) in pairs.iter().enumerate() {
            attach_detector_pair(b, &format!("{inst}.D{k}"), *pair, vtest, vout)?;
        }

        // Load cell: diode-connected Q0 ∥ R0 ∥ C0, supplied from vtest.
        let npn = b.process().npn;
        b.netlist_mut()
            .bjt(&format!("{inst}.Q0"), vtest, vtest, vout, npn)?;
        b.netlist_mut()
            .resistor(&format!("{inst}.R0"), vtest, vout, self.r0)?;
        b.netlist_mut()
            .capacitor(&format!("{inst}.C0"), vtest, vout, self.c0)?;

        // Comparator: diff pair supplied from vtest; vfb is both the
        // complementary output and the reference input (positive feedback).
        let vfb = b.node(&format!("{inst}.vfb"));
        let flagp = b.node(&format!("{inst}.flagp"));
        let ctail = b.node(&format!("{inst}.ctail"));
        b.netlist_mut()
            .bjt(&format!("{inst}.QC1"), vfb, vout, ctail, npn)?;
        // Reference input: either the feedback node itself (regenerative)
        // or an explicit fixed voltage.
        let reference = match self.reference {
            None => vfb,
            Some(v) => {
                let r = b.node(&format!("{inst}.vref"));
                b.netlist_mut()
                    .vdc(&format!("{inst}.VREF"), r, Netlist::GROUND, v)?;
                r
            }
        };
        b.netlist_mut()
            .bjt(&format!("{inst}.QC2"), flagp, reference, ctail, npn)?;
        b.netlist_mut()
            .resistor(&format!("{inst}.RC1"), vtest, vfb, self.cmp_rload)?;
        b.netlist_mut()
            .resistor(&format!("{inst}.RC2"), vtest, flagp, self.cmp_rload)?;
        // Comparator tail: the shared bias rail sets `itail` in a
        // unit-area device, so the comparator tail transistor is scaled
        // (smaller emitter area = proportionally smaller Is) to conduct
        // `cmp_itail` instead.
        let vbias = b.vbias;
        let tail_model = npn.with_is(npn.is * self.cmp_itail / b.process().itail);
        b.netlist_mut().bjt(
            &format!("{inst}.QC3"),
            ctail,
            vbias,
            Netlist::GROUND,
            tail_model,
        )?;

        // Level shifter back toward CML levels.
        let flag = b.node(&format!("{inst}.flag"));
        let vgnd = b.vgnd;
        let r_shift = b.process().r_shift;
        b.netlist_mut()
            .bjt(&format!("{inst}.QLS"), vgnd, flagp, flag, npn)?;
        b.netlist_mut()
            .resistor(&format!("{inst}.RLS"), flag, Netlist::GROUND, r_shift)?;

        Ok(Variant3Handle {
            name: inst.to_string(),
            vout,
            vfb,
            flagp,
            flag,
            vtest,
            monitored: pairs.len(),
        })
    }
}

impl Default for Variant3 {
    fn default() -> Self {
        Self::paper()
    }
}

/// Handle to an attached variant-3 detector.
#[derive(Debug, Clone)]
pub struct Variant3Handle {
    /// Instance name.
    pub name: String,
    /// Shared detector output (load cell node).
    pub vout: NodeId,
    /// Comparator feedback/reference node.
    pub vfb: NodeId,
    /// Comparator true output (high = pass), at `vtest` levels.
    pub flagp: NodeId,
    /// Level-shifted flag output (high = pass).
    pub flag: NodeId,
    /// The detector's test rail node.
    pub vtest: NodeId,
    /// Number of monitored output pairs sharing this load cell.
    pub monitored: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_cells::CmlProcess;
    use faults::Defect;
    use spicier::analysis::dc::{operating_point, DcOptions};
    use spicier::analysis::tran::{transient, TranOptions};

    fn buffer_with_pipe(pipe: Option<f64>) -> (CmlCircuitBuilder, cml_cells::BufferCell) {
        let mut b = CmlCircuitBuilder::new(CmlProcess::paper());
        let input = b.diff("a");
        b.drive_differential("a", input, 100.0e6).unwrap();
        let cell = b.buffer("DUT", input).unwrap();
        let _ = pipe;
        (b, cell)
    }

    fn settle_vout(b: CmlCircuitBuilder, pipe: Option<f64>, vout: NodeId, t_stop: f64) -> f64 {
        let mut nl = b.finish();
        if let Some(ohms) = pipe {
            Defect::pipe("DUT.Q3", ohms).inject(&mut nl).unwrap();
        }
        let circuit = nl.compile().unwrap();
        let res = transient(&circuit, &TranOptions::new(t_stop)).unwrap();
        let trace = res.trace(vout).unwrap();
        *trace.last().unwrap()
    }

    #[test]
    fn variant1_quiet_when_fault_free() {
        // The fault-free vout sits a few hundred mV below the rail in any
        // realistic model: the diode load's impedance is so high that even
        // pA-level leakage (gmin here, comparator bias in the paper's
        // §6.3) registers. What matters is that it stays well above every
        // faulty reading.
        let (mut b, cell) = buffer_with_pipe(None);
        let det = Variant1::new(DetectorLoad::diode_cap(1.0e-12))
            .attach(&mut b, "DET", cell.output)
            .unwrap();
        let v = settle_vout(b, None, det.vout, 40.0e-9);
        assert!(v > 2.8, "fault-free variant-1 vout = {v}");
    }

    #[test]
    fn variant1_fires_on_severe_pipe() {
        let (mut bf, cellf) = buffer_with_pipe(None);
        let detf = Variant1::new(DetectorLoad::diode_cap(1.0e-12))
            .attach(&mut bf, "DET", cellf.output)
            .unwrap();
        let baseline = settle_vout(bf, None, detf.vout, 40.0e-9);

        let (mut b, cell) = buffer_with_pipe(Some(1.0e3));
        let det = Variant1::new(DetectorLoad::diode_cap(1.0e-12))
            .attach(&mut b, "DET", cell.output)
            .unwrap();
        let v = settle_vout(b, Some(1.0e3), det.vout, 40.0e-9);
        assert!(
            v < baseline - 0.15,
            "variant-1 vout with 1 kΩ pipe = {v} vs baseline {baseline}"
        );
    }

    #[test]
    fn variant1_resistor_load_also_fires() {
        let (mut b, cell) = buffer_with_pipe(Some(1.0e3));
        let det = Variant1::new(DetectorLoad::resistor_cap(160.0e3, 1.0e-12))
            .attach(&mut b, "DET", cell.output)
            .unwrap();
        let v = settle_vout(b, Some(1.0e3), det.vout, 60.0e-9);
        assert!(v < 3.0, "variant-1(R) vout with 1 kΩ pipe = {v}");
    }

    #[test]
    fn variant2_detects_milder_pipe_than_variant1() {
        // 8 kΩ pipe: an excursion below variant 1's ~0.57 V threshold.
        // Variant 1 barely moves off its own baseline; variant 2
        // (vtest = 3.7 V) responds strongly.
        let pipe = 8.0e3;
        let (mut b1, cell1) = buffer_with_pipe(Some(pipe));
        let d1 = Variant1::new(DetectorLoad::diode_cap(1.0e-12))
            .attach(&mut b1, "DET", cell1.output)
            .unwrap();
        let v1 = settle_vout(b1, Some(pipe), d1.vout, 60.0e-9);

        let (mut b2, cell2) = buffer_with_pipe(Some(pipe));
        let d2 = Variant2::new(DetectorLoad::diode_cap(1.0e-12), 3.7)
            .attach(&mut b2, "DET", cell2.output)
            .unwrap();
        let v2 = settle_vout(b2, Some(pipe), d2.vout, 60.0e-9);

        // Variant 2's fault-free baseline (same bias, no pipe).
        let (mut b2f, cell2f) = buffer_with_pipe(None);
        let d2f = Variant2::new(DetectorLoad::diode_cap(1.0e-12), 3.7)
            .attach(&mut b2f, "DET", cell2f.output)
            .unwrap();
        let v2f = settle_vout(b2f, None, d2f.vout, 60.0e-9);

        // Variant 1's fault-free baseline.
        let (mut b1f, cell1f) = buffer_with_pipe(None);
        let d1f = Variant1::new(DetectorLoad::diode_cap(1.0e-12))
            .attach(&mut b1f, "DET", cell1f.output)
            .unwrap();
        let v1f = settle_vout(b1f, None, d1f.vout, 60.0e-9);

        let v1_drop = v1f - v1;
        let v2_drop = v2f - v2;
        assert!(
            v2_drop > v1_drop + 0.05,
            "variant2 separation {v2_drop:.3} V vs variant1 {v1_drop:.3} V"
        );
    }

    #[test]
    fn variant2_normal_mode_does_not_disturb_the_gate() {
        // vtest = vgnd (normal mode): the detector transistors see at most
        // one swing of forward bias and draw only leakage — the monitored
        // gate's output levels must be unchanged.
        let p = CmlProcess::paper();
        let (mut b, cell) = buffer_with_pipe(None);
        let _det = Variant2::new(DetectorLoad::diode_cap(1.0e-12), p.vgnd)
            .attach(&mut b, "DET", cell.output)
            .unwrap();
        let circuit = b.finish().compile().unwrap();
        let res = transient(&circuit, &TranOptions::new(40.0e-9)).unwrap();
        let op_trace = res.trace(cell.output.p).unwrap();
        let lo = op_trace.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = op_trace.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((hi - p.vhigh()).abs() < 0.03, "op high {hi}");
        assert!((lo - p.vlow()).abs() < 0.05, "op low {lo}");
    }

    #[test]
    fn variant3_flag_high_when_fault_free() {
        let (mut b, cell) = buffer_with_pipe(None);
        let det = Variant3::paper()
            .attach(&mut b, "DET", cell.output)
            .unwrap();
        let circuit = b.finish().compile().unwrap();
        // DC sanity: comparator settles with vout near vtest, vfb low.
        let op = operating_point(&circuit, &DcOptions::default()).unwrap();
        let vout = op.voltage(det.vout);
        let vfb = op.voltage(det.vfb);
        let flagp = op.voltage(det.flagp);
        assert!(vout > 3.5, "fault-free vout = {vout}");
        assert!(vfb < vout, "vfb {vfb} should sit below vout {vout}");
        assert!(flagp > 3.6, "pass flag should be high, got {flagp}");
    }

    #[test]
    fn variant3_flag_drops_on_pipe() {
        let (mut b, cell) = buffer_with_pipe(Some(2.0e3));
        let det = Variant3::paper()
            .attach(&mut b, "DET", cell.output)
            .unwrap();
        let mut nl = b.finish();
        Defect::pipe("DUT.Q3", 2.0e3).inject(&mut nl).unwrap();
        let circuit = nl.compile().unwrap();
        let res = transient(&circuit, &TranOptions::new(120.0e-9)).unwrap();
        let flagp = res.trace(det.flagp).unwrap();
        let vout = res.trace(det.vout).unwrap();
        assert!(
            *vout.last().unwrap() < 3.5,
            "faulty vout = {}",
            vout.last().unwrap()
        );
        assert!(
            *flagp.last().unwrap() < 3.6,
            "fail flag should drop, got {}",
            flagp.last().unwrap()
        );
    }

    #[test]
    fn vtest_sizing_reproduces_the_papers_choice() {
        let p = CmlProcess::paper();
        let vtest = Variant2::vtest_for(&p, 0.35, 1.0e-6);
        assert!(
            (vtest - 3.7).abs() < 0.05,
            "computed vtest {vtest:.3} V (paper: 3.7 V)"
        );
        // Larger target amplitude → lower bias (less sensitivity needed).
        assert!(Variant2::vtest_for(&p, 0.57, 1.0e-6) < vtest);
    }

    #[test]
    fn multi_emitter_style_counts() {
        assert_eq!(MultiEmitterStyle::TwoTransistors.transistor_count(), 2);
        assert_eq!(MultiEmitterStyle::MergedEmitters.transistor_count(), 1);
        assert_eq!(DetectorLoad::diode_cap(1e-12).transistor_count(), 1);
        assert_eq!(
            DetectorLoad::resistor_cap(160e3, 1e-12).transistor_count(),
            0
        );
    }

    #[test]
    fn variant3_shared_rejects_empty() {
        let mut b = CmlCircuitBuilder::new(CmlProcess::paper());
        assert!(Variant3::paper().attach_shared(&mut b, "DET", &[]).is_err());
    }
}
