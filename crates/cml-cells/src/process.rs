//! The CML "process": rails, swing, tail current and device models.

use spicier::devices::BjtModel;

/// Electrical parameters shared by every cell in a CML design.
///
/// Defaults reproduce the paper's technology: `vee = 0 V`, `vgnd = 3.3 V`
/// (Figure 1 caption — note the *high* rail is called `vgnd` in ECL/CML
/// tradition), ~250 mV single-ended swing, VBE ≈ 900 mV at the tail
/// current, and a fan-out-of-one buffer delay near 50 ps.
#[derive(Debug, Clone, PartialEq)]
pub struct CmlProcess {
    /// Top supply rail ("vgnd" in CML convention), volts.
    pub vgnd: f64,
    /// Bottom rail, volts (the simulator ground).
    pub vee: f64,
    /// Tail current of a standard gate, amperes.
    pub itail: f64,
    /// Nominal single-ended output swing, volts.
    pub swing: f64,
    /// Wiring + fan-in parasitic capacitance per gate output, farads.
    pub cwire: f64,
    /// NPN model used by all gates.
    pub npn: BjtModel,
    /// Emitter-follower pull-down resistance for level shifters, ohms.
    pub r_shift: f64,
}

impl CmlProcess {
    /// The paper's process (see crate docs).
    pub fn paper() -> Self {
        Self {
            vgnd: 3.3,
            vee: 0.0,
            itail: 0.4e-3,
            swing: 0.25,
            cwire: 100.0e-15,
            npn: BjtModel::fast_npn(),
            r_shift: 6.0e3,
        }
    }

    /// Load resistance per branch: `swing / itail`.
    pub fn rload(&self) -> f64 {
        self.swing / self.itail
    }

    /// Base bias for the current-source transistor so it conducts `itail`
    /// with its emitter at `vee`.
    pub fn vbias(&self) -> f64 {
        self.vee + self.npn.vbe_at(self.itail)
    }

    /// Nominal logic-high level (the rail).
    pub fn vhigh(&self) -> f64 {
        self.vgnd
    }

    /// Nominal logic-low level.
    pub fn vlow(&self) -> f64 {
        self.vgnd - self.swing
    }

    /// The normal crossing point of an output and its complement — the
    /// fixed delay-measurement reference of the paper's Table 1.
    pub fn vcross(&self) -> f64 {
        self.vgnd - 0.5 * self.swing
    }

    /// Scales the gate current (speed/power knob of §6.3); the swing is
    /// kept by scaling load resistance inversely.
    pub fn with_itail(mut self, itail: f64) -> Self {
        self.itail = itail;
        self
    }
}

impl Default for CmlProcess {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_levels() {
        let p = CmlProcess::paper();
        assert_eq!(p.vhigh(), 3.3);
        assert!((p.vlow() - 3.05).abs() < 1e-12);
        assert!((p.vcross() - 3.175).abs() < 1e-12);
        assert!((p.rload() - 625.0).abs() < 1e-9);
    }

    #[test]
    fn vbias_sets_vbe_for_itail() {
        let p = CmlProcess::paper();
        // VBE ≈ 0.9 V technology.
        assert!((0.85..0.95).contains(&p.vbias()), "vbias = {}", p.vbias());
    }

    #[test]
    fn speed_power_knob() {
        let p = CmlProcess::paper().with_itail(0.8e-3);
        assert!((p.rload() - 312.5).abs() < 1e-9);
        assert!(p.vbias() > CmlProcess::paper().vbias());
    }
}
