//! Bipolar junction transistor: Ebers–Moll transport model with Early
//! effect and charge storage.
//!
//! The model computes, for junction voltages `vbe` and `vbc`:
//!
//! ```text
//! ibe = Is/βF · (exp(vbe/Vt) − 1)          base–emitter diode
//! ibc = Is/βR · (exp(vbc/Vt) − 1)          base–collector diode
//! ict = Is · (exp(vbe/Vt) − exp(vbc/Vt)) · (1 − vbc/VAF)   transport
//! ic  = ict − ibc,    ib = ibe + ibc,   ie = −(ic + ib)
//! ```
//!
//! Charge storage is `qbe = τF·Is·(exp(vbe/Vt)−1) + Cje·vbe` and
//! `qbc = τR·Is·(exp(vbc/Vt)−1) + Cjc·vbc` (constant junction
//! capacitances — depletion grading is not needed for the paper's
//! waveforms, see DESIGN.md). The reverse transit time `τR` models
//! saturation charge storage, which limits how far an excessive-swing
//! excursion develops within one half period at high frequency (the
//! mechanism behind the paper's Figure 5 frequency rolloff).
//!
//! PNP devices are handled by polarity reflection.

use super::{limexp, limexp_deriv, vcrit};
use crate::VT_300K;

/// NPN or PNP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Polarity {
    /// NPN (vertical NPNs dominate bipolar CML libraries).
    #[default]
    Npn,
    /// PNP.
    Pnp,
}

impl Polarity {
    /// +1 for NPN, −1 for PNP.
    pub fn sign(self) -> f64 {
        match self {
            Polarity::Npn => 1.0,
            Polarity::Pnp => -1.0,
        }
    }
}

/// Bipolar transistor model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BjtModel {
    /// Transport saturation current, amperes.
    pub is: f64,
    /// Forward current gain.
    pub bf: f64,
    /// Reverse current gain.
    pub br: f64,
    /// Forward Early voltage, volts (`f64::INFINITY` disables).
    pub vaf: f64,
    /// Base–emitter zero-bias junction capacitance, farads.
    pub cje: f64,
    /// Base–emitter junction potential, volts.
    pub vje: f64,
    /// Base–emitter grading coefficient (`0` = constant capacitance).
    pub mje: f64,
    /// Base–collector zero-bias junction capacitance, farads.
    pub cjc: f64,
    /// Base–collector junction potential, volts.
    pub vjc: f64,
    /// Base–collector grading coefficient (`0` = constant capacitance).
    pub mjc: f64,
    /// Forward transit time, seconds.
    pub tf: f64,
    /// Reverse transit time (saturation storage), seconds.
    pub tr: f64,
    /// Device polarity.
    pub polarity: Polarity,
}

impl BjtModel {
    /// A fast vertical NPN representative of late-1990s bipolar processes:
    /// `Is = 3e-19 A`, `βF = 100`, `βR = 2`, `VAF = 40 V`, `Cje = 20 fF`,
    /// `Cjc = 12 fF`, `τF = 4 ps`, `τR = 0.5 ns`.
    ///
    /// VBE ≈ 0.9 V at 0.4 mA and fT in the tens of GHz, consistent with the
    /// "VBE = 900 mV technology" and ~50 ps CML gate delays of the paper.
    pub fn fast_npn() -> Self {
        Self {
            is: 3.0e-19,
            bf: 100.0,
            br: 2.0,
            vaf: 40.0,
            cje: 20.0e-15,
            vje: 0.75,
            mje: 0.0,
            cjc: 12.0e-15,
            vjc: 0.75,
            mjc: 0.0,
            tf: 4.0e-12,
            tr: 0.5e-9,
            polarity: Polarity::Npn,
        }
    }

    /// Same parameters reflected into a PNP.
    pub fn fast_pnp() -> Self {
        Self {
            polarity: Polarity::Pnp,
            ..Self::fast_npn()
        }
    }

    /// Sets the saturation current.
    pub fn with_is(mut self, is: f64) -> Self {
        self.is = is;
        self
    }

    /// Sets the forward gain.
    pub fn with_bf(mut self, bf: f64) -> Self {
        self.bf = bf;
        self
    }

    /// Sets junction grading for both junctions (`mj = 0.33` graded,
    /// `0.5` abrupt). The default (`mj = 0`) keeps the capacitances
    /// bias-independent, which is the calibration DESIGN.md documents.
    pub fn with_grading(mut self, vj: f64, mj: f64) -> Self {
        self.vje = vj;
        self.mje = mj;
        self.vjc = vj;
        self.mjc = mj;
        self
    }

    /// Sets the forward transit time.
    pub fn with_tf(mut self, tf: f64) -> Self {
        self.tf = tf;
        self
    }

    /// Sets the reverse (saturation) transit time.
    pub fn with_tr(mut self, tr: f64) -> Self {
        self.tr = tr;
        self
    }

    /// Sets the Early voltage.
    pub fn with_vaf(mut self, vaf: f64) -> Self {
        self.vaf = vaf;
        self
    }

    /// Critical junction voltage for Newton limiting.
    pub fn vcrit(&self) -> f64 {
        vcrit(self.is, VT_300K)
    }

    /// Evaluates currents, conductances and charges at the *polarity
    /// normalized* junction voltages (`vbe`, `vbc`): callers pass
    /// `sign·(vb − ve)` and `sign·(vb − vc)` and interpret the returned
    /// currents with the same sign convention.
    pub fn eval(&self, vbe: f64, vbc: f64) -> BjtEval {
        let vt = VT_300K;
        let ebe = limexp(vbe / vt);
        let ebc = limexp(vbc / vt);
        let debe = limexp_deriv(vbe / vt) / vt;
        let debc = limexp_deriv(vbc / vt) / vt;

        // Early-effect factor: ict scales with (1 − vbc/VAF), so reverse
        // bias on the collector junction (negative vbc) raises ic. Clamped
        // away from zero so deep saturation cannot flip the transport sign.
        let (early, dearly_dvbc) = if self.vaf.is_finite() {
            let d = 1.0 - vbc / self.vaf;
            if d > 0.1 {
                (d, -1.0 / self.vaf)
            } else {
                (0.1, 0.0)
            }
        } else {
            (1.0, 0.0)
        };

        let ibe = self.is / self.bf * (ebe - 1.0);
        let gbe = (self.is / self.bf * debe).max(1.0e-14);
        let ibc = self.is / self.br * (ebc - 1.0);
        let gbc = (self.is / self.br * debc).max(1.0e-14);

        let ict = self.is * (ebe - ebc) * early;
        let dict_dvbe = self.is * debe * early;
        let dict_dvbc = -self.is * debc * early + self.is * (ebe - ebc) * dearly_dvbc;

        let ic = ict - ibc;
        let ib = ibe + ibc;

        // Charge storage: diffusion on the transport currents plus the
        // (optionally graded) junction depletion charges.
        let (qje, cje) = super::depletion_charge(vbe, self.cje, self.vje, self.mje);
        let (qjc, cjc) = super::depletion_charge(vbc, self.cjc, self.vjc, self.mjc);
        let qbe = self.tf * self.is * (ebe - 1.0) + qje;
        let cbe = self.tf * self.is * debe + cje;
        let qbc = self.tr * self.is * (ebc - 1.0) + qjc;
        let cbc = self.tr * self.is * debc + cjc;

        BjtEval {
            ic,
            ib,
            dic_dvbe: dict_dvbe,
            dic_dvbc: dict_dvbc - gbc,
            dib_dvbe: gbe,
            dib_dvbc: gbc,
            qbe,
            cbe,
            qbc,
            cbc,
        }
    }

    /// Base–emitter voltage at which the collector carries roughly
    /// `current` in forward-active operation (inverse transport law,
    /// ignoring the Early effect).
    pub fn vbe_at(&self, current: f64) -> f64 {
        VT_300K * (current / self.is + 1.0).ln()
    }
}

impl Default for BjtModel {
    fn default() -> Self {
        Self::fast_npn()
    }
}

/// Linearized BJT state at one bias point (polarity-normalized).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BjtEval {
    /// Collector current (into the collector), amperes.
    pub ic: f64,
    /// Base current (into the base), amperes.
    pub ib: f64,
    /// ∂ic/∂vbe.
    pub dic_dvbe: f64,
    /// ∂ic/∂vbc.
    pub dic_dvbc: f64,
    /// ∂ib/∂vbe.
    pub dib_dvbe: f64,
    /// ∂ib/∂vbc.
    pub dib_dvbc: f64,
    /// Base–emitter stored charge, coulombs.
    pub qbe: f64,
    /// ∂qbe/∂vbe, farads.
    pub cbe: f64,
    /// Base–collector stored charge, coulombs.
    pub qbc: f64,
    /// ∂qbc/∂vbc, farads.
    pub cbc: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cutoff_carries_no_current() {
        let m = BjtModel::fast_npn();
        let e = m.eval(0.0, -2.0);
        assert!(e.ic.abs() < 1e-12);
        assert!(e.ib.abs() < 1e-12);
    }

    #[test]
    fn forward_active_gain() {
        let m = BjtModel::fast_npn();
        let vbe = m.vbe_at(0.4e-3);
        let e = m.eval(vbe, vbe - 2.0); // vce = 2 V
        assert!((0.85..0.95).contains(&vbe), "vbe = {vbe}");
        let beta = e.ic / e.ib;
        assert!(
            (70.0..160.0).contains(&beta),
            "effective beta = {beta} (ic = {}, ib = {})",
            e.ic,
            e.ib
        );
    }

    #[test]
    fn early_effect_raises_ic_with_vce() {
        let m = BjtModel::fast_npn();
        let vbe = m.vbe_at(0.4e-3);
        let low = m.eval(vbe, vbe - 1.0).ic;
        let high = m.eval(vbe, vbe - 3.0).ic;
        assert!(high > low, "Early effect: {high} !> {low}");
        // Slope consistent with VAF ≈ 40 V: ~2.5 %/V.
        let slope = (high - low) / low / 2.0;
        assert!((0.01..0.05).contains(&slope), "slope {slope}");
    }

    #[test]
    fn saturation_clamps_collector_current() {
        // Forward-biased vbc steals transport current: ic drops.
        let m = BjtModel::fast_npn();
        let vbe = m.vbe_at(0.4e-3);
        let active = m.eval(vbe, vbe - 1.0).ic;
        let saturated = m.eval(vbe, vbe - 0.05).ic;
        assert!(saturated < active);
    }

    #[test]
    fn jacobian_matches_finite_differences() {
        let m = BjtModel::fast_npn();
        let pts = [(0.85, -1.5), (0.9, 0.0), (0.88, 0.7), (0.4, 0.4)];
        let dv = 1e-7;
        for (vbe, vbc) in pts {
            let e = m.eval(vbe, vbc);
            let num_dic_dvbe = (m.eval(vbe + dv, vbc).ic - m.eval(vbe - dv, vbc).ic) / (2.0 * dv);
            let num_dic_dvbc = (m.eval(vbe, vbc + dv).ic - m.eval(vbe, vbc - dv).ic) / (2.0 * dv);
            let num_dib_dvbe = (m.eval(vbe + dv, vbc).ib - m.eval(vbe - dv, vbc).ib) / (2.0 * dv);
            let num_dib_dvbc = (m.eval(vbe, vbc + dv).ib - m.eval(vbe, vbc - dv).ib) / (2.0 * dv);
            let scale = |a: f64| a.abs().max(1e-9);
            assert!(
                (num_dic_dvbe - e.dic_dvbe).abs() < 1e-3 * scale(num_dic_dvbe),
                "dic/dvbe at ({vbe},{vbc}): {num_dic_dvbe:e} vs {:e}",
                e.dic_dvbe
            );
            assert!(
                (num_dic_dvbc - e.dic_dvbc).abs() < 1e-3 * scale(num_dic_dvbc),
                "dic/dvbc at ({vbe},{vbc}): {num_dic_dvbc:e} vs {:e}",
                e.dic_dvbc
            );
            assert!(
                (num_dib_dvbe - e.dib_dvbe).abs() < 1e-3 * scale(num_dib_dvbe),
                "dib/dvbe at ({vbe},{vbc}): {num_dib_dvbe:e} vs {:e}",
                e.dib_dvbe
            );
            assert!(
                (num_dib_dvbc - e.dib_dvbc).abs() < 1e-3 * scale(num_dib_dvbc),
                "dib/dvbc at ({vbe},{vbc}): {num_dib_dvbc:e} vs {:e}",
                e.dib_dvbc
            );
        }
    }

    #[test]
    fn charges_are_derivatives_of_caps() {
        let m = BjtModel::fast_npn();
        let dv = 1e-7;
        for (vbe, vbc) in [(0.8, -1.0), (0.9, 0.2)] {
            let e = m.eval(vbe, vbc);
            let num_cbe = (m.eval(vbe + dv, vbc).qbe - m.eval(vbe - dv, vbc).qbe) / (2.0 * dv);
            let num_cbc = (m.eval(vbe, vbc + dv).qbc - m.eval(vbe, vbc - dv).qbc) / (2.0 * dv);
            assert!((num_cbe - e.cbe).abs() < 1e-3 * e.cbe.abs());
            assert!((num_cbc - e.cbc).abs() < 1e-3 * e.cbc.abs());
        }
    }

    #[test]
    fn kirchhoff_current_balance() {
        // ie = -(ic + ib) by construction; check the terminal currents sum
        // to zero for a few bias points via the eval contract.
        let m = BjtModel::fast_npn();
        let e = m.eval(0.9, -1.0);
        let ie = -(e.ic + e.ib);
        assert!((e.ic + e.ib + ie).abs() < 1e-18);
        assert!(ie < 0.0, "emitter current flows out of an NPN");
    }

    #[test]
    fn graded_junctions_modulate_caps() {
        let m = BjtModel::fast_npn().with_grading(0.75, 0.5);
        // Reverse-biased collector junction: cap below Cjc0.
        let active = m.eval(0.9, -1.5);
        assert!(
            active.cbc < m.cjc,
            "cbc {:.2e} vs cjc0 {:.2e}",
            active.cbc,
            m.cjc
        );
        // dq/dv consistency with grading enabled.
        let dv = 1e-7;
        for (vbe, vbc) in [(0.85, -1.2), (0.5, 0.2)] {
            let e = m.eval(vbe, vbc);
            let num_cbc = (m.eval(vbe, vbc + dv).qbc - m.eval(vbe, vbc - dv).qbc) / (2.0 * dv);
            assert!(
                (num_cbc - e.cbc).abs() < 1e-3 * e.cbc.abs(),
                "at ({vbe},{vbc}): {num_cbc:.3e} vs {:.3e}",
                e.cbc
            );
        }
    }

    #[test]
    fn polarity_sign() {
        assert_eq!(Polarity::Npn.sign(), 1.0);
        assert_eq!(Polarity::Pnp.sign(), -1.0);
        assert_eq!(Polarity::default(), Polarity::Npn);
    }
}
