//! A lane store of BJT instances, each evaluated by [`BjtModel::eval`].
//!
//! The assembler evaluates every BJT inline through [`BjtModel::eval`];
//! nothing in the solver uses this type. It is kept for the `cml_perf`
//! benchmark's device-evaluation probe, which compiles against it.

use super::bjt::{BjtEval, BjtModel};

/// BJT instances with their current bias and last evaluation, one lane
/// per instance.
///
/// Write the limited junction voltages with [`set_bias`](Self::set_bias),
/// run [`eval_all`](Self::eval_all), and read each lane back with
/// [`eval_of`](Self::eval_of).
#[derive(Debug, Default)]
pub struct BjtBatch {
    lanes: Vec<Lane>,
}

#[derive(Debug)]
struct Lane {
    model: BjtModel,
    vbe: f64,
    vbc: f64,
    eval: BjtEval,
}

impl BjtBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of instances in the batch.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the batch has no instances.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Appends one instance; returns its lane index.
    pub fn push_model(&mut self, model: &BjtModel) -> usize {
        self.lanes.push(Lane {
            model: *model,
            vbe: 0.0,
            vbc: 0.0,
            eval: model.eval(0.0, 0.0),
        });
        self.lanes.len() - 1
    }

    /// Sets the (polarity-normalized, limited) junction voltages of one
    /// lane for the next [`eval_all`](Self::eval_all).
    pub fn set_bias(&mut self, lane: usize, vbe: f64, vbc: f64) {
        let lane = &mut self.lanes[lane];
        lane.vbe = vbe;
        lane.vbc = vbc;
    }

    /// Evaluates every lane at its bias.
    pub fn eval_all(&mut self) {
        for lane in &mut self.lanes {
            lane.eval = lane.model.eval(lane.vbe, lane.vbc);
        }
    }

    /// The last evaluation of one lane.
    pub fn eval_of(&self, lane: usize) -> BjtEval {
        self.lanes[lane].eval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_variants() -> Vec<BjtModel> {
        vec![
            BjtModel::fast_npn(),
            BjtModel::fast_pnp(),
            BjtModel::fast_npn().with_grading(0.75, 0.5),
            BjtModel::fast_npn().with_grading(0.7, 0.33),
            BjtModel::fast_npn().with_vaf(f64::INFINITY),
            BjtModel::fast_npn().with_is(1.0e-16).with_bf(50.0),
            BjtModel::fast_npn().with_tf(8.0e-12).with_tr(2.0e-9),
        ]
    }

    fn assert_bits_eq(batch: &BjtEval, scalar: &BjtEval, ctx: &str) {
        for (name, b, s) in [
            ("ic", batch.ic, scalar.ic),
            ("ib", batch.ib, scalar.ib),
            ("dic_dvbe", batch.dic_dvbe, scalar.dic_dvbe),
            ("dic_dvbc", batch.dic_dvbc, scalar.dic_dvbc),
            ("dib_dvbe", batch.dib_dvbe, scalar.dib_dvbe),
            ("dib_dvbc", batch.dib_dvbc, scalar.dib_dvbc),
            ("qbe", batch.qbe, scalar.qbe),
            ("cbe", batch.cbe, scalar.cbe),
            ("qbc", batch.qbc, scalar.qbc),
            ("cbc", batch.cbc, scalar.cbc),
        ] {
            assert_eq!(
                b.to_bits(),
                s.to_bits(),
                "{name} differs at {ctx}: batch {b:e} vs scalar {s:e}"
            );
        }
    }

    /// The batch path must be bitwise identical to the scalar path for
    /// every model variant across a wide bias grid — including deep
    /// cutoff, saturation, the Early-clamp boundary, and limexp's
    /// linearization region.
    #[test]
    fn batch_matches_scalar_bitwise() {
        let models = model_variants();
        let mut batch = BjtBatch::new();
        for m in &models {
            batch.push_model(m);
        }
        let grid: Vec<f64> = (-8..=10).map(|k| k as f64 * 0.1).collect();
        for &vbe in &grid {
            for &vbc in &grid {
                for lane in 0..models.len() {
                    batch.set_bias(lane, vbe, vbc);
                }
                batch.eval_all();
                for (lane, m) in models.iter().enumerate() {
                    let scalar = m.eval(vbe, vbc);
                    assert_bits_eq(
                        &batch.eval_of(lane),
                        &scalar,
                        &format!("lane {lane}, vbe {vbe}, vbc {vbc}"),
                    );
                }
            }
        }
    }

    /// Extreme biases exercise limexp's clamped branch and huge-magnitude
    /// arithmetic; identity must hold there too.
    #[test]
    fn batch_matches_scalar_at_extremes() {
        let m = BjtModel::fast_npn();
        let mut batch = BjtBatch::new();
        batch.push_model(&m);
        for (vbe, vbc) in [
            (5.0, 5.0),
            (-5.0, 40.0),
            (39.99, -39.99),
            (0.0, 0.0),
            (f64::MIN_POSITIVE, -f64::MIN_POSITIVE),
        ] {
            batch.set_bias(0, vbe, vbc);
            batch.eval_all();
            let scalar = m.eval(vbe, vbc);
            assert_bits_eq(&batch.eval_of(0), &scalar, &format!("vbe {vbe}, vbc {vbc}"));
        }
    }

    #[test]
    fn lanes_are_independent() {
        let m = BjtModel::fast_npn();
        let mut batch = BjtBatch::new();
        batch.push_model(&m);
        batch.push_model(&m);
        batch.set_bias(0, 0.9, -1.0);
        batch.set_bias(1, 0.2, 0.2);
        batch.eval_all();
        assert_bits_eq(&batch.eval_of(0), &m.eval(0.9, -1.0), "lane 0");
        assert_bits_eq(&batch.eval_of(1), &m.eval(0.2, 0.2), "lane 1");
        assert!(batch.eval_of(0).ic > batch.eval_of(1).ic);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut batch = BjtBatch::new();
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
        batch.eval_all();
    }
}
