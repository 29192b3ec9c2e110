//! TAB2 — delays at the *actual* crossing voltage (paper Table 2),
//! measured on [`super::fig4::simulate`]'s chain pair.
//!
//! Repeating Table 1's measurement "by using the actual crossing voltage,
//! whatever its value, as the time measurement point" shows that even at
//! the faulty gate the delay differences are modest — the defect is not
//! meaningfully delay-testable even locally.

use super::common::wf;
use super::fig4::ChainPair;
use super::report::{print_table, ps, write_rows_csv};
use cml_cells::DiffPair;
use spicier::analysis::tran::TranResult;
use spicier::Error;
use waveform::{differential_crossings, Edge};

/// Cumulative differential-crossing times and per-stage delays.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainDiffDelays {
    /// Per stage: `(name, τ cumulative from input edge, per-stage delay)`,
    /// seconds.
    pub stages: Vec<(String, f64, f64)>,
}

/// Table 2 data.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Result {
    /// Fault-free chain.
    pub fault_free: ChainDiffDelays,
    /// 4 kΩ pipe on DUT.Q3.
    pub faulty: ChainDiffDelays,
}

impl Table2Result {
    /// Per-stage delay difference (faulty − fault-free), seconds.
    pub fn delta(&self, k: usize) -> f64 {
        self.faulty.stages[k].2 - self.fault_free.stages[k].2
    }

    /// Percentage difference relative to the fault-free stage delay
    /// (paper's `∆%` row).
    pub fn delta_percent(&self, k: usize) -> f64 {
        100.0 * self.delta(k) / self.fault_free.stages[k].2
    }
}

/// Differential-crossing delays of one of `pair`'s runs, timed from the
/// input's first differential crossing once the chain has settled.
fn diff_delays(pair: &ChainPair, res: &TranResult) -> Result<ChainDiffDelays, Error> {
    // First differential crossing of `rails` at or after `from`.
    let crossing_from = |rails: DiffPair, from: f64| -> Result<Option<f64>, Error> {
        let (w_p, w_n) = (wf(res, rails.p)?, wf(res, rails.n)?);
        Ok(differential_crossings(&w_p, &w_n, Edge::Any)
            .map_err(|e| Error::InvalidOptions(e.to_string()))?
            .into_iter()
            .find(|&t| t >= from))
    };
    let t_in = crossing_from(pair.chain.cells[0].input, pair.settled.0)?
        .ok_or_else(|| Error::InvalidOptions("input never crosses".to_string()))?;
    let mut stages = Vec::new();
    let mut prev = t_in;
    for cell in &pair.chain.cells {
        let t = crossing_from(cell.output, prev)?.ok_or_else(|| {
            Error::InvalidOptions(format!("{} never crosses differentially", cell.name))
        })?;
        stages.push((cell.name.clone(), t - t_in, t - prev));
        prev = t;
    }
    Ok(ChainDiffDelays { stages })
}

/// Measures differential-crossing delays on the simulated pair.
///
/// # Errors
///
/// Fails when a probe is missing or a stage never crosses.
pub fn measure(pair: &ChainPair) -> Result<Table2Result, Error> {
    Ok(Table2Result {
        fault_free: diff_delays(pair, &pair.fault_free)?,
        faulty: diff_delays(pair, &pair.faulty)?,
    })
}

/// Prints the paper-shaped table and writes `table2.csv`.
pub fn report(r: &Table2Result) {
    let mut rows = Vec::new();
    for (k, (name, tau_ff, d_ff)) in r.fault_free.stages.iter().enumerate() {
        let (_, tau_p, d_p) = &r.faulty.stages[k];
        rows.push(vec![
            name.clone(),
            ps(*tau_ff),
            ps(*d_ff),
            ps(*tau_p),
            ps(*d_p),
            ps(r.delta(k)),
            format!("{:.0}%", r.delta_percent(k)),
        ]);
    }
    print_table(
        "TABLE 2: differential (actual) crossing delays",
        &[
            "stage",
            "τ_FF (ps)",
            "delay_FF (ps)",
            "τ_pipe (ps)",
            "delay_pipe (ps)",
            "Δτ (ps)",
            "Δ%",
        ],
        &rows,
    );
    let dut = cml_cells::FIG3_DUT_INDEX;
    println!(
        "  fault-free gate delay ≈ {:.0} ps (paper: 53 ps); DUT-stage Δ = {:.0}% \
         (paper: 13% — modest even at the faulty gate)",
        r.fault_free.stages[4].2 * 1e12,
        r.delta_percent(dut)
    );
    write_rows_csv(
        "table2",
        &[
            "stage",
            "tau_ff",
            "delay_ff",
            "tau_pipe",
            "delay_pipe",
            "dt",
            "pct",
        ],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_delay_near_50ps_and_differences_are_modest() {
        let r = measure(super::super::fig4::quick_pair()).unwrap();
        // Mid-chain fault-free delay in the paper's ballpark.
        let d_mid = r.fault_free.stages[4].2;
        assert!(
            (25.0e-12..90.0e-12).contains(&d_mid),
            "stage delay {:.1} ps (paper: 53 ps)",
            d_mid * 1e12
        );
        // The DUT-stage delay difference stays a small fraction of a gate
        // delay — the healing argument of the paper.
        let dut = cml_cells::FIG3_DUT_INDEX;
        assert!(
            r.delta(dut).abs() < 0.35 * d_mid,
            "DUT Δ {:.1} ps vs delay {:.1} ps",
            r.delta(dut) * 1e12,
            d_mid * 1e12
        );
        // Cumulative arrival at the final stage barely moves.
        let final_shift = r.faulty.stages[7].1 - r.fault_free.stages[7].1;
        assert!(
            final_shift.abs() < 10.0e-12,
            "final τ shift {:.1} ps",
            final_shift * 1e12
        );
    }
}
