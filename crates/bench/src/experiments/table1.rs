//! TAB1 — delays at the fixed 3.165 V-style crossing (paper Table 1),
//! measured on [`super::fig4::simulate`]'s chain pair.
//!
//! Delays are measured where each output crosses the *normal* crossing
//! point of an output and its complement (`vcross` of the process) — "this
//! voltage reference would be representative of how ECL-type gates would
//! convert the observed output voltage into logical values". The paper's
//! headline: the faulty DUT output appears ~58 ps late at this reference,
//! yet the difference at the final chain output is insignificant.

use super::common::wf;
use super::fig4::ChainPair;
use super::report::{print_table, ps, write_rows_csv};
use cml_cells::CmlProcess;
use spicier::analysis::tran::TranResult;
use spicier::Error;
use waveform::Edge;

/// Crossing times relative to the input edge for one chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainCrossings {
    /// Per stage: `(name, t_op, t_opb)` in seconds after the input edge.
    pub stages: Vec<(String, Option<f64>, Option<f64>)>,
}

/// Table 1 data: fixed-level crossings for both chains plus deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Result {
    /// Fault-free chain.
    pub fault_free: ChainCrossings,
    /// Chain with the 4 kΩ pipe on DUT.Q3.
    pub faulty: ChainCrossings,
}

impl Table1Result {
    /// `Δt` on the `op` rail of stage `k` (faulty − fault-free), seconds.
    pub fn delta_op(&self, k: usize) -> Option<f64> {
        Some(self.faulty.stages[k].1? - self.fault_free.stages[k].1?)
    }

    /// `Δt` on the `opb` rail of stage `k`.
    pub fn delta_opb(&self, k: usize) -> Option<f64> {
        Some(self.faulty.stages[k].2? - self.fault_free.stages[k].2?)
    }
}

/// Crossings of one of `pair`'s runs at the fixed reference, timed from
/// the input's first rising crossing once the chain has settled.
fn crossings(pair: &ChainPair, res: &TranResult) -> Result<ChainCrossings, Error> {
    let vcross = CmlProcess::paper().vcross();
    let t_in = wf(res, pair.chain.cells[0].input.p)?
        .first_crossing_after(vcross, Edge::Rising, pair.settled.0)
        .ok_or_else(|| Error::InvalidOptions("input never crosses".to_string()))?;
    // Strictly after the reference: a stage crossing coincident with the
    // stimulus edge is not that stage's response.
    let after_input = |node| -> Result<Option<f64>, Error> {
        Ok(wf(res, node)?
            .first_crossing_strictly_after(vcross, Edge::Any, t_in)
            .map(|t| t - t_in))
    };
    let mut stages = Vec::new();
    for cell in &pair.chain.cells {
        stages.push((
            cell.name.clone(),
            after_input(cell.output.p)?,
            after_input(cell.output.n)?,
        ));
    }
    Ok(ChainCrossings { stages })
}

/// Extracts the fixed-level crossing table from the simulated pair.
///
/// # Errors
///
/// Fails when a probe is missing or the input never crosses.
pub fn measure(pair: &ChainPair) -> Result<Table1Result, Error> {
    Ok(Table1Result {
        fault_free: crossings(pair, &pair.fault_free)?,
        faulty: crossings(pair, &pair.faulty)?,
    })
}

/// Prints the paper-shaped table and writes `table1.csv`.
pub fn report(r: &Table1Result) {
    let fmt = |t: Option<f64>| t.map(ps).unwrap_or_else(|| "-".to_string());
    let mut rows = Vec::new();
    for (k, (name, _, _)) in r.fault_free.stages.iter().enumerate() {
        rows.push(vec![
            format!("{name}.op"),
            fmt(r.fault_free.stages[k].1),
            fmt(r.faulty.stages[k].1),
            fmt(r.delta_op(k)),
        ]);
        rows.push(vec![
            format!("{name}.opb"),
            fmt(r.fault_free.stages[k].2),
            fmt(r.faulty.stages[k].2),
            fmt(r.delta_opb(k)),
        ]);
    }
    print_table(
        "TABLE 1: crossing time at the fixed reference (ps after input edge)",
        &["output", "FF (ps)", "pipe (ps)", "Δt (ps)"],
        &rows,
    );
    let final_delta = r.delta_op(7).unwrap_or(f64::NAN).abs() * 1e12;
    println!(
        "  DUT-stage Δt is large, final-stage Δt = {final_delta:.1} ps \
         (paper: fault heals to an insignificant difference)"
    );
    write_rows_csv("table1", &["output", "ff_ps", "pipe_ps", "delta_ps"], &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dut_shifts_but_final_output_heals() {
        let r = measure(super::super::fig4::quick_pair()).unwrap();
        let dut = cml_cells::FIG3_DUT_INDEX;
        let d_dut = r
            .delta_op(dut)
            .unwrap()
            .abs()
            .max(r.delta_opb(dut).unwrap().abs());
        let d_final = r
            .delta_op(7)
            .unwrap()
            .abs()
            .max(r.delta_opb(7).unwrap().abs());
        assert!(
            d_dut > 20.0e-12,
            "DUT crossing shift {:.1} ps (paper: ~58 ps)",
            d_dut * 1e12
        );
        assert!(
            d_final < 8.0e-12,
            "final stage should heal, Δ = {:.1} ps",
            d_final * 1e12
        );
        assert!(d_dut > 4.0 * d_final);
    }
}
