//! FIG4 — chain outputs with a 4 kΩ pipe on the DUT's Q3 (paper Figure 4).
//! [`simulate`] runs that chain pair once; Figure 4's [`swings`] and
//! Tables 1 and 2 ([`super::table1`], [`super::table2`]) all measure it.
//!
//! The pipe nearly doubles the swing at the faulty gate's output, "but,
//! after 4 logic gates, the degraded signal due to the pipe can be
//! completely restored both in terms of logic levels and shape" — the
//! *healing* phenomenon that motivates the whole DFT technique.

use super::common::{fig3_circuit, run_periods, wf};
use super::report::{print_table, v, write_rows_csv, write_waveforms_csv};
use super::{table1, table2};
use crate::Scale;
use cml_cells::BufferChain;
use spicier::analysis::sweep::{par_try_map, TryMapOptions};
use spicier::analysis::tran::TranResult;
use spicier::Error;
use waveform::LevelStats;

/// The fault-free and faulty Figure 3 chains over the same stimulus.
#[derive(Debug, Clone)]
pub struct ChainPair {
    /// The chain's cells; the pipe adds no node, so they probe both runs.
    pub chain: BufferChain,
    /// Fault-free transient.
    pub fault_free: TranResult,
    /// Transient with the 4 kΩ pipe on DUT.Q3.
    pub faulty: TranResult,
    /// The last two stimulus periods, where the chain has settled, seconds.
    pub settled: (f64, f64),
}

/// Builds both chains at 100 MHz, then simulates them (4 periods; quick:
/// 3) on the sweep workers.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn simulate(scale: Scale) -> Result<ChainPair, Error> {
    let freq = 100.0e6;
    let periods = match scale {
        Scale::Full => 4.0,
        Scale::Quick => 3.0,
    };
    let (chain, clean) = fig3_circuit(freq, None)?;
    let (_, faulty) = fig3_circuit(freq, Some(4.0e3))?;
    let (runs, report) = par_try_map(vec![clean, faulty], &TryMapOptions::default(), |c| {
        run_periods(c, freq, periods)
    });
    report.into_result()?;
    let mut runs = runs.into_iter().flatten();
    Ok(ChainPair {
        chain,
        fault_free: runs.next().expect("both chains ran"),
        faulty: runs.next().expect("both chains ran"),
        settled: ((periods - 2.0) / freq, periods / freq),
    })
}

/// Per-stage swing, fault-free vs faulty.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Result {
    /// `(stage name, fault-free swing, faulty swing)` per chain stage.
    pub stages: Vec<(String, f64, f64)>,
    /// Index of the DUT stage.
    pub dut_index: usize,
}

impl Fig4Result {
    /// Swing amplification at the faulty gate.
    pub fn dut_amplification(&self) -> f64 {
        let (_, ff, faulty) = &self.stages[self.dut_index];
        faulty / ff
    }

    /// Residual swing error at the chain's 6th stage (X66, the stage the
    /// paper plots), as a fraction of the fault-free swing.
    pub fn healing_residual(&self) -> f64 {
        let (_, ff, faulty) = &self.stages[6];
        (faulty - ff).abs() / ff
    }
}

/// Measures per-stage swings over the settled periods.
///
/// # Errors
///
/// Fails when a probe is missing.
pub fn swings(pair: &ChainPair) -> Result<Fig4Result, Error> {
    let (t0, t1) = pair.settled;
    let swing = |res, node| -> Result<f64, Error> {
        Ok(LevelStats::measure(&wf(res, node)?, t0, t1).swing())
    };
    let mut stages = Vec::new();
    for cell in &pair.chain.cells {
        stages.push((
            cell.name.clone(),
            swing(&pair.fault_free, cell.output.p)?,
            swing(&pair.faulty, cell.output.p)?,
        ));
    }
    Ok(Fig4Result {
        stages,
        dut_index: cml_cells::FIG3_DUT_INDEX,
    })
}

/// Simulates the pair once, then prints and writes Figure 4, Table 1 and
/// Table 2.
///
/// # Errors
///
/// Propagates simulation and measurement failures.
pub fn execute(scale: Scale) -> Result<(), Error> {
    let pair = simulate(scale)?;
    // Dump the paper's plotted signals: DUT and X66 outputs, both runs.
    let (dut, x66) = (pair.chain.dut(), &pair.chain.cells[6]);
    for (name, res, cols) in [
        ("fig4_fault_free", &pair.fault_free, ["op", "opb", "op6"]),
        ("fig4_faulty", &pair.faulty, ["opf", "opbf", "op6f"]),
    ] {
        let [p, n, p6] = [dut.output.p, dut.output.n, x66.output.p].map(|node| wf(res, node));
        write_waveforms_csv(name, &[(cols[0], &p?), (cols[1], &n?), (cols[2], &p6?)])?;
    }
    let r = swings(&pair)?;
    let rows: Vec<Vec<String>> = r
        .stages
        .iter()
        .map(|(name, ff, flt)| vec![name.clone(), v(*ff), v(*flt), format!("{:.2}x", flt / ff)])
        .collect();
    print_table(
        "FIG4: per-stage output swing, fault-free vs 4 kΩ pipe on DUT.Q3",
        &["stage", "FF swing (V)", "pipe swing (V)", "ratio"],
        &rows,
    );
    println!(
        "  DUT swing amplification: {:.2}x (paper: \"nearly doubled\")",
        r.dut_amplification()
    );
    println!(
        "  healing residual at X66: {:.1}% (paper: completely restored)",
        100.0 * r.healing_residual()
    );
    write_rows_csv("fig4_swings", &["stage", "ff", "pipe", "ratio"], &rows);
    table1::report(&table1::measure(&pair)?);
    table2::report(&table2::measure(&pair)?);
    Ok(())
}

/// The quick-scale pair, simulated once for every unit test that
/// measures it.
#[cfg(test)]
pub(crate) fn quick_pair() -> &'static ChainPair {
    static PAIR: std::sync::OnceLock<ChainPair> = std::sync::OnceLock::new();
    PAIR.get_or_init(|| simulate(Scale::Quick).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_roughly_doubles_dut_swing_and_heals() {
        let r = swings(quick_pair()).unwrap();
        let amp = r.dut_amplification();
        assert!(
            (1.6..3.2).contains(&amp),
            "DUT amplification {amp} (paper: ~2x)"
        );
        assert!(
            r.healing_residual() < 0.05,
            "X66 should be healed, residual {}",
            r.healing_residual()
        );
    }
}
