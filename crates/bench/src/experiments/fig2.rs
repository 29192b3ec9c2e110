//! FIG2 — "Typical stuck-at fault" (paper Figure 2).
//!
//! A collector–emitter short on Q2 of a data buffer maps into an output
//! stuck-at fault: the input pair keeps toggling while one output rail is
//! pinned. This is the class of defect classical test *does* catch; the
//! experiment establishes the contrast with the pipe defects of FIG4+.

use super::common::{run_periods, wf};
use super::report::{print_table, v, write_rows_csv, write_waveforms_csv};
use crate::Scale;
use cml_cells::{CmlCircuitBuilder, CmlProcess};
use faults::Defect;
use spicier::netlist::Terminal;
use spicier::Error;
use waveform::LevelStats;

/// Measured levels of the faulty buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Result {
    /// Input high/low (sanity: still toggling).
    pub input: LevelStats,
    /// `op` levels with the C–E short on Q2.
    pub op: LevelStats,
    /// `opb` levels with the C–E short on Q2.
    pub opb: LevelStats,
    /// Whether at least one output is stuck (swing below 50 mV while the
    /// input toggles).
    pub stuck: bool,
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run(scale: Scale) -> Result<Fig2Result, Error> {
    let freq = 100.0e6;
    let periods = match scale {
        Scale::Full => 4.0,
        Scale::Quick => 2.0,
    };
    let mut b = CmlCircuitBuilder::new(CmlProcess::paper());
    let input = b.diff("af");
    b.drive_differential("a", input, freq)?;
    let cell = b.buffer("X1", input)?;
    let mut nl = b.finish();
    Defect::terminal_short("X1.Q2", Terminal::Collector, Terminal::Emitter).inject(&mut nl)?;
    let circuit = nl.compile()?;
    let res = run_periods(&circuit, freq, periods)?;
    let t0 = (periods - 2.0).max(0.0) / freq;
    let t1 = periods / freq;
    let w_in = wf(&res, input.p)?;
    let w_op = wf(&res, cell.output.p)?;
    let w_opb = wf(&res, cell.output.n)?;
    write_waveforms_csv(
        "fig2_waveforms",
        &[("af", &w_in), ("opf", &w_op), ("opbf", &w_opb)],
    )?;
    let input_stats = LevelStats::measure(&w_in, t0, t1);
    let op = LevelStats::measure(&w_op, t0, t1);
    let opb = LevelStats::measure(&w_opb, t0, t1);
    let stuck = (op.swing() < 0.05 || opb.swing() < 0.05) && input_stats.swing() > 0.2;
    Ok(Fig2Result {
        input: input_stats,
        op,
        opb,
        stuck,
    })
}

/// Runs and prints the paper-shaped report.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn execute(scale: Scale) -> Result<(), Error> {
    let r = run(scale)?;
    let rows = vec![
        vec![
            "af (input)".to_string(),
            v(r.input.vhigh),
            v(r.input.vlow),
            v(r.input.swing()),
        ],
        vec![
            "opf".to_string(),
            v(r.op.vhigh),
            v(r.op.vlow),
            v(r.op.swing()),
        ],
        vec![
            "opbf".to_string(),
            v(r.opb.vhigh),
            v(r.opb.vlow),
            v(r.opb.swing()),
        ],
    ];
    print_table(
        "FIG2: C-E short on Q2 maps to an output stuck-at fault",
        &["signal", "vhigh (V)", "vlow (V)", "swing (V)"],
        &rows,
    );
    println!(
        "  verdict: output stuck = {} (paper: stuck-at-0 on the op rail)",
        r.stuck
    );
    write_rows_csv("fig2_levels", &["signal", "vhigh", "vlow", "swing"], &rows);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ce_short_produces_stuck_output() {
        let r = run(Scale::Quick).unwrap();
        assert!(r.stuck, "op {:?} opb {:?}", r.op, r.opb);
        // The input is healthy.
        assert!(r.input.swing() > 0.2);
    }
}
