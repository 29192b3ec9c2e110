//! FIG8 — variant-1 `tstability` and `Vmax` vs frequency, pipe value and
//! load capacitor (paper Figure 8).
//!
//! Shape claims: the time to a stable detector output grows significantly
//! with frequency; the 1 pF load settles much faster than the 10 pF load;
//! the resistor–capacitor load is slower still (checked in the ablation
//! experiment).
//!
//! The sweep is fault-isolated: a corner that fails (no convergence,
//! timestep underflow, even a panic) is recorded in the [`SweepReport`]
//! and rendered as an annotated gap in the table/CSV — the other corners
//! always survive. Set `EXP_INJECT_BAD_CORNER=1` to append a known-bad
//! corner (negative pipe resistance) and watch the machinery work.

use super::fig7::detector_response;
use super::report::{print_table, report_sweep, write_rows_csv};
use crate::Scale;
use cml_dft::DetectorLoad;
use spicier::analysis::sweep::{par_try_map, SweepReport, TryMapOptions};
use spicier::Error;

/// One grid point of a detector-settling sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SettlePoint {
    /// Stimulus frequency, hertz.
    pub freq: f64,
    /// Pipe resistance on the DUT's Q3, ohms.
    pub pipe_ohms: f64,
    /// Load capacitance, farads.
    pub cap: f64,
    /// Time to the first minimum, seconds (`None` = did not fire).
    pub t_stability: Option<f64>,
    /// Post-stability ripple maximum, volts.
    pub v_max: Option<f64>,
    /// Why this corner produced no measurement (`None` = corner ran fine;
    /// a non-firing detector is a *result*, not an error).
    pub error: Option<String>,
}

/// A fault-isolated settling sweep: one point per corner (failed corners
/// annotated via [`SettlePoint::error`]) plus the sweep's failure report.
#[derive(Debug, Clone)]
pub struct SettleSweep {
    /// One point per grid corner, in grid order.
    pub points: Vec<SettlePoint>,
    /// Which corners failed and why.
    pub report: SweepReport,
}

/// Human-readable corner label used in failure CSVs and warnings.
pub fn corner_label(freq: f64, pipe: f64, cap: f64) -> String {
    format!(
        "{:.0} MHz / {:.0} Ω / {:.1} pF",
        freq / 1.0e6,
        pipe,
        cap * 1.0e12
    )
}

/// Sweep driver shared with FIG10: runs the grid for one detector variant
/// (`vtest = None` → variant 1, `Some(v)` → variant 2). Corner failures
/// never abort the sweep; they come back annotated in the result.
pub fn settle_sweep(freqs: &[f64], pipes: &[f64], caps: &[f64], vtest: Option<f64>) -> SettleSweep {
    settle_sweep_grid(spicier::analysis::sweep::grid3(freqs, pipes, caps), vtest)
}

/// [`settle_sweep`] over an explicit corner list (lets callers append
/// extra corners, e.g. the `EXP_INJECT_BAD_CORNER` demonstration).
/// Per-corner deadlines come from `EXP_CORNER_DEADLINE_MS`.
pub fn settle_sweep_grid(grid: Vec<(f64, f64, f64)>, vtest: Option<f64>) -> SettleSweep {
    settle_sweep_grid_with(grid, vtest, &super::common::try_map_options())
}

/// [`settle_sweep_grid`] with explicit sweep options (per-corner deadline,
/// worker cap). A corner equal to [`HANG_CORNER`] runs with the
/// chaos hang injector active, so its Newton loops spin without
/// converging — the per-corner deadline must cut it loose as a timeout
/// while the rest of the grid completes untouched.
pub fn settle_sweep_grid_with(
    grid: Vec<(f64, f64, f64)>,
    vtest: Option<f64>,
    opts: &TryMapOptions,
) -> SettleSweep {
    let corners = grid.clone();
    let (slots, report) = par_try_map(
        grid,
        opts,
        |&(freq, pipe, cap)| -> Result<SettlePoint, Error> {
            // Longer horizon for the big capacitor; always at least 12 periods.
            let base: f64 = if cap > 5.0e-12 { 300.0e-9 } else { 80.0e-9 };
            let t_stop = base.max(12.0 / freq);
            let solve =
                || detector_response(pipe, DetectorLoad::diode_cap(cap), freq, t_stop, vtest);
            let r = if (freq, pipe, cap) == HANG_CORNER {
                spicier::chaos::with_hang(solve)
            } else {
                solve()
            }?;
            Ok(SettlePoint {
                freq,
                pipe_ohms: pipe,
                cap,
                t_stability: r.settling.map(|s| s.t_settle),
                v_max: r.settling.map(|s| s.v_band_max),
                error: None,
            })
        },
    );
    let points = slots
        .into_iter()
        .zip(&corners)
        .enumerate()
        .map(|(idx, (slot, &(freq, pipe, cap)))| {
            slot.unwrap_or_else(|| SettlePoint {
                freq,
                pipe_ohms: pipe,
                cap,
                t_stability: None,
                v_max: None,
                error: report
                    .failures
                    .iter()
                    .find(|fail| fail.index == idx)
                    .map(|fail| fail.failure.to_string()),
            })
        })
        .collect();
    SettleSweep { points, report }
}

/// The FIG8 grids.
pub fn grids(scale: Scale) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    match scale {
        Scale::Full => (
            vec![100.0e6, 250.0e6, 500.0e6, 1.0e9, 1.5e9, 2.0e9],
            vec![1.0e3, 2.0e3, 3.0e3],
            vec![10.0e-12, 1.0e-12],
        ),
        Scale::Quick => (vec![100.0e6, 1.0e9], vec![1.0e3], vec![1.0e-12]),
    }
}

/// A corner guaranteed to fail (negative pipe resistance is rejected by
/// the netlist), used to demonstrate sweep fault isolation end to end.
pub const BAD_CORNER: (f64, f64, f64) = (100.0e6, -1.0, 1.0e-12);

/// A sentinel corner (recognizable pipe value) that runs with the chaos
/// hang injector active: its Newton loops never converge and busy-sleep,
/// standing in for a pathological corner that would stall the campaign.
/// Only a per-corner deadline can end it, as a recorded timeout.
pub const HANG_CORNER: (f64, f64, f64) = (100.0e6, 7.777e3, 1.0e-12);

/// Fallback per-corner deadline installed when the hang demonstration is
/// requested without an explicit `EXP_CORNER_DEADLINE_MS`.
const HANG_DEADLINE_MS: u64 = 300;

/// Whether the operator asked for the demonstration failure corner.
pub fn inject_bad_corner() -> bool {
    std::env::var("EXP_INJECT_BAD_CORNER").is_ok_and(|value| !value.is_empty() && value != "0")
}

/// Whether the operator asked for the demonstration hanging corner
/// (`EXP_INJECT_HANG_CORNER=1`).
pub fn inject_hang_corner() -> bool {
    std::env::var("EXP_INJECT_HANG_CORNER").is_ok_and(|value| !value.is_empty() && value != "0")
}

/// Runs the variant-1 settling sweep. With `EXP_INJECT_BAD_CORNER=1` a
/// known-bad corner is appended; it must show up in the report and as an
/// annotated gap, while every healthy corner still produces data. With
/// `EXP_INJECT_HANG_CORNER=1` a hanging corner is appended and a
/// per-corner deadline (default 300 ms) is installed to time it out.
pub fn run(scale: Scale) -> SettleSweep {
    let (freqs, pipes, caps) = grids(scale);
    let mut grid = spicier::analysis::sweep::grid3(&freqs, &pipes, &caps);
    if inject_bad_corner() {
        println!("  [inject] EXP_INJECT_BAD_CORNER set: appending a known-bad corner");
        grid.push(BAD_CORNER);
    }
    let mut opts = super::common::try_map_options();
    if inject_hang_corner() {
        println!("  [inject] EXP_INJECT_HANG_CORNER set: appending a hanging corner");
        grid.push(HANG_CORNER);
        let deadline = opts
            .corner_deadline
            .get_or_insert(std::time::Duration::from_millis(HANG_DEADLINE_MS));
        println!(
            "  [inject] per-corner deadline: {} ms",
            deadline.as_millis()
        );
    }
    settle_sweep_grid_with(grid, None, &opts)
}

/// Formats and prints a settling sweep (shared with FIG10).
pub fn print_sweep(title: &str, csv_name: &str, sweep: &SettleSweep) {
    let rows: Vec<Vec<String>> = sweep
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.freq / 1.0e6),
                format!("{:.0}", p.pipe_ohms),
                format!("{:.0}", p.cap * 1.0e12),
                p.t_stability
                    .map(|t| format!("{:.1}", t * 1e9))
                    .unwrap_or_else(|| "-".to_string()),
                p.v_max
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_else(|| "-".to_string()),
                match &p.error {
                    None => "ok".to_string(),
                    Some(e) => format!("FAILED: {e}").replace(',', ";"),
                },
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "freq (MHz)",
            "pipe (Ω)",
            "load (pF)",
            "tstability (ns)",
            "Vmax (V)",
            "status",
        ],
        &rows,
    );
    write_rows_csv(
        csv_name,
        &[
            "freq_mhz",
            "pipe_ohms",
            "cap_pf",
            "tstability_ns",
            "vmax_v",
            "status",
        ],
        &rows,
    );
    let labels: Vec<String> = sweep
        .points
        .iter()
        .map(|p| corner_label(p.freq, p.pipe_ohms, p.cap))
        .collect();
    report_sweep(csv_name, &sweep.report, &labels);
}

/// Runs and prints the paper-shaped report. Corner failures degrade to
/// annotated gaps; only a broken experiment definition is an `Err`.
///
/// # Errors
///
/// Currently infallible; the `Result` keeps the `exp_all` contract.
pub fn execute(scale: Scale) -> Result<(), Error> {
    let sweep = run(scale);
    print_sweep(
        "FIG8: variant-1 tstability / Vmax vs frequency, pipe, load capacitor",
        "fig8",
        &sweep,
    );
    println!(
        "  paper shapes: tstability rises with frequency; 1 pF settles much faster than 10 pF"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_cap_settles_slower() {
        let sweep = settle_sweep(&[100.0e6], &[1.0e3], &[10.0e-12, 1.0e-12], None);
        assert!(sweep.report.all_ok(), "{}", sweep.report.summary());
        let t10 = sweep.points[0].t_stability.expect("10 pF fires");
        let t1 = sweep.points[1].t_stability.expect("1 pF fires");
        assert!(
            t10 > 1.5 * t1,
            "10 pF tstability {:.1} ns vs 1 pF {:.1} ns",
            t10 * 1e9,
            t1 * 1e9
        );
    }

    #[test]
    fn tstability_grows_with_frequency() {
        // Above ~1 GHz the variant-1 detector stops firing altogether (the
        // paper itself notes the technique targets below-at-speed test),
        // so compare 100 MHz vs 500 MHz.
        let sweep = settle_sweep(&[100.0e6, 500.0e6], &[1.0e3], &[1.0e-12], None);
        let t_lo = sweep.points[0].t_stability.expect("fires at 100 MHz");
        let t_hi = sweep.points[1].t_stability.expect("fires at 500 MHz");
        assert!(
            t_hi > t_lo,
            "tstability should grow with frequency: {:.2} ns vs {:.2} ns",
            t_hi * 1e9,
            t_lo * 1e9
        );
    }

    #[test]
    fn variant1_stops_firing_at_speed() {
        // The paper's scope statement: variant 1 works "well below
        // at-speed frequencies" — at 2 GHz the excursion no longer
        // develops far enough to fire the detector.
        let sweep = settle_sweep(&[2.0e9], &[1.0e3], &[1.0e-12], None);
        assert!(sweep.points[0].error.is_none());
        assert!(sweep.points[0].t_stability.is_none());
    }

    #[test]
    fn hang_corner_times_out_under_its_deadline() {
        // The hang corner's Newton loops sleep 200 µs per iteration and
        // never converge, so the corner cannot finish before ~630 ms of
        // sleeps — a 500 ms per-corner deadline must always cut it loose
        // as a recorded timeout, never as an ordinary solver failure.
        let opts = TryMapOptions {
            corner_deadline: Some(std::time::Duration::from_millis(500)),
            ..TryMapOptions::default()
        };
        let sweep = settle_sweep_grid_with(vec![HANG_CORNER], None, &opts);
        assert_eq!(sweep.report.failures.len(), 1, "{}", sweep.report.summary());
        assert!(
            sweep.report.summary().contains("1 timed out"),
            "{}",
            sweep.report.summary()
        );
        let msg = sweep.points[0].error.as_deref().expect("annotated gap");
        assert!(msg.contains("timed out"), "{msg}");
        assert!(msg.contains("deadline exceeded"), "{msg}");
    }

    #[test]
    fn hang_corner_does_not_perturb_other_corners() {
        // Same grid with and without the chaos corner appended (no
        // deadline, so the hang corner dies by ladder exhaustion): every
        // healthy corner's measurement must be bit-identical.
        let healthy = (100.0e6, 1.0e3, 1.0e-12);
        let clean = settle_sweep_grid_with(vec![healthy], None, &TryMapOptions::default());
        let chaotic =
            settle_sweep_grid_with(vec![healthy, HANG_CORNER], None, &TryMapOptions::default());
        assert!(clean.report.all_ok());
        assert_eq!(chaotic.report.succeeded, 1);
        assert_eq!(chaotic.points[0], clean.points[0], "healthy corner drifted");
        assert!(chaotic.points[1].error.is_some(), "hang corner must fail");
    }

    #[test]
    fn bad_corner_is_isolated_not_fatal() {
        // One poisoned corner next to one healthy corner: the sweep must
        // finish, report exactly one failure, and annotate the gap.
        let (freq, pipe, cap) = BAD_CORNER;
        let sweep = settle_sweep_grid(vec![(100.0e6, 1.0e3, 1.0e-12), (freq, pipe, cap)], None);
        assert_eq!(sweep.report.total, 2);
        assert_eq!(sweep.report.succeeded, 1);
        assert_eq!(sweep.report.failures.len(), 1);
        assert_eq!(sweep.report.failures[0].index, 1);
        assert!(sweep.points[0].error.is_none());
        assert!(sweep.points[0].t_stability.is_some());
        let gap = &sweep.points[1];
        assert!(gap.t_stability.is_none());
        let msg = gap.error.as_deref().expect("failed corner is annotated");
        assert!(msg.contains("solver error"), "{msg}");
        assert!(
            sweep.report.summary().contains("1/2"),
            "{}",
            sweep.report.summary()
        );
    }
}
