//! Deck runner: executes every analysis card of a parsed SPICE deck and
//! renders a plain-text report. Backs the `spicier` command-line binary
//! and is directly testable in-library.

use crate::analysis::ac::{ac_analysis, decade_freqs, AcOptions};
use crate::analysis::dc::{operating_point, sweep_vsource, DcOptions};
use crate::analysis::tran::{transient, TranOptions};
use crate::error::Error;
use crate::spice::{parse_deck, AnalysisCard};
use crate::telemetry::TelemetrySummary;
use std::fmt::Write as _;

/// Parses `text` as a SPICE deck and runs every analysis card, returning
/// a human-readable report and the merged solver cost of the analyses
/// it ran.
///
/// `.op` prints node voltages; `.dc` prints the swept node table; `.tran`
/// prints a CSV of all node voltages; `.ac` prints magnitude/phase of all
/// nodes. `.ic` cards apply to transient runs.
///
/// # Errors
///
/// Propagates parse and simulation failures.
pub fn run_deck(text: &str) -> Result<(String, TelemetrySummary), Error> {
    let deck = parse_deck(text)?;
    let circuit = deck.netlist.compile()?;
    let mut out = String::new();
    let mut cost = TelemetrySummary::default();
    let _ = writeln!(out, "* {}", deck.title);

    if deck.analyses.is_empty() {
        let _ = writeln!(out, "* no analysis cards; running .op by default");
    }
    let analyses: Vec<AnalysisCard> = if deck.analyses.is_empty() {
        vec![AnalysisCard::Op]
    } else {
        deck.analyses.clone()
    };

    for card in &analyses {
        match card {
            AnalysisCard::Op => {
                let op = operating_point(&circuit, &DcOptions::default())?;
                cost.absorb(op.telemetry());
                let _ = writeln!(out, "\n[op]");
                for node in circuit.node_ids().skip(1) {
                    let _ = writeln!(
                        out,
                        "V({}) = {:.6}",
                        circuit.node_name(node),
                        op.voltage(node)
                    );
                }
            }
            AnalysisCard::Dc {
                source,
                start,
                stop,
                step,
            } => {
                if *step == 0.0 || (stop - start) * step < 0.0 {
                    return Err(Error::InvalidOptions(format!(
                        ".dc step {step} cannot reach {stop} from {start}"
                    )));
                }
                let mut values = Vec::new();
                let mut v = *start;
                let count = ((stop - start) / step).abs().round() as usize;
                for _ in 0..=count {
                    values.push(v);
                    v += step;
                }
                let sols = sweep_vsource(&circuit, source, &values, &DcOptions::default())?;
                for sol in &sols {
                    cost.absorb(sol.telemetry());
                }
                let _ = writeln!(out, "\n[dc {source}]");
                let mut header = String::from("sweep");
                for node in circuit.node_ids().skip(1) {
                    let _ = write!(header, ",V({})", circuit.node_name(node));
                }
                let _ = writeln!(out, "{header}");
                for (value, sol) in values.iter().zip(&sols) {
                    let _ = write!(out, "{value:.6}");
                    for node in circuit.node_ids().skip(1) {
                        let _ = write!(out, ",{:.6}", sol.voltage(node));
                    }
                    let _ = writeln!(out);
                }
            }
            AnalysisCard::Tran { t_stop, .. } => {
                let mut opts = TranOptions::new(*t_stop);
                for (node_name, volts) in &deck.initial_conditions {
                    let node = circuit.find_node(node_name)?;
                    opts = opts.with_initial_voltage(node, *volts);
                }
                let res = transient(&circuit, &opts)?;
                cost.absorb(res.telemetry());
                let _ = writeln!(out, "\n[tran {t_stop:e}]");
                let mut header = String::from("time");
                for node in circuit.node_ids().skip(1) {
                    let _ = write!(header, ",V({})", circuit.node_name(node));
                }
                let _ = writeln!(out, "{header}");
                // One lookup per node, not one per sample.
                let traces: Vec<Option<&[f64]>> =
                    circuit.node_ids().skip(1).map(|n| res.trace(n)).collect();
                for (k, &t) in res.time().iter().enumerate() {
                    let _ = write!(out, "{t:.6e}");
                    for trace in &traces {
                        let v = trace.map_or(0.0, |tr| tr[k]);
                        let _ = write!(out, ",{v:.6}");
                    }
                    let _ = writeln!(out);
                }
            }
            AnalysisCard::Ac {
                points_per_decade,
                f_start,
                f_stop,
            } => {
                // Use the first voltage source as the excitation, per
                // common single-source AC decks.
                let source = circuit
                    .elements()
                    .find_map(|(name, e)| {
                        matches!(e, crate::netlist::Element::VoltageSource { .. })
                            .then(|| name.to_string())
                    })
                    .ok_or_else(|| {
                        Error::InvalidOptions(".ac needs a voltage source".to_string())
                    })?;
                let freqs = decade_freqs(*f_start, *f_stop, *points_per_decade);
                let res = ac_analysis(&circuit, &AcOptions::new(&source, freqs))?;
                cost.absorb(res.telemetry());
                let _ = writeln!(out, "\n[ac {source}]");
                let mut header = String::from("freq");
                for node in circuit.node_ids().skip(1) {
                    let name = circuit.node_name(node);
                    let _ = write!(header, ",mag_db({name}),phase_deg({name})");
                }
                let _ = writeln!(out, "{header}");
                for (k, &f) in res.freqs().iter().enumerate() {
                    let _ = write!(out, "{f:.6e}");
                    for node in circuit.node_ids().skip(1) {
                        let z = res.response(node, k);
                        let _ = write!(out, ",{:.3},{:.2}", z.db(), z.phase_deg());
                    }
                    let _ = writeln!(out);
                }
            }
        }
    }
    Ok((out, cost))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_op_deck() {
        let (report, cost) =
            run_deck("divider\nV1 in 0 3.3\nR1 in out 1k\nR2 out 0 2k\n.op\n.end\n").unwrap();
        assert!(report.contains("[op]"));
        assert!(report.contains("V(out) = 2.2"), "{report}");
        assert_eq!(cost.analyses, 1);
        assert!(cost.newton_iterations > 0 && cost.lu.solves > 0, "{cost:?}");
    }

    #[test]
    fn tran_counts_its_operating_point() {
        let deck = |card: &str| {
            format!(
                "diode rc\nV1 in 0 PULSE(0 1 0 1n 1n 10n 20n)\nR1 in a 1k\nD1 a out DX\n\
                 C1 out 0 1n\n.model DX D (IS=1e-14)\n{card}\n.end\n"
            )
        };
        let (_, op) = run_deck(&deck(".op")).unwrap();
        let (_, tran) = run_deck(&deck(".tran 1n 40n")).unwrap();
        assert!(!tran.rung_iterations.is_empty(), "{tran:?}");
        assert_eq!(tran.rung_iterations, op.rung_iterations);
        // Each Newton iteration is one LU solve, the operating point's
        // included.
        assert!(op.newton_iterations > 0);
        assert_eq!(tran.newton_iterations, tran.lu.solves as u64, "{tran:?}");
    }

    #[test]
    fn runs_tran_with_ic() {
        let report = run_deck(
            "rc\nV1 in 0 1.0\nR1 in out 1k\nC1 out 0 1n\n.ic V(out)=0.5\n.tran 10n 3u\n.end\n",
        )
        .unwrap()
        .0;
        assert!(report.contains("[tran"));
        // First data row starts at the IC value.
        let first_row = report
            .lines()
            .skip_while(|l| !l.starts_with("time"))
            .nth(1)
            .unwrap();
        let v_out: f64 = first_row.split(',').nth(2).unwrap().parse().unwrap();
        assert!((v_out - 0.5).abs() < 1e-6, "{first_row}");
    }

    #[test]
    fn tran_table_bytes_are_pinned() {
        let (report, _) = run_deck(
            "rc ladder\nV1 in 0 PULSE(0 1 0 1n 1n 4n 10n)\nR1 in a 1k\nC1 a 0 1p\n\
             R2 a b 2k\nC2 b 0 2p\n.tran 0.5n 20n\n.end\n",
        )
        .unwrap();
        // FNV-1a over the report, rows and header alike.
        let digest = report.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(
            (report.lines().count(), format!("{digest:016x}")),
            (341, "c0804e1d4e59849a".to_string())
        );
    }

    #[test]
    fn runs_dc_sweep() {
        let report = run_deck("sweep\nV1 in 0 0\nR1 in out 1k\nR2 out 0 1k\n.dc V1 0 2 1\n.end\n")
            .unwrap()
            .0;
        assert!(report.contains("[dc V1]"));
        // Three sweep rows: 0, 1, 2 → out = 0, 0.5, 1.0.
        assert!(report.contains("2.000000,1.000000"), "{report}");
    }

    #[test]
    fn runs_ac_deck() {
        let report =
            run_deck("lowpass\nV1 in 0 0\nR1 in out 1k\nC1 out 0 1n\n.ac dec 10 1k 10meg\n.end\n")
                .unwrap()
                .0;
        assert!(report.contains("[ac V1]"));
        assert!(report.contains("mag_db(out)"));
    }

    #[test]
    fn defaults_to_op_without_cards() {
        let (report, _) = run_deck("bare\nV1 a 0 1\nR1 a 0 1k\n.end\n").unwrap();
        assert!(report.contains("[op]"));
    }

    #[test]
    fn degenerate_dc_step_is_rejected() {
        let deck = "t\nV1 a 0 1\nR1 a 0 1k\n.dc V1 0 2 0\n.end\n";
        assert!(run_deck(deck).is_err());
        let deck = "t\nV1 a 0 1\nR1 a 0 1k\n.dc V1 2 0 0.5\n.end\n";
        assert!(run_deck(deck).is_err());
    }

    #[test]
    fn parse_errors_surface() {
        assert!(run_deck("bad\nR1 a 0\n.end\n").is_err());
    }
}
