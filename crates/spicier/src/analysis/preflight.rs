//! Structural pre-flight diagnostics on the assembled MNA pattern.
//!
//! Assembles the system once at the zero vector with `gmin = 0` — so the
//! blanket conductance cannot mask a DC-floating node — and scans the
//! resulting pattern for defects that would make the first factorization
//! fail or its numbers meaningless. Findings name the offending node or
//! branch element, instead of the `SingularMatrix` (a column number, a
//! pivot and its scale) that otherwise surfaces from deep inside the LU
//! kernel.
//!
//! Two entry points with different contracts:
//!
//! * [`preflight`] never fails: it returns every finding so the DC
//!   recovery ladder can attach them to its [`ConvergenceReport`] as
//!   diagnostics. The ladder's gmin rungs *cure* a DC-floating node (a
//!   capacitor-only island is pinned by the baseline gmin), so fatal
//!   findings here do not imply the solve will fail;
//! * [`assert_preflight`] is the strict form for callers that want broken
//!   netlists rejected up front with [`Error::PreflightFailed`], before
//!   any factorization runs.
//!
//! [`ConvergenceReport`]: super::dc::ConvergenceReport

use super::mna::{Assembler, EvalMode};
use crate::error::Error;
use crate::linalg::Triplets;
use crate::netlist::Circuit;

/// Dynamic range of entry magnitudes above which [`preflight`] emits an
/// [`PreflightFinding::ExtremeScaling`] warning. Double precision carries
/// ~16 decimal digits; a pattern spanning more than 14 decades leaves the
/// small entries with no trustworthy bits after elimination against the
/// large ones.
pub const SCALING_RATIO_WARN: f64 = 1.0e14;

/// One structural defect (or suspicious feature) of the assembled pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum PreflightFinding {
    /// The unknown has neither an equation row nor a column entry: no
    /// element drives it and none senses it. With `gmin = 0` the matrix is
    /// structurally singular at this index. Fatal.
    FloatingNode {
        /// Index of the unknown in the MNA vector.
        unknown: usize,
        /// Human-readable name (`node \`mid\``, `branch current of \`V1\``).
        name: String,
    },
    /// The unknown's equation row is structurally empty while its column
    /// is not: nothing constrains it even though other equations depend on
    /// it. Fatal.
    EmptyRow {
        /// Index of the unknown in the MNA vector.
        unknown: usize,
        /// Human-readable name of the unknown.
        name: String,
    },
    /// The unknown appears in no equation while its own row is non-empty:
    /// the matrix has a structurally zero column. Fatal.
    EmptyColumn {
        /// Index of the unknown in the MNA vector.
        unknown: usize,
        /// Human-readable name of the unknown.
        name: String,
    },
    /// A node row with entries but no structural diagonal and no coupling
    /// to any branch equation: the node's voltage is defined only through
    /// other node voltages (e.g. a bare controlled-source mesh). Often
    /// still solvable — reported as a warning. Node rows coupled to a
    /// voltage-source branch are *not* flagged; a missing diagonal is
    /// normal there.
    ZeroDiagonal {
        /// Index of the unknown in the MNA vector.
        unknown: usize,
        /// Human-readable name of the unknown.
        name: String,
    },
    /// Entry magnitudes span more than [`SCALING_RATIO_WARN`]: elimination
    /// will shred the low-order bits of the small entries. Warning.
    ExtremeScaling {
        /// Largest entry magnitude in the assembled pattern.
        max_abs: f64,
        /// Smallest nonzero entry magnitude.
        min_abs: f64,
    },
}

impl PreflightFinding {
    /// Whether this finding makes the `gmin = 0` system structurally
    /// singular (empty row or column). Warnings return `false`.
    #[must_use]
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            PreflightFinding::FloatingNode { .. }
                | PreflightFinding::EmptyRow { .. }
                | PreflightFinding::EmptyColumn { .. }
        )
    }
}

impl std::fmt::Display for PreflightFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreflightFinding::FloatingNode { name, .. } => {
                write!(
                    f,
                    "{name} is floating: no element drives or senses it at dc"
                )
            }
            PreflightFinding::EmptyRow { name, .. } => {
                write!(f, "{name} has a structurally empty equation row")
            }
            PreflightFinding::EmptyColumn { name, .. } => {
                write!(
                    f,
                    "{name} appears in no equation (structurally zero column)"
                )
            }
            PreflightFinding::ZeroDiagonal { name, .. } => {
                write!(
                    f,
                    "{name} has no structural diagonal and no branch coupling"
                )
            }
            PreflightFinding::ExtremeScaling { max_abs, min_abs } => {
                write!(
                    f,
                    "entry magnitudes span {:.1} decades ({max_abs:.3e} vs {min_abs:.3e})",
                    (max_abs / min_abs).log10()
                )
            }
        }
    }
}

/// Outcome of a pre-flight scan: every finding, fatal and warning.
#[derive(Debug, Clone, PartialEq, Default)]
#[must_use]
pub struct PreflightReport {
    /// Every finding, in unknown order (pattern-wide warnings last).
    pub findings: Vec<PreflightFinding>,
    /// Dimension of the scanned system.
    pub dim: usize,
}

impl PreflightReport {
    /// Whether the scan found nothing at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Whether any finding is fatal (structurally singular at `gmin = 0`).
    #[must_use]
    pub fn has_fatal(&self) -> bool {
        self.findings.iter().any(PreflightFinding::is_fatal)
    }

    /// The fatal findings only.
    pub fn fatal(&self) -> impl Iterator<Item = &PreflightFinding> {
        self.findings.iter().filter(|f| f.is_fatal())
    }

    /// Every finding rendered to its display string.
    #[must_use]
    pub fn messages(&self) -> Vec<String> {
        self.findings.iter().map(ToString::to_string).collect()
    }
}

/// Human-readable label for MNA unknown `idx`: the node's name for node
/// voltages, the owning element's name for branch currents.
fn unknown_label(circuit: &Circuit, idx: usize) -> String {
    let n_nodes = circuit.node_unknowns();
    if idx < n_nodes {
        circuit
            .node_ids()
            .find(|id| id.unknown() == Some(idx))
            .map(|id| format!("node `{}`", circuit.node_name(id)))
            .unwrap_or_else(|| format!("unknown {idx}"))
    } else {
        match circuit.branch_elements().get(idx - n_nodes) {
            Some(&e_idx) => format!("branch current of `{}`", circuit.element_slice()[e_idx].0),
            None => format!("unknown {idx}"),
        }
    }
}

/// Scans the assembled MNA pattern for structural defects. Never fails;
/// see the module docs for the fatal/warning split.
pub fn preflight(circuit: &Circuit) -> PreflightReport {
    let dim = circuit.dim();
    let n_nodes = circuit.node_unknowns();
    let mut assembler = Assembler::new(circuit);
    // Judge the assembled matrix, not the stamps: the sealed program's
    // entries are its slots, so stamps that cancel in one slot leave it
    // empty.
    let mut triplets = Triplets::new(dim);
    let mut rhs = Vec::new();
    let x = vec![0.0; dim];
    // gmin = 0: the blanket conductance would put a value on every node
    // diagonal and hide exactly the defects this scan exists to find.
    assembler.assemble(&x, &EvalMode::dc(0.0), &mut triplets, &mut rhs);

    let mut row_nnz = vec![0usize; dim];
    let mut col_nnz = vec![0usize; dim];
    let mut has_diag = vec![false; dim];
    let mut branch_coupled = vec![false; dim];
    let mut max_abs = 0.0f64;
    let mut min_abs = f64::INFINITY;
    for &(r, c, v) in triplets.entries() {
        if v == 0.0 {
            continue;
        }
        row_nnz[r] += 1;
        col_nnz[c] += 1;
        if r == c {
            has_diag[r] = true;
        }
        if c >= n_nodes {
            branch_coupled[r] = true;
        }
        let a = v.abs();
        max_abs = max_abs.max(a);
        min_abs = min_abs.min(a);
    }

    let mut findings = Vec::new();
    for i in 0..dim {
        let finding = match (row_nnz[i] == 0, col_nnz[i] == 0) {
            (true, true) => Some(PreflightFinding::FloatingNode {
                unknown: i,
                name: unknown_label(circuit, i),
            }),
            (true, false) => Some(PreflightFinding::EmptyRow {
                unknown: i,
                name: unknown_label(circuit, i),
            }),
            (false, true) => Some(PreflightFinding::EmptyColumn {
                unknown: i,
                name: unknown_label(circuit, i),
            }),
            (false, false) => {
                if i < n_nodes && !has_diag[i] && !branch_coupled[i] {
                    Some(PreflightFinding::ZeroDiagonal {
                        unknown: i,
                        name: unknown_label(circuit, i),
                    })
                } else {
                    None
                }
            }
        };
        findings.extend(finding);
    }
    if min_abs.is_finite() && max_abs / min_abs > SCALING_RATIO_WARN {
        findings.push(PreflightFinding::ExtremeScaling { max_abs, min_abs });
    }
    PreflightReport { findings, dim }
}

/// Strict pre-flight: rejects circuits with fatal structural findings.
///
/// # Errors
///
/// Returns [`Error::PreflightFailed`] listing every fatal finding (with
/// named nodes) when the `gmin = 0` pattern is structurally singular.
/// Warnings alone do not fail; they are in the returned report.
pub fn assert_preflight(circuit: &Circuit) -> Result<PreflightReport, Error> {
    let report = preflight(circuit);
    if report.has_fatal() {
        return Err(Error::PreflightFailed {
            findings: report.fatal().map(ToString::to_string).collect(),
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::dc::{operating_point, DcOptions};
    use crate::netlist::Netlist;

    #[test]
    fn healthy_divider_is_clean() {
        let mut nl = Netlist::new();
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.vdc("V1", vin, Netlist::GROUND, 3.3).unwrap();
        nl.resistor("R1", vin, out, 1.0e3).unwrap();
        nl.resistor("R2", out, Netlist::GROUND, 2.0e3).unwrap();
        let circuit = nl.compile().unwrap();
        let report = assert_preflight(&circuit).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn floating_cap_node_is_named_before_any_factorization() {
        // A node held only by a capacitor: floating at dc. The strict
        // entry point must reject it *by name*; the recovery ladder still
        // solves it (the baseline gmin pins the node — see the
        // `floating_node_is_pinned_not_fatal` torture test).
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let mid = nl.node("mid");
        nl.vdc("V1", a, Netlist::GROUND, 1.0).unwrap();
        nl.resistor("R1", a, Netlist::GROUND, 1.0e3).unwrap();
        nl.capacitor("C1", mid, Netlist::GROUND, 1.0e-12).unwrap();
        let circuit = nl.compile().unwrap();

        let err = assert_preflight(&circuit).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("pre-flight structural check failed"), "{msg}");
        assert!(msg.contains("node `mid`"), "{msg}");
        assert!(msg.contains("floating"), "{msg}");

        // The non-strict path records the same finding as a diagnostic and
        // still converges.
        let op = operating_point(&circuit, &DcOptions::default()).unwrap();
        assert!(
            op.report()
                .preflight
                .iter()
                .any(|m| m.contains("node `mid`")),
            "{:?}",
            op.report().preflight
        );
    }

    #[test]
    fn current_source_into_open_node_is_fatal() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let open = nl.node("open");
        nl.vdc("V1", a, Netlist::GROUND, 1.0).unwrap();
        nl.resistor("R1", a, Netlist::GROUND, 1.0e3).unwrap();
        nl.idc("I1", open, Netlist::GROUND, 1.0e-3).unwrap();
        let circuit = nl.compile().unwrap();
        let err = assert_preflight(&circuit).unwrap_err();
        assert!(err.to_string().contains("node `open`"), "{err}");
    }

    #[test]
    fn stamps_that_cancel_leave_a_floating_node() {
        // R1 and a VCCS sensing its own node with gm = −1/R1: the two
        // stamps on `a`'s diagonal cancel exactly, so at gmin = 0 its row
        // and column are empty. Judged on the dense kernel's side of the
        // cutoff and, with a resistor ladder added, on the sparse one's.
        for ladder in [0, crate::linalg::DENSE_CUTOFF] {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            nl.resistor("R1", a, Netlist::GROUND, 1.0e3).unwrap();
            nl.vccs("G1", a, Netlist::GROUND, a, Netlist::GROUND, -1.0e-3)
                .unwrap();
            let top = nl.node("top");
            nl.vdc("V1", top, Netlist::GROUND, 1.0).unwrap();
            let mut prev = top;
            for k in 0..ladder {
                let node = nl.node(&format!("n{k}"));
                nl.resistor(&format!("RL{k}"), prev, node, 1.0e3).unwrap();
                prev = node;
            }
            nl.resistor("RT", prev, Netlist::GROUND, 1.0e3).unwrap();
            let circuit = nl.compile().unwrap();
            assert_eq!(circuit.dim() > crate::linalg::DENSE_CUTOFF, ladder > 0);
            let err = assert_preflight(&circuit).unwrap_err().to_string();
            assert!(err.contains("node `a` is floating"), "{err}");
        }
    }

    #[test]
    fn vsource_only_node_is_not_flagged() {
        // A node defined solely by a voltage-source branch has no
        // structural diagonal — that is normal MNA, not a defect.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vdc("V1", a, Netlist::GROUND, 1.0).unwrap();
        nl.resistor("R1", a, Netlist::GROUND, 1.0e3).unwrap();
        let circuit = nl.compile().unwrap();
        assert!(preflight(&circuit).is_clean());
    }

    #[test]
    fn wild_scaling_warns_but_does_not_fail() {
        // Sixteen decades between conductances: 1e-15 Ω wire vs 10 GΩ
        // bleed. Solvable, but elimination loses the small entries.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vdc("V1", a, Netlist::GROUND, 1.0).unwrap();
        nl.resistor("RW", a, b, 1.0e-15).unwrap();
        nl.resistor("RB", b, Netlist::GROUND, 1.0e10).unwrap();
        let circuit = nl.compile().unwrap();
        let report = assert_preflight(&circuit).unwrap();
        assert!(!report.is_clean());
        assert!(!report.has_fatal());
        assert!(
            matches!(
                report.findings.as_slice(),
                [PreflightFinding::ExtremeScaling { .. }]
            ),
            "{:?}",
            report.findings
        );
        assert!(report.messages()[0].contains("decades"));
    }
}
