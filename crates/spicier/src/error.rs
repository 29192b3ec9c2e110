//! Error types for circuit construction and simulation.

use std::fmt;

/// Errors produced while building a netlist or running an analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// An element with this name already exists in the netlist.
    DuplicateElement(String),
    /// No element with this name exists in the netlist.
    UnknownElement(String),
    /// No node with this name exists in the netlist.
    UnknownNode(String),
    /// The referenced element does not have the requested terminal
    /// (for example, asking for the base of a resistor).
    InvalidTerminal {
        /// Element whose terminal was requested.
        element: String,
        /// Terminal that does not exist on that element.
        terminal: &'static str,
    },
    /// A component value is non-physical (negative resistance magnitude of
    /// zero, non-finite value, ...).
    InvalidValue {
        /// Element the value belongs to.
        element: String,
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The DC operating point did not converge, even after escalating
    /// through the full recovery ladder (gmin stepping, source stepping,
    /// pseudo-transient continuation).
    DcNoConvergence {
        /// Newton iterations spent across every attempt.
        iterations: usize,
        /// Maximum residual at the last iterate.
        residual: f64,
        /// Per-rung account of the recovery ladder, when the failure came
        /// from the operating-point solver (inner solves leave it `None`).
        report: Option<Box<crate::analysis::dc::ConvergenceReport>>,
    },
    /// Transient analysis could not complete a timestep above the minimum
    /// step size.
    TimestepTooSmall {
        /// Simulation time at which the failure occurred, in seconds.
        time: f64,
        /// The step size that still failed, in seconds.
        step: f64,
    },
    /// The MNA matrix is structurally or numerically singular: the
    /// largest pivot left in some column is an exact zero, or under a
    /// small multiple of ε times the column's scale (see
    /// [`linalg`](crate::linalg)).
    SingularMatrix {
        /// Column at which factorization failed, in the order the kernel
        /// eliminates.
        column: usize,
        /// Magnitude of the largest pivot candidate left in the column.
        pivot: f64,
        /// The scale the pivot was judged against: the largest magnitude
        /// the column's candidate entries would have if no elimination
        /// update that formed them had cancelled.
        scale: f64,
    },
    /// A linear-solver API was used outside its contract (mismatched
    /// dimensions, solving before factoring, ...). Recoverable: sweep
    /// workers and the convergence ladder treat it like any other failed
    /// solve instead of aborting the process.
    SolverContract {
        /// Human-readable description of the violated precondition.
        reason: String,
    },
    /// An option value passed to an analysis is invalid.
    InvalidOptions(String),
    /// Failure while parsing an engineering-notation value such as `"4k"`.
    ParseValue(String),
    /// A budgeted analysis hit its `RunBudget` Newton-iteration or
    /// timestep cap, or the corner token installed with
    /// `with_corner_token` expired or was cancelled. Non-retriable: the
    /// recovery ladder and transient salvage surface it immediately
    /// instead of spending the remaining budget on escalation.
    DeadlineExceeded {
        /// Analysis that was interrupted.
        phase: crate::analysis::budget::Phase,
        /// Wall-clock time spent in the analysis call before it gave up.
        elapsed: std::time::Duration,
        /// Fraction of the call's work completed, in `[0, 1]` (ladder
        /// rungs finished, simulated-time fraction, sweep points done).
        progress: f64,
    },
    /// Residual certification of a linear solve failed: the backward error
    /// stayed above tolerance even after iterative refinement, so the
    /// solution cannot be trusted. Non-retriable, like
    /// [`Error::DeadlineExceeded`]: the factorization (or the matrix
    /// itself) is numerically rotten, and re-running the same solve —
    /// another ladder rung, another attempt — would only reproduce the same
    /// untrusted numbers.
    UntrustedSolution {
        /// Normalized ∞-norm backward error `‖Ax−b‖ / (‖A‖‖x‖+‖b‖)`
        /// after the last refinement step.
        backward_error: f64,
        /// The certification tolerance the solve had to meet
        /// (`linalg::verify::DEFAULT_BWERR_TOL`, `1e-8`).
        tolerance: f64,
        /// Iterative-refinement steps spent before giving up.
        refinement_steps: usize,
        /// Hager/Higham 1-norm condition estimate of the factored matrix,
        /// computed on the failure path.
        cond_estimate: f64,
    },
    /// Structural pre-flight diagnostics rejected the circuit before the
    /// first factorization: the assembled MNA pattern has fatal defects
    /// (unknowns no element drives or senses). Produced only by the strict
    /// [`assert_preflight`](crate::analysis::preflight::assert_preflight)
    /// entry point — the DC recovery ladder records the same findings as
    /// diagnostics instead, because its gmin rungs can cure a DC-floating
    /// node.
    PreflightFailed {
        /// One message per fatal finding, naming the offending node or
        /// branch element.
        findings: Vec<String>,
    },
}

impl Error {
    /// Whether this is a budget violation ([`Error::DeadlineExceeded`]),
    /// which retry and salvage layers must treat as non-retriable.
    #[must_use]
    pub fn is_deadline_exceeded(&self) -> bool {
        matches!(self, Error::DeadlineExceeded { .. })
    }

    /// Whether this is a failed residual certification
    /// ([`Error::UntrustedSolution`]), which retry and salvage layers must
    /// treat as non-retriable: repeating the solve reproduces the same
    /// untrusted numbers.
    #[must_use]
    pub fn is_untrusted_solution(&self) -> bool {
        matches!(self, Error::UntrustedSolution { .. })
    }

    /// Whether retry/escalation layers must surface this error immediately
    /// instead of retrying ([`Error::DeadlineExceeded`] or
    /// [`Error::UntrustedSolution`]).
    #[must_use]
    pub fn is_non_retriable(&self) -> bool {
        self.is_deadline_exceeded() || self.is_untrusted_solution()
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DuplicateElement(name) => {
                write!(f, "duplicate element name `{name}`")
            }
            Error::UnknownElement(name) => write!(f, "unknown element `{name}`"),
            Error::UnknownNode(name) => write!(f, "unknown node `{name}`"),
            Error::InvalidTerminal { element, terminal } => {
                write!(f, "element `{element}` has no terminal `{terminal}`")
            }
            Error::InvalidValue { element, reason } => {
                write!(f, "invalid value on `{element}`: {reason}")
            }
            Error::DcNoConvergence {
                iterations,
                residual,
                report,
            } => {
                write!(
                    f,
                    "dc operating point failed to converge after {iterations} iterations \
                     (residual {residual:.3e})"
                )?;
                if let Some(report) = report {
                    write!(f, "; {}", report.summary())?;
                }
                Ok(())
            }
            Error::TimestepTooSmall { time, step } => write!(
                f,
                "transient timestep underflow at t = {time:.6e} s (h = {step:.3e} s)"
            ),
            Error::SingularMatrix {
                column,
                pivot,
                scale,
            } => write!(
                f,
                "singular MNA matrix at column {column} (pivot {pivot:.3e} against column \
                 scale {scale:.3e})"
            ),
            Error::SolverContract { reason } => {
                write!(f, "solver contract violation: {reason}")
            }
            Error::InvalidOptions(reason) => write!(f, "invalid analysis options: {reason}"),
            Error::ParseValue(text) => write!(f, "cannot parse value `{text}`"),
            Error::DeadlineExceeded {
                phase,
                elapsed,
                progress,
            } => write!(
                f,
                "deadline exceeded in {phase} after {:.3} s ({:.0}% done)",
                elapsed.as_secs_f64(),
                progress * 100.0
            ),
            Error::UntrustedSolution {
                backward_error,
                tolerance,
                refinement_steps,
                cond_estimate,
            } => write!(
                f,
                "untrusted solution: backward error {backward_error:.3e} exceeds tolerance \
                 {tolerance:.1e} after {refinement_steps} refinement step{} \
                 (1-norm condition estimate {cond_estimate:.3e})",
                if *refinement_steps == 1 { "" } else { "s" }
            ),
            Error::PreflightFailed { findings } => {
                write!(
                    f,
                    "pre-flight structural check failed: {}",
                    findings.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = Error::DuplicateElement("R1".to_string());
        let msg = e.to_string();
        assert!(msg.starts_with("duplicate"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Error::UnknownNode("x".into())).is_empty());
    }

    #[test]
    fn singular_matrix_names_its_pivot_and_column_scale() {
        let e = Error::SingularMatrix {
            column: 3,
            pivot: 2.5e-17,
            scale: 0.5,
        };
        assert!(!e.is_non_retriable());
        assert_eq!(
            e.to_string(),
            "singular MNA matrix at column 3 (pivot 2.500e-17 against column scale 5.000e-1)"
        );
    }

    #[test]
    fn untrusted_solution_is_non_retriable() {
        let e = Error::UntrustedSolution {
            backward_error: 1.5e-3,
            tolerance: 1.0e-8,
            refinement_steps: 1,
            cond_estimate: 3.2e17,
        };
        assert!(e.is_untrusted_solution());
        assert!(e.is_non_retriable());
        assert!(!e.is_deadline_exceeded());
        let msg = e.to_string();
        assert!(msg.starts_with("untrusted solution"), "{msg}");
        assert!(msg.contains("1.500e-3"), "{msg}");
        assert!(msg.contains("1 refinement step ("), "{msg}");
        assert!(!msg.ends_with('.'));
    }
}
