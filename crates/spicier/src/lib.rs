//! `spicier` — a small, self-contained analog circuit simulator.
//!
//! This crate is the simulation substrate for the reproduction of
//! *"Design For Testability Method for CML Digital Circuits"* (DATE 1999).
//! The paper evaluates its design-for-testability technique entirely with
//! SPICE-class analog simulation (Spectre); `spicier` provides the same
//! class of capability from scratch:
//!
//! * a [`netlist`] of resistors, capacitors, inductors, independent
//!   sources (DC / pulse / sine / PWL), junction diodes and bipolar
//!   transistors (Ebers–Moll transport model with Early effect and
//!   junction/diffusion charge storage);
//! * modified nodal analysis ([`analysis::mna`]) with shared stamps;
//! * Newton–Raphson DC operating point with junction-voltage limiting and
//!   a five-rung convergence recovery ladder — damped Newton, `gmin`
//!   stepping, source stepping, pseudo-transient continuation — reported
//!   per solve via [`analysis::dc::ConvergenceReport`];
//! * adaptive transient analysis with trapezoidal / backward-Euler
//!   integration, step control by a per-step node-voltage-change bound
//!   (`dv_max`) with Newton-failure backoff, source breakpoints, and
//!   salvage of partial waveforms on mid-run failure ([`analysis::tran`]);
//! * dense and sparse (Gilbert–Peierls) LU solvers ([`linalg`]);
//! * parameter sweeps with thread-level parallelism ([`analysis::sweep`]).
//!
//! # Quick example
//!
//! Solve a resistive divider:
//!
//! ```
//! use spicier::netlist::Netlist;
//! use spicier::analysis::dc::{self, DcOptions};
//!
//! # fn main() -> Result<(), spicier::Error> {
//! let mut nl = Netlist::new();
//! let vin = nl.node("vin");
//! let out = nl.node("out");
//! nl.vdc("V1", vin, Netlist::GROUND, 3.3)?;
//! nl.resistor("R1", vin, out, 1.0e3)?;
//! nl.resistor("R2", out, Netlist::GROUND, 2.0e3)?;
//! let circuit = nl.compile()?;
//! let op = dc::operating_point(&circuit, &DcOptions::default())?;
//! assert!((op.voltage(out) - 2.2).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod chaos;
pub mod devices;
pub mod error;
pub mod json;
pub mod linalg;
pub mod netlist;
pub mod runner;
pub mod spice;
pub mod telemetry;
pub mod units;

pub use crate::analysis::budget::{CancelToken, Phase, RunBudget};
pub use crate::analysis::dc::{
    operating_point, ConvergenceReport, DcOptions, DcSolution, RecoveryRung,
};
pub use crate::analysis::mna::SolveWorkspace;
pub use crate::analysis::preflight::{
    assert_preflight, preflight, PreflightFinding, PreflightReport,
};
pub use crate::analysis::tran::{
    transient, transient_salvage, transient_salvage_with, transient_with, TranFailure, TranOptions,
    TranResult,
};
pub use crate::error::Error;
pub use crate::linalg::SolveQuality;
pub use crate::netlist::{Circuit, Netlist, NodeId};
pub use crate::telemetry::TelemetrySummary;

/// Boltzmann thermal voltage kT/q at the default simulation temperature
/// (27 °C / 300.15 K), in volts.
pub const VT_300K: f64 = 0.025864186;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
