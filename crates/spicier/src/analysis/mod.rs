//! Circuit analyses: MNA assembly, DC operating point, transient, sweeps.

pub mod ac;
pub mod budget;
pub mod dc;
pub mod mna;
pub mod noise;
pub mod power;
pub mod preflight;
pub mod sweep;
pub mod tran;

pub use ac::{ac_analysis, decade_freqs, AcOptions, AcResult};
pub use budget::{with_corner_token, CancelToken, Phase, RunBudget};
pub use dc::{
    operating_point, sweep_vsource, ConvergenceReport, DcOptions, DcSolution, RecoveryRung,
    RungAttempt,
};
pub use mna::{Assembler, EvalMode, Integration, Method, SolveWorkspace};
pub use noise::{noise_analysis, NoiseOptions, NoiseResult};
pub use power::{power_report, PowerReport};
pub use preflight::{assert_preflight, preflight, PreflightFinding, PreflightReport};
pub use sweep::{
    grid2, grid3, linspace, par_try_map, par_try_map_with, CornerFailure, SweepFailure,
    SweepReport, TryMapOptions,
};
pub use tran::{
    transient, transient_salvage, transient_with, Probe, TranFailure, TranOptions, TranResult,
};
