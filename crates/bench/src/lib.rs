//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation, plus ablations of its design choices.
//!
//! Each `experiments::*` module owns one paper artifact (experiment id in
//! DESIGN.md): a `run(scale)` function returning typed results, and a
//! `execute(scale)` entry point that prints the paper-shaped table and
//! writes the underlying series as CSV under `target/experiments/`.
//!
//! The `exp_all` binary drives these (`EXP_ONLY=FIG8` runs one); the
//! benches reuse the same kernels at [`Scale::Quick`].

#![warn(missing_docs)]

pub mod durable;
pub mod experiments;
pub mod microbench;
pub mod server;

/// How much of the full sweep an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// The full grids reported in EXPERIMENTS.md.
    #[default]
    Full,
    /// Trimmed grids for smoke tests and benches.
    Quick,
}

impl Scale {
    /// Reads `EXP_SCALE=quick` from the environment (default: full).
    pub fn from_env() -> Self {
        match std::env::var("EXP_SCALE").as_deref() {
            Ok("quick") | Ok("QUICK") => Scale::Quick,
            _ => Scale::Full,
        }
    }
}

/// Name prefixes of every environment knob the workspace reads.
pub const KNOB_PREFIXES: [&str; 6] = ["BENCH_", "CHAOS_", "EXP_", "LOADGEN_", "SERVE_", "SPICIER_"];

/// Removes from `cmd` every variable it would inherit whose name starts
/// with one of [`KNOB_PREFIXES`], so the child sees only the knobs set on
/// `cmd` after this call. Call it before setting the child's own knobs.
pub fn scrub_knobs(cmd: &mut std::process::Command) -> &mut std::process::Command {
    for (name, _) in std::env::vars_os() {
        if name
            .to_str()
            .is_some_and(|n| KNOB_PREFIXES.iter().any(|p| n.starts_with(p)))
        {
            cmd.env_remove(name);
        }
    }
    cmd
}
