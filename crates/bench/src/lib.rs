//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation, plus ablations of its design choices.
//!
//! Each `experiments::*` module owns one paper artifact (experiment id in
//! DESIGN.md): a `run(scale)` function returning typed results, and a
//! `execute(scale)` entry point that prints the paper-shaped table and
//! writes the underlying series as CSV under `target/experiments/`.
//! Tables 1 and 2 are the exception: `table1` and `table2` measure the
//! chain pair `fig4::simulate` runs, and `fig4::execute` writes all three.
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
    /// Reads `EXP_SCALE` from the environment: `quick` or `full` in any
    /// case; unset means full.
    ///
    /// # Errors
    ///
    /// Any other value, so a misspelt scale never silently runs full.
    pub fn from_env() -> Result<Self, String> {
        Self::parse(std::env::var("EXP_SCALE").ok().as_deref())
    }

    fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None => Ok(Scale::Full),
            Some(v) if v.eq_ignore_ascii_case("full") => Ok(Scale::Full),
            Some(v) if v.eq_ignore_ascii_case("quick") => Ok(Scale::Quick),
            Some(v) => Err(format!("EXP_SCALE={v} is neither quick nor full")),
        }
    }
}

/// Name prefixes of every environment knob the workspace reads.
pub const KNOB_PREFIXES: [&str; 5] = ["BENCH_", "EXP_", "LOADGEN_", "SERVE_", "SPICIER_"];

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

#[cfg(test)]
mod tests {
    use super::Scale;

    #[test]
    fn scale_accepts_quick_and_full_in_any_case() {
        assert_eq!(Scale::parse(None), Ok(Scale::Full));
        assert_eq!(Scale::parse(Some("Quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("QUICK")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Full));
        assert!(Scale::parse(Some("quik")).is_err());
        assert!(Scale::parse(Some("")).is_err());
    }
}
