//! Solver work counts, as the analyses return them: Newton iterations per
//! DC recovery rung, transient steps, and linear-kernel counters.

use crate::report::Outcome;
use spicier::linalg::LuStats;
use spicier::TelemetrySummary;

/// DC recovery-ladder rung labels, in escalation order.
pub const RUNGS: [&str; 5] = [
    "newton",
    "damped-newton",
    "gmin-stepping",
    "source-stepping",
    "pseudo-transient",
];

/// Additive work counts of one op, one round, or one campaign pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// DC Newton iterations, all rungs.
    pub dc_newton: u64,
    /// DC Newton iterations per rung of [`RUNGS`].
    pub rungs: [u64; 5],
    /// Transient Newton iterations (excluding the initial operating point).
    pub tran_newton: u64,
    pub accepted_steps: u64,
    pub rejected_steps: u64,
    pub lu: LuStats,
}

impl Counts {
    /// Counts of a DC analysis (`DcSolution::telemetry`).
    pub fn dc(t: &TelemetrySummary) -> Self {
        let mut c = Counts {
            dc_newton: t.newton_iterations,
            lu: t.lu,
            ..Counts::default()
        };
        c.add_rungs(t.rung_iterations.iter().map(|(l, n)| (l.as_str(), *n)));
        c
    }

    /// Counts of a transient (`TranResult::telemetry`): its steps, its
    /// Newton iterations after the operating point, and every linear
    /// solve including the operating point's.
    pub fn tran(t: &TelemetrySummary) -> Self {
        Counts {
            tran_newton: t.newton_iterations,
            accepted_steps: t.accepted_steps,
            rejected_steps: t.rejected_steps,
            lu: t.lu,
            ..Counts::default()
        }
    }

    /// Counts of a telemetry rollup over many analyses (a campaign's
    /// `RUN_REPORT.json` entry): DC iterations are the rung histogram's
    /// total, transient iterations the remainder.
    pub fn rollup<'a>(
        newton: u64,
        rungs: impl Iterator<Item = (&'a str, u64)>,
        accepted_steps: u64,
        rejected_steps: u64,
        lu: LuStats,
    ) -> Self {
        let mut c = Counts {
            accepted_steps,
            rejected_steps,
            lu,
            ..Counts::default()
        };
        c.add_rungs(rungs);
        c.dc_newton = c.rungs.iter().sum();
        c.tran_newton = newton.saturating_sub(c.dc_newton);
        c
    }

    fn add_rungs<'a>(&mut self, rungs: impl Iterator<Item = (&'a str, u64)>) {
        for (label, n) in rungs {
            if let Some(k) = RUNGS.iter().position(|r| *r == label) {
                self.rungs[k] += n;
            }
        }
    }

    pub fn add(&mut self, other: &Counts) {
        self.dc_newton += other.dc_newton;
        for (mine, theirs) in self.rungs.iter_mut().zip(other.rungs) {
            *mine += theirs;
        }
        self.tran_newton += other.tran_newton;
        self.accepted_steps += other.accepted_steps;
        self.rejected_steps += other.rejected_steps;
        self.lu.absorb(&other.lu);
    }

    /// Every Newton iteration, DC and transient: one assembly and one
    /// linear solve each.
    pub fn newton(&self) -> u64 {
        self.dc_newton + self.tran_newton
    }

    /// Reports the counts as per-layer metrics.
    pub fn push_metrics(&self, out: &mut Outcome) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let steps = self.accepted_steps + self.rejected_steps;
        out.push("tran.accepted_steps", self.accepted_steps as f64, 1);
        out.push("tran.rejected_steps", self.rejected_steps as f64, 1);
        out.push("tran.reject_ratio", ratio(self.rejected_steps, steps), 1);
        out.push("tran.newton_per_step", ratio(self.tran_newton, steps), 1);
        out.push("dc.newton_iterations", self.dc_newton as f64, 1);
        for (label, n) in RUNGS.iter().zip(self.rungs) {
            out.push(&format!("dc.rung_iterations.{label}"), n as f64, 1);
        }
        let escalated = self.dc_newton.saturating_sub(self.rungs[0]);
        out.push("dc.escalated_ratio", ratio(escalated, self.dc_newton), 1);
        let lu = &self.lu;
        out.push("lu.full_factors", lu.full_factors as f64, 1);
        out.push("lu.refactors", lu.refactors as f64, 1);
        out.push("lu.pivot_fallbacks", lu.pivot_fallbacks as f64, 1);
        out.push("lu.solves", lu.solves as f64, 1);
        let attempts = (lu.refactors + lu.pivot_fallbacks) as u64;
        out.push(
            "lu.refactor_hit_ratio",
            ratio(lu.refactors as u64, attempts),
            1,
        );
    }
}
