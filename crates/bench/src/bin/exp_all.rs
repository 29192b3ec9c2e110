//! Regenerates every table and figure of the paper in one run (the full
//! evaluation of DESIGN.md §4). Set `EXP_SCALE=quick` for a smoke run.
//!
//! Thin wrapper: all of the manifest/resume/chaos campaign machinery
//! lives in `cml_bench::experiments::campaign`, shared with the campaign
//! server and the drill tests. See that module for the resilience
//! contract and the full knob list (`EXP_ONLY`, `--resume`,
//! `SPICIER_FAILPOINTS`, telemetry).

use cml_bench::experiments::campaign::{
    print_summary, run_campaign, standard_experiments, CampaignOptions,
};

fn main() {
    let opts = CampaignOptions::from_env_and_args().unwrap_or_else(|e| {
        eprintln!("exp_all: {e}");
        std::process::exit(2);
    });
    let summary = run_campaign(&opts, &standard_experiments());
    print_summary(&summary);
    if !summary.all_ok() {
        std::process::exit(1);
    }
}
