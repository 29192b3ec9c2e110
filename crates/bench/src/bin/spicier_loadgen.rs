//! Load-and-chaos harness for the campaign daemon. Spawns
//! `spicier-serve` instances, drives mixed interactive/campaign load
//! with chaos (client drops, slowloris writes, SIGKILL mid-campaign),
//! writes the rollup to `BENCH_server.json`, and exits non-zero when a
//! robustness gate fails. `--quick` is the CI mode.

use cml_bench::server::loadgen::{run, LoadgenOptions};

fn main() {
    let opts = LoadgenOptions::from_env_and_args();
    match run(&opts) {
        Ok(report) if report.all_ok() => {
            println!("[loadgen] all gates passed");
        }
        Ok(_) => {
            eprintln!("[loadgen] gate failure(s); see above");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("[loadgen] harness error: {e}");
            std::process::exit(2);
        }
    }
}
