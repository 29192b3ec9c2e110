//! Smoke test: every workload, untraced and traced, at smoke size. Every
//! metric `BENCHMARK.json` declares must be printed for every workload
//! with a finite value, and every output check must pass.

use cml_bench::server::json::Json;
use std::process::Command;

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| m.str_field("name").expect("metric name"))
        .collect()
}

fn run_all(trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_cml_perf"))
        .args(["--workload", "all", "--smoke", "--trace", trace])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run cml_perf");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "cml_perf --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

#[test]
fn every_declared_metric_is_reported_for_every_workload() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run_all(trace);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert!(result.num_field("attempted").unwrap_or(0.0) >= 4.0);
        assert_eq!(result.num_field("failed"), Some(0.0));
        let metrics = result.get("metrics").expect("metrics");
        for workload in ["campaign", "analysis", "dc", "serve"] {
            for name in declared(section) {
                let key = format!("{workload}.{name}");
                let value = metrics
                    .get(&key)
                    .and_then(|m| m.num_field("value"))
                    .unwrap_or_else(|| panic!("{key} missing or not a number"));
                assert!(value.is_finite(), "{key} = {value}");
            }
        }
    }
}
