//! Metric records, order statistics, process measurements, and the one
//! JSON codec this benchmark reads and writes through.

use crate::calib::{Interval, Sampler};
use std::path::Path;
use std::sync::OnceLock;

/// The repository's JSON value type. Every JSON document the benchmark
/// reads or writes goes through this alias and [`parse_json`], so a
/// relocation of the codec changes one line here.
pub use cml_bench::server::json::Json;

/// Parses a JSON document (daemon replies, run reports, child results).
pub fn parse_json(text: &str) -> Result<Json, String> {
    Json::parse(text.trim())
}

/// The metrics `BENCHMARK.json` declares, `(name, unit)` in its order:
/// the one list of metric names and units, compiled in.
pub struct Declared {
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

impl Declared {
    /// The declared unit of metric `name`.
    pub fn unit(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|(n, _)| n == name)
            .map(|(_, u)| u.as_str())
    }
}

pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| {
        let doc = parse_json(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"));
        let section = |key: &str| -> Vec<(String, String)> {
            let list = doc.get(key).and_then(Json::as_arr);
            list.unwrap_or_else(|| panic!("BENCHMARK.json: no {key} list"))
                .iter()
                .map(|m| match (m.str_field("name"), m.str_field("unit")) {
                    (Some(name), Some(unit)) => (name, unit),
                    _ => panic!("BENCHMARK.json: {key} entry without name or unit"),
                })
                .collect()
        };
        Declared {
            end_to_end: section("end_to_end"),
            per_layer: section("per_layer"),
        }
    })
}

/// One reported metric: its value and how many samples it summarises.
/// Zero samples marks a metric with nothing to measure on this workload
/// (a layer its path does not reach): not applicable, its value a
/// placeholder.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn unit(&self) -> &'static str {
        declared().unit(&self.name).unwrap_or("")
    }

    pub fn applicable(&self) -> bool {
        self.samples > 0
    }
}

/// Everything a workload hands back to `main`: op accounting, check
/// failures, and the metrics of this run (end-to-end or per-layer).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Check failures, in the order seen (capped, see [`Outcome::fail`]).
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// The end-to-end metrics as the wall clock read them, before the
    /// host-speed correction; recorded in `target/perf/<workload>.json`.
    pub uncorrected: Vec<(String, f64)>,
}

impl Outcome {
    /// Whether every op succeeded and every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// Records a check failure; only the first few messages are kept.
    pub fn fail(&mut self, msg: impl Into<String>) {
        if self.failures.len() < 16 {
            self.failures.push(msg.into());
        }
    }

    pub fn push(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            samples,
        });
    }

    /// Every declared per-layer metric of the given layers, marked not
    /// applicable: the workload's path does not go through them. The
    /// result line still carries each (its value 0), as it must name
    /// every declared metric.
    pub fn not_applicable(&mut self, layers: &[&str]) {
        for (name, _) in &declared().per_layer {
            if layers.iter().any(|l| name.starts_with(&format!("{l}."))) {
                self.metrics.push(Metric {
                    name: name.clone(),
                    value: 0.0,
                    samples: 0,
                });
            }
        }
    }

    /// The machine-readable result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics` (each metric as `{value, unit}`).
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::num(m.value)),
                        ("unit", Json::str(m.unit())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// What a run measured for its end-to-end metrics, as intervals of the
/// wall clock; [`EndToEnd::push`] reports them in reference-host time.
pub struct EndToEnd<'a> {
    /// Every set-up; `setup_s` is their median.
    pub setups: &'a [Interval],
    /// The timed fixed work, in pieces (rounds, passes, or the whole
    /// load); `wall_s` is their sum, scaled up to `planned` units of work
    /// when the time cap stopped the run after `done`.
    pub work: &'a [Interval],
    pub done: usize,
    pub planned: usize,
    /// Every op attempted, `None` if it failed (`+∞` in the latency
    /// percentiles, so it counts as missing any latency limit).
    pub ops: &'a [Option<Interval>],
    pub peak_rss_mb: f64,
}

impl EndToEnd<'_> {
    /// Pushes `setup_s`, `wall_s`, `p50_ms` (median op), `p99_ms`
    /// (nearest-rank p99 op) and `peak_rss_mb`, each time converted by the
    /// sampler; the wall-clock figures go to `uncorrected`.
    pub fn push(&self, out: &mut Outcome, sampler: &Sampler) {
        let corrected = self.metrics(|iv| sampler.setup_seconds(iv), |iv| sampler.seconds(iv));
        let raw = self.metrics(|iv| iv.wall_s(), |iv| iv.wall_s());
        for (name, value, samples) in corrected {
            out.push(name, value, samples);
        }
        out.uncorrected = raw
            .into_iter()
            .map(|(n, v, _)| (n.to_string(), v))
            .collect();
    }

    fn metrics(
        &self,
        setup_secs: impl Fn(Interval) -> f64,
        secs: impl Fn(Interval) -> f64,
    ) -> Vec<(&'static str, f64, usize)> {
        let setups: Vec<f64> = self.setups.iter().map(|&iv| setup_secs(iv)).collect();
        let work_s: f64 = self.work.iter().map(|&iv| secs(iv)).sum();
        let wall_s = work_s * self.planned.max(self.done) as f64 / self.done.max(1) as f64;
        let ms: Vec<f64> = self
            .ops
            .iter()
            .map(|op| op.map_or(f64::INFINITY, |iv| secs(iv) * 1e3))
            .collect();
        vec![
            ("setup_s", median(&setups), setups.len()),
            ("wall_s", wall_s, self.done),
            ("p50_ms", median(&ms), ms.len()),
            ("p99_ms", percentile(&ms, 0.99), ms.len()),
            ("peak_rss_mb", self.peak_rss_mb, 1),
        ]
    }
}

/// Median (mean of the two middle values for an even count). Empty → NaN.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest-rank percentile (`p` in `[0, 1]`), the repository's shared
/// definition. A failed op enters as `+∞` and so counts as missing any
/// latency limit.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    cml_bench::server::metrics::percentile(&sorted(values), p)
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spread figures match those computed from the raw runs in Python.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    if s.len() < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let m = s.len() as f64 + 1.0;
    let at = |j: f64| {
        let pos = j * m / 4.0;
        let lo = (pos.floor() as usize).clamp(1, s.len() - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    (at(1.0), at(2.0), at(3.0))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// process), megabytes.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// User + system CPU seconds consumed so far by every thread of process
/// `pid` (`/proc/<pid>/stat` reports them in USER_HZ = 100 ticks/s).
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |k: usize| -> Result<f64, String> {
        fields
            .get(k)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("/proc/{pid}/stat: missing field {k}"))
    };
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// Writes `text` to `path`, creating parent directories.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }

    #[test]
    fn failed_ops_dominate_the_tail() {
        let mut v = vec![1.0; 99];
        v.push(f64::INFINITY);
        assert_eq!(percentile(&v, 0.99), 1.0);
        v.push(f64::INFINITY);
        assert!(percentile(&v, 0.99).is_infinite());
        assert_eq!(median(&v), 1.0);
    }
}
