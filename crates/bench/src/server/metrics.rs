//! Serving-side metrics plane: log-linear histograms, per-job lifecycle
//! timelines, the `spicier-serve-metrics-v1` exposition (stable JSON +
//! Prometheus text), and the env-gated JSONL access log.
//!
//! Everything here is hand-rolled on `std` atomics — the repo's
//! no-new-dependencies rule extends to observability. Recording a
//! sample is a handful of relaxed atomic RMWs (no locks, no
//! allocation), so the daemon's hot paths (admission, chunk execute,
//! watch frame writes) are instrumented unconditionally; the *access
//! log* is the only opt-in piece (`SERVE_ACCESS_LOG`), because it does
//! real IO per request.
//!
//! ## Histogram layout
//!
//! Log-linear buckets: nine linear steps per decade across eight
//! decades of microseconds (1 µs … 90 s), plus an overflow bucket. A
//! recorded duration lands in the first bucket whose upper bound is
//! `>=` its microsecond count, so a bucket's count reads "samples at or
//! below this bound, above the previous one". Quantiles reported from
//! the buckets are therefore upper bounds with a one-bucket error band
//! (≤ 2× at decade edges, ≤ ~11% deep inside a decade) — see
//! [`HistogramSnapshot::quantile_bounds_ms`] — while `sum`, `count`,
//! and `max` are exact, carried outside the buckets.
//!
//! Snapshots are mergeable ([`HistogramSnapshot::merge`]) so a future
//! multi-process serving tier can aggregate per-worker registries
//! without losing bucket fidelity.

use spicier::json::Json;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Schema identifier carried by the `metrics` verb's JSON document.
pub const SCHEMA: &str = "spicier-serve-metrics-v1";

/// Linear steps per decade (1·10^d … 9·10^d).
const STEPS_PER_DECADE: usize = 9;
/// Decades covered: 1 µs up to 9·10^7 µs (90 s).
const DECADES: usize = 8;
/// Finite buckets; one overflow bucket rides at the end.
const FINITE_BUCKETS: usize = STEPS_PER_DECADE * DECADES;
/// Total bucket count including the overflow bucket.
const BUCKET_COUNT: usize = FINITE_BUCKETS + 1;

/// Upper bounds (µs, inclusive) of the finite buckets:
/// 1,2,…,9, 10,20,…,90, 100,… up to 9·10^7.
const BOUNDS_US: [u64; FINITE_BUCKETS] = build_bounds();

const fn build_bounds() -> [u64; FINITE_BUCKETS] {
    let mut out = [0u64; FINITE_BUCKETS];
    let mut i = 0;
    let mut scale = 1u64;
    while i < FINITE_BUCKETS {
        out[i] = ((i % STEPS_PER_DECADE) as u64 + 1) * scale;
        i += 1;
        if i % STEPS_PER_DECADE == 0 {
            scale *= 10;
        }
    }
    out
}

/// Milliseconds since the Unix epoch, as the wire protocol stamps time.
#[must_use]
pub fn epoch_ms() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64() * 1e3)
        .unwrap_or(0.0)
}

/// Nearest-rank percentile of an ascending-sorted slice. `p` is a
/// fraction in `[0, 1]`; an empty slice yields `0.0`.
///
/// This is the one percentile definition shared by the load generator's
/// client-side latency arrays and the histogram quantile reports, so
/// the client/server agreement gate compares like with like.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[idx.saturating_sub(1).min(sorted.len() - 1)]
}

/// Tenant class label used by per-class metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Latency-sensitive single-deck runs.
    Interactive,
    /// Chunked throughput campaigns.
    Batch,
}

impl Class {
    /// The label value used in JSON keys and Prometheus `class="…"`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Class::Interactive => "interactive",
            Class::Batch => "batch",
        }
    }
}

/// A pair of metrics, one per tenant class.
#[derive(Debug, Default)]
pub struct PerClass<T> {
    /// The interactive-class instance.
    pub interactive: T,
    /// The batch-class instance.
    pub batch: T,
}

impl<T> PerClass<T> {
    /// The instance for `class`.
    #[must_use]
    pub fn get(&self, class: Class) -> &T {
        match class {
            Class::Interactive => &self.interactive,
            Class::Batch => &self.batch,
        }
    }
}

/// Lock-free log-linear latency histogram with exact sum/count/max.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum_us: AtomicU64,
    count: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one duration sample (a few relaxed atomic RMWs).
    pub fn record(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = BOUNDS_US.partition_point(|&b| b < us); // FINITE_BUCKETS ⇒ overflow
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts and exact aggregates.
    /// Concurrent writers may land between the individual loads, so a
    /// snapshot can momentarily undercount `sum` relative to `count` by
    /// in-flight samples — every field is monotone, never torn.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`], mergeable across registries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (`BUCKET_COUNT` entries, non-cumulative).
    pub buckets: Vec<u64>,
    /// Exact sum of all samples, in microseconds.
    pub sum_us: u64,
    /// Total samples recorded.
    pub count: u64,
    /// Exact maximum sample, in microseconds.
    pub max_us: u64,
}

impl HistogramSnapshot {
    /// Folds `other` into `self` bucket-by-bucket (both sides always
    /// share the static bucket layout).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKET_COUNT];
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum_us += other.sum_us;
        self.count += other.count;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Nearest-rank quantile estimate in milliseconds: the upper bound
    /// of the bucket holding the rank-`⌈p·count⌉` sample. The overflow
    /// bucket reports the exact recorded maximum. Empty ⇒ `0.0`.
    #[must_use]
    pub fn quantile_ms(&self, p: f64) -> f64 {
        self.quantile_bounds_ms(p).1
    }

    /// The `(lower, upper)` millisecond bounds of the bucket holding
    /// the nearest-rank quantile — the histogram's quantization error
    /// band. The true sample value lies in `(lower, upper]`.
    #[must_use]
    pub fn quantile_bounds_ms(&self, p: f64) -> (f64, f64) {
        if self.count == 0 {
            return (0.0, 0.0);
        }
        let rank = ((self.count as f64 * p).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let lower = if i == 0 { 0 } else { BOUNDS_US[i - 1] };
                let upper = if i < FINITE_BUCKETS {
                    BOUNDS_US[i]
                } else {
                    self.max_us
                };
                return (lower as f64 / 1e3, upper as f64 / 1e3);
            }
        }
        (0.0, self.max_us as f64 / 1e3)
    }

    /// Exact mean sample in milliseconds (`0.0` when empty).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / 1e3 / self.count as f64
        }
    }

    /// The stable JSON rendering used by the `metrics` verb: exact
    /// aggregates plus the non-empty buckets as `[le_ms, count]` pairs.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let le = if i < FINITE_BUCKETS {
                    Json::num(BOUNDS_US[i] as f64 / 1e3)
                } else {
                    Json::str("+Inf")
                };
                Json::Arr(vec![le, Json::num(n as f64)])
            })
            .collect();
        Json::obj(vec![
            ("count", Json::num(self.count as f64)),
            ("sum_ms", Json::num(self.sum_us as f64 / 1e3)),
            ("mean_ms", Json::num(self.mean_ms())),
            ("max_ms", Json::num(self.max_us as f64 / 1e3)),
            ("p50_ms", Json::num(self.quantile_ms(0.50))),
            ("p99_ms", Json::num(self.quantile_ms(0.99))),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

/// The daemon's metric registry: one histogram per lifecycle edge,
/// per-class where the edge is class-specific. Owned by the scheduler,
/// shared by workers and connection threads.
#[derive(Debug, Default)]
pub struct Registry {
    /// Admission decision latency (lock + dedup check + journal fsync
    /// for batch accepts).
    pub admission_ms: Histogram,
    /// `journal.jsonl` append+fsync latency, observed inside the
    /// journal's durability barrier (shared with the journal as its
    /// fsync observer, hence the `Arc`).
    pub journal_sync_ms: std::sync::Arc<Histogram>,
    /// Accepted → first unit dispatched, per class.
    pub queue_wait_ms: PerClass<Histogram>,
    /// Per-unit execute latency (deck run / campaign chunk), per class.
    pub execute_ms: PerClass<Histogram>,
    /// Accepted → terminal outcome, per class (what a client would see
    /// minus network and framing).
    pub job_ms: PerClass<Histogram>,
    /// Result-CSV concatenation latency at campaign finalize.
    pub finalize_ms: Histogram,
    /// Watch event frame write latency (per frame actually written).
    pub watch_frame_ms: Histogram,
    /// Drain latency: SIGTERM/`drain` verb to queues shed.
    pub drain_ms: Histogram,
}

impl Registry {
    /// A fresh registry with every histogram empty.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots every histogram, labelled exactly as the exposition
    /// names them: `(name, class-label-or-None, snapshot)` triples.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(&'static str, Option<&'static str>, HistogramSnapshot)> {
        let mut out = Vec::with_capacity(12);
        out.push(("admission_ms", None, self.admission_ms.snapshot()));
        out.push(("journal_sync_ms", None, self.journal_sync_ms.snapshot()));
        for (name, pair) in [
            ("queue_wait_ms", &self.queue_wait_ms),
            ("execute_ms", &self.execute_ms),
            ("job_ms", &self.job_ms),
        ] {
            out.push((name, Some("interactive"), pair.interactive.snapshot()));
            out.push((name, Some("batch"), pair.batch.snapshot()));
        }
        out.push(("finalize_ms", None, self.finalize_ms.snapshot()));
        out.push(("watch_frame_ms", None, self.watch_frame_ms.snapshot()));
        out.push(("drain_ms", None, self.drain_ms.snapshot()));
        out
    }
}

/// Everything the `metrics` verb exposes, gathered coherently by the
/// scheduler: lifetime counters, instantaneous gauges, and the registry
/// histogram snapshots. Renders to both wire formats.
#[derive(Debug)]
pub struct MetricsDoc {
    /// Milliseconds since the daemon started serving.
    pub uptime_ms: f64,
    /// Whether the daemon is draining.
    pub draining: bool,
    /// Lifetime counters, in their stable `stats` order.
    pub counters: Vec<(&'static str, f64)>,
    /// Instantaneous gauges (queue depths, in-flight jobs).
    pub gauges: Vec<(&'static str, f64)>,
    /// Histogram snapshots from [`Registry::snapshot`].
    pub histograms: Vec<(&'static str, Option<&'static str>, HistogramSnapshot)>,
}

impl MetricsDoc {
    /// The `stats` reply's numeric fields in their stable wire order:
    /// the counters, then the gauges, then `uptime_ms`.
    #[must_use]
    pub fn stats_fields(&self) -> Vec<(&'static str, f64)> {
        let mut fields: Vec<_> = self.counters.iter().chain(&self.gauges).copied().collect();
        fields.push(("uptime_ms", self.uptime_ms));
        fields
    }

    /// The `spicier-serve-metrics-v1` JSON document, including the
    /// Prometheus text under the `"prometheus"` key.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|&(k, v)| (k.to_string(), Json::num(v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|&(k, v)| (k.to_string(), Json::num(v)))
                .collect(),
        );
        let mut hists: Vec<(String, Json)> = Vec::new();
        for (name, class, snap) in &self.histograms {
            match class {
                None => hists.push(((*name).to_string(), snap.to_json())),
                Some(label) => {
                    // Per-class histograms nest one level: name → class.
                    if hists.last().map(|(k, _)| k.as_str()) != Some(*name) {
                        hists.push(((*name).to_string(), Json::Obj(Vec::new())));
                    }
                    if let Some((_, Json::Obj(members))) = hists.last_mut() {
                        members.push(((*label).to_string(), snap.to_json()));
                    }
                }
            }
        }
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("uptime_ms", Json::num(self.uptime_ms)),
            ("draining", Json::Bool(self.draining)),
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", Json::Obj(hists)),
            ("prometheus", Json::str(self.to_prometheus())),
        ])
    }

    /// Prometheus exposition-format text: counters as `_total`, gauges
    /// bare, histograms with cumulative `le` buckets in milliseconds.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE spicier_serve_uptime_ms gauge");
        let _ = writeln!(out, "spicier_serve_uptime_ms {}", self.uptime_ms);
        for &(name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE spicier_serve_{name}_total counter");
            let _ = writeln!(out, "spicier_serve_{name}_total {v}");
        }
        for &(name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE spicier_serve_{name} gauge");
            let _ = writeln!(out, "spicier_serve_{name} {v}");
        }
        let mut last_name = "";
        for (name, class, snap) in &self.histograms {
            if *name != last_name {
                let _ = writeln!(out, "# TYPE spicier_serve_{name} histogram");
                last_name = name;
            }
            let label = |le: &str| match class {
                Some(c) => format!("{{class=\"{c}\",le=\"{le}\"}}"),
                None => format!("{{le=\"{le}\"}}"),
            };
            let mut cum = 0u64;
            for (i, &n) in snap.buckets.iter().enumerate() {
                if n == 0 && i < FINITE_BUCKETS {
                    continue; // keep the text compact; cumulative counts stay exact
                }
                cum += n;
                let le = if i < FINITE_BUCKETS {
                    format!("{}", BOUNDS_US[i] as f64 / 1e3)
                } else {
                    "+Inf".to_string()
                };
                let _ = writeln!(out, "spicier_serve_{name}_bucket{} {cum}", label(&le));
            }
            let suffix = match class {
                Some(c) => format!("{{class=\"{c}\"}}"),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "spicier_serve_{name}_sum{suffix} {}",
                snap.sum_us as f64 / 1e3
            );
            let _ = writeln!(out, "spicier_serve_{name}_count{suffix} {}", snap.count);
        }
        out
    }
}

/// Per-job lifecycle timeline: epoch-millisecond stamps for each edge
/// plus exactly-once per-chunk durations. Lives inside the job's state
/// mutex, so all mutation is already serialized.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// When the job was accepted (journal fsync done, reply imminent).
    pub accepted_ms: f64,
    /// When the first unit started executing (`None` while queued).
    pub running_ms: Option<f64>,
    /// When the terminal outcome landed (`None` while live).
    pub finalized_ms: Option<f64>,
    /// Whether this incarnation was recovered from the journal — chunk
    /// durations from the previous life are not re-counted.
    pub resumed: bool,
    /// Per-chunk wall durations in ms, indexed by chunk; `None` for
    /// chunks not executed by this incarnation (pending, or completed
    /// before a crash).
    pub chunk_ms: Vec<Option<f64>>,
}

impl Timeline {
    /// A timeline stamped `accepted` now, with `total` chunk slots.
    #[must_use]
    pub fn new(total: usize, resumed: bool) -> Self {
        Self {
            accepted_ms: epoch_ms(),
            running_ms: None,
            finalized_ms: None,
            resumed,
            chunk_ms: vec![None; total],
        }
    }

    /// Stamps the queued→running edge once; returns the queue wait on
    /// the first call, `None` on any later call.
    pub fn mark_running(&mut self) -> Option<Duration> {
        if self.running_ms.is_some() {
            return None;
        }
        let now = epoch_ms();
        self.running_ms = Some(now);
        Some(Duration::from_secs_f64(
            ((now - self.accepted_ms) / 1e3).max(0.0),
        ))
    }

    /// Records chunk `idx`'s wall duration exactly once; returns `false`
    /// (and changes nothing) if it was already recorded — the guard that
    /// keeps resumed jobs from double-counting.
    pub fn record_chunk(&mut self, idx: usize, wall: Duration) -> bool {
        match self.chunk_ms.get_mut(idx) {
            Some(slot @ None) => {
                *slot = Some(wall.as_secs_f64() * 1e3);
                true
            }
            _ => false,
        }
    }

    /// Stamps the terminal edge once (first writer wins).
    pub fn mark_finalized(&mut self) {
        if self.finalized_ms.is_none() {
            self.finalized_ms = Some(epoch_ms());
        }
    }

    /// Queue wait in ms, once running (`None` while queued).
    #[must_use]
    pub fn queue_wait_ms(&self) -> Option<f64> {
        self.running_ms.map(|r| (r - self.accepted_ms).max(0.0))
    }

    /// The timeline as attached to `status`/`done` replies and
    /// `SERVE_REPORT.json`: stamps, derived waits, and the per-chunk
    /// duration array (`null` for chunks this incarnation skipped).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let timed: Vec<f64> = self.chunk_ms.iter().filter_map(|c| *c).collect();
        let mut fields = vec![
            ("accepted_ms", Json::num(self.accepted_ms)),
            (
                "running_ms",
                self.running_ms.map(Json::num).unwrap_or(Json::Null),
            ),
            (
                "finalized_ms",
                self.finalized_ms.map(Json::num).unwrap_or(Json::Null),
            ),
            ("resumed", Json::Bool(self.resumed)),
            (
                "queue_wait_ms",
                self.queue_wait_ms().map(Json::num).unwrap_or(Json::Null),
            ),
            ("chunks_timed", Json::num(timed.len() as f64)),
            ("chunk_total_ms", Json::num(timed.iter().sum())),
        ];
        fields.push((
            "chunk_ms",
            Json::Arr(
                self.chunk_ms
                    .iter()
                    .map(|c| c.map(Json::num).unwrap_or(Json::Null))
                    .collect(),
            ),
        ));
        Json::obj(fields)
    }
}

/// Structured access log: one JSONL line per request, size-rotated,
/// enabled by `SERVE_ACCESS_LOG=<path>` the way `SPICIER_TRACE` gates
/// the solver flight recorder. Disabled (the default) it costs nothing
/// on the request path.
#[derive(Debug)]
pub struct AccessLog {
    path: PathBuf,
    rotate_bytes: u64,
    size: Mutex<Option<u64>>,
}

impl AccessLog {
    /// An access log writing to `path`, rotating once the file passes
    /// `rotate_bytes` (the previous generation is kept as `<path>.1`).
    #[must_use]
    pub fn new(path: PathBuf, rotate_bytes: u64) -> Self {
        Self {
            path,
            rotate_bytes: rotate_bytes.max(4096),
            size: Mutex::new(None),
        }
    }

    /// Appends one record as a JSONL line. Best-effort: IO errors are
    /// reported once to stderr, never propagated — observability must
    /// not fail a request that the daemon could serve.
    pub fn record(&self, doc: &Json) {
        let line = format!("{}\n", doc.render());
        let mut size = self.size.lock().unwrap_or_else(|e| e.into_inner());
        let mut current =
            (*size).unwrap_or_else(|| std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0));
        if current == u64::MAX {
            return; // a previous write failed; stay quiet until restart
        }
        if current > 0 && current + line.len() as u64 > self.rotate_bytes {
            // Rotate: keep exactly one previous generation.
            let old = self.path.with_extension("jsonl.1");
            let _ = std::fs::rename(&self.path, &old);
            current = 0;
        }
        let result = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        match result {
            Ok(()) => *size = Some(current + line.len() as u64),
            Err(e) => {
                eprintln!("[serve] access log write failed: {e}");
                *size = Some(u64::MAX);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_strictly_increasing_and_log_linear() {
        assert_eq!(BOUNDS_US[0], 1);
        assert_eq!(BOUNDS_US[8], 9);
        assert_eq!(BOUNDS_US[9], 10);
        assert_eq!(BOUNDS_US[FINITE_BUCKETS - 1], 90_000_000);
        for w in BOUNDS_US.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn percentile_handles_edge_counts() {
        // Empty, one, and two samples — the cases that break naive
        // index arithmetic.
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.51), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.99), 2.0);
    }

    #[test]
    fn histogram_quantiles_bound_the_true_samples() {
        let h = Histogram::new();
        for ms in [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
            h.record(Duration::from_millis(ms));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 10);
        assert_eq!(snap.sum_us, 231_000);
        assert_eq!(snap.max_us, 89_000);
        // p50 of 10 samples is rank 5 → sample 8 ms; its bucket bound.
        let (lo, hi) = snap.quantile_bounds_ms(0.50);
        assert!(lo < 8.0 && 8.0 <= hi, "p50 band ({lo}, {hi}] misses 8");
        let (lo, hi) = snap.quantile_bounds_ms(0.99);
        assert!(lo < 89.0 && 89.0 <= hi, "p99 band ({lo}, {hi}] misses 89");
        assert!((snap.mean_ms() - 23.1).abs() < 1e-9);
    }

    #[test]
    fn histogram_overflow_bucket_reports_exact_max() {
        let h = Histogram::new();
        h.record(Duration::from_secs(120)); // beyond the 90 s top bound
        let snap = h.snapshot();
        assert_eq!(snap.quantile_ms(1.0), 120_000.0);
        assert_eq!(*snap.buckets.last().unwrap(), 1);
    }

    #[test]
    fn snapshots_merge_exactly() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(Duration::from_millis(10));
        a.record(Duration::from_millis(500));
        b.record(Duration::from_millis(10));
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum_us, 520_000);
        let solo = {
            let h = Histogram::new();
            for ms in [10u64, 500, 10] {
                h.record(Duration::from_millis(ms));
            }
            h.snapshot()
        };
        assert_eq!(merged, solo);
    }

    #[test]
    fn timeline_records_each_chunk_exactly_once() {
        let mut t = Timeline::new(3, true);
        assert!(t.mark_running().is_some());
        assert!(t.mark_running().is_none(), "second running stamp ignored");
        assert!(t.record_chunk(1, Duration::from_millis(40)));
        assert!(
            !t.record_chunk(1, Duration::from_millis(99)),
            "re-recording a chunk must be refused"
        );
        assert!(!t.record_chunk(7, Duration::from_millis(1)), "out of range");
        t.mark_finalized();
        let json = t.to_json();
        assert_eq!(json.num_field("chunks_timed"), Some(1.0));
        assert!((json.num_field("chunk_total_ms").unwrap() - 40.0).abs() < 1e-9);
        assert_eq!(json.get("resumed").and_then(Json::as_bool), Some(true));
        let chunks = json.get("chunk_ms").and_then(Json::as_arr).unwrap();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], Json::Null);
        assert!((chunks[1].as_f64().unwrap() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_doc_renders_schema_stable_json_and_prometheus() {
        let reg = Registry::new();
        reg.queue_wait_ms
            .get(Class::Interactive)
            .record(Duration::from_millis(3));
        reg.execute_ms
            .get(Class::Batch)
            .record(Duration::from_millis(12));
        let doc = MetricsDoc {
            uptime_ms: 1234.0,
            draining: false,
            counters: vec![("accepted_interactive", 1.0)],
            gauges: vec![("queue_interactive", 0.0)],
            histograms: reg.snapshot(),
        };
        let json = doc.to_json();
        assert_eq!(json.str_field("schema").as_deref(), Some(SCHEMA));
        assert_eq!(json.num_field("uptime_ms"), Some(1234.0));
        let hists = json.get("histograms").unwrap();
        let qw = hists.get("queue_wait_ms").unwrap();
        assert_eq!(qw.get("interactive").unwrap().num_field("count"), Some(1.0));
        assert_eq!(qw.get("batch").unwrap().num_field("count"), Some(0.0));
        // The document round-trips through the strict parser.
        let text = json.render();
        assert_eq!(Json::parse(&text).unwrap(), json);
        let prom = json.str_field("prometheus").unwrap();
        assert!(prom.contains("spicier_serve_accepted_interactive_total 1"));
        assert!(prom.contains("# TYPE spicier_serve_queue_wait_ms histogram"));
        assert!(
            prom.contains("spicier_serve_queue_wait_ms_bucket{class=\"interactive\",le=\"3\"} 1")
        );
        assert!(prom.contains("spicier_serve_execute_ms_count{class=\"batch\"} 1"));
        assert!(prom.contains("le=\"+Inf\""));
    }

    #[test]
    fn access_log_rotates_by_size_and_keeps_one_generation() {
        let dir = std::env::temp_dir().join(format!("axlog-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let log = AccessLog::new(path.clone(), 4096);
        let wide = "x".repeat(200);
        for i in 0..40 {
            log.record(&Json::obj(vec![
                ("i", Json::num(f64::from(i))),
                ("pad", Json::str(wide.clone())),
            ]));
        }
        let rotated = path.with_extension("jsonl.1");
        assert!(rotated.exists(), "rotation never happened");
        assert!(std::fs::metadata(&path).unwrap().len() <= 4096 + 256);
        // Every line in both generations is valid JSON.
        for p in [&path, &rotated] {
            let text = std::fs::read_to_string(p).unwrap();
            for line in text.lines() {
                Json::parse(line).unwrap();
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
