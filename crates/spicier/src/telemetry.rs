//! Structured telemetry: spans, events, counters, and a crash flight
//! recorder for every analysis in the crate.
//!
//! The paper this repository reproduces makes *invisible* parametric
//! faults observable by adding a small detector to every gate output;
//! this module does the same one level down. The DC recovery ladder,
//! the refactor fast path, the budget checks, and the residual
//! certifier all silently absorb trouble — a run that barely limped
//! home is indistinguishable from a healthy one. Telemetry records the
//! *trajectory* of the computation (Newton residuals per ladder rung,
//! timestep accept/reject decisions, kernel counters, per-corner wall
//! time) so that trajectory can be inspected after the fact.
//!
//! # Architecture
//!
//! * **Gate** — [`enabled`] is the single switch every instrumentation
//!   site checks first. It is driven by the `SPICIER_TRACE` /
//!   `EXP_TELEMETRY` environment variables (read once, cached in a
//!   relaxed atomic) or by the scoped [`with_trace`] guard (used by
//!   tests and benches so they never mutate process environment). When
//!   telemetry is off the check costs two relaxed atomic loads and
//!   nothing else: no allocation, no locking, no time-stamping. Hot
//!   call sites must build their fields *inside* an `if
//!   telemetry::enabled()` block so argument construction is also
//!   skipped.
//! * **Flight recorder** — every [`event`] and [`span`] lands in a
//!   bounded global ring buffer (default 4096 events; oldest dropped
//!   first). On any analysis failure the instrumented code calls
//!   [`record_failure`], which appends the buffered events plus a final
//!   `failure` event to the JSONL dump file — so every
//!   `DcNoConvergence`, `DeadlineExceeded`, or `UntrustedSolution`
//!   ships with the last N solver events that led to it. The dump path
//!   is `SPICIER_TRACE=<path>` or a programmatic [`set_dump_path`];
//!   the experiment harness and the daemon use
//!   [`set_fallback_dump_path`] to put it under their output directory
//!   when `SPICIER_TRACE` names no path.
//! * **Summaries** — each analysis attaches a [`TelemetrySummary`]
//!   (wall time, Newton totals, ladder-rung histogram, kernel
//!   [`LuStats`], worst backward error) to its result and, while
//!   telemetry is enabled, merges it into a process-global rollup the
//!   campaign driver drains per experiment via
//!   [`take_global_summary`] to build `RUN_REPORT.json`.
//!
//! # Neutrality contract
//!
//! Telemetry *observes*; it never changes iteration order, pivoting,
//! tolerances, or any numeric result. All 21 experiment CSVs are
//! byte-identical with telemetry fully enabled (enforced by
//! `crates/bench/tests/telemetry.rs` and the CI telemetry job).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::linalg::LuStats;

// ---------------------------------------------------------------------------
// Enable gate
// ---------------------------------------------------------------------------

/// Environment gate: 0 = not yet read, 1 = off, 2 = on.
static ENV_STATE: AtomicU8 = AtomicU8::new(0);
/// Number of live scoped [`with_trace`] guards across all threads.
static SCOPED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Nesting depth of scoped guards on this thread.
    static TRACE_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Names of the spans currently open on this thread.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

#[cold]
fn init_env_state() -> bool {
    let on = env_dump_path().is_some() || env_flag("EXP_TELEMETRY");
    ENV_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Whether telemetry is currently enabled on this thread.
///
/// True when `SPICIER_TRACE` is set to a non-empty path, `EXP_TELEMETRY`
/// is set (non-empty, not `"0"`), or the caller is inside a
/// [`with_trace`] scope. In the fully-disabled steady state this is two
/// relaxed atomic loads; instrumentation sites gate all field
/// construction behind it.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    match ENV_STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => SCOPED.load(Ordering::Relaxed) > 0 && TRACE_DEPTH.with(Cell::get) > 0,
        _ => {
            init_env_state();
            enabled()
        }
    }
}

struct TraceGuard;

impl Drop for TraceGuard {
    fn drop(&mut self) {
        SCOPED.fetch_sub(1, Ordering::Relaxed);
        TRACE_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Runs `f` with telemetry enabled on this thread, without touching
/// process environment. Guards nest; the scope is restored on panic.
pub fn with_trace<R>(f: impl FnOnce() -> R) -> R {
    // Force the env gate out of its uninitialised state first so the
    // scoped branch of `enabled()` is reachable.
    if ENV_STATE.load(Ordering::Relaxed) == 0 {
        init_env_state();
    }
    TRACE_DEPTH.with(|d| d.set(d.get() + 1));
    SCOPED.fetch_add(1, Ordering::Relaxed);
    let _guard = TraceGuard;
    f()
}

// ---------------------------------------------------------------------------
// Events and the flight-recorder ring
// ---------------------------------------------------------------------------

/// A typed field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer (iteration counts, indices).
    Int(i64),
    /// Floating-point (residuals, voltages, seconds). Non-finite values
    /// serialize as JSON strings (`"NaN"`, `"inf"`, `"-inf"`).
    Float(f64),
    /// Text (rung labels, node names, error details).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// One recorded telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic sequence number (process-global, never reused).
    pub seq: u64,
    /// Microseconds since the recorder first observed an event.
    pub t_us: u64,
    /// Small dense id of the emitting thread.
    pub thread: u64,
    /// `/`-joined names of the spans open when the event was emitted.
    pub span: String,
    /// Event name (`newton_iter`, `step_accept`, `failure`, ...).
    pub name: String,
    /// Key–value payload.
    pub fields: Vec<(String, Value)>,
}

/// Default flight-recorder capacity, in events.
pub const DEFAULT_CAPACITY: usize = 4096;

struct Ring {
    events: VecDeque<Event>,
    seq: u64,
    cap: usize,
    /// Events evicted since the last dump/drain (reported in dumps so a
    /// truncated trajectory is visible as such).
    dropped: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring {
    events: VecDeque::new(),
    seq: 0,
    cap: DEFAULT_CAPACITY,
    dropped: 0,
});

/// Locks the ring, recovering from poisoning: a panicking sweep corner
/// under `catch_unwind` must not disable telemetry for everyone else.
fn ring_lock() -> MutexGuard<'static, Ring> {
    RING.lock().unwrap_or_else(|e| e.into_inner())
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

fn push_event(name: &str, fields: Vec<(String, Value)>) {
    let t_us = epoch().elapsed().as_micros() as u64;
    let span = SPAN_STACK.with(|s| s.borrow().join("/"));
    let thread = thread_id();
    let mut ring = ring_lock();
    let seq = ring.seq;
    ring.seq += 1;
    if ring.events.len() >= ring.cap {
        ring.events.pop_front();
        ring.dropped += 1;
    }
    ring.events.push_back(Event {
        seq,
        t_us,
        thread,
        span,
        name: name.to_string(),
        fields,
    });
}

/// Records an event with the given name and fields.
///
/// No-op when telemetry is disabled, but callers on hot paths should
/// still gate on [`enabled`] so field construction (string formatting,
/// `Value::Str` allocation) is skipped too.
pub fn event(name: &str, fields: &[(&str, Value)]) {
    if !enabled() {
        return;
    }
    push_event(
        name,
        fields
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect(),
    );
}

/// RAII span: emits `span_begin` on creation and `span_end` (with
/// `elapsed_us`) on drop, and scopes nested events under its name.
///
/// Inert (no allocation, no clock read) when telemetry is disabled at
/// creation time.
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    started: Option<Instant>,
}

impl Span {
    fn inert() -> Self {
        Span { started: None }
    }
}

/// Opens a span named `name`. See [`Span`].
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span::inert();
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(name.to_string()));
    push_event("span_begin", Vec::new());
    Span {
        started: Some(Instant::now()),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        push_event(
            "span_end",
            vec![(
                "elapsed_us".to_string(),
                Value::Int(started.elapsed().as_micros() as i64),
            )],
        );
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

// ---------------------------------------------------------------------------
// JSONL serialization
// ---------------------------------------------------------------------------

impl Value {
    fn to_json(&self) -> Json {
        match self {
            Value::Int(v) => Json::Num(*v as f64),
            Value::Float(v) => Json::num_tagged(*v),
            Value::Str(s) => Json::str(s.as_str()),
            Value::Bool(b) => Json::Bool(*b),
        }
    }
}

impl Event {
    /// Serializes the event as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut members = vec![
            ("seq", Json::Num(self.seq as f64)),
            ("t_us", Json::Num(self.t_us as f64)),
            ("thread", Json::Num(self.thread as f64)),
            ("span", Json::str(self.span.as_str())),
            ("name", Json::str(self.name.as_str())),
        ];
        if !self.fields.is_empty() {
            let fields = self
                .fields
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect();
            members.push(("fields", Json::Obj(fields)));
        }
        Json::obj(members).render()
    }
}

// ---------------------------------------------------------------------------
// Dump machinery
// ---------------------------------------------------------------------------

static DUMP_OVERRIDE: Mutex<Option<PathBuf>> = Mutex::new(None);

/// `SPICIER_TRACE` as a dump path; unset and empty both mean none.
/// This is the only place the variable is read.
fn env_dump_path() -> Option<&'static PathBuf> {
    static PATH: OnceLock<Option<PathBuf>> = OnceLock::new();
    PATH.get_or_init(|| {
        std::env::var("SPICIER_TRACE")
            .ok()
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    })
    .as_ref()
}

/// The dump file `SPICIER_TRACE` names, if any.
#[must_use]
pub fn trace_path() -> Option<&'static std::path::Path> {
    env_dump_path().map(PathBuf::as_path)
}

/// Sets (or clears) the flight-recorder dump file programmatically,
/// overriding `SPICIER_TRACE`. Used by tests.
pub fn set_dump_path(path: Option<PathBuf>) {
    *DUMP_OVERRIDE.lock().unwrap_or_else(|e| e.into_inner()) = path;
}

/// Points flight-recorder dumps at `path` unless `SPICIER_TRACE` names
/// a dump file. The campaign runner and the daemon call it with a path
/// under their output directory.
pub fn set_fallback_dump_path(path: PathBuf) {
    if env_dump_path().is_none() {
        set_dump_path(Some(path));
    }
}

fn dump_path() -> Option<PathBuf> {
    let over = DUMP_OVERRIDE.lock().unwrap_or_else(|e| e.into_inner());
    over.clone().or_else(|| env_dump_path().cloned())
}

/// Records an analysis failure: emits a final `failure` event carrying
/// `kind` (e.g. `DcNoConvergence`) and `detail`, then appends the whole
/// ring-buffer trajectory to the dump file as JSONL and clears the
/// ring, so each dump holds the events since the previous one.
///
/// No-op when telemetry is disabled; without a dump path the failure
/// event is still recorded in the ring (visible to [`drain`]).
pub fn record_failure(kind: &str, detail: &str) {
    if !enabled() {
        return;
    }
    push_event(
        "failure",
        vec![
            ("kind".to_string(), Value::Str(kind.to_string())),
            ("detail".to_string(), Value::Str(detail.to_string())),
        ],
    );
    let Some(path) = dump_path() else {
        return;
    };
    let (events, dropped) = {
        let mut ring = ring_lock();
        let dropped = ring.dropped;
        ring.dropped = 0;
        (std::mem::take(&mut ring.events), dropped)
    };
    let mut out = Json::obj(vec![
        ("name", Json::str("dump_begin")),
        ("kind", Json::str(kind)),
        ("events", Json::Num(events.len() as f64)),
        ("dropped", Json::Num(dropped as f64)),
    ])
    .render();
    out.push('\n');
    for ev in &events {
        out.push_str(&ev.to_jsonl());
        out.push('\n');
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    // Failure dumps append (several corners can fail in one campaign);
    // write errors are swallowed — telemetry must never fail the run.
    let _ = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(out.as_bytes()));
}

/// Returns a copy of the events currently buffered, oldest first.
#[must_use]
pub fn snapshot() -> Vec<Event> {
    ring_lock().events.iter().cloned().collect()
}

/// Removes and returns all buffered events, oldest first, and resets
/// the dropped-event counter.
pub fn drain() -> Vec<Event> {
    let mut ring = ring_lock();
    ring.dropped = 0;
    std::mem::take(&mut ring.events).into()
}

/// Sets the ring-buffer capacity (events beyond it evict oldest-first).
/// Intended for tests; the default is [`DEFAULT_CAPACITY`].
pub fn set_capacity(cap: usize) {
    let mut ring = ring_lock();
    ring.cap = cap.max(1);
    while ring.events.len() > ring.cap {
        ring.events.pop_front();
        ring.dropped += 1;
    }
}

// ---------------------------------------------------------------------------
// Per-analysis summaries and the process-global rollup
// ---------------------------------------------------------------------------

/// Merges two optional "worst" measurements, treating `NaN` as worse
/// than anything (mirrors `SolveQuality::worst`).
fn worst_opt(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => {
            if x.is_nan() || y.is_nan() {
                Some(f64::NAN)
            } else {
                Some(x.max(y))
            }
        }
    }
}

/// Per-analysis telemetry rollup attached to `DcSolution`,
/// `TranResult`, `AcResult`, and `NoiseResult`; [`absorb`] folds many of
/// them into one, as the process-global rollup does.
///
/// Built from counters the analyses already track, so populating it is
/// cheap and unconditional; only the merge into the process-global
/// rollup is gated on [`enabled`].
///
/// [`absorb`]: TelemetrySummary::absorb
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySummary {
    /// Number of analyses summarized: 1 for one analysis's summary, the
    /// sum for a merged rollup.
    pub analyses: u64,
    /// Wall-clock time spent in the analysis.
    pub wall: Duration,
    /// Total Newton iterations across all solves.
    pub newton_iterations: u64,
    /// Newton iterations spent per recovery-ladder rung label
    /// (`"newton"`, `"damped-newton"`, `"gmin-stepping"`, ...).
    pub rung_iterations: Vec<(String, u64)>,
    /// Accepted transient timesteps.
    pub accepted_steps: u64,
    /// Rejected transient timesteps (LTE or Newton rejections).
    pub rejected_steps: u64,
    /// Linear-kernel counters accumulated during the analysis.
    pub lu: LuStats,
    /// Worst certified backward error observed (`NaN` is pessimal).
    pub worst_backward_error: Option<f64>,
    /// Worst condition-number estimate carried by a solve's
    /// `SolveQuality`. Solves only estimate on their failure path, which
    /// returns an error instead of a quality record, so analyses leave
    /// this `None`.
    pub cond_estimate: Option<f64>,
}

impl TelemetrySummary {
    /// Merges `other` into `self` (durations add, worsts worst-merge).
    pub fn absorb(&mut self, other: &TelemetrySummary) {
        self.analyses += other.analyses;
        self.wall += other.wall;
        self.newton_iterations += other.newton_iterations;
        for (label, n) in &other.rung_iterations {
            match self.rung_iterations.iter_mut().find(|(l, _)| l == label) {
                Some((_, total)) => *total += n,
                None => self.rung_iterations.push((label.clone(), *n)),
            }
        }
        self.accepted_steps += other.accepted_steps;
        self.rejected_steps += other.rejected_steps;
        self.lu.absorb(&other.lu);
        self.worst_backward_error =
            worst_opt(self.worst_backward_error, other.worst_backward_error);
        self.cond_estimate = worst_opt(self.cond_estimate, other.cond_estimate);
    }

    /// Folds many summaries into one under [`absorb`]'s discipline:
    /// durations and counters add, worsts worst-merge (`NaN` pessimal).
    /// An empty iterator yields the default (all-zero) summary. Used by
    /// the campaign run report's totals and by the campaign daemon's
    /// drain report to roll every job this incarnation touched into a
    /// single line.
    ///
    /// [`absorb`]: TelemetrySummary::absorb
    #[must_use]
    pub fn merged<'a, I: IntoIterator<Item = &'a TelemetrySummary>>(items: I) -> TelemetrySummary {
        let mut total = TelemetrySummary::default();
        for item in items {
            total.absorb(item);
        }
        total
    }
}

/// Process-global telemetry rollup, drained per experiment by the
/// campaign driver via [`take_global_summary`].
static GLOBAL: Mutex<Option<TelemetrySummary>> = Mutex::new(None);

/// Merges an analysis summary into the process-global rollup. No-op
/// when telemetry is disabled (the rollup only feeds `RUN_REPORT.json`,
/// which is only written with telemetry on).
pub fn record_summary(summary: &TelemetrySummary) {
    if !enabled() {
        return;
    }
    GLOBAL
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get_or_insert_with(TelemetrySummary::default)
        .absorb(summary);
}

/// Drains the process-global rollup, returning everything recorded
/// since the previous call (default-empty if nothing was recorded).
pub fn take_global_summary() -> TelemetrySummary {
    GLOBAL
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring buffer is process-global and `cargo test` runs tests on
    // many threads: every test that inspects ring contents serializes
    // on this lock and filters for its own thread's events.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn own(events: Vec<Event>) -> Vec<Event> {
        let me = thread_id();
        events.into_iter().filter(|e| e.thread == me).collect()
    }

    #[test]
    fn merged_folds_summaries_with_worst_merge() {
        let a = TelemetrySummary {
            wall: Duration::from_millis(10),
            newton_iterations: 3,
            worst_backward_error: Some(1e-12),
            ..Default::default()
        };
        let b = TelemetrySummary {
            wall: Duration::from_millis(5),
            newton_iterations: 4,
            worst_backward_error: Some(1e-9),
            ..Default::default()
        };
        let total = TelemetrySummary::merged([&a, &b]);
        assert_eq!(total.wall, Duration::from_millis(15));
        assert_eq!(total.newton_iterations, 7);
        assert_eq!(total.worst_backward_error, Some(1e-9));
        assert_eq!(
            TelemetrySummary::merged(std::iter::empty()),
            TelemetrySummary::default()
        );
    }

    #[test]
    fn disabled_is_inert() {
        assert!(!enabled());
        event("ignored", &[("k", Value::Int(1))]);
        let _span = span("ignored");
        // Nothing above may have touched the ring for this thread.
        let mine = own(snapshot());
        assert!(mine.is_empty());
    }

    #[test]
    fn scoped_enable_nests_and_restores() {
        assert!(!enabled());
        with_trace(|| {
            assert!(enabled());
            with_trace(|| assert!(enabled()));
            assert!(enabled());
        });
        assert!(!enabled());
        let caught = std::panic::catch_unwind(|| with_trace(|| panic!("boom")));
        assert!(caught.is_err());
        assert!(!enabled());
    }

    #[test]
    fn events_record_and_wraparound_drops_oldest() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        with_trace(|| {
            drain();
            set_capacity(4);
            for i in 0..10_i64 {
                event("tick", &[("i", Value::Int(i))]);
            }
            let events = own(drain());
            set_capacity(DEFAULT_CAPACITY);
            assert_eq!(events.len(), 4);
            // Oldest evicted: the survivors are ticks 6..=9, in order.
            let is: Vec<i64> = events
                .iter()
                .map(|e| match e.fields[0].1 {
                    Value::Int(v) => v,
                    _ => panic!("unexpected field"),
                })
                .collect();
            assert_eq!(is, vec![6, 7, 8, 9]);
            // Sequence numbers are strictly increasing.
            assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        });
    }

    #[test]
    fn spans_nest_and_scope_events() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        with_trace(|| {
            drain();
            {
                let _outer = span("outer");
                event("a", &[]);
                {
                    let _inner = span("inner");
                    event("b", &[]);
                }
                event("c", &[]);
            }
            let events = own(drain());
            let find = |name: &str| {
                events
                    .iter()
                    .find(|e| e.name == name)
                    .unwrap_or_else(|| panic!("missing event {name}"))
            };
            assert_eq!(find("a").span, "outer");
            assert_eq!(find("b").span, "outer/inner");
            assert_eq!(find("c").span, "outer");
            // Both span_end events fired, inner first.
            let ends: Vec<&str> = events
                .iter()
                .filter(|e| e.name == "span_end")
                .map(|e| e.span.as_str())
                .collect();
            assert_eq!(ends, vec!["outer/inner", "outer"]);
        });
    }

    #[test]
    fn jsonl_escapes_names_and_nonfinite() {
        let ev = Event {
            seq: 7,
            t_us: 42,
            thread: 0,
            span: "dc/rung \"weird\\node\"".to_string(),
            name: "new\nline".to_string(),
            fields: vec![
                ("node".to_string(), Value::Str("n\"1\\2\t".to_string())),
                ("residual".to_string(), Value::Float(f64::NAN)),
                ("vmax".to_string(), Value::Float(f64::INFINITY)),
                ("iter".to_string(), Value::Int(-3)),
                ("ok".to_string(), Value::Bool(false)),
            ],
        };
        let line = ev.to_jsonl();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(
            doc.str_field("span").as_deref(),
            Some("dc/rung \"weird\\node\"")
        );
        assert_eq!(doc.str_field("name").as_deref(), Some("new\nline"));
        let fields = doc.get("fields").unwrap();
        assert_eq!(fields.str_field("node").as_deref(), Some("n\"1\\2\t"));
        assert_eq!(fields.str_field("residual").as_deref(), Some("NaN"));
        assert_eq!(fields.str_field("vmax").as_deref(), Some("inf"));
        assert_eq!(fields.num_field("iter"), Some(-3.0));
        assert_eq!(fields.get("ok").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn record_failure_dumps_and_clears() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("spicier-telemetry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("dump.jsonl");
        with_trace(|| {
            drain();
            set_dump_path(Some(path.clone()));
            event("newton_iter", &[("iter", Value::Int(1))]);
            record_failure("DcNoConvergence", "rung pseudo-transient exhausted");
            record_failure("DeadlineExceeded", "corner 3");
            set_dump_path(None);
        });
        let text = std::fs::read_to_string(&path).expect("dump written");
        let _ = std::fs::remove_dir_all(&dir);
        let lines: Vec<&str> = text.lines().collect();
        // Two dumps: each begins with a dump_begin header and ends with
        // its failure event; the second dump only holds events recorded
        // after the first (ring cleared between).
        assert!(lines[0].contains("\"dump_begin\""));
        assert!(lines[0].contains("\"DcNoConvergence\""));
        assert!(text.contains("\"newton_iter\""));
        assert!(text.contains("rung pseudo-transient exhausted"));
        let second = text
            .split("\"dump_begin\"")
            .nth(2)
            .expect("second dump present");
        assert!(!second.contains("newton_iter"));
        assert!(lines
            .last()
            .expect("non-empty")
            .contains("DeadlineExceeded"));
    }

    #[test]
    fn summaries_merge_and_drain() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        with_trace(|| {
            take_global_summary();
            let mut a = TelemetrySummary {
                analyses: 1,
                newton_iterations: 10,
                rung_iterations: vec![("newton".to_string(), 8), ("gmin".to_string(), 2)],
                worst_backward_error: Some(1e-12),
                ..TelemetrySummary::default()
            };
            let b = TelemetrySummary {
                analyses: 1,
                newton_iterations: 5,
                rung_iterations: vec![("newton".to_string(), 5)],
                worst_backward_error: Some(1e-9),
                cond_estimate: Some(1e8),
                ..TelemetrySummary::default()
            };
            a.absorb(&b);
            assert_eq!(a.analyses, 2);
            assert_eq!(a.newton_iterations, 15);
            assert_eq!(
                a.rung_iterations,
                vec![("newton".to_string(), 13), ("gmin".to_string(), 2)]
            );
            assert_eq!(a.worst_backward_error, Some(1e-9));
            record_summary(&a);
            record_summary(&b);
            let g = take_global_summary();
            // `a` already summarizes two analyses, so three in all.
            assert_eq!(g.analyses, 3);
            assert_eq!(g.newton_iterations, 20);
            assert_eq!(
                g.rung_iterations,
                vec![("newton".to_string(), 18), ("gmin".to_string(), 2)]
            );
            assert_eq!(g.cond_estimate, Some(1e8));
            // Drained: the next take is empty.
            assert_eq!(take_global_summary(), TelemetrySummary::default());
        });
    }

    #[test]
    fn nan_is_pessimal_in_worst_merge() {
        assert!(worst_opt(Some(1.0), Some(f64::NAN)).unwrap().is_nan());
        assert!(worst_opt(Some(f64::NAN), Some(2.0)).unwrap().is_nan());
        assert_eq!(worst_opt(None, Some(3.0)), Some(3.0));
        assert_eq!(worst_opt(Some(4.0), Some(2.0)), Some(4.0));
        assert_eq!(worst_opt(None, None), None);
    }
}
