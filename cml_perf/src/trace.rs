//! Spans the benchmark records around its own calls into each layer:
//! name, start, end and parent, kept in memory and written as JSONL when
//! the run ends. Recording is switched per phase, so untraced rounds pay
//! one relaxed atomic load per span site.

use crate::report::Json;
use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static DONE: Mutex<Vec<Record>> = Mutex::new(Vec::new());

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct Record {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_us: f64,
    end_us: f64,
}

/// Turns span recording on or off (for spans opened from now on).
pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

/// An open span; closes (and is recorded) when dropped.
pub struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
}

/// Opens a span named `name` under the innermost span open on this
/// thread, or returns `None` when recording is off.
pub fn span(name: &str) -> Option<Span> {
    if !ON.load(Ordering::Relaxed) {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    Some(Span {
        id,
        parent,
        name: name.to_string(),
        start: Instant::now(),
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let end = Instant::now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.remove(pos);
            }
        });
        let since = |t: Instant| t.duration_since(epoch()).as_secs_f64() * 1e6;
        let record = Record {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_us: since(self.start),
            end_us: since(end),
        };
        // A poisoned lock only means another recording thread panicked;
        // the span list itself is always left whole.
        DONE.lock().unwrap_or_else(|e| e.into_inner()).push(record);
    }
}

/// Number of spans recorded so far.
pub fn recorded() -> usize {
    DONE.lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Writes every recorded span, one JSON object per line.
pub fn write_jsonl(path: &Path) -> Result<(), String> {
    let done = DONE.lock().unwrap_or_else(|e| e.into_inner());
    let mut text = String::new();
    for r in done.iter() {
        let parent = r.parent.map_or(Json::Null, |p| Json::num(p as f64));
        let line = Json::obj(vec![
            ("id", Json::num(r.id as f64)),
            ("parent", parent),
            ("name", Json::str(&r.name)),
            ("start_us", Json::num(r.start_us)),
            ("end_us", Json::num(r.end_us)),
        ]);
        text.push_str(&line.render());
        text.push('\n');
    }
    crate::report::write_file(path, &text)
}
