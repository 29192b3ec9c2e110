//! Campaign daemon: a multi-tenant batch service exposing the deck
//! runner and sweep campaigns over a Unix or TCP socket.
//!
//! The binary is `spicier-serve`; `spicier-loadgen` is the matching load
//! harness. DESIGN.md §3.6 describes the architecture; EXPERIMENTS.md
//! lists every knob. The short version of the request lifecycle:
//!
//! * **Admission control** — both work classes live in bounded queues.
//!   A full queue sheds the request with an explicit `busy` reply
//!   instead of buffering without bound; accepted campaign jobs are
//!   journaled (fsync) *before* the `accepted` reply, so an accept is a
//!   durability promise.
//! * **Fair-share scheduling** — interactive requests and campaign
//!   chunks share one worker pool; a weighted round-robin dispatches at
//!   most [`ServerConfig::interactive_weight`] interactive units per
//!   campaign chunk when both queues are non-empty, so a long campaign
//!   cannot starve interactive latency and vice versa.
//! * **Budgets and cancellation** — every job holds a root
//!   [`spicier::CancelToken`]; each unit of work runs under a corner
//!   token derived from it with a deadline and installed with
//!   `with_corner_token`, so the solvers' budget checks observe remote
//!   cancellation, client disconnects, and per-request deadlines without
//!   new solver plumbing.
//! * **Graceful drain** — SIGTERM (or a `drain` request) stops
//!   admissions, lets in-flight corners finish, and leaves queued jobs
//!   journaled; a restarted daemon replays the journal and resumes them
//!   from their per-job chunk manifests, reproducing byte-identical
//!   result CSVs.
//! * **Degraded outcomes are distinguishable** — `busy`, `cancelled`,
//!   `timed_out`, `quarantined`, `draining`, and the `resumed` flag are
//!   all distinct statuses in the protocol and distinct counters in the
//!   `stats` reply.

pub mod client;
pub mod daemon;
pub mod execute;
pub mod jobstate;
/// Re-export of [`spicier::json`] under the path existing importers use.
pub use spicier::json;
pub mod loadgen;
pub mod metrics;
pub mod proto;
pub mod scheduler;
pub mod watch;

use std::path::PathBuf;
use std::time::Duration;

/// Daemon settings, read once at startup by [`ServerConfig::from_env`]
/// from the `SERVE_*` variables named per field. Fields without a
/// variable are fixed defaults that unit tests override.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// `SERVE_ADDR`: `tcp:<host>:<port>` (port 0 picks a free one) or
    /// `unix:<path>`. Default `tcp:127.0.0.1:0`. The actual bound
    /// address is written to `<state_dir>/ADDR`.
    pub addr: String,
    /// `SERVE_STATE_DIR`: journal, job manifests, and result CSVs live
    /// here. Default `target/server-state`.
    pub state_dir: PathBuf,
    /// `SERVE_WORKERS`: size of the worker pool.
    pub workers: usize,
    /// Max queued interactive requests (64); beyond this the daemon
    /// sheds with `busy`.
    pub queue_interactive: usize,
    /// `SERVE_QUEUE_BATCH`: max campaign jobs in flight (queued or
    /// running); beyond this the daemon sheds with `busy`.
    pub queue_batch: usize,
    /// Interactive units dispatched per campaign chunk when both queues
    /// are non-empty (3).
    pub interactive_weight: usize,
    /// `SERVE_READ_TIMEOUT_MS`: once the first byte of a frame arrives,
    /// the rest must follow within this window (slowloris defence).
    pub read_timeout: Duration,
    /// `SERVE_SLOW_CORNER_MS`: artificial per-corner delay, used by the
    /// load harness and drills to make campaigns take real wall time.
    pub slow_corner: Duration,
    /// `SERVE_JOURNAL_POLICY`: `strict` refuses to start when journal
    /// replay finds mid-file corruption (a torn tail is always benign);
    /// `lenient` (default) logs the damage, surfaces it in `stats`, and
    /// serves what survived.
    pub journal_strict: bool,
    /// `SERVE_WATCH_KEEPALIVE_MS`: idle gap after which a watch stream
    /// emits a `ping` event frame so clients can distinguish a quiet
    /// campaign from a dead daemon.
    pub watch_keepalive: Duration,
    /// `SERVE_WATCH_WRITE_TIMEOUT_MS`: per-frame write deadline on watch
    /// streams. A subscriber that blocks a frame write longer than this
    /// is disconnected (the stream is corrupt mid-frame and cannot be
    /// demoted cleanly) — the worker pool is never wedged by one slow
    /// reader.
    pub watch_write_timeout: Duration,
    /// `SERVE_WATCH_LAG_BUDGET`: once a subscriber has caught up to the
    /// live head, falling more than this many events behind demotes it
    /// to poll-mode with a clean `lagged {next_seq}` frame. Catch-up
    /// replay after reconnect is exempt.
    pub watch_lag_budget: u64,
    /// `SERVE_WATCH_SNDBUF`: kernel send-buffer size (bytes) for watch
    /// streams; 0 keeps the kernel default. Drills shrink it so a
    /// non-reading subscriber is detected quickly.
    pub watch_sndbuf: usize,
    /// `SERVE_ACCESS_LOG`: when set, the path of a JSONL access log
    /// recording one line per request (verb, outcome, latency, bytes
    /// moved). Unset (default) the request path does no logging IO —
    /// the same opt-in discipline as `SPICIER_TRACE`.
    pub access_log: Option<PathBuf>,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn env_ms(name: &str, default_ms: u64) -> Duration {
    Duration::from_millis(
        std::env::var(name)
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(default_ms),
    )
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

impl ServerConfig {
    /// Reads every knob from the environment (defaults documented on the
    /// fields).
    #[must_use]
    pub fn from_env() -> Self {
        let state_dir = match std::env::var("SERVE_STATE_DIR") {
            Ok(v) if !v.is_empty() => PathBuf::from(v),
            _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/server-state"),
        };
        let default_workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
            .clamp(2, 8);
        Self {
            addr: std::env::var("SERVE_ADDR").unwrap_or_else(|_| "tcp:127.0.0.1:0".to_string()),
            state_dir,
            workers: env_usize("SERVE_WORKERS", default_workers).max(1),
            queue_interactive: 64,
            queue_batch: env_usize("SERVE_QUEUE_BATCH", 16),
            interactive_weight: 3,
            read_timeout: env_ms("SERVE_READ_TIMEOUT_MS", 5_000),
            slow_corner: env_ms("SERVE_SLOW_CORNER_MS", 0),
            journal_strict: std::env::var("SERVE_JOURNAL_POLICY")
                .is_ok_and(|v| v.trim() == "strict"),
            watch_keepalive: env_ms("SERVE_WATCH_KEEPALIVE_MS", 5_000),
            watch_write_timeout: env_ms("SERVE_WATCH_WRITE_TIMEOUT_MS", 2_000),
            watch_lag_budget: env_usize("SERVE_WATCH_LAG_BUDGET", 256) as u64,
            watch_sndbuf: env_usize("SERVE_WATCH_SNDBUF", 0),
            access_log: std::env::var("SERVE_ACCESS_LOG")
                .ok()
                .filter(|v| !v.trim().is_empty())
                .map(PathBuf::from),
        }
    }

    /// Path of the file holding the actually-bound listener address.
    #[must_use]
    pub fn addr_file(&self) -> PathBuf {
        self.state_dir.join("ADDR")
    }
}
