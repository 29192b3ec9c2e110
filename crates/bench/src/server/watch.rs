//! Server side of the `watch` subscription: a replayable, bounded event
//! stream over a campaign's chunk manifest.
//!
//! The event log is *virtual* — nothing is queued in memory. For a
//! campaign of `C` chunks, event seq `k` (1-based) is the completion of
//! chunk `k-1`, and the terminal event always has seq `C + 1`. The
//! scheduler's frontier (count of contiguous complete chunks from index
//! 0) gates publication: a seq is visible iff `seq <= frontier`, and
//! every visible event is reconstructed on demand from the part CSV on
//! disk. Because workers advance the frontier only *after* the part
//! file and manifest record are durably written, any event a client
//! ever saw is reproducible byte-for-byte across daemon SIGKILL +
//! journal resume — `watch {job, from_seq}` replays exactly the missed
//! suffix, never a duplicate, never a hole.
//!
//! Slow-consumer policy (two layers, both bounded):
//! * A per-frame write timeout (`SERVE_WATCH_WRITE_TIMEOUT_MS`): a
//!   subscriber that blocks a frame write that long is disconnected —
//!   mid-frame the stream is corrupt and cannot be demoted cleanly. The
//!   connection thread is the only thing that ever blocks; workers just
//!   flip a bitmap bit and notify a condvar.
//! * A lag budget (`SERVE_WATCH_LAG_BUDGET`): once a subscriber has
//!   caught up to the live head, falling more than the budget behind
//!   demotes it to poll-mode with a clean `lagged {next_seq}` frame
//!   (catch-up replay after reconnect is exempt — a client resuming
//!   from seq 1 is *supposed* to be far behind).
//!
//! Disconnects mid-stream never cancel the job: a watch is a read-only
//! view, and the job runs to its end whether or not anyone watches.

use super::daemon::{telemetry_json, DRAIN};
use super::execute::{chunk_path, result_path};
use super::proto::{self, write_frame, Stream};
use super::scheduler::{Counter, Job, JobPhase, Outcome, Scheduler};
use crate::experiments::manifest::fnv64;
use spicier::json::Json;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// What the connection loop should do after a watch stream ends.
pub(super) enum WatchEnd {
    /// Stream ended cleanly; the connection returns to request mode.
    Continue,
    /// The socket is dead or corrupt mid-frame; close the connection.
    Close,
    /// The subscription was refused; send this single reply frame.
    Reply(Json),
}

/// Milliseconds since the Unix epoch — stamped on every event frame so
/// the load harness can measure delivery latency. Advisory only: the
/// stamp is *not* part of the replayable event identity (a replayed
/// event carries a fresh stamp; clients dedup by seq alone).
fn now_ms() -> f64 {
    super::metrics::epoch_ms()
}

/// A chunk-completion event frame: the chunk's rows, their count, and
/// an fnv64 digest so clients can verify replayed events byte-for-byte.
#[must_use]
pub fn chunk_event(job_key: &str, seq: u64, rows: &str, telemetry: Json) -> Json {
    Json::obj(vec![
        ("status", Json::str(proto::status::EVENT)),
        ("kind", Json::str("chunk")),
        ("job", Json::str(job_key)),
        ("seq", Json::num(seq as f64)),
        ("chunk", Json::num((seq - 1) as f64)),
        ("rows", Json::str(rows)),
        ("row_count", Json::num(rows.lines().count() as f64)),
        ("digest", Json::str(fnv64(rows))),
        ("sent_ms", Json::num(now_ms())),
        ("telemetry", telemetry),
    ])
}

/// A keepalive frame for long-idle streams: no payload, no seq — it
/// exists so clients can tell a quiet campaign from a dead daemon.
#[must_use]
pub fn ping_event(job_key: &str) -> Json {
    Json::obj(vec![
        ("status", Json::str(proto::status::EVENT)),
        ("kind", Json::str("ping")),
        ("job", Json::str(job_key)),
        ("sent_ms", Json::num(now_ms())),
    ])
}

/// The demotion frame of the slow-consumer policy: the subscriber is
/// being returned to poll-mode and should re-subscribe from `next_seq`
/// when it can keep up.
#[must_use]
pub fn lagged_frame(job_key: &str, next_seq: u64) -> Json {
    Json::obj(vec![
        ("status", Json::str(proto::status::LAGGED)),
        ("job", Json::str(job_key)),
        ("next_seq", Json::num(next_seq as f64)),
    ])
}

/// The terminal event (seq is always `total_chunks + 1`): outcome
/// status, full telemetry rollup, and — when a result CSV exists — its
/// path and digest so a streaming client can verify its reassembled
/// copy without re-downloading.
fn done_event(job: &Job, seq: u64) -> Json {
    let s = job.snapshot();
    let outcome = match &s.phase {
        JobPhase::Done(outcome) => outcome.clone(),
        // Unreachable in practice: callers only build this frame once
        // the job is terminal.
        _ => Outcome::Failed("job not terminal".into()),
    };
    let mut m = vec![
        ("status", Json::str(proto::status::EVENT)),
        ("kind", Json::str("done")),
        ("job", Json::str(&job.key)),
        ("seq", Json::num(seq as f64)),
        ("outcome", Json::str(outcome.status())),
        ("resumed", Json::Bool(job.resumed)),
        ("sent_ms", Json::num(now_ms())),
        ("telemetry", telemetry_json(job)),
        ("timeline", s.timeline.to_json()),
    ];
    if let Some(output) = &s.output {
        m.push(("csv_digest", Json::str(fnv64(output))));
    }
    if let Some(dir) = &job.dir {
        m.push((
            "result_path",
            Json::str(result_path(dir).display().to_string()),
        ));
    }
    if let Outcome::Failed(err) = &outcome {
        m.push(("error", Json::str(err)));
    }
    Json::obj(m)
}

/// Classifies a frame-write error: `true` means the subscriber was too
/// slow to drain the socket (write timeout), `false` any other failure.
fn is_write_stall(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Serves one `watch {job, from_seq}` subscription on `stream` until
/// the terminal event, a slow-consumer demotion, drain, or a dead
/// socket.
pub(super) fn stream_watch(
    sched: &Scheduler,
    stream: &mut Stream,
    job_key: &str,
    from_seq: u64,
) -> WatchEnd {
    let cfg = sched.config();
    let Some(job) = sched.job(job_key) else {
        return WatchEnd::Reply(Json::obj(vec![
            ("status", Json::str(proto::status::UNKNOWN)),
            ("job", Json::str(job_key)),
        ]));
    };
    let (total_units, frontier0) = job.with_state(|s| (s.total_units, s.frontier));
    let terminal_seq = total_units as u64 + 1;
    if from_seq > terminal_seq {
        return WatchEnd::Reply(Json::obj(vec![
            ("status", Json::str(proto::status::FAILED)),
            ("job", Json::str(job_key)),
            (
                "error",
                Json::str(format!(
                    "from_seq {from_seq} beyond terminal {terminal_seq}"
                )),
            ),
        ]));
    }
    sched.counters.bump(Counter::WatchStreams);
    if cfg.watch_sndbuf > 0 {
        let _ = stream.set_send_buffer(cfg.watch_sndbuf);
    }
    if stream
        .set_write_timeout(Some(cfg.watch_write_timeout))
        .is_err()
    {
        return WatchEnd::Close;
    }
    let ack = Json::obj(vec![
        ("status", Json::str(proto::status::OK)),
        ("watch", Json::Bool(true)),
        ("job", Json::str(job_key)),
        ("from_seq", Json::num(from_seq as f64)),
        ("total_chunks", Json::num(total_units as f64)),
        ("frontier", Json::num(frontier0 as f64)),
        ("resumed", Json::Bool(job.resumed)),
    ]);
    if write_frame(stream, &ack).is_err() {
        return WatchEnd::Close;
    }
    let end = stream_events(sched, stream, &job, from_seq, terminal_seq);
    // Back to request mode: the write timeout was a watch-only policy.
    let _ = stream.set_write_timeout(None);
    end
}

/// The event loop behind [`stream_watch`] (split out so the caller can
/// restore socket state on every exit path).
fn stream_events(
    sched: &Scheduler,
    stream: &mut Stream,
    job: &Job,
    from_seq: u64,
    terminal_seq: u64,
) -> WatchEnd {
    let cfg = sched.config();
    let dir = job.dir.clone();
    let mut seq = from_seq;
    // The lag budget only applies once this subscriber has reached the
    // live head at least once; before that it is replaying history it
    // explicitly asked for.
    let mut caught_up = false;
    let mut last_write = Instant::now();
    loop {
        let (frontier, done) =
            job.with_state(|s| (s.frontier as u64, matches!(s.phase, JobPhase::Done(_))));
        if seq <= frontier {
            let behind = frontier - seq + 1;
            if caught_up && behind > cfg.watch_lag_budget {
                // Clean demotion between frames: the subscriber fell
                // past the budget while following live. It re-subscribes
                // from `next_seq` (or polls) when it can keep up.
                sched.counters.bump(Counter::WatchLagged);
                let _ = write_frame(stream, &lagged_frame(&job.key, seq));
                return WatchEnd::Continue;
            }
            let Some(dir) = dir.as_deref() else {
                // Interactive jobs have no chunk files; their frontier
                // never moves, so this arm is unreachable for them.
                return WatchEnd::Close;
            };
            let rows = match std::fs::read_to_string(chunk_path(dir, (seq - 1) as usize)) {
                Ok(rows) => rows,
                Err(e) => {
                    let _ = write_frame(
                        stream,
                        &Json::obj(vec![
                            ("status", Json::str(proto::status::FAILED)),
                            ("job", Json::str(&job.key)),
                            ("error", Json::str(format!("chunk {}: {e}", seq - 1))),
                        ]),
                    );
                    return WatchEnd::Continue;
                }
            };
            let t0 = Instant::now();
            match write_frame(
                stream,
                &chunk_event(&job.key, seq, &rows, telemetry_json(job)),
            ) {
                Ok(()) => {
                    sched.metrics.watch_frame_ms.record(t0.elapsed());
                    sched.counters.bump(Counter::WatchEvents);
                    seq += 1;
                    last_write = Instant::now();
                }
                Err(e) if is_write_stall(&e) => {
                    // Mid-frame stall: the stream is corrupt from the
                    // subscriber's perspective, so demotion cannot be
                    // signalled in-band — disconnect. The client's
                    // reconnect-resume picks up from its last seen seq.
                    sched.counters.bump(Counter::WatchLagged);
                    return WatchEnd::Close;
                }
                Err(_) => return WatchEnd::Close,
            }
        } else if done {
            if seq < terminal_seq {
                // Chunks past the frontier never completed (cancelled /
                // failed / drained job): the log has a gap by design and
                // jumps straight to the terminal event.
                seq = terminal_seq;
            }
            if seq == terminal_seq {
                let t0 = Instant::now();
                match write_frame(stream, &done_event(job, seq)) {
                    Ok(()) => {
                        sched.metrics.watch_frame_ms.record(t0.elapsed());
                        sched.counters.bump(Counter::WatchEvents);
                    }
                    Err(_) => return WatchEnd::Close,
                }
            }
            return WatchEnd::Continue;
        } else {
            caught_up = true;
            if DRAIN.load(Ordering::SeqCst) {
                // Drain ends live streams politely; journal + manifest
                // guarantee the next daemon can resume this exact seq.
                let _ = write_frame(
                    stream,
                    &Json::obj(vec![
                        ("status", Json::str(proto::status::DRAINING)),
                        ("job", Json::str(&job.key)),
                        ("next_seq", Json::num(seq as f64)),
                    ]),
                );
                return WatchEnd::Continue;
            }
            let _ = job.wait_event((seq - 1) as usize, Duration::from_millis(200));
            if last_write.elapsed() >= cfg.watch_keepalive {
                match write_frame(stream, &ping_event(&job.key)) {
                    Ok(()) => last_write = Instant::now(),
                    Err(_) => return WatchEnd::Close,
                }
            }
        }
    }
}
