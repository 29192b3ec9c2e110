//! The daemon proper: listener, connection lifecycle, request dispatch,
//! and graceful drain.
//!
//! One thread per connection (at most `MAX_CONNS` = 64; excess
//! connections get a `busy` frame and are closed). Frame reads are
//! two-phase: an idle wait for the first byte (checking the drain flag
//! every 100 ms), then a hard whole-frame deadline of
//! `SERVE_READ_TIMEOUT_MS` — a slowloris client that trickles bytes
//! cannot hold a connection slot past that deadline.
//!
//! SIGTERM (or a `drain` request) flips one atomic; the accept loop
//! notices, stops admitting, lets in-flight units finish, and exits.
//! Queued campaign work survives in the journal + per-job manifests and
//! is resumed by the next daemon start.

use super::execute::{self, finalize_job, split_chunks, worker_loop};
use super::metrics::{self, AccessLog};
use super::proto::{self, write_frame, Listener, Request, Stream};
use super::scheduler::{AdmitError, Counter, Job, JobClass, JobPhase, Outcome, Scheduler, Unit};
use super::ServerConfig;
use spicier::json::Json;
use spicier::TelemetrySummary;
use std::io::Read;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set by SIGTERM or a `drain` request; the accept loop polls it.
pub static DRAIN: AtomicBool = AtomicBool::new(false);

/// Max simultaneous connections; beyond this the daemon sheds with
/// `busy` at accept time.
const MAX_CONNS: usize = 64;

/// Deadline for interactive requests that do not carry their own.
const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

/// Access-log size threshold in bytes; past it the file rotates to
/// `<path>.1` (one generation kept).
const ACCESS_LOG_ROTATE: u64 = 8 * 1024 * 1024;

const SIGTERM: i32 = 15;

extern "C" {
    /// POSIX `signal(2)`; used directly so the repo keeps its
    /// no-new-dependencies rule (no `libc` crate).
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_sigterm(_sig: i32) {
    // The only async-signal-safe thing we do: flip the atomic.
    DRAIN.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM → drain handler.
pub fn install_sigterm_handler() {
    unsafe {
        signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
    }
}

/// Runs the daemon until drain. Returns the process exit code.
///
/// # Errors
///
/// Propagates listener/state-dir setup failures; runtime per-connection
/// errors only close that connection.
pub fn serve(cfg: ServerConfig) -> std::io::Result<i32> {
    install_sigterm_handler();
    std::fs::create_dir_all(&cfg.state_dir)?;
    let (listener, addr) = Listener::bind(&cfg.addr)?;
    // Port 0 / tempdir flows discover the concrete address here.
    crate::durable::write_atomic("addr.write", &cfg.addr_file(), addr.as_bytes())?;
    println!("[serve] listening on {addr}");
    let sched = Scheduler::new(cfg.clone());

    // Crash containment dumps panic payloads through the flight
    // recorder; give it a home under the state dir unless the operator
    // already routed it somewhere via SPICIER_TRACE.
    spicier::telemetry::set_fallback_dump_path(cfg.state_dir.join("FLIGHT_RECORDER.jsonl"));

    // Journal replay: every accepted-but-unfinished campaign is
    // re-admitted as resumed; its chunk manifest trims the work to the
    // incomplete tail. Zero accepted jobs are lost across a crash.
    let (recovered, replay_report) = sched.journal().replay();
    if replay_report.torn_tail {
        println!("[serve] journal had a torn tail (benign: record was never acknowledged)");
    }
    if replay_report.corrupt_records > 0 {
        sched.counters.set(
            Counter::JournalCorruptRecords,
            replay_report.corrupt_records as u64,
        );
        eprintln!(
            "[serve] journal replay found {} corrupt record(s) mid-file",
            replay_report.corrupt_records
        );
        if cfg.journal_strict {
            return Err(std::io::Error::other(format!(
                "journal corrupt: {} damaged record(s) and SERVE_JOURNAL_POLICY=strict",
                replay_report.corrupt_records
            )));
        }
        eprintln!("[serve] journal policy is lenient: serving what survived");
    }
    for rec in recovered {
        let dir = cfg.state_dir.join("jobs").join(&rec.tenant).join(&rec.id);
        let (done, pending) = split_chunks(&dir, &rec.spec);
        match sched.admit_campaign(
            &rec.tenant,
            &rec.id,
            rec.spec.clone(),
            pending.clone(),
            done,
            true,
        ) {
            Ok(job) => {
                println!(
                    "[serve] resumed {} ({} of {} chunks already complete)",
                    rec.key,
                    done,
                    rec.spec.chunk_count()
                );
                if pending.is_empty() {
                    // Killed between the last chunk and the finish
                    // record: only the concat + finish remain.
                    finalize_job(&sched, &Unit { job, index: 0 }, &rec.spec, &dir);
                }
            }
            Err(e) => eprintln!("[serve] could not resume {}: {e:?}", rec.key),
        }
    }

    let workers: Vec<_> = (0..cfg.workers)
        .map(|_| {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || worker_loop(&sched))
        })
        .collect();

    // The access log is strictly opt-in (`SERVE_ACCESS_LOG`): unset, the
    // request path does zero logging IO.
    let access_log = cfg
        .access_log
        .as_ref()
        .map(|p| Arc::new(AccessLog::new(p.clone(), ACCESS_LOG_ROTATE)));

    listener.set_nonblocking(true)?;
    let conns = Arc::new(AtomicUsize::new(0));
    while !DRAIN.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(mut stream) => {
                if conns.load(Ordering::SeqCst) >= MAX_CONNS {
                    // Shed at the door: an explicit busy frame, never an
                    // unbounded thread pile.
                    let _ = write_frame(
                        &mut stream,
                        &Json::obj(vec![
                            ("status", Json::str(proto::status::BUSY)),
                            ("reason", Json::str("connection limit")),
                        ]),
                    );
                    stream.shutdown();
                    sched.counters.bump(Counter::Shed);
                    continue;
                }
                conns.fetch_add(1, Ordering::SeqCst);
                let sched = Arc::clone(&sched);
                let conns = Arc::clone(&conns);
                let log = access_log.clone();
                std::thread::spawn(move || {
                    handle_conn(stream, &sched, log.as_deref());
                    conns.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }

    println!("[serve] draining: finishing in-flight work, persisting the rest");
    sched.drain();
    for w in workers {
        let _ = w.join();
    }
    write_serve_report(&sched, &cfg);
    if let Some(path) = addr.strip_prefix("unix:") {
        let _ = std::fs::remove_file(path);
    }
    println!("[serve] drained; queued campaigns remain journaled for resume");
    Ok(0)
}

/// Writes `<state_dir>/SERVE_REPORT.json` at drain time: the final
/// metrics document plus one entry per job this incarnation touched
/// (class, status, lifecycle timeline) and a rollup of every job's
/// solver cost, merged with [`TelemetrySummary::absorb`] and rendered
/// by [`TelemetrySummary::to_json`] like every other cost record.
fn write_serve_report(sched: &Scheduler, cfg: &ServerConfig) {
    let mut jobs = sched.all_jobs();
    jobs.sort_by(|a, b| a.key.cmp(&b.key));
    let mut entries = Vec::with_capacity(jobs.len());
    let mut cost = TelemetrySummary::default();
    let mut wall = Duration::ZERO;
    for job in &jobs {
        let s = job.snapshot();
        let status = match &s.phase {
            JobPhase::Done(outcome) => outcome.status(),
            JobPhase::Queued | JobPhase::Running => proto::status::RUNNING,
        };
        cost.absorb(&s.telemetry);
        wall += s.wall;
        entries.push(Json::obj(vec![
            ("job", Json::str(&job.key)),
            ("class", Json::str(job.class.metrics_class().label())),
            ("status", Json::str(status)),
            ("resumed", Json::Bool(job.resumed)),
            ("timeline", s.timeline.to_json()),
        ]));
    }
    let mut rollup = Json::obj(vec![
        ("jobs", Json::num(jobs.len() as f64)),
        ("wall_ms", Json::num(wall.as_secs_f64() * 1e3)),
    ]);
    rollup.extend(cost.to_json());
    let report = Json::obj(vec![
        ("schema", Json::str("spicier-serve-report-v1")),
        ("drained_at_ms", Json::num(metrics::epoch_ms())),
        ("metrics", sched.metrics_doc().to_json()),
        ("rollup", rollup),
        ("jobs", Json::Arr(entries)),
    ]);
    let path = cfg.state_dir.join("SERVE_REPORT.json");
    if let Err(e) = crate::durable::write_atomic("report.write", &path, report.render().as_bytes())
    {
        eprintln!("[serve] could not write {}: {e}", path.display());
    }
}

/// Reads one whole request frame with the two-phase timeout discipline.
/// `Ok(None)` means the connection should close (clean EOF, drain, or a
/// slow/broken client).
fn read_request(stream: &mut Stream, cfg: &ServerConfig) -> Option<Json> {
    let mut len = [0u8; 4];
    // Phase 1: idle wait for the first byte, drain-aware.
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .ok()?;
    loop {
        match stream.read(&mut len[..1]) {
            Ok(0) => return None,
            Ok(_) => break,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if DRAIN.load(Ordering::SeqCst) {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
    // Phase 2: the rest of the frame must land before one hard deadline
    // (per-read timeouts alone would let a slowloris trickle forever).
    let deadline = Instant::now() + cfg.read_timeout;
    read_exact_deadline(stream, &mut len[1..], deadline)?;
    let body_len = u32::from_be_bytes(len) as usize;
    if body_len > proto::MAX_FRAME {
        return None;
    }
    let mut body = vec![0u8; body_len];
    read_exact_deadline(stream, &mut body, deadline)?;
    let text = String::from_utf8(body).ok()?;
    Json::parse(&text).ok()
}

fn read_exact_deadline(stream: &mut Stream, buf: &mut [u8], deadline: Instant) -> Option<()> {
    let mut off = 0;
    while off < buf.len() {
        let now = Instant::now();
        if now >= deadline {
            return None; // slowloris: frame did not complete in time
        }
        let slice = (deadline - now).min(Duration::from_millis(200));
        stream.set_read_timeout(Some(slice)).ok()?;
        match stream.read(&mut buf[off..]) {
            Ok(0) => return None,
            Ok(n) => off += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return None,
        }
    }
    Some(())
}

fn handle_conn(mut stream: Stream, sched: &Scheduler, access_log: Option<&AccessLog>) {
    loop {
        let Some(doc) = read_request(&mut stream, sched.config()) else {
            return;
        };
        let t0 = Instant::now();
        let response = match Request::from_json(&doc) {
            Err(e) => Json::obj(vec![
                ("status", Json::str(proto::status::FAILED)),
                ("error", Json::str(format!("bad request: {e}"))),
            ]),
            // Watch is the one request that streams many frames instead
            // of one reply; it owns the socket until the stream ends.
            Ok(Request::Watch { job, from_seq }) => {
                let end = super::watch::stream_watch(sched, &mut stream, &job, from_seq);
                match end {
                    super::watch::WatchEnd::Reply(resp) => resp,
                    end => {
                        // Streamed (no single reply frame): log the
                        // stream itself, then continue or close.
                        if let Some(log) = access_log {
                            let pseudo = Json::obj(vec![
                                ("status", Json::str("stream")),
                                ("job", Json::str(&job)),
                            ]);
                            log.record(&access_entry(&doc, &pseudo, t0.elapsed()));
                        }
                        match end {
                            super::watch::WatchEnd::Continue => continue,
                            _ => return,
                        }
                    }
                }
            }
            Ok(req) => match dispatch(sched, &mut stream, req) {
                Some(resp) => resp,
                None => return, // client vanished mid-request
            },
        };
        if let Some(log) = access_log {
            log.record(&access_entry(&doc, &response, t0.elapsed()));
        }
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// One JSONL access-log line: wall-clock stamp, request verb, reply
/// status, handling latency, and framed byte counts (rendered body
/// length plus the 4-byte length prefix each way).
fn access_entry(request: &Json, response: &Json, elapsed: Duration) -> Json {
    let verb = request.str_field("kind").unwrap_or_else(|| "?".to_string());
    let status = response
        .str_field("status")
        .unwrap_or_else(|| "?".to_string());
    let mut m = vec![
        ("ts_ms", Json::num(metrics::epoch_ms())),
        ("verb", Json::str(verb)),
        ("status", Json::str(status)),
        ("elapsed_ms", Json::num(elapsed.as_secs_f64() * 1e3)),
        ("bytes_in", Json::num((request.render().len() + 4) as f64)),
        ("bytes_out", Json::num((response.render().len() + 4) as f64)),
    ];
    if let Some(job) = response.str_field("job") {
        m.push(("job", Json::str(job)));
    }
    Json::obj(m)
}

fn admit_error_response(e: &AdmitError) -> Json {
    match e {
        AdmitError::Busy(reason) => Json::obj(vec![
            ("status", Json::str(proto::status::BUSY)),
            ("reason", Json::str(*reason)),
        ]),
        AdmitError::Draining => Json::obj(vec![("status", Json::str(proto::status::DRAINING))]),
        AdmitError::Duplicate => Json::obj(vec![
            ("status", Json::str(proto::status::FAILED)),
            ("error", Json::str("duplicate job id")),
        ]),
        // Fail closed, but *transiently*: the job was refused because
        // the accept could not be made durable (disk full, IO error).
        // `busy` tells the client to retry, exactly like queue shed —
        // `failed` would wrongly suggest the spec itself is bad.
        AdmitError::Journal(err) => Json::obj(vec![
            ("status", Json::str(proto::status::BUSY)),
            ("reason", Json::str(format!("journal: {err}"))),
        ]),
    }
}

/// The per-request telemetry rollup attached to every terminal
/// response: the units' wall time, the job's solver-cost record
/// ([`TelemetrySummary::to_json`]) and the degraded-corner counts.
/// Watch streams attach the same rollup (incrementally) to their event
/// frames.
pub(super) fn telemetry_json(job: &Job) -> Json {
    let s = job.snapshot();
    let mut telemetry = Json::obj(vec![("wall_ms", Json::num(s.wall.as_secs_f64() * 1e3))]);
    telemetry.extend(s.telemetry.to_json());
    telemetry.extend(Json::obj(vec![
        ("failed_corners", Json::num(s.failed_corners as f64)),
        ("timed_out_corners", Json::num(s.timed_out_corners as f64)),
        (
            "quarantined_corners",
            Json::num(s.quarantined_corners as f64),
        ),
    ]));
    telemetry
}

/// Terminal (or progress) response for a job, shared by `run` and
/// `poll`.
fn job_response(job: &Job) -> Json {
    let s = job.snapshot();
    match &s.phase {
        JobPhase::Queued | JobPhase::Running => Json::obj(vec![
            ("status", Json::str(proto::status::RUNNING)),
            ("job", Json::str(&job.key)),
            ("done_chunks", Json::num(s.done_units as f64)),
            ("total_chunks", Json::num(s.total_units as f64)),
            ("resumed", Json::Bool(job.resumed)),
            ("timeline", s.timeline.to_json()),
        ]),
        JobPhase::Done(outcome) => {
            let mut m = vec![
                ("status", Json::str(outcome.status())),
                ("job", Json::str(&job.key)),
                ("resumed", Json::Bool(job.resumed)),
                ("telemetry", telemetry_json(job)),
                ("timeline", s.timeline.to_json()),
            ];
            match outcome {
                // Quarantined campaigns completed with a finalized CSV
                // too — it carries `PANIC`/`QUARANTINED` holes the
                // status already announces.
                Outcome::Ok | Outcome::Quarantined => {
                    if let Some(output) = &s.output {
                        let field = match job.class {
                            JobClass::Interactive => "output",
                            JobClass::Batch => "csv",
                        };
                        m.push((field, Json::str(output)));
                    }
                    if let Some(dir) = &job.dir {
                        m.push((
                            "result_path",
                            Json::str(execute::result_path(dir).display().to_string()),
                        ));
                    }
                }
                Outcome::Failed(err) => m.push(("error", Json::str(err))),
                _ => {}
            }
            Json::obj(m)
        }
    }
}

/// Handles one parsed request. `None` tells the caller the client is
/// gone and the connection must close without a reply.
fn dispatch(sched: &Scheduler, stream: &mut Stream, req: Request) -> Option<Json> {
    match req {
        Request::Ping => Some(Json::obj(vec![("status", Json::str(proto::status::OK))])),
        Request::Run {
            tenant,
            deck,
            deadline_ms,
        } => {
            let deadline = deadline_ms
                .map(Duration::from_millis)
                .unwrap_or(DEFAULT_DEADLINE);
            match sched.admit_interactive(&tenant, deck, deadline) {
                Err(e) => Some(admit_error_response(&e)),
                Ok(job) => wait_interactive(sched, stream, &job),
            }
        }
        Request::Campaign { tenant, id, spec } => {
            // Idempotent re-submit: a retrying client that never saw its
            // `accepted` reply sends the same campaign again. Same key +
            // same spec fingerprint → acknowledge the existing job with
            // `dedup: true` instead of double-running; same key with a
            // *different* spec is a real conflict and fails.
            let _gate = sched.admission_gate();
            let key = format!("{tenant}/{id}");
            if let Some(existing) = sched.job(&key) {
                let fp_match = matches!(
                    &existing.spec,
                    super::scheduler::JobSpec::Campaign(s) if s.fingerprint() == spec.fingerprint()
                );
                if fp_match {
                    sched.counters.bump(Counter::DedupAccepts);
                    return Some(Json::obj(vec![
                        ("status", Json::str(proto::status::ACCEPTED)),
                        ("job", Json::str(&existing.key)),
                        (
                            "total_chunks",
                            Json::num(existing.snapshot().total_units as f64),
                        ),
                        ("resumed", Json::Bool(existing.resumed)),
                        ("dedup", Json::Bool(true)),
                    ]));
                }
                return Some(Json::obj(vec![
                    ("status", Json::str(proto::status::FAILED)),
                    ("error", Json::str("duplicate job id with different spec")),
                ]));
            }
            let dir = sched
                .config()
                .state_dir
                .join("jobs")
                .join(&tenant)
                .join(&id);
            // A brand-new submission runs every chunk; stale files from
            // an older identically-named job are invalidated by the
            // fingerprint check inside split_chunks.
            let (done, pending) = split_chunks(&dir, &spec);
            match sched.admit_campaign(&tenant, &id, spec.clone(), pending.clone(), done, false) {
                Err(e) => Some(admit_error_response(&e)),
                Ok(job) => {
                    if pending.is_empty() {
                        finalize_job(
                            sched,
                            &Unit {
                                job: std::sync::Arc::clone(&job),
                                index: 0,
                            },
                            &spec,
                            &dir,
                        );
                    }
                    Some(Json::obj(vec![
                        ("status", Json::str(proto::status::ACCEPTED)),
                        ("job", Json::str(&job.key)),
                        ("total_chunks", Json::num(job.snapshot().total_units as f64)),
                        ("resumed", Json::Bool(false)),
                        ("dedup", Json::Bool(false)),
                    ]))
                }
            }
        }
        // Intercepted in handle_conn (it streams frames); defensive only.
        Request::Watch { job, .. } => Some(Json::obj(vec![
            ("status", Json::str(proto::status::FAILED)),
            ("job", Json::str(&job)),
            ("error", Json::str("watch must be a top-level request")),
        ])),
        Request::Poll { job } => match sched.job(&job) {
            None => Some(Json::obj(vec![
                ("status", Json::str(proto::status::UNKNOWN)),
                ("job", Json::str(&job)),
            ])),
            Some(job) => Some(job_response(&job)),
        },
        Request::Cancel { job } => {
            let hit = sched.cancel(&job, Counter::ExplicitCancels);
            Some(Json::obj(vec![
                (
                    "status",
                    Json::str(if hit {
                        proto::status::OK
                    } else {
                        proto::status::UNKNOWN
                    }),
                ),
                ("job", Json::str(&job)),
            ]))
        }
        Request::Stats => {
            let doc = sched.metrics_doc();
            let mut m: Vec<(&str, Json)> = vec![("status", Json::str(proto::status::OK))];
            for (k, v) in doc.stats_fields() {
                m.push((k, Json::num(v)));
            }
            m.push(("draining", Json::Bool(doc.draining)));
            Some(Json::obj(m))
        }
        Request::Metrics => {
            // The full `spicier-serve-metrics-v1` document (counters,
            // gauges, lifecycle histograms, Prometheus text) with the
            // protocol status field spliced in front.
            let mut reply = Json::obj(vec![("status", Json::str(proto::status::OK))]);
            reply.extend(sched.metrics_doc().to_json());
            Some(reply)
        }
        Request::Drain => {
            DRAIN.store(true, Ordering::SeqCst);
            Some(Json::obj(vec![(
                "status",
                Json::str(proto::status::DRAINING),
            )]))
        }
    }
}

/// Blocks until an interactive job finishes, probing the socket for
/// client disconnects. A client that vanishes mid-solve gets its job
/// cancelled (the orphaned work stops at the next budget check) and the
/// `disconnect_cancels` counter ticks.
fn wait_interactive(sched: &Scheduler, stream: &mut Stream, job: &Job) -> Option<Json> {
    let mut probe = [0u8; 1];
    loop {
        if job.wait_done(Duration::from_millis(50)) {
            return Some(job_response(job));
        }
        // Liveness probe: a waiting client sends nothing, so a 0-byte
        // read means EOF — the client is gone.
        if stream
            .set_read_timeout(Some(Duration::from_millis(1)))
            .is_err()
        {
            sched.cancel(&job.key, Counter::DisconnectCancels);
            return None;
        }
        match stream.read(&mut probe) {
            Ok(0) => {
                sched.cancel(&job.key, Counter::DisconnectCancels);
                return None;
            }
            Ok(_) => {} // stray bytes between frames; ignored
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                sched.cancel(&job.key, Counter::DisconnectCancels);
                return None;
            }
        }
    }
}
