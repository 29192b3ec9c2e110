//! `spicier-loadgen`: the load-and-chaos harness for the campaign
//! daemon.
//!
//! Four phases, each against its own daemon instance (spawned from the
//! sibling `spicier-serve` binary, overridable with `SERVE_BIN`):
//!
//! 1. **Reference** — one campaign, uninterrupted; its result CSV bytes
//!    are the ground truth the kill/resume phase must reproduce.
//! 2. **Saturation** — a tiny batch cap and a burst of submissions;
//!    admission control must shed (`busy`) instead of growing without
//!    bound, and every *accepted* job must still finish.
//! 3. **Mixed load** — a slow campaign pinning the workers while
//!    interactive clients burst `.op` requests; records p50/p99 latency
//!    and throughput (the fair-share gate), plus drop-client and
//!    slowloris chaos probes.
//! 4. **Kill/resume** — SIGKILL the daemon mid-campaign, restart it on
//!    the same state dir, and require the resumed job to finish with
//!    byte-identical results and zero lost jobs.
//! 5. **Failpoint matrix** — deterministic IO faults (ENOSPC on the
//!    journal, a torn manifest rename, a twice-panicking chunk) against
//!    a single daemon; the first accept must be refused `busy`
//!    fail-closed, the poisoned chunk must quarantine instead of taking
//!    the daemon down, and no accepted job may be lost.
//! 6. **Streaming** — a `watch` subscriber rides a campaign through a
//!    SIGKILL + journal resume (the daemon listens on a Unix socket so
//!    the address survives the restart); every event must arrive
//!    exactly once, the reassembled CSV must match the phase-1
//!    reference byte-for-byte, and event-delivery p99 is gated. A
//!    second drill parks a never-reading subscriber on a shrunken
//!    send buffer: the slow-consumer policy must shed it while the job
//!    still completes.
//!
//! The rollup lands in `BENCH_server.json`; gate failures make
//! [`run`] report them so the binary can exit non-zero (the CI gate).

use super::client::{Client, ClientConfig, RetryClient};
use super::metrics::{self, epoch_ms, percentile};
use super::proto::{status, CampaignSpec, Request};
use super::scheduler::Counter;
use crate::microbench::write_json_report;
use spicier::chaos;
use spicier::json::Json;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The deck every loadgen campaign sweeps: a two-resistor divider, so
/// corners are fast and results deterministic.
pub const DIVIDER_DECK: &str = "divider\nV1 in 0 0\nR1 in out 1k\nR2 out 0 1k\n.end\n";
/// The deck interactive clients run.
pub const OP_DECK: &str = "op\nV1 in 0 3.3\nR1 in out 1k\nR2 out 0 2k\n.op\n.end\n";

/// The drop-client probe's deck: a sine-driven RC transient of about
/// 190,000 steps (0.3 s on a 2-vCPU host), so the request is still running
/// when the daemon's 50 ms liveness probe finds its socket closed. A
/// sine source is never periodic-skipped.
const DROP_PROBE_DECK: &str =
    "drop probe\nV1 in 0 SIN(0 1 100meg)\nR1 in out 1k\nC1 out 0 1p\n.tran 1n 20u\n.end\n";

/// Interactive p99 gate, milliseconds.
const P99_GATE_MS: f64 = 2000.0;

/// Watch event-delivery p99 gate, milliseconds. Measured from the
/// daemon's `sent_ms` stamp to client receipt — the retry/SIGKILL
/// window is excluded by construction because a killed daemon sends
/// nothing.
const STREAM_P99_GATE_MS: f64 = 1000.0;

/// Loadgen knobs.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Smaller grids and bursts (`--quick`); the CI mode.
    pub quick: bool,
    /// Where the JSON rollup goes (`LOADGEN_OUT`, default
    /// `target/bench/BENCH_server.json`, next to `BENCH_solver.json`).
    pub out_path: PathBuf,
    /// The daemon binary (`SERVE_BIN`, default: sibling of the current
    /// executable).
    pub serve_bin: PathBuf,
    /// Scratch root for per-phase state dirs (`LOADGEN_DIR`, default: a
    /// fresh dir under the system temp dir).
    pub work_dir: PathBuf,
}

impl LoadgenOptions {
    /// Reads knobs from the environment and argv.
    #[must_use]
    pub fn from_env_and_args() -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        let out_path = match std::env::var("LOADGEN_OUT") {
            Ok(v) if !v.is_empty() => PathBuf::from(v),
            _ => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../../target/bench/BENCH_server.json"),
        };
        let serve_bin = match std::env::var("SERVE_BIN") {
            Ok(v) if !v.is_empty() => PathBuf::from(v),
            _ => std::env::current_exe()
                .ok()
                .and_then(|p| p.parent().map(|d| d.join("spicier-serve")))
                .unwrap_or_else(|| PathBuf::from("spicier-serve")),
        };
        let work_dir = match std::env::var("LOADGEN_DIR") {
            Ok(v) if !v.is_empty() => PathBuf::from(v),
            _ => std::env::temp_dir().join(format!("spicier-loadgen-{}", std::process::id())),
        };
        Self {
            quick,
            out_path,
            serve_bin,
            work_dir,
        }
    }
}

/// Outcome of a loadgen run: the metric rollup plus any gate failures.
#[derive(Debug, Default)]
pub struct LoadgenReport {
    /// Every metric written to `BENCH_server.json`.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable gate violations (empty = all gates passed).
    pub failures: Vec<String>,
}

impl LoadgenReport {
    /// Whether every gate passed.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A spawned daemon tied to a state dir; killed on drop if still alive.
struct Daemon {
    child: Child,
    state_dir: PathBuf,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_daemon(
    opts: &LoadgenOptions,
    state_dir: &Path,
    env: &[(&str, String)],
) -> std::io::Result<Daemon> {
    std::fs::create_dir_all(state_dir)?;
    // A stale ADDR from a killed predecessor would race wait_for_addr.
    let _ = std::fs::remove_file(state_dir.join("ADDR"));
    let mut cmd = Command::new(&opts.serve_bin);
    // Chaos or scale knobs leaking in from the caller would skew the
    // measurement.
    crate::scrub_knobs(&mut cmd)
        .env("SERVE_ADDR", "tcp:127.0.0.1:0")
        .env("SERVE_STATE_DIR", state_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let child = cmd.spawn()?;
    let addr = Client::wait_for_addr(state_dir, Duration::from_secs(20))?;
    Ok(Daemon {
        child,
        state_dir: state_dir.to_path_buf(),
        addr,
    })
}

fn drain_and_wait(daemon: &mut Daemon) {
    if let Ok(mut c) = Client::connect(&daemon.addr) {
        let _ = c.drain();
    }
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(20) {
        if matches!(daemon.child.try_wait(), Ok(Some(_))) {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let _ = daemon.child.kill();
}

fn campaign_spec(quick: bool) -> CampaignSpec {
    CampaignSpec {
        deck: DIVIDER_DECK.to_string(),
        source: "V1".to_string(),
        start: 0.0,
        stop: 3.3,
        points: if quick { 16 } else { 48 },
        chunk: 2,
    }
}

fn stat(reply: &Json, key: &str) -> f64 {
    reply.num_field(key).unwrap_or(0.0)
}

/// A resistor ladder with `n` series stages: every corner row carries
/// one voltage per internal node, so the per-event payload is wide —
/// the slow-consumer drill uses it to overrun a shrunken kernel send
/// buffer with realistic data instead of padding.
fn ladder_deck(n: usize) -> String {
    let mut deck = String::from("ladder\nV1 n0 0 0\n");
    for i in 0..n {
        let _ = writeln!(deck, "R{} n{} n{} 1k", i + 1, i, i + 1);
    }
    let _ = writeln!(deck, "R{} n{} 0 1k", n + 1, n);
    deck.push_str(".end\n");
    deck
}

/// Runs all six phases; writes `BENCH_server.json`; returns the
/// metrics and gate verdicts.
///
/// # Errors
///
/// Returns an error string when the harness itself cannot run (daemon
/// fails to spawn, sockets unavailable) — distinct from gate failures,
/// which land in the report.
pub fn run(opts: &LoadgenOptions) -> Result<LoadgenReport, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut report = LoadgenReport::default();
    let spec = campaign_spec(opts.quick);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    std::fs::create_dir_all(&opts.work_dir).map_err(io)?;

    // -- Phase 1: uninterrupted reference run ------------------------------
    println!("[loadgen] phase 1: reference campaign");
    let reference = {
        let mut daemon = spawn_daemon(opts, &opts.work_dir.join("ref"), &[]).map_err(io)?;
        let mut client = Client::connect(&daemon.addr).map_err(io)?;
        let accept = client.submit_campaign("ref", "job", &spec).map_err(io)?;
        if accept.str_field("status").as_deref() != Some(status::ACCEPTED) {
            return Err(format!("reference not accepted: {}", accept.render()));
        }
        let done = client
            .wait_job("ref/job", Duration::from_secs(120))
            .map_err(io)?;
        if done.str_field("status").as_deref() != Some(status::OK) {
            return Err(format!("reference failed: {}", done.render()));
        }
        let csv = std::fs::read(daemon.state_dir.join("jobs/ref/job/result.csv")).map_err(io)?;
        drain_and_wait(&mut daemon);
        csv
    };

    // -- Phase 2: saturation must shed, not grow ---------------------------
    println!("[loadgen] phase 2: saturation / shed");
    let (shed, sat_lost) = {
        let env = [
            ("SERVE_QUEUE_BATCH", "2".to_string()),
            ("SERVE_SLOW_CORNER_MS", "10".to_string()),
            ("SERVE_WORKERS", "2".to_string()),
        ];
        let mut daemon = spawn_daemon(opts, &opts.work_dir.join("sat"), &env).map_err(io)?;
        let mut client = Client::connect(&daemon.addr).map_err(io)?;
        let burst = if opts.quick { 6 } else { 12 };
        let mut accepted_keys = Vec::new();
        let mut shed = 0u64;
        for i in 0..burst {
            let reply = client
                .submit_campaign("sat", &format!("burst-{i}"), &spec)
                .map_err(io)?;
            match reply.str_field("status").as_deref() {
                Some(status::ACCEPTED) => accepted_keys.push(format!("sat/burst-{i}")),
                Some(status::BUSY) => shed += 1,
                other => return Err(format!("unexpected saturation reply: {other:?}")),
            }
        }
        // Every *accepted* job must still complete — shed-never-lose.
        let mut finished = 0u64;
        for key in &accepted_keys {
            let done = client.wait_job(key, Duration::from_secs(120)).map_err(io)?;
            if done.str_field("status").as_deref() == Some(status::OK) {
                finished += 1;
            }
        }
        drain_and_wait(&mut daemon);
        (shed, accepted_keys.len() as i64 - finished as i64)
    };
    report
        .metrics
        .push((Counter::Shed.name().into(), shed as f64));
    report
        .metrics
        .push(("saturation_lost_jobs".into(), sat_lost as f64));

    // -- Phase 3: mixed load: latency under a long campaign ----------------
    println!("[loadgen] phase 3: mixed interactive + campaign load");
    let (
        latencies_ms,
        throughput_rps,
        disconnects,
        slowloris_ok,
        server_p50,
        server_p99,
        scrape_ok,
    ) = {
        let env = [
            ("SERVE_SLOW_CORNER_MS", "10".to_string()),
            ("SERVE_WORKERS", "2".to_string()),
            ("SERVE_READ_TIMEOUT_MS", "300".to_string()),
        ];
        let mut daemon = spawn_daemon(opts, &opts.work_dir.join("mix"), &env).map_err(io)?;
        let addr = daemon.addr.clone();
        let mut client = Client::connect(&addr).map_err(io)?;
        let mut long_spec = spec.clone();
        long_spec.points = if opts.quick { 60 } else { 200 };
        client
            .submit_campaign("mix", "long", &long_spec)
            .map_err(io)?;
        // Slowloris probe: park a half-written frame on one connection.
        let mut slow = Client::connect(&addr).map_err(io)?;
        slow.send_truncated(
            &super::proto::Request::Poll {
                job: "mix/long".into(),
            },
            3,
        )
        .map_err(io)?;
        // Interactive burst while the campaign occupies the pool.
        let clients = if opts.quick { 3 } else { 6 };
        let per_client = if opts.quick { 12 } else { 40 };
        let t0 = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                std::thread::spawn(move || -> std::io::Result<Vec<f64>> {
                    let mut client = Client::connect(&addr)?;
                    let mut samples = Vec::new();
                    for _ in 0..per_client {
                        let t = Instant::now();
                        let reply = client.run(&format!("int{c}"), OP_DECK, Some(10_000))?;
                        if reply.str_field("status").as_deref() == Some(status::OK) {
                            samples.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    Ok(samples)
                })
            })
            .collect();
        let mut latencies: Vec<f64> = Vec::new();
        for h in handles {
            latencies.extend(
                h.join()
                    .map_err(|_| "latency thread panicked")?
                    .map_err(io)?,
            );
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let throughput = latencies.len() as f64 / elapsed.max(1e-9);
        // Slowloris verdict: while that half-frame sat there, everything
        // above completed — and a fresh connection still answers fast.
        let slow_t = Instant::now();
        let mut probe = Client::connect(&addr).map_err(io)?;
        let pong = probe.ping().map_err(io)?;
        let slowloris_ok = pong.str_field("status").as_deref() == Some(status::OK)
            && slow_t.elapsed() < Duration::from_secs(5);
        drop(slow);
        // Server-side scrape: every interactive burst above is finished,
        // so the daemon's per-class `job_ms` histogram holds the same
        // population the client just timed — the cross-check gate below
        // holds the two views of p99 against each other.
        let scraped = client.metrics().map_err(io)?;
        let schema_ok = scraped.str_field("schema").as_deref() == Some(metrics::SCHEMA);
        let hist = scraped
            .get("histograms")
            .and_then(|h| h.get("job_ms"))
            .and_then(|h| h.get("interactive"));
        let server_p50 = hist.and_then(|h| h.num_field("p50_ms")).unwrap_or(0.0);
        let server_p99 = hist.and_then(|h| h.num_field("p99_ms")).unwrap_or(0.0);
        let sampled = hist.and_then(|h| h.num_field("count")).unwrap_or(0.0) > 0.0;
        let prom_ok = scraped
            .str_field("prometheus")
            .is_some_and(|p| p.contains("spicier_serve_job_ms_bucket"));
        // Drop-client chaos: send a run request, slam the socket, then
        // confirm the daemon counted a disconnect cancellation.
        let mut dropper = Client::connect(&addr).map_err(io)?;
        let _ = chaos::with_drop_client(|| dropper.run("chaos", DROP_PROBE_DECK, Some(10_000)));
        let disconnects = {
            let t0 = Instant::now();
            let mut seen = 0.0;
            while t0.elapsed() < Duration::from_secs(10) {
                let stats = client.stats().map_err(io)?;
                seen = stat(&stats, Counter::DisconnectCancels.name());
                if seen > 0.0 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            seen
        };
        let _ = client.cancel("mix/long");
        drain_and_wait(&mut daemon);
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        (
            latencies,
            throughput,
            disconnects,
            slowloris_ok,
            server_p50,
            server_p99,
            schema_ok && sampled && prom_ok,
        )
    };
    let p50 = percentile(&latencies_ms, 0.50);
    let p99 = percentile(&latencies_ms, 0.99);
    // Agreement: the daemon's histogram quantile reports a bucket upper
    // bound, so the gate is a sanity band, not an equality: within 50 ms
    // absolute or a factor of three both ways. That still
    // catches unit mistakes (ms vs s vs µs) and double-counted spans.
    let p99_agreement = f64::from(
        (server_p99 - p99).abs() <= 50.0 || (server_p99 <= 3.0 * p99 && p99 <= 3.0 * server_p99),
    );
    report.metrics.push(("interactive_p50_ms".into(), p50));
    report.metrics.push(("interactive_p99_ms".into(), p99));
    report.metrics.push(("server_p50_ms".into(), server_p50));
    report.metrics.push(("server_p99_ms".into(), server_p99));
    report
        .metrics
        .push(("server_metrics_scrape_ok".into(), f64::from(scrape_ok)));
    report
        .metrics
        .push(("client_server_p99_agreement".into(), p99_agreement));
    report
        .metrics
        .push(("interactive_throughput_rps".into(), throughput_rps));
    report
        .metrics
        .push((Counter::DisconnectCancels.name().into(), disconnects));
    report
        .metrics
        .push(("slowloris_survived".into(), f64::from(slowloris_ok)));

    // -- Phase 4: SIGKILL mid-campaign, restart, byte-identical resume -----
    println!("[loadgen] phase 4: SIGKILL + resume");
    let (lost_jobs, byte_identical, resumed_jobs) = {
        let kill_dir = opts.work_dir.join("kill");
        let env = [
            ("SERVE_SLOW_CORNER_MS", "15".to_string()),
            ("SERVE_WORKERS", "2".to_string()),
        ];
        let mut daemon = spawn_daemon(opts, &kill_dir, &env).map_err(io)?;
        let mut client = Client::connect(&daemon.addr).map_err(io)?;
        let accept = client.submit_campaign("kill", "job", &spec).map_err(io)?;
        if accept.str_field("status").as_deref() != Some(status::ACCEPTED) {
            return Err(format!("kill-phase not accepted: {}", accept.render()));
        }
        // Let it make some progress, then kill -9 mid-campaign.
        let t0 = Instant::now();
        loop {
            let reply = client.poll("kill/job").map_err(io)?;
            if stat(&reply, "done_chunks") >= 1.0
                || reply.str_field("status").as_deref() != Some(status::RUNNING)
                || t0.elapsed() > Duration::from_secs(60)
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        daemon.child.kill().map_err(io)?;
        let _ = daemon.child.wait();
        drop(daemon);
        // Restart on the same state dir: the journal must resurrect the
        // job and the manifest must trim it to the incomplete tail.
        let mut daemon = spawn_daemon(opts, &kill_dir, &[]).map_err(io)?;
        let mut client = Client::connect(&daemon.addr).map_err(io)?;
        let done = client
            .wait_job("kill/job", Duration::from_secs(120))
            .map_err(io)?;
        let finished = done.str_field("status").as_deref() == Some(status::OK);
        let resumed = f64::from(done.get("resumed").and_then(Json::as_bool).unwrap_or(false));
        let csv = std::fs::read(kill_dir.join("jobs/kill/job/result.csv")).unwrap_or_default();
        let identical = finished && csv == reference;
        let stats = client.stats().map_err(io)?;
        let resumed_jobs = stat(&stats, Counter::ResumedJobs.name()).max(resumed);
        drain_and_wait(&mut daemon);
        (i64::from(!finished), f64::from(identical), resumed_jobs)
    };
    report.metrics.push(("lost_jobs".into(), lost_jobs as f64));
    report
        .metrics
        .push(("resume_byte_identical".into(), byte_identical));
    report
        .metrics
        .push((Counter::ResumedJobs.name().into(), resumed_jobs));

    // -- Phase 5: failpoint matrix -----------------------------------------
    println!("[loadgen] phase 5: failpoint matrix");
    let (fp_refusals, fp_quarantined, fp_lost, fp_survived) = {
        // One worker keeps failpoint hit counts deterministic: the
        // first journal append (the first accept) hits ENOSPC, chunk
        // 1's attempt and single retry both panic, and the first
        // manifest save tears mid-rename.
        let env = [
            ("SERVE_WORKERS", "1".to_string()),
            (
                "SPICIER_FAILPOINTS",
                "journal.append=enospc@1;chunk.run=panic@2;chunk.run=panic@3;\
                 manifest.rename=torn@1"
                    .to_string(),
            ),
        ];
        let mut daemon = spawn_daemon(opts, &opts.work_dir.join("fp"), &env).map_err(io)?;
        let mut client = Client::connect(&daemon.addr).map_err(io)?;
        // ENOSPC on the accept: fail-closed means `busy`, never an
        // accept that only lives in memory.
        let refused = client.submit_campaign("fp", "a", &spec).map_err(io)?;
        let fp_refusals = u64::from(refused.str_field("status").as_deref() == Some(status::BUSY));
        // The fault was one-shot; the retry is a real accept.
        let mut accepted = Vec::new();
        let retry = client.submit_campaign("fp", "a", &spec).map_err(io)?;
        if retry.str_field("status").as_deref() == Some(status::ACCEPTED) {
            accepted.push("fp/a".to_string());
        }
        // A second, clean campaign rides along as mixed load.
        let second = client.submit_campaign("fp", "b", &spec).map_err(io)?;
        if second.str_field("status").as_deref() == Some(status::ACCEPTED) {
            accepted.push("fp/b".to_string());
        }
        // Every accepted job must reach a terminal verdict: `ok`, or
        // `quarantined` for the job whose chunk panicked twice.
        let mut lost = accepted.len() as i64;
        let mut quarantined = 0u64;
        for key in &accepted {
            let done = client.wait_job(key, Duration::from_secs(120)).map_err(io)?;
            match done.str_field("status").as_deref() {
                Some(status::OK) => lost -= 1,
                Some(status::QUARANTINED) => {
                    quarantined += 1;
                    lost -= 1;
                }
                _ => {}
            }
        }
        // Daemon-survives probe: the matrix above must leave a daemon
        // that still answers interactive work.
        let pong = client.ping().map_err(io)?;
        let run = client.run("fp", OP_DECK, Some(10_000)).map_err(io)?;
        let survived = pong.str_field("status").as_deref() == Some(status::OK)
            && run.str_field("status").as_deref() == Some(status::OK);
        drain_and_wait(&mut daemon);
        (fp_refusals, quarantined, lost, f64::from(survived))
    };
    report
        .metrics
        .push(("failpoint_refusals".into(), fp_refusals as f64));
    report
        .metrics
        .push(("failpoint_quarantined".into(), fp_quarantined as f64));
    report
        .metrics
        .push(("failpoint_lost_jobs".into(), fp_lost as f64));
    report
        .metrics
        .push(("failpoint_daemon_survived".into(), fp_survived));

    // -- Phase 6a: watch stream across SIGKILL + resume, exactly once ------
    println!("[loadgen] phase 6: streaming (SIGKILL mid-stream + slow consumer)");
    let (lost_events, dup_events, stream_identical, stream_p99) = {
        let stream_dir = opts.work_dir.join("stream");
        // A Unix socket survives the restart at the same address, which
        // is what lets the watcher reconnect to the *resumed* daemon
        // without rediscovery. Keep the path short (sun_path limit).
        let sock = std::env::temp_dir().join(format!("slg-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let env = [
            ("SERVE_ADDR", format!("unix:{}", sock.display())),
            ("SERVE_SLOW_CORNER_MS", "60".to_string()),
            ("SERVE_WORKERS", "1".to_string()),
        ];
        let mut daemon = spawn_daemon(opts, &stream_dir, &env).map_err(io)?;
        let addr = daemon.addr.clone();
        let watcher_cfg = ClientConfig {
            // Ride out the whole restart window: many cheap retries
            // with a modest cap instead of a handful of long ones.
            retry_budget: 80,
            backoff_cap: Duration::from_millis(250),
            ..ClientConfig::default()
        };
        let mut submit = RetryClient::with_config(&addr, watcher_cfg.clone());
        let accept = submit.submit_campaign("stream", "job", &spec).map_err(io)?;
        if accept.str_field("status").as_deref() != Some(status::ACCEPTED) {
            return Err(format!("stream campaign not accepted: {}", accept.render()));
        }
        let total_chunks = stat(&accept, "total_chunks") as u64;
        // (seq, rows, latency_ms) for every chunk event delivered.
        let events: Arc<Mutex<Vec<(u64, String, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        let watcher = {
            let events = Arc::clone(&events);
            let addr = addr.clone();
            std::thread::spawn(move || -> std::io::Result<Json> {
                let mut client = RetryClient::with_config(&addr, watcher_cfg);
                client.watch_job("stream/job", 1, |frame| {
                    if frame.str_field("kind").unwrap_or_default() == "chunk" {
                        let seq = frame.u64_field("seq").unwrap_or(0);
                        let rows = frame.str_field("rows").unwrap_or_default();
                        let latency =
                            (epoch_ms() - frame.num_field("sent_ms").unwrap_or(0.0)).max(0.0);
                        events.lock().unwrap().push((seq, rows, latency));
                    }
                    true
                })
            })
        };
        // SIGKILL once the stream has demonstrably started, while most
        // of the campaign is still ahead of it.
        let t0 = Instant::now();
        while events.lock().unwrap().len() < 2 && t0.elapsed() < Duration::from_secs(60) {
            std::thread::sleep(Duration::from_millis(10));
        }
        daemon.child.kill().map_err(io)?;
        let _ = daemon.child.wait();
        drop(daemon);
        let mut daemon = spawn_daemon(opts, &stream_dir, &env).map_err(io)?;
        let done = watcher
            .join()
            .map_err(|_| "watcher thread panicked")?
            .map_err(io)?;
        let done_ok = done.str_field("outcome").as_deref() == Some(status::OK);
        drain_and_wait(&mut daemon);
        let _ = std::fs::remove_file(&sock);
        // Exactly-once audit over the collected seqs.
        let mut collected = events.lock().unwrap().clone();
        collected.sort_by_key(|(seq, _, _)| *seq);
        let mut seen = std::collections::HashSet::new();
        let mut dups = 0u64;
        for (seq, _, _) in &collected {
            if !seen.insert(*seq) {
                dups += 1;
            }
        }
        let lost = (1..=total_chunks).filter(|s| !seen.contains(s)).count() as u64;
        // Reassemble the CSV from the stream alone and hold it against
        // the uninterrupted phase-1 bytes.
        let mut csv = String::from("sweep,voltages\n");
        for (seq, rows, _) in &collected {
            if seen.remove(seq) {
                csv.push_str(rows);
            }
        }
        let identical = done_ok && csv.as_bytes() == reference.as_slice();
        let mut latencies: Vec<f64> = collected.iter().map(|(_, _, l)| *l).collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        (
            lost,
            dups,
            f64::from(identical),
            percentile(&latencies, 0.99),
        )
    };
    report
        .metrics
        .push(("stream_lost_events".into(), lost_events as f64));
    report
        .metrics
        .push(("stream_duplicate_events".into(), dup_events as f64));
    report
        .metrics
        .push(("stream_resume_byte_identical".into(), stream_identical));
    report
        .metrics
        .push(("stream_event_p99_ms".into(), stream_p99));

    // -- Phase 6b: slow consumer is shed; the job is not ------------------
    let (lagged_evictions, slow_job_ok) = {
        let sock = std::env::temp_dir().join(format!("slg-{}-b.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let env = [
            ("SERVE_ADDR", format!("unix:{}", sock.display())),
            // Shrink the kernel send buffer and the per-frame write
            // deadline so a parked subscriber is detected after a few
            // frames instead of after megabytes of kernel buffering.
            ("SERVE_WATCH_SNDBUF", "8192".to_string()),
            ("SERVE_WATCH_WRITE_TIMEOUT_MS", "250".to_string()),
        ];
        let mut daemon = spawn_daemon(opts, &opts.work_dir.join("slow"), &env).map_err(io)?;
        let mut client = Client::connect(&daemon.addr).map_err(io)?;
        let wide_spec = CampaignSpec {
            deck: ladder_deck(20),
            source: "V1".to_string(),
            start: 0.0,
            stop: 3.3,
            points: if opts.quick { 400 } else { 1000 },
            chunk: 50,
        };
        let accept = client
            .submit_campaign("slow", "wide", &wide_spec)
            .map_err(io)?;
        if accept.str_field("status").as_deref() != Some(status::ACCEPTED) {
            return Err(format!(
                "slow-consumer job not accepted: {}",
                accept.render()
            ));
        }
        // The laggard subscribes and then never reads a byte.
        let mut laggard = Client::connect(&daemon.addr).map_err(io)?;
        laggard
            .send_request_raw(&Request::Watch {
                job: "slow/wide".into(),
                from_seq: 1,
            })
            .map_err(io)?;
        // The job must complete on time regardless of the wedged
        // stream — workers only flip a bitmap, they never write to
        // subscriber sockets.
        let done = client
            .wait_job("slow/wide", Duration::from_secs(120))
            .map_err(io)?;
        let job_ok = done.str_field("status").as_deref() == Some(status::OK);
        let evictions = {
            let t0 = Instant::now();
            let mut seen = 0.0;
            while t0.elapsed() < Duration::from_secs(20) {
                let stats = client.stats().map_err(io)?;
                seen = stat(&stats, Counter::WatchLagged.name());
                if seen > 0.0 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            seen
        };
        drop(laggard);
        drain_and_wait(&mut daemon);
        let _ = std::fs::remove_file(&sock);
        (evictions, f64::from(job_ok))
    };
    report
        .metrics
        .push(("stream_lagged_evictions".into(), lagged_evictions));
    report
        .metrics
        .push(("stream_slow_consumer_job_ok".into(), slow_job_ok));

    // -- Gates -------------------------------------------------------------
    if shed == 0 {
        report
            .failures
            .push("saturation never shed: admission control not engaging".into());
    }
    if sat_lost != 0 {
        report.failures.push(format!(
            "{sat_lost} accepted job(s) did not finish under saturation"
        ));
    }
    if lost_jobs != 0 {
        report
            .failures
            .push(format!("{lost_jobs} accepted job(s) lost across SIGKILL"));
    }
    if byte_identical != 1.0 {
        report
            .failures
            .push("resumed result CSV differs from uninterrupted run".into());
    }
    if p99 > P99_GATE_MS {
        report.failures.push(format!(
            "interactive p99 {p99:.1} ms exceeds gate {P99_GATE_MS:.1} ms"
        ));
    }
    if disconnects < 1.0 {
        report
            .failures
            .push("drop-client probe never registered a disconnect cancellation".into());
    }
    if !slowloris_ok {
        report
            .failures
            .push("slowloris connection degraded the daemon".into());
    }
    if !scrape_ok {
        report
            .failures
            .push("metrics scrape incomplete: schema, samples, or prometheus text missing".into());
    }
    if p99_agreement != 1.0 {
        report.failures.push(format!(
            "server p99 {server_p99:.1} ms disagrees with client p99 {p99:.1} ms"
        ));
    }
    if fp_refusals == 0 {
        report
            .failures
            .push("ENOSPC failpoint never refused an accept: fault injection inert".into());
    }
    if fp_quarantined == 0 {
        report
            .failures
            .push("panicking chunk was not quarantined".into());
    }
    if fp_lost != 0 {
        report.failures.push(format!(
            "{fp_lost} accepted job(s) lost under the failpoint matrix"
        ));
    }
    if fp_survived != 1.0 {
        report
            .failures
            .push("daemon did not survive the failpoint matrix".into());
    }
    if lost_events != 0 {
        report.failures.push(format!(
            "{lost_events} watch event(s) lost across SIGKILL + resume"
        ));
    }
    if dup_events != 0 {
        report.failures.push(format!(
            "{dup_events} watch event(s) delivered more than once"
        ));
    }
    if stream_identical != 1.0 {
        report
            .failures
            .push("stream-reassembled CSV differs from uninterrupted run".into());
    }
    if stream_p99 > STREAM_P99_GATE_MS {
        report.failures.push(format!(
            "watch event p99 {stream_p99:.1} ms exceeds gate {STREAM_P99_GATE_MS:.1} ms"
        ));
    }
    if lagged_evictions == 0.0 {
        report
            .failures
            .push("slow consumer was never shed: backpressure policy inert".into());
    }
    if slow_job_ok != 1.0 {
        report
            .failures
            .push("job did not complete while a slow consumer was attached".into());
    }

    let metric_refs: Vec<(&str, f64)> = report
        .metrics
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    write_json_report(&opts.out_path, &[], &metric_refs).map_err(io)?;
    println!("[loadgen] report: {}", opts.out_path.display());
    // Preserve the mixed-load daemon's drain report (full metrics doc +
    // per-job timelines) next to the rollup before the scratch dir goes.
    let serve_report = opts.work_dir.join("mix/SERVE_REPORT.json");
    if serve_report.exists() {
        if let Some(out_dir) = opts.out_path.parent() {
            let kept = out_dir.join("SERVE_REPORT.json");
            if std::fs::copy(&serve_report, &kept).is_ok() {
                println!("[loadgen] serve report: {}", kept.display());
            }
        }
    }
    for (k, v) in &report.metrics {
        println!("  {k} = {v:.3}");
    }
    for f in &report.failures {
        println!("  GATE FAILED: {f}");
    }
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    Ok(report)
}
