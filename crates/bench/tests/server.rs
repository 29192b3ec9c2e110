//! End-to-end drills for the campaign daemon, driven through the real
//! `spicier-serve` binary: admission control sheds under saturation,
//! remote cancellation and client disconnects stop work, SIGTERM drains
//! gracefully, SIGKILL + restart loses zero accepted jobs and resumes
//! to byte-identical results, a slowloris client cannot wedge the
//! daemon, `watch` streams deliver every event exactly once (including
//! across SIGKILL + resume and slow-consumer demotion), and the
//! `spicier-loadgen` harness passes its own gates.

use cml_bench::experiments::manifest::fnv64;
use cml_bench::scrub_knobs;
use cml_bench::server::client::{Client, ClientConfig, RetryClient, WatchOutcome};
use cml_bench::server::loadgen::{DIVIDER_DECK, OP_DECK};
use cml_bench::server::proto::{status, CampaignSpec, Request};
use spicier::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("spicier_server_tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns `spicier-serve` on `dir` with a scrubbed environment plus
/// `envs`, and waits for its ADDR file.
fn spawn_daemon(dir: &Path, envs: &[(&str, &str)]) -> Daemon {
    let _ = std::fs::remove_file(dir.join("ADDR"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spicier-serve"));
    scrub_knobs(&mut cmd)
        .env("SERVE_ADDR", "tcp:127.0.0.1:0")
        .env("SERVE_STATE_DIR", dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (key, value) in envs {
        cmd.env(key, value);
    }
    let child = cmd.spawn().expect("spicier-serve spawns");
    let addr = Client::wait_for_addr(dir, Duration::from_secs(20)).expect("daemon publishes ADDR");
    Daemon { child, addr }
}

fn sigterm(daemon: &Daemon) {
    let ok = Command::new("kill")
        .arg("-TERM")
        .arg(daemon.child.id().to_string())
        .status()
        .expect("kill spawns")
        .success();
    assert!(ok, "kill -TERM failed");
}

fn wait_exit(daemon: &mut Daemon, timeout: Duration) -> Option<i32> {
    let t0 = Instant::now();
    while t0.elapsed() < timeout {
        if let Ok(Some(code)) = daemon.child.try_wait() {
            return code.code();
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    None
}

fn spec(points: usize, chunk: usize) -> CampaignSpec {
    CampaignSpec {
        deck: DIVIDER_DECK.to_string(),
        source: "V1".to_string(),
        start: 0.0,
        stop: 3.3,
        points,
        chunk,
    }
}

fn status_of(reply: &Json) -> String {
    reply.str_field("status").unwrap_or_default()
}

fn stat(reply: &Json, key: &str) -> f64 {
    reply.num_field(key).unwrap_or(0.0)
}

#[test]
fn interactive_round_trip_with_telemetry() {
    let dir = fresh_dir("interactive");
    let daemon = spawn_daemon(&dir, &[]);
    let mut client = Client::connect(&daemon.addr).unwrap();
    assert_eq!(status_of(&client.ping().unwrap()), status::OK);

    let reply = client.run("t1", OP_DECK, None).unwrap();
    assert_eq!(status_of(&reply), status::OK, "{}", reply.render());
    let output = reply.str_field("output").unwrap();
    assert!(output.contains("V(out) = 2.2"), "{output}");
    let telemetry = reply.get("telemetry").expect("telemetry rollup");
    assert!(telemetry.num_field("wall_ms").unwrap() >= 0.0);

    // A parse failure is a distinguishable `failed`, not a dropped conn.
    let bad = client.run("t1", "broken\nR1 a 0\n.end\n", None).unwrap();
    assert_eq!(status_of(&bad), status::FAILED);
    assert!(bad.str_field("error").is_some());

    // Unknown jobs poll as `unknown`.
    let unknown = client.poll("t1/nope").unwrap();
    assert_eq!(status_of(&unknown), status::UNKNOWN);

    let stats = client.stats().unwrap();
    assert!(
        stat(&stats, "accepted_interactive") >= 2.0,
        "{}",
        stats.render()
    );
}

#[test]
fn campaign_completes_and_polls_through_lifecycle() {
    let dir = fresh_dir("campaign");
    let daemon = spawn_daemon(&dir, &[]);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let accept = client
        .submit_campaign("acme", "sweep1", &spec(6, 2))
        .unwrap();
    assert_eq!(status_of(&accept), status::ACCEPTED, "{}", accept.render());
    assert_eq!(accept.str_field("job").as_deref(), Some("acme/sweep1"));
    assert_eq!(accept.u64_field("total_chunks"), Some(3));

    let done = client
        .wait_job("acme/sweep1", Duration::from_secs(60))
        .unwrap();
    assert_eq!(status_of(&done), status::OK, "{}", done.render());
    let csv = done.str_field("csv").unwrap();
    assert_eq!(csv.lines().count(), 7, "header + 6 corners: {csv}");
    assert!(csv.contains("3.300000,3.300000,1.650000"), "{csv}");
    // Result also persisted where the reply says.
    let path = done.str_field("result_path").unwrap();
    assert_eq!(std::fs::read_to_string(path).unwrap(), csv);
    // Telemetry rollup absorbed real solver counters.
    let telemetry = done.get("telemetry").unwrap();
    assert!(telemetry.num_field("lu_solves").unwrap() >= 6.0);
    // Re-submitting the same key with the same spec is idempotent: the
    // daemon acknowledges without running anything twice.
    let dup = client
        .submit_campaign("acme", "sweep1", &spec(6, 2))
        .unwrap();
    assert_eq!(status_of(&dup), status::ACCEPTED, "{}", dup.render());
    assert_eq!(dup.get("dedup").and_then(Json::as_bool), Some(true));
    // The same key with a *different* spec is a real conflict.
    let conflict = client
        .submit_campaign("acme", "sweep1", &spec(8, 2))
        .unwrap();
    assert_eq!(
        status_of(&conflict),
        status::FAILED,
        "{}",
        conflict.render()
    );
    assert!(
        conflict
            .str_field("error")
            .unwrap()
            .contains("different spec"),
        "{}",
        conflict.render()
    );
    let stats = client.stats().unwrap();
    assert_eq!(stat(&stats, "accepted_batch"), 1.0, "{}", stats.render());
    assert!(stat(&stats, "dedup_accepts") >= 1.0, "{}", stats.render());
}

#[test]
fn saturation_sheds_with_busy_and_accepted_jobs_finish() {
    let dir = fresh_dir("shed");
    let daemon = spawn_daemon(
        &dir,
        &[
            ("SERVE_QUEUE_BATCH", "1"),
            ("SERVE_SLOW_CORNER_MS", "30"),
            ("SERVE_WORKERS", "2"),
        ],
    );
    let mut client = Client::connect(&daemon.addr).unwrap();
    let mut accepted = Vec::new();
    let mut shed = 0;
    for i in 0..4 {
        let reply = client
            .submit_campaign("sat", &format!("j{i}"), &spec(4, 2))
            .unwrap();
        match status_of(&reply).as_str() {
            status::ACCEPTED => accepted.push(format!("sat/j{i}")),
            status::BUSY => shed += 1,
            other => panic!("unexpected status {other}: {}", reply.render()),
        }
    }
    assert!(shed >= 1, "admission control never shed");
    assert!(!accepted.is_empty(), "everything shed");
    // Shed-never-lose: each accepted job still completes.
    for key in &accepted {
        let done = client.wait_job(key, Duration::from_secs(60)).unwrap();
        assert_eq!(status_of(&done), status::OK, "{}", done.render());
    }
    let stats = client.stats().unwrap();
    assert!(
        stat(&stats, "shed") >= f64::from(shed),
        "{}",
        stats.render()
    );
}

#[test]
fn remote_cancel_stops_a_running_campaign() {
    let dir = fresh_dir("cancel");
    let daemon = spawn_daemon(
        &dir,
        &[("SERVE_SLOW_CORNER_MS", "40"), ("SERVE_WORKERS", "1")],
    );
    let mut client = Client::connect(&daemon.addr).unwrap();
    let accept = client.submit_campaign("t", "long", &spec(40, 2)).unwrap();
    assert_eq!(status_of(&accept), status::ACCEPTED);
    // Let it start, then cancel remotely.
    std::thread::sleep(Duration::from_millis(100));
    let cancel = client.cancel("t/long").unwrap();
    assert_eq!(status_of(&cancel), status::OK);
    let after = client.wait_job("t/long", Duration::from_secs(30)).unwrap();
    assert_eq!(status_of(&after), status::CANCELLED, "{}", after.render());
    let stats = client.stats().unwrap();
    assert!(
        stat(&stats, "explicit_cancels") >= 1.0,
        "{}",
        stats.render()
    );
    assert!(stat(&stats, "cancelled") >= 1.0);
    // Cancelling again reports unknown-or-done, not a second cancel.
    let again = client.cancel("t/long").unwrap();
    assert_eq!(status_of(&again), status::UNKNOWN);
}

#[test]
fn client_disconnect_cancels_orphaned_interactive_request() {
    let dir = fresh_dir("disconnect");
    // One worker, pinned by a slow campaign, so the interactive request
    // is still queued when its client vanishes.
    let daemon = spawn_daemon(
        &dir,
        &[("SERVE_SLOW_CORNER_MS", "50"), ("SERVE_WORKERS", "1")],
    );
    let mut client = Client::connect(&daemon.addr).unwrap();
    client.submit_campaign("t", "pin", &spec(20, 2)).unwrap();
    // Drop-client chaos: the run request is written, then the socket is
    // slammed shut without reading the reply.
    let mut dropper = Client::connect(&daemon.addr).unwrap();
    let err = spicier::chaos::with_drop_client(|| dropper.run("ghost", OP_DECK, None))
        .expect_err("chaos drop returns an error");
    assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    // The daemon notices the EOF and cancels the orphaned job.
    let t0 = Instant::now();
    let mut seen = 0.0;
    while t0.elapsed() < Duration::from_secs(10) && seen < 1.0 {
        seen = stat(&client.stats().unwrap(), "disconnect_cancels");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(seen >= 1.0, "disconnect was never detected");
    let _ = client.cancel("t/pin");
}

#[test]
fn slowloris_client_cannot_wedge_the_daemon() {
    let dir = fresh_dir("slowloris");
    let daemon = spawn_daemon(&dir, &[("SERVE_READ_TIMEOUT_MS", "200")]);
    // Park a half-written frame.
    let mut slow = Client::connect(&daemon.addr).unwrap();
    slow.send_truncated(
        &Request::Run {
            tenant: "slow".into(),
            deck: OP_DECK.into(),
            deadline_ms: None,
        },
        5,
    )
    .unwrap();
    // Normal traffic stays fast while the slowloris frame dangles.
    let mut client = Client::connect(&daemon.addr).unwrap();
    for _ in 0..3 {
        let t0 = Instant::now();
        let reply = client.run("ok", OP_DECK, None).unwrap();
        assert_eq!(status_of(&reply), status::OK);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "interactive latency degraded behind slowloris"
        );
    }
    // Past the whole-frame deadline the slow connection is closed.
    std::thread::sleep(Duration::from_millis(400));
    let mut probe = slow;
    let gone = probe.ping().is_err();
    assert!(gone, "slowloris connection should have been dropped");
}

#[test]
fn sigterm_drains_and_restart_resumes_byte_identical() {
    // Reference: the same campaign, uninterrupted.
    let ref_dir = fresh_dir("drain-ref");
    let reference = {
        let daemon = spawn_daemon(&ref_dir, &[]);
        let mut client = Client::connect(&daemon.addr).unwrap();
        client.submit_campaign("drill", "job", &spec(8, 2)).unwrap();
        let done = client
            .wait_job("drill/job", Duration::from_secs(60))
            .unwrap();
        assert_eq!(status_of(&done), status::OK);
        std::fs::read(ref_dir.join("jobs/drill/job/result.csv")).unwrap()
    };

    // Drill: SIGTERM mid-campaign.
    let dir = fresh_dir("drain");
    let mut daemon = spawn_daemon(
        &dir,
        &[("SERVE_SLOW_CORNER_MS", "50"), ("SERVE_WORKERS", "1")],
    );
    let mut client = Client::connect(&daemon.addr).unwrap();
    client.submit_campaign("drill", "job", &spec(8, 2)).unwrap();
    // Wait for partial progress so the drain has in-flight + queued work.
    let t0 = Instant::now();
    loop {
        let reply = client.poll("drill/job").unwrap();
        if stat(&reply, "done_chunks") >= 1.0 || t0.elapsed() > Duration::from_secs(30) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    sigterm(&daemon);
    let code = wait_exit(&mut daemon, Duration::from_secs(30));
    assert_eq!(code, Some(0), "drain must exit cleanly");
    assert!(
        !dir.join("jobs/drill/job/result.csv").exists(),
        "campaign must not have finished before the drain"
    );
    drop(daemon);

    // Restart on the same state dir: journal + manifest resume the job.
    let daemon = spawn_daemon(&dir, &[]);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let done = client
        .wait_job("drill/job", Duration::from_secs(60))
        .unwrap();
    assert_eq!(status_of(&done), status::OK, "{}", done.render());
    assert_eq!(done.get("resumed").and_then(Json::as_bool), Some(true));
    let resumed_csv = std::fs::read(dir.join("jobs/drill/job/result.csv")).unwrap();
    assert_eq!(
        resumed_csv, reference,
        "resumed result differs from uninterrupted run"
    );
    let stats = client.stats().unwrap();
    assert!(stat(&stats, "resumed_jobs") >= 1.0, "{}", stats.render());
    assert!(
        stat(&stats, "resumed_chunks_skipped") >= 1.0,
        "resume should skip the chunks completed before SIGTERM: {}",
        stats.render()
    );
}

#[test]
fn sigkill_and_restart_loses_zero_accepted_jobs() {
    let ref_dir = fresh_dir("kill-ref");
    let reference = {
        let daemon = spawn_daemon(&ref_dir, &[]);
        let mut client = Client::connect(&daemon.addr).unwrap();
        client.submit_campaign("kill", "job", &spec(10, 2)).unwrap();
        let done = client
            .wait_job("kill/job", Duration::from_secs(60))
            .unwrap();
        assert_eq!(status_of(&done), status::OK);
        std::fs::read(ref_dir.join("jobs/kill/job/result.csv")).unwrap()
    };

    let dir = fresh_dir("kill");
    let mut daemon = spawn_daemon(
        &dir,
        &[("SERVE_SLOW_CORNER_MS", "40"), ("SERVE_WORKERS", "1")],
    );
    let mut client = Client::connect(&daemon.addr).unwrap();
    let accept = client.submit_campaign("kill", "job", &spec(10, 2)).unwrap();
    assert_eq!(status_of(&accept), status::ACCEPTED);
    // SIGKILL with no warning — the accept above is a durability promise.
    std::thread::sleep(Duration::from_millis(150));
    daemon.child.kill().unwrap();
    let _ = daemon.child.wait();
    drop(daemon);

    let daemon = spawn_daemon(&dir, &[]);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let done = client
        .wait_job("kill/job", Duration::from_secs(60))
        .unwrap();
    assert_eq!(
        status_of(&done),
        status::OK,
        "accepted job lost across SIGKILL: {}",
        done.render()
    );
    assert_eq!(done.get("resumed").and_then(Json::as_bool), Some(true));
    let resumed_csv = std::fs::read(dir.join("jobs/kill/job/result.csv")).unwrap();
    assert_eq!(resumed_csv, reference, "resume must be byte-identical");
}

#[test]
fn metrics_scrape_access_log_and_serve_report() {
    let dir = fresh_dir("metrics");
    let log_path = dir.join("access.jsonl");
    let mut daemon = spawn_daemon(&dir, &[("SERVE_ACCESS_LOG", log_path.to_str().unwrap())]);
    let mut client = Client::connect(&daemon.addr).unwrap();

    // One interactive job and one campaign so both classes have samples.
    let reply = client.run("obs", OP_DECK, None).unwrap();
    assert_eq!(status_of(&reply), status::OK);
    client.submit_campaign("obs", "camp", &spec(4, 2)).unwrap();
    let done = client
        .wait_job("obs/camp", Duration::from_secs(60))
        .unwrap();
    assert_eq!(status_of(&done), status::OK, "{}", done.render());

    // The terminal reply carries the lifecycle timeline.
    let tl = done.get("timeline").expect("done reply carries a timeline");
    assert_eq!(tl.get("resumed").and_then(Json::as_bool), Some(false));
    assert!(tl.num_field("running_ms").unwrap() >= tl.num_field("accepted_ms").unwrap());
    assert!(tl.num_field("finalized_ms").unwrap() >= tl.num_field("running_ms").unwrap());
    assert_eq!(tl.num_field("chunks_timed"), Some(2.0));
    let slots = tl.get("chunk_ms").and_then(Json::as_arr).unwrap();
    assert_eq!(slots.len(), 2);
    assert!(
        slots.iter().all(|s| s.as_f64().is_some()),
        "{}",
        tl.render()
    );

    // The scrape: stable schema, both expositions, per-class histograms.
    let scrape = client.metrics().unwrap();
    assert_eq!(status_of(&scrape), status::OK);
    assert_eq!(
        scrape.str_field("schema").as_deref(),
        Some("spicier-serve-metrics-v1")
    );
    assert!(scrape.num_field("uptime_ms").unwrap() >= 0.0);
    let counters = scrape.get("counters").expect("counters map");
    assert!(counters.num_field("accepted_interactive").unwrap() >= 1.0);
    assert!(counters.num_field("accepted_batch").unwrap() >= 1.0);
    let hists = scrape.get("histograms").expect("histograms map");
    let job_interactive = hists
        .get("job_ms")
        .and_then(|h| h.get("interactive"))
        .unwrap();
    assert!(job_interactive.num_field("count").unwrap() >= 1.0);
    assert!(job_interactive.num_field("p99_ms").unwrap() >= 0.0);
    let exec_batch = hists
        .get("execute_ms")
        .and_then(|h| h.get("batch"))
        .unwrap();
    assert_eq!(
        exec_batch.num_field("count"),
        Some(2.0),
        "{}",
        exec_batch.render()
    );
    assert!(
        hists
            .get("journal_sync_ms")
            .unwrap()
            .num_field("count")
            .unwrap()
            >= 1.0
    );
    let prom = scrape.str_field("prometheus").unwrap();
    assert!(
        prom.contains("spicier_serve_accepted_interactive_total"),
        "{prom}"
    );
    assert!(
        prom.contains("spicier_serve_job_ms_bucket{class=\"interactive\""),
        "{prom}"
    );
    assert!(prom.contains("le=\"+Inf\""), "{prom}");

    // Drain: the daemon rolls everything into SERVE_REPORT.json.
    sigterm(&daemon);
    assert_eq!(wait_exit(&mut daemon, Duration::from_secs(30)), Some(0));
    let report = std::fs::read_to_string(dir.join("SERVE_REPORT.json")).unwrap();
    let report = Json::parse(&report).expect("SERVE_REPORT.json parses");
    assert_eq!(
        report.str_field("schema").as_deref(),
        Some("spicier-serve-report-v1")
    );
    let jobs = report.get("jobs").and_then(Json::as_arr).unwrap();
    assert!(jobs.len() >= 2, "{}", report.render());
    for job in jobs {
        assert!(job.get("timeline").is_some(), "{}", job.render());
        assert!(job.str_field("class").is_some());
    }
    let rollup = report.get("rollup").expect("telemetry rollup");
    assert!(rollup.num_field("wall_ms").unwrap() > 0.0);

    // Access log: every line is parseable JSONL and the scrape was logged.
    let log = std::fs::read_to_string(&log_path).expect("access log written");
    let mut verbs = Vec::new();
    for line in log.lines().filter(|l| !l.trim().is_empty()) {
        let entry = Json::parse(line).expect("access log line parses");
        assert!(entry.num_field("elapsed_ms").is_some(), "{line}");
        assert!(entry.num_field("ts_ms").unwrap() > 0.0, "{line}");
        verbs.push(entry.str_field("verb").unwrap_or_default());
    }
    for expected in ["run", "campaign", "poll", "metrics"] {
        assert!(verbs.iter().any(|v| v == expected), "{verbs:?}");
    }
}

#[test]
fn resumed_timeline_is_exactly_once_across_sigkill() {
    let dir = fresh_dir("kill-timeline");
    let mut daemon = spawn_daemon(
        &dir,
        &[("SERVE_SLOW_CORNER_MS", "40"), ("SERVE_WORKERS", "1")],
    );
    let mut client = Client::connect(&daemon.addr).unwrap();
    let accept = client.submit_campaign("tl", "job", &spec(10, 2)).unwrap();
    assert_eq!(status_of(&accept), status::ACCEPTED);
    // Wait until at least one chunk has landed so the resume has
    // pre-kill history to *not* re-count, then SIGKILL.
    let t0 = Instant::now();
    loop {
        let reply = client.poll("tl/job").unwrap();
        if stat(&reply, "done_chunks") >= 1.0 || t0.elapsed() > Duration::from_secs(30) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.child.kill().unwrap();
    let _ = daemon.child.wait();
    drop(daemon);

    let daemon = spawn_daemon(&dir, &[]);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let done = client.wait_job("tl/job", Duration::from_secs(60)).unwrap();
    assert_eq!(status_of(&done), status::OK, "{}", done.render());

    let tl = done
        .get("timeline")
        .expect("resumed reply carries a timeline");
    assert_eq!(
        tl.get("resumed").and_then(Json::as_bool),
        Some(true),
        "{}",
        tl.render()
    );
    assert!(tl.num_field("finalized_ms").unwrap() >= tl.num_field("accepted_ms").unwrap());

    // Exactly-once: only the chunks this incarnation actually ran are
    // timed. Slots finished before the SIGKILL stay null — their wall
    // must never be double-counted into the resumed timeline.
    let stats = client.stats().unwrap();
    let skipped = stat(&stats, "resumed_chunks_skipped");
    assert!(skipped >= 1.0, "{}", stats.render());
    let slots = tl.get("chunk_ms").and_then(Json::as_arr).unwrap();
    assert_eq!(slots.len(), 5, "spec(10, 2) has five chunks");
    let timed = slots.iter().filter(|s| s.as_f64().is_some()).count() as f64;
    assert_eq!(tl.num_field("chunks_timed"), Some(timed));
    assert_eq!(
        timed + skipped,
        5.0,
        "timed + skipped must cover every chunk exactly once: {}",
        tl.render()
    );
    assert!(timed < 5.0, "pre-kill chunks must not be re-timed");
}

#[test]
fn enospc_on_accept_refuses_busy_and_daemon_recovers() {
    let dir = fresh_dir("enospc");
    // One-shot failpoint: the first journal append hits ENOSPC.
    let daemon = spawn_daemon(&dir, &[("SPICIER_FAILPOINTS", "journal.append=enospc@1")]);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let refused = client.submit_campaign("fp", "j1", &spec(4, 2)).unwrap();
    // Fail-closed: the accept is refused as transient `busy`, never
    // held in memory only.
    assert_eq!(status_of(&refused), status::BUSY, "{}", refused.render());
    assert!(
        refused
            .str_field("reason")
            .unwrap_or_default()
            .contains("journal"),
        "{}",
        refused.render()
    );
    // Zero journal mutation and zero daemon state for the refused job.
    assert_eq!(status_of(&client.poll("fp/j1").unwrap()), status::UNKNOWN);
    assert!(
        !dir.join("journal.jsonl").exists(),
        "refused accept must not touch the journal"
    );
    // The fault was one-shot: a retry is accepted and completes.
    let accept = client.submit_campaign("fp", "j1", &spec(4, 2)).unwrap();
    assert_eq!(status_of(&accept), status::ACCEPTED, "{}", accept.render());
    let done = client.wait_job("fp/j1", Duration::from_secs(60)).unwrap();
    assert_eq!(status_of(&done), status::OK, "{}", done.render());
    let stats = client.stats().unwrap();
    assert!(
        stat(&stats, "journal_refusals") >= 1.0,
        "{}",
        stats.render()
    );
}

#[test]
fn fsync_failure_on_finish_record_reruns_idempotently() {
    // With one worker and one job, journal.fsync hit 1 is the accept
    // and hit 2 is the finish record: the job completes for the client
    // but its finish never becomes durable.
    let dir = fresh_dir("fsync-finish");
    let mut daemon = spawn_daemon(
        &dir,
        &[
            ("SERVE_WORKERS", "1"),
            ("SPICIER_FAILPOINTS", "journal.fsync=err@2"),
        ],
    );
    let mut client = Client::connect(&daemon.addr).unwrap();
    client.submit_campaign("fp", "fin", &spec(6, 2)).unwrap();
    let done = client.wait_job("fp/fin", Duration::from_secs(60)).unwrap();
    assert_eq!(status_of(&done), status::OK, "{}", done.render());
    let first = std::fs::read(dir.join("jobs/fp/fin/result.csv")).unwrap();
    // SIGKILL: the journal remembers the accept but not the finish.
    daemon.child.kill().unwrap();
    let _ = daemon.child.wait();
    drop(daemon);
    // Restart replays the open accept and reruns the job idempotently:
    // every chunk is already complete in the manifest, so the rerun is
    // a no-op re-finalize with a byte-identical result.
    let daemon = spawn_daemon(&dir, &[]);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let rerun = client.wait_job("fp/fin", Duration::from_secs(60)).unwrap();
    assert_eq!(status_of(&rerun), status::OK, "{}", rerun.render());
    assert_eq!(rerun.get("resumed").and_then(Json::as_bool), Some(true));
    let second = std::fs::read(dir.join("jobs/fp/fin/result.csv")).unwrap();
    assert_eq!(second, first, "idempotent rerun must reproduce the result");
}

#[test]
fn torn_manifest_rename_sigkill_resume_byte_identical() {
    let ref_dir = fresh_dir("torn-ref");
    let reference = {
        let daemon = spawn_daemon(&ref_dir, &[]);
        let mut client = Client::connect(&daemon.addr).unwrap();
        client.submit_campaign("torn", "job", &spec(10, 2)).unwrap();
        let done = client
            .wait_job("torn/job", Duration::from_secs(60))
            .unwrap();
        assert_eq!(status_of(&done), status::OK);
        std::fs::read(ref_dir.join("jobs/torn/job/result.csv")).unwrap()
    };

    // Drill: the second manifest save tears mid-rename (half the bytes
    // land on the destination), then the daemon is SIGKILLed.
    let dir = fresh_dir("torn");
    let mut daemon = spawn_daemon(
        &dir,
        &[
            ("SERVE_SLOW_CORNER_MS", "40"),
            ("SERVE_WORKERS", "1"),
            ("SPICIER_FAILPOINTS", "manifest.rename=torn@2"),
        ],
    );
    let mut client = Client::connect(&daemon.addr).unwrap();
    let accept = client.submit_campaign("torn", "job", &spec(10, 2)).unwrap();
    assert_eq!(status_of(&accept), status::ACCEPTED);
    // Wait until the torn write has happened, then kill mid-campaign.
    let t0 = Instant::now();
    loop {
        let reply = client.poll("torn/job").unwrap();
        if stat(&reply, "done_chunks") >= 2.0 || t0.elapsed() > Duration::from_secs(30) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.child.kill().unwrap();
    let _ = daemon.child.wait();
    drop(daemon);

    // Restart clean: the half-written manifest parses as garbage for
    // the torn entries, which costs recomputation, never correctness.
    let daemon = spawn_daemon(&dir, &[]);
    let mut client = Client::connect(&daemon.addr).unwrap();
    let done = client
        .wait_job("torn/job", Duration::from_secs(60))
        .unwrap();
    assert_eq!(status_of(&done), status::OK, "{}", done.render());
    assert_eq!(done.get("resumed").and_then(Json::as_bool), Some(true));
    let resumed_csv = std::fs::read(dir.join("jobs/torn/job/result.csv")).unwrap();
    assert_eq!(
        resumed_csv, reference,
        "resume across a torn manifest must stay byte-identical"
    );
}

#[test]
fn panicking_chunk_is_quarantined_and_daemon_survives() {
    let dir = fresh_dir("panic");
    // One worker runs chunks in order; chunk.run hits 2 and 3 are
    // chunk 1's first attempt and its single retry — both panic, so
    // exactly that chunk is quarantined. An empty SPICIER_TRACE names
    // no path, so the panic dump must still land in the state dir.
    let daemon = spawn_daemon(
        &dir,
        &[
            ("SERVE_WORKERS", "1"),
            ("SPICIER_TRACE", ""),
            ("SPICIER_FAILPOINTS", "chunk.run=panic@2;chunk.run=panic@3"),
        ],
    );
    let mut client = Client::connect(&daemon.addr).unwrap();
    client.submit_campaign("fp", "p", &spec(5, 2)).unwrap();
    let done = client.wait_job("fp/p", Duration::from_secs(60)).unwrap();
    assert_eq!(status_of(&done), status::QUARANTINED, "{}", done.render());
    let csv = done.str_field("csv").unwrap();
    let panic_rows = csv.lines().filter(|l| l.ends_with("PANIC")).count();
    assert_eq!(panic_rows, 2, "exactly chunk 1's corners lost: {csv}");
    // The daemon contained both panics and keeps serving.
    let ok = client.run("fp", OP_DECK, None).unwrap();
    assert_eq!(status_of(&ok), status::OK, "{}", ok.render());
    // The flight recorder names the quarantined chunk.
    let dump = std::fs::read_to_string(dir.join("FLIGHT_RECORDER.jsonl"))
        .expect("panic dump written to the state dir");
    assert!(dump.contains("ChunkPanic"), "{dump}");
    assert!(dump.contains("chunk 1"), "{dump}");
    let stats = client.stats().unwrap();
    assert!(
        stat(&stats, "panics_contained") >= 2.0,
        "{}",
        stats.render()
    );
    assert!(
        stat(&stats, "chunks_quarantined") >= 1.0,
        "{}",
        stats.render()
    );
}

#[test]
fn journal_policy_strict_refuses_lenient_serves_corruption() {
    let dir = fresh_dir("policy");
    // Two corrupt records: a CRC mismatch and an unparseable line, both
    // newline-terminated so neither reads as a benign torn tail.
    std::fs::write(
        dir.join("journal.jsonl"),
        "deadbeef {\"seq\": 1, \"event\": \"accept\", \"job\": \"a/j1\"}\nnot a record\n",
    )
    .unwrap();

    // Strict policy: the daemon must refuse to start.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spicier-serve"));
    let mut child = scrub_knobs(&mut cmd)
        .env("SERVE_ADDR", "tcp:127.0.0.1:0")
        .env("SERVE_STATE_DIR", &dir)
        .env("SERVE_JOURNAL_POLICY", "strict")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spicier-serve spawns");
    let t0 = Instant::now();
    let code = loop {
        if let Ok(Some(st)) = child.try_wait() {
            break st.code();
        }
        if t0.elapsed() > Duration::from_secs(20) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("strict daemon served a corrupt journal instead of exiting");
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    assert_eq!(code, Some(1), "strict policy must fail startup");

    // Lenient (default) policy: starts, serves, and surfaces the count.
    let daemon = spawn_daemon(&dir, &[]);
    let mut client = Client::connect(&daemon.addr).unwrap();
    assert_eq!(status_of(&client.ping().unwrap()), status::OK);
    let stats = client.stats().unwrap();
    assert!(
        stat(&stats, "journal_corrupt_records") >= 2.0,
        "{}",
        stats.render()
    );
}

#[test]
fn loadgen_quick_passes_its_gates_and_writes_report() {
    let dir = fresh_dir("loadgen");
    let out = dir.join("BENCH_server.json");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spicier-loadgen"));
    let output = scrub_knobs(&mut cmd)
        .arg("--quick")
        .env("LOADGEN_OUT", &out)
        .env("LOADGEN_DIR", dir.join("work"))
        .env("SERVE_BIN", env!("CARGO_BIN_EXE_spicier-serve"))
        .output()
        .expect("spicier-loadgen spawns");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "loadgen gates failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    let report = std::fs::read_to_string(&out).expect("BENCH_server.json written");
    for key in [
        "shed",
        "interactive_p99_ms",
        "lost_jobs",
        "resume_byte_identical",
        "slowloris_survived",
        "failpoint_lost_jobs",
        "failpoint_daemon_survived",
        "stream_lost_events",
        "stream_duplicate_events",
        "stream_resume_byte_identical",
        "stream_event_p99_ms",
        "stream_lagged_evictions",
        "stream_slow_consumer_job_ok",
        "server_p99_ms",
        "server_metrics_scrape_ok",
        "client_server_p99_agreement",
    ] {
        assert!(report.contains(key), "missing {key} in {report}");
    }
}

#[test]
fn watch_replays_every_chunk_event_exactly_once_with_digests() {
    let dir = fresh_dir("watch-basic");
    let daemon = spawn_daemon(&dir, &[]);
    let mut client = Client::connect(&daemon.addr).unwrap();
    client.submit_campaign("w", "job", &spec(6, 2)).unwrap();
    let done = client.wait_job("w/job", Duration::from_secs(60)).unwrap();
    assert_eq!(status_of(&done), status::OK, "{}", done.render());

    // Full replay of a completed job: every chunk event exactly once,
    // in order, each self-verifying via its digest.
    let mut events: Vec<(u64, String)> = Vec::new();
    let outcome = client
        .watch("w/job", 1, |frame| {
            if frame.str_field("kind").as_deref() == Some("chunk") {
                let seq = frame.u64_field("seq").unwrap();
                let rows = frame.str_field("rows").unwrap();
                assert_eq!(frame.u64_field("chunk"), Some(seq - 1));
                assert_eq!(frame.str_field("digest").unwrap(), fnv64(&rows));
                assert_eq!(frame.u64_field("row_count"), Some(2));
                events.push((seq, rows));
            }
            true
        })
        .unwrap();
    let WatchOutcome::Done(terminal) = outcome else {
        panic!("expected a terminal done event, got {outcome:?}");
    };
    assert_eq!(
        events.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        vec![1, 2, 3]
    );
    assert_eq!(terminal.u64_field("seq"), Some(4));
    assert_eq!(terminal.str_field("outcome").as_deref(), Some(status::OK));

    // The streamed rows reassemble the persisted result byte-for-byte.
    let result = std::fs::read_to_string(done.str_field("result_path").unwrap()).unwrap();
    let body: String = events.iter().map(|(_, r)| r.as_str()).collect();
    let (_, result_body) = result.split_once('\n').unwrap();
    assert_eq!(result_body, body);
    assert_eq!(terminal.str_field("csv_digest").unwrap(), fnv64(&result));

    // Resume from the middle: only the missed suffix is replayed.
    let mut tail = Vec::new();
    let outcome = client
        .watch("w/job", 3, |frame| {
            if frame.str_field("kind").as_deref() == Some("chunk") {
                tail.push(frame.u64_field("seq").unwrap());
            }
            true
        })
        .unwrap();
    assert!(matches!(outcome, WatchOutcome::Done(_)));
    assert_eq!(tail, vec![3]);

    // Watching a job that does not exist is a refusal, not a hang.
    assert!(client.watch("w/nope", 1, |_| true).is_err());
    let stats = client.stats().unwrap();
    assert!(stat(&stats, "watch_streams") >= 2.0, "{}", stats.render());
    assert!(stat(&stats, "watch_events") >= 5.0, "{}", stats.render());
}

#[test]
fn watch_survives_sigkill_resume_with_exactly_once_delivery() {
    // Undisturbed reference result for the byte-identity check.
    let ref_dir = fresh_dir("watch-kill-ref");
    let reference = {
        let daemon = spawn_daemon(&ref_dir, &[]);
        let mut client = Client::connect(&daemon.addr).unwrap();
        client.submit_campaign("wk", "job", &spec(10, 2)).unwrap();
        let done = client.wait_job("wk/job", Duration::from_secs(60)).unwrap();
        assert_eq!(status_of(&done), status::OK);
        std::fs::read_to_string(ref_dir.join("jobs/wk/job/result.csv")).unwrap()
    };

    // The drill daemon listens on a unix socket so its address survives
    // the restart — a TCP port-0 rebind would move.
    let dir = fresh_dir("watch-kill");
    let sock = std::env::temp_dir().join(format!("swk-{}.sock", std::process::id()));
    let addr_env = format!("unix:{}", sock.display());
    let envs = [
        ("SERVE_ADDR", addr_env.as_str()),
        ("SERVE_SLOW_CORNER_MS", "60"),
        ("SERVE_WORKERS", "1"),
    ];
    let mut daemon = spawn_daemon(&dir, &envs);
    let cfg = ClientConfig {
        retry_budget: 120,
        backoff_cap: Duration::from_millis(250),
        ..ClientConfig::default()
    };
    let mut submit = RetryClient::with_config(&daemon.addr, cfg.clone());
    let accept = submit.submit_campaign("wk", "job", &spec(10, 2)).unwrap();
    assert_eq!(status_of(&accept), status::ACCEPTED, "{}", accept.render());

    let events: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let addr = daemon.addr.clone();
    let watcher = std::thread::spawn(move || {
        let mut client = RetryClient::with_config(&addr, cfg);
        client.watch_job("wk/job", 1, |frame| {
            if frame.str_field("kind").as_deref() == Some("chunk") {
                sink.lock().unwrap().push((
                    frame.u64_field("seq").unwrap(),
                    frame.str_field("rows").unwrap(),
                ));
            }
            true
        })
    });

    // SIGKILL mid-stream once at least two chunk events have arrived.
    let t0 = Instant::now();
    while events.lock().unwrap().len() < 2 {
        assert!(t0.elapsed() < Duration::from_secs(30), "no events streamed");
        std::thread::sleep(Duration::from_millis(10));
    }
    daemon.child.kill().unwrap();
    let _ = daemon.child.wait();
    drop(daemon);
    let _daemon = spawn_daemon(&dir, &envs);

    // The watcher reconnects on its own and finishes the stream.
    let done = watcher.join().unwrap().expect("watch rides the restart");
    assert_eq!(done.str_field("outcome").as_deref(), Some(status::OK));
    assert_eq!(done.get("resumed").and_then(Json::as_bool), Some(true));
    let events = events.lock().unwrap();
    let mut seqs: Vec<u64> = events.iter().map(|(s, _)| *s).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, vec![1, 2, 3, 4, 5], "exactly-once delivery");
    let mut ordered = events.clone();
    ordered.sort_by_key(|(s, _)| *s);
    let body: String = ordered.iter().map(|(_, r)| r.as_str()).collect();
    let (_, ref_body) = reference.split_once('\n').unwrap();
    assert_eq!(body, ref_body, "streamed rows must be byte-identical");
}

#[test]
fn slow_watcher_is_demoted_with_lagged_and_job_still_completes() {
    let dir = fresh_dir("watch-lag");
    // A zero lag budget demotes a caught-up subscriber as soon as it is
    // even one event behind the frontier.
    let daemon = spawn_daemon(
        &dir,
        &[
            ("SERVE_WATCH_LAG_BUDGET", "0"),
            ("SERVE_SLOW_CORNER_MS", "40"),
            ("SERVE_WORKERS", "1"),
        ],
    );
    let mut client = Client::connect(&daemon.addr).unwrap();
    client.submit_campaign("lag", "job", &spec(8, 2)).unwrap();

    let mut delivered = Vec::new();
    let outcome = client
        .watch("lag/job", 1, |frame| {
            if frame.str_field("kind").as_deref() == Some("chunk") {
                delivered.push(frame.u64_field("seq").unwrap());
            }
            true
        })
        .unwrap();
    let WatchOutcome::Lagged { next_seq } = outcome else {
        panic!("expected a lagged demotion, got {outcome:?}");
    };
    // Demotion is clean: delivery stopped exactly at the announced seq.
    assert_eq!(next_seq, delivered.last().map_or(1, |s| s + 1));

    // The laggard never slowed the job down.
    let done = client.wait_job("lag/job", Duration::from_secs(60)).unwrap();
    assert_eq!(status_of(&done), status::OK, "{}", done.render());

    // Re-subscribing from the announced seq replays the missed suffix —
    // catch-up replay is exempt from the lag budget.
    let mut tail = Vec::new();
    let outcome = client
        .watch("lag/job", next_seq, |frame| {
            if frame.str_field("kind").as_deref() == Some("chunk") {
                tail.push(frame.u64_field("seq").unwrap());
            }
            true
        })
        .unwrap();
    assert!(matches!(outcome, WatchOutcome::Done(_)), "{outcome:?}");
    delivered.extend(tail);
    assert_eq!(delivered, vec![1, 2, 3, 4], "exactly once across demotion");

    let stats = client.stats().unwrap();
    assert!(stat(&stats, "watch_lagged") >= 1.0, "{}", stats.render());
}

#[test]
fn dropped_client_mid_submit_is_safely_resubmitted_idempotently() {
    let dir = fresh_dir("drop-submit");
    let daemon = spawn_daemon(&dir, &[]);

    // Chaos slams the socket mid-frame: the submit's fate is unknown to
    // the caller — exactly the ambiguity the retry layer must absorb.
    let mut client = Client::connect(&daemon.addr).unwrap();
    let err =
        spicier::chaos::with_drop_client(|| client.submit_campaign("drop", "job", &spec(6, 2)));
    assert!(err.is_err(), "dropped submit must surface an error");

    // The retrying client resolves the ambiguity: a re-submit is either
    // a fresh accept or a dedup'd acknowledgement, never a double run.
    let mut retry = RetryClient::new(&daemon.addr);
    let accept = retry.submit_campaign("drop", "job", &spec(6, 2)).unwrap();
    assert_eq!(status_of(&accept), status::ACCEPTED, "{}", accept.render());
    let done = retry.wait_job("drop/job", Duration::from_secs(60)).unwrap();
    assert_eq!(status_of(&done), status::OK, "{}", done.render());

    // A second identical submit dedups against the finished job.
    let again = retry.submit_campaign("drop", "job", &spec(6, 2)).unwrap();
    assert_eq!(status_of(&again), status::ACCEPTED, "{}", again.render());
    assert_eq!(again.get("dedup").and_then(Json::as_bool), Some(true));
    let mut stats_client = Client::connect(&daemon.addr).unwrap();
    let stats = stats_client.stats().unwrap();
    assert_eq!(stat(&stats, "accepted_batch"), 1.0, "{}", stats.render());
    assert!(stat(&stats, "dedup_accepts") >= 1.0, "{}", stats.render());
}

#[test]
fn idle_watch_streams_receive_keepalive_pings() {
    let dir = fresh_dir("watch-ping");
    // Corners slow enough that the stream goes idle between chunk
    // events; the daemon must keep the connection warm with pings.
    let daemon = spawn_daemon(
        &dir,
        &[
            ("SERVE_WATCH_KEEPALIVE_MS", "100"),
            ("SERVE_SLOW_CORNER_MS", "300"),
            ("SERVE_WORKERS", "1"),
        ],
    );
    let mut client = Client::connect(&daemon.addr).unwrap();
    client.submit_campaign("ka", "job", &spec(4, 2)).unwrap();
    let mut pings = 0u32;
    let outcome = client
        .watch("ka/job", 1, |frame| {
            if frame.str_field("kind").as_deref() == Some("ping") {
                pings += 1;
            }
            true
        })
        .unwrap();
    assert!(matches!(outcome, WatchOutcome::Done(_)), "{outcome:?}");
    assert!(pings >= 1, "expected keepalive pings on an idle stream");
}
