//! Worker-side execution of scheduled units: interactive deck runs and
//! campaign chunks, with budget/cancellation wiring and chunk-level
//! resume bookkeeping.
//!
//! Every unit runs under a corner token derived with a deadline from its
//! job's root [`spicier::CancelToken`] and installed via
//! `with_corner_token`, so the budget checks inside the solvers observe
//! remote cancellation and per-unit deadlines with no extra plumbing.
//! Campaign chunks write their rows to an atomic part CSV and record
//! completion in a per-job chunk manifest (the PR-3 `Manifest`), which
//! is what makes kill-and-resume reproduce byte-identical results.

use super::proto::CampaignSpec;
use super::scheduler::{Counter, JobPhase, JobSpec, Outcome, Scheduler, Unit};
use crate::durable::write_atomic;
use crate::experiments::manifest::{ExperimentRecord, Manifest};
use spicier::analysis::budget::with_corner_token;
use spicier::analysis::dc::sweep_vsource;
use spicier::analysis::sweep::panic_message;
use spicier::runner::run_deck;
use spicier::spice::parse_deck;
use spicier::{DcOptions, Error};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-corner deadline inside campaign chunks.
const CORNER_DEADLINE: Duration = Duration::from_secs(10);

/// How many times a panicking campaign chunk is retried before the
/// chunk is quarantined and the job finishes `quarantined`.
const PANIC_RETRIES: u64 = 1;

/// Worker thread body: pull units until the scheduler shuts down.
///
/// Every unit runs under a `catch_unwind` backstop: a panic anywhere in
/// unit execution (campaign chunks get their own finer-grained ladder
/// in `run_chunk`) finishes that job `failed` and the worker keeps
/// serving — one pathological deck can never take the thread, and with
/// it a slice of the daemon's capacity, down.
pub fn worker_loop(sched: &Arc<Scheduler>) {
    while let Some(unit) = sched.next_unit() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_unit(sched, &unit);
        }));
        if let Err(payload) = caught {
            let msg = panic_message(payload.as_ref());
            sched.counters.bump(Counter::PanicsContained);
            dump_panic(&unit, "worker backstop", &msg);
            eprintln!(
                "[serve] worker caught panic in {} unit {}: {msg}",
                unit.job.key, unit.index
            );
            if !unit.job.is_done() {
                sched.finish_job(&unit.job, Outcome::Failed(format!("panic: {msg}")));
            }
        }
    }
}

/// Dumps a contained panic through the PR-5 flight recorder so the
/// post-mortem names the exact job and chunk. `with_trace` scopes the
/// recorder on even when `SPICIER_TRACE` is unset (the daemon routes
/// the dump file into its state dir at startup).
fn dump_panic(unit: &Unit, stage: &str, msg: &str) {
    spicier::telemetry::with_trace(|| {
        spicier::telemetry::record_failure(
            "ChunkPanic",
            &format!("job {} chunk {} ({stage}): {msg}", unit.job.key, unit.index),
        );
    });
}

/// Executes one unit (dispatch on the job's spec).
pub fn run_unit(sched: &Scheduler, unit: &Unit) {
    let queue_wait = unit.job.with_state(|s| {
        if matches!(s.phase, JobPhase::Queued) {
            s.phase = JobPhase::Running;
        }
        // First unit of the job to start: the accepted→running gap is
        // the queue wait (stamped exactly once by the timeline).
        s.timeline.mark_running()
    });
    if let Some(wait) = queue_wait {
        sched
            .metrics
            .queue_wait_ms
            .get(unit.job.class.metrics_class())
            .record(wait);
    }
    match &unit.job.spec {
        JobSpec::Deck { deck, deadline } => run_interactive(sched, unit, deck, *deadline),
        JobSpec::Campaign(spec) => run_chunk(sched, unit, spec),
    }
}

/// Maps a solver error to the job outcome it implies, given whether the
/// job's root token was cancelled (a cancelled job turns the resulting
/// `DeadlineExceeded` into `Cancelled` rather than `TimedOut`; the root
/// never expires, so only an explicit cancel reads as one).
fn classify(err: &Error, cancelled: bool) -> Outcome {
    if err.is_deadline_exceeded() {
        if cancelled {
            Outcome::Cancelled
        } else {
            Outcome::TimedOut
        }
    } else if err.is_untrusted_solution() {
        Outcome::Quarantined
    } else {
        Outcome::Failed(err.to_string())
    }
}

fn run_interactive(sched: &Scheduler, unit: &Unit, deck: &str, deadline: Duration) {
    let job = &unit.job;
    // `interactive.run=panic` drills the worker backstop; other armed
    // actions fail just this request.
    if let Err(e) = spicier::chaos::io_failpoint("interactive.run") {
        sched.finish_job(job, Outcome::Failed(e.to_string()));
        return;
    }
    let t0 = Instant::now();
    let token = job.handle.child_with_deadline(deadline);
    let result = with_corner_token(&token, || run_deck(deck));
    let wall = t0.elapsed();
    sched
        .metrics
        .execute_ms
        .get(job.class.metrics_class())
        .record(wall);
    job.with_state(|s| {
        s.wall += wall;
        s.done_units = 1;
    });
    match result {
        Ok((report, cost)) => {
            job.with_state(|s| {
                s.output = Some(report);
                s.telemetry.absorb(&cost);
            });
            sched.finish_job(job, Outcome::Ok);
        }
        Err(e) => sched.finish_job(job, classify(&e, job.handle.is_cancelled())),
    }
}

/// Part-CSV path of chunk `k`.
#[must_use]
pub fn chunk_path(dir: &Path, k: usize) -> std::path::PathBuf {
    dir.join(format!("chunk{k}.csv"))
}

/// Final result-CSV path of a campaign job.
#[must_use]
pub fn result_path(dir: &Path) -> std::path::PathBuf {
    dir.join("result.csv")
}

/// Per-job chunk-manifest path.
#[must_use]
pub fn manifest_path(dir: &Path) -> std::path::PathBuf {
    dir.join("MANIFEST.json")
}

/// Manifest entry name of chunk `k`.
#[must_use]
pub fn chunk_entry(k: usize) -> String {
    format!("CHUNK{k}")
}

/// Which chunks of `spec` are already complete in `dir`'s manifest
/// (entry ok, fingerprint matches, part file present), and which still
/// need to run. Used at resume time.
#[must_use]
pub fn split_chunks(dir: &Path, spec: &CampaignSpec) -> (usize, Vec<usize>) {
    let manifest = Manifest::load_from(&manifest_path(dir));
    let fp = spec.fingerprint();
    let mut done = 0usize;
    let mut pending = Vec::new();
    for k in 0..spec.chunk_count() {
        if manifest.is_complete(&chunk_entry(k), &fp) && chunk_path(dir, k).exists() {
            done += 1;
        } else {
            pending.push(k);
        }
    }
    (done, pending)
}

/// Interruptible artificial corner delay (`SERVE_SLOW_CORNER_MS`): used
/// by the load harness to make campaigns occupy workers for real wall
/// time; sleeps in small slices so cancellation stays responsive.
fn slow_corner_sleep(sched: &Scheduler, unit: &Unit) {
    let total = sched.config().slow_corner;
    if total.is_zero() {
        return;
    }
    let t0 = Instant::now();
    while t0.elapsed() < total && !unit.job.handle.is_cancelled() {
        std::thread::sleep(Duration::from_millis(5).min(total));
    }
}

/// Runs one campaign chunk under the poison-chunk quarantine ladder:
/// a panicking attempt is caught, retried up to [`PANIC_RETRIES`]
/// times, and — if every attempt panics — the chunk is quarantined:
/// its rows carry `PANIC` markers, its manifest entry is flagged so a
/// resume redoes it, and the job finishes `quarantined` instead of
/// taking the daemon down or wedging the scheduler.
fn run_chunk(sched: &Scheduler, unit: &Unit, spec: &CampaignSpec) {
    let job = &unit.job;
    let Some(dir) = job.dir.as_deref() else {
        sched.finish_job(job, Outcome::Failed("campaign job without a dir".into()));
        return;
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        sched.finish_job(
            job,
            Outcome::Failed(format!("create {}: {e}", dir.display())),
        );
        return;
    }
    let mut attempt: u64 = 0;
    loop {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_chunk_attempt(sched, unit, spec, dir);
        }));
        let payload = match caught {
            Ok(()) => return,
            Err(payload) => payload,
        };
        attempt += 1;
        let msg = panic_message(payload.as_ref());
        sched.counters.bump(Counter::PanicsContained);
        dump_panic(unit, &format!("attempt {attempt}"), &msg);
        eprintln!(
            "[serve] contained panic in {} chunk {} (attempt {attempt}): {msg}",
            job.key, unit.index
        );
        if job.is_done() {
            return;
        }
        if attempt > PANIC_RETRIES {
            quarantine_chunk(sched, unit, spec, dir, &msg);
            return;
        }
    }
}

/// Marks chunk `unit.index` as poisoned after its panic retries ran
/// out: `PANIC` rows in the part CSV (so the final concat shows exactly
/// which corners were lost), a manifest entry flagged `quarantined` (so
/// `is_complete` stays false and a resume redoes the chunk), and the
/// usual done-units bookkeeping so the job still finalizes — as
/// `quarantined` — instead of wedging the scheduler forever.
fn quarantine_chunk(sched: &Scheduler, unit: &Unit, spec: &CampaignSpec, dir: &Path, msg: &str) {
    let job = &unit.job;
    sched.counters.bump(Counter::ChunksQuarantined);
    let values = spec.values();
    let (lo, hi) = spec.chunk_range(unit.index);
    let mut rows = String::new();
    for &v in &values[lo..hi] {
        let _ = writeln!(rows, "{v:.6},PANIC");
    }
    if let Err(e) = write_atomic("chunk.write", &chunk_path(dir, unit.index), rows.as_bytes()) {
        sched.finish_job(job, Outcome::Failed(format!("write poisoned chunk: {e}")));
        return;
    }
    let finalize = job.with_state(|s| {
        let mpath = manifest_path(dir);
        let mut manifest = Manifest::load_from(&mpath);
        manifest.record(
            &chunk_entry(unit.index),
            ExperimentRecord::failed(spec.fingerprint(), 0.0, format!("panic: {msg}"))
                .with_quarantined(1),
        );
        if let Err(e) = manifest.save_to(&mpath) {
            eprintln!("  [warn] could not write job manifest: {e}");
        }
        // Stamp the slot (exactly once) so `chunks_timed` still matches
        // completed chunks; the actual wall was lost to the panic
        // ladder, so the poisoned chunk reports zero duration.
        s.timeline.record_chunk(unit.index, Duration::ZERO);
        s.panicked_chunks += 1;
        s.done_units += 1;
        s.mark_chunk_complete(unit.index);
        s.done_units >= s.total_units
    });
    job.notify_event();
    if finalize && !job.is_done() {
        finalize_job(sched, unit, spec, dir);
    }
}

/// One attempt at a chunk: compile, sweep every corner, write the part
/// CSV, record the manifest entry. Panics (pathological corners, or the
/// `chunk.run` failpoint) unwind into [`run_chunk`]'s ladder.
fn run_chunk_attempt(sched: &Scheduler, unit: &Unit, spec: &CampaignSpec, dir: &Path) {
    let job = &unit.job;
    if let Err(e) = spicier::chaos::io_failpoint("chunk.run") {
        sched.finish_job(job, Outcome::Failed(format!("chunk {}: {e}", unit.index)));
        return;
    }
    let t0 = Instant::now();
    let compiled = parse_deck(&spec.deck).and_then(|deck| deck.netlist.compile());
    let circuit = match compiled {
        Ok(c) => c,
        Err(e) => {
            // A deck that cannot compile fails the whole job, not just
            // this chunk — every other chunk would fail identically.
            sched.finish_job(job, Outcome::Failed(e.to_string()));
            return;
        }
    };
    let values = spec.values();
    let (lo, hi) = spec.chunk_range(unit.index);
    let mut rows = String::new();
    for &v in &values[lo..hi] {
        slow_corner_sleep(sched, unit);
        if job.handle.is_cancelled() || job.is_done() {
            // Cancelled mid-chunk: no part file, no manifest entry. A
            // later resume (if the job is ever re-submitted) redoes the
            // whole chunk, which is the correct conservative behaviour.
            sched.finish_job(job, Outcome::Cancelled);
            return;
        }
        let token = job.handle.child_with_deadline(CORNER_DEADLINE);
        let result = with_corner_token(&token, || {
            sweep_vsource(&circuit, &spec.source, &[v], &DcOptions::default())
        });
        let _ = write!(rows, "{v:.6}");
        match result.as_deref() {
            Ok([sol]) => {
                for node in circuit.node_ids().skip(1) {
                    let _ = write!(rows, ",{:.6}", sol.voltage(node));
                }
                job.with_state(|s| s.telemetry.absorb(sol.telemetry()));
            }
            Ok(_) => {
                let _ = write!(rows, ",FAILED:internal");
                job.with_state(|s| s.failed_corners += 1);
            }
            Err(e) => match classify(e, job.handle.is_cancelled()) {
                Outcome::Cancelled => {
                    sched.finish_job(job, Outcome::Cancelled);
                    return;
                }
                Outcome::TimedOut => {
                    let _ = write!(rows, ",TIMEOUT");
                    job.with_state(|s| s.timed_out_corners += 1);
                }
                Outcome::Quarantined => {
                    let _ = write!(rows, ",QUARANTINED");
                    job.with_state(|s| s.quarantined_corners += 1);
                }
                _ => {
                    let _ = write!(rows, ",FAILED:{e}");
                    job.with_state(|s| s.failed_corners += 1);
                }
            },
        }
        rows.push('\n');
    }
    if let Err(e) = write_atomic("chunk.write", &chunk_path(dir, unit.index), rows.as_bytes()) {
        sched.finish_job(job, Outcome::Failed(format!("write chunk: {e}")));
        return;
    }
    let wall = t0.elapsed();
    sched
        .metrics
        .execute_ms
        .get(job.class.metrics_class())
        .record(wall);
    // Manifest read-modify-write and the done-units increment happen
    // under the job lock so concurrent chunks of the same job cannot
    // lose each other's entries; the worker that completes the last
    // unit finalizes.
    let finalize = job.with_state(|s| {
        let mpath = manifest_path(dir);
        let mut manifest = Manifest::load_from(&mpath);
        manifest.record(
            &chunk_entry(unit.index),
            ExperimentRecord::ok(spec.fingerprint(), wall.as_secs_f64()),
        );
        if let Err(e) = manifest.save_to(&mpath) {
            eprintln!("  [warn] could not write job manifest: {e}");
        }
        s.timeline.record_chunk(unit.index, wall);
        s.wall += wall;
        s.done_units += 1;
        // Frontier advance is last: any event a watch stream can see is
        // already durable (part file written atomically, manifest
        // recorded), so replay after SIGKILL reproduces it exactly.
        s.mark_chunk_complete(unit.index);
        s.done_units >= s.total_units
    });
    job.notify_event();
    if finalize && !job.is_done() {
        finalize_job(sched, unit, spec, dir);
    }
}

/// Concatenates the ordered chunk parts into the final result CSV and
/// marks the job done. Also invoked at admit time for resumed jobs
/// whose chunks were all already complete.
pub fn finalize_job(sched: &Scheduler, unit: &Unit, spec: &CampaignSpec, dir: &Path) {
    let job = &unit.job;
    let t0 = Instant::now();
    let mut csv = String::from("sweep,voltages\n");
    for k in 0..spec.chunk_count() {
        match std::fs::read_to_string(chunk_path(dir, k)) {
            Ok(part) => csv.push_str(&part),
            Err(e) => {
                sched.finish_job(job, Outcome::Failed(format!("missing chunk {k}: {e}")));
                return;
            }
        }
    }
    if let Err(e) = write_atomic("result.write", &result_path(dir), csv.as_bytes()) {
        sched.finish_job(job, Outcome::Failed(format!("write result: {e}")));
        return;
    }
    sched.metrics.finalize_ms.record(t0.elapsed());
    let poisoned = job.with_state(|s| {
        s.output = Some(csv);
        s.panicked_chunks > 0
    });
    // A job that lost chunks to the panic ladder completes — the
    // scheduler must not wedge — but its status says the CSV carries
    // `PANIC` holes, exactly like corner-level quarantine.
    sched.finish_job(
        job,
        if poisoned {
            Outcome::Quarantined
        } else {
            Outcome::Ok
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::scheduler::JobClass;
    use crate::server::ServerConfig;

    fn temp_cfg(tag: &str) -> ServerConfig {
        let dir = std::env::temp_dir().join(format!("exec-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = ServerConfig::from_env();
        cfg.state_dir = dir;
        cfg.slow_corner = Duration::ZERO;
        cfg
    }

    fn divider_spec(points: usize, chunk: usize) -> CampaignSpec {
        CampaignSpec {
            deck: "divider\nV1 in 0 0\nR1 in out 1k\nR2 out 0 1k\n.end\n".into(),
            source: "V1".into(),
            start: 0.0,
            stop: 2.0,
            points,
            chunk,
        }
    }

    #[test]
    fn campaign_chunks_produce_a_complete_result_csv() {
        let cfg = temp_cfg("chunks");
        let state_dir = cfg.state_dir.clone();
        let sched = Scheduler::new(cfg);
        let spec = divider_spec(5, 2);
        let pending: Vec<usize> = (0..spec.chunk_count()).collect();
        let job = sched
            .admit_campaign("t", "c", spec.clone(), pending, 0, false)
            .unwrap();
        // Drain the queue synchronously (no worker threads in test).
        while let Some(unit) = sched.try_next_unit() {
            run_unit(&sched, &unit);
        }
        assert!(job.is_done());
        let state = job.snapshot();
        assert!(
            matches!(state.phase, JobPhase::Done(Outcome::Ok)),
            "{state:?}"
        );
        let csv = state.output.unwrap();
        // Header + 5 corner rows; midpoint divider halves the sweep value.
        assert_eq!(csv.lines().count(), 6, "{csv}");
        assert!(csv.contains("2.000000,2.000000,1.000000"), "{csv}");
        assert!(state.telemetry.newton_iterations > 0);
        assert!(state.telemetry.lu.solves > 0);
        // Lifecycle timeline: running/finalized stamped, every chunk
        // timed exactly once, and the server-side histograms saw the
        // queue wait, three chunk executions, and one finalize.
        assert!(state.timeline.running_ms.is_some());
        assert!(state.timeline.finalized_ms.is_some());
        assert!(!state.timeline.resumed);
        assert_eq!(state.timeline.chunk_ms.len(), 3);
        assert!(state.timeline.chunk_ms.iter().all(Option::is_some));
        assert_eq!(sched.metrics.queue_wait_ms.batch.snapshot().count, 1);
        assert_eq!(sched.metrics.execute_ms.batch.snapshot().count, 3);
        assert_eq!(sched.metrics.finalize_ms.snapshot().count, 1);
        assert_eq!(sched.metrics.job_ms.batch.snapshot().count, 1);
        let _ = std::fs::remove_dir_all(&state_dir);
    }

    #[test]
    fn interactive_unit_runs_a_deck() {
        let cfg = temp_cfg("interactive");
        let state_dir = cfg.state_dir.clone();
        let sched = Scheduler::new(cfg);
        let job = sched
            .admit_interactive(
                "t",
                "divider\nV1 in 0 3.3\nR1 in out 1k\nR2 out 0 2k\n.op\n.end\n".into(),
                Duration::from_secs(10),
            )
            .unwrap();
        let unit = sched.try_next_unit().unwrap();
        assert_eq!(unit.job.class, JobClass::Interactive);
        run_unit(&sched, &unit);
        let state = job.snapshot();
        assert!(
            matches!(state.phase, JobPhase::Done(Outcome::Ok)),
            "{state:?}"
        );
        assert!(state.output.unwrap().contains("V(out) = 2.2"));
        let _ = std::fs::remove_dir_all(&state_dir);
    }

    #[test]
    fn armed_run_and_result_sites_fail_only_their_job() {
        let cfg = temp_cfg("armed-sites");
        let state_dir = cfg.state_dir.clone();
        let sched = Scheduler::new(cfg);
        let deck = "divider\nV1 in 0 3.3\nR1 in out 1k\nR2 out 0 2k\n.op\n.end\n";
        let interactive = sched
            .admit_interactive("t", deck.into(), Duration::from_secs(10))
            .unwrap();
        let spec = divider_spec(3, 2);
        let pending: Vec<usize> = (0..spec.chunk_count()).collect();
        let campaign = sched
            .admit_campaign("t", "r", spec, pending, 0, false)
            .unwrap();
        spicier::chaos::with_failpoints("interactive.run=err;result.write=enospc", || {
            while let Some(unit) = sched.try_next_unit() {
                run_unit(&sched, &unit);
            }
        });
        for (job, site) in [
            (&interactive, "interactive.run"),
            (&campaign, "result.write"),
        ] {
            let state = job.snapshot();
            match state.phase {
                JobPhase::Done(Outcome::Failed(msg)) => {
                    assert!(msg.contains(&format!("failpoint {site}")), "{msg}");
                }
                phase => panic!("{site}: {phase:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&state_dir);
    }

    #[test]
    fn interactive_unit_tells_a_timeout_from_a_cancel() {
        const DECK: &str = "divider\nV1 in 0 3.3\nR1 in out 1k\nR2 out 0 2k\n.op\n.end\n";
        let cfg = temp_cfg("timeout-vs-cancel");
        let state_dir = cfg.state_dir.clone();
        let sched = Scheduler::new(cfg);

        // An expired request deadline is a timeout, not a cancel: the
        // job's root token never expires, so it stays uncancelled.
        let job = sched
            .admit_interactive("t", DECK.into(), Duration::ZERO)
            .unwrap();
        let unit = sched.try_next_unit().unwrap();
        run_unit(&sched, &unit);
        let state = job.snapshot();
        assert!(
            matches!(state.phase, JobPhase::Done(Outcome::TimedOut)),
            "{state:?}"
        );
        assert!(!job.handle.is_cancelled());
        assert_eq!(sched.counters.get(Counter::TimedOut), 1);
        assert_eq!(sched.counters.get(Counter::Cancelled), 0);

        // The same deck cancelled before it runs ends cancelled.
        let job = sched
            .admit_interactive("t", DECK.into(), Duration::from_secs(10))
            .unwrap();
        let unit = sched.try_next_unit().unwrap();
        assert!(sched.cancel(&job.key, Counter::ExplicitCancels));
        assert!(job.handle.is_cancelled());
        run_unit(&sched, &unit);
        let state = job.snapshot();
        assert!(
            matches!(state.phase, JobPhase::Done(Outcome::Cancelled)),
            "{state:?}"
        );
        assert_eq!(sched.counters.get(Counter::TimedOut), 1);
        assert_eq!(sched.counters.get(Counter::Cancelled), 1);
        let _ = std::fs::remove_dir_all(&state_dir);
    }

    #[test]
    fn split_chunks_resumes_only_the_incomplete_tail() {
        let cfg = temp_cfg("split");
        let state_dir = cfg.state_dir.clone();
        let spec = divider_spec(6, 2);
        let dir = state_dir.join("jobs/t/c");
        std::fs::create_dir_all(&dir).unwrap();
        // Everything pending on a fresh dir.
        assert_eq!(split_chunks(&dir, &spec), (0, vec![0, 1, 2]));
        // Record chunk 1 complete (manifest + part file).
        std::fs::write(chunk_path(&dir, 1), "x\n").unwrap();
        let mut manifest = Manifest::load_from(&manifest_path(&dir));
        manifest.record(
            &chunk_entry(1),
            ExperimentRecord::ok(spec.fingerprint(), 0.1),
        );
        manifest.save_to(&manifest_path(&dir)).unwrap();
        assert_eq!(split_chunks(&dir, &spec), (1, vec![0, 2]));
        // A changed spec invalidates the fingerprint: everything reruns.
        let mut changed = spec.clone();
        changed.stop = 9.0;
        assert_eq!(split_chunks(&dir, &changed), (0, vec![0, 1, 2]));
        let _ = std::fs::remove_dir_all(&state_dir);
    }

    #[test]
    fn panicking_chunk_is_quarantined_and_job_completes() {
        let cfg = temp_cfg("panic");
        let state_dir = cfg.state_dir.clone();
        let dump = state_dir.join("panic-dump.jsonl");
        spicier::telemetry::set_dump_path(Some(dump.clone()));
        let sched = Scheduler::new(cfg);
        let spec = divider_spec(5, 2); // chunks: [0,1], [2,3], [4]
        let pending: Vec<usize> = (0..spec.chunk_count()).collect();
        let job = sched
            .admit_campaign("t", "p", spec.clone(), pending, 0, false)
            .unwrap();
        // Chunk 0 is attempt/hit 1 (clean); chunk 1 panics on both its
        // attempts (hits 2 and 3) and exhausts its one retry (PANIC_RETRIES);
        // chunk 2 is hit 4 (clean again).
        spicier::chaos::with_failpoints("chunk.run=panic@2;chunk.run=panic@3", || {
            while let Some(unit) = sched.try_next_unit() {
                run_unit(&sched, &unit);
            }
        });
        spicier::telemetry::set_dump_path(None);
        assert!(job.is_done());
        let state = job.snapshot();
        assert!(
            matches!(state.phase, JobPhase::Done(Outcome::Quarantined)),
            "{state:?}"
        );
        assert_eq!(state.panicked_chunks, 1);
        // Exactly chunk 1's corners carry PANIC markers; the rest of
        // the sweep is intact.
        let csv = state.output.unwrap();
        let panic_rows: Vec<&str> = csv.lines().filter(|l| l.ends_with(",PANIC")).collect();
        assert_eq!(panic_rows.len(), 2, "{csv}");
        assert_eq!(csv.lines().count(), 6, "{csv}");
        assert!(csv.contains("2.000000,2.000000,1.000000"), "{csv}");
        // Both panicking attempts were contained; one chunk quarantined.
        assert_eq!(sched.counters.get(Counter::PanicsContained), 2);
        assert_eq!(sched.counters.get(Counter::ChunksQuarantined), 1);
        // The flight recorder names the poisoned chunk.
        let dumped = std::fs::read_to_string(&dump).unwrap();
        assert!(dumped.contains("ChunkPanic"), "{dumped}");
        assert!(dumped.contains("job t/p chunk 1"), "{dumped}");
        // The scheduler keeps serving: a fresh job runs to a clean Ok.
        let spec2 = divider_spec(3, 3);
        let job2 = sched
            .admit_campaign("t", "after", spec2.clone(), vec![0], 0, false)
            .unwrap();
        while let Some(unit) = sched.try_next_unit() {
            run_unit(&sched, &unit);
        }
        assert!(matches!(job2.snapshot().phase, JobPhase::Done(Outcome::Ok)));
        // The quarantined chunk's manifest entry keeps it incomplete, so
        // a resume would redo exactly that chunk.
        let dir = state_dir.join("jobs/t/p");
        assert_eq!(split_chunks(&dir, &spec), (2, vec![1]));
        let _ = std::fs::remove_dir_all(&state_dir);
    }
}
