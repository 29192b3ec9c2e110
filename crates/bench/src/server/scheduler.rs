//! Admission control, fair-share dispatch, and the job state machine of
//! the campaign daemon.
//!
//! Two bounded queues feed one worker pool. Interactive requests queue
//! as a single work unit; campaign jobs decompose into chunk units (see
//! [`CampaignSpec::chunk_count`]). Dispatch is weighted round-robin:
//! when both queues hold work, at most `interactive_weight` interactive
//! units go out per campaign chunk, so neither class starves the other.
//! Admission beyond either bound sheds with an explicit `busy` reply —
//! the daemon's memory is bounded by the queue caps, never by client
//! behaviour.

use super::jobstate::Journal;
use super::metrics::{self, MetricsDoc, Registry, Timeline};
use super::proto::{status, CampaignSpec};
use super::ServerConfig;
use spicier::{CancelToken, TelemetrySummary};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Work class of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// One-shot deck run; the submitting connection blocks on it.
    Interactive,
    /// Detached campaign; journaled, chunked, pollable, resumable.
    Batch,
}

impl JobClass {
    /// The class label this job carries in per-class metrics.
    #[must_use]
    pub fn metrics_class(self) -> metrics::Class {
        match self {
            JobClass::Interactive => metrics::Class::Interactive,
            JobClass::Batch => metrics::Class::Batch,
        }
    }
}

/// What a job is asked to do.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// Run a full deck (every analysis card) under one deadline.
    Deck {
        /// SPICE deck text.
        deck: String,
        /// Whole-request deadline.
        deadline: Duration,
    },
    /// Run a chunked DC sweep campaign.
    Campaign(CampaignSpec),
}

/// Terminal outcome of a job. Every degraded path is distinct so the
/// protocol and the stats counters can tell them apart.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Produced its result.
    Ok,
    /// Could not produce a result (parse/solve error text attached).
    Failed(String),
    /// Cancelled remotely: explicit request or client disconnect.
    Cancelled,
    /// The request deadline expired mid-work.
    TimedOut,
    /// Residual certification refused to vouch for the solution.
    Quarantined,
    /// Shed at dispatch time because the daemon began draining.
    Draining,
}

impl Outcome {
    /// The wire `status` string for this outcome.
    #[must_use]
    pub fn status(&self) -> &'static str {
        match self {
            Outcome::Ok => status::OK,
            Outcome::Failed(_) => status::FAILED,
            Outcome::Cancelled => status::CANCELLED,
            Outcome::TimedOut => status::TIMED_OUT,
            Outcome::Quarantined => status::QUARANTINED,
            Outcome::Draining => status::DRAINING,
        }
    }
}

/// Execution phase of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobPhase {
    /// Admitted, not yet picked up.
    Queued,
    /// At least one unit has started.
    Running,
    /// Finished with the attached outcome.
    Done(Outcome),
}

/// Mutable per-job state, guarded by the job's mutex.
#[derive(Debug, Clone)]
pub struct JobState {
    /// Where the job is in its lifecycle.
    pub phase: JobPhase,
    /// Work units completed (chunks for campaigns, 0/1 for interactive).
    pub done_units: usize,
    /// Total work units.
    pub total_units: usize,
    /// Interactive report text, or the final campaign CSV once
    /// finalized.
    pub output: Option<String>,
    /// Corners that failed to converge (annotated rows, job still ok).
    pub failed_corners: usize,
    /// Corners that hit the per-corner deadline.
    pub timed_out_corners: usize,
    /// Corners quarantined by residual certification.
    pub quarantined_corners: usize,
    /// Chunks quarantined by the panic-containment ladder: every
    /// attempt panicked, the chunk's rows carry `PANIC` markers, and
    /// the job finishes `quarantined` instead of `ok`.
    pub panicked_chunks: usize,
    /// Solver cost of every analysis this job ran: each campaign
    /// corner's, or the interactive deck's.
    pub telemetry: TelemetrySummary,
    /// Wall time spent executing this job's units.
    pub wall: Duration,
    /// Per-chunk completion bitmap (campaigns; empty for interactive).
    /// Chunks complete out of order under the fair-share pool, but the
    /// watch event log releases them in index order via `frontier`.
    pub complete_chunks: Vec<bool>,
    /// Count of contiguous complete chunks from index 0 — the published
    /// prefix of the event log. Event seq `k` (1-based) is chunk `k-1`'s
    /// completion; only events with `seq <= frontier` exist, which makes
    /// the log replayable from the on-disk part files alone.
    pub frontier: usize,
    /// Lifecycle timeline: accepted/running/finalized stamps and
    /// exactly-once per-chunk durations (see [`Timeline`]).
    pub timeline: Timeline,
}

impl JobState {
    fn new(
        total_units: usize,
        done_units: usize,
        complete_chunks: Vec<bool>,
        resumed: bool,
    ) -> Self {
        let frontier = complete_chunks.iter().take_while(|c| **c).count();
        let timeline = Timeline::new(complete_chunks.len(), resumed);
        Self {
            phase: JobPhase::Queued,
            done_units,
            total_units,
            output: None,
            failed_corners: 0,
            timed_out_corners: 0,
            quarantined_corners: 0,
            panicked_chunks: 0,
            telemetry: TelemetrySummary::default(),
            wall: Duration::ZERO,
            complete_chunks,
            frontier,
            timeline,
        }
    }

    /// Marks chunk `k` complete (its part CSV is durably on disk) and
    /// advances the event frontier over the contiguous prefix. Called
    /// *after* the part file and manifest record land, so every event
    /// the frontier exposes is reproducible from disk.
    pub fn mark_chunk_complete(&mut self, k: usize) {
        if let Some(cell) = self.complete_chunks.get_mut(k) {
            *cell = true;
        }
        while self.complete_chunks.get(self.frontier).is_some_and(|c| *c) {
            self.frontier += 1;
        }
    }
}

/// One admitted job.
#[derive(Debug)]
pub struct Job {
    /// `tenant/id` — the key clients poll and cancel by.
    pub key: String,
    /// Owning tenant.
    pub tenant: String,
    /// Work class.
    pub class: JobClass,
    /// What to run.
    pub spec: JobSpec,
    /// Root cancellation token every unit's corner token derives from.
    /// It never expires, so it reads cancelled only after an explicit
    /// cancel.
    pub handle: CancelToken,
    /// Whether this job was replayed from the journal at startup.
    pub resumed: bool,
    /// On-disk directory (campaigns only): chunk parts, manifest,
    /// result CSV.
    pub dir: Option<PathBuf>,
    state: Mutex<JobState>,
    cv: Condvar,
}

impl Job {
    #[allow(clippy::too_many_arguments)]
    fn new(
        key: String,
        tenant: String,
        class: JobClass,
        spec: JobSpec,
        dir: Option<PathBuf>,
        total_units: usize,
        done_units: usize,
        complete_chunks: Vec<bool>,
        resumed: bool,
    ) -> Arc<Job> {
        Arc::new(Job {
            key,
            tenant,
            class,
            spec,
            handle: CancelToken::new(),
            resumed,
            dir,
            state: Mutex::new(JobState::new(
                total_units,
                done_units,
                complete_chunks,
                resumed,
            )),
            cv: Condvar::new(),
        })
    }

    /// Runs `f` with the job state locked.
    pub fn with_state<R>(&self, f: impl FnOnce(&mut JobState) -> R) -> R {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut state)
    }

    /// A copy of the current state.
    #[must_use]
    pub fn snapshot(&self) -> JobState {
        self.with_state(|s| s.clone())
    }

    /// Whether the job has reached a terminal phase.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.with_state(|s| matches!(s.phase, JobPhase::Done(_)))
    }

    /// Blocks until the job is done or `timeout` elapses; returns
    /// whether it finished.
    pub fn wait_done(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while !matches!(state.phase, JobPhase::Done(_)) {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self
                .cv
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
        }
        true
    }

    /// Wakes watch streams after a chunk completion or status change.
    pub fn notify_event(&self) {
        self.cv.notify_all();
    }

    /// Blocks until the event frontier moves past `seen`, the job turns
    /// terminal, or `timeout` elapses. Returns the current frontier and
    /// whether the job is done — the watch loop's pacing primitive:
    /// subscribers park here instead of polling, so an idle stream
    /// costs nothing.
    #[must_use]
    pub fn wait_event(&self, seen: usize, timeout: Duration) -> (usize, bool) {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let done = matches!(state.phase, JobPhase::Done(_));
            if state.frontier > seen || done {
                return (state.frontier, done);
            }
            let now = Instant::now();
            if now >= deadline {
                return (state.frontier, done);
            }
            let (next, _) = self
                .cv
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
        }
    }
}

/// One dispatchable unit: a job and the unit index within it.
#[derive(Debug, Clone)]
pub struct Unit {
    /// The owning job.
    pub job: Arc<Job>,
    /// Chunk index for campaigns; always 0 for interactive jobs.
    pub index: usize,
}

/// Why admission refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The relevant queue is at capacity — shed with `busy`.
    Busy(&'static str),
    /// The daemon is draining — no new work.
    Draining,
    /// A campaign with this key already exists.
    Duplicate,
    /// Journaling the accept failed; the job cannot be made durable.
    Journal(String),
}

/// Declares [`Counter`] and its wire-name table from one list, so a
/// counter's variant, meaning and name are written once.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $variant:ident => $name:expr,)+) => {
        /// The daemon's monotonic counters, in their stable `stats` and
        /// `metrics` order; [`Counters`] holds one cell per variant.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl Counter {
            /// Every counter's wire name, indexed by the counter.
            pub const NAMES: &'static [&'static str] = &[$($name),+];
        }
    };
}

counters! {
    /// Interactive requests admitted.
    AcceptedInteractive => "accepted_interactive",
    /// Campaign jobs admitted (journaled).
    AcceptedBatch => "accepted_batch",
    /// Requests shed by admission control.
    Shed => "shed",
    /// Jobs that finished `ok`.
    Completed => "completed",
    /// Jobs that finished `failed`. Each outcome counter is named by the
    /// wire status it counts.
    Failed => status::FAILED,
    /// Jobs cancelled (any cancellation path).
    Cancelled => status::CANCELLED,
    /// Jobs that timed out.
    TimedOut => status::TIMED_OUT,
    /// Jobs quarantined by certification.
    Quarantined => status::QUARANTINED,
    /// Jobs replayed from the journal at startup.
    ResumedJobs => "resumed_jobs",
    /// Chunks skipped on resume because their manifest entry was
    /// complete.
    ResumedChunksSkipped => "resumed_chunks_skipped",
    /// Jobs cancelled by an explicit `cancel` request.
    ExplicitCancels => "explicit_cancels",
    /// Jobs cancelled because their client disconnected mid-wait.
    DisconnectCancels => "disconnect_cancels",
    /// Campaign submissions refused because the accept could not be
    /// made durable (journal append/fsync failure → `busy` reply).
    JournalRefusals => "journal_refusals",
    /// Worker panics caught by chunk containment (includes retries).
    PanicsContained => "panics_contained",
    /// Chunks quarantined after exhausting their panic retries.
    ChunksQuarantined => "chunks_quarantined",
    /// Corrupt (non-tail) journal records found by replay at startup.
    JournalCorruptRecords => "journal_corrupt_records",
    /// Watch subscriptions served (including reconnects).
    WatchStreams => "watch_streams",
    /// Event frames delivered across all watch streams.
    WatchEvents => "watch_events",
    /// Subscribers shed by the slow-consumer policy (lag-budget
    /// demotions plus mid-frame write-timeout disconnects).
    WatchLagged => "watch_lagged",
    /// Campaign re-submissions answered `accepted {dedup: true}` because
    /// the key and spec fingerprint matched an existing job.
    DedupAccepts => "dedup_accepts",
}

impl Counter {
    /// The counter's name in the `stats` reply and the `metrics`
    /// document.
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// Number of daemon counters.
const COUNTERS: usize = Counter::NAMES.len();

/// The daemon's counter cells, one per [`Counter`], all visible in the
/// `stats` reply, the `metrics` document and the load-harness rollup.
#[derive(Debug, Default)]
pub struct Counters([AtomicU64; COUNTERS]);

impl Counters {
    /// Adds `n` to `counter`.
    pub fn add(&self, counter: Counter, n: u64) {
        self.0[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to `counter`.
    pub fn bump(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Overwrites `counter` (replay reports its findings once, at startup).
    pub fn set(&self, counter: Counter, value: u64) {
        self.0[counter as usize].store(value, Ordering::Relaxed);
    }

    /// The current value of `counter`.
    #[must_use]
    pub fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize].load(Ordering::Acquire)
    }

    fn count_outcome(&self, outcome: &Outcome) {
        self.bump(match outcome {
            Outcome::Ok => Counter::Completed,
            Outcome::Failed(_) => Counter::Failed,
            Outcome::Cancelled => Counter::Cancelled,
            Outcome::TimedOut => Counter::TimedOut,
            Outcome::Quarantined => Counter::Quarantined,
            Outcome::Draining => Counter::Shed,
        });
    }

    /// Every counter as a `(name, value)` pair in wire order, loaded in
    /// one pass so a reply renders from a single point-in-time view
    /// instead of interleaving loads with worker updates field by field.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, f64)> {
        Counter::NAMES
            .iter()
            .zip(&self.0)
            .map(|(&name, cell)| (name, cell.load(Ordering::Acquire) as f64))
            .collect()
    }
}

struct SchedInner {
    interactive: VecDeque<Unit>,
    batch: VecDeque<Unit>,
    /// Interactive units dispatched since the last batch unit.
    since_batch: usize,
    /// Campaign jobs admitted and not yet terminal (the batch cap).
    batch_jobs: usize,
    draining: bool,
    shutdown: bool,
}

/// The scheduler: queues, the job table, the journal, and the counters.
pub struct Scheduler {
    inner: Mutex<SchedInner>,
    work: Condvar,
    jobs: Mutex<HashMap<String, Arc<Job>>>,
    /// Serializes campaign admission from the key lookup through the
    /// table insert. `admit_campaign`'s own duplicate check and its
    /// insert take the `jobs` lock separately (the journal fsync sits
    /// between them), so two concurrent submits of the same key could
    /// otherwise both pass the check and both run.
    admission: Mutex<()>,
    journal: Journal,
    /// Monotonic counters for `stats`.
    pub counters: Counters,
    /// Lifecycle-edge histograms for the `metrics` verb.
    pub metrics: Registry,
    cfg: ServerConfig,
    interactive_seq: AtomicU64,
    started: Instant,
}

impl Scheduler {
    /// Builds a scheduler over `cfg` with its journal at
    /// `<state_dir>/journal.jsonl`.
    #[must_use]
    pub fn new(cfg: ServerConfig) -> Arc<Scheduler> {
        let metrics = Registry::new();
        let journal = Journal::new(cfg.state_dir.join("journal.jsonl"))
            .with_fsync_observer(Arc::clone(&metrics.journal_sync_ms));
        Arc::new(Scheduler {
            inner: Mutex::new(SchedInner {
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                since_batch: 0,
                batch_jobs: 0,
                draining: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            admission: Mutex::new(()),
            journal,
            counters: Counters::default(),
            metrics,
            cfg,
            interactive_seq: AtomicU64::new(0),
            started: Instant::now(),
        })
    }

    /// The configuration the scheduler (and its workers) run under.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, SchedInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Holds campaign admission closed: a caller deciding between
    /// dedup-acknowledge and a fresh `admit_campaign` takes this across
    /// both steps so an identical concurrent submit cannot slip between
    /// its lookup and its insert.
    pub fn admission_gate(&self) -> std::sync::MutexGuard<'_, ()> {
        self.admission.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a job by key.
    #[must_use]
    pub fn job(&self, key: &str) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned()
    }

    /// Every job currently in the table.
    #[must_use]
    pub fn all_jobs(&self) -> Vec<Arc<Job>> {
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect()
    }

    /// Admits an interactive deck run. On success the caller waits on
    /// the returned job.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Busy`] when the interactive queue is full,
    /// [`AdmitError::Draining`] during drain.
    pub fn admit_interactive(
        &self,
        tenant: &str,
        deck: String,
        deadline: Duration,
    ) -> Result<Arc<Job>, AdmitError> {
        let t0 = Instant::now();
        let result = self.admit_interactive_inner(tenant, deck, deadline);
        self.metrics.admission_ms.record(t0.elapsed());
        result
    }

    fn admit_interactive_inner(
        &self,
        tenant: &str,
        deck: String,
        deadline: Duration,
    ) -> Result<Arc<Job>, AdmitError> {
        let seq = self.interactive_seq.fetch_add(1, Ordering::Relaxed);
        let key = format!("{tenant}/int-{seq}");
        let job = Job::new(
            key.clone(),
            tenant.to_string(),
            JobClass::Interactive,
            JobSpec::Deck { deck, deadline },
            None,
            1,
            0,
            Vec::new(),
            false,
        );
        {
            let mut inner = self.lock_inner();
            if inner.draining {
                self.counters.bump(Counter::Shed);
                return Err(AdmitError::Draining);
            }
            if inner.interactive.len() >= self.cfg.queue_interactive {
                self.counters.bump(Counter::Shed);
                return Err(AdmitError::Busy("interactive queue full"));
            }
            inner.interactive.push_back(Unit {
                job: Arc::clone(&job),
                index: 0,
            });
        }
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, Arc::clone(&job));
        self.counters.bump(Counter::AcceptedInteractive);
        self.work.notify_one();
        Ok(job)
    }

    /// Admits a campaign job. The accept is journaled (fsync) before
    /// this returns, so a crash after the caller's `accepted` reply
    /// cannot lose the job. `pending_units` lists the chunk indices
    /// still to run (resume passes the incomplete subset);
    /// `already_done` is the number of chunks the manifest proved
    /// complete.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Busy`] at the batch cap, [`AdmitError::Draining`]
    /// during drain, [`AdmitError::Duplicate`] on key collision, and
    /// [`AdmitError::Journal`] when the accept cannot be made durable.
    #[allow(clippy::too_many_arguments)]
    pub fn admit_campaign(
        &self,
        tenant: &str,
        id: &str,
        spec: CampaignSpec,
        pending_units: Vec<usize>,
        already_done: usize,
        resumed: bool,
    ) -> Result<Arc<Job>, AdmitError> {
        let t0 = Instant::now();
        let result =
            self.admit_campaign_inner(tenant, id, spec, pending_units, already_done, resumed);
        self.metrics.admission_ms.record(t0.elapsed());
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn admit_campaign_inner(
        &self,
        tenant: &str,
        id: &str,
        spec: CampaignSpec,
        pending_units: Vec<usize>,
        already_done: usize,
        resumed: bool,
    ) -> Result<Arc<Job>, AdmitError> {
        let key = format!("{tenant}/{id}");
        {
            let jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            if jobs.contains_key(&key) {
                return Err(AdmitError::Duplicate);
            }
        }
        let total = spec.chunk_count();
        let dir = self.cfg.state_dir.join("jobs").join(tenant).join(id);
        // Chunks not in `pending_units` were proven complete on disk by
        // the manifest scan — the watch frontier starts past them, so a
        // re-subscribing client replays resumed history seamlessly.
        let mut complete = vec![true; total];
        for &k in &pending_units {
            if let Some(cell) = complete.get_mut(k) {
                *cell = false;
            }
        }
        let job = Job::new(
            key.clone(),
            tenant.to_string(),
            JobClass::Batch,
            JobSpec::Campaign(spec.clone()),
            Some(dir),
            total,
            already_done,
            complete,
            resumed,
        );
        {
            let mut inner = self.lock_inner();
            if inner.draining {
                self.counters.bump(Counter::Shed);
                return Err(AdmitError::Draining);
            }
            // Resumed jobs were admitted (and journaled) by a previous
            // daemon; the cap applies to new admissions only.
            if !resumed && inner.batch_jobs >= self.cfg.queue_batch {
                self.counters.bump(Counter::Shed);
                return Err(AdmitError::Busy("batch queue full"));
            }
            if !resumed {
                // Durability before acceptance: the reply the caller
                // sends after this promises the job survives any crash.
                // A failed append fails *closed*: the submission is
                // refused (`busy` on the wire) rather than held
                // memory-only, and the journal rolls back the partial
                // line so no ghost accept survives a restart.
                self.journal
                    .append_accept(&key, tenant, id, &spec)
                    .map_err(|e| {
                        self.counters.bump(Counter::JournalRefusals);
                        AdmitError::Journal(e.to_string())
                    })?;
            }
            inner.batch_jobs += 1;
            for k in &pending_units {
                inner.batch.push_back(Unit {
                    job: Arc::clone(&job),
                    index: *k,
                });
            }
        }
        if pending_units.is_empty() {
            // Everything was already complete on disk (resume of a job
            // killed between its last chunk and its finish record).
            job.with_state(|s| s.done_units = s.total_units);
        }
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, Arc::clone(&job));
        self.counters.bump(Counter::AcceptedBatch);
        if resumed {
            self.counters.bump(Counter::ResumedJobs);
            self.counters
                .add(Counter::ResumedChunksSkipped, already_done as u64);
        }
        self.work.notify_all();
        Ok(job)
    }

    /// Weighted round-robin selection under the lock (`None` when both
    /// queues are empty).
    fn pick_locked(&self, inner: &mut SchedInner) -> Option<Unit> {
        match (inner.interactive.is_empty(), inner.batch.is_empty()) {
            (false, true) => {
                inner.since_batch += 1;
                inner.interactive.pop_front()
            }
            (true, false) => {
                inner.since_batch = 0;
                inner.batch.pop_front()
            }
            (false, false) => {
                if inner.since_batch >= self.cfg.interactive_weight {
                    inner.since_batch = 0;
                    inner.batch.pop_front()
                } else {
                    inner.since_batch += 1;
                    inner.interactive.pop_front()
                }
            }
            (true, true) => None,
        }
    }

    /// Fair-share dispatch: blocks for the next unit, `None` on
    /// shutdown. Units of already-terminal jobs are skipped here so a
    /// cancelled campaign's queued chunks never reach a worker.
    #[must_use]
    pub fn next_unit(&self) -> Option<Unit> {
        let mut inner = self.lock_inner();
        loop {
            if inner.shutdown {
                return None;
            }
            match self.pick_locked(&mut inner) {
                Some(unit) if unit.job.is_done() => continue, // cancelled while queued
                Some(unit) => return Some(unit),
                None => {
                    inner = self
                        .work
                        .wait_timeout(inner, Duration::from_millis(100))
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            }
        }
    }

    /// Non-blocking [`Scheduler::next_unit`]: `None` when no runnable
    /// unit is queued right now.
    #[must_use]
    pub fn try_next_unit(&self) -> Option<Unit> {
        let mut inner = self.lock_inner();
        loop {
            match self.pick_locked(&mut inner) {
                Some(unit) if unit.job.is_done() => continue,
                other => return other,
            }
        }
    }

    /// Records a job's terminal outcome: counters, journal finish entry
    /// (campaigns), waiter wakeup, and release of its batch slot.
    pub fn finish_job(&self, job: &Job, outcome: Outcome) {
        // First writer wins; only that writer books counters/journal.
        let job_wall = job.with_state(|s| {
            if matches!(s.phase, JobPhase::Done(_)) {
                None
            } else {
                s.phase = JobPhase::Done(outcome.clone());
                s.timeline.mark_finalized();
                let ms = s.timeline.finalized_ms.unwrap_or(s.timeline.accepted_ms)
                    - s.timeline.accepted_ms;
                Some(Duration::from_secs_f64((ms / 1e3).max(0.0)))
            }
        });
        job.cv.notify_all();
        let Some(job_wall) = job_wall else {
            return;
        };
        self.metrics
            .job_ms
            .get(job.class.metrics_class())
            .record(job_wall);
        self.counters.count_outcome(&outcome);
        if job.class == JobClass::Batch {
            // Best-effort on purpose: a finish record that never lands
            // only means the job replays on the next restart — the
            // chunk manifest then skips all completed work and the
            // rerun is idempotent (byte-identical result CSV).
            if let Err(e) = self.journal.append_finish(&job.key, outcome.status()) {
                eprintln!("[serve] finish record for {} not journaled: {e}", job.key);
            }
            let mut inner = self.lock_inner();
            inner.batch_jobs = inner.batch_jobs.saturating_sub(1);
        }
    }

    /// Remote cancellation of `key`. `counter` attributes the reason
    /// (explicit / disconnect). Returns whether the job existed
    /// and was still live.
    pub fn cancel(&self, key: &str, counter: Counter) -> bool {
        let Some(job) = self.job(key) else {
            return false;
        };
        if job.is_done() {
            return false;
        }
        // The handle first: anything mid-corner observes it via its
        // corner token at the next budget check.
        job.handle.cancel();
        self.counters.bump(counter);
        self.finish_job(&job, Outcome::Cancelled);
        true
    }

    /// Graceful drain: stop admissions, shed queued interactive work
    /// with `draining`, drop queued campaign chunks (their jobs stay
    /// journaled as accepted, so a restarted daemon resumes them), and
    /// tell workers to exit after their current unit.
    pub fn drain(&self) {
        let t0 = Instant::now();
        let (interactive, _batch) = {
            let mut inner = self.lock_inner();
            inner.draining = true;
            inner.shutdown = true;
            (
                std::mem::take(&mut inner.interactive),
                std::mem::take(&mut inner.batch),
            )
        };
        for unit in interactive {
            self.finish_job(&unit.job, Outcome::Draining);
        }
        // Queued batch units are dropped without touching their jobs:
        // the journal has their accept and the manifest has their
        // completed chunks; resume picks up exactly the remainder.
        self.work.notify_all();
        self.metrics.drain_ms.record(t0.elapsed());
    }

    /// One coherent point-in-time view of the daemon, which both the
    /// `stats` reply and the `metrics` verb render: counters in a single
    /// pass, queue gauges and the drain flag under the scheduler lock,
    /// uptime, and every registry histogram.
    #[must_use]
    pub fn metrics_doc(&self) -> MetricsDoc {
        let (gauges, draining) = {
            let inner = self.lock_inner();
            let gauges = vec![
                ("queue_interactive", inner.interactive.len() as f64),
                ("queue_batch_units", inner.batch.len() as f64),
                ("batch_jobs_in_flight", inner.batch_jobs as f64),
            ];
            (gauges, inner.draining)
        };
        MetricsDoc {
            uptime_ms: self.started.elapsed().as_secs_f64() * 1e3,
            draining,
            counters: self.counters.fields(),
            gauges,
            histograms: self.metrics.snapshot(),
        }
    }

    /// The journal (for replay at startup).
    #[must_use]
    pub fn journal(&self) -> &Journal {
        &self.journal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(dir: &std::path::Path) -> ServerConfig {
        let mut cfg = ServerConfig::from_env();
        cfg.state_dir = dir.to_path_buf();
        cfg.queue_interactive = 2;
        cfg.queue_batch = 1;
        cfg.interactive_weight = 2;
        cfg
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sched-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec(points: usize, chunk: usize) -> CampaignSpec {
        CampaignSpec {
            deck: "d\nV1 a 0 0\nR1 a 0 1k\n.end\n".into(),
            source: "V1".into(),
            start: 0.0,
            stop: 1.0,
            points,
            chunk,
        }
    }

    #[test]
    fn admission_sheds_beyond_caps() {
        let dir = temp_dir("caps");
        let sched = Scheduler::new(test_config(&dir));
        let deadline = Duration::from_secs(1);
        assert!(sched
            .admit_interactive("t", "deck".into(), deadline)
            .is_ok());
        assert!(sched
            .admit_interactive("t", "deck".into(), deadline)
            .is_ok());
        assert!(matches!(
            sched.admit_interactive("t", "deck".into(), deadline),
            Err(AdmitError::Busy(_))
        ));
        assert!(sched
            .admit_campaign("t", "c1", spec(4, 2), vec![0, 1], 0, false)
            .is_ok());
        assert!(matches!(
            sched.admit_campaign("t", "c2", spec(4, 2), vec![0, 1], 0, false),
            Err(AdmitError::Busy(_))
        ));
        assert!(matches!(
            sched.admit_campaign("t", "c1", spec(4, 2), vec![0, 1], 0, false),
            Err(AdmitError::Duplicate)
        ));
        assert_eq!(sched.counters.get(Counter::Shed), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_on_accept_fails_closed_with_zero_journal_mutation() {
        let dir = temp_dir("enospc");
        let sched = Scheduler::new(test_config(&dir));
        spicier::chaos::with_failpoints("journal.append=enospc@1", || {
            let err = sched.admit_campaign("t", "c1", spec(4, 2), vec![0, 1], 0, false);
            assert!(matches!(err, Err(AdmitError::Journal(_))), "{err:?}");
        });
        // Fail closed means *nothing* changed: no journal file, no job
        // table entry, no queued units, and the refusal was counted.
        assert!(!sched.journal().path().exists());
        assert!(sched.job("t/c1").is_none());
        assert!(sched.try_next_unit().is_none());
        assert_eq!(sched.counters.get(Counter::JournalRefusals), 1);
        assert_eq!(sched.counters.get(Counter::AcceptedBatch), 0);
        // The same submission goes through once the disk recovers, and
        // the journal replays it as open.
        sched
            .admit_campaign("t", "c1", spec(4, 2), vec![0, 1], 0, false)
            .unwrap();
        let (recovered, report) = sched.journal().replay();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].key, "t/c1");
        assert_eq!(report.corrupt_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fair_share_interleaves_classes_by_weight() {
        let dir = temp_dir("fair");
        let mut cfg = test_config(&dir);
        cfg.queue_interactive = 16;
        let sched = Scheduler::new(cfg);
        // 4 interactive units + one 4-chunk campaign, weight 2.
        for _ in 0..4 {
            sched
                .admit_interactive("t", "deck".into(), Duration::from_secs(1))
                .unwrap();
        }
        sched
            .admit_campaign("t", "c", spec(8, 2), vec![0, 1, 2, 3], 0, false)
            .unwrap();
        let order: Vec<JobClass> = (0..8)
            .map(|_| sched.next_unit().unwrap().job.class)
            .collect();
        // Weight 2: I I B I I B B B.
        assert_eq!(
            order,
            vec![
                JobClass::Interactive,
                JobClass::Interactive,
                JobClass::Batch,
                JobClass::Interactive,
                JobClass::Interactive,
                JobClass::Batch,
                JobClass::Batch,
                JobClass::Batch,
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_marks_job_and_workers_skip_its_units() {
        let dir = temp_dir("cancel");
        let sched = Scheduler::new(test_config(&dir));
        let job = sched
            .admit_campaign("t", "c", spec(4, 2), vec![0, 1], 0, false)
            .unwrap();
        assert!(sched.cancel("t/c", Counter::DisconnectCancels));
        assert!(job.handle.is_cancelled());
        assert!(job.is_done());
        // Both queued units are skipped; an interactive unit queued after
        // is still reachable, proving next_unit doesn't block on them.
        sched
            .admit_interactive("t", "deck".into(), Duration::from_secs(1))
            .unwrap();
        let unit = sched.next_unit().unwrap();
        assert_eq!(unit.job.class, JobClass::Interactive);
        // Second cancel is a no-op.
        assert!(!sched.cancel("t/c", Counter::DisconnectCancels));
        assert_eq!(sched.counters.get(Counter::DisconnectCancels), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_sheds_queued_interactive_and_keeps_batch_journaled() {
        let dir = temp_dir("drain");
        let sched = Scheduler::new(test_config(&dir));
        let ijob = sched
            .admit_interactive("t", "deck".into(), Duration::from_secs(1))
            .unwrap();
        let bjob = sched
            .admit_campaign("t", "c", spec(4, 2), vec![0, 1], 0, false)
            .unwrap();
        sched.drain();
        assert!(matches!(
            ijob.snapshot().phase,
            JobPhase::Done(Outcome::Draining)
        ));
        // The campaign job is *not* terminal — it stays accepted in the
        // journal for the next daemon to resume.
        assert!(!bjob.is_done());
        assert!(sched.next_unit().is_none(), "workers told to exit");
        assert!(matches!(
            sched.admit_interactive("t", "d".into(), Duration::from_secs(1)),
            Err(AdmitError::Draining)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_snapshot_is_coherent_and_metrics_doc_is_schema_stable() {
        let dir = temp_dir("statsnap");
        let sched = Scheduler::new(test_config(&dir));
        sched
            .admit_interactive("t", "deck".into(), Duration::from_secs(1))
            .unwrap();
        sched
            .admit_campaign("t", "c", spec(4, 2), vec![0, 1], 0, false)
            .unwrap();
        let fields = sched.metrics_doc().stats_fields();
        let field = |name: &str| fields.iter().find(|&&(k, _)| k == name).map(|&(_, v)| v);
        assert_eq!(field("accepted_interactive"), Some(1.0));
        assert_eq!(field("accepted_batch"), Some(1.0));
        assert_eq!(field("queue_interactive"), Some(1.0));
        assert_eq!(field("queue_batch_units"), Some(2.0));
        assert_eq!(field("batch_jobs_in_flight"), Some(1.0));
        assert!(field("uptime_ms").is_some_and(|v| v >= 0.0));
        // Both admissions went through the timed edge, and the journal
        // fsync for the campaign accept reached its observer histogram.
        assert_eq!(sched.metrics.admission_ms.snapshot().count, 2);
        assert!(sched.metrics.journal_sync_ms.snapshot().count >= 1);
        let doc = sched.metrics_doc().to_json();
        assert_eq!(
            doc.str_field("schema").as_deref(),
            Some(metrics::SCHEMA),
            "{}",
            doc.render()
        );
        assert_eq!(
            doc.get("gauges").unwrap().num_field("queue_batch_units"),
            Some(2.0)
        );
        assert_eq!(
            doc.get("counters").unwrap().num_field("accepted_batch"),
            Some(1.0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
