//! `serve`: the campaign daemon under a mixed closed-loop load from one
//! client thread of this process — interactive `run` requests of
//! FIG3-chain decks (70% `.op`, 30% one-period `.tran`) back to back,
//! with DC-sweep campaign jobs spread evenly between them, each followed
//! to `done` before the next request goes out. The only workload through
//! admission, the fsync'd journal, the scheduler and the framing:
//! compute-bound interactive reads and fsync-bound batch writes in one
//! fixed sequence, so a gain for one that costs the other shows in
//! `wall_s`.
//!
//! Nothing of the load overlaps. With two callers at once on a two-vCPU
//! host, a request's latency was mostly how the kernel shared the vCPUs
//! among client, connection and worker threads: it moved with the host's
//! load far more than the daemon's own work did.
//!
//! The daemon is this binary re-executed as `--serve-daemon`, which runs
//! the same `cml_bench::server::daemon::serve` entry point as the
//! `spicier-serve` binary.

use crate::calib::{self, Clock, Interval, Mark, Model, Sampler};
use crate::circuits::{self, FIG3_FREQS};
use crate::counts::Counts;
use crate::report::{self, EndToEnd, Json, Outcome};
use crate::rounds::repeated_setup;
use crate::{probe, trace, Config, OUT_DIR};
use cml_bench::server::client::{Client, WatchOutcome};
use cml_bench::server::proto::CampaignSpec;
use cml_bench::server::{daemon, ServerConfig};
use cml_cells::CmlProcess;
use spicier::analysis::dc::{operating_point, sweep_vsource, DcOptions};
use spicier::analysis::tran::{transient, TranOptions};
use spicier::spice::{parse_deck, write_deck};
use spicier::Circuit;
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use xrand::StdRng;

/// Of every ten interactive requests, seven are `.op` and three `.tran`.
const BLOCK: usize = 10;
const OPS_PER_BLOCK: usize = 7;
/// The load is a fixed amount of work per second of `--seconds`, sized so
/// it takes about two thirds of `--seconds` on the reference host in its
/// slow phase, short of the time cap: the daemon keeps every finished
/// job's output, so its memory grows with the number of jobs, and a
/// time-bounded load would charge a faster daemon more memory. No new
/// work starts once the run's time cap has passed.
const INTERACTIVE_PER_SECOND: f64 = 110.0;
const BATCH_PER_SECOND: f64 = 2.75;
/// Requests block on the daemon, a second process, so the wall clock
/// times them. Client and daemon share the measured CPU, and nearly all
/// of their time follows its speed: over 96 runs spread across the host's
/// phases, `wall_s` stopped moving with the speed at a share of 0.9 and
/// `p50_ms` at 1 (at 0.6, ten-run medians moved 21% with the phase), and
/// over seven later sets of ten runs 0.9 kept every median within 10%. A
/// set-up is mostly process start-up, which follows it far less: in a
/// fast phase it took 5.7 ms, in a slow one 7.5 ms, and at a share of 1
/// three sets of ten runs read `setup_s` medians up to 26% apart; 0.4
/// brought them within 5%.
const MODEL: Model = Model {
    clock: Clock::Wall,
    fp_share: 0.9,
    setup_clock: Clock::Wall,
    setup_fp_share: 0.4,
};
/// Points and chunk size of each batch job's DC sweep of `Vap`.
const SWEEP_POINTS: usize = 64;
const SWEEP_CHUNK: usize = 4;
/// `.op` replies must match the in-process solution this closely, volts.
const OP_TOLERANCE_V: f64 = 1.0e-6;
const TENANT: &str = "perf";

/// `--serve-daemon`: the daemon entry point, configured by the
/// `SERVE_ADDR` / `SERVE_STATE_DIR` / `SERVE_WORKERS` the parent sets.
pub fn daemon_main() -> ExitCode {
    match daemon::serve(ServerConfig::from_env()) {
        Ok(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        Err(e) => {
            eprintln!("[serve] fatal: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One FIG3-chain variant, as decks and as the in-process reference.
struct Deck {
    label: String,
    circuit: Circuit,
    t_stop: f64,
    op_text: String,
    tran_text: String,
    /// `(node name, volts)` of the in-process operating point.
    reference: Vec<(String, f64)>,
}

/// The FIG3 chain at every paper frequency, fault-free and with a seeded
/// 1–5 kΩ pipe on `DUT.Q3`, through `spice::write_deck`.
fn decks(seed: u64) -> Result<Vec<Deck>, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for freq in FIG3_FREQS {
        let pipe_ohms = rng.gen_range(1.0e3..5.0e3);
        for pipe in [None, Some(pipe_ohms)] {
            let (_, circuit) = circuits::fig3(freq, pipe).map_err(|e| e.to_string())?;
            let label = format!(
                "fig3 {:.0} MHz pipe {:?}",
                freq / 1e6,
                pipe.map(|r| r.round())
            );
            let text = write_deck(circuit.netlist(), &label);
            let body = text
                .strip_suffix(".end\n")
                .ok_or("write_deck: no .end card")?;
            let t_stop = 1.0 / freq;
            let sol =
                operating_point(&circuit, &DcOptions::default()).map_err(|e| e.to_string())?;
            let reference = circuit
                .node_ids()
                .skip(1)
                .map(|n| (circuit.node_name(n).to_string(), sol.voltage(n)))
                .collect();
            out.push(Deck {
                op_text: format!("{body}.op\n.end\n"),
                tran_text: format!("{body}.tran {:e} {t_stop:e}\n.end\n", t_stop / 200.0),
                label,
                circuit,
                t_stop,
                reference,
            });
        }
    }
    Ok(out)
}

fn sweep_spec(deck: &Deck) -> CampaignSpec {
    let p = CmlProcess::paper();
    CampaignSpec {
        deck: deck.op_text.clone(),
        source: "Vap".to_string(),
        start: p.vlow(),
        stop: p.vhigh(),
        points: SWEEP_POINTS,
        chunk: SWEEP_CHUNK,
    }
}

/// A spawned daemon; killed and reaped on drop unless drained first.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(state_dir: &Path, workers: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(state_dir);
        std::fs::create_dir_all(state_dir)
            .map_err(|e| format!("create {}: {e}", state_dir.display()))?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .arg("--serve-daemon")
            .env("SERVE_ADDR", "tcp:127.0.0.1:0")
            .env("SERVE_STATE_DIR", state_dir)
            .env("SERVE_WORKERS", workers.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        daemon.addr = wait_for_addr(state_dir)?;
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Graceful drain; waits up to 20 s for the exit, then kills.
    fn drain(mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.drain();
        }
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(20) {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Drop kills and reaps.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The address the daemon writes to `<state_dir>/ADDR` once it listens.
/// Polled every millisecond: `Client::wait_for_addr` polls every 20 ms,
/// which would put a 0–20 ms step of chance into every set-up.
fn wait_for_addr(state_dir: &Path) -> Result<String, String> {
    let path = state_dir.join("ADDR");
    let t0 = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(&path) {
            if !text.trim().is_empty() {
                return Ok(text.trim().to_string());
            }
        }
        if t0.elapsed() > Duration::from_secs(20) {
            return Err(format!("no ADDR file at {} after 20 s", path.display()));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Set-up: decks and references built, daemon spawned and listening (its
/// address published).
fn setup(cfg: &Config, state_dir: &Path, workers: usize) -> Result<(Vec<Deck>, Daemon), String> {
    let decks = decks(cfg.seed)?;
    let daemon = Daemon::spawn(state_dir, workers)?;
    Ok((decks, daemon))
}

/// The daemon answers a first `ping`. Off the set-up clock: the daemon's
/// accept loop polls every 20 ms, so the first connection waits 0–20 ms
/// by how the daemon's start happens to line up with that poll, which
/// would make set-up time a coin toss between two values.
fn ping(daemon: &Daemon) -> Result<(), String> {
    let mut client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let pong = client.ping().map_err(|e| format!("ping: {e}"))?;
    if pong.str_field("status").as_deref() != Some("ok") {
        return Err(format!("ping: {}", pong.render()));
    }
    Ok(())
}

/// Parses the `V(name) = value` lines of a `.op` reply and compares
/// every node with the in-process reference.
fn check_op(deck: &Deck, output: &str) -> Result<(), String> {
    let parsed: Vec<(&str, f64)> = output
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("V(")?;
            let (name, value) = rest.split_once(") = ")?;
            Some((name, value.trim().parse().ok()?))
        })
        .collect();
    for (name, want) in &deck.reference {
        match parsed.iter().find(|(n, _)| n == name) {
            Some((_, got)) if (got - want).abs() <= OP_TOLERANCE_V => {}
            Some((_, got)) => {
                return Err(format!(
                    "{}: V({name}) = {got}, in-process {want}",
                    deck.label
                ))
            }
            None => return Err(format!("{}: V({name}) missing from the reply", deck.label)),
        }
    }
    Ok(())
}

/// A `.tran` reply must carry the CSV of a completed run: a header and
/// at least one row per tenth of the 200 default steps.
fn check_tran(deck: &Deck, output: &str) -> Result<(), String> {
    let rows = output
        .lines()
        .skip_while(|l| !l.starts_with("time,"))
        .count();
    if rows > 20 {
        Ok(())
    } else {
        Err(format!("{}: .tran reply has {rows} CSV lines", deck.label))
    }
}

/// The connection in `slot`, opened on first use (and after an error
/// dropped it).
fn connected<'a>(slot: &'a mut Option<Client>, addr: &str) -> std::io::Result<&'a mut Client> {
    if slot.is_none() {
        *slot = Some(Client::connect(addr)?);
    }
    Ok(slot.as_mut().expect("connection opened above"))
}

/// What one kind of request saw: every request (`None` if it failed),
/// whether spans were on for it, and the failures.
#[derive(Default)]
struct Stream {
    ops: Vec<Option<Interval>>,
    traced: Vec<bool>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Stream {
    fn record(&mut self, traced: bool, took: Interval, result: Result<(), String>) {
        self.attempted += 1;
        let op = match result {
            Ok(()) => Some(took),
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(e);
                }
                None
            }
        };
        self.ops.push(op);
        self.traced.push(traced);
    }

    /// Milliseconds (reference-host) of the requests sent with spans on
    /// (`traced`) or off; a failed one is `+∞`.
    fn ms(&self, sampler: &Sampler, traced: bool) -> Vec<f64> {
        self.ops
            .iter()
            .zip(&self.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(op, _)| op.map_or(f64::INFINITY, |iv| sampler.seconds(iv) * 1e3))
            .collect()
    }
}

/// Sends one interactive `run` request of `text`; the reply's `output`,
/// or why the request failed.
fn run_request(
    slot: &mut Option<Client>,
    addr: &str,
    deck: &Deck,
    text: &str,
) -> Result<String, String> {
    match connected(slot, addr).and_then(|c| c.run(TENANT, text, None)) {
        Err(e) => {
            *slot = None;
            Err(format!("{}: {e}", deck.label))
        }
        Ok(r) if r.str_field("status").as_deref() != Some("ok") => Err(format!(
            "{}: {}",
            deck.label,
            r.str_field("status").unwrap_or_default()
        )),
        Ok(r) => Ok(r.str_field("output").unwrap_or_default()),
    }
}

/// The whole load, one request at a time: the interactive requests back
/// to back, seven `.op` to three `.tran` in every block of ten, with the
/// batch jobs spread evenly between them (job `j` goes out before request
/// `j × requests / jobs`). In a traced run every other block of
/// requests, and the jobs sent during it, record spans; at least one
/// block of each kind is sent. Returns the interactive and the batch
/// requests' streams.
fn load(cfg: &Config, addr: &str, decks: &[Deck], started: Instant) -> (Stream, Stream) {
    let (mut inter, mut bat) = (Stream::default(), Stream::default());
    let (mut run_client, mut job_client) = (None, None);
    let min_requests = if cfg.trace { 2 * BLOCK } else { 1 };
    let requests = cfg.work(INTERACTIVE_PER_SECOND).max(min_requests);
    let jobs = cfg.work(BATCH_PER_SECOND);
    let mut run_decks = DeckCycle::new(cfg.seed ^ 0x1a7e_5eed, decks.len());
    let mut job_decks = DeckCycle::new(cfg.seed ^ 0xba7c_5eed, decks.len());
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0b10_c5ed);
    let mut block: Vec<bool> = Vec::new();
    let mut sent_jobs = 0;
    for k in 0..requests {
        if k >= min_requests && cfg.overran(started) {
            break;
        }
        let traced = cfg.trace && (k / BLOCK) % 2 == 1;
        if k % BLOCK == 0 {
            trace::set_enabled(traced);
        }
        while sent_jobs < jobs && sent_jobs * requests <= k * jobs {
            sent_jobs += 1;
            let deck = &decks[job_decks.next(true)];
            let _span = trace::span("campaign job");
            let t = Mark::now();
            let result = connected(&mut job_client, addr)
                .map_err(|e| format!("connect: {e}"))
                .and_then(|c| batch_job(c, &format!("job{sent_jobs}"), &sweep_spec(deck)));
            if result.is_err() {
                job_client = None;
            }
            bat.record(traced, Interval::since(t), result);
        }
        if block.is_empty() {
            block = (0..BLOCK).map(|i| i < OPS_PER_BLOCK).collect();
            rng.shuffle(&mut block);
        }
        let is_op = block.pop().expect("block refilled above");
        let deck = &decks[run_decks.next(is_op)];
        let _span = trace::span(&format!(
            "run {} {}",
            if is_op { ".op" } else { ".tran" },
            deck.label
        ));
        let text = if is_op {
            &deck.op_text
        } else {
            &deck.tran_text
        };
        let t = Mark::now();
        let reply = run_request(&mut run_client, addr, deck, text);
        let took = Interval::since(t);
        let result = reply.and_then(|output| {
            if is_op {
                check_op(deck, &output)
            } else {
                check_tran(deck, &output)
            }
        });
        inter.record(traced, took, result);
    }
    (inter, bat)
}

/// Submits one sweep job and follows it to `done`; checks the outcome
/// and that all 64 rows arrived.
fn batch_job(client: &mut Client, id: &str, spec: &CampaignSpec) -> Result<(), String> {
    let accepted = client
        .submit_campaign(TENANT, id, spec)
        .map_err(|e| format!("submit: {e}"))?;
    if accepted.str_field("status").as_deref() != Some("accepted") {
        return Err(format!("submit {id}: {}", accepted.render()));
    }
    let job = format!("{TENANT}/{id}");
    let mut rows = 0u64;
    let outcome = client
        .watch(&job, 1, |ev| {
            rows += ev.u64_field("row_count").unwrap_or(0);
            true
        })
        .map_err(|e| format!("watch {job}: {e}"))?;
    match outcome {
        WatchOutcome::Done(done) if done.str_field("outcome").as_deref() == Some("ok") => {
            if rows == SWEEP_POINTS as u64 {
                Ok(())
            } else {
                Err(format!("{job}: {rows} rows, expected {SWEEP_POINTS}"))
            }
        }
        WatchOutcome::Done(done) => Err(format!("{job}: {}", done.render())),
        other => Err(format!("{job}: stream ended {other:?}")),
    }
}

/// Deck choice that spreads each request kind evenly over every deck:
/// each kind walks its own seeded permutation of the decks, drawing a
/// fresh one when it runs out. The mix a run sends is then the same for
/// every seed, in a seeded order.
struct DeckCycle {
    rng: StdRng,
    n: usize,
    left: [Vec<usize>; 2],
}

impl DeckCycle {
    fn new(seed: u64, n: usize) -> Self {
        DeckCycle {
            rng: StdRng::seed_from_u64(seed),
            n,
            left: [Vec::new(), Vec::new()],
        }
    }

    fn next(&mut self, kind: bool) -> usize {
        let left = &mut self.left[usize::from(kind)];
        if left.is_empty() {
            *left = (0..self.n).collect();
            self.rng.shuffle(left);
        }
        left.pop().expect("refilled above")
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let state_root = Path::new(OUT_DIR).join("serve");
    // Client and daemon share the one CPU the sampler measures (the
    // daemon inherits the pin), but the daemon keeps the worker pool it
    // would size for the whole machine: with one worker, the interactive
    // request after each batch job waited for that job's journal fsync.
    let workers = ServerConfig::from_env().workers;
    let mut sampler = Sampler::start(vec![calib::pin_first()?], MODEL)?;
    let mut setups = 0usize;
    let ((decks, daemon), setup_ivs) = repeated_setup(cfg.setups, || {
        setups += 1;
        setup(cfg, &state_root.join(format!("state{setups}")), workers)
    })?;
    // Only the last set-up's daemon serves the load; each earlier one was
    // killed when the next replaced it.
    ping(&daemon)?;
    let pid = daemon.pid();
    let cpu0 = report::cpu_seconds(&pid)?;
    let started = Mark::now();
    let (inter, bat) = load(cfg, &daemon.addr, &decks, started.at);
    let phase = Interval::since(started);
    trace::set_enabled(false);
    sampler.finish();
    let daemon_cpu_s = report::cpu_seconds(&pid)? - cpu0;
    let metrics_doc = Client::connect(&daemon.addr)
        .and_then(|mut c| c.metrics())
        .map_err(|e| format!("metrics scrape: {e}"))?;
    let rss = report::peak_rss_mb(&pid)?;
    daemon.drain();

    let mut out = Outcome::default();
    for s in [&inter, &bat] {
        out.attempted += s.attempted;
        out.failed += s.failed;
        for f in &s.failures {
            out.fail(f.clone());
        }
    }
    if !cfg.trace {
        // `wall_s` is the whole fixed load end to end; the latencies are
        // the interactive requests'.
        let sent = inter.attempted as usize;
        EndToEnd {
            setups: &setup_ivs,
            work: &[phase],
            done: sent,
            planned: cfg.work(INTERACTIVE_PER_SECOND),
            ops: &inter.ops,
            peak_rss_mb: rss,
        }
        .push(&mut out, &sampler);
        return Ok(out);
    }

    // The daemon's histograms are wall-clock, so the client side of
    // `server.wire_ms.p50` is too.
    let client_ms: Vec<f64> = inter
        .ops
        .iter()
        .map(|op| op.map_or(f64::INFINITY, |iv| iv.wall_s() * 1e3))
        .collect();
    push_server_metrics(&mut out, &metrics_doc, &client_ms)?;
    // The daemon's CPU against the one CPU it may use.
    out.push("sweep.cpu_s", daemon_cpu_s, 1);
    out.push(
        "sweep.parallel_efficiency",
        daemon_cpu_s / phase.wall_s(),
        1,
    );
    replay_layers(&mut out, &decks)?;
    out.push(
        "trace_overhead",
        report::median(&inter.ms(&sampler, true)) / report::median(&inter.ms(&sampler, false)),
        inter.traced.iter().filter(|&&t| t).count(),
    );
    out.push("host.speed", sampler.speed(phase.from, phase.to), 1);
    out.not_applicable(&["experiments"]);
    Ok(out)
}

/// The daemon's own view from its `metrics` verb: each row reads the
/// `p50_ms` or `p99_ms` the histogram's JSON carries.
fn push_server_metrics(out: &mut Outcome, doc: &Json, client_ms: &[f64]) -> Result<(), String> {
    let hists = doc
        .get("histograms")
        .ok_or("metrics scrape: no histograms")?;
    let hist = |name: &str, class: Option<&str>| {
        let top = hists.get(name);
        match class {
            Some(c) => top.and_then(|t| t.get(c)),
            None => top,
        }
        .ok_or(format!("metrics scrape: no {name} histogram"))
    };
    let rows: [(&str, &str, Option<&str>, &str); 9] = [
        ("server.admission_ms.p50", "admission_ms", None, "p50_ms"),
        (
            "server.journal_sync_ms.p99",
            "journal_sync_ms",
            None,
            "p99_ms",
        ),
        (
            "server.queue_wait_ms.interactive.p99",
            "queue_wait_ms",
            Some("interactive"),
            "p99_ms",
        ),
        (
            "server.queue_wait_ms.batch.p50",
            "queue_wait_ms",
            Some("batch"),
            "p50_ms",
        ),
        (
            "server.execute_ms.interactive.p50",
            "execute_ms",
            Some("interactive"),
            "p50_ms",
        ),
        (
            "server.execute_ms.batch.p50",
            "execute_ms",
            Some("batch"),
            "p50_ms",
        ),
        ("server.finalize_ms.p50", "finalize_ms", None, "p50_ms"),
        (
            "server.job_ms.interactive.p99",
            "job_ms",
            Some("interactive"),
            "p99_ms",
        ),
        ("server.job_ms.batch.p50", "job_ms", Some("batch"), "p50_ms"),
    ];
    for (metric, name, class, field) in rows {
        let h = hist(name, class)?;
        let count = h.num_field("count").unwrap_or(0.0) as usize;
        out.push(metric, h.num_field(field).unwrap_or(0.0), count);
    }
    let job_p50 = hist("job_ms", Some("interactive"))?
        .num_field("p50_ms")
        .unwrap_or(0.0);
    out.push(
        "server.wire_ms.p50",
        report::median(client_ms) - job_p50,
        client_ms.len(),
    );
    let shed = doc
        .get("counters")
        .and_then(|c| c.num_field("shed"))
        .ok_or("metrics scrape: no shed counter")?;
    out.push("server.shed", shed, 1);
    Ok(())
}

/// Solver counts and the layer probe for the daemon's work, replayed in
/// this process through the same analysis calls its runner and sweep
/// chunks make: one `.op` and one `.tran` of every deck, and one batch
/// job's sweep (cold, point by point, as the chunks run it).
fn replay_layers(out: &mut Outcome, decks: &[Deck]) -> Result<(), String> {
    let e = |e: spicier::Error| e.to_string();
    let t = Instant::now();
    let mut items = Vec::with_capacity(decks.len());
    let mut per_round = Counts::default();
    let mut sols = Vec::with_capacity(decks.len());
    for deck in decks {
        let _span = trace::span(&format!("replay {}", deck.label));
        let sol = operating_point(&deck.circuit, &DcOptions::default()).map_err(e)?;
        let op = Counts::dc(sol.telemetry());
        let res = transient(&deck.circuit, &TranOptions::new(deck.t_stop)).map_err(e)?;
        // The transient's own result omits its operating point's Newton
        // counts, which are the `.op`'s.
        let mut tran = Counts::tran(res.telemetry());
        tran.dc_newton = op.dc_newton;
        tran.rungs = op.rungs;
        let mut c = op;
        c.add(&tran);
        per_round.add(&c);
        items.push(c);
        sols.push(sol);
    }
    let spec = sweep_spec(&decks[0]);
    let circuit = parse_deck(&spec.deck)
        .and_then(|d| d.netlist.compile())
        .map_err(e)?;
    for v in spec.values() {
        for sol in sweep_vsource(&circuit, &spec.source, &[v], &DcOptions::default()).map_err(e)? {
            let c = Counts::dc(sol.telemetry());
            per_round.add(&c);
            items[0].add(&c);
        }
    }
    let replay_s = t.elapsed().as_secs_f64();
    per_round.push_metrics(out);
    let mut probed = Vec::with_capacity(decks.len());
    for ((deck, sol), counts) in decks.iter().zip(&sols).zip(items) {
        let _span = trace::span(&format!("probe {}", deck.label));
        probed.push((probe::probe(&deck.circuit, sol)?, counts));
    }
    probe::push_layer_metrics(&probed, replay_s, out);
    Ok(())
}
