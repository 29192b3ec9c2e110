//! Client library for the campaign daemon: used by tests, the load
//! harness, and anything else that wants to talk to `spicier-serve`
//! without hand-rolling frames.
//!
//! Two layers:
//!
//! * [`Client`] — one connection, one request at a time, plus the
//!   [`Client::watch`] streaming call. Fails fast: any socket error is
//!   the caller's problem.
//! * [`RetryClient`] — the resilient layer. Idempotent requests (ping /
//!   poll / stats / cancel / watch, and campaign submission thanks to
//!   the server's dedup-by-fingerprint) are retried under a jittered
//!   exponential [`Backoff`] with a bounded retry budget, reconnecting
//!   as needed; watches resume automatically from the last seen seq, so
//!   a daemon SIGKILL + journal resume mid-stream is invisible to the
//!   caller beyond latency.
//!
//! The client is also where client-side chaos lives: under the
//! `client.drop` failpoint a request is written and the
//! socket slammed shut before the reply — the daemon must detect the
//! orphan and cancel its work.

use super::proto::{read_frame, write_frame, CampaignSpec, Request, Stream};
use spicier::chaos;
use spicier::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Client-side settings; [`Default`] gives the values documented per
/// field, and tests and the load harness override single fields.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Reply-read timeout for ordinary request/response round trips.
    /// Default 120 s (campaign finalize replies can trail a long solve).
    pub read_timeout: Duration,
    /// Per-read timeout while following a watch stream. Default 30 s —
    /// far above the daemon's keepalive cadence
    /// (`SERVE_WATCH_KEEPALIVE_MS`, 5 s), so a healthy-but-quiet stream
    /// never trips it and a dead daemon is detected in bounded time
    /// instead of after a silent 120 s cutoff.
    pub watch_idle_timeout: Duration,
    /// First backoff ceiling. Default 10 ms.
    pub backoff_base: Duration,
    /// Backoff ceiling cap. Default 500 ms.
    pub backoff_cap: Duration,
    /// Consecutive failures tolerated per idempotent operation before
    /// the error surfaces. Watch resumption resets the count whenever
    /// the stream makes progress. Default 6.
    pub retry_budget: u32,
    /// xrand seed for the jitter, so tests can pin the exact delay
    /// sequence. Default `0x5eed`.
    pub backoff_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(120),
            watch_idle_timeout: Duration::from_secs(30),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            retry_budget: 6,
            backoff_seed: 0x5eed,
        }
    }
}

/// Capped jittered exponential backoff: delay `n` is uniform in
/// `[ceil/2, ceil]` where `ceil = min(base * 2^n, cap)`. Jitter
/// de-synchronizes retry herds; the xrand seed makes the exact sequence
/// reproducible in tests.
#[derive(Debug)]
pub struct Backoff {
    rng: xrand::StdRng,
    base_ms: u64,
    cap_ms: u64,
    exp: u32,
}

impl Backoff {
    /// A fresh backoff sequence under `cfg`.
    #[must_use]
    pub fn new(cfg: &ClientConfig) -> Backoff {
        Backoff {
            rng: xrand::StdRng::seed_from_u64(cfg.backoff_seed),
            base_ms: cfg.backoff_base.as_millis().max(1) as u64,
            cap_ms: cfg.backoff_cap.as_millis().max(1) as u64,
            exp: 0,
        }
    }

    /// The next delay in the sequence (grows until the cap).
    pub fn next_delay(&mut self) -> Duration {
        let ceil = self
            .base_ms
            .saturating_mul(1u64 << self.exp.min(32))
            .clamp(1, self.cap_ms);
        if ceil < self.cap_ms {
            self.exp = self.exp.saturating_add(1);
        }
        let lo = (ceil / 2).max(1);
        let ms = self.rng.gen_range(lo..ceil + 1);
        Duration::from_millis(ms)
    }

    /// Back to the first (shortest) ceiling — call after success.
    pub fn reset(&mut self) {
        self.exp = 0;
    }
}

/// How a [`Client::watch`] stream ended (socket errors surface as `Err`
/// instead).
#[derive(Debug)]
pub enum WatchOutcome {
    /// Terminal event received; the full `done` frame is attached.
    Done(Json),
    /// The daemon demoted this subscriber via the slow-consumer policy;
    /// re-subscribe from `next_seq` (or poll) when able to keep up.
    Lagged {
        /// First undelivered seq.
        next_seq: u64,
    },
    /// The daemon is draining; a restarted daemon can resume the
    /// stream.
    Draining,
    /// The caller's event handler returned `false`.
    Stopped {
        /// First undelivered seq.
        next_seq: u64,
    },
}

/// A connection to the daemon.
#[derive(Debug)]
pub struct Client {
    stream: Stream,
    cfg: ClientConfig,
}

impl Client {
    /// Connects to `addr` (`tcp:host:port`, `unix:/path`, or bare
    /// `host:port`) with the default [`ClientConfig`].
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Self::connect_with(addr, &ClientConfig::default())
    }

    /// Connects with explicit knobs.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect_with(addr: &str, cfg: &ClientConfig) -> std::io::Result<Client> {
        let stream = Stream::connect(addr)?;
        stream.set_read_timeout(Some(cfg.read_timeout))?;
        Ok(Client {
            stream,
            cfg: cfg.clone(),
        })
    }

    /// Reads the daemon's `ADDR` file under `state_dir`, waiting up to
    /// `timeout` for it to appear (port-0 startup races).
    ///
    /// # Errors
    ///
    /// Times out if the daemon never writes the file.
    pub fn wait_for_addr(state_dir: &Path, timeout: Duration) -> std::io::Result<String> {
        let path = state_dir.join("ADDR");
        let t0 = Instant::now();
        loop {
            if let Ok(text) = std::fs::read_to_string(&path) {
                let text = text.trim().to_string();
                if !text.is_empty() {
                    return Ok(text);
                }
            }
            if t0.elapsed() > timeout {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("no ADDR file at {} after {timeout:?}", path.display()),
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Writes one request frame under the drop-client chaos gate (the
    /// shared front half of [`Client::request`] and [`Client::watch`]).
    fn send(&mut self, doc: &Json) -> std::io::Result<()> {
        write_frame(&mut self.stream, doc)?;
        if chaos::fault("client.drop") {
            self.stream.shutdown();
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "chaos: client dropped after send",
            ));
        }
        Ok(())
    }

    /// One request/response round trip. Under drop-client chaos the
    /// request is sent, the socket is shut down, and `BrokenPipe` is
    /// returned without reading a reply.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a clean server-side close surfaces as
    /// `UnexpectedEof`.
    pub fn request(&mut self, req: &Request) -> std::io::Result<Json> {
        self.send(&req.to_json())?;
        read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed connection",
            )
        })
    }

    /// Writes a request frame without reading any reply — test probes
    /// (e.g. a watch subscriber that deliberately never drains its
    /// socket) build on this.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn send_request_raw(&mut self, req: &Request) -> std::io::Result<()> {
        write_frame(&mut self.stream, &req.to_json())
    }

    /// Sends only the first `bytes` bytes of the request's frame and
    /// keeps the connection open — a hand-rolled slowloris/truncation
    /// probe for tests.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn send_truncated(&mut self, req: &Request, bytes: usize) -> std::io::Result<()> {
        let body = req.to_json().render().into_bytes();
        let len = u32::try_from(body.len())
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame"))?;
        let mut frame = Vec::from(len.to_be_bytes());
        frame.extend_from_slice(&body);
        frame.truncate(bytes.max(1));
        self.stream.write_all(&frame)?;
        self.stream.flush()
    }

    /// Sets the reply-read timeout (long campaigns, short probes).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn set_read_timeout(&mut self, dur: Duration) -> std::io::Result<()> {
        self.stream.set_read_timeout(Some(dur))
    }

    /// Closes the socket without protocol niceties.
    pub fn shutdown(&mut self) {
        self.stream.shutdown();
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn ping(&mut self) -> std::io::Result<Json> {
        self.request(&Request::Ping)
    }

    /// Interactive deck run (blocks until the daemon replies).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn run(
        &mut self,
        tenant: &str,
        deck: &str,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<Json> {
        self.request(&Request::Run {
            tenant: tenant.to_string(),
            deck: deck.to_string(),
            deadline_ms,
        })
    }

    /// Campaign submission; returns the `accepted`/`busy` reply.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn submit_campaign(
        &mut self,
        tenant: &str,
        id: &str,
        spec: &CampaignSpec,
    ) -> std::io::Result<Json> {
        self.request(&Request::Campaign {
            tenant: tenant.to_string(),
            id: id.to_string(),
            spec: spec.clone(),
        })
    }

    /// One poll of `job`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn poll(&mut self, job: &str) -> std::io::Result<Json> {
        self.request(&Request::Poll {
            job: job.to_string(),
        })
    }

    /// Polls `job` until it leaves the `running` state or `timeout`
    /// elapses; returns the terminal reply. Poll pacing is the capped
    /// jittered [`Backoff`], so an idle waiter backs off to the cap
    /// instead of hammering the daemon at a fixed cadence.
    ///
    /// # Errors
    ///
    /// `TimedOut` if the job does not finish in time; otherwise
    /// propagates I/O errors.
    pub fn wait_job(&mut self, job: &str, timeout: Duration) -> std::io::Result<Json> {
        let t0 = Instant::now();
        let mut backoff = Backoff::new(&self.cfg);
        loop {
            let reply = self.poll(job)?;
            let status = reply.str_field("status").unwrap_or_default();
            if status != super::proto::status::RUNNING {
                return Ok(reply);
            }
            if t0.elapsed() > timeout {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("job {job} still running after {timeout:?}"),
                ));
            }
            std::thread::sleep(backoff.next_delay());
        }
    }

    /// Remote cancellation of `job`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn cancel(&mut self, job: &str) -> std::io::Result<Json> {
        self.request(&Request::Cancel {
            job: job.to_string(),
        })
    }

    /// Daemon counters.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn stats(&mut self) -> std::io::Result<Json> {
        self.request(&Request::Stats)
    }

    /// Full metrics scrape: the `spicier-serve-metrics-v1` document
    /// (counters, gauges, lifecycle histograms, Prometheus text).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn metrics(&mut self) -> std::io::Result<Json> {
        self.request(&Request::Metrics)
    }

    /// Begins graceful drain.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn drain(&mut self) -> std::io::Result<Json> {
        self.request(&Request::Drain)
    }

    /// Subscribes to `job`'s event stream from `from_seq` and feeds
    /// every `chunk`/`ping` event frame to `on_event` (return `false`
    /// to stop). Returns how the stream ended; the connection is usable
    /// for ordinary requests again afterwards.
    ///
    /// # Errors
    ///
    /// A refused subscription (unknown job, bad `from_seq`) and any
    /// socket error surface here; an idle stream trips
    /// [`ClientConfig::watch_idle_timeout`] (`TimedOut`/`WouldBlock`)
    /// only if the daemon's keepalive pings stop too.
    pub fn watch(
        &mut self,
        job: &str,
        from_seq: u64,
        mut on_event: impl FnMut(&Json) -> bool,
    ) -> std::io::Result<WatchOutcome> {
        self.send(
            &Request::Watch {
                job: job.to_string(),
                from_seq,
            }
            .to_json(),
        )?;
        self.stream
            .set_read_timeout(Some(self.cfg.watch_idle_timeout))?;
        let outcome = self.watch_frames(from_seq, &mut on_event);
        let _ = self.stream.set_read_timeout(Some(self.cfg.read_timeout));
        outcome
    }

    /// Frame loop behind [`Client::watch`] (split out so the caller can
    /// restore the read timeout on every exit path).
    fn watch_frames(
        &mut self,
        from_seq: u64,
        on_event: &mut impl FnMut(&Json) -> bool,
    ) -> std::io::Result<WatchOutcome> {
        let eof = || std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "watch stream closed");
        let ack = read_frame(&mut self.stream)?.ok_or_else(eof)?;
        let status = ack.str_field("status").unwrap_or_default();
        if status != super::proto::status::OK {
            return Err(std::io::Error::other(format!(
                "watch refused: {}",
                ack.render()
            )));
        }
        let mut last_seq = from_seq.saturating_sub(1);
        loop {
            let frame = read_frame(&mut self.stream)?.ok_or_else(eof)?;
            match frame.str_field("status").unwrap_or_default().as_str() {
                super::proto::status::EVENT => {
                    let kind = frame.str_field("kind").unwrap_or_default();
                    if kind == "done" {
                        return Ok(WatchOutcome::Done(frame));
                    }
                    if let Some(seq) = frame.u64_field("seq") {
                        last_seq = seq;
                    }
                    if !on_event(&frame) {
                        return Ok(WatchOutcome::Stopped {
                            next_seq: last_seq + 1,
                        });
                    }
                }
                super::proto::status::LAGGED => {
                    return Ok(WatchOutcome::Lagged {
                        next_seq: frame.u64_field("next_seq").unwrap_or(last_seq + 1),
                    });
                }
                super::proto::status::DRAINING => return Ok(WatchOutcome::Draining),
                _ => {
                    return Err(std::io::Error::other(format!(
                        "unexpected watch frame: {}",
                        frame.render()
                    )));
                }
            }
        }
    }
}

/// The resilient layer: owns an address instead of a socket, lazily
/// (re)connects, and retries idempotent operations under the jittered
/// backoff with a bounded budget. Campaign submission is idempotent
/// end-to-end because the daemon dedups by job key + spec fingerprint.
#[derive(Debug)]
pub struct RetryClient {
    addr: String,
    cfg: ClientConfig,
    conn: Option<Client>,
}

impl RetryClient {
    /// A retrying client for `addr` with the default [`ClientConfig`].
    #[must_use]
    pub fn new(addr: &str) -> RetryClient {
        Self::with_config(addr, ClientConfig::default())
    }

    /// A retrying client with explicit knobs.
    #[must_use]
    pub fn with_config(addr: &str, cfg: ClientConfig) -> RetryClient {
        RetryClient {
            addr: addr.to_string(),
            cfg,
            conn: None,
        }
    }

    fn ensure_conn(&mut self) -> std::io::Result<&mut Client> {
        if self.conn.is_none() {
            self.conn = Some(Client::connect_with(&self.addr, &self.cfg)?);
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    /// Sends `req`, reconnecting and retrying on any I/O error up to
    /// the retry budget. Only safe for idempotent requests — which is
    /// every request this daemon serves except `run` (and `drain`,
    /// which is idempotent but deliberately not retried here: callers
    /// drain once, explicitly).
    ///
    /// # Errors
    ///
    /// The last I/O error once the retry budget is exhausted.
    pub fn request_idempotent(&mut self, req: &Request) -> std::io::Result<Json> {
        let mut backoff = Backoff::new(&self.cfg);
        let mut attempts: u32 = 0;
        loop {
            let result = match self.ensure_conn() {
                Ok(conn) => conn.request(req),
                Err(e) => Err(e),
            };
            match result {
                Ok(doc) => return Ok(doc),
                Err(e) => {
                    // The connection's state is unknown after any error;
                    // always rebuild.
                    self.conn = None;
                    attempts += 1;
                    if attempts > self.cfg.retry_budget {
                        return Err(e);
                    }
                    std::thread::sleep(backoff.next_delay());
                }
            }
        }
    }

    /// Liveness probe with retries.
    ///
    /// # Errors
    ///
    /// Retry budget exhausted.
    pub fn ping(&mut self) -> std::io::Result<Json> {
        self.request_idempotent(&Request::Ping)
    }

    /// One poll of `job`, with retries.
    ///
    /// # Errors
    ///
    /// Retry budget exhausted.
    pub fn poll(&mut self, job: &str) -> std::io::Result<Json> {
        self.request_idempotent(&Request::Poll {
            job: job.to_string(),
        })
    }

    /// Cancels `job`, with retries (cancelling a done job is a no-op on
    /// the daemon, so retrying a cancel whose reply was lost is safe).
    ///
    /// # Errors
    ///
    /// Retry budget exhausted.
    pub fn cancel(&mut self, job: &str) -> std::io::Result<Json> {
        self.request_idempotent(&Request::Cancel {
            job: job.to_string(),
        })
    }

    /// Daemon counters, with retries.
    ///
    /// # Errors
    ///
    /// Retry budget exhausted.
    pub fn stats(&mut self) -> std::io::Result<Json> {
        self.request_idempotent(&Request::Stats)
    }

    /// Full metrics scrape, with retries (a scrape is read-only and
    /// safely idempotent).
    ///
    /// # Errors
    ///
    /// Retry budget exhausted.
    pub fn metrics(&mut self) -> std::io::Result<Json> {
        self.request_idempotent(&Request::Metrics)
    }

    /// Idempotent campaign submission: a lost `accepted` reply is
    /// retried and answered by the daemon's dedup (same key + same spec
    /// fingerprint → `accepted {dedup: true}`), never double-run.
    ///
    /// # Errors
    ///
    /// Retry budget exhausted.
    pub fn submit_campaign(
        &mut self,
        tenant: &str,
        id: &str,
        spec: &CampaignSpec,
    ) -> std::io::Result<Json> {
        self.request_idempotent(&Request::Campaign {
            tenant: tenant.to_string(),
            id: id.to_string(),
            spec: spec.clone(),
        })
    }

    /// Polls `job` to a terminal status under the backoff pacing, with
    /// reconnect-retries on every poll.
    ///
    /// # Errors
    ///
    /// `TimedOut` when `timeout` elapses first; retry budget exhausted.
    pub fn wait_job(&mut self, job: &str, timeout: Duration) -> std::io::Result<Json> {
        let t0 = Instant::now();
        let mut backoff = Backoff::new(&self.cfg);
        loop {
            let reply = self.poll(job)?;
            let status = reply.str_field("status").unwrap_or_default();
            if status != super::proto::status::RUNNING {
                return Ok(reply);
            }
            if t0.elapsed() > timeout {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("job {job} still running after {timeout:?}"),
                ));
            }
            std::thread::sleep(backoff.next_delay());
        }
    }

    /// Watches `job` from `from_seq` until its terminal event, riding
    /// out disconnects, daemon restarts, and `lagged` demotions by
    /// re-subscribing from the next undelivered seq. Every event
    /// reaches `on_event` exactly once (the resume point only advances
    /// on delivered frames, and the server's replay is exact).
    ///
    /// # Errors
    ///
    /// Retry budget exhausted (consecutive failures with zero
    /// progress); `Interrupted` when `on_event` stops the stream.
    pub fn watch_job(
        &mut self,
        job: &str,
        from_seq: u64,
        mut on_event: impl FnMut(&Json) -> bool,
    ) -> std::io::Result<Json> {
        let mut next = from_seq.max(1);
        let mut backoff = Backoff::new(&self.cfg);
        let mut attempts: u32 = 0;
        loop {
            let before = next;
            let result = match self.ensure_conn() {
                Ok(conn) => conn.watch(job, next, |frame| {
                    if frame.str_field("kind").unwrap_or_default() == "chunk" {
                        if let Some(seq) = frame.u64_field("seq") {
                            next = next.max(seq + 1);
                        }
                    }
                    on_event(frame)
                }),
                Err(e) => Err(e),
            };
            match result {
                Ok(WatchOutcome::Done(done)) => return Ok(done),
                Ok(WatchOutcome::Stopped { .. }) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "watch stopped by event handler",
                    ));
                }
                Ok(WatchOutcome::Lagged { next_seq }) => {
                    // Demoted for falling behind while live: resume as
                    // catch-up replay (exempt from the lag budget) after
                    // a breather.
                    next = next.max(next_seq);
                    std::thread::sleep(backoff.next_delay());
                }
                Ok(WatchOutcome::Draining) => {
                    // The daemon is going down gracefully; wait for its
                    // successor and resume the same stream.
                    self.conn = None;
                    std::thread::sleep(backoff.next_delay());
                }
                Err(e) => {
                    self.conn = None;
                    attempts = if next > before { 0 } else { attempts + 1 };
                    if attempts > self.cfg.retry_budget {
                        return Err(e);
                    }
                    std::thread::sleep(backoff.next_delay());
                }
            }
            if next > before {
                attempts = 0;
                backoff.reset();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> ClientConfig {
        ClientConfig {
            read_timeout: Duration::from_secs(1),
            watch_idle_timeout: Duration::from_secs(1),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            retry_budget: 3,
            backoff_seed: seed,
        }
    }

    #[test]
    fn backoff_is_deterministic_for_a_seed() {
        let mut a = Backoff::new(&cfg(42));
        let mut b = Backoff::new(&cfg(42));
        let sa: Vec<Duration> = (0..12).map(|_| a.next_delay()).collect();
        let sb: Vec<Duration> = (0..12).map(|_| b.next_delay()).collect();
        assert_eq!(sa, sb);
        let mut c = Backoff::new(&cfg(43));
        let sc: Vec<Duration> = (0..12).map(|_| c.next_delay()).collect();
        assert_ne!(sa, sc, "different seeds should jitter differently");
    }

    #[test]
    fn backoff_grows_within_jitter_bounds_and_caps() {
        let mut b = Backoff::new(&cfg(7));
        // Ceilings: 10, 20, 40, 80, 160, 320, 500, 500, ...
        let ceilings = [10u64, 20, 40, 80, 160, 320, 500, 500, 500, 500];
        for (i, &ceil) in ceilings.iter().enumerate() {
            let d = b.next_delay().as_millis() as u64;
            assert!(
                d >= (ceil / 2).max(1) && d <= ceil,
                "delay {i} = {d} ms outside [{}, {ceil}]",
                ceil / 2
            );
        }
    }

    #[test]
    fn backoff_reset_returns_to_the_base_ceiling() {
        let mut b = Backoff::new(&cfg(1));
        for _ in 0..8 {
            let _ = b.next_delay();
        }
        b.reset();
        let d = b.next_delay().as_millis() as u64;
        assert!(d <= 10, "post-reset delay {d} ms should be <= base");
    }
}
