//! Wire protocol of the campaign daemon: length-prefixed JSON frames
//! over a TCP or Unix-domain stream, plus the typed request model.
//!
//! A frame is a 4-byte big-endian length followed by exactly that many
//! bytes of UTF-8 JSON (one [`Json`] document). Responses are plain
//! objects whose `status` field is one of the [`status`] constants; the
//! other fields are documented on the daemon handlers.

use spicier::json::Json;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

/// Upper bound on a single frame; larger announcements are a protocol
/// error and close the connection.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Response `status` values. Every degraded outcome gets its own value
/// so clients (and the load harness) can tell them apart.
pub mod status {
    /// Request succeeded; payload fields are present.
    pub const OK: &str = "ok";
    /// Shed by admission control — retry later.
    pub const BUSY: &str = "busy";
    /// Campaign accepted and journaled; poll for progress.
    pub const ACCEPTED: &str = "accepted";
    /// Campaign still running.
    pub const RUNNING: &str = "running";
    /// Work executed but could not produce a result.
    pub const FAILED: &str = "failed";
    /// Cancelled remotely (explicit `cancel`, disconnect, or orphan
    /// heartbeat).
    pub const CANCELLED: &str = "cancelled";
    /// A request-level deadline expired.
    pub const TIMED_OUT: &str = "timed_out";
    /// Residual certification quarantined the solution.
    pub const QUARANTINED: &str = "quarantined";
    /// Daemon is draining; no new work is admitted.
    pub const DRAINING: &str = "draining";
    /// No such job.
    pub const UNKNOWN: &str = "unknown";
    /// One frame of a watch stream (`kind` is `chunk`, `done`, or
    /// `ping`).
    pub const EVENT: &str = "event";
    /// Watch subscriber demoted to poll mode for falling behind; the
    /// frame carries `next_seq`, the first event the client has not
    /// seen.
    pub const LAGGED: &str = "lagged";
}

/// Parameters of a DC-sweep campaign job. The sweep grid is
/// deterministic in the spec alone, which is what makes chunk-level
/// resume byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Full SPICE deck text (analysis cards ignored; the sweep below is
    /// what runs).
    pub deck: String,
    /// Name of the swept voltage source.
    pub source: String,
    /// First sweep value.
    pub start: f64,
    /// Last sweep value.
    pub stop: f64,
    /// Number of sweep points (≥ 1).
    pub points: usize,
    /// Corners per chunk — the unit of scheduling, manifest tracking,
    /// and resume (≥ 1).
    pub chunk: usize,
}

impl CampaignSpec {
    /// The full sweep grid, in order.
    #[must_use]
    pub fn values(&self) -> Vec<f64> {
        let n = self.points.max(1);
        (0..n)
            .map(|i| {
                if n == 1 {
                    self.start
                } else {
                    self.start + (self.stop - self.start) * (i as f64) / ((n - 1) as f64)
                }
            })
            .collect()
    }

    /// Number of chunks the grid splits into.
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        self.points.max(1).div_ceil(self.chunk.max(1))
    }

    /// Index range `[start, end)` of chunk `k` in the grid.
    #[must_use]
    pub fn chunk_range(&self, k: usize) -> (usize, usize) {
        let chunk = self.chunk.max(1);
        let start = k * chunk;
        (start, (start + chunk).min(self.points.max(1)))
    }

    /// Stable fingerprint of the spec — the input hash recorded in the
    /// per-job chunk manifest, so a resumed daemon redoes chunks whose
    /// spec changed.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        crate::experiments::manifest::fnv64(&format!(
            "{}|{}|{:e}|{:e}|{}|{}",
            self.deck, self.source, self.start, self.stop, self.points, self.chunk
        ))
    }

    /// Serializes the spec (journal and wire form).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("deck", Json::str(&self.deck)),
            ("source", Json::str(&self.source)),
            ("start", Json::num(self.start)),
            ("stop", Json::num(self.stop)),
            ("points", Json::num(self.points as f64)),
            ("chunk", Json::num(self.chunk as f64)),
        ])
    }

    /// Parses a spec from its wire form.
    ///
    /// # Errors
    ///
    /// Describes the first missing or invalid field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let deck = v.str_field("deck").ok_or("campaign: missing deck")?;
        let source = v.str_field("source").ok_or("campaign: missing source")?;
        let points = v.u64_field("points").ok_or("campaign: missing points")? as usize;
        if points == 0 {
            return Err("campaign: points must be >= 1".to_string());
        }
        Ok(Self {
            deck,
            source,
            start: v.num_field("start").ok_or("campaign: missing start")?,
            stop: v.num_field("stop").ok_or("campaign: missing stop")?,
            points,
            chunk: v.u64_field("chunk").unwrap_or(8).max(1) as usize,
        })
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Interactive deck run; the connection blocks until the result.
    Run {
        /// Tenant name (sanitized: `[A-Za-z0-9_-]`).
        tenant: String,
        /// Full SPICE deck text.
        deck: String,
        /// Optional per-request deadline override, milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Batch campaign submission; replies `accepted` immediately.
    Campaign {
        /// Tenant name.
        tenant: String,
        /// Client-chosen job id, unique per tenant.
        id: String,
        /// The sweep to run.
        spec: CampaignSpec,
    },
    /// Progress/result query for `job` (= `tenant/id`).
    Poll {
        /// Job key.
        job: String,
    },
    /// Remote cancellation of `job`.
    Cancel {
        /// Job key.
        job: String,
    },
    /// Subscription to `job`'s event stream starting at `from_seq`
    /// (1-based). The daemon replays every durable event with
    /// `seq >= from_seq` and then follows live until the terminal
    /// event, a `lagged` demotion, or drain.
    Watch {
        /// Job key.
        job: String,
        /// First event sequence number the client wants (1 = from the
        /// beginning).
        from_seq: u64,
    },
    /// Daemon counters.
    Stats,
    /// Full metrics scrape: the `spicier-serve-metrics-v1` document
    /// (counters, gauges, lifecycle histograms) plus its Prometheus
    /// text rendering.
    Metrics,
    /// Begin graceful drain (same path as SIGTERM).
    Drain,
}

/// Whether a tenant/job-id component is safe to use in paths and keys.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

impl Request {
    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// Describes the first missing or invalid field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let kind = v.str_field("kind").ok_or("missing kind")?;
        let tenant_of = |v: &Json| -> Result<String, String> {
            let t = v.str_field("tenant").ok_or("missing tenant")?;
            if valid_name(&t) {
                Ok(t)
            } else {
                Err(format!("invalid tenant {t:?}"))
            }
        };
        match kind.as_str() {
            "ping" => Ok(Request::Ping),
            "run" => Ok(Request::Run {
                tenant: tenant_of(v)?,
                deck: v.str_field("deck").ok_or("run: missing deck")?,
                deadline_ms: v.u64_field("deadline_ms"),
            }),
            "campaign" => {
                let id = v.str_field("id").ok_or("campaign: missing id")?;
                if !valid_name(&id) {
                    return Err(format!("invalid job id {id:?}"));
                }
                Ok(Request::Campaign {
                    tenant: tenant_of(v)?,
                    id,
                    spec: CampaignSpec::from_json(v)?,
                })
            }
            "poll" => Ok(Request::Poll {
                job: v.str_field("job").ok_or("poll: missing job")?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: v.str_field("job").ok_or("cancel: missing job")?,
            }),
            "watch" => Ok(Request::Watch {
                job: v.str_field("job").ok_or("watch: missing job")?,
                from_seq: v.u64_field("from_seq").unwrap_or(1).max(1),
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "drain" => Ok(Request::Drain),
            other => Err(format!("unknown request kind {other:?}")),
        }
    }

    /// Serializes the request to its wire form (used by the client).
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::obj(vec![("kind", Json::str("ping"))]),
            Request::Run {
                tenant,
                deck,
                deadline_ms,
            } => {
                let mut m = vec![
                    ("kind", Json::str("run")),
                    ("tenant", Json::str(tenant)),
                    ("deck", Json::str(deck)),
                ];
                if let Some(ms) = deadline_ms {
                    m.push(("deadline_ms", Json::num(*ms as f64)));
                }
                Json::obj(m)
            }
            Request::Campaign { tenant, id, spec } => {
                let mut members = vec![
                    ("kind".to_string(), Json::str("campaign")),
                    ("tenant".to_string(), Json::str(tenant)),
                    ("id".to_string(), Json::str(id)),
                ];
                if let Json::Obj(fields) = spec.to_json() {
                    members.extend(fields);
                }
                Json::Obj(members)
            }
            Request::Poll { job } => {
                Json::obj(vec![("kind", Json::str("poll")), ("job", Json::str(job))])
            }
            Request::Cancel { job } => {
                Json::obj(vec![("kind", Json::str("cancel")), ("job", Json::str(job))])
            }
            Request::Watch { job, from_seq } => Json::obj(vec![
                ("kind", Json::str("watch")),
                ("job", Json::str(job)),
                ("from_seq", Json::num(*from_seq as f64)),
            ]),
            Request::Stats => Json::obj(vec![("kind", Json::str("stats"))]),
            Request::Metrics => Json::obj(vec![("kind", Json::str("metrics"))]),
            Request::Drain => Json::obj(vec![("kind", Json::str("drain"))]),
        }
    }
}

// ---------------------------------------------------------------------------
// Stream / listener abstraction (TCP + Unix domain)
// ---------------------------------------------------------------------------

/// A connected byte stream, TCP or Unix-domain.
#[derive(Debug)]
pub enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
}

impl Stream {
    /// Connects to an address of the form `tcp:<host>:<port>`,
    /// `unix:<path>`, or a bare `host:port`.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: &str) -> std::io::Result<Stream> {
        if let Some(path) = addr.strip_prefix("unix:") {
            Ok(Stream::Unix(UnixStream::connect(path)?))
        } else {
            let hostport = addr.strip_prefix("tcp:").unwrap_or(addr);
            let s = TcpStream::connect(hostport)?;
            // Request/reply framing: Nagle only adds delayed-ACK stalls.
            let _ = s.set_nodelay(true);
            Ok(Stream::Tcp(s))
        }
    }

    /// Sets (or clears) the read timeout.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    /// Sets (or clears) the write timeout — the slow-consumer guard on
    /// watch streams: a subscriber that stops draining its socket makes
    /// the daemon's frame write block, and this bounds how long.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(dur),
            Stream::Unix(s) => s.set_write_timeout(dur),
        }
    }

    /// Shrinks the kernel send buffer (`SO_SNDBUF`) so a non-reading
    /// subscriber is detected after `bytes` of backlog instead of after
    /// megabytes of kernel buffering. Linux-only (raw `setsockopt`, no
    /// `libc` dependency); a no-op elsewhere.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    #[cfg(target_os = "linux")]
    pub fn set_send_buffer(&self, bytes: usize) -> std::io::Result<()> {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn setsockopt(
                fd: i32,
                level: i32,
                name: i32,
                value: *const core::ffi::c_void,
                len: u32,
            ) -> i32;
        }
        const SOL_SOCKET: i32 = 1;
        const SO_SNDBUF: i32 = 7;
        let fd = match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        };
        let val = i32::try_from(bytes).unwrap_or(i32::MAX);
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_SNDBUF,
                std::ptr::from_ref(&val).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
        if rc == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }

    /// See the Linux variant; no-op on other platforms.
    ///
    /// # Errors
    ///
    /// Never fails.
    #[cfg(not(target_os = "linux"))]
    pub fn set_send_buffer(&self, _bytes: usize) -> std::io::Result<()> {
        Ok(())
    }

    /// Clones the handle (shared underlying socket).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// Shuts down both directions (best effort).
    pub fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound listener, TCP or Unix-domain.
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener (path removed on drop by the daemon).
    Unix(UnixListener),
}

impl Listener {
    /// Binds `addr` (`tcp:<host>:<port>` with port 0 allowed, or
    /// `unix:<path>`); returns the listener and the concrete address a
    /// client should dial.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind(addr: &str) -> std::io::Result<(Listener, String)> {
        if let Some(path) = addr.strip_prefix("unix:") {
            // A stale socket file from a killed daemon blocks rebinding.
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            Ok((Listener::Unix(l), format!("unix:{path}")))
        } else {
            let hostport = addr.strip_prefix("tcp:").unwrap_or(addr);
            let l = TcpListener::bind(hostport)?;
            let actual = format!("tcp:{}", l.local_addr()?);
            Ok((Listener::Tcp(l), actual))
        }
    }

    /// Switches the listener to non-blocking accepts.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            Listener::Unix(l) => l.set_nonblocking(nb),
        }
    }

    /// Accepts one connection.
    ///
    /// # Errors
    ///
    /// Propagates accept errors (including `WouldBlock` when
    /// non-blocking).
    pub fn accept(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Listener::Tcp(l) => {
                let s = l.accept()?.0;
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
        })
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Writes one frame.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_frame(w: &mut impl Write, doc: &Json) -> std::io::Result<()> {
    let body = doc.render().into_bytes();
    let len = u32::try_from(body.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    // One write for header + body: two writes on a Nagle-enabled TCP
    // stream leave the body waiting on the peer's delayed ACK (~40ms
    // per request).
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(&body);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` means the peer closed the connection
/// cleanly before a new frame started.
///
/// # Errors
///
/// Propagates I/O errors (including read timeouts) and protocol errors
/// (oversized frame, invalid JSON).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Json>> {
    let mut len_buf = [0u8; 4];
    // First byte by hand so a clean EOF (0 bytes) is distinguishable
    // from a truncated length prefix.
    let n = r.read(&mut len_buf[..1])?;
    if n == 0 {
        return Ok(None);
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let text = String::from_utf8(body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Json::parse(&text)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let doc = Json::obj(vec![("kind", Json::str("ping")), ("n", Json::num(7.0))]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(doc));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::from(u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"xx");
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Ping,
            Request::Run {
                tenant: "t1".into(),
                deck: "d\nV1 a 0 1\n.op\n.end\n".into(),
                deadline_ms: Some(250),
            },
            Request::Campaign {
                tenant: "t2".into(),
                id: "job-7".into(),
                spec: CampaignSpec {
                    deck: "d\nV1 a 0 0\nR1 a 0 1k\n.end\n".into(),
                    source: "V1".into(),
                    start: 0.0,
                    stop: 3.3,
                    points: 12,
                    chunk: 4,
                },
            },
            Request::Poll {
                job: "t2/job-7".into(),
            },
            Request::Cancel {
                job: "t2/job-7".into(),
            },
            Request::Watch {
                job: "t2/job-7".into(),
                from_seq: 4,
            },
            Request::Stats,
            Request::Metrics,
            Request::Drain,
        ];
        for req in reqs {
            let wire = req.to_json();
            let back = Request::from_json(&wire).unwrap();
            assert_eq!(back, req, "{}", wire.render());
        }
    }

    #[test]
    fn invalid_names_are_rejected() {
        assert!(valid_name("tenant-1_a"));
        assert!(!valid_name(""));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("../etc"));
        let bad = Json::obj(vec![
            ("kind", Json::str("run")),
            ("tenant", Json::str("a/b")),
            ("deck", Json::str("x")),
        ]);
        assert!(Request::from_json(&bad).is_err());
    }

    #[test]
    fn campaign_chunking_covers_the_grid_exactly() {
        let spec = CampaignSpec {
            deck: String::new(),
            source: "V1".into(),
            start: 0.0,
            stop: 1.0,
            points: 10,
            chunk: 4,
        };
        assert_eq!(spec.chunk_count(), 3);
        assert_eq!(spec.chunk_range(0), (0, 4));
        assert_eq!(spec.chunk_range(2), (8, 10));
        let values = spec.values();
        assert_eq!(values.len(), 10);
        assert!((values[0] - 0.0).abs() < 1e-12);
        assert!((values[9] - 1.0).abs() < 1e-12);
        // Fingerprint is stable and spec-sensitive.
        let fp = spec.fingerprint();
        assert_eq!(fp, spec.fingerprint());
        let mut other = spec.clone();
        other.points = 11;
        assert_ne!(fp, other.fingerprint());
    }
}
