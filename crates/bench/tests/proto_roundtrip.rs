//! Property-style wire-protocol drills: every `Request` variant must
//! survive render → parse → re-parse bit-for-bit (including the framed
//! form), malformed frames must be rejected with a reason rather than
//! misparsed, and the watch event frames must carry self-verifying
//! digests through the same pipe.

use cml_bench::experiments::manifest::fnv64;
use cml_bench::server::proto::{read_frame, write_frame, CampaignSpec, Request, MAX_FRAME};
use cml_bench::server::watch::{chunk_event, lagged_frame, ping_event};
use spicier::json::Json;
use xrand::StdRng;

/// A random path-safe name (`valid_name` charset, 1..=16 chars).
fn gen_name(rng: &mut StdRng) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";
    let len = rng.gen_range(1usize..17);
    (0..len)
        .map(|_| *rng.choose(CHARS).unwrap() as char)
        .collect()
}

/// A random deck string that exercises JSON escaping: newlines, quotes,
/// backslashes, tabs, control chars, and non-ASCII.
fn gen_deck(rng: &mut StdRng) -> String {
    const PIECES: &[&str] = &[
        "R1 in out 1k\n",
        ".dc V1 0 3.3 0.1\n",
        "* \"quoted\" comment \\ with backslash\n",
        "\t.end\n",
        "* unicode: µA/°C Ω\n",
        "* ctrl:\u{1}\u{1f}\n",
        "",
    ];
    let n = rng.gen_range(1usize..6);
    (0..n).map(|_| *rng.choose(PIECES).unwrap()).collect()
}

/// A random but representable spec: floats are arbitrary finite values
/// (the renderer uses shortest-round-trip formatting), counts stay in
/// exact-f64 range.
fn gen_spec(rng: &mut StdRng) -> CampaignSpec {
    CampaignSpec {
        deck: gen_deck(rng),
        source: gen_name(rng),
        start: (rng.next_f64() - 0.5) * 1e3,
        stop: (rng.next_f64() - 0.5) * 1e6,
        points: rng.gen_range(1usize..10_000),
        chunk: rng.gen_range(1usize..512),
    }
}

fn gen_request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0u32..9) {
        0 => Request::Ping,
        1 => Request::Run {
            tenant: gen_name(rng),
            deck: gen_deck(rng),
            deadline_ms: if rng.gen_bool(0.5) {
                Some(rng.gen_range(1u64..1 << 32))
            } else {
                None
            },
        },
        2 => Request::Campaign {
            tenant: gen_name(rng),
            id: gen_name(rng),
            spec: gen_spec(rng),
        },
        3 => Request::Poll {
            job: format!("{}/{}", gen_name(rng), gen_name(rng)),
        },
        4 => Request::Cancel {
            job: format!("{}/{}", gen_name(rng), gen_name(rng)),
        },
        5 => Request::Watch {
            job: format!("{}/{}", gen_name(rng), gen_name(rng)),
            from_seq: rng.gen_range(1u64..1 << 32),
        },
        6 => Request::Stats,
        7 => Request::Metrics,
        _ => Request::Drain,
    }
}

#[test]
fn every_request_variant_round_trips_through_the_wire() {
    let mut rng = StdRng::seed_from_u64(0xD1CE_u64);
    let mut seen = [0u32; 9];
    for _ in 0..500 {
        let req = gen_request(&mut rng);
        seen[match &req {
            Request::Ping => 0,
            Request::Run { .. } => 1,
            Request::Campaign { .. } => 2,
            Request::Poll { .. } => 3,
            Request::Cancel { .. } => 4,
            Request::Watch { .. } => 5,
            Request::Stats => 6,
            Request::Metrics => 7,
            Request::Drain => 8,
        }] += 1;

        // Document level: render → parse → from_json is identity.
        let doc = req.to_json();
        let reparsed = Json::parse(&doc.render()).expect("rendered request parses");
        let back = Request::from_json(&reparsed).expect("reparsed request converts");
        assert_eq!(back, req, "doc round trip: {}", doc.render());

        // Frame level: the length-prefixed wire form is transparent.
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc).unwrap();
        let framed = read_frame(&mut &buf[..]).unwrap().expect("one frame");
        assert_eq!(Request::from_json(&framed).unwrap(), req);
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "generator must cover every variant: {seen:?}"
    );
}

#[test]
fn campaign_spec_fingerprint_is_stable_across_the_wire() {
    let mut rng = StdRng::seed_from_u64(0xF1D0_u64);
    for _ in 0..200 {
        let spec = gen_spec(&mut rng);
        let reparsed =
            CampaignSpec::from_json(&Json::parse(&spec.to_json().render()).unwrap()).unwrap();
        assert_eq!(
            reparsed.fingerprint(),
            spec.fingerprint(),
            "a spec must dedup against its own wire echo"
        );
    }
}

#[test]
fn malformed_request_frames_are_rejected_with_reasons() {
    let cases: &[(&str, &str)] = &[
        (r#"{}"#, "missing kind"),
        (r#"{"kind":"teleport"}"#, "unknown request kind"),
        (r#"{"kind":"run","tenant":"t"}"#, "missing deck"),
        (r#"{"kind":"run","deck":".end"}"#, "missing tenant"),
        (
            r#"{"kind":"run","tenant":"../evil","deck":".end"}"#,
            "invalid tenant",
        ),
        (
            r#"{"kind":"campaign","tenant":"t","id":"a/b","deck":"d","source":"V1","start":0,"stop":1,"points":4}"#,
            "invalid job id",
        ),
        (
            r#"{"kind":"campaign","tenant":"t","id":"j","source":"V1","start":0,"stop":1,"points":4}"#,
            "missing deck",
        ),
        (
            r#"{"kind":"campaign","tenant":"t","id":"j","deck":"d","source":"V1","start":0,"stop":1}"#,
            "missing points",
        ),
        (
            r#"{"kind":"campaign","tenant":"t","id":"j","deck":"d","source":"V1","start":0,"stop":1,"points":0}"#,
            "points must be >= 1",
        ),
        (r#"{"kind":"poll"}"#, "missing job"),
        (r#"{"kind":"cancel"}"#, "missing job"),
        (r#"{"kind":"watch","from_seq":3}"#, "missing job"),
        // Verbs are case-sensitive: `METRICS` is not the metrics scrape.
        (r#"{"kind":"METRICS"}"#, "unknown request kind"),
        (r#"{"kind":"metrics "}"#, "unknown request kind"),
    ];
    for (text, want) in cases {
        let doc = Json::parse(text).expect("case is syntactically valid JSON");
        let err = Request::from_json(&doc).expect_err(text);
        assert!(err.contains(want), "{text}: got {err:?}, want {want:?}");
    }

    // Watch seq hygiene: an absent or zero from_seq clamps to 1 (seqs
    // are 1-based), it never round-trips as a nonsense 0.
    for text in [
        r#"{"kind":"watch","job":"t/j"}"#,
        r#"{"kind":"watch","job":"t/j","from_seq":0}"#,
    ] {
        let req = Request::from_json(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(
            req,
            Request::Watch {
                job: "t/j".to_string(),
                from_seq: 1
            },
            "{text}"
        );
    }
}

#[test]
fn oversize_and_truncated_frames_are_rejected_not_misread() {
    // Length prefix claiming more than MAX_FRAME: refused before any
    // allocation, with a protocol error rather than a bad parse.
    let mut oversize = Vec::from(((MAX_FRAME as u32) + 1).to_be_bytes());
    oversize.extend_from_slice(b"{}");
    let err = read_frame(&mut &oversize[..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");

    // Truncated body: the header promises more bytes than arrive.
    let mut torn = Vec::new();
    write_frame(&mut torn, &Request::Ping.to_json()).unwrap();
    torn.truncate(torn.len() - 3);
    let err = read_frame(&mut &torn[..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");

    // Truncated length prefix: a peer that dies mid-header is an error,
    // while zero bytes is a clean EOF (`None`).
    let err = read_frame(&mut &[0u8, 0u8][..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    assert_eq!(read_frame(&mut &b""[..]).unwrap(), None);

    // A frame whose body is not valid JSON is a protocol error.
    let body = b"not json";
    let mut bad = Vec::from((body.len() as u32).to_be_bytes());
    bad.extend_from_slice(body);
    let err = read_frame(&mut &bad[..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");

    // Non-UTF-8 bytes inside a well-formed frame are rejected too.
    let body = [0xFFu8, 0xFE, 0xFD];
    let mut bad = Vec::from((body.len() as u32).to_be_bytes());
    bad.extend_from_slice(&body);
    let err = read_frame(&mut &bad[..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
}

#[test]
fn timeline_bearing_replies_round_trip_through_the_wire() {
    use cml_bench::server::metrics::Timeline;
    use std::time::Duration;

    // A partially-executed resumed campaign: 4 chunk slots, chunks 1
    // and 2 timed this incarnation, 0 and 3 still null.
    let mut timeline = Timeline::new(4, true);
    assert!(timeline.mark_running().is_some());
    assert!(timeline.record_chunk(1, Duration::from_millis(12)));
    assert!(timeline.record_chunk(2, Duration::from_millis(48)));
    let reply = Json::obj(vec![
        ("status", Json::str("running")),
        ("job", Json::str("t/j")),
        ("done_chunks", Json::num(2.0)),
        ("total_chunks", Json::num(4.0)),
        ("resumed", Json::Bool(true)),
        ("timeline", timeline.to_json()),
    ]);

    let mut buf = Vec::new();
    write_frame(&mut buf, &reply).unwrap();
    let framed = read_frame(&mut &buf[..]).unwrap().expect("one frame");
    assert_eq!(framed.render(), reply.render(), "frame is transparent");

    let tl = framed.get("timeline").expect("timeline attached");
    assert_eq!(tl.get("resumed").and_then(Json::as_bool), Some(true));
    assert!(tl.num_field("accepted_ms").unwrap() > 0.0);
    assert!(tl.num_field("running_ms").unwrap() >= tl.num_field("accepted_ms").unwrap());
    assert_eq!(tl.get("finalized_ms"), Some(&Json::Null));
    assert_eq!(tl.num_field("chunks_timed"), Some(2.0));
    assert!((tl.num_field("chunk_total_ms").unwrap() - 60.0).abs() < 1e-9);
    let chunks = tl.get("chunk_ms").and_then(Json::as_arr).unwrap();
    assert_eq!(chunks.len(), 4);
    assert_eq!(chunks[0], Json::Null);
    assert_eq!(chunks[1].as_f64(), Some(12.0));
    assert_eq!(chunks[2].as_f64(), Some(48.0));
    assert_eq!(chunks[3], Json::Null);

    // Terminal reply: finalize stamps once, re-records are refused, and
    // the finalized document still round-trips bit-for-bit.
    timeline.mark_finalized();
    assert!(!timeline.record_chunk(1, Duration::from_millis(99)));
    let done = Json::obj(vec![
        ("status", Json::str("ok")),
        ("job", Json::str("t/j")),
        ("resumed", Json::Bool(true)),
        ("timeline", timeline.to_json()),
    ]);
    let mut buf = Vec::new();
    write_frame(&mut buf, &done).unwrap();
    let framed = read_frame(&mut &buf[..]).unwrap().expect("one frame");
    assert_eq!(framed.render(), done.render());
    let tl = framed.get("timeline").unwrap();
    assert!(tl.num_field("finalized_ms").unwrap() >= tl.num_field("accepted_ms").unwrap());
    assert_eq!(
        tl.get("chunk_ms").and_then(Json::as_arr).unwrap()[1].as_f64(),
        Some(12.0),
        "re-record after finalize must not alter the slot"
    );
}

#[test]
fn watch_event_frames_round_trip_with_verifiable_digests() {
    let rows = "0.000000,0.000000,0.000000\n0.300000,0.300000,0.150000\n";
    let telemetry = Json::obj(vec![("lu_solves", Json::num(12.0))]);
    let mut buf = Vec::new();
    write_frame(&mut buf, &chunk_event("t/j", 3, rows, telemetry)).unwrap();
    write_frame(&mut buf, &ping_event("t/j")).unwrap();
    write_frame(&mut buf, &lagged_frame("t/j", 7)).unwrap();

    let mut cursor = &buf[..];
    let chunk = read_frame(&mut cursor).unwrap().unwrap();
    assert_eq!(chunk.str_field("status").as_deref(), Some("event"));
    assert_eq!(chunk.str_field("kind").as_deref(), Some("chunk"));
    assert_eq!(chunk.u64_field("seq"), Some(3));
    assert_eq!(chunk.u64_field("chunk"), Some(2));
    assert_eq!(chunk.u64_field("row_count"), Some(2));
    assert_eq!(chunk.str_field("rows").as_deref(), Some(rows));
    // The digest survives the wire and still verifies the payload.
    assert_eq!(
        chunk.str_field("digest").unwrap(),
        fnv64(&chunk.str_field("rows").unwrap())
    );
    assert!(chunk.num_field("sent_ms").unwrap() > 0.0);

    let ping = read_frame(&mut cursor).unwrap().unwrap();
    assert_eq!(ping.str_field("status").as_deref(), Some("event"));
    assert_eq!(ping.str_field("kind").as_deref(), Some("ping"));

    let lagged = read_frame(&mut cursor).unwrap().unwrap();
    assert_eq!(lagged.str_field("status").as_deref(), Some("lagged"));
    assert_eq!(lagged.u64_field("next_seq"), Some(7));
    assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
}
