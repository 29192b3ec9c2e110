//! Byte-exact JSON string coding: what the daemon's frames carry.
//!
//! Strings with every escape class, raw control bytes, multi-byte UTF-8
//! and a long plain run render to pinned bytes and parse back equal;
//! malformed escapes and a non-UTF-8 frame body fail with pinned
//! messages.

use cml_bench::experiments::manifest::fnv64;
use cml_bench::server::proto::{read_frame, write_frame};
use spicier::json::Json;

/// Every byte below 0x20, then DEL.
fn control_bytes() -> String {
    (0u8..0x20).chain([0x7f]).map(char::from).collect()
}

/// A 64 KB CSV-like run without a byte that needs escaping: the shape of
/// a `.tran` reply's output table, minus its newlines.
fn plain_run() -> String {
    let mut s = String::with_capacity(1 << 16);
    let mut k = 0u32;
    while s.len() < 1 << 16 {
        s.push_str(&format!(
            "{:.6e},{:.6},",
            f64::from(k) * 5e-12,
            f64::from(k % 97) / 29.0
        ));
        k += 1;
    }
    s.truncate(1 << 16);
    s
}

#[test]
fn strings_render_to_pinned_bytes_and_parse_back() {
    let cases: [(&str, String, &str); 6] = [
        (
            "escapes",
            "q\"b\\n\nr\rt\t/".to_string(),
            r#""q\"b\\n\nr\rt\t/""#,
        ),
        (
            "controls",
            control_bytes(),
            concat!(
                r#""\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b"#,
                r#"\u000c\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017"#,
                r#"\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f"#,
                "\u{7f}\"",
            ),
        ),
        ("utf8", "é€🦀 µA Ω".to_string(), "\"é€🦀 µA Ω\""),
        ("empty", String::new(), "\"\""),
        (
            "mixed",
            "V(DUT.op)\n1.0e-9,3.3\u{1}é\"".to_string(),
            r#""V(DUT.op)\n1.0e-9,3.3\u0001é\"""#,
        ),
        ("edges", "\\\"\n".to_string(), r#""\\\"\n""#),
    ];
    for (name, text, rendered) in &cases {
        let doc = Json::str(text.as_str());
        assert_eq!(doc.render(), *rendered, "{name}");
        assert_eq!(Json::parse(rendered).as_ref(), Ok(&doc), "{name}");
    }
    // Keys take the same path as values.
    let obj = Json::obj(vec![("k\"\n€", Json::str("v"))]);
    assert_eq!(obj.render(), r#"{"k\"\n€":"v"}"#);
    assert_eq!(Json::parse(&obj.render()), Ok(obj));

    let run = plain_run();
    let rendered = Json::str(run.as_str()).render();
    assert_eq!(
        (rendered.len(), fnv64(&rendered).as_str()),
        (65538, "cdd5d406819dae0d")
    );
    assert_eq!(Json::parse(&rendered), Ok(Json::str(run)));
}

#[test]
fn escapes_decode_to_their_characters() {
    for (text, want) in [
        (r#""\"\\\/\b\f\n\r\t""#, "\"\\/\u{8}\u{c}\n\r\t"),
        (r#""Aé€""#, "Aé€"),
        (r#""🦀 crab""#, "🦀 crab"),
        (r#""raw	tab""#, "raw\ttab"),
        ("\"raw\u{1}control\"", "raw\u{1}control"),
    ] {
        assert_eq!(Json::parse(text), Ok(Json::str(want)), "{text}");
    }
}

#[test]
fn malformed_strings_fail_with_pinned_messages() {
    let cases: [(&str, &str); 10] = [
        (r#""open"#, "unterminated string"),
        (r#""esc\"#, "unterminated escape"),
        (r#""\u12""#, "truncated \\u escape"),
        (r#""\uzzzz""#, "invalid \\u escape"),
        (r#""\ud83e""#, "lone high surrogate"),
        (r#""\ud83e\u12""#, "truncated surrogate pair"),
        (r#""\ud83eA""#, "lone high surrogate"),
        (r#""\udd80""#, "invalid codepoint"),
        (r#""\x""#, "invalid escape \\x"),
        (r#"{"a\q":1}"#, "invalid escape \\q"),
    ];
    let got: Vec<(&str, String)> = cases
        .iter()
        .map(|(text, _)| (*text, Json::parse(text).expect_err(text)))
        .collect();
    let want: Vec<(&str, String)> = cases.iter().map(|&(t, e)| (t, e.to_string())).collect();
    assert_eq!(got, want);
}

#[test]
fn a_frame_body_that_is_not_utf8_is_rejected() {
    let mut frame = Vec::new();
    write_frame(&mut frame, &Json::str("ok")).expect("write");
    let mut bad = frame.clone();
    // `"ok"` → `"o` + a lone continuation byte + `"`.
    bad[6] = 0x80;
    let err = read_frame(&mut &bad[..]).expect_err("non-UTF-8 body");
    assert_eq!(
        err.to_string(),
        "invalid utf-8 sequence of 1 bytes from index 2"
    );
    assert_eq!(
        read_frame(&mut &frame[..]).expect("read"),
        Some(Json::str("ok"))
    );
}
