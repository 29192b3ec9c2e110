//! Run manifest for resumable experiment campaigns.
//!
//! `exp_all` records every experiment's outcome in
//! `target/experiments/MANIFEST.json` — status, an input hash, and wall
//! time — rewriting the file atomically after each experiment. A killed
//! campaign restarted with `--resume` skips experiments whose manifest
//! entry is `ok` *and* whose input hash still matches (scale or chaos
//! knobs changing invalidates the entry), so the resumed run redoes only
//! the incomplete tail and its artifacts are identical to an
//! uninterrupted run.
//!
//! The document is read and written with [`spicier::json`]: an
//! `experiments` object mapping each name to a flat record.

use super::report::out_dir;
use crate::Scale;
use spicier::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Outcome of one experiment in a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// `"ok"` or `"failed"`.
    pub status: String,
    /// [`input_hash`] of the inputs the experiment ran under.
    pub input_hash: String,
    /// Wall-clock time of the run, seconds.
    pub wall_secs: f64,
    /// Error text for failed experiments.
    pub error: Option<String>,
    /// Number of sweep corners quarantined by solution certification
    /// (`UntrustedSolution`). An experiment with quarantined corners still
    /// produces its artifact, but its manifest entry never satisfies the
    /// `--resume` skip test: the quarantined work is redone.
    pub quarantined: usize,
}

impl ExperimentRecord {
    /// A successful run.
    pub fn ok(input_hash: String, wall_secs: f64) -> Self {
        Self {
            status: "ok".to_string(),
            input_hash,
            wall_secs,
            error: None,
            quarantined: 0,
        }
    }

    /// A failed run with its error text.
    pub fn failed(input_hash: String, wall_secs: f64, error: String) -> Self {
        Self {
            status: "failed".to_string(),
            input_hash,
            wall_secs,
            error: Some(error),
            quarantined: 0,
        }
    }

    /// Attaches a quarantined-corner count to the record.
    pub fn with_quarantined(mut self, quarantined: usize) -> Self {
        self.quarantined = quarantined;
        self
    }
}

/// The campaign manifest: experiment name → outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// Per-experiment records, sorted by name.
    pub experiments: BTreeMap<String, ExperimentRecord>,
}

/// Path of the manifest (`target/experiments/MANIFEST.json`).
pub fn manifest_path() -> PathBuf {
    out_dir().join("MANIFEST.json")
}

impl Manifest {
    /// Loads the manifest from [`manifest_path`]. A missing or unreadable
    /// file — including one corrupted by a mid-write kill — degrades to an
    /// empty manifest: resume then simply reruns everything.
    pub fn load() -> Self {
        Self::load_from(&manifest_path())
    }

    /// [`Manifest::load`] from an explicit path — the campaign server
    /// keeps one manifest per job this way.
    pub fn load_from(path: &std::path::Path) -> Self {
        let Ok(text) = std::fs::read_to_string(path) else {
            return Self::default();
        };
        Self::parse(&text)
    }

    /// Parses the document produced by [`Manifest::save`]. Text that is
    /// not a JSON object with an `experiments` object — a torn write, say
    /// — degrades to an empty manifest; entries without a status or an
    /// input hash are skipped.
    pub fn parse(text: &str) -> Self {
        let doc = Json::parse(text).unwrap_or(Json::Null);
        let Some(Json::Obj(entries)) = doc.get("experiments") else {
            return Self::default();
        };
        let experiments = entries
            .iter()
            .filter_map(|(name, r)| {
                let record = ExperimentRecord {
                    status: r.str_field("status")?,
                    input_hash: r.str_field("input_hash")?,
                    wall_secs: r.num_field("wall_secs").unwrap_or(0.0),
                    error: r.str_field("error"),
                    quarantined: r.u64_field("quarantined").unwrap_or(0) as usize,
                };
                Some((name.clone(), record))
            })
            .collect();
        Self { experiments }
    }

    /// Serializes to the on-disk format.
    pub fn render(&self) -> String {
        let entries = self
            .experiments
            .iter()
            .map(|(name, r)| {
                let mut fields = vec![
                    ("status", Json::str(r.status.as_str())),
                    ("input_hash", Json::str(r.input_hash.as_str())),
                    ("wall_secs", Json::num(r.wall_secs)),
                ];
                // The quarantined field is omitted when zero so clean-run
                // manifests keep their historical shape.
                if r.quarantined > 0 {
                    fields.push(("quarantined", Json::Num(r.quarantined as f64)));
                }
                if let Some(e) = &r.error {
                    fields.push(("error", Json::str(e.as_str())));
                }
                (name.clone(), Json::obj(fields))
            })
            .collect();
        let mut out = Json::obj(vec![("experiments", Json::Obj(entries))]).render();
        out.push('\n');
        out
    }

    /// Atomically rewrites the manifest on disk (tmp sibling + rename),
    /// so a kill at any instant leaves either the previous or the new
    /// complete manifest.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self) -> std::io::Result<()> {
        self.save_to(&manifest_path())
    }

    /// [`Manifest::save`] to an explicit path (same atomic tmp + rename
    /// discipline; the tmp sibling lives next to the target).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        crate::durable::write_atomic("manifest.rename", path, self.render().as_bytes())
    }

    /// Whether `name` already completed successfully under the same
    /// inputs — the `--resume` skip test. Experiments that quarantined
    /// corners are never considered complete: their CSVs carry holes
    /// from untrusted solves, so a resumed campaign redoes them.
    pub fn is_complete(&self, name: &str, input_hash: &str) -> bool {
        self.experiments
            .get(name)
            .is_some_and(|r| r.status == "ok" && r.input_hash == input_hash && r.quarantined == 0)
    }

    /// Records (or overwrites) one experiment's outcome.
    pub fn record(&mut self, name: &str, record: ExperimentRecord) {
        self.experiments.insert(name.to_string(), record);
    }
}

/// Hash of everything that determines an experiment's output: its name,
/// the scale, and the chaos/injection and telemetry environment knobs.
/// FNV-1a over the joined string; a hex digest. If any of these change
/// between the original run and `--resume`, the entry no longer matches
/// and the experiment reruns.
pub fn input_hash(name: &str, scale: Scale) -> String {
    let scale_tag = match scale {
        Scale::Full => "full",
        Scale::Quick => "quick",
    };
    let mut input = format!("{name}|{scale_tag}");
    for var in [
        "EXP_INJECT_BAD_CORNER",
        "EXP_INJECT_HANG_CORNER",
        "EXP_CORNER_DEADLINE_MS",
        "CHAOS_PERTURB_LU",
        "EXP_TELEMETRY",
        "SPICIER_FAILPOINTS",
    ] {
        input.push('|');
        input.push_str(&std::env::var(var).unwrap_or_default());
    }
    input.push('|');
    if let Some(trace) = spicier::telemetry::trace_path() {
        input.push_str(&trace.to_string_lossy());
    }
    fnv64(&input)
}

/// FNV-1a hex digest of `input` — the hash behind [`input_hash`], public
/// so the campaign server can stamp job specs the same way.
pub fn fnv64(input: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in input.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let mut m = Manifest::default();
        m.record("FIG2", ExperimentRecord::ok("abc123".into(), 1.25));
        m.record(
            "FIG8",
            ExperimentRecord::failed("def456".into(), 0.5, "boom, \"quoted\"".into()),
        );
        // A quarantined chunk panic as the daemon records it: an
        // `assert_eq!` message spans lines and may carry tabs.
        m.record(
            "CHUNK3",
            ExperimentRecord::failed(
                "0123456789abcdef".into(),
                0.0,
                "panic: assertion `left == right` failed\n  left: 1\n right: 2\tat chunk 3".into(),
            )
            .with_quarantined(1),
        );
        let text = m.render();
        let back = Manifest::parse(&text);
        assert_eq!(back, m, "{text}");
    }

    /// A manifest exactly as the earlier pretty, one-entry-per-line
    /// writer left it on disk still loads, so such campaigns keep
    /// resuming.
    #[test]
    fn pretty_one_entry_per_line_manifest_still_loads() {
        let text = r#"{
  "experiments": {
    "ABLATE": {"status": "ok", "input_hash": "9a14864201b8eb87", "wall_secs": 0.069},
    "FIG5": {"status": "ok", "input_hash": "e3dfe3e939d321c6", "wall_secs": 2.000, "quarantined": 3},
    "FIG8": {"status": "failed", "input_hash": "98232c65e05e21a9", "wall_secs": 0.500, "error": "boom, \"quoted\""}
  }
}
"#;
        let m = Manifest::parse(text);
        assert_eq!(m.experiments.len(), 3, "{m:?}");
        assert!(m.is_complete("ABLATE", "9a14864201b8eb87"));
        assert!(!m.is_complete("FIG5", "e3dfe3e939d321c6"));
        assert_eq!(m.experiments["FIG5"].quarantined, 3);
        assert_eq!(m.experiments["FIG8"].wall_secs, 0.5);
        assert_eq!(
            m.experiments["FIG8"].error.as_deref(),
            Some("boom, \"quoted\"")
        );
    }

    #[test]
    fn corrupt_text_degrades_to_empty() {
        assert_eq!(Manifest::parse("not json at all"), Manifest::default());
        assert_eq!(
            Manifest::parse("{\"experiments\": {\n  garbage\n}}"),
            Manifest::default()
        );
    }

    #[test]
    fn is_complete_requires_ok_and_matching_hash() {
        let mut m = Manifest::default();
        m.record("FIG2", ExperimentRecord::ok("h1".into(), 1.0));
        m.record(
            "FIG4",
            ExperimentRecord::failed("h1".into(), 1.0, "x".into()),
        );
        assert!(m.is_complete("FIG2", "h1"));
        assert!(!m.is_complete("FIG2", "h2"), "stale hash must rerun");
        assert!(!m.is_complete("FIG4", "h1"), "failures must rerun");
        assert!(!m.is_complete("FIG5", "h1"), "unknown must run");
    }

    #[test]
    fn quarantined_round_trips_and_blocks_resume_skip() {
        let mut m = Manifest::default();
        m.record(
            "FIG5",
            ExperimentRecord::ok("h1".into(), 2.0).with_quarantined(3),
        );
        m.record("FIG2", ExperimentRecord::ok("h1".into(), 1.0));
        let text = m.render();
        let doc = Json::parse(&text).unwrap();
        let fig5 = doc.get("experiments").and_then(|e| e.get("FIG5"));
        assert_eq!(
            fig5.and_then(|r| r.u64_field("quarantined")),
            Some(3),
            "{text}"
        );
        let back = Manifest::parse(&text);
        assert_eq!(back, m, "{text}");
        assert!(
            !m.is_complete("FIG5", "h1"),
            "quarantined corners must rerun on --resume"
        );
        assert!(m.is_complete("FIG2", "h1"));
    }

    #[test]
    fn clean_records_render_without_quarantined_field() {
        let mut m = Manifest::default();
        m.record("FIG2", ExperimentRecord::ok("h1".into(), 1.0));
        let doc = Json::parse(&m.render()).unwrap();
        let fig2 = doc.get("experiments").and_then(|e| e.get("FIG2")).unwrap();
        assert!(fig2.get("quarantined").is_none(), "{}", m.render());
    }

    #[test]
    fn input_hash_depends_on_name_and_scale() {
        let a = input_hash("FIG2", Scale::Quick);
        assert_eq!(a, input_hash("FIG2", Scale::Quick));
        assert_ne!(a, input_hash("FIG4", Scale::Quick));
        assert_ne!(a, input_hash("FIG2", Scale::Full));
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn save_and_load_round_trip() {
        // Use the real path but a name no experiment uses, then restore.
        let mut m = Manifest::load();
        let before = m.clone();
        m.record("MANIFEST_SELF_TEST", ExperimentRecord::ok("h".into(), 0.1));
        m.save().unwrap();
        assert!(Manifest::load().is_complete("MANIFEST_SELF_TEST", "h"));
        assert!(!manifest_path().with_extension("json.tmp").exists());
        before.save().unwrap();
    }
}
