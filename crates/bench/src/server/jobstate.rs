//! Durable job journal: the daemon's crash-safety spine.
//!
//! An append-only file under the state directory records two event
//! kinds:
//!
//! * `accept` — written (and fsynced) *before* the daemon replies
//!   `accepted` to a campaign submission. Acceptance is therefore a
//!   durability promise: a job the client saw accepted survives any
//!   crash. If the append or fsync fails (disk full, IO error), the
//!   write is rolled back and the caller must *refuse* the job — an
//!   accept held only in memory would be a lie.
//! * `finish` — appended when a campaign reaches a terminal outcome.
//!
//! ## Record format (v2)
//!
//! Each line is `<crc32:8 lowercase hex> <json>`, where the JSON object
//! carries a monotonically increasing `seq` number alongside the event
//! fields. The checksum lets [`Journal::replay`] tell two situations
//! apart:
//!
//! * **Torn tail** — the *final* line is truncated or fails its CRC.
//!   Benign by construction: the record it would have carried was never
//!   acknowledged to any client.
//! * **Mid-file corruption** — an earlier line is unparseable, fails
//!   its CRC, or regresses the sequence number. That is silent damage
//!   to acknowledged state; it is counted in [`ReplayReport`] and the
//!   daemon's journal policy decides whether to refuse startup.
//!
//! A line without a checksum fails verification like any other damaged
//! line: it is a torn tail when it ends the file mid-line, and mid-file
//! corruption otherwise.
//!
//! ## Compaction
//!
//! Every accept line is also kept in memory while the job is open. When
//! enough `finish` records have accumulated (the compaction threshold),
//! the journal is rewritten atomically to just the open accepts — tmp
//! sibling, fsync, rename, parent-dir fsync — so replay cost after a
//! long daemon run is bounded by *open* jobs, not lifetime history.
//! Sequence numbers survive compaction unchanged; replay accepts gaps
//! and flags only regressions.
//!
//! At startup the daemon [`Journal::replay`]s the journal: every
//! `accept` without a matching `finish` is re-admitted as a *resumed*
//! job, and its per-job chunk manifest (PR-3 machinery) decides which
//! chunks still need to run. A job killed mid-chunk redoes only that
//! chunk; the result CSV is byte-identical to an uninterrupted run
//! because the chunk grid is a pure function of the spec.
//!
//! Failpoints (see [`spicier::chaos`]): `journal.append` fires before
//! the line is written, `journal.fsync` before the data sync, and
//! `journal.compact` before a compaction rewrite lands.

use super::metrics::Histogram;
use super::proto::CampaignSpec;
use crate::durable;
use spicier::chaos;
use spicier::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Default number of `finish` records that triggers a compaction.
pub const DEFAULT_COMPACT_THRESHOLD: u64 = 256;

/// Handle on the append-only journal file.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    compact_threshold: u64,
    /// Records append+fsync latency into the serving metrics plane
    /// (`journal_sync_ms`); `None` outside the daemon.
    fsync_observer: Option<Arc<Histogram>>,
    /// Serializes appends and guards the in-memory mirror of the
    /// journal's open set (used for compaction).
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Whether the on-disk journal has been scanned into this state.
    loaded: bool,
    /// Sequence number the next record will carry.
    next_seq: u64,
    /// Open accepts: job key → (seq, full on-disk line). The line is
    /// kept verbatim so compaction preserves bytes and checksums.
    open: BTreeMap<String, (u64, String)>,
    /// `finish` records appended since the last compaction.
    finished_since_compact: u64,
    /// Whether the parent directory has been fsynced since the journal
    /// file was (possibly) created.
    dir_synced: bool,
}

/// One accepted-but-unfinished campaign recovered from the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// `tenant/id`.
    pub key: String,
    /// Owning tenant.
    pub tenant: String,
    /// Job id within the tenant.
    pub id: String,
    /// The original sweep spec.
    pub spec: CampaignSpec,
}

/// What [`Journal::replay`] found, beyond the recoverable jobs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records that parsed and verified, in file order.
    pub total_records: usize,
    /// Mid-file damage: bad CRC, unparseable JSON, or sequence
    /// regression on any line *before* the last. Acknowledged state was
    /// silently altered; the daemon's journal policy decides whether
    /// this is fatal.
    pub corrupt_records: usize,
    /// The final line was truncated or failed its CRC — the benign
    /// signature of a crash mid-append; the record was never
    /// acknowledged.
    pub torn_tail: bool,
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), bitwise — the journal
/// writes a handful of lines per job, so table-free is plenty fast and
/// keeps the no-new-dependencies rule.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Decodes one journal line into its parsed JSON and sequence number;
/// `None` when the line is unparseable or fails its CRC.
fn decode_line(line: &str) -> Option<(Json, u64)> {
    let (crc_hex, json) = line.split_once(' ')?;
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    if crc_hex.len() != 8 || crc != crc32(json.as_bytes()) {
        return None;
    }
    let doc = Json::parse(json).ok()?;
    let seq = doc.u64_field("seq")?;
    Some((doc, seq))
}

/// Everything one pass over the journal file yields.
struct Scan {
    report: ReplayReport,
    /// Open accepts in file order: key → (seq, verbatim line, job).
    open: BTreeMap<String, (u64, String, RecoveredJob)>,
    /// Highest sequence number seen: the regression tracker, and the
    /// base the next append counts up from.
    last_seq: u64,
}

fn scan_file(path: &std::path::Path) -> Scan {
    let mut scan = Scan {
        report: ReplayReport::default(),
        open: BTreeMap::new(),
        last_seq: 0,
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return scan;
    };
    let lines: Vec<&str> = text.lines().collect();
    let last_index = lines.len().saturating_sub(1);
    // A trailing newline means the final record landed whole; only a
    // file that stops mid-line can have a torn (benign) tail.
    let file_ends_mid_line = !text.is_empty() && !text.ends_with('\n');
    for (i, raw) in lines.iter().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let is_tail = i == last_index && file_ends_mid_line;
        let Some((doc, seq)) = decode_line(line) else {
            if is_tail {
                scan.report.torn_tail = true;
            } else {
                scan.report.corrupt_records += 1;
            }
            continue;
        };
        if seq <= scan.last_seq {
            // Sequence regression: a record from the past reappearing
            // after a later one means splice damage, not a crash.
            scan.report.corrupt_records += 1;
            continue;
        }
        scan.last_seq = seq;
        scan.report.total_records += 1;
        let (Some(event), Some(key)) = (doc.str_field("event"), doc.str_field("job")) else {
            continue;
        };
        match event.as_str() {
            "accept" => {
                let (Some(tenant), Some(id), Some(spec_json)) = (
                    doc.str_field("tenant"),
                    doc.str_field("id"),
                    doc.get("spec"),
                ) else {
                    continue;
                };
                let Ok(spec) = CampaignSpec::from_json(spec_json) else {
                    continue;
                };
                scan.open.insert(
                    key.clone(),
                    (
                        seq,
                        line.to_string(),
                        RecoveredJob {
                            key,
                            tenant,
                            id,
                            spec,
                        },
                    ),
                );
            }
            "finish" => {
                scan.open.remove(&key);
            }
            _ => {}
        }
    }
    scan
}

impl Journal {
    /// A journal stored at `path` (created lazily on first append),
    /// compacting every [`DEFAULT_COMPACT_THRESHOLD`] finishes.
    #[must_use]
    pub fn new(path: PathBuf) -> Self {
        Self {
            path,
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
            fsync_observer: None,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Overrides the compaction threshold; `0` disables compaction.
    #[cfg(test)]
    #[must_use]
    pub fn with_compact_threshold(mut self, threshold: u64) -> Self {
        self.compact_threshold = threshold;
        self
    }

    /// Attaches a histogram that observes every successful
    /// append+fsync's latency — the daemon's `journal_sync_ms` metric,
    /// measured inside the durability barrier rather than around it.
    #[must_use]
    pub fn with_fsync_observer(mut self, observer: Arc<Histogram>) -> Self {
        self.fsync_observer = Some(observer);
        self
    }

    /// Where the journal lives.
    #[must_use]
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if !inner.loaded {
            let scan = scan_file(&self.path);
            inner.next_seq = scan.last_seq + 1;
            inner.open = scan
                .open
                .into_iter()
                .map(|(key, (seq, line, _))| (key, (seq, line)))
                .collect();
            inner.loaded = true;
        }
        inner
    }

    /// Appends one record: assign a sequence number, checksum the line,
    /// write + fsync, and roll the file back to its pre-append length
    /// on any failure so a refused record leaves no partial ghost.
    fn append(&self, inner: &mut Inner, fields: Vec<(&str, Json)>) -> std::io::Result<String> {
        let seq = inner.next_seq;
        let mut obj = vec![("seq", Json::num(seq as f64))];
        obj.extend(fields);
        let json = Json::obj(obj).render();
        let line = format!("{:08x} {json}", crc32(json.as_bytes()));

        let t0 = std::time::Instant::now();
        chaos::io_failpoint("journal.append")?;
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let prev_len = f.metadata()?.len();
        let rollback = |f: &std::fs::File| {
            // Best-effort: a failed append must not leave a partial
            // line that the next replay would flag as a torn tail of a
            // record nobody acknowledged.
            let _ = f.set_len(prev_len);
        };
        if let Err(e) = f
            .write_all(line.as_bytes())
            .and_then(|()| f.write_all(b"\n"))
        {
            rollback(&f);
            return Err(e);
        }
        // The durability promise: the bytes are on disk before the
        // caller replies `accepted`.
        if let Err(e) = chaos::io_failpoint("journal.fsync").and_then(|()| f.sync_data()) {
            rollback(&f);
            let _ = f.sync_data();
            return Err(e);
        }
        if !inner.dir_synced {
            // First create: the *name* must survive a crash too.
            durable::fsync_parent(&self.path)?;
            inner.dir_synced = true;
        }
        if let Some(observer) = &self.fsync_observer {
            observer.record(t0.elapsed());
        }
        inner.next_seq = seq + 1;
        Ok(line)
    }

    /// Journals a campaign acceptance (fsync before return).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors — the caller must then *refuse* the
    /// job rather than hold it in memory only. The file is rolled back,
    /// so a refused accept leaves no trace.
    pub fn append_accept(
        &self,
        key: &str,
        tenant: &str,
        id: &str,
        spec: &CampaignSpec,
    ) -> std::io::Result<()> {
        let mut inner = self.lock();
        let seq = inner.next_seq;
        let line = self.append(
            &mut inner,
            vec![
                ("event", Json::str("accept")),
                ("job", Json::str(key)),
                ("tenant", Json::str(tenant)),
                ("id", Json::str(id)),
                ("spec", spec.to_json()),
            ],
        )?;
        inner.open.insert(key.to_string(), (seq, line));
        Ok(())
    }

    /// Journals a campaign's terminal outcome, compacting the journal
    /// when enough finished history has accumulated.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the append; a failed
    /// *compaction* is not an error (the uncompacted journal is still
    /// correct, just longer).
    pub fn append_finish(&self, key: &str, outcome: &str) -> std::io::Result<()> {
        let mut inner = self.lock();
        self.append(
            &mut inner,
            vec![
                ("event", Json::str("finish")),
                ("job", Json::str(key)),
                ("outcome", Json::str(outcome)),
            ],
        )?;
        inner.open.remove(key);
        inner.finished_since_compact += 1;
        if self.compact_threshold > 0 && inner.finished_since_compact >= self.compact_threshold {
            self.compact_locked(&mut inner);
        }
        Ok(())
    }

    /// Rewrites the journal to just the open accepts (ordered by
    /// sequence number, verbatim lines), atomically. On failure the
    /// uncompacted journal stays in place — correctness is unaffected,
    /// only replay cost.
    fn compact_locked(&self, inner: &mut Inner) {
        let mut lines: Vec<(u64, &str)> = inner
            .open
            .values()
            .map(|(seq, line)| (*seq, line.as_str()))
            .collect();
        lines.sort_unstable_by_key(|(seq, _)| *seq);
        let mut out = String::new();
        for (_, line) in &lines {
            out.push_str(line);
            out.push('\n');
        }
        match durable::write_atomic("journal.compact", &self.path, out.as_bytes()) {
            Ok(()) => {
                inner.finished_since_compact = 0;
            }
            Err(e) => {
                eprintln!("[serve] journal compaction failed (will retry): {e}");
                // Back off by a full threshold instead of retrying on
                // every subsequent finish.
                inner.finished_since_compact = 0;
            }
        }
    }

    /// Forces a compaction now (used by drills and drain paths).
    pub fn compact(&self) {
        let mut inner = self.lock();
        self.compact_locked(&mut inner);
    }

    /// Replays the journal: accepted campaigns with no terminal record,
    /// in acceptance order, plus a [`ReplayReport`] of what the scan
    /// found (corrupt records, torn tail).
    #[must_use]
    pub fn replay(&self) -> (Vec<RecoveredJob>, ReplayReport) {
        let scan = scan_file(&self.path);
        {
            // Refresh the in-memory mirror so appends after replay
            // continue the sequence and compaction sees the open set.
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.next_seq = scan.last_seq + 1;
            inner.open = scan
                .open
                .iter()
                .map(|(key, (seq, line, _))| (key.clone(), (*seq, line.clone())))
                .collect();
            inner.loaded = true;
        }
        let mut jobs: Vec<(u64, RecoveredJob)> = scan
            .open
            .into_values()
            .map(|(seq, _, job)| (seq, job))
            .collect();
        jobs.sort_unstable_by_key(|(seq, _)| *seq);
        (jobs.into_iter().map(|(_, job)| job).collect(), scan.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            deck: "d\nV1 a 0 0\nR1 a 0 1k\n.end\n".into(),
            source: "V1".into(),
            start: 0.0,
            stop: 3.3,
            points: 6,
            chunk: 2,
        }
    }

    fn temp_journal(tag: &str) -> (std::path::PathBuf, Journal) {
        let dir = std::env::temp_dir().join(format!("journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (dir.clone(), Journal::new(dir.join("journal.jsonl")))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn replay_returns_accepted_without_finish_in_order() {
        let (dir, journal) = temp_journal("order");
        journal.append_accept("a/j1", "a", "j1", &spec()).unwrap();
        journal.append_accept("b/j2", "b", "j2", &spec()).unwrap();
        journal.append_accept("a/j3", "a", "j3", &spec()).unwrap();
        journal.append_finish("b/j2", "ok").unwrap();
        let (recovered, report) = journal.replay();
        assert_eq!(
            recovered.iter().map(|j| j.key.as_str()).collect::<Vec<_>>(),
            vec!["a/j1", "a/j3"]
        );
        assert_eq!(recovered[0].spec, spec());
        assert_eq!(report.corrupt_records, 0);
        assert!(!report.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_line_is_benign_and_flagged() {
        let (dir, journal) = temp_journal("torn");
        journal.append_accept("a/j1", "a", "j1", &spec()).unwrap();
        // Simulate a kill mid-append: a truncated line at the tail,
        // with no trailing newline.
        let mut text = std::fs::read_to_string(journal.path()).unwrap();
        text.push_str("deadbeef {\"seq\": 2, \"event\": \"accept\", \"job\": \"a/j2\", \"tena");
        std::fs::write(journal.path(), text).unwrap();
        let (recovered, report) = journal.replay();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].key, "a/j1");
        assert!(report.torn_tail);
        assert_eq!(report.corrupt_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_is_counted_not_skipped() {
        let (dir, journal) = temp_journal("corrupt");
        journal.append_accept("a/j1", "a", "j1", &spec()).unwrap();
        journal.append_accept("a/j2", "a", "j2", &spec()).unwrap();
        journal.append_accept("a/j3", "a", "j3", &spec()).unwrap();
        // Flip one byte inside the *middle* record's JSON: its CRC no
        // longer matches, and the line is not the tail.
        let text = std::fs::read_to_string(journal.path()).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[1] = lines[1].replace("\"a/j2\"", "\"a/jX\"");
        // A well-formed record without a checksum has nothing to verify
        // either: it is damage, not a job to resume.
        let spec_json = spec().to_json().render();
        lines.insert(
            2,
            format!(
                "{{\"event\": \"accept\", \"job\": \"a/old\", \"tenant\": \"a\", \
                 \"id\": \"old\", \"spec\": {spec_json}}}"
            ),
        );
        std::fs::write(journal.path(), lines.join("\n") + "\n").unwrap();
        let (recovered, report) = journal.replay();
        assert_eq!(report.corrupt_records, 2);
        assert!(!report.torn_tail);
        // The undamaged records still replay.
        assert_eq!(
            recovered.iter().map(|j| j.key.as_str()).collect::<Vec<_>>(),
            vec!["a/j1", "a/j3"]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_regression_is_corruption() {
        let (dir, journal) = temp_journal("seqreg");
        journal.append_accept("a/j1", "a", "j1", &spec()).unwrap();
        journal.append_accept("a/j2", "a", "j2", &spec()).unwrap();
        // Duplicate the first (seq 1) line after the second (seq 2):
        // valid CRC, but the sequence runs backwards.
        let text = std::fs::read_to_string(journal.path()).unwrap();
        let first = text.lines().next().unwrap().to_string();
        std::fs::write(journal.path(), format!("{text}{first}\n")).unwrap();
        let (_, report) = journal.replay();
        assert_eq!(report.corrupt_records, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_replays_empty() {
        let journal = Journal::new(PathBuf::from("/nonexistent/journal.jsonl"));
        let (jobs, report) = journal.replay();
        assert!(jobs.is_empty());
        assert_eq!(report, ReplayReport::default());
    }

    #[test]
    fn failed_append_rolls_back_and_leaves_no_ghost() {
        let (dir, journal) = temp_journal("rollback");
        journal.append_accept("a/j1", "a", "j1", &spec()).unwrap();
        let before = std::fs::read(journal.path()).unwrap();
        spicier::chaos::with_failpoints("journal.fsync=err@1", || {
            let err = journal.append_accept("a/j2", "a", "j2", &spec());
            assert!(err.is_err());
        });
        // Byte-identical file: the refused accept left no partial line.
        assert_eq!(std::fs::read(journal.path()).unwrap(), before);
        // ENOSPC on the append itself fails before any bytes move.
        spicier::chaos::with_failpoints("journal.append=enospc@1", || {
            let err = journal
                .append_accept("a/j3", "a", "j3", &spec())
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        });
        assert_eq!(std::fs::read(journal.path()).unwrap(), before);
        // The journal still works afterwards, with a fresh sequence.
        journal.append_accept("a/j4", "a", "j4", &spec()).unwrap();
        let (recovered, report) = journal.replay();
        assert_eq!(
            recovered.iter().map(|j| j.key.as_str()).collect::<Vec<_>>(),
            vec!["a/j1", "a/j4"]
        );
        assert_eq!(report.corrupt_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_bounds_replay_by_open_jobs() {
        let (dir, journal) = temp_journal("compact");
        let journal = Journal::new(journal.path().to_path_buf()).with_compact_threshold(100);
        // 500 finished jobs plus 3 that stay open.
        for i in 0..500 {
            let id = format!("j{i}");
            let key = format!("t/{id}");
            journal.append_accept(&key, "t", &id, &spec()).unwrap();
            journal.append_finish(&key, "ok").unwrap();
        }
        journal
            .append_accept("t/open1", "t", "open1", &spec())
            .unwrap();
        journal
            .append_accept("t/open2", "t", "open2", &spec())
            .unwrap();
        journal
            .append_accept("t/open3", "t", "open3", &spec())
            .unwrap();
        // The on-disk journal was compacted along the way: far fewer
        // lines than the 1003 records ever appended.
        let text = std::fs::read_to_string(journal.path()).unwrap();
        assert!(
            text.lines().count() <= 203,
            "journal holds {} lines, compaction never ran",
            text.lines().count()
        );
        let (recovered, report) = journal.replay();
        assert_eq!(
            recovered.iter().map(|j| j.key.as_str()).collect::<Vec<_>>(),
            vec!["t/open1", "t/open2", "t/open3"]
        );
        assert_eq!(report.corrupt_records, 0);
        // Force-compacting now shrinks the file to exactly the open set.
        journal.compact();
        let text = std::fs::read_to_string(journal.path()).unwrap();
        assert_eq!(text.lines().count(), 3);
        let (recovered, _) = journal.replay();
        assert_eq!(recovered.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_failure_keeps_journal_correct() {
        let (dir, journal) = temp_journal("compactfail");
        let journal = Journal::new(journal.path().to_path_buf()).with_compact_threshold(1);
        journal.append_accept("t/a", "t", "a", &spec()).unwrap();
        spicier::chaos::with_failpoints("journal.compact=err@1", || {
            journal.append_accept("t/b", "t", "b", &spec()).unwrap();
            journal.append_finish("t/a", "ok").unwrap();
        });
        let (recovered, report) = journal.replay();
        assert_eq!(
            recovered.iter().map(|j| j.key.as_str()).collect::<Vec<_>>(),
            vec!["t/b"]
        );
        assert_eq!(report.corrupt_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
