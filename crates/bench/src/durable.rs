//! Durable-write helpers shared by every atomic-write site.
//!
//! PR 6 made "accepted" a durability promise, but the write sites that
//! back it were each hand-rolling the same tmp → `fsync` → `rename`
//! dance — and every one of them skipped the final step that makes the
//! dance crash-safe: fsyncing the **parent directory** so the new name
//! itself survives power loss. This module centralizes the pattern:
//!
//! * [`fsync_dir`] — flush a directory's entry table; required after
//!   creating or renaming a file for the *name* to be durable.
//! * [`write_atomic`] — tmp + write + fsync + rename + parent fsync,
//!   with a named [`spicier::chaos`] failpoint checked first so tests
//!   can inject ENOSPC, generic IO errors, torn writes, and panics at
//!   the exact site (`manifest.rename`, `chunk.write`, `report.write`,
//!   ...) on a deterministic hit count.
//!
//! The torn-write fault deliberately models the *worst* crash: a prefix
//! of the payload lands at the destination and the call fails. Readers
//! of every artifact written through here (manifests, part-CSVs, JSON
//! reports) tolerate truncated content by skipping unparseable records,
//! so a torn artifact costs recomputation, never correctness.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use spicier::chaos;

/// Fsyncs a directory so entries created or renamed inside it are
/// durable. On Linux a directory opened read-only accepts `fsync`; this
/// is the documented way to persist the *name* of a freshly renamed
/// file, and skipping it is why journals and manifests can vanish
/// entirely after a crash even though their contents were synced.
///
/// # Errors
///
/// Propagates the `open`/`fsync` failure.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Fsyncs the parent directory of `path`, if it has one.
///
/// # Errors
///
/// Propagates the `open`/`fsync` failure.
pub fn fsync_parent(path: &Path) -> std::io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => fsync_dir(dir),
        _ => Ok(()),
    }
}

/// The scratch name `write_atomic` stages into before the rename.
#[must_use]
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Atomically replaces `path` with `bytes`: stage into `<path>.tmp`,
/// fsync the file, rename over the target, fsync the parent directory.
/// The named `site` failpoint is consulted first (see
/// [`chaos::failpoint`]): `err`/`enospc` fail before any bytes move,
/// `panic` panics, and `torn` persists a prefix of `bytes` straight to
/// the destination before failing — the worst outcome a real crash
/// mid-write can produce.
///
/// # Errors
///
/// Returns the injected fault when `site` is armed, or the first real
/// IO error from the create/write/fsync/rename chain.
///
/// # Panics
///
/// Panics when the `site` failpoint is armed with the `panic` action.
pub fn write_atomic(site: &str, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    match chaos::failpoint(site) {
        None => {}
        Some(chaos::FailAction::Panic) => panic!("failpoint {site}: injected panic"),
        Some(chaos::FailAction::Torn) => {
            let cut = bytes.len() / 2;
            if let Ok(mut f) = File::create(path) {
                let _ = f.write_all(&bytes[..cut]);
                let _ = f.sync_all();
            }
            return Err(chaos::FailAction::Torn.to_io_error(site));
        }
        Some(action) => return Err(action.to_io_error(site)),
    }
    let tmp = tmp_path(path);
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    fsync_parent(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_replaces_and_cleans_tmp() {
        let dir = std::env::temp_dir().join(format!("durable-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.txt");
        write_atomic("chunk.write", &path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic("chunk.write", &path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!tmp_path(&path).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_honors_failpoints() {
        let dir = std::env::temp_dir().join(format!("durable-fp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("b.txt");
        write_atomic("chunk.write", &path, b"good contents").unwrap();

        chaos::with_failpoints("chunk.write=enospc@1", || {
            let err = write_atomic("chunk.write", &path, b"never lands").unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        });
        // ENOSPC fails before any bytes move: old contents intact.
        assert_eq!(std::fs::read(&path).unwrap(), b"good contents");

        chaos::with_failpoints("chunk.write=torn@1", || {
            assert!(write_atomic("chunk.write", &path, b"0123456789").is_err());
        });
        // Torn persists exactly the first half at the destination.
        assert_eq!(std::fs::read(&path).unwrap(), b"01234");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
