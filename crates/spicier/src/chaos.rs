//! Chaos injection: named failpoints, the one way to make the program
//! fail on purpose, so tests, CI and the loadgen harness can prove that
//! the budget, certification, isolation and durable-state layers
//! degrade gracefully.
//!
//! Each drill is a site in [`SITES`], checked where its fault belongs.
//! A spec is `;`-separated `site[=action][@N[+]]` entries, e.g.
//! `journal.append=enospc@3;campaign.experiment=kill@2;lu.perturb`. IO
//! sites take an action (`err`, `enospc`, `torn`, `panic`, or `kill`,
//! which exits 137 at the check); `campaign.experiment` takes only
//! `kill`; compute sites (`lu.perturb`, `newton.hang`, ...) are written
//! bare, since the site fixes its fault. Without `@N` a rule fires on
//! every hit, `@N` on the `N`-th hit of its site, `@N+` from the `N`-th
//! on. An entry that is malformed or names another site is an error,
//! never a drill that tests nothing. `SPICIER_FAILPOINTS` arms a spec
//! for the process (binaries reject a bad one through [`check_env`]);
//! [`with_failpoints`] arms one on this thread while a closure runs.
//! With nothing armed anywhere, a check is one relaxed atomic load.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// What a failpoint site accepts in a spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// A write or IO step: `err`, `enospc`, `torn`, `panic` or `kill`.
    Io,
    /// A checkpoint whose only fault is `kill`.
    Kill,
    /// A compute site whose fault the site fixes; written bare.
    Fault,
}

/// Every failpoint site the program checks, sorted by name
/// (EXPERIMENTS.md tabulates the fault each injects).
pub const SITES: [(&str, SiteKind); 20] = [
    ("addr.write", SiteKind::Io),
    ("bench.write", SiteKind::Io),
    ("campaign.experiment", SiteKind::Kill),
    ("chunk.run", SiteKind::Io),
    ("chunk.write", SiteKind::Io),
    ("client.drop", SiteKind::Fault),
    ("csv.rename", SiteKind::Io),
    ("csv.write", SiteKind::Io),
    ("fig8.bad_corner", SiteKind::Fault),
    ("fig8.hang_corner", SiteKind::Fault),
    ("interactive.run", SiteKind::Io),
    ("journal.append", SiteKind::Io),
    ("journal.compact", SiteKind::Io),
    ("journal.fsync", SiteKind::Io),
    ("lu.perturb", SiteKind::Fault),
    ("manifest.rename", SiteKind::Io),
    ("newton.hang", SiteKind::Fault),
    ("newton.nan", SiteKind::Fault),
    ("report.write", SiteKind::Io),
    ("result.write", SiteKind::Io),
];

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Generic IO error (`ErrorKind::Other`).
    Err,
    /// `ENOSPC` — no space left on device (`ErrorKind::StorageFull`).
    Enospc,
    /// Torn write: the caller must persist only a prefix of the payload
    /// and then report failure, modelling a crash mid-write.
    Torn,
    /// Panic at the site, modelling a pathological compute corner.
    Panic,
    /// Exit with status 137; [`failpoint`] does it, so no caller sees it.
    Kill,
    /// A compute site's own fault (the rule is the bare site name).
    Fault,
}

impl FailAction {
    /// The injected IO error for this action at `site`. `Torn` and
    /// `Panic` also map to an error for sites that cannot model them
    /// more faithfully.
    #[must_use]
    pub fn to_io_error(self, site: &str) -> std::io::Error {
        match self {
            FailAction::Enospc => std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                format!("failpoint {site}: injected ENOSPC (no space left on device)"),
            ),
            _ => std::io::Error::other(format!("failpoint {site}: injected IO fault")),
        }
    }
}

/// One parsed failpoint rule: fire `action` at `site` on the `at`-th
/// hit (1-based), and on every later hit too when `persistent`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailRule {
    /// Site name, one of [`SITES`].
    pub site: &'static str,
    /// Fault to inject.
    pub action: FailAction,
    /// 1-based hit count that arms the rule.
    pub at: u64,
    /// Whether the rule keeps firing after `at` (the `+` suffix).
    pub persistent: bool,
}

impl FailRule {
    fn fires(&self, hits: u64) -> bool {
        hits == self.at || (self.persistent && hits >= self.at)
    }
}

/// Parses a failpoint spec (grammar in the module docs).
///
/// # Errors
///
/// The first entry that is malformed, names a site not in [`SITES`], or
/// gives its site an action it does not take, as `<entry>: <why>`.
pub fn parse_failpoints(spec: &str) -> Result<Vec<FailRule>, String> {
    spec.split(';')
        .map(str::trim)
        .filter(|entry| !entry.is_empty())
        .map(|entry| parse_rule(entry).map_err(|why| format!("{entry}: {why}")))
        .collect()
}

fn parse_rule(entry: &str) -> Result<FailRule, String> {
    let (head, count) = match entry.split_once('@') {
        None => (entry, "1+"),
        Some((head, count)) => (head, count.trim()),
    };
    let (n, persistent) = match count.strip_suffix('+') {
        Some(n) => (n, true),
        None => (count, false),
    };
    let at = n
        .parse::<u64>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("@{count} is not a hit count (1 or more)"))?;
    let (name, action) = match head.split_once('=') {
        None => (head.trim(), None),
        Some((name, action)) => (name.trim(), Some(action.trim())),
    };
    let &(site, kind) = SITES.iter().find(|(s, _)| *s == name).ok_or_else(|| {
        let sites = SITES.map(|(s, _)| s).join(", ");
        format!("{name} is not a failpoint site; sites: {sites}")
    })?;
    let action = match (kind, action) {
        (SiteKind::Fault, None) => FailAction::Fault,
        (SiteKind::Fault, Some(_)) => return Err(format!("{site} takes no action")),
        (SiteKind::Kill, Some("kill")) | (SiteKind::Io, Some("kill")) => FailAction::Kill,
        (SiteKind::Kill, _) => return Err(format!("{site} takes only kill")),
        (SiteKind::Io, Some("err")) => FailAction::Err,
        (SiteKind::Io, Some("enospc")) => FailAction::Enospc,
        (SiteKind::Io, Some("torn")) => FailAction::Torn,
        (SiteKind::Io, Some("panic")) => FailAction::Panic,
        (SiteKind::Io, _) => return Err(format!("{site} takes err, enospc, torn, panic or kill")),
    };
    Ok(FailRule {
        site,
        action,
        at,
        persistent,
    })
}

/// Live [`with_failpoints`] frames on every thread, plus one while
/// `SPICIER_FAILPOINTS` arms anything (or is bad), plus [`UNREAD`] until
/// the variable has been read. Zero means no site can fire.
static ARMED: AtomicUsize = AtomicUsize::new(UNREAD);
const UNREAD: usize = 1 << (usize::BITS - 1);

/// Hits per site (indexed like [`SITES`]) under `SPICIER_FAILPOINTS`.
static ENV_HITS: Mutex<[u64; SITES.len()]> = Mutex::new([0; SITES.len()]);

/// `SPICIER_FAILPOINTS`, parsed once. A bad spec keeps every check
/// armed, so the first check in a process that never called
/// [`check_env`] panics with it.
fn env_spec() -> &'static Result<Vec<FailRule>, String> {
    static SPEC: OnceLock<Result<Vec<FailRule>, String>> = OnceLock::new();
    SPEC.get_or_init(|| {
        let spec = std::env::var("SPICIER_FAILPOINTS").unwrap_or_default();
        let parsed = parse_failpoints(&spec).map_err(|e| format!("SPICIER_FAILPOINTS={e}"));
        let armed = !matches!(&parsed, Ok(rules) if rules.is_empty());
        ARMED.fetch_sub(UNREAD - usize::from(armed), Ordering::Relaxed);
        parsed
    })
}

/// Checks `SPICIER_FAILPOINTS`. Binaries call it before doing anything,
/// so a typo stops the run instead of arming nothing.
///
/// # Errors
///
/// The first bad entry, named with the variable.
pub fn check_env() -> Result<(), String> {
    env_spec().as_ref().map(|_| ()).map_err(Clone::clone)
}

/// The `SPICIER_FAILPOINTS` entries that can change what a run
/// computes: every rule but `kill`, which ends a run without changing
/// what it writes, so a killed run still resumes. A campaign's manifest
/// hashes it; empty when nothing is armed.
#[must_use]
pub fn input_spec() -> String {
    inputs_of(&std::env::var("SPICIER_FAILPOINTS").unwrap_or_default())
}

fn inputs_of(spec: &str) -> String {
    let kept: Vec<&str> = spec
        .split(';')
        .map(str::trim)
        .filter(|entry| parse_rule(entry).is_ok_and(|r| r.action != FailAction::Kill))
        .collect();
    kept.join(";")
}

struct Frame {
    rules: Vec<FailRule>,
    hits: [u64; SITES.len()],
}

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with the failpoint rules of `spec` armed on this thread,
/// with fresh hit counters. Frames nest; the innermost frame that names
/// a site decides for it, and a frame is dropped even when `f` panics.
///
/// # Panics
///
/// Panics when `spec` does not parse (see [`parse_failpoints`]).
pub fn with_failpoints<R>(spec: &str, f: impl FnOnce() -> R) -> R {
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            FRAMES.with(|frames| frames.borrow_mut().pop());
            ARMED.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let rules = parse_failpoints(spec).unwrap_or_else(|e| panic!("with_failpoints: {e}"));
    FRAMES.with(|frames| {
        frames.borrow_mut().push(Frame {
            rules,
            hits: [0; SITES.len()],
        });
    });
    ARMED.fetch_add(1, Ordering::Relaxed);
    let _pop = Pop;
    f()
}

/// Registers one hit at the named site and returns the fault to inject,
/// if any. Scoped frames ([`with_failpoints`]) take precedence over
/// `SPICIER_FAILPOINTS`; hit counting is deterministic per site. A
/// `kill` rule that fires ends the process here, with status 137.
#[inline]
#[must_use]
pub fn failpoint(site: &str) -> Option<FailAction> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    armed_failpoint(site)
}

/// Whether the compute site `site` injects its fault on this hit.
#[inline]
#[must_use]
pub fn fault(site: &str) -> bool {
    failpoint(site).is_some()
}

#[cold]
#[inline(never)]
fn armed_failpoint(site: &str) -> Option<FailAction> {
    let i = SITES.iter().position(|(s, _)| *s == site)?;
    let names = |rules: &[FailRule]| rules.iter().any(|r| r.site == site);
    let scoped = FRAMES.with(|frames| {
        let mut frames = frames.borrow_mut();
        let frame = frames.iter_mut().rev().find(|frame| names(&frame.rules))?;
        Some(fire(&frame.rules, &mut frame.hits[i], site))
    });
    let action = match scoped {
        Some(action) => action,
        None => {
            let rules = env_spec().as_ref().unwrap_or_else(|e| panic!("{e}"));
            if !names(rules) {
                return None;
            }
            let mut hits = ENV_HITS.lock().unwrap_or_else(PoisonError::into_inner);
            fire(rules, &mut hits[i], site)
        }
    }?;
    if action == FailAction::Kill {
        eprintln!("[chaos] failpoint {site}: killing the process (exit 137)");
        std::process::exit(137);
    }
    Some(action)
}

/// Counts one hit at `site` and returns the action of the rule it fires.
fn fire(rules: &[FailRule], hits: &mut u64, site: &str) -> Option<FailAction> {
    *hits += 1;
    rules
        .iter()
        .find(|r| r.site == site && r.fires(*hits))
        .map(|r| r.action)
}

/// [`failpoint`] specialized for simple IO sites that cannot model a
/// torn write: any armed action (including `torn`) becomes an IO error,
/// except `panic`, which panics.
///
/// # Errors
///
/// Returns the injected fault when the site is armed.
pub fn io_failpoint(site: &str) -> std::io::Result<()> {
    match failpoint(site) {
        None => Ok(()),
        Some(FailAction::Panic) => panic!("failpoint {site}: injected panic"),
        Some(action) => Err(action.to_io_error(site)),
    }
}

/// One beat of `newton.hang`: called once per Newton iteration, so the
/// hung loop still polls its budget between sleeps.
pub(crate) fn hang_beat() {
    std::thread::sleep(Duration::from_micros(200));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_scope_and_nest() {
        assert!(!fault("newton.hang"));
        assert!(!fault("newton.nan"));
        with_failpoints("newton.hang", || {
            assert!(fault("newton.hang"));
            with_failpoints("newton.hang", || assert!(fault("newton.hang")));
            assert!(fault("newton.hang"));
            assert!(!fault("newton.nan"));
        });
        assert!(!fault("newton.hang"));
        with_failpoints("newton.nan", || assert!(fault("newton.nan")));
        assert!(!fault("newton.nan"));
        with_failpoints("lu.perturb", || {
            assert!(fault("lu.perturb"));
            assert!(!fault("newton.hang"));
        });
        assert!(!fault("lu.perturb"));
    }

    #[test]
    fn client_chaos_guards_scope_and_restore() {
        assert!(!fault("client.drop"));
        with_failpoints("client.drop", || assert!(fault("client.drop")));
        assert!(!fault("client.drop"));
    }

    #[test]
    fn guard_restores_on_panic() {
        let caught = std::panic::catch_unwind(|| with_failpoints("newton.hang", || panic!("boom")));
        assert!(caught.is_err());
        assert!(!fault("newton.hang"));
    }

    #[test]
    fn failpoint_spec_grammar() {
        let rules = parse_failpoints(
            "journal.append=enospc@3;manifest.rename=torn@1;chunk.run=panic@2+;\
             campaign.experiment=kill@4;lu.perturb",
        )
        .unwrap();
        assert_eq!(rules.len(), 5);
        assert_eq!(rules[0].site, "journal.append");
        assert_eq!(rules[0].action, FailAction::Enospc);
        assert_eq!(rules[0].at, 3);
        assert!(!rules[0].persistent);
        assert_eq!(rules[1].action, FailAction::Torn);
        assert_eq!(rules[2].action, FailAction::Panic);
        assert!(rules[2].persistent);
        assert_eq!(rules[3].action, FailAction::Kill);
        assert_eq!(rules[4].action, FailAction::Fault);
        // No `@` means every hit.
        let every = parse_failpoints("journal.fsync=err").unwrap();
        assert_eq!(every[0].at, 1);
        assert!(every[0].persistent);
        // A malformed entry is an error naming it, even beside valid ones.
        for (bad, why) in [
            ("bogus", "not a failpoint site"),
            ("journal.apend=err", "not a failpoint site"),
            (
                "journal.append=warp@1",
                "takes err, enospc, torn, panic or kill",
            ),
            ("journal.append=err@notanum", "not a hit count"),
            ("journal.append=err@0", "not a hit count"),
            ("journal.append", "takes err, enospc, torn, panic or kill"),
            ("lu.perturb=err", "takes no action"),
            ("campaign.experiment=err", "takes only kill"),
            ("campaign.experiment=kill@one", "not a hit count"),
        ] {
            let err = parse_failpoints(&format!("chunk.run=err@2;{bad}")).unwrap_err();
            assert!(err.starts_with(&format!("{bad}: ")), "{err}");
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn failpoint_one_shot_fires_exactly_once() {
        with_failpoints("journal.append=enospc@3", || {
            assert_eq!(failpoint("journal.append"), None); // hit 1
            assert_eq!(failpoint("journal.append"), None); // hit 2
            assert_eq!(failpoint("journal.append"), Some(FailAction::Enospc)); // hit 3
            assert_eq!(failpoint("journal.append"), None); // hit 4
                                                           // Other sites are untouched.
            assert_eq!(failpoint("manifest.rename"), None);
        });
        // Outside the guard nothing is armed.
        assert_eq!(failpoint("journal.append"), None);
    }

    #[test]
    fn failpoint_persistent_keeps_firing() {
        with_failpoints("chunk.write=err@2+", || {
            assert_eq!(failpoint("chunk.write"), None);
            assert_eq!(failpoint("chunk.write"), Some(FailAction::Err));
            assert_eq!(failpoint("chunk.write"), Some(FailAction::Err));
        });
    }

    #[test]
    fn failpoint_guards_nest_and_restore_on_panic() {
        with_failpoints("result.write=err@1", || {
            // Inner frame owns the site and has a fresh counter; its
            // verdict hides the outer frame for the scoped calls.
            with_failpoints("result.write=enospc@2", || {
                assert_eq!(failpoint("result.write"), None);
                assert_eq!(failpoint("result.write"), Some(FailAction::Enospc));
            });
            // Outer frame's counter never advanced while shadowed.
            assert_eq!(failpoint("result.write"), Some(FailAction::Err));
        });
        let caught = std::panic::catch_unwind(|| {
            with_failpoints("addr.write=err@1", || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(failpoint("addr.write"), None);
    }

    #[test]
    fn io_failpoint_maps_actions_to_errors() {
        with_failpoints("report.write=enospc@1;bench.write=torn@1", || {
            let err = io_failpoint("report.write").unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
            assert!(io_failpoint("bench.write").is_err());
            assert!(io_failpoint("report.write").is_ok());
        });
    }

    #[test]
    fn only_non_kill_rules_are_inputs() {
        assert_eq!(inputs_of(""), "");
        assert_eq!(inputs_of("campaign.experiment=kill@2;csv.rename=kill"), "");
        assert_eq!(
            inputs_of("campaign.experiment=kill@2; fig8.bad_corner ;csv.rename=kill;lu.perturb@3"),
            "fig8.bad_corner;lu.perturb@3"
        );
    }
}
