//! Chaos-injection harness: deterministic synthetic failures used by the
//! robustness test suite and the CI chaos smoke job to prove the budget,
//! salvage, and sweep-isolation layers degrade gracefully.
//!
//! Two faults can be injected inside the Newton loop:
//!
//! * **hang** — every iteration sleeps and convergence is vetoed, turning
//!   the solve into the pathological never-converging corner that only a
//!   wall-clock deadline can bound;
//! * **NaN stamp** — a `NaN` is planted in the assembled right-hand side
//!   each iteration, modelling a device evaluation gone non-finite.
//!
//! A third fault targets the linear-algebra layer itself:
//!
//! * **LU perturbation** — one pivot of every completed factorization is
//!   scaled by a large factor, modelling silent factor corruption (bad
//!   memory, a miscompiled kernel, an out-of-bounds write). The solve
//!   then *completes without any error*; only the residual certifier
//!   (`linalg::verify`) can tell the answer is wrong, which is exactly
//!   what the `CHAOS_PERTURB_LU` drill proves.
//!
//! Injection is scoped: [`with_hang`] / [`with_nan_stamp`] poison only
//! the solves performed inside the closure on the current thread, which
//! is how the experiment harness poisons exactly one sweep corner. LU
//! perturbation also has a process-wide form, `CHAOS_PERTURB_LU` (set
//! non-empty, not `"0"`). Production code paths never call the injection
//! points with chaos active; with every source off, the checks are a
//! thread-local counter read per Newton attempt.
//!
//! A client-side fault, [`with_drop_client`], makes the campaign-server
//! client send its request and then sever the connection before the
//! reply, modelling a client that vanishes mid-request.
//!
//! A fourth family targets the *durable-state* layer: named IO
//! **failpoints** (see [`failpoint`]) let tests and the loadgen harness
//! inject deterministic disk faults — ENOSPC, generic IO errors, torn
//! writes, and panics — at specific write sites (`journal.append`,
//! `manifest.rename`, `chunk.write`, ...) on an exact hit count, via
//! `SPICIER_FAILPOINTS` or the scoped [`with_failpoints`] guard.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

thread_local! {
    static HANG_DEPTH: Cell<u32> = const { Cell::new(0) };
    static NAN_DEPTH: Cell<u32> = const { Cell::new(0) };
    static PERTURB_DEPTH: Cell<u32> = const { Cell::new(0) };
    static DROP_DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn env_perturb() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| std::env::var("CHAOS_PERTURB_LU").is_ok_and(|v| !v.is_empty() && v != "0"))
}

struct DepthGuard(&'static std::thread::LocalKey<Cell<u32>>);

impl Drop for DepthGuard {
    fn drop(&mut self) {
        self.0.with(|d| d.set(d.get() - 1));
    }
}

/// Runs `f` with hang injection active on this thread: every Newton
/// iteration sleeps ~200 µs and never converges.
pub fn with_hang<R>(f: impl FnOnce() -> R) -> R {
    HANG_DEPTH.with(|d| d.set(d.get() + 1));
    let _guard = DepthGuard(&HANG_DEPTH);
    f()
}

/// Runs `f` with NaN-stamp injection active on this thread: a `NaN` is
/// written into the assembled RHS before every linear solve.
pub fn with_nan_stamp<R>(f: impl FnOnce() -> R) -> R {
    NAN_DEPTH.with(|d| d.set(d.get() + 1));
    let _guard = DepthGuard(&NAN_DEPTH);
    f()
}

/// Runs `f` with LU-perturbation injection active on this thread: one
/// pivot of every completed factorization is corrupted, so solves finish
/// cleanly but produce wrong answers only the residual certifier catches.
pub fn with_perturb_lu<R>(f: impl FnOnce() -> R) -> R {
    PERTURB_DEPTH.with(|d| d.set(d.get() + 1));
    let _guard = DepthGuard(&PERTURB_DEPTH);
    f()
}

/// Whether hang injection is active on this thread.
#[must_use]
pub fn hang_active() -> bool {
    HANG_DEPTH.with(Cell::get) > 0
}

/// Whether NaN-stamp injection is active on this thread.
#[must_use]
pub fn nan_stamp_active() -> bool {
    NAN_DEPTH.with(Cell::get) > 0
}

/// Whether LU-perturbation injection is active (scoped guard or
/// `CHAOS_PERTURB_LU`).
#[must_use]
pub fn perturb_lu_active() -> bool {
    PERTURB_DEPTH.with(Cell::get) > 0 || env_perturb()
}

/// One hang beat: called once per Newton iteration while hang injection
/// is active, so the "hung" loop still polls its budget between sleeps.
pub(crate) fn hang_beat() {
    std::thread::sleep(Duration::from_micros(200));
}

/// Runs `f` with client-drop injection active on this thread: the request
/// client sends each request and then severs the connection before the
/// reply, modelling a client that vanishes while talking to the daemon.
pub fn with_drop_client<R>(f: impl FnOnce() -> R) -> R {
    DROP_DEPTH.with(|d| d.set(d.get() + 1));
    let _guard = DepthGuard(&DROP_DEPTH);
    f()
}

/// Whether client-drop injection ([`with_drop_client`]) is active on
/// this thread.
#[must_use]
pub fn drop_client_active() -> bool {
    DROP_DEPTH.with(Cell::get) > 0
}

// ---------------------------------------------------------------------
// Named IO failpoints: deterministic disk-fault injection for the
// durable-state layer (journal, manifests, part-CSVs, reports).

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
    /// Site name, e.g. `journal.append`.
    pub site: String,
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

/// Parses a failpoint spec: `;`-separated `site=action[@N[+]]` entries,
/// e.g. `journal.append=enospc@3;manifest.rename=torn@1;chunk.run=panic`.
/// Without `@N` the rule fires on every hit; `@N` fires exactly on the
/// `N`-th hit of that site; `@N+` fires on the `N`-th and every later
/// hit. Malformed entries are ignored (chaos must never break a run).
#[must_use]
pub fn parse_failpoints(spec: &str) -> Vec<FailRule> {
    let mut rules = Vec::new();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let Some((site, rhs)) = entry.split_once('=') else {
            continue;
        };
        let (action_str, at, persistent) = match rhs.split_once('@') {
            None => (rhs, 1, true),
            Some((a, count)) => {
                let (count, persistent) = match count.strip_suffix('+') {
                    Some(c) => (c, true),
                    None => (count, false),
                };
                let Ok(n) = count.trim().parse::<u64>() else {
                    continue;
                };
                (a, n.max(1), persistent)
            }
        };
        let action = match action_str.trim() {
            "err" => FailAction::Err,
            "enospc" => FailAction::Enospc,
            "torn" => FailAction::Torn,
            "panic" => FailAction::Panic,
            _ => continue,
        };
        rules.push(FailRule {
            site: site.trim().to_string(),
            action,
            at,
            persistent,
        });
    }
    rules
}

fn env_failpoints() -> &'static [FailRule] {
    static RULES: OnceLock<Vec<FailRule>> = OnceLock::new();
    RULES.get_or_init(|| {
        std::env::var("SPICIER_FAILPOINTS")
            .map(|spec| parse_failpoints(&spec))
            .unwrap_or_default()
    })
}

fn env_failpoint_hits() -> &'static Mutex<HashMap<String, u64>> {
    static HITS: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();
    HITS.get_or_init(|| Mutex::new(HashMap::new()))
}

struct ScopedFailpoints {
    rules: Vec<FailRule>,
    hits: HashMap<String, u64>,
}

thread_local! {
    static SCOPED_FAILPOINTS: RefCell<Vec<ScopedFailpoints>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with the failpoint rules of `spec` (see [`parse_failpoints`])
/// active on this thread, with fresh hit counters. Guards nest; the
/// innermost guard that knows a site decides for it. Used by tests to
/// inject disk faults without touching the process environment.
pub fn with_failpoints<R>(spec: &str, f: impl FnOnce() -> R) -> R {
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            SCOPED_FAILPOINTS.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    SCOPED_FAILPOINTS.with(|s| {
        s.borrow_mut().push(ScopedFailpoints {
            rules: parse_failpoints(spec),
            hits: HashMap::new(),
        })
    });
    let _pop = Pop;
    f()
}

/// Registers one hit at the named failpoint site and returns the fault
/// to inject, if any. Scoped guards ([`with_failpoints`]) take
/// precedence over `SPICIER_FAILPOINTS`; hit counting is deterministic
/// per site. With neither source armed for the site, this is a
/// thread-local emptiness check plus one `OnceLock` load.
#[must_use]
pub fn failpoint(site: &str) -> Option<FailAction> {
    // Innermost scoped frame that has rules for this site decides.
    let scoped = SCOPED_FAILPOINTS.with(|s| {
        let mut frames = s.borrow_mut();
        for frame in frames.iter_mut().rev() {
            if frame.rules.iter().any(|r| r.site == site) {
                let hits = frame.hits.entry(site.to_string()).or_insert(0);
                *hits += 1;
                let n = *hits;
                return Some(
                    frame
                        .rules
                        .iter()
                        .find(|r| r.site == site && r.fires(n))
                        .map(|r| r.action),
                );
            }
        }
        None
    });
    if let Some(verdict) = scoped {
        return verdict;
    }
    let rules = env_failpoints();
    if !rules.iter().any(|r| r.site == site) {
        return None;
    }
    let mut hits = env_failpoint_hits()
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let n = {
        let h = hits.entry(site.to_string()).or_insert(0);
        *h += 1;
        *h
    };
    rules
        .iter()
        .find(|r| r.site == site && r.fires(n))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_scope_and_nest() {
        assert!(!hang_active());
        assert!(!nan_stamp_active());
        with_hang(|| {
            assert!(hang_active());
            with_hang(|| assert!(hang_active()));
            assert!(hang_active());
            assert!(!nan_stamp_active());
        });
        assert!(!hang_active());
        with_nan_stamp(|| assert!(nan_stamp_active()));
        assert!(!nan_stamp_active());
        with_perturb_lu(|| {
            assert!(perturb_lu_active());
            assert!(!hang_active());
        });
        assert!(!perturb_lu_active());
    }

    #[test]
    fn client_chaos_guards_scope_and_restore() {
        assert!(!drop_client_active());
        with_drop_client(|| assert!(drop_client_active()));
        assert!(!drop_client_active());
    }

    #[test]
    fn guard_restores_on_panic() {
        let caught = std::panic::catch_unwind(|| with_hang(|| panic!("boom")));
        assert!(caught.is_err());
        assert!(!hang_active());
    }

    #[test]
    fn failpoint_spec_grammar() {
        let rules =
            parse_failpoints("journal.append=enospc@3;manifest.rename=torn@1;chunk.run=panic@2+");
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[0].site, "journal.append");
        assert_eq!(rules[0].action, FailAction::Enospc);
        assert_eq!(rules[0].at, 3);
        assert!(!rules[0].persistent);
        assert_eq!(rules[1].action, FailAction::Torn);
        assert_eq!(rules[2].action, FailAction::Panic);
        assert!(rules[2].persistent);
        // No `@` means every hit.
        let every = parse_failpoints("journal.fsync=err");
        assert_eq!(every[0].at, 1);
        assert!(every[0].persistent);
        // Malformed entries are dropped, valid siblings survive.
        let partial = parse_failpoints("bogus;x=warp@1;journal.append=err@notanum;ok=err@2");
        assert_eq!(partial.len(), 1);
        assert_eq!(partial[0].site, "ok");
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
        with_failpoints("a=err@1", || {
            // Inner frame owns site `a` and has a fresh counter; its
            // verdict hides the outer frame for the scoped calls.
            with_failpoints("a=enospc@2", || {
                assert_eq!(failpoint("a"), None);
                assert_eq!(failpoint("a"), Some(FailAction::Enospc));
            });
            // Outer frame's counter never advanced while shadowed.
            assert_eq!(failpoint("a"), Some(FailAction::Err));
        });
        let caught = std::panic::catch_unwind(|| {
            with_failpoints("b=err@1", || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(failpoint("b"), None);
    }

    #[test]
    fn io_failpoint_maps_actions_to_errors() {
        with_failpoints("j=enospc@1;k=torn@1", || {
            let err = io_failpoint("j").unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
            assert!(io_failpoint("k").is_err());
            assert!(io_failpoint("j").is_ok());
        });
    }
}
