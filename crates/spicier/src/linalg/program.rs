//! The stamp program: the `(row, col)` key sequence of one assembly,
//! compiled once and then replayed with fresh values.
//!
//! For a fixed circuit and mode pattern, MNA assembly emits the same keys
//! in the same order every Newton iteration; only the values change.
//! [`Triplets`] therefore keeps its entries between assemblies. The first
//! assembly of a pattern pushes the keys and seals them under an id that is
//! unique in the process; every later assembly of that pattern rewrites the
//! values in place. A kernel that has seen the id before knows the keys
//! without comparing them (SPICE3 resolves its matrix pointers once in the
//! same way, `TSTALLOC`).

use std::sync::atomic::{AtomicU64, Ordering};

/// Source of program and owner ids; 0 is never handed out. The counter
/// publishes no other data, so `Relaxed` increments suffice.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh id, unique across the process.
pub(crate) fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// What a sealed program was compiled for: the emitter (one per
/// [`Assembler`](crate::analysis::Assembler)) and its mode pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ProgramKey {
    pub owner: u64,
    pub pattern: u8,
}

/// Coordinate-format MNA system: `(row, col)` keys with their values, in
/// emission order, and the compiled stamp program of the assembler.
///
/// Duplicate keys are summed when a kernel compresses the system, which is
/// exactly the semantics device stamps need.
///
/// [`add`](Self::add) pushes one entry. The assembler instead compiles a
/// program per mode pattern (gmin on or off, DC or transient step, the
/// pseudo-transient diagonal on or off): it pushes the keys once and seals
/// them under a nonzero [`program_id`](Self::program_id); later
/// assemblies of that pattern overwrite the values only. The kernels trust
/// a sealed id they have seen and skip the key comparison. Any
/// [`add`](Self::add), [`clear`](Self::clear) or [`reset`](Self::reset)
/// unseals the program.
#[derive(Debug, Clone, Default)]
pub struct Triplets {
    dim: usize,
    entries: Vec<(usize, usize, f64)>,
    /// Id of the sealed program; 0 while none is sealed.
    id: u64,
    /// What the sealed program was compiled for.
    compiled_for: ProgramKey,
    /// Whether an assembly is rewriting the sealed program's values.
    replaying: bool,
    /// Next entry a replay writes.
    cursor: usize,
}

impl Triplets {
    /// Creates an accumulator for an `n × n` system.
    pub fn new(n: usize) -> Self {
        Self {
            dim: n,
            ..Self::default()
        }
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Raw `(row, col, value)` entries, in emission order.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Number of entries (before duplicate merging).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Id of the sealed stamp program, unique in the process: equal ids
    /// mean equal key sequences. `None` when no program is sealed.
    pub fn program_id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }

    /// Adds `value` at `(row, col)`; duplicates accumulate. Unseals the
    /// program.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        self.id = 0;
        self.push(row, col, value);
    }

    fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.dim && col < self.dim, "index out of bounds");
        self.entries.push((row, col, value));
    }

    /// Drops all entries but keeps the allocation, ready for re-assembly.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.id = 0;
    }

    /// Drops all entries and sets the system dimension to `n`.
    pub fn reset(&mut self, n: usize) {
        self.clear();
        self.dim = n;
    }

    /// Starts one assembly of an `n`-unknown system for `key`. When the
    /// sealed program was compiled for `key`, the assembly replays it:
    /// each [`stamp`](Self::stamp) overwrites the next value. Otherwise
    /// the entries are dropped and the stamps recompile the program.
    pub(crate) fn open(&mut self, n: usize, key: ProgramKey) {
        if self.id != 0 && self.compiled_for == key && self.dim == n {
            self.replaying = true;
            self.cursor = 0;
        } else {
            self.reset(n);
            self.compiled_for = key;
            self.replaying = false;
        }
    }

    /// Emits one stamp of an assembly [`open`](Self::open)ed on this
    /// program.
    #[inline]
    pub(crate) fn stamp(&mut self, row: usize, col: usize, value: f64) {
        if self.replaying {
            let entry = &mut self.entries[self.cursor];
            debug_assert_eq!(
                (entry.0, entry.1),
                (row, col),
                "stamp program replay diverged at entry {}",
                self.cursor
            );
            entry.2 = value;
            self.cursor += 1;
        } else {
            self.push(row, col, value);
        }
    }

    /// Ends an assembly: a recompiled program is sealed under a fresh id.
    ///
    /// # Panics
    ///
    /// Panics if a replay emitted fewer entries than the program holds,
    /// which would leave stale values in the system.
    pub(crate) fn seal(&mut self) {
        if self.replaying {
            assert_eq!(
                self.cursor,
                self.entries.len(),
                "stamp program replay emitted a different entry count"
            );
            self.replaying = false;
        } else {
            self.id = fresh_id();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: ProgramKey = ProgramKey {
        owner: 7,
        pattern: 1,
    };

    fn assemble(t: &mut Triplets, key: ProgramKey, scale: f64) {
        t.open(3, key);
        t.stamp(0, 0, scale);
        t.stamp(2, 1, -scale);
        t.stamp(0, 0, 0.5 * scale);
        t.seal();
    }

    #[test]
    fn replay_rewrites_values_under_the_same_id() {
        let mut t = Triplets::new(3);
        assemble(&mut t, KEY, 1.0);
        let id = t.program_id().expect("sealed");
        assemble(&mut t, KEY, 2.0);
        assert_eq!(t.program_id(), Some(id));
        assert_eq!(t.entries(), &[(0, 0, 2.0), (2, 1, -2.0), (0, 0, 1.0)]);
    }

    #[test]
    fn a_new_key_or_a_push_recompiles() {
        let mut t = Triplets::new(3);
        assemble(&mut t, KEY, 1.0);
        let first = t.program_id().expect("sealed");
        let other = ProgramKey { pattern: 2, ..KEY };
        assemble(&mut t, other, 1.0);
        let second = t.program_id().expect("sealed");
        assert_ne!(first, second);
        t.add(1, 1, 3.0);
        assert_eq!(t.program_id(), None);
        assemble(&mut t, other, 1.0);
        assert_eq!(t.len(), 3, "the pushed entry is gone after recompiling");
        assert!(t.program_id().is_some_and(|id| id != second));
    }

    #[test]
    #[should_panic(expected = "different entry count")]
    fn a_short_replay_is_caught_when_sealed() {
        let mut t = Triplets::new(3);
        assemble(&mut t, KEY, 1.0);
        t.open(3, KEY);
        t.stamp(0, 0, 1.0);
        t.seal();
    }
}
