//! The stamp program: the `(row, col)` key sequence of one assembly,
//! compiled once and then replayed with fresh values.
//!
//! For a fixed circuit and mode pattern, MNA assembly emits the same keys
//! in the same order every Newton iteration; only the values change.
//! [`Triplets`] therefore keeps its entries between assemblies. The first
//! assembly of a pattern pushes the keys and seals them under an id that is
//! unique in the process; every later assembly of that pattern writes the
//! values straight to where the first one compiled them. A kernel that has
//! seen the id before knows the keys without comparing them (SPICE3
//! resolves its matrix pointers once in the same way, `TSTALLOC`).
//!
//! On a system the dense kernel solves (at most
//! [`DENSE_CUTOFF`](super::DENSE_CUTOFF) unknowns) the seal also merges the
//! entries into *slots*, one per distinct key, so a replay adds each stamp
//! into its slot and no stamp is stored on its own. Larger systems keep
//! one entry per stamp for the sparse kernel, whose compression sums a
//! slot's stamps in its own sort order.

use std::sync::atomic::{AtomicU64, Ordering};

/// Source of program and owner ids; 0 is never handed out. The counter
/// publishes no other data, so `Relaxed` increments suffice.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh id, unique across the process.
pub(crate) fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Replay target of a stamp that touches ground. It lies past the end of
/// every entry list, so the bounds check of the replayed write drops the
/// stamp: the ground test is made once, when the program compiles.
const GROUND: u32 = u32::MAX;

/// What a sealed program was compiled for: the emitter (one per
/// [`Assembler`](crate::analysis::Assembler)) and its mode pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ProgramKey {
    pub owner: u64,
    pub pattern: u8,
}

/// Coordinate-format MNA system: `(row, col)` keys with their values, and
/// the compiled stamp program of the assembler.
///
/// Duplicate keys are summed when a kernel compresses the system, which is
/// exactly the semantics device stamps need.
///
/// [`add`](Self::add) pushes one entry. The assembler instead compiles a
/// program per mode pattern (gmin on or off, DC or transient step, the
/// pseudo-transient diagonal on or off): it emits its stamps once and
/// seals them under a nonzero [`program_id`](Self::program_id); later
/// assemblies of that pattern rewrite the values only. The kernels trust
/// a sealed id they have seen and skip the key comparison. Any
/// [`add`](Self::add), [`clear`](Self::clear) or [`reset`](Self::reset)
/// unseals the program.
///
/// A sealed program of at most [`DENSE_CUTOFF`](super::DENSE_CUTOFF)
/// unknowns holds its slots as its [`entries`](Self::entries): one per
/// distinct key, in row-major order, each the sum of its stamps added into
/// +0.0 in emission order, which is what scattering the stamps into a
/// zeroed matrix gives.
#[derive(Debug, Clone, Default)]
pub struct Triplets {
    dim: usize,
    entries: Vec<(usize, usize, f64)>,
    /// For each stamp of the program, in emission order: the entry it
    /// writes, or [`GROUND`].
    targets: Vec<u32>,
    /// Id of the sealed program; 0 while none is sealed.
    id: u64,
    /// What the sealed program was compiled for.
    compiled_for: ProgramKey,
    /// Whether the sealed program's entries are slots that its stamps add
    /// into, rather than one entry per stamp.
    slotted: bool,
    /// Slot layout for every later seal, whatever the dimension (see
    /// [`force_slots`](Self::force_slots)); `None` decides by dimension.
    forced_slots: Option<bool>,
    /// Whether an assembly is rewriting the sealed program's values.
    replaying: bool,
    /// Next stamp a replay writes.
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

    /// Raw `(row, col, value)` entries: one per stamp in emission order,
    /// or one per slot for a sealed program of at most
    /// [`DENSE_CUTOFF`](super::DENSE_CUTOFF) unknowns (see [`Triplets`]).
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

    /// The slots of a sealed program of at most
    /// [`DENSE_CUTOFF`](super::DENSE_CUTOFF) unknowns (or of any size
    /// under [`force_slots`](Self::force_slots)): duplicate-free keys in
    /// row-major order, no value −0.0. `None` for any other system.
    pub(crate) fn slots(&self) -> Option<&[(usize, usize, f64)]> {
        (self.id != 0 && self.slotted).then_some(&self.entries)
    }

    /// The `(row, col)` of every entry pushed or stamp compiled off
    /// ground, in emission order: the stamp sequence, whether the entries
    /// hold stamps or slots.
    pub(crate) fn stamp_keys(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let slotted = self.slots().is_some();
        let stamps = (!slotted).then_some(self.entries.iter());
        let compiled = slotted.then_some(
            self.targets
                .iter()
                .filter_map(|&target| self.entries.get(target as usize)),
        );
        stamps
            .into_iter()
            .flatten()
            .chain(compiled.into_iter().flatten())
            .map(|&(r, c, _)| (r, c))
    }

    /// Bench hook: every later recompiled program is sealed with slots
    /// (`true`) or with one entry per stamp (`false`) whatever its
    /// dimension, so that each kernel can be timed on the input it gets at
    /// its own sizes on both sides of the cutoff. Analyses never call it:
    /// the sparse kernel's sums over slots would not be bit-identical.
    #[doc(hidden)]
    pub fn force_slots(&mut self, slots: bool) {
        self.forced_slots = Some(slots);
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
        self.targets.clear();
        self.id = 0;
        self.slotted = false;
    }

    /// Drops all entries and sets the system dimension to `n`.
    pub fn reset(&mut self, n: usize) {
        self.clear();
        self.dim = n;
    }

    /// Starts one assembly of an `n`-unknown system for `key`. When the
    /// sealed program was compiled for `key`, the assembly replays it:
    /// [`stamps`](Self::stamps) write each next value where the program
    /// compiled it, into slots zeroed here. Otherwise the entries are
    /// dropped and the stamps recompile the program.
    pub(crate) fn open(&mut self, n: usize, key: ProgramKey) {
        if self.id != 0 && self.compiled_for == key && self.dim == n {
            self.replaying = true;
            self.cursor = 0;
            if self.slotted {
                for entry in &mut self.entries {
                    entry.2 = 0.0;
                }
            }
        } else {
            self.reset(n);
            self.compiled_for = key;
            self.replaying = false;
        }
    }

    /// Emits `N` stamps of an assembly [`open`](Self::open)ed on this
    /// program: `values[k]` at `keys[k]`, where a `None` index is ground and
    /// drops the stamp. A replay ignores the keys (debug builds check
    /// them): it reads the block's targets in one bounds check, with the
    /// cursor in a register, and adds each value into its slot. Devices
    /// emit their stamps in blocks for that reason.
    #[inline(always)]
    pub(crate) fn stamps<const N: usize>(
        &mut self,
        keys: [(Option<usize>, Option<usize>); N],
        values: [f64; N],
    ) {
        if !self.replaying {
            for (&(row, col), &value) in keys.iter().zip(&values) {
                self.compile(row, col, value);
            }
            return;
        }
        self.replay(N, |k| keys[k], values);
    }

    /// Emits `value` on the diagonal of each of the first `n` unknowns,
    /// as `n` one-stamp [`stamps`](Self::stamps) calls would.
    pub(crate) fn stamp_diagonal(&mut self, n: usize, value: f64) {
        if !self.replaying {
            for i in 0..n {
                self.compile(Some(i), Some(i), value);
            }
            return;
        }
        self.replay(n, |i| (Some(i), Some(i)), std::iter::repeat(value));
    }

    /// Replays the next `len` stamps: adds `values` into a slotted
    /// program's slots, or overwrites a per-stamp program's entries. A
    /// [`GROUND`] target fails the bounds check and writes nothing. The
    /// block's targets are read in one bounds check, with the cursor in a
    /// register; `key(k)` is stamp `k`'s key, checked in debug builds.
    #[inline(always)]
    fn replay(
        &mut self,
        len: usize,
        key: impl Fn(usize) -> (Option<usize>, Option<usize>),
        values: impl IntoIterator<Item = f64>,
    ) {
        let at = self.cursor;
        let block = &self.targets[at..at + len];
        for (k, &target) in block.iter().enumerate() {
            let (row, col) = key(k);
            debug_assert_eq!(
                self.entries.get(target as usize).map(|e| (e.0, e.1)),
                row.zip(col),
                "stamp program replay diverged at stamp {}",
                at + k
            );
        }
        for (&target, value) in block.iter().zip(values) {
            if let Some(entry) = self.entries.get_mut(target as usize) {
                if self.slotted {
                    entry.2 += value;
                } else {
                    entry.2 = value;
                }
            }
        }
        self.cursor = at + len;
    }

    /// Compiles one stamp: pushes it, or records a ground stamp. Kept out
    /// of line so that the replay side inlines into the devices' code.
    #[inline(never)]
    fn compile(&mut self, row: Option<usize>, col: Option<usize>, value: f64) {
        if let (Some(row), Some(col)) = (row, col) {
            self.targets.push(self.entries.len() as u32);
            self.push(row, col, value);
        } else {
            self.targets.push(GROUND);
        }
    }

    /// Ends an assembly: a recompiled program is sealed under a fresh id,
    /// its entries merged into slots on a dense-kernel system.
    ///
    /// # Panics
    ///
    /// Panics if a replay emitted fewer stamps than the program holds,
    /// which would leave stale values in the system.
    pub(crate) fn seal(&mut self) {
        if self.replaying {
            assert_eq!(
                self.cursor,
                self.targets.len(),
                "stamp program replay emitted a different stamp count"
            );
            self.replaying = false;
        } else {
            if self.forced_slots.unwrap_or(self.dim <= super::DENSE_CUTOFF) {
                self.merge_slots();
            }
            self.id = fresh_id();
        }
    }

    /// Merges the entries into slots, one per distinct key in row-major
    /// order, each the sum of its entries added into +0.0 in emission
    /// order, and points every stamp at its slot. The keys are marked on
    /// a dense grid (the system is dense-kernel sized), so scanning it
    /// yields the row-major order without a sort.
    fn merge_slots(&mut self) {
        let dim = self.dim;
        let mut slot_at = vec![GROUND; dim * dim];
        for &(r, c, _) in &self.entries {
            slot_at[r * dim + c] = 0;
        }
        let mut slots: Vec<(usize, usize, f64)> = Vec::with_capacity(self.entries.len());
        for (at, slot) in slot_at.iter_mut().enumerate() {
            if *slot != GROUND {
                *slot = slots.len() as u32;
                slots.push((at / dim, at % dim, 0.0));
            }
        }
        for &(r, c, v) in &self.entries {
            slots[slot_at[r * dim + c] as usize].2 += v;
        }
        for target in &mut self.targets {
            if let Some(&(r, c, _)) = self.entries.get(*target as usize) {
                *target = slot_at[r * dim + c];
            }
        }
        self.entries = slots;
        self.slotted = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::DENSE_CUTOFF;

    const KEY: ProgramKey = ProgramKey {
        owner: 7,
        pattern: 1,
    };

    fn assemble(t: &mut Triplets, n: usize, key: ProgramKey, scale: f64) {
        t.open(n, key);
        t.stamps(
            [(Some(0), Some(0)), (Some(2), None), (Some(2), Some(1))],
            [scale, 9.0, -scale],
        );
        t.stamps([(None, Some(1)), (Some(0), Some(0))], [9.0, 0.5 * scale]);
        t.seal();
    }

    #[test]
    fn replay_adds_into_slots_under_the_same_id() {
        let mut t = Triplets::new(3);
        assemble(&mut t, 3, KEY, 1.0);
        let id = t.program_id().expect("sealed");
        assert_eq!(t.entries(), &[(0, 0, 1.5), (2, 1, -1.0)]);
        assemble(&mut t, 3, KEY, 2.0);
        assert_eq!(t.program_id(), Some(id));
        assert_eq!(t.slots(), Some(&[(0, 0, 3.0), (2, 1, -2.0)][..]));
    }

    #[test]
    fn slots_keep_the_stamp_sequence() {
        let mut t = Triplets::new(3);
        assemble(&mut t, 3, KEY, 1.0);
        let keys: Vec<_> = t.stamp_keys().collect();
        assert_eq!(keys, [(0, 0), (2, 1), (0, 0)]);
        t.add(1, 1, 3.0);
        let keys: Vec<_> = t.stamp_keys().collect();
        assert_eq!(keys, [(0, 0), (2, 1), (1, 1)], "unsealed: the entries");
    }

    #[test]
    fn a_sparse_kernel_system_keeps_one_entry_per_stamp() {
        let n = DENSE_CUTOFF + 1;
        let mut t = Triplets::new(n);
        assemble(&mut t, n, KEY, 1.0);
        assemble(&mut t, n, KEY, 2.0);
        assert_eq!(t.slots(), None);
        assert_eq!(t.entries(), &[(0, 0, 2.0), (2, 1, -2.0), (0, 0, 1.0)]);
    }

    #[test]
    fn forced_slots_hold_on_either_side_of_the_cutoff() {
        let n = DENSE_CUTOFF + 1;
        let mut t = Triplets::new(n);
        t.force_slots(true);
        assemble(&mut t, n, KEY, 1.0);
        assemble(&mut t, n, KEY, 2.0);
        assert_eq!(t.slots(), Some(&[(0, 0, 3.0), (2, 1, -2.0)][..]));
        let mut t = Triplets::new(3);
        t.force_slots(false);
        assemble(&mut t, 3, KEY, 2.0);
        assert_eq!(t.slots(), None);
        assert_eq!(t.entries(), &[(0, 0, 2.0), (2, 1, -2.0), (0, 0, 1.0)]);
    }

    #[test]
    fn a_new_key_or_a_push_recompiles() {
        let mut t = Triplets::new(3);
        assemble(&mut t, 3, KEY, 1.0);
        let first = t.program_id().expect("sealed");
        let other = ProgramKey { pattern: 2, ..KEY };
        assemble(&mut t, 3, other, 1.0);
        let second = t.program_id().expect("sealed");
        assert_ne!(first, second);
        t.add(1, 1, 3.0);
        assert_eq!(t.program_id(), None);
        assert_eq!(t.slots(), None, "a pushed entry is not a slot");
        assemble(&mut t, 3, other, 1.0);
        assert_eq!(t.len(), 2, "the pushed entry is gone after recompiling");
        assert!(t.program_id().is_some_and(|id| id != second));
    }

    #[test]
    #[should_panic(expected = "different stamp count")]
    fn a_short_replay_is_caught_when_sealed() {
        let mut t = Triplets::new(3);
        assemble(&mut t, 3, KEY, 1.0);
        t.open(3, KEY);
        t.stamps([(Some(0), Some(0))], [1.0]);
        t.seal();
    }
}
