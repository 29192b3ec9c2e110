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
//! The seal also merges the entries into *slots*, one per distinct key,
//! so a replay adds each stamp into its slot and no stamp is stored on its
//! own. Both kernels read the slots, so they factor the same assembled
//! matrix, and [`Compiled`] is their one test of whether a layout they
//! compiled still holds.

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
/// Duplicate keys are summed, which is exactly the semantics device stamps
/// need.
///
/// [`add`](Self::add) pushes one entry, for tests, benches and callers of
/// the public API. Every analysis instead compiles a program per mode
/// pattern (the assembler: gmin on or off, DC or transient step, the
/// pseudo-transient diagonal on or off; AC and noise: the real form of
/// the complex system, one per orientation): it emits its stamps once and
/// seals them under a nonzero [`program_id`](Self::program_id); later
/// assemblies of that pattern rewrite the values only. The kernels trust
/// a sealed id they have seen and skip the key comparison. Any
/// [`add`](Self::add), [`clear`](Self::clear) or [`reset`](Self::reset)
/// unseals the program.
///
/// A sealed program, whatever its dimension, holds its slots as its
/// [`entries`](Self::entries): one per distinct key, in row-major order,
/// each the sum of its stamps added into +0.0 in emission order, which is
/// what scattering the stamps into a zeroed matrix gives. Both kernels
/// read slots only: each merges a pushed system into slots of its own with
/// the seal's merge, so every reader sums a position's stamps one way.
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
    /// Whether an assembly is rewriting the sealed program's values.
    replaying: bool,
    /// Next stamp a replay writes.
    cursor: usize,
}

/// Buffers of [`merge_slots`], kept from one merge to the next.
#[derive(Debug, Clone, Default)]
pub(crate) struct MergeScratch {
    counts: Vec<u32>,
    by_col: Vec<u32>,
    by_row: Vec<u32>,
    /// The merged slots.
    pub slots: Vec<(usize, usize, f64)>,
}

/// Stable counting sort of the entry indices `items` by `key(item)`,
/// which is below `dim`, into `out`.
fn counting_sort(
    counts: &mut Vec<u32>,
    dim: usize,
    items: impl Iterator<Item = u32> + Clone,
    key: impl Fn(u32) -> usize,
    out: &mut Vec<u32>,
) {
    counts.clear();
    counts.resize(dim + 1, 0);
    for i in items.clone() {
        counts[key(i) + 1] += 1;
    }
    for k in 0..dim {
        counts[k + 1] += counts[k];
    }
    out.clear();
    out.resize(counts[dim] as usize, 0);
    for i in items {
        let at = &mut counts[key(i)];
        out[*at as usize] = i;
        *at += 1;
    }
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

    /// Raw `(row, col, value)` entries: one per slot for a sealed program
    /// (see [`Triplets`]), or one per entry pushed with
    /// [`add`](Self::add), in push order.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Number of [`entries`](Self::entries).
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

    /// The slots of a sealed program: duplicate-free keys in row-major
    /// order, no value −0.0. `None` for a pushed system.
    pub(crate) fn slots(&self) -> Option<&[(usize, usize, f64)]> {
        (self.id != 0).then_some(&self.entries)
    }

    /// The `(row, col)` of every entry pushed or stamp compiled off
    /// ground, in emission order: the stamp sequence, whether the entries
    /// hold pushed stamps or slots.
    pub(crate) fn stamp_keys(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let sealed = self.id != 0;
        let stamps = (!sealed).then_some(self.entries.iter());
        let compiled = sealed.then_some(
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
            for entry in &mut self.entries {
                entry.2 = 0.0;
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

    /// Replays the next `len` stamps: adds `values` into their slots. A
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
                entry.2 += value;
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
    /// its entries merged into slots. The merge's buffers and the stamps
    /// are dropped here: a program is merged once per compile, and a wide
    /// circuit's would otherwise stay allocated beside its slots.
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
            // Point every stamp at its slot; the slots become the entries.
            let mut merge = MergeScratch::default();
            let slot_of = merge_slots(self.dim, &self.entries, &mut merge);
            for target in &mut self.targets {
                if let Some(&slot) = slot_of.get(*target as usize) {
                    *target = slot;
                }
            }
            self.entries = merge.slots;
            self.id = fresh_id();
        }
    }
}

/// Merges the `dim`-unknown system `entries` into `scratch.slots`: one
/// slot per distinct key in row-major order, each the sum of its entries
/// added into +0.0 in emission order, which is what scattering them into
/// a zeroed matrix gives. Returns each entry's slot. Two stable counting
/// sorts, by column and then by row, put the entries in row-major order
/// with each key's entries in emission order: O(n + m) for `n` unknowns
/// and `m` entries, at any dimension. Kept out of line: the seal and the
/// kernels' merge of a pushed system call it, never a replay.
#[inline(never)]
pub(crate) fn merge_slots<'a>(
    dim: usize,
    entries: &[(usize, usize, f64)],
    scratch: &'a mut MergeScratch,
) -> &'a [u32] {
    let MergeScratch {
        counts,
        by_col,
        by_row,
        slots,
    } = scratch;
    let items = 0..entries.len() as u32;
    counting_sort(counts, dim, items, |i| entries[i as usize].1, by_col);
    let items = by_col.iter().copied();
    counting_sort(counts, dim, items, |i| entries[i as usize].0, by_row);
    // `by_col` becomes each entry's slot.
    let slot_of = by_col;
    slots.clear();
    for &i in by_row.iter() {
        let (r, c, v) = entries[i as usize];
        if slots.last().map(|&(sr, sc, _)| (sr, sc)) != Some((r, c)) {
            slots.push((r, c, 0.0));
        }
        let slot = slots.len() - 1;
        slots[slot].2 += v;
        slot_of[i as usize] = slot as u32;
    }
    slot_of
}

/// The system a kernel compiled its layout for, and the one test both
/// kernels make before a solve: whether that layout still holds.
///
/// A program id matched before vouches for the stamp sequence, so its keys
/// are not compared again. On a new id, or on a pushed system, which has
/// none, the stamp sequence ([`Triplets::stamp_keys`]) is compared once,
/// and the id is adopted when it is equal: so the layout, and what a kernel
/// caches with it, survive a workspace shared by several assemblers of one
/// topology. The keys of the stamps are compared, not those of the slots,
/// so two mode patterns that stamp the same positions still recompile as a
/// fresh kernel would.
#[derive(Debug, Clone, Default)]
pub(crate) struct Compiled {
    /// Dimension of the compiled system; `None` before the first compile.
    dim: Option<usize>,
    /// Its stamp sequence.
    keys: Vec<(u32, u32)>,
    /// Id of the stamp program last matched against `keys`.
    program: Option<u64>,
}

impl Compiled {
    /// Records `triplets` as the compiled system.
    pub(crate) fn compile(&mut self, triplets: &Triplets) {
        self.dim = Some(triplets.dim());
        self.keys.clear();
        self.keys
            .extend(triplets.stamp_keys().map(|(r, c)| (r as u32, c as u32)));
        self.program = triplets.program_id();
    }

    /// Whether `triplets` has the compiled dimension and stamp sequence:
    /// its program id was matched before, or its keys are equal.
    pub(crate) fn matches(&self, triplets: &Triplets) -> bool {
        let id = triplets.program_id();
        let cached = self.keys.iter().map(|&(r, c)| (r as usize, c as usize));
        (id.is_some() && id == self.program)
            || (self.dim == Some(triplets.dim()) && triplets.stamp_keys().eq(cached))
    }

    /// Whether the compiled layout holds for `triplets`, adopting its
    /// program id when it does. When it does not, the caller recompiles.
    pub(crate) fn holds(&mut self, triplets: &Triplets) -> bool {
        let holds = self.matches(triplets);
        if holds {
            self.program = triplets.program_id();
        }
        holds
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
    fn slots_are_row_major_and_summed_from_positive_zero() {
        let mut t = Triplets::new(3);
        t.open(3, KEY);
        t.stamps(
            [(Some(2), Some(2)), (Some(1), Some(2)), (Some(1), Some(0))],
            [1.0, 1.0e16, -0.0],
        );
        t.stamps([(Some(0), Some(1)), (Some(1), Some(2))], [2.0, 1.0]);
        t.stamps([(Some(1), Some(2)), (None, Some(0))], [-1.0e16, 5.0]);
        t.seal();
        let slots = t.slots().expect("slotted");
        assert_eq!(slots, &[(0, 1, 2.0), (1, 0, 0.0), (1, 2, 0.0), (2, 2, 1.0)]);
        assert!(slots[1].2.is_sign_positive(), "−0.0 added into +0.0");
        let keys: Vec<_> = t.stamp_keys().collect();
        assert_eq!(keys, [(2, 2), (1, 2), (1, 0), (0, 1), (1, 2), (1, 2)]);
    }

    #[test]
    fn a_sparse_kernel_program_is_slotted_too() {
        let n = DENSE_CUTOFF + 1;
        let mut t = Triplets::new(n);
        assemble(&mut t, n, KEY, 1.0);
        assemble(&mut t, n, KEY, 2.0);
        assert_eq!(t.slots(), Some(&[(0, 0, 3.0), (2, 1, -2.0)][..]));
    }

    #[test]
    fn a_compiled_layout_holds_for_its_id_and_its_stamp_sequence() {
        let mut t = Triplets::new(3);
        assemble(&mut t, 3, KEY, 1.0);
        let mut compiled = Compiled::default();
        assert!(!compiled.holds(&t), "nothing compiled yet");
        compiled.compile(&t);
        assert!(compiled.holds(&t));
        // The same stamps under another program: compared, and adopted.
        let other = ProgramKey { pattern: 2, ..KEY };
        assemble(&mut t, 3, other, 1.0);
        assert!(compiled.holds(&t));
        assert_eq!(compiled.program, t.program_id());
        // The same slots from another stamp sequence do not hold.
        t.open(3, KEY);
        t.stamps([(Some(2), Some(1)), (Some(0), Some(0))], [1.0, 1.0]);
        t.seal();
        assert!(!compiled.holds(&t));
        // Nor does another dimension.
        assemble(&mut t, 4, other, 1.0);
        assert!(!compiled.holds(&t));
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
