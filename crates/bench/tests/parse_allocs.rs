//! Allocation budget of `spice::parse_deck` on the FIG3 `.op` deck, the
//! deck behind every `.op` request the daemon serves.
//!
//! A global allocator counts the allocations (fresh and reallocated
//! blocks) made by the thread that opened a count, so the test harness's
//! other threads do not disturb it. This binary holds this one test
//! alone: its allocator wraps every allocation of the process.

use cml_bench::experiments::common::fig3_circuit;
use spicier::spice::{parse_deck, write_deck};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `Some(n)` while the thread counts, `n` allocations so far.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the allocations this thread made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).expect("counting");
    (out, n)
}

/// The FIG3 `.op` deck as the benchmark's daemon requests build it:
/// `write_deck` of the chain with a pipe on `DUT.Q3`, `.op` before `.end`.
fn fig3_op_deck() -> String {
    let (_, circuit) = fig3_circuit(1.0e9, Some(2.0e3)).expect("fig3");
    let text = write_deck(circuit.netlist(), "fig3 1000 MHz pipe Some(2000.0)");
    let body = text
        .strip_suffix(".end\n")
        .expect("write_deck ends in .end");
    format!("{body}.op\n.end\n")
}

#[test]
fn fig3_op_deck_parses_within_its_allocation_budget() {
    const BUDGET: usize = 300;
    let deck = fig3_op_deck();
    let (parsed, allocations) = counted(|| parse_deck(&deck));
    let parsed = parsed.expect("parse");
    assert!(parsed.netlist.element_count() > 50, "{parsed:?}");
    println!(
        "parse_deck: {allocations} allocations for {} cards, {} bytes",
        deck.lines().count(),
        deck.len()
    );
    assert!(
        allocations <= BUDGET,
        "parse_deck of the FIG3 .op deck made {allocations} allocations (budget {BUDGET})"
    );
}
