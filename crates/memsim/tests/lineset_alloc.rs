//! A line set of at most one segment lives inline: building, cloning,
//! walking and dropping it allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mve_memsim::LineSet;

thread_local! {
    /// Allocations made by this thread (a const initialiser and no
    /// destructor, so the allocator may read it).
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// `System`, counting each thread's allocations.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn one_segment_sets_do_not_allocate() {
    let row: Vec<u64> = (100..164).collect();
    let column: Vec<u64> = (0..32).map(|i| 7 + 1_024 * i).collect();
    for lines in [&row[..], &column[..], &[42][..], &[][..]] {
        let n = allocations(|| {
            let set = LineSet::from_sorted(lines);
            let copy = set.clone();
            assert_eq!(copy.iter().count(), lines.len());
            assert!(lines.iter().all(|&l| set.contains(l)));
            assert_eq!(set.heap_bytes(), 0);
        });
        assert_eq!(n, 0, "{} lines", lines.len());
    }
    // The control: two rows make two segments, one boxed slice.
    let rows = [10, 11, 12, 50, 51, 52];
    assert_eq!(allocations(|| drop(LineSet::from_sorted(&rows))), 1);
}
