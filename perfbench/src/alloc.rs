//! A counting global allocator for the traced binary only. The untraced
//! binary keeps the system allocator, so its end-to-end figures pay
//! nothing for the count.
//!
//! Counts are per thread, so a span on one client thread never absorbs
//! another thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised `Cell`s without destructors: reading them never
    // allocates, which an allocator's own bookkeeping must not do.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation and the bytes asked
/// for on the calling thread.
pub struct CountingAlloc;

fn note(bytes: usize) {
    // `try_with` fails only while the thread is being torn down; those
    // allocations go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only thread-local cells and never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// (allocations, bytes) made so far on this thread; stays (0, 0) when
/// [`CountingAlloc`] is not the global allocator.
pub fn thread_counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}
