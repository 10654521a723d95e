//! A counting global allocator for the allocation- and byte-budget tests,
//! pulled into each test binary with `#[path]` (a binary has exactly one
//! global allocator, so every binary that measures allocations compiles its
//! own copy of this file).
//!
//! The counter is per thread: the test harness runs the tests of one binary
//! concurrently, and a process-wide counter would charge one test's set-up
//! allocations to another test's measured window.  A test therefore only
//! sees the allocations made on its own thread, which is all of them as
//! long as the code under test spawns no threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation or reallocation that requests `bytes`.
fn count_one(bytes: usize) {
    // `try_with` rather than `with`: never panic inside the allocator, even
    // while the thread's locals are being torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    let _ = BYTES.try_with(|count| count.set(count.get() + bytes));
}

/// Counts every allocation and reallocation routed through the global
/// allocator, and the bytes each requests, on the thread that makes it.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations and reallocations made so far by the calling thread.
pub fn allocation_count() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes requested so far by the calling thread's allocations plus the new
/// sizes of its reallocations: a growing `Vec` is charged for every buffer
/// it passes through, so this is traffic through the allocator, not a
/// high-water mark.
#[allow(dead_code)] // Not every test binary that counts allocations reads bytes.
pub fn byte_count() -> usize {
    BYTES.with(Cell::get)
}
