//! A counting global allocator for the allocation tests.
//!
//! Every allocation in the process, on any thread, bumps one counter, so
//! a test reads it before and after a window of pipeline calls and
//! asserts on the difference. The counter sees the worker threads too,
//! which is the point, and also any other test thread: each binary that
//! includes this module therefore holds exactly one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// sync: counter — relaxed tally; the window's bounds are ordered by the
// pipeline's own handoffs, and only the difference is read.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting `alloc`, `alloc_zeroed` and
/// `realloc` calls. Frees are not counted: a slab that is allocated is
/// also freed, so allocations alone tell whether buffers are reused.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect on
// the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `realloc`'s contract: `ptr` came from
        // this allocator (hence from `System`) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract: `ptr` came from
        // this allocator (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made so far by the whole process.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
