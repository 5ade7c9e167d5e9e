//! The allocation-assert harness shared by the `--test` benches: one
//! counting global allocator, a macro that installs it in a bench
//! binary, and [`allocs_during`] to count around a closure.
//!
//! ```ignore
//! bench::install_counting_alloc!();
//! assert_eq!(bench::alloc_count::allocs_during(|| hot_path()), 0);
//! ```
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations; all memory still comes from [`System`].
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter increment, which publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Installs [`CountingAlloc`] as the global allocator of the calling
/// binary; without it [`allocs_during`] always reads 0.
#[macro_export]
macro_rules! install_counting_alloc {
    () => {
        #[global_allocator]
        static ALLOCATOR: $crate::alloc_count::CountingAlloc = $crate::alloc_count::CountingAlloc;
    };
}

/// Heap allocations (and reallocations) made while `f` runs.
pub fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}
