//! The allocation-assert harness behind `tests/ratchets`: one counting
//! global allocator, a macro that installs it in a test binary, and
//! [`allocs_during`], [`bytes_during`] and [`live_bytes_during`] to count
//! around a closure. The counts are kept per thread, so tests running side
//! by side under libtest's default parallelism never see each other's
//! allocations.
//!
//! ```ignore
//! bench::install_counting_alloc!();
//! assert_eq!(bench::alloc_count::allocs_during(|| hot_path()), 0);
//! ```
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts heap allocations and the bytes they ask for; all memory still
/// comes from [`System`].
pub struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so touching it never
    // allocates or registers anything: the allocator itself may use it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated minus bytes freed; wraps, so a thread that frees
    // what another allocated only ever reads differences.
    static LIVE: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is an update of
// the calling thread's own counters, which publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        BYTES.set(BYTES.get() + layout.size() as u64);
        LIVE.set(LIVE.get().wrapping_add(layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.set(LIVE.get().wrapping_sub(layout.size() as u64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        BYTES.set(BYTES.get() + new_size as u64);
        LIVE.set(
            LIVE.get()
                .wrapping_add(new_size as u64)
                .wrapping_sub(layout.size() as u64),
        );
        System.realloc(ptr, layout, new_size)
    }
}

/// Installs [`CountingAlloc`] as the global allocator of the calling
/// binary; without it [`allocs_during`] and [`bytes_during`] always read 0.
#[macro_export]
macro_rules! install_counting_alloc {
    () => {
        #[global_allocator]
        static ALLOCATOR: $crate::alloc_count::CountingAlloc = $crate::alloc_count::CountingAlloc;
    };
}

/// Heap allocations (and reallocations) the calling thread makes while
/// `f` runs.
pub fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    f();
    ALLOCS.get() - before
}

/// Bytes the calling thread asks the heap for while `f` runs: the size of
/// every allocation and the new size of every reallocation. Frees are not
/// subtracted, so this bounds from above what `f` leaves allocated.
pub fn bytes_during(f: impl FnOnce()) -> u64 {
    let before = BYTES.get();
    f();
    BYTES.get() - before
}

/// Heap bytes the calling thread holds after `f` runs beyond what it held
/// before: bytes allocated minus bytes freed, reallocations counted at
/// their change in size. Unlike [`bytes_during`] this does not count
/// what `f` asked for and gave back, so it is what `f` leaves live — the
/// bytes a process's resident size follows. Negative when `f` frees more
/// than it allocates.
pub fn live_bytes_during(f: impl FnOnce()) -> i64 {
    let before = LIVE.get();
    f();
    LIVE.get().wrapping_sub(before) as i64
}
