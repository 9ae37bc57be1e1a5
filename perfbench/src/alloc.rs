//! Counting global allocator: exact allocation counts and peak live heap
//! over a counting window.
//!
//! The binary installs [`CountingAlloc`] as its `#[global_allocator]`.
//! Outside a window every call costs one relaxed load of a flag nobody
//! writes, so timed phases run on the plain system allocator; inside a
//! window every allocation moves three shared counters, which is why
//! windows are opened only around untimed, counted phases.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The system allocator plus window-gated counters.
pub struct CountingAlloc;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

// relaxed (every counter in this file): statistics only; a window is
// opened and closed by the thread that reads it, after joining workers.
fn count_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never touch the memory itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            count_alloc(layout.size());
        }
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            count_alloc(layout.size());
        }
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            count_alloc(new_size);
        }
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one counting window saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Allocations (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// Peak of bytes allocated minus bytes freed since the window opened.
    pub peak_bytes: i64,
}

/// Open a counting window with every counter at zero.
pub fn start() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Close the window and read it. All zero when the binary runs without
/// [`CountingAlloc`] installed (as the test harness does).
pub fn stop() -> Counts {
    ON.store(false, Relaxed);
    Counts {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed),
    }
}
