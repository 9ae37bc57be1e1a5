//! Cache-line padding.
//!
//! Section 2 of the paper: on a cached multiprocessor every write to a
//! line invalidates it in every other cache that holds it. Two values
//! that different processors write, or one that a processor writes and
//! another reads, should therefore not share a line unless a protocol
//! needs them together. [`CachePadded`] starts its value on a line of
//! its own and rounds its size up to whole lines, so nothing else lands
//! beside it.
//!
//! A counter that many threads write is striped instead: one padded
//! stripe per thread slot, each thread writing the stripe
//! [`thread_slot`] picks, and a read summing them. `ShardedRefCount`
//! and the IPC engine's `RpcStats` ledger share the one slot.

use core::ops::{Deref, DerefMut};
use core::sync::atomic::{AtomicUsize, Ordering};

/// `T` aligned to, and padded to a multiple of, 64 bytes: one cache line
/// on the hosts this crate targets.
///
/// # Examples
///
/// ```
/// use core::sync::atomic::{AtomicU64, Ordering};
/// use machk_sync::CachePadded;
///
/// let counters = [const { CachePadded::new(AtomicU64::new(0)) }; 2];
/// counters[1].fetch_add(1, Ordering::Relaxed);
/// assert_eq!(core::mem::size_of_val(&counters), 128);
/// assert_eq!(counters[1].load(Ordering::Relaxed), 1);
/// ```
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    /// Pad `value` to a line of its own.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded(value)
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Hosted threads (machk-sim) take the deterministic host thread id,
    // so one scheduler seed always yields one stripe layout; OS threads
    // draw round-robin at first use.
    static SLOT: usize = match crate::host::current_host() {
        Some(h) => h.current_id() as usize,
        // relaxed: round-robin draw; only the spread matters.
        None => NEXT_SLOT.fetch_add(1, Ordering::Relaxed),
    };
}

/// The calling thread's stripe slot, fixed at its first call. A striped
/// structure with `n` stripes writes stripe `thread_slot() % n`, so
/// threads that draw one after another land on different stripes.
///
/// # Examples
///
/// ```
/// let here = machk_sync::thread_slot();
/// assert_eq!(machk_sync::thread_slot(), here, "fixed per thread");
/// let there = std::thread::spawn(machk_sync::thread_slot).join().unwrap();
/// assert_ne!(there, here);
/// ```
#[inline]
pub fn thread_slot() -> usize {
    SLOT.with(|s| *s)
}
