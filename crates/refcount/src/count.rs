//! The reference/lock hybrid of section 8.
//!
//! [`DrainableCount`] is the memory object's paging-in-progress count: a
//! count kept under the object's own lock that excludes termination
//! while it is nonzero. (An object's reference count lives in its
//! [`crate::ObjHeader`].)

use core::sync::atomic::{AtomicU32, Ordering};

use machk_event::{thread_sleep, thread_wakeup, Event, WaitResult};
use machk_sync::RawSimpleLock;

/// The reference/lock hybrid of section 8: a count of operations in
/// progress that *excludes* other operations (such as termination) while
/// nonzero.
///
/// All mutation happens under a caller-supplied simple lock — for the
/// memory object this is the object's own lock. The exclusive side waits
/// with the section-6 split-wait protocol, releasing the lock while
/// blocked.
///
/// # Examples
///
/// ```
/// use machk_refcount::DrainableCount;
/// use machk_sync::RawSimpleLock;
///
/// let lock = RawSimpleLock::new();
/// let paging = DrainableCount::new();
///
/// // An operation in progress:
/// lock.lock_raw();
/// paging.begin();
/// lock.unlock_raw();
/// // ... do the paging work ...
/// lock.lock_raw();
/// paging.end();
/// lock.unlock_raw();
///
/// // A terminator waits for the count to drain:
/// lock.lock_raw();
/// paging.wait_drained(&lock); // returns with the lock re-acquired
/// assert_eq!(paging.get(), 0);
/// lock.unlock_raw();
/// ```
#[derive(Debug, Default)]
pub struct DrainableCount {
    count: AtomicU32,
}

impl DrainableCount {
    /// A drained (zero) count.
    pub const fn new() -> Self {
        DrainableCount {
            count: AtomicU32::new(0),
        }
    }

    fn event(&self) -> Event {
        Event::from_addr(self)
    }

    /// Record the start of an operation. Caller holds the owning lock.
    pub fn begin(&self) {
        // relaxed: mutation only under the owning lock (see type doc).
        let old = self.count.load(Ordering::Relaxed);
        self.count.store(old + 1, Ordering::Relaxed);
    }

    /// Record the end of an operation, waking any drain waiters if the
    /// count reached zero. Caller holds the owning lock; the wakeup
    /// itself is non-blocking and safe under the lock.
    pub fn end(&self) {
        // relaxed: mutation only under the owning lock (see type doc).
        let old = self.count.load(Ordering::Relaxed);
        assert!(old > 0, "DrainableCount::end without begin");
        // relaxed: still under the owning lock.
        self.count.store(old - 1, Ordering::Relaxed);
        if old == 1 {
            thread_wakeup(self.event());
        }
    }

    /// Wait until the count is zero.
    ///
    /// Caller holds `lock` (the same lock under which [`begin`]/[`end`]
    /// run); the wait releases it while blocked and returns with it
    /// re-acquired. Because the lock is dropped and retaken, the caller
    /// must revalidate any other state it read (the section-9 relock
    /// rules).
    ///
    /// [`begin`]: DrainableCount::begin
    /// [`end`]: DrainableCount::end
    pub fn wait_drained(&self, lock: &RawSimpleLock) {
        // relaxed: read under the owning lock, and re-checked after
        // every re-acquisition — the lock provides the ordering.
        while self.count.load(Ordering::Relaxed) > 0 {
            let r = thread_sleep(self.event(), lock, false);
            debug_assert_eq!(r, WaitResult::Awakened);
            lock.lock_raw();
        }
    }

    /// Current value (unlocked read; diagnostics).
    pub fn get(&self) -> u32 {
        // relaxed: advisory diagnostic snapshot.
        self.count.load(Ordering::Relaxed)
    }

    /// Whether any operation is in progress (unlocked read).
    pub fn in_progress(&self) -> bool {
        self.get() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn drainable_begin_end() {
        let c = DrainableCount::new();
        c.begin();
        c.begin();
        assert_eq!(c.get(), 2);
        assert!(c.in_progress());
        c.end();
        c.end();
        assert!(!c.in_progress());
    }

    #[test]
    fn wait_drained_returns_immediately_when_zero() {
        let lock = RawSimpleLock::new();
        let c = DrainableCount::new();
        lock.lock_raw();
        c.wait_drained(&lock);
        lock.unlock_raw();
    }

    #[test]
    fn terminator_waits_for_paging_to_drain() {
        let lock = RawSimpleLock::new();
        let paging = DrainableCount::new();
        let terminated = AtomicBool::new(false);

        // Start two "paging operations".
        lock.lock_raw();
        paging.begin();
        paging.begin();
        lock.unlock_raw();

        std::thread::scope(|s| {
            s.spawn(|| {
                // The terminator: must not proceed until paging drains.
                lock.lock_raw();
                paging.wait_drained(&lock);
                terminated.store(true, Ordering::SeqCst);
                lock.unlock_raw();
            });
            // Let the terminator reach its wait.
            while machk_event::waiters_on(Event::from_addr(&paging)) == 0 {
                std::thread::yield_now();
            }
            assert!(!terminated.load(Ordering::SeqCst));
            lock.lock_raw();
            paging.end();
            lock.unlock_raw();
            assert!(!terminated.load(Ordering::SeqCst), "still one in flight");
            lock.lock_raw();
            paging.end();
            lock.unlock_raw();
        });
        assert!(terminated.load(Ordering::SeqCst));
    }

    #[test]
    fn concurrent_begin_end_storm_under_lock() {
        let lock: RawSimpleLock = RawSimpleLock::new();
        let c = DrainableCount::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..5_000 {
                        lock.lock_raw();
                        c.begin();
                        lock.unlock_raw();
                        lock.lock_raw();
                        c.end();
                        lock.unlock_raw();
                    }
                });
            }
        });
        assert_eq!(c.get(), 0);
    }
}
