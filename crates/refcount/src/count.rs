//! Bare counts for subsystems that manage their own reference protocol.
//!
//! "The routines that increment and decrement these counts are
//! implemented as part of each subsystem to allow flexibility in
//! allocation and deallocation." [`LockedRefCount`] is the raw count such
//! a subsystem embeds under its own lock (every [`crate::ObjHeader`]
//! embeds one under the object lock); [`DrainableCount`] is the
//! reference/lock hybrid of section 8 (the memory object's
//! paging-in-progress count).

use core::sync::atomic::{AtomicU32, Ordering};

use machk_event::{thread_sleep, thread_wakeup, Event, WaitResult};
use machk_sync::RawSimpleLock;

/// A reference count manipulated under a caller-supplied lock.
///
/// The storage is atomic so unlocked *reads* (diagnostics) are
/// well-defined, but the increment/decrement protocol assumes the
/// caller's lock serializes mutations — the paper's idiom, where the
/// count is a plain integer field of the locked structure.
#[derive(Debug, Default)]
pub struct LockedRefCount {
    count: AtomicU32,
}

impl LockedRefCount {
    /// A count starting at `initial` (typically 1, the creation
    /// reference).
    pub const fn new(initial: u32) -> Self {
        LockedRefCount {
            count: AtomicU32::new(initial),
        }
    }

    /// Increment. Caller holds the owning lock.
    ///
    /// Saturates at `u32::MAX` instead of wrapping: a wrapped count
    /// would pass through zero and hand out a bogus "final" release
    /// with live references outstanding (a use-after-free factory). A
    /// pegged count makes the object immortal instead — see
    /// [`LockedRefCount::is_pegged`].
    pub fn take(&self) {
        // relaxed: all mutation happens under the owning simple lock,
        // whose acquire/release edges order these plain load/stores.
        let old = self.count.load(Ordering::Relaxed);
        assert!(old > 0, "reference cloned from a dead count");
        // relaxed: still under the owning lock.
        self.count.store(old.saturating_add(1), Ordering::Relaxed);
    }

    /// Decrement; returns `true` when the count reaches zero. Caller
    /// holds the owning lock (and must destroy the structure after
    /// releasing it, if `true`).
    ///
    /// A pegged (saturated) count absorbs releases without movement and
    /// never reports final.
    #[must_use]
    pub fn release(&self) -> bool {
        // relaxed: lock-protected, as in `take`.
        let old = self.count.load(Ordering::Relaxed);
        assert!(old > 0, "reference over-released");
        if old == u32::MAX {
            return false; // pegged: immortal
        }
        // relaxed: still under the owning lock.
        self.count.store(old - 1, Ordering::Relaxed);
        old == 1
    }

    /// Whether the count has saturated (the object is immortal).
    pub fn is_pegged(&self) -> bool {
        // relaxed: pegging is permanent, so a stale read is still true.
        self.count.load(Ordering::Relaxed) == u32::MAX
    }

    /// Current value (unlocked read; diagnostics).
    pub fn get(&self) -> u32 {
        // relaxed: advisory diagnostic snapshot.
        self.count.load(Ordering::Relaxed)
    }
}

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
    fn locked_count_roundtrip() {
        let c = LockedRefCount::new(1);
        c.take();
        assert_eq!(c.get(), 2);
        assert!(!c.release());
        assert!(c.release());
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn locked_count_pegs_at_max_instead_of_wrapping() {
        let c = LockedRefCount::new(u32::MAX - 1);
        assert!(!c.is_pegged());
        c.take();
        assert!(c.is_pegged());
        // Past the ceiling: absorbed, not wrapped (a wrap would reach 0
        // and the next release would be a bogus final).
        c.take();
        c.take();
        assert_eq!(c.get(), u32::MAX);
        for _ in 0..16 {
            assert!(!c.release(), "pegged count reported final");
        }
        assert!(c.is_pegged(), "pegged count is immortal");
    }

    #[test]
    #[should_panic(expected = "over-released")]
    fn locked_count_underflow_panics() {
        let c = LockedRefCount::new(0);
        let _ = c.release();
    }

    #[test]
    #[should_panic(expected = "dead count")]
    fn locked_count_resurrection_panics() {
        let c = LockedRefCount::new(1);
        assert!(c.release());
        c.take();
    }

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
