//! Per-thread accounting of held simple locks.
//!
//! Appendix A of the paper states the central usage rule for simple locks:
//! "Simple locks may not be held during blocking operations or context
//! switches" — and section 4 adds that "violations of this restriction cause
//! kernel deadlocks". The Mach kernel enforced this by inspection; we can do
//! better. Debug builds keep a per-thread count of held simple locks, and
//! the event-wait crate (`machk-event`) calls
//! [`assert_no_simple_locks_held`] at every blocking point, turning the
//! kernel deadlock into an immediate, diagnosable panic.
//!
//! Release builds compile the accounting away entirely (the counter
//! functions become empty), keeping the lock fast path free of
//! thread-local traffic.

#[cfg(debug_assertions)]
use core::cell::Cell;

#[cfg(debug_assertions)]
thread_local! {
    static HELD: Cell<u32> = const { Cell::new(0) };
}

/// Number of simple locks the calling thread currently holds.
///
/// Always returns 0 in release builds (accounting compiled out).
#[inline]
pub fn simple_locks_held() -> u32 {
    #[cfg(debug_assertions)]
    {
        HELD.with(|h| h.get())
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// Panic if the calling thread holds any simple lock.
///
/// Blocking layers call this before suspending the thread; the panic
/// message names the paper rule being violated. No-op in release builds.
#[inline]
pub fn assert_no_simple_locks_held(context: &str) {
    #[cfg(debug_assertions)]
    {
        let held = simple_locks_held();
        assert!(
            held == 0,
            "{context}: thread holds {held} simple lock(s) across a blocking \
             operation (paper Appendix A: simple locks may not be held during \
             blocking operations or context switches)"
        );
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = context;
    }
}

#[inline]
pub(crate) fn on_acquire() {
    #[cfg(debug_assertions)]
    HELD.with(|h| h.set(h.get() + 1));
}

#[inline]
pub(crate) fn on_release() {
    #[cfg(debug_assertions)]
    HELD.with(|h| {
        let v = h.get();
        debug_assert!(v > 0, "simple lock release with zero held count");
        h.set(v - 1);
    });
}

// NOTE: "in what order does the kernel acquire its lock classes?" is
// answered downstream of the probe events: the lock hooks emit
// acquire/release events and `machk_obs::StatsSubscriber` feeds its
// order graph synchronously on the acquiring thread, so its per-thread
// held stack sees each thread's acquisitions in program order.

/// A small nonzero tag identifying the current thread, used by the
/// debug-only holder field of [`crate::RawSimpleLock`].
///
/// Collisions are possible (it is a hash) and only weaken the debug check,
/// never correctness.
#[inline]
pub(crate) fn thread_tag() -> u32 {
    use std::hash::{Hash, Hasher};
    thread_local! {
        static TAG: u32 = {
            let mut hasher = std::hash::DefaultHasher::new();
            std::thread::current().id().hash(&mut hasher);
            let h = hasher.finish() as u32;
            if h == 0 { 1 } else { h }
        };
    }
    TAG.with(|t| *t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RawSimpleLock;

    #[test]
    #[cfg(debug_assertions)]
    fn held_count_tracks_guards() {
        let a: RawSimpleLock = RawSimpleLock::new();
        let b: RawSimpleLock = RawSimpleLock::new();
        assert_eq!(simple_locks_held(), 0);
        let ga = a.lock();
        assert_eq!(simple_locks_held(), 1);
        let gb = b.lock();
        assert_eq!(simple_locks_held(), 2);
        drop(gb);
        assert_eq!(simple_locks_held(), 1);
        drop(ga);
        assert_eq!(simple_locks_held(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "blocking operation")]
    fn assert_fires_while_holding() {
        let a: RawSimpleLock = RawSimpleLock::new();
        let _g = a.lock();
        assert_no_simple_locks_held("test_block");
    }

    #[test]
    fn assert_passes_when_clean() {
        assert_no_simple_locks_held("test_clean");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn held_count_is_per_thread() {
        let a: RawSimpleLock = RawSimpleLock::new();
        let _g = a.lock();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(simple_locks_held(), 0);
                assert_no_simple_locks_held("other thread");
            });
        });
        assert_eq!(simple_locks_held(), 1);
    }
}
