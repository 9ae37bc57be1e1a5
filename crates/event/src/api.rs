//! The public event-wait routines of paper section 6.

use std::sync::Arc;
use std::time::Duration;

use machk_sync::{held, RawSimpleLock, SimpleGuard};

use crate::record::{ThreadHandle, WaitRecord, WaitResult};
use crate::table;
use crate::Event;

std::thread_local! {
    static CURRENT: Arc<WaitRecord> = Arc::new(WaitRecord::for_current_thread());
}

#[inline]
fn with_current<R>(f: impl FnOnce(&Arc<WaitRecord>) -> R) -> R {
    CURRENT.with(f)
}

/// A handle to the calling thread, for thread-based wakeups
/// ([`clear_wait`]).
pub fn current_thread() -> ThreadHandle {
    with_current(|rec| ThreadHandle {
        record: Arc::clone(rec),
    })
}

/// Declare the event the calling thread is about to wait for.
///
/// Must be followed by [`thread_block`] (or [`thread_block_timeout`]).
/// Any locks to be released while waiting are released *between* the two
/// calls; a wakeup landing in that window converts the block into a
/// non-blocking return.
///
/// `interruptible` controls whether a [`clear_wait`] with
/// [`WaitResult::Interrupted`] can end the wait.
///
/// # Panics
///
/// Panics if a wait is already asserted: the paper (section 8) notes that
/// blocking between `assert_wait` and `thread_block` makes the blocking
/// operation "call `assert_wait` a second time (this is fatal)".
pub fn assert_wait(event: Event, interruptible: bool) {
    #[cfg(feature = "obs")]
    machk_obs::emit(machk_obs::EventKind::EventWait, 0, event.0 as u64);
    with_current(|rec| {
        let generation = rec.assert_wait(interruptible);
        table::enqueue(event, generation, rec);
    });
}

/// Context switch: block the calling thread unless (or until) the event
/// asserted by [`assert_wait`] has occurred.
///
/// # Panics
///
/// Debug builds panic if the thread holds any simple lock (Appendix A:
/// simple locks may not be held across a context switch).
pub fn thread_block() -> WaitResult {
    held::assert_no_simple_locks_held("thread_block");
    fault_spurious_wake();
    with_current(|rec| rec.block(None))
}

/// Fault hook: complete the asserted wait spuriously — the thread comes
/// back [`WaitResult::Awakened`] without any event occurrence, so
/// callers that fail to re-check their predicate proceed on a false
/// assumption (the classic condition-variable discipline the paper's
/// wait loops must follow).
#[cfg(feature = "fault")]
fn fault_spurious_wake() {
    if machk_fault::fire(machk_fault::FaultSite::EventSpuriousWake) {
        with_current(|rec| rec.wake_current(WaitResult::Awakened));
    }
}

#[cfg(not(feature = "fault"))]
#[inline]
fn fault_spurious_wake() {}

/// [`thread_block`] with an upper bound on the wait.
///
/// Returns [`WaitResult::TimedOut`] if the event had not occurred within
/// `timeout`. After a timeout the wait is fully cancelled: a later wakeup
/// for the stale wait is a no-op.
pub fn thread_block_timeout(timeout: Duration) -> WaitResult {
    held::assert_no_simple_locks_held("thread_block_timeout");
    fault_spurious_wake();
    with_current(|rec| rec.block(Some(timeout)))
}

/// Declare the occurrence of `event`, waking **all** threads waiting for
/// it. Returns the number of threads awakened.
pub fn thread_wakeup(event: Event) -> usize {
    // Fault hook: the occurrence is declared but never delivered — the
    // §6 lost-wakeup failure, injected on demand. Waiters relying on
    // unbounded `thread_block` hang; bounded waiters diagnose.
    #[cfg(feature = "fault")]
    if machk_fault::fire(machk_fault::FaultSite::EventDropWakeup) {
        return 0;
    }
    let woken = table::wakeup(event, usize::MAX, WaitResult::Awakened);
    #[cfg(feature = "obs")]
    machk_obs::emit(machk_obs::EventKind::EventWakeup, 0, event.0 as u64);
    woken
}

/// Declare the occurrence of `event`, waking **at most one** waiting
/// thread. Returns `true` if a thread was awakened.
pub fn thread_wakeup_one(event: Event) -> bool {
    // Fault hook: drop the single wakeup (see [`thread_wakeup`]).
    #[cfg(feature = "fault")]
    if machk_fault::fire(machk_fault::FaultSite::EventDropWakeup) {
        return false;
    }
    let woken = table::wakeup(event, 1, WaitResult::Awakened) == 1;
    #[cfg(feature = "obs")]
    machk_obs::emit(machk_obs::EventKind::EventWakeup, 0, event.0 as u64);
    woken
}

/// Thread-based event occurrence: end `thread`'s current wait, whatever
/// event it is on.
///
/// This is the routine that lets subsystems track blocked threads
/// themselves (for example by blocking them on [`Event::NULL`], "from
/// which only a `clear_wait` can awaken them").
///
/// Returns `false` if the thread was not waiting, or if `result` is
/// [`WaitResult::Interrupted`] and the wait was asserted
/// non-interruptible.
pub fn clear_wait(thread: &ThreadHandle, result: WaitResult) -> bool {
    thread.record.wake_current(result)
}

/// Release `lock` and wait for `event`, the "common case of releasing a
/// single lock to wait for an event".
///
/// Equivalent to `assert_wait(event); simple_unlock(lock); thread_block()`.
/// As in Mach, the lock is **not** reacquired on return — callers relock
/// if they need to (and must then revalidate any state the lock protects,
/// per the deactivation rules of section 9).
pub fn thread_sleep(event: Event, lock: &RawSimpleLock, interruptible: bool) -> WaitResult {
    assert_wait(event, interruptible);
    lock.unlock_raw();
    thread_block()
}

/// Guard-based form of [`thread_sleep`]: consumes the guard (releasing
/// the lock) between the wait assertion and the block.
pub fn thread_sleep_guard(event: Event, guard: SimpleGuard<'_>, interruptible: bool) -> WaitResult {
    assert_wait(event, interruptible);
    drop(guard);
    thread_block()
}

/// Number of threads currently waiting on `event` (racy; diagnostics).
pub fn waiters_on(event: Event) -> usize {
    table::waiter_count(event)
}

/// Whether the calling thread has a wait asserted (an `assert_wait`
/// without its `thread_block` yet).
///
/// Used by debug checkers for the section-8 rule that a reference may not
/// be released "between an `assert_wait()` operation and the
/// corresponding `thread_block()`".
pub fn wait_asserted() -> bool {
    with_current(|rec| rec.is_waiting_pub())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn unique_event() -> Event {
        static NEXT: AtomicUsize = AtomicUsize::new(0x7000_0000);
        Event(NEXT.fetch_add(64, Ordering::Relaxed))
    }

    #[test]
    fn wakeup_before_block_is_not_lost() {
        let ev = unique_event();
        assert_wait(ev, true);
        assert_eq!(thread_wakeup(ev), 1);
        // The block must convert to a no-op.
        assert_eq!(thread_block(), WaitResult::Awakened);
    }

    #[test]
    fn wakeup_with_no_waiters_returns_zero() {
        assert_eq!(thread_wakeup(unique_event()), 0);
    }

    #[test]
    fn cross_thread_handoff() {
        let ev = unique_event();
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_wait(ev, false);
                if flag.load(Ordering::SeqCst) {
                    // Condition already true: consume the wait via block
                    // (wakeup has happened or will never be needed).
                }
                let r = thread_block_timeout(Duration::from_secs(5));
                assert_eq!(r, WaitResult::Awakened);
                assert!(flag.load(Ordering::SeqCst));
            });
            // Let the waiter declare itself, then publish and wake.
            while waiters_on(ev) == 0 {
                std::thread::yield_now();
            }
            flag.store(true, Ordering::SeqCst);
            assert_eq!(thread_wakeup(ev), 1);
        });
    }

    #[test]
    fn broadcast_wakes_all() {
        let ev = unique_event();
        const N: usize = 6;
        let woken = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    assert_wait(ev, false);
                    assert_eq!(
                        thread_block_timeout(Duration::from_secs(5)),
                        WaitResult::Awakened
                    );
                    woken.fetch_add(1, Ordering::SeqCst);
                });
            }
            while waiters_on(ev) < N {
                std::thread::yield_now();
            }
            assert_eq!(thread_wakeup(ev), N);
        });
        assert_eq!(woken.load(Ordering::SeqCst), N);
    }

    #[test]
    fn wakeup_one_wakes_exactly_one() {
        let ev = unique_event();
        const N: usize = 4;
        std::thread::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    assert_wait(ev, false);
                    let _ = thread_block_timeout(Duration::from_secs(5));
                });
            }
            while waiters_on(ev) < N {
                std::thread::yield_now();
            }
            assert!(thread_wakeup_one(ev));
            // Exactly one waiter is gone.
            while waiters_on(ev) > N - 1 {
                std::thread::yield_now();
            }
            assert_eq!(waiters_on(ev), N - 1);
            assert_eq!(thread_wakeup(ev), N - 1);
        });
    }

    #[test]
    fn clear_wait_interrupts_interruptible_wait() {
        let ev = unique_event();
        let handle: std::sync::OnceLock<ThreadHandle> = std::sync::OnceLock::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                handle.set(current_thread()).ok().unwrap();
                assert_wait(ev, true);
                assert_eq!(
                    thread_block_timeout(Duration::from_secs(5)),
                    WaitResult::Interrupted
                );
            });
            let h = loop {
                if let Some(h) = handle.get() {
                    if h.is_waiting() {
                        break h;
                    }
                }
                std::thread::yield_now();
            };
            assert!(clear_wait(h, WaitResult::Interrupted));
        });
    }

    #[test]
    fn clear_wait_cannot_interrupt_uninterruptible_wait() {
        let ev = unique_event();
        let handle: std::sync::OnceLock<ThreadHandle> = std::sync::OnceLock::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                handle.set(current_thread()).ok().unwrap();
                assert_wait(ev, false);
                assert_eq!(
                    thread_block_timeout(Duration::from_secs(5)),
                    WaitResult::Awakened
                );
            });
            let h = loop {
                if let Some(h) = handle.get() {
                    if h.is_waiting() {
                        break h;
                    }
                }
                std::thread::yield_now();
            };
            assert!(!clear_wait(h, WaitResult::Interrupted));
            // A normal wakeup still lands.
            assert_eq!(thread_wakeup(ev), 1);
        });
    }

    #[test]
    fn null_event_wait_only_ends_via_clear_wait() {
        let handle: std::sync::OnceLock<ThreadHandle> = std::sync::OnceLock::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                handle.set(current_thread()).ok().unwrap();
                assert_wait(Event::NULL, true);
                assert_eq!(
                    thread_block_timeout(Duration::from_secs(5)),
                    WaitResult::Awakened
                );
            });
            let h = loop {
                if let Some(h) = handle.get() {
                    if h.is_waiting() {
                        break h;
                    }
                }
                std::thread::yield_now();
            };
            // Thread-based wakeup with a normal result.
            assert!(clear_wait(h, WaitResult::Awakened));
        });
    }

    #[test]
    fn thread_sleep_releases_lock_and_waits() {
        let lock = RawSimpleLock::new();
        let ev = unique_event();
        std::thread::scope(|s| {
            s.spawn(|| {
                lock.lock_raw();
                // Sleeps holding nothing; the lock must be free while we wait.
                let r = thread_sleep(ev, &lock, false);
                assert_eq!(r, WaitResult::Awakened);
            });
            while waiters_on(ev) == 0 {
                std::thread::yield_now();
            }
            // The sleeping thread released the lock.
            let g = lock.try_lock().expect("thread_sleep must release the lock");
            drop(g);
            assert_eq!(thread_wakeup(ev), 1);
        });
    }

    #[test]
    fn thread_sleep_guard_form() {
        let lock = RawSimpleLock::new();
        let ev = unique_event();
        std::thread::scope(|s| {
            s.spawn(|| {
                let g = lock.lock();
                assert_eq!(thread_sleep_guard(ev, g, false), WaitResult::Awakened);
            });
            while waiters_on(ev) == 0 {
                std::thread::yield_now();
            }
            assert!(!lock.is_locked());
            assert_eq!(thread_wakeup(ev), 1);
        });
    }

    #[test]
    fn timeout_cancels_wait_fully() {
        let ev = unique_event();
        assert_wait(ev, true);
        assert_eq!(
            thread_block_timeout(Duration::from_millis(5)),
            WaitResult::TimedOut
        );
        // A late wakeup for the expired wait must not corrupt a new wait.
        thread_wakeup(ev);
        assert_wait(ev, true);
        assert_eq!(
            thread_block_timeout(Duration::from_millis(5)),
            WaitResult::TimedOut
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "blocking operation")]
    fn thread_block_while_holding_simple_lock_panics() {
        let lock: RawSimpleLock = RawSimpleLock::new();
        let ev = unique_event();
        assert_wait(ev, true);
        let _g = lock.lock();
        let _ = thread_block();
    }
}
