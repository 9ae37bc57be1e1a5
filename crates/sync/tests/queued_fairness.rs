//! FIFO admission tests for the queued spin policies.
//!
//! Word-spinning policies admit whichever waiter's atomic lands first;
//! the queued policies promise arrival-order admission. The test fixes
//! arrival order deterministically: while the main thread holds the lock,
//! waiters are released one at a time, and each next waiter is held back
//! until the lock's `waiters()` confirms the previous one is
//! registered — at which point its queue position is fixed (the waiter
//! count is incremented only after a ticket is drawn / the queue tail is
//! swapped). Admission order must then equal release order.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use machk_sync::{Mcs, RawSimpleLock, SpinPolicy, Ticket};

const WAITERS: usize = 6;
const TIMEOUT: Duration = Duration::from_secs(60);

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < TIMEOUT, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// `RawSimpleLock::waiters`, which only the queued policies have.
type Waiters<P> = fn(&RawSimpleLock<P>) -> u32;

fn assert_fifo_admission<P: SpinPolicy>(waiters: Waiters<P>) {
    let lock = RawSimpleLock::<P>::new();
    let go: Vec<AtomicBool> = (0..WAITERS).map(|_| AtomicBool::new(false)).collect();
    let admissions = AtomicUsize::new(0);

    lock.lock_raw(); // every spawned thread must queue behind us
    std::thread::scope(|s| {
        for i in 0..WAITERS {
            let (lock, go, admissions) = (&lock, &go, &admissions);
            s.spawn(move || {
                wait_until("go signal", || go[i].load(Ordering::Acquire));
                let _g = lock.lock();
                let slot = admissions.fetch_add(1, Ordering::SeqCst);
                assert_eq!(
                    slot,
                    i,
                    "{} admitted waiter {i} out of arrival order",
                    P::NAME
                );
            });
        }

        // Fix the arrival order: release thread i only after i-1 is queued.
        for (i, flag) in go.iter().enumerate() {
            flag.store(true, Ordering::Release);
            wait_until("waiter registration", || waiters(&lock) as usize == i + 1);
        }
        lock.unlock_raw(); // cascade: each admission hands off to the next
    });

    assert_eq!(admissions.load(Ordering::SeqCst), WAITERS);
    assert!(!lock.is_locked());
    assert_eq!(waiters(&lock), 0);
}

#[test]
fn ticket_admits_in_arrival_order() {
    assert_fifo_admission::<Ticket>(RawSimpleLock::<Ticket>::waiters);
}

#[test]
fn mcs_admits_in_arrival_order() {
    assert_fifo_admission::<Mcs>(RawSimpleLock::<Mcs>::waiters);
}

/// Repeated mixed lock/try traffic: queued locks must stay sound (exact
/// mutual exclusion, no lost wakeups, clean final state) under churn, not
/// just in the sequenced scenario above.
#[test]
fn queued_policies_survive_churn() {
    survives_churn::<Ticket>(RawSimpleLock::<Ticket>::waiters);
    survives_churn::<Mcs>(RawSimpleLock::<Mcs>::waiters);
}

fn survives_churn<P: SpinPolicy>(waiters: Waiters<P>) {
    let lock = RawSimpleLock::<P>::new();
    let mut shared = 0u64;
    let shared_addr = &mut shared as *mut u64 as usize;
    let tries = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (lock, tries) = (&lock, &tries);
            s.spawn(move || {
                for n in 0..3_000u64 {
                    if n % 7 == 0 {
                        if let Some(_g) = lock.try_lock() {
                            tries.fetch_add(1, Ordering::Relaxed);
                            unsafe {
                                let p = shared_addr as *mut u64;
                                p.write(p.read() + 1);
                            }
                        }
                    } else {
                        let _g = lock.lock();
                        unsafe {
                            let p = shared_addr as *mut u64;
                            p.write(p.read() + 1);
                        }
                    }
                }
            });
        }
    });
    let landed = tries.load(Ordering::Relaxed) as u64;
    let blocking = 4 * (3_000 - (3_000u64).div_ceil(7));
    assert_eq!(
        shared,
        blocking + landed,
        "{} lost updates under churn",
        P::NAME
    );
    assert!(!lock.is_locked());
    assert_eq!(waiters(&lock), 0);
}
