//! Cross-crate checks of the paper's coordination rules — the ones the
//! debug build enforces dynamically. Each rule comes from a specific
//! sentence of the paper; the tests demonstrate both the legal idiom
//! and (where a panic is the contract) the violation being caught.

use mach_locking::core::{
    assert_wait, thread_block, thread_wakeup, ComplexLock, Event, Kobj, RawSimpleLock, SimpleLocked,
};

/// "Acquiring a new reference to an object will not block, and
/// therefore may be done while holding other locks." (§8)
#[test]
fn acquiring_references_under_locks_is_legal() {
    let obj = Kobj::create(1u32);
    let lock: RawSimpleLock = RawSimpleLock::new();
    lock.lock_raw();
    let extra = obj.clone(); // take a reference under a simple lock: fine
    lock.unlock_raw();
    drop(extra); // released with no locks held: fine
    drop(obj);
}

/// "Releasing a reference ... may not be done while holding any
/// non-sleep locks." (§8) — enforced in debug builds.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "blocking operation")]
fn releasing_reference_under_simple_lock_is_caught() {
    let obj = Kobj::create(1u32);
    let extra = obj.clone();
    // Leak the creator handle: its drop during unwind (still under the
    // lock) would panic a second time and abort.
    std::mem::forget(obj);
    let lock: RawSimpleLock = RawSimpleLock::new();
    lock.lock_raw();
    drop(extra); // panics via the held-lock checker
}

/// "...nor between an assert_wait() operation and the corresponding
/// thread_block() because the blocking operations will call
/// assert_wait() a second time (this is fatal)." (§8)
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "between assert_wait and thread_block")]
fn releasing_reference_inside_wait_window_is_caught() {
    let obj = Kobj::create(1u32);
    let extra = obj.clone();
    // Leak the other handle: its drop during unwind would panic too
    // (double panic aborts instead of failing the test cleanly).
    std::mem::forget(obj);
    let cell = 0u32;
    assert_wait(Event::from_addr(&cell), true);
    drop(extra); // panics: we are inside the wait window
}

/// "Simple locks may not be held during blocking operations or context
/// switches." (Appendix A) — enforced at thread_block.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "blocking operation")]
fn blocking_with_simple_lock_held_is_caught() {
    let lock = SimpleLocked::new(0u8);
    let cell = 0u32;
    assert_wait(Event::from_addr(&cell), true);
    let _g = lock.lock();
    let _ = thread_block();
}

/// The legal split-wait shape: declare, release, block. (§6)
#[test]
fn split_wait_protocol_is_legal_and_race_free() {
    let flag = SimpleLocked::new(false);
    let ev = Event::from_addr(&flag);
    std::thread::scope(|s| {
        s.spawn(|| loop {
            {
                let mut g = flag.lock();
                if *g {
                    *g = false;
                    break;
                }
                assert_wait(ev, false);
            } // lock released here, AFTER the declaration
            thread_block();
        });
        {
            *flag.lock() = true;
        }
        thread_wakeup(ev);
    });
}

/// A complex lock with the Sleep option may be held across blocking
/// operations — that is what the option is for. (§4)
#[test]
fn sleep_lock_held_across_blocking_is_legal() {
    let map_lock = ComplexLock::new(true);
    let pool = SimpleLocked::new(1u32); // a tiny "page pool"
    let ev = Event::from_addr(&pool);
    map_lock.read_raw(); // sleepable lock held...
    std::thread::scope(|s| {
        s.spawn(|| {
            // ...while we wait for "memory".
            loop {
                {
                    let mut p = pool.lock();
                    if *p > 0 {
                        *p -= 1;
                        break;
                    }
                    assert_wait(ev, false);
                }
                thread_block();
            }
        });
    });
    map_lock.done_raw();
}

/// Deactivation never destroys the data structure: only the last
/// reference release does. (§9)
#[test]
fn deactivation_and_destruction_are_independent() {
    let obj = Kobj::create(vec![1u8, 2, 3]);
    let held_elsewhere = obj.clone();
    obj.deactivate().unwrap();
    drop(obj);
    // The structure is intact and readable through the survivor.
    assert_eq!(held_elsewhere.with_state(|v| v.len()), 3);
    assert!(held_elsewhere.with_active(|_| ()).is_err());
    drop(held_elsewhere);
}

/// Lock ordering by address for same-type objects: reversed-argument
/// callers cannot deadlock. (§5)
#[test]
fn address_ordering_prevents_same_type_deadlock() {
    use mach_locking::kernel::ordering::lock_pair_by_address;
    let a = SimpleLocked::new(0u64);
    let b = SimpleLocked::new(0u64);
    std::thread::scope(|s| {
        for reversed in [false, true] {
            let (a, b) = (&a, &b);
            s.spawn(move || {
                for _ in 0..5_000 {
                    let (mut ga, mut gb) = if reversed {
                        let (gb, ga) = lock_pair_by_address(b, a);
                        (ga, gb)
                    } else {
                        lock_pair_by_address(a, b)
                    };
                    *ga += 1;
                    *gb += 1;
                }
            });
        }
    });
    assert_eq!(*a.lock(), 10_000);
    assert_eq!(*b.lock(), 10_000);
}
