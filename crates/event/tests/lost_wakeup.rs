//! Lost-wakeup stress for the event table's no-waiter fast path.
//!
//! A waker makes a condition true and then declares the occurrence; a
//! waiter declares its wait, re-checks the condition, and blocks only if
//! it is still false (the paper's §6 protocol). `thread_wakeup` skips
//! the bucket lock when the bucket's entry count reads 0, so only the
//! `SeqCst` fence pair between the count and the condition keeps the two
//! from both reading old values: the waker seeing no entry and the
//! waiter seeing no condition, then sleeping through its occurrence.
//!
//! The condition is written with a plain store, as callers do, so the
//! store can sit in the store buffer past the waker's count load unless
//! the fence drains it. Each round starts both threads together from a
//! spin gate and skews them by a different number of spins each round,
//! so the two protocols overlap at many offsets. Release builds run long enough to
//! matter (about 10 s on a 2-thread x86 host; CI runs it so); debug
//! builds run a short smoke version.

use std::hint::spin_loop;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use machk_event::{
    assert_wait, clear_wait, current_thread, thread_block_timeout, thread_wakeup, Event, WaitResult,
};

const ROUNDS: u64 = if cfg!(debug_assertions) {
    20_000
} else {
    6_000_000
};

/// How long a waiter blocks before it calls its wakeup lost. Far above
/// any wakeup latency, so a timeout with the condition true is a loss,
/// not a slow waker.
const PATIENCE: Duration = Duration::from_secs(2);

/// Spin `n` pause instructions.
fn skew(n: u64) {
    for _ in 0..n {
        spin_loop();
    }
}

#[test]
fn no_wakeup_is_lost_between_assert_wait_and_block() {
    // No other test in this binary waits, so the bucket holds only the
    // waiter's entry, if any.
    let ev = Event(0x4000_0000);
    // The round the waker has opened, the last round whose condition
    // holds, the last round the waiter finished, and the round whose
    // wakeup was lost (0 for none).
    let open = AtomicU64::new(0);
    let cond = AtomicU64::new(0);
    let finished = AtomicU64::new(0);
    let lost = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            let me = current_thread();
            for round in 1..=ROUNDS {
                while open.load(Ordering::Acquire) != round {
                    spin_loop();
                }
                skew(round % 13);
                assert_wait(ev, false);
                // relaxed: the condition itself; the event table's
                // fences order it against the entry count.
                if cond.load(Ordering::Relaxed) == round {
                    clear_wait(&me, WaitResult::Awakened);
                }
                let timed_out = thread_block_timeout(PATIENCE) == WaitResult::TimedOut;
                // relaxed: read after the wait ended; no data rides on it.
                if timed_out && cond.load(Ordering::Relaxed) == round {
                    lost.store(round, Ordering::Release);
                }
                finished.store(round, Ordering::Release);
                if timed_out {
                    break;
                }
            }
        });
        for round in 1..=ROUNDS {
            open.store(round, Ordering::Release);
            skew(round % 17);
            // relaxed: deliberately a plain store, so only the event
            // table's fence keeps it ahead of the entry-count load.
            cond.store(round, Ordering::Relaxed);
            thread_wakeup(ev);
            while finished.load(Ordering::Acquire) != round {
                spin_loop();
            }
            if lost.load(Ordering::Acquire) != 0 {
                break;
            }
            // A waiter that saw the condition cleared its own wait and
            // left its entry behind; remove it, so the next round starts
            // from an empty bucket and its wakeup takes the fast path.
            thread_wakeup(ev);
        }
    });
    let lost = lost.into_inner();
    assert_eq!(lost, 0, "round {lost}: the waiter slept through its wakeup");
}
