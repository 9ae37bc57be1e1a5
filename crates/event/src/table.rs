//! The global event table: event → declared waiters.
//!
//! Mach hashed events into an array of wait queues, each protected by a
//! simple lock; we do the same. Insertion (from `assert_wait`) and wakeup
//! scans hold the bucket's simple lock, which is what makes the
//! declaration/occurrence pair atomic: a wakeup that takes the bucket lock
//! after an insertion is guaranteed to see the waiter; one that takes it
//! before cannot miss a waiter that has not yet declared itself.
//!
//! ## The no-waiter fast path (beyond the paper)
//!
//! Most occurrences have nobody waiting (every message a port queues
//! declares one), so each bucket also keeps its entry count where a
//! waker can read it without the lock, and a wakeup that reads 0 returns
//! without locking. The count is stored under the lock; a `SeqCst` fence
//! follows the store in `enqueue` and precedes the load in `wakeup`.
//! A waiter re-checks its condition after `assert_wait` and a waker
//! makes the condition true before declaring the occurrence, so in the
//! single order of the two fences either the waiter's comes first, and
//! the waker reads a count of at least 1 and takes the lock, or the
//! waker's comes first, and the waiter's re-check sees the condition and
//! does not block. Without the fences a store→load reordering (legal
//! even on x86) lets both read the old values: the waker skips an entry
//! that is there and the waiter sleeps through its occurrence. This is
//! the same fence pair as `Port::after_enqueue` / `Port::destroy` in
//! machk-ipc.

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::Arc;

use machk_sync::{CachePadded, SimpleLocked};

use crate::record::{WaitRecord, WaitResult};
use crate::Event;

/// Number of hash buckets. Power of two for cheap masking; 256 matches
/// the order of magnitude Mach used for its event hash.
const BUCKETS: usize = 256;

struct Waiter {
    event: Event,
    generation: u64,
    record: Arc<WaitRecord>,
}

/// One wait queue, on a cache line of its own so wakeups of unrelated
/// events do not write a line another bucket's users read.
struct Bucket {
    waiters: SimpleLocked<Vec<Waiter>>,
    /// `waiters.len()`, stored under the lock and read without it by
    /// [`wakeup`]'s fast path (see the module docs).
    len: AtomicUsize,
}

impl Bucket {
    /// Publish the entry count; the caller holds the bucket lock.
    fn set_len(&self, len: usize) {
        // relaxed: stores are serialized by the bucket lock, and the
        // SeqCst fences in `enqueue` and `wakeup` order this store
        // against the lock-free load.
        self.len.store(len, Ordering::Relaxed);
    }
}

// Release layout without probes: lock 8 + vector 24 + count 8, padded.
#[cfg(not(debug_assertions))]
const _: () =
    assert!(machk_sync::probe::ENABLED || core::mem::size_of::<CachePadded<Bucket>>() == 64);

static TABLE: [CachePadded<Bucket>; BUCKETS] = [const {
    CachePadded::new(Bucket {
        waiters: SimpleLocked::new(Vec::new()),
        len: AtomicUsize::new(0),
    })
}; BUCKETS];

#[inline]
fn bucket_for(event: Event) -> &'static Bucket {
    // Fibonacci hashing spreads consecutive addresses across buckets.
    let h = (event.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    &TABLE[(h >> (64 - 8)) as usize % BUCKETS]
}

/// Record that `record`'s wait `generation` is for `event`.
///
/// Called by `assert_wait` *after* the record itself has been moved to the
/// waiting state; the bucket lock closes the race with wakers that lock,
/// and the fence after it closes the race with wakers that do not.
pub(crate) fn enqueue(event: Event, generation: u64, record: &Arc<WaitRecord>) {
    let bucket = bucket_for(event);
    let mut waiters = bucket.waiters.lock();
    // Lazily drop entries whose waits are long over (timed out or
    // clear_wait-ed) so stale entries cannot accumulate.
    waiters.retain(|w| w.record.is_waiting_gen(w.generation));
    waiters.push(Waiter {
        event,
        generation,
        record: Arc::clone(record),
    });
    bucket.set_len(waiters.len());
    drop(waiters);
    // Pairs with the fence in `wakeup`: the count store above is ordered
    // before the caller's re-check of its wait condition.
    fence(Ordering::SeqCst);
}

/// Declare the occurrence of `event`, waking matching waiters.
///
/// `limit` bounds how many waiters are awakened (`usize::MAX` for the
/// broadcast `thread_wakeup`, 1 for `thread_wakeup_one`). Returns the
/// number of threads actually awakened.
pub(crate) fn wakeup(event: Event, limit: usize, result: WaitResult) -> usize {
    let bucket = bucket_for(event);
    // Pairs with the fence in `enqueue`: the caller's store making the
    // wait condition true is ordered before the count load below.
    fence(Ordering::SeqCst);
    // relaxed: ordered by the fence above; see the module docs.
    if bucket.len.load(Ordering::Relaxed) == 0 {
        return 0;
    }
    let mut woken = 0usize;
    let mut waiters = bucket.waiters.lock();
    waiters.retain(|w| {
        if woken >= limit || w.event != event {
            return true;
        }
        // Remove the entry whether or not the wake lands: if it does not,
        // the wait it referred to is already over.
        if w.record.wake(w.generation, result) {
            woken += 1;
        }
        false
    });
    bucket.set_len(waiters.len());
    woken
}

/// Number of declared waiters for `event` (racy; tests/diagnostics only).
pub(crate) fn waiter_count(event: Event) -> usize {
    bucket_for(event)
        .waiters
        .lock()
        .iter()
        .filter(|w| w.event == event && w.record.is_waiting_gen(w.generation))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_record() -> Arc<WaitRecord> {
        Arc::new(WaitRecord::for_current_thread())
    }

    #[test]
    fn wakeup_on_empty_event_wakes_nobody() {
        let ev = Event(0xdead_0001);
        assert_eq!(wakeup(ev, usize::MAX, WaitResult::Awakened), 0);
    }

    #[test]
    fn wakeup_with_no_entry_skips_the_bucket_lock() {
        // Find an event whose bucket no concurrent test is using, and
        // hold its lock: a wakeup that took the lock would deadlock.
        for raw in 0xdead_1000usize.. {
            let ev = Event(raw);
            let waiters = bucket_for(ev).waiters.lock();
            if waiters.is_empty() {
                assert_eq!(wakeup(ev, usize::MAX, WaitResult::Awakened), 0);
                return;
            }
        }
    }

    #[test]
    fn enqueue_then_wakeup_roundtrip() {
        let ev = Event(0xdead_0002);
        let rec = fresh_record();
        let gen = rec.assert_wait(true);
        enqueue(ev, gen, &rec);
        assert_eq!(waiter_count(ev), 1);
        assert_eq!(wakeup(ev, usize::MAX, WaitResult::Awakened), 1);
        assert_eq!(waiter_count(ev), 0);
        // The record was woken; draining the block is immediate.
        assert_eq!(rec.block(None), WaitResult::Awakened);
    }

    #[test]
    fn wakeup_one_leaves_others() {
        let ev = Event(0xdead_0003);
        let recs: Vec<_> = (0..3).map(|_| fresh_record()).collect();
        // Simulate three waiting threads (records owned here for testing;
        // block() is never called on the extras).
        for rec in &recs {
            let gen = rec.assert_wait(true);
            enqueue(ev, gen, rec);
        }
        assert_eq!(wakeup(ev, 1, WaitResult::Awakened), 1);
        assert_eq!(waiter_count(ev), 2);
        assert_eq!(wakeup(ev, usize::MAX, WaitResult::Awakened), 2);
        assert_eq!(waiter_count(ev), 0);
    }

    #[test]
    fn wakeup_matches_event_exactly() {
        let ev_a = Event(0xdead_0004);
        // Same bucket pressure: an event differing only in low bits may or
        // may not share the bucket; correctness must not depend on it.
        let ev_b = Event(0xdead_0005);
        let rec = fresh_record();
        let gen = rec.assert_wait(true);
        enqueue(ev_a, gen, &rec);
        assert_eq!(wakeup(ev_b, usize::MAX, WaitResult::Awakened), 0);
        assert_eq!(waiter_count(ev_a), 1);
        assert_eq!(wakeup(ev_a, usize::MAX, WaitResult::Awakened), 1);
    }

    #[test]
    fn stale_entries_are_purged_on_enqueue() {
        let ev = Event(0xdead_0006);
        let rec = fresh_record();
        let gen = rec.assert_wait(true);
        enqueue(ev, gen, &rec);
        // The wait ends without a table wakeup (as a timeout would).
        assert!(rec.wake_current(WaitResult::Awakened));
        assert_eq!(rec.block(None), WaitResult::Awakened);
        // Re-assert on the same bucket: the stale entry must be purged.
        let gen2 = rec.assert_wait(true);
        enqueue(ev, gen2, &rec);
        assert_eq!(waiter_count(ev), 1);
        assert_eq!(wakeup(ev, usize::MAX, WaitResult::Awakened), 1);
    }
}
