//! Lock-free bounded message rings (beyond the paper).
//!
//! The paper's port message queues live under the port's simple lock;
//! E2 shows why that ceiling matters: serializing independent work
//! through one lock is the master-funnel shape the paper spends §2
//! arguing against. [`MpscRing<T>`] removes the lock from the queue
//! itself: a fixed ring of slots, each carrying its own sequence word,
//! with producers claiming slots by compare-exchange on a monotone
//! enqueue position (the bounded-queue design popularized by Vyukov).
//!
//! Properties the IPC engine builds on:
//!
//! * **Multi-producer** — any number of senders push concurrently;
//!   admission order is the order of their position claims (global
//!   FIFO by claim).
//! * **Consumer-safe under concurrency** — pops are also
//!   compare-exchange claims, so the "single consumer" of MPSC is a
//!   *usage* pattern (one logical receiver per port), not a safety
//!   requirement; a port's `destroy` path and a late receiver may
//!   drain concurrently without corruption.
//! * **Bounded with an exact logical limit** — the ring's physical
//!   capacity is the limit rounded up to a power of two, but admission
//!   is gated on the *logical* limit, so `create_with_limit(3)` still
//!   admits exactly 3 messages before reporting full.
//! * **Batched dequeue** — [`MpscRing::pop_batch`] claims up to `max`
//!   items in one sweep so a dispatch loop amortizes its wakeups.
//! * **Slots on first use** — a ring owns no slot array until its
//!   first push installs one (see [`MpscRing::push`]), so a ring that
//!   never queues costs a few words. A port that only ever serves RPCs
//!   never pays for its 64 message slots.
//! * **Host-aware** — every retry spin goes through
//!   [`host::spin_hint`], so a ring inside a `machk-sim` run is
//!   scheduled (and replayed) deterministically like every other wait
//!   in the stack.
//!
//! Blocking is deliberately *not* provided here: the port layer keeps
//! the §6 split-wait protocol (`assert_wait` / `thread_block` /
//! `thread_wakeup`) on top, so Appendix-A semantics are unchanged —
//! the ring only replaces the queue's mutual exclusion, not its event
//! protocol.
//!
//! ## Installing the slots
//!
//! The slot pointer starts null. A push that reads null builds the
//! array (`seq = i` in slot `i`) and publishes it with one
//! compare-exchange; a racer that loses frees its own array and uses
//! the winner's. Nothing parks (a `OnceLock` would), and no host call
//! is added, so simulated schedules are unchanged. Pops read the
//! pointer with `Acquire`, pairing with the publishing CAS; a pop that
//! reads null returns empty, exactly as if it had read a slot whose
//! producer has not published yet. The install precedes the pusher's
//! own slot publish in program order, so any protocol that orders
//! "push, then fence" against "fence, then drain" (the port's
//! destroy-vs-late-sender fences) covers the install as well.
//!
//! ## 32-bit positions
//!
//! The positions and each slot's sequence word are `u32`s that wrap,
//! like io_uring's ring heads and DPDK's `rte_ring` indices. Every
//! comparison is a wrapping difference read as signed
//! (`seq.wrapping_sub(pos) as i32`), which is exact while the two
//! values are within 2^31 of each other. They always are: a slot's
//! `seq` is at most one lap (`capacity ≤ 2^31`) from any position that
//! can index it, and `enqueue_pos - dequeue_pos` never exceeds the
//! limit. So wrapping changes nothing but the word width: the ring
//! costs 24 bytes instead of 40. A slot pads its 4-byte word to the
//! payload's alignment, so a port's `Message` slot stays 40 bytes.
//!
//! The one thing 64 bits would buy is ABA margin on a *stale* claim. A
//! producer that read `enqueue_pos == p` and then stalled can only
//! succeed with its CAS if the position comes back to `p`, which takes
//! exactly 2^32 pushes during that one stall; the slot's `seq` must
//! also read `p` again, i.e. the ring must be on the same lap. At the
//! ~10^8 pushes per second of the fastest port here, that is a stall of
//! about 40 seconds inside one push, between two adjacent loads. The
//! same argument covers pops.

use core::cell::UnsafeCell;
use core::mem::MaybeUninit;
use core::ptr;
use core::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

use crate::host::{self, SpinSite};
use crate::probe::{self, EventKind, LockClass, Tag};

/// One ring slot: a sequence word (the slot's reuse generation) plus
/// the payload cell it guards.
struct Slot<T> {
    /// Sequence protocol (Vyukov): `seq == pos` ⇒ empty and claimable
    /// by the producer whose enqueue position is `pos`; `seq == pos+1`
    /// ⇒ full and claimable by the consumer whose dequeue position is
    /// `pos`; anything else ⇒ another lap owns the slot. Compared by
    /// wrapping difference (see the module docs).
    seq: AtomicU32,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded, lock-free, multi-producer message ring.
///
/// See the module docs for the design; see `machk-ipc` for the
/// production consumer (per-port message queues and the RPC engine's
/// transfer channel).
///
/// # Examples
///
/// ```
/// use machk_sync::ring::MpscRing;
///
/// let ring: MpscRing<u32> = MpscRing::with_limit(3);
/// assert!(ring.push(1).is_ok());
/// assert!(ring.push(2).is_ok());
/// assert!(ring.push(3).is_ok());
/// assert_eq!(ring.push(4), Err(4), "logical limit, not pow2 capacity");
/// let mut batch = Vec::new();
/// ring.pop_batch(&mut batch, 8);
/// assert_eq!(batch, vec![1, 2, 3]);
/// ```
pub struct MpscRing<T> {
    /// The `capacity` slots, null until the first push installs them
    /// (see [`MpscRing::push`]); freed only by `Drop`.
    buf: AtomicPtr<Slot<T>>,
    /// `capacity - 1`; capacity is a power of two.
    mask: u32,
    /// The logical bound: pushes are refused once `limit` messages are
    /// in flight, independent of the (≥ limit) physical capacity.
    limit: u32,
    /// Wrapping 32-bit positions (see the module docs).
    enqueue_pos: AtomicU32,
    dequeue_pos: AtomicU32,
    /// Probe identity ("" = anonymous, untraced; zero-sized without
    /// the `probe` feature).
    tag: Tag,
}

// Release layout without probes: the slot pointer and four 32-bit
// words (mask, limit and the two positions).
#[cfg(not(debug_assertions))]
const _: () = assert!(probe::ENABLED || core::mem::size_of::<MpscRing<u64>>() == 24);

// Safety: slots are transferred between threads with release/acquire
// sequence handoffs; a slot's payload is touched only by the thread
// that claimed its position by CAS.
unsafe impl<T: Send> Send for MpscRing<T> {}
unsafe impl<T: Send> Sync for MpscRing<T> {}

impl<T> MpscRing<T> {
    /// Bytes one slot occupies in the slot array: the 32-bit sequence
    /// word beside the payload, padded to the payload's alignment. The
    /// first push allocates `capacity() * SLOT_BYTES`.
    pub const SLOT_BYTES: usize = core::mem::size_of::<Slot<T>>();

    /// A ring admitting at most `limit` (≥ 1) items at a time.
    pub fn with_limit(limit: usize) -> MpscRing<T> {
        Self::with_limit_named(limit, "")
    }

    /// [`MpscRing::with_limit`] with a static trace name. With the
    /// `probe` feature on, named rings emit `RingPush` / `RingPop` /
    /// `RingFull` events (per-name aggregation, like every named lock);
    /// anonymous rings stay untraced. Without the feature the name is
    /// discarded at compile time.
    ///
    /// `limit` is at most 2^31, so that the wrapping comparisons of the
    /// 32-bit positions stay exact (see the module docs).
    pub fn with_limit_named(limit: usize, name: &'static str) -> MpscRing<T> {
        assert!(limit >= 1, "ring limit must be at least 1");
        assert!(limit <= 1 << 31, "ring limit must be at most 2^31");
        let limit = limit as u32;
        MpscRing {
            buf: AtomicPtr::new(ptr::null_mut()),
            mask: limit.next_power_of_two() - 1,
            limit,
            enqueue_pos: AtomicU32::new(0),
            dequeue_pos: AtomicU32::new(0),
            tag: Tag::new(name, LockClass::Other, "ring"),
        }
    }

    /// The logical bound on in-flight items.
    pub fn limit(&self) -> usize {
        self.limit as usize
    }

    /// Physical slot count (`limit` rounded up to a power of two),
    /// whether or not the slots are installed yet.
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// The installed slot array, or `None` before the first push.
    #[inline]
    fn slots(&self) -> Option<&[Slot<T>]> {
        // Acquire pairs with the publishing CAS in `install`, so the
        // slots' initial sequence words are visible.
        let p = self.buf.load(Ordering::Acquire);
        // SAFETY: a non-null `buf` was published by `install` from a
        // live `Box<[Slot<T>]>` of exactly `capacity()` slots, and only
        // `Drop` (which `&self` rules out) frees it.
        (!p.is_null()).then(|| unsafe { &*ptr::slice_from_raw_parts(p, self.capacity()) })
    }

    /// Allocate the slot array and publish it, unless a racing first
    /// push published one first — then free ours and use theirs.
    /// Lock-free and host-call-free: a losing racer never waits.
    #[cold]
    fn install(&self) -> &[Slot<T>] {
        let fresh: Box<[Slot<T>]> = (0..self.capacity())
            .map(|i| Slot {
                seq: AtomicU32::new(i as u32),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        let mine = Box::into_raw(fresh).cast::<Slot<T>>();
        // Release (success) publishes the initialized sequence words to
        // every later `slots` Acquire load; Acquire (failure) makes the
        // winner's words visible to us.
        let winner = match self.buf.compare_exchange(
            ptr::null_mut(),
            mine,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => mine,
            Err(theirs) => {
                // SAFETY: `mine` came from `Box::into_raw` just above
                // with `capacity()` slots and was never published, so
                // this thread still owns it alone.
                drop(unsafe {
                    Box::from_raw(ptr::slice_from_raw_parts_mut(mine, self.capacity()))
                });
                theirs
            }
        };
        // SAFETY: as in `slots`: `winner` is the published array.
        unsafe { &*ptr::slice_from_raw_parts(winner, self.capacity()) }
    }

    /// Push `v`, or give it back if the ring is at its limit.
    ///
    /// The limit check reads a possibly-stale dequeue position; stale
    /// means *smaller*, so occupancy is only ever over-estimated and
    /// the logical bound is never exceeded. (The cost: a push racing a
    /// pop may report full when one slot just freed — callers that
    /// block re-check after `assert_wait`, exactly the §6 discipline.)
    ///
    /// The first push installs the slot array (`install`). Racing
    /// first pushes each build one; the compare-exchange keeps exactly
    /// one and the losers free theirs, so nothing blocks and nothing
    /// leaks.
    pub fn push(&self, v: T) -> Result<(), T> {
        let buf = match self.slots() {
            Some(buf) => buf,
            None => self.install(),
        };
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed); // relaxed: CAS below re-validates the claim
        loop {
            if pos.wrapping_sub(self.dequeue_pos.load(Ordering::Acquire)) >= self.limit {
                self.tag.event(EventKind::RingFull, u64::from(self.limit));
                return Err(v);
            }
            let slot = &buf[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq.wrapping_sub(pos) as i32;
            if dif == 0 {
                // The slot is empty on our lap: claim the position.
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    // relaxed: the position word carries no payload; the
                    // slot's seq store below is the publishing release.
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Safety: the CAS gave this thread exclusive
                        // ownership of the slot for this lap.
                        unsafe { (*slot.val.get()).write(v) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        if probe::ENABLED {
                            self.tag.event(EventKind::RingPush, self.len() as u64);
                        }
                        return Ok(());
                    }
                    Err(now) => pos = now,
                }
            } else if dif < 0 {
                // A whole lap behind: physically full.
                self.tag.event(EventKind::RingFull, u64::from(self.limit));
                return Err(v);
            } else {
                // Another producer advanced the position under us.
                pos = self.enqueue_pos.load(Ordering::Relaxed); // relaxed: CAS re-validates
            }
            // A scheduling point per retry so simulated hosts interleave
            // (and replay) ring races deterministically.
            host::spin_hint(SpinSite::Generic);
        }
    }

    /// Pop the oldest item, if any.
    pub fn pop(&self) -> Option<T> {
        let v = self.pop_inner();
        if v.is_some() {
            self.tag.event(EventKind::RingPop, 1);
        }
        v
    }

    /// [`MpscRing::pop`] without the trace event — the shared claim
    /// loop; `pop_batch` traces once per sweep instead of per item.
    ///
    /// A ring with no slots installed has never been pushed to, so it
    /// is empty. A null read racing the first push is the same case as
    /// a slot whose producer has not published yet (below).
    fn pop_inner(&self) -> Option<T> {
        let buf = self.slots()?;
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed); // relaxed: CAS below re-validates the claim
        loop {
            let slot = &buf[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq.wrapping_sub(pos.wrapping_add(1)) as i32;
            if dif == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    // relaxed: the slot seq protocol carries the payload
                    // ordering; the position word is just the claim.
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Safety: the CAS gave this thread exclusive
                        // ownership of the slot's payload for this lap.
                        let v = unsafe { (*slot.val.get()).assume_init_read() };
                        slot.seq.store(
                            pos.wrapping_add(self.mask).wrapping_add(1),
                            Ordering::Release,
                        );
                        return Some(v);
                    }
                    Err(now) => pos = now,
                }
            } else if dif < 0 {
                // The slot has not been published on this lap: empty
                // (or a producer is mid-write, which reads as empty
                // until its release store lands).
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed); // relaxed: CAS re-validates
            }
            host::spin_hint(SpinSite::Generic);
        }
    }

    /// Pop up to `max` items into `out` (appending), returning how many
    /// were taken. One sweep, no allocation beyond `out`'s growth — the
    /// batched dequeue a dispatch loop amortizes its wakeups over.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.pop_inner() {
                Some(v) => {
                    out.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        if n > 0 {
            self.tag.event(EventKind::RingPop, n as u64);
        }
        n
    }

    /// Approximate in-flight count (racy; diagnostics and wakeup
    /// heuristics only).
    pub fn len(&self) -> usize {
        // relaxed: both loads are advisory; the result is stale the
        // moment it is computed.
        let enq = self.enqueue_pos.load(Ordering::Relaxed);
        let deq = self.dequeue_pos.load(Ordering::Relaxed);
        enq.wrapping_sub(deq).min(self.limit) as usize
    }

    /// Whether the ring currently looks empty (racy; diagnostics).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for MpscRing<T> {
    fn drop(&mut self) {
        // Owning `&mut self`, no concurrency remains: drain and drop
        // whatever is still in flight (port rights in queued messages
        // release their references here). Untraced: teardown pops are
        // not consumption, and thread-local trace state may already be
        // gone if this runs during process exit.
        while self.pop_inner().is_some() {}
        let p = *self.buf.get_mut();
        if !p.is_null() {
            // SAFETY: `p` is the array `install` published, built as a
            // `Box<[Slot<T>]>` of `capacity()` slots; `&mut self` means
            // no other reference to it remains. The payloads were just
            // drained, and `MaybeUninit` drops none of its own.
            drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(p, self.capacity())) });
        }
    }
}

impl<T> core::fmt::Debug for MpscRing<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MpscRing")
            .field("len", &self.len())
            .field("limit", &self.limit)
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let ring = MpscRing::with_limit(8);
        for i in 0..8 {
            ring.push(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn logical_limit_enforced_exactly() {
        for limit in 1..=9usize {
            // A fresh ring each time, so the first push also installs.
            let ring = MpscRing::with_limit(limit);
            assert_eq!(ring.capacity(), limit.next_power_of_two());
            assert_eq!(ring.pop(), None);
            for i in 0..limit {
                assert!(ring.push(i).is_ok(), "limit {limit}: push {i}");
            }
            assert_eq!(ring.push(99), Err(99), "limit {limit} must refuse");
            assert_eq!(ring.len(), limit);
            // Free one slot; exactly one more fits.
            assert_eq!(ring.pop(), Some(0));
            assert!(ring.push(100).is_ok());
            assert_eq!(ring.push(101), Err(101));
        }
    }

    #[test]
    fn wraps_many_laps() {
        let ring = MpscRing::with_limit(3);
        for lap in 0..1000u64 {
            ring.push(lap).unwrap();
            assert_eq!(ring.pop(), Some(lap));
        }
        assert!(ring.is_empty());
    }

    /// A ring whose positions start at `base`, as if `base` items had
    /// already passed through it: each slot's `seq` is the position of
    /// the current lap that maps to it.
    fn ring_starting_at(limit: usize, base: u32) -> MpscRing<u64> {
        let mut ring = MpscRing::with_limit(limit);
        *ring.enqueue_pos.get_mut() = base;
        *ring.dequeue_pos.get_mut() = base;
        for (j, slot) in ring.install().iter().enumerate() {
            let pos = base.wrapping_add((j as u32).wrapping_sub(base) & ring.mask);
            slot.seq.store(pos, Ordering::Relaxed);
        }
        ring
    }

    #[test]
    fn positions_wrap_past_u32_max() {
        // Limit 3 on 4 slots, starting 3 short of the wrap: laps of
        // fill-and-drain carry both positions and every slot's `seq`
        // across it.
        let ring = ring_starting_at(3, u32::MAX - 2);
        let (mut next_in, mut next_out) = (0u64, 0u64);
        for _ in 0..6 {
            while ring.len() < 3 {
                ring.push(next_in).unwrap();
                next_in += 1;
            }
            assert_eq!(ring.len(), 3);
            assert_eq!(ring.push(99), Err(99), "logical limit across the wrap");
            for _ in 0..2 {
                assert_eq!(ring.pop(), Some(next_out), "FIFO across the wrap");
                next_out += 1;
            }
            assert_eq!(ring.len(), 1);
        }
        assert_eq!(ring.enqueue_pos.load(Ordering::Relaxed), 10, "wrapped");

        // Limit = capacity, wrapped while full. A consumer that has
        // claimed the oldest slot but not yet released it leaves room
        // under the limit, but that slot is a lap behind: physically
        // full.
        let ring = ring_starting_at(4, u32::MAX - 1);
        for i in 0..4 {
            ring.push(i).unwrap();
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.push(99), Err(99), "logical limit at capacity");
        ring.dequeue_pos.fetch_add(1, Ordering::Relaxed);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.push(99), Err(99), "physically full across the wrap");
        ring.dequeue_pos.fetch_sub(1, Ordering::Relaxed);
        for i in 0..4 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert!(ring.is_empty());
        assert_eq!(ring.push(4), Ok(()));
        assert_eq!(ring.pop(), Some(4));
    }

    #[test]
    fn pop_batch_takes_up_to_max() {
        let ring = MpscRing::with_limit(16);
        for i in 0..10 {
            ring.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(ring.pop_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(ring.pop_batch(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
        assert_eq!(ring.pop_batch(&mut out, 1), 0);
    }

    #[test]
    fn drop_releases_in_flight_items() {
        let live = Arc::new(AtomicUsize::new(0));
        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let ring = MpscRing::with_limit(8);
        for _ in 0..5 {
            live.fetch_add(1, Ordering::SeqCst);
            assert!(ring.push(Tracked(Arc::clone(&live))).is_ok());
        }
        drop(ring);
        assert_eq!(live.load(Ordering::SeqCst), 0, "drop drains the ring");
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        const PRODUCERS: usize = 4;
        const PER: usize = 5_000;
        let ring = Arc::new(MpscRing::with_limit(64));
        let seen = Arc::new(AtomicUsize::new(0));
        let sum = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let ring = Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..PER {
                        let v = p * PER + i;
                        loop {
                            match ring.push(v) {
                                Ok(()) => break,
                                Err(_) => std::thread::yield_now(),
                            }
                        }
                    }
                });
            }
            let ring = Arc::clone(&ring);
            let seen = Arc::clone(&seen);
            let sum = Arc::clone(&sum);
            s.spawn(move || {
                let mut batch = Vec::with_capacity(32);
                while seen.load(Ordering::Relaxed) < PRODUCERS * PER {
                    batch.clear();
                    let n = ring.pop_batch(&mut batch, 32);
                    if n == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    for v in &batch {
                        sum.fetch_add(*v, Ordering::Relaxed);
                    }
                    seen.fetch_add(n, Ordering::Relaxed);
                }
            });
        });
        let n = PRODUCERS * PER;
        assert_eq!(seen.load(Ordering::SeqCst), n);
        assert_eq!(sum.load(Ordering::SeqCst), n * (n - 1) / 2);
    }

    #[test]
    fn concurrent_producers_and_drainers() {
        // Pops are CAS claims too, so destroy-vs-receive races cannot
        // duplicate or corrupt; here several threads drain at once.
        // Everyone starts together on a fresh ring, so the first pushes
        // race to install the slots while drainers poll an empty ring.
        const PRODUCERS: usize = 3;
        const DRAINERS: usize = 2;
        const PER: usize = 4_000;
        let ring = Arc::new(MpscRing::with_limit(32));
        let got = Arc::new(AtomicUsize::new(0));
        let start = Arc::new(std::sync::Barrier::new(PRODUCERS + DRAINERS));
        std::thread::scope(|s| {
            for _ in 0..PRODUCERS {
                let ring = Arc::clone(&ring);
                let start = Arc::clone(&start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER {
                        while ring.push(i).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..DRAINERS {
                let ring = Arc::clone(&ring);
                let got = Arc::clone(&got);
                let start = Arc::clone(&start);
                s.spawn(move || {
                    start.wait();
                    while got.load(Ordering::Relaxed) < PRODUCERS * PER {
                        if ring.pop().is_some() {
                            got.fetch_add(1, Ordering::Relaxed);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(got.load(Ordering::SeqCst), PRODUCERS * PER);
        assert!(ring.pop().is_none());
    }
}
