//! The queued spin policies, [`Ticket`] and [`Mcs`].
//!
//! The paper's simple locks spin every waiter on the shared lock word
//! (section 2); that is fast when contention is rare but collapses under
//! sustained contention — each release invalidates the line in every
//! waiter's cache, and admission order is whoever's test-and-set lands
//! first. The two queued policies fix both problems while staying behind
//! the unchanged `simple_lock` interface:
//!
//! * **Ticket** — one atomic add draws a ticket; waiters watch a "now
//!   serving" counter. FIFO, one shared line, trivial release.
//! * **MCS** — waiters link themselves into an explicit queue and each
//!   spins on a flag in its *own* node, so a release touches exactly one
//!   waiter's line (Mellor-Crummey & Scott, 1991).
//!
//! Each policy value owns its queue state and lives inside a
//! [`RawSimpleLock<Ticket>`] or [`RawSimpleLock<Mcs>`]; the lock's word is
//! kept as a locked/unlocked mirror so `is_locked`, the debug holder
//! checks, and the macro initializers keep working regardless of policy.
//! Whenever the lock is free the queue state is quiescent, so
//! `simple_lock_init` on an unheld lock leaves it untouched.
//!
//! # MCS node lifetime
//!
//! Classic MCS threads a queue-node argument through acquire and release.
//! `simple_unlock` takes no such argument, so nodes come from a
//! thread-local pool and the lock records the holder's node in
//! `owner_node`. This is sound because a simple lock must be released by
//! the thread that acquired it (guards are `!Send`; `unlock_raw` asserts
//! it in debug builds), so the node returns to the pool it came from, and
//! a node is only ever reachable from the queue between its enqueue and
//! its handoff.
//!
//! [`RawSimpleLock<Ticket>`]: crate::RawSimpleLock
//! [`RawSimpleLock<Mcs>`]: crate::RawSimpleLock

use core::ptr;
use core::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::cell::RefCell;

use crate::host::{self, SpinSite};
use crate::policy::{Sealed, SpinPolicy, Spinner, LOCKED, UNLOCKED};

/// Ticket word layout: `[next:16 | owner:16]`.
///
/// Drawing a ticket is `fetch_add(TICKET_NEXT)`; the u32 wrap discards the
/// carry out of the high half, so the owner bits are never corrupted and
/// both halves wrap at 65536 in lockstep (waiter counts stay far below
/// that).
const TICKET_NEXT: u32 = 1 << 16;
const OWNER_MASK: u32 = 0xFFFF;

/// One waiter's place in the MCS queue.
struct McsNode {
    next: AtomicPtr<McsNode>,
    /// 1 while waiting for the predecessor's handoff, 0 once admitted.
    waiting: AtomicU32,
}

impl McsNode {
    fn new() -> McsNode {
        McsNode {
            next: AtomicPtr::new(ptr::null_mut()),
            waiting: AtomicU32::new(0),
        }
    }
}

/// Thread-local free list of MCS nodes (one entry per lock this thread
/// currently holds or waits on, so it stays tiny).
struct NodePool(Vec<*mut McsNode>);

impl NodePool {
    fn get(&mut self) -> *mut McsNode {
        self.0
            .pop()
            .unwrap_or_else(|| Box::into_raw(Box::new(McsNode::new())))
    }

    fn put(&mut self, node: *mut McsNode) {
        self.0.push(node);
    }
}

impl Drop for NodePool {
    fn drop(&mut self) {
        // Free nodes are unreachable from any queue, so reclaiming them at
        // thread exit cannot race with a waiter.
        for node in self.0.drain(..) {
            drop(unsafe { Box::from_raw(node) });
        }
    }
}

thread_local! {
    static POOL: RefCell<NodePool> = const { RefCell::new(NodePool(Vec::new())) };
}

fn node_get() -> *mut McsNode {
    POOL.with(|p| p.borrow_mut().get())
}

fn node_put(node: *mut McsNode) {
    POOL.with(|p| p.borrow_mut().put(node));
}

/// Registered-waiter count shared by both queued policies. Updated only
/// on the contended paths (the uncontended fast path never touches it);
/// the `Release` increment is sequenced after the waiter takes its queue
/// position, so observing `get() == n` (Acquire) proves the first `n`
/// registrants' admission order is fixed — the fairness tests rely on
/// this.
#[derive(Debug)]
struct Waiters(AtomicU32);

impl Waiters {
    fn register(&self) {
        self.0.fetch_add(1, Ordering::Release);
    }

    fn retire(&self) {
        // relaxed: only the *increment* publishes admission order; the
        // decrement is a stats-only retreat.
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    fn get(&self) -> u32 {
        self.0.load(Ordering::Acquire)
    }
}

/// FIFO ticket lock: acquirers draw a ticket with one atomic add and
/// wait for the "now serving" counter to reach it.
///
/// Not in the paper — tickets are the first step beyond TTAS once
/// contention makes fairness matter: arrival order is admission order,
/// so no waiter starves, and release is a single counter bump rather
/// than a cache-line brawl.
#[derive(Debug)]
pub struct Ticket {
    /// `[next:16 | owner:16]`.
    ticket: AtomicU32,
    waiters: Waiters,
}

impl Ticket {
    pub(crate) fn waiters(&self) -> u32 {
        self.waiters.get()
    }

    #[cold]
    fn wait(&self, my_turn: u32) {
        self.waiters.register();
        // Every ticket waiter watches the same "now serving" line.
        let site = SpinSite::SharedLine(&self.ticket as *const AtomicU32 as usize);
        let mut spinner = Spinner::new(site);
        while self.ticket.load(Ordering::Acquire) & OWNER_MASK != my_turn {
            spinner.relax();
        }
        self.waiters.retire();
        host::lock_acquired(site);
    }
}

impl Sealed for Ticket {}

impl SpinPolicy for Ticket {
    const INIT: Self = Ticket {
        ticket: AtomicU32::new(0),
        waiters: Waiters(AtomicU32::new(0)),
    };
    const NAME: &'static str = "ticket";

    fn acquire(&self, word: &AtomicU32) -> bool {
        let drawn = self.ticket.fetch_add(TICKET_NEXT, Ordering::Acquire);
        let my_turn = drawn >> 16;
        let contended = drawn & OWNER_MASK != my_turn;
        if contended {
            self.wait(my_turn);
        }
        // relaxed: the Acquire ticket draw / "now serving" load is the
        // synchronizing acquisition; `word` only mirrors held/free.
        word.store(LOCKED, Ordering::Relaxed);
        contended
    }

    /// Only succeeds when no one is waiting (drawing a ticket would
    /// otherwise commit us to the queue).
    fn try_acquire(&self, word: &AtomicU32) -> bool {
        // relaxed: advisory peek; the CAS below revalidates the value.
        let cur = self.ticket.load(Ordering::Relaxed);
        if cur >> 16 != cur & OWNER_MASK {
            return false; // held or queued
        }
        let ok = self
            .ticket
            .compare_exchange(
                cur,
                cur.wrapping_add(TICKET_NEXT),
                Ordering::Acquire,
                // relaxed: a failed try acquires nothing to order.
                Ordering::Relaxed,
            )
            .is_ok();
        if ok {
            // relaxed: the Acquire CAS synchronized; `word` is a mirror.
            word.store(LOCKED, Ordering::Relaxed);
        }
        ok
    }

    fn release(&self, word: &AtomicU32) {
        // relaxed: the Release CAS below is what publishes the critical
        // section to the next owner; `word` is a debug mirror.
        word.store(UNLOCKED, Ordering::Relaxed);
        // Advance "now serving". A plain add could carry into the `next`
        // half when owner wraps at 0xFFFF, so compose the halves manually;
        // the CAS loop absorbs concurrent ticket draws.
        // relaxed: seed value only; the CAS revalidates it.
        let mut cur = self.ticket.load(Ordering::Relaxed);
        loop {
            let advanced = (cur & !OWNER_MASK) | (cur.wrapping_add(1) & OWNER_MASK);
            match self.ticket.compare_exchange_weak(
                cur,
                advanced,
                Ordering::Release,
                // relaxed: failure just reloads; no acquisition occurred.
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// MCS queue lock (Mellor-Crummey & Scott, 1991 — the same year as the
/// paper): waiters form an explicit queue and each spins on a flag in
/// its *own* node.
///
/// This gives FIFO admission like [`Ticket`] plus local spinning: under
/// heavy contention each waiter touches only its own cache line until
/// its predecessor hands the lock over, so coherence traffic stays O(1)
/// per handoff instead of O(waiters).
#[derive(Debug)]
pub struct Mcs {
    /// Queue tail, null when uncontended.
    tail: AtomicPtr<McsNode>,
    /// The holder's node, consumed by release.
    owner_node: AtomicPtr<McsNode>,
    waiters: Waiters,
}

impl Mcs {
    pub(crate) fn waiters(&self) -> u32 {
        self.waiters.get()
    }

    #[cold]
    fn wait(&self, prev: *mut McsNode, node: *mut McsNode) {
        self.waiters.register();
        // Link behind the predecessor, then spin on our own flag — the
        // local spinning that distinguishes MCS from every word-spinning
        // policy.
        // SAFETY: `prev` was the tail our swap replaced; its owner keeps
        // it alive until it has handed off to the `next` stored here
        // (its tail CAS can no longer succeed once we are the tail).
        unsafe { (*prev).next.store(node, Ordering::Release) };
        let mut spinner = Spinner::new(SpinSite::LocalLine);
        // SAFETY: `node` is this thread's own pool node, live until we
        // return it to the pool at release.
        while unsafe { (*node).waiting.load(Ordering::Acquire) } != 0 {
            spinner.relax();
        }
        self.waiters.retire();
        host::lock_acquired(SpinSite::LocalLine);
    }
}

impl Sealed for Mcs {}

impl SpinPolicy for Mcs {
    const INIT: Self = Mcs {
        tail: AtomicPtr::new(ptr::null_mut()),
        owner_node: AtomicPtr::new(ptr::null_mut()),
        waiters: Waiters(AtomicU32::new(0)),
    };
    const NAME: &'static str = "mcs";

    fn acquire(&self, word: &AtomicU32) -> bool {
        let node = node_get();
        // SAFETY: a pool node is a live allocation owned by this thread
        // and not reachable from any queue until the swap below.
        unsafe {
            // relaxed: the node is ours alone until the AcqRel tail swap
            // publishes it, and that swap orders these init stores.
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
            (*node).waiting.store(1, Ordering::Relaxed);
        }
        let prev = self.tail.swap(node, Ordering::AcqRel);
        let contended = !prev.is_null();
        if contended {
            self.wait(prev, node);
        }
        // relaxed: tail swap / waiting handoff already synchronized;
        // `word` mirrors state and `owner_node` is read back only by
        // this same thread at release time.
        word.store(LOCKED, Ordering::Relaxed);
        self.owner_node.store(node, Ordering::Relaxed);
        contended
    }

    /// Enqueue only if the queue is empty.
    fn try_acquire(&self, word: &AtomicU32) -> bool {
        let node = node_get();
        // SAFETY: as in `acquire`, the node is private until the CAS.
        unsafe {
            // relaxed: node is thread-private until the CAS publishes it.
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
            (*node).waiting.store(1, Ordering::Relaxed);
        }
        match self
            .tail
            // relaxed: on failure nothing is acquired, node stays private.
            .compare_exchange(ptr::null_mut(), node, Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => {
                // relaxed: the AcqRel CAS synchronized; `word` mirrors
                // state, `owner_node` is same-thread data.
                word.store(LOCKED, Ordering::Relaxed);
                self.owner_node.store(node, Ordering::Relaxed);
                true
            }
            Err(_) => {
                node_put(node);
                false
            }
        }
    }

    fn release(&self, word: &AtomicU32) {
        // relaxed: reading back this thread's own store from acquire;
        // program order suffices for same-thread data.
        let node = self.owner_node.swap(ptr::null_mut(), Ordering::Relaxed);
        debug_assert!(!node.is_null(), "MCS release without a holder node");
        // relaxed: the Release successor-handoff below (or the tail CAS)
        // publishes the critical section; `word` is a debug mirror.
        word.store(UNLOCKED, Ordering::Relaxed);
        // SAFETY: `node` is the holder's node, recorded by this thread at
        // acquire and live until `node_put`; `next` is a waiter's node,
        // live until that waiter sees the `waiting` store below.
        unsafe {
            let mut next = (*node).next.load(Ordering::Acquire);
            if next.is_null() {
                // No visible successor: try to close the queue.
                let closed = self.tail.compare_exchange(
                    node,
                    ptr::null_mut(),
                    Ordering::Release,
                    // relaxed: a failure only tells us a successor
                    // exists; we re-poll `next` with Acquire below.
                    Ordering::Relaxed,
                );
                if closed.is_ok() {
                    node_put(node);
                    return;
                }
                // A successor swapped the tail but has not linked yet;
                // its store is imminent (under a simulated host the
                // successor must run before its link appears).
                let mut spinner = Spinner::new(SpinSite::Generic);
                loop {
                    next = (*node).next.load(Ordering::Acquire);
                    if !next.is_null() {
                        break;
                    }
                    spinner.relax();
                }
            }
            // Hand off: the successor's Acquire load of `waiting`
            // synchronizes with this store, publishing the critical
            // section. Past this store the successor no longer touches
            // our node, so it can be recycled.
            (*next).waiting.store(0, Ordering::Release);
            node_put(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_word_wraps_without_corrupting_owner() {
        let q = Ticket::INIT;
        // Park the packed word just below the next-half wrap point.
        q.ticket.store(0xFFFF_u32 << 16 | 0xFFFF, Ordering::Relaxed);
        let word = AtomicU32::new(UNLOCKED);
        assert!(!q.acquire(&word));
        q.release(&word);
        // Both halves wrapped to zero in lockstep: lock is free again.
        assert_eq!(q.ticket.load(Ordering::Relaxed), 0);
        assert!(q.try_acquire(&word));
    }

    fn try_fails_while_held<P: SpinPolicy>(q: P) {
        let word = AtomicU32::new(UNLOCKED);
        assert!(q.try_acquire(&word));
        assert!(!q.try_acquire(&word));
        q.release(&word);
        assert!(q.try_acquire(&word));
        q.release(&word);
    }

    #[test]
    fn queued_try_fails_while_held() {
        try_fails_while_held(Ticket::INIT);
        try_fails_while_held(Mcs::INIT);
    }

    #[test]
    fn mcs_handoff_chain() {
        let q = Mcs::INIT;
        let word = AtomicU32::new(UNLOCKED);
        let admitted = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..2_000 {
                        q.acquire(&word);
                        admitted.fetch_add(1, Ordering::Relaxed);
                        q.release(&word);
                    }
                });
            }
        });
        assert_eq!(admitted.load(Ordering::Relaxed), 8_000);
        assert!(q.tail.load(Ordering::Relaxed).is_null());
        assert_eq!(q.waiters(), 0);
    }
}
