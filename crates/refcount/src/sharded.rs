//! Contention-scalable sharded reference counting.
//!
//! The paper's reference counts live in one integer under one simple lock
//! (the [`ObjHeader`]'s count word); every take and release serializes
//! on that lock, which is exactly right while objects are touched by one
//! or two processors. For the hottest objects (the kernel's own task, a
//! heavily shared memory object) the count becomes a contention point of
//! its own. [`ShardedRefCount`] stripes the count so the common case never
//! contends:
//!
//! * the live count is `base + Σ shards`, where each shard is a
//!   cache-line-padded non-negative counter and `base` carries the
//!   creation reference (`base ≥ 1` while the object is alive);
//! * `take` / `release` adjust the calling thread's shard with a single
//!   uncontended atomic — no lock, no shared line with other threads;
//! * a release that finds its shard empty falls back to a slow path under
//!   a drain lock: it consumes `base` surplus if any, and otherwise
//!   **drains to exact** — every shard is swapped to a [`CLOSED`] sentinel
//!   (diverting all fast paths to the slow path), outstanding
//!   contributions are summed and folded into `base`, and the shards are
//!   reopened. Only this drained, fully-serialized state can observe the
//!   count hitting zero, so *the final release is detected exactly once*,
//!   deterministically — the property the whole destruction protocol of
//!   section 8 rests on.
//!
//! A racy "sum all shards and check for zero" scheme does not work: a
//! live reference can move between shards mid-scan (cloned on one thread,
//! released on another) and make the sum transiently zero while the
//! object is still referenced. Closing the shards first is what makes the
//! sum exact.
//!
//! [`ObjHeader`]: crate::ObjHeader
//! [`CLOSED`]: self#drain-protocol

use core::fmt;
use core::sync::atomic::{AtomicU32, Ordering};

use machk_sync::probe::{self, EventKind, FaultSite, LockClass, Tag};
use machk_sync::RawSimpleLock;

/// Number of count shards. Eight covers the span of per-object
/// parallelism this reproduction simulates; a thread's shard is its
/// [`machk_sync::thread_slot`], so threads spread evenly.
const NSHARDS: usize = 8;

/// Shard sentinel: the shard is closed because a drain is in progress
/// (or just finished); fast paths must divert to the drain lock. Doubles
/// as an unreachable upper bound for real contributions.
const CLOSED: u32 = u32::MAX;

/// `base` sentinel: the count saturated. A pegged count is immortal —
/// takes and releases are absorbed without movement and no release ever
/// reports final. Pegging converts a counter-overflow wrap (which would
/// report a bogus "final" release with live references outstanding — a
/// use-after-free factory) into a bounded leak, the same trade
/// `refcount_t`-style hardened counters make.
const PEGGED: u32 = u32::MAX;

fn shard_index() -> usize {
    machk_sync::thread_slot() % NSHARDS
}

/// One shard, padded to a cache line pair so neighbouring shards never
/// share a line (128 bytes covers adjacent-line prefetching).
#[repr(align(128))]
struct Shard(AtomicU32);

/// A reference count striped across per-thread shards, with a
/// drain-to-exact slow path that detects the final release exactly once.
///
/// Drop-in for the hot-object role of a locked count: `take` mirrors
/// "acquiring a reference never blocks" (it is a single uncontended
/// atomic), `release` returns `true` for exactly one caller — the one
/// that must destroy the object. The exactness argument is in the module
/// documentation.
///
/// Like every count in this crate, it counts references; it does not
/// replace the deactivation protocol, which stays on the object header's
/// lock and active flag.
pub struct ShardedRefCount {
    /// Per-thread-slot contributions; non-negative, [`CLOSED`] while a
    /// drain has them closed.
    shards: [Shard; NSHARDS],
    /// The exact remainder: creation reference plus whatever drains have
    /// folded in, minus slow-path releases. `base ≥ 1` while alive; the
    /// count is dead exactly when `base == 0`.
    base: AtomicU32,
    /// Serializes every slow path; held for the full drain, so a closed
    /// shard always means "the holder of this lock is reconciling".
    drain_lock: RawSimpleLock,
    /// Probe identity (zero-sized without the `probe` feature).
    /// Subscribers count `RefFinal` as a release, the destroy-now
    /// transition being a release on top.
    tag: Tag,
}

impl ShardedRefCount {
    /// A count holding the creation reference ("an object is created with
    /// a single reference to itself").
    pub fn new() -> ShardedRefCount {
        Self::named("")
    }

    /// A *named* count: with the `probe` feature, takes/releases/drains
    /// report to probe subscribers (lockstat) under this name. Without
    /// the feature the name is accepted and ignored; anonymous counts
    /// are never traced.
    pub const fn named(name: &'static str) -> ShardedRefCount {
        Self::named_with_count(name, 1)
    }

    /// A count starting at `count` references, all carried by `base`.
    ///
    /// `count` must be ≥ 1 (a count born dead is a use-after-free by
    /// construction). Starting at `u32::MAX` starts *pegged* — see
    /// [`ShardedRefCount::is_pegged`]. Exists so saturation tests (and
    /// the E17 saturation storm) can place the count next to the
    /// ceiling without billions of warm-up takes.
    pub const fn new_with_count(count: u32) -> ShardedRefCount {
        Self::named_with_count("", count)
    }

    /// Named form of [`ShardedRefCount::new_with_count`].
    pub const fn named_with_count(name: &'static str, count: u32) -> ShardedRefCount {
        assert!(count >= 1, "a reference count starts with >= 1 reference");
        ShardedRefCount {
            shards: [const { Shard(AtomicU32::new(0)) }; NSHARDS],
            base: AtomicU32::new(count),
            drain_lock: RawSimpleLock::new(),
            tag: Tag::new(name, LockClass::RefCount, "sharded"),
        }
    }

    /// Whether the count has saturated (see the saturation-guard notes
    /// on [`ShardedRefCount::take`]): the object is now immortal and no
    /// release will ever report final.
    pub fn is_pegged(&self) -> bool {
        // relaxed: pegging is permanent once set; a stale read only
        // delays observing immortality.
        self.base.load(Ordering::Relaxed) == PEGGED
    }

    /// Acquire an additional reference. Never blocks on other takers or
    /// releasers of different shards; only a concurrent drain diverts it
    /// to the drain lock.
    ///
    /// The caller must already hold a reference (the usual section-8
    /// contract — that is what makes the count reachable at all).
    ///
    /// **Saturation guard:** if the total count would pass `u32::MAX`
    /// the count pegs there instead of wrapping (`PEGGED`); the
    /// object becomes immortal rather than prematurely destroyable.
    pub fn take(&self) {
        // Fault hook: divert to the serialized slow path, perturbing
        // the base/shard distribution the drain must reconcile.
        if probe::fire(FaultSite::RefTakeSlow) {
            return self.take_slow();
        }
        let shard = &self.shards[shard_index()].0;
        // relaxed: seed value; the CAS revalidates it.
        let mut seen = shard.load(Ordering::Relaxed);
        // CLOSED - 1 also diverts: incrementing it would collide with the
        // sentinel.
        while seen < CLOSED - 1 {
            match shard.compare_exchange_weak(
                seen,
                seen + 1,
                // relaxed: taking a reference needs no ordering — the
                // caller already holds one, which is what keeps the
                // object alive (the `Arc::clone` argument); the drain's
                // AcqRel swap reconciles before any destruction.
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.tag.event(EventKind::RefTake, 0);
                    return;
                }
                Err(v) => seen = v,
            }
        }
        self.take_slow();
    }

    #[cold]
    fn take_slow(&self) {
        let _g = self.drain_lock.lock();
        // relaxed: `base` only moves under the drain lock.
        let base = self.base.load(Ordering::Relaxed);
        assert!(base >= 1, "reference taken on a dead object (count was 0)");
        // Saturating: `MAX - 1` pegs, `MAX` (already pegged) stays put.
        // relaxed: still under the drain lock.
        self.base.store(base.saturating_add(1), Ordering::Relaxed);
        self.tag.event(EventKind::RefTake, 1);
    }

    /// Release one reference. Returns `true` iff this was the final
    /// reference — for exactly one caller over the count's lifetime; the
    /// object must be destroyed by that caller.
    #[must_use]
    pub fn release(&self) -> bool {
        // Fault hook: divert to the slow path, forcing extra
        // drain-to-exact passes.
        if probe::fire(FaultSite::RefReleaseSlow) {
            return self.release_slow();
        }
        let shard = &self.shards[shard_index()].0;
        // relaxed: seed value; the CAS revalidates it.
        let mut seen = shard.load(Ordering::Relaxed);
        while seen != 0 && seen != CLOSED {
            match shard.compare_exchange_weak(
                seen,
                seen - 1,
                Ordering::Release,
                // relaxed: on failure nothing was released.
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.tag.event(EventKind::RefRelease, 0);
                    return false;
                }
                Err(v) => seen = v,
            }
        }
        self.release_slow()
    }

    #[cold]
    fn release_slow(&self) -> bool {
        let _g = self.drain_lock.lock();
        // relaxed: `base` only moves under the drain lock.
        let base = self.base.load(Ordering::Relaxed);
        assert!(base >= 1, "reference over-released");
        if base == PEGGED {
            // Saturated: the object is immortal. Absorb the release
            // without movement; never report final.
            return false;
        }
        if base > 1 {
            // Surplus in the exact remainder; consume it, clearly not
            // final.
            // relaxed: still under the drain lock.
            self.base.store(base - 1, Ordering::Relaxed);
            self.tag.event(EventKind::RefRelease, 0);
            return false;
        }
        // base == 1: releasing the last *known-exact* reference. Drain to
        // exact: close every shard so no fast path can move a
        // contribution while we sum. The AcqRel swap picks up the release
        // chain on each shard, so everything published by prior releases
        // is visible before a potential destruction.
        let mut outstanding: u64 = 0;
        for s in &self.shards {
            let v = s.0.swap(CLOSED, Ordering::AcqRel);
            debug_assert_ne!(v, CLOSED, "concurrent drain under the drain lock");
            outstanding += u64::from(v);
        }
        let final_release = outstanding == 0;
        // Fold: old count = 1 (base) + outstanding; new count after this
        // release = outstanding, carried entirely by base. A fold that
        // would reach the sentinel pegs instead of wrapping (the
        // saturation guard; the count becomes immortal, never a bogus
        // final).
        // relaxed: under the drain lock; the Release shard re-opens
        // below publish the fold to fast-path takers.
        self.base.store(
            u32::try_from(outstanding).unwrap_or(PEGGED),
            Ordering::Relaxed,
        );
        for s in &self.shards {
            s.0.store(0, Ordering::Release);
        }
        self.tag.event(EventKind::RefDrain, outstanding);
        let kind = if final_release {
            EventKind::RefFinal
        } else {
            EventKind::RefRelease
        };
        self.tag.event(kind, 0);
        final_release
    }

    /// Drain-time leak audit: serialize against every slow path, close
    /// the shards, and report the **exact** live count (unlike the racy
    /// [`ShardedRefCount::get`]). Shard contributions are folded into
    /// `base` in the process, exactly as a drain would, so the count's
    /// observable value is unchanged.
    ///
    /// This is the shutdown-time check of the paper's section-10 ledger
    /// discipline: after a scenario completes, `total` must equal what
    /// the reference ledger says is still outstanding (1 for a live
    /// object about to be released by its creator, 0 only for a dead
    /// count). E17 runs this after every seeded schedule.
    pub fn drain_audit(&self) -> DrainAudit {
        let _g = self.drain_lock.lock();
        // relaxed: `base` only moves under the drain lock.
        let base = self.base.load(Ordering::Relaxed);
        let mut outstanding: u64 = 0;
        for s in &self.shards {
            let v = s.0.swap(CLOSED, Ordering::AcqRel);
            debug_assert_ne!(v, CLOSED, "concurrent drain under the drain lock");
            outstanding += u64::from(v);
        }
        let pegged = base == PEGGED;
        let folded = if pegged {
            // Pegged counts absorb their shard contributions: the value
            // is saturated, so the exact remainder stays the sentinel.
            PEGGED
        } else {
            u32::try_from(u64::from(base) + outstanding).unwrap_or(PEGGED)
        };
        // relaxed: under the drain lock; published by the Release
        // shard re-opens below.
        self.base.store(folded, Ordering::Relaxed);
        for s in &self.shards {
            s.0.store(0, Ordering::Release);
        }
        DrainAudit {
            total: u64::from(folded),
            from_shards: outstanding,
            pegged: folded == PEGGED,
        }
    }

    /// Crash reconciliation: audit and repair the ledger contribution of
    /// a worker that died holding `leaked` references it can never
    /// release. The §8 contract makes every reference somebody's
    /// obligation to release; a crashed holder orphans its obligations,
    /// and without repair the count can never drain to zero — the object
    /// leaks forever and every shutdown-time ledger audit fails.
    ///
    /// Runs the full drain-to-exact protocol under the drain lock (close
    /// every shard, fold into `base`), then releases the `leaked`
    /// orphaned references in one exact step. The creation reference
    /// must survive: a supervisor reconciles *before* the owner's own
    /// final release, so `leaked` exceeding the folded surplus means the
    /// caller double-counted the corpse's holdings — that is asserted,
    /// not absorbed, because repairing with a wrong count is exactly the
    /// §8 premature-destruction bug this pass exists to prevent.
    ///
    /// Pegged counts are immortal; reconciliation is recorded but
    /// releases nothing (`released = 0`), mirroring
    /// [`ShardedRefCount::release`] on a saturated count.
    pub fn reconcile_crash(&self, leaked: u64) -> CrashReconciliation {
        let _g = self.drain_lock.lock();
        // relaxed: `base` only moves under the drain lock.
        let base = self.base.load(Ordering::Relaxed);
        let mut outstanding: u64 = 0;
        for s in &self.shards {
            let v = s.0.swap(CLOSED, Ordering::AcqRel);
            debug_assert_ne!(v, CLOSED, "concurrent drain under the drain lock");
            outstanding += u64::from(v);
        }
        if base == PEGGED {
            for s in &self.shards {
                s.0.store(0, Ordering::Release);
            }
            return CrashReconciliation {
                before: u64::from(PEGGED),
                released: 0,
                after: u64::from(PEGGED),
                pegged: true,
            };
        }
        let before = u64::from(base) + outstanding;
        assert!(
            before > leaked,
            "crash reconciliation would release the creation reference \
             ({before} live, {leaked} claimed leaked): the corpse's holdings \
             were double-counted"
        );
        let after = before - leaked;
        // relaxed: under the drain lock; published by the Release
        // shard re-opens below.
        self.base
            .store(u32::try_from(after).unwrap_or(PEGGED), Ordering::Relaxed);
        for s in &self.shards {
            s.0.store(0, Ordering::Release);
        }
        self.tag.event(EventKind::RefDrain, outstanding);
        CrashReconciliation {
            before,
            released: leaked,
            after,
            pegged: false,
        }
    }

    /// Approximate current count: `base` plus the open shards. Skips
    /// shards closed by a concurrent drain, and the parts can move while
    /// being summed — diagnostics only, like
    /// [`ObjHeader::ref_count`](crate::ObjHeader::ref_count).
    pub fn get(&self) -> u32 {
        // relaxed: advisory diagnostic sum; parts may move mid-read.
        let mut sum = u64::from(self.base.load(Ordering::Relaxed));
        for s in &self.shards {
            // relaxed: same advisory read.
            let v = s.0.load(Ordering::Relaxed);
            if v != CLOSED {
                sum += u64::from(v);
            }
        }
        u32::try_from(sum).unwrap_or(u32::MAX)
    }
}

/// Result of a [`ShardedRefCount::drain_audit`]: the exact live count
/// at the instant the shards were closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainAudit {
    /// Exact live references (base + shard contributions at close).
    /// `u32::MAX` when pegged.
    pub total: u64,
    /// How much of the total was found striped across the shards
    /// (diagnostic: how unbalanced the fast paths had gotten).
    pub from_shards: u64,
    /// The count is saturated/immortal; `total` is a floor, not exact.
    pub pegged: bool,
}

/// Result of a [`ShardedRefCount::reconcile_crash`] repair pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashReconciliation {
    /// Exact live count found at close (before repair).
    pub before: u64,
    /// Orphaned references released on the corpse's behalf.
    pub released: u64,
    /// Exact live count after repair.
    pub after: u64,
    /// The count was saturated/immortal; nothing was released.
    pub pegged: bool,
}

// Release layout without probes: eight 128-byte shards, then base and
// the drain lock padded to the shards' alignment.
#[cfg(not(debug_assertions))]
const _: () = assert!(probe::ENABLED || core::mem::size_of::<ShardedRefCount>() == 1152);

impl Default for ShardedRefCount {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ShardedRefCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedRefCount")
            .field("approx", &self.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_with_creation_reference() {
        let c = ShardedRefCount::new();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn final_release_detected() {
        let c = ShardedRefCount::new();
        c.take();
        c.take();
        assert!(!c.release());
        assert!(!c.release());
        assert!(c.release(), "last release must report final");
        assert_eq!(c.get(), 0);
    }

    #[test]
    #[should_panic(expected = "over-released")]
    fn release_after_final_panics() {
        let c = ShardedRefCount::new();
        assert!(c.release());
        let _ = c.release();
    }

    #[test]
    #[should_panic(expected = "dead object")]
    fn take_on_dead_count_panics() {
        let c = ShardedRefCount::new();
        assert!(c.release());
        // Only reachable through the slow path, so force it there by
        // exhausting the fast path: a dead count's shards are all zero,
        // and take's fast path would succeed — the liveness check is the
        // slow path's. Route there via a drained shard state.
        c.take_slow();
    }

    #[test]
    fn saturation_pegs_instead_of_wrapping() {
        // Start 64 references below the ceiling and push 128 takes
        // through the slow path: the count must peg at u32::MAX, not
        // wrap past zero.
        let c = ShardedRefCount::new_with_count(u32::MAX - 64);
        assert!(!c.is_pegged());
        for _ in 0..128 {
            c.take_slow();
        }
        assert!(c.is_pegged(), "count must peg at the ceiling");
        // A pegged count is immortal: releases are absorbed without
        // movement and never report final.
        for _ in 0..256 {
            assert!(!c.release(), "pegged count reported a final release");
        }
        assert!(c.is_pegged());
        assert_eq!(c.get(), u32::MAX);
    }

    #[test]
    fn fold_overflow_pegs() {
        // Shard contributions whose fold would exceed u32::MAX must peg
        // the base, not panic or wrap. Pile > MAX references into the
        // shards via fast-path takes on top of a base just below the
        // ceiling... which is impractical directly, so emulate the fold
        // input: base near ceiling + slow-path takes saturate.
        let c = ShardedRefCount::new_with_count(u32::MAX - 2);
        c.take(); // fast path: shard contribution
        c.take();
        c.take();
        // Exact audit must peg rather than report a wrapped total.
        let audit = c.drain_audit();
        assert!(audit.pegged);
        assert_eq!(audit.total, u64::from(u32::MAX));
        assert!(!c.release());
    }

    #[test]
    fn drain_audit_reports_exact_live_count() {
        let c = ShardedRefCount::new();
        for _ in 0..10 {
            c.take();
        }
        assert!(!c.release());
        let audit = c.drain_audit();
        assert_eq!(audit.total, 10, "1 creation + 10 takes - 1 release");
        assert!(!audit.pegged);
        // The audit folded the shards; the count still behaves exactly.
        for _ in 0..9 {
            assert!(!c.release());
        }
        assert!(c.release(), "audit must not perturb final detection");
        assert_eq!(c.drain_audit().total, 0);
    }

    #[test]
    fn crash_reconciliation_repairs_orphaned_references() {
        // A "worker" takes 5 references, then dies without releasing:
        // the count can never drain to zero on its own.
        let c = ShardedRefCount::new();
        for _ in 0..5 {
            c.take();
        }
        let rec = c.reconcile_crash(5);
        assert_eq!(rec.before, 6, "1 creation + 5 orphaned");
        assert_eq!(rec.released, 5);
        assert_eq!(rec.after, 1);
        assert!(!rec.pegged);
        // Only the creation reference remains; its release is final.
        assert!(c.release());
    }

    #[test]
    #[should_panic(expected = "creation reference")]
    fn crash_reconciliation_rejects_double_counted_leaks() {
        let c = ShardedRefCount::new();
        c.take();
        // Claiming 2 leaked when only 1 is orphaned would release the
        // creation reference out from under the owner.
        let _ = c.reconcile_crash(2);
    }

    #[test]
    fn crash_reconciliation_on_pegged_count_releases_nothing() {
        let c = ShardedRefCount::new_with_count(u32::MAX);
        assert!(c.is_pegged());
        let rec = c.reconcile_crash(10);
        assert!(rec.pegged);
        assert_eq!(rec.released, 0);
        assert!(c.is_pegged());
    }

    #[test]
    fn cross_thread_handoff_balances() {
        // A reference taken on one thread and released on another moves
        // between shards; the drain must still find the exact count.
        let c = ShardedRefCount::new();
        std::thread::scope(|s| {
            let taker = s.spawn(|| {
                for _ in 0..10_000 {
                    c.take();
                }
            });
            taker.join().unwrap();
            let releaser = s.spawn(|| {
                for _ in 0..10_000 {
                    assert!(!c.release());
                }
            });
            releaser.join().unwrap();
        });
        assert_eq!(c.get(), 1);
        assert!(c.release());
    }

    #[test]
    fn concurrent_churn_is_exact() {
        let c = ShardedRefCount::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..20_000 {
                        c.take();
                        assert!(!c.release(), "final release while creator ref alive");
                    }
                });
            }
        });
        assert_eq!(c.get(), 1);
        assert!(c.release());
    }
}
