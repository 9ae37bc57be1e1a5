//! The object header: reference count + deactivation flag + their lock.
//!
//! Every reference-counted kernel object embeds an [`ObjHeader`]. The
//! header owns a simple lock protecting "the portion containing its
//! reference count" (the paper explicitly allows the count's lock to be
//! narrower than the whole object) and the active/deactivated flag of
//! section 9. Substrates keep the rest of their state under their own
//! simple or complex locks.

use core::fmt;
use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, Ordering};

use machk_sync::RawSimpleLock;

use crate::sharded::ShardedRefCount;

/// Error returned by operations attempted on a deactivated object.
///
/// "An operation that fails because an object has been deactivated
/// performs whatever recovery code is required to avoid corruption of
/// data structures and returns a failure code." This is the failure code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deactivated;

impl fmt::Display for Deactivated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("object has been deactivated")
    }
}

impl std::error::Error for Deactivated {}

/// Reference count, deactivation flag, and the simple lock protecting
/// them.
///
/// The count and flag are stored in atomics but — matching the paper's
/// protocol — are only *modified* while holding the header lock; the
/// atomics make unlocked reads (diagnostics, fast-path checks that are
/// revalidated under the lock) well-defined.
pub struct ObjHeader {
    lock: RawSimpleLock,
    refs: AtomicU32,
    active: AtomicBool,
    /// Optional contention-scalable count, promoted at creation for hot
    /// objects ([`ObjHeader::new_sharded`]). When set, it replaces `refs`
    /// as the authoritative count; the deactivation protocol is
    /// unaffected and stays on `lock` + `active`.
    sharded: AtomicPtr<ShardedRefCount>,
}

impl ObjHeader {
    /// A header for a freshly created object: one reference (the
    /// creator's — "an object is created with a single reference to
    /// itself") and active.
    pub const fn new() -> Self {
        ObjHeader {
            lock: RawSimpleLock::new(),
            refs: AtomicU32::new(1),
            active: AtomicBool::new(true),
            sharded: AtomicPtr::new(core::ptr::null_mut()),
        }
    }

    /// A header whose reference count is sharded for contention
    /// scalability (see [`ShardedRefCount`]). Behaviour is identical to
    /// [`ObjHeader::new`] — one creation reference, active, same
    /// take/release/deactivate interface — but takes and releases stop
    /// serializing on the header lock. Use for objects whose references
    /// churn from many threads at once (the kernel task, hot VM objects).
    pub fn new_sharded() -> Self {
        Self::new_sharded_named("")
    }

    /// [`ObjHeader::new_sharded`] with a lockstat name for the count:
    /// with the `obs` feature, takes/releases/drains of this header's
    /// references report under `name` (say, `"task.ref"` or
    /// `"vm_object.ref"`). Without the feature the name is ignored.
    pub fn new_sharded_named(name: &'static str) -> Self {
        let header = ObjHeader::new();
        header.sharded.store(
            Box::into_raw(Box::new(ShardedRefCount::named(name))),
            Ordering::Release,
        );
        header
    }

    /// The sharded count, if this header was promoted at creation.
    #[inline]
    fn sharded_count(&self) -> Option<&ShardedRefCount> {
        // Acquire pairs with the Release store in `new_sharded`; the
        // pointer never changes after construction.
        unsafe { self.sharded.load(Ordering::Acquire).as_ref() }
    }

    /// Whether this header uses a sharded reference count.
    pub fn is_sharded(&self) -> bool {
        self.sharded_count().is_some()
    }

    /// Acquire an additional reference: lock, increment, unlock.
    ///
    /// "Acquiring a new reference to an object will not block, and
    /// therefore may be done while holding other locks."
    ///
    /// The caller must already hold a reference (that is what makes it
    /// safe to touch the header at all); with zero references the object
    /// is being destroyed and the call panics.
    ///
    /// Saturates at `u32::MAX` instead of wrapping, like
    /// [`crate::LockedRefCount::take`]: the pegged object becomes
    /// immortal rather than destroyable with references outstanding.
    pub fn take_ref(&self) {
        if let Some(sharded) = self.sharded_count() {
            sharded.take();
            return;
        }
        let _g = self.lock.lock();
        // relaxed: guarded by the header lock held just above.
        let old = self.refs.load(Ordering::Relaxed);
        assert!(old > 0, "reference cloned from a dead object (count was 0)");
        // relaxed: still under the header lock.
        self.refs.store(old.saturating_add(1), Ordering::Relaxed);
    }

    /// Release one reference: lock, decrement, unlock. Returns `true` if
    /// this was the last reference — the caller must then destroy the
    /// object ("the object and its data structure can be destroyed at
    /// that time"). A pegged count (see [`ObjHeader::take_ref`]) absorbs
    /// releases without moving and never reports final.
    #[must_use]
    pub fn release_ref(&self) -> bool {
        if let Some(sharded) = self.sharded_count() {
            return sharded.release();
        }
        let _g = self.lock.lock();
        // relaxed: guarded by the header lock held just above.
        let old = self.refs.load(Ordering::Relaxed);
        assert!(old > 0, "reference over-released");
        if old == u32::MAX {
            return false; // pegged: immortal
        }
        // relaxed: still under the header lock.
        self.refs.store(old - 1, Ordering::Relaxed);
        old == 1
    }

    /// Current reference count (unlocked read; diagnostics only).
    pub fn ref_count(&self) -> u32 {
        match self.sharded_count() {
            Some(sharded) => sharded.get(),
            // relaxed: advisory diagnostic snapshot.
            None => self.refs.load(Ordering::Relaxed),
        }
    }

    /// Mark the object deactivated (section 10, shutdown step 1: "lock
    /// the object, set the deactivated flag, and unlock the object").
    ///
    /// Returns `Err(Deactivated)` if it already was — terminators race,
    /// and exactly one must win.
    pub fn deactivate(&self) -> Result<(), Deactivated> {
        let _g = self.lock.lock();
        // relaxed: flag flips only under the header lock; the lock's
        // release publishes it to the next locker.
        if self.active.swap(false, Ordering::Relaxed) {
            #[cfg(feature = "obs")]
            machk_obs::emit(
                machk_obs::EventKind::Deactivate,
                self.sharded_count().map(|s| s.obs_id()).unwrap_or(0),
                0,
            );
            Ok(())
        } else {
            Err(Deactivated)
        }
    }

    /// Whether the object is still active. Because "the object can be
    /// deactivated at any time it is unlocked", callers that depend on
    /// activity must call this *after* (re)locking the object and be
    /// prepared for [`Deactivated`].
    pub fn is_active(&self) -> bool {
        // relaxed: advisory unless called with the header locked, in
        // which case the lock ordering makes it exact (see doc).
        self.active.load(Ordering::Relaxed)
    }

    /// Fail with [`Deactivated`] unless the object is active.
    pub fn check_active(&self) -> Result<(), Deactivated> {
        if self.is_active() {
            Ok(())
        } else {
            Err(Deactivated)
        }
    }

    /// The header's simple lock. Exposed so protocols can combine the
    /// reference-count manipulation with other header-scoped state (as
    /// the memory object does with its paging count).
    pub fn lock(&self) -> &RawSimpleLock {
        &self.lock
    }
}

impl Default for ObjHeader {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ObjHeader {
    fn drop(&mut self) {
        let sharded = *self.sharded.get_mut();
        if !sharded.is_null() {
            drop(unsafe { Box::from_raw(sharded) });
        }
    }
}

impl fmt::Debug for ObjHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjHeader")
            .field("refs", &self.ref_count())
            .field("active", &self.is_active())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_header_has_creation_reference() {
        let h = ObjHeader::new();
        assert_eq!(h.ref_count(), 1);
        assert!(h.is_active());
    }

    #[test]
    fn take_release_roundtrip() {
        let h = ObjHeader::new();
        h.take_ref();
        h.take_ref();
        assert_eq!(h.ref_count(), 3);
        assert!(!h.release_ref());
        assert!(!h.release_ref());
        assert!(h.release_ref(), "last release reports zero");
        assert_eq!(h.ref_count(), 0);
    }

    #[test]
    fn count_pegs_at_max_instead_of_wrapping() {
        let h = ObjHeader::new();
        // relaxed: single-threaded test setup.
        h.refs.store(u32::MAX - 1, Ordering::Relaxed);
        h.take_ref();
        assert_eq!(h.ref_count(), u32::MAX);
        h.take_ref();
        assert_eq!(h.ref_count(), u32::MAX, "a pegged count stays put");
        for _ in 0..3 {
            assert!(!h.release_ref(), "a pegged count never reports final");
        }
        assert_eq!(h.ref_count(), u32::MAX, "a pegged object is immortal");
    }

    #[test]
    #[should_panic(expected = "over-released")]
    fn over_release_panics() {
        let h = ObjHeader::new();
        let _ = h.release_ref();
        let _ = h.release_ref();
    }

    #[test]
    #[should_panic(expected = "dead object")]
    fn clone_from_dead_object_panics() {
        let h = ObjHeader::new();
        let _ = h.release_ref();
        h.take_ref();
    }

    #[test]
    fn deactivate_once() {
        let h = ObjHeader::new();
        assert!(h.deactivate().is_ok());
        assert!(!h.is_active());
        assert_eq!(h.deactivate(), Err(Deactivated));
        assert_eq!(h.check_active(), Err(Deactivated));
    }

    #[test]
    fn deactivation_does_not_touch_references() {
        // "A reference to an object ... makes no guarantees about the
        // existence or state of the object."
        let h = ObjHeader::new();
        h.take_ref();
        h.deactivate().unwrap();
        assert_eq!(h.ref_count(), 2);
        assert!(!h.release_ref());
        assert!(h.release_ref());
    }

    #[test]
    fn concurrent_take_release_balance() {
        let h = ObjHeader::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..5_000 {
                        h.take_ref();
                        assert!(!h.release_ref());
                    }
                });
            }
        });
        assert_eq!(h.ref_count(), 1);
    }

    #[test]
    fn sharded_header_matches_locked_semantics() {
        let h = ObjHeader::new_sharded();
        assert!(h.is_sharded());
        assert_eq!(h.ref_count(), 1);
        h.take_ref();
        h.take_ref();
        assert_eq!(h.ref_count(), 3);
        assert!(!h.release_ref());
        assert!(!h.release_ref());
        assert!(h.release_ref(), "last release reports zero");
        assert_eq!(h.ref_count(), 0);
    }

    #[test]
    fn sharded_header_keeps_deactivation_protocol() {
        let h = ObjHeader::new_sharded();
        h.take_ref();
        h.deactivate().unwrap();
        assert_eq!(h.deactivate(), Err(Deactivated));
        assert_eq!(h.ref_count(), 2);
        assert!(!h.release_ref());
        assert!(h.release_ref());
    }

    #[test]
    fn sharded_concurrent_take_release_balance() {
        let h = ObjHeader::new_sharded();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..5_000 {
                        h.take_ref();
                        assert!(!h.release_ref());
                    }
                });
            }
        });
        assert_eq!(h.ref_count(), 1);
        assert!(h.release_ref());
    }

    #[test]
    fn exactly_one_terminator_wins() {
        let h = ObjHeader::new();
        let wins = std::sync::atomic::AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    if h.deactivate().is_ok() {
                        wins.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::SeqCst), 1);
    }
}
