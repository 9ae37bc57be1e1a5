//! The object header: the object's lock, its reference count and its
//! deactivation flag.
//!
//! Every reference-counted kernel object embeds an [`ObjHeader`]. The
//! header's simple lock is *the* object lock: it guards the count
//! (section 8: the count "is protected by the object's lock"), the
//! active/deactivated flag of section 9, and — through
//! `machk_core::Kobj` — the object's own state. One acquisition
//! therefore both checks activity and reaches the state, and
//! deactivation is one acquisition too.
//!
//! Because taking a reference locks the object, cloning a reference to
//! an object while holding *another* object's lock orders the two
//! locks, and cloning a reference to an object while holding *its own*
//! lock self-deadlocks (debug builds panic with "self-deadlock").
//! Objects whose count is sharded (`ShardedRefable` types)
//! never touch the header lock to take or release.
//!
//! ## Layout
//!
//! The header is two 4-byte words, as in the paper, where the lock is
//! "a C integer" and the count and flag are fields under it: the lock
//! word, and one count word whose top bit is the section-9 active flag
//! (`ACTIVE`). The low 31 bits count references. Both fields of the
//! count word change only under the header lock, so a load and a store
//! under the lock update either without disturbing the other.
//!
//! The count saturates at 2^31−1 (`PEGGED`) instead of wrapping into
//! the flag: a wrapped count would pass through zero and report a final
//! release with references outstanding. A pegged object is immortal
//! instead — it absorbs takes and releases and never reports final.

use core::fmt;
use core::sync::atomic::{AtomicU32, Ordering};

use machk_sync::probe::{self, EventKind};
use machk_sync::RawSimpleLock;

/// The count word's top bit: set while the object is active.
const ACTIVE: u32 = 1 << 31;

/// The reference count's ceiling: a count that reaches it stays there.
const PEGGED: u32 = ACTIVE - 1;

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

/// The object lock, and the reference count and deactivation flag it
/// guards (one word; see the module docs).
///
/// The count word is atomic but — matching the paper's protocol — is
/// only *modified* while holding the header lock; the atomic makes
/// unlocked reads (diagnostics, fast-path checks that are revalidated
/// under the lock) well-defined.
pub struct ObjHeader {
    lock: RawSimpleLock,
    /// The reference count in the low 31 bits, `ACTIVE` on top.
    word: AtomicU32,
}

impl ObjHeader {
    /// A header for a freshly created object: one reference (the
    /// creator's — "an object is created with a single reference to
    /// itself") and active. The object lock is anonymous.
    pub const fn new() -> Self {
        Self::named("")
    }

    /// [`ObjHeader::new`] with a lockstat name for the object lock
    /// (`"task.lock"`, `"ipc.port.lock"`): with the `probe` feature its
    /// acquisitions and the object's deactivation report under `name`.
    /// Without the feature the name is ignored.
    pub const fn named(name: &'static str) -> Self {
        Self::with_word(name, ACTIVE | 1)
    }

    const fn with_word(name: &'static str, word: u32) -> Self {
        ObjHeader {
            lock: RawSimpleLock::named(name),
            word: AtomicU32::new(word),
        }
    }

    /// Acquire an additional reference: lock, increment, unlock.
    ///
    /// "Acquiring a new reference to an object will not block, and
    /// therefore may be done while holding other locks." It does take
    /// this object's lock, so it must not be done while holding *this*
    /// object's lock.
    ///
    /// The caller must already hold a reference (that is what makes it
    /// safe to touch the header at all); with zero references the object
    /// is being destroyed and the call panics.
    ///
    /// Saturates at 2^31−1 instead of wrapping: the pegged object
    /// becomes immortal rather than destroyable with references
    /// outstanding.
    pub fn take_ref(&self) {
        let _g = self.lock.lock();
        // relaxed: the word changes only under the header lock, whose
        // acquire/release edges order these plain loads and stores.
        let word = self.word.load(Ordering::Relaxed);
        let refs = word & !ACTIVE;
        assert!(refs > 0, "reference cloned from a dead count");
        if refs < PEGGED {
            // relaxed: still under the header lock.
            self.word.store(word + 1, Ordering::Relaxed);
        }
    }

    /// Release one reference: lock, decrement, unlock. Returns `true` if
    /// this was the last reference — the caller must then destroy the
    /// object ("the object and its data structure can be destroyed at
    /// that time"). A pegged count (see [`ObjHeader::take_ref`]) absorbs
    /// releases without moving and never reports final.
    #[must_use]
    pub fn release_ref(&self) -> bool {
        let _g = self.lock.lock();
        // relaxed: lock-protected, as in `take_ref`.
        let word = self.word.load(Ordering::Relaxed);
        let refs = word & !ACTIVE;
        assert!(refs > 0, "reference over-released");
        if refs == PEGGED {
            return false; // pegged: immortal
        }
        // relaxed: still under the header lock.
        self.word.store(word - 1, Ordering::Relaxed);
        refs == 1
    }

    /// Current reference count (unlocked read; diagnostics only).
    pub fn ref_count(&self) -> u32 {
        // relaxed: advisory diagnostic snapshot.
        self.word.load(Ordering::Relaxed) & !ACTIVE
    }

    /// Mark the object deactivated; the caller holds the header lock
    /// (section 10, shutdown step 1: "lock the object, set the
    /// deactivated flag, and unlock the object"). Debug builds panic if
    /// the calling thread does not hold it.
    ///
    /// Returns `Err(Deactivated)` if it already was — terminators race,
    /// and exactly one must win.
    #[inline]
    pub fn deactivate_locked(&self) -> Result<(), Deactivated> {
        self.lock.debug_assert_held();
        // relaxed: the word changes only under the header lock; the
        // lock's release publishes the cleared flag to the next locker.
        let word = self.word.load(Ordering::Relaxed);
        if word & ACTIVE == 0 {
            return Err(Deactivated);
        }
        // relaxed: still under the header lock.
        self.word.store(word & !ACTIVE, Ordering::Relaxed);
        probe::event(EventKind::Deactivate, self.lock.probe_id(), 0);
        Ok(())
    }

    /// Whether the object is still active. Because "the object can be
    /// deactivated at any time it is unlocked", callers that depend on
    /// activity must call this *after* (re)locking the object and be
    /// prepared for [`Deactivated`].
    pub fn is_active(&self) -> bool {
        // relaxed: advisory unless called with the header locked, in
        // which case the lock ordering makes it exact (see doc).
        self.word.load(Ordering::Relaxed) & ACTIVE != 0
    }

    /// Fail with [`Deactivated`] unless the object is active.
    pub fn check_active(&self) -> Result<(), Deactivated> {
        if self.is_active() {
            Ok(())
        } else {
            Err(Deactivated)
        }
    }

    /// The object lock. Exposed so the object's state can live under it
    /// (`machk_core::Kobj`) and so protocols can sleep on it (the memory
    /// object drains its paging count with it).
    pub fn lock(&self) -> &RawSimpleLock {
        &self.lock
    }
}

// A plain header is the lock word and the count word: 8 bytes in a
// release build without probes.
#[cfg(not(debug_assertions))]
const _: () = assert!(probe::ENABLED || core::mem::size_of::<ObjHeader>() == 8);

impl Default for ObjHeader {
    fn default() -> Self {
        Self::new()
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

    fn deactivate(h: &ObjHeader) -> Result<(), Deactivated> {
        let _g = h.lock().lock();
        h.deactivate_locked()
    }

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

    /// A header `below` references short of the ceiling.
    fn near_peg(below: u32) -> ObjHeader {
        ObjHeader::with_word("", ACTIVE | (PEGGED - below))
    }

    #[test]
    fn count_pegs_below_the_flag_instead_of_wrapping() {
        let h = near_peg(1);
        h.take_ref();
        assert_eq!(h.ref_count(), PEGGED);
        // Past the ceiling: absorbed, not carried into the flag bit (and
        // never wrapped to 0, which would make the next release a bogus
        // final).
        h.take_ref();
        h.take_ref();
        assert_eq!(h.ref_count(), PEGGED, "a pegged count stays put");
        for _ in 0..16 {
            assert!(!h.release_ref(), "a pegged count never reports final");
        }
        assert_eq!(h.ref_count(), PEGGED, "a pegged object is immortal");
    }

    #[test]
    fn pegging_leaves_the_flag_alone() {
        let h = near_peg(1);
        h.take_ref();
        h.take_ref();
        assert!(h.is_active(), "a pegged count does not clear the flag");
        assert!(!h.release_ref());
        assert!(h.is_active());
        let dead = near_peg(0);
        deactivate(&dead).unwrap();
        dead.take_ref();
        assert!(!dead.is_active(), "a pegged count does not set the flag");
        assert_eq!(dead.ref_count(), PEGGED);
    }

    #[test]
    fn deactivation_leaves_the_count_alone() {
        // "A reference to an object ... makes no guarantees about the
        // existence or state of the object."
        let h = ObjHeader::new();
        for _ in 0..4 {
            h.take_ref();
        }
        deactivate(&h).unwrap();
        assert_eq!(h.ref_count(), 5);
        assert_eq!(deactivate(&h), Err(Deactivated));
        assert_eq!(h.ref_count(), 5, "a losing terminator moves nothing");
    }

    #[test]
    fn deactivated_object_releases_to_exactly_one_final() {
        // Section 9: deactivation and destruction are independent. An
        // object deactivated while references are out is destroyed by
        // whichever release comes last, exactly once.
        let h = ObjHeader::new();
        for _ in 0..7 {
            h.take_ref();
        }
        deactivate(&h).unwrap();
        let finals: u32 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..8)
                .map(|_| s.spawn(|| u32::from(h.release_ref())))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(finals, 1, "exactly one release reports final");
        assert_eq!(h.ref_count(), 0);
        assert!(!h.is_active());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not hold")]
    fn deactivate_locked_without_the_lock_panics() {
        let h = ObjHeader::new();
        let _ = h.deactivate_locked();
    }

    #[test]
    #[should_panic(expected = "over-released")]
    fn over_release_panics() {
        let h = ObjHeader::new();
        let _ = h.release_ref();
        let _ = h.release_ref();
    }

    #[test]
    #[should_panic(expected = "cloned from a dead")]
    fn clone_from_dead_object_panics() {
        let h = ObjHeader::new();
        let _ = h.release_ref();
        h.take_ref();
    }

    #[test]
    fn deactivate_once() {
        let h = ObjHeader::new();
        assert!(deactivate(&h).is_ok());
        assert!(!h.is_active());
        assert_eq!(deactivate(&h), Err(Deactivated));
        assert_eq!(h.check_active(), Err(Deactivated));
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
    fn exactly_one_terminator_wins() {
        let h = ObjHeader::new();
        let wins = std::sync::atomic::AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    if deactivate(&h).is_ok() {
                        wins.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::SeqCst), 1);
    }
}
