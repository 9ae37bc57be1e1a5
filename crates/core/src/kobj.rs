//! The kernel-object pattern: one lock guarding the reference count,
//! the deactivation flag and the object's state.
//!
//! The reference count "is protected by the object's lock" (section 8),
//! and activity "must be checked whenever the object is locked"
//! (section 9). [`Kobj<S>`] keeps the state `S` under the
//! [`ObjHeader`]'s lock, so one acquisition checks activity and reaches
//! the state. Every kernel object type is a `Kobj<S>` behind an
//! [`ObjRef`], or embeds one beside the parts that live outside the lock
//! (a port's lock-free queue, a task's name space, a sharded count).
//!
//! Taking a reference to a plain object locks it, so cloning a reference
//! to an object inside its own guard self-deadlocks (debug builds panic
//! with "self-deadlock"): clone before locking, or after.

use core::cell::UnsafeCell;
use core::fmt;
use core::ops::{Deref, DerefMut};

use machk_refcount::{Deactivated, ObjHeader, ObjRef, Refable};
use machk_sync::SimpleGuard;

/// A kernel object: state `S` under the object lock of its
/// [`ObjHeader`], beside the reference count and deactivation flag
/// that lock also guards.
///
/// # Examples
///
/// ```
/// use machk_core::{Kobj, ObjRef};
///
/// struct ThreadState { suspend_count: u32 }
/// type Thread = Kobj<ThreadState>;
///
/// let thread: ObjRef<Thread> = Kobj::create(ThreadState { suspend_count: 0 });
///
/// // Operate while active:
/// thread.with_active(|s| s.suspend_count += 1).unwrap();
///
/// // Terminate (deactivate); operations now fail cleanly:
/// thread.deactivate().unwrap();
/// assert!(thread.with_active(|s| s.suspend_count).is_err());
///
/// // The data structure survives as long as references do.
/// let extra = thread.clone();
/// drop(thread);
/// assert_eq!(extra.with_state(|s| s.suspend_count), 1);
/// ```
pub struct Kobj<S> {
    header: ObjHeader,
    state: UnsafeCell<S>,
}

// SAFETY: `state` is only reachable through a `KobjGuard`, which holds
// the header lock, so at most one thread touches it at a time; sharing a
// `Kobj` hands `S` from one locker to the next, which needs `S: Send`
// (the `Mutex<S>` rule). `Send` is automatic: `UnsafeCell<S>` is `Send`
// when `S` is.
unsafe impl<S: Send> Sync for Kobj<S> {}

impl<S> Kobj<S> {
    /// The object with an anonymous lock, for embedding in a larger
    /// object (which then implements [`Refable`] by returning
    /// [`Kobj::header`]).
    pub const fn new(state: S) -> Kobj<S> {
        Kobj::named("", state)
    }

    /// [`Kobj::new`] with a lockstat name for the object lock
    /// (`"task.lock"`): with the `probe` feature its acquisitions report
    /// under `name`. Without the feature the name is ignored.
    pub const fn named(name: &'static str, state: S) -> Kobj<S> {
        Kobj {
            header: ObjHeader::named(name),
            state: UnsafeCell::new(state),
        }
    }

    /// The header: the object lock, the count and the active flag.
    #[inline]
    pub fn header(&self) -> &ObjHeader {
        &self.header
    }

    /// Lock the object; the guard derefs to the state. The caller takes
    /// on the section-9 obligation to check activity
    /// ([`KobjGuard::check_active`]) before relying on it.
    #[inline]
    pub fn lock(&self) -> KobjGuard<'_, S> {
        let lock = self.header.lock().lock();
        KobjGuard {
            obj: self,
            _lock: lock,
        }
    }

    /// Lock the object if it is active, per the section-9 rule: "if an
    /// operation depends on the object not being deactivated, this must
    /// be checked whenever the object is locked during the operation
    /// because the object can be deactivated at any time it is
    /// unlocked."
    #[inline]
    pub fn lock_active(&self) -> Result<KobjGuard<'_, S>, Deactivated> {
        let guard = self.lock();
        // Checked *after* locking — the order is the point.
        guard.check_active()?;
        Ok(guard)
    }

    /// Lock the object and run `f` on its state **if it is active**
    /// (see [`Kobj::lock_active`]).
    pub fn with_active<R>(&self, f: impl FnOnce(&mut S) -> R) -> Result<R, Deactivated> {
        let mut guard = self.lock_active()?;
        Ok(f(&mut guard))
    }

    /// Lock the object and run `f` on its state regardless of
    /// activity — for operations that work on the data structure rather
    /// than the object (for example, the cleanup performed by
    /// termination itself).
    pub fn with_state<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut *self.lock())
    }

    /// Deactivate the object — shutdown step 1: "lock the object, set
    /// the deactivated flag, and unlock the object". Exactly one caller
    /// succeeds; the rest observe [`Deactivated`].
    ///
    /// The flag is set under the lock every operation holds, so once
    /// `deactivate` returns no operation that passed its activity check
    /// is still inside the object.
    pub fn deactivate(&self) -> Result<(), Deactivated> {
        self.lock().deactivate()
    }

    /// Whether the object is active (racy without the lock).
    pub fn is_active(&self) -> bool {
        self.header.is_active()
    }
}

impl<S: Send + 'static> Kobj<S> {
    /// Create the object, returning the creation reference.
    pub fn create(state: S) -> ObjRef<Kobj<S>> {
        ObjRef::new(Kobj::new(state))
    }
}

impl<S: Send + 'static> Refable for Kobj<S> {
    fn header(&self) -> &ObjHeader {
        &self.header
    }
}

impl<S: fmt::Debug> fmt::Debug for Kobj<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Kobj");
        d.field("header", &self.header);
        match self.header.lock().try_lock() {
            // SAFETY: the header lock is held for the duration of the
            // borrow (`_held` lives until the end of the arm).
            Some(_held) => d.field("state", unsafe { &*self.state.get() }),
            None => d.field("state", &"<locked>"),
        };
        d.finish()
    }
}

/// The object locked: derefs to the state, and checks or changes the
/// active flag without a second acquisition. Releases the lock on drop.
pub struct KobjGuard<'a, S> {
    obj: &'a Kobj<S>,
    _lock: SimpleGuard<'a>,
}

impl<S> KobjGuard<'_, S> {
    /// Fail with [`Deactivated`] unless the object is active; exact,
    /// because the flag only changes under the lock this guard holds.
    #[inline]
    pub fn check_active(&self) -> Result<(), Deactivated> {
        self.obj.header.check_active()
    }

    /// Deactivate the object under this guard: shutdown step 1 folded
    /// into an acquisition that goes on to detach the object's state.
    pub fn deactivate(&mut self) -> Result<(), Deactivated> {
        self.obj.header.deactivate_locked()
    }
}

impl<S> Deref for KobjGuard<'_, S> {
    type Target = S;
    #[inline]
    fn deref(&self) -> &S {
        // SAFETY: the guard holds the header lock, which serializes
        // every access to the state.
        unsafe { &*self.obj.state.get() }
    }
}

impl<S> DerefMut for KobjGuard<'_, S> {
    #[inline]
    fn deref_mut(&mut self) -> &mut S {
        // SAFETY: as above, and `&mut self` rules out a second borrow
        // through this guard.
        unsafe { &mut *self.obj.state.get() }
    }
}

// Release layout without probes: header (8) plus a zero-sized state.
// The header is two 4-byte words, so 8-aligned state follows it with no
// padding.
#[cfg(not(debug_assertions))]
const _: () = assert!(machk_sync::probe::ENABLED || core::mem::size_of::<Kobj<()>>() == 8);

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn create_gives_single_reference() {
        let obj = Kobj::create(0u32);
        assert_eq!(ObjRef::ref_count(&obj), 1);
    }

    #[test]
    fn with_active_mutates_state() {
        let obj = Kobj::create(vec![1u8]);
        obj.with_active(|v| v.push(2)).unwrap();
        assert_eq!(obj.with_state(|v| v.len()), 2);
    }

    #[test]
    fn deactivation_fails_operations_but_not_structure_access() {
        let obj = Kobj::create(7u32);
        obj.deactivate().unwrap();
        assert_eq!(obj.with_active(|s| *s), Err(Deactivated));
        // with_state still works: the data structure exists while
        // references do.
        assert_eq!(obj.with_state(|s| *s), 7);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "self-deadlock")]
    fn cloning_own_reference_under_own_lock_self_deadlocks() {
        // Section 8: the count lives under the object lock, so taking a
        // reference while holding that lock is a recursive acquisition.
        let obj = Kobj::create(0u32);
        let _ = obj.with_active(|_| obj.clone());
    }

    #[test]
    fn racing_operations_and_termination_are_clean() {
        // Operations either complete or fail with Deactivated; never
        // anything else. The state invariant (monotonic counter) holds.
        let obj = Kobj::create(0u64);
        let completed = AtomicU32::new(0);
        let refused = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let local = obj.clone();
                let completed = &completed;
                let refused = &refused;
                s.spawn(move || {
                    for _ in 0..1_000 {
                        match local.with_active(|n| *n += 1) {
                            Ok(()) => completed.fetch_add(1, Ordering::Relaxed),
                            Err(Deactivated) => refused.fetch_add(1, Ordering::Relaxed),
                        };
                    }
                });
            }
            let terminator = obj.clone();
            s.spawn(move || {
                std::thread::yield_now();
                terminator.deactivate().unwrap();
            });
        });
        let total = completed.load(Ordering::Relaxed) + refused.load(Ordering::Relaxed);
        assert_eq!(total, 4_000);
        assert_eq!(
            obj.with_state(|n| *n),
            completed.load(Ordering::Relaxed) as u64
        );
    }

    #[test]
    fn reference_counting_composes_with_kobj() {
        let obj = Kobj::create(String::from("task"));
        let r2 = obj.clone();
        obj.deactivate().unwrap();
        drop(obj);
        // Deactivated but referenced: structure alive.
        assert_eq!(r2.with_state(|s| s.clone()), "task");
        drop(r2); // destroyed here
    }
}
