//! Owned reference handles.
//!
//! [`ObjRef<T>`] is the Rust face of a Mach object reference: a handle
//! that owns exactly one increment of the object's reference count and
//! guarantees — for as long as it exists — that the object's data
//! structure exists. The section-8 reference classes map as:
//!
//! * **Direct**: holding an `ObjRef<T>`.
//! * **Indirect**: holding an `ObjRef<A>` where `A` stores an
//!   `ObjRef<B>` — kept valid by `A`'s locks, exactly as the paper
//!   prescribes ("locks may be necessary to preserve intermediate links
//!   in this chain").
//! * **Implicit**: `ObjRef`s owned by static tables.
//!
//! `ObjRef` also provides the *consume* operations the Mach 3.0 interface
//! semantics need (`into_raw`/`from_raw`): "a successful operation
//! consumes (uses or releases) the object reference."

use core::any::Any;
use core::fmt;
use core::ops::Deref;
use core::ptr::NonNull;

use crate::header::ObjHeader;

/// A reference-counted kernel object.
///
/// Implementors embed an [`ObjHeader`] and return it from
/// [`Refable::header`]. `Any` is a supertrait so type-erased references
/// ([`ObjRef::into_dyn`]) can be downcast back — the moral equivalent of
/// the port-to-object translation recovering a typed object pointer.
pub trait Refable: Any + Send + Sync {
    /// The object's header (reference count + deactivation flag).
    fn header(&self) -> &ObjHeader;
}

/// An owned reference to a `T`.
///
/// Cloning takes a new reference (lock, increment, unlock); dropping
/// releases one, destroying the object when the count reaches zero.
///
/// # Examples
///
/// ```
/// use machk_refcount::{ObjHeader, ObjRef, Refable};
///
/// struct Port { header: ObjHeader, name: u32 }
/// impl Refable for Port {
///     fn header(&self) -> &ObjHeader { &self.header }
/// }
///
/// // Creation returns the object's single creation reference.
/// let port = ObjRef::new(Port { header: ObjHeader::new(), name: 7 });
/// let also_port = port.clone(); // lock + increment
/// assert_eq!(also_port.name, 7);
/// drop(port);
/// drop(also_port); // count reaches zero: Port is destroyed
/// ```
pub struct ObjRef<T: Refable + ?Sized> {
    ptr: NonNull<T>,
}

// Safety: ObjRef is an owning handle like Arc; the count is thread-safe
// and T is Send + Sync by the Refable bound.
unsafe impl<T: Refable + ?Sized> Send for ObjRef<T> {}
unsafe impl<T: Refable + ?Sized> Sync for ObjRef<T> {}

impl<T: Refable> ObjRef<T> {
    /// Create the object, returning its single creation reference.
    ///
    /// "The creator is responsible for removing this reference when it is
    /// no longer needed" — in Rust, by dropping the handle.
    pub fn new(object: T) -> ObjRef<T> {
        assert_eq!(
            object.header().ref_count(),
            1,
            "new object must carry exactly the creation reference"
        );
        let ptr = NonNull::from(Box::leak(Box::new(object)));
        ObjRef { ptr }
    }

    /// Type-erase the reference (for heterogeneous tables such as a port
    /// space). The reference count is untouched: the handle itself is the
    /// reference.
    pub fn into_dyn(self) -> ObjRef<dyn Refable> {
        let ptr = self.ptr.as_ptr() as *mut dyn Refable;
        core::mem::forget(self);
        // Safety: ptr came from a live ObjRef (count ≥ 1).
        ObjRef {
            ptr: unsafe { NonNull::new_unchecked(ptr) },
        }
    }
}

impl ObjRef<dyn Refable> {
    /// Recover the concrete type, or give the erased reference back.
    pub fn downcast<T: Refable>(self) -> Result<ObjRef<T>, ObjRef<dyn Refable>> {
        let any: &dyn Any = &*self;
        if any.type_id() == core::any::TypeId::of::<T>() {
            let ptr = self.ptr.as_ptr() as *mut T;
            core::mem::forget(self);
            // Safety: type id checked; count carried over.
            Ok(ObjRef {
                ptr: unsafe { NonNull::new_unchecked(ptr) },
            })
        } else {
            Err(self)
        }
    }

    /// Downcast by shared reference (no transfer of the count).
    pub fn downcast_ref<T: Refable>(&self) -> Option<&T> {
        let any: &dyn Any = &**self;
        any.downcast_ref::<T>()
    }
}

impl<T: Refable + ?Sized> ObjRef<T> {
    /// Turn the handle into a raw pointer **without releasing the
    /// reference** — the caller now owns the count increment. Used by
    /// protocols that consume references (Mach 3.0 operation semantics).
    pub fn into_raw(self) -> *const T {
        let p = self.ptr.as_ptr();
        core::mem::forget(self);
        p
    }

    /// Reconstitute a handle from [`ObjRef::into_raw`].
    ///
    /// # Safety
    ///
    /// `ptr` must have come from `into_raw` and the reference it carried
    /// must not have been reconstituted already.
    pub unsafe fn from_raw(ptr: *const T) -> ObjRef<T> {
        ObjRef {
            ptr: unsafe { NonNull::new_unchecked(ptr.cast_mut()) },
        }
    }

    /// Whether two references name the same object.
    pub fn ptr_eq(a: &ObjRef<T>, b: &ObjRef<T>) -> bool {
        core::ptr::addr_eq(a.ptr.as_ptr(), b.ptr.as_ptr())
    }

    /// The object's current reference count (diagnostics).
    pub fn ref_count(this: &ObjRef<T>) -> u32 {
        this.header().ref_count()
    }
}

impl<T: Refable + ?Sized> Clone for ObjRef<T> {
    /// Clone the reference: lock the object('s header), increment the
    /// count, unlock. "The existing reference ensures that the data
    /// structure does not get deallocated while the lock is being
    /// acquired."
    fn clone(&self) -> Self {
        self.header().take_ref();
        ObjRef { ptr: self.ptr }
    }
}

impl<T: Refable + ?Sized> Drop for ObjRef<T> {
    fn drop(&mut self) {
        // The section-8 release rules, checked in debug builds:
        // releasing may destroy the object (which may block), so it must
        // not happen under a non-sleep lock or inside an assert_wait /
        // thread_block window.
        #[cfg(debug_assertions)]
        {
            machk_sync::held::assert_no_simple_locks_held("reference release");
            assert!(
                !machk_event::wait_asserted(),
                "reference released between assert_wait and thread_block \
                 (paper section 8: the destroy path may block, which would \
                 call assert_wait a second time — fatal)"
            );
        }
        // Safety: the handle owns one count; the object outlives it.
        let last = unsafe { self.ptr.as_ref() }.header().release_ref();
        if last {
            // Safety: count reached zero — no other handles exist, no new
            // ones can be created ("there are no ways to invoke new
            // operations on it because there are no pointers").
            drop(unsafe { Box::from_raw(self.ptr.as_ptr()) });
        }
    }
}

impl<T: Refable + ?Sized> Deref for ObjRef<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: the owned reference keeps the object alive.
        unsafe { self.ptr.as_ref() }
    }
}

impl<T: Refable + ?Sized + fmt::Debug> fmt::Debug for ObjRef<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ObjRef").field(&&**self).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    struct TestObj {
        header: ObjHeader,
        drops: Arc<AtomicU32>,
        value: u64,
    }

    impl Refable for TestObj {
        fn header(&self) -> &ObjHeader {
            &self.header
        }
    }

    impl Drop for TestObj {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn new_obj(value: u64) -> (ObjRef<TestObj>, Arc<AtomicU32>) {
        let drops = Arc::new(AtomicU32::new(0));
        let obj = ObjRef::new(TestObj {
            header: ObjHeader::new(),
            drops: Arc::clone(&drops),
            value,
        });
        (obj, drops)
    }

    #[test]
    fn destroyed_exactly_once_at_zero() {
        let (obj, drops) = new_obj(1);
        let o2 = obj.clone();
        let o3 = o2.clone();
        assert_eq!(ObjRef::ref_count(&obj), 3);
        drop(obj);
        drop(o2);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(o3);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deref_reads_object() {
        let (obj, _d) = new_obj(42);
        assert_eq!(obj.value, 42);
    }

    #[test]
    fn ptr_eq_distinguishes_objects() {
        let (a, _da) = new_obj(1);
        let (b, _db) = new_obj(1);
        assert!(ObjRef::ptr_eq(&a, &a.clone()));
        assert!(!ObjRef::ptr_eq(&a, &b));
    }

    #[test]
    fn into_raw_from_raw_preserves_count() {
        let (obj, drops) = new_obj(5);
        let o2 = obj.clone();
        let raw = o2.into_raw();
        assert_eq!(ObjRef::ref_count(&obj), 2, "raw form still holds the count");
        let o2 = unsafe { ObjRef::from_raw(raw) };
        drop(o2);
        assert_eq!(ObjRef::ref_count(&obj), 1);
        drop(obj);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dyn_roundtrip() {
        let (obj, drops) = new_obj(9);
        let erased: ObjRef<dyn Refable> = obj.into_dyn();
        assert_eq!(erased.header().ref_count(), 1);
        assert_eq!(erased.downcast_ref::<TestObj>().unwrap().value, 9);
        let back: ObjRef<TestObj> = erased.downcast().ok().unwrap();
        assert_eq!(back.value, 9);
        drop(back);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn downcast_to_wrong_type_returns_erased() {
        struct Other {
            header: ObjHeader,
        }
        impl Refable for Other {
            fn header(&self) -> &ObjHeader {
                &self.header
            }
        }
        let (obj, drops) = new_obj(0);
        let erased = obj.into_dyn();
        let erased = erased.downcast::<Other>().err().unwrap();
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(erased);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_clone_release_storm() {
        let (obj, drops) = new_obj(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let local = obj.clone();
                s.spawn(move || {
                    for _ in 0..2_000 {
                        let extra = local.clone();
                        drop(extra);
                    }
                });
            }
        });
        assert_eq!(ObjRef::ref_count(&obj), 1);
        drop(obj);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn operation_in_progress_keeps_structure_alive() {
        // The "operations in progress" reference class: a worker holds a
        // reference across a complex operation while the creator drops
        // its own.
        let (obj, drops) = new_obj(3);
        let worker_ref = obj.clone();
        drop(obj); // creator is done
        assert_eq!(drops.load(Ordering::SeqCst), 0, "worker still holds it");
        assert_eq!(worker_ref.value, 3);
        drop(worker_ref);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "blocking")]
    fn release_under_simple_lock_is_detected() {
        let (obj, _d) = new_obj(0);
        let o2 = obj.clone();
        let guard_lock: machk_sync::RawSimpleLock = machk_sync::RawSimpleLock::new();
        let _g = guard_lock.lock();
        drop(o2); // must panic: release while holding a simple lock
    }
}
