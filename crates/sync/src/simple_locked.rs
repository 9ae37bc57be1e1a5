//! A data-carrying simple lock.
//!
//! The paper's locking philosophy is "to lock data structures in preference
//! to code". [`SimpleLocked<T>`] expresses that philosophy in the type
//! system: the protected data is only reachable through the lock, so the
//! association between lock and data — which in Mach's C was a convention
//! ("declaring a lock as part of the data structure") — becomes compiler
//! enforced.
//!
//! Like the raw lock, a `SimpleLocked` must not be held across blocking
//! operations; the guard participates in the debug-build held-lock
//! accounting so violations are caught.

use core::cell::UnsafeCell;
use core::fmt;
use core::ops::{Deref, DerefMut};

use crate::raw::RawSimpleLock;

/// Data protected by a Mach simple lock.
///
/// # Examples
///
/// ```
/// use machk_sync::SimpleLocked;
///
/// let counter = SimpleLocked::new(0u64);
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| {
///             for _ in 0..1000 {
///                 *counter.lock() += 1;
///             }
///         });
///     }
/// });
/// assert_eq!(*counter.lock(), 4000);
/// ```
pub struct SimpleLocked<T: ?Sized> {
    lock: RawSimpleLock,
    data: UnsafeCell<T>,
}

// Safety: the simple lock provides mutual exclusion over `data`, so the
// wrapper is Sync whenever the data could be sent between threads.
unsafe impl<T: ?Sized + Send> Send for SimpleLocked<T> {}
unsafe impl<T: ?Sized + Send> Sync for SimpleLocked<T> {}

impl<T> SimpleLocked<T> {
    /// Wrap `data` with an unlocked simple lock (default policy).
    pub const fn new(data: T) -> Self {
        SimpleLocked {
            lock: RawSimpleLock::new(),
            data: UnsafeCell::new(data),
        }
    }

    /// [`SimpleLocked::new`] with a lockstat name: with the `probe`
    /// feature, acquisitions report under `name` to probe subscribers.
    /// Without the feature the name is ignored.
    pub const fn named(name: &'static str, data: T) -> Self {
        SimpleLocked {
            lock: RawSimpleLock::named(name),
            data: UnsafeCell::new(data),
        }
    }

    /// Consume the wrapper, returning the protected data.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> SimpleLocked<T> {
    /// Spin until the lock is acquired; the guard dereferences to the data.
    #[inline]
    pub fn lock(&self) -> SimpleLockedGuard<'_, T> {
        self.lock.lock_raw();
        SimpleLockedGuard {
            inner: self,
            _not_send: core::marker::PhantomData,
        }
    }

    /// Make a single attempt to acquire the lock.
    #[inline]
    pub fn try_lock(&self) -> Option<SimpleLockedGuard<'_, T>> {
        if self.lock.try_lock_raw() {
            Some(SimpleLockedGuard {
                inner: self,
                _not_send: core::marker::PhantomData,
            })
        } else {
            None
        }
    }

    /// Access the data through an exclusive borrow, without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Whether the lock is currently held (racy; for assertions only).
    pub fn is_locked(&self) -> bool {
        self.lock.is_locked()
    }
}

impl<T: Default> Default for SimpleLocked<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for SimpleLocked<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f
                .debug_struct("SimpleLocked")
                .field("data", &&*guard)
                .finish(),
            None => f
                .debug_struct("SimpleLocked")
                .field("data", &"<locked>")
                .finish(),
        }
    }
}

impl<T> From<T> for SimpleLocked<T> {
    fn from(data: T) -> Self {
        Self::new(data)
    }
}

/// Guard providing access to the data of a [`SimpleLocked<T>`].
pub struct SimpleLockedGuard<'a, T: ?Sized> {
    inner: &'a SimpleLocked<T>,
    _not_send: core::marker::PhantomData<*mut ()>,
}

impl<'a, T: ?Sized> SimpleLockedGuard<'a, T> {
    /// The cell this guard locks — for protocols that drop the guard to
    /// sleep and must re-lock the same cell afterwards (e.g. the
    /// `machk-event` thread queues).
    pub fn cell(&self) -> &'a SimpleLocked<T> {
        self.inner
    }
}

impl<T: ?Sized> Deref for SimpleLockedGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // Safety: the guard proves the lock is held by this thread.
        unsafe { &*self.inner.data.get() }
    }
}

impl<T: ?Sized> DerefMut for SimpleLockedGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // Safety: as above, and `&mut self` prevents aliasing guards.
        unsafe { &mut *self.inner.data.get() }
    }
}

impl<T: ?Sized> Drop for SimpleLockedGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.inner.lock.unlock_raw();
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for SimpleLockedGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_exclusion() {
        let cell = SimpleLocked::new(vec![1, 2, 3]);
        {
            let mut g = cell.lock();
            g.push(4);
        }
        assert_eq!(cell.lock().len(), 4);
    }

    #[test]
    fn try_lock_respects_holder() {
        let cell = SimpleLocked::new(0u32);
        let g = cell.lock();
        assert!(cell.try_lock().is_none());
        drop(g);
        assert!(cell.try_lock().is_some());
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut cell = SimpleLocked::new(String::from("a"));
        cell.get_mut().push('b');
        assert_eq!(cell.into_inner(), "ab");
    }

    #[test]
    fn concurrent_increments() {
        let cell = SimpleLocked::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        *cell.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*cell.lock(), 80_000);
    }

    #[test]
    fn debug_formatting() {
        let cell = SimpleLocked::new(7u8);
        assert!(format!("{cell:?}").contains('7'));
        let g = cell.lock();
        assert!(format!("{cell:?}").contains("<locked>"));
        drop(g);
    }
}
