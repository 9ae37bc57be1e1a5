//! The Appendix-A interface, verbatim.
//!
//! Mach exposed simple locks to kernel code as free functions plus two
//! macros. This module reproduces that interface over [`RawSimpleLock`]
//! for fidelity with the paper; new code should prefer the RAII methods on
//! [`RawSimpleLock`] itself, which cannot leak a held lock.
//!
//! With the crate's `uniprocessor` feature enabled these functions become
//! no-ops, mirroring how `decl_simple_lock_data` / `simple_lock_addr`
//! "allow simple locks to be defined out of uniprocessor kernels".

use crate::raw::RawSimpleLock;

/// Initialize a simple lock to its unlocked state.
///
/// "It is used only for initialization, not for unlocking a locked lock."
#[inline]
pub fn simple_lock_init(lock: &RawSimpleLock) {
    #[cfg(not(feature = "uniprocessor"))]
    lock.init();
    #[cfg(feature = "uniprocessor")]
    let _ = lock;
}

/// Lock the lock, spinning until it is acquired.
///
/// The caller must pair this with [`simple_unlock`]. Debug builds panic on
/// self-deadlock (re-acquiring a held lock) instead of spinning forever.
#[inline]
pub fn simple_lock(lock: &RawSimpleLock) {
    #[cfg(not(feature = "uniprocessor"))]
    lock.lock_raw();
    #[cfg(feature = "uniprocessor")]
    let _ = lock;
}

/// Unlock the lock.
#[inline]
pub fn simple_unlock(lock: &RawSimpleLock) {
    #[cfg(not(feature = "uniprocessor"))]
    lock.unlock_raw();
    #[cfg(feature = "uniprocessor")]
    let _ = lock;
}

/// Make a single attempt to lock the lock, returning a boolean indicating
/// success (`true`) or failure (`false`).
///
/// "Useful for attempting to acquire a lock in situations where the
/// unconditional acquisition of the lock could cause deadlock" — see the
/// backout protocol in `machk-vm`'s pmap module.
#[inline]
#[must_use]
pub fn simple_lock_try(lock: &RawSimpleLock) -> bool {
    #[cfg(not(feature = "uniprocessor"))]
    {
        lock.try_lock_raw()
    }
    #[cfg(feature = "uniprocessor")]
    {
        let _ = lock;
        true
    }
}

/// Declare a simple lock variable with a storage class, mirroring Mach's
/// `decl_simple_lock_data(class, name)`.
///
/// The `class` position accepts the tokens that make sense in Rust item
/// declarations (`pub`, `pub(crate)`, or nothing) and the declaration is a
/// `static`, matching the macro's most common kernel use
/// ("one example of the use of this prefix is to declare a lock static").
///
/// Locks declared through this macro are *named* after their
/// identifier: with the `probe` feature they register in the probe
/// name table on their first traced acquisition, so lockstat reports
/// say `MASTER_LOCK`, not an address. Without the feature the name
/// costs nothing.
///
/// # Examples
///
/// ```
/// machk_sync::decl_simple_lock_data!(pub, MY_LOCK);
/// machk_sync::decl_simple_lock_data!(, PRIVATE_LOCK);
///
/// machk_sync::simple_lock(&MY_LOCK);
/// machk_sync::simple_unlock(&MY_LOCK);
/// ```
#[macro_export]
macro_rules! decl_simple_lock_data {
    ($(#[$meta:meta])* pub, $name:ident) => {
        $(#[$meta])*
        pub static $name: $crate::RawSimpleLock =
            $crate::RawSimpleLock::named(stringify!($name));
    };
    ($(#[$meta:meta])* pub(crate), $name:ident) => {
        $(#[$meta])*
        pub(crate) static $name: $crate::RawSimpleLock =
            $crate::RawSimpleLock::named(stringify!($name));
    };
    ($(#[$meta:meta])* , $name:ident) => {
        $(#[$meta])*
        static $name: $crate::RawSimpleLock =
            $crate::RawSimpleLock::named(stringify!($name));
    };
}

/// Obtain the address of a simple lock, mirroring Mach's
/// `simple_lock_addr(lock)`.
///
/// In C this macro existed so uniprocessor kernels could compile the lock
/// storage away; in Rust it simply borrows the lock. Provided for
/// call-site fidelity when porting Mach idioms.
#[macro_export]
macro_rules! simple_lock_addr {
    ($lock:expr) => {
        &$lock
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    decl_simple_lock_data!(, TEST_LOCK);
    decl_simple_lock_data!(pub, PUB_TEST_LOCK);
    decl_simple_lock_data!(
        /// A documented lock.
        pub(crate),
        DOCUMENTED_LOCK
    );

    #[test]
    fn c_style_lock_unlock() {
        simple_lock_init(&TEST_LOCK);
        simple_lock(&TEST_LOCK);
        #[cfg(not(feature = "uniprocessor"))]
        assert!(TEST_LOCK.is_locked());
        simple_unlock(&TEST_LOCK);
        assert!(!TEST_LOCK.is_locked());
    }

    #[test]
    fn c_style_try() {
        simple_lock(&PUB_TEST_LOCK);
        #[cfg(not(feature = "uniprocessor"))]
        assert!(!simple_lock_try(&PUB_TEST_LOCK));
        simple_unlock(&PUB_TEST_LOCK);
        assert!(simple_lock_try(&PUB_TEST_LOCK));
        simple_unlock(&PUB_TEST_LOCK);
    }

    #[test]
    fn lock_addr_macro_borrows() {
        let addr = simple_lock_addr!(DOCUMENTED_LOCK);
        simple_lock(addr);
        simple_unlock(addr);
    }

    #[test]
    #[cfg(not(feature = "uniprocessor"))]
    fn static_counter_protected_by_declared_lock() {
        decl_simple_lock_data!(, COUNTER_LOCK);
        static mut COUNTER: u64 = 0;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        simple_lock(&COUNTER_LOCK);
                        unsafe {
                            let p = &raw mut COUNTER;
                            p.write(p.read() + 1);
                        }
                        simple_unlock(&COUNTER_LOCK);
                    }
                });
            }
        });
        simple_lock(&COUNTER_LOCK);
        let v = unsafe { (&raw const COUNTER).read() };
        simple_unlock(&COUNTER_LOCK);
        assert_eq!(v, 4_000);
    }
}
