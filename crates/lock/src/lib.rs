//! # machk-lock — Mach complex locks
//!
//! Complex locks are the machine-independent half of Mach's locking
//! subsystem (paper section 4): they implement the **Multiple** protocol
//! (multiple readers / single writer, with writers priority), with the
//! **Sleep** and **Recursive** protocols as per-lock options. A complex
//! lock is "a data structure which contains a simple lock to protect the
//! state of the complex lock" — so the only machine-dependent code is the
//! simple lock itself.
//!
//! ## Semantics carried over from the paper
//!
//! * **Writers priority** — "readers may not be added to a lock held for
//!   reading in the presence of an outstanding write request, thus
//!   ensuring that the lock will be released and made available to the
//!   writer." This is what prevents writer starvation.
//! * **Upgrades** (`lock_read_to_write`) are *favored over writes* but
//!   **fail** — releasing the caller's read lock — when another upgrade is
//!   already pending, because two upgrades waiting for each other's read
//!   locks would deadlock. Section 7.1 reports that this failure mode made
//!   upgrades rarely worth using; experiment E4 measures the comparison
//!   the paper recommends instead (lock for write, then downgrade).
//! * **Downgrades** (`lock_write_to_read`) cannot fail.
//! * The **Sleep** option decides whether requestors block (via the
//!   `machk-event` wait mechanism) or spin when the lock is unavailable,
//!   and whether the *holder* may block while holding the lock. It can be
//!   changed dynamically with `lock_sleepable`.
//! * The **Recursive** option lets a single holder acquire the same lock
//!   multiple times. It must be enabled while the lock is held for write;
//!   a subsequent downgrade to read "prohibits recursive acquisitions for
//!   write and upgrades of recursive read acquisitions". The paper's
//!   verdict on recursive locking is negative (section 7.1) and Mach 3.0
//!   removed it; it is implemented here because reproducing the
//!   `vm_map_pageable` deadlock (experiment E10) requires it.
//!
//! ## Two interfaces
//!
//! * [`ComplexLock`] with RAII guards ([`ReadGuard`], [`WriteGuard`]) —
//!   the idiomatic entry point. Guards support `upgrade()` (which consumes
//!   the guard and may fail, returning the lock-lost error the paper's
//!   recovery logic had to handle) and `downgrade()`.
//! * The Appendix-B free functions ([`appendix_b`]) — `lock_read`,
//!   `lock_write`, `lock_done`, `lock_read_to_write`, … — operating on
//!   `LockT = &ComplexLock`, for call-site fidelity with kernel code and
//!   for protocols (like recursion) that outlive any lexical scope.
//! * [`RwData<T>`] wraps a `ComplexLock` around a value for a fully safe
//!   readers/writer cell used by the examples and benchmarks.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod appendix_b;
pub mod complex;
pub mod rw_data;

pub use appendix_b::{
    lock_clear_recursive, lock_done, lock_init, lock_read, lock_read_to_write, lock_set_recursive,
    lock_sleepable, lock_try_read, lock_try_read_to_write, lock_try_write, lock_write,
    lock_write_to_read, LockData, LockT,
};
pub use complex::{ComplexLock, HowHeld, ReadGuard, UpgradeFailed, WriteGuard};
pub use rw_data::{RwData, RwReadGuard, RwWriteGuard};
