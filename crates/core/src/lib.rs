//! # machk-core — the integrated Mach coordination model
//!
//! This crate ties together the four mechanism crates that reproduce
//! "Locking and Reference Counting in the Mach Kernel" (ICPP 1991) and
//! packages the paper's cross-cutting *usage pattern* — an object that
//! combines a lock, a reference count, and a deactivation flag — as a
//! reusable type.
//!
//! | Paper concept | Crate | Entry point |
//! |---|---|---|
//! | Simple locks (§4, App. A) | `machk-sync` | [`RawSimpleLock`], [`SimpleLocked`] |
//! | Event wait (§6) | `machk-event` | [`assert_wait`], [`thread_block`], [`thread_wakeup`] |
//! | Complex locks (§4, App. B) | `machk-lock` | [`ComplexLock`], [`RwData`] |
//! | References & deactivation (§8–9) | `machk-refcount` | [`ObjRef`], [`ObjHeader`] |
//!
//! ## The kernel-object pattern
//!
//! Every Mach object (task, thread, port, memory object) follows the
//! same discipline:
//!
//! 1. it is reference counted — a [`ObjRef`] guarantees the data
//!    structure exists, *not* that the object is alive;
//! 2. it has a lock — "any code that depends on the state of an object
//!    or its existence as an object (and not just a data structure) must
//!    hold a lock of some form";
//! 3. it can be deactivated at any moment it is unlocked, so activity is
//!    re-checked after every (re)lock.
//!
//! [`Kobj<S>`] packages the discipline: state `S` under the lock of its
//! [`ObjHeader`], the same lock that guards the reference count and the
//! deactivation flag — one lock per object, as in the paper. Its
//! [`Kobj::with_active`] combinator runs a closure with the state locked
//! after checking the flag, returning [`Deactivated`] otherwise — the
//! section-9 rules as an API.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod kobj;

pub use kobj::{Kobj, KobjGuard};

// ---- mechanism re-exports ----

pub use machk_event as event;
pub use machk_lock as lock;
pub use machk_refcount as refcount;
pub use machk_sync as sync;

pub use machk_event::{
    assert_wait, clear_wait, current_thread, thread_block, thread_block_timeout,
    thread_block_until, thread_sleep, thread_sleep_guard, thread_wakeup, thread_wakeup_one, Event,
    ThreadHandle, WaitResult,
};
pub use machk_lock::{ComplexLock, HowHeld, RwData, UpgradeFailed};
pub use machk_refcount::{
    CrashReconciliation, Deactivated, DrainAudit, DrainableCount, ObjHeader, ObjRef, Refable,
    ShardedRefCount, ShardedRefable,
};
pub use machk_sync::{
    Backoff, JitterBackoff, LockTimeout, Mcs, RawSimpleLock, SimpleLocked, SpinPolicy, Tas,
    TasThenTtas, Ticket, Ttas, WithBackoff,
};
