//! # machk-refcount — Mach reference counting and deactivation
//!
//! Sections 8–10 of "Locking and Reference Counting in the Mach Kernel"
//! (ICPP 1991) describe the existence-coordination half of the Mach
//! design. This crate reproduces it as a framework the kernel substrates
//! (`machk-ipc`, `machk-kernel`, `machk-vm`) build on.
//!
//! ## The model (section 8)
//!
//! A *reference* "is used to guarantee the existence of an object's data
//! structure" — nothing more: "it is possible for an object to be
//! terminated, but its data structure to remain while pointers to it
//! exist." References are counted in a field of the data structure;
//! acquiring one increments the count under the object's lock ("or the
//! portion containing its reference count"), releasing one decrements it,
//! and the object is destroyed when the count reaches zero.
//!
//! * An object is **created with a single reference** to itself, owned by
//!   the creator ([`ObjRef::new`]).
//! * References are **cloned** by locking the object and incrementing the
//!   count ([`ObjRef::clone`]); the existing reference is what keeps the
//!   structure alive while the lock is taken.
//! * **Acquiring** a reference never blocks, so it may be done while
//!   holding other locks. **Releasing** one may destroy the object, which
//!   may block — so it may *not* be done while holding any non-sleep
//!   lock, "nor between an `assert_wait()` operation and the
//!   corresponding `thread_block()`". Debug builds check both rules on
//!   every release.
//!
//! ## Deactivation (section 9)
//!
//! Objects that are *actively terminated* (tasks, threads, ports) carry a
//! deactivated flag in their header, under the same object lock as the
//! count. As in the paper, where the lock is "a C integer" and the count
//! and flag are fields it protects, a header is two 4-byte words: the
//! lock word, and a count word whose top bit is the active flag (the
//! count pegs at 2^31−1 rather than reach it). The rules reproduced by
//! [`header::ObjHeader`] and checked by the substrates:
//!
//! * an operation that depends on the object being active must re-check
//!   the flag every time it relocks the object;
//! * pointers out of an object cannot be cached across an unlock/relock;
//! * a reference is required in order to relock the object at all;
//! * operations on a deactivated object fail cleanly with
//!   [`Deactivated`].
//!
//! ## Hybrid counts (section 8)
//!
//! Memory objects carry "two independent reference counts, a reference
//! count for the data structure and a reference count for paging
//! operations in progress. The latter count is a hybrid of a reference
//! and a lock because it excludes operations such as object termination
//! that cannot be performed while paging is in progress."
//! [`DrainableCount`] is that hybrid, generically: a count that
//! operations hold while in flight and that exclusive operations can
//! wait to drain.
//!
//! ## Sharded counts (beyond the paper)
//!
//! A single locked count serializes every take and release; for the few
//! objects whose references churn from many threads at once, that lock
//! becomes a contention point the paper's design never anticipated.
//! [`ShardedRefCount`] stripes the count across cache-line-padded
//! per-thread shards with a drain-to-exact slow path, so the final
//! release is still detected exactly once (the section-8 destruction
//! protocol is unchanged) while the common take/release never contends.
//!
//! Which count an object uses is a property of its type, not of the
//! object: a plain type keeps the count in its [`ObjHeader`] and takes
//! no branch to find it, while a sharded type embeds a
//! [`ShardedRefCount`] and implements [`ShardedRefable`], which
//! implements [`Refable`] with that count.
//! [`ObjRef`], deactivation and destruction are oblivious; so is
//! `ObjRef<dyn Refable>`, which reaches the count through the vtable.
//! A sharded take never locks the object, which is what lets a thread
//! clone its task's reference under the thread lock while the task
//! clones thread references under the task lock.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod count;
pub mod header;
pub mod objref;
pub mod sharded;

pub use count::DrainableCount;
pub use header::{Deactivated, ObjHeader};
pub use objref::{ObjRef, Refable, ShardedRefable};
pub use sharded::{CrashReconciliation, DrainAudit, ShardedRefCount};
