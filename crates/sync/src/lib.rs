//! # machk-sync — Mach simple locks
//!
//! This crate implements the *simple lock* layer of the Mach kernel as
//! described in "Locking and Reference Counting in the Mach Kernel"
//! (Black, Tevanian, Golub, Young; ICPP 1991), section 4 and Appendix A.
//!
//! A simple lock is a spinning (non-blocking) mutual-exclusion lock. In Mach
//! it is the *only* machine-dependent piece of the locking subsystem: complex
//! locks, reference counts, and every kernel locking protocol are built on
//! top of it. The paper's Appendix A fixes its interface:
//!
//! * storage is declared with `decl_simple_lock_data(class, name)` and holds
//!   a C `int` inside a structure (to allow debugging fields to be added);
//! * `simple_lock_init` initializes to the unlocked state;
//! * `simple_lock` spins until the lock is acquired;
//! * `simple_unlock` releases it;
//! * `simple_lock_try` makes a single attempt and reports success.
//!
//! The same interface is reproduced here ([`simple`] module and the
//! [`decl_simple_lock_data!`] macro), over a safe Rust core ([`RawSimpleLock`]).
//! Idiomatic code should prefer the RAII forms: [`RawSimpleLock::lock`]
//! returning a guard, or the data-carrying [`SimpleLocked<T>`].
//!
//! ## Acquisition policies (paper section 2)
//!
//! The paper discusses how caches change test-and-set acquisition:
//!
//! * **TAS** — spin directly on the atomic test-and-set. Every attempt is a
//!   write, so an unavailable lock generates continuous coherence traffic.
//! * **TTAS** — *test and test-and-set*: loop on an ordinary load until the
//!   lock looks free, only then attempt the atomic operation. Spinning stays
//!   in the local cache.
//! * **TAS-then-TTAS** — use test-and-set for the *first* attempt, resorting
//!   to TTAS only if it fails, on the assumption that "most locks in a well
//!   designed system are acquired on the first attempt".
//!
//! All three are zero-sized [`SpinPolicy`] types ([`Tas`], [`Ttas`],
//! [`TasThenTtas`]), optionally wrapped in [`WithBackoff`] for bounded
//! exponential backoff ([`Backoff`]); experiment **E1** in the repository
//! benchmark suite contrasts them.
//!
//! ## The policy is a type parameter
//!
//! The paper's lock is "a C integer" inside a structure that can carry
//! debugging fields. [`RawSimpleLock<P>`] keeps that shape: the policy
//! `P` (default [`TasThenTtas`]) is chosen at compile time and the lock
//! stores only the state `P` needs. A default lock in a release build is
//! the 4-byte lock word alone; debug builds add the holder's
//! thread tag, and the `probe` feature adds its probe [`probe::Tag`].
//! Every kernel, IPC and VM lock takes the default; experiments name
//! other policies as `RawSimpleLock::<Mcs>::new()`. The trait is sealed,
//! so the set of policies is the one documented here.
//!
//! ## Queued policies (beyond the paper)
//!
//! Word-spinning policies collapse under sustained contention: every
//! release invalidates the lock line in every waiter's cache and admission
//! order is a free-for-all. Two queued policies address this behind the
//! same interface (see the [`queued`] module for the mechanics); each
//! owns its queue state, so only a lock that runs it pays for it:
//!
//! * **Ticket** ([`Ticket`]) — FIFO admission via a draw-a-ticket
//!   counter.
//! * **MCS** ([`Mcs`]) — FIFO admission *and* local spinning on
//!   per-waiter queue nodes (Mellor-Crummey & Scott, 1991).
//!
//! Every wait on another thread's progress — a contended lock of any
//! policy, and the stack's other spins — paces itself through one
//! [`Spinner`]: spin, then yield, then park, since this reproduction's
//! "processors" are preemptible OS threads.
//!
//! ## Usage rules carried over from the paper
//!
//! * Simple locks may not be held across blocking operations or context
//!   switches (Appendix A). Debug builds track the number of simple locks the
//!   current thread holds ([`held::simple_locks_held`]); the event-wait crate
//!   asserts it is zero before blocking.
//! * Each lock should always be acquired at a single interrupt priority
//!   level (section 7); the `machk-intr` crate enforces this for code running
//!   on its simulated CPUs.
//!
//! ## Probes (`probe` feature)
//!
//! The [`probe`] module is the stack's one instrumentation surface.
//! Every *named* lock (declared via [`decl_simple_lock_data!`] or
//! [`RawSimpleLock::named`]) emits acquire, release and try-failure
//! events, and the fault-injection sites ask [`probe::fire`]. The
//! consumers are subscribers installed at run time: `machk-obs`
//! (lockstat: counters, wait/hold histograms, trace rings, the
//! lock-order graph) and `machk-fault` (seeded fault plans). Both
//! depend on this crate; this crate depends on neither. Without the
//! feature every hook compiles to nothing, so the fast paths measured
//! by E1/E5 are the untraced code.
//!
//! ## Uniprocessor compile-out
//!
//! Mach compiles simple locks out of uniprocessor kernels; the Appendix-A
//! macros exist precisely to make that possible. Enabling this crate's
//! `uniprocessor` feature turns the free-function interface
//! (`simple_lock` / `simple_unlock` / `simple_lock_try`) into no-ops, exactly
//! as the `decl_simple_lock_data` / `simple_lock_addr` machinery allowed in C.
//! The RAII interfaces keep real locking under either feature (Rust cannot
//! soundly hand out exclusive access to data otherwise).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod deadline;
pub mod held;
pub mod host;
pub mod pad;
pub mod policy;
pub mod probe;
pub mod queued;
pub mod raw;
pub mod ring;
pub mod seq;
pub mod simple;
pub mod simple_locked;

pub use deadline::{Deadline, JitterBackoff, LockTimeout};
pub use host::{Host, JoinToken, SpinSite, ThreadToken};
pub use pad::{thread_slot, CachePadded};
pub use policy::{Backoff, SpinPolicy, Spinner, Tas, TasThenTtas, Ttas, WithBackoff, WordPolicy};
pub use queued::{Mcs, Ticket};
pub use raw::{RawSimpleLock, SimpleGuard};
pub use ring::MpscRing;
pub use seq::{SeqCell, SeqWriter};
pub use simple::{simple_lock, simple_lock_init, simple_lock_try, simple_unlock};
pub use simple_locked::{SimpleLocked, SimpleLockedGuard};
