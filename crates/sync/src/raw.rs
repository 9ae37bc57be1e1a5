//! The core simple-lock type.
//!
//! [`RawSimpleLock`] is the Rust equivalent of Mach's
//! `struct slock { int lock_data; }`: a lock with no associated data,
//! protecting whatever the surrounding protocol says it protects. The paper
//! stresses that Mach's locking subsystem "implements lock manipulation
//! routines ... but does not control allocation of lock data structures";
//! this type preserves that property — embed it wherever a lock is needed.

use core::fmt;
use core::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use crate::deadline::{Deadline, JitterBackoff, LockTimeout};
use crate::held;
use crate::host;
use crate::policy::{self, Backoff, SpinPolicy, TasThenTtas, WithBackoff, WordPolicy};
use crate::probe::{self, EventKind, FaultSite, LockClass, Tag};
use crate::queued::{Mcs, Ticket};

/// A Mach simple lock: a spinning, non-blocking mutual exclusion lock.
///
/// The lock word is a single `AtomicU32` (the paper: "a C integer has been
/// sufficient on all architectures we have encountered to date"). The
/// acquisition policy `P` is a type parameter, so the lock carries only
/// the state its policy runs: with the default [`TasThenTtas`] (and the
/// other zero-sized word policies) a release-build lock is the word
/// alone. Other policies are written `RawSimpleLock::<Mcs>::new()`.
///
/// # Usage rules (from the paper, Appendix A)
///
/// * Simple locks may not be held during blocking operations or context
///   switches. Debug builds count held simple locks per thread and the
///   event-wait layer asserts the count is zero before blocking.
/// * A holder must not re-acquire a lock it already holds (immediate
///   self-deadlock). Debug builds detect this and panic with a clear
///   message instead of hanging.
///
/// # Examples
///
/// Rust does not fall back to a default type parameter when inferring
/// a `let` binding, so a local lock whose policy nothing else fixes is
/// written with its type (fields and statics already carry one):
///
/// ```
/// use machk_sync::RawSimpleLock;
///
/// let lock: RawSimpleLock = RawSimpleLock::new();
/// {
///     let _guard = lock.lock();
///     // critical section
/// } // released here
/// assert!(!lock.is_locked());
/// ```
pub struct RawSimpleLock<P: SpinPolicy = TasThenTtas> {
    /// Locked/unlocked state. Authoritative for the word-spinning
    /// policies; a mirror maintained by the holder for the queued ones,
    /// so [`is_locked`] and the debug holder checks are policy-agnostic.
    ///
    /// [`is_locked`]: RawSimpleLock::is_locked
    word: AtomicU32,
    /// Policy state: zero-sized for the word policies, the queue for
    /// the queued ones.
    policy: P,
    /// Debug-only: `ThreadId` hash of the holder, to catch self-deadlock.
    #[cfg(debug_assertions)]
    holder: AtomicU32,
    /// Probe identity (zero-sized without the `probe` feature).
    tag: Tag,
}

impl<P: SpinPolicy> RawSimpleLock<P> {
    /// Create an unlocked simple lock. With the default policy this is
    /// TAS-then-TTAS with no backoff — Mach's refined acquisition
    /// sequence.
    pub const fn new() -> Self {
        Self::build("", P::INIT)
    }

    /// Create an unlocked, *named* simple lock.
    ///
    /// The name identifies the lock to probe subscribers — lockstat
    /// reports say `"vm_object.lock"` rather than an address. Without
    /// the `probe` feature it is accepted and ignored, so declarations
    /// need no `cfg`. Anonymous locks ([`RawSimpleLock::new`]) are
    /// never traced.
    pub const fn named(name: &'static str) -> Self {
        Self::build(name, P::INIT)
    }

    const fn build(name: &'static str, policy: P) -> Self {
        RawSimpleLock {
            word: AtomicU32::new(policy::UNLOCKED),
            policy,
            #[cfg(debug_assertions)]
            holder: AtomicU32::new(0),
            tag: Tag::new(name, LockClass::Simple, P::NAME),
        }
    }

    /// Re-initialize to the unlocked state.
    ///
    /// Mirrors `simple_lock_init`; the paper notes it "is used only for
    /// initialization, not for unlocking a locked lock", so debug builds
    /// panic if the lock is currently held.
    pub fn init(&self) {
        #[cfg(debug_assertions)]
        {
            assert!(
                !self.is_locked(),
                "simple_lock_init on a held lock (init is not unlock)"
            );
        }
        // A queued policy's state is quiescent whenever the lock is free.
        policy::release(&self.word);
    }

    /// Spin until the lock is acquired; returns a guard that releases it
    /// on drop.
    #[inline]
    pub fn lock(&self) -> SimpleGuard<'_, P> {
        self.lock_raw();
        self.guard_for_held()
    }

    /// Spin until the lock is acquired, without a guard.
    ///
    /// The caller takes responsibility for calling [`unlock_raw`]
    /// (this mirrors the C interface; the RAII [`lock`] form is preferred).
    ///
    /// [`unlock_raw`]: RawSimpleLock::unlock_raw
    /// [`lock`]: RawSimpleLock::lock
    #[inline]
    pub fn lock_raw(&self) {
        self.debug_check_not_holder();
        let t0 = self.tag.start();
        let contended = self.policy.acquire(&self.word);
        self.tag.acquired(EventKind::SimpleAcquire, t0, contended);
        self.debug_set_holder();
        held::on_acquire();
    }

    /// Acquire with a deadline: spin with decorrelated-jitter backoff
    /// (see [`crate::deadline`]) until the lock is obtained or `limit`
    /// elapses, reporting [`LockTimeout`] instead of hanging.
    ///
    /// This is the recovery-hardened acquisition form: where
    /// `simple_lock` trusts the holder to release promptly, this bounds
    /// that trust and lets the caller back out, retry, or escalate to
    /// the `machk-intr` watchdog. The backoff desynchronizes waiters so
    /// a storm of bounded acquirers does not reconverge on the lock
    /// word in phase.
    pub fn lock_with_deadline(&self, limit: Duration) -> Result<SimpleGuard<'_, P>, LockTimeout> {
        if self.try_lock_raw() {
            return Ok(self.guard_for_held());
        }
        let deadline = Deadline::after(limit);
        let mut backoff = JitterBackoff::new();
        loop {
            backoff.pause();
            if self.try_lock_raw() {
                return Ok(self.guard_for_held());
            }
            deadline.check()?;
        }
    }

    /// Release the lock without a guard. Pairs with [`RawSimpleLock::lock_raw`].
    ///
    /// Debug builds panic if the calling thread is not the holder.
    #[inline]
    pub fn unlock_raw(&self) {
        // Fault hook: stretch the hold window by a jittered spin before
        // the word is actually cleared (the lock is still ours here).
        if let Some(spins) = probe::jitter(FaultSite::SimpleReleaseDelay, 4096) {
            host::spin_batch(spins);
        }
        self.debug_clear_holder();
        held::on_release();
        // Hold time must be read while the lock is still held, before
        // the word release lets the next owner overwrite the stamp.
        self.tag.released(EventKind::SimpleRelease);
        self.policy.release(&self.word);
    }

    /// Make a single attempt to acquire the lock.
    ///
    /// Returns a guard on success, `None` on failure. This is the
    /// `simple_lock_try` of Appendix A: "useful for attempting to acquire a
    /// lock in situations where the unconditional acquisition of the lock
    /// could cause deadlock" (see the backout protocol in the pmap module
    /// of `machk-vm`).
    #[inline]
    pub fn try_lock(&self) -> Option<SimpleGuard<'_, P>> {
        self.try_lock_raw().then(|| self.guard_for_held())
    }

    /// Guard-free form of [`RawSimpleLock::try_lock`].
    #[inline]
    pub fn try_lock_raw(&self) -> bool {
        // Fault hook: force the attempt to fail without touching the
        // word (models a lost CAS / stale view); takes the ordinary
        // failure path below so the trace stays truthful. The decision
        // precedes every event of this attempt.
        let forced_fail = probe::fire(FaultSite::SimpleTryFail);
        if !forced_fail && self.policy.try_acquire(&self.word) {
            self.tag.acquired(EventKind::SimpleAcquire, 0, false);
            self.debug_set_holder();
            held::on_acquire();
            true
        } else {
            self.tag.event(EventKind::SimpleTryFail, 0);
            false
        }
    }

    /// Whether the lock is currently held (by anyone).
    ///
    /// Inherently racy; useful for assertions and statistics only.
    #[inline]
    pub fn is_locked(&self) -> bool {
        // relaxed: advisory snapshot; callers must not infer ownership.
        self.word.load(Ordering::Relaxed) == policy::LOCKED
    }

    /// Debug builds: panic unless the calling thread holds the lock —
    /// for operations whose caller must already hold it. Release builds
    /// keep no holder and check nothing.
    #[inline]
    pub fn debug_assert_held(&self) {
        #[cfg(debug_assertions)]
        assert!(
            self.is_locked()
                // relaxed: if this thread holds the lock the holder is
                // its own earlier write; any other value means it does not.
                && self.holder.load(Ordering::Relaxed) == held::thread_tag(),
            "the calling thread does not hold this simple lock"
        );
    }

    /// Construct a guard for a lock this thread has just acquired.
    fn guard_for_held(&self) -> SimpleGuard<'_, P> {
        SimpleGuard {
            lock: self,
            _not_send: core::marker::PhantomData,
        }
    }

    /// Probe id of this lock: 0 for anonymous locks (and whenever no
    /// subscriber listens), otherwise the lazily registered id of its
    /// name. Lets a structure that embeds the lock (an object header)
    /// name itself in its own events.
    #[inline]
    pub fn probe_id(&self) -> u32 {
        self.tag.id()
    }

    #[cfg(debug_assertions)]
    #[inline]
    fn debug_check_not_holder(&self) {
        // relaxed: best-effort debug heuristic; a stale read only
        // weakens the self-deadlock diagnostic, never correctness.
        if self.is_locked() && self.holder.load(Ordering::Relaxed) == held::thread_tag() {
            panic!(
                "simple lock self-deadlock: thread already holds this lock \
                 (simple locks are not recursive)"
            );
        }
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn debug_check_not_holder(&self) {}

    #[cfg(debug_assertions)]
    #[inline]
    fn debug_set_holder(&self) {
        // relaxed: written under the lock; ordered by the acquire.
        self.holder.store(held::thread_tag(), Ordering::Relaxed);
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn debug_set_holder(&self) {}

    #[cfg(debug_assertions)]
    #[inline]
    fn debug_clear_holder(&self) {
        let me = held::thread_tag();
        // relaxed: cleared under the lock before the releasing store.
        let holder = self.holder.swap(0, Ordering::Relaxed);
        assert!(
            holder == me,
            "simple_unlock by a thread that does not hold the lock"
        );
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn debug_clear_holder(&self) {}
}

impl<P: WordPolicy> RawSimpleLock<WithBackoff<P>> {
    /// Create an unlocked simple lock that backs off by `backoff`
    /// between contended attempts (`new` uses [`Backoff::DEFAULT`]).
    pub const fn with_backoff(backoff: Backoff) -> Self {
        Self::build("", WithBackoff::new(backoff))
    }
}

impl RawSimpleLock<Ticket> {
    /// Number of threads currently waiting for their turn.
    ///
    /// Observing `waiters() == n` guarantees the first `n` registrants'
    /// admission order is already fixed, which is what the FIFO fairness
    /// tests key on. Racy otherwise; for tests and statistics only.
    pub fn waiters(&self) -> u32 {
        self.policy.waiters()
    }
}

impl RawSimpleLock<Mcs> {
    /// Number of threads currently queued behind the holder; same
    /// contract as [`RawSimpleLock::<Ticket>::waiters`].
    pub fn waiters(&self) -> u32 {
        self.policy.waiters()
    }
}

// Release layout without probes: the word alone, Appendix A's "C integer".
#[cfg(not(debug_assertions))]
const _: () = assert!(probe::ENABLED || core::mem::size_of::<RawSimpleLock>() == 4);

impl<P: SpinPolicy> Default for RawSimpleLock<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: SpinPolicy> fmt::Debug for RawSimpleLock<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RawSimpleLock")
            .field("locked", &self.is_locked())
            .field("policy", &P::NAME)
            .finish()
    }
}

/// RAII guard for a [`RawSimpleLock`]; releases the lock on drop.
///
/// Deliberately `!Send`: holding a spin lock is a property of the acquiring
/// thread in Mach ("holding of a lock is always associated with a thread").
pub struct SimpleGuard<'a, P: SpinPolicy = TasThenTtas> {
    lock: &'a RawSimpleLock<P>,
    /// Keeps the guard on the acquiring thread (`*mut ()` is `!Send`).
    _not_send: core::marker::PhantomData<*mut ()>,
}

impl<P: SpinPolicy> SimpleGuard<'_, P> {
    /// Release explicitly (equivalent to dropping the guard); useful when
    /// the release point matters for reading the code against the paper's
    /// protocols.
    pub fn unlock(self) {
        drop(self);
    }
}

impl<P: SpinPolicy> Drop for SimpleGuard<'_, P> {
    #[inline]
    fn drop(&mut self) {
        // Release even when unwinding: a dead holder that kept the word
        // set would turn one thread's panic into every other thread's
        // spin-hang (the limit case of the paper's "delayed holder").
        // Whether the protected data survived is the data's own
        // protocol to check, under the next acquirer's guard.
        self.lock.unlock_raw();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn guard_releases_on_drop() {
        let lock: RawSimpleLock = RawSimpleLock::new();
        {
            let g = lock.lock();
            assert!(lock.is_locked());
            drop(g);
        }
        assert!(!lock.is_locked());
    }

    #[test]
    fn try_lock_contended() {
        let lock: RawSimpleLock = RawSimpleLock::new();
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        g.unlock();
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        const THREADS: usize = 8;
        const ITERS: usize = 10_000;
        let lock: RawSimpleLock = RawSimpleLock::new();
        let mut shared = 0usize; // protected by `lock`
        let shared_ptr = &mut shared as *mut usize as usize;
        let in_cs = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ITERS {
                        let _g = lock.lock();
                        assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                        // Non-atomic increment: torn updates would show up
                        // as a wrong final count.
                        unsafe {
                            let p = shared_ptr as *mut usize;
                            p.write(p.read() + 1);
                        }
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(shared, THREADS * ITERS);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "self-deadlock")]
    fn recursive_acquire_panics_in_debug() {
        let lock: RawSimpleLock = RawSimpleLock::new();
        let _g = lock.lock();
        let _g2 = lock.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "init is not unlock")]
    fn init_on_held_lock_panics_in_debug() {
        let lock: RawSimpleLock = RawSimpleLock::new();
        let _g = lock.lock();
        lock.init();
    }

    #[test]
    fn init_resets_unlocked_lock() {
        let lock: RawSimpleLock = RawSimpleLock::new();
        lock.init();
        assert!(!lock.is_locked());
    }

    #[test]
    fn deadline_times_out_on_held_lock_and_acquires_free_one() {
        let lock: RawSimpleLock = RawSimpleLock::new();
        let g = lock.lock();
        let err = lock
            .lock_with_deadline(std::time::Duration::from_millis(10))
            .err()
            .expect("held lock must time out");
        assert!(err.waited >= std::time::Duration::from_millis(10));
        g.unlock();
        let g2 = lock
            .lock_with_deadline(std::time::Duration::from_millis(10))
            .expect("free lock must acquire");
        assert!(lock.is_locked());
        drop(g2);
        assert!(!lock.is_locked());
    }

    #[test]
    fn deadline_succeeds_once_holder_releases() {
        let lock: RawSimpleLock = RawSimpleLock::new();
        std::thread::scope(|s| {
            let g = lock.lock();
            s.spawn(|| {
                let g2 = lock
                    .lock_with_deadline(std::time::Duration::from_secs(5))
                    .expect("release within deadline must succeed");
                drop(g2);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(g);
        });
        assert!(!lock.is_locked());
    }

    #[test]
    fn panicking_holder_releases() {
        let lock: RawSimpleLock = RawSimpleLock::new();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = lock.lock();
            panic!("holder dies mid-hold");
        }));
        assert!(res.is_err());
        // Released: the next acquirer does not spin-hang.
        assert!(!lock.is_locked());
        drop(lock.lock());
    }

    fn provides_exclusion<P: SpinPolicy>(lock: RawSimpleLock<P>) {
        let mut value = 0u64;
        let vp = &mut value as *mut u64 as usize;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..5_000 {
                        let _g = lock.lock();
                        // SAFETY: `value` outlives the scope and the lock
                        // under test serializes every access to it.
                        unsafe {
                            let p = vp as *mut u64;
                            p.write(p.read() + 1);
                        }
                    }
                });
            }
        });
        assert_eq!(value, 20_000, "policy {} lost updates", P::NAME);
    }

    #[test]
    fn all_policies_provide_exclusion() {
        use crate::policy::{Tas, Ttas};
        provides_exclusion(RawSimpleLock::<WithBackoff<Tas>>::new());
        provides_exclusion(RawSimpleLock::<WithBackoff<Ttas>>::new());
        provides_exclusion(RawSimpleLock::<WithBackoff<TasThenTtas>>::new());
        provides_exclusion(RawSimpleLock::<Ticket>::new());
        provides_exclusion(RawSimpleLock::<Mcs>::new());
    }

    #[test]
    fn default_policy_is_tas_then_ttas() {
        use core::any::TypeId;
        assert_eq!(
            TypeId::of::<RawSimpleLock>(),
            TypeId::of::<RawSimpleLock<TasThenTtas>>()
        );
        assert_eq!(
            TypeId::of::<SimpleGuard<'static>>(),
            TypeId::of::<SimpleGuard<'static, TasThenTtas>>()
        );
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn default_lock_is_one_word() {
        assert!(probe::ENABLED || core::mem::size_of::<RawSimpleLock>() == 4);
        assert_eq!(core::mem::size_of::<TasThenTtas>(), 0);
    }
}
