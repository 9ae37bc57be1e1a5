//! Spin acquisition policies for simple locks.
//!
//! The paper (section 2) describes three ways to acquire a test-and-set
//! lock on a machine with caches, reproduced here as the zero-sized
//! [`Tas`], [`Ttas`] and [`TasThenTtas`] policies, plus an orthogonal
//! bounded exponential [`Backoff`] carried by the [`WithBackoff`]
//! wrapper. The queued [`Ticket`](crate::Ticket) and [`Mcs`](crate::Mcs)
//! policies live in [`crate::queued`].
//!
//! A policy is a type parameter of [`RawSimpleLock`](crate::RawSimpleLock),
//! so each lock stores exactly the state its own policy runs and the
//! acquisition path is chosen at compile time.

use core::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use crate::host::{self, SpinSite};

mod sealed {
    pub trait Sealed {}
}
pub(crate) use sealed::Sealed;

/// How a simple lock acquires and releases its lock word.
///
/// Sealed: the implementations are the paper's three word-spinning
/// policies, [`WithBackoff`] over any of them, and the queued
/// [`Ticket`](crate::Ticket) and [`Mcs`](crate::Mcs). See the crate-level
/// documentation for the cache-behaviour rationale of each.
pub trait SpinPolicy: Sealed + Sized + Send + Sync + 'static {
    /// The policy state of a freshly initialized, unlocked lock.
    const INIT: Self;

    /// Short human-readable name used in experiment tables and
    /// lockstat reports.
    const NAME: &'static str;

    /// One full blocking acquisition of `word`. Returns whether the
    /// acquisition was contended (the first attempt did not succeed).
    ///
    /// Queued policies keep their own admission state and maintain
    /// `word` as a locked/unlocked mirror, so `is_locked` and the debug
    /// holder checks work for every policy.
    fn acquire(&self, word: &AtomicU32) -> bool;

    /// A single acquisition attempt (`simple_lock_try` semantics).
    fn try_acquire(&self, word: &AtomicU32) -> bool;

    /// Release a lock this thread acquired.
    fn release(&self, word: &AtomicU32);
}

/// One of the paper's three word-spinning policies: every waiter spins
/// on the lock word itself. The two constants are the only difference
/// between them.
pub trait WordPolicy: SpinPolicy {
    /// Test the word with a plain load before the first test-and-set.
    const TEST_FIRST: bool;
    /// Contended waiters repeat the test-and-set itself instead of
    /// waiting on a plain load until the word looks free.
    const SPIN_ON_SWAP: bool;
}

/// Spin directly on the atomic test-and-set operation.
///
/// Every failed attempt performs a write, so contended spinning
/// continuously invalidates the lock's cache line on other processors.
/// The paper notes this is acceptable only when the test-and-set does
/// not itself miss the cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tas;

/// Test and test-and-set: loop on an ordinary load until the lock
/// appears free, and only then attempt the atomic operation.
///
/// "This avoids cache misses while the lock is not available."
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ttas;

/// Use the atomic test-and-set for the first attempt, resorting to
/// [`Ttas`] only if the first attempt fails.
///
/// "This assumes that most locks in a well designed system are acquired
/// on the first attempt." This is the default policy, as it was Mach's
/// refined choice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TasThenTtas;

macro_rules! word_policy {
    ($ty:ident, $name:literal, test_first: $test_first:literal, spin_on_swap: $swap:literal) => {
        impl Sealed for $ty {}

        impl WordPolicy for $ty {
            const TEST_FIRST: bool = $test_first;
            const SPIN_ON_SWAP: bool = $swap;
        }

        impl SpinPolicy for $ty {
            const INIT: Self = $ty;
            const NAME: &'static str = $name;

            #[inline]
            fn acquire(&self, word: &AtomicU32) -> bool {
                acquire::<$ty>(word, Backoff::NONE)
            }

            #[inline]
            fn try_acquire(&self, word: &AtomicU32) -> bool {
                try_acquire(word)
            }

            #[inline]
            fn release(&self, word: &AtomicU32) {
                release(word)
            }
        }
    };
}

word_policy!(Tas, "tas", test_first: false, spin_on_swap: true);
word_policy!(Ttas, "ttas", test_first: true, spin_on_swap: false);
word_policy!(TasThenTtas, "tas+ttas", test_first: false, spin_on_swap: false);

/// Bounded exponential backoff between lock attempts.
///
/// Backoff is not described in the paper (1991 hardware rarely needed it)
/// but is the standard modern companion to TTAS spinning; experiment E1
/// measures it as an ablation. `Backoff::NONE` disables it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backoff {
    /// Initial number of spin-loop hints issued after a failed attempt.
    /// Zero disables backoff entirely.
    pub initial: u32,
    /// Upper bound on the per-round hint count after doubling.
    pub max: u32,
}

impl Backoff {
    /// No backoff: retry immediately (with a single spin-loop hint).
    pub const NONE: Backoff = Backoff { initial: 0, max: 0 };

    /// A mild default: 4 hints doubling up to 256.
    pub const DEFAULT: Backoff = Backoff {
        initial: 4,
        max: 256,
    };

    /// Whether this configuration performs any backoff at all.
    #[inline]
    pub fn enabled(self) -> bool {
        self.initial != 0
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::NONE
    }
}

/// A word-spinning policy `P` with a [`Backoff`] between contended
/// attempts — the only policy that carries a runtime value.
///
/// Its initial state uses [`Backoff::DEFAULT`]; build a lock with any
/// other value through
/// [`RawSimpleLock::with_backoff`](crate::RawSimpleLock::with_backoff).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WithBackoff<P: WordPolicy> {
    backoff: Backoff,
    policy: P,
}

impl<P: WordPolicy> WithBackoff<P> {
    pub(crate) const fn new(backoff: Backoff) -> Self {
        WithBackoff {
            backoff,
            policy: P::INIT,
        }
    }
}

impl<P: WordPolicy> Sealed for WithBackoff<P> {}

impl<P: WordPolicy> SpinPolicy for WithBackoff<P> {
    const INIT: Self = WithBackoff::new(Backoff::DEFAULT);
    const NAME: &'static str = P::NAME;

    #[inline]
    fn acquire(&self, word: &AtomicU32) -> bool {
        acquire::<P>(word, self.backoff)
    }

    #[inline]
    fn try_acquire(&self, word: &AtomicU32) -> bool {
        self.policy.try_acquire(word)
    }

    #[inline]
    fn release(&self, word: &AtomicU32) {
        self.policy.release(word)
    }
}

/// The one pacing ladder for a wait on another thread's progress.
///
/// Mach's simple locks spin unconditionally because the holder is, by
/// construction, *running on another processor*. In this reproduction the
/// "processors" are OS threads that may be preempted while holding a lock —
/// on an oversubscribed host an unbounded spin would burn a full scheduler
/// quantum per acquisition. Every such wait therefore escalates in three
/// stages: 256 pause-hint spins (the paper's regime), then 64 voluntary
/// reschedules, then short parks of 50 µs each. Short contention — what
/// the paper's TAS/TTAS discussion is about — never leaves the first
/// stage.
///
/// Every wait in the stack on another thread's progress goes through
/// it. [`JitterBackoff`](crate::JitterBackoff) paces *retries* of a
/// failed attempt instead, and is not a wait.
///
/// One `Spinner` tracks a single continuous wait; call [`relax`] once per
/// failed check of the awaited condition.
///
/// [`relax`]: Spinner::relax
pub struct Spinner {
    site: SpinSite,
    spins: u32,
    yields: u32,
}

/// Consecutive pause-hint spins before the first yield.
const SPIN_LIMIT: u32 = 256;
/// Voluntary reschedules after the spin phase before parking.
const YIELD_LIMIT: u32 = 64;
/// Length of each park once both limits are exhausted.
const PARK: Duration = Duration::from_micros(50);

impl Spinner {
    /// A fresh wait whose spins are charged to `site`.
    #[inline]
    pub fn new(site: SpinSite) -> Spinner {
        Spinner {
            site,
            spins: 0,
            yields: 0,
        }
    }

    /// Wait a little, escalating spin → yield → park across calls.
    ///
    /// Every stage is a host scheduling point, so under `machk-sim` a
    /// spinning waiter always hands control back to the scheduler.
    #[inline]
    pub fn relax(&mut self) {
        if self.spins < SPIN_LIMIT {
            self.spins += 1;
            host::spin_hint(self.site);
        } else if self.yields < YIELD_LIMIT {
            self.yields += 1;
            host::yield_now();
        } else {
            host::sleep(PARK);
        }
    }
}

/// State values stored in the lock word.
pub(crate) const UNLOCKED: u32 = 0;
pub(crate) const LOCKED: u32 = 1;

/// One full blocking acquisition of `word` under word policy `P` with
/// `backoff`; returns whether the first attempt failed.
#[inline]
fn acquire<P: WordPolicy>(word: &AtomicU32, backoff: Backoff) -> bool {
    // First attempt: TAS-flavoured policies go straight to the atomic op;
    // pure TTAS tests first even on the first attempt.
    // relaxed: the TTAS pre-test only gates the swap; the Acquire swap
    // is the synchronizing acquisition.
    let free = !P::TEST_FIRST || word.load(Ordering::Relaxed) == UNLOCKED;
    if free && word.swap(LOCKED, Ordering::Acquire) == UNLOCKED {
        return false;
    }
    acquire_slow::<P>(word, backoff);
    true
}

/// Contended path, kept out of line so the uncontended path stays small.
#[cold]
fn acquire_slow<P: WordPolicy>(word: &AtomicU32, backoff: Backoff) {
    // All word-spinning policies contend on the lock word's cache line.
    let site = SpinSite::SharedLine(word as *const AtomicU32 as usize);
    let mut pause = backoff.initial;
    let mut spinner = Spinner::new(site);
    loop {
        if P::SPIN_ON_SWAP {
            // Spin on the atomic operation itself.
            if word.swap(LOCKED, Ordering::Acquire) == UNLOCKED {
                host::lock_acquired(site);
                return;
            }
            spinner.relax();
        } else {
            // Spin locally until the lock looks free...
            // relaxed: read-only spin; the Acquire swap below does
            // the synchronizing acquisition.
            while word.load(Ordering::Relaxed) != UNLOCKED {
                spinner.relax();
            }
            // ...then make the atomic attempt.
            if word.swap(LOCKED, Ordering::Acquire) == UNLOCKED {
                host::lock_acquired(site);
                return;
            }
        }
        if backoff.enabled() {
            host::spin_batch(pause);
            pause = (pause * 2).min(backoff.max);
        }
    }
}

/// A single acquisition attempt, shared by the word policies.
#[inline]
fn try_acquire(word: &AtomicU32) -> bool {
    // An unconditional swap is the literal test-and-set; use
    // compare_exchange to avoid dirtying the line when the lock is held.
    // relaxed: a failed try acquires nothing to order.
    word.compare_exchange(UNLOCKED, LOCKED, Ordering::Acquire, Ordering::Relaxed)
        .is_ok()
}

/// Release a lock word.
#[inline]
pub(crate) fn release(word: &AtomicU32) {
    word.store(UNLOCKED, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_none_is_disabled() {
        assert!(!Backoff::NONE.enabled());
        assert!(Backoff::DEFAULT.enabled());
    }

    #[test]
    fn policy_names_are_distinct() {
        use crate::queued::{Mcs, Ticket};
        let mut names = vec![
            Tas::NAME,
            Ttas::NAME,
            TasThenTtas::NAME,
            Ticket::NAME,
            Mcs::NAME,
        ];
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn word_policies_are_zero_sized() {
        assert_eq!(core::mem::size_of::<Tas>(), 0);
        assert_eq!(core::mem::size_of::<Ttas>(), 0);
        assert_eq!(core::mem::size_of::<TasThenTtas>(), 0);
    }

    fn uncontended_is_first_try<P: SpinPolicy>(policy: P) {
        let word = AtomicU32::new(UNLOCKED);
        assert!(!policy.acquire(&word), "{}", P::NAME);
        assert_eq!(word.load(Ordering::Relaxed), LOCKED);
        assert!(!policy.try_acquire(&word), "{}", P::NAME);
        policy.release(&word);
        assert_eq!(word.load(Ordering::Relaxed), UNLOCKED);
        assert!(policy.try_acquire(&word), "{}", P::NAME);
        policy.release(&word);
    }

    #[test]
    fn acquire_uncontended_succeeds_first_try() {
        uncontended_is_first_try(Tas);
        uncontended_is_first_try(Ttas);
        uncontended_is_first_try(TasThenTtas);
        uncontended_is_first_try(WithBackoff::<Tas>::INIT);
    }

    fn contended_acquire_eventually_succeeds<P: SpinPolicy>(policy: P) {
        use std::sync::atomic::AtomicU64;
        let word = AtomicU32::new(UNLOCKED);
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        policy.acquire(&word);
                        counter.fetch_add(1, Ordering::Relaxed);
                        policy.release(&word);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4000, "{}", P::NAME);
    }

    #[test]
    fn contended_acquire_terminates() {
        contended_acquire_eventually_succeeds(WithBackoff::<Tas>::INIT);
        contended_acquire_eventually_succeeds(WithBackoff::<Ttas>::INIT);
        contended_acquire_eventually_succeeds(WithBackoff::<TasThenTtas>::INIT);
    }
}
