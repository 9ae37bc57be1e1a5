//! Deadline-carrying acquisition support.
//!
//! The paper's locking protocols assume a held simple lock is released
//! "soon"; a holder that is delayed (preempted, interrupted, faulted)
//! turns every unconditional `simple_lock` into a potential hang. The
//! recovery discipline here is the bounded form: spin with
//! decorrelated-jitter backoff until a caller-chosen deadline, then
//! *report* [`LockTimeout`] instead of hanging, so the caller can back
//! out, escalate to the watchdog, or retry with fresh state — the same
//! shape as the `simple_lock_try` backout protocols of Appendix A, but
//! time-bounded rather than single-shot.
//!
//! The jitter source is a per-thread xorshift generator seeded from the
//! host's per-thread seed (a hashed thread tag on the OS host, a
//! deterministic `(scheduler seed, thread id)` stream under `machk-sim`).
//! It is deliberately *not* the `machk-fault` decision PRNG: recovery
//! must work (and stay uncorrelated across threads) in builds with no
//! probes at all, and fault-decision streams must not be
//! perturbed by how often a waiter backs off.

use core::fmt;
use std::cell::Cell;
use std::time::Duration;

use crate::host;

/// A bounded lock acquisition gave up: the lock stayed held past the
/// caller's deadline. Carries how long the caller actually waited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockTimeout {
    /// Total time spent waiting before giving up.
    pub waited: Duration,
}

impl fmt::Display for LockTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lock acquisition timed out after {:?} (possible deadlock or delayed holder)",
            self.waited
        )
    }
}

impl std::error::Error for LockTimeout {}

/// A lock was poisoned: some previous holder's guard was dropped while
/// its thread was panicking, so the invariant the lock protects may be
/// torn. The guard still *releases* (a wedged lock would convert the
/// panic into a system-wide hang), but it stamps this diagnosis so the
/// next acquirer learns the state needs validation instead of silently
/// trusting it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Poisoned;

impl fmt::Display for Poisoned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(
            "lock poisoned: a previous holder panicked mid-hold; \
             the protected invariant must be validated before reuse",
        )
    }
}

impl std::error::Error for Poisoned {}

/// Why a checked, bounded lock acquisition did not hand back a guard:
/// either the holder outlived the caller's deadline, or a previous
/// holder died mid-hold and the lock carries its [`Poisoned`] stamp.
/// The two demand different recoveries — timeout retries with fresh
/// backoff; poison repairs the protected state first — so they are
/// distinct variants rather than one opaque failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockError {
    /// The lock stayed held past the deadline (possible delayed holder).
    Timeout(LockTimeout),
    /// A previous holder panicked mid-hold; state needs validation.
    Poisoned(Poisoned),
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Timeout(t) => t.fmt(f),
            LockError::Poisoned(p) => p.fmt(f),
        }
    }
}

impl std::error::Error for LockError {}

impl From<LockTimeout> for LockError {
    fn from(t: LockTimeout) -> LockError {
        LockError::Timeout(t)
    }
}

impl From<Poisoned> for LockError {
    fn from(p: Poisoned) -> LockError {
        LockError::Poisoned(p)
    }
}

thread_local! {
    static JITTER_RNG: Cell<u64> = const { Cell::new(0) };
}

/// Per-thread xorshift64 draw for backoff jitter.
fn jitter_rand() -> u64 {
    JITTER_RNG.with(|c| {
        let mut s = c.get();
        if s == 0 {
            // Seed lazily from the host so threads decorrelate — and so
            // simulated runs draw identical jitter for identical seeds.
            s = host::thread_seed();
        }
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        c.set(s);
        s
    })
}

/// Decorrelated-jitter backoff (`sleep = min(cap, rand(base, prev * 3))`),
/// the AWS "decorrelated jitter" schedule: grows like exponential backoff
/// on average but desynchronizes waiters so they do not re-collide on
/// the lock word in phase.
pub struct JitterBackoff {
    prev_ns: u64,
}

impl JitterBackoff {
    const BASE_NS: u64 = 200;
    const CAP_NS: u64 = 1_000_000; // 1 ms

    /// Start a fresh schedule at the base delay.
    pub fn new() -> JitterBackoff {
        JitterBackoff {
            prev_ns: Self::BASE_NS,
        }
    }

    /// Wait out the next jittered delay and return its length.
    ///
    /// Short delays spin, medium delays yield the CPU, long delays
    /// sleep — mirroring the spin→yield→park escalation of contended
    /// simple-lock waits at a finer grain.
    pub fn pause(&mut self) -> Duration {
        let upper = self.prev_ns.saturating_mul(3).max(Self::BASE_NS + 1);
        let d = (Self::BASE_NS + jitter_rand() % (upper - Self::BASE_NS)).min(Self::CAP_NS);
        self.prev_ns = d;
        if d < 10_000 {
            host::spin_batch((d / 10 + 1) as u32);
        } else if d < 200_000 {
            host::yield_now();
        } else {
            host::sleep(Duration::from_nanos(d));
        }
        Duration::from_nanos(d)
    }
}

impl Default for JitterBackoff {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_stays_within_bounds() {
        let mut b = JitterBackoff::new();
        for _ in 0..64 {
            let d = b.pause();
            assert!(d.as_nanos() >= u128::from(JitterBackoff::BASE_NS));
            assert!(d.as_nanos() <= u128::from(JitterBackoff::CAP_NS));
        }
    }

    #[test]
    fn timeout_display_mentions_duration() {
        let t = LockTimeout {
            waited: Duration::from_millis(5),
        };
        assert!(t.to_string().contains("5ms"));
    }
}
