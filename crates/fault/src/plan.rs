//! The seeded fault plan.
//!
//! A [`FaultPlan`] is a pure value: a run seed plus a per-site firing
//! rate. Whether a given decision fires is a deterministic function of
//! `(seed, role, decision index, site rate)` — nothing about wall-clock
//! time, thread ids, or scheduling enters the computation, which is what
//! makes a fault schedule *replayable*: rerunning a seed against the
//! same per-role decision sequence reproduces the identical trace.

use crate::FaultSite;

/// Firing rate that means "always fire" (the other values are
/// numerators over 2^16, so `u16::MAX` would otherwise be 65535/65536).
pub const ALWAYS: u16 = u16::MAX;

/// Convert a probability in [0, 1] to a rate numerator.
pub fn rate_from_prob(p: f64) -> u16 {
    if p >= 1.0 {
        ALWAYS
    } else if p <= 0.0 {
        0
    } else {
        (p * 65536.0) as u16
    }
}

/// A deterministic fault plan: seed + per-site rates.
///
/// Plans are cheap to copy and compare; the E17 harness builds one per
/// seeded run. All rates default to zero — an installed plan with no
/// rates set injects nothing (but still arms the decision/trace
/// machinery).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The run seed every per-role PRNG stream derives from.
    pub seed: u64,
    /// Whether decisions are appended to the global trace (bounded; see
    /// [`crate::trace`]). Counters are always maintained.
    pub record_trace: bool,
    /// When set, only threads that declared a role with
    /// `machk_sync::probe::set_role` take fault decisions; undeclared
    /// threads see every hook answer `false`. This lets a chaos harness
    /// arm a plan inside a larger test process without perturbing
    /// bystander threads (whose blocking patterns may not tolerate,
    /// say, a dropped wakeup).
    pub declared_only: bool,
    rates: [u16; FaultSite::COUNT],
}

impl FaultPlan {
    /// A plan with every rate zero.
    pub const fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            record_trace: false,
            declared_only: false,
            rates: [0; FaultSite::COUNT],
        }
    }

    /// A plan firing every site at the same rate (numerator over 2^16).
    pub fn uniform(seed: u64, rate: u16) -> FaultPlan {
        FaultPlan {
            seed,
            record_trace: false,
            declared_only: false,
            rates: [rate; FaultSite::COUNT],
        }
    }

    /// Set one site's rate (builder style).
    pub fn with_rate(mut self, site: FaultSite, rate: u16) -> FaultPlan {
        self.rates[site as usize] = rate;
        self
    }

    /// Enable decision tracing (builder style).
    pub fn with_trace(mut self) -> FaultPlan {
        self.record_trace = true;
        self
    }

    /// Restrict injection to threads that declared a role (builder
    /// style; see the `declared_only` field).
    pub fn declared_roles_only(mut self) -> FaultPlan {
        self.declared_only = true;
        self
    }

    /// The rate configured for `site`.
    pub fn rate(&self, site: FaultSite) -> u16 {
        self.rates[site as usize]
    }

    /// Whether a draw with low bits `low16` fires at `site`'s rate.
    #[inline]
    pub fn fires(&self, site: FaultSite, low16: u16) -> bool {
        let r = self.rates[site as usize];
        r == ALWAYS || low16 < r
    }
}

/// SplitMix64 step: the per-role decision stream generator. Public so
/// tests (and the E17 determinism check) can expand a plan's stream
/// without going through the thread-local machinery.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Initial PRNG state for `role` under `seed`. Mixing the role through
/// one splitmix step decorrelates neighbouring roles' streams.
#[inline]
pub fn stream_seed(seed: u64, role: u32) -> u64 {
    let mut s = seed ^ (u64::from(role).wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// Expand the first `n` draws of `role`'s stream — the pure-function
/// view of the plan the determinism assertions compare against.
pub fn expand_stream(seed: u64, role: u32, n: usize) -> Vec<u64> {
    let mut state = stream_seed(seed, role);
    (0..n).map(|_| splitmix64(&mut state)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_roundtrip() {
        let p = FaultPlan::new(7)
            .with_rate(FaultSite::RpcDeadPort, 123)
            .with_rate(FaultSite::SimpleTryFail, ALWAYS);
        assert_eq!(p.rate(FaultSite::RpcDeadPort), 123);
        assert_eq!(p.rate(FaultSite::EventDropWakeup), 0);
        assert!(p.fires(FaultSite::SimpleTryFail, u16::MAX));
        assert!(p.fires(FaultSite::RpcDeadPort, 122));
        assert!(!p.fires(FaultSite::RpcDeadPort, 123));
        assert!(!p.fires(FaultSite::EventDropWakeup, 0));
    }

    #[test]
    fn prob_conversion_bounds() {
        assert_eq!(rate_from_prob(0.0), 0);
        assert_eq!(rate_from_prob(1.0), ALWAYS);
        assert_eq!(rate_from_prob(2.0), ALWAYS);
        assert_eq!(rate_from_prob(-1.0), 0);
        let half = rate_from_prob(0.5);
        assert!((32_000..=33_600).contains(&half));
    }

    #[test]
    fn streams_are_deterministic_and_role_distinct() {
        let a1 = expand_stream(42, 0, 64);
        let a2 = expand_stream(42, 0, 64);
        assert_eq!(a1, a2);
        let b = expand_stream(42, 1, 64);
        assert_ne!(a1, b);
        let c = expand_stream(43, 0, 64);
        assert_ne!(a1, c);
    }
}
