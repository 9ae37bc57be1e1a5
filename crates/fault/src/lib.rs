//! # machk-fault — deterministic fault injection for the Mach locking
//! reproduction
//!
//! The paper's most valuable results are *failure modes*: the §6
//! lost-wakeup race, the §7/§7.1 deadlocks, the §9–10 shutdown races,
//! the §10 reference ledger. Reproducing each once, in a hand-scripted
//! schedule, shows the mechanism exists; showing the *recovery
//! machinery holds* requires thousands of adversarial schedules. This
//! crate provides the adversary — seeded, so every run is replayable:
//!
//! * a [`FaultPlan`] names a run **seed** and a per-[`FaultSite`]
//!   firing rate;
//! * each participating thread declares a small integer **role**
//!   (`machk_sync::probe::set_role`); its decision stream is a pure
//!   function of `(seed, role)` (SplitMix64, see [`plan`]) — wall-clock
//!   time and OS scheduling never enter a decision;
//! * the runtime crates ask `machk_sync::probe::fire` at their
//!   injection points (the hook inventory is the [`FaultSite`] enum
//!   itself), and the installed plan is the probe subscriber that
//!   answers. This crate depends on `machk-sync` with its `probe`
//!   feature; no runtime crate names it, and the default build links it
//!   nowhere (CI asserts `cargo tree`);
//! * decisions are counted per site ([`stats`]) and, when the plan has
//!   `record_trace`, appended to a canonical-order trace ([`trace`])
//!   that two runs of the same seed reproduce byte-for-byte. Only fault
//!   decisions draw from a stream; trace events never do.
//!
//! ## Arming discipline
//!
//! [`install`] arms a plan process-wide (installing the plan's probe
//! subscriber on first use) and resets counters and trace; [`disarm`]
//! disarms. A disarmed plan answers every decision with "no" at the
//! cost of one atomic load — cheap enough that probe builds can run
//! their ordinary test suites unperturbed. The E17 chaos harness is the
//! intended driver: install a plan, run a scenario with each thread's
//! role set, snapshot stats and trace, disarm.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod plan;
pub mod trace;

pub use machk_sync::probe::FaultSite;
pub use plan::{expand_stream, rate_from_prob, FaultPlan, ALWAYS};
pub use trace::FaultRecord;

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use machk_sync::probe::{self, Subscriber};

/// Bumped on every install/disarm so thread-local caches refresh.
static EPOCH: AtomicU64 = AtomicU64::new(0);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Per-site decision counters (index = `FaultSite as usize`).
static DECISIONS: [AtomicU64; FaultSite::COUNT] = [const { AtomicU64::new(0) }; FaultSite::COUNT];
static FIRED: [AtomicU64; FaultSite::COUNT] = [const { AtomicU64::new(0) }; FaultSite::COUNT];

/// Role of a thread that declared none: decisions still deterministic
/// per (seed, UNSET_ROLE) but shared by all undeclared threads.
const UNSET_ROLE: u32 = u32::MAX;

/// The calling thread's declared role, or [`UNSET_ROLE`].
fn role() -> u32 {
    probe::role().unwrap_or(UNSET_ROLE)
}

#[derive(Clone, Copy)]
struct ThreadFault {
    /// Global epoch this cache was built against.
    epoch: u64,
    armed: bool,
    plan: FaultPlan,
    rng: u64,
    seq: u32,
}

thread_local! {
    static CACHE: Cell<ThreadFault> = const {
        Cell::new(ThreadFault {
            epoch: 0,
            armed: false,
            plan: FaultPlan::new(0),
            rng: 0,
            seq: 0,
        })
    };
}

/// The installed plan as a probe subscriber: it answers the fault
/// sites' decisions and nothing else.
struct PlanSubscriber;

impl Subscriber for PlanSubscriber {
    fn name(&self) -> &'static str {
        "fault"
    }

    fn decide(&self, site: FaultSite) -> Option<u64> {
        decide(site)
    }

    fn may_fire(&self, site: FaultSite) -> bool {
        PLAN.lock().unwrap().is_some_and(|p| p.rate(site) > 0)
    }

    /// A (re-)declared role restarts the thread's decision stream.
    fn on_role(&self, _role: u32) {
        CACHE.with(|c| {
            let mut tf = c.get();
            tf.epoch = 0;
            c.set(tf);
        });
    }
}

/// Install `plan` process-wide: arms injection, resets per-site
/// counters and the decision trace, and restarts every role's decision
/// stream from the plan seed.
pub fn install(plan: FaultPlan) {
    static SUBSCRIBED: OnceLock<()> = OnceLock::new();
    SUBSCRIBED.get_or_init(|| {
        probe::install(&PlanSubscriber).expect("probe subscriber slots exhausted");
    });
    let mut p = PLAN.lock().unwrap();
    *p = Some(plan);
    for i in 0..FaultSite::COUNT {
        // relaxed: advisory counter zeroing; the Release EPOCH bump
        // below publishes the new plan.
        DECISIONS[i].store(0, Ordering::Relaxed);
        FIRED[i].store(0, Ordering::Relaxed);
    }
    trace::reset();
    EPOCH.fetch_add(1, Ordering::Release);
}

/// Disarm injection. Counters and trace are left readable until the
/// next [`install`].
pub fn disarm() {
    *PLAN.lock().unwrap() = None;
    EPOCH.fetch_add(1, Ordering::Release);
}

#[inline]
fn refresh(c: &Cell<ThreadFault>) -> ThreadFault {
    let epoch = EPOCH.load(Ordering::Acquire);
    let mut tf = c.get();
    if tf.epoch != epoch || tf.epoch == 0 {
        let plan = *PLAN.lock().unwrap();
        tf = match plan {
            Some(p) => ThreadFault {
                epoch,
                armed: true,
                plan: p,
                rng: plan::stream_seed(p.seed, role()),
                seq: 0,
            },
            None => ThreadFault {
                epoch,
                armed: false,
                plan: FaultPlan::new(0),
                rng: 0,
                seq: 0,
            },
        };
        c.set(tf);
    }
    tf
}

/// One decision at `site`, counted and traced: the draw when it fires,
/// `None` when it does not (or when disarmed).
#[inline]
fn decide(site: FaultSite) -> Option<u64> {
    CACHE.with(|c| {
        let mut tf = refresh(c);
        if !tf.armed {
            return None;
        }
        if tf.plan.declared_only && probe::role().is_none() {
            return None; // bystander thread: plan scoped to declared roles
        }
        let draw = plan::splitmix64(&mut tf.rng);
        let fired = tf.plan.fires(site, (draw & 0xFFFF) as u16);
        let seq = tf.seq;
        tf.seq = tf.seq.wrapping_add(1);
        c.set(tf);
        // relaxed: monotone diagnostics counters.
        DECISIONS[site as usize].fetch_add(1, Ordering::Relaxed);
        if fired {
            FIRED[site as usize].fetch_add(1, Ordering::Relaxed); // relaxed: diagnostics
        }
        if tf.plan.record_trace {
            trace::push(FaultRecord {
                role: role(),
                seq,
                site,
                fired,
            });
        }
        fired.then_some(draw)
    })
}

/// Per-site decision statistics since the last [`install`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteStats {
    /// The site.
    pub site: FaultSite,
    /// Decisions asked.
    pub decisions: u64,
    /// Decisions that fired.
    pub fired: u64,
}

/// Snapshot every site's counters.
pub fn stats() -> Vec<SiteStats> {
    FaultSite::ALL
        .iter()
        .map(|&site| SiteStats {
            site,
            // relaxed: advisory counter snapshot.
            decisions: DECISIONS[site as usize].load(Ordering::Relaxed),
            fired: FIRED[site as usize].load(Ordering::Relaxed),
        })
        .collect()
}

/// Total faults fired across all sites since the last [`install`].
pub fn total_fired() -> u64 {
    // relaxed: advisory counter sum.
    FIRED.iter().map(|f| f.load(Ordering::Relaxed)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use machk_sync::probe::{fire, jitter, set_role};

    /// The global plan is process state; tests that install plans
    /// serialize on this.
    static TEST_GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_never_fires() {
        let _g = TEST_GATE.lock().unwrap();
        disarm();
        for site in FaultSite::ALL {
            assert!(!fire(site));
        }
    }

    #[test]
    fn always_rate_always_fires() {
        let _g = TEST_GATE.lock().unwrap();
        install(FaultPlan::uniform(1, ALWAYS));
        set_role(0);
        for site in FaultSite::ALL {
            assert!(fire(site));
        }
        disarm();
    }

    #[test]
    fn zero_rate_never_fires_but_counts() {
        let _g = TEST_GATE.lock().unwrap();
        install(FaultPlan::new(2));
        set_role(0);
        for _ in 0..100 {
            assert!(!fire(FaultSite::RpcDeadPort));
        }
        let s = stats();
        let rpc = s.iter().find(|s| s.site == FaultSite::RpcDeadPort).unwrap();
        assert_eq!(rpc.decisions, 100);
        assert_eq!(rpc.fired, 0);
        disarm();
    }

    #[test]
    fn same_seed_same_decisions() {
        let _g = TEST_GATE.lock().unwrap();
        let run = || -> Vec<bool> {
            install(FaultPlan::uniform(0xFEED, 20_000).with_trace());
            set_role(7);
            let v = (0..256).map(|_| fire(FaultSite::SimpleTryFail)).collect();
            disarm();
            v
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.iter().any(|&f| f), "rate ~30% should fire in 256 draws");
        assert!(a.iter().any(|&f| !f));
    }

    #[test]
    fn trace_rerun_is_byte_identical() {
        let _g = TEST_GATE.lock().unwrap();
        let run = || -> String {
            install(FaultPlan::uniform(99, 10_000).with_trace());
            set_role(1);
            for _ in 0..64 {
                let _ = fire(FaultSite::EventDropWakeup);
                let _ = jitter(FaultSite::SimpleReleaseDelay, 512);
            }
            let rendered = trace::render(trace::snapshot());
            disarm();
            rendered
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical seeds must yield identical fault traces");
        assert!(!a.is_empty());
    }

    #[test]
    fn jitter_magnitude_in_range_and_deterministic() {
        let _g = TEST_GATE.lock().unwrap();
        let run = || -> Vec<Option<u32>> {
            install(FaultPlan::uniform(5, 40_000));
            set_role(3);
            let v = (0..128)
                .map(|_| jitter(FaultSite::SimpleReleaseDelay, 100))
                .collect();
            disarm();
            v
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().flatten().all(|&j| j < 100));
        assert!(a.iter().any(|j| j.is_some()));
    }

    #[test]
    fn roles_get_distinct_streams() {
        let _g = TEST_GATE.lock().unwrap();
        install(FaultPlan::uniform(11, 32_768));
        set_role(0);
        let a: Vec<bool> = (0..128).map(|_| fire(FaultSite::RefTakeSlow)).collect();
        set_role(1);
        let b: Vec<bool> = (0..128).map(|_| fire(FaultSite::RefTakeSlow)).collect();
        disarm();
        assert_ne!(a, b);
    }
}
