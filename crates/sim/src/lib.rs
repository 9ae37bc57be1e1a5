//! # machk-sim — deterministic virtual-time simulation of N-core hosts
//!
//! The paper's claims are about *interleavings*: a ref-count race only
//! bites when a release and a lookup interleave just so (§6), a
//! deactivation deadlock needs the VM path and the deactivation path to
//! meet in one window (§7). Real hosts explore interleavings by luck;
//! this crate explores them on purpose.
//!
//! It provides a [`Host`](machk_sync::Host) implementation — [`SimHost`]
//! — that runs the whole sync stack (`machk-sync`, `machk-lock`,
//! `machk-event`, `machk-intr`, `machk-fault`) unchanged on:
//!
//! * **simulated N cores** on any box (cores = 8/32/64 is a config
//!   field, not hardware),
//! * a **virtual clock** that advances only at scheduling points, with a
//!   cost model charging cache-coherence penalties to shared-line
//!   spinning — so the queued-vs-word-lock crossover of §2/E1 shows up
//!   at 8 simulated cores and vanishes at 1,
//! * a **seeded scheduler** that decides who runs at every spin, yield,
//!   sleep, park, and spawn, making a run a pure function of
//!   `(seed, cores, program)` — any failure replays byte-for-byte from
//!   its printed [`ReplayToken`],
//! * **exploration drivers** ([`random_walks`], [`dfs`]) that sweep
//!   thousands of distinct schedules, bounded-exhaustively or at random,
//!   and report every hang or assertion failure with its token.
//!
//! ## Example
//!
//! ```
//! use machk_sim::{run, SimConfig};
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let report = run(&SimConfig::DEFAULT.with_cores(8), || {
//!     let n = Arc::new(AtomicU64::new(0));
//!     let tokens: Vec<_> = (0..4)
//!         .map(|_| {
//!             let n = n.clone();
//!             machk_sync::host::spawn(move || {
//!                 n.fetch_add(1, Ordering::Relaxed);
//!             })
//!         })
//!         .collect();
//!     for t in tokens {
//!         machk_sync::host::join(t);
//!     }
//!     n.load(Ordering::Relaxed)
//! })
//! .unwrap();
//! assert_eq!(report.value, 4);
//! ```
//!
//! Deadlocks cannot hang the test process: a state with no runnable
//! thread and no pending timer returns [`SimError::Deadlock`]
//! immediately, and spin livelocks hit the step budget
//! ([`SimError::StepLimit`]). Virtual-time sleeps are free, so watchdog
//! deadlines measured in seconds expire in microseconds of real time.

pub mod config;
pub mod explore;
pub mod sched;

pub use config::{
    BadReplayToken, CostModel, ReplayToken, SchedMode, ScheduleTrace, SimConfig, NOT_RUNNABLE,
};
pub use explore::{dfs, random_walks, DfsBounds, ExploreStats};
pub use sched::{replay, run, SimError, SimHost, SimReport};

#[cfg(test)]
mod tests {
    use super::*;
    use machk_sync::host;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn cfg() -> SimConfig {
        SimConfig::DEFAULT
    }

    #[test]
    fn single_thread_completes() {
        let r = run(&cfg(), || 41 + 1).unwrap();
        assert_eq!(r.value, 42);
        assert!(r.steps >= 1);
        assert!(!r.trace.tids.is_empty());
    }

    #[test]
    fn spawn_and_join_children() {
        let r = run(&cfg(), || {
            let n = Arc::new(AtomicU64::new(0));
            let ts: Vec<_> = (0..5)
                .map(|i| {
                    let n = n.clone();
                    host::spawn(move || {
                        n.fetch_add(i, Ordering::Relaxed);
                    })
                })
                .collect();
            for t in ts {
                host::join(t);
            }
            n.load(Ordering::Relaxed)
        })
        .unwrap();
        assert_eq!(r.value, 1 + 2 + 3 + 4);
    }

    #[test]
    fn identical_seed_identical_schedule() {
        let scenario = || {
            let n = Arc::new(AtomicU64::new(0));
            let ts: Vec<_> = (0..4)
                .map(|_| {
                    let n = n.clone();
                    host::spawn(move || {
                        for _ in 0..8 {
                            n.fetch_add(1, Ordering::Relaxed);
                            host::yield_now();
                        }
                    })
                })
                .collect();
            for t in ts {
                host::join(t);
            }
            n.load(Ordering::Relaxed)
        };
        let a = run(&cfg().with_seed(77), scenario).unwrap();
        let b = run(&cfg().with_seed(77), scenario).unwrap();
        assert_eq!(a.trace.tids, b.trace.tids, "same seed, same schedule");
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.clock_ns, b.clock_ns);
        let c = run(&cfg().with_seed(78), scenario).unwrap();
        assert_ne!(
            a.trace.tids, c.trace.tids,
            "different seed should pick a different interleaving here"
        );
    }

    #[test]
    fn virtual_sleep_is_instant_and_charged() {
        let r = run(&cfg(), || {
            host::sleep(Duration::from_secs(5));
        })
        .unwrap();
        assert!(r.clock_ns >= 5_000_000_000, "clock advanced by the sleep");
        // Real time is not asserted, but the test itself finishing is
        // the point: a 5s virtual sleep costs one scheduling step.
    }

    #[test]
    fn parked_everyone_is_a_deadlock_not_a_hang() {
        let err = run(&cfg(), || {
            let t = host::spawn(|| {
                host::park(); // nobody will unpark us
            });
            host::join(t);
        })
        .unwrap_err();
        match &err {
            SimError::Deadlock { blocked, .. } => {
                assert!(blocked.iter().any(|b| b.contains("parked")), "{blocked:?}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
        // The error is replayable and printable.
        let shown = err.to_string();
        assert!(shown.contains("replay=sim:v1:"), "{shown}");
    }

    #[test]
    fn spin_livelock_hits_step_limit() {
        let mut c = cfg();
        c.max_steps = 2_000;
        let err = run(&c, || {
            let never = AtomicU64::new(0);
            while never.load(Ordering::Acquire) == 0 {
                host::spin_hint(machk_sync::SpinSite::Generic);
            }
        })
        .unwrap_err();
        assert!(matches!(err, SimError::StepLimit { .. }), "{err:?}");
    }

    #[test]
    fn unpark_before_park_leaves_permit() {
        let r = run(&cfg(), || {
            let me = host::current_host().unwrap().current_id();
            let t = host::spawn(move || {
                host::current_host().unwrap().unpark(me);
            });
            host::join(t);
            host::park(); // consumes the stored permit; must not block
            7u32
        })
        .unwrap();
        assert_eq!(r.value, 7);
    }

    #[test]
    fn park_timeout_wakes_by_timer() {
        let r = run(&cfg(), || {
            host::park_timeout(Duration::from_millis(3));
            host::now()
        })
        .unwrap();
        assert!(r.value >= 3_000_000);
    }

    #[test]
    fn scenario_panic_is_reported_with_replay_token() {
        let err = run(&cfg(), || {
            let t = host::spawn(|| {
                panic!("deliberate scenario failure");
            });
            host::join(t);
        })
        .unwrap_err();
        match &err {
            SimError::Panicked { message, token, .. } => {
                assert!(message.contains("deliberate"), "{message}");
                // Round-trip the token through its printed form.
                let reparsed: ReplayToken = token.to_string().parse().unwrap();
                assert_eq!(&reparsed, token);
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn failing_run_replays_byte_for_byte() {
        let scenario = || {
            let t = host::spawn(|| {
                host::park();
            });
            host::join(t);
        };
        let err = run(&cfg().with_seed(1234), scenario).unwrap_err();
        let err2 = replay(&cfg(), err.token(), scenario).unwrap_err();
        assert_eq!(err.trace().tids, err2.trace().tids);
        assert_eq!(err.kind(), err2.kind());
    }

    #[test]
    fn thread_seeds_are_stable_and_distinct() {
        let r = run(&cfg(), || {
            let mine = host::thread_seed();
            let t = host::spawn(move || {
                assert_ne!(host::thread_seed(), mine);
                assert_ne!(host::thread_seed(), 0);
            });
            host::join(t);
            mine
        })
        .unwrap();
        let r2 = run(&cfg(), host::thread_seed).unwrap();
        assert_eq!(r.value, r2.value, "seed derives from (sim seed, tid) only");
    }

    #[test]
    fn cores_and_cpu_ids_visible() {
        let r = run(&cfg().with_cores(32), || {
            let h = host::current_host().unwrap();
            (h.cores(), h.cpu_id())
        })
        .unwrap();
        assert_eq!(r.value.0, 32);
        assert!(r.value.1 < 32);
    }

    /// Two threads race a check-then-act on a shared cell; only a
    /// preemption inside the window trips the double-write. DFS with a
    /// 1-preemption budget must find it, and the failure must replay.
    #[test]
    fn dfs_finds_check_then_act_race() {
        fn scenario() -> impl FnOnce() + Send + 'static {
            move || {
                let cell = Arc::new(AtomicU64::new(0));
                let claims = Arc::new(AtomicU64::new(0));
                let ts: Vec<_> = (0..2)
                    .map(|_| {
                        let cell = cell.clone();
                        let claims = claims.clone();
                        host::spawn(move || {
                            if cell.load(Ordering::SeqCst) == 0 {
                                host::yield_now(); // the racy window
                                cell.store(1, Ordering::SeqCst);
                                claims.fetch_add(1, Ordering::SeqCst);
                            }
                        })
                    })
                    .collect();
                for t in ts {
                    host::join(t);
                }
                assert!(
                    claims.load(Ordering::SeqCst) <= 1,
                    "both threads claimed the cell"
                );
            }
        }
        let stats = dfs(
            &cfg(),
            DfsBounds {
                depth: 30,
                max_preemptions: 1,
                max_runs: 500,
            },
            |_| scenario(),
        );
        assert!(
            stats.panics > 0,
            "DFS must expose the race: {}",
            stats.summary()
        );
        assert_eq!(stats.hangs, 0, "{}", stats.summary());
        assert!(stats.distinct > 1, "{}", stats.summary());
        // And the recorded failure replays to the same verdict.
        let failure = &stats.failures[0];
        let again = replay(&cfg(), failure.token(), scenario()).unwrap_err();
        assert_eq!(failure.trace().tids, again.trace().tids);
        assert!(matches!(again, SimError::Panicked { .. }));
    }

    #[test]
    fn random_walks_cover_distinct_schedules() {
        let stats = random_walks(&cfg().with_seed(9), 64, |_| {
            || {
                let n = Arc::new(AtomicU64::new(0));
                let ts: Vec<_> = (0..3)
                    .map(|_| {
                        let n = n.clone();
                        host::spawn(move || {
                            for _ in 0..4 {
                                n.fetch_add(1, Ordering::Relaxed);
                                host::yield_now();
                            }
                        })
                    })
                    .collect();
                for t in ts {
                    host::join(t);
                }
            }
        });
        assert!(stats.clean(), "{}", stats.summary());
        assert_eq!(stats.runs, 64);
        assert!(stats.distinct > 32, "walks explore: {}", stats.summary());
    }

    #[test]
    fn coherence_cost_scales_with_cores() {
        // The same spin-heavy program must cost more virtual time per
        // step at 1 core (no parallelism) than at 8 (steps divided by
        // eff), while shared-line spinning at 8 cores pays coherence
        // that a single core never sees. Just sanity-check both run and
        // produce different clocks.
        let scenario = || {
            let ts: Vec<_> = (0..4)
                .map(|_| {
                    host::spawn(|| {
                        for _ in 0..50 {
                            host::spin_hint(machk_sync::SpinSite::SharedLine(0x1000));
                        }
                    })
                })
                .collect();
            for t in ts {
                host::join(t);
            }
        };
        let one = run(&cfg().with_cores(1).with_seed(5), scenario).unwrap();
        let eight = run(&cfg().with_cores(8).with_seed(5), scenario).unwrap();
        assert_ne!(one.clock_ns, eight.clock_ns);
    }

    #[test]
    fn describe_contains_replay_token() {
        let r = run(&cfg(), || host::describe().unwrap()).unwrap();
        assert!(r.value.contains("machk-sim host"), "{}", r.value);
        assert!(r.value.contains("replay token: sim:v1:"), "{}", r.value);
    }
}
