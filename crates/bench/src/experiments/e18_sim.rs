//! E18 — deterministic schedule exploration on simulated N-core hosts.
//!
//! E17 shakes the stack with seeded *faults*; E18 shakes it with seeded
//! *schedules*. Every run executes on a `machk-sim` host: threads are
//! scheduled one at a time by a seeded PRNG (or a bounded-exhaustive
//! DFS prefix), time is virtual, and a run is a pure function of
//! `(seed, cores, program)` — so each of the thousands of interleavings
//! explored here is replayable byte-for-byte from a printed token.
//!
//! Four campaigns, with the claims asserted as they run:
//!
//! 1. **§6 reference-count ledger** — the take/release/drain protocol
//!    under random walks *and* bounded-exhaustive DFS (depth- and
//!    preemption-bounded, CHESS-style): every explored schedule must
//!    leave the ledger balanced at exactly the creation reference.
//! 2. **§7 deactivation-style deadlock backout** — two writers take two
//!    complex locks in opposite orders with deadlines; every schedule
//!    must end in diagnose-backout-retry, never a hang.
//! 3. **E17 chaos under exploration** — the §6 lost-wakeup storm with
//!    wakeups *dropped by fault injection* while the scheduler explores:
//!    bounded blocks must recover on every schedule, and the refcount
//!    ledger carried through the queue must balance.
//! 4. **E1 on simulated cores** — the word-vs-queued policy comparison
//!    on an 8-core simulated host (coherence charged per same-line
//!    spinner) versus a 1-core host (no coherence, FIFO convoying
//!    dominates): the queued-lock crossover must appear at 8 cores and
//!    vanish at 1.
//!
//! Acceptance (full mode): ≥ 10,000 distinct schedules, zero hangs,
//! zero ledger violations, crossover present at 8 simulated cores and
//! absent at 1.

#[cfg(feature = "sim")]
mod simulated {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use machk_core::sync::{host, SpinPolicy};
    use machk_core::{
        assert_wait, thread_block_timeout, thread_wakeup, ComplexLock, Event, JitterBackoff, Mcs,
        RawSimpleLock, ShardedRefCount, TasThenTtas, Ticket, WaitResult, WithBackoff,
    };
    use machk_fault::{rate_from_prob, FaultPlan, FaultSite};
    use machk_sim::{dfs, random_walks, run as sim_run, DfsBounds, ExploreStats, SimConfig};

    use crate::experiments::Opts;
    use crate::report::BenchReport;
    use crate::util::Table;

    /// Recovery events observed across all explored schedules (global:
    /// exploration closures cannot return values).
    static BACKOUTS: AtomicU64 = AtomicU64::new(0);
    static WAKEUP_TIMEOUTS: AtomicU64 = AtomicU64::new(0);

    /// §6: three holders take and release against one sharded count;
    /// any schedule that loses a count or steals the final release
    /// panics (and would be reported with its replay token).
    fn refcount_race() {
        let count = Arc::new(ShardedRefCount::new());
        let ts: Vec<_> = (0..3)
            .map(|_| {
                let count = Arc::clone(&count);
                host::spawn(move || {
                    for _ in 0..6 {
                        count.take();
                        host::yield_now();
                        assert!(!count.release(), "final release stolen from creator");
                    }
                })
            })
            .collect();
        for t in ts {
            host::join(t);
        }
        assert_eq!(count.drain_audit().total, 1, "ledger out of balance");
        assert!(count.release(), "creator must observe the final release");
    }

    /// §7: two writers, two complex locks, opposite orders, deadlines.
    /// The §7.1 discipline — diagnose the timeout, back the first lock
    /// out, jitter, retry — must converge on every explored schedule.
    fn deactivation_backout() {
        let a = Arc::new(ComplexLock::new(true));
        let b = Arc::new(ComplexLock::new(true));
        let writer = |first: Arc<ComplexLock>, second: Arc<ComplexLock>| {
            move || {
                for _ in 0..2 {
                    let mut backoff = JitterBackoff::new();
                    loop {
                        first.write_raw();
                        host::advance(300);
                        match second.write_raw_with_deadline(Duration::from_millis(1)) {
                            Ok(()) => {
                                host::advance(300);
                                second.done_raw();
                                first.done_raw();
                                break;
                            }
                            Err(_) => {
                                // Backout: release what we hold, let the
                                // peer through, retry after jitter.
                                first.done_raw();
                                BACKOUTS.fetch_add(1, Ordering::Relaxed);
                                backoff.pause();
                            }
                        }
                    }
                }
            }
        };
        let t1 = host::spawn(writer(Arc::clone(&a), Arc::clone(&b)));
        let t2 = host::spawn(writer(b, a));
        host::join(t1);
        host::join(t2);
    }

    /// E17's §6 storm under exploration: a producer hands `N` items to
    /// a consumer through an event whose wakeups are dropped with
    /// probability 0.5 by fault injection. The consumer's bounded block
    /// plus recheck must absorb every drop on every schedule, and the
    /// per-item references must audit back to exactly 1.
    fn chaos_lost_wakeups() {
        machk_fault::install(
            FaultPlan::new(0xC4A05)
                .with_rate(FaultSite::EventDropWakeup, rate_from_prob(0.5))
                .declared_roles_only(),
        );
        const N: u64 = 8;
        const EV: Event = Event(0xE18);
        let items = Arc::new(AtomicU64::new(0));
        let count = Arc::new(ShardedRefCount::new());

        let producer = {
            let items = Arc::clone(&items);
            let count = Arc::clone(&count);
            host::spawn(move || {
                machk_core::sync::probe::set_role(21);
                for _ in 0..N {
                    count.take(); // reference travels with the item
                    items.fetch_add(1, Ordering::Release);
                    let _ = thread_wakeup(EV); // may be dropped
                    host::sleep(Duration::from_micros(20));
                }
            })
        };
        let consumer = {
            let items = Arc::clone(&items);
            let count = Arc::clone(&count);
            host::spawn(move || {
                machk_core::sync::probe::set_role(22);
                let mut got = 0;
                while got < N {
                    if items
                        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
                        .is_ok()
                    {
                        assert!(!count.release(), "item reference was the last one");
                        got += 1;
                        continue;
                    }
                    // §6 split wait with a bound: a dropped wakeup costs
                    // one timeout and a recheck, never a hang.
                    assert_wait(EV, false);
                    if thread_block_timeout(Duration::from_micros(500)) == WaitResult::TimedOut {
                        WAKEUP_TIMEOUTS.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        };
        host::join(producer);
        host::join(consumer);
        machk_fault::disarm();
        assert_eq!(count.drain_audit().total, 1, "chaos ledger out of balance");
    }

    /// E1 on simulated cores: total virtual time for 8 threads × `ops`
    /// lock/unlock rounds under policy `P` on a `cores`-CPU host.
    fn e1_clock_ns<P: SpinPolicy>(cores: usize, ops: u64) -> u64 {
        let cfg = SimConfig::DEFAULT.with_cores(cores).with_seed(0xE1_51);
        sim_run(&cfg, move || {
            let lock = Arc::new(RawSimpleLock::<P>::new());
            let ts: Vec<_> = (0..8)
                .map(|_| {
                    let lock = Arc::clone(&lock);
                    host::spawn(move || {
                        for _ in 0..ops {
                            let g = lock.lock();
                            host::advance(400); // critical section
                            drop(g);
                            host::advance(800); // think time
                        }
                    })
                })
                .collect();
            for t in ts {
                host::join(t);
            }
        })
        .unwrap_or_else(|e| panic!("E1-sim({cores} cores, {}) failed: {e}", P::NAME))
        .clock_ns
    }

    /// `(name, clock at 1 core, clock at 8 cores)` for policy `P`.
    fn e1_row<P: SpinPolicy>(name: &'static str, ops: u64) -> (&'static str, u64, u64) {
        (name, e1_clock_ns::<P>(1, ops), e1_clock_ns::<P>(8, ops))
    }

    /// Everything the table and the metrics report.
    pub struct Summary {
        stats: ExploreStats,
        backouts: u64,
        wakeup_timeouts: u64,
        /// `(policy name, clock at 1 core, clock at 8 cores)`.
        e1: Vec<(&'static str, u64, u64)>,
        crossover_at_8: bool,
        crossover_at_1: bool,
        quick: bool,
    }

    fn campaign(quick: bool, base_seed: Option<u64>) -> Summary {
        BACKOUTS.store(0, Ordering::Relaxed);
        WAKEUP_TIMEOUTS.store(0, Ordering::Relaxed);
        // 8 cores; the base seed defaults to "mach" and is overridable
        // (CI explores a small fixed matrix of them).
        let cfg = match base_seed {
            Some(s) => SimConfig::DEFAULT.with_seed(if s == 0 { 1 } else { s }),
            None => SimConfig::DEFAULT,
        };
        // Random walks collide (~20% of walks rediscover a schedule a
        // sibling already hit), so the full budgets overshoot the
        // 10k-distinct acceptance floor by a wide margin.
        let (walks_a, dfs_runs, walks_b, walks_c, e1_ops) = if quick {
            (120, 150, 60, 60, 15)
        } else {
            (6400, 2000, 3600, 3600, 40)
        };

        // Campaign 1: §6 ledger, random walks + bounded-exhaustive DFS.
        let mut stats = random_walks(&cfg, walks_a, |_| refcount_race);
        stats.merge(dfs(
            &cfg.with_seed(cfg.seed ^ 0x6D_F5),
            DfsBounds {
                depth: 36,
                max_preemptions: 2,
                max_runs: dfs_runs,
            },
            |_| refcount_race,
        ));

        // Campaign 2: §7 backout; a different base seed keeps the walk
        // streams disjoint from campaign 1's.
        stats.merge(random_walks(
            &cfg.with_seed(cfg.seed ^ 0x7_BAC),
            walks_b,
            |_| deactivation_backout,
        ));

        // Campaign 3: E17 chaos under exploration.
        stats.merge(random_walks(
            &cfg.with_seed(cfg.seed ^ 0x17_E18),
            walks_c,
            |_| chaos_lost_wakeups,
        ));

        // Campaign 4: E1 on simulated hosts.
        let e1 = vec![
            e1_row::<WithBackoff<TasThenTtas>>("tas-then-ttas", e1_ops),
            e1_row::<Ticket>("ticket", e1_ops),
            e1_row::<Mcs>("mcs", e1_ops),
        ];
        let word_1 = e1[0].1;
        let word_8 = e1[0].2;
        let queued_1 = e1[1..].iter().map(|r| r.1).min().unwrap();
        let queued_8 = e1[1..].iter().map(|r| r.2).min().unwrap();

        Summary {
            stats,
            backouts: BACKOUTS.load(Ordering::Relaxed),
            wakeup_timeouts: WAKEUP_TIMEOUTS.load(Ordering::Relaxed),
            e1,
            crossover_at_8: queued_8 < word_8,
            crossover_at_1: queued_1 < word_1,
            quick,
        }
    }

    fn assert_claims(s: &Summary) {
        assert_eq!(s.stats.hangs, 0, "a schedule hung: {:?}", s.stats.failures);
        assert_eq!(
            s.stats.panics, 0,
            "a ledger or protocol assertion failed under some schedule: {:?}",
            s.stats.failures
        );
        let floor = if s.quick { 300 } else { 10_000 };
        assert!(
            s.stats.distinct >= floor,
            "only {} distinct schedules explored (need >= {floor})",
            s.stats.distinct
        );
        assert!(s.backouts > 0, "no deadline backout ever exercised");
        assert!(s.wakeup_timeouts > 0, "no dropped wakeup ever recovered");
        assert!(
            s.crossover_at_8,
            "queued policies must beat word spinning on the 8-core host: {:?}",
            s.e1
        );
        assert!(
            !s.crossover_at_1,
            "crossover must be absent on the 1-core host (no coherence to save): {:?}",
            s.e1
        );
    }

    /// Run the four campaigns, assert the claims, and record them.
    /// `--sim-seed N` overrides the base scheduler seed (CI runs a small
    /// fixed matrix of them).
    pub fn run(report: &mut BenchReport, opts: &Opts) {
        let s = campaign(opts.quick, opts.sim_seed);
        assert_claims(&s);

        let mut t = Table::new(
            "E18: schedule exploration on simulated hosts (8 cores unless noted)",
            &["metric", "value"],
        );
        t.row(&["schedules run".into(), s.stats.runs.to_string()]);
        t.row(&["distinct schedules".into(), s.stats.distinct.to_string()]);
        t.row(&[
            "hangs (deadlock/step-limit)".into(),
            s.stats.hangs.to_string(),
        ]);
        t.row(&[
            "ledger/protocol violations".into(),
            s.stats.panics.to_string(),
        ]);
        t.row(&[
            "scheduling steps total".into(),
            s.stats.steps_total.to_string(),
        ]);
        t.row(&[
            "virtual time simulated".into(),
            format!("{}ms", s.stats.virtual_ns_total / 1_000_000),
        ]);
        t.row(&[
            "deadline backouts (§7 discipline)".into(),
            s.backouts.to_string(),
        ]);
        t.row(&[
            "dropped wakeups recovered by bounded block".into(),
            s.wakeup_timeouts.to_string(),
        ]);
        for (name, c1, c8) in &s.e1 {
            t.row(&[
                format!("E1-sim {name}: virtual ns, 1 core / 8 cores"),
                format!("{c1} / {c8}"),
            ]);
        }
        t.row(&[
            "queued beats word at 8 cores".into(),
            s.crossover_at_8.to_string(),
        ]);
        t.row(&[
            "queued beats word at 1 core".into(),
            s.crossover_at_1.to_string(),
        ]);
        t.note(
            "every run replayable: failures print `sim:v1:<seed>:<cores>:…` tokens (none occurred)",
        );
        t.note("virtual time: coherence charged per same-line spinner, zero on 1 core");

        report.table(t);

        // Everything here is virtual time, deterministic given the seed
        // matrix, so every value gates exact.
        report.exact("sim_enabled", 1.0, "bool");
        report.exact("hangs", s.stats.hangs as f64, "count");
        report.exact("violations", s.stats.panics as f64, "count");
        report.exact(
            "crossover_at_8_cores",
            u64::from(s.crossover_at_8) as f64,
            "bool",
        );
        report.exact(
            "crossover_at_1_core",
            u64::from(s.crossover_at_1) as f64,
            "bool",
        );
        report.exact("distinct_schedules", s.stats.distinct as f64, "count");
        report.exact("runs", s.stats.runs as f64, "count");
        report.exact("steps_total", s.stats.steps_total as f64, "count");
        report.exact("virtual_ns_total", s.stats.virtual_ns_total as f64, "ns");
        report.exact("backouts", s.backouts as f64, "count");
        report.exact("wakeup_timeouts", s.wakeup_timeouts as f64, "count");
    }
}

#[cfg(feature = "sim")]
pub use simulated::run;

/// Without the sim feature there is no simulator — which is the
/// zero-cost claim, stated as a table.
#[cfg(not(feature = "sim"))]
pub fn run(report: &mut crate::report::BenchReport, _opts: &super::Opts) {
    report.compiled_out(
        "sim_enabled",
        "sim",
        "E18: schedule exploration on simulated hosts (sim layer)",
        "to explore schedules; default builds pay nothing",
    );
}
