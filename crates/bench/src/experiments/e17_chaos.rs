//! E17 — chaos: seeded fault schedules against the recovery machinery.
//!
//! E6/E7/E10/E13 each reproduce one of the paper's failure modes once,
//! in a hand-scripted schedule. E17 turns the screw: for each of many
//! seeds it installs a `machk_fault::FaultPlan` and drives four
//! scenario families — lost wakeups (§6), an AB/BA deadlock storm (§7),
//! refcount saturation and ledger churn (§8), and the shutdown RPC
//! storm (§9–10) — asserting three claims per seed:
//!
//! 1. **diagnosed, never hung** — every scenario finishes inside an
//!    outer watchdog deadline; injected deadlocks surface as
//!    `LockTimeout` diagnoses followed by backout-and-retry, injected
//!    lost wakeups as bounded-block timeouts followed by a recheck;
//! 2. **ledgers balance** — reference counts audit to the exact model
//!    value, RPC reference flow stays balanced, saturated counts peg
//!    instead of wrapping;
//! 3. **replayable** — a fixed-decision-structure probe run twice under
//!    the same seed yields byte-for-byte identical fault traces.
//!
//! Every plan is scoped to declared roles so the armed windows cannot
//! perturb bystander threads of the enclosing test process.

use super::Opts;
use crate::report::BenchReport;

#[cfg(feature = "probe")]
mod armed {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use machk_core::sync::probe::set_role;
    use machk_core::{
        assert_wait, thread_block_timeout, thread_wakeup, ComplexLock, Event, JitterBackoff,
        Kobj, RawSimpleLock, ShardedRefCount, WaitResult,
    };
    use machk_fault::{rate_from_prob, FaultPlan, FaultSite};
    use machk_intr::{run_threads_with_deadline, Machine, SplLock};
    use machk_ipc::{Message, Port, RefSemantics, RpcError, RpcStats};
    use machk_kernel::{kernel_dispatch_table, op_ids, ops::create_task_with_port, shutdown};

    use crate::report::BenchReport;
    use crate::util::Table;

    /// Outer watchdog for every scenario: if recovery ever fails and a
    /// scenario wedges, this converts the hang into a diagnosed failure.
    const SCENARIO_LIMIT: Duration = Duration::from_secs(60);

    /// Totals accumulated across all seeds, reported in the table.
    #[derive(Default)]
    pub struct Totals {
        pub schedules: u64,
        pub faults_fired: u64,
        pub deadlocks_diagnosed: u64,
        pub wakeups_recovered: u64,
        pub upgrades_refused: u64,
        pub spl_diagnosed: u64,
        pub replies_dropped: u64,
        pub dead_ports: u64,
        /// FNV-1a-64 of each seed's rendered probe trace, in seed order.
        pub trace_digests: Vec<u64>,
    }

    /// FNV-1a-64 over `bytes`, continuing from `h` (start from
    /// [`FNV_OFFSET`]).
    fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    fn finish(
        name: &str,
        r: Result<Vec<()>, machk_intr::DeadlockDetected>,
    ) {
        if let Err(e) = r {
            // The "never hung" claim failed: escalate with the full
            // diagnostic dump before failing the experiment.
            panic!("E17 scenario `{name}` wedged: {}", machk_intr::escalate(e));
        }
    }

    /// §6: producer/consumer over an event with wakeups dropped and
    /// spurious wakes injected. Recovery: the consumer blocks with a
    /// bound and rechecks, so a lost wakeup costs a timeout, never a
    /// hang.
    fn lost_wakeup_storm(seed: u64, totals: &mut Totals) {
        // Deterministic half: a wakeup that is *certainly* dropped must
        // surface as a bounded-block timeout — recovery independent of
        // scheduling, asserted every seed.
        machk_fault::install(
            FaultPlan::new(seed)
                .with_rate(FaultSite::EventDropWakeup, machk_fault::ALWAYS)
                .declared_roles_only(),
        );
        std::thread::scope(|s| {
            s.spawn(|| {
                set_role(10);
                let flag = AtomicU64::new(0);
                let ev = Event::from_addr(&flag);
                assert_wait(ev, false);
                assert_eq!(thread_wakeup(ev), 0, "the injected drop swallowed the wakeup");
                assert_eq!(
                    thread_block_timeout(Duration::from_millis(2)),
                    WaitResult::TimedOut,
                    "lost wakeup diagnosed as a timeout, not a hang"
                );
            });
        });
        totals.wakeups_recovered += 1;

        // Stochastic half: producer/consumer racing under partial drop
        // and spurious-wake rates.
        let plan = FaultPlan::new(seed)
            .with_rate(FaultSite::EventDropWakeup, rate_from_prob(0.40))
            .with_rate(FaultSite::EventSpuriousWake, rate_from_prob(0.20))
            .declared_roles_only();
        machk_fault::install(plan);
        let items = Arc::new(AtomicU64::new(0));
        let recovered = Arc::new(AtomicU64::new(0));
        let n: u64 = 64;

        let producer = {
            let items = Arc::clone(&items);
            Box::new(move || {
                set_role(11);
                for i in 0..n {
                    // Pace production so the consumer genuinely drains
                    // and blocks (on a 1-CPU host an unpaced producer
                    // finishes before the consumer ever waits, and the
                    // lost-wakeup path would go unexercised).
                    if i % 4 == 0 {
                        std::thread::sleep(Duration::from_micros(300));
                    }
                    items.fetch_add(1, Ordering::Release);
                    thread_wakeup(Event::from_addr(&*items));
                }
            }) as Box<dyn FnOnce() + Send>
        };
        let consumer = {
            let items = Arc::clone(&items);
            let recovered = Arc::clone(&recovered);
            Box::new(move || {
                set_role(12);
                let ev = Event::from_addr(&*items);
                let mut taken = 0u64;
                while taken < n {
                    let cur = items.load(Ordering::Acquire);
                    if cur > 0
                        && items
                            .compare_exchange(cur, cur - 1, Ordering::AcqRel, Ordering::Relaxed)
                            .is_ok()
                    {
                        taken += 1;
                        continue;
                    }
                    assert_wait(ev, false);
                    // Bounded block: a dropped wakeup surfaces as this
                    // timeout and the loop rechecks — the recovery rule.
                    if thread_block_timeout(Duration::from_millis(2)) == WaitResult::TimedOut {
                        recovered.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }) as Box<dyn FnOnce() + Send>
        };
        finish(
            "lost-wakeup",
            run_threads_with_deadline(vec![producer, consumer], SCENARIO_LIMIT),
        );
        machk_fault::disarm();
        assert_eq!(items.load(Ordering::Relaxed), 0, "all items consumed");
        totals.wakeups_recovered += recovered.load(Ordering::Relaxed);
    }

    /// §7-shaped AB/BA deadlock storm: half the threads take A then B,
    /// half B then A, with releases stretched and try-acquisitions
    /// forced to fail. Recovery: `lock_with_deadline` diagnoses the
    /// cycle as a timeout; the loser backs out (drops its hold), pauses
    /// with decorrelated jitter, and retries.
    fn deadlock_storm(seed: u64, totals: &mut Totals) {
        // Deterministic half: a lock that is *certainly* held past the
        // deadline must be diagnosed as a timeout (never a hang), and
        // the waiter must succeed once the holder lets go — asserted
        // every seed, independent of how the stochastic storm schedules.
        {
            let lock: RawSimpleLock = RawSimpleLock::new();
            lock.lock_raw();
            std::thread::scope(|s| {
                s.spawn(|| {
                    match lock.lock_with_deadline(Duration::from_millis(2)) {
                        Ok(_) => panic!("held lock acquired"),
                        Err(e) => assert!(e.waited >= Duration::from_millis(2)),
                    }
                });
            });
            lock.unlock_raw();
            drop(lock.lock_with_deadline(Duration::from_millis(100)).expect("free lock acquired"));
            totals.deadlocks_diagnosed += 1;
        }

        // Stochastic half: the AB/BA storm under forced try-failures
        // and stretched releases.
        let plan = FaultPlan::new(seed)
            .with_rate(FaultSite::SimpleTryFail, rate_from_prob(0.15))
            .with_rate(FaultSite::SimpleReleaseDelay, rate_from_prob(0.25))
            .declared_roles_only();
        machk_fault::install(plan);
        let a: Arc<RawSimpleLock> = Arc::new(RawSimpleLock::new());
        let b = Arc::new(RawSimpleLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let diagnosed = Arc::new(AtomicU64::new(0));
        let threads = 4usize;
        let pairs = 25u64;

        let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..threads)
            .map(|t| {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                let (counter, diagnosed) = (Arc::clone(&counter), Arc::clone(&diagnosed));
                Box::new(move || {
                    set_role(20 + t as u32);
                    let (first, second) = if t % 2 == 0 { (&*a, &*b) } else { (&*b, &*a) };
                    for _ in 0..pairs {
                        let mut backoff = JitterBackoff::new();
                        loop {
                            let g1 = match first.lock_with_deadline(Duration::from_millis(5)) {
                                Ok(g) => g,
                                Err(_) => {
                                    diagnosed.fetch_add(1, Ordering::Relaxed);
                                    backoff.pause();
                                    continue;
                                }
                            };
                            match second.lock_with_deadline(Duration::from_millis(5)) {
                                Ok(g2) => {
                                    counter.fetch_add(1, Ordering::Relaxed);
                                    drop(g2);
                                    drop(g1);
                                    break;
                                }
                                Err(_) => {
                                    // The §7 moment: holding one lock,
                                    // denied the other. Back out fully.
                                    diagnosed.fetch_add(1, Ordering::Relaxed);
                                    drop(g1);
                                    backoff.pause();
                                }
                            }
                        }
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        finish("deadlock-storm", run_threads_with_deadline(bodies, SCENARIO_LIMIT));
        machk_fault::disarm();
        assert_eq!(
            counter.load(Ordering::Relaxed),
            threads as u64 * pairs,
            "every pair eventually completed"
        );
        totals.deadlocks_diagnosed += diagnosed.load(Ordering::Relaxed);
    }

    /// §8: saturation (peg, never wrap) and the drain-time leak audit
    /// under slow-path perturbation.
    fn refcount_storm(seed: u64, _totals: &mut Totals) {
        let plan = FaultPlan::new(seed)
            .with_rate(FaultSite::RefTakeSlow, rate_from_prob(0.50))
            .with_rate(FaultSite::RefReleaseSlow, rate_from_prob(0.50))
            .declared_roles_only();
        machk_fault::install(plan);

        // Saturation: push a near-ceiling count over the top. Pegged
        // means immortal — every release absorbed, never a bogus final.
        let sat = ShardedRefCount::new_with_count(u32::MAX - 64);
        std::thread::scope(|s| {
            s.spawn(|| {
                set_role(30);
                for _ in 0..128 {
                    sat.take();
                }
                // Fast-path takes land in shards; the fold is where the
                // sum crosses the ceiling — and pegs instead of wrapping.
                let audit = sat.drain_audit();
                assert!(audit.pegged, "overflowing fold pegged instead of wrapping");
                assert!(sat.is_pegged());
                for _ in 0..256 {
                    assert!(!sat.release(), "pegged count reported final");
                }
                assert!(sat.drain_audit().pegged, "pegged count is immortal");
            });
        });

        // Ledger: concurrent churn with slow paths perturbed must still
        // audit to exactly the creation reference.
        let count = Arc::new(ShardedRefCount::new());
        let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..4usize)
            .map(|t| {
                let count = Arc::clone(&count);
                Box::new(move || {
                    set_role(31 + t as u32);
                    for _ in 0..200 {
                        count.take();
                        assert!(!count.release(), "final with creation ref held");
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        finish("refcount-storm", run_threads_with_deadline(bodies, SCENARIO_LIMIT));
        machk_fault::disarm();
        let audit = count.drain_audit();
        assert_eq!(audit.total, 1, "ledger balanced: only the creation ref remains");
        assert!(!audit.pegged);
        assert!(count.release(), "exactly one final release");
    }

    /// §9–10: the E13 shutdown storm with dead ports and dropped
    /// replies injected into the RPC path. Every operation completes or
    /// fails with a typed error; the reference flow stays balanced.
    fn shutdown_storm(seed: u64, totals: &mut Totals) {
        let plan = FaultPlan::new(seed)
            .with_rate(FaultSite::RpcDeadPort, rate_from_prob(0.10))
            .with_rate(FaultSite::RpcDropReply, rate_from_prob(0.10))
            .with_rate(FaultSite::SimpleReleaseDelay, rate_from_prob(0.10))
            .declared_roles_only();
        machk_fault::install(plan);
        let table = Arc::new(kernel_dispatch_table());
        let stats = Arc::new(RpcStats::new());
        let (task, port) = create_task_with_port();
        let ops_per_thread = 100u64;
        let outcomes = Arc::new([0u64; 4].map(AtomicU64::new)); // ok, op-err, port-err, dropped

        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = (0..3usize)
            .map(|t| {
                let table = Arc::clone(&table);
                let port = port.clone();
                let stats = Arc::clone(&stats);
                let outcomes = Arc::clone(&outcomes);
                Box::new(move || {
                    set_role(40 + t as u32);
                    for _ in 0..ops_per_thread {
                        let slot = match table.msg_rpc(
                            &port,
                            Message::new(op_ids::TASK_SUSPEND),
                            RefSemantics::Mach30,
                            &stats,
                        ) {
                            Ok(_) => 0,
                            Err(RpcError::Operation(_)) => 1,
                            Err(RpcError::Port(_)) => 2,
                            Err(RpcError::ReplyDropped) => 3,
                            Err(e) => unreachable!("unexpected rpc outcome: {e}"),
                        };
                        outcomes[slot].fetch_add(1, Ordering::Relaxed);
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        {
            let port = port.clone();
            bodies.push(Box::new(move || {
                set_role(43);
                std::thread::sleep(Duration::from_millis(1));
                // Shutdown must win exactly once whatever the chaos.
                shutdown::shutdown_task(&port, task).expect("first shutdown wins");
            }));
        }
        finish("shutdown-storm", run_threads_with_deadline(bodies, SCENARIO_LIMIT));
        machk_fault::disarm();

        let issued: u64 = outcomes.iter().map(|o| o.load(Ordering::Relaxed)).sum();
        assert_eq!(issued, 3 * ops_per_thread, "every op completed or failed cleanly");
        assert!(stats.balanced(), "rpc reference flow unbalanced under chaos");
        assert!(port.kernel_object().is_err(), "step 2 disabled translation");
        assert!(!port.is_alive());
        totals.replies_dropped += outcomes[3].load(Ordering::Relaxed);
        totals.dead_ports += outcomes[2].load(Ordering::Relaxed);
    }

    /// The determinism probe: one role, a fixed operation sequence in
    /// which every decision count is a pure function of the decision
    /// stream itself (no cross-thread timing enters), touching every
    /// fault site. Returns the rendered trace.
    fn probe(seed: u64, totals: &mut Totals) -> String {
        let plan = FaultPlan::uniform(seed, rate_from_prob(0.25))
            .with_trace()
            .declared_roles_only();
        machk_fault::install(plan);
        let upgrades_refused = AtomicU64::new(0);
        let spl_diagnosed = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                set_role(0);
                let lock: RawSimpleLock = RawSimpleLock::new();
                let map = ComplexLock::new(false);
                let count = ShardedRefCount::new();
                let flag = AtomicU64::new(0);
                let machine = Machine::new(1);
                let _cpu = machine.cpu(0).enter();
                let spl = SplLock::new();
                let obj = Kobj::create(0u64);
                let port = Port::create();
                port.set_kernel_object(obj.into_dyn());
                let mut table = machk_ipc::DispatchTable::new();
                table.register::<Kobj<u64>>(1, |c, _m| {
                    let v = c.with_active(|n| {
                        *n += 1;
                        *n
                    })?;
                    Ok(Message::new(1).with_int(v))
                });
                let stats = RpcStats::new();
                for _ in 0..64 {
                    // Simple lock: forced try-fails retry off the same
                    // stream; the release may be stretched.
                    let g = lock
                        .lock_with_deadline(Duration::from_secs(5))
                        .expect("uncontended lock");
                    drop(g);
                    // Event: self-wakeup, possibly dropped; bounded block.
                    assert_wait(Event::from_addr(&flag), false);
                    thread_wakeup(Event::from_addr(&flag));
                    let _ = thread_block_timeout(Duration::from_millis(1));
                    // Complex lock: upgrade, possibly refused (which
                    // releases the read hold, per the Mach convention).
                    map.read_raw();
                    if map.read_to_write_raw() {
                        upgrades_refused.fetch_add(1, Ordering::Relaxed);
                    } else {
                        map.done_raw();
                    }
                    // Refcount slow paths.
                    count.take();
                    assert!(!count.release());
                    // Spl: wrong-level diagnosis path.
                    match spl.lock_result() {
                        Ok(()) => spl.unlock(),
                        Err(_) => {
                            spl_diagnosed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // RPC: dead port / dropped reply.
                    let _ = table.msg_rpc(
                        &port,
                        Message::new(1),
                        RefSemantics::Mach30,
                        &stats,
                    );
                }
                assert!(stats.balanced());
                assert!(count.release());
            });
        });
        let rendered = machk_fault::trace::render(machk_fault::trace::snapshot());
        assert_eq!(machk_fault::trace::truncated(), 0, "probe trace overflowed");
        totals.faults_fired += machk_fault::total_fired();
        totals.upgrades_refused += upgrades_refused.load(Ordering::Relaxed);
        totals.spl_diagnosed += spl_diagnosed.load(Ordering::Relaxed);
        machk_fault::disarm();
        rendered
    }

    /// Run the scenario suite over `seeds` seeds and return the totals.
    fn campaign(seeds: u64) -> Totals {
        let mut totals = Totals::default();
        for seed in 0..seeds {
            // Claim 3: replayable — same seed, byte-identical trace.
            let t1 = probe(seed, &mut totals);
            let t2 = probe(seed, &mut totals);
            assert_eq!(t1, t2, "seed {seed}: fault trace not byte-identical on rerun");
            assert!(!t1.is_empty(), "seed {seed}: probe recorded no decisions");
            totals.trace_digests.push(fnv1a(FNV_OFFSET, t1.as_bytes()));
            // Claims 1 and 2: diagnosed-never-hung, balanced ledgers.
            lost_wakeup_storm(seed, &mut totals);
            deadlock_storm(seed, &mut totals);
            refcount_storm(seed, &mut totals);
            shutdown_storm(seed, &mut totals);
            totals.schedules += 6; // 2 probe runs + 4 scenarios
        }
        // Aggregate floors: with these rates, a run of any size must
        // have both injected *and diagnosed* something, or a hook is
        // dead and the experiment is vacuous.
        assert!(totals.faults_fired > 0, "no fault ever fired");
        assert!(totals.deadlocks_diagnosed > 0, "no deadlock was ever diagnosed");
        assert!(
            totals.wakeups_recovered > 0,
            "no lost wakeup was ever recovered — blocking path unexercised"
        );
        totals
    }

    /// The per-seed trace digests folded in seed order: FNV-1a-64 over
    /// their little-endian bytes.
    fn trace_fold(totals: &Totals) -> u64 {
        totals.trace_digests.iter().fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()))
    }

    /// Run the full suite over `seeds` seeds into `report`. Reaching
    /// the metrics at all means no scenario hung and every probe trace
    /// replayed byte-identically (both asserted in [`campaign`]), so
    /// those gate as structural invariants; the fault counts depend on
    /// host thread timing, so they ride as info.
    pub fn run(report: &mut BenchReport, seeds: u64) {
        let totals = campaign(seeds);
        report.exact("fault_enabled", 1.0, "bool");
        report.exact("hangs", 0.0, "count");
        report.exact("replay_identical", 1.0, "bool");
        // The probe traces themselves must not move between builds: the
        // high 48 bits of the fold (an f64 holds them exactly).
        report.exact("probe_trace_fnv", (trace_fold(&totals) >> 16) as f64, "hash");
        report.info("schedules", totals.schedules as f64, "count");
        report.info("faults_fired", totals.faults_fired as f64, "count");
        report.info("deadlocks_diagnosed", totals.deadlocks_diagnosed as f64, "count");
        report.info("wakeups_recovered", totals.wakeups_recovered as f64, "count");
        report.info("upgrades_refused", totals.upgrades_refused as f64, "count");
        report.info("spl_diagnosed", totals.spl_diagnosed as f64, "count");

        let mut t = Table::new(
            "E17: seeded chaos — recovery under injected faults",
            &["metric", "count"],
        );
        t.row(&["seeds".into(), seeds.to_string()]);
        t.row(&["fault schedules run".into(), totals.schedules.to_string()]);
        t.row(&["faults fired (probe)".into(), totals.faults_fired.to_string()]);
        t.row(&[
            "deadlocks diagnosed & backed out".into(),
            totals.deadlocks_diagnosed.to_string(),
        ]);
        t.row(&[
            "lost wakeups recovered by bounded block".into(),
            totals.wakeups_recovered.to_string(),
        ]);
        t.row(&[
            "upgrades refused (read hold released)".into(),
            totals.upgrades_refused.to_string(),
        ]);
        t.row(&[
            "spl violations diagnosed".into(),
            totals.spl_diagnosed.to_string(),
        ]);
        t.row(&["rpc replies dropped".into(), totals.replies_dropped.to_string()]);
        t.row(&["rpc dead-port failures".into(), totals.dead_ports.to_string()]);
        t.row(&["scenarios hung".into(), "0".into()]);
        t.row(&["probe trace fold (FNV-1a-64)".into(), format!("{:#018x}", trace_fold(&totals))]);
        t.note("every seed's probe trace was byte-identical across two runs");
        t.note("every ledger balanced; saturated counts pegged, never wrapped");
        report.table(t);

        // Per seed, so an artifact names the seed whose trace moved.
        let mut t = Table::new(
            "E17-digests: probe trace per seed (FNV-1a-64, folded above)",
            &["seed", "digest"],
        );
        for (seed, d) in totals.trace_digests.iter().enumerate() {
            t.row(&[seed.to_string(), format!("{d:#018x}")]);
        }
        report.table(t);
    }
}

/// Run E17 into `report` over `--seeds N` seeds (default 5 quick, 200
/// full); the mode field records the count.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let seeds = opts.seeds.unwrap_or(if opts.quick { 5 } else { 200 });
    report.set_mode(&format!("seeds={seeds}"));
    // Without the probe feature there is no adversary — which is the
    // zero-cost claim, stated as a table.
    #[cfg(feature = "probe")]
    armed::run(report, seeds);
    #[cfg(not(feature = "probe"))]
    report.compiled_out(
        "fault_enabled",
        "probe",
        "E17: seeded chaos (fault layer)",
        "to run chaos; default builds pay nothing",
    );
}
