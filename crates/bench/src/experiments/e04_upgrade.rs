//! E4 — read→write upgrade vs write-then-downgrade.
//!
//! Paper §7.1: "The read to write upgrade feature ... is rarely used
//! because a failed upgrade attempt releases the read lock ... \[and\]
//! requires recovery logic in the caller. A simpler alternative ... is
//! to initially lock for writing, and downgrade to a read lock after
//! operations that require the write lock are complete. This downgrade
//! cannot fail and does not require any special logic."
//!
//! Expected shape: comparable or better throughput for
//! write-then-downgrade, *zero* failure/recovery events, while the
//! upgrade strategy pays failed upgrades that grow with contention.
//!
//! An upgrade fails only when it *collides* with another pending
//! upgrade — a thin window, which the host table catches once the
//! workers start together and two CPUs overlap their upgrades. The
//! `--features sim` half makes the collision systematic: the same
//! two-reader upgrade race runs on a simulated 2-core host across
//! hundreds of seeded schedules, where the scheduler can interleave the
//! two upgrade attempts every way they can collide — failed upgrades
//! are actually observed (asserted > 0) and every one is recovered by
//! the §7.1 restart logic, while the downgrade strategy completes the
//! same schedules with structurally zero failures.

use super::Opts;
use crate::report::BenchReport;
use crate::util::{sample, thread_sweep, Table};
use crate::workloads::{lookup_insert_upgrade, lookup_insert_write_downgrade};

/// Run E4 into `report`.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let quick = opts.quick;
    let mut downgrade_failures = 0u64;
    for miss_pct in [5u32, 50u32] {
        let mut t = Table::new(
            &format!("E4: lookup-then-maybe-insert, {miss_pct}% insert rate"),
            &[
                "threads",
                "upgrade ops/s",
                "failed upgrades",
                "downgrade ops/s",
                "downgrade failures",
            ],
        );
        for threads in thread_sweep() {
            let (mut failed, mut failed_down) = (0, 0);
            let a = sample(quick, threads, |n| {
                let o = lookup_insert_upgrade(threads, n, miss_pct);
                failed += o.failed_upgrades;
                o.ops_per_sec
            });
            let b = sample(quick, threads, |n| {
                let o = lookup_insert_write_downgrade(threads, n, miss_pct);
                failed_down += o.failed_upgrades; // structurally zero
                o.ops_per_sec
            });
            downgrade_failures += failed_down;
            t.row(&[
                threads.to_string(),
                a.cell(),
                failed.to_string(),
                b.cell(),
                failed_down.to_string(),
            ]);
            if threads == 4 && miss_pct == 50 {
                report.sampled("upgrade_ops_per_sec_4t_miss50", a, "ops/s");
                report.sampled("downgrade_ops_per_sec_4t_miss50", b, "ops/s");
            }
        }
        t.note("ops/s are median ±MAD; failures are summed over the warm-up and every sample");
        t.note("downgrade 'cannot fail and does not require any special logic in the caller'");
        report.table(t);
    }
    // The paper's structural claim: the downgrade path has no failure
    // mode, on any host, at any contention level.
    report.exact("downgrade_failures_total", downgrade_failures as f64, "count");
    #[cfg(feature = "sim")]
    sim_section(quick, report);
    #[cfg(not(feature = "sim"))]
    report.compiled_out(
        "sim_enabled",
        "sim",
        "E4-sim: upgrade collisions on a simulated 2-core host",
        "to observe upgrade collisions",
    );
}

/// The upgrade-collision race on a simulated 2-core host: seeded
/// schedule exploration makes the failure window observable.
#[cfg(feature = "sim")]
fn sim_section(quick: bool, report: &mut BenchReport) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use machk_core::sync::host;
    use machk_core::RwData;
    use machk_sim::{random_walks, SimConfig};

    // Exploration closures cannot return values; tallies are global.
    static FAILED_UPGRADES: AtomicU64 = AtomicU64::new(0);
    static ROUNDS: AtomicU64 = AtomicU64::new(0);

    /// Two readers race read→upgrade on one lock; a loser recovers per
    /// §7.1 (read hold lost, restart with a write lock).
    fn upgrade_race() {
        let table = Arc::new(RwData::new(0u64, true));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let table = Arc::clone(&table);
                host::spawn(move || {
                    for _ in 0..3 {
                        let r = table.read();
                        host::advance(120); // the read-side lookup
                        match r.upgrade() {
                            Ok(mut w) => {
                                host::advance(80);
                                *w += 1;
                            }
                            Err(_) => {
                                // relaxed: statistics counter, no ordering needed
                                FAILED_UPGRADES.fetch_add(1, Ordering::Relaxed);
                                // §7.1 recovery: the read hold is gone;
                                // restart from scratch with a write lock.
                                let mut w = table.write();
                                host::advance(80);
                                *w += 1;
                            }
                        }
                        // relaxed: statistics counter, no ordering needed
                        ROUNDS.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for t in ts {
            host::join(t);
        }
        assert_eq!(*table.read(), 6, "every round must land exactly once");
    }

    /// The same schedules with write-then-downgrade: no failure path
    /// exists to take.
    fn downgrade_never_fails() {
        let table = Arc::new(RwData::new(0u64, true));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let table = Arc::clone(&table);
                host::spawn(move || {
                    for _ in 0..3 {
                        let mut w = table.write();
                        host::advance(80);
                        *w += 1;
                        let r = w.downgrade(); // cannot fail
                        host::advance(120);
                        let _ = *r;
                    }
                })
            })
            .collect();
        for t in ts {
            host::join(t);
        }
        assert_eq!(*table.read(), 6);
    }

    FAILED_UPGRADES.store(0, Ordering::Relaxed); // relaxed: single-threaded reset
    ROUNDS.store(0, Ordering::Relaxed); // relaxed: single-threaded reset
    let walks = if quick { 150 } else { 1_500 };
    let cfg = SimConfig::DEFAULT.with_cores(2).with_seed(0xE4_2C);
    let stats = random_walks(&cfg, walks, |_| upgrade_race);
    let mut down = random_walks(&cfg.with_seed(0xE4_D0), walks / 2, |_| downgrade_never_fails);
    down.merge(stats);
    assert_eq!(down.hangs, 0, "a schedule hung: {:?}", down.failures);
    assert_eq!(down.panics, 0, "a round was lost: {:?}", down.failures);
    let failed = FAILED_UPGRADES.load(Ordering::Relaxed); // relaxed: after all runs joined
    let rounds = ROUNDS.load(Ordering::Relaxed); // relaxed: after all runs joined
    assert!(
        failed > 0,
        "schedule exploration on 2 simulated cores must observe upgrade collisions \
         ({rounds} rounds, 0 failures)"
    );
    // Deterministic given the fixed seeds: exploration must keep
    // finding the same collisions, and nothing may ever hang.
    report.exact("sim_enabled", 1.0, "bool");
    report.exact("sim_failed_upgrades", failed as f64, "count");
    report.exact("sim_hangs", down.hangs as f64, "count");

    let mut t = Table::new(
        "E4-sim: upgrade collisions on a simulated 2-core host",
        &["metric", "value"],
    );
    t.row(&["schedules explored".into(), down.runs.to_string()]);
    t.row(&["upgrade rounds".into(), rounds.to_string()]);
    t.row(&["failed upgrades observed".into(), failed.to_string()]);
    t.row(&[
        "failure rate".into(),
        format!("{:.1}%", failed as f64 * 100.0 / rounds.max(1) as f64),
    ]);
    t.row(&["downgrade failures".into(), "0 (structural)".into()]);
    t.note("a failed upgrade releases the read hold; every failure recovered by the §7.1 restart");
    t.note("asserted: collisions observed (> 0), zero hangs, every round lands exactly once");
    report.table(t);
}
