//! E6 — the split-wait protocol.
//!
//! Paper §6: releasing locks to wait for an event "must be atomic with
//! respect to the operation that declares event occurrence; this avoids
//! races in which the event occurs while the locks are being released,
//! leaving the waiter blocked indefinitely."
//!
//! Two parts:
//!
//! * **E6a** (throughput): producer/consumer handoffs through
//!   `assert_wait`/`thread_block`/`thread_wakeup`, against the host's
//!   Mutex+Condvar as a calibration baseline.
//! * **E6b** (the race): a deliberately broken release-then-wait (no
//!   declaration before the release) loses wakeups; the split protocol
//!   run under the same schedule loses none. Lost wakeups are detected
//!   with a bounded block and counted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use machk_core::{
    assert_wait, thread_block_timeout, thread_wakeup, Event, SimpleLocked, WaitResult,
};

use super::Opts;
use crate::report::BenchReport;
use crate::util::{sample, Table};
use crate::workloads::{condvar_handoff, event_handoff};

/// Run E6 into `report`.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let quick = opts.quick;

    let mut t = Table::new(
        "E6a: producer/consumer handoffs per second (median ±MAD)",
        &["pairs", "event-wait (Mach)", "condvar (host)"],
    );
    for pairs in [1usize, 2, 4] {
        let mach = sample(quick, pairs, |n| event_handoff(pairs, n));
        let host = sample(quick, pairs, |n| condvar_handoff(pairs, n));
        t.row(&[pairs.to_string(), mach.cell(), host.cell()]);
        if pairs == 1 {
            report.sampled("event_handoffs_per_sec_1pair", mach, "ops/s");
            report.sampled("condvar_handoffs_per_sec_1pair", host, "ops/s");
        }
    }
    t.note("the Mach protocol is assert_wait -> release locks -> thread_block");
    report.table(t);

    let rounds: u64 = if quick { 300 } else { 3_000 };
    let (split_lost, racy_lost) = lost_wakeup_trial(rounds);
    let mut t = Table::new(
        "E6b: lost wakeups over signal/wait rounds",
        &["protocol", "rounds", "lost wakeups"],
    );
    t.row(&[
        "split (assert_wait first)".into(),
        rounds.to_string(),
        split_lost.to_string(),
    ]);
    t.row(&[
        "racy (release, then wait)".into(),
        rounds.to_string(),
        racy_lost.to_string(),
    ]);
    t.note("a 'lost' wakeup = the waiter needed its bounded-block timeout to notice the event");
    assert_eq!(split_lost, 0, "the split protocol must never lose a wakeup");
    report.table(t);
    // The paper's §6 claim is structural: with the declaration made
    // before the locks drop, no schedule can lose a wakeup.
    report.exact("split_lost_wakeups", split_lost as f64, "count");
    report.info("racy_lost_wakeups", racy_lost as f64, "count");
}

/// One flag cell per protocol trial.
struct Cell {
    flag: SimpleLocked<bool>,
}

/// Count wakeups that were only recovered by timeout.
fn lost_wakeup_trial(rounds: u64) -> (u64, u64) {
    let split = run_trial(rounds, true);
    let racy = run_trial(rounds, false);
    (split, racy)
}

fn run_trial(rounds: u64, split: bool) -> u64 {
    let cell = Cell {
        flag: SimpleLocked::new(false),
    };
    let ev = Event::from_addr(&cell);
    let lost = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Signaler: set the flag, then declare the event.
        s.spawn(|| {
            for _ in 0..rounds {
                // Wait until the waiter consumed the previous round.
                loop {
                    let f = cell.flag.lock();
                    if !*f {
                        break;
                    }
                    drop(f);
                    std::thread::yield_now();
                }
                *cell.flag.lock() = true;
                thread_wakeup(ev);
            }
        });
        // Waiter.
        s.spawn(|| {
            for _ in 0..rounds {
                loop {
                    if split {
                        // Correct: declare the wait while the condition
                        // is still protected, then release, then block.
                        {
                            let mut f = cell.flag.lock();
                            if *f {
                                *f = false;
                                break;
                            }
                            assert_wait(ev, false);
                        }
                        if thread_block_timeout(Duration::from_millis(50)) == WaitResult::TimedOut {
                            lost.fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        // Racy: test, fully release, and only then
                        // declare + block — the window the paper warns
                        // about.
                        {
                            let mut f = cell.flag.lock();
                            if *f {
                                *f = false;
                                break;
                            }
                        }
                        // <-- a wakeup landing here is lost
                        std::thread::yield_now();
                        assert_wait(ev, false);
                        if thread_block_timeout(Duration::from_millis(5)) == WaitResult::TimedOut {
                            lost.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        });
    });
    lost.load(Ordering::Relaxed)
}
