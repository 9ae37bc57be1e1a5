//! E1 — simple-lock acquisition policies.
//!
//! Paper §2: TTAS spinning "avoids cache misses while the lock is not
//! available"; the TAS-then-TTAS refinement "assumes that most locks in
//! a well designed system are acquired on the first attempt".
//! Expected shape: the policies tie at 1 thread; under contention TAS
//! degrades fastest; backoff helps the contended cases; first-try rate
//! collapses as threads are added.
//!
//! Beyond the paper, the sweep includes the queued policies (ticket,
//! MCS): FIFO admission with — for MCS — local spinning. Expected shape
//! on multi-core hardware: word-spinning policies degrade super-linearly
//! with waiters while the queued ones degrade linearly, so ticket/mcs
//! overtake tas from ~8 threads. Once waiters outnumber CPUs a queued
//! lock hands off to a preempted waiter and collapses — EXPERIMENTS.md
//! records the measured shape.
//!
//! A third table prices the probe hooks: the same counter loop on a
//! named and an anonymous lock, in whichever build (probes on or off)
//! is running.

use machk_core::sync::probe;
use machk_core::{RawSimpleLock, TasThenTtas};

use super::Opts;
use crate::report::{BenchReport, Dir};
use crate::util::{contention_sweep, sample, thread_sweep, Table};
use crate::workloads::{lock_counter, simple_lock_first_try_rate, POLICY_SWEEP};

/// Run E1 into `report`.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let quick = opts.quick;
    let iters: u64 = if quick { 20_000 } else { 400_000 };

    let mut headers = vec!["threads"];
    headers.extend(POLICY_SWEEP.map(|(label, _)| label));
    let mut t = Table::new(
        "E1a: shared-counter throughput by policy (ops/s, median ±MAD)",
        &headers,
    );
    for threads in contention_sweep() {
        let mut cells = vec![threads.to_string()];
        for (label, run) in POLICY_SWEEP {
            let name = label.replace('+', "_");
            let s = sample(quick, threads, |n| run(threads, n));
            cells.push(s.cell());
            // Host throughput: trajectory-only (CI runners vary), at
            // the sweep's host-independent anchor points.
            if threads == 1 || threads == 8 {
                report.sampled(&format!("{name}_ops_per_sec_{threads}t"), s, "ops/s");
            }
        }
        t.row(&cells);
    }
    t.note("paper: TTAS avoids coherence traffic while spinning; TAS-first wins uncontended");
    t.note("queued (ticket/mcs) add FIFO admission; mcs also spins locally per-waiter");
    report.table(t);

    let mut t = Table::new(
        "E1b: first-try acquisition rate (tas+ttas)",
        &["threads", "first-try rate"],
    );
    for threads in thread_sweep() {
        let lock = RawSimpleLock::<TasThenTtas>::new();
        let r = simple_lock_first_try_rate(&lock, threads, iters / 4);
        t.row(&[threads.to_string(), format!("{:.3}", r)]);
        if threads == 1 {
            // The paper's claim at its cleanest: uncontended, the lock
            // is taken on the first try essentially always. Host- and
            // mode-independent, so it gates.
            report.metric("first_try_rate_1t", r, "ratio", Dir::Higher, 1.25);
        }
    }
    t.note("paper: 'most locks in a well designed system are acquired on the first attempt'");
    report.table(t);
    tracing_table(quick, report);
}

/// The counter loop on a named and an anonymous lock. With probes on, a
/// named lock's hooks reach the registry and any subscribers, while an
/// anonymous one's skip the clock and the recording; with probes off
/// both compile to the bare lock, so the two columns should agree.
fn tracing_table(quick: bool, report: &mut BenchReport) {
    static NAMED: RawSimpleLock = RawSimpleLock::named("e1.tracing.named");
    static ANON: RawSimpleLock = RawSimpleLock::new();
    let state = if probe::ENABLED {
        "probe-on"
    } else {
        "probe-off"
    };
    let mut t = Table::new(
        &format!("E1c: tracing overhead, {state} build (ops/s, median ±MAD)"),
        &["threads", "anonymous", "named", "named / anonymous"],
    );
    for threads in [1usize, 2] {
        let anon = sample(quick, threads, |n| lock_counter(&ANON, threads, n));
        let named = sample(quick, threads, |n| lock_counter(&NAMED, threads, n));
        t.row(&[
            threads.to_string(),
            anon.cell(),
            named.cell(),
            format!("{:.2}", named.median / anon.median),
        ]);
        if threads == 1 {
            report.sampled("anonymous_lock_ops_per_sec_1t", anon, "ops/s");
            report.sampled("named_lock_ops_per_sec_1t", named, "ops/s");
        }
    }
    t.note(&format!(
        "{} probe subscriber(s) installed while measured",
        probe::subscriber_count()
    ));
    report.table(t);
}
