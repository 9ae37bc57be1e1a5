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
//! overtake tas from ~8 threads. On a single-CPU host contention shows
//! as preemption rather than cache traffic, so the separation appears
//! as *stability* (queued throughput flat vs. erratic) — EXPERIMENTS.md
//! records the measured shape.

use machk_core::{Mcs, RawSimpleLock, Tas, TasThenTtas, Ticket, Ttas, WithBackoff};

use crate::report::{BenchReport, Dir};
use crate::util::{contention_sweep, fmt_rate, thread_sweep, Table};
use crate::workloads::{simple_lock_counter, simple_lock_first_try_rate, PolicyCounter};

/// The policy sweep, with the JSON field name of each column.
const POLICIES: [PolicyCounter; 6] = [
    ("tas", simple_lock_counter::<Tas>),
    ("ttas", simple_lock_counter::<Ttas>),
    ("tas_ttas", simple_lock_counter::<TasThenTtas>),
    ("tas_ttas_backoff", simple_lock_counter::<WithBackoff<TasThenTtas>>),
    ("ticket", simple_lock_counter::<Ticket>),
    ("mcs", simple_lock_counter::<Mcs>),
];

/// Run E1 and render its tables.
pub fn run(quick: bool) -> String {
    run_report(quick).0
}

/// Run E1; returns the rendered tables plus the JSON artifact body
/// (`BENCH_E01.json`, `machk-bench/v1` envelope).
pub fn run_report(quick: bool) -> (String, String) {
    let iters: u64 = if quick { 20_000 } else { 400_000 };
    let mut report = BenchReport::new("E01", "Simple lock acquisition policies (paper §2)", quick);
    let mut out = String::new();

    let mut t = Table::new(
        "E1a: shared-counter throughput by policy (ops/s)",
        &[
            "threads",
            "tas",
            "ttas",
            "tas+ttas",
            "tas+ttas+backoff",
            "ticket",
            "mcs",
        ],
    );
    let mut sweep_json = Vec::new();
    for threads in contention_sweep() {
        let mut cells = vec![threads.to_string()];
        let mut rates = Vec::new();
        for (name, run) in POLICIES {
            let rate = run(threads, iters);
            cells.push(fmt_rate(rate));
            rates.push(format!("\"{name}\":{rate:.0}"));
            // Host throughput: trajectory-only (CI runners vary), at
            // the sweep's host-independent anchor points.
            if threads == 1 || threads == 8 {
                report.info(&format!("{name}_ops_per_sec_{threads}t"), rate, "ops/s");
            }
        }
        t.row(&cells);
        sweep_json.push(format!("{{\"threads\":{threads},{}}}", rates.join(",")));
    }
    t.note("paper: TTAS avoids coherence traffic while spinning; TAS-first wins uncontended");
    t.note("queued (ticket/mcs) add FIFO admission; mcs also spins locally per-waiter");
    out.push_str(&t.render());

    let mut t = Table::new(
        "E1b: first-try acquisition rate (tas+ttas)",
        &["threads", "first-try rate"],
    );
    let mut first_try_json = Vec::new();
    for threads in thread_sweep() {
        let lock = RawSimpleLock::<TasThenTtas>::new();
        let r = simple_lock_first_try_rate(&lock, threads, iters / 4);
        t.row(&[threads.to_string(), format!("{:.3}", r)]);
        first_try_json.push(format!("{{\"threads\":{threads},\"rate\":{r:.4}}}"));
        if threads == 1 {
            // The paper's claim at its cleanest: uncontended, the lock
            // is taken on the first try essentially always. Host- and
            // mode-independent, so it gates.
            report.metric("first_try_rate_1t", r, "ratio", Dir::Higher, 1.25);
        }
    }
    t.note("paper: 'most locks in a well designed system are acquired on the first attempt'");
    out.push_str(&t.render());

    report.extra(&format!(
        "{{\"iters\":{iters},\"throughput_ops_per_sec\":[{}],\"first_try_rate\":[{}]}}",
        sweep_json.join(","),
        first_try_json.join(","),
    ));
    (out, report.render())
}
