//! E5 — reference counting cost.
//!
//! Paper §8: acquiring a reference "requires locking the object (or the
//! portion containing its reference count)" and "will not block"; Mach
//! counts under a lock because 1980s C had no portable atomics. The
//! experiment prices that choice against the modern lock-free
//! alternative (`Arc`). Expected shape: both are cheap uncontended;
//! under sharing the locked count serializes and falls behind the
//! atomic count — the gap is the cost of the 1991 design point on 2020s
//! hardware. The sharded count (`ShardedRefCount`) goes one step
//! further: per-thread padded shards make even the atomic RMW
//! uncontended, with a drain-to-exact slow path preserving the
//! exactly-once final release. Expected shape on multi-core hardware:
//! locked < atomic < sharded as threads are added; a third table
//! confirms the two production types that adopted the sharded count
//! (`Task`, `VmObject`) behave like the microbenchmark.

use crate::report::BenchReport;
use crate::util::{contention_sweep, fmt_rate, thread_sweep, Table};
use crate::workloads::{adopted_ref_storm, refcount_churn, refcount_storm, RefImpl};

/// Run E5 and render its tables.
pub fn run(quick: bool) -> String {
    run_report(quick).0
}

/// Run E5; returns the rendered tables plus the JSON artifact body
/// (`BENCH_E05.json`, `machk-bench/v1` envelope).
pub fn run_report(quick: bool) -> (String, String) {
    let iters: u64 = if quick { 20_000 } else { 400_000 };
    let mut report = BenchReport::new("E05", "Reference counting cost (paper §8)", quick);
    let mut out = String::new();

    let mut t = Table::new(
        "E5a: clone+release on one shared object (ops/s)",
        &["threads", "lock+count (Mach)", "atomic (Arc)", "sharded"],
    );
    let mut storm_json = Vec::new();
    for threads in contention_sweep() {
        let locked = refcount_storm(RefImpl::LockedCount, threads, iters);
        let atomic = refcount_storm(RefImpl::Arc, threads, iters);
        let sharded = refcount_storm(RefImpl::Sharded, threads, iters);
        t.row(&[
            threads.to_string(),
            fmt_rate(locked),
            fmt_rate(atomic),
            fmt_rate(sharded),
        ]);
        storm_json.push(format!(
            "{{\"threads\":{threads},\"locked\":{locked:.0},\"atomic\":{atomic:.0},\
             \"sharded\":{sharded:.0}}}"
        ));
        if threads == 1 || threads == 8 {
            report.info(&format!("locked_ops_per_sec_{threads}t"), locked, "ops/s");
            report.info(&format!("atomic_ops_per_sec_{threads}t"), atomic, "ops/s");
            report.info(&format!("sharded_ops_per_sec_{threads}t"), sharded, "ops/s");
        }
    }
    t.note("Mach increments under the object's simple lock; Arc uses one atomic RMW");
    t.note("sharded stripes the count per thread; drain-to-exact keeps destruction exact");
    out.push_str(&t.render());

    let churn_iters = if quick { 2_000 } else { 40_000 };
    let mut t = Table::new(
        "E5b: object churn, create + 4 clones + destroy (objects/s)",
        &["threads", "lock+count (Mach)", "atomic (Arc)", "sharded"],
    );
    let mut churn_json = Vec::new();
    for threads in thread_sweep() {
        let locked = refcount_churn(RefImpl::LockedCount, threads, churn_iters, 4);
        let atomic = refcount_churn(RefImpl::Arc, threads, churn_iters, 4);
        let sharded = refcount_churn(RefImpl::Sharded, threads, churn_iters, 4);
        t.row(&[
            threads.to_string(),
            fmt_rate(locked),
            fmt_rate(atomic),
            fmt_rate(sharded),
        ]);
        churn_json.push(format!(
            "{{\"threads\":{threads},\"locked\":{locked:.0},\"atomic\":{atomic:.0},\
             \"sharded\":{sharded:.0}}}"
        ));
    }
    t.note("creation reference + clones + final destroy at count zero (paper's lifetime protocol)");
    out.push_str(&t.render());

    let mut t = Table::new(
        "E5c: adopted call sites, clone+release on the live objects (ops/s)",
        &["threads", "Task (sharded)", "VmObject (sharded)"],
    );
    let mut adopted_json = Vec::new();
    for threads in contention_sweep() {
        let task = adopted_ref_storm(true, threads, iters);
        let vm = adopted_ref_storm(false, threads, iters);
        t.row(&[threads.to_string(), fmt_rate(task), fmt_rate(vm)]);
        adopted_json.push(format!(
            "{{\"threads\":{threads},\"task\":{task:.0},\"vm_object\":{vm:.0}}}"
        ));
    }
    t.note("the production kernel object types whose count is sharded");
    out.push_str(&t.render());

    report.extra(&format!(
        "{{\"iters\":{iters},\"shared_object_ops_per_sec\":[{}],\
         \"churn_objects_per_sec\":[{}],\"adopted_ops_per_sec\":[{}]}}",
        storm_json.join(","),
        churn_json.join(","),
        adopted_json.join(","),
    ));
    (out, report.render())
}
