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

use super::Opts;
use crate::report::BenchReport;
use crate::util::{contention_sweep, sample, thread_sweep, Table};
use crate::workloads::{adopted_ref_storm, refcount_churn, refcount_storm, RefImpl};

/// Run E5 into `report`.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let quick = opts.quick;

    let mut t = Table::new(
        "E5a: clone+release on one shared object (ops/s, median ±MAD)",
        &["threads", "lock+count (Mach)", "atomic (Arc)", "sharded"],
    );
    for threads in contention_sweep() {
        let [locked, atomic, sharded] =
            RefImpl::ALL.map(|imp| sample(quick, threads, |n| refcount_storm(imp, threads, n)));
        t.row(&[
            threads.to_string(),
            locked.cell(),
            atomic.cell(),
            sharded.cell(),
        ]);
        if threads == 1 || threads == 8 {
            report.sampled(&format!("locked_ops_per_sec_{threads}t"), locked, "ops/s");
            report.sampled(&format!("atomic_ops_per_sec_{threads}t"), atomic, "ops/s");
            report.sampled(&format!("sharded_ops_per_sec_{threads}t"), sharded, "ops/s");
        }
    }
    t.note("Mach increments under the object's simple lock; Arc uses one atomic RMW");
    t.note("sharded stripes the count per thread; drain-to-exact keeps destruction exact");
    report.table(t);

    let mut t = Table::new(
        "E5b: object churn, create + 4 clones + destroy (objects/s, median ±MAD)",
        &["threads", "lock+count (Mach)", "atomic (Arc)", "sharded"],
    );
    for threads in thread_sweep() {
        let [locked, atomic, sharded] =
            RefImpl::ALL.map(|imp| sample(quick, threads, |n| refcount_churn(imp, threads, n, 4)));
        t.row(&[
            threads.to_string(),
            locked.cell(),
            atomic.cell(),
            sharded.cell(),
        ]);
    }
    t.note("creation reference + clones + final destroy at count zero (paper's lifetime protocol)");
    report.table(t);

    let mut t = Table::new(
        "E5c: adopted call sites, clone+release on the live objects (ops/s, median ±MAD)",
        &["threads", "Task (sharded)", "VmObject (sharded)"],
    );
    for threads in contention_sweep() {
        let [task, vm] = [true, false]
            .map(|task| sample(quick, threads, |n| adopted_ref_storm(task, threads, n)));
        t.row(&[threads.to_string(), task.cell(), vm.cell()]);
    }
    t.note("the production kernel object types whose count is sharded");
    report.table(t);
}
