//! E9 — pmap/pv-list lock-ordering disciplines.
//!
//! Paper §5: `pmap_enter` needs pmap→pv, `pmap_page_protect` needs
//! pv→pmap; the conflict is arbitrated either by the pmap **system
//! lock** (readers/writers) or by a **backout protocol**
//! (`simple_lock_try`, release, retry). Expected shape: both complete
//! without deadlock and keep the structures consistent; the system
//! lock serializes page-protects against *all* enters (a global
//! writer), while backout pays retries only on actual collisions — so
//! backout usually scales better when page-protect traffic is a
//! minority.

use machk_vm::OrderingDiscipline;

use super::Opts;
use crate::report::BenchReport;
use crate::util::{sample, thread_sweep, Table};
use crate::workloads::pmap_storm;

/// Run E9 into `report`.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let quick = opts.quick;
    let mut t = Table::new(
        "E9: mixed pmap_enter/remove/page_protect storm (ops/s, median ±MAD)",
        &["threads", "system-lock", "backout", "backout gain"],
    );
    for threads in thread_sweep() {
        let [sl, bo] = [OrderingDiscipline::SystemLock, OrderingDiscipline::Backout]
            .map(|d| sample(quick, threads, |n| pmap_storm(d, threads, n)));
        t.row(&[
            threads.to_string(),
            sl.cell(),
            bo.cell(),
            format!("{:.2}x", bo.median / sl.median),
        ]);
        if threads == 4 {
            report.sampled("system_lock_ops_per_sec_4t", sl, "ops/s");
            report.sampled("backout_ops_per_sec_4t", bo, "ops/s");
        }
    }
    t.note("both disciplines deadlock-free and consistent (asserted inside the workload)");
    report.table(t);
}
