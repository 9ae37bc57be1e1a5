//! E8 — the task's two locks.
//!
//! Paper §5: "a task has two locks to allow task operations and ipc
//! translations to occur in parallel". Expected shape: with a mixed
//! workload, the two-lock task scales past the one-lock ablation, and
//! the gap grows with the translation share (the two halves of the
//! workload stop contending at all).

use super::Opts;
use crate::report::BenchReport;
use crate::util::{sample, thread_sweep, Table};
use crate::workloads::{task_mixed_ops, TaskFlavor};

/// Run E8 into `report`.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let quick = opts.quick;
    for translate_pct in [50u32, 90u32] {
        let mut t = Table::new(
            &format!(
                "E8: task ops + translations, {translate_pct}% translations (ops/s, median ±MAD)"
            ),
            &["threads", "two-lock (Mach)", "one-lock", "two-lock gain"],
        );
        for threads in thread_sweep() {
            let [two, one] = TaskFlavor::ALL.map(|f| {
                sample(quick, threads, |n| {
                    task_mixed_ops(f, translate_pct, threads, n)
                })
            });
            let gain = two.median / one.median;
            t.row(&[
                threads.to_string(),
                two.cell(),
                one.cell(),
                format!("{gain:.2}x"),
            ]);
            if threads == 4 {
                report.info(&format!("two_lock_gain_4t_t{translate_pct}"), gain, "ratio");
            }
        }
        t.note(
            "paper section 5: separate IPC-translation lock lets translations bypass the task lock",
        );
        report.table(t);
    }
}
