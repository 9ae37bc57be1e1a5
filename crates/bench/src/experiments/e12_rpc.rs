//! E12 — the kernel-RPC reference protocol.
//!
//! Paper §10: the five-step operation sequence, and the Mach 2.5 → 3.0
//! change in who releases the translation reference. Measured: RPC
//! throughput under both semantics, the reference-flow ledger
//! (translations = interface releases + operation consumes), and the
//! guarantee that "the object and its corresponding port cannot vanish
//! due to the references acquired above" even when every other holder
//! drops out mid-storm.

use std::sync::atomic::Ordering;

use machk_ipc::RefSemantics;

use super::Opts;
use crate::report::BenchReport;
use crate::util::{sample, thread_sweep, Table};
use crate::workloads::rpc_storm;

/// Run E12 into `report`.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let quick = opts.quick;
    let mut ledger_violations = 0u64;
    for semantics in [RefSemantics::Mach25, RefSemantics::Mach30] {
        let mut t = Table::new(
            &format!("E12: msg_rpc throughput, {semantics:?} semantics"),
            &[
                "threads",
                "rpc/s (median ±MAD)",
                "translations",
                "interface rel.",
                "op consumes",
            ],
        );
        for threads in thread_sweep() {
            // The ledger counts add up over the warm-up and every sample.
            let (mut translations, mut releases, mut consumes) = (0, 0, 0);
            let rate = sample(quick, threads, |n| {
                let (rate, stats) = rpc_storm(semantics, threads, n);
                translations += stats.translations.load(Ordering::Relaxed); // relaxed: read after storm threads joined
                releases += stats.interface_releases.load(Ordering::Relaxed); // relaxed: read after storm threads joined
                consumes += stats.operation_consumes.load(Ordering::Relaxed); // relaxed: read after storm threads joined
                rate
            });
            // §10 ledger: every translation reference is given back
            // exactly once, by the interface or by the operation.
            ledger_violations +=
                (translations as i128 - releases as i128 - consumes as i128).unsigned_abs() as u64;
            t.row(&[
                threads.to_string(),
                rate.cell(),
                translations.to_string(),
                releases.to_string(),
                consumes.to_string(),
            ]);
            if threads == 4 && matches!(semantics, RefSemantics::Mach30) {
                report.sampled("mach30_rpc_per_sec_4t", rate, "ops/s");
            }
        }
        t.note(match semantics {
            RefSemantics::Mach25 => "2.5: interface code always releases the object reference",
            RefSemantics::Mach30 => "3.0: a successful operation consumes the reference",
        });
        report.table(t);
    }
    report.exact(
        "reference_ledger_violations",
        ledger_violations as f64,
        "count",
    );
}
