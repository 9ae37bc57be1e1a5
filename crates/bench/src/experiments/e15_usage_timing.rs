//! E15 — the usage-timing exception: coordination without locks.
//!
//! Paper §2: techniques without multiprocessor locking "require an
//! independently accessible memory cell per processor. ... The Mach
//! kernel's operation coordination techniques are based on
//! multiprocessor locking, with the exception of access to timer data
//! structures in its usage timing subsystem."
//!
//! Measured: tick throughput of the per-CPU single-writer cells vs the
//! same accounting under simple locks, with 0 and 2 concurrent readers
//! summing the bank. Expected shape: identical totals (correctness),
//! with the lock-free tick path unaffected by readers while the locked
//! path pays for every reader.

use super::Opts;
use crate::report::BenchReport;
use crate::util::{sample, Table};
use crate::workloads::{timer_tick_storm, TimerImpl};

/// Run E15 into `report`.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let quick = opts.quick;
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 4);
    let mut t = Table::new(
        &format!("E15: timer ticks/s on {cpus} CPUs (median ±MAD)"),
        &["readers", "per-cpu cell (Mach)", "simple lock"],
    );
    for readers in [0usize, 2] {
        let [lockfree, locked] = TimerImpl::ALL
            .map(|imp| sample(quick, cpus, |n| timer_tick_storm(imp, cpus, readers, n)));
        t.row(&[readers.to_string(), lockfree.cell(), locked.cell()]);
        report.sampled(
            &format!("lockfree_ticks_per_sec_{readers}r"),
            lockfree,
            "ops/s",
        );
        report.sampled(&format!("locked_ticks_per_sec_{readers}r"), locked, "ops/s");
    }
    t.note("single-writer-per-processor cells: the one place Mach coordinates without locks");
    report.table(t);
}
