//! Experiments E1–E20: one module per entry in DESIGN.md's experiment
//! index. Each experiment exposes the uniform
//! `run_report(quick) -> (table, json)` shape: the rendered tables the
//! `experiments` binary prints, plus a `machk-bench/v1` envelope (see
//! [`crate::report`]) written as `BENCH_E01.json`…`BENCH_E20.json`
//! under `--artifacts` and gated by `bench-compare`. Host throughput
//! cells come from [`crate::util::sample`]: a median and its MAD.
//!
//! `quick = true` shrinks iteration counts and the sampler's target
//! time and sample count for CI/test runs; published numbers in
//! EXPERIMENTS.md come from `quick = false` release runs.

pub mod e01_simple_lock;
pub mod e02_granularity;
pub mod e03_complex_lock;
pub mod e04_upgrade;
pub mod e05_refcount;
pub mod e06_event_wait;
pub mod e07_interrupt_deadlock;
pub mod e08_task_locks;
pub mod e09_pmap_order;
pub mod e10_pageable;
pub mod e11_vm_object;
pub mod e12_rpc;
pub mod e13_shutdown;
pub mod e14_shootdown;
pub mod e15_usage_timing;
pub mod e16_lockstat;
pub mod e17_chaos;
pub mod e18_sim;
pub mod e19_ipc_storm;
pub mod e20_crash_storm;

/// The uniform runner shape: `run_report(quick)` returns the rendered
/// tables plus the `machk-bench/v1` JSON envelope.
pub type ReportFn = fn(bool) -> (String, String);

/// One experiment entry: `(id, title, runner)`.
pub type Experiment = (&'static str, &'static str, ReportFn);

/// Every experiment as `(id, title, runner)`. E17 runs with its default
/// seed count here; E18 with its default sim seed — the `experiments`
/// binary special-cases `--seeds`/`--sim-seed` overrides.
pub fn all() -> Vec<Experiment> {
    vec![
        (
            "E1",
            "Simple lock acquisition policies (paper §2)",
            e01_simple_lock::run_report,
        ),
        (
            "E2",
            "Locking granularity: code vs data (paper §2)",
            e02_granularity::run_report,
        ),
        (
            "E3",
            "Complex lock: reader parallelism & writers priority (paper §4)",
            e03_complex_lock::run_report,
        ),
        (
            "E4",
            "Upgrade vs write-then-downgrade (paper §7.1)",
            e04_upgrade::run_report,
        ),
        (
            "E5",
            "Reference counting cost (paper §8)",
            e05_refcount::run_report,
        ),
        (
            "E6",
            "Event wait: the split-wait protocol (paper §6)",
            e06_event_wait::run_report,
        ),
        (
            "E7",
            "Interrupt-level barrier deadlock (paper §7)",
            e07_interrupt_deadlock::run_report,
        ),
        (
            "E8",
            "The task's two locks (paper §5)",
            e08_task_locks::run_report,
        ),
        (
            "E9",
            "pmap/pv-list lock ordering disciplines (paper §5)",
            e09_pmap_order::run_report,
        ),
        (
            "E10",
            "vm_map_pageable: recursive locks deadlock (paper §7.1)",
            e10_pageable::run_report,
        ),
        (
            "E11",
            "Memory object dual reference counts (paper §8)",
            e11_vm_object::run_report,
        ),
        (
            "E12",
            "Kernel RPC reference protocol (paper §10)",
            e12_rpc::run_report,
        ),
        (
            "E13",
            "Deactivation & shutdown under fire (paper §9–10)",
            e13_shutdown::run_report,
        ),
        (
            "E14",
            "TLB shootdown & the pmap-lock special logic (paper §7)",
            e14_shootdown::run_report,
        ),
        (
            "E15",
            "Usage timing without locks (paper §2)",
            e15_usage_timing::run_report,
        ),
        (
            "E16",
            "Kernel-wide lockstat: contention, histograms, order cycles (obs layer)",
            e16_lockstat::run_report,
        ),
        (
            "E17",
            "Seeded chaos: fault injection vs recovery across every layer (fault layer)",
            e17_chaos::run_report_default,
        ),
        (
            "E18",
            "Deterministic schedule exploration on simulated N-core hosts (sim layer)",
            e18_sim::run_report,
        ),
        (
            "E19",
            "IPC engine storms: sharded namespace + lock-free rings at RPC scale",
            e19_ipc_storm::run_report,
        ),
        (
            "E20",
            "Crash-and-overload storm: supervision, poisoning, reconciliation, shedding",
            e20_crash_storm::run_report,
        ),
    ]
}

#[cfg(test)]
mod tests {
    /// Every experiment must run to completion in quick mode, produce a
    /// non-empty table, and emit a versioned bench envelope. (This is
    /// the harness's own integration test; the experiment *claims* are
    /// asserted inside each runner.)
    #[test]
    fn all_experiments_run_quick() {
        for (id, _title, run_report) in super::all() {
            let (out, json) = run_report(true);
            assert!(out.contains("=="), "{id} produced no table: {out}");
            assert!(
                json.contains("\"schema\":\"machk-bench/v1\""),
                "{id} envelope is missing the schema tag: {json}"
            );
            crate::json::parse(&json)
                .unwrap_or_else(|e| panic!("{id} envelope is not valid JSON: {e}"));
        }
    }
}
