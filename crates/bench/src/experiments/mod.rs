//! Experiments E1–E20: one module per entry in DESIGN.md's experiment
//! index, listed once in [`ALL`] with its id and title. Each module's
//! `run` fills the [`BenchReport`] that [`Experiment::report`] hands
//! it: the tables the `experiments` binary prints and the metrics
//! `bench-compare` gates (see [`crate::report`]). Under `--artifacts`
//! the binary writes each report's envelope as `BENCH_E01.json`…
//! `BENCH_E20.json`. Host throughput cells come from
//! [`crate::util::sample`]: a median and its MAD.
//!
//! A section whose feature is off still reports: it records its
//! `*_enabled = 0` metric and a status row through
//! [`BenchReport::compiled_out`].
//!
//! `quick = true` shrinks iteration counts and the sampler's target
//! time and sample count for CI/test runs; published numbers in
//! EXPERIMENTS.md come from `quick = false` release runs.

use crate::report::BenchReport;

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

/// What the command line asks of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Opts {
    /// Shrink iteration counts and sampling (CI and tests).
    pub quick: bool,
    /// E17's seed count (`--seeds N`; default 5 quick, 200 full).
    pub seeds: Option<u64>,
    /// E18's base scheduler seed (`--sim-seed N`).
    pub sim_seed: Option<u64>,
}

/// An experiment runner: fills the report it is handed.
pub type ReportFn = fn(&mut BenchReport, &Opts);

/// One experiment: its id, its title and its runner.
pub struct Experiment {
    /// The id the command line selects (`E1`…`E20`).
    pub id: &'static str,
    /// The envelope title and the binary's section header.
    pub title: &'static str,
    run: ReportFn,
}

impl Experiment {
    /// Run the experiment (its claims are asserted as it goes) and
    /// return its record.
    pub fn report(&self, opts: &Opts) -> BenchReport {
        let mut report = BenchReport::new(self.id, self.title, opts.quick);
        (self.run)(&mut report, opts);
        report
    }
}

/// Every experiment, in order.
pub static ALL: [Experiment; 20] = [
    entry(
        "E1",
        e01_simple_lock::run,
        "Simple lock acquisition policies (paper §2)",
    ),
    entry(
        "E2",
        e02_granularity::run,
        "Locking granularity: code vs data (paper §2)",
    ),
    entry(
        "E3",
        e03_complex_lock::run,
        "Complex lock: reader parallelism & writers priority (paper §4)",
    ),
    entry(
        "E4",
        e04_upgrade::run,
        "Upgrade vs write-then-downgrade (paper §7.1)",
    ),
    entry(
        "E5",
        e05_refcount::run,
        "Reference counting cost (paper §8)",
    ),
    entry(
        "E6",
        e06_event_wait::run,
        "Event wait: the split-wait protocol (paper §6)",
    ),
    entry(
        "E7",
        e07_interrupt_deadlock::run,
        "Interrupt-level barrier deadlock (paper §7)",
    ),
    entry("E8", e08_task_locks::run, "The task's two locks (paper §5)"),
    entry(
        "E9",
        e09_pmap_order::run,
        "pmap/pv-list lock ordering disciplines (paper §5)",
    ),
    entry(
        "E10",
        e10_pageable::run,
        "vm_map_pageable: recursive locks deadlock (paper §7.1)",
    ),
    entry(
        "E11",
        e11_vm_object::run,
        "Memory object dual reference counts (paper §8)",
    ),
    entry(
        "E12",
        e12_rpc::run,
        "Kernel RPC reference protocol (paper §10)",
    ),
    entry(
        "E13",
        e13_shutdown::run,
        "Deactivation & shutdown under fire (paper §9–10)",
    ),
    entry(
        "E14",
        e14_shootdown::run,
        "TLB shootdown & the pmap-lock special logic (paper §7)",
    ),
    entry(
        "E15",
        e15_usage_timing::run,
        "Usage timing without locks (paper §2)",
    ),
    entry(
        "E16",
        e16_lockstat::run,
        "Kernel-wide lockstat: contention, histograms, order cycles (obs layer)",
    ),
    entry(
        "E17",
        e17_chaos::run,
        "Seeded chaos: fault injection vs recovery across every layer (fault layer)",
    ),
    entry(
        "E18",
        e18_sim::run,
        "Deterministic schedule exploration on simulated N-core hosts (sim layer)",
    ),
    entry(
        "E19",
        e19_ipc_storm::run,
        "IPC engine storms: sharded namespace + lock-free rings at RPC scale",
    ),
    entry(
        "E20",
        e20_crash_storm::run,
        "Crash-and-overload storm: supervision, torn-section repair, reconciliation, shedding",
    ),
];

const fn entry(id: &'static str, run: ReportFn, title: &'static str) -> Experiment {
    Experiment { id, title, run }
}

#[cfg(test)]
mod tests {
    use crate::json::{parse, Value};

    /// Every experiment must run to completion in quick mode and emit a
    /// versioned envelope that carries its tables and no `extra`. (This
    /// is the harness's own integration test; the experiment *claims*
    /// are asserted inside each runner.)
    #[test]
    fn all_experiments_run_quick() {
        let opts = super::Opts {
            quick: true,
            ..Default::default()
        };
        for e in &super::ALL {
            let report = e.report(&opts);
            let text = report.text();
            assert!(text.contains("=="), "{} produced no table: {text}", e.id);
            let json = report.render();
            let doc = parse(&json)
                .unwrap_or_else(|err| panic!("{} envelope is not valid JSON: {err}", e.id));
            assert_eq!(
                doc.get("schema").and_then(Value::as_str),
                Some("machk-bench/v1"),
                "{} envelope is missing the schema tag",
                e.id
            );
            let tables = doc.get("tables").and_then(Value::as_arr).unwrap_or(&[]);
            assert!(!tables.is_empty(), "{} envelope carries no table", e.id);
            assert_eq!(
                doc.get("extra"),
                None,
                "{} envelope has an extra member",
                e.id
            );
        }
    }
}
