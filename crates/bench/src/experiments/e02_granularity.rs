//! E2 — locking granularity: code locking vs data locking.
//!
//! Paper §2: a single kernel lock (or a master processor) "restricts
//! kernel execution to essentially one processor at a time ...
//! \[causing\] performance bottlenecks. The alternative is to associate
//! locks with data structures; this allows code to execute in parallel
//! with itself". Expected shape: global-lock and master-processor stay
//! flat (or degrade) as threads grow; per-structure locking scales.
//!
//! The host half measures wall time and therefore needs real CPUs to
//! show parallelism. The `--features sim` half removes that caveat: the
//! same global-vs-fine split runs on *simulated* 1- and 8-core
//! `machk-sim` hosts where each critical section carries a modeled
//! cost, so the separation (fine-grained overlaps across cores, the
//! global lock serializes and pays coherence for its spinners) is
//! measured in virtual time on any box — and asserted: ≥ 4× at 8
//! simulated cores, gone (≤ 2×) at 1.

use super::Opts;
use crate::report::BenchReport;
use crate::util::{sample, thread_sweep, Table};
use crate::workloads::{granularity_bank, Granularity};

/// Run E2 into `report`.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let quick = opts.quick;
    let nstructs = 64;
    let mut t = Table::new(
        "E2: ops/s on a bank of 64 independent structures (median ±MAD)",
        &[
            "threads",
            "global-lock",
            "master-cpu",
            "per-structure",
            "per-struct speedup",
        ],
    );
    for threads in thread_sweep() {
        let [global, master, fine] = Granularity::ALL.map(|g| {
            sample(quick, threads, |n| {
                granularity_bank(g, nstructs, threads, n)
            })
        });
        t.row(&[
            threads.to_string(),
            global.cell(),
            master.cell(),
            fine.cell(),
            format!("{:.1}x", fine.median / global.median),
        ]);
        if threads == 4 {
            report.sampled("global_lock_ops_per_sec_4t", global, "ops/s");
            report.sampled("per_structure_ops_per_sec_4t", fine, "ops/s");
        }
    }
    t.note("paper: locks on code serialize the kernel; locks on data let it run in parallel with itself");
    report.table(t);
    #[cfg(feature = "sim")]
    sim_section(quick, report);
    #[cfg(not(feature = "sim"))]
    report.compiled_out(
        "sim_enabled",
        "sim",
        "E2-sim: global vs per-structure on simulated hosts",
        "for the virtual-time separation",
    );
}

/// Global-vs-fine on simulated 1- and 8-core hosts: the multi-core
/// separation measured in virtual time (no host-CPU caveat).
#[cfg(feature = "sim")]
fn sim_section(quick: bool, report: &mut BenchReport) {
    use std::sync::Arc;

    use machk_core::sync::host;
    use machk_core::SimpleLocked;
    use machk_sim::{run as sim_run, SimConfig};

    const THREADS: usize = 8;
    const NSTRUCTS: usize = 64;
    /// Modeled critical-section cost (virtual ns) per structure op.
    const CS_NS: u64 = 200;

    let ops: u64 = if quick { 40 } else { 150 };

    // Virtual time for 8 threads × `ops` structure operations with one
    // lock around the whole bank, or one lock per structure.
    let bank_clock_ns = |cores: usize, global: bool| -> u64 {
        let cfg = SimConfig::DEFAULT.with_cores(cores).with_seed(0xE2_51);
        sim_run(&cfg, move || {
            let whole: Arc<SimpleLocked<Vec<u64>>> =
                Arc::new(SimpleLocked::new(vec![0u64; NSTRUCTS]));
            let fine: Arc<Vec<SimpleLocked<u64>>> =
                Arc::new((0..NSTRUCTS).map(|_| SimpleLocked::new(0u64)).collect());
            let ts: Vec<_> = (0..THREADS)
                .map(|t| {
                    let whole = Arc::clone(&whole);
                    let fine = Arc::clone(&fine);
                    host::spawn(move || {
                        let mut idx = t;
                        for _ in 0..ops {
                            idx = (idx * 1103515245 + 12345) % NSTRUCTS;
                            if global {
                                let mut b = whole.lock();
                                host::advance(CS_NS);
                                b[idx] += 1;
                            } else {
                                let mut s = fine[idx].lock();
                                host::advance(CS_NS);
                                *s += 1;
                            }
                        }
                    })
                })
                .collect();
            for t in ts {
                host::join(t);
            }
        })
        .unwrap_or_else(|e| panic!("E2-sim({cores} cores, global={global}) failed: {e}"))
        .clock_ns
    };

    let mut t = Table::new(
        "E2-sim: global vs per-structure on simulated hosts, 8 threads (virtual ns)",
        &["cores", "global-lock", "per-structure", "separation"],
    );
    let mut ratios = Vec::new();
    for cores in [1usize, 8] {
        let global = bank_clock_ns(cores, true);
        let fine = bank_clock_ns(cores, false);
        let ratio = global as f64 / fine.max(1) as f64;
        t.row(&[
            cores.to_string(),
            global.to_string(),
            fine.to_string(),
            format!("{ratio:.2}x"),
        ]);
        ratios.push((cores, ratio));
    }
    let (_, r1) = ratios[0];
    let (_, r8) = ratios[1];
    // Virtual-time ratios are deterministic given (seed, cores), so
    // they gate exact; the asserts below hold the claim itself.
    report.exact("sim_enabled", 1.0, "bool");
    report.exact("sim_separation_8c", r8, "ratio");
    report.exact("sim_separation_1c", r1, "ratio");
    assert!(
        r8 >= 4.0,
        "data locking must beat the global lock by >=4x on 8 simulated cores (got {r8:.2}x)"
    );
    assert!(
        r1 <= 2.0,
        "the separation must vanish on 1 simulated core (got {r1:.2}x) — it is parallelism, \
         not lock overhead"
    );
    t.note("each critical section modeled at 200 virtual ns; coherence charged per same-line spinner");
    t.note("asserted: >=4x at 8 cores, <=2x at 1 core — the separation IS the parallelism");
    report.table(t);
}
