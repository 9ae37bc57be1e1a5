//! E13 — deactivation and the four-step shutdown, under fire.
//!
//! Paper §9–10: operations racing with shutdown either complete or
//! "perform whatever recovery code is required ... and return a
//! failure code"; after step 2 the port no longer translates; the data
//! structure survives until the last reference drops. The trial fires
//! RPC operations and terminators at a pool of task-behind-port
//! objects and audits every outcome.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use machk_ipc::{Message, RefSemantics, RpcError, RpcStats};
use machk_kernel::{kernel_dispatch_table, op_ids, ops::create_task_with_port, shutdown};

use super::Opts;
use crate::report::BenchReport;
use crate::util::Table;

/// Run E13 into `report`.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let objects = if opts.quick { 8 } else { 32 };
    let ops_per_thread = if opts.quick { 200 } else { 20_000 };
    let table = Arc::new(kernel_dispatch_table());
    let stats = RpcStats::new();

    let completed = AtomicU64::new(0);
    let deactivated = AtomicU64::new(0);
    let port_dead = AtomicU64::new(0);
    let shutdown_wins = AtomicU64::new(0);
    let shutdown_losses = AtomicU64::new(0);

    for _ in 0..objects {
        let (task, port) = create_task_with_port();
        std::thread::scope(|s| {
            // Operation threads.
            for _ in 0..3 {
                let table = Arc::clone(&table);
                let port = port.clone();
                let (completed, deactivated, port_dead) = (&completed, &deactivated, &port_dead);
                let stats = &stats;
                s.spawn(move || {
                    for _ in 0..ops_per_thread {
                        match table.msg_rpc(
                            &port,
                            Message::new(op_ids::TASK_SUSPEND),
                            RefSemantics::Mach30,
                            stats,
                        ) {
                            Ok(_) => completed.fetch_add(1, Ordering::Relaxed), // relaxed: outcome tally; read after join
                            Err(RpcError::Operation(_)) => {
                                deactivated.fetch_add(1, Ordering::Relaxed) // relaxed: outcome tally; read after join
                            }
                            Err(RpcError::Port(_)) => port_dead.fetch_add(1, Ordering::Relaxed), // relaxed: outcome tally; read after join
                            Err(e) => unreachable!("unexpected rpc outcome: {e}"),
                        };
                    }
                });
            }
            // Racing terminators.
            for _ in 0..2 {
                let port = port.clone();
                let task = task.clone();
                let (wins, losses) = (&shutdown_wins, &shutdown_losses);
                s.spawn(move || {
                    // Land mid-storm even on a single-CPU host.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    if shutdown::shutdown_task(&port, task).is_ok() {
                        wins.fetch_add(1, Ordering::Relaxed); // relaxed: outcome tally; read after join
                    } else {
                        losses.fetch_add(1, Ordering::Relaxed); // relaxed: outcome tally; read after join
                    }
                });
            }
            drop(task);
        });
        // Post-conditions per object: translation disabled, port dead.
        assert!(port.kernel_object().is_err(), "step 2 disabled translation");
        assert!(!port.is_alive());
    }

    let total_ops = objects as u64 * 3 * ops_per_thread as u64;
    let mut t = Table::new(
        "E13: operations racing shutdown (audited outcomes)",
        &["metric", "count"],
    );
    t.row(&["objects shut down".into(), objects.to_string()]);
    t.row(&["operations issued".into(), total_ops.to_string()]);
    t.row(&[
        "completed".into(),
        completed.load(Ordering::Relaxed).to_string(), // relaxed: read after scope join
    ]);
    t.row(&[
        "failed: object deactivated".into(),
        deactivated.load(Ordering::Relaxed).to_string(), // relaxed: read after scope join
    ]);
    t.row(&[
        "failed: port dead / translation off".into(),
        port_dead.load(Ordering::Relaxed).to_string(), // relaxed: read after scope join
    ]);
    t.row(&[
        "shutdown winners".into(),
        shutdown_wins.load(Ordering::Relaxed).to_string(), // relaxed: read after scope join
    ]);
    t.row(&[
        "shutdown losers".into(),
        shutdown_losses.load(Ordering::Relaxed).to_string(), // relaxed: read after scope join
    ]);
    t.note("every operation completed or failed cleanly; reference flow balanced");
    let accounted = completed.load(Ordering::Relaxed) // relaxed: read after scope join
        + deactivated.load(Ordering::Relaxed) // relaxed: read after scope join
        + port_dead.load(Ordering::Relaxed); // relaxed: read after scope join
    assert_eq!(accounted, total_ops);
    assert_eq!(shutdown_wins.load(Ordering::Relaxed), objects as u64); // relaxed: read after scope join
    assert_eq!(shutdown_losses.load(Ordering::Relaxed), objects as u64); // relaxed: read after scope join
    assert!(stats.balanced());
    report.table(t);

    report.exact(
        "unaccounted_operations",
        (total_ops - accounted) as f64,
        "count",
    );
    report.exact(
        "shutdown_win_deficit",
        (objects as u64 - shutdown_wins.load(Ordering::Relaxed)) as f64, // relaxed: read after scope join
        "count",
    );
    report.exact(
        "rpc_ledger_balanced",
        u64::from(stats.balanced()) as f64,
        "bool",
    );
    report.info("operations_issued", total_ops as f64, "count");
}
