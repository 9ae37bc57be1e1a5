//! E3 — complex lock behaviour: reader parallelism and writers
//! priority.
//!
//! Paper §4: the Multiple protocol is "a multiple readers/single writer
//! lock, with writers priority to avoid starvation". Expected shape:
//! read-only workloads scale with threads; throughput falls as the
//! write fraction grows; the writer's worst-case wait under a
//! continuous reader storm stays bounded (no starvation).

use std::time::Duration;

use super::Opts;
use crate::report::BenchReport;
use crate::util::{sample, thread_sweep, Table};
use crate::workloads::{complex_lock_mix, writer_latency_under_readers};

/// Run E3 into `report`.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let quick = opts.quick;

    let mut t = Table::new(
        "E3a: readers/writer mix throughput (ops/s, median ±MAD)",
        &[
            "threads",
            "0% writes",
            "1% writes",
            "10% writes",
            "50% writes",
        ],
    );
    for threads in thread_sweep() {
        let mut cells = vec![threads.to_string()];
        for pct in [0, 1, 10, 50] {
            let rate = sample(quick, threads, |n| complex_lock_mix(pct, threads, n));
            cells.push(rate.cell());
            if threads == 4 && (pct == 0 || pct == 50) {
                report.sampled(&format!("mix_w{pct}_ops_per_sec_4t"), rate, "ops/s");
            }
        }
        t.row(&cells);
    }
    t.note("read-mostly workloads are where the Multiple protocol pays for itself");
    report.table(t);

    let dur = if quick {
        Duration::from_millis(100)
    } else {
        Duration::from_millis(500)
    };
    let mut t = Table::new(
        "E3b: writer wait under a continuous reader storm",
        &["reader threads", "mean wait (us)", "worst wait (us)"],
    );
    for threads in thread_sweep() {
        let (mean, worst) = writer_latency_under_readers(threads, dur);
        t.row(&[
            threads.to_string(),
            format!("{mean:.1}"),
            format!("{worst:.1}"),
        ]);
        if threads == 4 {
            // Starvation-freedom shows as a *bounded* worst case, but
            // the bound itself is host scheduling — trajectory only.
            report.info("writer_worst_wait_us_4t", worst, "us");
        }
    }
    t.note("writers priority: 'readers may not be added ... in the presence of an outstanding write request'");
    report.table(t);
}
