//! E3 — complex lock behaviour: reader parallelism and writers
//! priority.
//!
//! Paper §4: the Multiple protocol is "a multiple readers/single writer
//! lock, with writers priority to avoid starvation". Expected shape:
//! read-only workloads scale with threads; throughput falls as the
//! write fraction grows; the writer's worst-case wait under a
//! continuous reader storm stays bounded (no starvation).

use std::time::Duration;

use crate::report::BenchReport;
use crate::util::{sample, thread_sweep, Table};
use crate::workloads::{complex_lock_mix, writer_latency_under_readers};

/// Run E3; returns the rendered tables plus the JSON artifact body
/// (`BENCH_E03.json`, `machk-bench/v1` envelope).
pub fn run_report(quick: bool) -> (String, String) {
    let mut report = BenchReport::new(
        "E03",
        "Complex lock: reader parallelism & writers priority (paper §4)",
        quick,
    );
    let mut out = String::new();

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
    out.push_str(&t.render());

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
    out.push_str(&t.render());
    (out, report.render())
}
