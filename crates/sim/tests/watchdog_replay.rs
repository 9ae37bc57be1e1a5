//! Satellite: a watchdog escalation under `machk-sim` must be
//! replayable *from the report alone* — the dump embeds the scheduler
//! seed, core count, and schedule trace, and pasting the embedded token
//! back into [`machk_sim::replay`] reproduces the identical hang.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use machk_intr::watchdog::run_threads_with_deadline;
use machk_sim::{replay, run, ReplayToken, SimConfig};
use machk_sync::host;

/// One stuck worker beside a healthy one; the watchdog detects the
/// hang in virtual time, escalates, and the scenario returns the report
/// (after releasing the stuck worker so the run can drain).
fn hang_and_escalate() -> String {
    let release = Arc::new(AtomicU32::new(0));
    let r2 = Arc::clone(&release);
    let bodies: Vec<Box<dyn FnOnce() + Send>> = vec![
        Box::new(|| host::advance(10_000)),
        Box::new(move || {
            // "Deadlocked" until the test releases it after escalation.
            while r2.load(Ordering::Acquire) == 0 {
                host::sleep(Duration::from_micros(100));
            }
        }),
    ];
    let verdict = run_threads_with_deadline(bodies, Duration::from_millis(2));
    let report = verdict
        .expect_err("stuck worker must trip the watchdog")
        .escalate();
    release.store(1, Ordering::Release);
    report.report
}

#[test]
fn escalation_report_replays_the_hang_byte_for_byte() {
    let cfg = SimConfig::DEFAULT.with_seed(0xD06_F00D).with_cores(8);
    let first = run(&cfg, hang_and_escalate).unwrap();
    assert!(
        first.value.contains("simulated host at detection"),
        "{}",
        first.value
    );
    assert!(first.value.contains("schedule tail:"), "{}", first.value);

    // Extract the replay token exactly as a human would: from the text.
    let token_str = first
        .value
        .lines()
        .find_map(|l| l.trim().strip_prefix("replay token: "))
        .expect("report embeds a replay token");
    let token: ReplayToken = token_str.parse().unwrap();
    assert_eq!(token.seed, 0xD06_F00D);
    assert_eq!(token.cores, 8);

    // Replaying from the printed token reproduces the identical run:
    // same schedule, same virtual clock, and a byte-identical report
    // (including the embedded schedule tail).
    let again = replay(&SimConfig::DEFAULT, &token, hang_and_escalate).unwrap();
    assert_eq!(first.trace.tids, again.trace.tids);
    assert_eq!(first.clock_ns, again.clock_ns);
    assert_eq!(first.value, again.value, "report is byte-identical");
}
