//! Deadline-based deadlock detection.
//!
//! The paper's section-7 and section-7.1 deadlocks are *real* deadlocks:
//! reproduced literally they would hang the process. Every spin loop in
//! the barrier machinery therefore carries a [`Deadline`], and the demos
//! report [`DeadlockDetected`] instead of hanging. The watchdog is part
//! of the simulation, not of the reproduced design — Mach had no such
//! escape hatch, which is why the paper's rules matter.
//!
//! [`Deadline`] itself lives in `machk-sync` (`machk_sync::deadline`),
//! the one budget every bounded wait in the stack measures; it is
//! re-exported here so the watchdog's name for it stays.

use std::fmt;
use std::time::Duration;

pub use machk_sync::Deadline;
use machk_sync::{host, probe, SpinSite, Spinner};

/// Error reported when a deadline expires while a coordination step is
/// still incomplete — the simulation's verdict that the configured
/// scenario deadlocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlockDetected {
    /// How long the watchdog waited.
    pub waited: Duration,
}

impl fmt::Display for DeadlockDetected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deadlock detected after {:?}", self.waited)
    }
}

impl std::error::Error for DeadlockDetected {}

impl DeadlockDetected {
    /// Escalate into a [`DeadlockReport`] (see [`escalate`]).
    pub fn escalate(self) -> DeadlockReport {
        escalate(self)
    }
}

/// The watchdog's escalation artifact: what was detected, plus whatever
/// diagnostic state the build can capture at the moment of detection.
#[derive(Debug, Clone)]
pub struct DeadlockReport {
    /// How long the watchdog waited before giving up.
    pub waited: Duration,
    /// Human-readable diagnostic dump.
    pub report: String,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.report)
    }
}

/// Escalate a detected deadlock into a diagnostic dump instead of a
/// bare error: the recovery discipline is *diagnose, never hang*, and a
/// diagnosis is only useful if it says what the system was doing.
///
/// The dump embeds every installed probe subscriber's description
/// ([`probe::describe`]): with `machk-obs`'s lockstat subscriber
/// installed, that is the capture at the instant of detection —
/// hottest locks, lock-order cycles, trace totals — which is precisely
/// the state a kernel debugger would want first. Without one, the dump
/// says what was detected and how to get the richer capture.
///
/// When the detecting thread runs under a simulated host (`machk-sim`),
/// the dump also embeds the host's self-description — scheduler seed,
/// core count, step position, and the schedule trace tail — so the hang
/// is replayable byte-for-byte from the report alone.
pub fn escalate(err: DeadlockDetected) -> DeadlockReport {
    let mut report = format!("WATCHDOG: {err}\n");
    if let Some(sim) = host::describe() {
        report.push_str("simulated host at detection (replay from this):\n");
        for line in sim.lines() {
            report.push_str("  ");
            report.push_str(line);
            report.push('\n');
        }
    }
    match probe::describe() {
        Some(dump) => report.push_str(&dump),
        None => report.push_str(
            "(build with the `probe` feature and install a lockstat subscriber \
             for a lockstat dump at detection)\n",
        ),
    }
    DeadlockReport {
        waited: err.waited,
        report,
    }
}

/// The error describing `deadline`'s expiry.
pub fn to_error(deadline: &Deadline) -> DeadlockDetected {
    DeadlockDetected {
        waited: deadline.waited(),
    }
}

/// Spin until `cond` is true or `deadline` expires, relaxing through a
/// [`Spinner`] so on an oversubscribed host the threads `cond` waits
/// for get CPU time.
pub fn spin_until(
    deadline: &Deadline,
    mut cond: impl FnMut() -> bool,
) -> Result<(), DeadlockDetected> {
    let mut spinner = Spinner::new(SpinSite::Generic);
    while !cond() {
        if deadline.expired() {
            return Err(to_error(deadline));
        }
        spinner.relax();
    }
    Ok(())
}

/// Run each closure on its own thread and wait up to `limit` for all of
/// them to finish.
///
/// Returns `Ok(results)` if every thread finished, or
/// `Err(DeadlockDetected)` if some were still running at the deadline.
/// Unfinished threads are **leaked** (detached) — the caller is a demo
/// or test process that exits soon after; a deadlocked kernel thread
/// cannot be cancelled, in the simulation any more than in Mach.
pub fn run_threads_with_deadline<R: Send + 'static>(
    bodies: Vec<Box<dyn FnOnce() -> R + Send>>,
    limit: Duration,
) -> Result<Vec<R>, DeadlockDetected> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    // Host threads + a host-clock spin instead of an OS channel with a
    // wall-clock `recv_timeout`: the same watchdog then works unchanged
    // under `machk-sim`, where the deadline expires in virtual time and
    // a genuinely stuck schedule is reported (with its replay seed)
    // instead of hanging the suite.
    let deadline = Deadline::after(limit);
    let n = bodies.len();
    let slots: Arc<Mutex<Vec<Option<R>>>> = Arc::new(Mutex::new((0..n).map(|_| None).collect()));
    let done = Arc::new(AtomicUsize::new(0));
    for (i, body) in bodies.into_iter().enumerate() {
        let slots = Arc::clone(&slots);
        let done = Arc::clone(&done);
        // Dropping the token detaches the thread, as the old spawn did.
        let _detached = host::spawn(move || {
            let r = body();
            // No host scheduling point sits between this lock and its
            // release, so a simulated thread can never be suspended
            // while holding it (plain OS mutex: safe on both hosts).
            slots.lock().unwrap()[i] = Some(r);
            done.fetch_add(1, Ordering::Release);
        });
    }
    spin_until(&deadline, || done.load(Ordering::Acquire) == n)?;
    let mut slots = slots.lock().unwrap();
    Ok(slots.drain(..).map(|s| s.unwrap()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn escalation_carries_diagnosis() {
        let err = DeadlockDetected {
            waited: Duration::from_millis(7),
        };
        let report = err.escalate();
        assert_eq!(report.waited, Duration::from_millis(7));
        assert!(report.report.contains("WATCHDOG"));
        assert!(report.report.contains("deadlock detected"));
    }

    #[test]
    fn deadline_expires() {
        let d = Deadline::after(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(10));
        assert!(d.expired());
        assert!(to_error(&d).waited >= Duration::from_millis(5));
    }

    #[test]
    fn spin_until_success() {
        let d = Deadline::after(Duration::from_secs(5));
        let flag = Arc::new(AtomicBool::new(false));
        let f = Arc::clone(&flag);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            f.store(true, Ordering::SeqCst);
        });
        assert!(spin_until(&d, || flag.load(Ordering::SeqCst)).is_ok());
        t.join().unwrap();
    }

    #[test]
    fn spin_until_deadlock() {
        let d = Deadline::after(Duration::from_millis(10));
        assert!(spin_until(&d, || false).is_err());
    }

    #[test]
    fn threads_all_finish() {
        let bodies: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..4usize)
            .map(|i| Box::new(move || i * 2) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let r = run_threads_with_deadline(bodies, Duration::from_secs(10)).unwrap();
        assert_eq!(r, vec![0, 2, 4, 6]);
    }

    #[test]
    fn stuck_thread_detected() {
        let stop = Arc::new(AtomicBool::new(false));
        let s = Arc::clone(&stop);
        let bodies: Vec<Box<dyn FnOnce() + Send>> = vec![
            Box::new(|| ()),
            Box::new(move || {
                // "Deadlocked" thread: spins until the test releases it.
                while !s.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            }),
        ];
        let r = run_threads_with_deadline(bodies, Duration::from_millis(50));
        assert!(r.is_err());
        stop.store(true, Ordering::SeqCst); // release the leaked thread
    }
}
