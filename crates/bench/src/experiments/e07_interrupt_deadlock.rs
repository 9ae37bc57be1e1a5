//! E7 — the three-processor interrupt deadlock, and the discipline
//! that prevents it.
//!
//! Paper §7, verbatim scenario:
//!
//! > Processor 1 has the lock with interrupts enabled. Processor 2 has
//! > disabled interrupts and is attempting to acquire the lock.
//! > Processor 3 initiates interrupt barrier synchronization.
//! > Processor 1 takes the interrupt, processor 2 does not. The system
//! > now deadlocks ...
//!
//! The fix: "each lock must always be acquired at the same interrupt
//! priority level, and held at that level or higher."
//!
//! Part A reproduces the deadlock (detected by the simulation's
//! watchdog deadline). Part B runs the same three processors under the
//! one-level discipline and the barrier completes.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use machk_core::sync::{SpinSite, Spinner};
use machk_core::RawSimpleLock;
use machk_intr::{barrier_synchronize, spl_raise, spl_restore, BarrierOutcome, Machine, SplLevel};

use super::Opts;
use crate::report::BenchReport;
use crate::util::Table;

/// Run E7 into `report`.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let limit = if opts.quick {
        Duration::from_millis(200)
    } else {
        Duration::from_millis(800)
    };

    let inconsistent = scenario(false, limit);
    let disciplined = scenario(true, limit);

    let mut t = Table::new(
        "E7: 3-CPU barrier synchronization vs lock/interrupt discipline",
        &["configuration", "barrier outcome"],
    );
    t.row(&[
        "inconsistent (P1 holds at spl0, P2 spins at splhigh)".into(),
        format!("{inconsistent:?}"),
    ]);
    t.row(&[
        "disciplined (lock always acquired at splhigh)".into(),
        format!("{disciplined:?}"),
    ]);
    t.note("paper section 7: inconsistent interrupt protection deadlocks barrier synchronization");
    assert_eq!(inconsistent, BarrierOutcome::Deadlocked);
    assert_eq!(disciplined, BarrierOutcome::Completed);
    report.table(t);

    report.exact(
        "inconsistent_deadlocked",
        u64::from(inconsistent == BarrierOutcome::Deadlocked) as f64,
        "bool",
    );
    report.exact(
        "disciplined_completed",
        u64::from(disciplined == BarrierOutcome::Completed) as f64,
        "bool",
    );
    #[cfg(feature = "sim")]
    sim_section(report);
    #[cfg(not(feature = "sim"))]
    report.compiled_out(
        "sim_enabled",
        "sim",
        "E7b: the same scenario on a simulated 3-core host (machk-sim)",
        "to replay the §7 deadlock from a scheduler seed",
    );
}

/// The simulated-host half: the same three-processor scenario on three
/// *virtual* CPUs under the seeded cooperative scheduler — the §7
/// deadlock and its cure become schedule facts replayable from
/// (scheduler seed, cores), with the watchdog deadline expiring in
/// deterministic virtual time.
#[cfg(feature = "sim")]
fn sim_section(report: &mut BenchReport) {
    use machk_sim::{run as sim_run, SimConfig};

    // Virtual-time deadline: the waiters spin, yield, then park in
    // 50 µs steps, so 100 virtual µs expires within a few hundred
    // scheduling steps — far below the step-limit backstop, far above
    // what the disciplined rendezvous needs.
    let limit = Duration::from_micros(100);
    let run_one = |disciplined: bool, seed: u64| -> (BarrierOutcome, u64) {
        let slot = Arc::new(std::sync::Mutex::new(None));
        let out = Arc::clone(&slot);
        let sim = sim_run(
            &SimConfig::DEFAULT.with_cores(3).with_seed(seed),
            move || {
                let outcome = scenario(disciplined, limit);
                *out.lock().unwrap() = Some(outcome);
            },
        )
        .unwrap_or_else(|e| panic!("E7 sim scenario failed: {e}"));
        let outcome = slot.lock().unwrap().take().expect("scenario outcome");
        (outcome, sim.clock_ns)
    };

    let (inconsistent, clock_a) = run_one(false, 0xE07);
    let (inconsistent_b, clock_b) = run_one(false, 0xE07);
    let (disciplined, _) = run_one(true, 0xE07);
    assert_eq!(inconsistent, BarrierOutcome::Deadlocked);
    assert_eq!(inconsistent, inconsistent_b);
    assert_eq!(
        clock_a, clock_b,
        "same scheduler seed must replay the deadlock at the same virtual instant"
    );
    assert_eq!(disciplined, BarrierOutcome::Completed);

    report.exact("sim_enabled", 1.0, "bool");
    report.exact(
        "sim_inconsistent_deadlocked",
        u64::from(inconsistent == BarrierOutcome::Deadlocked) as f64,
        "bool",
    );
    report.exact(
        "sim_disciplined_completed",
        u64::from(disciplined == BarrierOutcome::Completed) as f64,
        "bool",
    );
    report.exact("sim_replay_identical", 1.0, "bool"); // asserted above

    let mut t = Table::new(
        "E7b: the same scenario on a simulated 3-core host (machk-sim)",
        &["configuration", "barrier outcome", "virtual clock"],
    );
    t.row(&[
        "inconsistent (seeded schedule, run twice)".into(),
        format!("{inconsistent:?}"),
        format!("{clock_a} ns == {clock_b} ns"),
    ]);
    t.row(&[
        "disciplined (same seed)".into(),
        format!("{disciplined:?}"),
        "-".into(),
    ]);
    t.note("vCPUs, barrier spins, and the watchdog deadline all run on the Host trait");
    report.table(t);
}

/// Run the three-processor scenario. With `disciplined`, both lock
/// users acquire at splhigh (IPIs masked only while the lock is held,
/// and the holder cannot be interrupted mid-hold); without, P1 holds at
/// spl0 (and takes the barrier IPI *while holding the lock*) while P2
/// spins masked.
fn scenario(disciplined: bool, limit: Duration) -> BarrierOutcome {
    let machine = Arc::new(Machine::new(3));
    let lock: Arc<RawSimpleLock> = Arc::new(RawSimpleLock::new());
    let stage = Arc::new(AtomicUsize::new(0));
    let finished = Arc::new(AtomicBool::new(false));

    // Every loop below waits on another vCPU's progress, so each relaxes
    // through a `Spinner`: under machk-sim a parked waiter's timer fires
    // only once no thread is runnable, so one bare spin beside a parked
    // initiator would keep its deadline from ever arriving.
    let outcomes = machine.run(|cpu| {
        let mut spinner = Spinner::new(SpinSite::Generic);
        match cpu.id() {
            // ---- Processor 1: the lock holder.
            0 => {
                if disciplined {
                    // Acquire at splhigh; hold briefly; release; lower
                    // (taking any pending IPI); repeat until the barrier
                    // is done.
                    stage.store(1, Ordering::SeqCst);
                    while !finished.load(Ordering::SeqCst) {
                        let tok = spl_raise(SplLevel::SplHigh);
                        lock.lock_raw();
                        std::hint::black_box(());
                        lock.unlock_raw();
                        spl_restore(tok); // delivery point
                        spinner.relax();
                    }
                } else {
                    // Acquire at spl0 with interrupts enabled and *stay
                    // in the critical section*, polling (a real CPU
                    // takes interrupts whenever they are enabled).
                    lock.lock_raw();
                    stage.store(1, Ordering::SeqCst);
                    while !finished.load(Ordering::SeqCst) {
                        cpu.poll(); // takes the barrier IPI while holding the lock
                        spinner.relax();
                    }
                    lock.unlock_raw();
                }
                None
            }
            // ---- Processor 2: masked acquirer.
            1 => {
                while stage.load(Ordering::SeqCst) < 1 {
                    spinner.relax();
                }
                let mut spinner = Spinner::new(SpinSite::Generic);
                if disciplined {
                    // The same raise / acquire / release / restore cycle
                    // as P1: the lock is only ever taken at splhigh, and
                    // every restore is an IPI delivery point.
                    while !finished.load(Ordering::SeqCst) {
                        let tok = spl_raise(SplLevel::SplHigh);
                        lock.lock_raw();
                        lock.unlock_raw();
                        spl_restore(tok);
                        spinner.relax();
                    }
                    return None;
                }
                let tok = spl_raise(SplLevel::SplHigh);
                // Spins masked for a lock held across the barrier: never
                // takes its IPI — the deadlock edge.
                loop {
                    if lock.try_lock_raw() {
                        lock.unlock_raw();
                        break;
                    }
                    if finished.load(Ordering::SeqCst) {
                        break; // initiator gave up (watchdog)
                    }
                    spinner.relax();
                }
                spl_restore(tok);
                None
            }
            // ---- Processor 3: barrier initiator.
            _ => {
                while stage.load(Ordering::SeqCst) < 1 {
                    cpu.poll();
                    spinner.relax();
                }
                let action: Arc<dyn Fn(usize) + Send + Sync> = Arc::new(|_| {});
                let outcome = barrier_synchronize(&machine, action, &[], limit);
                finished.store(true, Ordering::SeqCst);
                Some(outcome)
            }
        }
    });
    outcomes
        .into_iter()
        .flatten()
        .next()
        .expect("initiator outcome")
}
