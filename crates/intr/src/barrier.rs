//! Interrupt-level barrier synchronization.
//!
//! The costly operation section 7 warns about: "all involved processors
//! must enter the interrupt service routine before any can leave." TLB
//! shootdown (in `machk-vm`) is its one sanctioned use.
//!
//! [`IntrBarrier`] is the rendezvous object. The initiator posts an IPI
//! to every *participating* CPU whose handler calls
//! [`IntrBarrier::arrive_and_wait`], then arrives itself. CPUs the
//! caller has *exempted* (the section-7 special logic for processors
//! holding or acquiring a lock the initiator holds) still get the
//! interrupt — carrying the action to perform — but are not counted in
//! the rendezvous.
//!
//! Every spin carries a deadline, so the section-7 deadlock — a CPU
//! sitting at high spl that never takes its IPI — surfaces as
//! [`BarrierOutcome::Deadlocked`] instead of hanging the simulation.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::cpu::{current_cpu, Machine};
use crate::spl::{spl_raise, spl_restore, SplLevel};
use crate::watchdog::{spin_until, Deadline};

/// Result of a barrier-synchronized operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierOutcome {
    /// Every participant entered and left the rendezvous; the action ran
    /// on all interrupted CPUs.
    Completed,
    /// The rendezvous did not complete before the deadline — some
    /// participant never took its interrupt (the section-7 deadlock).
    Deadlocked,
}

/// The rendezvous all participants spin on.
pub struct IntrBarrier {
    needed: usize,
    arrived: AtomicUsize,
    failed: AtomicBool,
    deadline: Deadline,
}

impl IntrBarrier {
    /// A barrier expecting `needed` participants, giving up after
    /// `limit`.
    pub fn new(needed: usize, limit: Duration) -> Arc<IntrBarrier> {
        Arc::new(IntrBarrier {
            needed,
            arrived: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            deadline: Deadline::after(limit),
        })
    }

    /// Enter the rendezvous and spin until all participants have
    /// entered (or the deadline expires / another participant failed).
    pub fn arrive_and_wait(&self) -> BarrierOutcome {
        self.arrived.fetch_add(1, Ordering::AcqRel);
        let done = || {
            self.failed.load(Ordering::Acquire)
                || self.arrived.load(Ordering::Acquire) >= self.needed
        };
        if spin_until(&self.deadline, done).is_err() {
            self.failed.store(true, Ordering::Release);
        }
        // Failure wins over late completion: once any participant has
        // declared the rendezvous dead, stragglers (a masked CPU finally
        // taking its IPI) must not run the action.
        if self.failed.load(Ordering::Acquire) {
            BarrierOutcome::Deadlocked
        } else {
            BarrierOutcome::Completed
        }
    }
}

/// Perform `action` on every CPU of `machine` with barrier
/// synchronization at interrupt level, from the calling thread's CPU.
///
/// `exempt` lists CPU ids removed from the rendezvous (they still
/// receive the interrupt and run the action whenever they take it —
/// the paper's TLB-shootdown special logic). The initiator must be
/// bound to a CPU and must not be exempt.
///
/// The action runs on each CPU at IPI level; the initiator runs it
/// after the rendezvous completes, holding its spl at IPI level.
pub fn barrier_synchronize(
    machine: &Machine,
    action: Arc<dyn Fn(usize) + Send + Sync>,
    exempt: &[usize],
    limit: Duration,
) -> BarrierOutcome {
    let me = current_cpu().expect("barrier_synchronize: thread not bound to a CPU");
    assert!(
        !exempt.contains(&me.id()),
        "the initiating CPU cannot be exempt from its own barrier"
    );
    let participants = machine.ncpus() - exempt.iter().filter(|e| **e != me.id()).count();
    let barrier = IntrBarrier::new(participants, limit);

    for cpu in machine.cpus() {
        if cpu.id() == me.id() {
            continue;
        }
        let action = Arc::clone(&action);
        let id = cpu.id();
        if exempt.contains(&id) {
            // Exempted: interrupt still posted, action still performed,
            // but no rendezvous — "the TLB update is still posted for
            // that processor, and an interrupt is sent to it".
            cpu.post_interrupt(SplLevel::IPI, move || {
                action(id);
            });
        } else {
            let b = Arc::clone(&barrier);
            cpu.post_interrupt(SplLevel::IPI, move || {
                let outcome = b.arrive_and_wait();
                if outcome == BarrierOutcome::Completed {
                    action(id);
                }
            });
        }
    }

    // The initiator participates at IPI level (it must not take its own
    // barrier IPI recursively).
    let tok = spl_raise(SplLevel::IPI);
    let outcome = barrier.arrive_and_wait();
    if outcome == BarrierOutcome::Completed {
        action(me.id());
    }
    spl_restore(tok);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Machine;
    use crate::spl::spl_current;

    #[test]
    fn barrier_completes_on_responsive_machine() {
        let machine = Machine::new(4);
        let ran = Arc::new(AtomicUsize::new(0));
        let outcomes = machine.run(|cpu| {
            if cpu.id() == 0 {
                let ran = Arc::clone(&ran);
                let action: Arc<dyn Fn(usize) + Send + Sync> = Arc::new(move |_id| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
                Some(barrier_synchronize(
                    &machine,
                    action,
                    &[],
                    Duration::from_secs(10),
                ))
            } else {
                // Responsive CPU: polls at low spl until the barrier ran.
                while ran.load(Ordering::SeqCst) < 4 {
                    cpu.poll();
                    core::hint::spin_loop();
                }
                None
            }
        });
        assert_eq!(outcomes[0], Some(BarrierOutcome::Completed));
        assert_eq!(ran.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn barrier_deadlocks_when_a_cpu_is_masked() {
        // One CPU sits at splhigh and never takes its IPI: the barrier
        // must report a deadlock rather than hang.
        let machine = Machine::new(3);
        let ran = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let outcomes = machine.run(|cpu| {
            match cpu.id() {
                0 => {
                    let ran = Arc::clone(&ran);
                    let action: Arc<dyn Fn(usize) + Send + Sync> = Arc::new(move |_| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                    let r = barrier_synchronize(&machine, action, &[], Duration::from_millis(200));
                    done.store(true, Ordering::SeqCst);
                    Some(r)
                }
                1 => {
                    // Masked CPU: interrupts disabled, never polls until
                    // the initiator gave up.
                    let tok = spl_raise(SplLevel::SplHigh);
                    while !done.load(Ordering::SeqCst) {
                        core::hint::spin_loop();
                    }
                    spl_restore(tok); // late delivery: handler sees failure
                    None
                }
                _ => {
                    // Responsive CPU.
                    while !done.load(Ordering::SeqCst) {
                        cpu.poll();
                        core::hint::spin_loop();
                    }
                    None
                }
            }
        });
        assert_eq!(outcomes[0], Some(BarrierOutcome::Deadlocked));
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "action must not run partially"
        );
    }

    #[test]
    fn exempt_cpu_gets_action_without_rendezvous() {
        let machine = Machine::new(3);
        let ran = Arc::new(AtomicUsize::new(0));
        let outcomes = machine.run(|cpu| {
            match cpu.id() {
                0 => {
                    let ran = Arc::clone(&ran);
                    let action: Arc<dyn Fn(usize) + Send + Sync> = Arc::new(move |_| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                    // CPU 2 exempt: barrier needs only CPUs 0 and 1.
                    Some(barrier_synchronize(
                        &machine,
                        action,
                        &[2],
                        Duration::from_secs(10),
                    ))
                }
                1 => {
                    while ran.load(Ordering::SeqCst) < 2 {
                        cpu.poll();
                        core::hint::spin_loop();
                    }
                    None
                }
                _ => {
                    // Exempt CPU: busy elsewhere during the barrier, takes
                    // the posted update later.
                    while ran.load(Ordering::SeqCst) < 2 {
                        core::hint::spin_loop();
                    }
                    cpu.poll(); // now takes the posted action
                    None
                }
            }
        });
        assert_eq!(outcomes[0], Some(BarrierOutcome::Completed));
        assert_eq!(
            ran.load(Ordering::SeqCst),
            3,
            "exempt CPU ran the action late"
        );
    }

    #[test]
    fn initiator_runs_action_at_ipi_level() {
        let machine = Machine::new(1);
        let level = Arc::new(AtomicUsize::new(999));
        machine.run(|_cpu| {
            let level = Arc::clone(&level);
            let action: Arc<dyn Fn(usize) + Send + Sync> = Arc::new(move |_| {
                level.store(spl_current() as usize, Ordering::SeqCst);
            });
            let r = barrier_synchronize(&machine, action, &[], Duration::from_secs(5));
            assert_eq!(r, BarrierOutcome::Completed);
        });
        assert_eq!(level.load(Ordering::SeqCst), SplLevel::IPI as usize);
    }
}
