//! The usage-timing subsystem — coordination *without* locks.
//!
//! The paper (section 2) singles out exactly one place where Mach does
//! operation coordination without multiprocessor locking: "access to
//! timer data structures in its usage timing subsystem". The design
//! (Black's timing facility) gives each processor its own timer cells,
//! written only by that processor on every tick — the "independently
//! accessible memory cell per processor" the paper describes — while
//! readers on any processor use a check/retry protocol.
//!
//! [`TimerBank`] reproduces it over the simulated machine:
//!
//! * each vCPU owns one [`machk_sync::SeqCell`] of accumulated times,
//!   on a cache line of its own ([`CachePadded`]), so one CPU's tick
//!   never invalidates another CPU's cell;
//! * [`TimerBank::tick_current`] is called only from the owning CPU's
//!   bound thread (the single-writer restriction, enforced by a runtime
//!   check of the CPU binding);
//! * [`TimerBank::read_cpu`] / [`TimerBank::totals`] read from anywhere
//!   without ever delaying a tick.
//!
//! [`LockedTimerBank`] is the ablation (experiment E15): the same
//! accounting under per-CPU simple locks, pricing what the lock-free
//! exception buys on the tick path.

use machk_sync::{seq::SeqCell, CachePadded, SimpleLocked};

use crate::cpu::current_cpu_id;

/// Accumulated usage of one CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UsageSnap {
    /// Microseconds charged to user mode.
    pub user_us: u64,
    /// Microseconds charged to system mode.
    pub system_us: u64,
    /// Clock ticks accounted.
    pub ticks: u64,
}

/// Where a tick's time is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeKind {
    /// User-mode time.
    User,
    /// System (kernel) time.
    System,
}

/// Per-CPU usage timers with lock-free single-writer updates.
pub struct TimerBank {
    timers: Vec<CachePadded<SeqCell<UsageSnap>>>,
}

impl TimerBank {
    /// A bank for `ncpus` processors, all zeroed.
    pub fn new(ncpus: usize) -> TimerBank {
        TimerBank {
            timers: (0..ncpus)
                .map(|_| CachePadded::new(SeqCell::new_unowned(UsageSnap::default())))
                .collect(),
        }
    }

    /// Account one tick of `us` microseconds on the calling CPU.
    ///
    /// Must be called from a thread bound to a CPU; that binding is the
    /// single-writer restriction (panics otherwise). No lock is taken —
    /// the paper's one sanctioned lock-free update.
    pub fn tick_current(&self, kind: TimeKind, us: u64) {
        let cpu =
            current_cpu_id().expect("tick_current requires a bound CPU (it is the single writer)");
        let mut w = self.timers[cpu].writer();
        w.update(|mut s| {
            match kind {
                TimeKind::User => s.user_us += us,
                TimeKind::System => s.system_us += us,
            }
            s.ticks += 1;
            s
        });
    }

    /// Read one CPU's accumulated usage, from any thread. Retries past
    /// in-flight ticks; never delays the ticking CPU.
    pub fn read_cpu(&self, cpu: usize) -> UsageSnap {
        self.timers[cpu].read()
    }

    /// Sum across all CPUs (each CPU read consistently; the total is a
    /// moving target, as it was in Mach).
    pub fn totals(&self) -> UsageSnap {
        let mut t = UsageSnap::default();
        for cell in &self.timers {
            let s = cell.read();
            t.user_us += s.user_us;
            t.system_us += s.system_us;
            t.ticks += s.ticks;
        }
        t
    }

    /// Number of CPUs in the bank.
    pub fn ncpus(&self) -> usize {
        self.timers.len()
    }
}

/// The lock-based ablation: identical accounting under per-CPU simple
/// locks (what Mach would have done had it not made the exception).
pub struct LockedTimerBank {
    timers: Vec<CachePadded<SimpleLocked<UsageSnap>>>,
}

impl LockedTimerBank {
    /// A bank for `ncpus` processors, all zeroed.
    pub fn new(ncpus: usize) -> LockedTimerBank {
        LockedTimerBank {
            timers: (0..ncpus)
                .map(|_| CachePadded::new(SimpleLocked::new(UsageSnap::default())))
                .collect(),
        }
    }

    /// Account one tick on the calling CPU — through the lock.
    pub fn tick_current(&self, kind: TimeKind, us: u64) {
        let cpu = current_cpu_id().expect("tick_current requires a bound CPU");
        let mut s = self.timers[cpu].lock();
        match kind {
            TimeKind::User => s.user_us += us,
            TimeKind::System => s.system_us += us,
        }
        s.ticks += 1;
    }

    /// Read one CPU's usage — through the lock.
    pub fn read_cpu(&self, cpu: usize) -> UsageSnap {
        *self.timers[cpu].lock()
    }

    /// Sum across all CPUs.
    pub fn totals(&self) -> UsageSnap {
        let mut t = UsageSnap::default();
        for cell in &self.timers {
            let s = *cell.lock();
            t.user_us += s.user_us;
            t.system_us += s.system_us;
            t.ticks += s.ticks;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Machine;

    #[test]
    fn ticks_accumulate_per_cpu() {
        let machine = Machine::new(2);
        let bank = TimerBank::new(2);
        machine.run(|cpu| {
            for _ in 0..100 {
                bank.tick_current(TimeKind::User, 10);
            }
            if cpu.id() == 0 {
                bank.tick_current(TimeKind::System, 5);
            }
        });
        let c0 = bank.read_cpu(0);
        let c1 = bank.read_cpu(1);
        assert_eq!(c0.user_us, 1_000);
        assert_eq!(c0.system_us, 5);
        assert_eq!(c0.ticks, 101);
        assert_eq!(
            c1,
            UsageSnap {
                user_us: 1_000,
                system_us: 0,
                ticks: 100
            }
        );
        assert_eq!(bank.totals().ticks, 201);
    }

    #[test]
    fn per_cpu_cells_sit_on_separate_cache_lines() {
        fn gap<T>(a: &T, b: &T) -> usize {
            (b as *const T as usize).abs_diff(a as *const T as usize)
        }
        let free = TimerBank::new(2);
        let locked = LockedTimerBank::new(2);
        assert!(gap(&*free.timers[0], &*free.timers[1]) >= 64);
        assert!(gap(&*locked.timers[0], &*locked.timers[1]) >= 64);
    }

    #[test]
    #[should_panic(expected = "bound CPU")]
    fn tick_off_cpu_panics() {
        let bank = TimerBank::new(1);
        bank.tick_current(TimeKind::User, 1);
    }

    #[test]
    fn readers_see_consistent_snapshots_under_tick_storm() {
        // Writer invariant: user_us == 10 * ticks. Readers must never
        // see it broken mid-tick.
        let machine = Machine::new(1);
        let bank = TimerBank::new(1);
        std::thread::scope(|s| {
            let bank = &bank;
            let machine = &machine;
            s.spawn(move || {
                let _g = machine.cpu(0).enter();
                for _ in 0..100_000 {
                    bank.tick_current(TimeKind::User, 10);
                }
            });
            for _ in 0..2 {
                s.spawn(move || loop {
                    let snap = bank.read_cpu(0);
                    assert_eq!(snap.user_us, 10 * snap.ticks, "torn timer read");
                    if snap.ticks == 100_000 {
                        break;
                    }
                });
            }
        });
    }

    #[test]
    fn locked_bank_matches_lockfree_results() {
        let machine = Machine::new(2);
        let a = TimerBank::new(2);
        let b = LockedTimerBank::new(2);
        machine.run(|_cpu| {
            for i in 0..500u64 {
                let kind = if i % 3 == 0 {
                    TimeKind::System
                } else {
                    TimeKind::User
                };
                a.tick_current(kind, i % 7);
                b.tick_current(kind, i % 7);
            }
        });
        for cpu in 0..2 {
            assert_eq!(a.read_cpu(cpu), b.read_cpu(cpu));
        }
        assert_eq!(a.totals(), b.totals());
    }
}
