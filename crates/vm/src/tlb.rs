//! TLB shootdown over the simulated multiprocessor.
//!
//! Section 7's single sanctioned use of interrupt-level barrier
//! synchronization. Each vCPU has a software TLB (a translation cache);
//! changing a pmap requires invalidating every CPU's cached
//! translations, with the barrier ensuring no CPU keeps using a stale
//! entry: "all involved processors must enter the interrupt service
//! routine before any can leave."
//!
//! The special logic the paper describes is reproduced: pmap locks are
//! acquired with the interprocessor interrupt masked, so a processor
//! "attempting to acquire or holding such a lock" cannot take the
//! barrier IPI. The shootdown "removes \[such\] a processor from the set
//! of processors that must participate in the barrier synchronization.
//! The TLB update is still posted for that processor, and an interrupt
//! is sent to it. The processor will reenable interrupts, and hence
//! take this interrupt before it touches pageable memory again."

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use machk_core::sync::{SpinSite, Spinner};
use machk_core::SimpleLocked;
use machk_intr::{
    barrier_synchronize, current_cpu, spl_raise, spl_restore, BarrierOutcome, Machine, SplLevel,
    SplLock, SplToken,
};

use crate::page::PageId;

type TlbCache = SimpleLocked<HashMap<(usize, u64), PageId>>;

/// Per-CPU TLBs, pmap locks, and the shootdown machinery.
pub struct TlbSystem {
    machine: Arc<Machine>,
    tlbs: Vec<TlbCache>,
    /// One lock per pmap, always acquired at IPI level (masked), per
    /// the one-spl-per-lock rule.
    pmap_locks: Vec<SplLock>,
    /// `busy[pmap][cpu]`: the CPU is attempting to acquire, or holds,
    /// that pmap's lock — the exemption set for shootdowns.
    busy: Vec<Vec<AtomicBool>>,
    /// Completed shootdowns (diagnostics / benches).
    shootdowns: AtomicU64,
    /// TLB invalidations performed (diagnostics / benches).
    invalidations: AtomicU64,
}

impl TlbSystem {
    /// A TLB system for `machine` with `npmaps` pmaps.
    pub fn new(machine: Arc<Machine>, npmaps: usize) -> TlbSystem {
        let ncpus = machine.ncpus();
        TlbSystem {
            machine,
            tlbs: (0..ncpus)
                .map(|_| SimpleLocked::new(HashMap::new()))
                .collect(),
            pmap_locks: (0..npmaps)
                .map(|_| SplLock::at_level(SplLevel::IPI))
                .collect(),
            busy: (0..npmaps)
                .map(|_| (0..ncpus).map(|_| AtomicBool::new(false)).collect())
                .collect(),
            shootdowns: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Cache a translation in the calling CPU's TLB.
    pub fn cache_translation(&self, pmap: usize, va: u64, pa: PageId) {
        let cpu = current_cpu().expect("TLB access requires a CPU").id();
        self.tlbs[cpu].lock().insert((pmap, va), pa);
    }

    /// Look up a translation in the calling CPU's TLB.
    pub fn cached_translation(&self, pmap: usize, va: u64) -> Option<PageId> {
        let cpu = current_cpu().expect("TLB access requires a CPU").id();
        self.tlbs[cpu].lock().get(&(pmap, va)).copied()
    }

    /// Whether any CPU still caches a translation for `(pmap, va)`
    /// (diagnostics for the consistency tests).
    pub fn stale_anywhere(&self, pmap: usize, va: u64) -> bool {
        self.tlbs.iter().any(|t| t.lock().contains_key(&(pmap, va)))
    }

    fn flush_pmap_on(&self, cpu: usize, pmap: usize) {
        let mut t = self.tlbs[cpu].lock();
        let before = t.len();
        t.retain(|(p, _), _| *p != pmap);
        let removed = before - t.len();
        if removed > 0 {
            self.invalidations
                // relaxed: monotone diagnostics counter.
                .fetch_add(removed as u64, Ordering::Relaxed);
        }
    }

    /// Acquire pmap `pmap`'s lock: raise spl to IPI level (masking the
    /// shootdown interrupt, as real pmap paths running at interrupt
    /// level must), flag this CPU as busy on the pmap, and spin.
    pub fn lock_pmap(&self, pmap: usize) -> PmapGuard<'_> {
        let cpu = current_cpu().expect("pmap lock requires a CPU").id();
        let token = spl_raise(SplLevel::IPI);
        // Flag before spinning: "attempting to acquire" is part of the
        // exemption set.
        self.busy[pmap][cpu].store(true, Ordering::SeqCst);
        // Spin masked — this CPU cannot take the barrier IPI, which is
        // exactly why the exemption logic must exist. (The spinner's
        // yields and parks bound the spin on oversubscribed hosts; the
        // simulated CPU stays masked.)
        let mut spinner = Spinner::new(SpinSite::Generic);
        while !self.pmap_locks[pmap].try_lock() {
            spinner.relax();
        }
        PmapGuard {
            system: self,
            pmap,
            cpu,
            token: Some(token),
        }
    }

    /// Perform `update` on pmap `pmap` and shoot down every CPU's
    /// cached translations for it, with interrupt-level barrier
    /// synchronization.
    ///
    /// Returns the barrier outcome; on `Deadlocked` the update has
    /// still been applied locally and posted to the exempt CPUs, but
    /// remote *participants* did not confirm the flush (the simulation
    /// surfaces what Mach would have hung on).
    pub fn shootdown_update(
        &self,
        pmap: usize,
        update: impl FnOnce(),
        limit: Duration,
    ) -> BarrierOutcome {
        let guard = self.lock_pmap(pmap);
        let outcome = self.shootdown_update_locked(&guard, update, limit);
        drop(guard);
        outcome
    }

    /// As [`TlbSystem::shootdown_update`], for a caller that already
    /// holds the pmap lock.
    pub fn shootdown_update_locked(
        &self,
        guard: &PmapGuard<'_>,
        update: impl FnOnce(),
        limit: Duration,
    ) -> BarrierOutcome {
        assert_eq!(guard.system as *const _, self as *const _, "foreign guard");
        let pmap = guard.pmap;
        update();

        // The special logic: processors attempting to acquire or
        // holding this pmap's lock are removed from the participant
        // set. (We hold the lock, so the set is stable until we
        // release.)
        let me = current_cpu().expect("shootdown requires a CPU").id();
        let exempt: Vec<usize> = (0..self.machine.ncpus())
            .filter(|c| *c != me && self.busy[pmap][*c].load(Ordering::SeqCst))
            .collect();

        let system: &TlbSystem = self;
        // The flush action each CPU performs, participant or not.
        let sys_ptr = system as *const TlbSystem as usize;
        let action: Arc<dyn Fn(usize) + Send + Sync> = Arc::new(move |cpu| {
            // Safety: the experiments/tests keep the TlbSystem alive
            // across the shootdown (the initiator blocks inside
            // barrier_synchronize until every participant has run, and
            // exempt CPUs only run while the system exists).
            let system = unsafe { &*(sys_ptr as *const TlbSystem) };
            system.flush_pmap_on(cpu, pmap);
        });
        let outcome = barrier_synchronize(&self.machine, action, &exempt, limit);
        if outcome == BarrierOutcome::Completed {
            self.shootdowns.fetch_add(1, Ordering::Relaxed); // relaxed: stats counter
        }
        outcome
    }

    /// Whether `cpu` is attempting to acquire, or holds, pmap `pmap`'s
    /// lock (diagnostics for the special-logic experiments).
    pub fn cpu_busy_on_pmap(&self, pmap: usize, cpu: usize) -> bool {
        self.busy[pmap][cpu].load(Ordering::SeqCst)
    }

    /// Completed shootdowns.
    pub fn shootdown_count(&self) -> u64 {
        // relaxed: advisory counter read.
        self.shootdowns.load(Ordering::Relaxed)
    }

    /// Total invalidated TLB entries.
    pub fn invalidation_count(&self) -> u64 {
        // relaxed: advisory counter read.
        self.invalidations.load(Ordering::Relaxed)
    }
}

impl core::fmt::Debug for TlbSystem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TlbSystem")
            .field("cpus", &self.tlbs.len())
            .field("pmaps", &self.pmap_locks.len())
            .field("shootdowns", &self.shootdown_count())
            .finish()
    }
}

/// Holds a pmap lock (at IPI level, flagged busy) until dropped.
pub struct PmapGuard<'a> {
    system: &'a TlbSystem,
    pmap: usize,
    cpu: usize,
    token: Option<SplToken>,
}

impl Drop for PmapGuard<'_> {
    fn drop(&mut self) {
        self.system.pmap_locks[self.pmap].unlock();
        self.system.busy[self.pmap][self.cpu].store(false, Ordering::SeqCst);
        if let Some(token) = self.token.take() {
            // Lowering spl is a delivery point: a posted (exempted)
            // flush runs here, "before it touches pageable memory
            // again".
            spl_restore(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_and_flush_locally() {
        let machine = Arc::new(Machine::new(1));
        let tlb = TlbSystem::new(Arc::clone(&machine), 1);
        machine.run(|_cpu| {
            tlb.cache_translation(0, 0x1000, PageId(7));
            assert_eq!(tlb.cached_translation(0, 0x1000), Some(PageId(7)));
            let out = tlb.shootdown_update(0, || {}, Duration::from_secs(5));
            assert_eq!(out, BarrierOutcome::Completed);
            assert_eq!(tlb.cached_translation(0, 0x1000), None);
        });
        assert_eq!(tlb.shootdown_count(), 1);
        assert!(tlb.invalidation_count() >= 1);
    }

    #[test]
    fn shootdown_flushes_all_responsive_cpus() {
        let machine = Arc::new(Machine::new(4));
        let tlb = Arc::new(TlbSystem::new(Arc::clone(&machine), 2));
        let phase = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        machine.run(|cpu| {
            // Everyone caches a translation for pmap 0.
            tlb.cache_translation(0, 0xA000, PageId(3));
            tlb.cache_translation(1, 0xB000, PageId(4)); // other pmap
            phase.fetch_add(1, Ordering::SeqCst);
            while phase.load(Ordering::SeqCst) < 4 {
                cpu.poll();
                core::hint::spin_loop();
            }
            if cpu.id() == 0 {
                let out = tlb.shootdown_update(0, || {}, Duration::from_secs(10));
                assert_eq!(out, BarrierOutcome::Completed);
                phase.fetch_add(1, Ordering::SeqCst);
            } else {
                // Responsive CPUs: poll until the initiator finishes.
                while phase.load(Ordering::SeqCst) < 5 {
                    cpu.poll();
                    core::hint::spin_loop();
                }
            }
            // pmap 0 translations are gone everywhere; pmap 1 survives.
            assert_eq!(tlb.cached_translation(0, 0xA000), None);
            assert_eq!(tlb.cached_translation(1, 0xB000), Some(PageId(4)));
        });
        assert!(!tlb.stale_anywhere(0, 0xA000));
    }

    #[test]
    fn spinner_on_pmap_lock_is_exempted_and_flushes_late() {
        // The section-7 special logic: CPU 1 spins for the pmap lock
        // with IPIs masked while CPU 0 (the holder) initiates a
        // shootdown. The barrier must complete without CPU 1, and CPU 1
        // must flush when it releases the lock and lowers spl.
        let machine = Arc::new(Machine::new(3));
        let tlb = Arc::new(TlbSystem::new(Arc::clone(&machine), 1));
        let stage = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        machine.run(|cpu| match cpu.id() {
            0 => {
                tlb.cache_translation(0, 0xC000, PageId(9));
                let guard = tlb.lock_pmap(0);
                stage.store(1, Ordering::SeqCst); // CPU 1 may start spinning
                                                  // Give CPU 1 time to be visibly attempting the lock.
                while !tlb.busy[0][1].load(Ordering::SeqCst) {
                    core::hint::spin_loop();
                }
                let out = tlb.shootdown_update_locked(&guard, || {}, Duration::from_secs(10));
                assert_eq!(out, BarrierOutcome::Completed, "spinner must be exempt");
                // Our own entry is flushed; CPU 1's may still be stale
                // until it takes the posted interrupt.
                assert_eq!(tlb.cached_translation(0, 0xC000), None);
                drop(guard); // CPU 1 acquires now
                stage.store(2, Ordering::SeqCst);
            }
            1 => {
                tlb.cache_translation(0, 0xC000, PageId(9));
                while stage.load(Ordering::SeqCst) < 1 {
                    cpu.poll();
                    core::hint::spin_loop();
                }
                {
                    let _guard = tlb.lock_pmap(0); // spins masked until CPU 0 releases
                                                   // Still masked: the posted flush has not run; our
                                                   // stale entry may still be visible to us (Mach's
                                                   // guarantee is only about *pageable memory use after
                                                   // re-enabling*).
                }
                // Guard dropped: spl lowered, posted flush delivered.
                assert_eq!(
                    tlb.cached_translation(0, 0xC000),
                    None,
                    "flush must have run at spl lowering"
                );
                stage.store(3, Ordering::SeqCst);
            }
            _ => {
                // A responsive bystander participating in the barrier.
                while stage.load(Ordering::SeqCst) < 3 {
                    cpu.poll();
                    core::hint::spin_loop();
                }
            }
        });
        assert!(!tlb.stale_anywhere(0, 0xC000));
        assert_eq!(tlb.shootdown_count(), 1);
    }

    #[test]
    fn shootdown_reports_deadlock_when_participant_masked_without_exemption() {
        // A CPU masked for unrelated reasons (not on the pmap lock) is
        // NOT exempted — the barrier deadlocks, as the paper warns.
        let machine = Arc::new(Machine::new(2));
        let tlb = Arc::new(TlbSystem::new(Arc::clone(&machine), 1));
        let done = Arc::new(AtomicBool::new(false));
        machine.run(|cpu| match cpu.id() {
            0 => {
                let out = tlb.shootdown_update(0, || {}, Duration::from_millis(200));
                assert_eq!(out, BarrierOutcome::Deadlocked);
                done.store(true, Ordering::SeqCst);
            }
            _ => {
                // Masked and oblivious (inconsistent interrupt
                // protection).
                let tok = spl_raise(SplLevel::SplHigh);
                while !done.load(Ordering::SeqCst) {
                    core::hint::spin_loop();
                }
                spl_restore(tok);
            }
        });
    }
}
