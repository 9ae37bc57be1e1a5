//! Interrupt priority levels.
//!
//! The level set follows the classic Mach/BSD hierarchy the paper names
//! ("spl0, splvm, splnet, splclock, etc."). Raising the level masks
//! interrupts at or below it; restoring the previous level re-enables
//! them and is a delivery point for anything that arrived meanwhile.

use core::fmt;

use machk_sync::probe::{self, EventKind, FaultSite};
use machk_sync::{RawSimpleLock, SpinSite, Spinner};

use crate::cpu::{current_cpu, Cpu};

/// An interrupt priority level. Higher value = more interrupts masked.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SplLevel {
    /// Base level: all interrupts enabled.
    Spl0 = 0,
    /// Soft clock interrupts masked.
    SplSoftClock = 1,
    /// Network interrupts masked.
    SplNet = 2,
    /// VM (device paging) interrupts masked.
    SplVm = 3,
    /// Hard clock interrupts masked.
    SplClock = 4,
    /// Scheduler level — "the scheduler raises interrupt priority to its
    /// highest level (blocking all interrupts)" short of IPIs.
    SplSched = 5,
    /// All interrupts masked, including the interprocessor interrupt
    /// used for barrier synchronization.
    SplHigh = 6,
}

impl SplLevel {
    /// All levels in ascending order.
    pub const ALL: [SplLevel; 7] = [
        SplLevel::Spl0,
        SplLevel::SplSoftClock,
        SplLevel::SplNet,
        SplLevel::SplVm,
        SplLevel::SplClock,
        SplLevel::SplSched,
        SplLevel::SplHigh,
    ];

    /// The level of the interprocessor interrupt used for barrier
    /// synchronization. A CPU at `SplHigh` does not take IPIs — the
    /// machine-dependent fact at the root of the section-7 deadlock.
    pub const IPI: SplLevel = SplLevel::SplHigh;

    pub(crate) fn from_u8(v: u8) -> SplLevel {
        SplLevel::ALL[v as usize]
    }
}

impl fmt::Display for SplLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SplLevel::Spl0 => "spl0",
            SplLevel::SplSoftClock => "splsoftclock",
            SplLevel::SplNet => "splnet",
            SplLevel::SplVm => "splvm",
            SplLevel::SplClock => "splclock",
            SplLevel::SplSched => "splsched",
            SplLevel::SplHigh => "splhigh",
        };
        f.write_str(name)
    }
}

/// Token returned by [`spl_raise`]; restores the previous level when
/// passed to [`spl_restore`] (the classic `s = splvm(); ...; splx(s)`).
#[derive(Debug)]
#[must_use = "the previous spl level must be restored with spl_restore"]
pub struct SplToken {
    pub(crate) previous: SplLevel,
}

/// Raise the current CPU's interrupt priority to at least `level`.
///
/// Raising never delivers interrupts. Panics if the calling thread is
/// not bound to a CPU (see [`Cpu::enter`]).
pub fn spl_raise(level: SplLevel) -> SplToken {
    let cpu = current_cpu().expect("spl_raise: thread not bound to a simulated CPU");
    probe::event(EventKind::SplRaise, 0, level as u64);
    SplToken {
        previous: cpu.raise_spl(level),
    }
}

/// Restore a previous interrupt priority level (`splx`). Lowering the
/// level is a delivery point: pending interrupts above the restored
/// level run before this returns.
pub fn spl_restore(token: SplToken) {
    let cpu = current_cpu().expect("spl_restore: thread not bound to a simulated CPU");
    probe::event(EventKind::SplRestore, 0, token.previous as u64);
    cpu.set_spl(token.previous);
    cpu.poll();
}

/// The current CPU's spl level.
pub fn spl_current() -> SplLevel {
    current_cpu()
        .expect("spl_current: thread not bound to a simulated CPU")
        .spl()
}

/// Violation of the section-7 one-level rule, reported (rather than
/// panicked) by [`SplLock::lock_result`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplViolation {
    /// The level the lock was established at.
    pub required: SplLevel,
    /// The level the offending acquisition arrived at.
    pub actual: SplLevel,
}

impl fmt::Display for SplViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "inconsistent interrupt protection: lock established at {} acquired at {}",
            self.required, self.actual
        )
    }
}

impl std::error::Error for SplViolation {}

/// A simple lock that enforces the section-7 design rule: "each lock
/// must always be acquired at the same interrupt priority level ... and
/// held at that level or higher".
///
/// The first acquisition records the CPU's spl level; every later
/// acquisition must happen at the same level, or the lock panics with a
/// diagnosis of the inconsistency that would otherwise deadlock barrier
/// synchronization. (The check runs only on threads bound to a CPU; the
/// lock degrades to a plain simple lock elsewhere.)
pub struct SplLock {
    lock: RawSimpleLock,
    /// Level this lock is acquired at; `u8::MAX` = not yet established.
    level: core::sync::atomic::AtomicU8,
}

use core::sync::atomic::{AtomicU8, Ordering};

// Release layout without probes: the simple lock and the level byte.
#[cfg(not(debug_assertions))]
const _: () = assert!(probe::ENABLED || core::mem::size_of::<SplLock>() == 8);

const LEVEL_UNSET: u8 = u8::MAX;

impl SplLock {
    /// A lock whose required spl level is established by its first
    /// acquisition.
    pub const fn new() -> Self {
        SplLock {
            lock: RawSimpleLock::new(),
            level: AtomicU8::new(LEVEL_UNSET),
        }
    }

    /// A lock whose required spl level is fixed up front.
    pub const fn at_level(level: SplLevel) -> Self {
        SplLock {
            lock: RawSimpleLock::new(),
            level: AtomicU8::new(level as u8),
        }
    }

    /// [`SplLock::new`] with a lockstat name: with the `probe` feature,
    /// acquisitions of the inner simple lock report under `name`.
    /// Without the feature the name is ignored.
    pub const fn named(name: &'static str) -> Self {
        SplLock {
            lock: RawSimpleLock::named(name),
            level: AtomicU8::new(LEVEL_UNSET),
        }
    }

    /// [`SplLock::at_level`] with a lockstat name (see [`SplLock::named`]).
    pub const fn named_at_level(name: &'static str, level: SplLevel) -> Self {
        SplLock {
            lock: RawSimpleLock::named(name),
            level: AtomicU8::new(level as u8),
        }
    }

    /// The one-level rule as a result: `Err` names the established and
    /// actual levels instead of panicking.
    fn check_level_result(&self, cpu: &Cpu) -> Result<(), SplViolation> {
        let cur = cpu.spl() as u8;
        match self
            .level
            // relaxed: the level word is a sticky diagnostic binding —
            // the first locker's level wins and later calls only
            // compare; no data is published through it.
            .compare_exchange(LEVEL_UNSET, cur, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => Ok(()),
            Err(required) if required == cur => Ok(()),
            Err(required) => Err(SplViolation {
                required: SplLevel::from_u8(required),
                actual: SplLevel::from_u8(cur),
            }),
        }
    }

    fn check_level(&self, cpu: &Cpu) {
        if let Err(v) = self.check_level_result(cpu) {
            panic!(
                "inconsistent interrupt protection: lock established at {} \
                 acquired at {} (paper section 7: each lock must always be \
                 acquired at the same interrupt priority level)",
                v.required, v.actual,
            );
        }
    }

    /// Acquire, spinning interrupt-aware (the spin loop polls for
    /// deliverable interrupts, as real hardware would take them between
    /// test-and-set attempts).
    pub fn lock(&self) {
        if let Some(cpu) = current_cpu() {
            self.check_level(&cpu);
            self.spin_lock(&cpu);
        } else {
            self.lock.lock_raw();
        }
    }

    /// Acquire with the one-level rule reported as a `Result` instead
    /// of a panic: a violation — real, or injected by the
    /// `spl_wrong_level` fault — is *diagnosed* to the caller, which
    /// can drop its claims and retry at the established level rather
    /// than take down the process.
    ///
    /// On `Err` the lock is **not** held.
    pub fn lock_result(&self) -> Result<(), SplViolation> {
        if let Some(cpu) = current_cpu() {
            self.check_level_result(&cpu)?;
            // Fault hook: pretend the acquisition arrived at the wrong
            // interrupt priority level even though it did not.
            if probe::fire(FaultSite::SplWrongLevel) {
                return Err(SplViolation {
                    required: self.required_level().unwrap_or(SplLevel::Spl0),
                    actual: cpu.spl(),
                });
            }
            self.spin_lock(&cpu);
        } else {
            self.lock.lock_raw();
        }
        Ok(())
    }

    /// The interrupt-aware spin of [`SplLock::lock`]: try, take any
    /// deliverable interrupt, relax.
    fn spin_lock(&self, cpu: &Cpu) {
        let mut spinner = Spinner::new(SpinSite::Generic);
        while !self.lock.try_lock_raw() {
            // Spinning at low spl still takes interrupts — the
            // property that lets a disciplined system drain barriers.
            cpu.poll();
            spinner.relax();
        }
    }

    /// Release.
    pub fn unlock(&self) {
        self.lock.unlock_raw();
    }

    /// Single attempt.
    #[must_use]
    pub fn try_lock(&self) -> bool {
        if let Some(cpu) = current_cpu() {
            self.check_level(&cpu);
        }
        self.lock.try_lock_raw()
    }

    /// The spl level this lock is bound to, if established.
    pub fn required_level(&self) -> Option<SplLevel> {
        // relaxed: advisory read of the sticky diagnostic binding.
        let v = self.level.load(Ordering::Relaxed);
        (v != LEVEL_UNSET).then(|| SplLevel::from_u8(v))
    }
}

impl Default for SplLock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Machine;

    #[test]
    fn levels_are_ordered() {
        for w in SplLevel::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(SplLevel::IPI, SplLevel::SplHigh);
    }

    #[test]
    fn display_names() {
        assert_eq!(SplLevel::SplVm.to_string(), "splvm");
        assert_eq!(SplLevel::Spl0.to_string(), "spl0");
    }

    #[test]
    fn raise_and_restore() {
        let machine = Machine::new(1);
        let _g = machine.cpu(0).enter();
        assert_eq!(spl_current(), SplLevel::Spl0);
        let t = spl_raise(SplLevel::SplVm);
        assert_eq!(spl_current(), SplLevel::SplVm);
        let t2 = spl_raise(SplLevel::SplHigh);
        assert_eq!(spl_current(), SplLevel::SplHigh);
        spl_restore(t2);
        assert_eq!(spl_current(), SplLevel::SplVm);
        spl_restore(t);
        assert_eq!(spl_current(), SplLevel::Spl0);
    }

    #[test]
    fn raise_to_lower_level_keeps_current() {
        let machine = Machine::new(1);
        let _g = machine.cpu(0).enter();
        let t = spl_raise(SplLevel::SplClock);
        let t2 = spl_raise(SplLevel::SplNet); // lower: no-op raise
        assert_eq!(spl_current(), SplLevel::SplClock);
        spl_restore(t2);
        spl_restore(t);
    }

    #[test]
    fn spl_lock_establishes_level() {
        let machine = Machine::new(1);
        let _g = machine.cpu(0).enter();
        let lock = SplLock::new();
        assert_eq!(lock.required_level(), None);
        let t = spl_raise(SplLevel::SplVm);
        lock.lock();
        lock.unlock();
        spl_restore(t);
        assert_eq!(lock.required_level(), Some(SplLevel::SplVm));
    }

    #[test]
    #[should_panic(expected = "inconsistent interrupt protection")]
    fn spl_lock_detects_inconsistent_level() {
        let machine = Machine::new(1);
        let _g = machine.cpu(0).enter();
        let lock = SplLock::at_level(SplLevel::SplVm);
        // Acquiring at spl0 violates the one-level rule.
        lock.lock();
    }

    #[test]
    fn spl_lock_result_diagnoses_instead_of_panicking() {
        let machine = Machine::new(1);
        let _g = machine.cpu(0).enter();
        let lock = SplLock::at_level(SplLevel::SplVm);
        // Acquiring at spl0 violates the one-level rule: diagnosed, not
        // panicked, and the lock is not held.
        let err = lock.lock_result().unwrap_err();
        assert_eq!(err.required, SplLevel::SplVm);
        assert_eq!(err.actual, SplLevel::Spl0);
        assert!(err
            .to_string()
            .contains("inconsistent interrupt protection"));
        // Recovery: retry at the established level succeeds.
        let t = spl_raise(SplLevel::SplVm);
        assert!(lock.lock_result().is_ok());
        lock.unlock();
        spl_restore(t);
    }

    #[test]
    fn spl_lock_plain_off_cpu() {
        let lock = SplLock::new();
        lock.lock();
        assert!(!lock.try_lock());
        lock.unlock();
        assert!(lock.try_lock());
        lock.unlock();
        assert_eq!(lock.required_level(), None);
    }
}
