//! The complex lock itself.
//!
//! Structure follows the paper exactly: the lock's state — want-write and
//! want-upgrade flags, reader count, sleep/recursion options, and a
//! "somebody is waiting" flag — is an ordinary struct protected by a
//! `machk-sync` simple lock (the *interlock*). Every operation acquires
//! the interlock, inspects or edits the state, and either returns or
//! waits: blocking waits use the `machk-event` split-wait protocol
//! (declare the event, release the interlock, block), spinning waits
//! release the interlock and relax through a `Spinner` before retrying.

use core::fmt;
use std::thread::ThreadId;
use std::time::Duration;

use machk_event::{assert_wait, thread_block_until, thread_wakeup, Event};
use machk_sync::probe::{self, EventKind, FaultSite, LockClass, Tag};
use machk_sync::{Deadline, LockTimeout, SimpleLocked, SimpleLockedGuard, SpinSite, Spinner};

/// Error returned by a failed read→write upgrade.
///
/// By the time the caller sees this, **the read lock has been released**
/// (the paper: a failed upgrade "releas\[es\] their read locks" to break the
/// upgrade/upgrade deadlock). The caller must restart whatever protocol it
/// was in — the "recovery logic" whose necessity section 7.1 complains
/// about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpgradeFailed;

impl fmt::Display for UpgradeFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("read-to-write upgrade failed: another upgrade was pending; read lock released")
    }
}

impl std::error::Error for UpgradeFailed {}

/// How a complex lock is currently held (diagnostic snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HowHeld {
    /// Not held.
    Unheld,
    /// Held by `n` readers.
    Read(u32),
    /// Held by one writer.
    Write,
    /// An upgrade from read is in progress (upgrader waiting for readers
    /// to drain).
    Upgrading,
}

#[derive(Debug)]
struct LockState {
    want_write: bool,
    want_upgrade: bool,
    /// Set when some requestor is blocked on this lock; cleared by the
    /// wakeup. Lets the release path skip the wakeup call entirely in the
    /// uncontended case.
    waiting: bool,
    /// The Sleep option: block requestors (true) or spin them (false),
    /// and permit the holder itself to block while holding.
    can_sleep: bool,
    read_count: u32,
    /// The Recursive option: thread for which the lock is currently
    /// recursive, if any.
    recursive_holder: Option<ThreadId>,
    /// Number of recursive (re-)acquisitions beyond the base hold.
    recursion_depth: u32,
}

impl LockState {
    const fn new(can_sleep: bool) -> Self {
        LockState {
            want_write: false,
            want_upgrade: false,
            waiting: false,
            can_sleep,
            read_count: 0,
            recursive_holder: None,
            recursion_depth: 0,
        }
    }
}

/// A Mach complex lock: multiple readers / single writer with writers
/// priority, optional sleeping, optional recursion.
///
/// # Examples
///
/// ```
/// use machk_lock::ComplexLock;
///
/// let lock = ComplexLock::new(true); // Sleep option on
/// {
///     let r1 = lock.read();
///     let r2 = lock.read(); // readers share
///     drop((r1, r2));
/// }
/// {
///     let w = lock.write();
///     let r = w.downgrade(); // downgrade cannot fail
///     drop(r);
/// }
/// ```
pub struct ComplexLock {
    state: SimpleLocked<LockState>,
    /// Probe identity and the most recent acquisition's timestamp.
    /// With concurrent readers the hold sample recorded at each release
    /// measures time since the *most recent* acquisition — exact for
    /// writers, a lower bound for overlapping readers, which is the
    /// useful shape for a contention profile.
    tag: Tag,
}

impl ComplexLock {
    /// Create a lock; `can_sleep` enables the Sleep option
    /// (`lock_init(lock, can_sleep)` in Appendix B).
    ///
    /// "Locks without the sleep option cannot be held during blocking
    /// operations or context switches."
    pub const fn new(can_sleep: bool) -> Self {
        Self::named("", can_sleep)
    }

    /// Create a *named* lock: with the `probe` feature the name
    /// identifies this lock in lockstat reports (reader/writer/upgrade
    /// breakdown, wait and hold histograms, order diagnostics).
    /// Without the feature the name is accepted and ignored; anonymous
    /// locks ([`ComplexLock::new`]) are never traced.
    pub const fn named(name: &'static str, can_sleep: bool) -> Self {
        ComplexLock {
            state: SimpleLocked::new(LockState::new(can_sleep)),
            tag: Tag::new(name, LockClass::Complex, "rw"),
        }
    }

    fn event(&self) -> Event {
        Event::from_addr(self)
    }

    /// Wait for the lock state to change: sleep (Sleep option) or spin.
    /// Consumes and re-acquires the interlock guard. A bounded waiter
    /// sleeps at most until its deadline (spin mode is bounded by its
    /// caller re-checking the clock each round).
    fn wait<'a>(
        &'a self,
        mut s: SimpleLockedGuard<'a, LockState>,
        spinner: &mut Spinner,
        deadline: Option<Deadline>,
    ) -> SimpleLockedGuard<'a, LockState> {
        if s.can_sleep {
            s.waiting = true;
            // The split-wait protocol of section 6: declare, release the
            // interlock, then block. A wakeup in the window converts the
            // block to a no-op.
            assert_wait(self.event(), false);
            drop(s);
            thread_block_until(deadline);
        } else {
            // Spin outside the interlock, then re-take it.
            drop(s);
            spinner.relax();
        }
        self.state.lock()
    }

    fn wake_waiters(&self, s: &mut LockState) {
        if s.waiting {
            s.waiting = false;
            thread_wakeup(self.event());
        }
    }

    fn me() -> ThreadId {
        std::thread::current().id()
    }

    fn is_recursive_holder(s: &LockState) -> bool {
        s.recursive_holder == Some(Self::me())
    }

    // ----- raw operations (Appendix B semantics) -----

    /// Acquire for writing (`lock_write`).
    pub fn write_raw(&self) {
        let unbounded = self.write_until(None);
        debug_assert!(unbounded.is_ok(), "an unbounded write cannot time out");
    }

    /// Bounded [`ComplexLock::write_raw`]: give up (with the lock fully
    /// backed out) if it cannot be acquired within `limit`.
    pub fn write_raw_with_deadline(&self, limit: Duration) -> Result<(), LockTimeout> {
        self.write_until(Some(limit))
    }

    /// The one writer acquisition: unbounded, or bounded by `limit` on
    /// the host clock.
    ///
    /// The backout is the delicate part of the bounded form: once the
    /// want-write bit is claimed the pending writer is excluding new
    /// readers, so a timeout in the reader-drain phase must *clear the
    /// claim and wake the waiters it was blocking* before reporting
    /// failure — otherwise the diagnosed deadlock would be replaced by
    /// a real one.
    fn write_until(&self, limit: Option<Duration>) -> Result<(), LockTimeout> {
        let t0 = self.tag.start();
        let deadline = limit.map(Deadline::after);
        let mut waited = false;
        let mut s = self.state.lock();
        if Self::is_recursive_holder(&s) {
            assert!(
                s.want_write && !s.want_upgrade,
                "recursive write acquisition after downgrade to read is \
                 prohibited (paper section 4)"
            );
            s.recursion_depth += 1;
            return Ok(());
        }
        let mut spinner = Spinner::new(SpinSite::Generic);
        // Phase 1: claim the want-write bit. This excludes other writers
        // and — because lock_read refuses while it is set — makes the
        // pending writer visible to new readers (writers priority).
        while s.want_write {
            waited = true;
            if let Some(d) = deadline {
                d.check()?;
            }
            s = self.wait(s, &mut spinner, deadline);
        }
        s.want_write = true;
        // Phase 2: wait for current readers (and any upgrade, which is
        // favored over writes) to drain.
        while s.read_count > 0 || s.want_upgrade {
            waited = true;
            if let Some(Err(timeout)) = deadline.map(|d| d.check()) {
                s.want_write = false;
                self.wake_waiters(&mut s);
                return Err(timeout);
            }
            s = self.wait(s, &mut spinner, deadline);
        }
        drop(s);
        self.tag.acquired(EventKind::ComplexWrite, t0, waited);
        Ok(())
    }

    /// Acquire for reading (`lock_read`).
    pub fn read_raw(&self) {
        let t0 = self.tag.start();
        let mut waited = false;
        let mut s = self.state.lock();
        if Self::is_recursive_holder(&s) {
            // The recursive holder's requests "are not blocked by a
            // pending write or upgrade request", letting it finish the
            // operations needed before it can drop the lock.
            s.read_count += 1;
            return;
        }
        let mut spinner = Spinner::new(SpinSite::Generic);
        // Writers priority: a pending (or holding) writer or upgrader
        // blocks new readers.
        while s.want_write || s.want_upgrade {
            waited = true;
            s = self.wait(s, &mut spinner, None);
        }
        s.read_count += 1;
        drop(s);
        self.tag.acquired(EventKind::ComplexRead, t0, waited);
    }

    /// Release however held (`lock_done`).
    ///
    /// "A lock can be held either by a single writer or by one or more
    /// readers, thus `lock_done` can always determine how the lock is held
    /// and release it appropriately."
    pub fn done_raw(&self) {
        let mut s = self.state.lock();
        if s.read_count > 0 {
            s.read_count -= 1;
        } else if s.recursion_depth > 0 {
            debug_assert!(
                Self::is_recursive_holder(&s),
                "recursive depth released by non-holder"
            );
            s.recursion_depth -= 1;
            return; // lock still held; nobody to wake
        } else if s.want_upgrade {
            s.want_upgrade = false;
        } else if s.want_write {
            s.want_write = false;
        } else {
            panic!("lock_done on a lock that is not held");
        }
        self.wake_waiters(&mut s);
        drop(s);
        self.tag.released(EventKind::ComplexRelease);
    }

    /// Upgrade read → write (`lock_read_to_write`).
    ///
    /// Returns `true` **if the upgrade failed** (Appendix B's boolean
    /// sense). On failure the read lock has been released. Failure happens
    /// exactly when another upgrade is pending: "upgrades ... fail
    /// (releasing their read locks) in the presence of another upgrade
    /// request" to avoid deadlocked upgrades.
    pub fn read_to_write_raw(&self) -> bool {
        let mut s = self.state.lock();
        assert!(s.read_count > 0, "upgrade without a read hold");
        assert!(
            !Self::is_recursive_holder(&s),
            "upgrades of recursive read acquisitions are prohibited \
             (paper section 4)"
        );
        s.read_count -= 1;
        // Fault hook: lose the upgrade race even with no competitor —
        // semantically identical to a pending upgrade, so the caller's
        // §7.1 recovery logic (restart from scratch) is exercised on
        // demand.
        let forced_fail = probe::fire(FaultSite::ComplexUpgradeFail);
        if s.want_upgrade || forced_fail {
            // Another upgrade pending: we lose. Our read lock is gone; if
            // that makes the reader count zero the pending upgrader may
            // now proceed.
            if s.read_count == 0 {
                self.wake_waiters(&mut s);
            }
            drop(s);
            // The failed upgrade released our read hold; the stats
            // subscriber pops the order stack on this event.
            self.tag.event(EventKind::ComplexUpgradeFail, 0);
            return true;
        }
        s.want_upgrade = true;
        let mut spinner = Spinner::new(SpinSite::Generic);
        while s.read_count > 0 {
            s = self.wait(s, &mut spinner, None);
        }
        drop(s);
        self.tag.event(EventKind::ComplexUpgradeOk, 0);
        false
    }

    /// Downgrade write → read (`lock_write_to_read`). Cannot fail.
    pub fn write_to_read_raw(&self) {
        let mut s = self.state.lock();
        assert!(
            s.want_write || s.want_upgrade,
            "downgrade without a write hold"
        );
        debug_assert_eq!(
            s.recursion_depth, 0,
            "downgrade with outstanding recursive write acquisitions"
        );
        s.read_count += 1;
        if s.want_upgrade {
            s.want_upgrade = false;
        } else {
            s.want_write = false;
        }
        // Other readers may now enter.
        self.wake_waiters(&mut s);
        drop(s);
        self.tag.event(EventKind::ComplexDowngrade, 0);
    }

    /// Single attempt to acquire for writing (`lock_try_write`).
    ///
    /// Never spins or blocks; in particular it "returns FALSE if the lock
    /// is currently held for writing".
    #[must_use]
    pub fn try_write_raw(&self) -> bool {
        let mut s = self.state.lock();
        if Self::is_recursive_holder(&s) && s.want_write && !s.want_upgrade {
            s.recursion_depth += 1;
            return true;
        }
        if s.want_write || s.want_upgrade || s.read_count > 0 {
            drop(s);
            self.tag.event(EventKind::ComplexTryFail, 0);
            return false;
        }
        s.want_write = true;
        drop(s);
        self.tag.acquired(EventKind::ComplexWrite, 0, false);
        true
    }

    /// Single attempt to acquire for reading (`lock_try_read`).
    #[must_use]
    pub fn try_read_raw(&self) -> bool {
        let mut s = self.state.lock();
        if Self::is_recursive_holder(&s) {
            s.read_count += 1;
            return true;
        }
        if s.want_write || s.want_upgrade {
            drop(s);
            self.tag.event(EventKind::ComplexTryFail, 0);
            return false;
        }
        s.read_count += 1;
        drop(s);
        self.tag.acquired(EventKind::ComplexRead, 0, false);
        true
    }

    /// Attempt a read → write upgrade without risking the read lock
    /// (`lock_try_read_to_write`).
    ///
    /// Returns `false` — with the read lock **still held** — if another
    /// upgrade is pending ("does not drop the read lock if the upgrade
    /// would deadlock"). Otherwise commits to the upgrade and waits (by
    /// sleeping or spinning according to the Sleep option) for other
    /// readers to drain, then returns `true` with the lock held for write.
    ///
    /// (The Mach 2.5 implementation of this routine blocked even when the
    /// Sleep option was off — a bug the paper attributes to the routine
    /// being unused. We implement the specified behaviour.)
    #[must_use]
    pub fn try_read_to_write_raw(&self) -> bool {
        let mut s = self.state.lock();
        assert!(s.read_count > 0, "upgrade without a read hold");
        assert!(
            !Self::is_recursive_holder(&s),
            "upgrades of recursive read acquisitions are prohibited"
        );
        if s.want_upgrade {
            drop(s);
            self.tag.event(EventKind::ComplexTryFail, 0);
            return false; // keep the read lock
        }
        s.want_upgrade = true;
        s.read_count -= 1;
        let mut spinner = Spinner::new(SpinSite::Generic);
        while s.read_count > 0 {
            s = self.wait(s, &mut spinner, None);
        }
        drop(s);
        self.tag.event(EventKind::ComplexUpgradeOk, 0);
        true
    }

    /// Enable or disable the Sleep option (`lock_sleepable`).
    ///
    /// "If a lock holder can block for any reason, the lock must have the
    /// Sleep option enabled."
    pub fn set_sleepable(&self, can_sleep: bool) {
        self.state.lock().can_sleep = can_sleep;
    }

    /// Enable the Recursive option for the calling thread
    /// (`lock_set_recursive`). The lock must be held for write.
    pub fn set_recursive(&self) {
        let mut s = self.state.lock();
        assert!(
            s.want_write,
            "lock_set_recursive requires the lock held for write"
        );
        assert!(
            s.recursive_holder.is_none(),
            "lock already recursive for some thread"
        );
        s.recursive_holder = Some(Self::me());
    }

    /// Clear the Recursive option (`lock_clear_recursive`).
    ///
    /// "Should be called by the caller of `lock_set_recursive` before
    /// releasing the lock."
    pub fn clear_recursive(&self) {
        let mut s = self.state.lock();
        assert_eq!(
            s.recursive_holder,
            Some(Self::me()),
            "lock_clear_recursive by a thread that did not set it"
        );
        debug_assert_eq!(
            s.recursion_depth, 0,
            "clearing recursion with recursive acquisitions outstanding"
        );
        s.recursive_holder = None;
    }

    /// Diagnostic snapshot of how the lock is held.
    ///
    /// A *pending* writer (want-write claimed, readers still draining) is
    /// reported as `Read(n)`: the readers hold the lock; the writer only
    /// excludes newcomers.
    pub fn how_held(&self) -> HowHeld {
        let s = self.state.lock();
        if s.read_count > 0 {
            if s.want_upgrade {
                HowHeld::Upgrading
            } else {
                HowHeld::Read(s.read_count)
            }
        } else if s.want_write || s.want_upgrade {
            HowHeld::Write
        } else {
            HowHeld::Unheld
        }
    }

    /// Whether a writer or upgrader is pending or holding (racy;
    /// diagnostics only).
    pub fn writer_pending(&self) -> bool {
        let s = self.state.lock();
        s.want_write || s.want_upgrade
    }

    /// Whether the Sleep option is currently enabled.
    pub fn is_sleepable(&self) -> bool {
        self.state.lock().can_sleep
    }

    // ----- RAII interface -----

    /// Acquire for reading; the guard releases on drop.
    pub fn read(&self) -> ReadGuard<'_> {
        self.read_raw();
        ReadGuard {
            lock: self,
            _not_send: core::marker::PhantomData,
        }
    }

    /// Acquire for writing; the guard releases on drop.
    pub fn write(&self) -> WriteGuard<'_> {
        self.write_raw();
        WriteGuard {
            lock: self,
            _not_send: core::marker::PhantomData,
        }
    }

    /// Single attempt to acquire for reading.
    pub fn try_read(&self) -> Option<ReadGuard<'_>> {
        self.try_read_raw().then(|| ReadGuard {
            lock: self,
            _not_send: core::marker::PhantomData,
        })
    }

    /// Single attempt to acquire for writing.
    pub fn try_write(&self) -> Option<WriteGuard<'_>> {
        self.try_write_raw().then(|| WriteGuard {
            lock: self,
            _not_send: core::marker::PhantomData,
        })
    }
}

// Release layout without probes: the interlocked state (lock 4, padded
// to 8, and state 24).
#[cfg(not(debug_assertions))]
const _: () = assert!(probe::ENABLED || core::mem::size_of::<ComplexLock>() == 32);

impl Default for ComplexLock {
    /// A sleepable lock — the common configuration ("most complex locks
    /// use the sleep option").
    fn default() -> Self {
        ComplexLock::new(true)
    }
}

impl fmt::Debug for ComplexLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComplexLock")
            .field("held", &self.how_held())
            .finish()
    }
}

/// RAII read hold on a [`ComplexLock`].
pub struct ReadGuard<'a> {
    lock: &'a ComplexLock,
    _not_send: core::marker::PhantomData<*mut ()>,
}

impl<'a> ReadGuard<'a> {
    /// Attempt the read → write upgrade.
    ///
    /// On failure the guard — and the read lock it represented — is
    /// **gone**; the caller must re-enter the lock from scratch. This is
    /// the recovery burden the paper describes, surfaced in the type
    /// system.
    pub fn upgrade(self) -> Result<WriteGuard<'a>, UpgradeFailed> {
        let lock = self.lock;
        core::mem::forget(self);
        if lock.read_to_write_raw() {
            Err(UpgradeFailed)
        } else {
            Ok(WriteGuard {
                lock,
                _not_send: core::marker::PhantomData,
            })
        }
    }

    /// Attempt an upgrade that keeps the read lock on failure
    /// (`lock_try_read_to_write`).
    pub fn try_upgrade(self) -> Result<WriteGuard<'a>, ReadGuard<'a>> {
        let lock = self.lock;
        core::mem::forget(self);
        if lock.try_read_to_write_raw() {
            Ok(WriteGuard {
                lock,
                _not_send: core::marker::PhantomData,
            })
        } else {
            Err(ReadGuard {
                lock,
                _not_send: core::marker::PhantomData,
            })
        }
    }

    /// The lock this guard holds.
    pub fn lock_ref(&self) -> &'a ComplexLock {
        self.lock
    }
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        // Release even when unwinding: a wedged lock would convert the
        // panic into a hang for every other thread.
        self.lock.done_raw();
    }
}

/// RAII write hold on a [`ComplexLock`].
pub struct WriteGuard<'a> {
    lock: &'a ComplexLock,
    _not_send: core::marker::PhantomData<*mut ()>,
}

impl<'a> WriteGuard<'a> {
    /// Downgrade write → read. Cannot fail — the alternative to upgrades
    /// that section 7.1 recommends: "initially lock for writing, and
    /// downgrade to a read lock after operations that require the write
    /// lock are complete."
    pub fn downgrade(self) -> ReadGuard<'a> {
        let lock = self.lock;
        core::mem::forget(self);
        lock.write_to_read_raw();
        ReadGuard {
            lock,
            _not_send: core::marker::PhantomData,
        }
    }

    /// The lock this guard holds.
    pub fn lock_ref(&self) -> &'a ComplexLock {
        self.lock
    }
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        // See `ReadGuard::drop`: release, also under panic.
        self.lock.done_raw();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn readers_share() {
        let lock = ComplexLock::new(true);
        let r1 = lock.read();
        let r2 = lock.read();
        assert_eq!(lock.how_held(), HowHeld::Read(2));
        drop(r1);
        drop(r2);
        assert_eq!(lock.how_held(), HowHeld::Unheld);
    }

    #[test]
    fn writer_excludes_everyone() {
        let lock = ComplexLock::new(true);
        let w = lock.write();
        assert!(lock.try_read().is_none());
        assert!(lock.try_write().is_none());
        drop(w);
        assert!(lock.try_read().is_some());
    }

    #[test]
    fn try_write_fails_under_readers() {
        let lock = ComplexLock::new(true);
        let _r = lock.read();
        assert!(lock.try_write().is_none());
    }

    #[test]
    fn downgrade_cannot_fail_and_admits_readers() {
        let lock = ComplexLock::new(true);
        let w = lock.write();
        let r = w.downgrade();
        assert_eq!(lock.how_held(), HowHeld::Read(1));
        let r2 = lock.try_read().expect("readers enter after downgrade");
        drop((r, r2));
    }

    #[test]
    fn upgrade_succeeds_when_sole_reader() {
        let lock = ComplexLock::new(true);
        let r = lock.read();
        let w = r.upgrade().expect("no competing upgrade");
        assert_eq!(lock.how_held(), HowHeld::Write);
        drop(w);
    }

    #[test]
    fn competing_upgrades_one_fails_and_loses_read_lock() {
        // Two readers; both upgrade. Exactly one must fail, and the
        // failure must release its read lock so the winner proceeds.
        let lock = ComplexLock::new(true);
        let failures = AtomicU32::new(0);
        let successes = AtomicU32::new(0);
        let ready = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let r = lock.read();
                    ready.fetch_add(1, Ordering::SeqCst);
                    // Hold until both threads have their read lock, so the
                    // upgrades genuinely compete.
                    while ready.load(Ordering::SeqCst) < 2 {
                        std::thread::yield_now();
                    }
                    match r.upgrade() {
                        Ok(w) => {
                            successes.fetch_add(1, Ordering::SeqCst);
                            drop(w);
                        }
                        Err(UpgradeFailed) => {
                            failures.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        // One succeeded, one failed is the contended outcome; if the
        // scheduler serialized them fully both may succeed.
        let f = failures.load(Ordering::SeqCst);
        let ok = successes.load(Ordering::SeqCst);
        assert_eq!(f + ok, 2);
        assert!(ok >= 1, "at least one upgrade must succeed");
        assert_eq!(lock.how_held(), HowHeld::Unheld);
    }

    #[test]
    fn try_upgrade_keeps_read_lock_on_failure() {
        let lock = ComplexLock::new(true);
        // Simulate a pending upgrade by a competing reader.
        lock.read_raw();
        lock.read_raw();
        // First upgrade commits (want_upgrade set) but waits for us; do it
        // from another thread.
        std::thread::scope(|s| {
            let t = s.spawn(|| {
                // This will block until the main thread's read is gone.
                assert!(!lock.read_to_write_raw(), "first upgrade should win");
                lock.done_raw(); // release the write hold
            });
            // Give the upgrader time to set want_upgrade.
            while lock.how_held() != HowHeld::Upgrading {
                std::thread::yield_now();
            }
            // try_upgrade must fail but keep our read lock.
            let r = ReadGuard {
                lock: &lock,
                _not_send: core::marker::PhantomData,
            };
            let r = match r.try_upgrade() {
                Err(r) => r,
                Ok(_) => panic!("try_upgrade must fail while another upgrade is pending"),
            };
            drop(r); // releases our read; the winner proceeds
            t.join().unwrap();
        });
        assert_eq!(lock.how_held(), HowHeld::Unheld);
    }

    #[test]
    fn writers_priority_blocks_new_readers() {
        let lock = ComplexLock::new(true);
        let r = lock.read();
        let entered = AtomicU32::new(0);
        std::thread::scope(|s| {
            // A writer arrives and blocks.
            s.spawn(|| {
                let w = lock.write();
                entered.store(1, Ordering::SeqCst);
                drop(w);
            });
            // Wait until the writer is visibly pending: new readers must
            // then be refused.
            while lock.try_read_raw() {
                // Writer not pending yet; undo and retry.
                lock.done_raw();
                std::thread::yield_now();
            }
            assert_eq!(entered.load(Ordering::SeqCst), 0, "writer ran too early");
            drop(r); // the writer may now proceed
        });
        assert_eq!(entered.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn writer_is_not_starved_by_reader_stream() {
        // Continuous readers; one writer must still get in (writers
        // priority). Bounded by a generous timeout.
        let lock = ComplexLock::new(true);
        let stop = AtomicU32::new(0);
        let wrote = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while stop.load(Ordering::SeqCst) == 0 {
                        let _r = lock.read();
                        std::hint::black_box(());
                    }
                });
            }
            s.spawn(|| {
                let w = lock.write();
                wrote.store(1, Ordering::SeqCst);
                drop(w);
                stop.store(1, Ordering::SeqCst);
            });
            let start = std::time::Instant::now();
            while wrote.load(Ordering::SeqCst) == 0 {
                assert!(
                    start.elapsed() < Duration::from_secs(20),
                    "writer starved despite writers priority"
                );
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn spin_mode_provides_exclusion() {
        let lock = ComplexLock::new(false); // Sleep option off: spin
        let counter = AtomicUsize::new(0);
        let mut value = 0u64;
        let vp = &mut value as *mut u64 as usize;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..2_000 {
                        let w = lock.write();
                        unsafe {
                            let p = vp as *mut u64;
                            p.write(p.read() + 1);
                        }
                        counter.fetch_add(1, Ordering::Relaxed);
                        drop(w);
                    }
                });
            }
        });
        assert_eq!(value, 8_000);
    }

    #[test]
    fn sleepable_toggle() {
        let lock = ComplexLock::new(false);
        assert!(!lock.is_sleepable());
        lock.set_sleepable(true);
        assert!(lock.is_sleepable());
        lock.set_sleepable(false);
        assert!(!lock.is_sleepable());
    }

    #[test]
    fn recursive_write_acquisition() {
        let lock = ComplexLock::new(true);
        lock.write_raw();
        lock.set_recursive();
        // A function calling itself may re-lock.
        lock.write_raw();
        lock.write_raw();
        lock.done_raw();
        lock.done_raw();
        lock.clear_recursive();
        lock.done_raw();
        assert_eq!(lock.how_held(), HowHeld::Unheld);
    }

    #[test]
    fn recursive_read_after_downgrade_bypasses_pending_writer() {
        let lock = ComplexLock::new(true);
        lock.write_raw();
        lock.set_recursive();
        lock.write_to_read_raw(); // downgrade; now a recursive read holder
        let writer_done = AtomicU32::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                lock.write_raw(); // blocks until all reads released
                writer_done.store(1, Ordering::SeqCst);
                lock.done_raw();
            });
            // From a third thread, wait until the writer is visibly
            // pending: ordinary readers are then refused.
            let probe = s.spawn(|| {
                while lock.try_read_raw() {
                    lock.done_raw();
                    std::thread::yield_now();
                }
            });
            probe.join().unwrap();
            assert_eq!(writer_done.load(Ordering::SeqCst), 0);
            // The recursive holder's read requests bypass the pending
            // writer — "this permits the recursive lock holder to complete
            // operations that require the lock ... so that it can drop the
            // lock for the write".
            lock.read_raw();
            lock.done_raw();
            assert_eq!(writer_done.load(Ordering::SeqCst), 0);
            lock.clear_recursive();
            lock.done_raw(); // release base read; writer proceeds
        });
        assert_eq!(writer_done.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "held for write")]
    fn set_recursive_requires_write() {
        let lock = ComplexLock::new(true);
        lock.read_raw();
        lock.set_recursive();
    }

    #[test]
    #[should_panic(expected = "not held")]
    fn done_on_unheld_lock_panics() {
        let lock = ComplexLock::new(true);
        lock.done_raw();
    }

    #[test]
    fn panic_while_write_held_releases() {
        let lock = ComplexLock::new(true);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _w = lock.write();
            panic!("holder dies mid-update");
        }));
        assert!(result.is_err());
        // The lock must be released (no wedge): other threads can still
        // take it.
        assert_eq!(lock.how_held(), HowHeld::Unheld);
        drop(lock.write());
    }

    #[test]
    fn panic_while_read_held_releases() {
        let lock = ComplexLock::new(true);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _r = lock.read();
            panic!("reader dies");
        }));
        assert!(result.is_err());
        assert_eq!(lock.how_held(), HowHeld::Unheld);
        drop(lock.write());
    }

    #[test]
    fn write_deadline_times_out_and_backs_out_cleanly() {
        let lock = ComplexLock::new(true);
        let r = lock.read();
        // A bounded writer must give up — and having given up, must not
        // leave its want-write claim behind: new readers still enter.
        let err = lock
            .write_raw_with_deadline(Duration::from_millis(20))
            .expect_err("reader-held lock must time the writer out");
        assert!(err.waited >= Duration::from_millis(20));
        let r2 = lock
            .try_read()
            .expect("failed writer must not block readers");
        drop((r, r2));
        // With the lock free the bounded form acquires normally.
        lock.write_raw_with_deadline(Duration::from_millis(100))
            .expect("free lock");
        assert_eq!(lock.how_held(), HowHeld::Write);
        lock.done_raw();
    }

    #[test]
    fn write_deadline_backout_wakes_readers_it_blocked() {
        let lock = ComplexLock::new(true);
        let first = lock.read();
        let entered = AtomicU32::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Claims want-write, then times out waiting for `first`.
                let res = lock.write_raw_with_deadline(Duration::from_millis(100));
                assert!(res.is_err(), "the first reader outlives the deadline");
            });
            // Wait until the writer's claim is visible, then sleep a
            // reader behind it.
            while !lock.writer_pending() {
                std::thread::yield_now();
            }
            s.spawn(|| {
                let r = lock.read();
                entered.store(1, Ordering::SeqCst);
                drop(r);
            });
            // The backout must wake the sleeping reader while `first`
            // is still held. Poll with a bound, then release `first`
            // either way, so a broken backout fails instead of hanging.
            let t0 = std::time::Instant::now();
            while entered.load(Ordering::SeqCst) == 0 && t0.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let woke = entered.load(Ordering::SeqCst) == 1;
            drop(first);
            assert!(woke, "the writer's backout left a reader asleep");
        });
    }

    #[test]
    fn deadline_write_succeeds_when_reader_leaves_in_time() {
        let lock = ComplexLock::new(true);
        std::thread::scope(|s| {
            let r = lock.read();
            s.spawn(|| {
                lock.write_raw_with_deadline(Duration::from_secs(10))
                    .expect("reader releases well within the deadline");
                lock.done_raw();
            });
            std::thread::sleep(Duration::from_millis(30));
            drop(r);
        });
        assert_eq!(lock.how_held(), HowHeld::Unheld);
    }

    #[test]
    fn concurrent_read_write_consistency() {
        // Writers keep an invariant (two fields equal); readers check it.
        struct Pair {
            a: u64,
            b: u64,
        }
        let lock = ComplexLock::new(true);
        let mut pair = Pair { a: 0, b: 0 };
        let pp = &mut pair as *mut Pair as usize;
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..2_000 {
                        let w = lock.write();
                        unsafe {
                            let p = pp as *mut Pair;
                            (*p).a += 1;
                            (*p).b += 1;
                        }
                        drop(w);
                    }
                });
            }
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..2_000 {
                        let r = lock.read();
                        let (a, b) = unsafe {
                            let p = pp as *const Pair;
                            ((*p).a, (*p).b)
                        };
                        assert_eq!(a, b, "reader saw a torn write");
                        drop(r);
                    }
                });
            }
        });
        assert_eq!(pair.a, 6_000);
    }
}
