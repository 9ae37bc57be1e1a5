//! One probe surface: the hooks the runtime crates call and the
//! installed-subscriber list they dispatch into.
//!
//! Every instrumented point in the stack is a plain call into this
//! module: a lock acquisition or release ([`Tag`]), a reference or ring
//! operation ([`event`]), a fault-injection site ([`fire`], [`jitter`]).
//! The consumers live downstream and depend on this crate, never the
//! other way round: `machk-obs` (lockstat: rings, registry counters,
//! histograms, the order graph) and `machk-fault` (the seeded fault
//! plan) each [`install`] a [`Subscriber`]. A fault plan is simply a
//! subscriber that may answer *fire*.
//!
//! ## Cost
//!
//! Without the `probe` feature ([`ENABLED`] is `false`) every hook is
//! an `#[inline(always)]` function whose body folds to nothing, and
//! [`Tag`] is zero-sized, so hook sites carry no `cfg` and the default
//! build is the untraced code. With the feature, every hook first takes
//! one `Acquire` load of the subscriber count and one branch; a build
//! that installs no subscriber pays that and nothing else (no clock
//! read, no registration).
//!
//! ## Dispatch
//!
//! Subscribers live in a fixed array of `&'static dyn Subscriber`
//! slots published by a monotonically increasing count, as in
//! `tracing-core`. Installation is forever: slots are never freed or
//! reused, so the hot path needs no liveness bookkeeping — one
//! `Acquire` load of the count, then one indirect call per subscriber.
//!
//! * [`event`] stamps a [`TraceEvent`] and hands it to every
//!   subscriber's [`Subscriber::on_event`], synchronously on the
//!   emitting thread, in installation order. Every subscriber thus
//!   sees each thread's events in program order. An event emitted by a
//!   subscriber's own code is cut off by a per-thread latch (counted in
//!   [`reentrant_drops`]).
//! * [`fire`] and [`jitter`] ask the subscribers in installation order
//!   to [`Subscriber::decide`]; the first that fires answers. Decisions
//!   do not pass the event latch, so a fault site reached inside
//!   another subscriber's `on_event` still consults the plan, and no
//!   event ever draws from a decision stream.

use core::fmt;
use core::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::cell::Cell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::host::SpinSite;
use crate::policy::Spinner;

/// Whether this build carries probes (the crate's `probe` feature).
/// Hook bodies and [`Tag`]'s layout follow it; size asserts key on it.
pub const ENABLED: bool = cfg!(feature = "probe");

// ---- the event vocabulary ----

/// What happened. One discriminant per traced operation across every
/// synchronization layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Simple lock acquired; `arg` = wait time in ns (0 if first-try).
    SimpleAcquire = 0,
    /// Simple lock acquisition was contended; `arg` = wait time in ns.
    SimpleContended = 1,
    /// Simple lock released; `arg` = hold time in ns.
    SimpleRelease = 2,
    /// `simple_lock_try` failed.
    SimpleTryFail = 3,
    /// Complex lock acquired for read; `arg` = wait ns.
    ComplexRead = 4,
    /// Complex lock acquired for write; `arg` = wait ns.
    ComplexWrite = 5,
    /// Read→write upgrade succeeded.
    ComplexUpgradeOk = 6,
    /// Read→write upgrade failed (read lock lost, §7.1 recovery case).
    ComplexUpgradeFail = 7,
    /// Write→read downgrade.
    ComplexDowngrade = 8,
    /// Complex lock released (`lock_done`); `arg` = hold ns since the
    /// most recent acquisition.
    ComplexRelease = 9,
    /// Complex try-acquisition failed.
    ComplexTryFail = 10,
    /// Reference taken; `arg` = 1 when it took the slow path.
    RefTake = 11,
    /// Reference released.
    RefRelease = 12,
    /// Sharded count drained to exact; `arg` = outstanding references.
    RefDrain = 13,
    /// Final release detected — the destroy-now signal of §8.
    RefFinal = 14,
    /// Object deactivated (§9 transition).
    Deactivate = 15,
    /// spl raised; `arg` = the new level.
    SplRaise = 16,
    /// spl restored; `arg` = restored-to level.
    SplRestore = 17,
    /// Thread declared a wait on an event; `arg` = event word.
    EventWait = 18,
    /// Wakeup posted; `arg` = event word.
    EventWakeup = 19,
    /// Message ring push succeeded; `arg` = approximate depth after.
    RingPush = 20,
    /// Message ring pop / batch drain; `arg` = messages dequeued.
    RingPop = 21,
    /// Message ring push refused (at its logical limit, §3 backpressure).
    RingFull = 22,
    /// IPC engine dispatch-loop batch completed; `arg` = ops dispatched.
    EngineBatch = 23,
    /// Unrecognized discriminant (forward compatibility of decoding).
    Unknown = 255,
}

impl EventKind {
    /// Every known kind, in discriminant order.
    pub const ALL: [EventKind; 24] = {
        use EventKind::*;
        [
            SimpleAcquire,
            SimpleContended,
            SimpleRelease,
            SimpleTryFail,
            ComplexRead,
            ComplexWrite,
            ComplexUpgradeOk,
            ComplexUpgradeFail,
            ComplexDowngrade,
            ComplexRelease,
            ComplexTryFail,
            RefTake,
            RefRelease,
            RefDrain,
            RefFinal,
            Deactivate,
            SplRaise,
            SplRestore,
            EventWait,
            EventWakeup,
            RingPush,
            RingPop,
            RingFull,
            EngineBatch,
        ]
    };

    /// Decode a kind byte; unknown values map to [`EventKind::Unknown`].
    pub fn from_u8(v: u8) -> EventKind {
        EventKind::ALL
            .get(usize::from(v))
            .copied()
            .unwrap_or(EventKind::Unknown)
    }

    /// Stable lowercase label (NDJSON `kind` field, flame rollups).
    pub fn label(self) -> &'static str {
        use EventKind::*;
        match self {
            SimpleAcquire => "simple_acquire",
            SimpleContended => "simple_contended",
            SimpleRelease => "simple_release",
            SimpleTryFail => "simple_try_fail",
            ComplexRead => "complex_read",
            ComplexWrite => "complex_write",
            ComplexUpgradeOk => "complex_upgrade_ok",
            ComplexUpgradeFail => "complex_upgrade_fail",
            ComplexDowngrade => "complex_downgrade",
            ComplexRelease => "complex_release",
            ComplexTryFail => "complex_try_fail",
            RefTake => "ref_take",
            RefRelease => "ref_release",
            RefDrain => "ref_drain",
            RefFinal => "ref_final",
            Deactivate => "deactivate",
            SplRaise => "spl_raise",
            SplRestore => "spl_restore",
            EventWait => "event_wait",
            EventWakeup => "event_wakeup",
            RingPush => "ring_push",
            RingPop => "ring_pop",
            RingFull => "ring_full",
            EngineBatch => "engine_batch",
            Unknown => "unknown",
        }
    }
}

/// [`TraceEvent::flags`] bit: the acquisition actually waited for
/// another holder (set on `SimpleAcquire` / `ComplexRead` /
/// `ComplexWrite`; elapsed time alone cannot tell a slow clock read
/// from a real wait, so the hook says so explicitly).
pub const FLAG_CONTENDED: u8 = 1;

/// One trace record: when, what, on which lock, by which thread, and a
/// kind-specific argument (see each [`EventKind`] variant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace epoch ([`now_ns`]).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Registry id of the lock/count involved; 0 = unregistered.
    pub lock_id: u32,
    /// Dense id of the emitting thread ([`thread_tag`]).
    pub thread: u32,
    /// Kind-specific argument.
    pub arg: u64,
    /// Event flag bits ([`FLAG_CONTENDED`]; 0 for most events).
    pub flags: u8,
}

/// One fault-injection site. Each variant names a hook; it fires only
/// while an installed subscriber (a `machk-fault` plan) decides so.
/// The doc comment on each variant states where the hook lives and
/// what firing does: this enum is the hook inventory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum FaultSite {
    /// `RawSimpleLock::try_lock_raw`: the attempt is forced to fail
    /// even if the lock is free (models a lost CAS / stale cache-line
    /// view). Callers with a backout protocol must retry.
    SimpleTryFail = 0,
    /// `RawSimpleLock::unlock_raw`: the release is delayed by a
    /// jittered spin before the word is cleared, stretching every hold
    /// window the plan selects.
    SimpleReleaseDelay = 1,
    /// `machk-lock` `ComplexLock::read_to_write_raw`: the upgrade is
    /// forced to fail exactly as if a competing upgrade were pending —
    /// the read lock is *released* and the caller must run its §7.1
    /// recovery logic.
    ComplexUpgradeFail = 2,
    /// `machk-event` `thread_wakeup` / `thread_wakeup_one`: the wakeup
    /// is dropped — declared by the caller but never delivered. Waiters
    /// relying on unbounded `thread_block` hang; waiters using bounded
    /// blocks diagnose and recover.
    EventDropWakeup = 3,
    /// `machk-event` `thread_block` / `thread_block_timeout`: the
    /// thread is woken spuriously, without any event occurrence.
    EventSpuriousWake = 4,
    /// `machk-refcount` `ShardedRefCount::take`: the take is diverted
    /// to the serialized slow path, perturbing the base/shard
    /// distribution the drain logic must reconcile.
    RefTakeSlow = 5,
    /// `machk-refcount` `ShardedRefCount::release`: the release is
    /// diverted to the slow path, forcing extra drain-to-exact passes.
    RefReleaseSlow = 6,
    /// `machk-ipc` `DispatchTable::msg_rpc` step 2: the port→object
    /// translation reports a dead port before any reference is taken.
    RpcDeadPort = 7,
    /// `machk-ipc` `DispatchTable::msg_rpc` step 5: the reply is
    /// dropped after the operation executed; surfaces as
    /// `RpcError::ReplyDropped` with the reference ledger balanced.
    RpcDropReply = 8,
    /// `machk-intr` `SplLock::lock_result`: the acquisition is treated
    /// as arriving at the wrong interrupt priority level, exercising
    /// the section-7 one-level rule's diagnosis path.
    SplWrongLevel = 9,
    /// `machk-ipc` engine worker, top of the per-op loop: the worker
    /// panics *between* operations — no lock held, no reference in
    /// flight. The supervisor must drain, re-home and restart it.
    WorkerCrash = 10,
    /// `machk-ipc` engine worker, *inside* a critical section: the
    /// worker panics holding its scratch simple lock mid-update. The
    /// guard releases the lock on unwind; the next acquirer must read
    /// the torn (odd) count and repair it.
    WorkerCrashHolding = 11,
}

impl FaultSite {
    /// Number of sites (array dimension for rate tables and counters).
    pub const COUNT: usize = 12;

    /// Every site, in discriminant order.
    pub const ALL: [FaultSite; FaultSite::COUNT] = {
        use FaultSite::*;
        [
            SimpleTryFail,
            SimpleReleaseDelay,
            ComplexUpgradeFail,
            EventDropWakeup,
            EventSpuriousWake,
            RefTakeSlow,
            RefReleaseSlow,
            RpcDeadPort,
            RpcDropReply,
            SplWrongLevel,
            WorkerCrash,
            WorkerCrashHolding,
        ]
    };

    /// Stable snake_case name, used in rendered fault traces (part of
    /// the byte-for-byte trace format).
    pub fn name(self) -> &'static str {
        use FaultSite::*;
        match self {
            SimpleTryFail => "simple_try_fail",
            SimpleReleaseDelay => "simple_release_delay",
            ComplexUpgradeFail => "complex_upgrade_fail",
            EventDropWakeup => "event_drop_wakeup",
            EventSpuriousWake => "event_spurious_wake",
            RefTakeSlow => "ref_take_slow",
            RefReleaseSlow => "ref_release_slow",
            RpcDeadPort => "rpc_dead_port",
            RpcDropReply => "rpc_drop_reply",
            SplWrongLevel => "spl_wrong_level",
            WorkerCrash => "worker_crash",
            WorkerCrashHolding => "worker_crash_holding",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What kind of synchronization object a registered name denotes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockClass {
    /// A simple (spin) lock.
    Simple,
    /// A `machk-lock` complex (reader/writer) lock.
    Complex,
    /// A `machk-intr` spl-checked lock.
    Spl,
    /// A reference count.
    RefCount,
    /// Anything else (message rings, the engine loop).
    Other,
}

impl LockClass {
    /// Short label for report columns.
    pub fn label(self) -> &'static str {
        match self {
            LockClass::Simple => "simple",
            LockClass::Complex => "complex",
            LockClass::Spl => "spl",
            LockClass::RefCount => "refcount",
            LockClass::Other => "other",
        }
    }
}

// ---- subscribers ----

/// A consumer of probes. Every method has a do-nothing default, so a
/// subscriber implements only what it consumes. Methods run on the
/// probing thread, often while the probed lock is held: they must be
/// cheap and must not block.
pub trait Subscriber: Send + Sync {
    /// Short identifying name.
    fn name(&self) -> &'static str;
    /// Observe one event.
    fn on_event(&self, _ev: &TraceEvent) {}
    /// Decide a fault at `site`: `Some(draw)` fires (the draw sizes a
    /// [`jitter`]), `None` does not.
    fn decide(&self, _site: FaultSite) -> Option<u64> {
        None
    }
    /// Whether [`Subscriber::decide`] could ever fire at `site`.
    fn may_fire(&self, _site: FaultSite) -> bool {
        false
    }
    /// The calling thread declared `role` ([`set_role`]).
    fn on_role(&self, _role: u32) {}
    /// A diagnostic dump for a watchdog report, if this subscriber
    /// keeps one.
    fn describe(&self) -> Option<String> {
        None
    }
}

/// Subscriber slot capacity.
pub const MAX_SUBSCRIBERS: usize = 8;

static SLOTS: [OnceLock<&'static dyn Subscriber>; MAX_SUBSCRIBERS] =
    [const { OnceLock::new() }; MAX_SUBSCRIBERS];

/// Published slots. Written under `INSTALL` with `Release`; hooks read
/// it with `Acquire`, so every slot below the count is visible.
static COUNT: AtomicUsize = AtomicUsize::new(0);

static INSTALL: Mutex<()> = Mutex::new(());

/// Events dropped by the per-thread re-entrancy latch.
static REENTRANT_DROPS: AtomicU64 = AtomicU64::new(0);

/// All [`MAX_SUBSCRIBERS`] slots are taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotsFull;

/// Install `sub` for the rest of the process, returning its slot.
/// Installation is forever (a subscriber that wants to stop simply
/// ignores what it is handed). Without the `probe` feature nothing is
/// ever dispatched to it.
pub fn install(sub: &'static dyn Subscriber) -> Result<usize, SlotsFull> {
    let _g = INSTALL.lock().unwrap_or_else(|e| e.into_inner());
    // relaxed: the install mutex serializes writers; the Release store
    // below publishes the slot to the hooks.
    let idx = COUNT.load(Ordering::Relaxed);
    if idx >= MAX_SUBSCRIBERS {
        return Err(SlotsFull);
    }
    SLOTS[idx]
        .set(sub)
        .ok()
        .expect("slot below COUNT never set twice");
    COUNT.store(idx + 1, Ordering::Release);
    Ok(idx)
}

/// Number of installed subscribers; 0 whenever probes are compiled out.
#[inline(always)]
pub fn subscriber_count() -> usize {
    if ENABLED {
        COUNT.load(Ordering::Acquire)
    } else {
        0
    }
}

/// The first `n` installed subscribers, in installation order.
#[inline]
fn subscribers(n: usize) -> impl Iterator<Item = &'static dyn Subscriber> {
    SLOTS[..n].iter().filter_map(|s| s.get().copied())
}

/// Names of the installed subscribers, in installation order.
pub fn subscriber_names() -> Vec<&'static str> {
    subscribers(subscriber_count()).map(|s| s.name()).collect()
}

/// How many events the re-entrancy latch cut off.
pub fn reentrant_drops() -> u64 {
    // relaxed: advisory diagnostic read.
    REENTRANT_DROPS.load(Ordering::Relaxed)
}

thread_local! {
    /// Set while this thread is inside event fan-out.
    static IN_DISPATCH: Cell<bool> = const { Cell::new(false) };
    /// The role this thread declared with [`set_role`].
    static ROLE: Cell<Option<u32>> = const { Cell::new(None) };
}

// ---- hooks ----

/// Emit one event, stamped with the current time and thread tag, to
/// every installed subscriber.
#[inline(always)]
pub fn event(kind: EventKind, lock_id: u32, arg: u64) {
    event_flags(kind, lock_id, arg, 0);
}

/// [`event`] with flag bits (e.g. [`FLAG_CONTENDED`]).
#[inline(always)]
fn event_flags(kind: EventKind, lock_id: u32, arg: u64, flags: u8) {
    let n = subscriber_count();
    if n != 0 {
        dispatch(n, kind, lock_id, arg, flags);
    }
}

fn dispatch(n: usize, kind: EventKind, lock_id: u32, arg: u64, flags: u8) {
    if IN_DISPATCH.try_with(|f| f.replace(true)).unwrap_or(true) {
        // relaxed: monotone diagnostic counter.
        REENTRANT_DROPS.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let ev = TraceEvent {
        ts_ns: now_ns(),
        kind,
        lock_id,
        thread: thread_tag(),
        arg,
        flags,
    };
    for s in subscribers(n) {
        s.on_event(&ev);
    }
    let _ = IN_DISPATCH.try_with(|f| f.set(false));
}

/// Whether the fault at `site` fires for this decision. `false` when
/// no subscriber decides to fire (always, without the feature).
#[inline(always)]
pub fn fire(site: FaultSite) -> bool {
    decide(site).is_some()
}

/// Like [`fire`], but a firing decision also yields a deterministic
/// magnitude in `0..max` drawn from the same decision, for hooks that
/// need an amount (how long to stretch a release).
#[inline(always)]
pub fn jitter(site: FaultSite, max: u32) -> Option<u32> {
    decide(site).map(|draw| {
        if max > 0 {
            ((draw >> 16) % u64::from(max)) as u32
        } else {
            0
        }
    })
}

#[inline(always)]
fn decide(site: FaultSite) -> Option<u64> {
    let n = subscriber_count();
    if n == 0 {
        return None;
    }
    subscribers(n).find_map(|s| s.decide(site))
}

/// Whether any installed subscriber could fire `site`. Lets a
/// subsystem decide up front whether to pay for recovery machinery:
/// the IPC engine checkpoints worker state only when a worker could be
/// killed.
#[inline(always)]
pub fn may_fire(site: FaultSite) -> bool {
    subscribers(subscriber_count()).any(|s| s.may_fire(site))
}

/// Declare the calling thread's role. Fault plans derive each thread's
/// decision stream from `(seed, role)`, so replayable threads declare a
/// distinct, stable role before their first decision; re-declaring
/// restarts the stream.
#[inline(always)]
pub fn set_role(role: u32) {
    if ENABLED {
        ROLE.with(|r| r.set(Some(role)));
        for s in subscribers(subscriber_count()) {
            s.on_role(role);
        }
    }
}

/// The role the calling thread declared, if any.
pub fn role() -> Option<u32> {
    ROLE.with(|r| r.get())
}

/// Every installed subscriber's diagnostic dump, concatenated in
/// installation order; `None` when no subscriber keeps one.
pub fn describe() -> Option<String> {
    let parts: Vec<String> = subscribers(subscriber_count())
        .filter_map(|s| s.describe())
        .collect();
    (!parts.is_empty()).then(|| parts.concat())
}

/// Nanoseconds since the first call in this process (trace timestamps;
/// only differences are reported). 0 without the feature.
#[inline]
pub fn now_ns() -> u64 {
    if !ENABLED {
        return 0;
    }
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// Small dense id for the calling thread (1, 2, 3 … in first-use
/// order), recorded in trace events in place of the opaque `ThreadId`.
#[inline]
pub fn thread_tag() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        // relaxed: unique-id draw; no ordering implied by tags.
        static TAG: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

// ---- the name table ----

/// One registered name: what reports print instead of an address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockName {
    /// The id events carry (from 1; 0 means unregistered).
    pub id: u32,
    /// Static name given at declaration.
    pub name: &'static str,
    /// Lock class.
    pub class: LockClass,
    /// Acquisition-policy label (`"tas"`, `"mcs"`, …; may be empty).
    pub policy: &'static str,
}

static NAMES: Mutex<Vec<LockName>> = Mutex::new(Vec::new());

fn names_table() -> std::sync::MutexGuard<'static, Vec<LockName>> {
    NAMES.lock().unwrap_or_else(|e| e.into_inner())
}

/// Register a name, returning its id. Registration dedupes on
/// `(name, class, policy)`: every instance of a per-object lock (each
/// task's `"task.lock"`) shares one id, which is what makes reports
/// aggregate per lock *name* and keeps object churn from growing the
/// table.
pub fn register(name: &'static str, class: LockClass, policy: &'static str) -> u32 {
    let mut names = names_table();
    if let Some(n) = names
        .iter()
        .find(|n| n.name == name && n.class == class && n.policy == policy)
    {
        return n.id;
    }
    let id = names.len() as u32 + 1;
    names.push(LockName {
        id,
        name,
        class,
        policy,
    });
    id
}

/// Every registered name, in id order.
pub fn names() -> Vec<LockName> {
    names_table().clone()
}

fn lookup(id: u32) -> Option<LockName> {
    let idx = (id as usize).checked_sub(1)?;
    names_table().get(idx).copied()
}

/// The name registered under `id` (`"<unregistered>"` if none).
pub fn name_of(id: u32) -> &'static str {
    lookup(id).map_or("<unregistered>", |n| n.name)
}

/// The class registered under `id` ([`LockClass::Other`] if none).
pub fn class_of(id: u32) -> LockClass {
    lookup(id).map_or(LockClass::Other, |n| n.class)
}

// ---- the per-lock tag ----

/// A lock's probe identity: its static name, the lazily registered id,
/// and the timestamp of the current acquisition (for hold times).
/// Zero-sized without the `probe` feature. Anonymous tags (`name ==
/// ""`) never register and never emit.
pub struct Tag {
    #[cfg(feature = "probe")]
    cell: TagCell,
}

struct TagCell {
    name: &'static str,
    class: LockClass,
    policy: &'static str,
    id: AtomicU32,
    acquired_at: AtomicU64,
}

/// [`TagCell::id`] sentinel while one thread registers the name.
const REGISTERING: u32 = u32::MAX;

impl Tag {
    /// A tag for `name`, registered on first use as `class`/`policy`.
    pub const fn new(name: &'static str, class: LockClass, policy: &'static str) -> Tag {
        let cell = TagCell {
            name,
            class,
            policy,
            id: AtomicU32::new(0),
            acquired_at: AtomicU64::new(0),
        };
        #[cfg(not(feature = "probe"))]
        let _ = cell;
        Tag {
            #[cfg(feature = "probe")]
            cell,
        }
    }

    /// The tag's state, when it is named and someone is listening.
    #[inline(always)]
    fn live(&self) -> Option<&TagCell> {
        #[cfg(feature = "probe")]
        if !self.cell.name.is_empty() && subscriber_count() != 0 {
            return Some(&self.cell);
        }
        None
    }

    /// The registry id (registering on first use); 0 for anonymous
    /// tags, with no subscriber installed, or without the feature.
    #[inline]
    pub fn id(&self) -> u32 {
        self.live().map_or(0, TagCell::id)
    }

    /// Emit `kind` for this tag.
    #[inline(always)]
    pub fn event(&self, kind: EventKind, arg: u64) {
        if let Some(c) = self.live() {
            event(kind, c.id(), arg);
        }
    }

    /// The start of an acquisition: a timestamp if anyone is listening,
    /// else 0 (no clock read).
    #[inline(always)]
    pub fn start(&self) -> u64 {
        if self.live().is_some() {
            now_ns()
        } else {
            0
        }
    }

    /// An acquisition begun at `t0` ([`Tag::start`]) completed: stamp
    /// the hold start and emit `kind` with the wait time and the
    /// contended flag. A contended simple acquisition is preceded by a
    /// `SimpleContended` marker.
    #[inline(always)]
    pub fn acquired(&self, kind: EventKind, t0: u64, contended: bool) {
        if let Some(c) = self.live() {
            c.acquired(kind, t0, contended);
        }
    }

    /// A release: emit `kind` with the time since the most recent
    /// acquisition. Must run while the lock is still held.
    #[inline(always)]
    pub fn released(&self, kind: EventKind) {
        if let Some(c) = self.live() {
            c.released(kind);
        }
    }
}

impl TagCell {
    #[inline]
    fn id(&self) -> u32 {
        // relaxed: the id is a plain table index; name lookups go
        // through the table mutex, which supplies the ordering.
        match self.id.load(Ordering::Relaxed) {
            0 | REGISTERING => self.register(),
            id => id,
        }
    }

    #[cold]
    fn register(&self) -> u32 {
        // relaxed: only elects the registering thread; the name is
        // published by the table mutex and the Release store.
        match self
            .id
            .compare_exchange(0, REGISTERING, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => {
                let id = register(self.name, self.class, self.policy);
                self.id.store(id, Ordering::Release);
                id
            }
            Err(_) => {
                // Another thread is registering: wait out the sentinel.
                let mut spinner = Spinner::new(SpinSite::Generic);
                loop {
                    let id = self.id.load(Ordering::Acquire);
                    if id != 0 && id != REGISTERING {
                        return id;
                    }
                    spinner.relax();
                }
            }
        }
    }

    fn acquired(&self, kind: EventKind, t0: u64, contended: bool) {
        let id = self.id();
        let now = now_ns();
        let wait = if t0 == 0 { 0 } else { now.saturating_sub(t0) };
        // relaxed: read back only by the holder at release.
        self.acquired_at.store(now, Ordering::Relaxed);
        if contended && kind == EventKind::SimpleAcquire {
            event(EventKind::SimpleContended, id, wait);
        }
        event_flags(kind, id, wait, if contended { FLAG_CONTENDED } else { 0 });
    }

    fn released(&self, kind: EventKind) {
        // relaxed: an unregistered tag saw no acquisition to time.
        let id = self.id.load(Ordering::Relaxed);
        if id == 0 || id == REGISTERING {
            return;
        }
        // relaxed: written by this holder at acquisition.
        let hold = now_ns().saturating_sub(self.acquired_at.load(Ordering::Relaxed));
        event(kind, id, hold);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip_through_u8_with_distinct_labels() {
        let mut labels = std::collections::HashSet::new();
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
            assert_eq!(EventKind::from_u8(i as u8), *k);
            assert!(labels.insert(k.label()), "duplicate label {}", k.label());
        }
        assert_eq!(EventKind::from_u8(200), EventKind::Unknown);
    }

    #[test]
    fn sites_are_dense_with_unique_names() {
        let mut names: Vec<_> = FaultSite::ALL.iter().map(|s| s.name()).collect();
        for (i, s) in FaultSite::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FaultSite::COUNT);
    }

    #[test]
    fn register_dedupes_and_resolves() {
        let a = register("test.probe.a", LockClass::Simple, "tas");
        let b = register("test.probe.b", LockClass::Complex, "");
        assert_ne!(a, b);
        assert_eq!(register("test.probe.a", LockClass::Simple, "tas"), a);
        assert_eq!(
            (name_of(a), class_of(b)),
            ("test.probe.a", LockClass::Complex)
        );
        assert_eq!(name_of(u32::MAX - 1), "<unregistered>");
        assert_eq!(name_of(0), "<unregistered>");
    }

    #[test]
    fn tag_registers_once_across_threads() {
        struct Quiet;
        impl Subscriber for Quiet {
            fn name(&self) -> &'static str {
                "quiet"
            }
        }
        static QUIET: Quiet = Quiet;
        static TAG: Tag = Tag::new("test.probe.tag", LockClass::Simple, "mcs");
        install(&QUIET).expect("slot");
        let ids: Vec<u32> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..8).map(|_| s.spawn(|| TAG.id())).collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            ids.windows(2).all(|w| w[0] == w[1]),
            "one id for all: {ids:?}"
        );
        assert_eq!(
            ids[0] != 0,
            ENABLED,
            "registered exactly when probes are on"
        );
    }

    #[test]
    fn now_is_monotonic() {
        let a = now_ns();
        assert!(now_ns() >= a);
    }

    #[test]
    fn thread_tags_are_stable_and_distinct() {
        let mine = thread_tag();
        assert_eq!(mine, thread_tag());
        assert_ne!(mine, std::thread::spawn(thread_tag).join().unwrap());
    }

    #[test]
    fn tag_is_zero_sized_without_the_feature() {
        assert_eq!(core::mem::size_of::<Tag>() == 0, !ENABLED);
    }
}
