//! Reusable workload kernels for the experiments. Each throughput
//! kernel times its workers behind [`run_concurrent`]'s start barrier
//! and returns an aggregate rate; the experiments repeat it through
//! [`crate::util::sample`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use machk_core::sync::CachePadded;
use machk_core::{
    ComplexLock, Kobj, Mcs, ObjHeader, ObjRef, RawSimpleLock, Refable, RwData, ShardedRefCount,
    ShardedRefable, SimpleLocked, SpinPolicy, Tas, TasThenTtas, Ticket, Ttas, UpgradeFailed,
    WithBackoff,
};
use machk_ipc::{DispatchTable, KernError, Message, Port, RefSemantics, RpcStats};
use machk_kernel::{MonoTask, Task};
use machk_vm::{OrderingDiscipline, PageId, PvSystem, VmObject};

use crate::util::{ops_per_sec, run_concurrent};

// ---------------------------------------------------------------- E1

/// E1: increment a shared counter under a fresh anonymous simple lock
/// of policy `P`; returns aggregate ops/s.
pub fn simple_lock_counter<P: SpinPolicy>(threads: usize, iters: u64) -> f64 {
    lock_counter(&RawSimpleLock::<P>::new(), threads, iters)
}

/// [`simple_lock_counter`] against a caller-supplied lock (a named one,
/// for tracing-cost measurements).
pub fn lock_counter<P: SpinPolicy>(lock: &RawSimpleLock<P>, threads: usize, iters: u64) -> f64 {
    let mut counter = 0u64;
    let cp = &mut counter as *mut u64 as usize;
    let elapsed = run_concurrent(threads, |_t| {
        for _ in 0..iters {
            lock.lock_raw();
            // Tiny critical section, as in kernel hot paths.
            // SAFETY: `counter` outlives the run and `lock` serializes
            // every access to it.
            unsafe {
                let p = cp as *mut u64;
                p.write(p.read().wrapping_add(1));
            }
            lock.unlock_raw();
        }
    });
    assert_eq!(counter, threads as u64 * iters);
    ops_per_sec(threads as u64 * iters, elapsed)
}

/// One entry of a policy sweep: its label and [`simple_lock_counter`]
/// for that policy.
pub type PolicyCounter = (&'static str, fn(usize, u64) -> f64);

/// Every spin policy, in presentation order. Backoff is a wrapper that
/// keeps its inner policy's name, so its label is spelled out.
pub const POLICY_SWEEP: [PolicyCounter; 6] = [
    (Tas::NAME, simple_lock_counter::<Tas>),
    (Ttas::NAME, simple_lock_counter::<Ttas>),
    (TasThenTtas::NAME, simple_lock_counter::<TasThenTtas>),
    (
        "tas+ttas+backoff",
        simple_lock_counter::<WithBackoff<TasThenTtas>>,
    ),
    (Ticket::NAME, simple_lock_counter::<Ticket>),
    (Mcs::NAME, simple_lock_counter::<Mcs>),
];

/// E1 (ablation): fraction of acquisitions of `lock` that succeed on the
/// first attempt (checks "most locks ... are acquired on the first
/// attempt"). Each acquisition makes one `try_lock_raw`; when that
/// fails it counts as contended and falls back to `lock_raw`.
pub fn simple_lock_first_try_rate<P: SpinPolicy>(
    lock: &RawSimpleLock<P>,
    threads: usize,
    iters: u64,
) -> f64 {
    let contended = AtomicU64::new(0);
    run_concurrent(threads, |_t| {
        let mut misses = 0u64;
        for _ in 0..iters {
            if !lock.try_lock_raw() {
                misses += 1;
                lock.lock_raw();
            }
            lock.unlock_raw();
        }
        contended.fetch_add(misses, Ordering::Relaxed); // relaxed: read after the join
    });
    1.0 - contended.into_inner() as f64 / (threads as u64 * iters) as f64
}

// ---------------------------------------------------------------- E2

/// How kernel entry is serialized in the E2 granularity comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One lock around the whole "kernel" (all structures).
    GlobalLock,
    /// A master processor: every operation is funneled through one
    /// service thread (the paper's `[16]` design).
    MasterProcessor,
    /// A lock per data structure (Mach's choice).
    PerStructure,
}

impl Granularity {
    /// All variants for sweeps.
    pub const ALL: [Granularity; 3] = [
        Granularity::GlobalLock,
        Granularity::MasterProcessor,
        Granularity::PerStructure,
    ];

    /// Table label.
    pub fn name(self) -> &'static str {
        match self {
            Granularity::GlobalLock => "global-lock",
            Granularity::MasterProcessor => "master-cpu",
            Granularity::PerStructure => "per-structure",
        }
    }
}

/// Simulated per-operation work inside the critical section: touch the
/// structure a few times so lock hold time is non-trivial.
fn structure_op(slot: &mut [u64; 8]) {
    for (i, word) in slot.iter_mut().enumerate() {
        *word = word
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i as u64 + 1);
    }
}

/// E2: `threads` workers each perform `iters` operations on a bank of
/// `nstructs` independent structures under the given granularity;
/// returns aggregate ops/s.
pub fn granularity_bank(g: Granularity, nstructs: usize, threads: usize, iters: u64) -> f64 {
    match g {
        Granularity::GlobalLock => {
            let bank = SimpleLocked::new(vec![[0u64; 8]; nstructs]);
            let elapsed = run_concurrent(threads, |t| {
                let mut idx = t;
                for _ in 0..iters {
                    idx = (idx * 1103515245 + 12345) % nstructs.max(1);
                    let mut b = bank.lock();
                    structure_op(&mut b[idx]);
                }
            });
            ops_per_sec(threads as u64 * iters, elapsed)
        }
        Granularity::PerStructure => {
            // One line per structure: neighbours must not false-share.
            let bank: Vec<CachePadded<SimpleLocked<[u64; 8]>>> = (0..nstructs)
                .map(|_| CachePadded::new(SimpleLocked::new([0u64; 8])))
                .collect();
            let elapsed = run_concurrent(threads, |t| {
                let mut idx = t;
                for _ in 0..iters {
                    idx = (idx * 1103515245 + 12345) % nstructs.max(1);
                    structure_op(&mut bank[idx].lock());
                }
            });
            ops_per_sec(threads as u64 * iters, elapsed)
        }
        Granularity::MasterProcessor => {
            // Requests funneled to a single service thread over a
            // channel; callers spin-wait for their reply flag.
            type Req = (usize, Arc<AtomicBool>);
            let (tx, rx) = mpsc::channel::<Req>();
            let master = std::thread::spawn(move || {
                let mut bank = vec![[0u64; 8]; nstructs];
                // Serves until every sender is gone.
                while let Ok((idx, done)) = rx.recv() {
                    structure_op(&mut bank[idx]);
                    done.store(true, Ordering::Release);
                }
            });
            let elapsed = run_concurrent(threads, |t| {
                let tx = tx.clone();
                let mut idx = t;
                let done = Arc::new(AtomicBool::new(false));
                for _ in 0..iters {
                    idx = (idx * 1103515245 + 12345) % nstructs.max(1);
                    done.store(false, Ordering::Relaxed);
                    tx.send((idx, Arc::clone(&done))).unwrap();
                    let mut spins = 0u32;
                    while !done.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                        spins += 1;
                        if spins >= 256 {
                            std::thread::yield_now();
                            spins = 0;
                        }
                    }
                }
            });
            drop(tx);
            master.join().unwrap();
            ops_per_sec(threads as u64 * iters, elapsed)
        }
    }
}

// ---------------------------------------------------------------- E3

/// E3: readers/writer mix over a shared table under a complex lock.
/// `write_pct` of operations are writes. Returns aggregate ops/s.
pub fn complex_lock_mix(write_pct: u32, threads: usize, iters: u64) -> f64 {
    let table = RwData::new(vec![0u64; 256], true);
    let elapsed = run_concurrent(threads, |t| {
        let mut x = (t as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for _ in 0..iters {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let slot = (x >> 33) as usize % 256;
            if (x % 100) < write_pct as u64 {
                let mut w = table.write();
                w[slot] = w[slot].wrapping_add(1);
            } else {
                let r = table.read();
                std::hint::black_box(r[slot]);
            }
        }
    });
    ops_per_sec(threads as u64 * iters, elapsed)
}

/// E3 (starvation probe): (mean, worst) writer wait in µs while
/// `threads` readers hammer the lock for `dur`.
pub fn writer_latency_under_readers(threads: usize, dur: Duration) -> (f64, f64) {
    let lock = ComplexLock::new(true);
    let stop = AtomicBool::new(false);
    let worst_ns = AtomicU64::new(0);
    let total_ns = AtomicU64::new(0);
    let acquisitions = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let r = lock.read();
                    std::hint::black_box(&r);
                }
            });
        }
        s.spawn(|| {
            let end = std::time::Instant::now() + dur;
            while std::time::Instant::now() < end {
                let t0 = std::time::Instant::now();
                let w = lock.write();
                let waited = t0.elapsed().as_nanos() as u64;
                worst_ns.fetch_max(waited, Ordering::Relaxed);
                total_ns.fetch_add(waited, Ordering::Relaxed);
                acquisitions.fetch_add(1, Ordering::Relaxed);
                drop(w);
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
        });
    });
    let n = acquisitions.load(Ordering::Relaxed).max(1);
    (
        total_ns.load(Ordering::Relaxed) as f64 / n as f64 / 1_000.0,
        worst_ns.load(Ordering::Relaxed) as f64 / 1_000.0,
    )
}

// ---------------------------------------------------------------- E4

/// Outcome of an E4 run: throughput plus upgrade behaviour.
#[derive(Debug, Clone, Copy)]
pub struct UpgradeOutcome {
    /// Aggregate ops/s.
    pub ops_per_sec: f64,
    /// Upgrade attempts that failed and lost the read lock (upgrade
    /// strategy only).
    pub failed_upgrades: u64,
    /// Total operations that needed the write side.
    pub writes: u64,
}

/// E4, strategy A: lookup under a read lock, upgrade when an insert is
/// needed, with the paper's retry-from-scratch recovery on failure.
pub fn lookup_insert_upgrade(threads: usize, iters: u64, miss_pct: u32) -> UpgradeOutcome {
    let table = RwData::new(std::collections::HashSet::<u64>::new(), true);
    let failed = AtomicU64::new(0);
    let writes = AtomicU64::new(0);
    let elapsed = run_concurrent(threads, |t| {
        let mut x = (t as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for _ in 0..iters {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // A "miss" means the key is fresh and must be inserted.
            let key = if (x % 100) < miss_pct as u64 {
                x
            } else {
                x % 64
            };
            'retry: loop {
                let r = table.read();
                if r.contains(&key) {
                    break 'retry;
                }
                match r.upgrade() {
                    Ok(mut w) => {
                        w.insert(key);
                        writes.fetch_add(1, Ordering::Relaxed);
                        break 'retry;
                    }
                    Err(UpgradeFailed) => {
                        // Read lock lost: the recovery logic the paper
                        // complains about — restart the whole lookup.
                        failed.fetch_add(1, Ordering::Relaxed);
                        continue 'retry;
                    }
                }
            }
        }
    });
    UpgradeOutcome {
        ops_per_sec: ops_per_sec(threads as u64 * iters, elapsed),
        failed_upgrades: failed.load(Ordering::Relaxed),
        writes: writes.load(Ordering::Relaxed),
    }
}

/// E4, strategy B: the paper's recommended alternative — lock for
/// write, do the update if needed, downgrade for any remaining reads.
pub fn lookup_insert_write_downgrade(threads: usize, iters: u64, miss_pct: u32) -> UpgradeOutcome {
    let table = RwData::new(std::collections::HashSet::<u64>::new(), true);
    let writes = AtomicU64::new(0);
    let elapsed = run_concurrent(threads, |t| {
        let mut x = (t as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for _ in 0..iters {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = if (x % 100) < miss_pct as u64 {
                x
            } else {
                x % 64
            };
            // Quick optimistic read first.
            {
                let r = table.read();
                if r.contains(&key) {
                    continue;
                }
            }
            let mut w = table.write();
            if !w.contains(&key) {
                w.insert(key);
                writes.fetch_add(1, Ordering::Relaxed);
            }
            // Downgrade (cannot fail) for the post-update read.
            let r = w.downgrade();
            std::hint::black_box(r.len());
        }
    });
    UpgradeOutcome {
        ops_per_sec: ops_per_sec(threads as u64 * iters, elapsed),
        failed_upgrades: 0,
        writes: writes.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------- E5

/// Which reference-counting implementation E5 measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefImpl {
    /// Mach's protocol: count under the object's simple lock
    /// (`ObjRef`).
    LockedCount,
    /// Lock-free atomic count (`std::sync::Arc`).
    Arc,
    /// Sharded count with drain-to-exact final release
    /// (`ShardedRefCount` behind the same `ObjRef` protocol).
    Sharded,
}

impl RefImpl {
    /// All variants.
    pub const ALL: [RefImpl; 3] = [RefImpl::LockedCount, RefImpl::Arc, RefImpl::Sharded];

    /// Table label.
    pub fn name(self) -> &'static str {
        match self {
            RefImpl::LockedCount => "lock+count (Mach)",
            RefImpl::Arc => "atomic (Arc)",
            RefImpl::Sharded => "sharded",
        }
    }
}

/// E5's sharded arm: a `Kobj` whose count is a [`ShardedRefCount`],
/// adopted the way `Task` and `VmObject` adopt it — by the type, through
/// [`ShardedRefable`].
pub struct ShardedObj {
    obj: Kobj<u64>,
    refs: ShardedRefCount,
}

impl ShardedObj {
    /// Create the object, returning the creation reference.
    pub fn create() -> ObjRef<ShardedObj> {
        ObjRef::new(ShardedObj {
            obj: Kobj::new(0),
            refs: ShardedRefCount::new(),
        })
    }
}

impl ShardedRefable for ShardedObj {
    fn sharded_parts(&self) -> (&ObjHeader, &ShardedRefCount) {
        (self.obj.header(), &self.refs)
    }
}

/// E5: clone/release storm on a single shared object. Returns ops/s
/// (one op = clone + release).
pub fn refcount_storm(imp: RefImpl, threads: usize, iters: u64) -> f64 {
    match imp {
        RefImpl::LockedCount => ref_storm(&Kobj::create(0u64), threads, iters),
        RefImpl::Sharded => ref_storm(&ShardedObj::create(), threads, iters),
        RefImpl::Arc => {
            let obj = Arc::new(0u64);
            let elapsed = run_concurrent(threads, |_t| {
                for _ in 0..iters {
                    let c = Arc::clone(&obj);
                    std::hint::black_box(&c);
                    drop(c);
                }
            });
            ops_per_sec(threads as u64 * iters, elapsed)
        }
    }
}

/// Clone/release storm on one `ObjRef`; ops/s (one op = clone + release).
fn ref_storm<T: Refable>(obj: &ObjRef<T>, threads: usize, iters: u64) -> f64 {
    let elapsed = run_concurrent(threads, |_t| {
        for _ in 0..iters {
            let c = obj.clone();
            std::hint::black_box(&c);
            drop(c);
        }
    });
    ops_per_sec(threads as u64 * iters, elapsed)
}

/// E5 (churn): create an object, clone it `fanout` times across the
/// releasing side, destroy. Returns objects/s.
pub fn refcount_churn(imp: RefImpl, threads: usize, iters: u64, fanout: usize) -> f64 {
    match imp {
        RefImpl::LockedCount => ref_churn(|| Kobj::create(0u64), threads, iters, fanout),
        RefImpl::Sharded => ref_churn(ShardedObj::create, threads, iters, fanout),
        RefImpl::Arc => {
            let elapsed = run_concurrent(threads, |_t| {
                for _ in 0..iters {
                    let obj = Arc::new(0u64);
                    let clones: Vec<_> = (0..fanout).map(|_| Arc::clone(&obj)).collect();
                    drop(clones);
                    drop(obj);
                }
            });
            ops_per_sec(threads as u64 * iters, elapsed)
        }
    }
}

/// Create / clone `fanout` times / destroy, per thread; objects/s.
fn ref_churn<T: Refable>(
    create: impl Fn() -> ObjRef<T> + Sync,
    threads: usize,
    iters: u64,
    fanout: usize,
) -> f64 {
    let elapsed = run_concurrent(threads, |_t| {
        for _ in 0..iters {
            let obj = create();
            let clones: Vec<_> = (0..fanout).map(|_| obj.clone()).collect();
            drop(clones);
            drop(obj);
        }
    });
    ops_per_sec(threads as u64 * iters, elapsed)
}

/// E5 (adopted call sites): clone/release storm on the real kernel
/// objects whose types shard their count in production code — `Task`
/// and `VmObject` — exercising the unchanged `ObjRef` protocol end to
/// end. Returns ops/s (one op = clone + release).
pub fn adopted_ref_storm(use_task: bool, threads: usize, iters: u64) -> f64 {
    // The bound is the check that both types still shard their count.
    fn storm<T: ShardedRefable>(obj: &ObjRef<T>, threads: usize, iters: u64) -> f64 {
        ref_storm(obj, threads, iters)
    }
    if use_task {
        storm(&Task::create(), threads, iters)
    } else {
        storm(&VmObject::create(), threads, iters)
    }
}

// ---------------------------------------------------------------- E6

/// E6: ping-pong handoffs through the event-wait mechanism; returns
/// handoffs/s across `pairs` producer/consumer pairs.
pub fn event_handoff(pairs: usize, iters: u64) -> f64 {
    let elapsed = run_concurrent(pairs * 2, |t| {
        // Threads 2k and 2k+1 form a pair around a shared mailbox.
        let pair = t / 2;
        let is_producer = t % 2 == 0;
        mailbox_pingpong(pair, is_producer, iters);
    });
    ops_per_sec(pairs as u64 * iters, elapsed)
}

// A bank of mailboxes for the handoff benchmark; static so both sides
// of a pair find the same one.
const MAILBOXES: usize = 64;
static MAILBOX_BANK: [MailboxSlot; MAILBOXES] = [const {
    MailboxSlot {
        full: SimpleLocked::new(false),
    }
}; MAILBOXES];

struct MailboxSlot {
    full: SimpleLocked<bool>,
}

fn mailbox_pingpong(pair: usize, is_producer: bool, iters: u64) {
    use machk_core::{assert_wait, thread_block, thread_wakeup, Event};
    let slot = &MAILBOX_BANK[pair % MAILBOXES];
    let ev_full = Event::from_addr(slot);
    let ev_empty = ev_full.offset(1);
    for _ in 0..iters {
        if is_producer {
            loop {
                {
                    let mut full = slot.full.lock();
                    if !*full {
                        *full = true;
                        drop(full);
                        thread_wakeup(ev_full);
                        break;
                    }
                    assert_wait(ev_empty, false);
                }
                thread_block();
            }
        } else {
            loop {
                {
                    let mut full = slot.full.lock();
                    if *full {
                        *full = false;
                        drop(full);
                        thread_wakeup(ev_empty);
                        break;
                    }
                    assert_wait(ev_full, false);
                }
                thread_block();
            }
        }
    }
}

/// E6 baseline: the same ping-pong over `std::sync::Mutex` +
/// `Condvar`, for calibration against the host's native primitive.
pub fn condvar_handoff(pairs: usize, iters: u64) -> f64 {
    let slots: Vec<Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>> = (0..pairs)
        .map(|_| Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new())))
        .collect();
    let elapsed = run_concurrent(pairs * 2, |t| {
        let pair = t / 2;
        let is_producer = t % 2 == 0;
        let (m, cv) = &*slots[pair];
        for _ in 0..iters {
            let mut full = m.lock().unwrap();
            if is_producer {
                while *full {
                    full = cv.wait(full).unwrap();
                }
                *full = true;
            } else {
                while !*full {
                    full = cv.wait(full).unwrap();
                }
                *full = false;
            }
            cv.notify_all();
        }
    });
    ops_per_sec(pairs as u64 * iters, elapsed)
}

// ---------------------------------------------------------------- E8

/// Task flavour measured by E8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFlavor {
    /// Two locks: task lock + IPC translation lock (Mach, section 5).
    TwoLock,
    /// One lock serializing both (the ablation).
    OneLock,
}

impl TaskFlavor {
    /// Both flavours.
    pub const ALL: [TaskFlavor; 2] = [TaskFlavor::TwoLock, TaskFlavor::OneLock];

    /// Table label.
    pub fn name(self) -> &'static str {
        match self {
            TaskFlavor::TwoLock => "two-lock (Mach)",
            TaskFlavor::OneLock => "one-lock",
        }
    }
}

/// E8: a mixed workload against one task: `translate_pct`% port-name
/// translations, the rest suspend/resume pairs. Returns aggregate
/// ops/s.
pub fn task_mixed_ops(flavor: TaskFlavor, translate_pct: u32, threads: usize, iters: u64) -> f64 {
    match flavor {
        TaskFlavor::TwoLock => {
            let task = Task::create();
            let name = task.port_insert(Port::create());
            let elapsed = run_concurrent(threads, |t| {
                let mut x = (t as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for _ in 0..iters {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if (x % 100) < translate_pct as u64 {
                        std::hint::black_box(task.port_translate(name));
                    } else {
                        let _ = task.suspend();
                        let _ = task.resume();
                    }
                }
            });
            task.terminate_simple().unwrap();
            ops_per_sec(threads as u64 * iters, elapsed)
        }
        TaskFlavor::OneLock => {
            let task = MonoTask::create();
            let name = task.port_insert(Port::create());
            let elapsed = run_concurrent(threads, |t| {
                let mut x = (t as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for _ in 0..iters {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if (x % 100) < translate_pct as u64 {
                        std::hint::black_box(task.port_translate(name));
                    } else {
                        let _ = task.suspend();
                        let _ = task.resume();
                    }
                }
            });
            task.terminate().unwrap();
            ops_per_sec(threads as u64 * iters, elapsed)
        }
    }
}

// ---------------------------------------------------------------- E9

/// E9: concurrent `pmap_enter`/`pmap_remove` (forward order) and
/// `pmap_page_protect` (reverse order) storms under the given
/// discipline. Returns aggregate ops/s; panics on any pv/pmap
/// inconsistency (deadlocks would hang, which the test-suite variants
/// bound).
pub fn pmap_storm(discipline: OrderingDiscipline, threads: usize, iters: u64) -> f64 {
    let npmaps = threads.max(2);
    let sys = PvSystem::new(npmaps, 64, discipline);
    let elapsed = run_concurrent(threads, |t| {
        let mut x = (t as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for i in 0..iters {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pm = t % npmaps;
            let va = 0x1000 * (x % 32);
            let pa = PageId((x % 64) as u32);
            match i % 4 {
                0 | 1 => sys.pmap_enter(pm, va, pa),
                2 => sys.pmap_remove(pm, va),
                _ => {
                    std::hint::black_box(sys.pmap_page_protect(pa));
                }
            }
        }
    });
    // Consistency: every pv mapper translates back to its page.
    for pa in 0..64u32 {
        for (pm, va) in sys.mappers_of(PageId(pa)) {
            assert_eq!(
                sys.pmap(pm).translate(va),
                Some(PageId(pa)),
                "pv/pmap inconsistency under {}",
                discipline.name()
            );
        }
    }
    ops_per_sec(threads as u64 * iters, elapsed)
}

// ---------------------------------------------------------------- E11

/// E11: paging operations racing with object churn. Returns paging
/// ops/s; asserts the termination-exclusion invariant.
pub fn vm_object_paging_storm(threads: usize, iters: u64) -> f64 {
    let obj = VmObject::create();
    let elapsed = run_concurrent(threads, |_t| {
        for _ in 0..iters {
            if let Ok(op) = obj.paging_begin() {
                std::hint::black_box(&op);
                drop(op);
            }
        }
    });
    assert_eq!(obj.paging_in_progress(), 0);
    obj.terminate().unwrap();
    ops_per_sec(threads as u64 * iters, elapsed)
}

// ---------------------------------------------------------------- E12

/// E12 setup: a counter object behind a port plus its dispatch table.
pub fn rpc_setup() -> (DispatchTable, ObjRef<Kobj<u64>>, ObjRef<Port>) {
    const OP_ADD: u32 = 1;
    let mut table = DispatchTable::new();
    table.register::<Kobj<u64>>(OP_ADD, |obj, msg| {
        let d = msg.int_at(0).ok_or(KernError::InvalidArgument)?;
        let v = obj.with_active(|n| {
            *n = n.wrapping_add(d);
            *n
        })?;
        Ok(Message::new(OP_ADD).with_int(v))
    });
    let obj = Kobj::create(0u64);
    let port = Port::create();
    port.set_kernel_object(obj.clone().into_dyn());
    (table, obj, port)
}

/// E12: RPC op storm under the given reference semantics; returns
/// (ops/s, stats).
pub fn rpc_storm(semantics: RefSemantics, threads: usize, iters: u64) -> (f64, RpcStats) {
    let (table, _obj, port) = rpc_setup();
    let stats = RpcStats::new();
    let elapsed = run_concurrent(threads, |_t| {
        for _ in 0..iters {
            let r = table.msg_rpc(&port, Message::new(1).with_int(1), semantics, &stats);
            std::hint::black_box(r.ok());
        }
    });
    assert!(stats.balanced(), "reference flow must balance");
    (ops_per_sec(threads as u64 * iters, elapsed), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 2;
    const N: u64 = 2_000;

    #[test]
    fn e1_kernels_run() {
        for (_, run) in POLICY_SWEEP {
            assert!(run(T, N) > 0.0);
        }
        let r = simple_lock_first_try_rate::<TasThenTtas>(&RawSimpleLock::new(), 1, N);
        assert_eq!(r, 1.0, "a lone thread always acquires on the first try");
    }

    #[test]
    fn first_try_rate_counts_an_acquisition_behind_a_holder() {
        // A ticket lock registers its waiters, so the test can release
        // only once the workload's first acquisition is known to wait.
        let lock = RawSimpleLock::<Ticket>::new();
        lock.lock_raw();
        let rate = std::thread::scope(|s| {
            let worker = s.spawn(|| simple_lock_first_try_rate(&lock, 1, 4));
            while lock.waiters() == 0 {
                std::thread::yield_now();
            }
            lock.unlock_raw();
            worker.join().unwrap()
        });
        assert!(rate < 1.0, "a held lock's acquisition counted as first-try");
        assert_eq!(rate, 0.75);
    }

    #[test]
    fn e2_kernels_run() {
        for g in Granularity::ALL {
            assert!(granularity_bank(g, 16, T, 500) > 0.0);
        }
    }

    #[test]
    fn e3_kernels_run() {
        assert!(complex_lock_mix(10, T, N) > 0.0);
        let (mean, worst) = writer_latency_under_readers(2, Duration::from_millis(50));
        assert!(mean >= 0.0 && worst >= mean);
    }

    #[test]
    fn e4_kernels_run() {
        let a = lookup_insert_upgrade(T, N, 30);
        let b = lookup_insert_write_downgrade(T, N, 30);
        assert!(a.ops_per_sec > 0.0 && b.ops_per_sec > 0.0);
        assert!(a.writes > 0 && b.writes > 0);
        assert_eq!(b.failed_upgrades, 0, "downgrade cannot fail");
    }

    #[test]
    fn e5_kernels_run() {
        for imp in RefImpl::ALL {
            assert!(refcount_storm(imp, T, N) > 0.0);
            assert!(refcount_churn(imp, T, 200, 4) > 0.0);
        }
        assert!(adopted_ref_storm(true, T, N) > 0.0);
        assert!(adopted_ref_storm(false, T, N) > 0.0);
    }

    #[test]
    fn e6_kernels_run() {
        assert!(event_handoff(2, 500) > 0.0);
        assert!(condvar_handoff(2, 500) > 0.0);
    }

    #[test]
    fn e8_kernels_run() {
        for f in TaskFlavor::ALL {
            assert!(task_mixed_ops(f, 50, T, N) > 0.0);
        }
    }

    #[test]
    fn e9_kernels_run() {
        for d in OrderingDiscipline::ALL {
            assert!(pmap_storm(d, T, 500) > 0.0);
        }
    }

    #[test]
    fn e11_kernel_runs() {
        assert!(vm_object_paging_storm(T, N) > 0.0);
    }

    #[test]
    fn e15_kernels_run() {
        for imp in TimerImpl::ALL {
            assert!(timer_tick_storm(imp, 2, 1, 2_000) > 0.0);
        }
    }

    #[test]
    fn e12_kernels_run() {
        for s in [RefSemantics::Mach25, RefSemantics::Mach30] {
            let (rate, stats) = rpc_storm(s, T, 500);
            assert!(rate > 0.0);
            assert!(stats.balanced());
        }
    }
}

// ---------------------------------------------------------------- E15

/// Timer implementation measured by E15.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerImpl {
    /// Per-CPU single-writer cells, no locks (Mach's usage-timing
    /// exception, paper section 2).
    LockFree,
    /// The same accounting under per-CPU simple locks.
    Locked,
}

impl TimerImpl {
    /// Both variants.
    pub const ALL: [TimerImpl; 2] = [TimerImpl::LockFree, TimerImpl::Locked];

    /// Table label.
    pub fn name(self) -> &'static str {
        match self {
            TimerImpl::LockFree => "per-cpu cell (Mach)",
            TimerImpl::Locked => "simple lock",
        }
    }
}

/// E15: every CPU ticks its own timer `iters` times while `readers`
/// unbound threads continuously sum the bank. Returns ticks/s.
pub fn timer_tick_storm(imp: TimerImpl, cpus: usize, readers: usize, iters: u64) -> f64 {
    use machk_intr::{LockedTimerBank, Machine, TimeKind, TimerBank};
    let machine = Machine::new(cpus);
    let stop = AtomicBool::new(false);
    enum Bank {
        Free(TimerBank),
        Locked(LockedTimerBank),
    }
    let bank = match imp {
        TimerImpl::LockFree => Bank::Free(TimerBank::new(cpus)),
        TimerImpl::Locked => Bank::Locked(LockedTimerBank::new(cpus)),
    };
    let elapsed = std::thread::scope(|s| {
        // Reader threads (any thread may read).
        for _ in 0..readers {
            let bank = &bank;
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let t = match bank {
                        Bank::Free(b) => b.totals(),
                        Bank::Locked(b) => b.totals(),
                    };
                    std::hint::black_box(t);
                }
            });
        }
        // One ticking thread per CPU.
        let elapsed = run_concurrent(cpus, |i| {
            let _g = machine.cpus()[i].enter();
            for i in 0..iters {
                let kind = if i % 4 == 0 {
                    TimeKind::System
                } else {
                    TimeKind::User
                };
                match &bank {
                    Bank::Free(b) => b.tick_current(kind, 10),
                    Bank::Locked(b) => b.tick_current(kind, 10),
                }
            }
        });
        stop.store(true, Ordering::Relaxed);
        elapsed
    });
    // Sanity: every tick accounted.
    let total = match &bank {
        Bank::Free(b) => b.totals(),
        Bank::Locked(b) => b.totals(),
    };
    assert_eq!(total.ticks, cpus as u64 * iters);
    ops_per_sec(cpus as u64 * iters, elapsed)
}
