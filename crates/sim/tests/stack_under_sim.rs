//! The real lock stack, unchanged, under the deterministic simulator:
//! simple locks of every policy, deadline timeouts measured in virtual
//! time, event wait/wakeup, the complex lock's blocking protocol, and
//! the sharded reference count's ledger — all scheduled by seed.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use machk_event::{assert_wait, thread_block, thread_wakeup, waiters_on, Event, WaitResult};
use machk_intr::watchdog::spin_until;
use machk_ipc::{Port, PortError, PortSet};
use machk_lock::ComplexLock;
use machk_refcount::ShardedRefCount;
use machk_sim::{run, SimConfig, SimError};
use machk_sync::{host, Deadline};
use machk_sync::{Mcs, RawSimpleLock, SpinPolicy, Tas, TasThenTtas, Ticket, Ttas, WithBackoff};
use machk_vm::{PagePool, Zone};

/// A counter that relies entirely on the lock protecting it (any lost
/// mutual exclusion shows up as a lost increment).
struct RacyCounter(UnsafeCell<u64>);
// Safety: every access in these tests happens under the lock under test.
unsafe impl Sync for RacyCounter {}

fn bump(c: &RacyCounter) {
    // Read-modify-write with a scheduling point inside the window, so a
    // broken lock loses updates under almost any explored schedule.
    unsafe {
        let v = *c.0.get();
        host::yield_now();
        *c.0.get() = v + 1;
    }
}

/// Four simulated threads bump a racy counter 20 times each under a
/// lock of policy `P`; every increment must land.
fn excludes<P: SpinPolicy>(name: &str, seed: u64) {
    let report = run(&SimConfig::DEFAULT.with_seed(seed), move || {
        let lock = Arc::new(RawSimpleLock::<P>::new());
        let counter = Arc::new(RacyCounter(UnsafeCell::new(0)));
        let ts: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                host::spawn(move || {
                    for _ in 0..20 {
                        let g = lock.lock();
                        bump(&counter);
                        drop(g);
                    }
                })
            })
            .collect();
        for t in ts {
            host::join(t);
        }
        unsafe { *counter.0.get() }
    })
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(report.value, 80, "{name} lost increments");
}

#[test]
fn simple_lock_excludes_under_every_policy() {
    excludes::<WithBackoff<Tas>>("tas", 0xE1);
    excludes::<WithBackoff<Ttas>>("ttas", 0xE2);
    excludes::<WithBackoff<TasThenTtas>>("tas-then-ttas", 0xE3);
    excludes::<Ticket>("ticket", 0xE4);
    excludes::<Mcs>("mcs", 0xE5);
}

#[test]
fn deadline_expires_in_virtual_time() {
    let report = run(&SimConfig::DEFAULT, || {
        let lock: Arc<RawSimpleLock> = Arc::new(RawSimpleLock::new());
        let held = Arc::new(AtomicU32::new(0));
        let release = Arc::new(AtomicU32::new(0));
        let holder = {
            let lock = Arc::clone(&lock);
            let held = Arc::clone(&held);
            let release = Arc::clone(&release);
            host::spawn(move || {
                lock.lock_raw();
                held.store(1, Ordering::Release);
                // Sleep, don't spin: virtual sleeps let the clock jump
                // straight to the next timer, so the 5ms deadline below
                // expires in a few hundred scheduling steps.
                while release.load(Ordering::Acquire) == 0 {
                    host::sleep(Duration::from_micros(100));
                }
                lock.unlock_raw();
            })
        };
        while held.load(Ordering::Acquire) == 0 {
            host::yield_now();
        }
        let start = host::now();
        let res = lock.lock_with_deadline(Duration::from_millis(5));
        let waited_ns = host::now() - start;
        release.store(1, Ordering::Release);
        host::join(holder);
        (res.is_err(), waited_ns)
    })
    .unwrap();
    let (timed_out, waited_ns) = report.value;
    assert!(timed_out, "deadline must expire while the lock is held");
    assert!(
        waited_ns >= 5_000_000,
        "timeout honoured in virtual time (waited {waited_ns}ns)"
    );
    // A 5ms wait plus escalation sleeps completed in a handful of
    // scheduling steps — this is the whole point of virtual time.
    assert!(report.steps < 100_000);
}

#[test]
fn bounded_waits_expire_in_virtual_time() {
    // Each `_timeout` form of a blocking call, a sub-millisecond complex
    // write and a watchdog spin, on objects that never deliver: every
    // one must report its timeout after at least its limit of virtual
    // time and at most one 50 µs park past it, in a bounded number of
    // scheduling steps, and a seed must replay to the same clock.
    let waits = || {
        run(&SimConfig::DEFAULT.with_seed(0xB7), || {
            let limit = Duration::from_millis(5);
            let sub_ms = Duration::from_micros(300);
            let port = Port::create();
            let set = PortSet::create();
            set.add(Port::create()).unwrap();
            let pool = PagePool::new(0);
            let zone: Zone<u8> = Zone::new("sim", 1, || 0);
            let _held = zone.alloc();
            let lock = ComplexLock::new(true);
            lock.write_raw();
            let timed = |limit: Duration, wait: &dyn Fn(Duration) -> bool| {
                let start = host::now();
                (wait(limit), limit, host::now() - start)
            };
            [
                timed(limit, &|l| {
                    matches!(port.receive_timeout(l), Err(PortError::TimedOut))
                }),
                timed(limit, &|l| {
                    matches!(set.receive_timeout(l), Err(PortError::TimedOut))
                }),
                timed(limit, &|l| pool.alloc_timeout(l).is_none()),
                timed(limit, &|l| zone.alloc_timeout(l).is_none()),
                timed(sub_ms, &|l| lock.write_raw_with_deadline(l).is_err()),
                timed(limit, &|l| {
                    spin_until(&Deadline::after(l), || false).is_err()
                }),
            ]
        })
        .unwrap()
    };
    let first = waits();
    let park = Duration::from_micros(50);
    for (i, &(timed_out, limit, waited_ns)) in first.value.iter().enumerate() {
        assert!(timed_out, "bounded wait {i} must time out");
        let waited = Duration::from_nanos(waited_ns);
        assert!(
            waited >= limit,
            "bounded wait {i} honoured its limit {limit:?} in virtual time (waited {waited:?})"
        );
        assert!(
            waited <= limit + park,
            "bounded wait {i} overshot its limit {limit:?} by more than one park (waited {waited:?})"
        );
    }
    assert!(
        first.steps < 2_000,
        "the bounded waits took {} scheduling steps",
        first.steps
    );
    let second = waits();
    assert_eq!(
        (first.clock_ns, first.steps),
        (second.clock_ns, second.steps),
        "a seed replays its bounded waits exactly"
    );
}

#[test]
fn ab_ba_deadlock_is_caught_by_step_budget() {
    let mut cfg = SimConfig::DEFAULT;
    cfg.max_steps = 30_000;
    let err = run(&cfg, || {
        let a: Arc<RawSimpleLock> = Arc::new(RawSimpleLock::new());
        let b: Arc<RawSimpleLock> = Arc::new(RawSimpleLock::new());
        let got_a = Arc::new(AtomicU32::new(0));
        let got_b = Arc::new(AtomicU32::new(0));
        let t1 = {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            let (got_a, got_b) = (Arc::clone(&got_a), Arc::clone(&got_b));
            host::spawn(move || {
                a.lock_raw();
                got_a.store(1, Ordering::Release);
                // Handshake: wait until the peer holds B, guaranteeing
                // the cycle in every schedule.
                while got_b.load(Ordering::Acquire) == 0 {
                    host::yield_now();
                }
                b.lock_raw(); // never succeeds
                b.unlock_raw();
                a.unlock_raw();
            })
        };
        let t2 = {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            let (got_a, got_b) = (Arc::clone(&got_a), Arc::clone(&got_b));
            host::spawn(move || {
                b.lock_raw();
                got_b.store(1, Ordering::Release);
                while got_a.load(Ordering::Acquire) == 0 {
                    host::yield_now();
                }
                a.lock_raw(); // never succeeds
                a.unlock_raw();
                b.unlock_raw();
            })
        };
        host::join(t1);
        host::join(t2);
    })
    .unwrap_err();
    match &err {
        // Spinning deadlocks exhaust the step budget; if both sides have
        // escalated to parking when the budget hits, the scheduler may
        // instead catch the cycle as a timer-less deadlock. Either way
        // the run terminates with a replayable verdict instead of
        // hanging the process.
        SimError::StepLimit { .. } | SimError::Deadlock { .. } => {}
        other => panic!("expected StepLimit or Deadlock, got {other}"),
    }
    assert!(err.to_string().contains("replay=sim:v1:"));
}

#[test]
fn event_wait_wakeup_roundtrip() {
    let report = run(&SimConfig::DEFAULT.with_seed(0xEE), || {
        const EV: Event = Event(0x5150);
        let woke = Arc::new(AtomicU32::new(0));
        let waiter = {
            let woke = Arc::clone(&woke);
            host::spawn(move || {
                assert_wait(EV, false);
                let r = thread_block();
                assert_eq!(r, WaitResult::Awakened);
                woke.store(1, Ordering::Release);
            })
        };
        // Wake only once the waiter is actually enqueued (the paper's
        // split wait: assert_wait made the decision to block visible
        // before the thread parks, so this wakeup cannot be lost).
        while waiters_on(EV) == 0 {
            host::yield_now();
        }
        let n = thread_wakeup(EV);
        host::join(waiter);
        (n, woke.load(Ordering::Acquire))
    })
    .unwrap();
    assert_eq!(report.value, (1, 1));
}

#[test]
fn complex_lock_write_protocol_under_sim() {
    let report = run(&SimConfig::DEFAULT.with_seed(0xC0), || {
        let lock = Arc::new(ComplexLock::new(true));
        let counter = Arc::new(RacyCounter(UnsafeCell::new(0)));
        let ts: Vec<_> = (0..3)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                host::spawn(move || {
                    for _ in 0..10 {
                        lock.write_raw();
                        bump(&counter);
                        lock.done_raw();
                    }
                })
            })
            .collect();
        for t in ts {
            host::join(t);
        }
        unsafe { *counter.0.get() }
    })
    .unwrap();
    assert_eq!(report.value, 30);
}

#[test]
fn sharded_refcount_ledger_balances_under_sim() {
    let report = run(&SimConfig::DEFAULT.with_seed(0x6), || {
        let count = Arc::new(ShardedRefCount::new());
        let ts: Vec<_> = (0..4)
            .map(|_| {
                let count = Arc::clone(&count);
                host::spawn(move || {
                    for _ in 0..50 {
                        count.take();
                        host::yield_now();
                        assert!(!count.release(), "final release stolen from creator");
                    }
                })
            })
            .collect();
        for t in ts {
            host::join(t);
        }
        let audit = count.drain_audit();
        let last = count.release();
        (audit.total, last)
    })
    .unwrap();
    assert_eq!(
        report.value.0, 1,
        "creation reference outstanding after audit"
    );
    assert!(report.value.1, "creator's release is the final one");
}

#[test]
fn stack_schedule_is_a_pure_function_of_seed() {
    let scenario = || {
        let lock = Arc::new(RawSimpleLock::<Mcs>::new());
        let count = Arc::new(ShardedRefCount::new());
        let ts: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let count = Arc::clone(&count);
                host::spawn(move || {
                    for _ in 0..10 {
                        count.take();
                        let g = lock.lock();
                        host::advance(500);
                        drop(g);
                        assert!(!count.release());
                    }
                })
            })
            .collect();
        for t in ts {
            host::join(t);
        }
        count.drain_audit().total
    };
    let a = run(&SimConfig::DEFAULT.with_seed(0xABCD), scenario).unwrap();
    let b = run(&SimConfig::DEFAULT.with_seed(0xABCD), scenario).unwrap();
    assert_eq!(a.value, 1);
    assert_eq!(a.trace.tids, b.trace.tids, "byte-identical schedules");
    assert_eq!(a.clock_ns, b.clock_ns, "byte-identical virtual clocks");
    assert_eq!(a.steps, b.steps);
}
