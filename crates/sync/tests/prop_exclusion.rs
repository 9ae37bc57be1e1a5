//! Property tests for simple locks: mutual exclusion holds for every
//! word policy × backoff × thread-count combination, and the try/guard
//! APIs never disagree about the lock state.

use machk_sync::{
    Backoff, RawSimpleLock, SpinPolicy, Tas, TasThenTtas, Ttas, WithBackoff, WordPolicy,
};
use proptest::prelude::*;

fn arb_backoff() -> impl Strategy<Value = Backoff> {
    prop_oneof![
        Just(Backoff::NONE),
        Just(Backoff::DEFAULT),
        (1u32..16, 16u32..512).prop_map(|(initial, max)| Backoff { initial, max }),
    ]
}

/// Run `threads × iters` guarded increments and return the final count.
fn count_under<P: SpinPolicy>(lock: RawSimpleLock<P>, threads: usize, iters: u64) -> u64 {
    let mut counter = 0u64;
    let cp = &mut counter as *mut u64 as usize;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..iters {
                    let _g = lock.lock();
                    // Non-atomic increment: torn updates would show up
                    // as a wrong final count.
                    // SAFETY: `counter` outlives the scope and the lock
                    // under test serializes every access to it.
                    unsafe {
                        let p = cp as *mut u64;
                        p.write(p.read() + 1);
                    }
                }
            });
        }
    });
    counter
}

fn count_with<P: WordPolicy>(backoff: Backoff, threads: usize, iters: u64) -> u64 {
    count_under(
        RawSimpleLock::<WithBackoff<P>>::with_backoff(backoff),
        threads,
        iters,
    )
}

fn try_agrees<P: SpinPolicy>(lock: RawSimpleLock<P>) -> Result<(), TestCaseError> {
    prop_assert!(!lock.is_locked());
    let g = lock.try_lock();
    prop_assert!(g.is_some());
    prop_assert!(lock.is_locked());
    prop_assert!(lock.try_lock().is_none());
    drop(g);
    prop_assert!(!lock.is_locked());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn counter_is_exact_under_any_configuration(
        policy in 0u8..3,
        backoff in arb_backoff(),
        threads in 1usize..5,
        iters in 1u64..2_000,
    ) {
        let count = match policy {
            0 => count_with::<Tas>(backoff, threads, iters),
            1 => count_with::<Ttas>(backoff, threads, iters),
            _ => count_with::<TasThenTtas>(backoff, threads, iters),
        };
        prop_assert_eq!(count, threads as u64 * iters);
    }

    #[test]
    fn try_lock_agrees_with_state(policy in 0u8..3) {
        match policy {
            0 => try_agrees(RawSimpleLock::<Tas>::new())?,
            1 => try_agrees(RawSimpleLock::<Ttas>::new())?,
            _ => try_agrees(RawSimpleLock::<TasThenTtas>::new())?,
        }
    }

    #[test]
    fn lock_sequences_balance(ops in proptest::collection::vec(any::<bool>(), 0..64)) {
        // true = lock+unlock via guard, false = raw lock/unlock pair.
        let lock: RawSimpleLock = RawSimpleLock::new();
        for use_guard in ops {
            if use_guard {
                drop(lock.lock());
            } else {
                lock.lock_raw();
                lock.unlock_raw();
            }
            prop_assert!(!lock.is_locked());
        }
    }
}
