//! Property and stress tests for [`ShardedRefCount`]: the final release
//! is reported **exactly once**, never early, and the count never leaks —
//! under sequential op sequences, concurrent churn, and cross-thread
//! reference handoff (the case that breaks racy sum-scan designs, because
//! a live reference moves between shards mid-count).

use std::sync::atomic::{AtomicU32, Ordering};

use machk_refcount::ShardedRefCount;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequentially, the sharded count is indistinguishable from a plain
    /// integer counter: `release` reports final exactly when the model
    /// hits zero, and `get` tracks the model exactly.
    #[test]
    fn matches_integer_model(ops in proptest::collection::vec(any::<bool>(), 0..200)) {
        let count = ShardedRefCount::new();
        let mut model = 1u32;
        for take in ops {
            if take {
                count.take();
                model += 1;
            } else {
                model -= 1;
                prop_assert_eq!(count.release(), model == 0, "final iff model hits zero");
                if model == 0 {
                    prop_assert_eq!(count.get(), 0);
                    return Ok(());
                }
            }
            prop_assert_eq!(count.get(), model);
        }
        // Drain whatever the op sequence left over; the last release —
        // and only the last — must report final.
        while model > 0 {
            model -= 1;
            prop_assert_eq!(count.release(), model == 0);
        }
        prop_assert_eq!(count.get(), 0);
    }

    /// The drain-time leak audit reports the exact model count after an
    /// arbitrary op sequence, no matter how the references ended up
    /// striped across shards — and auditing is observationally inert:
    /// the remaining releases behave exactly as without the audit,
    /// including reporting final exactly once.
    #[test]
    fn drain_audit_matches_model(ops in proptest::collection::vec(any::<bool>(), 0..200)) {
        let count = ShardedRefCount::new();
        let mut model = 1u64;
        for take in ops {
            if take {
                count.take();
                model += 1;
            } else if model > 1 {
                // Keep the creation reference so the count stays alive
                // for the audit.
                model -= 1;
                prop_assert!(!count.release());
            }
        }
        let audit = count.drain_audit();
        prop_assert_eq!(audit.total, model, "audit disagrees with ledger");
        prop_assert!(!audit.pegged);
        // After folding, everything sits in base; nothing was lost.
        prop_assert_eq!(audit.total, u64::from(count.get()));
        while model > 0 {
            model -= 1;
            prop_assert_eq!(count.release(), model == 0, "audit perturbed final detection");
        }
        prop_assert_eq!(count.drain_audit().total, 0);
    }

    /// Concurrent audits race takers/releasers without ever double
    /// counting: with the creation reference held throughout, no audit
    /// may observe zero, and the post-quiescence audit is exact.
    #[test]
    fn concurrent_audit_never_observes_zero(churn in 1u32..200) {
        let count = ShardedRefCount::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let count = &count;
                s.spawn(move || {
                    for _ in 0..churn {
                        count.take();
                        assert!(!count.release());
                    }
                });
            }
            let count = &count;
            s.spawn(move || {
                for _ in 0..32 {
                    let audit = count.drain_audit();
                    assert!(audit.total >= 1, "audit lost the creation reference");
                }
            });
        });
        prop_assert_eq!(count.drain_audit().total, 1);
        prop_assert!(count.release());
    }

    /// Concurrently: hand one reference to each of several threads, let
    /// every thread churn take/release pairs, then drop all references
    /// (including the creator's) racily. Exactly one release across all
    /// threads may report final, and nothing may remain afterwards.
    #[test]
    fn exactly_one_final_release(extra_refs in 1usize..5, churn in 1u32..300) {
        let count = ShardedRefCount::new();
        for _ in 0..extra_refs {
            count.take();
        }
        let finals = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..extra_refs {
                let (count, finals) = (&count, &finals);
                s.spawn(move || {
                    for _ in 0..churn {
                        count.take();
                        assert!(!count.release(), "final reported while churn ref held");
                    }
                    if count.release() {
                        finals.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            // Creator reference released racing the threads above.
            if count.release() {
                finals.fetch_add(1, Ordering::SeqCst);
            }
        });
        prop_assert_eq!(finals.load(Ordering::SeqCst), 1, "exactly one final release");
        prop_assert_eq!(count.get(), 0, "count leaked");
    }
}

/// References handed from a producer thread to consumer threads move
/// between shards (taken on one, released on another). The drain path
/// must still find the exact count: no early final while handed
/// references are in flight, exactly one final at the end.
#[test]
fn handoff_between_threads_stays_exact() {
    const BATCHES: usize = 200;
    const CONSUMERS: usize = 3;
    let count = ShardedRefCount::new();
    let finals = AtomicU32::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<u32>();
    let rx = std::sync::Mutex::new(rx);
    std::thread::scope(|s| {
        for _ in 0..CONSUMERS {
            let (count, finals, rx) = (&count, &finals, &rx);
            s.spawn(move || {
                // Each received token stands for one reference taken by
                // the producer on its shard, released here on ours.
                while let Ok(tokens) = {
                    let r = rx.lock().unwrap().recv();
                    r
                } {
                    for _ in 0..tokens {
                        if count.release() {
                            finals.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            });
        }
        for batch in 0..BATCHES {
            let tokens = (batch % 5 + 1) as u32;
            for _ in 0..tokens {
                count.take();
            }
            tx.send(tokens).unwrap();
        }
        drop(tx);
    });
    // Consumers released exactly the producer's takes; creator ref last.
    assert_eq!(finals.load(Ordering::SeqCst), 0);
    assert_eq!(count.get(), 1);
    assert!(count.release());
    assert_eq!(count.get(), 0);
}
