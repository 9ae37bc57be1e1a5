//! Property and stress tests for the sharded [`PortNameSpace`] and the
//! engine's ledgers: concurrent insert/lookup/remove never loses or
//! duplicates a port, dead-name resolution is consistent across shards,
//! and every storm ends with the `ShardedRefCount` ledger balanced.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use machk_core::ObjRef;
use machk_ipc::engine::{Engine, EngineConfig};
use machk_ipc::{Port, PortName, PortNameSpace};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequentially, the sharded table is indistinguishable from a
    /// `HashMap` model, for every shard count: inserts allocate fresh
    /// names, translate clones exactly the mapped right, remove returns
    /// it exactly once.
    #[test]
    fn matches_map_model(nshards in 1usize..=16, ops in proptest::collection::vec(any::<u8>(), 0..300)) {
        let ns = PortNameSpace::with_shards(nshards);
        let mut model: Vec<(PortName, ObjRef<Port>)> = Vec::new();
        for op in ops {
            match op % 3 {
                0 => {
                    let port = Port::create();
                    let name = ns.insert(port.clone());
                    prop_assert!(model.iter().all(|(n, _)| *n != name), "name reused");
                    model.push((name, port));
                }
                1 => {
                    if let Some((name, port)) = model.last() {
                        let got = ns.translate(*name);
                        prop_assert!(got.is_some());
                        prop_assert!(ObjRef::ptr_eq(&got.unwrap(), port));
                    }
                    // Never-allocated names miss on every shard.
                    prop_assert!(ns.translate(PortName(0)).is_none());
                }
                _ => {
                    if let Some((name, port)) = model.pop() {
                        let got = ns.remove(name).expect("model says present");
                        prop_assert!(ObjRef::ptr_eq(&got, &port));
                        prop_assert!(ns.translate(name).is_none(), "dead name resolved");
                        prop_assert!(ns.remove(name).is_none(), "double remove");
                    }
                }
            }
            prop_assert_eq!(ns.len(), model.len());
        }
        // Drain returns exactly the survivors.
        let drained = ns.drain();
        prop_assert_eq!(drained.len(), model.len());
        prop_assert!(ns.is_empty());
    }

    /// Every reference the table ever held is returned exactly once:
    /// after remove/drain, each port's count is back to its creator's.
    #[test]
    fn no_reference_leaks(nshards in 1usize..=8, keep in 0usize..40) {
        let ns = PortNameSpace::with_shards(nshards);
        let ports: Vec<_> = (0..40).map(|_| Port::create()).collect();
        let names: Vec<_> = ports.iter().map(|p| ns.insert(p.clone())).collect();
        for name in names.iter().take(keep) {
            drop(ns.remove(*name).expect("present"));
        }
        drop(ns.drain());
        for p in &ports {
            prop_assert_eq!(ObjRef::ref_count(p), 1, "table kept a reference");
        }
    }

    /// Engine storms balance both ledgers for arbitrary seeds and
    /// worker/shard shapes (the drain_audit acceptance criterion).
    #[test]
    fn storms_balance_ledgers(seed in any::<u64>(), workers in 1usize..=4, shards in prop_oneof![Just(1usize), Just(4), Just(8)]) {
        let report = Engine::new(EngineConfig {
            workers,
            shards,
            ops_per_worker: 1_500,
            stable_ports: 8,
            seed,
            ..EngineConfig::default()
        })
        .run();
        prop_assert!(report.rpc_balanced, "RpcStats ledger unbalanced");
        prop_assert_eq!(report.ledger_total, 1, "object ledger unbalanced");
        prop_assert_eq!(report.creates, report.terminates);
    }
}

/// Concurrent insert/translate/remove across threads: no port is ever
/// lost (every inserted name resolves until removed), none is
/// duplicated (names are globally unique, removes return exactly one
/// right), and dead names miss consistently from every thread.
#[test]
fn concurrent_insert_lookup_remove_loses_nothing() {
    const THREADS: usize = 4;
    const PER: usize = 400;
    for nshards in [1, 3, 8] {
        let ns = PortNameSpace::with_shards(nshards);
        let all_names = Mutex::new(Vec::<PortName>::new());
        let removed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let ns = &ns;
                let all_names = &all_names;
                let removed = &removed;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..PER {
                        let port = Port::create();
                        let name = ns.insert(port.clone());
                        assert!(
                            ObjRef::ptr_eq(
                                &ns.translate(name).expect("fresh name resolves"),
                                &port
                            ),
                            "translate returned someone else's port"
                        );
                        mine.push((name, port));
                        // Churn: remove half of what we insert, observing
                        // our own removes as dead names immediately.
                        if i % 2 == 1 {
                            let (dead, port) = mine.swap_remove(i % mine.len());
                            let got = ns.remove(dead).expect("our name is ours to remove");
                            assert!(ObjRef::ptr_eq(&got, &port));
                            assert!(ns.translate(dead).is_none(), "dead name resolved");
                            assert!(ns.remove(dead).is_none(), "double remove");
                            removed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    all_names
                        .lock()
                        .unwrap()
                        .extend(mine.into_iter().map(|(n, _)| n));
                });
            }
        });
        let survivors = all_names.into_inner().unwrap();
        // Global uniqueness across all threads' allocations.
        let unique: HashSet<_> = survivors.iter().copied().collect();
        assert_eq!(unique.len(), survivors.len(), "duplicate names handed out");
        assert_eq!(
            survivors.len(),
            THREADS * PER - removed.load(Ordering::Relaxed),
            "ports lost or duplicated"
        );
        assert_eq!(ns.len(), survivors.len());
        for name in &survivors {
            assert!(ns.translate(*name).is_some(), "surviving name lost");
        }
        assert_eq!(ns.drain().len(), survivors.len());
    }
}
