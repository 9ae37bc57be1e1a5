//! Property: a simulation is a pure function of `(seed, cores)` — the
//! schedule trace, the virtual clock, and the rendered experiment-style
//! output are byte-identical across repeated runs, for arbitrary seeds
//! and any core count.

use std::sync::Arc;

use machk_refcount::ShardedRefCount;
use machk_sim::{run, SimConfig};
use machk_sync::host;
use machk_sync::{RawSimpleLock, Ticket};
use proptest::prelude::*;

/// A mixed workload touching locks, refcounts, and virtual work, then
/// rendering an output string the way an experiment would.
fn scenario() -> String {
    let lock = Arc::new(RawSimpleLock::<Ticket>::new());
    let count = Arc::new(ShardedRefCount::new());
    let ts: Vec<_> = (0..3)
        .map(|i| {
            let lock = Arc::clone(&lock);
            let count = Arc::clone(&count);
            host::spawn(move || {
                for _ in 0..6 {
                    count.take();
                    let g = lock.lock();
                    host::advance(200 + i * 50);
                    drop(g);
                    assert!(!count.release());
                }
            })
        })
        .collect();
    for t in ts {
        host::join(t);
    }
    format!(
        "audit.total={} now={}ns cpu={}",
        count.drain_audit().total,
        host::now(),
        host::cpu_id()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn identical_seed_and_cores_give_identical_runs(
        seed in any::<u64>(),
        cores in prop_oneof![Just(1usize), Just(2), Just(8), Just(32)],
    ) {
        let cfg = SimConfig::DEFAULT.with_seed(seed).with_cores(cores);
        let a = run(&cfg, scenario).unwrap();
        let b = run(&cfg, scenario).unwrap();
        prop_assert_eq!(&a.trace.tids, &b.trace.tids, "schedules diverged");
        prop_assert_eq!(&a.trace.choices, &b.trace.choices);
        prop_assert_eq!(a.steps, b.steps);
        prop_assert_eq!(a.clock_ns, b.clock_ns);
        prop_assert_eq!(&a.value, &b.value, "experiment output diverged");
        prop_assert!(a.value.starts_with("audit.total=1 "), "ledger: {}", a.value);
    }
}
