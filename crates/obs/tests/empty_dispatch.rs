//! The zero-subscriber fast path: with the hooks compiled in but
//! nothing installed, events reach no sink, no named lock registers,
//! and no fault fires.
//!
//! Own process on purpose: the test's premise is that *nothing* in the
//! process ever installs a subscriber, which no shared test binary
//! could promise.

use machk_obs::{registry, ring, EventKind, LockClass};
use machk_sync::probe::{self, FaultSite};
use machk_sync::RawSimpleLock;

#[test]
fn no_subscribers_means_untouched_sinks_and_no_registration() {
    let id = probe::register("empty.probe", LockClass::Simple, "tas");
    for i in 0..100 {
        probe::event(EventKind::SimpleAcquire, id, i);
        probe::event(EventKind::SimpleRelease, id, i);
    }
    static NAMED: RawSimpleLock = RawSimpleLock::named("empty.named");
    NAMED.lock().unlock();
    assert!(!probe::fire(FaultSite::SimpleTryFail));

    assert_eq!(probe::subscriber_count(), 0);
    assert_eq!(
        NAMED.probe_id(),
        0,
        "a lock registered with nobody listening"
    );
    assert!(probe::names().iter().all(|n| n.name != "empty.named"));

    // Nothing reached the per-thread rings…
    let (pushed, rings) = ring::totals();
    assert_eq!((pushed, rings), (0, 0), "events leaked into trace rings");
    assert!(ring::snapshot_all().is_empty());

    // …and the registered name's counters never moved.
    let report = registry::snapshot()
        .into_iter()
        .find(|r| r.id == id)
        .expect("registered name is in the snapshot");
    assert_eq!(
        report.acquires, 0,
        "registry counters moved without a subscriber"
    );
    assert_eq!(report.wait.count, 0);
    assert_eq!(report.hold.count, 0);
}
