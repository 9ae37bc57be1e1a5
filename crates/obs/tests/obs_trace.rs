//! End-to-end checks of the simple-lock probes through the lockstat
//! subscriber: named locks register, counters and histograms fill in,
//! events land in the trace ring, and acquisition order feeds the
//! deadlock-diagnostic graph.

use machk_obs::EventKind;
use machk_sync::{decl_simple_lock_data, simple_lock, simple_unlock, RawSimpleLock};

decl_simple_lock_data!(, OBS_TEST_LOCK);

#[test]
fn named_lock_reports_into_registry_and_ring() {
    machk_obs::install_stats();
    static LOCK: RawSimpleLock = RawSimpleLock::named("obs_test.named");
    for _ in 0..10 {
        LOCK.lock().unlock();
    }
    assert!(LOCK.try_lock().is_some());
    {
        let _g = LOCK.lock();
        assert!(LOCK.try_lock().is_none()); // a recorded try failure
    }

    let report = machk_obs::registry::snapshot()
        .into_iter()
        .find(|l| l.name == "obs_test.named")
        .expect("named lock registered");
    assert!(
        report.acquires >= 12,
        "blocking + try acquires: {}",
        report.acquires
    );
    assert!(report.try_failures >= 1);
    assert_eq!(report.wait.count, report.acquires as u64);
    assert!(report.hold.count >= 11, "a hold sample per release");

    let events = machk_obs::ring::snapshot_current_thread();
    let id = report.id;
    assert!(events
        .iter()
        .any(|e| e.kind == EventKind::SimpleAcquire && e.lock_id == id));
    assert!(events
        .iter()
        .any(|e| e.kind == EventKind::SimpleRelease && e.lock_id == id));
    assert!(events
        .iter()
        .any(|e| e.kind == EventKind::SimpleTryFail && e.lock_id == id));
}

#[test]
fn decl_macro_uses_identifier_as_name() {
    machk_obs::install_stats();
    simple_lock(&OBS_TEST_LOCK);
    simple_unlock(&OBS_TEST_LOCK);
    assert!(machk_obs::registry::snapshot()
        .iter()
        .any(|l| l.name == "OBS_TEST_LOCK" && l.acquires >= 1));
}

#[test]
fn anonymous_locks_stay_unregistered() {
    machk_obs::install_stats();
    // Compare by name, not by registry size: the other tests in this
    // binary register their named locks concurrently.
    let lock: RawSimpleLock = RawSimpleLock::new();
    lock.lock().unlock();
    assert!(machk_obs::registry::snapshot()
        .iter()
        .all(|l| !l.name.is_empty()));
}

#[test]
fn nested_acquisitions_record_order_edges() {
    machk_obs::install_stats();
    static OUTER: RawSimpleLock = RawSimpleLock::named("obs_test.outer");
    static INNER: RawSimpleLock = RawSimpleLock::named("obs_test.inner");
    {
        let _o = OUTER.lock();
        let _i = INNER.lock();
    }
    let ids: Vec<u32> = machk_obs::registry::snapshot()
        .into_iter()
        .filter(|l| l.name.starts_with("obs_test.o") || l.name.starts_with("obs_test.i"))
        .map(|l| l.id)
        .collect();
    assert_eq!(ids.len(), 2);
    assert!(
        machk_obs::order::edges()
            .iter()
            .any(|&(a, b, _)| ids.contains(&a) && ids.contains(&b)),
        "outer->inner edge recorded"
    );
}
