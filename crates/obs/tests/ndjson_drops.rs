//! NDJSON exporter through the real dispatcher: a bounded queue accepts
//! up to capacity, drops-and-counts past it, and resumes after a drain
//! — the "degrade to a sampler, account for every loss" contract.
//!
//! Own process on purpose: the installed exporter and its counters are
//! process-forever, and the capacity arithmetic below assumes no other
//! test shares the stream.

use machk_obs::NdjsonSubscriber;
use machk_sync::probe::{self, EventKind, LockClass};

#[test]
fn dispatcher_fed_exporter_drops_and_counts_past_capacity() {
    const CAPACITY: usize = 16;
    let (sub, buf) = NdjsonSubscriber::to_shared_vec(CAPACITY);
    let sub: &'static NdjsonSubscriber = Box::leak(Box::new(sub));
    probe::install(sub).expect("slot");

    // Overflow the queue through the real emit path.
    let id = probe::register("ndjson.probe", LockClass::Simple, "tas");
    let emits = (CAPACITY * 3) as u64;
    for i in 0..emits {
        probe::event(EventKind::SimpleAcquire, id, i);
    }

    assert_eq!(sub.accepted(), CAPACITY as u64, "queue accepts exactly capacity");
    assert_eq!(
        sub.dropped(),
        emits - CAPACITY as u64,
        "every overflow event is drop-counted, none silently lost"
    );

    // Drain: exactly the accepted events come out, one JSON line each,
    // with the registry-resolved lock name serialized in.
    assert_eq!(sub.drain().unwrap(), CAPACITY);
    assert_eq!(sub.written(), CAPACITY as u64);
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), CAPACITY);
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "not NDJSON: {line}");
        assert!(line.contains("\"lock\":\"ndjson.probe\""), "name missing: {line}");
    }

    // The queue freed up: the stream resumes without further drops.
    probe::event(EventKind::SimpleRelease, id, 7);
    assert_eq!(sub.drain().unwrap(), 1);
    assert_eq!(sub.dropped(), emits - CAPACITY as u64, "post-drain emit was dropped");
    assert_eq!(sub.accepted(), CAPACITY as u64 + 1);
}
