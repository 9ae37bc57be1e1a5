//! Dispatcher fan-out: every installed subscriber sees every event, in
//! the same order, on the emitting thread.
//!
//! Lives in its own integration-test binary on purpose: subscriber
//! installation is process-forever, so this file must own its process
//! (sharing one with other dispatcher tests would entangle their
//! install sets).

use std::sync::Mutex;

use machk_sync::probe::{self, EventKind, Subscriber, TraceEvent};

/// Records every `(kind, lock_id, arg)` it is handed.
struct Recorder {
    seen: Mutex<Vec<(EventKind, u32, u64)>>,
}

impl Recorder {
    const fn new() -> Recorder {
        Recorder {
            seen: Mutex::new(Vec::new()),
        }
    }
}

impl Subscriber for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }
    fn on_event(&self, ev: &TraceEvent) {
        self.seen
            .lock()
            .unwrap()
            .push((ev.kind, ev.lock_id, ev.arg));
    }
}

#[test]
fn every_subscriber_sees_the_same_event_sequence() {
    static A: Recorder = Recorder::new();
    static B: Recorder = Recorder::new();
    static C: Recorder = Recorder::new();

    probe::install(&A).expect("slot");
    probe::install(&B).expect("slot");
    probe::install(&C).expect("slot");
    assert_eq!(probe::subscriber_names(), vec!["recorder"; 3]);

    let sequence: Vec<(EventKind, u32, u64)> = vec![
        (EventKind::SimpleAcquire, 1, 0),
        (EventKind::SimpleRelease, 1, 120),
        (EventKind::ComplexRead, 2, 40),
        (EventKind::ComplexUpgradeFail, 2, 0),
        (EventKind::RefTake, 3, 2),
        (EventKind::RingPush, 4, 7),
        (EventKind::RefRelease, 3, 1),
        (EventKind::ComplexRelease, 2, 900),
    ];
    for &(kind, id, arg) in &sequence {
        probe::event(kind, id, arg);
    }

    for rec in [&A, &B, &C] {
        assert_eq!(
            *rec.seen.lock().unwrap(),
            sequence,
            "a subscriber saw a different event sequence"
        );
    }
    assert_eq!(probe::reentrant_drops(), 0);
}
