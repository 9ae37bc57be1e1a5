//! Stress test for the seqlock trace ring: a writer overwriting the
//! oldest slots at full speed while readers snapshot concurrently must
//! never yield a torn event.
//!
//! Tearing is made detectable by construction: every pushed event
//! carries `arg = checksum(ts_ns, lock_id, thread)`. A snapshot that
//! mixed words from two different writes would (with overwhelming
//! probability) fail the checksum. The ring is allowed to *skip* a
//! slot that is mid-write — overwrite-oldest loses old events by
//! design — but everything it returns must be internally consistent.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use machk_obs::ring::{TraceRing, RING_CAPACITY};
use machk_obs::{EventKind, TraceEvent};

fn checksum(ts: u64, lock_id: u32, thread: u32) -> u64 {
    ts.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(lock_id) << 32 | u64::from(thread)).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

fn make_event(i: u64) -> TraceEvent {
    let lock_id = (i % 509) as u32; // co-prime with capacity
    let thread = (i % 127) as u32;
    TraceEvent {
        ts_ns: i,
        kind: EventKind::from_u8((i % 20) as u8),
        lock_id,
        thread,
        arg: checksum(i, lock_id, thread),
        flags: (i % 3) as u8,
    }
}

fn assert_untorn(e: &TraceEvent) {
    assert_eq!(
        e.arg,
        checksum(e.ts_ns, e.lock_id, e.thread),
        "torn event read from ring: {e:?}"
    );
}

/// One writer laps the ring many times over while several readers
/// snapshot continuously. Every event any reader ever observes must
/// pass its checksum.
#[test]
fn concurrent_snapshots_never_observe_torn_events() {
    let ring = Arc::new(TraceRing::default());
    let stop = Arc::new(AtomicBool::new(false));
    let writes: u64 = (RING_CAPACITY as u64) * 64;

    std::thread::scope(|s| {
        for _ in 0..3 {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut seen = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let snap = ring.snapshot();
                    for e in &snap {
                        assert_untorn(e);
                    }
                    seen += snap.len();
                }
                // One final full pass after the writer quiesced.
                let snap = ring.snapshot();
                for e in &snap {
                    assert_untorn(e);
                }
                seen + snap.len()
            });
        }
        // Writer: overwrite the ring dozens of times.
        for i in 0..writes {
            ring.push_owned(&make_event(i));
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(ring.pushed(), writes);
    // After the writer stops, the snapshot is exactly the newest
    // RING_CAPACITY events, in order.
    let settled = ring.snapshot();
    assert_eq!(settled.len(), RING_CAPACITY);
    for (off, e) in settled.iter().enumerate() {
        let expect = writes - RING_CAPACITY as u64 + off as u64;
        assert_eq!(
            *e,
            make_event(expect),
            "overwrite-oldest kept the newest window"
        );
    }
}

/// The public `push` routes through the per-thread ring: hammer it
/// from many threads while aggregating, and verify merged snapshots
/// stay internally consistent and the totals add up.
#[test]
fn per_thread_push_with_concurrent_aggregation() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 20_000;
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    machk_obs::ring::push(make_event(t * PER_THREAD + i));
                }
            });
        }
        let stop2 = Arc::clone(&stop);
        s.spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                for e in machk_obs::ring::snapshot_all() {
                    assert_untorn(&e);
                }
            }
        });
        // Aggregate while the writers run, then release the aggregator
        // (the scope joins everything on exit).
        std::thread::sleep(std::time::Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
    });

    let (pushed, rings) = machk_obs::ring::totals();
    assert!(
        pushed >= THREADS * PER_THREAD,
        "all pushes counted (other tests in this binary may add more): {pushed}"
    );
    assert!(rings >= THREADS as usize);
    for e in machk_obs::ring::snapshot_all() {
        assert_untorn(&e);
    }
}
