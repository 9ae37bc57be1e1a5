//! Per-thread, lock-free, overwrite-oldest trace rings.
//!
//! Each thread owns one fixed-capacity ring; only the owning thread
//! writes it, so the write path is a handful of plain atomic stores
//! with no shared cache line between producers — the "per-CPU buffer"
//! discipline of kernel tracers (this reproduction's CPUs are
//! threads). Aggregation ([`snapshot_all`]) may run on any thread at
//! any time: each slot is a tiny seqlock (sequence word + four data
//! words, all atomics), so a reader either gets a whole event or
//! rejects the slot — never a torn record. The fence protocol is the
//! classic seqlock recipe: writer marks the slot odd, release-fences,
//! writes the words, then publishes an even sequence; the reader
//! validates with an acquire fence between the data loads and the
//! sequence re-check.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use machk_sync::probe::{EventKind, TraceEvent};

/// Events per ring. Power of two; at ~1 event per traced lock
/// operation this holds the most recent few thousand operations per
/// thread, which is what a post-run report wants (totals live in the
/// registry, not the ring).
pub const RING_CAPACITY: usize = 4096;

/// Pack an event into four words for atomic slot storage. Word 1:
/// bits 0–31 lock id, bits 32–39 kind, bits 40–47 flags.
fn pack(ev: &TraceEvent) -> [u64; 4] {
    [
        ev.ts_ns,
        (u64::from(ev.flags) << 40) | (u64::from(ev.kind as u8) << 32) | u64::from(ev.lock_id),
        u64::from(ev.thread),
        ev.arg,
    ]
}

/// Inverse of [`pack`].
fn unpack(w: [u64; 4]) -> TraceEvent {
    TraceEvent {
        ts_ns: w[0],
        kind: EventKind::from_u8((w[1] >> 32) as u8),
        lock_id: w[1] as u32,
        thread: w[2] as u32,
        arg: w[3],
        flags: (w[1] >> 40) as u8,
    }
}

/// One slot: a sequence word and the packed event.
///
/// `seq` is `2*generation + 1` while the owner is writing generation
/// `generation`, `2*generation + 2` once it is published, and 0 for a
/// never-written slot. Cache-line padding keeps a hot writer slot from
/// false-sharing with a concurrent reader's neighbour loads.
#[repr(align(64))]
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }
}

/// A single thread's trace ring. Writes are owner-only; snapshots are
/// safe from any thread.
pub struct TraceRing {
    slots: Box<[Slot]>,
    /// Monotonic count of events ever pushed; the next write goes to
    /// `head % capacity`.
    head: AtomicU64,
}

/// A fresh ring. Most callers never construct one directly — the
/// thread-local ring behind [`push`] is made on first use — but a
/// standalone ring is handy for stress tests and embedding.
impl Default for TraceRing {
    fn default() -> Self {
        TraceRing {
            slots: (0..RING_CAPACITY).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }
}

impl TraceRing {
    /// Total events ever pushed (≥ events currently held).
    pub fn pushed(&self) -> u64 {
        // relaxed: advisory diagnostic counter.
        self.head.load(Ordering::Relaxed)
    }

    /// Owner-only write: overwrite the oldest slot with `ev`.
    ///
    /// Tracing callers go through [`push`], which routes to the calling
    /// thread's own ring, preserving the single-writer discipline.
    /// Calling this from two threads at once is memory-safe (all slots
    /// are atomics) but forfeits the tear-free guarantee — don't.
    pub fn push_owned(&self, ev: &TraceEvent) {
        // relaxed: `head` is only written by this owner thread.
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h as usize) & (RING_CAPACITY - 1)];
        // Generation g = number of times this slot has been written.
        let generation = h / RING_CAPACITY as u64;
        // relaxed: the seqlock protocol orders these — the Release
        // fence keeps the odd seq before the word stores, and readers
        // reject any slot whose seq moved or is odd.
        slot.seq.store(2 * generation + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        let w = pack(ev);
        for (dst, src) in slot.words.iter().zip(w) {
            // relaxed: guarded by the seq protocol above.
            dst.store(src, Ordering::Relaxed);
        }
        slot.seq.store(2 * generation + 2, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Copy out every published event, oldest first. Slots mid-write
    /// are retried briefly, then skipped; an event is either returned
    /// whole or not at all.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(RING_CAPACITY);
        let head = self.head.load(Ordering::Acquire);
        let start = head.saturating_sub(RING_CAPACITY as u64);
        for i in start..head {
            let slot = &self.slots[(i as usize) & (RING_CAPACITY - 1)];
            for _attempt in 0..4 {
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 == 0 || s1 & 1 == 1 {
                    // Unwritten, or the owner is mid-write: retry.
                    std::hint::spin_loop();
                    continue;
                }
                let mut w = [0u64; 4];
                for (dst, src) in w.iter_mut().zip(&slot.words) {
                    // relaxed: speculative; the seq re-check below
                    // (after the Acquire fence) rejects torn copies.
                    *dst = src.load(Ordering::Relaxed);
                }
                fence(Ordering::Acquire);
                // relaxed: ordered by the Acquire fence just above.
                let s2 = slot.seq.load(Ordering::Relaxed);
                if s1 == s2 {
                    out.push(unpack(w));
                    break;
                }
                // The owner lapped us mid-copy; retry with the newer
                // generation.
            }
        }
        out.sort_by_key(|e| e.ts_ns);
        out
    }
}

/// All rings ever created, for aggregation. Rings outlive their
/// threads (a report after a worker exits still sees its events);
/// one ring per thread for the process lifetime is the deliberate
/// trade.
fn all_rings() -> &'static Mutex<Vec<Arc<TraceRing>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<TraceRing>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static MY_RING: Arc<TraceRing> = {
        let ring = Arc::new(TraceRing::default());
        all_rings().lock().unwrap().push(Arc::clone(&ring));
        ring
    };
}

/// Record `ev` in the calling thread's ring. (Events emitted while the
/// ring is being set up cannot recurse here: the probe dispatcher's
/// per-thread latch drops them.)
#[inline]
pub fn push(ev: TraceEvent) {
    MY_RING.with(|r| r.push_owned(&ev));
}

/// Snapshot of every thread's ring, merged oldest-first.
pub fn snapshot_all() -> Vec<TraceEvent> {
    let rings: Vec<Arc<TraceRing>> = all_rings().lock().unwrap().clone();
    let mut out: Vec<TraceEvent> = rings.iter().flat_map(|r| r.snapshot()).collect();
    out.sort_by_key(|e| e.ts_ns);
    out
}

/// Snapshot of the calling thread's ring only (tests, examples).
pub fn snapshot_current_thread() -> Vec<TraceEvent> {
    MY_RING.with(|r| r.snapshot())
}

/// Total events ever pushed across all rings, and the ring count.
pub fn totals() -> (u64, usize) {
    let rings = all_rings().lock().unwrap();
    (rings.iter().map(|r| r.pushed()).sum(), rings.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrips_every_kind_and_extreme_fields() {
        for kind in EventKind::ALL {
            let ev = TraceEvent {
                ts_ns: u64::MAX - 1,
                kind,
                lock_id: u32::MAX,
                thread: 42,
                arg: u64::MAX - 7,
                flags: 0x81,
            };
            assert_eq!(unpack(pack(&ev)), ev, "flags must not bleed into the id");
        }
    }

    fn ev(i: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: i,
            kind: EventKind::SimpleAcquire,
            lock_id: i as u32,
            thread: 1,
            arg: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            flags: (i % 5) as u8,
        }
    }

    #[test]
    fn ring_returns_pushed_events_in_order() {
        let ring = TraceRing::default();
        for i in 0..100 {
            ring.push_owned(&ev(i));
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), 100);
        for (i, e) in got.iter().enumerate() {
            assert_eq!(*e, ev(i as u64));
        }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let ring = TraceRing::default();
        let n = (RING_CAPACITY + 123) as u64;
        for i in 0..n {
            ring.push_owned(&ev(i));
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), RING_CAPACITY);
        // The survivors are exactly the newest RING_CAPACITY events.
        assert_eq!(got.first().unwrap().ts_ns, n - RING_CAPACITY as u64);
        assert_eq!(got.last().unwrap().ts_ns, n - 1);
        assert_eq!(ring.pushed(), n);
    }

    #[test]
    fn snapshot_of_empty_ring_is_empty() {
        assert!(TraceRing::default().snapshot().is_empty());
    }

    #[test]
    fn per_thread_rings_merge() {
        push(ev(1));
        std::thread::scope(|s| {
            s.spawn(|| push(ev(2)));
        });
        let all = snapshot_all();
        assert!(all.iter().any(|e| e.ts_ns == 1));
        assert!(all.iter().any(|e| e.ts_ns == 2));
        let (pushed, rings) = totals();
        assert!(pushed >= 2);
        assert!(rings >= 2);
    }
}
