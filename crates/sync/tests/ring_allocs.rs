//! A ring allocates its slots on the first push, exactly once.
//!
//! A counting global allocator (per thread, so parallel tests do not
//! see each other) checks that a ring which is only created, read and
//! dropped never touches the heap, and that racing first pushes free
//! every losing slot array: over many rounds, bytes allocated equal
//! bytes freed once each ring is dropped.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Barrier;

use machk_sync::ring::MpscRing;

struct CountingAlloc;

/// Heap traffic of one thread: allocations, frees and their bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Traffic {
    allocs: u64,
    frees: u64,
    alloc_bytes: u64,
    freed_bytes: u64,
}

impl core::ops::Sub for Traffic {
    type Output = Traffic;
    fn sub(self, o: Traffic) -> Traffic {
        Traffic {
            allocs: self.allocs - o.allocs,
            frees: self.frees - o.frees,
            alloc_bytes: self.alloc_bytes - o.alloc_bytes,
            freed_bytes: self.freed_bytes - o.freed_bytes,
        }
    }
}

impl core::ops::Add for Traffic {
    type Output = Traffic;
    fn add(self, o: Traffic) -> Traffic {
        Traffic {
            allocs: self.allocs + o.allocs,
            frees: self.frees + o.frees,
            alloc_bytes: self.alloc_bytes + o.alloc_bytes,
            freed_bytes: self.freed_bytes + o.freed_bytes,
        }
    }
}

thread_local! {
    static TRAFFIC: Cell<Traffic> = const {
        Cell::new(Traffic { allocs: 0, frees: 0, alloc_bytes: 0, freed_bytes: 0 })
    };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never touch the memory itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no counter left; skip it.
        let _ = TRAFFIC.try_with(|t| {
            let mut v = t.get();
            v.allocs += 1;
            v.alloc_bytes += layout.size() as u64;
            t.set(v);
        });
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = TRAFFIC.try_with(|t| {
            let mut v = t.get();
            v.frees += 1;
            v.freed_bytes += layout.size() as u64;
            t.set(v);
        });
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap traffic this thread makes while running `f`.
fn traffic_during<R>(f: impl FnOnce() -> R) -> (Traffic, R) {
    let before = TRAFFIC.with(Cell::get);
    let r = f();
    (TRAFFIC.with(Cell::get) - before, r)
}

#[test]
fn unused_ring_never_touches_the_heap() {
    let (made, ring) = traffic_during(|| MpscRing::<u64>::with_limit(64));
    assert_eq!(made, Traffic::default(), "creation allocates nothing");
    let mut out = Vec::with_capacity(8);
    let (read, ()) = traffic_during(|| {
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.pop(), None);
        assert_eq!(ring.pop_batch(&mut out, 8), 0);
    });
    assert_eq!(read, Traffic::default(), "reads install nothing");
    let (dropped, ()) = traffic_during(|| drop(ring));
    assert_eq!(dropped, Traffic::default(), "dropping frees nothing");
}

#[test]
fn first_push_installs_one_array_and_drop_frees_it() {
    let ring = MpscRing::<u64>::with_limit(3);
    let slot_bytes = (ring.capacity() * 2 * size_of::<usize>()) as u64;
    let (first, r) = traffic_during(|| ring.push(1));
    assert_eq!(r, Ok(()));
    assert_eq!(first.allocs, 1);
    assert_eq!(first.alloc_bytes, slot_bytes, "4 slots of seq + u64");
    let (later, ()) = traffic_during(|| {
        ring.push(2).unwrap();
        assert_eq!(ring.pop(), Some(1));
    });
    assert_eq!(later, Traffic::default(), "later pushes and pops reuse it");
    let (dropped, ()) = traffic_during(|| drop(ring));
    assert_eq!((dropped.frees, dropped.freed_bytes), (1, slot_bytes));
}

#[test]
fn racing_first_pushes_install_once_and_leak_nothing() {
    const PUSHERS: usize = 4;
    const PER: usize = 8;
    const ROUNDS: usize = 300;
    // A big array keeps each install slow enough for pushers to collide.
    const SLOTS: usize = 1 << 14;
    let mut arrays = 0;
    for round in 0..ROUNDS {
        let start = Barrier::new(PUSHERS);
        let mut seen = [false; PUSHERS * PER];
        let (mine, ring) = traffic_during(|| MpscRing::<usize>::with_limit(SLOTS));
        let theirs = std::thread::scope(|s| {
            let workers: Vec<_> = (0..PUSHERS)
                .map(|p| {
                    let (ring, start) = (&ring, &start);
                    s.spawn(move || {
                        traffic_during(|| {
                            start.wait();
                            for i in 0..PER {
                                ring.push(p * PER + i).expect("under the limit");
                            }
                        })
                        .0
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .fold(Traffic::default(), |a, b| a + b)
        });
        let (drained, ()) = traffic_during(|| {
            while let Some(v) = ring.pop() {
                assert!(!seen[v], "round {round}: item {v} popped twice");
                seen[v] = true;
            }
            drop(ring);
        });
        assert!(seen.iter().all(|&s| s), "round {round}: an item was lost");
        let total = mine + theirs + drained;
        assert!(
            (1..=PUSHERS as u64).contains(&theirs.allocs),
            "round {round}: each pusher builds at most one array: {theirs:?}"
        );
        assert_eq!(drained.frees, 1, "round {round}: drop frees the winner");
        assert_eq!(total.allocs, total.frees, "round {round}: {total:?}");
        assert_eq!(total.alloc_bytes, total.freed_bytes, "round {round}: {total:?}");
        arrays += theirs.allocs;
    }
    // Not asserted (the race is the host's to schedule), but visible
    // with `--nocapture`: arrays beyond one per round lost the race.
    println!("{ROUNDS} rounds built {arrays} slot arrays");
}
