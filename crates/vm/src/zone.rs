//! Zone allocator — Mach's `zalloc`, the kernel object allocator.
//!
//! Every "allocation routine" the paper mentions (locks "initialized in
//! the corresponding allocation routine", port structures whose
//! "allocation ... may block") sat on Mach's zone allocator: one zone
//! of fixed-size elements per object type, each zone protected by its
//! own simple lock, with allocation *blocking* when the zone is empty —
//! the canonical blocking operation that forces the §5 customized-lock
//! pattern and the Sleep option on any lock held across it.
//!
//! [`Zone<T>`] reproduces that shape: a bounded free list of `T`
//! slots under a simple lock, blocking `alloc` via the section-6
//! event-wait protocol, and `free` waking the shortage waiters.

use std::time::Duration;

use machk_core::sync::Deadline;
use machk_core::{assert_wait, thread_block_until, thread_wakeup, Event, SimpleLocked};

/// Statistics for one zone (diagnostics / experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZoneStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Elements freed back.
    pub frees: u64,
    /// Allocations that had to wait for a free.
    pub alloc_waits: u64,
}

struct ZoneState<T> {
    free: Vec<T>,
    capacity: usize,
    outstanding: usize,
    stats: ZoneStats,
}

/// A fixed-capacity typed allocator with blocking allocation.
///
/// # Examples
///
/// ```
/// use machk_vm::zone::Zone;
///
/// let zone: Zone<[u8; 64]> = Zone::new("buffers", 2, || [0u8; 64]);
/// let a = zone.alloc();
/// let b = zone.alloc();
/// assert!(zone.try_alloc().is_none(), "zone exhausted");
/// zone.free(a);
/// assert!(zone.try_alloc().is_some());
/// # zone.free(b);
/// ```
pub struct Zone<T> {
    name: &'static str,
    state: SimpleLocked<ZoneState<T>>,
}

impl<T> Zone<T> {
    /// A zone named `name` holding `capacity` elements built by `init`.
    pub fn new(name: &'static str, capacity: usize, mut init: impl FnMut() -> T) -> Zone<T> {
        Zone {
            name,
            state: SimpleLocked::new(ZoneState {
                free: (0..capacity).map(|_| init()).collect(),
                capacity,
                outstanding: 0,
                stats: ZoneStats::default(),
            }),
        }
    }

    fn event(&self) -> Event {
        Event::from_addr(self)
    }

    /// Allocate an element, blocking while the zone is exhausted.
    ///
    /// Blocking means the caller must not hold any simple lock — the
    /// rule the §5 memory-object port-creation example exists to work
    /// around (debug builds enforce it at the block).
    pub fn alloc(&self) -> T {
        self.alloc_until(None)
            .expect("an unbounded allocation cannot time out")
    }

    /// Allocate with a bounded wait; `None` on timeout.
    pub fn alloc_timeout(&self, limit: Duration) -> Option<T> {
        self.alloc_until(Some(Deadline::after(limit)))
    }

    /// The one blocking allocation: unbounded, or bounded by `deadline`
    /// on the host clock. A wakeup at the deadline loops back to the
    /// top, so an element freed just then is still taken.
    fn alloc_until(&self, deadline: Option<Deadline>) -> Option<T> {
        let mut waited = false;
        loop {
            {
                let mut s = self.state.lock();
                if let Some(el) = s.free.pop() {
                    s.outstanding += 1;
                    s.stats.allocs += 1;
                    if waited {
                        s.stats.alloc_waits += 1;
                    }
                    return Some(el);
                }
                if deadline.is_some_and(|d| d.expired()) {
                    return None;
                }
                assert_wait(self.event(), false);
            }
            waited = true;
            thread_block_until(deadline);
        }
    }

    /// Allocate only if an element is immediately available.
    pub fn try_alloc(&self) -> Option<T> {
        let mut s = self.state.lock();
        let el = s.free.pop();
        if el.is_some() {
            s.outstanding += 1;
            s.stats.allocs += 1;
        }
        el
    }

    /// Return an element to the zone, waking shortage waiters.
    pub fn free(&self, el: T) {
        {
            let mut s = self.state.lock();
            debug_assert!(
                s.outstanding > 0,
                "zone '{}': free without matching alloc",
                self.name
            );
            debug_assert!(
                s.free.len() < s.capacity,
                "zone '{}': free list overflow",
                self.name
            );
            s.outstanding -= 1;
            s.stats.frees += 1;
            s.free.push(el);
        }
        thread_wakeup(self.event());
    }

    /// Elements currently free.
    pub fn free_count(&self) -> usize {
        self.state.lock().free.len()
    }

    /// Elements currently allocated out.
    pub fn outstanding(&self) -> usize {
        self.state.lock().outstanding
    }

    /// Zone statistics snapshot.
    pub fn stats(&self) -> ZoneStats {
        self.state.lock().stats
    }

    /// The zone's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T> core::fmt::Debug for Zone<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("Zone")
            .field("name", &self.name)
            .field("free", &s.free.len())
            .field("capacity", &s.capacity)
            .field("outstanding", &s.outstanding)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    #[test]
    fn alloc_free_roundtrip_with_stats() {
        let zone: Zone<u64> = Zone::new("test", 2, || 0);
        let a = zone.alloc();
        assert_eq!(zone.outstanding(), 1);
        assert_eq!(zone.free_count(), 1);
        zone.free(a);
        let s = zone.stats();
        assert_eq!(s.allocs, 1);
        assert_eq!(s.frees, 1);
        assert_eq!(s.alloc_waits, 0);
    }

    #[test]
    fn exhausted_zone_blocks_until_free() {
        let zone: Zone<u64> = Zone::new("test", 1, || 7);
        let el = zone.alloc();
        let got = AtomicU32::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let el2 = zone.alloc(); // blocks
                got.store(1, Ordering::SeqCst);
                zone.free(el2);
            });
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(got.load(Ordering::SeqCst), 0, "must block while empty");
            zone.free(el);
        });
        assert_eq!(got.load(Ordering::SeqCst), 1);
        assert_eq!(zone.stats().alloc_waits, 1);
    }

    #[test]
    fn alloc_timeout_expires_or_takes_a_freed_element() {
        let zone: Zone<u8> = Zone::new("test", 1, || 5);
        let el = zone.alloc();
        assert!(zone.alloc_timeout(Duration::from_millis(10)).is_none());
        assert_eq!(zone.stats().alloc_waits, 0, "a timeout allocates nothing");
        std::thread::scope(|s| {
            s.spawn(|| {
                while machk_core::event::waiters_on(zone.event()) == 0 {
                    std::thread::yield_now();
                }
                zone.free(el);
            });
            assert_eq!(zone.alloc_timeout(Duration::from_secs(10)), Some(5));
        });
        assert_eq!(zone.stats().alloc_waits, 1);
    }

    #[test]
    fn concurrent_churn_conserves_elements() {
        let zone: Zone<u64> = Zone::new("test", 4, || 0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..2_000 {
                        let el = zone.alloc();
                        zone.free(el);
                    }
                });
            }
        });
        assert_eq!(zone.free_count(), 4);
        assert_eq!(zone.outstanding(), 0);
        let s = zone.stats();
        assert_eq!(s.allocs, s.frees);
        assert_eq!(s.allocs, 8_000);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "free without matching alloc")]
    fn overfree_detected() {
        let zone: Zone<u8> = Zone::new("test", 1, || 0);
        zone.free(0);
    }
}
