//! The physical page pool.
//!
//! A fixed set of page frames. Allocation blocks when the pool is
//! empty — "memory allocation (blocks if memory is not available)" is
//! the paper's canonical example of an operation that may only run
//! under a Sleep-option lock — and anything that frees a page wakes the
//! waiters. The bounded size is what makes the section-7.1 deadlock
//! reproducible.

use std::time::Duration;

use machk_core::sync::Deadline;
use machk_core::{assert_wait, thread_block_until, thread_wakeup, Event, SimpleLocked};

/// A physical page frame number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

struct PoolState {
    free: Vec<PageId>,
    total: u32,
}

/// The machine's physical memory.
pub struct PagePool {
    state: SimpleLocked<PoolState>,
}

impl PagePool {
    /// A pool of `total` frames, all free.
    pub fn new(total: u32) -> PagePool {
        PagePool {
            state: SimpleLocked::new(PoolState {
                free: (0..total).map(PageId).collect(),
                total,
            }),
        }
    }

    fn event(&self) -> Event {
        Event::from_addr(self)
    }

    /// Allocate a frame, blocking until one is available.
    pub fn alloc(&self) -> PageId {
        self.alloc_until(None)
            .expect("an unbounded allocation cannot time out")
    }

    /// Allocate with a bound on the wait (used by demos that must not
    /// hang on a genuine deadlock).
    pub fn alloc_timeout(&self, timeout: Duration) -> Option<PageId> {
        self.alloc_until(Some(Deadline::after(timeout)))
    }

    /// The one blocking allocation: unbounded, or bounded by `deadline`
    /// on the host clock. A wakeup at the deadline loops back to the
    /// top, so a frame freed just then is still taken.
    fn alloc_until(&self, deadline: Option<Deadline>) -> Option<PageId> {
        loop {
            {
                let mut s = self.state.lock();
                if let Some(p) = s.free.pop() {
                    return Some(p);
                }
                if deadline.is_some_and(|d| d.expired()) {
                    return None;
                }
                // Shortage: the split-wait protocol.
                assert_wait(self.event(), false);
            }
            thread_block_until(deadline);
        }
    }

    /// Allocate only if a frame is immediately available.
    pub fn try_alloc(&self) -> Option<PageId> {
        self.state.lock().free.pop()
    }

    /// Return a frame to the pool, waking shortage waiters.
    pub fn free(&self, page: PageId) {
        {
            let mut s = self.state.lock();
            debug_assert!(!s.free.contains(&page), "double free of page {page:?}");
            debug_assert!(page.0 < s.total, "foreign page freed");
            s.free.push(page);
        }
        thread_wakeup(self.event());
    }

    /// Frames currently free (racy; diagnostics).
    pub fn free_count(&self) -> usize {
        self.state.lock().free.len()
    }
}

impl core::fmt::Debug for PagePool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("PagePool")
            .field("free", &s.free.len())
            .field("total", &s.total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    #[test]
    fn alloc_free_roundtrip() {
        let pool = PagePool::new(2);
        let a = pool.alloc();
        let b = pool.alloc();
        assert_ne!(a, b);
        assert_eq!(pool.free_count(), 0);
        assert!(pool.try_alloc().is_none());
        pool.free(a);
        assert_eq!(pool.try_alloc(), Some(a));
        pool.free(a);
        pool.free(b);
        assert_eq!(pool.free_count(), 2);
    }

    #[test]
    fn alloc_blocks_until_free() {
        let pool = PagePool::new(1);
        let p = pool.alloc();
        let got = AtomicU32::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let q = pool.alloc(); // blocks
                got.store(q.0 + 1, Ordering::SeqCst);
                pool.free(q);
            });
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(got.load(Ordering::SeqCst), 0, "allocator must block");
            pool.free(p);
        });
        assert_eq!(got.load(Ordering::SeqCst), p.0 + 1);
    }

    #[test]
    fn alloc_timeout_expires_on_empty_pool_or_takes_a_freed_frame() {
        let pool = PagePool::new(1);
        let p = pool.alloc();
        assert!(pool.alloc_timeout(Duration::from_millis(10)).is_none());
        std::thread::scope(|s| {
            s.spawn(|| {
                while machk_core::event::waiters_on(pool.event()) == 0 {
                    std::thread::yield_now();
                }
                pool.free(p);
            });
            assert_eq!(pool.alloc_timeout(Duration::from_secs(10)), Some(p));
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let pool = PagePool::new(1);
        let p = pool.alloc();
        pool.free(p);
        pool.free(p);
    }

    #[test]
    fn concurrent_alloc_free_conserves_frames() {
        let pool = PagePool::new(8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..2_000 {
                        let p = pool.alloc();
                        pool.free(p);
                    }
                });
            }
        });
        assert_eq!(pool.free_count(), 8);
    }
}
