//! Property tests for reference lifetimes: under arbitrary interleaved
//! clone/release sequences the object is destroyed exactly once, at
//! count zero, and never before the last handle drops.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use machk_refcount::{DrainableCount, ObjHeader, ObjRef, Refable};
use proptest::prelude::*;

struct Probe {
    header: ObjHeader,
    drops: Arc<AtomicU32>,
}

impl Refable for Probe {
    fn header(&self) -> &ObjHeader {
        &self.header
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn clone_release_sequences_destroy_exactly_once(
        // true = clone a random live handle, false = drop one.
        ops in proptest::collection::vec(any::<bool>(), 0..128),
    ) {
        let drops = Arc::new(AtomicU32::new(0));
        let mut handles: Vec<ObjRef<Probe>> = vec![ObjRef::new(Probe {
            header: ObjHeader::new(),
            drops: Arc::clone(&drops),
        })];
        let mut idx = 7usize;
        for clone in ops {
            idx = idx.wrapping_mul(31).wrapping_add(17);
            if clone {
                let src = idx % handles.len();
                handles.push(handles[src].clone());
            } else if handles.len() > 1 {
                let victim = idx % handles.len();
                handles.swap_remove(victim);
            }
            // Invariants after every step: alive, count == handles.
            prop_assert_eq!(drops.load(Ordering::SeqCst), 0);
            prop_assert_eq!(
                ObjRef::ref_count(&handles[0]) as usize,
                handles.len(),
                "count tracks live handles exactly"
            );
        }
        let n = handles.len();
        for (i, h) in handles.into_iter().enumerate() {
            prop_assert_eq!(drops.load(Ordering::SeqCst), 0, "alive until the last release");
            drop(h);
            if i + 1 < n {
                prop_assert_eq!(drops.load(Ordering::SeqCst), 0);
            }
        }
        prop_assert_eq!(drops.load(Ordering::SeqCst), 1, "destroyed exactly once");
    }

    #[test]
    fn header_count_models_u32(
        // true = take, false = release (skipped if it would underflow
        // per model); `deactivate_at` deactivates midway, which must not
        // move the count.
        deltas in proptest::collection::vec(any::<bool>(), 0..64),
        deactivate_at in 0usize..64,
    ) {
        let h = ObjHeader::new();
        let mut model: u32 = 1;
        for (i, take) in deltas.into_iter().enumerate() {
            if i == deactivate_at {
                let _g = h.lock().lock();
                prop_assert!(h.deactivate_locked().is_ok());
            }
            if take {
                h.take_ref();
                model += 1;
            } else if model > 1 {
                prop_assert!(!h.release_ref());
                model -= 1;
            }
            prop_assert_eq!(h.ref_count(), model);
            prop_assert_eq!(h.is_active(), i < deactivate_at);
        }
        // Drain.
        while model > 1 {
            prop_assert!(!h.release_ref());
            model -= 1;
        }
        prop_assert!(h.release_ref());
        prop_assert_eq!(h.ref_count(), 0);
    }

    #[test]
    fn drainable_count_balances(ops in proptest::collection::vec(any::<bool>(), 0..64)) {
        let c = DrainableCount::new();
        let mut model = 0u32;
        for begin in ops {
            if begin {
                c.begin();
                model += 1;
            } else if model > 0 {
                c.end();
                model -= 1;
            }
            prop_assert_eq!(c.get(), model);
            prop_assert_eq!(c.in_progress(), model > 0);
        }
    }
}
