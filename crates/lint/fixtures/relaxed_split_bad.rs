//! Fixture: a statement rustfmt splits over three lines, with an
//! unjustified `Ordering::Relaxed` on its last line. Expected: one
//! `relaxed-unjustified`.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn next_ticket(outstanding_requests: &AtomicU64, completed_requests: &AtomicU64) -> u64 {
    let next = outstanding_requests
        .fetch_add(1, Ordering::AcqRel)
        .saturating_add(completed_requests.load(Ordering::Relaxed));
    next
}
