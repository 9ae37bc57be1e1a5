//! Clean twin of `relaxed_split_bad.rs`: the justification sits above
//! the split statement, three lines from its `Ordering::Relaxed`.
//! Expected: clean.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn next_ticket(outstanding_requests: &AtomicU64, completed_requests: &AtomicU64) -> u64 {
    // relaxed: the completed count is advisory; a stale read only
    // lowers the ticket.
    let next = outstanding_requests
        .fetch_add(1, Ordering::AcqRel)
        .saturating_add(completed_requests.load(Ordering::Relaxed));
    next
}
