//! The reproducible fault-decision trace.
//!
//! Every decision made while the installed plan has `record_trace` set
//! is appended here as a [`FaultRecord`]. Records carry the *role* and
//! per-role *sequence number* of the decision, so [`render`] can sort
//! them into a canonical order that does not depend on how the OS
//! interleaved the threads: two runs of the same seed over the same
//! per-role decision sequences render byte-for-byte identical traces,
//! which is exactly what E17's determinism assertion compares.

use std::sync::Mutex;

use crate::FaultSite;

/// Upper bound on stored records; decisions past the cap are counted
/// (see [`crate::stats`]) but not traced, and [`truncated`] reports the
/// overflow so a capped trace is never mistaken for a complete one.
pub const TRACE_CAP: usize = 1 << 20;

/// One recorded fault decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// The deciding thread's role (see `machk_sync::probe::set_role`).
    pub role: u32,
    /// Index of this decision in the role's stream.
    pub seq: u32,
    /// The site that asked.
    pub site: FaultSite,
    /// Whether the fault fired.
    pub fired: bool,
}

struct TraceBuf {
    records: Vec<FaultRecord>,
    dropped: u64,
}

static TRACE: Mutex<TraceBuf> = Mutex::new(TraceBuf {
    records: Vec::new(),
    dropped: 0,
});

pub(crate) fn push(rec: FaultRecord) {
    let mut t = TRACE.lock().unwrap();
    if t.records.len() < TRACE_CAP {
        t.records.push(rec);
    } else {
        t.dropped += 1;
    }
}

/// Clear the trace (done automatically by [`crate::install`]).
pub fn reset() {
    let mut t = TRACE.lock().unwrap();
    t.records.clear();
    t.dropped = 0;
}

/// Take a snapshot of the recorded decisions.
pub fn snapshot() -> Vec<FaultRecord> {
    TRACE.lock().unwrap().records.clone()
}

/// Number of decisions dropped because the trace hit [`TRACE_CAP`].
pub fn truncated() -> u64 {
    TRACE.lock().unwrap().dropped
}

/// Render records in canonical `(role, seq)` order, one line per
/// decision. This is the byte-for-byte replay format:
///
/// ```text
/// role=2 seq=17 site=rpc_drop_reply fired=1
/// ```
pub fn render(mut records: Vec<FaultRecord>) -> String {
    records.sort_by_key(|r| (r.role, r.seq));
    let mut out = String::with_capacity(records.len() * 40);
    for r in &records {
        out.push_str(&format!(
            "role={} seq={} site={} fired={}\n",
            r.role,
            r.seq,
            r.site.name(),
            u8::from(r.fired)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_interleaving_independent() {
        let a = vec![
            FaultRecord {
                role: 1,
                seq: 0,
                site: FaultSite::RpcDeadPort,
                fired: true,
            },
            FaultRecord {
                role: 0,
                seq: 0,
                site: FaultSite::SimpleTryFail,
                fired: false,
            },
            FaultRecord {
                role: 0,
                seq: 1,
                site: FaultSite::SimpleTryFail,
                fired: true,
            },
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(render(a), render(b));
    }

    #[test]
    fn render_format_is_stable() {
        let r = vec![FaultRecord {
            role: 3,
            seq: 9,
            site: FaultSite::EventDropWakeup,
            fired: true,
        }];
        assert_eq!(render(r), "role=3 seq=9 site=event_drop_wakeup fired=1\n");
    }
}
