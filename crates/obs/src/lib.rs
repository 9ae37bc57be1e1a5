//! # machk-obs — the kernel-wide lockstat substrate
//!
//! The paper's argument is about *where contention and hold time live*:
//! code vs. data locking (§3), writer starvation (§5), interrupt/spl
//! deadlocks (§7). Ad-hoc per-lock counters cannot answer those
//! questions for a whole kernel; Solaris `lockstat` could, by combining
//! cheap always-on counters with a name registry and post-hoc
//! aggregation. This crate is that tool for the reproduction,
//! structured like `tracing-core`: the hooks feed one tiny static
//! dispatcher ([`subscriber`]), and everything downstream is a
//! pluggable [`LockSubscriber`]:
//!
//! * **[`subscriber`]** — the dispatcher: [`emit`] stamps an event and
//!   fans it to every installed subscriber, synchronously, in
//!   installation order. [`StatsSubscriber`] (the classic
//!   registry+histogram+lockstat pipeline below) is installed
//!   automatically on first use; [`NdjsonSubscriber`] (streaming
//!   newline-delimited JSON export, bounded and drop-counting) and
//!   [`FlameSubscriber`] (lock-class × site wait/hold rollups rendered
//!   as collapsed stacks) stack on top.
//!
//! * **[`ring`]** — a lock-free, per-thread, fixed-capacity,
//!   overwrite-oldest trace ring of typed [`TraceEvent`]s (lock
//!   acquire/contend/release with nanosecond wait and hold times,
//!   refcount traffic, spl transitions, event waits). Each slot is a
//!   per-slot seqlock over atomic words, so a snapshot taken from any
//!   thread never observes a torn event.
//! * **[`registry`]** — a global table mapping small integer ids to
//!   static lock names (`vm_object.ref`, not an address), with per-lock
//!   counters and log2 wait/hold-time **histograms** ([`hist`]) updated
//!   lock-free on the traced paths. Blocking-time *distributions*, not
//!   means, are what distinguish locking protocols (Brandenburg's
//!   survey); the histograms record them.
//! * **[`order`]** — an acquisition-order graph fed by the `machk-sync`
//!   held-lock tracking: an edge A→B each time B is acquired while A is
//!   held, plus cycle detection, turning potential deadlocks into a
//!   report instead of a hang.
//! * **[`report`]** — the aggregation pass: a `lockstat`-style text or
//!   JSON report (top-N locks by contention, histograms, reader/writer
//!   breakdown, per-policy comparison, order cycles).
//!
//! ## Feature gating and cost
//!
//! This crate is **always safe to build** but is only *linked* when a
//! consumer crate's `obs` feature is on: `machk-sync`, `machk-lock`,
//! `machk-refcount`, `machk-intr` and `machk-event` name `machk-obs` as
//! an *optional* dependency behind their `obs` features, and their
//! trace macros expand to nothing without it. The default build
//! therefore contains no trace code at all — `cargo tree -p machk-sync`
//! does not even list this crate (CI asserts exactly that).
//!
//! With `obs` on, the traced fast path pays two monotonic clock reads
//! and a handful of relaxed atomic increments per acquisition — the
//! `queued_lock` Criterion bench carries an obs-on/obs-off pair and
//! EXPERIMENTS.md records the measured delta.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod flame;
pub mod hist;
pub mod ndjson;
pub mod order;
pub mod registry;
pub mod report;
pub mod ring;
pub mod subscriber;

pub use event::{EventKind, TraceEvent, FLAG_CONTENDED};
pub use flame::{FlameMetric, FlameSubscriber};
pub use hist::{HistSnapshot, Log2Hist};
pub use ndjson::NdjsonSubscriber;
pub use registry::{ComplexOp, LockClass, LockTag, RefOp, RingOp};
pub use report::Lockstat;
pub use subscriber::{
    dispatch, install, install_static, set_auto_install, LockSubscriber, SlotsFull,
    StatsSubscriber,
};

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (a monotonic
/// timestamp for trace events; absolute epoch is irrelevant, only
/// differences are reported).
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// Small dense id for the calling thread (1, 2, 3 … in first-use
/// order), recorded in trace events in place of the opaque `ThreadId`.
#[inline]
pub fn thread_tag() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        // relaxed: unique-id draw; no ordering implied by tags.
        static TAG: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

/// Emit one trace event, stamped with the current time and thread tag,
/// through the subscriber dispatcher ([`subscriber::dispatch`]). The
/// single entry point the traced crates' hooks call. On the first call
/// the default [`StatsSubscriber`] is installed (unless
/// [`set_auto_install`]`(false)` ran first), so a traced build reports
/// through the registry/ring/order machinery exactly as before the
/// subscriber layer existed.
#[inline]
pub fn emit(kind: EventKind, lock_id: u32, arg: u64) {
    emit_flags(kind, lock_id, arg, 0);
}

/// [`emit`] with event flag bits (e.g. [`FLAG_CONTENDED`] on acquire
/// events — the hook knows whether it actually waited; elapsed time
/// alone cannot say).
#[inline]
pub fn emit_flags(kind: EventKind, lock_id: u32, arg: u64, flags: u8) {
    subscriber::ensure_default();
    subscriber::dispatch(&TraceEvent {
        ts_ns: now_ns(),
        kind,
        lock_id,
        thread: thread_tag(),
        arg,
        flags,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn thread_tags_are_stable_and_distinct() {
        let mine = thread_tag();
        assert_eq!(mine, thread_tag());
        let other = std::thread::spawn(thread_tag).join().unwrap();
        assert_ne!(mine, other);
    }

    #[test]
    fn emit_lands_in_ring() {
        emit(EventKind::SimpleAcquire, 7, 42);
        let evs = ring::snapshot_current_thread();
        assert!(evs
            .iter()
            .any(|e| e.kind == EventKind::SimpleAcquire && e.lock_id == 7 && e.arg == 42));
    }
}
