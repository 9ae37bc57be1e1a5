//! Per-lock counters and histograms, indexed by probe id.
//!
//! A trace that says "lock 0x7f3a… was contended" is useless; names
//! come from the probe name table (`machk_sync::probe::register`), in
//! which every named lock registers lazily through its `probe::Tag`.
//! This module keeps what lockstat counts per id. Counters and
//! histograms live in a static slab indexed by id, so the
//! [`crate::StatsSubscriber`] path is entirely lock-free: a few relaxed
//! increments per event.

use std::sync::atomic::{AtomicU32, Ordering};

use machk_sync::probe::{self, EventKind, LockClass};

use crate::hist::{HistSnapshot, Log2Hist};

/// Capacity of the counter slab. Ids past the slab all alias slot 0,
/// the overflow bucket, so registration never fails — a report just
/// shows an `<overflow>` row if a run creates this many distinct
/// *named* locks (per-object anonymous locks are not registered).
pub const MAX_LOCKS: usize = 512;

/// Per-lock counters and distributions, all updated with relaxed
/// atomics from the traced paths.
pub struct LockEntry {
    /// Successful blocking acquisitions (simple) or read+write
    /// acquisitions (complex).
    pub acquires: AtomicU32,
    /// Acquisitions that did not succeed on the first attempt.
    pub contended: AtomicU32,
    /// Failed try-acquisitions.
    pub try_failures: AtomicU32,
    /// Wait-to-acquire distribution (ns).
    pub wait: Log2Hist,
    /// Hold-time distribution (ns).
    pub hold: Log2Hist,
    /// Complex-lock breakdown.
    pub reads: AtomicU32,
    /// Write acquisitions (complex).
    pub writes: AtomicU32,
    /// Successful read→write upgrades.
    pub upgrades_ok: AtomicU32,
    /// Failed upgrades (read lock lost).
    pub upgrades_failed: AtomicU32,
    /// Write→read downgrades.
    pub downgrades: AtomicU32,
    /// Reference-count traffic.
    pub ref_takes: AtomicU32,
    /// Reference releases.
    pub ref_releases: AtomicU32,
    /// Drain-to-exact slow paths.
    pub ref_drains: AtomicU32,
}

impl LockEntry {
    const fn new() -> LockEntry {
        LockEntry {
            acquires: AtomicU32::new(0),
            contended: AtomicU32::new(0),
            try_failures: AtomicU32::new(0),
            wait: Log2Hist::new(),
            hold: Log2Hist::new(),
            reads: AtomicU32::new(0),
            writes: AtomicU32::new(0),
            upgrades_ok: AtomicU32::new(0),
            upgrades_failed: AtomicU32::new(0),
            downgrades: AtomicU32::new(0),
            ref_takes: AtomicU32::new(0),
            ref_releases: AtomicU32::new(0),
            ref_drains: AtomicU32::new(0),
        }
    }
}

static ENTRIES: [LockEntry; MAX_LOCKS] = [const { LockEntry::new() }; MAX_LOCKS];

/// The counter slab entry for `id` (slot 0 is the shared overflow /
/// unregistered bucket).
#[inline]
pub fn entry(id: u32) -> &'static LockEntry {
    let idx = id as usize;
    if idx < MAX_LOCKS {
        &ENTRIES[idx]
    } else {
        &ENTRIES[0]
    }
}

// ---- record helpers (the functions the stats subscriber calls) ----

/// Record a blocking acquisition: wait time and whether it contended.
#[inline]
pub fn record_acquire(id: u32, wait_ns: u64, contended: bool) {
    let e = entry(id);
    // relaxed: monotone stats counters; snapshots are advisory.
    e.acquires.fetch_add(1, Ordering::Relaxed); // relaxed: stats counter
    if contended {
        // relaxed: same stats contract.
        e.contended.fetch_add(1, Ordering::Relaxed); // relaxed: stats counter
    }
    e.wait.record(wait_ns);
}

/// Record an accepted message-ring push: an acquisition without a
/// wait sample.
#[inline]
pub fn record_push(id: u32) {
    // relaxed: monotone stats counter.
    entry(id).acquires.fetch_add(1, Ordering::Relaxed);
}

/// Record a release with the observed hold time.
#[inline]
pub fn record_hold(id: u32, hold_ns: u64) {
    entry(id).hold.record(hold_ns);
}

/// Record a failed try-acquisition.
#[inline]
pub fn record_try_failure(id: u32) {
    // relaxed: monotone stats counter.
    entry(id).try_failures.fetch_add(1, Ordering::Relaxed); // relaxed: stats counter
}

/// Record a complex-lock event (`ComplexRead`, `ComplexWrite`,
/// `ComplexUpgradeOk`, `ComplexUpgradeFail`, `ComplexDowngrade`; other
/// kinds are ignored). `wait_ns` counts toward the wait histogram for
/// read/write/upgrade-ok; `contended` says whether the acquisition
/// actually waited for another holder.
#[inline]
pub fn record_complex(id: u32, kind: EventKind, wait_ns: u64, contended: bool) {
    let e = entry(id);
    match kind {
        EventKind::ComplexRead => {
            e.reads.fetch_add(1, Ordering::Relaxed); // relaxed: stats counter
            record_acquire(id, wait_ns, contended);
        }
        EventKind::ComplexWrite => {
            e.writes.fetch_add(1, Ordering::Relaxed); // relaxed: stats counter
            record_acquire(id, wait_ns, contended);
        }
        EventKind::ComplexUpgradeOk => {
            e.upgrades_ok.fetch_add(1, Ordering::Relaxed); // relaxed: stats counter
            e.wait.record(wait_ns);
        }
        EventKind::ComplexUpgradeFail => {
            e.upgrades_failed.fetch_add(1, Ordering::Relaxed); // relaxed: stats counter
        }
        EventKind::ComplexDowngrade => {
            e.downgrades.fetch_add(1, Ordering::Relaxed); // relaxed: stats counter
        }
        _ => {}
    }
}

/// Record reference-count traffic (`RefTake`; `RefRelease` and
/// `RefFinal` count as releases; `RefDrain`).
#[inline]
pub fn record_ref(id: u32, kind: EventKind) {
    let e = entry(id);
    let counter = match kind {
        EventKind::RefTake => &e.ref_takes,
        EventKind::RefRelease | EventKind::RefFinal => &e.ref_releases,
        EventKind::RefDrain => &e.ref_drains,
        _ => return,
    };
    // relaxed: monotone stats counter.
    counter.fetch_add(1, Ordering::Relaxed);
}

// ---- snapshotting for reports ----

/// Plain-data copy of one registered lock's identity and counters.
#[derive(Clone, Debug)]
pub struct LockReport {
    /// Registry id.
    pub id: u32,
    /// Static name given at registration.
    pub name: &'static str,
    /// Lock class.
    pub class: LockClass,
    /// Acquisition-policy label (may be empty).
    pub policy: &'static str,
    /// Total acquisitions.
    pub acquires: u64,
    /// Contended acquisitions.
    pub contended: u64,
    /// Failed try-acquisitions.
    pub try_failures: u64,
    /// Wait-time distribution.
    pub wait: HistSnapshot,
    /// Hold-time distribution.
    pub hold: HistSnapshot,
    /// Complex breakdown: reads.
    pub reads: u64,
    /// Complex breakdown: writes.
    pub writes: u64,
    /// Complex breakdown: successful upgrades.
    pub upgrades_ok: u64,
    /// Complex breakdown: failed upgrades.
    pub upgrades_failed: u64,
    /// Complex breakdown: downgrades.
    pub downgrades: u64,
    /// Refcount traffic: takes.
    pub ref_takes: u64,
    /// Refcount traffic: releases.
    pub ref_releases: u64,
    /// Refcount traffic: drains.
    pub ref_drains: u64,
}

impl LockReport {
    /// Contention rate: contended / acquires.
    pub fn contention_rate(&self) -> f64 {
        if self.acquires == 0 {
            0.0
        } else {
            self.contended as f64 / self.acquires as f64
        }
    }

    /// Every operation counted for this lock: acquisitions (accepted
    /// ring pushes included), failed tries, upgrades, downgrades and
    /// reference traffic.
    pub fn ops(&self) -> u64 {
        self.acquires
            + self.try_failures
            + self.upgrades_ok
            + self.upgrades_failed
            + self.downgrades
            + self.ref_takes
            + self.ref_releases
            + self.ref_drains
    }
}

/// Snapshot every registered lock's counters.
pub fn snapshot() -> Vec<LockReport> {
    probe::names()
        .into_iter()
        .map(|m| {
            let e = entry(m.id);
            LockReport {
                id: m.id,
                name: m.name,
                class: m.class,
                policy: m.policy,
                acquires: u64::from(e.acquires.load(Ordering::Relaxed)), // relaxed: advisory read
                contended: u64::from(e.contended.load(Ordering::Relaxed)), // relaxed: advisory read
                try_failures: u64::from(e.try_failures.load(Ordering::Relaxed)), // relaxed: advisory read
                wait: e.wait.snapshot(),
                hold: e.hold.snapshot(),
                reads: u64::from(e.reads.load(Ordering::Relaxed)), // relaxed: advisory read
                writes: u64::from(e.writes.load(Ordering::Relaxed)), // relaxed: advisory read
                upgrades_ok: u64::from(e.upgrades_ok.load(Ordering::Relaxed)), // relaxed: advisory read
                upgrades_failed: u64::from(e.upgrades_failed.load(Ordering::Relaxed)), // relaxed: advisory read
                downgrades: u64::from(e.downgrades.load(Ordering::Relaxed)), // relaxed: advisory read
                ref_takes: u64::from(e.ref_takes.load(Ordering::Relaxed)), // relaxed: advisory read
                ref_releases: u64::from(e.ref_releases.load(Ordering::Relaxed)), // relaxed: advisory read
                ref_drains: u64::from(e.ref_drains.load(Ordering::Relaxed)), // relaxed: advisory read
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use machk_sync::probe::register;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let id = register("test.registry.counted", LockClass::Simple, "ttas");
        record_acquire(id, 0, false);
        record_acquire(id, 1_000, true);
        record_hold(id, 500);
        record_try_failure(id);
        let rep = snapshot()
            .into_iter()
            .find(|r| r.id == id)
            .expect("registered lock in snapshot");
        assert_eq!(rep.acquires, 2);
        assert_eq!(rep.contended, 1);
        assert_eq!(rep.try_failures, 1);
        assert_eq!(rep.wait.count, 2);
        assert_eq!(rep.hold.count, 1);
        assert_eq!(rep.contention_rate(), 0.5);
    }

    #[test]
    fn complex_and_ref_breakdowns() {
        let id = register("test.registry.cx", LockClass::Complex, "");
        record_complex(id, EventKind::ComplexRead, 0, false);
        record_complex(id, EventKind::ComplexWrite, 10, true);
        record_complex(id, EventKind::ComplexUpgradeOk, 5, false);
        record_complex(id, EventKind::ComplexUpgradeFail, 0, false);
        record_complex(id, EventKind::ComplexDowngrade, 0, false);
        record_ref(id, EventKind::RefTake);
        record_ref(id, EventKind::RefFinal);
        record_ref(id, EventKind::RefDrain);
        let rep = snapshot().into_iter().find(|r| r.id == id).unwrap();
        assert_eq!(
            (rep.reads, rep.writes, rep.upgrades_ok, rep.upgrades_failed, rep.downgrades),
            (1, 1, 1, 1, 1)
        );
        assert_eq!((rep.ref_takes, rep.ref_releases, rep.ref_drains), (1, 1, 1));
        assert_eq!(rep.contended, 1, "only the flagged write counts as contended");
    }

    #[test]
    fn overflow_ids_alias_slot_zero() {
        let before = entry(0).acquires.load(Ordering::Relaxed);
        record_acquire(u32::MAX - 2, 0, false);
        assert_eq!(entry(0).acquires.load(Ordering::Relaxed), before + 1);
    }
}
