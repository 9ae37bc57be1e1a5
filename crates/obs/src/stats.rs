//! The lockstat subscriber: per-thread trace rings, the per-lock
//! counters and histograms, and the acquisition-order graph, fed by
//! the probe events.
//!
//! Nothing installs it implicitly: a probe build pays for lockstat only
//! after something calls [`install_stats`] (E16, `experiments
//! lockstat`, the examples and tests that want a report). It runs
//! synchronously on the emitting thread, so its thread-local held-lock
//! stack sees each thread's acquisitions in program order.

use std::sync::OnceLock;

use machk_sync::probe::{self, EventKind, Subscriber, TraceEvent, FLAG_CONTENDED};

use crate::report::Lockstat;
use crate::{order, registry, ring};

/// The lockstat pipeline as a probe subscriber. Install it with
/// [`install_stats`].
pub struct StatsSubscriber;

static STATS: StatsSubscriber = StatsSubscriber;

/// Install the [`StatsSubscriber`] (once per process; later calls are
/// no-ops). Events before the first call are not counted.
pub fn install_stats() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        probe::install(&STATS).expect("probe subscriber slots exhausted");
    });
}

impl Subscriber for StatsSubscriber {
    fn name(&self) -> &'static str {
        "stats"
    }

    fn on_event(&self, ev: &TraceEvent) {
        use EventKind::*;
        let id = ev.lock_id;
        let contended = ev.flags & FLAG_CONTENDED != 0;
        match ev.kind {
            SimpleAcquire => {
                registry::record_acquire(id, ev.arg, contended);
                order::lock_acquired(id);
            }
            SimpleRelease => {
                registry::record_hold(id, ev.arg);
                order::lock_released(id);
            }
            SimpleTryFail | ComplexTryFail => registry::record_try_failure(id),
            ComplexRead | ComplexWrite => {
                registry::record_complex(id, ev.kind, ev.arg, contended);
                order::lock_acquired(id);
            }
            // An upgrade transitions a lock this thread already holds:
            // no order-stack push (the ComplexRead did that).
            ComplexUpgradeOk | ComplexDowngrade => {
                registry::record_complex(id, ev.kind, ev.arg, contended)
            }
            ComplexUpgradeFail => {
                registry::record_complex(id, ev.kind, 0, false);
                // §7.1: a failed upgrade *loses* the read lock.
                order::lock_released(id);
            }
            ComplexRelease => {
                registry::record_hold(id, ev.arg);
                order::lock_released(id);
            }
            RefTake | RefRelease | RefFinal | RefDrain => registry::record_ref(id, ev.kind),
            // Ring traffic in the ordinary contention columns: accepted
            // pushes count as acquisitions, limit rejections as try
            // failures (the ring's failed `simple_lock_try`).
            RingPush => registry::record_push(id),
            RingFull => registry::record_try_failure(id),
            // Pure trace markers: ring-only.
            SimpleContended | Deactivate | SplRaise | SplRestore | EventWait | EventWakeup
            | RingPop | EngineBatch | Unknown => {}
        }
        ring::push(*ev);
    }

    /// The lockstat capture a watchdog report embeds: order cycles
    /// first (the likely culprit), then the hottest locks.
    fn describe(&self) -> Option<String> {
        let stat = Lockstat::collect();
        let mut out = String::new();
        if stat.cycles.is_empty() {
            out.push_str("no lock-order cycles on record; lockstat at detection:\n");
        } else {
            out.push_str("lock-order cycles on record (likely culprit first):\n");
            for c in &stat.cycles {
                out.push_str(&order::render_cycle(c));
                out.push('\n');
            }
        }
        out.push_str(&stat.render_text(5, false));
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_subscriber_translates_counters() {
        let id = probe::register("test.subscriber.stats", probe::LockClass::Simple, "tas");
        let ev = |kind, arg, flags| TraceEvent {
            ts_ns: 0,
            kind,
            lock_id: id,
            thread: 1,
            arg,
            flags,
        };
        STATS.on_event(&ev(EventKind::SimpleAcquire, 120, FLAG_CONTENDED));
        STATS.on_event(&ev(EventKind::SimpleRelease, 80, 0));
        STATS.on_event(&ev(EventKind::SimpleAcquire, 0, 0));
        STATS.on_event(&ev(EventKind::SimpleRelease, 10, 0));
        STATS.on_event(&ev(EventKind::SimpleTryFail, 0, 0));
        let rep = registry::snapshot()
            .into_iter()
            .find(|l| l.id == id)
            .unwrap();
        assert_eq!(rep.acquires, 2);
        assert_eq!(rep.contended, 1);
        assert_eq!(rep.try_failures, 1);
        assert_eq!(rep.wait.count, 2);
        assert_eq!(rep.hold.count, 2);
    }

    #[test]
    fn ring_events_attribute_to_registry() {
        let id = probe::register("test.subscriber.ring", probe::LockClass::Other, "");
        let ev = |kind| TraceEvent {
            ts_ns: 0,
            kind,
            lock_id: id,
            thread: 1,
            arg: 1,
            flags: 0,
        };
        STATS.on_event(&ev(EventKind::RingPush));
        STATS.on_event(&ev(EventKind::RingPush));
        STATS.on_event(&ev(EventKind::RingFull));
        STATS.on_event(&ev(EventKind::RingPop));
        let rep = registry::snapshot()
            .into_iter()
            .find(|l| l.id == id)
            .unwrap();
        assert_eq!(rep.acquires, 2, "pushes count as acquires");
        assert_eq!(rep.try_failures, 1, "full rejections count as try failures");
    }
}
