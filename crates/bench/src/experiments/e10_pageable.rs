//! E10 — `vm_map_pageable`: the recursive-lock deadlock and the
//! rewrite.
//!
//! Paper §7.1: wiring memory under a recursive read lock deadlocks
//! "if obtaining more memory requires a write lock on the same map".
//! The scenario: the page pool is exhausted, the pageout daemon needs
//! the map write lock to reclaim, and the wirer holds a recursive read
//! lock across every fault. Expected outcome: the recursive form
//! deadlocks (observed via the bounded shortage wait); the rewritten
//! form completes, with the daemon reclaiming donor pages mid-wire.

use std::sync::Arc;
use std::time::{Duration, Instant};

use machk_vm::{
    vm_map_pageable_recursive, vm_map_pageable_rewritten, MapError, PageOutDaemon, WireScenario,
};

use super::Opts;
use crate::report::BenchReport;
use crate::util::Table;

/// Run E10 into `report`.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let limit = if opts.quick {
        Duration::from_millis(200)
    } else {
        Duration::from_millis(1_000)
    };
    let (donor, wire) = (8u64, 8u64);

    // Recursive form under shortage + daemon.
    let s1 = WireScenario::build(donor, wire);
    let d1 = PageOutDaemon::start(Arc::clone(&s1.map), 4);
    let t0 = Instant::now();
    let recursive = vm_map_pageable_recursive(&s1.map, s1.target_start, s1.wire_pages, limit);
    let recursive_time = t0.elapsed();
    let reclaimed_during_recursive = d1.stop();

    // Rewritten form, same shortage + daemon.
    let s2 = WireScenario::build(donor, wire);
    let d2 = PageOutDaemon::start(Arc::clone(&s2.map), 4);
    let t0 = Instant::now();
    let rewritten = vm_map_pageable_rewritten(
        &s2.map,
        s2.target_start,
        s2.wire_pages,
        Duration::from_secs(30),
    );
    let rewritten_time = t0.elapsed();
    let reclaimed_during_rewrite = d2.stop();

    let mut t = Table::new(
        "E10: wiring 8 pages under memory shortage (pool = donor + 4)",
        &[
            "vm_map_pageable form",
            "outcome",
            "elapsed",
            "daemon reclaimed",
        ],
    );
    t.row(&[
        "recursive lock (historical)".into(),
        match recursive {
            Err(MapError::ShortageTimeout) => "DEADLOCK (watchdog)".into(),
            other => format!("{other:?}"),
        },
        format!("{recursive_time:?}"),
        reclaimed_during_recursive.to_string(),
    ]);
    t.row(&[
        "rewritten (no recursion)".into(),
        match rewritten {
            Ok(()) => "completed".into(),
            other => format!("{other:?}"),
        },
        format!("{rewritten_time:?}"),
        reclaimed_during_rewrite.to_string(),
    ]);
    t.note("paper 7.1: 'to eliminate [these deadlocks], vm_map_pageable is being rewritten to avoid the use of recursive locks'");
    assert_eq!(recursive, Err(MapError::ShortageTimeout));
    assert_eq!(rewritten, Ok(()));
    assert!(reclaimed_during_rewrite > 0);
    report.table(t);

    report.exact(
        "recursive_deadlocked",
        u64::from(recursive == Err(MapError::ShortageTimeout)) as f64,
        "bool",
    );
    report.exact(
        "rewritten_completed",
        u64::from(rewritten == Ok(())) as f64,
        "bool",
    );
    report.info(
        "daemon_reclaimed_during_rewrite",
        reclaimed_during_rewrite as f64,
        "pages",
    );
}
