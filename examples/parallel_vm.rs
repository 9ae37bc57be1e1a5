//! Parallel VM operations on one map, and the wired-memory deadlock.
//!
//! Run with `cargo run --example parallel_vm`.
//!
//! Part 1: concurrent faults on distinct ranges of one map, all under
//! the map's sleepable complex lock (readers in parallel).
//! Part 2: the section-7.1 experiment — wiring memory under a
//! recursive read lock deadlocks when the pageout daemon needs the
//! map's write lock; the rewritten `vm_map_pageable` completes.

use std::sync::Arc;
use std::time::Duration;

use mach_locking::vm::{
    vm_map_pageable_recursive, vm_map_pageable_rewritten, MapError, PageOutDaemon, PagePool, VmMap,
    WireScenario, PAGE_SIZE,
};

fn main() {
    // With `--features probe`, count every lock operation from here on.
    #[cfg(feature = "probe")]
    machk_obs::install_stats();

    // ---- Part 1: parallel faults ------------------------------------------
    let pool = Arc::new(PagePool::new(128));
    let map = Arc::new(VmMap::new(Arc::clone(&pool)));
    map.allocate(0, 128 * PAGE_SIZE).expect("allocate");
    std::thread::scope(|s| {
        for t in 0..4usize {
            let map = Arc::clone(&map);
            s.spawn(move || {
                for i in 0..32u64 {
                    let addr = (t as u64 * 32 + i) * PAGE_SIZE;
                    map.fault(addr, None).expect("fault");
                }
            });
        }
    });
    println!(
        "parallel faults: {} pages resident, {} frames free",
        map.resident_total(),
        pool.free_count()
    );

    // ---- Part 2: the vm_map_pageable story ---------------------------------
    // Recursive form under shortage with a pageout daemon: deadlock
    // (observed via the bounded wait).
    let scenario = WireScenario::build(8, 8);
    let daemon = PageOutDaemon::start(Arc::clone(&scenario.map), 4);
    let r = vm_map_pageable_recursive(
        &scenario.map,
        scenario.target_start,
        scenario.wire_pages,
        Duration::from_millis(400),
    );
    match r {
        Err(MapError::ShortageTimeout) => {
            println!(
                "recursive vm_map_pageable: DEADLOCK under memory shortage (as the paper reports)"
            )
        }
        other => println!("recursive vm_map_pageable: unexpected {other:?}"),
    }
    daemon.stop();

    // Rewritten form, same shortage: completes, the daemon reclaims.
    let scenario = WireScenario::build(8, 8);
    let daemon = PageOutDaemon::start(Arc::clone(&scenario.map), 4);
    vm_map_pageable_rewritten(
        &scenario.map,
        scenario.target_start,
        scenario.wire_pages,
        Duration::from_secs(30),
    )
    .expect("the rewrite eliminates the deadlock");
    let entry = scenario.map.lookup(scenario.target_start).unwrap();
    println!(
        "rewritten vm_map_pageable: wired {} pages; daemon reclaimed {} donor pages",
        entry.resident_count(),
        daemon.stop()
    );
    println!("parallel_vm done");

    // With `--features probe`, end with the lockstat view of the run —
    // the vm_map lock's reader parallelism and the §7.1 write-lock
    // contention show up as numbers instead of anecdotes.
    #[cfg(feature = "probe")]
    {
        println!();
        print!("{}", machk_obs::Lockstat::collect().render_text(8, false));
    }
}
