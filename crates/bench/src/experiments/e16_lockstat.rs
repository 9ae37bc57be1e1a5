//! E16 — kernel-wide lockstat (the obs layer).
//!
//! Unlike E1–E15, which measure the synchronization primitives from the
//! outside, E16 measures the *observability* of the primitives: it
//! drives named locks of every class through a contended workload and
//! then asks the obs layer for the lockstat report the workload should
//! have produced. The experiment asserts the report's load-bearing
//! claims — every named lock appears with its acquisitions counted,
//! contention shows up where the workload contends, and a deliberately
//! inverted acquisition order is called out as a potential deadlock.
//!
//! With the `probe` feature disabled the experiment degrades to a
//! single row saying so; that degradation is itself the zero-cost claim
//! (the hooks are not merely idle, they are compiled out and no
//! subscriber crate is linked).

#[cfg(feature = "probe")]
use machk_core::sync::probe;
#[cfg(feature = "probe")]
use machk_core::{ComplexLock, Mcs, RawSimpleLock, ShardedRefCount, Tas, Ticket, Ttas};

use crate::report::BenchReport;
use crate::util::Table;
#[cfg(feature = "probe")]
use crate::util::{run_concurrent, sample};
#[cfg(feature = "probe")]
use crate::workloads::lock_counter;

/// The experiment's envelope title (shared by both feature variants).
const TITLE: &str = "Kernel-wide lockstat: contention, histograms, order cycles (obs layer)";

/// Drive named locks of every class through a contended workload. The
/// locks are statics so their names outlive the run (registration wants
/// `&'static str`, as kernel lock names would be).
#[cfg(feature = "probe")]
fn drive_workload(quick: bool) {
    static TAS: RawSimpleLock<Tas> = RawSimpleLock::<Tas>::named("e16.counter.tas");
    static TTAS: RawSimpleLock<Ttas> = RawSimpleLock::<Ttas>::named("e16.counter.ttas");
    static TICKET: RawSimpleLock<Ticket> = RawSimpleLock::<Ticket>::named("e16.counter.ticket");
    static MCS: RawSimpleLock<Mcs> = RawSimpleLock::<Mcs>::named("e16.counter.mcs");
    static MAP: ComplexLock = ComplexLock::named("e16.map.lock", false);
    static OBJ_REF: ShardedRefCount = ShardedRefCount::named("e16.object.ref");
    static ORDER_A: RawSimpleLock = RawSimpleLock::named("e16.order.a");
    static ORDER_B: RawSimpleLock = RawSimpleLock::named("e16.order.b");

    let threads = if quick { 3 } else { 6 };
    let iters: u64 = if quick { 4_000 } else { 100_000 };

    // Simple locks: one contended counter per policy, as in E1.
    lock_counter(&TAS, threads, iters);
    lock_counter(&TTAS, threads, iters);
    lock_counter(&TICKET, threads, iters);
    lock_counter(&MCS, threads, iters);

    // Complex lock: mostly readers, a writer minority, periodic upgrade
    // attempts (which drop the read lock on failure, per the paper).
    run_concurrent(threads, |t| {
        for i in 0..iters / 4 {
            if t == 0 && i % 16 == 0 {
                MAP.write_raw();
                MAP.done_raw();
            } else if i % 9 == 0 {
                MAP.read_raw();
                // Mach convention: true = upgrade FAILED and the read
                // hold is gone; false = we now hold the write lock.
                if !MAP.read_to_write_raw() {
                    MAP.done_raw();
                }
            } else {
                MAP.read_raw();
                MAP.done_raw();
            }
        }
    });

    // Reference-count churn against one hot object.
    run_concurrent(threads, |_| {
        for _ in 0..iters / 2 {
            OBJ_REF.take();
            assert!(!OBJ_REF.release());
        }
    });

    // Deliberate order inversion: A before B, then B before A. Done on
    // one thread so the experiment cannot deadlock — the order graph
    // flags the *potential*, which is the point of the diagnostic.
    ORDER_A.lock_raw();
    ORDER_B.lock_raw();
    ORDER_B.unlock_raw();
    ORDER_A.unlock_raw();
    ORDER_B.lock_raw();
    ORDER_A.lock_raw();
    ORDER_A.unlock_raw();
    ORDER_B.unlock_raw();
}

/// The object locks the kernel's object types register.
#[cfg(feature = "probe")]
const OBJECT_LOCKS: [&str; 7] = [
    "task.lock", "thread.lock", "ipc.port.lock", "ipc.port_set.lock",
    "vm_object.lock", "pset.lock", "mono_task.lock",
];

/// Drive once each order edge that cloning a reference under another
/// lock creates between object locks: shard → port, port → exported
/// thread, task → thread, port set → port, memory object → name port.
/// `ThreadObj::task` clones the task reference under the thread lock;
/// the task's count is sharded, so that makes no thread → task edge.
#[cfg(feature = "probe")]
fn drive_object_phase() {
    use machk_kernel::TaskRefExt as _;
    let task = machk_kernel::Task::create();
    let (thread, port) = machk_kernel::ops::create_thread_with_port(&task).unwrap();
    drop(task.port_translate(task.port_insert(port.clone())));
    drop(port.kernel_object().unwrap());
    task.suspend_all().unwrap();
    drop((thread.task(), task.thread_create().unwrap()));
    let set = machk_ipc::PortSet::create();
    set.add(port.clone()).unwrap();
    set.destroy().unwrap();
    let object = machk_vm::VmObject::create();
    drop(object.name_port().unwrap());
    object.terminate().unwrap();
    task.terminate_simple().unwrap();
}

/// Drive the workload, collect the lockstat report, assert its claims,
/// and return the rendered report.
#[cfg(feature = "probe")]
fn lockstat_section(quick: bool) -> String {
    machk_obs::install_stats();
    drive_workload(quick);
    drive_object_phase();

    let stat = machk_obs::Lockstat::collect();
    let report = stat.render_text(16, true);

    // The named locks driven above must all be in the report.
    for name in [
        "e16.counter.tas",
        "e16.counter.ttas",
        "e16.counter.ticket",
        "e16.counter.mcs",
        "e16.map.lock",
        "e16.object.ref",
    ] {
        assert!(report.contains(name), "lockstat report is missing {name}");
    }
    let named = stat.locks.iter().filter(|l| !l.name.is_empty()).count();
    assert!(named >= 5, "expected >=5 named locks, registry has {named}");

    // The inverted acquisition order must be diagnosed.
    assert!(
        stat.cycles.iter().any(|c| {
            c.iter()
                .any(|&id| probe::name_of(id) == "e16.order.a")
                && c.iter()
                    .any(|&id| probe::name_of(id) == "e16.order.b")
        }),
        "order inversion e16.order.a/e16.order.b not diagnosed; cycles: {:?}",
        stat.cycles,
    );

    // The object locks' runtime order graph: the edges driven above were
    // seen, and none closes a cycle.
    let is_object = |id: u32| OBJECT_LOCKS.contains(&probe::name_of(id));
    let object_edges = stat.edges.iter().filter(|&&(_, to, _)| is_object(to)).count();
    assert!(object_edges >= 5, "object lock order edges not observed: {:?}", stat.edges);
    assert!(
        !stat.cycles.iter().any(|c| c.iter().any(|&id| is_object(id))),
        "object lock order cycle: {:?}",
        stat.cycles,
    );

    let mut out = String::new();
    out.push_str("\n== E16: lockstat report from the obs layer ==\n");
    out.push_str(&report);
    out.push_str("  note: every e16.* lock is named at its declaration; the registry did the rest\n");
    out.push_str("  note: the a->b->a cycle above is deliberate (one thread, so only *potential*)\n");
    out.push_str(&format!(
        "  note: {object_edges} order edges into object locks, none in a cycle\n"
    ));
    out
}

/// A short IPC storm so lockstat and the flamegraph fold attribute the
/// engine's rings and sharded namespace (`ipc.port.queue`,
/// `ipc.ns.shardNN`, `ipc.engine.loop`) alongside the e16.* locks.
#[cfg(feature = "probe")]
fn drive_ipc_phase(quick: bool) {
    use machk_ipc::engine::{Engine, EngineConfig};
    let report = Engine::new(EngineConfig {
        workers: 2,
        ops_per_worker: if quick { 400 } else { 4_000 },
        shards: 4,
        seed: 0x1991_0E16,
        ..EngineConfig::default()
    })
    .run();
    assert!(report.rpcs > 0, "E16 ipc phase ran no RPCs");
}

/// The probe dispatcher's fan-out cost: the counter loop on one named
/// lock with no subscriber and with the stats subscriber. Subscribers
/// install forever, so the empty dispatcher is measurable only if
/// nothing in this process has installed one yet; otherwise that row
/// reads "n/a".
#[cfg(feature = "probe")]
fn fanout_table(quick: bool) -> String {
    static LOCK: RawSimpleLock = RawSimpleLock::named("e16.fanout");
    let mut t = Table::new(
        "E16-fanout: named-lock counter loop by subscribers (ops/s, median ±MAD)",
        &["subscribers", "installed", "1 thread", "2 threads"],
    );
    let mut row = |label: &str, measured: bool| {
        let mut cells = vec![label.to_string(), probe::subscriber_count().to_string()];
        for threads in [1usize, 2] {
            cells.push(if measured {
                sample(quick, threads, |n| lock_counter(&LOCK, threads, n)).cell()
            } else {
                "n/a".to_string()
            });
        }
        t.row(&cells);
    };
    row("none", probe::subscriber_count() == 0);
    machk_obs::install_stats();
    row("stats", true);
    t.note("'installed' counts every subscriber in the process, whoever installed it");
    t.render()
}

/// Run E16 and return the rendered tables plus the `BENCH_E16.json`
/// envelope. Beyond the lockstat assertions this checks the two other
/// renderings of the stats subscriber's store end to end: the NDJSON
/// export of the trace rings parses line by line, and the flamegraph
/// fold attributes wait time and operations per lock-class × call-site,
/// including the `ipc.*` sites the IPC phase drives.
#[cfg(feature = "probe")]
pub fn run_report(quick: bool) -> (String, String) {
    let mut out = fanout_table(quick);
    out.push_str(&lockstat_section(quick));
    drive_ipc_phase(quick);

    let (ndjson, overwritten) = machk_obs::report::render_ndjson();
    let mut lines = 0usize;
    for line in ndjson.lines() {
        crate::json::parse(line)
            .unwrap_or_else(|e| panic!("ndjson line is not one JSON object: {e}\n{line}"));
        lines += 1;
    }
    assert!(lines > 0, "ndjson export of the trace rings is empty");

    let stat = machk_obs::Lockstat::collect();
    let folded = stat.render_folded(machk_obs::FlameMetric::Wait);
    let folded_ops = stat.render_folded(machk_obs::FlameMetric::Ops);
    assert!(
        folded.contains(";e16."),
        "flame wait fold is missing the e16.* sites:\n{folded}"
    );
    assert!(
        folded_ops.contains(";ipc."),
        "flame ops fold is missing the ipc.* sites:\n{folded_ops}"
    );
    let sites = folded_ops.lines().count();

    let named = stat.locks.iter().filter(|l| !l.name.is_empty()).count();
    let mut report = BenchReport::new("E16", TITLE, quick);
    report.exact("obs_enabled", 1.0, "bool");
    report.exact("order_cycle_diagnosed", 1.0, "bool"); // asserted in lockstat_section()
    report.metric("named_locks", named as f64, "count", crate::report::Dir::Higher, 1.5);
    report.metric("flame_sites", sites as f64, "count", crate::report::Dir::Higher, 2.0);
    report.info("ndjson_lines", lines as f64, "count");
    report.info("ndjson_overwritten", overwritten as f64, "count");
    report.extra(&format!("{{\"lockstat\":{}}}", stat.render_json()));

    out.push_str("\n== E16-exports: trace rings as NDJSON + flamegraph fold ==\n");
    out.push_str(&format!(
        "  ndjson: {lines} lines from the trace rings ({overwritten} older events overwritten, \
         {} per thread kept)\n",
        machk_obs::ring::RING_CAPACITY
    ));
    out.push_str(&format!("  flame:  {sites} sites; hottest by wait:\n"));
    for line in folded.lines().take(5) {
        out.push_str(&format!("    {line}\n"));
    }
    (out, report.render())
}

/// Without probes there is nothing to trace or serialize — which is the
/// zero-cost claim, stated as a table. The envelope says so (and a
/// baseline recorded with probes will fail against it — a misbuilt
/// trajectory run, not a measurement).
#[cfg(not(feature = "probe"))]
pub fn run_report(quick: bool) -> (String, String) {
    let mut t = Table::new("E16: lockstat (obs layer)", &["status"]);
    t.row(&[
        "probe feature disabled: tracing compiled out (machk-obs not linked)".to_string(),
    ]);
    t.note("rebuild with `--features probe` to trace; default builds pay nothing");
    let mut report = BenchReport::new("E16", TITLE, quick);
    report.exact("obs_enabled", 0.0, "bool");
    (t.render(), report.render())
}
