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

use super::Opts;
use crate::report::BenchReport;
#[cfg(feature = "probe")]
use crate::util::{run_concurrent, sample, Table};
#[cfg(feature = "probe")]
use crate::workloads::lock_counter;

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
/// and record its busiest locks. The full report, histograms included,
/// is `experiments lockstat`; every lock's counters are written beside
/// the envelopes as `E16.lockstat.json`.
#[cfg(feature = "probe")]
fn lockstat_section(quick: bool, report: &mut BenchReport) {
    use machk_obs::hist::fmt_ns;

    machk_obs::install_stats();
    drive_workload(quick);
    drive_object_phase();

    let stat = machk_obs::Lockstat::collect();

    // The named locks driven above must all be in the registry.
    for name in [
        "e16.counter.tas",
        "e16.counter.ttas",
        "e16.counter.ticket",
        "e16.counter.mcs",
        "e16.map.lock",
        "e16.object.ref",
    ] {
        assert!(
            stat.locks.iter().any(|l| l.name == name),
            "lockstat report is missing {name}"
        );
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

    let mut t = Table::new(
        "E16: lockstat from the obs layer, top 16 locks by contention",
        &[
            "name", "class", "policy", "acquires", "contended", "cont%", "wait-avg", "wait-max",
            "hold-avg",
        ],
    );
    for l in stat.locks.iter().take(16) {
        t.row(&[
            l.name.to_string(),
            l.class.label().to_string(),
            l.policy.to_string(),
            l.acquires.to_string(),
            l.contended.to_string(),
            format!("{:.1}%", 100.0 * l.contention_rate()),
            fmt_ns(l.wait.mean()),
            fmt_ns(l.wait.max),
            fmt_ns(l.hold.mean()),
        ]);
    }
    for c in &stat.cycles {
        let names: Vec<&str> = c.iter().map(|&id| probe::name_of(id)).collect();
        t.note(&format!("order cycle: {} -> {}", names.join(" -> "), names[0]));
    }
    t.note("every e16.* lock is named at its declaration; the registry did the rest");
    t.note("the a->b->a cycle is deliberate (one thread, so only *potential*)");
    t.note(&format!("{object_edges} order edges into object locks, none in a cycle"));
    report.table(t);
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
fn fanout_table(quick: bool, report: &mut BenchReport) {
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
    report.table(t);
}

/// Run E16 into `report`. Beyond the lockstat assertions this checks
/// the two other renderings of the stats subscriber's store end to end:
/// the NDJSON export of the trace rings parses line by line, and the
/// flamegraph fold attributes wait time and operations per lock-class ×
/// call-site, including the `ipc.*` sites the IPC phase drives.
#[cfg(feature = "probe")]
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let quick = opts.quick;
    fanout_table(quick, report);
    lockstat_section(quick, report);
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
    report.exact("obs_enabled", 1.0, "bool");
    report.exact("order_cycle_diagnosed", 1.0, "bool"); // asserted in lockstat_section()
    report.metric("named_locks", named as f64, "count", crate::report::Dir::Higher, 1.5);
    report.metric("flame_sites", sites as f64, "count", crate::report::Dir::Higher, 2.0);
    report.info("ndjson_lines", lines as f64, "count");
    report.info("ndjson_overwritten", overwritten as f64, "count");

    let mut t = Table::new(
        "E16-exports: trace rings as NDJSON + flamegraph fold",
        &["export", "value"],
    );
    t.row(&["ndjson lines from the trace rings".into(), lines.to_string()]);
    t.row(&["older events overwritten".into(), overwritten.to_string()]);
    t.row(&[
        "events kept per thread".into(),
        machk_obs::ring::RING_CAPACITY.to_string(),
    ]);
    t.row(&["flame sites".into(), sites.to_string()]);
    for line in folded.lines().take(5) {
        let (stack, wait) = line.rsplit_once(' ').unwrap_or((line, ""));
        t.row(&[format!("hottest by wait: {stack}"), format!("{wait} ns")]);
    }
    report.table(t);
}

/// Without probes there is nothing to trace or serialize — which is the
/// zero-cost claim, stated as a table. A baseline recorded with probes
/// fails against it (a misbuilt trajectory run, not a measurement).
#[cfg(not(feature = "probe"))]
pub fn run(report: &mut BenchReport, _opts: &Opts) {
    report.compiled_out(
        "obs_enabled",
        "probe",
        "E16: lockstat (obs layer)",
        "to trace; default builds pay nothing",
    );
}
