//! E19 — IPC engine storms: the sharded namespace + lock-free rings
//! under a mixed kernel-RPC workload.
//!
//! The tentpole measurement of the server core (`machk_ipc::engine`):
//! seeded task-create / port-transfer / dead-port-churn storms driven
//! through the §10 RPC protocol, with both reference ledgers — the
//! `RpcStats` translation ledger and the engine's `ShardedRefCount`
//! object ledger — audited at quiescence of every storm.
//!
//! Three campaigns:
//!
//! 1. **Host storms** — the mixed storm on the real host at 1 and 8
//!    workers, with both ledgers balanced. The storms are not timed
//!    here: perfbench's `storm_2w` workload measures the engine's RPC
//!    rate as a median over repeated runs.
//! 2. **Sharded vs single-lock namespace** — the same 8-worker storm
//!    against `PortNameSpace::with_shards(8)` and `with_shards(1)`.
//!    On the host both must balance their ledgers; with fewer hardware
//!    threads than workers (two on the reference host) at most that
//!    many workers run at once, so the one lock never becomes the
//!    serialization point (EXPERIMENTS.md "E19" gives the 1-worker,
//!    2-worker and 2 × 1-worker rates). The ≥ 4× separation
//!    is *asserted* on the simulated 8-core host, where each namespace
//!    critical section carries a modeled cost
//!    (`EngineConfig::ns_cs_work_ns`) and the single lock's
//!    serialization + coherence traffic is charged to the virtual
//!    clock while the 8 shards proceed in parallel.
//! 3. **Determinism probe** (`--features sim`) — the whole engine
//!    (rings, shards, RPC, workers) runs on a `machk-sim` host, twice,
//!    with the same `(seed, cores)`: the two [`EngineReport`]s must be
//!    identical down to the reply digest ([`EngineReport::fingerprint`]
//!    compares every counter byte-for-byte). A different workload seed
//!    must produce a different fingerprint. The fingerprint, the virtual
//!    clocks and the separation ratio all gate `exact`. The probe's
//!    clock reads only 19 ns: the engine's own work is not charged in
//!    virtual time, only lock spins, parks and the modeled namespace
//!    sections are.
//!
//! [`EngineReport`]: machk_ipc::EngineReport
//! [`EngineReport::fingerprint`]: machk_ipc::EngineReport::fingerprint

use machk_ipc::engine::{Engine, EngineConfig, EngineReport};

use super::Opts;
use crate::report::BenchReport;
use crate::util::Table;

/// Workload seed for every E19 storm (the CI smoke run replays it).
const STORM_SEED: u64 = 0x1991_0E19;

fn storm(workers: usize, ops_per_worker: usize, shards: usize) -> EngineReport {
    Engine::new(EngineConfig {
        workers,
        ops_per_worker,
        shards,
        seed: STORM_SEED,
        ..EngineConfig::default()
    })
    .run()
}

fn assert_ledgers(tag: &str, r: &EngineReport) {
    assert!(r.rpc_balanced, "{tag}: RpcStats ledger unbalanced");
    assert_eq!(r.ledger_total, 1, "{tag}: object ledger unbalanced");
    assert_eq!(
        r.creates, r.terminates,
        "{tag}: a created task outlived the storm"
    );
    assert!(r.dead_hits > 0, "{tag}: dead-port churn never exercised");
}

/// Run E19 into `report`, asserting its claims.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let ops = if opts.quick { 3_000 } else { 60_000 };

    // Campaign 1: host storms, 1 and 8 workers.
    let mut t = Table::new(
        "E19a: mixed RPC storm on the host (70% ping / create / churn / transfer)",
        &["workers", "RPCs", "dead hits", "transfers", "ledgers"],
    );
    for workers in [1usize, 8] {
        let r = storm(workers, ops * 8 / workers, 8);
        assert_ledgers("host storm", &r);
        t.row(&[
            workers.to_string(),
            r.rpcs.to_string(),
            r.dead_hits.to_string(),
            r.transfers.to_string(),
            "balanced".into(),
        ]);
    }
    t.note("every storm ends with RpcStats AND the ShardedRefCount object ledger balanced");
    t.note("nothing in the loop blocks: try_send + batched receive on lock-free rings");
    t.note("not timed here: perfbench's storm_2w measures the RPC rate");
    report.table(t);

    // Campaign 2 (host half): sharded vs single-lock namespace at 8
    // workers. Ledgers only — see the module docs.
    let mut t = Table::new(
        "E19b: sharded (8) vs single-lock namespace, 8 workers on the host",
        &["namespace", "RPCs", "dead hits", "ledgers"],
    );
    for (label, shards) in [("sharded x8", 8), ("single lock", 1)] {
        let r = storm(8, ops, shards);
        assert_ledgers(label, &r);
        t.row(&[
            label.into(),
            r.rpcs.to_string(),
            r.dead_hits.to_string(),
            "balanced".into(),
        ]);
    }
    t.note("the >=4x separation is asserted on the simulated 8-core host (E19c)");
    report.table(t);
    // Every `assert_ledgers` above passed to reach this point, so the
    // conservation claims gate as structural invariants.
    report.exact("ledger_violations", 0.0, "count");

    // Campaigns 2 (sim half) + 3 need the simulated host.
    #[cfg(feature = "sim")]
    sim_section(opts.quick, report);
    #[cfg(not(feature = "sim"))]
    report.compiled_out(
        "sim_enabled",
        "sim",
        "E19c: simulated 8-core host — determinism probe + sharded-vs-single separation",
        "for the determinism probe and the asserted >=4x separation",
    );
}

/// The simulated-host half: determinism probe + the asserted sharded
/// vs single-lock separation on 8 virtual cores.
#[cfg(feature = "sim")]
fn sim_section(quick: bool, report: &mut BenchReport) {
    use std::sync::{Arc, Mutex};

    use machk_sim::{run as sim_run, SimConfig};

    let ops = if quick { 60 } else { 200 };

    // One engine storm on a simulated host; returns the report and the
    // run's virtual clock.
    let sim_storm = |cores: usize,
                     sched_seed: u64,
                     cfg: EngineConfig|
     -> (EngineReport, u64) {
        let slot = Arc::new(Mutex::new(None));
        let out = Arc::clone(&slot);
        let sim = sim_run(
            &SimConfig::DEFAULT.with_cores(cores).with_seed(sched_seed),
            move || {
                let report = Engine::new(cfg).run();
                *out.lock().unwrap() = Some(report);
            },
        )
        .unwrap_or_else(|e| panic!("E19 sim storm failed: {e}"));
        let report = slot.lock().unwrap().take().expect("storm left its report");
        (report, sim.clock_ns)
    };

    // Campaign 3: determinism probe. Same (workload seed, scheduler
    // seed, cores) twice — the reports must be byte-identical.
    let probe_cfg = EngineConfig {
        workers: 4,
        ops_per_worker: ops,
        shards: 8,
        stable_ports: 8,
        seed: STORM_SEED,
        ..EngineConfig::default()
    };
    let (a, clock_a) = sim_storm(8, 0xE19, probe_cfg.clone());
    let (b, clock_b) = sim_storm(8, 0xE19, probe_cfg.clone());
    assert_eq!(a, b, "same (seed, cores) must replay byte-identically");
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "replay fingerprints diverged"
    );
    assert_eq!(clock_a, clock_b, "virtual clocks diverged across replays");
    assert_ledgers("sim probe", &a);
    let (c, _) = sim_storm(
        8,
        0xE19,
        EngineConfig {
            seed: STORM_SEED ^ 1,
            ..probe_cfg.clone()
        },
    );
    assert_ne!(
        a.fingerprint(),
        c.fingerprint(),
        "different workload seed must produce a different storm"
    );

    // Campaign 2 (asserted half): 8 workers on 8 simulated cores, each
    // namespace critical section modeled at 100 virtual ns. The 8
    // shards let those sections overlap across cores; the single lock
    // serializes them and adds coherence traffic from the 7 spinners.
    let sep_cfg = |shards: usize| EngineConfig {
        workers: 8,
        ops_per_worker: ops,
        shards,
        stable_ports: 16,
        seed: STORM_SEED,
        ns_cs_work_ns: 100,
        ..EngineConfig::default()
    };
    let (sh_report, sh_clock) = sim_storm(8, 0x51A_E19, sep_cfg(8));
    let (si_report, si_clock) = sim_storm(8, 0x51A_E19, sep_cfg(1));
    assert_ledgers("sim sharded", &sh_report);
    assert_ledgers("sim single-lock", &si_report);
    let ratio = si_clock as f64 / sh_clock.max(1) as f64;
    // Virtual-time results, deterministic from (seed, cores): every one
    // gates exact. The fingerprint keeps its high 48 bits, which an f64
    // holds exactly. The probe's clock reads only a few ns because the
    // engine's own work is not charged in virtual time.
    report.exact("sim_enabled", 1.0, "bool");
    report.exact("sim_replay_identical", 1.0, "bool"); // asserted above
    report.exact("sim_replay_fingerprint", (a.fingerprint() >> 16) as f64, "hash");
    report.exact("sim_probe_clock_ns", clock_a as f64, "ns");
    report.exact("sim_sharded_clock_ns", sh_clock as f64, "ns");
    report.exact("sim_single_lock_clock_ns", si_clock as f64, "ns");
    report.exact("sim_sharded_vs_single_ratio", ratio, "ratio");
    assert!(
        ratio >= 4.0,
        "sharded namespace must beat the single lock by >=4x on 8 simulated \
         cores (single {si_clock}ns / sharded {sh_clock}ns = {ratio:.2}x)"
    );

    let mut t = Table::new(
        "E19c: simulated 8-core host — determinism probe + sharded-vs-single separation",
        &["metric", "value"],
    );
    t.row(&[
        "replay fingerprint (seed-fixed, run twice)".into(),
        format!("{:#018x} == {:#018x}", a.fingerprint(), b.fingerprint()),
    ]);
    t.row(&["replay virtual clocks".into(), format!("{clock_a} == {clock_b} ns")]);
    t.row(&[
        "different seed, different storm".into(),
        format!("{:#018x}", c.fingerprint()),
    ]);
    t.row(&[
        "sharded x8: virtual time, 8 workers".into(),
        format!("{sh_clock} ns"),
    ]);
    t.row(&[
        "single lock: virtual time, 8 workers".into(),
        format!("{si_clock} ns"),
    ]);
    t.row(&["separation (asserted >= 4x)".into(), format!("{ratio:.2}x")]);
    t.note("every namespace critical section modeled at 100 virtual ns (EngineConfig::ns_cs_work_ns)");
    t.note("rings + engine go through the Host trait, so the whole storm replays from (seed, cores)");

    report.table(t);
}
