//! E20 — crash-and-overload storm: the engine's crash-survival layer
//! under seeded worker kills and transfer-ring overload.
//!
//! The robustness tentpole (see DESIGN.md "Crash survival"): workers
//! die mid-operation — at op start, between a §10 create and its
//! terminate, and *while holding* the scratch lock — and the supervisor
//! must drain the corpse's ring entries, repair the torn section,
//! restart the worker from its checkpoint, and reconcile the object
//! ledger for any uncounted orphan. Separately, transfer bursts drive
//! the ring toward capacity and the engine sheds low-priority pings
//! (counted, never silent) while terminates and transfers still land.
//!
//! Four campaigns:
//!
//! 1. **Crash-survival sweep** — many seeds, each storm carrying a
//!    seed-derived kill schedule (victim, op index, crash window). Every
//!    storm must run to completion (zero hangs), with the `RpcStats`
//!    translation ledger balanced, the `ShardedRefCount` object ledger
//!    repaired to exactly the engine's own reference, and the counted
//!    books closed: `creates == terminates` (an uncounted orphan is
//!    `reconciled`, never a counted create — see `machk_ipc::engine`).
//!    Each storm runs twice: pings landed plus pings shed must match,
//!    since several workers may shed even without bursts.
//! 2. **Overload shedding** — the same seed with and without bursts:
//!    sheds must be nonzero under burst pressure, pings landed plus
//!    pings shed must be a run-invariant of the seed, and a calm
//!    single-worker storm must shed exactly nothing. (A calm storm of
//!    several workers may shed when one is preempted mid-publish on the
//!    transfer ring; see `machk_ipc::engine`.)
//! 3. **Fault-armed storm** (`--features probe`) — a `machk-fault` plan
//!    arms probabilistic worker kills *and* reply drops, so recovery
//!    and retry/backoff interleave; the retried RPCs are idempotent by
//!    sequence number, so the ledgers still balance exactly.
//! 4. **Sim replay** (`--features sim`) — one crash schedule on a
//!    simulated host, twice, from the same `(seed, sched-seed, cores)`:
//!    the two [`EngineReport`]s must be byte-identical, down to the
//!    crash, reconciliation, and repair counters in the fingerprint.
//!    The fingerprint and the virtual clock gate `exact`; the clock
//!    reads only 28 ns because the engine's own work is not charged in
//!    virtual time.
//!
//! [`EngineReport`]: machk_ipc::EngineReport

use machk_ipc::engine::{CrashKind, CrashPoint, Engine, EngineConfig, EngineReport};

use super::Opts;
use crate::report::BenchReport;
use crate::util::Table;

/// Workload seed for every E20 storm (the CI smoke run replays it).
const STORM_SEED: u64 = 0x1991_0E20;

/// Deterministic splitmix64 step: the kill schedules must derive from
/// the campaign seed alone so every run (and CI) replays them.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed-derived kill schedule: one or two crash points with victim,
/// op index, and crash window all drawn from `seed`.
fn crash_plan(seed: u64, workers: usize, ops: usize) -> Vec<CrashPoint> {
    let mut s = seed ^ 0xC4A5_4E20;
    let kinds = [
        CrashKind::OpStart,
        CrashKind::AfterCreate,
        CrashKind::Holding,
    ];
    let n = 1 + (splitmix(&mut s) % 2) as usize;
    (0..n)
        .map(|_| CrashPoint {
            worker: (splitmix(&mut s) % workers as u64) as usize,
            op: (splitmix(&mut s) % ops as u64) as usize,
            kind: kinds[(splitmix(&mut s) % 3) as usize],
        })
        .collect()
}

fn assert_survived(tag: &str, r: &EngineReport) {
    assert!(
        r.rpc_balanced,
        "{tag}: RpcStats translation ledger unbalanced"
    );
    assert_eq!(
        r.ledger_total, 1,
        "{tag}: object ledger not repaired to the engine's own reference"
    );
    assert_eq!(
        r.creates, r.terminates,
        "{tag}: counted books not closed (creates != terminates)"
    );
    assert_eq!(r.retry_exhausted, 0, "{tag}: an RPC ran out its deadline");
}

/// Run E20 into `report`, asserting its claims.
pub fn run(report: &mut BenchReport, opts: &Opts) {
    let quick = opts.quick;

    // Campaign 1: the crash-survival sweep. Every storm that returns
    // *is* a survived storm — a hang would never reach the asserts, and
    // the supervisor's round bound turns a restart livelock into a
    // panic, not a hang.
    let seeds = if quick { 16 } else { 240 };
    let (workers, ops) = (3usize, if quick { 600 } else { 900 });
    let mut crashes = 0u64;
    let mut reconciled = 0u64;
    let mut repairs = 0u64;
    let mut tears = 0u64;
    let mut timeouts = 0u64;
    let mut rehomed = 0u64;
    let mut drained = 0u64;
    for i in 0..seeds {
        let seed = STORM_SEED.wrapping_add(i);
        let storm = || {
            Engine::new(EngineConfig {
                workers,
                ops_per_worker: ops,
                stable_ports: 8,
                seed,
                crash_at: crash_plan(seed, workers, ops),
                ..EngineConfig::default()
            })
            .run()
        };
        let r = storm();
        assert_survived("crash sweep", &r);
        // Three workers on fewer hardware threads can shed without
        // bursts (a worker preempted mid-publish on the transfer ring),
        // so the seed fixes pings landed plus pings shed, not sheds.
        let again = storm();
        assert_eq!(
            r.pings + r.shed,
            again.pings + again.shed,
            "pings drawn must be a run-invariant of the seed"
        );
        crashes += r.crashes;
        reconciled += r.reconciled;
        repairs += r.scratch_repairs;
        tears += r.torn_sections;
        timeouts += r.lock_timeouts;
        rehomed += r.rehomed_ports;
        drained += r.drained;
    }
    assert!(
        crashes >= seeds / 2,
        "the seed-derived schedules must actually kill workers ({crashes} kills over {seeds} seeds)"
    );
    assert!(
        tears >= 1,
        "some Holding kill must tear the scratch section"
    );
    // Each Holding kill tears the parity once and exactly one holder
    // repairs it; the dead holder's guard released the lock, so nobody
    // spins on it until a deadline.
    assert_eq!(
        repairs, tears,
        "every torn section must be repaired exactly once"
    );
    assert_eq!(timeouts, 0, "a torn section is repaired, not spun on");

    let mut t = Table::new(
        "E20a: crash-survival sweep (seed-derived kill schedules)",
        &["metric", "value"],
    );
    t.row(&["storms (seeds)".into(), seeds.to_string()]);
    t.row(&["hangs".into(), "0".into()]);
    t.row(&["worker kills survived".into(), crashes.to_string()]);
    t.row(&["orphans reconciled".into(), reconciled.to_string()]);
    t.row(&["sections torn by Holding kills".into(), tears.to_string()]);
    t.row(&["scratch repairs".into(), repairs.to_string()]);
    t.row(&["ports re-homed".into(), rehomed.to_string()]);
    t.row(&[
        "ring entries drained from corpses".into(),
        drained.to_string(),
    ]);
    t.note("every storm: both ledgers balanced, counted books closed (creates == terminates)");
    t.note(
        "an AfterCreate orphan is reconciled, never double-counted — see machk_ipc::engine docs",
    );
    t.note("recovery latency is not timed here: perfbench's crash_1w reports its median");
    report.table(t);

    report.exact("hangs", 0.0, "count");
    report.exact("ledger_violations", 0.0, "count");
    report.exact("sweep_seeds", seeds as f64, "count");
    report.info("sweep_crashes", crashes as f64, "count");
    report.info("sweep_reconciled", reconciled as f64, "count");

    // Campaign 2: overload shedding. Bursts force transfer pressure
    // against a small ring; pings are shed (counted) while terminates
    // and transfers land. Without bursts one worker sheds nothing.
    let shed_cfg = |burst: bool| EngineConfig {
        workers: if burst { 4 } else { 1 },
        ops_per_worker: if quick { 2_000 } else { 6_000 },
        stable_ports: 8,
        transfer_limit: 64,
        seed: STORM_SEED ^ 0xB0B0,
        burst_every: if burst { 128 } else { 0 },
        burst_len: if burst { 96 } else { 0 },
        ..EngineConfig::default()
    };
    let burst = Engine::new(shed_cfg(true)).run();
    let calm = Engine::new(shed_cfg(false)).run();
    let burst2 = Engine::new(shed_cfg(true)).run();
    assert_survived("burst storm", &burst);
    assert_survived("calm storm", &calm);
    assert!(
        burst.shed > 0,
        "burst pressure must shed pings (got {} sheds)",
        burst.shed
    );
    assert_eq!(calm.shed, 0, "a calm single-worker storm must shed nothing");
    assert!(burst.transfers > 0 && burst.terminates > 0);
    assert_eq!(
        burst.pings + burst.shed,
        burst2.pings + burst2.shed,
        "the shed decision must be a run-invariant of the seed"
    );

    let mut t = Table::new(
        "E20b: overload shedding under transfer bursts (ring capacity 64)",
        &[
            "storm",
            "pings landed",
            "pings shed",
            "transfers",
            "terminates",
        ],
    );
    t.row(&[
        "burst (96 of every 128 ops)".into(),
        burst.pings.to_string(),
        burst.shed.to_string(),
        burst.transfers.to_string(),
        burst.terminates.to_string(),
    ]);
    t.row(&[
        "calm (same seed, no bursts, 1 worker)".into(),
        calm.pings.to_string(),
        calm.shed.to_string(),
        calm.transfers.to_string(),
        calm.terminates.to_string(),
    ]);
    t.note("sheds are counted, never silent; low-priority pings go first, commits always land");
    report.table(t);

    report.exact("shed_without_burst", calm.shed as f64, "count");
    report.exact(
        "shed_under_burst_nonzero",
        u64::from(burst.shed > 0) as f64,
        "bool",
    );
    report.info("burst_shed", burst.shed as f64, "count");

    // Campaign 3: probabilistic kills + reply drops via machk-fault.
    #[cfg(feature = "probe")]
    fault_section(quick, report);
    #[cfg(not(feature = "probe"))]
    report.compiled_out(
        "fault_enabled",
        "probe",
        "E20c: fault-armed storm (probabilistic kills + reply drops)",
        "for probabilistic kills and reply drops",
    );

    // Campaign 4: byte-identical crash replay under machk-sim.
    #[cfg(feature = "sim")]
    sim_section(report);
    #[cfg(not(feature = "sim"))]
    report.compiled_out(
        "sim_enabled",
        "sim",
        "E20d: scheduled crash storm on a simulated 4-core host (machk-sim)",
        "to replay a crash storm byte-identically from (seed, sched-seed, cores)",
    );
}

/// The fault-armed half: seeded probabilistic worker kills and §10
/// reply drops in the same storm, so crash recovery and idempotent
/// retry interleave.
#[cfg(feature = "probe")]
fn fault_section(quick: bool, report: &mut BenchReport) {
    use machk_fault::{rate_from_prob, FaultPlan, FaultSite};

    // Rates sized so quick mode (4 workers x 2 000 ops) still expects
    // ~10 kills: the per-thread decision streams are seeded, but which
    // stream a worker draws depends on spawn order, so the kill count
    // must be comfortably above the `>= 1` assertion for every
    // assignment, not just the common one.
    let plan = FaultPlan::new(STORM_SEED ^ 0xFA17)
        .with_rate(FaultSite::WorkerCrash, rate_from_prob(0.001))
        .with_rate(FaultSite::WorkerCrashHolding, rate_from_prob(0.0005))
        .with_rate(FaultSite::RpcDropReply, rate_from_prob(0.002))
        .declared_roles_only();
    machk_fault::install(plan);
    let r = Engine::new(EngineConfig {
        workers: 4,
        ops_per_worker: if quick { 2_000 } else { 8_000 },
        stable_ports: 16,
        seed: STORM_SEED ^ 0xFA17,
        ..EngineConfig::default()
    })
    .run();
    machk_fault::disarm();

    assert_survived("fault-armed storm", &r);
    assert!(
        r.crashes >= 1,
        "the armed plan must kill at least one worker"
    );
    assert!(r.retries >= 1, "dropped replies must be retried");

    report.exact("fault_enabled", 1.0, "bool");
    report.exact("fault_ledger_violations", 0.0, "count");
    report.info("fault_crashes", r.crashes as f64, "count");
    report.info("fault_retries", r.retries as f64, "count");

    let mut t = Table::new(
        "E20c: fault-armed storm (probabilistic kills + reply drops)",
        &["metric", "value"],
    );
    t.row(&["worker kills".into(), r.crashes.to_string()]);
    t.row(&[
        "RPC retries (idempotent by seq)".into(),
        r.retries.to_string(),
    ]);
    t.row(&["orphans reconciled".into(), r.reconciled.to_string()]);
    t.row(&["ledgers".into(), "balanced".into()]);
    t.note("a retried create/terminate lands its ledger entry exactly once (reply cache by seq)");
    report.table(t);
}

/// The simulated-host half: one scheduled crash storm replayed from
/// `(seed, sched-seed, cores)` — byte-identical reports, including the
/// recovery counters.
#[cfg(feature = "sim")]
fn sim_section(report: &mut BenchReport) {
    use std::sync::{Arc, Mutex};

    use machk_sim::{run as sim_run, SimConfig};

    let cfg = EngineConfig {
        workers: 3,
        ops_per_worker: 300,
        stable_ports: 8,
        seed: STORM_SEED,
        crash_at: vec![
            CrashPoint {
                worker: 0,
                op: 60,
                kind: CrashKind::AfterCreate,
            },
            CrashPoint {
                worker: 2,
                op: 150,
                kind: CrashKind::Holding,
            },
        ],
        ..EngineConfig::default()
    };
    let sim_storm = |sched_seed: u64, cfg: EngineConfig| -> (EngineReport, u64) {
        let slot = Arc::new(Mutex::new(None));
        let out = Arc::clone(&slot);
        let sim = sim_run(
            &SimConfig::DEFAULT.with_cores(4).with_seed(sched_seed),
            move || {
                let report = Engine::new(cfg).run();
                *out.lock().unwrap() = Some(report);
            },
        )
        .unwrap_or_else(|e| panic!("E20 sim crash storm failed: {e}"));
        let report = slot.lock().unwrap().take().expect("storm left its report");
        (report, sim.clock_ns)
    };

    let (a, clock_a) = sim_storm(0xE20, cfg.clone());
    let (b, clock_b) = sim_storm(0xE20, cfg.clone());
    assert_survived("sim crash storm", &a);
    assert!(a.crashes >= 1, "the scheduled kills must fire under sim");
    assert_eq!(
        a, b,
        "same (seed, sched-seed, cores) must replay the crash storm byte-identically"
    );
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "replay fingerprints diverged"
    );
    assert_eq!(clock_a, clock_b, "virtual clocks diverged across replays");

    // Deterministic from (seed, sched-seed, cores): gate exact. The
    // fingerprint keeps its high 48 bits, which an f64 holds exactly.
    // The clock reads only a few ns because the engine's own work is
    // not charged in virtual time.
    report.exact("sim_enabled", 1.0, "bool");
    report.exact("sim_replay_identical", 1.0, "bool"); // asserted above
    report.exact(
        "sim_replay_fingerprint",
        (a.fingerprint() >> 16) as f64,
        "hash",
    );
    report.exact("sim_crash_storm_clock_ns", clock_a as f64, "ns");

    let mut t = Table::new(
        "E20d: scheduled crash storm on a simulated 4-core host (machk-sim)",
        &["metric", "value"],
    );
    t.row(&[
        "replay fingerprint (run twice)".into(),
        format!("{:#018x} == {:#018x}", a.fingerprint(), b.fingerprint()),
    ]);
    t.row(&[
        "replay virtual clocks".into(),
        format!("{clock_a} == {clock_b} ns"),
    ]);
    t.row(&[
        "kills survived / orphans reconciled".into(),
        format!("{} / {}", a.crashes, a.reconciled),
    ]);
    t.note("supervision, torn-section repair, reconciliation, and retry all run on the Host trait");
    report.table(t);
}
