//! The striped §10 ledger under the simulator: a hosted thread's stripe
//! comes from its host thread id, so one seed always gives one stripe
//! assignment, and the E19/E20 engine storms, which count into one
//! shared ledger, still replay to one fingerprint.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use machk_ipc::{CrashKind, CrashPoint, Engine, EngineConfig, RpcStats};
use machk_sim::{run, SimConfig};
use machk_sync::{host, thread_slot};

/// Four hosted threads add to one ledger; returns each thread's slot
/// and the previous stripe values its adds saw, in spawn order.
fn stripe_assignment(seed: u64) -> Vec<(usize, Vec<u64>)> {
    let cfg = SimConfig::DEFAULT.with_cores(4).with_seed(seed);
    let report = run(&cfg, || {
        let stats = Arc::new(RpcStats::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let stats = Arc::clone(&stats);
                let out = Arc::new(std::sync::Mutex::new(None));
                let slot = Arc::clone(&out);
                let t = host::spawn(move || {
                    let seen = (0..8)
                        .map(|_| {
                            host::yield_now();
                            stats.translations.fetch_add(1, Ordering::Relaxed)
                        })
                        .collect();
                    *slot.lock().unwrap() = Some((thread_slot(), seen));
                });
                (t, out)
            })
            .collect();
        let seen: Vec<_> = threads
            .into_iter()
            .map(|(t, out)| {
                host::join(t);
                let got = out.lock().unwrap().take();
                got.expect("thread left its stripe record")
            })
            .collect();
        assert_eq!(stats.translations.load(Ordering::Relaxed), 32);
        seen
    })
    .expect("stripe scenario runs");
    report.value
}

#[test]
fn one_seed_gives_one_stripe_assignment() {
    let a = stripe_assignment(0x57_41);
    assert_eq!(a, stripe_assignment(0x57_41));
    let slots: Vec<usize> = a.iter().map(|(slot, _)| *slot).collect();
    assert_eq!(slots, [1, 2, 3, 4], "host ids, the root thread being 0");
    for (slot, seen) in &a {
        // Four threads, four consecutive slots: each stripe is one
        // thread's, so its adds see only its own count.
        assert_eq!(*seen, (0..8).collect::<Vec<u64>>(), "slot {slot}");
    }
}

/// One engine storm under the simulator: its replay fingerprint.
fn storm_fingerprint(cores: usize, sched_seed: u64, cfg: EngineConfig) -> u64 {
    let sim = SimConfig::DEFAULT.with_cores(cores).with_seed(sched_seed);
    let report = run(&sim, move || Engine::new(cfg).run())
        .expect("storm runs")
        .value;
    assert!(report.rpc_balanced, "RpcStats ledger unbalanced");
    assert_eq!(report.ledger_total, 1, "object ledger unbalanced");
    report.fingerprint()
}

#[test]
fn engine_storms_replay_through_one_ledger() {
    // E19's determinism probe, shortened.
    let e19 = EngineConfig {
        workers: 4,
        ops_per_worker: 40,
        shards: 8,
        stable_ports: 8,
        seed: 0x1991_0E19,
        ..EngineConfig::default()
    };
    let a = storm_fingerprint(8, 0xE19, e19.clone());
    assert_eq!(a, storm_fingerprint(8, 0xE19, e19));
    // E20's supervised storm: a kill after a create, one while holding.
    let e20 = EngineConfig {
        workers: 3,
        ops_per_worker: 120,
        stable_ports: 8,
        seed: 0x1991_0E20,
        crash_at: vec![
            CrashPoint {
                worker: 0,
                op: 30,
                kind: CrashKind::AfterCreate,
            },
            CrashPoint {
                worker: 2,
                op: 60,
                kind: CrashKind::Holding,
            },
        ],
        ..EngineConfig::default()
    };
    let b = storm_fingerprint(4, 0xE20, e20.clone());
    assert_eq!(b, storm_fingerprint(4, 0xE20, e20));
}
