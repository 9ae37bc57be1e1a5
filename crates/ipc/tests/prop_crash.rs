//! Property tests for the engine's crash-survival layer: kill a worker
//! at an *arbitrary* seeded op index (and crash window) and the storm
//! must still tear down with both §10 ledgers balanced — the
//! translation ledger exactly, the object ledger via the crash
//! reconciliation pass.

use machk_ipc::{CrashKind, CrashPoint, Engine, EngineConfig};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = CrashKind> {
    prop_oneof![
        Just(CrashKind::OpStart),
        Just(CrashKind::AfterCreate),
        Just(CrashKind::Holding),
    ]
}

proptest! {
    // Each case runs a full (small) storm; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn crashed_storm_always_balances_both_ledgers(
        seed in any::<u64>(),
        workers in 1usize..4,
        victim in 0usize..4,
        op in 0usize..800,
        kind in arb_kind(),
    ) {
        let report = Engine::new(EngineConfig {
            workers,
            ops_per_worker: 800,
            stable_ports: 8,
            seed,
            crash_at: vec![CrashPoint { worker: victim % workers, op, kind }],
            ..EngineConfig::default()
        })
        .run();

        // An OpStart/Holding kill dies with a consistent checkpoint; an
        // AfterCreate kill fires only if a create op occurs at or after
        // `op`, and leaks exactly one uncounted orphan when it does.
        prop_assert!(report.crashes <= 1);
        prop_assert!(report.reconciled <= 1);
        prop_assert!(report.rpc_balanced, "translation ledger unbalanced");
        prop_assert_eq!(report.ledger_total, 1, "object ledger not repaired");
        prop_assert_eq!(
            report.creates, report.terminates,
            "counted creates must match counted terminates"
        );
        if kind == CrashKind::Holding {
            // The kill fires in the first scratch section at/after
            // `op`, which supervised workers run every op.
            prop_assert_eq!(report.crashes, 1);
            prop_assert_eq!(report.torn_sections, 1);
            prop_assert_eq!(report.scratch_repairs, 1, "the torn parity must be repaired once");
            prop_assert_eq!(report.lock_timeouts, 0, "a torn section is repaired, not spun on");
        }
    }
}
