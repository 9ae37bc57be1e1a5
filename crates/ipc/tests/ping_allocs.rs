//! The ping path allocates nothing.
//!
//! A counting global allocator (per thread, so parallel tests do not
//! see each other) checks that, once warm, one ping — name translation,
//! §10 dispatch of the engine's `OP_PING` handler shape, release of the
//! right — makes zero heap allocations, and so do moving a right
//! through a port's ring and name churn at a steady live count, while
//! a message that does not fit the inline body still allocates. A port
//! pays for its message slots only when its first message is queued.
//! Supervising an engine storm costs a constant number of allocations,
//! however long the storm.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use machk_core::sync::ring::MpscRing;
use machk_core::{Kobj, ObjRef};
use machk_ipc::engine::OP_PING;
use machk_ipc::{
    CrashKind, CrashPoint, DispatchTable, Engine, EngineConfig, KernError, Message, Port, PortName,
    PortNameSpace, RefSemantics, RpcStats,
};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter never touches the memory itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no counter left; skip it.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let (allocs, _, r) = alloc_bytes_during(f);
    (allocs, r)
}

/// Allocations, and the bytes they asked for, while running `f`.
fn alloc_bytes_during<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let r = f();
    (
        ALLOCS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
        r,
    )
}

struct Echo;
type Task = Kobj<Echo>;

/// A populated name space and a table with the engine's ping handler.
fn rig(names: usize) -> (PortNameSpace, DispatchTable, Vec<PortName>) {
    let ns = PortNameSpace::new();
    let names = (0..names)
        .map(|_| {
            let port = Port::create();
            port.set_kernel_object(Kobj::create(Echo).into_dyn());
            ns.insert(port)
        })
        .collect();
    let mut table = DispatchTable::new();
    table.register::<Task>(OP_PING, |task, msg| {
        let nonce = msg.int_at(0).ok_or(KernError::InvalidArgument)?;
        if !task.is_active() {
            return Err(KernError::Deactivated);
        }
        Ok(Message::new(OP_PING).with_int(nonce ^ 0xABCD))
    });
    (ns, table, names)
}

/// One ping: translate, RPC, release; true if the echo came back.
fn ping(ns: &PortNameSpace, table: &DispatchTable, stats: &RpcStats, name: PortName) -> bool {
    let port = ns.translate(name).expect("published name");
    let reply = table.msg_rpc(
        &port,
        Message::new(OP_PING).with_int(u64::from(name.0)),
        RefSemantics::Mach30,
        stats,
    );
    drop(port);
    reply.is_ok_and(|r| r.int_at(0) == Some(u64::from(name.0) ^ 0xABCD))
}

#[test]
fn warm_ping_path_makes_no_allocation() {
    let (ns, table, names) = rig(64);
    let stats = RpcStats::new();
    for &name in &names {
        assert!(ping(&ns, &table, &stats, name), "warm-up ping echoed");
    }
    let (allocs, echoed) = allocs_during(|| {
        (0..1_000)
            .filter(|i| ping(&ns, &table, &stats, names[i % names.len()]))
            .count()
    });
    assert_eq!(echoed, 1_000);
    assert_eq!(allocs, 0, "translate + msg_rpc + release must not allocate");
    assert!(stats.balanced());
}

#[test]
fn name_churn_at_a_steady_count_makes_no_allocation() {
    // Oldest out, newest in: the cursor sends each insert to the shard
    // whose name was just removed, and the shard reuses the freed slot.
    let ns = PortNameSpace::new();
    let mut live: VecDeque<PortName> = (0..64).map(|_| ns.insert(Port::create())).collect();
    let churn = |live: &mut VecDeque<PortName>| {
        let right = ns
            .remove(live.pop_front().expect("a live name"))
            .expect("published name");
        live.push_back(ns.insert(right));
    };
    for _ in 0..64 {
        churn(&mut live);
    }
    let (allocs, ()) = allocs_during(|| {
        for _ in 0..10_000 {
            churn(&mut live);
        }
    });
    assert_eq!(allocs, 0, "10 000 insert/remove pairs");
    assert_eq!(ns.len(), 64);
}

#[test]
fn messages_past_the_inline_body_still_allocate() {
    let (two, _) = allocs_during(|| Message::new(1).with_int(1).with_int(2));
    assert_eq!(two, 0, "two integers stay inline");
    let (three, m) = allocs_during(|| Message::new(1).with_int(1).with_int(2).with_int(3));
    assert!(three >= 1, "a third integer spills to the heap");
    assert_eq!(m.int_at(2), Some(3));
    let port = Port::create();
    let (lone, m) = allocs_during(|| Message::new(1).with_port_right(port.clone()));
    assert_eq!(lone, 0, "a lone port right stays inline");
    assert_eq!(ObjRef::ref_count(&port), 2);
    drop(m);
    assert_eq!(ObjRef::ref_count(&port), 1);
    let (after_int, m) =
        allocs_during(|| Message::new(1).with_int(1).with_port_right(port.clone()));
    assert!(after_int >= 1, "a right after an integer spills");
    assert!(m.port_right_at(1).is_some());
    drop(m);
    let (second, m) = allocs_during(|| {
        Message::new(1)
            .with_port_right(port.clone())
            .with_port_right(port.clone())
    });
    assert!(second >= 1, "a second right spills to the heap");
    assert_eq!(ObjRef::ref_count(&port), 3);
    drop(m);
    assert_eq!(ObjRef::ref_count(&port), 1);
}

#[test]
fn port_transfer_makes_no_allocation() {
    // The engine's transfer op: translate a name, send the right
    // through a port's ring, drain the ring in a batch, release.
    let (ns, _table, names) = rig(8);
    let transfer = Port::create();
    let mut out = Vec::with_capacity(8);
    let mut move_rights = || {
        for &name in &names {
            let right = ns.translate(name).expect("published name");
            let sent = transfer.try_send(Message::new(0).with_port_right(right));
            assert!(sent.is_ok());
        }
        let received = transfer.receive_batch(&mut out, 8);
        out.clear();
        received
    };
    // The first send installs the ring's slots.
    assert_eq!(move_rights(), Ok(names.len()));
    let (allocs, ()) = allocs_during(|| {
        for _ in 0..100 {
            assert_eq!(move_rights(), Ok(names.len()));
        }
    });
    assert_eq!(allocs, 0, "translate, try_send, receive_batch, drop");
}

#[test]
fn port_pays_for_message_slots_on_first_send() {
    // One queued message on another port first, so this thread's
    // lazily built state (the `obs` trace buffer, when traced) exists.
    let warm = Port::create();
    assert!(warm.try_send(Message::new(1)).is_ok());
    drop(warm);
    let (created, port) = allocs_during(Port::create);
    assert_eq!(created, 1, "the port itself, no message slots");
    let capacity = MpscRing::<Message>::with_limit(port.queue_limit()).capacity();
    // A ring slot is its sequence word plus the message, padded to the
    // message's alignment.
    let slot_bytes = MpscRing::<Message>::SLOT_BYTES;
    assert_eq!(slot_bytes, size_of::<Message>() + align_of::<Message>());
    let (allocs, bytes, sent) = alloc_bytes_during(|| port.try_send(Message::new(1).with_int(1)));
    assert!(sent.is_ok());
    assert_eq!(
        (allocs, bytes),
        (1, (capacity * slot_bytes) as u64),
        "one slot array"
    );
    let mut out = Vec::with_capacity(8);
    let (later, received) = allocs_during(|| {
        for i in 2..=4 {
            assert!(port.try_send(Message::new(1).with_int(i)).is_ok());
        }
        port.receive_batch(&mut out, 8)
    });
    assert_eq!(received, Ok(4));
    assert_eq!(later, 0, "later sends and receives reuse the slots");
    // Pings never queue, so they never install slots: see
    // `warm_ping_path_makes_no_allocation`.
}

#[test]
fn message_stays_32_bytes() {
    // A port that has queued holds 64 ring slots of `Message`: a
    // larger message grows every such port.
    assert_eq!(core::mem::size_of::<Message>(), 32);
}

/// Allocations one single-worker storm of `ops` operations makes on
/// this thread (one worker runs inline), with or without an `OpStart`
/// kill at mid-storm.
fn storm_allocs(ops: usize, kill: bool) -> u64 {
    let crash_at = if kill {
        vec![CrashPoint {
            worker: 0,
            op: ops / 2,
            kind: CrashKind::OpStart,
        }]
    } else {
        Vec::new()
    };
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ops_per_worker: ops,
        crash_at,
        ..EngineConfig::default()
    });
    let (allocs, report) = allocs_during(|| engine.run());
    assert_eq!(report.crashes, u64::from(kill), "the kill fired");
    assert_eq!(report.ledger_total, 1, "object ledger balanced");
    allocs
}

#[test]
fn supervision_allocates_a_constant() {
    // The first supervised storm installs the quiet panic hook.
    storm_allocs(1_000, true);
    // Checkpoints are rewritten in place: a kill, its recovery and the
    // restarted incarnation cost the same few allocations at any storm
    // length, not one or more per op.
    for ops in [2_000, 8_000] {
        let plain = storm_allocs(ops, false);
        let supervised = storm_allocs(ops, true);
        let extra = supervised.saturating_sub(plain);
        assert!(
            extra <= 32,
            "{ops} ops: supervision made {extra} allocations beyond the unsupervised {plain}"
        );
    }
}
