//! Layer probes: calls too short to time one at a time are batch-timed
//! in runs of one call kind; `Port::kernel_object` (which dispatch
//! makes internally) and, optionally, `try_send` / `receive_batch` are
//! timed per call. With two threads the probes run side by side on the
//! same ports, lock, ledger and `RpcStats` line, as the storm's workers
//! share them.

use std::hint::black_box;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Barrier;
use std::time::Instant;

use machk_core::{ObjRef, RawSimpleLock, ShardedRefCount};
use machk_ipc::engine::OP_PING;
use machk_ipc::{Message, Port, RpcStats};

use crate::hist::median;
use crate::trace::{self, span, Kind, Recorder};
use crate::{check, Mix};

/// Calls per batch-timed run.
const N: usize = 4096;
/// Runs of each kind per thread; each figure is a median over them.
const ROUNDS: usize = 21;
/// Messages per `try_send` burst, drained by one `receive_batch`.
const BURST: usize = 32;

/// What the probes measured.
pub struct Probes {
    /// Per-call spans: `KernelObject`, and `TrySend` / `ReceiveBatch`
    /// when the port probe ran.
    pub spans: Recorder,
    /// ns per `Message::new(..).with_int(..)` (batch-timed).
    pub message_build_ns: f64,
    /// ns per dropped port right (batch-timed).
    pub right_release_ns: f64,
    /// ns per `RawSimpleLock` lock + unlock (batch-timed).
    pub simple_lock_ns: f64,
    /// ns per relaxed `fetch_add` on an `RpcStats` counter (batch-timed).
    pub shared_rmw_ns: f64,
    /// ns per `ShardedRefCount::take` (batch-timed).
    pub ledger_take_ns: f64,
    /// ns per `ShardedRefCount::release` (batch-timed).
    pub ledger_release_ns: f64,
}

impl Probes {
    /// Median ns per `Port::kernel_object`.
    pub fn kernel_object_ns(&self) -> f64 {
        self.spans.hist(Kind::KernelObject).quantile(0.5)
    }
}

/// State every probe thread shares.
struct Shared {
    lock: RawSimpleLock,
    stats: RpcStats,
    ledger: ShardedRefCount,
    barrier: Barrier,
}

fn per_call(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// One probe thread: `ROUNDS` runs of every batch-timed kind (threads
/// meet at a barrier before each), per-call `kernel_object` spans, and
/// the port probe if asked.
fn probe_thread(
    sh: &Shared,
    ports: &[ObjRef<Port>],
    mut mix: Mix,
    port_probe: bool,
) -> Result<(Recorder, [Vec<f64>; 6]), String> {
    trace::install();
    let mut pick = move || &ports[(mix.next_u64() as usize) % ports.len()];
    let mut runs: [Vec<f64>; 6] = Default::default();
    let mut msgs = Vec::with_capacity(N);
    let mut rights = Vec::with_capacity(N);
    for _ in 0..ROUNDS {
        sh.barrier.wait();
        let t0 = Instant::now();
        for i in 0..N {
            msgs.push(Message::new(OP_PING).with_int(i as u64));
        }
        runs[0].push(per_call(t0));
        msgs.clear();

        rights.extend((0..N).map(|_| pick().clone()));
        sh.barrier.wait();
        let t0 = Instant::now();
        rights.clear();
        runs[1].push(per_call(t0));

        sh.barrier.wait();
        let t0 = Instant::now();
        for _ in 0..N {
            drop(black_box(&sh.lock).lock());
        }
        runs[2].push(per_call(t0));

        sh.barrier.wait();
        let t0 = Instant::now();
        for _ in 0..N {
            // relaxed: the same statistic-counter RMW dispatch makes.
            sh.stats.translations.fetch_add(1, Relaxed);
        }
        runs[3].push(per_call(t0));

        sh.barrier.wait();
        let t0 = Instant::now();
        for _ in 0..N {
            sh.ledger.take();
        }
        runs[4].push(per_call(t0));
        let t0 = Instant::now();
        let mut finals = 0;
        for _ in 0..N {
            finals += usize::from(black_box(sh.ledger.release()));
        }
        runs[5].push(per_call(t0));
        check(
            finals == 0,
            "ledger probe never releases the creation reference",
        )?;

        sh.barrier.wait();
        for _ in 0..N / 4 {
            let port = pick();
            let obj = span(Kind::KernelObject, || port.kernel_object());
            check(obj.is_ok(), "kernel_object on an object port")?;
        }
    }
    if port_probe {
        let transfer = Port::create_with_limit(BURST);
        let mut batch = Vec::with_capacity(BURST);
        for _ in 0..ROUNDS * 8 {
            for _ in 0..BURST {
                let msg = Message::new(0).with_port_right(pick().clone());
                let sent = span(Kind::TrySend, || transfer.try_send(msg));
                check(sent.is_ok(), "try_send into a ring with room")?;
            }
            let got = span(Kind::ReceiveBatch, || {
                transfer.receive_batch(&mut batch, BURST)
            });
            check(got == Ok(BURST), "receive_batch drains the burst")?;
            batch.clear();
        }
    }
    Ok((trace::take(), runs))
}

/// Run the probes on `threads` threads over `ports` (object ports).
pub fn run(
    ports: &[ObjRef<Port>],
    threads: usize,
    seed: u64,
    port_probe: bool,
) -> Result<Probes, String> {
    let sh = Shared {
        lock: RawSimpleLock::new(),
        stats: RpcStats::new(),
        ledger: ShardedRefCount::new(),
        barrier: Barrier::new(threads),
    };
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let sh = &sh;
                s.spawn(move || probe_thread(sh, ports, Mix::new(seed, t), port_probe && t == 0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    let mut spans = Recorder::default();
    let mut medians = [0.0; 6];
    for result in results {
        let (rec, runs) = result?;
        spans.merge(&rec);
        for (m, r) in medians.iter_mut().zip(&runs) {
            *m += median(r) / threads as f64;
        }
    }
    Ok(Probes {
        spans,
        message_build_ns: medians[0],
        right_release_ns: medians[1],
        simple_lock_ns: medians[2],
        shared_rmw_ns: medians[3],
        ledger_take_ns: medians[4],
        ledger_release_ns: medians[5],
    })
}
