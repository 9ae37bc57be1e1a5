//! The ping workloads: one closed-loop client calling through the public
//! API — name translation, §10 dispatch against the port's task, and
//! release of the right — over a name space of 64 (`ping_hot`) or
//! 16 384 (`ping_wide`) names.

use std::time::{Duration, Instant};

use machk_core::{Kobj, ObjRef, ShardedRefCount};
use machk_ipc::engine::OP_PING;
use machk_ipc::{
    DispatchTable, KernError, Message, Port, PortName, PortNameSpace, RefSemantics, RpcStats,
};

use crate::hist::{block_quantile, median, quantile};
use crate::trace::{self, span_if, Kind};
use crate::{
    alloc, check, probe, reference_ns, spin_for, to_nominal, Mix, Report, Tally, TAIL_BLOCK,
};

/// The task object pings run against: stateless, like the engine's.
pub struct BenchTask;
/// The kernel-object type the ping handler is registered for.
pub type Task = Kobj<BenchTask>;

/// The echo key: every ping reply is `nonce ^ REPLY_KEY`.
pub const REPLY_KEY: u64 = 0xABCD;

/// Calls per batch. A timed batch is the ping workloads' unit for
/// `rpc_per_s` and `storm_ms_p95`.
const BATCH: usize = 8192;
/// Batches per run at least: one block of `TAIL_BLOCK`.
const MIN_BATCHES: usize = TAIL_BLOCK;
/// Ports one timed set-up builds at least, in a group of rigs built back
/// to back. One 64-name rig takes tens of µs, and whether the heap has
/// freed memory at hand for it or must grow swings that from run to run;
/// a group always grows the heap.
const SETUP_PORTS: usize = 1024;
/// Set-ups per run at least; traced runs stop at `MAX_SETUPS`.
const MIN_SETUPS: usize = 11;
const MAX_SETUPS: usize = 301;

/// One ping workload's inputs.
#[derive(Clone, Copy, Debug)]
pub struct PingParams {
    /// Names published in the name space.
    pub names: usize,
    /// Workload seed: picks the name and nonce of every call.
    pub seed: u64,
    /// Measured time of a run.
    pub seconds: f64,
    /// Extra spin inside the ping handler (0 in every workload; the
    /// trace-attribution test sets it to slow one layer on purpose).
    pub handler_delay_ns: u64,
}

/// Register the engine's `OP_PING` handler shape: an activity check,
/// then a one-integer echo reply.
pub(crate) fn register_ping<const T: bool>(table: &mut DispatchTable, delay_ns: u64) {
    table.register::<Task>(OP_PING, move |task, msg| {
        span_if::<T, _>(Kind::Handler, || {
            if delay_ns > 0 {
                spin_for(delay_ns);
            }
            let nonce = msg.int_at(0).ok_or(KernError::InvalidArgument)?;
            if !task.is_active() {
                return Err(KernError::Deactivated);
            }
            Ok(span_if::<T, _>(Kind::MsgBuild, || {
                Message::new(OP_PING).with_int(nonce ^ REPLY_KEY)
            }))
        })
    });
}

/// Create a task and its port and publish the port, taking an
/// object-ledger reference: the engine's create path.
pub(crate) fn publish<const T: bool>(ns: &PortNameSpace, ledger: &ShardedRefCount) -> PortName {
    let port = span_if::<T, _>(Kind::PortCreate, Port::create);
    port.set_kernel_object(Kobj::create(BenchTask).into_dyn());
    ledger.take();
    span_if::<T, _>(Kind::Insert, || ns.insert(port))
}

/// Retire an unpublished port in the engine's shutdown order: disable
/// translation, destroy the port, drop both references outside any
/// lock, then release the ledger's reference. False if a step failed.
pub(crate) fn retire<const T: bool>(port: ObjRef<Port>, ledger: &ShardedRefCount) -> bool {
    let obj = port.clear_kernel_object();
    let destroyed = span_if::<T, _>(Kind::PortDestroy, || port.destroy()).is_ok();
    span_if::<T, _>(Kind::Release, || {
        drop(obj);
        drop(port);
    });
    let final_release = ledger.release();
    destroyed && !final_release
}

/// How one call ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    /// The reply was not `nonce ^ REPLY_KEY`: an output-check failure.
    Wrong,
    /// The RPC returned an error.
    Failed,
}

/// What ping set-up builds: a populated name space and its table.
/// `T` selects the traced build of every call.
pub struct Rig<const T: bool> {
    ns: PortNameSpace,
    table: DispatchTable,
    stats: RpcStats,
    ledger: ShardedRefCount,
    names: Vec<PortName>,
}

impl<const T: bool> Rig<T> {
    /// Populate `names` names in a default (8-shard) name space and
    /// register the ping handler.
    pub fn build(names: usize, delay_ns: u64) -> Rig<T> {
        let ns = PortNameSpace::new();
        let ledger = ShardedRefCount::new();
        let names = (0..names).map(|_| publish::<T>(&ns, &ledger)).collect();
        let mut table = DispatchTable::new();
        register_ping::<T>(&mut table, delay_ns);
        Rig {
            ns,
            table,
            stats: RpcStats::new(),
            ledger,
            names,
        }
    }

    /// One call: translate + `msg_rpc` + release of the right, with
    /// the reply checked.
    #[inline]
    fn call(&self, name: PortName, nonce: u64) -> Outcome {
        let req = span_if::<T, _>(Kind::MsgBuild, || Message::new(OP_PING).with_int(nonce));
        let Some(port) = span_if::<T, _>(Kind::Translate, || self.ns.translate(name)) else {
            return Outcome::Failed;
        };
        let res = span_if::<T, _>(Kind::MsgRpc, || {
            self.table
                .msg_rpc(&port, req, RefSemantics::Mach30, &self.stats)
        });
        span_if::<T, _>(Kind::Release, || drop(port));
        match res {
            Ok(reply) => {
                let ok = reply.int_at(0) == Some(nonce ^ REPLY_KEY);
                span_if::<T, _>(Kind::MsgDrop, || drop(reply));
                if ok {
                    Outcome::Ok
                } else {
                    Outcome::Wrong
                }
            }
            Err(_) => Outcome::Failed,
        }
    }

    /// The next call's inputs from the workload stream.
    #[inline]
    fn draw(&self, mix: &mut Mix) -> (PortName, u64) {
        let name = self.names[(mix.next_u64() as usize) % self.names.len()];
        (name, mix.next_u64())
    }

    /// `BATCH` calls.
    fn batch(&self, mix: &mut Mix, tally: &mut Tally) {
        for _ in 0..BATCH {
            let (name, nonce) = self.draw(mix);
            tally.count(self.call(name, nonce));
        }
    }

    /// `BATCH` calls, each timed on its own into `lat` (ns).
    fn timed_batch(&self, mix: &mut Mix, tally: &mut Tally, lat: &mut Vec<f64>) {
        for _ in 0..BATCH {
            let (name, nonce) = self.draw(mix);
            let t0 = Instant::now();
            let outcome = self.call(name, nonce);
            lat.push(t0.elapsed().as_nanos() as f64);
            tally.count(outcome);
        }
    }

    /// A counted right to every published port, for the probes.
    fn rights(&self) -> Vec<ObjRef<Port>> {
        self.names
            .iter()
            .filter_map(|&n| self.ns.translate(n))
            .collect()
    }

    /// Unpublish and retire every port, then audit both ledgers.
    pub fn teardown(self) -> Result<(), String> {
        for &name in &self.names {
            let port = span_if::<T, _>(Kind::Remove, || self.ns.remove(name))
                .ok_or("a published name vanished")?;
            check(retire::<T>(port, &self.ledger), "port retired cleanly")?;
        }
        check(self.ns.is_empty(), "name space empty after teardown")?;
        check(self.stats.balanced(), "RpcStats::balanced() after the run")?;
        check(
            self.ledger.drain_audit().total == 1,
            "object ledger back to its creation reference",
        )
    }
}

impl Tally {
    fn count(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Wrong => self.wrong += 1,
            Outcome::Failed => self.failed += 1,
        }
    }
}

/// The end-to-end run: alternating untimed batches (throughput) and
/// per-call timed batches (latency) until the time is up, with set-ups
/// (populate + register, then teardown) spread over the run at about a
/// tenth of its time; then one counted batch for the heap peak.
///
/// Each set-up's first rig replaces the measured one, so a run samples
/// many heap layouts: the same calls run up to a third apart from one
/// layout to another. Every timed unit sits between two reference
/// readings and is scaled to the nominal host speed by them (see
/// `reference_ns`); figures are medians over units.
pub fn e2e(p: &PingParams) -> Result<Report, String> {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(p.seconds);
    let mut rig = Rig::<false>::build(p.names, p.handler_delay_ns);
    let mut mix = Mix::new(p.seed, 0);
    let mut tally = Tally::default();
    rig.batch(&mut mix, &mut tally); // warm-up
    let (mut rates, mut batch_ms, mut p50s, mut p99s) = (vec![], vec![], vec![], vec![]);
    let mut lat = Vec::with_capacity(BATCH);
    let (mut setups, mut setup_total) = (vec![], 0.0);
    let mut ref_ns = reference_ns();
    while rates.len() < MIN_BATCHES || setups.len() < MIN_SETUPS || Instant::now() < end {
        if setups.len() < MIN_SETUPS || setup_total < 0.1 * start.elapsed().as_secs_f64() {
            let group = (SETUP_PORTS / p.names).max(1);
            let t0 = Instant::now();
            let fresh: Vec<Rig<false>> = (0..group)
                .map(|_| Rig::build(p.names, p.handler_delay_ns))
                .collect();
            let dt = t0.elapsed().as_secs_f64() / group as f64;
            let mut fresh = fresh.into_iter();
            let next = fresh.next().expect("a group holds one rig at least");
            std::mem::replace(&mut rig, next).teardown()?;
            for other in fresh {
                other.teardown()?;
            }
            setup_total += t0.elapsed().as_secs_f64();
            let after = reference_ns();
            setups.push(dt * to_nominal(ref_ns, after));
            ref_ns = after;
        }
        let t0 = Instant::now();
        rig.batch(&mut mix, &mut tally);
        let dt = t0.elapsed().as_secs_f64();
        let after = reference_ns();
        let k = to_nominal(ref_ns, after);
        ref_ns = after;
        rates.push(BATCH as f64 / (dt * k));
        batch_ms.push(dt * k * 1e3);
        rig.timed_batch(&mut mix, &mut tally, &mut lat);
        let after = reference_ns();
        let k = to_nominal(ref_ns, after);
        ref_ns = after;
        lat.sort_by(f64::total_cmp);
        p50s.push(quantile(&lat, 0.5) * k);
        p99s.push(quantile(&lat, 0.99) * k);
        lat.clear();
    }
    rig.teardown()?;

    alloc::start();
    let rig = Rig::<false>::build(p.names, p.handler_delay_ns);
    rig.batch(&mut mix, &mut tally);
    let heap = alloc::stop();
    rig.teardown()?;
    tally.check()?;

    let mut r = Report::end_to_end(&tally);
    r.set("rpc_per_s", median(&rates));
    r.set("rpc_p50_ns", median(&p50s));
    r.set("rpc_p99_ns", median(&p99s));
    r.set("storm_ms_p95", block_quantile(&batch_ms, TAIL_BLOCK, 0.95));
    r.set("setup_s", median(&setups));
    r.set("heap_peak_bytes", heap.peak_bytes as f64);
    r.set("completed_ratio", tally.completed_ratio());
    Ok(r)
}

/// The traced run: spans around set-up and teardown, traced batches
/// alternating with untraced ones (for `trace.overhead`), then the
/// layer probes and one counted batch for the allocation counts.
pub fn layers(p: &PingParams) -> Result<Report, String> {
    let start = Instant::now();
    let mut mix = Mix::new(p.seed, 0);
    let mut tally = Tally::default();

    // Set-up and teardown spans: insert, create, remove, destroy.
    let setup_end = start + Duration::from_secs_f64(p.seconds * 0.1);
    trace::install();
    let mut setups = 0;
    while setups < 3 || (Instant::now() < setup_end && setups < MAX_SETUPS) {
        Rig::<true>::build(p.names, p.handler_delay_ns).teardown()?;
        setups += 1;
    }
    let mut spans = trace::take();

    // The ping path, traced and untraced in turn.
    let plain = Rig::<false>::build(p.names, p.handler_delay_ns);
    let traced = Rig::<true>::build(p.names, p.handler_delay_ns);
    plain.batch(&mut mix, &mut tally);
    trace::install();
    traced.batch(&mut mix, &mut tally); // warm-up, discarded below
    trace::install();
    let loop_end = start + Duration::from_secs_f64(p.seconds * 0.75);
    let (mut plain_ns, mut traced_ns, mut calls) = (0.0, 0.0, 0u64);
    while calls < (MIN_BATCHES * BATCH / 4) as u64 || Instant::now() < loop_end {
        let t0 = Instant::now();
        plain.batch(&mut mix, &mut tally);
        plain_ns += t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        traced.batch(&mut mix, &mut tally);
        traced_ns += t0.elapsed().as_nanos() as f64;
        calls += BATCH as u64;
    }
    let path = trace::take();
    traced.teardown()?;
    spans.merge(&path);

    // Probes on the same ports, then the exact allocation counts.
    let rights = plain.rights();
    let probes = probe::run(&rights, 1, p.seed, true)?;
    drop(rights);
    alloc::start();
    plain.batch(&mut mix, &mut tally);
    let counts = alloc::stop();
    plain.teardown()?;
    tally.check()?;
    spans.merge(&probes.spans);

    let mut r = Report::per_layer(&tally);
    r.set_spans(&spans);
    r.set_probes(&probes);
    r.set(
        "message.allocs_per_rpc",
        counts.allocs as f64 / BATCH as f64,
    );
    r.set("message.bytes_per_rpc", counts.bytes as f64 / BATCH as f64);
    let traced_per_rpc = traced_ns / calls as f64;
    r.set_shares(&path, calls, traced_per_rpc, probes.kernel_object_ns());
    r.set("trace.overhead", traced_per_rpc / (plain_ns / calls as f64));
    Ok(r)
}
