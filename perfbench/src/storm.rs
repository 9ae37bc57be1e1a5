//! The storm workloads: `Engine::run` as shipped (`storm_2w`: two
//! workers, default mix; `crash_1w`: one supervised worker with a
//! scheduled kill and overload bursts), plus the **mirror** the traced
//! run uses — the engine's op mix, proportions, drain cadence, shedding
//! rule and shared ports, driven through the public API so the
//! benchmark can put spans around every call.

use std::sync::Arc;
use std::time::{Duration, Instant};

use machk_core::{Kobj, ObjRef, ShardedRefCount};
use machk_ipc::engine::{OP_PING, OP_TASK_CREATE, OP_TASK_TERMINATE};
use machk_ipc::{
    CrashKind, CrashPoint, DispatchTable, Engine, EngineConfig, EngineReport, KernError, Message,
    Port, PortError, PortName, PortNameSpace, ReplyCache, RpcError, RpcStats,
};

use crate::hist::{block_quantile, median, quantile};
use crate::ping::{publish, register_ping, retire, REPLY_KEY};
use crate::trace::{self, span_if, Kind, Recorder};
use crate::{alloc, check, probe, reference_ns, to_nominal, Mix, Report, Tally, TAIL_BLOCK};

/// Operations per worker in one storm: about 5–10 ms of work, so a
/// run holds hundreds of storms.
const STORM_OPS: usize = 8192;
/// Storms per run at least: one block of `TAIL_BLOCK`.
const MIN_STORMS: usize = TAIL_BLOCK;
/// Engines the end-to-end run builds back to back and times as one
/// set-up sample. One `Engine::new` takes tens of µs, and whether the
/// heap has freed memory at hand for it or must grow swings that from
/// run to run; a group always grows the heap.
const SETUP_GROUP: usize = 16;
/// Every this many storms, the end-to-end run also runs a timed mirror
/// storm, which gives the per-call latencies.
const MIRROR_EVERY: usize = 4;
/// Storms run before timing starts.
const WARMUP_STORMS: usize = 3;
/// Distinct storm configs a run cycles through (a multiple of the
/// three kill kinds); each is also counted once for the heap peak.
const CONFIGS: usize = 96;
/// Rounds of the traced run at least (engine, mirror, traced mirror).
const MIN_ROUNDS: usize = 5;
/// Kill kinds, rotated across `crash_1w` storms.
const KINDS: [CrashKind; 3] = [
    CrashKind::OpStart,
    CrashKind::AfterCreate,
    CrashKind::Holding,
];

/// Which storm workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storm {
    /// Two workers, the engine's default config.
    TwoWorkers,
    /// One supervised worker: a scheduled kill plus overload bursts.
    Crash,
}

impl Storm {
    fn workers(self) -> usize {
        match self {
            Storm::TwoWorkers => 2,
            Storm::Crash => 1,
        }
    }

    /// The power of the reference factor (see `reference_ns`) that scales
    /// a storm's run figures. The 1-worker storm runs inline and moves
    /// with the reference. The 2-worker storm runs on both vCPUs and also
    /// shares cache lines between them, so it moves less: on the build
    /// host it moved as the reference to the power 0.6–0.75 between its
    /// slow and fast regimes, and over 200 s of mixed phases its 10 s
    /// medians spread least at 0.75 (IQR ÷ median 0.02, against 0.09
    /// unscaled and 0.025 at 1).
    fn ref_power(self) -> f64 {
        match self {
            Storm::TwoWorkers => 0.75,
            Storm::Crash => 1.0,
        }
    }

    /// The config of storm `i` of a run seeded with `seed`: storms
    /// cycle through `CONFIGS` configs, each with its own storm seed
    /// drawn from the run's seed, so a run's figures cover many inputs
    /// and every config repeats. `crash_1w` storms also rotate the kill
    /// kind; with one worker the engine allows one kill per storm
    /// (kills fire only in a first incarnation).
    fn config(self, seed: u64, i: usize) -> EngineConfig {
        let k = i % CONFIGS;
        let storm_seed = Mix::new(seed, k).next_u64();
        let base = EngineConfig {
            workers: self.workers(),
            ops_per_worker: STORM_OPS,
            seed: storm_seed,
            ..EngineConfig::default()
        };
        match self {
            Storm::TwoWorkers => base,
            Storm::Crash => EngineConfig {
                transfer_limit: 64,
                burst_every: 1024,
                burst_len: 96,
                crash_at: vec![CrashPoint {
                    worker: 0,
                    op: STORM_OPS / 8 + (storm_seed as usize) % (STORM_OPS / 2),
                    kind: KINDS[k % KINDS.len()],
                }],
                ..base
            },
        }
    }
}

/// `cfg` without its scheduled kills: the mirror never crashes.
fn without_kills(cfg: &EngineConfig) -> EngineConfig {
    EngineConfig {
        crash_at: Vec::new(),
        ..cfg.clone()
    }
}

/// The output checks every storm must pass.
fn check_storm(r: &EngineReport, cfg: &EngineConfig) -> Result<(), String> {
    check(r.rpc_balanced, "storm: RpcStats ledger balanced")?;
    check(r.ledger_total == 1, "storm: ledger_total == 1")?;
    check(r.creates == r.terminates, "storm: creates == terminates")?;
    check(r.dead_hits > 0, "storm: dead_hits > 0")?;
    if cfg.crash_at.is_empty() {
        check(
            r.crashes == 0 && r.reconciled == 0,
            "storm: no crash unscheduled",
        )
    } else {
        check(r.crashes == 1, "storm: the scheduled kill fired once")?;
        check(r.retry_exhausted == 0, "storm: retry_exhausted == 0")
    }
}

/// Per-run record of `crash_1w` fingerprints: every storm of one
/// config (same seed, same kill) must replay to the same fingerprint.
struct Fingerprints([Option<u64>; CONFIGS]);

impl Fingerprints {
    fn new() -> Fingerprints {
        Fingerprints([None; CONFIGS])
    }

    fn check(&mut self, i: usize, r: &EngineReport) -> Result<(), String> {
        let slot = &mut self.0[i % CONFIGS];
        let fp = r.fingerprint();
        check(
            *slot.get_or_insert(fp) == fp,
            "crash_1w: same-seed storms share one fingerprint",
        )
    }
}

/// One timed storm: `(Engine::new seconds, Engine::run seconds, report)`.
fn timed_storm(cfg: &EngineConfig) -> (f64, f64, EngineReport) {
    let t0 = Instant::now();
    let engine = Engine::new(cfg.clone());
    let setup = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = engine.run();
    (setup, t1.elapsed().as_secs_f64(), report)
}

impl Tally {
    fn storm(&mut self, r: &EngineReport, cfg: &EngineConfig) {
        self.attempted += (cfg.workers * cfg.ops_per_worker) as u64;
        self.failed += r.retry_exhausted + r.lock_timeouts;
        self.incomplete += r.shed + r.transfer_full;
    }
}

/// The end-to-end run: storms until the time is up, each on a fresh
/// engine, with a timed mirror storm after every `MIRROR_EVERY`th for
/// the per-call latencies; then a few counted storms for the heap peak.
/// Engines are built `SETUP_GROUP` at a time, timed together, and then
/// run one by one.
///
/// Every timed unit sits between two reference readings (see
/// `reference_ns`). A set-up group runs on this thread and is scaled to
/// the nominal host speed by them; a storm and its mirror are scaled by
/// the factor to the storm's `ref_power`.
pub fn e2e(storm: Storm, seed: u64, seconds: f64) -> Result<Report, String> {
    for i in 0..WARMUP_STORMS {
        let cfg = storm.config(seed, i);
        check_storm(&Engine::new(cfg.clone()).run(), &cfg)?;
    }
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut tally = Tally::default();
    let mut prints = Fingerprints::new();
    let (mut setups, mut walls_ms, mut rates) = (vec![], vec![], vec![]);
    let (mut p50s, mut p99s) = (vec![], vec![]);
    let mut ref_ns = reference_ns();
    let mut nominal = || {
        let after = reference_ns();
        let k = to_nominal(ref_ns, after);
        ref_ns = after;
        k
    };
    let scale = |k: f64| k.powf(storm.ref_power());
    let mut i = 0;
    while i < MIN_STORMS || Instant::now() < end {
        let cfgs: Vec<EngineConfig> = (i..i + SETUP_GROUP)
            .map(|j| storm.config(seed, j))
            .collect();
        let t0 = Instant::now();
        let engines: Vec<Engine> = cfgs.iter().map(|c| Engine::new(c.clone())).collect();
        let setup = t0.elapsed().as_secs_f64() / SETUP_GROUP as f64;
        setups.push(setup * nominal());
        for (cfg, engine) in cfgs.iter().zip(engines) {
            let t0 = Instant::now();
            let r = engine.run();
            let wall = t0.elapsed().as_secs_f64();
            let k = scale(nominal());
            check_storm(&r, cfg)?;
            if storm == Storm::Crash {
                prints.check(i, &r)?;
            }
            tally.storm(&r, cfg);
            walls_ms.push(wall * k * 1e3);
            rates.push(r.rpcs as f64 / (wall * k));
            if i % MIRROR_EVERY == MIRROR_EVERY - 1 {
                let mut lat = mirror_storm::<false>(&without_kills(cfg), true)?.lat;
                let k = scale(nominal());
                lat.sort_by(f64::total_cmp);
                p50s.push(quantile(&lat, 0.5) * k);
                p99s.push(quantile(&lat, 0.99) * k);
            }
            i += 1;
        }
    }
    let mut peaks = Vec::new();
    for i in 0..CONFIGS {
        let cfg = storm.config(seed, i);
        alloc::start();
        let r = Engine::new(cfg.clone()).run();
        peaks.push(alloc::stop().peak_bytes as f64);
        check_storm(&r, &cfg)?;
    }
    tally.check()?;

    let mut r = Report::end_to_end(&tally);
    r.set("rpc_per_s", median(&rates));
    r.set("rpc_p50_ns", median(&p50s));
    r.set("rpc_p99_ns", median(&p99s));
    r.set("storm_ms_p95", block_quantile(&walls_ms, TAIL_BLOCK, 0.95));
    r.set("setup_s", median(&setups));
    r.set("heap_peak_bytes", median(&peaks));
    r.set("completed_ratio", tally.completed_ratio());
    Ok(r)
}

/// The engine's control object, mirrored.
struct Server;
type ServerObj = Kobj<Server>;

/// Sequence-number space of the idempotent RPCs (worker in the top
/// bits), as the engine keys them.
fn seq_key(worker: usize, seq: u64) -> u64 {
    ((worker as u64) << 48) | seq
}
const TEARDOWN_WORKER: usize = 0xFFFF;

/// What one mirror storm did.
#[derive(Default)]
struct MirrorTally {
    rpcs: u64,
    creates: u64,
    terminates: u64,
    dead_hits: u64,
    retry_exhausted: u64,
    /// Output-check failures: a wrong reply, a name that should or
    /// should not resolve, an unexpected dead-port error.
    wrong: u64,
    /// ns per ping round trip (translate + RPC + release), when timed.
    lat: Vec<f64>,
}

impl MirrorTally {
    fn add(&mut self, o: &MirrorTally) {
        self.rpcs += o.rpcs;
        self.creates += o.creates;
        self.terminates += o.terminates;
        self.dead_hits += o.dead_hits;
        self.retry_exhausted += o.retry_exhausted;
        self.wrong += o.wrong;
        self.lat.extend_from_slice(&o.lat);
    }
}

/// The engine's storm rebuilt from public calls.
struct Mirror<const T: bool> {
    cfg: EngineConfig,
    ns: Arc<PortNameSpace>,
    ledger: Arc<ShardedRefCount>,
    table: DispatchTable,
    stats: RpcStats,
    cache: ReplyCache,
    server: ObjRef<Port>,
    transfer: ObjRef<Port>,
    stable: Vec<PortName>,
    /// Time every ping round trip into `MirrorTally::lat`.
    timed: bool,
}

impl<const T: bool> Mirror<T> {
    /// `Engine::new`'s set-up: stable ports, server and transfer ports,
    /// and the three handlers (create and terminate make the engine's
    /// public calls).
    fn new(cfg: EngineConfig, timed: bool) -> Mirror<T> {
        let ns = Arc::new(PortNameSpace::with_shards(cfg.shards));
        let ledger = Arc::new(ShardedRefCount::new());
        let stable = (0..cfg.stable_ports)
            .map(|_| publish::<false>(&ns, &ledger))
            .collect();
        let server = Port::create();
        server.set_kernel_object(Kobj::create(Server).into_dyn());
        let transfer = Port::create_with_limit(cfg.transfer_limit.max(1));
        let mut table = DispatchTable::new();
        register_ping::<T>(&mut table, 0);
        {
            let (ns, ledger) = (Arc::clone(&ns), Arc::clone(&ledger));
            table.register::<ServerObj>(OP_TASK_CREATE, move |_srv, msg| {
                span_if::<T, _>(Kind::Handler, || {
                    msg.int_at(0).ok_or(KernError::InvalidArgument)?;
                    let name = publish::<T>(&ns, &ledger);
                    Ok(span_if::<T, _>(Kind::MsgBuild, || {
                        Message::new(OP_TASK_CREATE).with_int(u64::from(name.0))
                    }))
                })
            });
        }
        {
            let (ns, ledger) = (Arc::clone(&ns), Arc::clone(&ledger));
            table.register::<ServerObj>(OP_TASK_TERMINATE, move |_srv, msg| {
                span_if::<T, _>(Kind::Handler, || {
                    let raw = msg.int_at(0).ok_or(KernError::InvalidArgument)?;
                    let name =
                        PortName(u32::try_from(raw).map_err(|_| KernError::InvalidArgument)?);
                    let port = span_if::<T, _>(Kind::Remove, || ns.remove(name))
                        .ok_or(KernError::NotFound)?;
                    if !retire::<T>(port, &ledger) {
                        return Err(KernError::Failure(1));
                    }
                    Ok(span_if::<T, _>(Kind::MsgBuild, || {
                        Message::new(OP_TASK_TERMINATE).with_int(raw)
                    }))
                })
            });
        }
        Mirror {
            cfg,
            ns,
            ledger,
            table,
            stats: RpcStats::new(),
            cache: ReplyCache::new(),
            server,
            transfer,
            stable,
            timed,
        }
    }

    /// One idempotent RPC, as the engine issues them.
    fn rpc(
        &self,
        port: &ObjRef<Port>,
        make: impl Fn() -> Message,
        seq: u64,
    ) -> Result<Message, RpcError> {
        let deadline = Duration::from_nanos(self.cfg.rpc_deadline_ns.max(1));
        span_if::<T, _>(Kind::MsgRpc, || {
            self.table.msg_rpc_retry(
                port,
                || span_if::<T, _>(Kind::MsgBuild, &make),
                self.cfg.semantics,
                &self.stats,
                seq,
                &self.cache,
                deadline,
            )
        })
        .map(|(reply, _retries)| reply)
    }

    /// One worker's seeded op stream: the engine's mix, bursts, drain
    /// cadence and shedding rule, then the quiesce of its churn.
    fn worker(&self, index: usize) -> MirrorTally {
        let cfg = &self.cfg;
        let mut mix = Mix::new(cfg.seed, index);
        let mut t = MirrorTally::default();
        let mut churn: Vec<PortName> = Vec::new();
        let mut seq = 0u64;
        let watermark = (cfg.transfer_limit.saturating_mul(3) / 4).max(1);
        let mut batch: Vec<Message> = Vec::with_capacity(cfg.drain_every);
        for op in 0..cfg.ops_per_worker {
            let bursting = cfg.burst_every > 0 && op % cfg.burst_every < cfg.burst_len;
            let roll = if bursting { 95 } else { mix.next_u64() % 100 };
            if roll < 70 {
                let name = self.stable[(mix.next_u64() as usize) % self.stable.len()];
                let nonce = mix.next_u64();
                if self.transfer.queued() < watermark {
                    let t0 = self.timed.then(Instant::now);
                    let Some(port) = span_if::<T, _>(Kind::Translate, || self.ns.translate(name))
                    else {
                        t.wrong += 1;
                        continue;
                    };
                    seq += 1;
                    match self.rpc(
                        &port,
                        || Message::new(OP_PING).with_int(nonce),
                        seq_key(index, seq),
                    ) {
                        Ok(reply) => {
                            t.rpcs += 1;
                            t.wrong += u64::from(reply.int_at(0) != Some(nonce ^ REPLY_KEY));
                            span_if::<T, _>(Kind::MsgDrop, || drop(reply));
                        }
                        Err(_) => t.retry_exhausted += 1,
                    }
                    span_if::<T, _>(Kind::Release, || drop(port));
                    if let Some(t0) = t0 {
                        t.lat.push(t0.elapsed().as_nanos() as f64);
                    }
                }
            } else if roll < 80 {
                let id = mix.next_u64();
                seq += 1;
                let make = || Message::new(OP_TASK_CREATE).with_int(id);
                match self.rpc(&self.server, make, seq_key(index, seq)) {
                    Ok(reply) => {
                        t.rpcs += 1;
                        t.creates += 1;
                        match reply.int_at(0).and_then(|n| u32::try_from(n).ok()) {
                            Some(n) => churn.push(PortName(n)),
                            None => t.wrong += 1,
                        }
                    }
                    Err(_) => t.retry_exhausted += 1,
                }
            } else if roll < 90 {
                if let Some(name) = churn.pop() {
                    self.terminate_and_probe(index, &mut seq, name, &mut churn, &mut t);
                }
            } else {
                let name = self.stable[(mix.next_u64() as usize) % self.stable.len()];
                if let Some(right) = span_if::<T, _>(Kind::Translate, || self.ns.translate(name)) {
                    let msg =
                        span_if::<T, _>(Kind::MsgBuild, || Message::new(0).with_port_right(right));
                    if let Err(back) =
                        span_if::<T, _>(Kind::TrySend, || self.transfer.try_send(msg))
                    {
                        span_if::<T, _>(Kind::Release, || drop(back));
                    }
                }
            }
            if !bursting && op % cfg.drain_every == cfg.drain_every - 1 {
                let _ = span_if::<T, _>(Kind::ReceiveBatch, || {
                    self.transfer.receive_batch(&mut batch, cfg.drain_every)
                });
                span_if::<T, _>(Kind::Release, || batch.clear());
            }
        }
        while let Some(name) = churn.pop() {
            seq += 1;
            let make = || Message::new(OP_TASK_TERMINATE).with_int(u64::from(name.0));
            match self.rpc(&self.server, make, seq_key(index, seq)) {
                Ok(_) => {
                    t.rpcs += 1;
                    t.terminates += 1;
                }
                Err(_) => t.retry_exhausted += 1,
            }
        }
        t
    }

    /// Terminate one of ours, then fire a ping at the dead port, which
    /// must fail with a typed dead-port error.
    fn terminate_and_probe(
        &self,
        index: usize,
        seq: &mut u64,
        name: PortName,
        churn: &mut Vec<PortName>,
        t: &mut MirrorTally,
    ) {
        let Some(doomed) = span_if::<T, _>(Kind::Translate, || self.ns.translate(name)) else {
            t.wrong += 1;
            return;
        };
        *seq += 1;
        let make = || Message::new(OP_TASK_TERMINATE).with_int(u64::from(name.0));
        match self.rpc(&self.server, make, seq_key(index, *seq)) {
            Ok(_) => {
                t.rpcs += 1;
                t.terminates += 1;
                let probe = span_if::<T, _>(Kind::MsgRpc, || {
                    let req = span_if::<T, _>(Kind::MsgBuild, || Message::new(OP_PING).with_int(1));
                    self.table
                        .msg_rpc(&doomed, req, self.cfg.semantics, &self.stats)
                });
                t.rpcs += 1;
                match probe {
                    Err(RpcError::Port(PortError::NotAnObjectPort | PortError::Dead))
                    | Err(RpcError::Operation(KernError::Deactivated)) => t.dead_hits += 1,
                    _ => t.wrong += 1,
                }
                t.wrong += u64::from(self.ns.translate(name).is_some());
            }
            Err(_) => {
                t.retry_exhausted += 1;
                churn.push(name);
            }
        }
        span_if::<T, _>(Kind::Release, || drop(doomed));
    }

    /// `Engine::run`'s teardown: drain the transfer ring, terminate the
    /// stable ports, audit both ledgers.
    fn teardown(&self, t: &mut MirrorTally) -> Result<(), String> {
        let mut batch = Vec::new();
        while let Ok(n) = self.transfer.receive_batch(&mut batch, 64) {
            if n == 0 {
                break;
            }
            batch.clear();
        }
        for (i, &name) in self.stable.iter().enumerate() {
            let make = || Message::new(OP_TASK_TERMINATE).with_int(u64::from(name.0));
            self.rpc(&self.server, make, seq_key(TEARDOWN_WORKER, i as u64))
                .map_err(|e| format!("mirror teardown: {e}"))?;
            t.rpcs += 1;
        }
        check(
            t.wrong == 0,
            "mirror: every reply and dead-port probe as expected",
        )?;
        check(
            t.retry_exhausted == 0,
            "mirror: no RPC exhausted its retries",
        )?;
        check(t.creates == t.terminates, "mirror: creates == terminates")?;
        check(t.dead_hits > 0, "mirror: dead_hits > 0")?;
        check(self.ns.is_empty(), "mirror: name space drained")?;
        check(self.stats.balanced(), "mirror: RpcStats ledger balanced")?;
        check(
            self.ledger.drain_audit().total == 1,
            "mirror: ledger_total == 1",
        )
    }
}

/// What one mirror storm measured.
struct MirrorRun {
    /// Worker-thread ns per RPC.
    ns_per_rpc: f64,
    /// RPCs completed.
    rpcs: u64,
    /// The workers' spans, if traced.
    spans: Recorder,
    /// ns per ping round trip, if timed.
    lat: Vec<f64>,
}

/// One mirror storm. Like `Engine::run` it spawns its workers (one runs
/// inline) and includes teardown; set-up is excluded.
fn mirror_storm<const T: bool>(cfg: &EngineConfig, timed: bool) -> Result<MirrorRun, String> {
    let m = Mirror::<T>::new(cfg.clone(), timed);
    let workers = cfg.workers;
    let run = |w: usize| {
        if T {
            trace::install();
        }
        let tally = m.worker(w);
        (tally, T.then(trace::take))
    };
    let t0 = Instant::now();
    let results: Vec<(MirrorTally, Option<Recorder>)> = if workers == 1 {
        vec![run(0)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || run(w))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("mirror worker panicked"))
                .collect()
        })
    };
    let mut tally = MirrorTally::default();
    for (t, _) in &results {
        tally.add(t);
    }
    m.teardown(&mut tally)?;
    let wall = t0.elapsed().as_nanos() as f64;
    let mut spans = Recorder::default();
    for rec in results.iter().filter_map(|(_, rec)| rec.as_ref()) {
        spans.merge(rec);
    }
    Ok(MirrorRun {
        ns_per_rpc: workers as f64 * wall / tally.rpcs as f64,
        rpcs: tally.rpcs,
        spans,
        lat: tally.lat,
    })
}

/// The traced run: rounds of (engine storm, [unsupervised engine storm,]
/// mirror storm, traced mirror storm), then the probes on the engine's
/// port shapes with the storm's thread count, then a counted storm for
/// the allocation counts.
pub fn layers(storm: Storm, seed: u64, seconds: f64) -> Result<Report, String> {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds * 0.8);
    let workers = storm.workers();
    let mut tally = Tally::default();
    let mut prints = Fingerprints::new();
    let (mut engine_ns, mut sup_ns_op, mut unsup_ns_op, mut mirror_ns) =
        (vec![], vec![], vec![], vec![]);
    let mut reports = Vec::new();
    let (mut traced_ns, mut traced_rpcs, mut path) = (0.0, 0u64, Recorder::default());
    let mut i = 0;
    while i < MIN_ROUNDS || Instant::now() < end {
        let cfg = storm.config(seed, i);
        let plain_cfg = without_kills(&cfg);
        let ops = (cfg.workers * cfg.ops_per_worker) as f64;
        let (_, wall, r) = timed_storm(&cfg);
        check_storm(&r, &cfg)?;
        tally.storm(&r, &cfg);
        // The mirror never crashes: compare it with an unsupervised storm.
        let (plain_wall, plain_rpcs) = if storm == Storm::Crash {
            prints.check(i, &r)?;
            sup_ns_op.push(wall * 1e9 / ops);
            let (_, plain_wall, plain) = timed_storm(&plain_cfg);
            check_storm(&plain, &plain_cfg)?;
            unsup_ns_op.push(plain_wall * 1e9 / ops);
            (plain_wall, plain.rpcs)
        } else {
            (wall, r.rpcs)
        };
        engine_ns.push(workers as f64 * plain_wall * 1e9 / plain_rpcs as f64);
        reports.push(r);
        mirror_ns.push(mirror_storm::<false>(&plain_cfg, false)?.ns_per_rpc);
        let traced = mirror_storm::<true>(&plain_cfg, false)?;
        traced_ns += traced.ns_per_rpc * traced.rpcs as f64;
        traced_rpcs += traced.rpcs;
        path.merge(&traced.spans);
        i += 1;
    }

    // Probes on ports shaped like the engine's stable set.
    let ns = PortNameSpace::new();
    let ledger = ShardedRefCount::new();
    let names: Vec<PortName> = (0..EngineConfig::default().stable_ports)
        .map(|_| publish::<false>(&ns, &ledger))
        .collect();
    let rights: Vec<ObjRef<Port>> = names.iter().filter_map(|&n| ns.translate(n)).collect();
    let probes = probe::run(&rights, workers, seed, false)?;
    drop(rights);
    for name in names {
        let port = ns.remove(name).ok_or("probe port vanished")?;
        check(retire::<false>(port, &ledger), "probe port retired")?;
    }

    let cfg = storm.config(seed, 0);
    let engine = Engine::new(cfg.clone());
    alloc::start();
    let r = engine.run();
    let counts = alloc::stop();
    check_storm(&r, &cfg)?;
    tally.check()?;

    let per_storm = |f: fn(&EngineReport) -> u64| {
        median(&reports.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    let recovery: Vec<f64> = reports
        .iter()
        .filter(|r| r.crashes > 0)
        .map(|r| r.recovery_ns_total as f64 / r.crashes as f64)
        .collect();

    let mut out = Report::per_layer(&tally);
    let mut spans = path.clone();
    spans.merge(&probes.spans);
    out.set_spans(&spans);
    out.set_probes(&probes);
    out.set(
        "message.allocs_per_rpc",
        counts.allocs as f64 / r.rpcs as f64,
    );
    out.set("message.bytes_per_rpc", counts.bytes as f64 / r.rpcs as f64);
    out.set("engine.shed", per_storm(|r| r.shed));
    out.set("engine.transfer_full", per_storm(|r| r.transfer_full));
    out.set("engine.drained", per_storm(|r| r.drained));
    out.set("engine.crashes", per_storm(|r| r.crashes));
    out.set("engine.reconciled", per_storm(|r| r.reconciled));
    out.set("engine.recovery_ns_p50", median(&recovery));
    if storm == Storm::Crash {
        out.set(
            "engine.supervision_ns_per_op",
            median(&sup_ns_op) - median(&unsup_ns_op),
        );
    }
    let traced_per_rpc = traced_ns / traced_rpcs as f64;
    out.set_shares(
        &path,
        traced_rpcs,
        traced_per_rpc,
        probes.kernel_object_ns(),
    );
    out.set("trace.overhead", traced_per_rpc / median(&mirror_ns));
    out.set("trace.mirror_gap", median(&mirror_ns) / median(&engine_ns));
    Ok(out)
}
