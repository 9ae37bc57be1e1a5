//! The async IPC engine: a thread-per-core RPC dispatch loop with a
//! crash-survival supervisor.
//!
//! This is the production-shaped server core the ROADMAP's north star
//! asks for, assembled entirely from this crate's own pieces:
//!
//! * the **sharded** [`PortNameSpace`] (E2's data-locking prescription
//!   applied to the name table),
//! * **lock-free message rings** inside every [`Port`] with batched
//!   dequeue ([`Port::receive_batch`]),
//! * the §10 five-step kernel RPC protocol ([`DispatchTable::msg_rpc`])
//!   with its [`RpcStats`] reference ledger, one per worker on a cache
//!   line of its own (and one for the teardown), so workers never
//!   write a shared ledger line,
//! * a [`ShardedRefCount`] object ledger audited by
//!   `drain_audit` at the end of every storm.
//!
//! [`Engine::run`] spawns one worker per configured core (via
//! [`machk_core::sync::host::spawn`], so the whole storm runs — and
//! replays byte-for-byte — under `machk-sim`) and drives a seeded mixed
//! workload through the kernel-RPC protocol:
//!
//! * **ping** — name → port translation, then an `OP_PING` RPC against
//!   the port's kernel object (the hot path; every reply feeds the
//!   worker's digest);
//! * **task create** — an `OP_TASK_CREATE` RPC whose handler creates a
//!   task object, wraps it in a port, and publishes it in the
//!   namespace (taking an object-ledger reference);
//! * **task terminate / dead-port churn** — an `OP_TASK_TERMINATE` RPC
//!   whose handler unpublishes the name, disables translation, and
//!   destroys the port; the worker then fires one more RPC at the dead
//!   port and *must* observe the typed dead-port error;
//! * **port transfer** — a translated right is moved through a shared
//!   transfer port (`try_send` into its lock-free ring); every
//!   [`EngineConfig::drain_every`] operations the worker batch-drains
//!   the transfer ring, releasing the rights in bulk.
//!
//! Nothing in the loop blocks, so a storm cannot deadlock and — under
//! the simulated host — always terminates within its configured op
//! budget. Determinism: each worker's operation stream is a pure
//! function of `(seed, worker index)`; under `machk-sim` the scheduler
//! interleaving is also seeded, so [`EngineReport::digest`] is
//! byte-identical across replays of the same `(seed, cores)` — the E19
//! determinism probe. (On a real OS host the interleaving is the OS's,
//! so only per-worker streams, the counters' sums, and the ledgers are
//! reproducible; the digest is then just a checksum.)
//!
//! ## Crash survival (E20)
//!
//! A storm becomes **supervised** when a kill is possible: either
//! [`EngineConfig::crash_at`] schedules deterministic worker deaths, or
//! (under the `probe` feature) an installed fault plan arms the
//! `worker_crash` / `worker_crash_holding` sites. Supervision is a
//! *runtime* mode, decided per storm — an unsupervised storm pays
//! nothing for it (no checkpoint writes, no scratch-lock traffic), so
//! the E19 throughput and determinism claims are untouched.
//!
//! Supervised workers run under `catch_unwind` and write a
//! `Checkpoint` — op cursor, mix state, sequence counter, tally,
//! churn list — at the top of every operation. The supervisor owns
//! each worker's checkpoint for the whole storm and lends it to every
//! incarnation (a spawned one carries it along and hands it back with
//! its outcome), which rewrites it in place: no lock and no allocation
//! per op. When a worker dies the
//! supervisor counts the crash, drains the transfer ring the corpse
//! fed, bumps the checkpoint generation, and respawns the worker, which
//! resumes the *same seeded op stream* from the checkpoint with the
//! corpse's churn ports re-homed to it. Three mechanisms make the
//! re-run safe:
//!
//! * **Idempotent RPC retry** — every workload RPC goes through
//!   [`DispatchTable::msg_rpc_retry`] with a generation-qualified
//!   sequence number, so a reply lost to a fault-injected drop is
//!   answered from the [`ReplyCache`] without re-executing the handler
//!   or moving the §10 ledger twice.
//! * **Torn-section repair** — each supervised op briefly holds the
//!   engine's scratch [`RawSimpleLock`] and bumps a counter twice
//!   (even → even). A worker killed mid-hold leaves the count odd, but
//!   its guard still releases the lock on unwind (never held forever):
//!   the next acquirer reads the odd parity and repairs it under its
//!   own guard. The data's value is the diagnosis; the lock carries no
//!   flag.
//! * **Ledger reconciliation** — whatever a dead incarnation leaked
//!   (a task created after its last checkpoint, a name abandoned by
//!   retry exhaustion) is still published at teardown; the engine
//!   drains the namespace, destroys the orphans, and repairs the
//!   object ledger in one audited
//!   [`ShardedRefCount::reconcile_crash`] pass. An orphan's create
//!   *count* rolled back with the dead incarnation's tally, so the
//!   counted books still balance as `creates == terminates`, while
//!   [`EngineReport::reconciled`] counts exactly the uncounted
//!   orphans — and the final audit is still exactly the creation
//!   reference.
//!
//! ## Overload shedding
//!
//! Degradation is graceful and *accounted*: when the transfer ring sits
//! at or above its watermark (3/4 of [`EngineConfig::transfer_limit`]),
//! workers shed **pings** — the cheap, retryable traffic class — and
//! count them in [`EngineReport::shed`], while creates, terminates, and
//! transfers still land. [`EngineConfig::burst_every`]/`burst_len`
//! carve periodic windows of forced transfers with draining suspended,
//! driving the ring to the watermark on demand (the E20 overload
//! probe). Shedding never consumes extra decision-stream draws, so the
//! create/terminate/transfer mix stays a pure function of the seed even
//! when the shed count is schedule-dependent.
//!
//! Without bursts a storm still sheds when a worker is preempted
//! between claiming a transfer-ring slot and publishing it: the drain
//! stops at the unpublished slot while the other workers keep filling
//! the ring behind it, up to the watermark. With more workers than
//! hardware threads that happens in some runs and not others. A
//! single-worker storm drains its own transfers and never sheds; in
//! any storm, pings landed plus pings shed is fixed by the seed.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use machk_core::sync::probe::{self, EventKind, FaultSite, LockClass, Tag};
use machk_core::sync::{host, CachePadded};
use machk_core::{Kobj, ObjRef, RawSimpleLock, ShardedRefCount};

use crate::message::Message;
use crate::namespace::{PortName, PortNameSpace};
use crate::port::{Port, PortError};
use crate::rpc::{DispatchTable, KernError, RefSemantics, ReplyCache, RpcError, RpcStats};

/// Echo RPC against a task object: the engine's hot path.
pub const OP_PING: u32 = 0x1901;
/// Create a task object, publish its port in the namespace.
pub const OP_TASK_CREATE: u32 = 0x1902;
/// Unpublish + destroy a task port (the dead-port churn source).
pub const OP_TASK_TERMINATE: u32 = 0x1903;

/// A task object served by the engine (the represented kernel object
/// of §10). Deliberately stateless: `OP_PING` takes no object lock, so
/// pings contend only on the shard locks and the port rings — which is
/// the point of the measurement.
struct EngineTask;
type Task = Kobj<EngineTask>;

/// The engine's control object: `OP_TASK_CREATE`/`OP_TASK_TERMINATE`
/// are RPCs against this server's port. Handlers capture the shared
/// namespace and ledger; the server object itself stays lock-free.
struct EngineServer;
type Server = Kobj<EngineServer>;

/// Where within an operation a scheduled kill fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// At the top of the op, after the checkpoint and before any RPC
    /// (the checkpoint is consistent; nothing leaks).
    OpStart,
    /// After a create RPC's reply arrives but *before* the worker
    /// records the new name anywhere a survivor can see — the name and
    /// its object-ledger reference leak, and teardown reconciliation
    /// must repair both.
    AfterCreate,
    /// Inside the scratch-lock critical section with the parity
    /// invariant torn — the lock is released on unwind and the next
    /// acquirer repairs the odd parity.
    Holding,
}

/// A scheduled worker kill for supervised storms: worker `worker` dies
/// at the first opportunity of kind [`kind`](CrashKind) at or after op
/// `op` — and only in its **first incarnation**, so a scheduled crash
/// can never livelock the supervisor with an eternal restart loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Victim worker index.
    pub worker: usize,
    /// Earliest op index at which the kill may fire.
    pub op: usize,
    /// Where within the op it fires.
    pub kind: CrashKind,
}

/// Storm shape. All fields are plain data so a config embeds in
/// experiment JSON and replays exactly.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (the "cores" of thread-per-core).
    pub workers: usize,
    /// Operations per worker (ops are mixed per `percent_*` below).
    pub ops_per_worker: usize,
    /// Namespace shards ([`PortNameSpace::with_shards`]); 1 = the
    /// single-lock baseline.
    pub shards: usize,
    /// Pre-published stable ping targets.
    pub stable_ports: usize,
    /// Ring limit of the shared transfer port. The shedding watermark
    /// is 3/4 of this.
    pub transfer_limit: usize,
    /// Batch-drain the transfer ring every this many operations.
    pub drain_every: usize,
    /// Workload seed; worker `w` streams from `mix(seed, w)`.
    pub seed: u64,
    /// Reference-disposition convention for every RPC.
    pub semantics: RefSemantics,
    /// Modeled per-namespace-op critical-section cost (virtual ns,
    /// `machk-sim` only; see [`PortNameSpace::with_shards_modeled`]).
    pub ns_cs_work_ns: u64,
    /// Scheduled worker kills (tests and the E20 storm). Non-empty
    /// switches the storm into supervised mode.
    pub crash_at: Vec<CrashPoint>,
    /// Overload-burst period in ops (0 = no bursts). Within each
    /// period the first [`burst_len`](EngineConfig::burst_len) ops are
    /// forced transfers with draining suspended, pushing the ring
    /// toward its limit so shedding engages.
    pub burst_every: usize,
    /// Ops per burst window (must be < `burst_every` when bursting).
    pub burst_len: usize,
    /// Per-RPC retry deadline in host-clock nanoseconds (the budget
    /// [`DispatchTable::msg_rpc_retry`] spends on transport-class
    /// failures before abandoning the op to teardown reconciliation).
    pub rpc_deadline_ns: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            ops_per_worker: 10_000,
            shards: crate::namespace::DEFAULT_SHARDS,
            stable_ports: 64,
            transfer_limit: 256,
            drain_every: 32,
            seed: 0x1991_0715,
            semantics: RefSemantics::Mach30,
            ns_cs_work_ns: 0,
            crash_at: Vec::new(),
            burst_every: 0,
            burst_len: 0,
            rpc_deadline_ns: 50_000_000,
        }
    }
}

impl EngineConfig {
    /// Whether a first-incarnation worker is due a scheduled kill of
    /// `kind` at this op.
    fn crash_due(&self, worker: usize, op: usize, kind: CrashKind) -> bool {
        self.crash_at
            .iter()
            .any(|c| c.worker == worker && op >= c.op && c.kind == kind)
    }

    /// Ring occupancy at which pings are shed (at least 1 so an empty
    /// ring never sheds).
    fn shed_watermark(&self) -> usize {
        (self.transfer_limit.saturating_mul(3) / 4).max(1)
    }
}

/// What a storm did. Counter sums and both ledgers are reproducible on
/// any host; `digest` is additionally byte-stable under `machk-sim`
/// replay (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineReport {
    /// RPCs dispatched through [`DispatchTable::msg_rpc`]
    /// (pings + creates + terminates + dead-port probes).
    pub rpcs: u64,
    /// `OP_PING` round-trips.
    pub pings: u64,
    /// Tasks created (and published).
    pub creates: u64,
    /// Tasks terminated (and unpublished).
    pub terminates: u64,
    /// RPCs deliberately fired at dead/unpublished ports that came back
    /// with the expected typed error.
    pub dead_hits: u64,
    /// Rights moved through the transfer ring.
    pub transfers: u64,
    /// Transfer sends refused by a full ring (right released locally).
    pub transfer_full: u64,
    /// Messages batch-drained from the transfer ring.
    pub drained: u64,
    /// Pings shed by overload control at the ring watermark (counted,
    /// never silent).
    pub shed: u64,
    /// Worker incarnations killed and recovered by the supervisor.
    pub crashes: u64,
    /// Churn ports restarted incarnations inherited from their corpses.
    pub rehomed_ports: u64,
    /// Orphaned names (and their object-ledger references) repaired by
    /// the teardown [`ShardedRefCount::reconcile_crash`] pass.
    pub reconciled: u64,
    /// Torn scratch invariants repaired by the next acquirer, under its
    /// own guard. Counted outside the checkpointed tallies, so a
    /// repairer that dies later in the same op still counts its repair.
    pub scratch_repairs: u64,
    /// Holding kills that tore the scratch invariant. Every completed
    /// storm repairs each exactly once (`scratch_repairs ==
    /// torn_sections`), so the fingerprint carries it through
    /// `scratch_repairs`.
    pub torn_sections: u64,
    /// RPC retries that followed a dropped reply or dead-port race.
    pub retries: u64,
    /// RPCs whose retry deadline expired (op abandoned; any leaked
    /// state lands in `reconciled`).
    pub retry_exhausted: u64,
    /// Scratch-lock acquisitions abandoned on deadline.
    pub lock_timeouts: u64,
    /// Wall/virtual time of the storm, from [`host::now`].
    pub elapsed_ns: u64,
    /// Total supervisor recovery time across all crashes (host-clock
    /// ns; excluded from the replay fingerprint, like `elapsed_ns`).
    pub recovery_ns_total: u64,
    /// Longest single recovery (host-clock ns; fingerprint-excluded).
    pub recovery_ns_max: u64,
    /// Order-insensitive checksum over every reply payload.
    pub digest: u64,
    /// Every `RpcStats` translation ledger (one per worker, one for the
    /// teardown) balanced at quiescence.
    pub rpc_balanced: bool,
    /// Object-ledger audit result (must be 1: only the creation
    /// reference outlives the storm, even after crash reconciliation).
    pub ledger_total: u64,
}

impl EngineReport {
    /// Fold the whole report into one word — the replay fingerprint the
    /// E19/E20 determinism probes compare byte-for-byte. Time-valued
    /// fields (`elapsed_ns`, `recovery_ns_*`) are excluded; everything
    /// else, including the crash-survival counters, must replay.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for v in [
            self.rpcs,
            self.pings,
            self.creates,
            self.terminates,
            self.dead_hits,
            self.transfers,
            self.transfer_full,
            self.drained,
            self.shed,
            self.crashes,
            self.rehomed_ports,
            self.reconciled,
            self.scratch_repairs,
            self.retries,
            self.retry_exhausted,
            self.lock_timeouts,
            self.digest,
            self.ledger_total,
            u64::from(self.rpc_balanced),
        ] {
            h = (h ^ v).wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// SplitMix64: the workload's per-worker decision stream. Tiny, seeded,
/// and dependency-free; its whole state is one word, so a checkpoint
/// captures it exactly and a restarted incarnation resumes the same
/// stream mid-flight.
struct Mix(u64);

impl Mix {
    fn new(seed: u64, worker: usize) -> Mix {
        // Decorrelate workers: golden-ratio offset per worker index.
        Mix(seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Per-worker tallies, merged order-insensitively at join. `Copy` so a
/// checkpoint snapshots one by plain assignment: a crashed
/// incarnation's progress since its last checkpoint is deliberately
/// discarded (the resumed incarnation re-runs and re-counts those ops
/// exactly once).
#[derive(Clone, Copy, Default)]
struct WorkerTally {
    rpcs: u64,
    pings: u64,
    creates: u64,
    terminates: u64,
    dead_hits: u64,
    transfers: u64,
    transfer_full: u64,
    drained: u64,
    shed: u64,
    rehomed: u64,
    retries: u64,
    retry_exhausted: u64,
    lock_timeouts: u64,
    digest: u64,
}

/// A worker's last consistent state, written at the top of every op in
/// supervised storms (and never touched otherwise). A restarted
/// incarnation resumes from here; the ops between the checkpoint and
/// the crash re-run, and the generation-qualified idempotent sequence
/// numbers keep those re-runs from double-moving the §10 ledgers.
///
/// The supervisor owns one per worker for the whole storm and lends it
/// to each incarnation, which rewrites it in place ([`Checkpoint::record`]):
/// no lock and no allocation per op.
#[derive(Default)]
struct Checkpoint {
    next_op: usize,
    mix: u64,
    seq: u64,
    generation: u32,
    tally: WorkerTally,
    churn: Vec<PortName>,
}

impl Checkpoint {
    /// Overwrite the op-top state. The churn copy reuses the buffer, so
    /// it allocates only when the churn list outgrows every earlier one.
    fn record(&mut self, op: usize, mix: u64, seq: u64, tally: WorkerTally, churn: &[PortName]) {
        self.next_op = op;
        self.mix = mix;
        self.seq = seq;
        self.tally = tally;
        self.churn.clear();
        self.churn.extend_from_slice(churn);
    }
}

/// Everything a worker incarnation touches, bundled so the supervisor
/// can hand identical state to a restart.
struct Shared {
    cfg: EngineConfig,
    ns: Arc<PortNameSpace>,
    table: Arc<DispatchTable>,
    /// The §10 ledgers: one per worker index, shared by its
    /// incarnations, then one for the teardown terminates.
    stats: Box<[CachePadded<RpcStats>]>,
    server_port: ObjRef<Port>,
    transfer: ObjRef<Port>,
    stable: Arc<Vec<PortName>>,
    /// Idempotent-retry reply cache shared by every incarnation.
    cache: ReplyCache,
    /// The crash-survival drill ground: a lock a worker can die
    /// holding, plus the invariant (`scratch` is even outside any
    /// hold) that the tear/repair drill restores.
    scratch_lock: RawSimpleLock,
    scratch: AtomicU64,
    /// Holding kills (each leaves `scratch` odd) and repairs (each
    /// makes it even again); both change only under `scratch_lock`.
    tears: AtomicU64,
    repairs: AtomicU64,
    supervised: bool,
}

/// Hard cap on supervisor restart rounds: far above any seeded plan's
/// realistic crash count, so hitting it means the storm is livelocked
/// (e.g. a plan that kills every incarnation deterministically).
const MAX_SUPERVISION_ROUNDS: usize = 64;

/// Sequence-number space: worker index and generation qualify the
/// per-incarnation counter so no two incarnations (or the teardown
/// path) can collide in the reply cache.
fn seq_key(index: usize, generation: u32, seq: u64) -> u64 {
    ((index as u64 & 0xFFFF) << 48) | ((u64::from(generation) & 0xFFFF) << 32) | (seq & 0xFFFF_FFFF)
}

/// A worker incarnation's end: its cumulative tally, or the panic that
/// killed it.
type Outcome = Result<WorkerTally, Box<dyn std::any::Any + Send>>;

/// Reserved `seq_key` index for the teardown terminates (no worker can
/// use it: `Engine::new` caps `workers` below this).
const TEARDOWN_INDEX: usize = 0xFFFF;

/// Whether the installed fault plan can kill workers (armed
/// `worker_crash` / `worker_crash_holding` sites) — one of the two
/// triggers for supervised mode.
fn crash_sites_armed() -> bool {
    probe::may_fire(FaultSite::WorkerCrash) || probe::may_fire(FaultSite::WorkerCrashHolding)
}

thread_local! {
    /// Set while a supervised worker body runs: its injected-kill
    /// panics are *expected*, so the default panic banner is suppressed
    /// for that thread (the supervisor still receives the payload via
    /// `catch_unwind`; genuine bugs in unsupervised storms keep the
    /// banner and are re-thrown).
    static EXPECTED_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Chain a quiet filter in front of whatever panic hook is installed.
/// Installed once per process, only when a supervised storm first runs,
/// so unsupervised processes never touch the hook at all.
fn install_quiet_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !EXPECTED_PANICS.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Trace one completed dispatch-loop batch (`probe` feature): the
/// `EngineBatch` event under the shared `ipc.engine.loop` name, `arg`
/// = operations dispatched since the previous drain point. Workers are
/// distinguished downstream by the per-thread tag every event carries.
#[inline]
fn probe_engine_batch(ops: u64) {
    static TAG: Tag = Tag::new("ipc.engine.loop", LockClass::Other, "engine");
    TAG.event(EventKind::EngineBatch, ops);
}

/// The engine: shared state plus the dispatch table. Build one with
/// [`Engine::new`], fire storms with [`Engine::run`].
///
/// # Examples
///
/// ```
/// use machk_ipc::engine::{Engine, EngineConfig};
///
/// let report = Engine::new(EngineConfig {
///     workers: 2,
///     ops_per_worker: 2_000,
///     ..EngineConfig::default()
/// })
/// .run();
/// assert!(report.rpc_balanced);
/// assert_eq!(report.ledger_total, 1, "object ledger balanced");
/// assert!(report.dead_hits > 0, "dead-port churn exercised");
/// ```
///
/// Surviving a scheduled mid-storm worker kill:
///
/// ```
/// use machk_ipc::engine::{CrashKind, CrashPoint, Engine, EngineConfig};
///
/// let report = Engine::new(EngineConfig {
///     workers: 2,
///     ops_per_worker: 2_000,
///     crash_at: vec![CrashPoint { worker: 1, op: 500, kind: CrashKind::OpStart }],
///     ..EngineConfig::default()
/// })
/// .run();
/// assert_eq!(report.crashes, 1, "the kill fired and was recovered");
/// assert_eq!(report.ledger_total, 1, "ledger balanced after recovery");
/// assert_eq!(report.creates, report.terminates, "counted books balance");
/// ```
pub struct Engine {
    cfg: EngineConfig,
    ns: Arc<PortNameSpace>,
    table: Arc<DispatchTable>,
    ledger: Arc<ShardedRefCount>,
    server_port: ObjRef<Port>,
    transfer: ObjRef<Port>,
    stable: Arc<Vec<PortName>>,
}

impl Engine {
    /// Build the engine: publish the stable ping targets, the server
    /// port, and the transfer port; register the three operations.
    // lint: ref-transfer — each ledger take is owned by a live engine
    // object; terminate ops release them and `run`'s teardown audits
    // the ledger drained to zero (`drain_audit`).
    pub fn new(cfg: EngineConfig) -> Engine {
        assert!(cfg.workers >= 1, "at least one worker");
        assert!(
            cfg.workers < TEARDOWN_INDEX,
            "worker count exceeds the seq-key space"
        );
        assert!(cfg.stable_ports >= 1, "at least one ping target");
        assert!(cfg.drain_every >= 1, "drain_every must be at least 1");
        assert!(
            cfg.burst_every == 0 || cfg.burst_len < cfg.burst_every,
            "burst windows must fit their period"
        );
        for c in &cfg.crash_at {
            assert!(c.worker < cfg.workers, "crash point targets a real worker");
            assert!(
                c.op < cfg.ops_per_worker,
                "crash point lands inside the storm"
            );
        }
        let ns = Arc::new(PortNameSpace::with_shards_modeled(
            cfg.shards,
            cfg.ns_cs_work_ns,
        ));
        // The object ledger: one reference per live engine-created
        // object (stable tasks + churn tasks), audited at storm end.
        let ledger = Arc::new(ShardedRefCount::named("ipc.engine.ledger"));

        let stable: Vec<PortName> = (0..cfg.stable_ports)
            .map(|_| {
                let task = Kobj::create(EngineTask);
                let port = Port::create();
                port.set_kernel_object(task.into_dyn());
                ledger.take();
                ns.insert(port)
            })
            .collect();

        let server = Kobj::create(EngineServer);
        let server_port = Port::create();
        server_port.set_kernel_object(server.into_dyn());
        let transfer = Port::create_with_limit(cfg.transfer_limit.max(1));

        let mut table = DispatchTable::new();
        table.register::<Task>(OP_PING, |task, msg| {
            let nonce = msg.int_at(0).ok_or(KernError::InvalidArgument)?;
            // Stateless echo: no object lock on the hot path (see the
            // EngineTask docs) and no schedule-dependent inputs, so the
            // reply is a pure function of the request.
            if !task.is_active() {
                return Err(KernError::Deactivated);
            }
            Ok(Message::new(OP_PING).with_int(nonce ^ 0xABCD))
        });
        {
            let ns = Arc::clone(&ns);
            let ledger = Arc::clone(&ledger);
            table.register::<Server>(OP_TASK_CREATE, move |_srv, msg| {
                // The id is workload payload: validated, then unused by
                // the stateless task (see EngineTask).
                msg.int_at(0).ok_or(KernError::InvalidArgument)?;
                let task = Kobj::create(EngineTask);
                let port = Port::create();
                port.set_kernel_object(task.into_dyn());
                ledger.take();
                let name = ns.insert(port);
                Ok(Message::new(OP_TASK_CREATE).with_int(u64::from(name.0)))
            });
        }
        {
            let ns = Arc::clone(&ns);
            let ledger = Arc::clone(&ledger);
            table.register::<Server>(OP_TASK_TERMINATE, move |_srv, msg| {
                let raw = msg.int_at(0).ok_or(KernError::InvalidArgument)?;
                let name = PortName(u32::try_from(raw).map_err(|_| KernError::InvalidArgument)?);
                let port = ns.remove(name).ok_or(KernError::NotFound)?;
                // Shutdown order of §10: disable translation first, then
                // kill the port; release the removed pieces outside any
                // shard lock (we already are outside it).
                let obj = port.clear_kernel_object();
                let _ = port.destroy();
                drop(obj);
                drop(port);
                let final_release = ledger.release();
                debug_assert!(!final_release, "creation reference outlives the storm");
                Ok(Message::new(OP_TASK_TERMINATE).with_int(raw))
            });
        }

        Engine {
            cfg,
            ns,
            table: Arc::new(table),
            ledger,
            server_port,
            transfer,
            stable: Arc::new(stable),
        }
    }

    /// The namespace the storm publishes into (diagnostics and tests).
    pub fn namespace(&self) -> &PortNameSpace {
        &self.ns
    }

    /// The supervised storms' tear/repair drill: briefly hold the
    /// scratch lock and bump the counter twice (even → even). A
    /// [`CrashKind::Holding`] kill panics between the bumps, leaving
    /// the count odd; the guard still releases on unwind, and whoever
    /// acquires next reads the odd parity and repairs it under its own
    /// guard. Validation is by value, so racing acquirers serialize on
    /// the lock and exactly one of them sees the tear.
    fn scratch_section(
        shared: &Shared,
        index: usize,
        op: usize,
        generation: u32,
        t: &mut WorkerTally,
        limit: Duration,
    ) {
        let Ok(_guard) = shared.scratch_lock.lock_with_deadline(limit) else {
            t.lock_timeouts += 1;
            return;
        };
        // relaxed: mutated only under scratch_lock; the guard's
        // acquire/release ordering publishes every store.
        let v = shared.scratch.load(Ordering::Relaxed);
        if v & 1 == 1 {
            // A holder died mid-section: the tear is ours to repair.
            // relaxed: under scratch_lock, see above.
            shared.scratch.store(v + 1, Ordering::Relaxed);
            // relaxed: under scratch_lock, see above.
            shared.repairs.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // relaxed: under scratch_lock, see above.
        shared.scratch.store(v + 1, Ordering::Relaxed);
        if generation == 0 && shared.cfg.crash_due(index, op, CrashKind::Holding) {
            // relaxed: under scratch_lock, see above.
            shared.tears.fetch_add(1, Ordering::Relaxed);
            panic!("injected crash: worker {index} at op {op} (holding scratch lock)");
        }
        if probe::fire(FaultSite::WorkerCrashHolding) {
            // relaxed: under scratch_lock, see above.
            shared.tears.fetch_add(1, Ordering::Relaxed);
            panic!("injected crash: worker {index} at op {op} (seeded, holding scratch lock)");
        }
        // relaxed: under scratch_lock, see above.
        shared.scratch.store(v + 2, Ordering::Relaxed);
    }

    /// One worker *incarnation*: resume the seeded op stream from `cp`
    /// and run it to completion, rewriting `cp` at every op top when
    /// supervised. Returns the cumulative tally (inherited through the
    /// checkpoint across restarts).
    fn worker_resume(shared: &Shared, index: usize, cp: &mut Checkpoint) -> WorkerTally {
        let cfg = &shared.cfg;
        let stats = &shared.stats[index];
        let generation = cp.generation;
        // Each incarnation declares a fresh fault role: replaying the
        // dead incarnation's decision stream would kill every restart
        // at the same op, forever.
        probe::set_role(generation.wrapping_mul(cfg.workers as u32) + index as u32);

        let mut mix = Mix(cp.mix);
        let mut t = cp.tally;
        let mut churn = cp.churn.clone();
        let mut seq = cp.seq;
        if generation > 0 {
            // The corpse's live tasks, re-homed to this incarnation.
            t.rehomed += churn.len() as u64;
        }
        let deadline = Duration::from_nanos(cfg.rpc_deadline_ns.max(1));
        let watermark = cfg.shed_watermark();
        let mut batch: Vec<Message> = Vec::with_capacity(cfg.drain_every);

        for op in cp.next_op..cfg.ops_per_worker {
            if shared.supervised {
                cp.record(op, mix.0, seq, t, &churn);
                if generation == 0 && cfg.crash_due(index, op, CrashKind::OpStart) {
                    panic!("injected crash: worker {index} at op {op} (op start)");
                }
                if probe::fire(FaultSite::WorkerCrash) {
                    panic!("injected crash: worker {index} at op {op} (seeded)");
                }
                Self::scratch_section(shared, index, op, generation, &mut t, deadline);
            }

            let bursting = cfg.burst_every > 0 && op % cfg.burst_every < cfg.burst_len;
            let roll = if bursting { 95 } else { mix.next() % 100 };
            if roll < 70 {
                // Ping: translate a stable name, RPC against its task.
                // The decision draws happen *before* the shed check so
                // the op mix stays a pure function of the seed whether
                // or not overload control engages.
                let name = shared.stable[(mix.next() as usize) % shared.stable.len()];
                let nonce = mix.next();
                if shared.transfer.queued() >= watermark {
                    // Overload: shed the cheap, retryable class —
                    // counted, never silent — so terminates and
                    // transfers still land.
                    t.shed += 1;
                } else {
                    let port = shared
                        .ns
                        .translate(name)
                        .expect("stable names stay published");
                    seq += 1;
                    match shared.table.msg_rpc_retry(
                        &port,
                        || Message::new(OP_PING).with_int(nonce),
                        cfg.semantics,
                        stats,
                        seq_key(index, generation, seq),
                        &shared.cache,
                        deadline,
                    ) {
                        Ok((reply, retried)) => {
                            t.rpcs += 1;
                            t.pings += 1;
                            t.retries += u64::from(retried);
                            t.digest = t
                                .digest
                                .wrapping_add(reply.int_at(0).unwrap_or(0) ^ nonce.rotate_left(17));
                        }
                        Err(_) => t.retry_exhausted += 1,
                    }
                }
            } else if roll < 80 {
                // Task create through the server RPC.
                let id = mix.next();
                seq += 1;
                match shared.table.msg_rpc_retry(
                    &shared.server_port,
                    || Message::new(OP_TASK_CREATE).with_int(id),
                    cfg.semantics,
                    stats,
                    seq_key(index, generation, seq),
                    &shared.cache,
                    deadline,
                ) {
                    Ok((reply, retried)) => {
                        t.rpcs += 1;
                        t.creates += 1;
                        t.retries += u64::from(retried);
                        let name =
                            PortName(reply.int_at(0).expect("create returns the name") as u32);
                        if shared.supervised {
                            // The AfterCreate window: the task is
                            // published and holds a ledger reference,
                            // but the name is recorded nowhere a
                            // survivor can see. Dying here leaks both;
                            // teardown reconciliation repairs them.
                            if generation == 0 && cfg.crash_due(index, op, CrashKind::AfterCreate) {
                                panic!("injected crash: worker {index} at op {op} (after create)");
                            }
                            if probe::fire(FaultSite::WorkerCrash) {
                                panic!(
                                    "injected crash: worker {index} at op {op} (seeded, after create)"
                                );
                            }
                        }
                        t.digest = t.digest.wrapping_add(u64::from(name.0).rotate_left(29));
                        churn.push(name);
                    }
                    // Retry budget spent; if the create executed with
                    // its reply lost, the orphan name is reconciled at
                    // teardown.
                    Err(_) => t.retry_exhausted += 1,
                }
            } else if roll < 90 {
                // Terminate one of ours, then probe the dead name/port.
                if let Some(name) = churn.pop() {
                    // Keep a right across termination so the dead-port
                    // probe targets the *destroyed port*, not a recycled
                    // name.
                    let doomed = shared
                        .ns
                        .translate(name)
                        .expect("our churn name is published");
                    seq += 1;
                    match shared.table.msg_rpc_retry(
                        &shared.server_port,
                        || Message::new(OP_TASK_TERMINATE).with_int(u64::from(name.0)),
                        cfg.semantics,
                        stats,
                        seq_key(index, generation, seq),
                        &shared.cache,
                        deadline,
                    ) {
                        Ok((_reply, retried)) => {
                            t.rpcs += 1;
                            t.terminates += 1;
                            t.retries += u64::from(retried);
                            // Dead-port churn: the engine must observe
                            // the typed §10 failure, never a stale
                            // translation. (Plain dispatch: an expected
                            // failure is not retried.)
                            let err = shared
                                .table
                                .msg_rpc(
                                    &doomed,
                                    Message::new(OP_PING).with_int(1),
                                    cfg.semantics,
                                    stats,
                                )
                                .expect_err("RPC at a destroyed port must fail");
                            t.rpcs += 1;
                            match err {
                                RpcError::Port(PortError::NotAnObjectPort)
                                | RpcError::Port(PortError::Dead)
                                | RpcError::Operation(KernError::Deactivated) => t.dead_hits += 1,
                                other => panic!("unexpected dead-port error: {other:?}"),
                            }
                            assert!(
                                shared.ns.translate(name).is_none(),
                                "terminated name must not resolve"
                            );
                            t.digest = t.digest.wrapping_add(u64::from(name.0).rotate_left(43));
                        }
                        Err(_) => {
                            // Retry budget spent. If the terminate
                            // actually executed (its reply was lost on
                            // the last attempt) the name is gone;
                            // otherwise keep it for quiesce.
                            t.retry_exhausted += 1;
                            if shared.ns.translate(name).is_some() {
                                churn.push(name);
                            } else {
                                t.terminates += 1;
                            }
                        }
                    }
                }
            } else {
                // Port transfer: move a translated right through the
                // shared ring (lock-free MPSC path under concurrency).
                let name = shared.stable[(mix.next() as usize) % shared.stable.len()];
                if let Some(right) = shared.ns.translate(name) {
                    match shared
                        .transfer
                        .try_send(Message::new(0).with_port_right(right))
                    {
                        Ok(()) => t.transfers += 1,
                        // Full ring: right released with the returned
                        // message. (The transfer port is never destroyed
                        // mid-storm, so the None case cannot occur here.)
                        Err((_msg, _full)) => t.transfer_full += 1,
                    }
                }
            }

            // Drains pause inside a burst window: the point of a burst
            // is to hold the ring at the watermark so shedding engages.
            if !bursting && op % cfg.drain_every == cfg.drain_every - 1 {
                batch.clear();
                if let Ok(n) = shared.transfer.receive_batch(&mut batch, cfg.drain_every) {
                    t.drained += n as u64;
                }
                batch.clear(); // rights released in bulk
                probe_engine_batch(cfg.drain_every as u64);
            }
        }

        // Quiesce: terminate every task this worker still owns so the
        // object ledger can balance. Checkpointed per iteration so a
        // crash *during* quiesce resumes without re-terminating a name
        // that already died.
        while let Some(name) = churn.last().copied() {
            if shared.supervised {
                cp.record(cfg.ops_per_worker, mix.0, seq, t, &churn);
            }
            seq += 1;
            match shared.table.msg_rpc_retry(
                &shared.server_port,
                || Message::new(OP_TASK_TERMINATE).with_int(u64::from(name.0)),
                cfg.semantics,
                stats,
                seq_key(index, generation, seq),
                &shared.cache,
                deadline,
            ) {
                Ok((_reply, retried)) => {
                    t.rpcs += 1;
                    t.terminates += 1;
                    t.retries += u64::from(retried);
                }
                Err(_) => {
                    t.retry_exhausted += 1;
                    if shared.ns.translate(name).is_none() {
                        // Executed, reply lost: the task is gone.
                        t.terminates += 1;
                    }
                    // Otherwise abandoned: teardown reconciliation
                    // repairs the orphan.
                }
            }
            churn.pop();
        }
        t
    }

    /// One supervised (or plain) execution of a worker body: panics are
    /// caught and returned so the supervisor can distinguish a finished
    /// tally from a corpse.
    ///
    /// `AssertUnwindSafe` holds because an unwound incarnation is
    /// *discarded wholesale*: the supervisor restarts from the
    /// checkpoint (the last pre-op consistent state) and every shared
    /// structure the corpse touched is either lock-free, internally
    /// consistent under its own locks, or — for the scratch section —
    /// validated by value (an odd count is a tear to repair).
    fn worker_body(shared: &Shared, index: usize, cp: &mut Checkpoint) -> Outcome {
        if shared.supervised {
            EXPECTED_PANICS.with(|s| s.set(true));
        }
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| Self::worker_resume(shared, index, cp)));
        EXPECTED_PANICS.with(|s| s.set(false));
        outcome
    }

    /// Run one storm: spawn the workers under supervision, restart any
    /// that crash from their checkpoints, drain the transfer ring, tear
    /// down the stable ports, reconcile whatever crashed incarnations
    /// leaked, and audit both ledgers.
    ///
    /// Consumes the engine: a storm ends with the namespace drained and
    /// every engine object released, so the ledgers can be audited —
    /// build a fresh engine per storm.
    pub fn run(self) -> EngineReport {
        let start = host::now();
        let supervised = !self.cfg.crash_at.is_empty() || crash_sites_armed();
        if supervised {
            install_quiet_panic_hook();
        }
        let workers = self.cfg.workers;
        let shared = Arc::new(Shared {
            cfg: self.cfg.clone(),
            ns: Arc::clone(&self.ns),
            table: Arc::clone(&self.table),
            stats: (0..=workers).map(|_| CachePadded::default()).collect(),
            server_port: self.server_port.clone(),
            transfer: self.transfer.clone(),
            stable: Arc::clone(&self.stable),
            cache: ReplyCache::new(),
            scratch_lock: RawSimpleLock::named("ipc.engine.scratch"),
            scratch: AtomicU64::new(0),
            tears: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            supervised,
        });
        let mut checkpoints: Vec<Checkpoint> = (0..workers)
            .map(|w| Checkpoint {
                mix: Mix::new(self.cfg.seed, w).0,
                ..Checkpoint::default()
            })
            .collect();

        let mut tallies: Vec<WorkerTally> = Vec::with_capacity(workers);
        let mut crashes = 0u64;
        let mut drained_recovery = 0u64;
        let mut recovery_ns_total = 0u64;
        let mut recovery_ns_max = 0u64;
        let mut pending: Vec<usize> = (0..workers).collect();
        let mut rounds = 0usize;
        while !pending.is_empty() {
            rounds += 1;
            assert!(
                rounds <= MAX_SUPERVISION_ROUNDS,
                "supervision livelock: workers still dying after {MAX_SUPERVISION_ROUNDS} restart rounds"
            );
            let outcomes: Vec<(usize, Outcome)> = if workers == 1 {
                // Run inline: keeps single-worker storms usable from any
                // context (no spawn permission needed under exotic
                // hosts); the supervisor loop recovers inline crashes
                // the same way.
                vec![(0, Self::worker_body(&shared, 0, &mut checkpoints[0]))]
            } else {
                // A spawned incarnation takes its checkpoint with it and
                // hands it back beside its outcome.
                type Handoff = Arc<Mutex<Option<(Checkpoint, Outcome)>>>;
                let handles: Vec<_> = pending
                    .iter()
                    .map(|&w| {
                        let shared = Arc::clone(&shared);
                        let mut cp = std::mem::take(&mut checkpoints[w]);
                        let out: Handoff = Arc::new(Mutex::new(None));
                        let res = Arc::clone(&out);
                        let token = host::spawn(move || {
                            let outcome = Self::worker_body(&shared, w, &mut cp);
                            *res.lock().unwrap() = Some((cp, outcome));
                        });
                        (w, token, out)
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|(w, token, out)| {
                        host::join(token);
                        let (cp, outcome) = out
                            .lock()
                            .unwrap()
                            .take()
                            .expect("joined worker left no outcome");
                        checkpoints[w] = cp;
                        (w, outcome)
                    })
                    .collect()
            };
            let mut respawn: Vec<usize> = Vec::new();
            for (w, outcome) in outcomes {
                match outcome {
                    Ok(tally) => tallies.push(tally),
                    Err(payload) => {
                        if !supervised {
                            // A genuine bug, not an injected kill:
                            // preserve the old propagation semantics.
                            std::panic::resume_unwind(payload);
                        }
                        drop(payload);
                        crashes += 1;
                        let t0 = host::now();
                        // Recovery step 1: drain the ring the corpse
                        // fed — its in-flight rights must not pin the
                        // storm at the watermark forever.
                        let mut batch = Vec::new();
                        while let Ok(n) = shared.transfer.receive_batch(&mut batch, 64) {
                            if n == 0 {
                                break;
                            }
                            drained_recovery += n as u64;
                            batch.clear();
                        }
                        // Recovery step 2: the corpse's checkpoint is
                        // its last consistent state — bump the
                        // generation (fresh fault role, fresh seq-key
                        // space) and respawn; the restart re-homes the
                        // corpse's churn ports to itself.
                        checkpoints[w].generation += 1;
                        let dt = host::now().saturating_sub(t0);
                        recovery_ns_total += dt;
                        recovery_ns_max = recovery_ns_max.max(dt);
                        respawn.push(w);
                    }
                }
            }
            pending = respawn;
        }

        // Quiesce the transfer ring: release every in-flight right.
        let mut drained_tail = drained_recovery;
        let mut batch = Vec::new();
        while let Ok(n) = self.transfer.receive_batch(&mut batch, 64) {
            if n == 0 {
                break;
            }
            drained_tail += n as u64;
            batch.clear();
        }

        // Tear down the stable targets through the same terminate path,
        // idempotently: a teardown reply lost to an armed drop plan
        // must not wedge the audit.
        let mut rpcs_teardown = 0u64;
        let mut retries_teardown = 0u64;
        let deadline = Duration::from_nanos(self.cfg.rpc_deadline_ns.max(1));
        for (i, name) in self.stable.iter().enumerate() {
            // On failure the RPC is abandoned: the name is still
            // published (or not) and the reconciliation pass below
            // settles it either way.
            if let Ok((_reply, retried)) = self.table.msg_rpc_retry(
                &self.server_port,
                || Message::new(OP_TASK_TERMINATE).with_int(u64::from(name.0)),
                self.cfg.semantics,
                &shared.stats[workers],
                seq_key(TEARDOWN_INDEX, 0, i as u64),
                &shared.cache,
                deadline,
            ) {
                rpcs_teardown += 1;
                retries_teardown += u64::from(retried);
            }
        }

        // Crash reconciliation: whatever the storm leaked — tasks
        // created by a dead incarnation after its checkpoint, names
        // abandoned by retry exhaustion — is still published here.
        // Unpublish, destroy, and repair the object ledger in one
        // audited pass.
        let leftovers = self.ns.drain();
        let reconciled = leftovers.len() as u64;
        debug_assert!(
            supervised || leftovers.is_empty(),
            "unsupervised storm must drain the namespace"
        );
        for port in &leftovers {
            // Same shutdown order as the terminate handler: disable
            // translation (drain already unpublished), then the port.
            let obj = port.clear_kernel_object();
            let _ = port.destroy();
            drop(obj);
        }
        drop(leftovers);
        if reconciled > 0 {
            let recon = self.ledger.reconcile_crash(reconciled);
            debug_assert_eq!(
                recon.released, reconciled,
                "reconciliation releases exactly the orphaned references"
            );
            let _ = recon;
        }

        // No teardown repair of the scratch section: a Holding victim's
        // restart resumes at the torn op, whose scratch section runs
        // first, so every tear has a later acquirer inside the storm.
        // A repair here would hide a broken one there.

        let elapsed_ns = host::now().saturating_sub(start);
        debug_assert!(
            self.ns.is_empty(),
            "reconciliation must drain the namespace"
        );
        let audit = self.ledger.drain_audit();

        let mut report = EngineReport {
            rpcs: rpcs_teardown,
            pings: 0,
            creates: 0,
            terminates: 0,
            dead_hits: 0,
            transfers: 0,
            transfer_full: 0,
            drained: drained_tail,
            shed: 0,
            crashes,
            rehomed_ports: 0,
            reconciled,
            // relaxed: every incarnation has been joined.
            scratch_repairs: shared.repairs.load(Ordering::Relaxed),
            // relaxed: as above.
            torn_sections: shared.tears.load(Ordering::Relaxed),
            retries: retries_teardown,
            retry_exhausted: 0,
            lock_timeouts: 0,
            elapsed_ns,
            recovery_ns_total,
            recovery_ns_max,
            digest: 0,
            rpc_balanced: shared.stats.iter().all(|s| s.balanced()),
            ledger_total: audit.total,
        };
        for t in tallies {
            report.rpcs += t.rpcs;
            report.pings += t.pings;
            report.creates += t.creates;
            report.terminates += t.terminates;
            report.dead_hits += t.dead_hits;
            report.transfers += t.transfers;
            report.transfer_full += t.transfer_full;
            report.drained += t.drained;
            report.shed += t.shed;
            report.rehomed_ports += t.rehomed;
            report.retries += t.retries;
            report.retry_exhausted += t.retry_exhausted;
            report.lock_timeouts += t.lock_timeouts;
            // Order-insensitive: workers join in index order, but the
            // fold is commutative anyway.
            report.digest = report.digest.wrapping_add(t.digest);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workers: usize, seed: u64) -> EngineConfig {
        EngineConfig {
            workers,
            ops_per_worker: 3_000,
            stable_ports: 16,
            seed,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn storm_balances_both_ledgers() {
        let report = Engine::new(small(4, 7)).run();
        assert!(report.rpc_balanced, "RpcStats ledger unbalanced");
        assert_eq!(report.ledger_total, 1, "object ledger unbalanced");
        assert_eq!(
            report.creates, report.terminates,
            "every created task terminated"
        );
        assert!(report.pings > 0 && report.dead_hits > 0);
        // No crashes, no bursts: the crash-survival layer must be
        // invisible in every counter.
        assert_eq!(report.crashes, 0);
        assert_eq!(report.reconciled, 0);
        assert_eq!(report.retries, 0);
        assert_eq!((report.torn_sections, report.scratch_repairs), (0, 0));
        // Four workers may shed even without bursts, when one of them
        // is preempted mid-publish on the transfer ring (see the module
        // docs); how many pings were drawn is still fixed by the seed.
        let again = Engine::new(small(4, 7)).run();
        assert_eq!(report.pings + report.shed, again.pings + again.shed);
    }

    #[test]
    fn single_worker_storm_is_deterministic() {
        // One worker, OS host: the tally is a pure function of the
        // seed (no cross-worker interleaving at all).
        let a = Engine::new(small(1, 42)).run();
        let b = Engine::new(small(1, 42)).run();
        assert_eq!(
            a.shed, 0,
            "one worker drains its own transfers: nothing shed"
        );
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.pings, b.pings);
        assert_eq!(a.creates, b.creates);
        let c = Engine::new(small(1, 43)).run();
        assert_ne!(a.digest, c.digest, "different seed, different storm");
    }

    #[test]
    fn counter_sums_are_host_independent() {
        // One worker never sheds, so its pings are exact.
        let one = Engine::new(small(1, 99)).run();
        assert_eq!(
            one.shed, 0,
            "one worker drains its own transfers: nothing shed"
        );
        assert_eq!(one.pings, Engine::new(small(1, 99)).run().pings);
        // Multi-worker on the OS host: interleaving varies, but the
        // per-worker op streams (and so every counter sum) must not.
        // A worker preempted mid-publish can make the others shed (see
        // the module docs), so the seed fixes pings landed plus pings
        // shed, not pings alone.
        let a = Engine::new(small(4, 99)).run();
        let b = Engine::new(small(4, 99)).run();
        assert_eq!(a.pings + a.shed, b.pings + b.shed);
        assert_eq!(a.creates, b.creates);
        assert_eq!(a.terminates, b.terminates);
        assert_eq!(a.dead_hits, b.dead_hits);
        // (No digest comparison here: allocated names depend on the
        // OS interleaving; the digest is only replay-stable under
        // machk-sim, which E19's determinism probe asserts.)
    }

    #[test]
    fn single_lock_namespace_still_correct() {
        let report = Engine::new(EngineConfig {
            shards: 1,
            ..small(4, 5)
        })
        .run();
        assert!(report.rpc_balanced);
        assert_eq!(report.ledger_total, 1);
    }

    #[test]
    fn scheduled_crashes_are_survived_and_reconciled() {
        let report = Engine::new(EngineConfig {
            crash_at: vec![
                CrashPoint {
                    worker: 0,
                    op: 100,
                    kind: CrashKind::OpStart,
                },
                CrashPoint {
                    worker: 1,
                    op: 200,
                    kind: CrashKind::AfterCreate,
                },
                CrashPoint {
                    worker: 2,
                    op: 300,
                    kind: CrashKind::Holding,
                },
            ],
            ..small(4, 7)
        })
        .run();
        assert_eq!(report.crashes, 3, "every scheduled kill fired once");
        assert!(report.rpc_balanced, "RpcStats ledger survives crashes");
        assert_eq!(report.ledger_total, 1, "object ledger repaired to balance");
        // The OpStart and Holding kills die with consistent
        // checkpoints; only the AfterCreate kill leaks — exactly one
        // published task whose name nobody holds. Its create *count*
        // rolled back with the corpse's tally, so the counted books
        // still balance while reconciliation repairs the object side.
        assert_eq!(report.reconciled, 1, "exactly the AfterCreate orphan");
        assert_eq!(
            report.creates, report.terminates,
            "counted creates match counted terminates even across the leak"
        );
        // The Holding kill releases the lock with the parity torn;
        // the next acquirer (a survivor or the victim's restart) must
        // repair the tear, and nobody may spin on the lock until its
        // deadline.
        assert_eq!(
            (report.torn_sections, report.scratch_repairs),
            (1, 1),
            "one repair per tear"
        );
        assert_eq!(
            report.lock_timeouts, 0,
            "a torn section is repaired, not spun on"
        );
    }

    #[test]
    fn crashed_single_worker_storm_is_deterministic() {
        let cfg = |seed| EngineConfig {
            crash_at: vec![CrashPoint {
                worker: 0,
                op: 500,
                kind: CrashKind::OpStart,
            }],
            ..small(1, seed)
        };
        let a = Engine::new(cfg(42)).run();
        let b = Engine::new(cfg(42)).run();
        assert_eq!(a.crashes, 1);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "crash recovery replays exactly (single worker, any host)"
        );
    }

    #[test]
    fn resumed_storm_matches_the_unsupervised_run() {
        // A checkpoint that restored the wrong state the same way twice
        // would still replay deterministically; compare against the
        // storm that never crashed instead.
        let counts = |r: &EngineReport| {
            [
                r.rpcs,
                r.pings,
                r.creates,
                r.terminates,
                r.dead_hits,
                r.transfers,
                r.drained,
            ]
        };
        for seed in [3, 42, 99] {
            let plain = Engine::new(small(1, seed)).run();
            for kind in [
                CrashKind::OpStart,
                CrashKind::Holding,
                CrashKind::AfterCreate,
            ] {
                let r = Engine::new(EngineConfig {
                    crash_at: vec![CrashPoint {
                        worker: 0,
                        op: 1_200,
                        kind,
                    }],
                    ..small(1, seed)
                })
                .run();
                assert_eq!(r.crashes, 1, "seed {seed}, {kind:?}: the kill fired");
                assert_eq!(counts(&r), counts(&plain), "seed {seed}, {kind:?}: counts");
                if kind == CrashKind::AfterCreate {
                    // The orphan's re-run create publishes a new name,
                    // so the digest differs; the books still close.
                    assert_eq!(r.reconciled, 1, "seed {seed}: one orphan");
                    assert_eq!(r.creates, r.terminates, "seed {seed}: counted books");
                } else {
                    assert_eq!(r.digest, plain.digest, "seed {seed}, {kind:?}: digest");
                }
            }
        }
    }

    #[test]
    fn burst_overload_sheds_pings_but_lands_commits() {
        let report = Engine::new(EngineConfig {
            transfer_limit: 64,
            burst_every: 128,
            burst_len: 96,
            ..small(4, 11)
        })
        .run();
        assert!(
            report.shed > 0,
            "bursts must drive the ring past the watermark"
        );
        assert!(report.transfers > 0, "transfers still land under overload");
        assert!(
            report.terminates > 0,
            "terminates still land under overload"
        );
        assert!(report.rpc_balanced);
        assert_eq!(report.ledger_total, 1);
        assert_eq!(report.crashes, 0);
        assert_eq!(report.reconciled, 0);
        assert_eq!(
            report.creates, report.terminates,
            "shedding never drops commit-class ops"
        );
        // Shedding happens after the decision draws, so the op mix is
        // still seed-pure: pings attempted + pings shed is a constant.
        let again = Engine::new(EngineConfig {
            transfer_limit: 64,
            burst_every: 128,
            burst_len: 96,
            ..small(4, 11)
        })
        .run();
        assert_eq!(report.pings + report.shed, again.pings + again.shed);
        assert_eq!(report.creates, again.creates);
        assert_eq!(
            report.transfers + report.transfer_full,
            again.transfers + again.transfer_full
        );
    }
}
