//! RPC benchmark for `machk-ipc`: four workloads against the unmodified
//! engine and ping path, end-to-end metrics from untraced runs, and
//! per-layer metrics from a separate traced run whose spans sit only in
//! this package. See `README.md` beside this package for the workloads,
//! the metrics and the layer → end-to-end table.

pub mod alloc;
pub mod hist;
pub mod ping;
pub mod probe;
pub mod storm;
pub mod trace;

use std::hint::black_box;
use std::time::Instant;

use crate::hist::median;
use crate::probe::Probes;
use crate::trace::{Kind, Recorder, LAYERS, PORT, RPC};

/// Iterations of the reference loop per reading.
const REF_ITERS: usize = 4096;

/// The host speed that timed end-to-end figures are expressed at: the
/// reference loop at this many ns per iteration.
pub const REF_NOMINAL_NS: f64 = 40.0;

/// One reading of the reference loop: ns per iteration of a small heap
/// allocation, a small vector allocation and their frees.
///
/// The 2-vCPU host this was built on alternates between fast and slow
/// phases, from under a second to minutes long, in which the same
/// 1-thread loop runs up to 1.8× apart; a fixed integer loop barely
/// moves, but this allocation loop moves with the ping loop to within a
/// few per cent, and with the 1-worker storm to within about ten. The
/// 1-thread workloads read it beside every timed unit of work and scale
/// the unit's figures to `REF_NOMINAL_NS`, which takes the host's phase
/// out of them and leaves the program's own speed in. The loop is the
/// benchmark's own code on the benchmark's allocator, so no change to
/// the measured crates moves it.
pub fn reference_ns() -> f64 {
    let t0 = Instant::now();
    for i in 0..REF_ITERS {
        let b = black_box(Box::new([i as u64; 6]));
        let v = black_box(vec![i as u8; 24]);
        drop(v);
        drop(b);
    }
    t0.elapsed().as_nanos() as f64 / REF_ITERS as f64
}

/// The factor that scales a time measured beside reference readings
/// `a` and `b` to the nominal host speed.
pub fn to_nominal(a: f64, b: f64) -> f64 {
    2.0 * REF_NOMINAL_NS / (a + b)
}

/// Timed units (ping batches, storms) per block of a tail: a p95 over
/// 200 units has ten beyond it. Tails are taken per block and reported
/// as the median over blocks.
pub const TAIL_BLOCK: usize = 200;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("rpc_per_s", "1/s"),
    ("rpc_p50_ns", "ns"),
    ("rpc_p99_ns", "ns"),
    ("storm_ms_p95", "ms"),
    ("setup_s", "s"),
    ("heap_peak_bytes", "bytes"),
    ("completed_ratio", "ratio"),
];

/// Per-layer metrics (traced runs): name and unit. A metric that does
/// not apply to a workload reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("namespace.translate_ns", "ns"),
    ("namespace.insert_ns", "ns"),
    ("namespace.remove_ns", "ns"),
    ("port.kernel_object_ns", "ns"),
    ("port.create_ns", "ns"),
    ("port.destroy_ns", "ns"),
    ("port.try_send_ns", "ns"),
    ("port.receive_batch_ns", "ns"),
    ("rpc.msg_rpc_ns", "ns"),
    ("rpc.handler_ns", "ns"),
    ("rpc.dispatch_self_ns", "ns"),
    ("message.build_ns", "ns"),
    ("message.allocs_per_rpc", "count"),
    ("message.bytes_per_rpc", "bytes"),
    ("refcount.right_release_ns", "ns"),
    ("refcount.ledger_take_ns", "ns"),
    ("refcount.ledger_release_ns", "ns"),
    ("sync.simple_lock_ns", "ns"),
    ("sync.shared_rmw_ns", "ns"),
    ("engine.shed", "count"),
    ("engine.transfer_full", "count"),
    ("engine.drained", "count"),
    ("engine.supervision_ns_per_op", "ns"),
    ("engine.recovery_ns_p50", "ns"),
    ("engine.crashes", "count"),
    ("engine.reconciled", "count"),
    ("namespace.share", "ratio"),
    ("port.share", "ratio"),
    ("rpc.share", "ratio"),
    ("message.share", "ratio"),
    ("refcount.share", "ratio"),
    ("trace.ns_per_rpc", "ns"),
    ("trace.overhead", "ratio"),
    ("trace.unexplained_ns", "ns"),
    ("trace.mirror_gap", "ratio"),
    ("host.clock_pair_ns", "ns"),
    ("host.calib_ns", "ns"),
];

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One client, echo RPCs over 64 names.
    PingHot,
    /// One client, echo RPCs over 16 384 names.
    PingWide,
    /// `Engine::run`, two workers, default config.
    Storm2w,
    /// `Engine::run`, one supervised worker with a kill and bursts.
    Crash1w,
}

impl Workload {
    /// Parse a workload name as the command line gives it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ping_hot" => Some(Workload::PingHot),
            "ping_wide" => Some(Workload::PingWide),
            "storm_2w" => Some(Workload::Storm2w),
            "crash_1w" => Some(Workload::Crash1w),
            _ => None,
        }
    }
}

/// SplitMix64: the same decision stream the engine's workers draw from.
#[derive(Clone)]
pub struct Mix(u64);

impl Mix {
    /// Stream `worker` of `seed`, decorrelated as the engine does it.
    pub fn new(seed: u64, worker: usize) -> Mix {
        Mix(seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Busy-wait `ns` nanoseconds.
pub fn spin_for(ns: u64) {
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// An output check: `Err` names the check that failed.
pub(crate) fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("output check failed: {what}"))
    }
}

/// Operations a run attempted and how they ended.
#[derive(Default, Debug)]
pub struct Tally {
    /// Operations attempted (ping calls; storm ops `workers × ops`).
    pub attempted: u64,
    /// Operations that failed: RPC errors, exhausted retries, lock
    /// timeouts.
    pub failed: u64,
    /// Storm ops the engine refused by design: shed pings and
    /// transfers into a full ring.
    pub incomplete: u64,
    /// Wrong outputs (ping replies other than `nonce ^ 0xABCD`).
    pub wrong: u64,
}

impl Tally {
    fn check(&self) -> Result<(), String> {
        check(self.wrong == 0, "every reply is nonce ^ 0xABCD")
    }

    /// Operations completed as asked ÷ operations attempted.
    fn completed_ratio(&self) -> f64 {
        1.0 - (self.failed + self.incomplete) as f64 / self.attempted as f64
    }
}

/// One run's result: the JSON fields plus the host drift markers.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)`, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `host.clock_pair_ns`, `host.calib_ns` and a reference reading
    /// (ns per iteration of `reference_ns`), measured every run.
    pub host: (f64, f64, f64),
}

impl Report {
    fn new(table: &[(&'static str, &'static str)], tally: &Tally) -> Report {
        Report {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: table.iter().map(|&(n, u)| (n, 0.0, u)).collect(),
            host: (0.0, 0.0, 0.0),
        }
    }

    fn end_to_end(tally: &Tally) -> Report {
        Report::new(&END_TO_END, tally)
    }

    fn per_layer(tally: &Tally) -> Report {
        Report::new(&PER_LAYER, tally)
    }

    /// Set metric `name`; it must be in the report's table.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = self
            .metrics
            .iter_mut()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this report's table"));
        m.1 = value;
    }

    /// Metric `name` (`None` if not in the report's table).
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Per-call p50s of the spans.
    fn set_spans(&mut self, spans: &Recorder) {
        for (name, kind) in [
            ("namespace.translate_ns", Kind::Translate),
            ("namespace.insert_ns", Kind::Insert),
            ("namespace.remove_ns", Kind::Remove),
            ("port.kernel_object_ns", Kind::KernelObject),
            ("port.create_ns", Kind::PortCreate),
            ("port.destroy_ns", Kind::PortDestroy),
            ("port.try_send_ns", Kind::TrySend),
            ("port.receive_batch_ns", Kind::ReceiveBatch),
            ("rpc.msg_rpc_ns", Kind::MsgRpc),
            ("rpc.handler_ns", Kind::Handler),
            ("rpc.dispatch_self_ns", Kind::DispatchSelf),
        ] {
            self.set(name, spans.hist(kind).quantile(0.5));
        }
    }

    /// The batch-timed probe figures.
    fn set_probes(&mut self, p: &Probes) {
        self.set("message.build_ns", p.message_build_ns);
        self.set("refcount.right_release_ns", p.right_release_ns);
        self.set("refcount.ledger_take_ns", p.ledger_take_ns);
        self.set("refcount.ledger_release_ns", p.ledger_release_ns);
        self.set("sync.simple_lock_ns", p.simple_lock_ns);
        self.set("sync.shared_rmw_ns", p.shared_rmw_ns);
    }

    /// Layer shares of the traced path: self ns per RPC ÷ traced ns per
    /// RPC. Dispatch translates port → object inside `msg_rpc`, out of
    /// the benchmark's reach, so the probe's `kernel_object` p50 is
    /// moved from rpc to port self time once per `msg_rpc`. The layer
    /// self times plus `trace.unexplained_ns` add up to
    /// `trace.ns_per_rpc`.
    fn set_shares(&mut self, path: &Recorder, rpcs: u64, ns_per_rpc: f64, kernel_object_ns: f64) {
        let rpcs = rpcs as f64;
        let mut self_ns = path.self_ns.map(|ns| ns as f64 / rpcs);
        let moved =
            (kernel_object_ns * path.hist(Kind::MsgRpc).count() as f64 / rpcs).min(self_ns[RPC]);
        self_ns[RPC] -= moved;
        self_ns[PORT] += moved;
        const SHARES: [&str; 5] = [
            "namespace.share",
            "port.share",
            "rpc.share",
            "message.share",
            "refcount.share",
        ];
        debug_assert_eq!(SHARES.len(), LAYERS.len());
        for (name, ns) in SHARES.iter().zip(self_ns) {
            self.set(name, ns / ns_per_rpc);
        }
        let sum: f64 = self_ns.iter().sum();
        self.set("trace.ns_per_rpc", ns_per_rpc);
        self.set("trace.unexplained_ns", ns_per_rpc - sum);
    }
}

/// Median ns of `f` over `reps` timed calls.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// Host drift markers: ns per pair of clock reads, ns for a fixed
/// integer loop, and the median of a few reference readings. A code
/// change moves none of them.
pub fn host_markers() -> (f64, f64, f64) {
    const PAIRS: usize = 100_000;
    let clock_pair = median_ns(7, || {
        for _ in 0..PAIRS {
            black_box(Instant::now().elapsed());
        }
    }) / PAIRS as f64;
    let calib = median_ns(7, || {
        let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
        for i in 0..(1u64 << 20) {
            x = (x ^ (x >> 17))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i);
        }
        black_box(x);
    });
    let reference = median(&(0..7).map(|_| reference_ns()).collect::<Vec<_>>());
    (clock_pair, calib, reference)
}

/// Run `workload` for about `seconds`: untraced (end-to-end metrics) or
/// traced (per-layer metrics). `Err` is a failed output check.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let host = host_markers();
    let ping = |names| ping::PingParams {
        names,
        seed,
        seconds,
        handler_delay_ns: 0,
    };
    let mut report = match (workload, traced) {
        (Workload::PingHot, false) => ping::e2e(&ping(64))?,
        (Workload::PingHot, true) => ping::layers(&ping(64))?,
        (Workload::PingWide, false) => ping::e2e(&ping(16_384))?,
        (Workload::PingWide, true) => ping::layers(&ping(16_384))?,
        (Workload::Storm2w, false) => storm::e2e(storm::Storm::TwoWorkers, seed, seconds)?,
        (Workload::Storm2w, true) => storm::layers(storm::Storm::TwoWorkers, seed, seconds)?,
        (Workload::Crash1w, false) => storm::e2e(storm::Storm::Crash, seed, seconds)?,
        (Workload::Crash1w, true) => storm::layers(storm::Storm::Crash, seed, seconds)?,
    };
    report.host = host;
    if traced {
        report.set("host.clock_pair_ns", host.0);
        report.set("host.calib_ns", host.1);
    }
    Ok(report)
}
