//! # machk-obs — the kernel-wide lockstat substrate
//!
//! The paper's argument is about *where contention and hold time live*:
//! code vs. data locking (§3), writer starvation (§5), interrupt/spl
//! deadlocks (§7). Ad-hoc per-lock counters cannot answer those
//! questions for a whole kernel; Solaris `lockstat` could, by combining
//! cheap always-on counters with a name registry and post-hoc
//! aggregation. This crate is that tool for the reproduction. It holds
//! no hooks of its own: the runtime crates call `machk_sync::probe`,
//! and this crate ships one probe [`Subscriber`]:
//!
//! * **[`StatsSubscriber`]** — the lockstat pipeline below, installed
//!   with [`install_stats`]. It keeps each event once, in the registry
//!   and the trace rings; every output renders from those two stores.
//! * **[`ring`]** — a lock-free, per-thread, fixed-capacity,
//!   overwrite-oldest trace ring of [`TraceEvent`]s. Each slot is a
//!   per-slot seqlock over atomic words, so a snapshot taken from any
//!   thread never observes a torn event.
//! * **[`registry`]** — per-lock counters and log2 wait/hold-time
//!   **histograms** ([`hist`]) indexed by the probe id of each named
//!   lock (`vm_object.ref`, not an address), updated lock-free.
//!   Blocking-time *distributions*, not means, are what distinguish
//!   locking protocols (Brandenburg's survey); the histograms record
//!   them.
//! * **[`order`]** — an acquisition-order graph: an edge A→B each time
//!   B is acquired while A is held, plus cycle detection, turning
//!   potential deadlocks into a report instead of a hang.
//! * **[`report`]** — the aggregation pass: a `lockstat`-style text or
//!   JSON report (top-N locks by contention, histograms, reader/writer
//!   breakdown, per-policy comparison, order cycles), the lock-class ×
//!   site wait/hold/ops rollup as collapsed stacks
//!   ([`Lockstat::render_folded`]), and the trace rings as
//!   newline-delimited JSON ([`report::render_ndjson`]).
//!
//! ## Linking and cost
//!
//! This crate depends on `machk-sync` with its `probe` feature, so
//! linking it is what turns the hooks on; no runtime crate names it,
//! and the default build links it nowhere (CI asserts `cargo tree`).
//! With the hooks on, nothing is counted until [`install_stats`] runs;
//! after that the traced fast path pays two monotonic clock reads and a
//! handful of relaxed atomic increments per acquisition — E1's
//! tracing-overhead table and E16's subscriber fan-out table measure it,
//! and EXPERIMENTS.md records the measured delta. Reports, folds and
//! exports render after the fact and add nothing to the traced path.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hist;
pub mod order;
pub mod registry;
pub mod report;
pub mod ring;
pub mod stats;

pub use hist::{HistSnapshot, Log2Hist};
pub use machk_sync::probe::{EventKind, LockClass, Subscriber, TraceEvent};
pub use report::{FlameMetric, Lockstat};
pub use stats::{install_stats, StatsSubscriber};
