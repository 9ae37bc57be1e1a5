//! Queued-lock Criterion bench: contention scaling of the ticket and
//! MCS policies against the paper's word-spinning baselines, plus the
//! raw handoff cost of each queued mechanism at fixed oversubscription.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use machk_bench::workloads::{lock_counter, POLICY_SWEEP};
use machk_core::RawSimpleLock;

/// Build-level tracing marker: bench ids carry it so a default run and
/// a `--features probe` run of the same bench land side by side, and
/// the probe-on/probe-off delta can be read straight off the report
/// (recorded in EXPERIMENTS.md).
const TRACING: &str = if machk_core::sync::probe::ENABLED { "probe-on" } else { "probe-off" };

/// Throughput of the shared-counter workload per policy as waiters pile
/// up; 8 and 16 threads oversubscribe small hosts on purpose — that is
/// where admission order and per-waiter spinning start to matter.
fn contention_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("queued_lock_scaling");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8, 16] {
        for (name, run) in POLICY_SWEEP {
            g.bench_with_input(BenchmarkId::new(name, threads), &threads, |b, &threads| {
                b.iter(|| run(threads, 10_000));
            });
        }
    }
    g.finish();
}

/// Uncontended single-thread cost: the queued fast paths must stay in
/// the same league as a plain test-and-set for the common
/// first-try-succeeds case the paper designs for.
fn uncontended_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("queued_lock_uncontended");
    g.sample_size(10);
    for (name, run) in POLICY_SWEEP {
        g.bench_with_input(BenchmarkId::new(name, 1), &1usize, |b, &threads| {
            b.iter(|| run(threads, 100_000));
        });
    }
    g.finish();
}

/// Tracing overhead, isolated two ways: the group name carries the
/// build's probe state (compare across a default and a `--features
/// probe` run), and within a probe build the named/anonymous pair
/// separates full tracing (registry counters + histograms + ring
/// events) from the bare hook (anonymous locks skip the clock and the
/// recording).
fn tracing_overhead(c: &mut Criterion) {
    static NAMED: RawSimpleLock = RawSimpleLock::named("bench.queued.named");
    static ANON: RawSimpleLock = RawSimpleLock::new();
    let mut g = c.benchmark_group(&format!("queued_lock_tracing_{TRACING}"));
    g.sample_size(10);
    for threads in [1usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("anonymous", threads),
            &threads,
            |b, &threads| b.iter(|| lock_counter(&ANON, threads, 50_000)),
        );
        g.bench_with_input(
            BenchmarkId::new("named", threads),
            &threads,
            |b, &threads| b.iter(|| lock_counter(&NAMED, threads, 50_000)),
        );
    }
    g.finish();
}

/// Dispatch fan-out cost as subscribers accumulate: the same traced
/// counter loop at 0, 1 (stats), and 3 (stats + ndjson + flame)
/// subscribers. Must be listed FIRST in the group macro — installation
/// is forever, so the 0-subscriber case is only measurable before
/// anything in this process installs one.
#[cfg(feature = "probe")]
fn multi_subscriber(c: &mut Criterion) {
    use machk_core::sync::probe;
    static LOCK: RawSimpleLock = RawSimpleLock::named("bench.queued.subs");
    assert_eq!(probe::subscriber_count(), 0, "subs0 would not measure the empty dispatcher");
    let mut g = c.benchmark_group("queued_lock_subscribers");
    g.sample_size(10);
    for threads in [1usize, 4] {
        g.bench_with_input(BenchmarkId::new("subs0", threads), &threads, |b, &t| {
            b.iter(|| lock_counter(&LOCK, t, 50_000));
        });
    }
    machk_obs::install_stats();
    for threads in [1usize, 4] {
        g.bench_with_input(BenchmarkId::new("subs1", threads), &threads, |b, &t| {
            b.iter(|| lock_counter(&LOCK, t, 50_000));
        });
    }
    let (ndjson, _sink) = machk_obs::NdjsonSubscriber::to_shared_vec(4_096);
    probe::install(Box::leak(Box::new(ndjson))).expect("subscriber slots exhausted");
    probe::install(Box::leak(Box::new(machk_obs::FlameSubscriber::new())))
        .expect("subscriber slots exhausted");
    for threads in [1usize, 4] {
        g.bench_with_input(BenchmarkId::new("subs3", threads), &threads, |b, &t| {
            b.iter(|| lock_counter(&LOCK, t, 50_000));
        });
    }
    g.finish();
}

/// Without probes there is no dispatcher to scale; keep the group list
/// identical across builds.
#[cfg(not(feature = "probe"))]
fn multi_subscriber(_c: &mut Criterion) {}

criterion_group!(
    benches,
    multi_subscriber,
    contention_scaling,
    uncontended_cost,
    tracing_overhead
);
criterion_main!(benches);
