//! E1 Criterion bench: simple-lock acquisition policies.
//!
//! One Criterion group per thread count; bars compare TAS, TTAS,
//! TAS-then-TTAS (± backoff) on the shared-counter workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use machk_bench::workloads::{simple_lock_counter, PolicyCounter, POLICY_SWEEP};
use machk_core::{TasThenTtas, WithBackoff};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e1_simple_lock");
    g.sample_size(10);
    for threads in [1usize, 2, 4] {
        let backoff: PolicyCounter = (
            "tas+ttas+backoff",
            simple_lock_counter::<WithBackoff<TasThenTtas>>,
        );
        for (name, run) in POLICY_SWEEP.into_iter().chain([backoff]) {
            g.bench_with_input(BenchmarkId::new(name, threads), &threads, |b, &threads| {
                b.iter(|| run(threads, 20_000));
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
