//! Two threads that share one `RpcStats` ledger write different cache
//! lines. This file holds a single test on purpose: a thread's stripe
//! is drawn round-robin at its first add, and a test running beside it
//! could draw between the two threads here and put them on one stripe.

use std::sync::atomic::Ordering;
use std::sync::Barrier;

use machk_ipc::RpcStats;

#[test]
fn concurrent_threads_land_on_different_stripes() {
    let stats = RpcStats::new();
    let barrier = Barrier::new(2);
    let [first, second] = std::thread::scope(|s| {
        let (stats, barrier) = (&stats, &barrier);
        let a = s.spawn(move || {
            // Both threads are alive before either adds.
            barrier.wait();
            let seen = stats.translations.fetch_add(1, Ordering::Relaxed);
            barrier.wait();
            seen
        });
        let b = s.spawn(move || {
            barrier.wait();
            barrier.wait();
            // `fetch_add` returns the previous value of this thread's
            // stripe: 1 if it is the stripe the first thread bumped.
            stats.translations.fetch_add(1, Ordering::Relaxed)
        });
        [a.join().unwrap(), b.join().unwrap()]
    });
    assert_eq!(first, 0);
    assert_eq!(second, 0, "the second thread added to the first's stripe");
    assert_eq!(stats.translations.load(Ordering::Relaxed), 2);
}
