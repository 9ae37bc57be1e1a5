//! Trace attribution: slow one layer on purpose and check that the
//! trace blames that layer and no other.
//!
//! The ping handler the benchmark registers gets a fixed extra spin.
//! `rpc.handler_ns` must rise by about that delay, `ping_hot`'s
//! `rpc_per_s` must fall, and `namespace.translate_ns` must stay within
//! the benchmark's 25 % bound. The host this runs on can change speed
//! from one second to the next, so the traced runs alternate between
//! the plain and the slowed handler and the checks compare medians over
//! the pairs. Run with `cargo test --release` from this package's
//! directory.

use machk_perfbench::hist::median;
use machk_perfbench::ping::{self, PingParams};
use machk_perfbench::Report;

const DELAY_NS: u64 = 2_000;
/// Alternating plain/slowed traced runs.
const PAIRS: usize = 5;

fn params(handler_delay_ns: u64) -> PingParams {
    PingParams {
        names: 64,
        seed: 7,
        seconds: 0.3,
        handler_delay_ns,
    }
}

fn get(r: &Report, name: &str) -> f64 {
    r.get(name).expect("metric reported")
}

#[test]
fn handler_delay_is_attributed_to_the_handler() {
    let (mut base, mut slow) = (Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        base.push(ping::layers(&params(0)).expect("plain traced run"));
        slow.push(ping::layers(&params(DELAY_NS)).expect("slowed traced run"));
    }
    let med =
        |runs: &[Report], name| median(&runs.iter().map(|r| get(r, name)).collect::<Vec<_>>());

    let rise = med(&slow, "rpc.handler_ns") - med(&base, "rpc.handler_ns");
    let delay = DELAY_NS as f64;
    assert!(
        (0.8 * delay..1.5 * delay).contains(&rise),
        "rpc.handler_ns rose by {rise} ns for a {DELAY_NS} ns delay"
    );

    let (t0, t1) = (
        med(&base, "namespace.translate_ns"),
        med(&slow, "namespace.translate_ns"),
    );
    assert!(
        (t1 - t0).abs() <= 0.25 * t0,
        "namespace.translate_ns moved from {t0} to {t1}"
    );
}

#[test]
fn handler_delay_lowers_ping_hot_throughput() {
    let base = ping::e2e(&params(0)).expect("baseline run");
    let slow = ping::e2e(&params(DELAY_NS)).expect("slowed run");
    let rate = |r: &Report| get(r, "rpc_per_s");
    assert!(
        rate(&slow) < rate(&base),
        "rpc_per_s {} with the delay, {} without",
        rate(&slow),
        rate(&base)
    );
}
