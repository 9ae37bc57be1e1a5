//! Cross-validation: the obs layer's *runtime* lock-order graph against
//! machk-lint's *static* one.
//!
//! The two diagnostics answer the same §5 question from opposite ends:
//! machk-obs watches acquisitions as they happen; machk-lint reads the
//! source and never runs it. If the tools agree, every ordering the
//! kernel actually exercises was already visible to the static scanner
//! — the runtime cycle E16 provokes on purpose must be a subgraph of
//! what the linter predicted. A runtime edge the static graph lacks
//! would mean the scanner has a blind spot (an acquisition path it
//! cannot see), which is exactly the regression this test pins down.
#![cfg(feature = "probe")]

use std::path::Path;

use machk_lint::{analyze, Workspace};

#[test]
fn e16_runtime_cycle_edges_are_in_the_static_order_graph() {
    // Drive the E16 workload (quick mode): this populates the global
    // obs registry and order graph, including the deliberate
    // e16.order.a/e16.order.b inversion.
    let report = machk_bench::experiments::e16_lockstat::run(true);
    assert!(report.contains("e16"), "E16 report looks empty:\n{report}");

    // Static side: scan the workspace sources the same way
    // `machk-lint --workspace` does.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("workspace sources load");
    let analysis = analyze(&ws);
    assert!(
        !analysis.graph.is_empty(),
        "static order graph is empty — scanner regression"
    );

    // Runtime side: collect the observed order graph.
    let stat = machk_obs::Lockstat::collect();
    assert!(
        !stat.cycles.is_empty(),
        "E16 ran but the obs layer observed no order cycle"
    );

    // Every edge of every observed cycle must exist in the static
    // graph. A cycle `[a, b, …]` means a → b → … → a, so the edge list
    // is consecutive pairs plus the wrap-around. Unnamed locks cannot
    // be matched by class name; E16's cycle locks are all named, so
    // requiring names here keeps the check honest without making the
    // test depend on unrelated anonymous locks.
    let mut checked = 0usize;
    for cycle in &stat.cycles {
        let names: Vec<&str> = cycle
            .iter()
            .map(|&id| machk_core::sync::probe::name_of(id))
            .collect();
        if names.iter().any(|n| n.is_empty()) {
            continue;
        }
        for i in 0..names.len() {
            let from = names[i];
            let to = names[(i + 1) % names.len()];
            assert!(
                analysis.graph.has_edge(from, to),
                "runtime order edge {from} -> {to} (from observed cycle \
                 {names:?}) is missing from the static order graph — \
                 machk-lint did not see an acquisition path the kernel \
                 actually executed"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 2,
        "no named runtime cycle edges were checked; observed cycles: {:?}",
        stat.cycles
    );

    // And the marquee cycle specifically: both tools call out the
    // deliberate inversion by name.
    assert!(
        analysis
            .graph
            .cycles()
            .iter()
            .any(|c| c.iter().any(|n| n == "e16.order.a")),
        "static analysis lost the deliberate e16.order.a cycle"
    );
}
