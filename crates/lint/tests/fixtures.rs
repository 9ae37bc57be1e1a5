//! Fixture tests: each known-bad snippet triggers exactly its one
//! diagnostic; each clean twin triggers none. This is the proof that
//! the passes actually *fire* — a pass with zero findings on the real
//! tree could otherwise be a pass that never matches anything.

use std::path::PathBuf;

use machk_lint::model::Rule;
use machk_lint::{analyze, Analysis, Workspace};

fn analyze_fixture(name: &str) -> Analysis {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let path = root.join("fixtures").join(name);
    let ws = Workspace::from_paths(&root, &[path]).expect("fixture readable");
    analyze(&ws)
}

fn assert_one(name: &str, rule: Rule) {
    let analysis = analyze_fixture(name);
    let slugs: Vec<&str> = analysis.findings.iter().map(|f| f.rule.slug()).collect();
    assert_eq!(
        slugs,
        vec![rule.slug()],
        "{name}: expected exactly one {} finding, got {slugs:?}",
        rule.slug()
    );
}

fn assert_clean(name: &str) {
    let analysis = analyze_fixture(name);
    let slugs: Vec<String> = analysis
        .findings
        .iter()
        .map(|f| format!("{}:{} {}", f.file, f.line, f.rule.slug()))
        .collect();
    assert!(slugs.is_empty(), "{name}: expected clean, got {slugs:?}");
}

#[test]
fn abba_cycle_detected() {
    let analysis = analyze_fixture("abba_bad.rs");
    let slugs: Vec<&str> = analysis.findings.iter().map(|f| f.rule.slug()).collect();
    assert_eq!(slugs, vec!["lock-order-cycle"]);
    // The cycle is reported over the *registered* lock names, matching
    // what the obs layer would print at runtime.
    assert_eq!(
        analysis.findings[0].context,
        "fixture.a -> fixture.b -> fixture.a"
    );
    assert!(analysis.graph.has_edge("fixture.a", "fixture.b"));
    assert!(analysis.graph.has_edge("fixture.b", "fixture.a"));
}

#[test]
fn abba_consistent_order_clean() {
    let analysis = analyze_fixture("abba_ok.rs");
    assert!(analysis.findings.is_empty());
    // Order edges still recorded — discipline is honoured, not absent.
    assert!(analysis.graph.has_edge("fixture.a", "fixture.b"));
    assert!(!analysis.graph.has_edge("fixture.b", "fixture.a"));
}

#[test]
fn object_lock_abba_detected() {
    let analysis = analyze_fixture("obj_abba_bad.rs");
    let slugs: Vec<&str> = analysis.findings.iter().map(|f| f.rule.slug()).collect();
    assert_eq!(slugs, vec!["lock-order-cycle"]);
    assert_eq!(
        analysis.findings[0].context,
        "fixture.port.lock -> fixture.task.lock -> fixture.port.lock"
    );
}

#[test]
fn object_lock_one_order_clean() {
    let analysis = analyze_fixture("obj_abba_ok.rs");
    assert!(analysis.findings.is_empty());
    assert!(analysis
        .graph
        .has_edge("fixture.task.lock", "fixture.port.lock"));
    assert!(!analysis
        .graph
        .has_edge("fixture.port.lock", "fixture.task.lock"));
}

#[test]
fn object_call_through_guard_joins_the_order_graph() {
    let analysis = analyze_fixture("obj_guard_bad.rs");
    let slugs: Vec<&str> = analysis.findings.iter().map(|f| f.rule.slug()).collect();
    assert_eq!(slugs, vec!["lock-order-cycle"]);
    assert!(analysis
        .graph
        .has_edge("fixture.port.lock", "fixture.task.lock"));
}

#[test]
fn collection_call_through_guard_is_no_edge() {
    assert_clean("obj_guard_ok.rs");
    let analysis = analyze_fixture("obj_guard_ok.rs");
    assert!(analysis
        .graph
        .has_edge("fixture.task.lock", "fixture.port.lock"));
    assert!(!analysis
        .graph
        .has_edge("fixture.port.lock", "fixture.task.lock"));
}

#[test]
fn turbofish_declared_locks_join_the_order_graph() {
    let analysis = analyze_fixture("turbofish_bad.rs");
    let slugs: Vec<&str> = analysis.findings.iter().map(|f| f.rule.slug()).collect();
    assert_eq!(slugs, vec!["lock-order-cycle"]);
    assert_eq!(
        analysis.findings[0].context,
        "fixture.ticket -> x.lock -> fixture.ticket"
    );
    assert!(analysis.graph.has_edge("t.lock", "x.lock"));
}

#[test]
fn block_under_simple_lock_detected() {
    assert_one("block_bad.rs", Rule::HoldAcrossBlock);
}

#[test]
fn block_after_release_clean() {
    assert_clean("block_ok.rs");
}

#[test]
fn spl_inversion_detected() {
    assert_one("spl_bad.rs", Rule::SplNonMonotoneRaise);
}

#[test]
fn spl_monotone_clean() {
    assert_clean("spl_ok.rs");
}

#[test]
fn spl_unrestored_detected() {
    assert_one("spl_unrestored_bad.rs", Rule::SplUnrestored);
}

#[test]
fn spl_balanced_exits_clean() {
    assert_clean("spl_unrestored_ok.rs");
}

#[test]
fn spl_missing_raise_detected() {
    assert_one("spl_missing_bad.rs", Rule::SplMissingRaise);
}

#[test]
fn spl_raised_before_acquire_clean() {
    assert_clean("spl_missing_ok.rs");
}

#[test]
fn leaked_ref_detected() {
    assert_one("ref_bad.rs", Rule::RefUnpaired);
}

#[test]
fn balanced_and_transferred_refs_clean() {
    assert_clean("ref_ok.rs");
}

#[test]
fn unjustified_relaxed_detected() {
    assert_one("relaxed_bad.rs", Rule::RelaxedUnjustified);
}

#[test]
fn justified_relaxed_clean() {
    assert_clean("relaxed_ok.rs");
}

#[test]
fn unjustified_split_relaxed_detected() {
    assert_one("relaxed_split_bad.rs", Rule::RelaxedUnjustified);
}

#[test]
fn justification_above_a_split_statement_clean() {
    assert_clean("relaxed_split_ok.rs");
}
