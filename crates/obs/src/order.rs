//! Lock-order diagnostics: the acquisition-pair graph.
//!
//! Paper §5: "each kernel subsystem that uses locks must incorporate
//! usage conventions that prevent deadlock" — and §7's spl
//! inconsistency shows what happens when a convention is violated: a
//! hang, diagnosable only with a debugger. This module turns the
//! convention into a measurable artifact. Every traced acquisition of
//! lock B while the thread already holds lock A (fed from
//! `machk-sync`'s held-lock tracking) records a directed edge A→B; a
//! cycle in the accumulated graph is a potential-deadlock report —
//! visible after a clean run, no hang required.
//!
//! Edges are recorded at registered-lock granularity (ids, not
//! instances): `task.lock → thread.lock` is a convention; individual
//! object addresses are not.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, OnceLock};

use machk_sync::probe;

thread_local! {
    /// Registered ids of the locks the current thread holds, in
    /// acquisition order.
    static HELD: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn edge_table() -> &'static Mutex<HashMap<(u32, u32), u64>> {
    static EDGES: OnceLock<Mutex<HashMap<(u32, u32), u64>>> = OnceLock::new();
    EDGES.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Record that the calling thread acquired the lock with registry id
/// `id`. If it already holds other locks, an order edge is recorded
/// from the most recently acquired one.
pub fn lock_acquired(id: u32) {
    if id == 0 {
        return;
    }
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(&top) = held.last() {
            if top != id {
                *edge_table().lock().unwrap().entry((top, id)).or_insert(0) += 1;
            }
        }
        held.push(id);
    });
}

/// Record that the calling thread released the lock with registry id
/// `id` (guards may drop out of acquisition order; the most recent
/// matching hold is removed).
pub fn lock_released(id: u32) {
    if id == 0 {
        return;
    }
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&h| h == id) {
            held.remove(pos);
        }
    });
}

/// Ids of locks the calling thread currently holds (diagnostics).
pub fn held_by_current_thread() -> Vec<u32> {
    HELD.with(|held| held.borrow().clone())
}

/// Every recorded edge `(from, to, count)`, sorted by count descending.
pub fn edges() -> Vec<(u32, u32, u64)> {
    let mut v: Vec<(u32, u32, u64)> = edge_table()
        .lock()
        .unwrap()
        .iter()
        .map(|(&(a, b), &n)| (a, b, n))
        .collect();
    v.sort_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
    v
}

/// Forget all recorded edges (experiment isolation).
pub fn reset_edges() {
    edge_table().lock().unwrap().clear();
}

/// Distinct elementary cycles in the order graph, each as the id
/// sequence `[a, b, …]` meaning `a → b → … → a`. Cycles are
/// canonicalized (rotated to start at their smallest id) and deduped;
/// the search is bounded, which is ample for convention-level graphs
/// (a kernel has dozens of lock *classes*, not thousands).
pub fn cycles() -> Vec<Vec<u32>> {
    let adj: HashMap<u32, Vec<u32>> = {
        let table = edge_table().lock().unwrap();
        let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
        for &(a, b) in table.keys() {
            adj.entry(a).or_default().push(b);
        }
        for next in adj.values_mut() {
            next.sort_unstable();
        }
        adj
    };

    let mut found: HashSet<Vec<u32>> = HashSet::new();
    let mut nodes: Vec<u32> = adj.keys().copied().collect();
    nodes.sort_unstable();
    for &start in &nodes {
        // DFS from `start`, reporting paths that return to `start`.
        // Bounded depth keeps this linear in practice.
        let mut stack: Vec<(u32, usize)> = vec![(start, 0)];
        let mut path: Vec<u32> = Vec::new();
        while let Some((node, next_child)) = stack.pop() {
            if next_child == 0 {
                path.push(node);
            }
            let children = adj.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if next_child < children.len() {
                let child = children[next_child];
                stack.push((node, next_child + 1));
                if child == start {
                    found.insert(canonical(&path));
                } else if !path.contains(&child) && path.len() < 16 {
                    stack.push((child, 0));
                }
            } else {
                path.pop();
            }
        }
    }
    let mut out: Vec<Vec<u32>> = found.into_iter().collect();
    out.sort();
    out
}

/// Rotate a cycle so its smallest id comes first (dedup key).
fn canonical(cycle: &[u32]) -> Vec<u32> {
    let min_pos = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, &v)| v)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut v = Vec::with_capacity(cycle.len());
    v.extend_from_slice(&cycle[min_pos..]);
    v.extend_from_slice(&cycle[..min_pos]);
    v
}

/// Render a cycle as `name → name → name (closes)`.
pub fn render_cycle(cycle: &[u32]) -> String {
    let mut parts: Vec<String> = cycle
        .iter()
        .map(|&id| probe::name_of(id).to_string())
        .collect();
    if let Some(first) = parts.first().cloned() {
        parts.push(first);
    }
    parts.join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Edges here use ids far above anything the registry hands out in
    /// other tests, so parallel test binaries' edges don't collide.
    const A: u32 = 9_000_001;
    const B: u32 = 9_000_002;
    const C: u32 = 9_000_003;

    /// The edge table is process-global and the test harness is
    /// multi-threaded: serialize the tests that reset it.
    fn with_clean_graph<R>(f: impl FnOnce() -> R) -> R {
        static SERIAL: Mutex<()> = Mutex::new(());
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        reset_edges();
        let r = f();
        reset_edges();
        r
    }

    #[test]
    fn acquisition_pairs_become_edges() {
        with_clean_graph(|| {
            lock_acquired(A);
            lock_acquired(B); // A -> B
            lock_released(B);
            lock_released(A);
            let e = edges();
            assert!(e.contains(&(A, B, 1)), "edges: {e:?}");
            assert!(held_by_current_thread().is_empty());
        });
    }

    #[test]
    fn out_of_order_release_keeps_stack_sane() {
        with_clean_graph(|| {
            lock_acquired(A);
            lock_acquired(B);
            lock_released(A); // released under B
            lock_acquired(C); // edge B -> C, not A -> C
            let e = edges();
            assert!(e.contains(&(B, C, 1)), "edges: {e:?}");
            assert!(!e.iter().any(|&(f, t, _)| f == A && t == C));
            lock_released(C);
            lock_released(B);
        });
    }

    #[test]
    fn opposite_orders_form_a_cycle() {
        with_clean_graph(|| {
            lock_acquired(A);
            lock_acquired(B);
            lock_released(B);
            lock_released(A);
            lock_acquired(B);
            lock_acquired(A);
            lock_released(A);
            lock_released(B);
            let cy = cycles();
            assert_eq!(cy, vec![vec![A, B]], "cycle A->B->A: {cy:?}");
            assert!(render_cycle(&cy[0]).matches("->").count() == 2);
        });
    }

    #[test]
    fn consistent_order_has_no_cycle() {
        with_clean_graph(|| {
            for _ in 0..3 {
                lock_acquired(A);
                lock_acquired(B);
                lock_acquired(C);
                lock_released(C);
                lock_released(B);
                lock_released(A);
            }
            assert!(cycles().is_empty());
            let e = edges();
            assert!(e.contains(&(A, B, 3)));
            assert!(e.contains(&(B, C, 3)));
        });
    }

    #[test]
    fn three_party_cycle_detected() {
        with_clean_graph(|| {
            for (x, y) in [(A, B), (B, C), (C, A)] {
                lock_acquired(x);
                lock_acquired(y);
                lock_released(y);
                lock_released(x);
            }
            let cy = cycles();
            assert!(cy.contains(&vec![A, B, C]), "cycles: {cy:?}");
        });
    }

    #[test]
    fn unregistered_id_zero_is_ignored() {
        with_clean_graph(|| {
            lock_acquired(0);
            lock_acquired(A);
            lock_acquired(0);
            lock_acquired(B);
            let e = edges();
            assert!(e.contains(&(A, B, 1)), "0 never forms edges: {e:?}");
            lock_released(B);
            lock_released(A);
            lock_released(0);
        });
    }
}
