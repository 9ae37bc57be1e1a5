//! The static lock-order graph.
//!
//! Nodes are lock identities (registered lockstat names where the
//! declaration used a named constructor, otherwise qualified
//! identifiers); a directed edge A→B means "some code path acquires B
//! while holding A". Cycle enumeration mirrors
//! `machk-obs::order::cycles` — bounded elementary-cycle DFS with
//! canonical rotation — so the runtime and static diagnoses are
//! directly comparable (the obs cross-validation test relies on this).

use std::collections::{BTreeMap, BTreeSet};

/// Where an edge was observed (first few sites are kept for reports).
#[derive(Debug, Clone)]
pub struct EdgeSite {
    pub file: String,
    pub line: u32,
    pub func: String,
}

#[derive(Debug, Default)]
pub struct OrderGraph {
    /// `(from, to)` → sites (insertion order, capped).
    edges: BTreeMap<(String, String), Vec<EdgeSite>>,
}

impl OrderGraph {
    pub fn add_edge(&mut self, from: &str, to: &str, site: EdgeSite) {
        if from == to {
            return;
        }
        let sites = self
            .edges
            .entry((from.to_string(), to.to_string()))
            .or_default();
        if sites.len() < 8 {
            sites.push(site);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        self.edges.contains_key(&(from.to_string(), to.to_string()))
    }

    pub fn nodes(&self) -> Vec<String> {
        let mut set = BTreeSet::new();
        for (a, b) in self.edges.keys() {
            set.insert(a.clone());
            set.insert(b.clone());
        }
        set.into_iter().collect()
    }

    pub fn edges(&self) -> impl Iterator<Item = (&str, &str, &[EdgeSite])> {
        self.edges
            .iter()
            .map(|((a, b), s)| (a.as_str(), b.as_str(), s.as_slice()))
    }

    /// First recorded site of the edge `(from, to)`.
    pub fn site_of(&self, from: &str, to: &str) -> Option<&EdgeSite> {
        self.edges
            .get(&(from.to_string(), to.to_string()))
            .and_then(|s| s.first())
    }

    /// Distinct elementary cycles, canonicalized (rotated to start at
    /// the lexicographically smallest node) and sorted. Bounded depth,
    /// as in the obs layer: lock *classes* number in the dozens.
    pub fn cycles(&self) -> Vec<Vec<String>> {
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (a, b) in self.edges.keys() {
            adj.entry(a.as_str()).or_default().push(b.as_str());
        }
        for next in adj.values_mut() {
            next.sort_unstable();
        }

        let mut found: BTreeSet<Vec<String>> = BTreeSet::new();
        let nodes: Vec<&str> = adj.keys().copied().collect();
        for &start in &nodes {
            let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
            let mut path: Vec<&str> = Vec::new();
            while let Some((node, next_child)) = stack.pop() {
                if next_child == 0 {
                    path.push(node);
                }
                let children = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
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
        found.into_iter().collect()
    }
}

/// Rotate a cycle so its smallest node comes first (dedup key).
fn canonical(cycle: &[&str]) -> Vec<String> {
    let min_pos = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, v)| **v)
        .map(|(i, _)| i)
        .unwrap_or(0);
    cycle[min_pos..]
        .iter()
        .chain(cycle[..min_pos].iter())
        .map(|s| s.to_string())
        .collect()
}

/// Render a cycle as `a -> b -> a`.
pub fn render_cycle(cycle: &[String]) -> String {
    let mut parts: Vec<&str> = cycle.iter().map(String::as_str).collect();
    if let Some(&first) = parts.first() {
        parts.push(first);
    }
    parts.join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> EdgeSite {
        EdgeSite {
            file: "f.rs".into(),
            line: 1,
            func: "f".into(),
        }
    }

    #[test]
    fn abba_is_a_cycle() {
        let mut g = OrderGraph::default();
        g.add_edge("a", "b", site());
        g.add_edge("b", "a", site());
        assert_eq!(g.cycles(), vec![vec!["a".to_string(), "b".to_string()]]);
        assert_eq!(render_cycle(&g.cycles()[0]), "a -> b -> a");
    }

    #[test]
    fn consistent_order_no_cycle() {
        let mut g = OrderGraph::default();
        g.add_edge("a", "b", site());
        g.add_edge("b", "c", site());
        g.add_edge("a", "c", site());
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn three_party_cycle() {
        let mut g = OrderGraph::default();
        g.add_edge("a", "b", site());
        g.add_edge("b", "c", site());
        g.add_edge("c", "a", site());
        assert_eq!(g.cycles().len(), 1);
        assert_eq!(g.cycles()[0], ["a", "b", "c"]);
    }

    #[test]
    fn self_edges_ignored() {
        let mut g = OrderGraph::default();
        g.add_edge("a", "a", site());
        assert!(g.is_empty());
    }
}
