//! The aggregation pass: a `lockstat`-style report.
//!
//! [`Lockstat::collect`] freezes the registry counters, the order
//! graph, and the trace-ring totals into plain data;
//! [`Lockstat::render_text`] and [`Lockstat::render_json`] turn that
//! into the report the `experiments lockstat` subcommand prints: top-N
//! locks by contention, wait/hold log2 histograms, reader/writer/
//! upgrade breakdown, per-policy comparison, refcount traffic, and
//! lock-order cycles.

use std::collections::BTreeMap;

use machk_sync::probe::{self, LockClass};

use crate::hist::{fmt_ns, HistSnapshot};
use crate::order;
use crate::registry::{self, LockReport};
use crate::ring;

/// A frozen, plain-data lockstat capture.
pub struct Lockstat {
    /// Every registered lock, sorted by contended count descending.
    pub locks: Vec<LockReport>,
    /// Order-graph edges `(from, to, count)`.
    pub edges: Vec<(u32, u32, u64)>,
    /// Detected order cycles (id sequences).
    pub cycles: Vec<Vec<u32>>,
    /// Total trace events ever recorded, and ring (thread) count.
    pub events: (u64, usize),
}

impl Lockstat {
    /// Capture the current state of every obs surface.
    pub fn collect() -> Lockstat {
        let mut locks = registry::snapshot();
        locks.sort_by(|a, b| {
            b.contended
                .cmp(&a.contended)
                .then(b.acquires.cmp(&a.acquires))
                .then(a.id.cmp(&b.id))
        });
        Lockstat {
            locks,
            edges: order::edges(),
            cycles: order::cycles(),
            events: ring::totals(),
        }
    }

    /// Aggregate simple-lock counters by acquisition-policy label.
    fn by_policy(&self) -> BTreeMap<&'static str, (u64, u64, HistSnapshot)> {
        let mut map: BTreeMap<&'static str, (u64, u64, HistSnapshot)> = BTreeMap::new();
        for l in &self.locks {
            if l.policy.is_empty() || l.acquires == 0 {
                continue;
            }
            let slot = map.entry(l.policy).or_default();
            slot.0 += l.acquires;
            slot.1 += l.contended;
            slot.2.merge(&l.wait);
        }
        map
    }

    /// Render the text report; `top` bounds the per-lock sections and
    /// `histograms` controls whether the per-lock distributions print.
    pub fn render_text(&self, top: usize, histograms: bool) -> String {
        let mut out = String::new();
        let sep = "=".repeat(72);
        out.push_str(&format!("lockstat: kernel-wide lock contention profile\n{sep}\n"));
        out.push_str(&format!(
            "registered locks: {}   trace events: {} across {} thread ring(s)\n\n",
            self.locks.len(),
            self.events.0,
            self.events.1
        ));

        // ---- top-N by contention ----
        out.push_str(&format!("top {} locks by contention\n", top.min(self.locks.len())));
        out.push_str(&format!(
            "{:<26} {:<8} {:<6} {:>9} {:>9} {:>6} {:>9} {:>9} {:>9}\n",
            "name", "class", "policy", "acquires", "contended", "cont%", "wait-avg", "wait-max", "hold-avg"
        ));
        for l in self.locks.iter().take(top) {
            out.push_str(&format!(
                "{:<26} {:<8} {:<6} {:>9} {:>9} {:>5.1}% {:>9} {:>9} {:>9}\n",
                truncate(l.name, 26),
                l.class.label(),
                l.policy,
                l.acquires,
                l.contended,
                100.0 * l.contention_rate(),
                fmt_ns(l.wait.mean()),
                fmt_ns(l.wait.max),
                fmt_ns(l.hold.mean()),
            ));
        }
        out.push('\n');

        // ---- per-lock distributions ----
        if histograms {
            for l in self.locks.iter().take(top) {
                if l.wait.count == 0 && l.hold.count == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "{} — wait-time distribution (p50 {} / p99 {}):\n",
                    l.name,
                    fmt_ns(l.wait.percentile(50)),
                    fmt_ns(l.wait.percentile(99)),
                ));
                out.push_str(&l.wait.render("  ", 40));
                if l.hold.count > 0 {
                    out.push_str(&format!(
                        "{} — hold-time distribution (p50 {} / p99 {}):\n",
                        l.name,
                        fmt_ns(l.hold.percentile(50)),
                        fmt_ns(l.hold.percentile(99)),
                    ));
                    out.push_str(&l.hold.render("  ", 40));
                }
                out.push('\n');
            }
        }

        // ---- complex-lock breakdown ----
        let complex: Vec<&LockReport> = self
            .locks
            .iter()
            .filter(|l| l.class == LockClass::Complex && l.acquires + l.upgrades_failed > 0)
            .collect();
        if !complex.is_empty() {
            out.push_str("complex locks: reader/writer/upgrade breakdown\n");
            out.push_str(&format!(
                "{:<26} {:>9} {:>9} {:>8} {:>9} {:>10} {:>10}\n",
                "name", "reads", "writes", "upg-ok", "upg-fail", "downgrades", "upg-fail%"
            ));
            for l in &complex {
                let upg = l.upgrades_ok + l.upgrades_failed;
                let rate = if upg == 0 {
                    0.0
                } else {
                    100.0 * l.upgrades_failed as f64 / upg as f64
                };
                out.push_str(&format!(
                    "{:<26} {:>9} {:>9} {:>8} {:>9} {:>10} {:>9.1}%\n",
                    truncate(l.name, 26),
                    l.reads,
                    l.writes,
                    l.upgrades_ok,
                    l.upgrades_failed,
                    l.downgrades,
                    rate,
                ));
            }
            out.push('\n');
        }

        // ---- per-policy comparison ----
        let policies = self.by_policy();
        if policies.len() > 1 {
            out.push_str("acquisition-policy comparison (aggregated over named locks)\n");
            out.push_str(&format!(
                "{:<10} {:>10} {:>10} {:>6} {:>9} {:>9} {:>9}\n",
                "policy", "acquires", "contended", "cont%", "wait-avg", "wait-p99", "wait-max"
            ));
            for (policy, (acq, cont, wait)) in &policies {
                out.push_str(&format!(
                    "{:<10} {:>10} {:>10} {:>5.1}% {:>9} {:>9} {:>9}\n",
                    policy,
                    acq,
                    cont,
                    if *acq == 0 { 0.0 } else { 100.0 * *cont as f64 / *acq as f64 },
                    fmt_ns(wait.mean()),
                    fmt_ns(wait.percentile(99)),
                    fmt_ns(wait.max),
                ));
            }
            out.push('\n');
        }

        // ---- refcount traffic ----
        let refs: Vec<&LockReport> = self
            .locks
            .iter()
            .filter(|l| l.ref_takes + l.ref_releases > 0)
            .collect();
        if !refs.is_empty() {
            out.push_str("reference counts\n");
            out.push_str(&format!(
                "{:<26} {:>10} {:>10} {:>8}\n",
                "name", "takes", "releases", "drains"
            ));
            for l in &refs {
                out.push_str(&format!(
                    "{:<26} {:>10} {:>10} {:>8}\n",
                    truncate(l.name, 26),
                    l.ref_takes,
                    l.ref_releases,
                    l.ref_drains,
                ));
            }
            out.push('\n');
        }

        // ---- lock-order diagnostics ----
        out.push_str(&format!(
            "lock-order graph: {} edge(s), {} cycle(s)\n",
            self.edges.len(),
            self.cycles.len()
        ));
        for (a, b, n) in self.edges.iter().take(top) {
            out.push_str(&format!(
                "  {} -> {}  ({} acquisition pair(s))\n",
                probe::name_of(*a),
                probe::name_of(*b),
                n
            ));
        }
        if self.cycles.is_empty() {
            out.push_str("  no order cycles observed — acquisition order is consistent\n");
        } else {
            out.push_str("  POTENTIAL DEADLOCK — cyclic acquisition order observed:\n");
            for c in &self.cycles {
                out.push_str(&format!("    cycle: {}\n", order::render_cycle(c)));
            }
        }
        out
    }

    /// Render as JSON (hand-rolled; the workspace deliberately has no
    /// serde). Schema: `{locks: [...], edges: [...], cycles: [...],
    /// events: n}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"locks\": [\n");
        for (i, l) in self.locks.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": {}, \"name\": {}, \"class\": \"{}\", \"policy\": \"{}\", \
                 \"acquires\": {}, \"contended\": {}, \"try_failures\": {}, \
                 \"wait_mean_ns\": {}, \"wait_p99_ns\": {}, \"wait_max_ns\": {}, \
                 \"hold_mean_ns\": {}, \"reads\": {}, \"writes\": {}, \
                 \"upgrades_ok\": {}, \"upgrades_failed\": {}, \"downgrades\": {}, \
                 \"ref_takes\": {}, \"ref_releases\": {}, \"ref_drains\": {}}}{}\n",
                l.id,
                json_string(l.name),
                l.class.label(),
                l.policy,
                l.acquires,
                l.contended,
                l.try_failures,
                l.wait.mean(),
                l.wait.percentile(99),
                l.wait.max,
                l.hold.mean(),
                l.reads,
                l.writes,
                l.upgrades_ok,
                l.upgrades_failed,
                l.downgrades,
                l.ref_takes,
                l.ref_releases,
                l.ref_drains,
                if i + 1 == self.locks.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"edges\": [\n");
        for (i, (a, b, n)) in self.edges.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"from\": {}, \"to\": {}, \"count\": {}}}{}\n",
                json_string(probe::name_of(*a)),
                json_string(probe::name_of(*b)),
                n,
                if i + 1 == self.edges.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"cycles\": [\n");
        for (i, c) in self.cycles.iter().enumerate() {
            let names: Vec<String> = c.iter().map(|&id| json_string(probe::name_of(id))).collect();
            out.push_str(&format!(
                "    [{}]{}\n",
                names.join(", "),
                if i + 1 == self.cycles.len() { "" } else { "," },
            ));
        }
        out.push_str(&format!("  ],\n  \"trace_events\": {}\n}}\n", self.events.0));
        out
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..s.char_indices().take_while(|(i, _)| *i < n - 1).last().map(|(i, c)| i + c.len_utf8()).unwrap_or(0)])
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{record_acquire, record_hold};
    use machk_sync::probe::register;

    #[test]
    fn collect_and_render_include_registered_locks() {
        let id = register("test.report.hot", LockClass::Simple, "mcs");
        for i in 0..100 {
            record_acquire(id, i * 10, i % 4 == 0);
        }
        record_hold(id, 1_000);
        let stat = Lockstat::collect();
        let text = stat.render_text(10, true);
        assert!(text.contains("test.report.hot"), "{text}");
        assert!(text.contains("lock-order graph"), "{text}");
        let json = stat.render_json();
        assert!(json.contains("\"test.report.hot\""), "{json}");
        assert!(json.contains("\"acquires\": 100") || json.contains("\"acquires\":"), "{json}");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\u000ay\"");
    }

    #[test]
    fn truncate_is_utf8_safe() {
        assert_eq!(truncate("short", 26), "short");
        let t = truncate("averyveryverylongname_with_more", 10);
        assert!(t.chars().count() <= 10);
        let _ = truncate("ünïcödé_nâmé_thät_ïs_lông_ënöügh", 10);
    }
}
