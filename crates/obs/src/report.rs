//! The aggregation pass: a `lockstat`-style report, a flamegraph fold
//! and an NDJSON trace export, all rendered from the one store the
//! [`crate::StatsSubscriber`] fills.
//!
//! [`Lockstat::collect`] freezes the registry counters, the order
//! graph, and the trace-ring totals into plain data;
//! [`Lockstat::render_text`] and [`Lockstat::render_json`] turn that
//! into the report the `experiments lockstat` subcommand prints: top-N
//! locks by contention, wait/hold log2 histograms, reader/writer/
//! upgrade breakdown, per-policy comparison, refcount traffic, and
//! lock-order cycles. [`Lockstat::render_folded`] rolls the same
//! counters up per lock-class × site as collapsed stacks, and
//! [`render_ndjson`] serializes the trace rings one event per line.

use std::collections::BTreeMap;

use machk_sync::probe::{self, LockClass, TraceEvent};

use crate::hist::{fmt_ns, HistSnapshot};
use crate::order;
use crate::registry::{self, LockReport};
use crate::ring;

/// Which per-site measure [`Lockstat::render_folded`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlameMetric {
    /// Total nanoseconds spent waiting to acquire (the wait histogram's
    /// sum: simple, read, write and upgrade acquisitions).
    Wait,
    /// Total nanoseconds the site's lock was held (the hold histogram's
    /// sum).
    Hold,
    /// Count of operations the registry recorded ([`LockReport::ops`]).
    Ops,
}

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

    /// Collapsed-stack text for one metric: a
    /// `machk;<class>;<site> <value>` line per lock with a non-zero
    /// value, largest first (Brendan Gregg's `folded` format, feedable
    /// straight into `flamegraph.pl` or `inferno`). Lock names identify
    /// call sites: every named constructor is one static declaration.
    /// Wait and hold values are nanoseconds; ops values are counts.
    pub fn render_folded(&self, metric: FlameMetric) -> String {
        let mut rows: Vec<(String, u64)> = self
            .locks
            .iter()
            .map(|l| {
                let v = match metric {
                    FlameMetric::Wait => l.wait.sum,
                    FlameMetric::Hold => l.hold.sum,
                    FlameMetric::Ops => l.ops(),
                };
                (format!("machk;{};{}", l.class.label(), l.name), v)
            })
            .filter(|(_, v)| *v > 0)
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.iter().map(|(frames, v)| format!("{frames} {v}\n")).collect()
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

/// One NDJSON line (no trailing newline) for a trace event. The lock
/// name is resolved through the registry at serialization time, so the
/// traced path never touches the name table.
pub fn line_for(ev: &TraceEvent) -> String {
    format!(
        "{{\"ts_ns\":{},\"kind\":\"{}\",\"lock_id\":{},\"lock\":{},\"thread\":{},\"arg\":{},\"flags\":{}}}",
        ev.ts_ns,
        ev.kind.label(),
        ev.lock_id,
        json_string(if ev.lock_id == 0 { "" } else { probe::name_of(ev.lock_id) }),
        ev.thread,
        ev.arg,
        ev.flags,
    )
}

/// The NDJSON export of the trace rings: one [`line_for`] line per
/// event they still hold, oldest first, and the number of events the
/// rings overwrote (pushed, but no longer held). The rings keep the
/// newest [`ring::RING_CAPACITY`] events per thread; totals live in the
/// registry.
pub fn render_ndjson() -> (String, u64) {
    let events = ring::snapshot_all();
    let mut out = String::with_capacity(events.len() * 96);
    for ev in &events {
        out.push_str(&line_for(ev));
        out.push('\n');
    }
    // Totals after the snapshot, so every kept event is counted.
    let overwritten = ring::totals().0.saturating_sub(events.len() as u64);
    (out, overwritten)
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
    use crate::StatsSubscriber;
    use machk_sync::probe::{register, EventKind, Subscriber};

    fn ev(kind: EventKind, id: u32, arg: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: arg,
            kind,
            lock_id: id,
            thread: 1,
            arg,
            flags: 0,
        }
    }

    #[test]
    fn fold_sums_wait_hold_and_ops_from_the_registry() {
        let id = register("test.fold.site", LockClass::Simple, "tas");
        StatsSubscriber.on_event(&ev(EventKind::SimpleAcquire, id, 100));
        StatsSubscriber.on_event(&ev(EventKind::SimpleRelease, id, 70));
        StatsSubscriber.on_event(&ev(EventKind::SimpleAcquire, id, 50));
        StatsSubscriber.on_event(&ev(EventKind::SimpleRelease, id, 0));
        StatsSubscriber.on_event(&ev(EventKind::SimpleTryFail, id, 0));
        let stat = Lockstat::collect();
        let has = |metric, line: &str| {
            let folded = stat.render_folded(metric);
            assert!(folded.lines().any(|l| l == line), "no `{line}` in:\n{folded}");
        };
        has(FlameMetric::Wait, "machk;simple;test.fold.site 150");
        has(FlameMetric::Hold, "machk;simple;test.fold.site 70");
        // Two acquisitions and a failed try.
        has(FlameMetric::Ops, "machk;simple;test.fold.site 3");
    }

    #[test]
    fn fold_sorts_largest_first_and_skips_zero() {
        let hot = register("test.fold.hot", LockClass::Simple, "");
        let cold = register("test.fold.cold", LockClass::Simple, "");
        StatsSubscriber.on_event(&ev(EventKind::SimpleAcquire, cold, 10));
        StatsSubscriber.on_event(&ev(EventKind::SimpleRelease, cold, 0));
        StatsSubscriber.on_event(&ev(EventKind::SimpleAcquire, hot, 900));
        let stat = Lockstat::collect();
        let wait = stat.render_folded(FlameMetric::Wait);
        let at = |site| wait.lines().position(|l| l.contains(site)).unwrap();
        assert!(at("test.fold.hot") < at("test.fold.cold"), "{wait}");
        let values: Vec<u64> = wait
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(values.windows(2).all(|w| w[0] >= w[1]), "{wait}");
        assert!(values.iter().all(|&v| v > 0), "{wait}");
        let hold = stat.render_folded(FlameMetric::Hold);
        assert!(!hold.contains("test.fold.cold"), "zero-valued rows are skipped: {hold}");
    }

    #[test]
    fn lines_are_single_json_objects() {
        let line = line_for(&ev(EventKind::SimpleAcquire, 0, 42));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"kind\":\"simple_acquire\""));
        assert!(line.contains("\"lock\":\"\""));
        assert!(line.contains("\"arg\":42"));
        assert!(!line.contains('\n'));
    }

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
