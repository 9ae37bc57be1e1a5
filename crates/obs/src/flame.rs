//! Flamegraph-style aggregation: a probe [`Subscriber`] that rolls
//! events up into lock-class × call-site wait/hold totals.
//!
//! Lock *names* in this repository identify call sites — every named
//! constructor (`vm_object.ref`, `ipc.ns.shard03`, `task.lock`) is one
//! static declaration — so the (class, name) pair is the per-site key,
//! exactly what a collapsed-stack tool wants as a frame path. The
//! rollup keeps, per site: total wait time, total hold time, and a
//! count of untimed operations (try failures, ring traffic, spl
//! transitions). Render with [`FlameSubscriber::render_folded`]
//! (Brendan Gregg's `folded` text, one `frames value` line per site,
//! feedable straight into `flamegraph.pl`/`inferno`) or
//! [`FlameSubscriber::render_json`].

use std::collections::HashMap;
use std::sync::Mutex;

use machk_sync::probe::{self, EventKind, Subscriber, TraceEvent};

/// Which per-site measure a folded rendering reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlameMetric {
    /// Total nanoseconds spent waiting to acquire.
    Wait,
    /// Total nanoseconds the site's lock was held.
    Hold,
    /// Count of untimed operations (try failures, ring ops, spl, …).
    Ops,
}

#[derive(Clone, Copy, Default)]
struct SiteCell {
    wait_ns: u64,
    wait_count: u64,
    hold_ns: u64,
    hold_count: u64,
    ops: u64,
}

/// Per-site wait/hold aggregator. All state behind one mutex — this is
/// an opt-in analysis subscriber; the multi-subscriber bench measures
/// what that costs on the hot path.
pub struct FlameSubscriber {
    sites: Mutex<HashMap<u32, SiteCell>>,
}

impl FlameSubscriber {
    /// An empty aggregator.
    pub fn new() -> FlameSubscriber {
        FlameSubscriber {
            sites: Mutex::new(HashMap::new()),
        }
    }

    /// Number of distinct sites observed.
    pub fn site_count(&self) -> usize {
        self.sites.lock().unwrap().len()
    }

    /// Collapsed-stack text for one metric: a
    /// `machk;<class>;<site> <value>` line per site with a non-zero
    /// value, sorted descending. Wait/hold values are nanoseconds; ops
    /// values are counts.
    pub fn render_folded(&self, metric: FlameMetric) -> String {
        let mut rows: Vec<(String, u64)> = self
            .snapshot()
            .into_iter()
            .map(|(class, site, c)| {
                let v = match metric {
                    FlameMetric::Wait => c.wait_ns,
                    FlameMetric::Hold => c.hold_ns,
                    FlameMetric::Ops => c.ops,
                };
                (format!("machk;{};{}", class, site), v)
            })
            .filter(|(_, v)| *v > 0)
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut out = String::new();
        for (frames, v) in rows {
            out.push_str(&format!("{frames} {v}\n"));
        }
        out
    }

    /// JSON rendering of the full rollup (hand-rolled; the workspace
    /// has no serde). Schema: `{"schema": "machk-flame/v1", "sites":
    /// [{class, site, wait_ns, wait_count, hold_ns, hold_count,
    /// ops}]}` sorted by wait_ns descending.
    pub fn render_json(&self) -> String {
        let mut sites = self.snapshot();
        sites.sort_by(|a, b| b.2.wait_ns.cmp(&a.2.wait_ns).then(a.1.cmp(&b.1)));
        let mut out = String::from("{\"schema\": \"machk-flame/v1\", \"sites\": [\n");
        for (i, (class, site, c)) in sites.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"class\": \"{}\", \"site\": {}, \"wait_ns\": {}, \"wait_count\": {}, \
                 \"hold_ns\": {}, \"hold_count\": {}, \"ops\": {}}}{}\n",
                class,
                json_str(site),
                c.wait_ns,
                c.wait_count,
                c.hold_ns,
                c.hold_count,
                c.ops,
                if i + 1 == sites.len() { "" } else { "," },
            ));
        }
        out.push_str("]}\n");
        out
    }

    fn snapshot(&self) -> Vec<(&'static str, String, SiteCell)> {
        self.sites
            .lock()
            .unwrap()
            .iter()
            .map(|(&id, &c)| {
                let (class, site) = if id == 0 {
                    ("other", "<anonymous>".to_string())
                } else {
                    (probe::class_of(id).label(), probe::name_of(id).to_string())
                };
                (class, site, c)
            })
            .collect()
    }
}

impl Default for FlameSubscriber {
    fn default() -> Self {
        Self::new()
    }
}

impl Subscriber for FlameSubscriber {
    fn name(&self) -> &'static str {
        "flame"
    }

    fn on_event(&self, ev: &TraceEvent) {
        use EventKind::*;
        let mut sites = self.sites.lock().unwrap();
        let cell = sites.entry(ev.lock_id).or_default();
        match ev.kind {
            SimpleAcquire | ComplexRead | ComplexWrite | ComplexUpgradeOk => {
                cell.wait_ns += ev.arg;
                cell.wait_count += 1;
            }
            SimpleRelease | ComplexRelease => {
                cell.hold_ns += ev.arg;
                cell.hold_count += 1;
            }
            _ => cell.ops += 1,
        }
    }
}

fn json_str(s: &str) -> String {
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

    fn ev(kind: EventKind, id: u32, arg: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: 0,
            kind,
            lock_id: id,
            thread: 1,
            arg,
            flags: 0,
        }
    }

    #[test]
    fn rollup_sums_wait_hold_and_ops() {
        let id = probe::register("test.flame.site", probe::LockClass::Simple, "tas");
        let f = FlameSubscriber::new();
        f.on_event(&ev(EventKind::SimpleAcquire, id, 100));
        f.on_event(&ev(EventKind::SimpleAcquire, id, 50));
        f.on_event(&ev(EventKind::SimpleRelease, id, 70));
        f.on_event(&ev(EventKind::SimpleTryFail, id, 0));
        let folded = f.render_folded(FlameMetric::Wait);
        assert!(folded.contains("machk;simple;test.flame.site 150"), "{folded}");
        let hold = f.render_folded(FlameMetric::Hold);
        assert!(hold.contains("machk;simple;test.flame.site 70"), "{hold}");
        let ops = f.render_folded(FlameMetric::Ops);
        assert!(ops.contains("machk;simple;test.flame.site 1"), "{ops}");
        let json = f.render_json();
        assert!(json.contains("\"machk-flame/v1\""), "{json}");
        assert!(json.contains("\"wait_ns\": 150"), "{json}");
    }

    #[test]
    fn folded_sorts_descending_and_skips_zero() {
        let hot = probe::register("test.flame.hot", probe::LockClass::Simple, "");
        let cold = probe::register("test.flame.cold", probe::LockClass::Simple, "");
        let f = FlameSubscriber::new();
        f.on_event(&ev(EventKind::SimpleAcquire, hot, 900));
        f.on_event(&ev(EventKind::SimpleAcquire, cold, 10));
        f.on_event(&ev(EventKind::SimpleRelease, cold, 0)); // zero hold
        let folded = f.render_folded(FlameMetric::Wait);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("test.flame.hot"));
        let hold = f.render_folded(FlameMetric::Hold);
        assert!(!hold.contains("test.flame.cold"), "zero-valued rows are skipped: {hold}");
    }
}
