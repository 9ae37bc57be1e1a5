//! The `machk-bench/v1` artifact envelope.
//!
//! Every experiment's `run_report` returns its rendered tables plus a
//! JSON artifact body built here. The envelope is what `bench-compare`
//! diffs against the committed baselines in `bench/baselines/`, so its
//! shape is versioned (`"schema": "machk-bench/v1"`) and every metric
//! carries its own comparison rule:
//!
//! ```json
//! {"schema": "machk-bench/v1",
//!  "experiment": "E02",
//!  "title": "Locking granularity: code vs data",
//!  "mode": "quick",
//!  "host_threads": 8,
//!  "metrics": [
//!    {"name": "sim_separation_8c", "value": 5.31, "unit": "ratio",
//!     "dir": "higher", "tol": 1.6}
//!  ],
//!  "extra": {"...": "experiment-specific detail, not gated"}}
//! ```
//!
//! * `dir` says which direction is good: `"higher"`, `"lower"`,
//!   `"exact"` (must not change at all — structural invariants like
//!   `lost_wakeups == 0`), or `"info"` (recorded, never gated —
//!   host-dependent throughput numbers).
//! * `tol` is the multiplicative slack *the baseline grants*: a
//!   `higher` metric regresses when `fresh < base / tol`, a `lower`
//!   one when `fresh > base * tol`. `bench-compare` reads the
//!   tolerance from the baseline file, so loosening a gate is a
//!   reviewed change to a committed artifact.
//! * `extra` carries the experiment's legacy free-form detail (sweep
//!   tables, ledgers, fingerprints); `bench-compare` ignores it.
//!
//! Gated metrics should be host-independent: structural counts,
//! virtual-time ratios from `machk-sim`, rates with analytic bounds.
//! Wall-clock throughput belongs in `info` metrics — CI runners vary
//! too much for ops/s gates to mean anything.

use crate::util::Sample;

/// Which direction of change is an improvement for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Bigger is better; regresses when `fresh < base / tol`.
    Higher,
    /// Smaller is better; regresses when `fresh > base * tol`.
    Lower,
    /// Structural invariant; any change at all is a regression.
    Exact,
    /// Recorded for the trajectory, never gated.
    Info,
}

impl Dir {
    /// The wire name used in the JSON envelope.
    pub fn as_str(self) -> &'static str {
        match self {
            Dir::Higher => "higher",
            Dir::Lower => "lower",
            Dir::Exact => "exact",
            Dir::Info => "info",
        }
    }
}

/// Render an `f64` as minimal JSON: integers without a fraction,
/// everything else with enough digits to round-trip the comparison.
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        // JSON has no Inf/NaN; an envelope should never contain one,
        // but a broken workload must not produce an unparseable file.
        return "null".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Builder for one experiment's envelope.
pub struct BenchReport {
    id: String,
    title: String,
    mode: String,
    metrics: Vec<String>,
    extra: Option<String>,
}

impl BenchReport {
    /// Start an envelope for experiment `id` (e.g. `"E02"`); `quick`
    /// sets the mode field so a baseline generated in one mode is
    /// never silently compared against the other.
    pub fn new(id: &str, title: &str, quick: bool) -> BenchReport {
        BenchReport::with_mode(id, title, if quick { "quick" } else { "full" })
    }

    /// [`BenchReport::new`] with a free-form mode string (E17 uses
    /// `seeds=N`).
    pub fn with_mode(id: &str, title: &str, mode: &str) -> BenchReport {
        BenchReport {
            id: id.to_string(),
            title: title.to_string(),
            mode: mode.to_string(),
            metrics: Vec::new(),
            extra: None,
        }
    }

    /// Append a metric with an explicit comparison rule.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, dir: Dir, tol: f64) {
        assert!(tol >= 1.0, "tolerance is multiplicative slack, >= 1.0");
        self.metrics.push(format!(
            "{{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\",\"dir\":\"{}\",\"tol\":{}}}",
            json_escape(name),
            json_num(value),
            json_escape(unit),
            dir.as_str(),
            json_num(tol),
        ));
    }

    /// A structural invariant: gated, must not change at all.
    pub fn exact(&mut self, name: &str, value: f64, unit: &str) {
        self.metric(name, value, unit, Dir::Exact, 1.0);
    }

    /// A trajectory-only metric: recorded, never gated.
    pub fn info(&mut self, name: &str, value: f64, unit: &str) {
        self.metric(name, value, unit, Dir::Info, 1.0);
    }

    /// A sampled host figure: its median under `name` and its median
    /// absolute deviation under `<name>_mad`, both trajectory-only.
    pub fn sampled(&mut self, name: &str, s: Sample, unit: &str) {
        self.info(name, s.median, unit);
        self.info(&format!("{name}_mad"), s.mad, unit);
    }

    /// Attach the experiment's free-form detail (must already be valid
    /// JSON); `bench-compare` ignores it.
    pub fn extra(&mut self, json: &str) {
        self.extra = Some(json.to_string());
    }

    /// Render the complete envelope.
    pub fn render(&self) -> String {
        format!(
            "{{\"schema\":\"machk-bench/v1\",\"experiment\":\"{}\",\"title\":\"{}\",\
             \"mode\":\"{}\",\"host_threads\":{},\"metrics\":[{}],\"extra\":{}}}",
            json_escape(&self.id),
            json_escape(&self.title),
            json_escape(&self.mode),
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0),
            self.metrics.join(","),
            self.extra.as_deref().unwrap_or("null"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_has_schema_and_metrics() {
        let mut r = BenchReport::new("E99", "demo \"quoted\"", true);
        r.metric("ratio", 4.25, "ratio", Dir::Higher, 1.5);
        r.exact("lost", 0.0, "count");
        r.info("ops", 123456.0, "ops/s");
        r.extra("{\"k\":1}");
        let s = r.render();
        assert!(s.contains("\"schema\":\"machk-bench/v1\""));
        assert!(s.contains("\"experiment\":\"E99\""));
        assert!(s.contains("demo \\\"quoted\\\""));
        assert!(s.contains("\"mode\":\"quick\""));
        assert!(s.contains("{\"name\":\"ratio\",\"value\":4.250000,\"unit\":\"ratio\",\"dir\":\"higher\",\"tol\":1.500000}"));
        assert!(s.contains("{\"name\":\"lost\",\"value\":0,\"unit\":\"count\",\"dir\":\"exact\",\"tol\":1}"));
        assert!(s.contains("\"extra\":{\"k\":1}"));
    }

    #[test]
    fn numbers_render_minimal() {
        assert_eq!(json_num(0.0), "0");
        assert_eq!(json_num(42.0), "42");
        assert_eq!(json_num(-3.0), "-3");
        assert_eq!(json_num(1.5), "1.500000");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn extra_defaults_to_null() {
        let r = BenchReport::new("E01", "t", false);
        assert!(r.render().ends_with("\"extra\":null}"));
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn sub_unit_tolerance_rejected() {
        let mut r = BenchReport::new("E01", "t", false);
        r.metric("m", 1.0, "u", Dir::Lower, 0.5);
    }
}
