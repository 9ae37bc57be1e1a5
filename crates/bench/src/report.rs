//! The `machk-bench/v1` experiment record.
//!
//! An experiment fills one [`BenchReport`] and nothing else: every
//! [`Table`] it prints and every metric that gates it. The `experiments`
//! binary prints [`BenchReport::text`] and, under `--artifacts`, writes
//! [`BenchReport::render`] as `BENCH_E01.json`…`BENCH_E20.json`. That
//! envelope is what `bench-compare` diffs against the committed
//! baselines in `bench/baselines/`, so its shape is versioned
//! (`"schema": "machk-bench/v1"`) and every metric carries its own
//! comparison rule:
//!
//! ```json
//! {"schema": "machk-bench/v1",
//!  "experiment": "E02",
//!  "title": "Locking granularity: code vs data (paper §2)",
//!  "mode": "quick",
//!  "host_threads": 2,
//!  "metrics": [
//!    {"name": "sim_separation_8c", "value": 4.224087, "unit": "ratio",
//!     "dir": "exact", "tol": 1}
//!  ],
//!  "tables": [
//!    {"title": "E2-sim: …", "headers": ["cores", "…"],
//!     "rows": [["1", "…"]], "notes": ["…"]}
//!  ]}
//! ```
//!
//! * `dir` says which direction is good: `"higher"`, `"lower"`,
//!   `"exact"` (must not change at all: structural invariants such as
//!   `lost_wakeups == 0`, and every deterministic simulator value), or
//!   `"info"` (recorded, never judged: host-dependent figures).
//! * `tol` is the multiplicative slack *the baseline grants*: a
//!   `higher` metric regresses when `fresh < base / tol`, a `lower`
//!   one when `fresh > base * tol`. `bench-compare` reads the
//!   tolerance from the baseline file, so loosening a gate is a
//!   reviewed change to a committed artifact.
//! * `tables` holds every table the run printed, cell for cell, so an
//!   artifact carries the numbers the text showed; `bench-compare`
//!   gates only `metrics`.
//!
//! Gated metrics should be host-independent: structural counts,
//! virtual-time values from `machk-sim`, rates with analytic bounds.
//! Wall-clock throughput belongs in `info` metrics (CI runners vary
//! too much for ops/s gates to mean anything).

use crate::util::{Sample, Table};

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

/// One experiment's record: its tables and its metrics.
pub struct BenchReport {
    id: String,
    title: String,
    mode: String,
    metrics: Vec<String>,
    tables: Vec<Table>,
}

impl BenchReport {
    /// Start the record of experiment `id` (`"E2"` or `"E02"`; the
    /// envelope always carries the two-digit form). `quick` sets the
    /// mode field so a baseline generated in one mode is never silently
    /// compared against the other.
    pub fn new(id: &str, title: &str, quick: bool) -> BenchReport {
        let n: u32 = id
            .trim_start_matches(['E', 'e'])
            .parse()
            .unwrap_or_else(|_| panic!("experiment id {id} is not E<number>"));
        BenchReport {
            id: format!("E{n:02}"),
            title: title.to_string(),
            mode: (if quick { "quick" } else { "full" }).to_string(),
            metrics: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// The envelope's experiment id (`E02`).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Replace the mode field (E17 records `seeds=N`).
    pub fn set_mode(&mut self, mode: &str) {
        self.mode = mode.to_string();
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

    /// A structural invariant or a deterministic value: gated, must not
    /// change at all.
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

    /// Record a printed table.
    pub fn table(&mut self, t: Table) {
        self.tables.push(t);
    }

    /// Record a section this build compiled out: the `flag` metric
    /// reads 0 (exact, so a run built without `feature` fails against a
    /// baseline built with it), and a one-row table says how to get the
    /// section back.
    pub fn compiled_out(&mut self, flag: &str, feature: &str, title: &str, what: &str) {
        self.exact(flag, 0.0, "bool");
        let mut t = Table::new(title, &["status"]);
        t.row(&[format!(
            "{feature} feature disabled: rebuild with `--features {feature}` {what}"
        )]);
        self.table(t);
    }

    /// Every recorded table, rendered in order.
    pub fn text(&self) -> String {
        self.tables.iter().map(Table::render).collect()
    }

    /// Render the complete envelope.
    pub fn render(&self) -> String {
        let tables: Vec<String> = self.tables.iter().map(table_json).collect();
        format!(
            "{{\"schema\":\"machk-bench/v1\",\"experiment\":\"{}\",\"title\":\"{}\",\
             \"mode\":\"{}\",\"host_threads\":{},\"metrics\":[{}],\"tables\":[{}]}}",
            json_escape(&self.id),
            json_escape(&self.title),
            json_escape(&self.mode),
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0),
            self.metrics.join(","),
            tables.join(","),
        )
    }
}

/// One table as a JSON object of strings: title, headers, rows, notes.
fn table_json(t: &Table) -> String {
    let strings = |v: &[String]| -> String {
        let quoted: Vec<String> = v.iter().map(|s| format!("\"{}\"", json_escape(s))).collect();
        format!("[{}]", quoted.join(","))
    };
    let rows: Vec<String> = t.rows.iter().map(|r| strings(r)).collect();
    format!(
        "{{\"title\":\"{}\",\"headers\":{},\"rows\":[{}],\"notes\":{}}}",
        json_escape(&t.title),
        strings(&t.headers),
        rows.join(","),
        strings(&t.notes),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn envelope_has_schema_and_metrics() {
        let mut r = BenchReport::new("E99", "demo \"quoted\"", true);
        r.metric("ratio", 4.25, "ratio", Dir::Higher, 1.5);
        r.exact("lost", 0.0, "count");
        r.info("ops", 123456.0, "ops/s");
        let s = r.render();
        assert!(s.contains("\"schema\":\"machk-bench/v1\""));
        assert!(s.contains("\"experiment\":\"E99\""));
        assert!(s.contains("demo \\\"quoted\\\""));
        assert!(s.contains("\"mode\":\"quick\""));
        assert!(s.contains("{\"name\":\"ratio\",\"value\":4.250000,\"unit\":\"ratio\",\"dir\":\"higher\",\"tol\":1.500000}"));
        assert!(s.contains("{\"name\":\"lost\",\"value\":0,\"unit\":\"count\",\"dir\":\"exact\",\"tol\":1}"));
        assert!(s.ends_with("\"tables\":[]}"));
    }

    #[test]
    fn ids_are_two_digits() {
        assert_eq!(BenchReport::new("E7", "t", true).id(), "E07");
        assert_eq!(BenchReport::new("E17", "t", true).id(), "E17");
    }

    fn demo_tables() -> [Table; 2] {
        let mut a = Table::new("E99a: \"first\"", &["threads", "ops/s"]);
        a.row(&["1".into(), "12.30M ±1.5%".into()]);
        a.row(&["2".into(), "7.00M ±0.4%".into()]);
        a.note("a note\twith a tab");
        let mut b = Table::new("E99b: second", &["status"]);
        b.row(&["ok".into()]);
        [a, b]
    }

    #[test]
    fn tables_round_trip_through_the_envelope() {
        let mut r = BenchReport::new("E99", "t", true);
        for t in demo_tables() {
            r.table(t);
        }
        let doc = parse(&r.render()).unwrap();
        let strings = |v: &Value| -> Vec<String> {
            v.as_arr()
                .unwrap()
                .iter()
                .map(|s| s.as_str().unwrap().to_string())
                .collect()
        };
        let tables = doc.get("tables").and_then(Value::as_arr).unwrap();
        assert_eq!(tables.len(), 2);
        for (parsed, table) in tables.iter().zip(demo_tables()) {
            assert_eq!(parsed.get("title").and_then(Value::as_str), Some(&*table.title));
            assert_eq!(strings(parsed.get("headers").unwrap()), table.headers);
            let rows: Vec<Vec<String>> = parsed
                .get("rows")
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(strings)
                .collect();
            assert_eq!(rows, table.rows);
            assert_eq!(strings(parsed.get("notes").unwrap()), table.notes);
        }
        assert_eq!(doc.get("extra"), None);
    }

    #[test]
    fn text_is_the_tables_rendered_in_order() {
        let mut r = BenchReport::new("E99", "t", true);
        let mut expected = String::new();
        for t in demo_tables() {
            expected.push_str(&t.render());
            r.table(t);
        }
        assert_eq!(r.text(), expected);
    }

    #[test]
    fn compiled_out_records_the_flag_and_a_status_row() {
        let mut r = BenchReport::new("E99", "t", true);
        r.compiled_out("sim_enabled", "sim", "E99-sim: demo", "to run it");
        let s = r.render();
        assert!(s.contains("{\"name\":\"sim_enabled\",\"value\":0,\"unit\":\"bool\",\"dir\":\"exact\",\"tol\":1}"));
        assert!(r.text().contains("== E99-sim: demo =="));
        assert!(r.text().contains("rebuild with `--features sim` to run it"));
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
    #[should_panic(expected = "tolerance")]
    fn sub_unit_tolerance_rejected() {
        let mut r = BenchReport::new("E01", "t", false);
        r.metric("m", 1.0, "u", Dir::Lower, 0.5);
    }
}
