//! Report rendering: human text and machine JSON (hand-rolled — the
//! crate is dependency-free).

use crate::model::{Finding, Rule};
use crate::Analysis;

/// The human report: per-rule sections with file:line anchors, then a
/// lock-order-graph summary.
pub fn render_text(analysis: &Analysis) -> String {
    let mut out = String::new();
    let live: Vec<&Finding> = analysis.new_findings().collect();
    let pinned = analysis.findings.len() - live.len();
    out.push_str(&format!(
        "machk-lint: {} file(s), {} function(s) scanned; {} finding(s) ({} new, {} baselined)\n",
        analysis.files,
        analysis.functions,
        analysis.findings.len(),
        live.len(),
        pinned,
    ));

    for rule in Rule::ALL {
        let of_rule: Vec<&&Finding> = live.iter().filter(|f| f.rule == rule).collect();
        if of_rule.is_empty() {
            continue;
        }
        out.push_str(&format!(
            "\n{} [{}] — {} finding(s)\n",
            rule.slug(),
            rule.section(),
            of_rule.len()
        ));
        for f in of_rule {
            out.push_str(&format!(
                "  {}:{} ({}) {}\n",
                f.file, f.line, f.context, f.message
            ));
        }
    }

    out.push_str(&format!(
        "\nlock-order graph: {} node(s), {} edge(s), {} cycle(s)\n",
        analysis.graph.nodes().len(),
        analysis.graph.edge_count(),
        analysis.graph.cycles().len(),
    ));
    for cycle in analysis.graph.cycles() {
        out.push_str(&format!(
            "  cycle: {}\n",
            crate::graph::render_cycle(&cycle)
        ));
    }
    out
}

/// The machine report: findings (with baselined flag), the order graph
/// (nodes, edges with first site, cycles), and scan stats.
pub fn render_json(analysis: &Analysis) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files\": {},\n", analysis.files));
    out.push_str(&format!("  \"functions\": {},\n", analysis.functions));

    out.push_str("  \"findings\": [");
    for (i, f) in analysis.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"section\": {}, \"file\": {}, \"line\": {}, \"context\": {}, \"message\": {}, \"baselined\": {}}}",
            json_str(f.rule.slug()),
            json_str(f.rule.section()),
            json_str(&f.file),
            f.line,
            json_str(&f.context),
            json_str(&f.message),
            f.baselined,
        ));
    }
    out.push_str("\n  ],\n");

    let nodes = analysis.graph.nodes();
    out.push_str("  \"graph\": {\n    \"nodes\": [");
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_str(n));
    }
    out.push_str("],\n    \"edges\": [");
    for (i, (a, b, sites)) in analysis.graph.edges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let site = sites.first();
        out.push_str(&format!(
            "\n      {{\"from\": {}, \"to\": {}, \"file\": {}, \"line\": {}}}",
            json_str(a),
            json_str(b),
            json_str(site.map(|s| s.file.as_str()).unwrap_or("")),
            site.map(|s| s.line).unwrap_or(0),
        ));
    }
    out.push_str("\n    ],\n    \"cycles\": [");
    for (i, c) in analysis.graph.cycles().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('[');
        for (j, n) in c.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(n));
        }
        out.push(']');
    }
    out.push_str("]\n  }\n}\n");
    out
}

/// Minimal JSON string escape.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}
