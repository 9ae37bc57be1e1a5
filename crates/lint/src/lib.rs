//! machk-lint — a workspace static analyzer that machine-checks the
//! paper's locking discipline.
//!
//! The 1991 paper's correctness story is a set of *disciplines*: a
//! global lock ordering (§5), never block while holding a simple lock
//! (§6), monotone spl raise/restore around spl-protected locks (§7),
//! and balanced take/release of object references (§8). At runtime the
//! obs layer (E16 cycle diagnosis) and machk-fault (ledger audits) can
//! only catch the schedules that actually run; this crate checks the
//! discipline at the source level, before any schedule runs.
//!
//! Five passes (see DESIGN.md, "Lock discipline as machine-checked
//! rules"):
//!
//! 1. **lock-order graph** — acquisition sites build
//!    acquire-while-holding edges (plus a conservative one-level call
//!    graph); cycles are potential ABBA deadlocks.
//! 2. **hold-across-block** — a simple-lock hold live across
//!    `thread_block`/`thread_sleep`/`park`.
//! 3. **spl discipline** — raises monotone, restored on every exit
//!    path, spl-protected locks acquired at their level.
//! 4. **refcount pairing** — take/release balance per function, with
//!    `// lint: ref-transfer` marking deliberate ownership moves.
//! 5. **atomics-ordering audit** — every `Ordering::Relaxed` carries a
//!    `// relaxed: <why>` justification.
//!
//! Like the vendored `proptest` shim, the crate is
//! dependency-free: a hand-rolled lexer and block scanner, no `syn`,
//! no network. It is also never a dependency of the product crates —
//! CI's `cargo tree` zero-cost assertion covers it.

pub mod baseline;
pub mod graph;
pub mod lexer;
pub mod model;
pub mod parse;
pub mod report;
pub mod scan;
pub mod symbols;

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use graph::OrderGraph;
use lexer::{Comment, Kind, Tok};
use model::{Finding, Rule};
use scan::FnSummary;

/// One loaded source file.
pub struct SourceFile {
    /// Workspace-relative path (forward slashes).
    pub rel: String,
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
    pub items: parse::Items,
}

/// The loaded workspace.
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<SourceFile>,
}

/// Crates that are vendored third-party shims, not product code under
/// the paper's discipline.
const EXCLUDED_CRATES: [&str; 1] = ["proptest"];

impl Workspace {
    /// Load every workspace member's `src/` tree (product sources; the
    /// discipline governs kernel code, not tests or benches — test
    /// modules inside `src` are skipped by the scanner, and deliberate
    /// violations in experiments are pinned by the baseline).
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut paths: Vec<PathBuf> = Vec::new();
        let crates = root.join("crates");
        if crates.is_dir() {
            let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.is_dir()
                        && p.file_name()
                            .and_then(|n| n.to_str())
                            .map(|n| !EXCLUDED_CRATES.contains(&n))
                            .unwrap_or(false)
                })
                .collect();
            members.sort();
            for m in members {
                collect_rs(&m.join("src"), &mut paths)?;
            }
        }
        // The facade crate's own src/.
        collect_rs(&root.join("src"), &mut paths)?;
        paths.sort();
        Workspace::from_paths(root, &paths)
    }

    /// Load an explicit set of files (fixtures, subsets).
    pub fn from_paths(root: &Path, paths: &[PathBuf]) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        for p in paths {
            let text = std::fs::read_to_string(p)?;
            let (toks, comments) = lexer::lex(&text);
            let items = parse::items(&toks);
            let rel = p
                .strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile {
                rel,
                toks,
                comments,
                items,
            });
        }
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for e in entries {
        if e.is_dir() {
            collect_rs(&e, out)?;
        } else if e.extension().and_then(|x| x.to_str()) == Some("rs") {
            out.push(e);
        }
    }
    Ok(())
}

/// Full analysis result.
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub graph: OrderGraph,
    pub files: usize,
    pub functions: usize,
}

impl Analysis {
    /// Findings not suppressed by a baseline (after
    /// [`baseline::Baseline::apply`]).
    pub fn new_findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.baselined)
    }
}

/// Run all five passes over a loaded workspace.
pub fn analyze(ws: &Workspace) -> Analysis {
    // Symbol table first: classification is workspace-global (a field
    // declared in machk-sync classifies call sites in machk-vm).
    let mut syms = symbols::Symbols::default();
    for f in &ws.files {
        syms.collect(&f.toks);
    }

    let mut graph = OrderGraph::default();
    let mut findings: Vec<Finding> = Vec::new();
    let mut summaries: Vec<FnSummary> = Vec::new();
    let mut functions = 0usize;

    for f in &ws.files {
        // Pass 5 first (token-level, skips test ranges).
        relaxed_pass(f, &mut findings);

        for (i, func) in f.items.funcs.iter().enumerate() {
            if func.cfg_test {
                continue;
            }
            functions += 1;
            // Nested fns are scanned on their own; skip their ranges
            // inside the parent.
            let skips: Vec<(usize, usize)> = f
                .items
                .funcs
                .iter()
                .enumerate()
                .filter(|(k, g)| {
                    *k != i && g.body.0 > func.body.0 && g.body.1 < func.body.1
                })
                .map(|(_, g)| (g.sig.0, g.body.1))
                .collect();
            scan::scan_function(
                &f.toks,
                &f.comments,
                &f.rel,
                func,
                &syms,
                &skips,
                &mut graph,
                &mut findings,
                &mut summaries,
            );
        }
    }

    // Conservative one-level call graph: a call made while holding L,
    // to any same-named function that itself acquires M, is an L→M
    // edge. One level only — no transitive closure — matching the obs
    // layer's per-acquisition granularity without exploding the graph.
    let mut by_name: HashMap<&str, Vec<&FnSummary>> = HashMap::new();
    for s in &summaries {
        by_name.entry(&s.name).or_default().push(s);
    }
    for s in &summaries {
        for call in &s.calls {
            let Some(callees) = by_name.get(call.callee.as_str()) else {
                continue;
            };
            for callee in callees {
                if callee.func_label == s.func_label {
                    continue;
                }
                for (acq, _) in &callee.acquired {
                    for held in &call.held {
                        graph.add_edge(
                            held,
                            acq,
                            graph::EdgeSite {
                                file: s.file.clone(),
                                line: call.line,
                                func: format!("{} -> {}", s.func_label, callee.func_label),
                            },
                        );
                    }
                }
            }
        }
    }

    // §5 cycles become findings, keyed by their canonical node list so
    // the baseline identity survives unrelated edits.
    for cycle in graph.cycles() {
        let key = graph::render_cycle(&cycle);
        let site = cycle_site(&graph, &cycle);
        let (file, line) = site
            .map(|s| (s.file.clone(), s.line))
            .unwrap_or_else(|| (String::from("<graph>"), 0));
        findings.push(Finding::new(
            Rule::LockOrderCycle,
            &file,
            line,
            key.clone(),
            format!("potential ABBA deadlock: static lock-order cycle {key} — §5 requires a global acquisition order"),
        ));
    }

    findings.sort_by(|a, b| {
        a.rule
            .cmp(&b.rule)
            .then(a.file.cmp(&b.file))
            .then(a.line.cmp(&b.line))
    });

    Analysis {
        findings,
        graph,
        files: ws.files.len(),
        functions,
    }
}

/// First edge site along a cycle (for the report's file:line anchor).
fn cycle_site<'g>(
    graph: &'g OrderGraph,
    cycle: &[String],
) -> Option<&'g graph::EdgeSite> {
    for w in cycle.windows(2) {
        if let Some(s) = graph.site_of(&w[0], &w[1]) {
            return Some(s);
        }
    }
    if cycle.len() >= 2 {
        graph.site_of(&cycle[cycle.len() - 1], &cycle[0])
    } else {
        None
    }
}

/// Pass 5: every `Ordering::Relaxed` must carry a `relaxed: <why>`
/// comment on its line or within the two lines above (a multi-line
/// statement's justification sits above the statement). A contiguous
/// run of Relaxed lines shares one justification — a four-counter
/// stats snapshot is one decision, not four.
fn relaxed_pass(f: &SourceFile, findings: &mut Vec<Finding>) {
    let mut sites: Vec<u32> = Vec::new();
    for (i, t) in f.toks.iter().enumerate() {
        if t.kind != Kind::Ident || t.text != "Relaxed" {
            continue;
        }
        // Only the ordering path (`Ordering::Relaxed`, `…::Relaxed`),
        // not an arbitrary ident named Relaxed in a pattern position.
        let is_path = i >= 1 && f.toks[i - 1].is("::");
        if !is_path {
            continue;
        }
        if f.items
            .test_ranges
            .iter()
            .any(|&(s, e)| i >= s && i <= e)
        {
            continue;
        }
        sites.push(t.line);
    }
    sites.dedup();

    let mut last_justified: Option<u32> = None;
    for &line in &sites {
        let own = f.comments.iter().any(|c| {
            // A justifying comment ends on the line, just above it, or
            // (for runs of trailing comments, which lex as one block)
            // spans it.
            let above = c.end_line <= line && line - c.end_line <= 2;
            let spans = c.line <= line && line <= c.end_line;
            (above || spans) && c.text.contains("relaxed:")
        });
        let inherited = last_justified == Some(line) || last_justified == Some(line - 1);
        if own || inherited {
            last_justified = Some(line);
            continue;
        }
        last_justified = None;
        let context = f
            .items
            .funcs
            .iter()
            .filter(|fun| {
                let end = fun.end_line(&f.toks);
                fun.line <= line && line <= end
            })
            .min_by_key(|fun| fun.end_line(&f.toks) - fun.line)
            .map(scan::func_label)
            .unwrap_or_else(|| "<file>".to_string());
        findings.push(Finding::new(
            Rule::RelaxedUnjustified,
            &f.rel,
            line,
            context,
            "Ordering::Relaxed without a `// relaxed: <why>` justification — document why no ordering is needed or use a stronger ordering".to_string(),
        ));
    }
}

#[cfg(test)]
mod relaxed_tests {
    use super::*;

    fn run(src: &str) -> Vec<u32> {
        let (toks, comments) = lexer::lex(src);
        let items = parse::items(&toks);
        let f = SourceFile {
            rel: "t.rs".into(),
            toks,
            comments,
            items,
        };
        let mut out = Vec::new();
        relaxed_pass(&f, &mut out);
        out.iter().map(|x| x.line).collect()
    }

    #[test]
    fn contiguous_runs_share_one_justification() {
        let src = "fn f(a: &AtomicU32) {\n\
                   \x20   // relaxed: advisory counters.\n\
                   \x20   a.load(Ordering::Relaxed);\n\
                   \x20   a.load(Ordering::Relaxed);\n\
                   \x20   a.load(Ordering::Relaxed);\n\
                   }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn gap_breaks_the_run() {
        let src = "fn f(a: &AtomicU32) {\n\
                   \x20   // relaxed: advisory counter.\n\
                   \x20   a.load(Ordering::Relaxed);\n\
                   \x20   let x = 1;\n\
                   \x20   let y = 2;\n\
                   \x20   let z = 3;\n\
                   \x20   a.load(Ordering::Relaxed);\n\
                   }\n";
        assert_eq!(run(src), vec![7]);
    }
}
