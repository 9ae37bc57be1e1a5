//! The per-function flow scan: passes 1–4 share one walk over a
//! function's tokens, tracking held locks (guard scopes and raw
//! acquire/release pairs), the spl raise/restore stack, and reference
//! gains/releases.
//!
//! The model is deliberately conservative in the static-analysis sense:
//! a hold is assumed live from its acquisition to the end of the
//! enclosing scope (guards), an explicit release (raw), or the end of
//! the function — so every runtime acquire-while-holding pair is a
//! subset of the edges recorded here. The obs cross-validation test
//! asserts exactly that containment against E16's runtime cycle.

use crate::graph::{EdgeSite, OrderGraph};
use crate::lexer::{Comment, Kind, Tok};
use crate::model::{Finding, Rule};
use crate::parse::{match_delim, Func};
use crate::symbols::{spl_level_index, LockClass, Symbols};

/// Blocking entry points per §6 ("never block while holding a simple
/// lock"). `thread_sleep`/`thread_sleep_guard`/`wait_drained` release
/// one named lock before blocking — that lock is exempt, any *other*
/// simple lock held is the violation.
const BLOCKING: [&str; 4] = [
    "thread_block",
    "thread_block_timeout",
    "park",
    "park_timeout",
];

/// Primitive lock types: acquisitions of `self.…` inside their own
/// impls are the definitions of the discipline, not uses of it.
const PRIMITIVE_IMPLS: [&str; 16] = [
    "RawSimpleLock",
    "SimpleLocked",
    "SimpleLockedGuard",
    "SimpleGuard",
    "SplLock",
    "ComplexLock",
    "RwData",
    "ReadGuard",
    "WriteGuard",
    "RwReadGuard",
    "RwWriteGuard",
    "LockData",
    "Backoff",
    "ObjHeader",
    "Kobj",
    "KobjGuard",
];

/// Impls whose take/release are the §8 primitives themselves.
const REF_PRIMITIVE_IMPLS: [&str; 5] = [
    "RefCount",
    "ShardedRefCount",
    "ObjHeader",
    "ObjRef",
    "WeakRef",
];

/// Method names that are lock/ref primitives — never treated as
/// call-graph edges.
const PRIMITIVE_METHODS: [&str; 27] = [
    "lock",
    "try_lock",
    "lock_raw",
    "try_lock_raw",
    "lock_with_deadline",
    "lock_result",
    "unlock",
    "unlock_raw",
    "read",
    "write",
    "try_read",
    "try_write",
    "read_raw",
    "write_raw",
    "try_read_raw",
    "try_write_raw",
    "write_raw_with_deadline",
    "read_to_write_raw",
    "try_read_to_write_raw",
    "write_to_read_raw",
    "done_raw",
    "upgrade",
    "try_upgrade",
    "downgrade",
    "take",
    "take_ref",
    "release",
];

/// Collection methods that, called on data reached through a held
/// guard (`q.len()`, `s.members.is_empty()`), work on the guarded
/// collection, not on another kernel object: no call edge to every
/// same-named function. Any other call through a guard
/// (`s.task.suspend()`) keeps its edge.
const GUARDED_DATA_METHODS: [&str; 8] = [
    "len",
    "is_empty",
    "iter",
    "get",
    "push",
    "push_back",
    "drain",
    "clear",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HoldKind {
    /// RAII guard: dies with its binding's scope (or `drop`).
    Guard,
    /// Raw acquire: dies at the matching textual release, else fn end.
    Raw,
}

#[derive(Debug)]
struct Hold {
    node: String,
    class: LockClass,
    kind: HoldKind,
    binding: Option<String>,
    /// Brace depth the hold's scope belongs to.
    depth: u32,
    line: u32,
}

#[derive(Debug)]
struct SplHold {
    level: usize,
    binding: Option<String>,
    line: u32,
    reported: bool,
}

/// One call made while holding locks (for the one-level call graph).
#[derive(Debug, Clone)]
pub struct HeldCall {
    pub callee: String,
    pub held: Vec<String>,
    pub line: u32,
}

/// Per-function summary feeding the cross-function pass.
#[derive(Debug, Clone)]
pub struct FnSummary {
    pub name: String,
    pub file: String,
    pub func_label: String,
    /// Lock nodes acquired anywhere in this fn (with first line).
    pub acquired: Vec<(String, u32)>,
    pub calls: Vec<HeldCall>,
}

/// Everything one function scan produces.
pub struct FnScan<'a> {
    toks: &'a [Tok],
    comments: &'a [Comment],
    file: &'a str,
    func: &'a Func,
    syms: &'a Symbols,
    /// Body ranges of *nested* named fns — scanned separately, skipped
    /// here so work is not attributed twice.
    skips: &'a [(usize, usize)],

    holds: Vec<Hold>,
    spl: Vec<SplHold>,
    refs: Vec<(String, i64, u32)>, // node, gains - releases, first gain line
    depth: u32,
    pending_let: Option<String>,
    pub findings: Vec<Finding>,
    pub edges: Vec<(String, String, u32)>,
    pub summary: FnSummary,
}

/// Label like `ComplexLock::write_raw` or `drive_workload`.
pub fn func_label(f: &Func) -> String {
    match &f.ctx {
        Some(c) => format!("{c}::{}", f.name),
        None => f.name.clone(),
    }
}

impl<'a> FnScan<'a> {
    pub fn new(
        toks: &'a [Tok],
        comments: &'a [Comment],
        file: &'a str,
        func: &'a Func,
        syms: &'a Symbols,
        skips: &'a [(usize, usize)],
    ) -> FnScan<'a> {
        FnScan {
            toks,
            comments,
            file,
            func,
            syms,
            skips,
            holds: Vec::new(),
            spl: Vec::new(),
            refs: Vec::new(),
            depth: 1,
            pending_let: None,
            findings: Vec::new(),
            edges: Vec::new(),
            summary: FnSummary {
                name: func.name.clone(),
                file: file.to_string(),
                func_label: func_label(func),
                acquired: Vec::new(),
                calls: Vec::new(),
            },
        }
    }

    fn allowed(&self, rule: Rule, line: u32) -> bool {
        let needle_rule = format!("lint: allow({})", rule.slug());
        self.comments.iter().any(|c| {
            c.end_line <= line + 1
                && line.saturating_sub(c.end_line) <= 1
                && (c.text.contains(&needle_rule) || c.text.contains("lint: allow(all)"))
        })
    }

    fn finding(&mut self, rule: Rule, line: u32, message: String) {
        if self.allowed(rule, line) {
            return;
        }
        self.findings.push(Finding::new(
            rule,
            self.file,
            line,
            self.summary.func_label.clone(),
            message,
        ));
    }

    /// Resolve a receiver chain (`self.header.lock` → segments) to a
    /// graph node key and its discipline class.
    fn resolve(&self, segments: &[String], had_self: bool) -> (Option<String>, Option<LockClass>) {
        let mut segs: Vec<&String> = segments.iter().collect();
        // An object's lock is the object: `obj.header().lock()` names
        // the same lock as `obj`.
        while segs.len() > 1
            && matches!(segs[segs.len() - 1].as_str(), "header" | "lock")
            && self.syms.class_of(segs[segs.len() - 2]) == Some(LockClass::Object)
        {
            segs.pop();
        }
        if segs.is_empty() {
            return (None, None);
        }
        // Class: the innermost (last) classed segment wins.
        let class = segs.iter().rev().find_map(|s| self.syms.class_of(s));
        // Registered lockstat name takes over as node identity.
        if segs.len() == 1 {
            if let Some(d) = self.syms.display.get(segs[0].as_str()) {
                return (Some(d.clone()), class);
            }
        }
        let joined = segs
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join(".");
        let key = if had_self {
            match &self.func.ctx {
                Some(c) => format!("{c}.{joined}"),
                None => joined,
            }
        } else {
            joined
        };
        // Object locks are named per type (`Task.obj` → `task.lock`).
        if let Some(d) = self.syms.display.get(&key).filter(|_| had_self) {
            return (Some(d.clone()), class);
        }
        (Some(key), class)
    }

    fn in_primitive_impl(&self) -> bool {
        self.func
            .ctx
            .as_deref()
            .map(|c| PRIMITIVE_IMPLS.contains(&c))
            .unwrap_or(false)
    }

    fn in_ref_primitive_impl(&self) -> bool {
        self.func
            .ctx
            .as_deref()
            .map(|c| REF_PRIMITIVE_IMPLS.contains(&c))
            .unwrap_or(false)
    }

    fn acquire(&mut self, node: String, class: LockClass, kind: HoldKind, line: u32) {
        // §5: an acquisition while holding records order edges from
        // every held lock (conservative superset of the runtime
        // top-of-stack edge).
        for h in &self.holds {
            if h.node != node {
                self.edges.push((h.node.clone(), node.clone(), line));
            }
        }
        if !self.summary.acquired.iter().any(|(n, _)| *n == node) {
            self.summary.acquired.push((node.clone(), line));
        }
        let binding = self.pending_let.take().filter(|b| b != "_");
        self.holds.push(Hold {
            node,
            class,
            kind,
            binding,
            depth: self.depth,
            line,
        });
    }

    fn release_node(&mut self, node: &str) {
        // Exact node match first, then last-segment match (release via
        // a different path expression than the acquire).
        if let Some(pos) = self.holds.iter().rposition(|h| h.node == node) {
            self.holds.remove(pos);
            return;
        }
        let last = node.rsplit('.').next().unwrap_or(node);
        if let Some(pos) = self
            .holds
            .iter()
            .rposition(|h| h.node.rsplit('.').next().unwrap_or(&h.node) == last)
        {
            self.holds.remove(pos);
        }
    }

    fn release_binding(&mut self, binding: &str) {
        if let Some(pos) = self
            .holds
            .iter()
            .rposition(|h| h.binding.as_deref() == Some(binding))
        {
            self.holds.remove(pos);
        }
    }

    /// §6 check at a blocking call; `exempt` is the lock the call
    /// itself releases (thread_sleep-style), already removed.
    fn check_blocking(&mut self, what: &str, line: u32) {
        let held: Vec<(String, u32)> = self
            .holds
            .iter()
            .filter(|h| h.class.is_simple())
            .map(|h| (h.node.clone(), h.line))
            .collect();
        for (node, acq_line) in held {
            self.finding(
                Rule::HoldAcrossBlock,
                line,
                format!(
                    "{what}() may block while simple lock `{node}` (acquired at line {acq_line}) is held — §6 forbids blocking under a simple lock"
                ),
            );
        }
    }

    /// Walk the whole body.
    pub fn run(&mut self) {
        let (open, close) = self.func.body;
        let mut j = open + 1;
        while j < close {
            if let Some(&(_, skip_end)) = self.skips.iter().find(|&&(s, e)| j >= s && j <= e) {
                j = skip_end + 1;
                continue;
            }
            let (kind, text, line) = {
                let t = &self.toks[j];
                (t.kind, t.text.clone(), t.line)
            };
            match (kind, text.as_str()) {
                (Kind::Punct, "{") => {
                    self.depth += 1;
                    j += 1;
                }
                (Kind::Punct, "}") => {
                    self.depth = self.depth.saturating_sub(1);
                    let d = self.depth;
                    self.holds
                        .retain(|h| h.kind == HoldKind::Raw || h.depth <= d);
                    j += 1;
                }
                (Kind::Punct, ";") => {
                    let d = self.depth;
                    self.holds
                        .retain(|h| h.kind == HoldKind::Raw || h.binding.is_some() || h.depth != d);
                    self.pending_let = None;
                    j += 1;
                }
                (Kind::Ident, "let") => {
                    // Binding ident: skip `mut` / irrefutable wrappers.
                    let toks = self.toks;
                    let mut k = j + 1;
                    while k < close {
                        match (toks[k].kind, toks[k].text.as_str()) {
                            (Kind::Ident, "mut") | (Kind::Punct, "(") => k += 1,
                            (Kind::Ident, "Some") | (Kind::Ident, "Ok") | (Kind::Ident, "Err") => {
                                k += 1
                            }
                            (Kind::Ident, _) => {
                                self.pending_let = Some(toks[k].text.clone());
                                break;
                            }
                            _ => break,
                        }
                    }
                    j += 1;
                }
                (Kind::Ident, "drop")
                    if self.toks.get(j + 1).map(|t| t.is("(")).unwrap_or(false) =>
                {
                    let end = match_delim(self.toks, j + 1, close + 1);
                    if let Some(arg) = self.toks[j + 2..end]
                        .iter()
                        .rev()
                        .find(|t| t.kind == Kind::Ident)
                    {
                        let arg = arg.text.clone();
                        self.release_binding(&arg);
                    }
                    j = end + 1;
                }
                (Kind::Ident, "return") => {
                    self.spl_exit_check(j, close);
                    j += 1;
                }
                (Kind::Ident, "spl_raise")
                    if self.toks.get(j + 1).map(|t| t.is("(")).unwrap_or(false) =>
                {
                    let end = match_delim(self.toks, j + 1, close + 1);
                    let level = self.toks[j + 2..end]
                        .iter()
                        .filter(|t| t.kind == Kind::Ident)
                        .find_map(|t| spl_level_index(&t.text));
                    if let Some(level) = level {
                        if let Some(top) = self.spl.last() {
                            if level < top.level {
                                let _ = &line;
                                self.finding(
                                    Rule::SplNonMonotoneRaise,
                                    line,
                                    format!(
                                        "spl_raise({}) below the current level {} — §7 raises must be monotone",
                                        crate::symbols::SPL_LEVELS[level],
                                        crate::symbols::SPL_LEVELS[top.level],
                                    ),
                                );
                            }
                        }
                        self.spl.push(SplHold {
                            level,
                            binding: self.pending_let.take(),
                            line,
                            reported: false,
                        });
                    }
                    j = end + 1;
                }
                (Kind::Ident, "spl_restore")
                    if self.toks.get(j + 1).map(|t| t.is("(")).unwrap_or(false) =>
                {
                    let end = match_delim(self.toks, j + 1, close + 1);
                    let arg = self.toks[j + 2..end]
                        .iter()
                        .rev()
                        .find(|t| t.kind == Kind::Ident)
                        .map(|t| t.text.clone());
                    if let Some(pos) = match &arg {
                        Some(a) => self
                            .spl
                            .iter()
                            .rposition(|s| s.binding.as_deref() == Some(a))
                            .or_else(|| {
                                if self.spl.is_empty() {
                                    None
                                } else {
                                    Some(self.spl.len() - 1)
                                }
                            }),
                        None if !self.spl.is_empty() => Some(self.spl.len() - 1),
                        None => None,
                    } {
                        self.spl.remove(pos);
                    }
                    j = end + 1;
                }
                (Kind::Ident, name)
                    if BLOCKING.contains(&name)
                        && self.toks.get(j + 1).map(|t| t.is("(")).unwrap_or(false) =>
                {
                    let _ = &line;
                    let what = name.to_string();
                    self.check_blocking(&what, line);
                    j = match_delim(self.toks, j + 1, close + 1) + 1;
                }
                (Kind::Ident, "thread_sleep")
                    if self.toks.get(j + 1).map(|t| t.is("(")).unwrap_or(false) =>
                {
                    let end = match_delim(self.toks, j + 1, close + 1);
                    // Second argument names the lock the call releases.
                    if let Some(node) = self.nth_arg_node(j + 1, end, 1) {
                        self.release_node(&node);
                    }
                    let _ = &line;
                    self.check_blocking("thread_sleep", line);
                    j = end + 1;
                }
                (Kind::Ident, "thread_sleep_guard")
                    if self.toks.get(j + 1).map(|t| t.is("(")).unwrap_or(false) =>
                {
                    let end = match_delim(self.toks, j + 1, close + 1);
                    if let Some(binding) = self.nth_arg_last_ident(j + 1, end, 1) {
                        self.release_binding(&binding);
                    }
                    let _ = &line;
                    self.check_blocking("thread_sleep_guard", line);
                    j = end + 1;
                }
                (Kind::Ident, "wait_drained")
                    if self.toks.get(j + 1).map(|t| t.is("(")).unwrap_or(false) =>
                {
                    // `count.wait_drained(&lock)` sleeps, releasing the
                    // passed lock (thread_sleep inside).
                    let end = match_delim(self.toks, j + 1, close + 1);
                    if let Some(node) = self.nth_arg_node(j + 1, end, 0) {
                        self.release_node(&node);
                    }
                    let _ = &line;
                    self.check_blocking("wait_drained", line);
                    j = end + 1;
                }
                (Kind::Ident, name) if self.toks.get(j + 1).map(|t| t.is("(")).unwrap_or(false) => {
                    let is_method = j > 0 && self.toks[j - 1].is(".");
                    if is_method {
                        self.method_call(j, name.to_string());
                    } else {
                        self.free_call(j, name.to_string(), close);
                    }
                    j += 1;
                }
                _ => j += 1,
            }
        }
        self.finish(close);
    }

    /// Extract the `n`-th (0-based) argument of a call and resolve its
    /// path expression to a node.
    fn nth_arg_node(&self, open: usize, close: usize, n: usize) -> Option<String> {
        let (segs, had_self) = self.nth_arg_path(open, close, n)?;
        self.resolve(&segs, had_self).0
    }

    fn nth_arg_last_ident(&self, open: usize, close: usize, n: usize) -> Option<String> {
        let (segs, _) = self.nth_arg_path(open, close, n)?;
        segs.last().cloned()
    }

    fn nth_arg_path(&self, open: usize, close: usize, n: usize) -> Option<(Vec<String>, bool)> {
        let mut depth = 0i32;
        let mut arg = 0usize;
        let mut j = open + 1;
        let mut segs: Vec<String> = Vec::new();
        let mut had_self = false;
        while j < close {
            let t = &self.toks[j];
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => {
                    if arg == n && !segs.is_empty() {
                        return Some((segs, had_self));
                    }
                    arg += 1;
                    segs.clear();
                    had_self = false;
                }
                _ => {}
            }
            if arg == n && t.kind == Kind::Ident && !matches!(t.text.as_str(), "mut" | "ref") {
                if t.text == "self" {
                    had_self = true;
                } else {
                    segs.push(t.text.clone());
                }
            }
            j += 1;
        }
        if arg >= n && !segs.is_empty() {
            Some((segs, had_self))
        } else {
            None
        }
    }

    /// Walk a method receiver chain backwards from the token before the
    /// `.`: `self.header.lock().lock_raw(` → (["header", "lock"], true).
    fn receiver_chain(&self, method_idx: usize) -> (Vec<String>, bool) {
        let mut segs: Vec<String> = Vec::new();
        let mut had_self = false;
        let mut k = method_idx as isize - 2; // before the `.`
        while k >= 0 {
            let t = &self.toks[k as usize];
            match (t.kind, t.text.as_str()) {
                (Kind::Punct, ")") | (Kind::Punct, "]") => {
                    // Skip a balanced group backwards.
                    let mut depth = 1i32;
                    k -= 1;
                    while k >= 0 && depth > 0 {
                        match self.toks[k as usize].text.as_str() {
                            ")" | "]" => depth += 1,
                            "(" | "[" => depth -= 1,
                            _ => {}
                        }
                        k -= 1;
                    }
                }
                (Kind::Ident, "self") => {
                    had_self = true;
                    break;
                }
                (Kind::Ident, _) => {
                    segs.push(t.text.clone());
                    if k >= 1 && self.toks[k as usize - 1].is(".") {
                        k -= 2;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        segs.reverse();
        (segs, had_self)
    }

    fn method_call(&mut self, idx: usize, name: String) {
        let line = self.toks[idx].line;
        let (segs, had_self) = self.receiver_chain(idx);
        let (node, class) = self.resolve(&segs, had_self);
        let self_primitive = had_self && segs.is_empty();

        // §8 reference pairing.
        match name.as_str() {
            "take" | "release" if class == Some(LockClass::Ref) => {
                if let Some(node) = node {
                    self.ref_delta(&node, if name == "take" { 1 } else { -1 }, line);
                }
                return;
            }
            "take_ref" | "release_ref" => {
                if !self.in_ref_primitive_impl() {
                    if let Some(node) = node.or_else(|| self.func.ctx.clone().filter(|_| had_self))
                    {
                        self.ref_delta(&node, if name == "take_ref" { 1 } else { -1 }, line);
                    }
                }
                return;
            }
            _ => {}
        }

        // Lock primitives. Skip `self.…` receivers inside the
        // primitives' own impls — those are the definitions.
        if self.in_primitive_impl() && (had_self || self_primitive) {
            return;
        }
        let acquire = |k: HoldKind, c: LockClass| Some((k, c));
        let action: Option<(HoldKind, LockClass)> = match name.as_str() {
            // Distinctive raw names classify on their own.
            "lock_raw" | "try_lock_raw" => acquire(HoldKind::Raw, LockClass::Simple),
            "read_raw"
            | "write_raw"
            | "try_read_raw"
            | "try_write_raw"
            | "write_raw_with_deadline" => acquire(HoldKind::Raw, LockClass::Complex),
            "read_to_write_raw" | "try_read_to_write_raw" | "write_to_read_raw" => None, // transition: hold unchanged
            // Generic names need a classed receiver.
            "lock" | "try_lock" | "lock_with_deadline" => match class {
                Some(LockClass::Simple) => acquire(HoldKind::Guard, LockClass::Simple),
                Some(LockClass::Object) => acquire(HoldKind::Guard, LockClass::Object),
                Some(LockClass::Spl) => acquire(HoldKind::Raw, LockClass::Spl),
                _ => None,
            },
            // `Kobj`'s own acquisitions: the guard (or the closure)
            // holds the object lock.
            "lock_active" | "with_active" | "with_state" => match class {
                Some(LockClass::Object) => acquire(HoldKind::Guard, LockClass::Object),
                _ => None,
            },
            "lock_result" => match class {
                Some(LockClass::Spl) => acquire(HoldKind::Raw, LockClass::Spl),
                _ => None,
            },
            "read" | "write" | "try_read" | "try_write" => match class {
                Some(LockClass::Complex) => acquire(HoldKind::Guard, LockClass::Complex),
                _ => None,
            },
            "unlock" | "unlock_raw" | "done_raw" => {
                // Guard binding release (`g.unlock()`) or raw release.
                if let Some(first) = segs.first() {
                    let b = first.clone();
                    if segs.len() == 1
                        && self
                            .holds
                            .iter()
                            .any(|h| h.binding.as_deref() == Some(b.as_str()))
                    {
                        self.release_binding(&b);
                        return;
                    }
                }
                if let Some(node) = node {
                    self.release_node(&node);
                }
                return;
            }
            "upgrade" | "try_upgrade" | "downgrade" => {
                // Guard transition: same lock, rebind if `let w = g.upgrade()`.
                if let Some(first) = segs.first() {
                    let b = first.clone();
                    let nb = self.pending_let.take();
                    if let Some(h) = self
                        .holds
                        .iter_mut()
                        .rev()
                        .find(|h| h.binding.as_deref() == Some(b.as_str()))
                    {
                        if nb.is_some() {
                            h.binding = nb;
                        }
                    }
                }
                return;
            }
            _ => None,
        };

        if let Some((kind, class)) = action {
            let Some(node) = node else { return };
            // §7: spl-protected acquire below the established level.
            if class == LockClass::Spl {
                if let Some(&req) = segs.iter().find_map(|s| self.syms.spl_level.get(s)) {
                    let cur = self.spl.iter().map(|s| s.level).max().unwrap_or(0);
                    if req > 0 && cur < req {
                        self.finding(
                            Rule::SplMissingRaise,
                            line,
                            format!(
                                "spl lock `{node}` requires {} but no spl_raise to that level is in scope — §7",
                                crate::symbols::SPL_LEVELS[req],
                            ),
                        );
                    }
                }
            }
            self.acquire(node, class, kind, line);
        } else if !PRIMITIVE_METHODS.contains(&name.as_str())
            && !self.holds.is_empty()
            && name != self.func.name
            && !self.on_guarded_collection(&name, &segs)
        {
            self.summary.calls.push(HeldCall {
                callee: name,
                held: self.holds.iter().map(|h| h.node.clone()).collect(),
                line,
            });
        }
    }

    /// Whether `name` is a collection method called on a receiver chain
    /// that starts at a held guard's binding.
    fn on_guarded_collection(&self, name: &str, segs: &[String]) -> bool {
        GUARDED_DATA_METHODS.contains(&name)
            && segs.first().is_some_and(|root| {
                self.holds
                    .iter()
                    .any(|h| h.kind == HoldKind::Guard && h.binding.as_deref() == Some(root))
            })
    }

    fn free_call(&mut self, idx: usize, name: String, close: usize) {
        let line = self.toks[idx].line;
        let open = idx + 1;
        let end = match_delim(self.toks, open, close + 1);
        match name.as_str() {
            "simple_lock" | "simple_lock_try" => {
                if let Some(node) = self.nth_arg_node(open, end, 0) {
                    self.acquire(node, LockClass::Simple, HoldKind::Raw, line);
                }
            }
            "simple_unlock" => {
                if let Some(node) = self.nth_arg_node(open, end, 0) {
                    self.release_node(&node);
                }
            }
            "lock_read" | "lock_write" | "lock_try_read" | "lock_try_write" => {
                if let Some(node) = self.nth_arg_node(open, end, 0) {
                    self.acquire(node, LockClass::Complex, HoldKind::Raw, line);
                }
            }
            "lock_done" => {
                if let Some(node) = self.nth_arg_node(open, end, 0) {
                    self.release_node(&node);
                }
            }
            "lock_read_to_write" | "lock_write_to_read" | "lock_try_read_to_write" => {}
            _ => {
                if !self.holds.is_empty() && name != self.func.name {
                    self.summary.calls.push(HeldCall {
                        callee: name,
                        held: self.holds.iter().map(|h| h.node.clone()).collect(),
                        line,
                    });
                }
            }
        }
    }

    fn ref_delta(&mut self, node: &str, delta: i64, line: u32) {
        if let Some(slot) = self.refs.iter_mut().find(|(n, _, _)| n == node) {
            slot.1 += delta;
        } else {
            self.refs.push((node.to_string(), delta, line));
        }
    }

    /// At a `return`: any un-restored spl raise whose token does not
    /// escape through the return expression is a §7 exit-path leak.
    fn spl_exit_check(&mut self, ret_idx: usize, close: usize) {
        // Return expression tokens: up to the statement `;` (balanced).
        let mut j = ret_idx + 1;
        let mut depth = 0i32;
        let mut expr_idents: Vec<&str> = Vec::new();
        while j < close {
            let t = &self.toks[j];
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            if t.kind == Kind::Ident {
                expr_idents.push(&t.text);
            }
            j += 1;
        }
        let line = self.toks[ret_idx].line;
        let mut msgs: Vec<(u32, String)> = Vec::new();
        for s in self.spl.iter_mut() {
            if s.reported {
                continue;
            }
            let escapes = s
                .binding
                .as_deref()
                .map(|b| expr_idents.contains(&b))
                .unwrap_or(false);
            if !escapes {
                s.reported = true;
                msgs.push((
                    line,
                    format!(
                        "return while spl raise at line {} (to {}) is not restored — §7 requires restore on every exit path",
                        s.line,
                        crate::symbols::SPL_LEVELS[s.level],
                    ),
                ));
            }
        }
        for (line, msg) in msgs {
            self.finding(Rule::SplUnrestored, line, msg);
        }
    }

    /// End-of-function checks: spl leaks and §8 pairing.
    fn finish(&mut self, close: usize) {
        let end_line = self.func.end_line(self.toks);

        // The fn may legitimately hand the token out: signature
        // mentions SplToken, or the tail expression mentions the
        // binding.
        let sig_has_token = self.toks[self.func.sig.0..self.func.sig.1]
            .iter()
            .any(|t| t.is_ident("SplToken"));
        let tail_start = self.toks[self.func.body.0 + 1..close]
            .iter()
            .rposition(|t| t.is(";"))
            .map(|p| self.func.body.0 + 2 + p)
            .unwrap_or(self.func.body.0 + 1);
        let tail_idents: Vec<String> = self.toks[tail_start..close]
            .iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text.clone())
            .collect();
        let mut msgs: Vec<(u32, String)> = Vec::new();
        for s in &self.spl {
            if s.reported || sig_has_token {
                continue;
            }
            let escapes = s
                .binding
                .as_deref()
                .map(|b| tail_idents.iter().any(|i| i == b))
                .unwrap_or(false);
            if !escapes {
                msgs.push((
                    s.line,
                    format!(
                        "spl raise to {} at line {} is never restored in this function — §7 requires restore on every exit path",
                        crate::symbols::SPL_LEVELS[s.level],
                        s.line,
                    ),
                ));
            }
        }
        for (line, msg) in msgs {
            self.finding(Rule::SplUnrestored, line, msg);
        }

        // §8 pairing: gains not matched by releases need an explicit
        // transfer annotation — inside the function, or in doc position
        // just above its signature.
        let has_transfer = self.comments.iter().any(|c| {
            c.end_line + 2 >= self.func.line
                && c.line <= end_line + 1
                && c.text.contains("lint: ref-transfer")
        });
        if !has_transfer && !self.in_ref_primitive_impl() {
            let skip_fn = matches!(
                self.func.name.as_str(),
                "take" | "take_ref" | "release" | "release_ref" | "clone" | "drop" | "fork"
            );
            if !skip_fn {
                let unpaired: Vec<(String, i64, u32)> = self
                    .refs
                    .iter()
                    .filter(|(_, d, _)| *d > 0)
                    .cloned()
                    .collect();
                for (node, d, line) in unpaired {
                    self.finding(
                        Rule::RefUnpaired,
                        line,
                        format!(
                            "{d} reference gain(s) on `{node}` with no matching release on this path — §8 pairs every take with a release (annotate `// lint: ref-transfer` if ownership moves)"
                        ),
                    );
                }
            }
        }
    }
}

/// Scan one function and fold its results into the shared collectors.
#[allow(clippy::too_many_arguments)]
pub fn scan_function(
    toks: &[Tok],
    comments: &[Comment],
    file: &str,
    func: &Func,
    syms: &Symbols,
    skips: &[(usize, usize)],
    graph: &mut OrderGraph,
    findings: &mut Vec<Finding>,
    summaries: &mut Vec<FnSummary>,
) {
    let mut scan = FnScan::new(toks, comments, file, func, syms, skips);
    scan.run();
    for (from, to, line) in &scan.edges {
        graph.add_edge(
            from,
            to,
            EdgeSite {
                file: file.to_string(),
                line: *line,
                func: scan.summary.func_label.clone(),
            },
        );
    }
    findings.append(&mut scan.findings);
    summaries.push(scan.summary);
}
