//! Item extraction: find the functions (and their `impl`/`trait`
//! context) in a token stream, and the token ranges that are
//! `#[cfg(test)]`-only.
//!
//! This is a block scanner, not a parser: it walks items by keyword,
//! balances `{}`/`()`/`[]`, and counts `<`/`>` only where generics can
//! appear (impl headers, fn signatures). That is enough to attribute
//! every token of interest to an enclosing function.

use crate::lexer::{Kind, Tok};

/// One function found in a file.
#[derive(Debug, Clone)]
pub struct Func {
    pub name: String,
    /// The `impl`/`trait` type this fn is defined on, if any.
    pub ctx: Option<String>,
    /// Token range of the signature: `[sig_start, body_open)`.
    pub sig: (usize, usize),
    /// Token range of the body: `(body_open, body_close)` — the tokens
    /// strictly inside the braces are `body.0 + 1 .. body.1`.
    pub body: (usize, usize),
    pub line: u32,
    /// Inside a `#[cfg(test)]` item (directly or via an enclosing mod).
    pub cfg_test: bool,
}

impl Func {
    /// Last source line of the body (for "comment within fn" checks).
    pub fn end_line(&self, toks: &[Tok]) -> u32 {
        toks.get(self.body.1).map(|t| t.line).unwrap_or(self.line)
    }
}

/// Extraction result for one file.
#[derive(Debug, Default)]
pub struct Items {
    pub funcs: Vec<Func>,
    /// Token ranges (inclusive of delimiters) of `#[cfg(test)]` items.
    pub test_ranges: Vec<(usize, usize)>,
}

/// Scan a whole file's token stream.
pub fn items(toks: &[Tok]) -> Items {
    let mut out = Items::default();
    walk(toks, 0, toks.len(), None, false, &mut out);
    out
}

/// Find the matching close delimiter for the open one at `open`,
/// balancing all three bracket kinds. Returns the index of the close
/// token (or `end - 1` if unbalanced).
pub fn match_delim(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end {
        match toks[i].text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    end.saturating_sub(1)
}

fn walk(
    toks: &[Tok],
    mut i: usize,
    end: usize,
    ctx: Option<&str>,
    cfg_test: bool,
    out: &mut Items,
) {
    let mut pending_test = false;
    while i < end {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (Kind::Punct, "#") => {
                // `#[attr]` / `#![attr]`.
                let mut j = i + 1;
                if j < end && toks[j].is("!") {
                    j += 1;
                }
                if j < end && toks[j].is("[") {
                    let close = match_delim(toks, j, end);
                    if attr_is_cfg_test(&toks[j..=close]) {
                        pending_test = true;
                    }
                    i = close + 1;
                } else {
                    i += 1;
                }
            }
            (Kind::Ident, "impl") | (Kind::Ident, "trait") => {
                let is_trait = t.text == "trait";
                let (name, body_open) = impl_header(toks, i + 1, end, is_trait);
                if let Some(open) = body_open {
                    let close = match_delim(toks, open, end);
                    let test = cfg_test || pending_test;
                    if test {
                        out.test_ranges.push((i, close));
                    }
                    walk(toks, open + 1, close, name.as_deref(), test, out);
                    i = close + 1;
                } else {
                    i += 1;
                }
                pending_test = false;
            }
            (Kind::Ident, "mod") => {
                // `mod name { … }` or `mod name;`
                let mut j = i + 1;
                while j < end && !toks[j].is("{") && !toks[j].is(";") {
                    j += 1;
                }
                if j < end && toks[j].is("{") {
                    let close = match_delim(toks, j, end);
                    let test = cfg_test || pending_test;
                    if test {
                        out.test_ranges.push((i, close));
                    }
                    walk(toks, j + 1, close, ctx, test, out);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
                pending_test = false;
            }
            (Kind::Ident, "fn") => {
                let sig_start = i;
                let name = toks
                    .get(i + 1)
                    .filter(|t| t.kind == Kind::Ident)
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                // Scan to the body `{` (or `;` for a bodyless decl),
                // skipping balanced parens/brackets on the way (args,
                // default type params, `[u8; 4]` returns …).
                let mut j = i + 1;
                let mut body_open = None;
                while j < end {
                    match toks[j].text.as_str() {
                        "(" | "[" => j = match_delim(toks, j, end) + 1,
                        "{" => {
                            body_open = Some(j);
                            break;
                        }
                        ";" => break,
                        _ => j += 1,
                    }
                }
                if let Some(open) = body_open {
                    let close = match_delim(toks, open, end);
                    let test = cfg_test || pending_test;
                    if test {
                        out.test_ranges.push((sig_start, close));
                    }
                    out.funcs.push(Func {
                        name,
                        ctx: ctx.map(|s| s.to_string()),
                        sig: (sig_start, open),
                        body: (open, close),
                        line: t.line,
                        cfg_test: test,
                    });
                    // Nested items (fns, test mods) inside the body.
                    walk(toks, open + 1, close, ctx, cfg_test || pending_test, out);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
                pending_test = false;
            }
            (Kind::Ident, "struct") | (Kind::Ident, "enum") | (Kind::Ident, "union") => {
                // Skip to `;` or past the balanced body; fields are
                // handled by the symbol pass over raw tokens.
                let mut j = i + 1;
                while j < end && !toks[j].is("{") && !toks[j].is(";") && !toks[j].is("(") {
                    j += 1;
                }
                if j < end && (toks[j].is("{") || toks[j].is("(")) {
                    let close = match_delim(toks, j, end);
                    if cfg_test || pending_test {
                        out.test_ranges.push((i, close));
                    }
                    i = close + 1;
                    // Tuple structs end with `;` after the parens.
                    if i < end && toks[i].is(";") {
                        i += 1;
                    }
                } else {
                    i = j + 1;
                }
                pending_test = false;
            }
            (Kind::Ident, "static") | (Kind::Ident, "const") => {
                // Skip to the terminating `;`, balancing any braces in
                // the initializer. (`const fn` is handled by the `fn`
                // arm because we check `static`/`const` *after* seeing
                // the token is not `fn` — but `const fn x()` starts
                // with `const`, so peek ahead.)
                if toks.get(i + 1).map(|t| t.is_ident("fn")).unwrap_or(false) {
                    i += 1; // let the `fn` arm handle it, keeping pending_test
                    continue;
                }
                let mut j = i + 1;
                while j < end && !toks[j].is(";") {
                    match toks[j].text.as_str() {
                        "{" | "(" | "[" => j = match_delim(toks, j, end) + 1,
                        _ => j += 1,
                    }
                }
                if cfg_test || pending_test {
                    out.test_ranges.push((i, j.min(end - 1)));
                }
                i = j + 1;
                pending_test = false;
            }
            (Kind::Ident, "macro_rules") => {
                // `macro_rules! name { … }`
                let mut j = i + 1;
                while j < end && !toks[j].is("{") {
                    j += 1;
                }
                i = if j < end {
                    match_delim(toks, j, end) + 1
                } else {
                    end
                };
                pending_test = false;
            }
            (Kind::Ident, _) if toks.get(i + 1).map(|t| t.is("!")).unwrap_or(false) => {
                // Item-level macro invocation `name!(…)` / `name!{…}`.
                let mut j = i + 2;
                while j < end && !toks[j].is("(") && !toks[j].is("{") && !toks[j].is("[") {
                    j += 1;
                }
                let close = if j < end {
                    match_delim(toks, j, end)
                } else {
                    end - 1
                };
                if cfg_test || pending_test {
                    out.test_ranges.push((i, close));
                }
                i = close + 1;
                pending_test = false;
            }
            (_, "{") => {
                // A stray block at item level (e.g. inside a fn body we
                // are re-walking): recurse to find nested items.
                let close = match_delim(toks, i, end);
                walk(toks, i + 1, close, ctx, cfg_test, out);
                i = close + 1;
            }
            _ => i += 1,
        }
    }
}

/// Does an attribute token slice (`[ … ]`) mean "test-only"? Matches
/// `cfg(test)`, `cfg(all(test, …))`, `cfg_attr(test, …)`, and the
/// `#[test]` marker itself.
fn attr_is_cfg_test(attr: &[Tok]) -> bool {
    let has = |s: &str| attr.iter().any(|t| t.is_ident(s));
    has("test") && (has("cfg") || has("cfg_attr") || attr.len() <= 3)
}

/// Parse an `impl`/`trait` header starting after the keyword: returns
/// the subject type name and the index of the body `{` (None for
/// `impl Trait for Type;`-style oddities or parse failure).
fn impl_header(
    toks: &[Tok],
    start: usize,
    end: usize,
    is_trait: bool,
) -> (Option<String>, Option<usize>) {
    let mut angle = 0i32;
    let mut i = start;
    let mut after_for: Option<usize> = None;
    let mut body_open = None;
    while i < end {
        match toks[i].text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            "(" | "[" => {
                i = match_delim(toks, i, end);
            }
            "for" if angle <= 0 && toks[i].kind == Kind::Ident => after_for = Some(i + 1),
            "{" if angle <= 0 => {
                body_open = Some(i);
                break;
            }
            ";" if angle <= 0 => break,
            _ => {}
        }
        i += 1;
    }
    let name_start = if is_trait {
        start
    } else {
        after_for.unwrap_or(start)
    };
    (path_last_ident(toks, name_start, end), body_open)
}

/// The last identifier of the path starting at or after `start`
/// (skipping a leading generics group and `&`/`mut`/`dyn`):
/// `machk_sync::RawSimpleLock` → `RawSimpleLock`.
fn path_last_ident(toks: &[Tok], mut start: usize, end: usize) -> Option<String> {
    // Skip leading `<…>` (impl generics) and reference/dyn noise.
    let mut angle = 0i32;
    while start < end {
        match toks[start].text.as_str() {
            "<" => {
                angle += 1;
                start += 1;
            }
            ">" if angle > 0 => {
                angle -= 1;
                start += 1;
            }
            _ if angle > 0 => start += 1,
            "&" | "mut" | "dyn" => start += 1,
            _ if toks[start].kind == crate::lexer::Kind::Lifetime => start += 1,
            _ => break,
        }
    }
    let mut last = None;
    let mut i = start;
    while i < end {
        if toks[i].kind == Kind::Ident {
            last = Some(toks[i].text.clone());
            if i + 1 < end && toks[i + 1].is("::") {
                i += 2;
                continue;
            }
            break;
        }
        break;
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn names(src: &str) -> Vec<(String, Option<String>, bool)> {
        let (t, _) = lex(src);
        items(&t)
            .funcs
            .into_iter()
            .map(|f| (f.name, f.ctx, f.cfg_test))
            .collect()
    }

    #[test]
    fn plain_and_impl_fns() {
        let got = names(
            "fn free() { body(); }\n\
             impl Foo { pub fn method(&self) -> u32 { 1 } }\n\
             impl<T: Clone> Bar<T> for Baz { fn m2(&self) {} }",
        );
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], ("free".into(), None, false));
        assert_eq!(got[1], ("method".into(), Some("Foo".into()), false));
        assert_eq!(got[2], ("m2".into(), Some("Baz".into()), false));
    }

    #[test]
    fn cfg_test_marks_funcs_and_ranges() {
        let src = "#[cfg(test)] mod tests { #[test] fn t() { x.lock(); } }\nfn real() {}";
        let (t, _) = lex(src);
        let it = items(&t);
        let f: Vec<_> = it
            .funcs
            .iter()
            .map(|f| (f.name.as_str(), f.cfg_test))
            .collect();
        assert!(f.contains(&("t", true)));
        assert!(f.contains(&("real", false)));
        assert!(!it.test_ranges.is_empty());
    }

    #[test]
    fn nested_fn_and_static_in_fn() {
        let got = names(
            "fn outer() { static L: RawSimpleLock = RawSimpleLock::new(); fn inner() {} inner(); }",
        );
        let names: Vec<&str> = got.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }

    #[test]
    fn const_fn_is_a_fn() {
        let got = names("impl Foo { pub const fn new() -> Self { Foo } }");
        assert_eq!(got[0].0, "new");
    }
}
