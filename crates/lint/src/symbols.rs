//! The workspace symbol table: which identifiers name locks or
//! reference counts, what class they are, and what lockstat name they
//! register under.
//!
//! Classification is by declared type, collected from three shapes:
//!
//! * `static`/`let` declarations — `static L: RawSimpleLock = …`,
//!   `let m = ComplexLock::new(false)`;
//! * typed bindings anywhere — struct fields and fn params both lex as
//!   `ident : Type`, so `lock: RawSimpleLock` classifies `lock`
//!   whether it is a field or an argument;
//! * `decl_simple_lock_data!(class, NAME)` declarations.
//!
//! Named constructors (`RawSimpleLock::named("task.lock")`,
//! `ComplexLock::named`, `ShardedRefCount::named`,
//! `SplLock::named_at_level`, `ObjHeader::named`, `Kobj::named`) record
//! the registered name, which the order graph uses as the node's
//! display name — that is what lets the obs cross-validation test match
//! runtime cycle names against static nodes.
//!
//! Object locks are usually struct fields (`obj: Kobj::named(…)` in a
//! `Task { … }` literal), and every object type names its field the same
//! way, so their names are recorded per type (`Task.obj` →
//! `task.lock`): keyed by the bare field name, every object lock would
//! merge into one node and their order edges into self-edges.

use std::collections::HashMap;

use crate::lexer::{Kind, Tok};

/// What discipline class a symbol belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockClass {
    /// `RawSimpleLock` / `SimpleLocked<T>` — spin locks; §6 forbids
    /// blocking while one is held.
    Simple,
    /// `SplLock` — a simple lock bound to an interrupt priority level
    /// (§7's one-level rule).
    Spl,
    /// `ComplexLock` / `RwData<T>` — sleepable read/write locks.
    Complex,
    /// `RefCount` / `ShardedRefCount` — §8 reference counts with
    /// take/release pairing.
    Ref,
    /// `ObjHeader` / `Kobj` — a kernel object's lock, which also guards
    /// its §8 count: a simple lock in the order graph and in the §6
    /// check, with `take_ref`/`release_ref` pairing like any count.
    Object,
}

impl LockClass {
    pub fn of_type(name: &str) -> Option<LockClass> {
        Some(match name {
            "RawSimpleLock" | "SimpleLocked" => LockClass::Simple,
            "SplLock" => LockClass::Spl,
            "ComplexLock" | "RwData" | "LockData" => LockClass::Complex,
            "RefCount" | "ShardedRefCount" => LockClass::Ref,
            "ObjHeader" | "Kobj" => LockClass::Object,
            _ => return None,
        })
    }

    /// Simple in the §6 sense: spinning, non-sleepable.
    pub fn is_simple(self) -> bool {
        matches!(self, LockClass::Simple | LockClass::Spl | LockClass::Object)
    }
}

/// The spl levels, in masking order (must match `machk-intr`).
pub const SPL_LEVELS: [&str; 7] = [
    "Spl0",
    "SplSoftClock",
    "SplNet",
    "SplVm",
    "SplClock",
    "SplSched",
    "SplHigh",
];

pub fn spl_level_index(name: &str) -> Option<usize> {
    SPL_LEVELS.iter().position(|&l| l == name)
}

/// Workspace-wide symbol classification.
#[derive(Debug, Default)]
pub struct Symbols {
    /// Identifier → discipline class.
    pub classes: HashMap<String, LockClass>,
    /// Identifier → lockstat-registered name (named constructors).
    pub display: HashMap<String, String>,
    /// Identifier → required spl level index (`SplLock::at_level`).
    pub spl_level: HashMap<String, usize>,
}

impl Symbols {
    /// Collect symbols from one file's token stream (call once per
    /// file; the table accumulates).
    pub fn collect(&mut self, toks: &[Tok]) {
        let n = toks.len();
        let mut i = 0;
        while i < n {
            let t = &toks[i];
            if t.kind != Kind::Ident {
                i += 1;
                continue;
            }
            match t.text.as_str() {
                "static" | "let" => {
                    i = self.collect_binding(toks, i);
                    continue;
                }
                "decl_simple_lock_data" => {
                    i = self.collect_decl_macro(toks, i);
                    continue;
                }
                _ => {
                    // `ident : Type` — field or parameter.
                    if i + 2 < n && toks[i + 1].is(":") {
                        if let Some((class, at)) = type_class_at(toks, i + 2) {
                            self.classes.entry(t.text.clone()).or_insert(class);
                            if class == LockClass::Object {
                                self.collect_object_field(toks, i, at);
                            }
                        }
                    }
                }
            }
            i += 1;
        }
    }

    /// `static NAME: Type = Ctor::…;` / `let name = Ctor::…;` — scan to
    /// the `;`, classifying the bound identifier by either annotation
    /// or constructor, and capturing `named("…")` registration.
    fn collect_binding(&mut self, toks: &[Tok], start: usize) -> usize {
        let n = toks.len();
        // Binding identifier: first ident after the keyword, skipping
        // `mut` and irrefutable-pattern noise.
        let mut i = start + 1;
        let mut name: Option<String> = None;
        while i < n {
            match (toks[i].kind, toks[i].text.as_str()) {
                (Kind::Ident, "mut") => i += 1,
                (Kind::Ident, _) => {
                    name = Some(toks[i].text.clone());
                    i += 1;
                    break;
                }
                (_, "(") => i += 1, // tuple pattern: take the first ident
                _ => break,
            }
        }
        // Walk to the statement end, looking for a class type, a named
        // ctor, and an `at_level` argument.
        let mut class: Option<LockClass> = None;
        let mut depth = 0i32;
        while i < n {
            let t = &toks[i];
            match t.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            if t.kind == Kind::Ident {
                if class.is_none() {
                    if let Some(c) = LockClass::of_type(&t.text) {
                        class = Some(c);
                    }
                }
                if matches!(t.text.as_str(), "named" | "named_at_level") {
                    // First string literal in the args is the name.
                    if let Some(s) = toks[i..].iter().take(6).find(|t| t.kind == Kind::Str) {
                        if let Some(id) = &name {
                            self.display.insert(id.clone(), s.text.clone());
                        }
                    }
                }
                if matches!(t.text.as_str(), "at_level" | "named_at_level") {
                    // `SplLevel :: X` in the args.
                    if let Some(lvl) = toks[i..]
                        .iter()
                        .take(10)
                        .filter(|t| t.kind == Kind::Ident)
                        .find_map(|t| spl_level_index(&t.text))
                    {
                        if let Some(id) = &name {
                            self.spl_level.insert(id.clone(), lvl);
                        }
                    }
                }
            }
            i += 1;
        }
        if let (Some(id), Some(c)) = (&name, class) {
            self.classes.entry(id.clone()).or_insert(c);
        }
        i
    }

    /// `field: Kobj::named("task.lock", …)` inside a `Task { … }`
    /// literal: record the name under `Task.field`.
    fn collect_object_field(&mut self, toks: &[Tok], field: usize, ty: usize) {
        let named = toks.get(ty + 1).is_some_and(|t| t.is("::"))
            && toks.get(ty + 2).is_some_and(|t| t.is_ident("named"))
            && toks.get(ty + 3).is_some_and(|t| t.is("("));
        let Some(name) = toks.get(ty + 4).filter(|t| named && t.kind == Kind::Str) else {
            return;
        };
        // The literal's type: the ident before the innermost unclosed `{`.
        let mut depth = 0i32;
        for k in (1..field).rev() {
            match toks[k].text.as_str() {
                "}" => depth += 1,
                "{" if depth > 0 => depth -= 1,
                "{" => {
                    if toks[k - 1].kind == Kind::Ident {
                        let key = format!("{}.{}", toks[k - 1].text, toks[field].text);
                        self.display.insert(key, name.text.clone());
                    }
                    return;
                }
                _ => {}
            }
        }
    }

    /// `decl_simple_lock_data!(class, NAME)` — the macro names the lock
    /// after its identifier.
    fn collect_decl_macro(&mut self, toks: &[Tok], start: usize) -> usize {
        let n = toks.len();
        let mut i = start + 1;
        while i < n && !toks[i].is("(") {
            i += 1;
        }
        if i >= n {
            return n;
        }
        let close = crate::parse::match_delim(toks, i, n);
        if let Some(id) = toks[i..close].iter().rev().find(|t| t.kind == Kind::Ident) {
            self.classes
                .entry(id.text.clone())
                .or_insert(LockClass::Simple);
            self.display.insert(id.text.clone(), id.text.clone());
        }
        close + 1
    }

    /// Class of an identifier, if known.
    pub fn class_of(&self, ident: &str) -> Option<LockClass> {
        self.classes.get(ident).copied()
    }
}

/// If the tokens at `i` start a type that resolves to a lock class,
/// return it. Skips `&`, `mut`, `dyn`, lifetimes; follows one path
/// (`machk_sync :: RawSimpleLock`) and looks inside one generics group
/// for wrappers (`Option<…>`, `Arc<…>`).
fn type_class_at(toks: &[Tok], mut i: usize) -> Option<(LockClass, usize)> {
    let n = toks.len();
    let mut hops = 0;
    while i < n && hops < 24 {
        hops += 1;
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (_, "&") | (Kind::Ident, "mut") | (Kind::Ident, "dyn") | (Kind::Lifetime, _) => i += 1,
            (Kind::Ident, name) => {
                if let Some(c) = LockClass::of_type(name) {
                    return Some((c, i));
                }
                // Follow `path::segment` and wrapper generics
                // (`Option<RawSimpleLock>`, `Arc<SimpleLocked<T>>`) —
                // both skip the name and its separator token.
                let path_seg = i + 1 < n && toks[i + 1].is("::");
                let wrapper = i + 1 < n
                    && toks[i + 1].is("<")
                    && matches!(name, "Option" | "Arc" | "Box" | "Vec" | "Pin");
                if path_seg || wrapper {
                    i += 2;
                } else {
                    return None;
                }
            }
            _ => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn table(src: &str) -> Symbols {
        let (t, _) = lex(src);
        let mut s = Symbols::default();
        s.collect(&t);
        s
    }

    #[test]
    fn statics_lets_fields_params() {
        let s = table(
            "static A: RawSimpleLock = RawSimpleLock::named(\"e16.order.a\");\n\
             let map = ComplexLock::new(false);\n\
             struct T { lock: machk_sync::RawSimpleLock, hdr: ObjHeader }\n\
             fn f(pm: &SplLock) {}",
        );
        assert_eq!(s.class_of("A"), Some(LockClass::Simple));
        assert_eq!(s.display.get("A").map(String::as_str), Some("e16.order.a"));
        assert_eq!(s.class_of("map"), Some(LockClass::Complex));
        assert_eq!(s.class_of("lock"), Some(LockClass::Simple));
        assert_eq!(s.class_of("hdr"), Some(LockClass::Object));
        assert_eq!(s.class_of("pm"), Some(LockClass::Spl));
    }

    #[test]
    fn decl_macro_and_at_level() {
        let s = table(
            "decl_simple_lock_data!(pub, MASTER_LOCK);\n\
             static PMAP: SplLock = SplLock::named_at_level(\"pmap.lock\", SplLevel::SplVm);",
        );
        assert_eq!(s.class_of("MASTER_LOCK"), Some(LockClass::Simple));
        assert_eq!(
            s.display.get("MASTER_LOCK").map(String::as_str),
            Some("MASTER_LOCK")
        );
        assert_eq!(s.class_of("PMAP"), Some(LockClass::Spl));
        assert_eq!(s.spl_level.get("PMAP"), Some(&3));
        assert_eq!(s.display.get("PMAP").map(String::as_str), Some("pmap.lock"));
    }

    #[test]
    fn wrappers_and_refs() {
        let s = table("struct S { inner: Option<Arc<SimpleLocked<u32>>> }");
        assert_eq!(s.class_of("inner"), Some(LockClass::Simple));
    }
}
