//! The findings baseline: a committed ratchet.
//!
//! Existing findings are pinned in `lint.baseline.toml`; the CI gate
//! fails only on findings *not* in the baseline, so the count can go
//! down but never silently up. Identity is `(rule, file, context)` with
//! a per-key count — no line numbers, so unrelated edits to a file do
//! not invalidate the baseline, but a *second* violation of the same
//! rule in the same function does fail.
//!
//! The format is a deliberately minimal TOML subset (dependency-free
//! parser): `[[accept]]` tables with `rule`, `file`, `context`,
//! `count` keys and `#` comments. `--write-baseline` regenerates it.

use std::collections::BTreeMap;

use crate::model::{Finding, Rule};

/// One accepted (pinned) finding group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accept {
    pub rule: Rule,
    pub file: String,
    pub context: String,
    pub count: usize,
}

#[derive(Debug, Default)]
pub struct Baseline {
    pub accepts: Vec<Accept>,
}

impl Baseline {
    /// Parse the minimal-TOML baseline. Unknown keys are ignored;
    /// entries with an unknown rule slug are errors (a typo there would
    /// silently un-pin findings).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut accepts = Vec::new();
        let mut cur: Option<(Option<Rule>, String, String, usize)> = None;
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[accept]]" {
                if let Some(done) = cur.take() {
                    accepts.push(finish(done, ln)?);
                }
                cur = Some((None, String::new(), String::new(), 1));
                continue;
            }
            let Some((key, val)) = line.split_once('=') else {
                return Err(format!("baseline line {}: expected `key = value`", ln + 1));
            };
            let key = key.trim();
            let val = val.trim();
            let Some(entry) = cur.as_mut() else {
                return Err(format!(
                    "baseline line {}: `{key}` outside an [[accept]] table",
                    ln + 1
                ));
            };
            match key {
                "rule" => {
                    let slug = unquote(val);
                    entry.0 = Some(Rule::from_slug(&slug).ok_or_else(|| {
                        format!("baseline line {}: unknown rule `{slug}`", ln + 1)
                    })?);
                }
                "file" => entry.1 = unquote(val),
                "context" => entry.2 = unquote(val),
                "count" => {
                    entry.3 = val
                        .parse()
                        .map_err(|_| format!("baseline line {}: bad count `{val}`", ln + 1))?;
                }
                _ => {}
            }
        }
        if let Some(done) = cur.take() {
            accepts.push(finish(done, text.lines().count())?);
        }
        Ok(Baseline { accepts })
    }

    /// Mark findings covered by the baseline. For each `(rule, file,
    /// context)` key, the first `count` findings are baselined; any
    /// beyond that stay live (the ratchet).
    pub fn apply(&self, findings: &mut [Finding]) {
        let mut budget: BTreeMap<(Rule, &str, &str), usize> = BTreeMap::new();
        for a in &self.accepts {
            *budget
                .entry((a.rule, a.file.as_str(), a.context.as_str()))
                .or_insert(0) += a.count;
        }
        for f in findings {
            if let Some(left) = budget.get_mut(&(f.rule, f.file.as_str(), f.context.as_str())) {
                if *left > 0 {
                    *left -= 1;
                    f.baselined = true;
                }
            }
        }
    }

    /// Build a baseline pinning exactly the given findings.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut counts: BTreeMap<(Rule, &str, &str), usize> = BTreeMap::new();
        for f in findings {
            *counts
                .entry((f.rule, f.file.as_str(), f.context.as_str()))
                .or_insert(0) += 1;
        }
        Baseline {
            accepts: counts
                .into_iter()
                .map(|((rule, file, context), count)| Accept {
                    rule,
                    file: file.to_string(),
                    context: context.to_string(),
                    count,
                })
                .collect(),
        }
    }

    /// Render back to the minimal-TOML format.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# machk-lint baseline: pinned pre-existing findings.\n\
             # New findings (not listed here) fail CI; regenerate with\n\
             # `cargo run -p machk-lint -- --workspace --write-baseline lint.baseline.toml`\n\
             # only when a pinned finding is deliberately accepted.\n",
        );
        for a in &self.accepts {
            out.push_str("\n[[accept]]\n");
            out.push_str(&format!("rule = \"{}\"\n", a.rule.slug()));
            out.push_str(&format!("file = \"{}\"\n", a.file));
            out.push_str(&format!("context = \"{}\"\n", a.context));
            out.push_str(&format!("count = {}\n", a.count));
        }
        out
    }
}

fn finish(entry: (Option<Rule>, String, String, usize), ln: usize) -> Result<Accept, String> {
    let (rule, file, context, count) = entry;
    let rule = rule.ok_or_else(|| format!("baseline entry ending near line {ln}: missing rule"))?;
    Ok(Accept {
        rule,
        file,
        context,
        count,
    })
}

fn unquote(v: &str) -> String {
    v.trim_matches('"').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: Rule, file: &str, ctx: &str) -> Finding {
        Finding::new(rule, file, 1, ctx.to_string(), String::new())
    }

    #[test]
    fn round_trip() {
        let fs = vec![
            finding(
                Rule::RelaxedUnjustified,
                "crates/bench/src/lib.rs",
                "fn run",
            ),
            finding(
                Rule::RelaxedUnjustified,
                "crates/bench/src/lib.rs",
                "fn run",
            ),
            finding(
                Rule::LockOrderCycle,
                "crates/bench/src/e16.rs",
                "a -> b -> a",
            ),
        ];
        let b = Baseline::from_findings(&fs);
        let b2 = Baseline::parse(&b.render()).unwrap();
        assert_eq!(b.accepts, b2.accepts);
        assert_eq!(b.accepts.len(), 2);
        assert_eq!(b.accepts.iter().map(|a| a.count).sum::<usize>(), 3);
    }

    #[test]
    fn count_ratchet() {
        let pinned = vec![finding(Rule::RefUnpaired, "f.rs", "fn g")];
        let b = Baseline::from_findings(&pinned);
        // Two findings, one pinned: the second stays live.
        let mut fs = vec![
            finding(Rule::RefUnpaired, "f.rs", "fn g"),
            finding(Rule::RefUnpaired, "f.rs", "fn g"),
        ];
        b.apply(&mut fs);
        assert!(fs[0].baselined);
        assert!(!fs[1].baselined);
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let text =
            "[[accept]]\nrule = \"no-such-rule\"\nfile = \"x\"\ncontext = \"y\"\ncount = 1\n";
        assert!(Baseline::parse(text).is_err());
    }
}
