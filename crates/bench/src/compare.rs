//! Baseline comparison for the bench trajectory.
//!
//! `bench-compare --baselines DIR --fresh DIR` (the binary is a thin
//! wrapper over [`compare_dirs`]) diffs a fresh `experiments
//! --artifacts` run against the committed baselines in
//! `bench/baselines/` and fails CI when a gated metric regresses
//! beyond its tolerance.
//!
//! The rules, driven entirely by the **baseline** file (so gates are
//! loosened by editing a committed artifact, a reviewable change):
//!
//! * The two sides carry the same files and the same metrics. A
//!   baseline file with no fresh counterpart, a fresh file with no
//!   baseline, and a metric found on one side only (`info` metrics
//!   included) all fail: a change that adds, renames or drops a metric
//!   edits the baseline in the same commit.
//! * `exact` metrics must be bit-identical (structural invariants such
//!   as `lost_wakeups`, and every deterministic simulator value:
//!   virtual clocks, sim ratios, schedule counts, fingerprints).
//! * `higher` metrics regress when `fresh < base / tol`; `lower` when
//!   `fresh > base * tol`.
//! * `info` metrics are reported, never judged, and the `tables` member
//!   is not read at all.
//! * `mode` must match: a quick baseline compared against a full run
//!   (or vice versa) is a harness misconfiguration, not a measurement.

use std::path::Path;

use crate::json::{parse, Value};

/// One comparison outcome (gated check, informational drift line, or
/// file-level problem).
#[derive(Debug)]
pub struct Finding {
    /// Experiment id (or file name when the envelope did not parse).
    pub experiment: String,
    /// Metric name, or `"<file>"` for file-level findings.
    pub metric: String,
    /// Human-readable outcome.
    pub detail: String,
    /// Whether this finding fails the comparison.
    pub failed: bool,
}

/// The result of comparing two artifact directories.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Every outcome, failures first within each experiment.
    pub findings: Vec<Finding>,
    /// Gated metrics checked.
    pub gated: usize,
    /// `info` metrics reported.
    pub info: usize,
    /// Metrics found on one side only (each one also a failure).
    pub one_sided: usize,
    /// Gated metrics that failed, one-sided metrics and file-level
    /// failures.
    pub failures: usize,
}

impl Comparison {
    /// Whether the fresh run holds the baseline.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }

    /// Render the report for the CI log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{} {:>4} {:<40} {}\n",
                if f.failed { "FAIL" } else { "  ok" },
                f.experiment,
                f.metric,
                f.detail
            ));
        }
        out.push_str(&format!(
            "bench-compare: {} gated metrics checked, {} info, {} on one side only, \
             {} failure(s)\n",
            self.gated, self.info, self.one_sided, self.failures
        ));
        out
    }

    fn fail(&mut self, experiment: &str, metric: &str, detail: String) {
        self.failures += 1;
        self.findings.push(Finding {
            experiment: experiment.to_string(),
            metric: metric.to_string(),
            detail,
            failed: true,
        });
    }

    fn note(&mut self, experiment: &str, metric: &str, detail: String) {
        self.findings.push(Finding {
            experiment: experiment.to_string(),
            metric: metric.to_string(),
            detail,
            failed: false,
        });
    }
}

/// Check one gated value against its baseline. Returns `Err(reason)`
/// on regression. `dir` and `tol` come from the baseline metric.
pub fn check_metric(dir: &str, tol: f64, base: f64, fresh: f64) -> Result<(), String> {
    match dir {
        "exact" => {
            if fresh == base {
                Ok(())
            } else {
                Err(format!("must not change: baseline {base}, fresh {fresh}"))
            }
        }
        "higher" => {
            if fresh >= base / tol {
                Ok(())
            } else {
                Err(format!(
                    "regressed: fresh {fresh} < baseline {base} / tol {tol}"
                ))
            }
        }
        "lower" => {
            if fresh <= base * tol {
                Ok(())
            } else {
                Err(format!(
                    "regressed: fresh {fresh} > baseline {base} * tol {tol}"
                ))
            }
        }
        "info" => Ok(()),
        other => Err(format!("unknown dir '{other}' in baseline")),
    }
}

fn metric_fields(m: &Value) -> Option<(String, f64, String, f64)> {
    Some((
        m.get("name")?.as_str()?.to_string(),
        m.get("value")?.as_f64()?,
        m.get("dir")?.as_str()?.to_string(),
        m.get("tol")?.as_f64()?,
    ))
}

/// Compare two parsed envelopes (baseline rules; see module docs).
pub fn compare_docs(file: &str, base: &Value, fresh: &Value, out: &mut Comparison) {
    let id = base
        .get("experiment")
        .and_then(Value::as_str)
        .unwrap_or(file)
        .to_string();

    for (doc, which) in [(base, "baseline"), (fresh, "fresh")] {
        if doc.get("schema").and_then(Value::as_str) != Some("machk-bench/v1") {
            out.fail(
                &id,
                "<file>",
                format!("{which} is not a machk-bench/v1 envelope"),
            );
            return;
        }
    }
    let (bmode, fmode) = (
        base.get("mode").and_then(Value::as_str).unwrap_or("?"),
        fresh.get("mode").and_then(Value::as_str).unwrap_or("?"),
    );
    if bmode != fmode {
        out.fail(
            &id,
            "<file>",
            format!("mode mismatch: baseline '{bmode}' vs fresh '{fmode}'"),
        );
        return;
    }

    let metrics = |doc: &Value| -> Option<Vec<(String, f64, String, f64)>> {
        doc.get("metrics")?
            .as_arr()?
            .iter()
            .map(metric_fields)
            .collect()
    };
    let (Some(base_metrics), Some(fresh_metrics)) = (metrics(base), metrics(fresh)) else {
        out.fail(&id, "<file>", "malformed metrics".to_string());
        return;
    };

    for (name, bval, dir, tol) in &base_metrics {
        let Some((_, fval, ..)) = fresh_metrics.iter().find(|(n, ..)| n == name) else {
            out.one_sided += 1;
            out.fail(&id, name, format!("{dir} metric in the baseline only"));
            continue;
        };
        if dir == "info" {
            out.info += 1;
            out.note(&id, name, format!("info: baseline {bval} -> fresh {fval}"));
            continue;
        }
        out.gated += 1;
        match check_metric(dir, *tol, *bval, *fval) {
            Ok(()) => out.note(&id, name, format!("{dir}: baseline {bval}, fresh {fval}")),
            Err(why) => out.fail(&id, name, why),
        }
    }
    for (name, _, dir, _) in &fresh_metrics {
        if !base_metrics.iter().any(|(n, ..)| n == name) {
            out.one_sided += 1;
            out.fail(&id, name, format!("{dir} metric in the fresh run only"));
        }
    }
}

/// Compare every `BENCH_*.json` under `baselines` against `fresh`.
pub fn compare_dirs(baselines: &Path, fresh: &Path) -> Result<Comparison, String> {
    let mut out = Comparison::default();
    let mut names: Vec<String> = std::fs::read_dir(baselines)
        .map_err(|e| format!("read baselines dir {}: {e}", baselines.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines in {}",
            baselines.display()
        ));
    }

    for name in &names {
        let bpath = baselines.join(name);
        let fpath = fresh.join(name);
        let btext = std::fs::read_to_string(&bpath)
            .map_err(|e| format!("read {}: {e}", bpath.display()))?;
        let bdoc = parse(&btext).map_err(|e| format!("{}: {e}", bpath.display()))?;
        let ftext = match std::fs::read_to_string(&fpath) {
            Ok(t) => t,
            Err(_) => {
                out.fail(name, "<file>", "baseline has no fresh artifact".to_string());
                continue;
            }
        };
        match parse(&ftext) {
            Ok(fdoc) => compare_docs(name, &bdoc, &fdoc, &mut out),
            Err(e) => out.fail(name, "<file>", format!("fresh artifact unparseable: {e}")),
        }
    }

    // Fresh artifacts with no baseline fail like one-sided metrics.
    if let Ok(dir) = std::fs::read_dir(fresh) {
        let mut unpaired: Vec<String> = dir
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json") && !names.contains(n))
            .collect();
        unpaired.sort();
        for name in unpaired {
            out.fail(
                &name,
                "<file>",
                "fresh artifact has no baseline".to_string(),
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BenchReport, Dir};

    fn envelope(id: &str, metrics: &[(&str, f64, Dir, f64)]) -> Value {
        let mut r = BenchReport::new(id, "fixture", true);
        for (name, value, dir, tol) in metrics {
            r.metric(name, *value, "ns", *dir, *tol);
        }
        parse(&r.render()).unwrap()
    }

    #[test]
    fn identical_run_passes() {
        let doc = envelope(
            "E02",
            &[
                ("wait_ns", 100.0, Dir::Lower, 1.5),
                ("lost", 0.0, Dir::Exact, 1.0),
                ("ops", 5e6, Dir::Info, 1.0),
            ],
        );
        let mut c = Comparison::default();
        compare_docs("BENCH_E02.json", &doc, &doc, &mut c);
        assert!(c.passed(), "{}", c.render());
        assert_eq!(c.gated, 2);
    }

    /// The acceptance fixture: a synthetic 2x wait-time regression
    /// against a baseline whose tolerance is 1.5x must fail.
    #[test]
    fn doubled_wait_time_fails_the_gate() {
        let base = envelope("E02", &[("lock_wait_ns", 100.0, Dir::Lower, 1.5)]);
        let fresh = envelope("E02", &[("lock_wait_ns", 200.0, Dir::Lower, 1.5)]);
        let mut c = Comparison::default();
        compare_docs("BENCH_E02.json", &base, &fresh, &mut c);
        assert!(!c.passed());
        assert!(c.render().contains("FAIL"));
        assert!(c.render().contains("lock_wait_ns"));
    }

    #[test]
    fn within_tolerance_passes_either_direction() {
        assert!(check_metric("lower", 1.5, 100.0, 149.0).is_ok());
        assert!(check_metric("lower", 1.5, 100.0, 151.0).is_err());
        assert!(check_metric("higher", 2.0, 100.0, 51.0).is_ok());
        assert!(check_metric("higher", 2.0, 100.0, 49.0).is_err());
        // Improvements never fail.
        assert!(check_metric("lower", 1.5, 100.0, 1.0).is_ok());
        assert!(check_metric("higher", 1.5, 100.0, 1e9).is_ok());
    }

    #[test]
    fn exact_metrics_reject_any_change() {
        assert!(check_metric("exact", 1.0, 0.0, 0.0).is_ok());
        assert!(check_metric("exact", 1.0, 0.0, 1.0).is_err());
        assert!(check_metric("exact", 1.0, 1.0, 0.0).is_err());
    }

    #[test]
    fn one_sided_metrics_fail_and_are_counted() {
        let base = envelope(
            "E03",
            &[
                ("lost", 0.0, Dir::Exact, 1.0),
                ("informational", 2.0, Dir::Info, 1.0),
            ],
        );
        let fresh = envelope(
            "E03",
            &[
                ("lost", 0.0, Dir::Exact, 1.0),
                ("ops_mad", 3.0, Dir::Info, 1.0),
            ],
        );
        let mut c = Comparison::default();
        compare_docs("BENCH_E03.json", &base, &fresh, &mut c);
        let text = c.render();
        assert_eq!((c.failures, c.one_sided, c.gated), (2, 2, 1), "{text}");
        assert!(text.contains("info metric in the baseline only"));
        assert!(text.contains("info metric in the fresh run only"));
        assert!(text.contains("1 gated metrics checked, 0 info, 2 on one side only, 2 failure(s)"));
    }

    /// The envelope text with the last digit of `name`'s value changed.
    fn edit_last_digit(text: &str, name: &str) -> String {
        let key = format!("\"name\":\"{name}\",\"value\":");
        let start = text.find(&key).expect("metric present") + key.len();
        let len = text[start..]
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap();
        let last = start + len - 1;
        let digit = text.as_bytes()[last] - b'0';
        format!("{}{}{}", &text[..last], (digit + 1) % 10, &text[last + 1..])
    }

    /// Against the committed baselines: each passes against itself,
    /// every simulator value gates `exact`, and one edited digit of any
    /// `exact` value, or any metric deleted from either side, fails.
    #[test]
    fn committed_baselines_catch_every_edit() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baselines");
        let mut checked = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
            let doc = parse(&text).unwrap();
            let compare = |base: &Value, fresh: &Value| {
                let mut c = Comparison::default();
                compare_docs("baseline", base, fresh, &mut c);
                c
            };
            assert!(compare(&doc, &doc).passed());
            for m in doc.get("metrics").and_then(Value::as_arr).unwrap() {
                let (name, _, dir, _) = metric_fields(m).unwrap();
                if name.starts_with("sim_") {
                    assert_eq!(dir, "exact", "{name}: a simulator value gates exact");
                }
                if dir == "exact" {
                    let edited = parse(&edit_last_digit(&text, &name)).unwrap();
                    assert!(!compare(&edited, &doc).passed(), "{name}: edit passed");
                }
                let Value::Obj(mut members) = doc.clone() else {
                    unreachable!()
                };
                for (k, v) in &mut members {
                    if k == "metrics" {
                        let Value::Arr(ms) = v else { unreachable!() };
                        ms.retain(|x| x != m);
                    }
                }
                let dropped = Value::Obj(members);
                assert!(
                    !compare(&dropped, &doc).passed(),
                    "{name}: dropped from the baseline"
                );
                assert!(
                    !compare(&doc, &dropped).passed(),
                    "{name}: dropped from the fresh run"
                );
                checked += 1;
            }
        }
        assert!(checked > 100, "only {checked} baseline metrics checked");
    }

    #[test]
    fn mode_mismatch_fails() {
        let base = envelope("E04", &[]);
        let full = parse(&BenchReport::new("E04", "fixture", false).render()).unwrap();
        let mut c = Comparison::default();
        compare_docs("BENCH_E04.json", &base, &full, &mut c);
        assert!(!c.passed());
        assert!(c.render().contains("mode mismatch"));
    }

    #[test]
    fn directory_comparison_round_trips() {
        let root = std::env::temp_dir().join(format!("machk-bench-compare-{}", std::process::id()));
        let (bdir, fdir) = (root.join("base"), root.join("fresh"));
        std::fs::create_dir_all(&bdir).unwrap();
        std::fs::create_dir_all(&fdir).unwrap();
        let mut r = BenchReport::new("E05", "fixture", true);
        r.metric("wait_ns", 100.0, "ns", Dir::Lower, 1.5);
        std::fs::write(bdir.join("BENCH_E05.json"), r.render()).unwrap();
        // Fresh regresses 2x, a second baseline has no fresh file, and
        // a fresh file has no baseline.
        let mut r = BenchReport::new("E05", "fixture", true);
        r.metric("wait_ns", 200.0, "ns", Dir::Lower, 1.5);
        std::fs::write(fdir.join("BENCH_E05.json"), r.render()).unwrap();
        for (dir, id) in [(&bdir, "E06"), (&fdir, "E07")] {
            let r = BenchReport::new(id, "fixture", true);
            std::fs::write(dir.join(format!("BENCH_{id}.json")), r.render()).unwrap();
        }

        let c = compare_dirs(&bdir, &fdir).unwrap();
        assert_eq!(c.failures, 3, "{}", c.render());
        assert!(c.render().contains("fresh artifact has no baseline"));
        std::fs::remove_dir_all(&root).ok();
    }
}
