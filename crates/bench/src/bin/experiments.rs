//! The experiments binary: regenerate every table of the reproduction.
//!
//! The source paper has no tables or figures of its own (it is a
//! design/experience paper); DESIGN.md defines experiments E1–E20, one
//! per mechanism or claim in the text, and this binary prints them.
//!
//! Usage:
//!
//! ```text
//! experiments [--quick] [--artifacts DIR] [E1 E7 E10 ...]
//! experiments lockstat [--quick] [--json]
//! experiments e17 --seeds N
//! experiments e18 [--quick] [--sim-seed N]
//! ```
//!
//! `--quick` shrinks iteration counts (used by CI); naming experiment
//! ids runs a subset. Results for the repository's EXPERIMENTS.md come
//! from a `--release` run without `--quick`.
//!
//! `--seeds N` overrides E17's seed count (each seed drives two
//! determinism-probe runs plus four chaos scenarios). Requires a build
//! with `--features probe`.
//!
//! `--artifacts DIR` additionally writes each experiment's
//! `machk-bench/v1` envelope as `BENCH_E01.json` … `BENCH_E20.json`
//! into `DIR` — the files CI uploads as run artifacts and diffs against
//! `bench/baselines/` with `bench-compare`. Feature-gated experiments
//! (E16/E17 probe, E18/E19/E20-sim sim) still emit envelopes when the
//! feature is off, carrying an `*_enabled = 0` exact metric so compare
//! flags a misbuilt trajectory run. Each envelope carries every table
//! the run printed. Under `--features probe` E16's trace-ring export
//! (`E16.ndjson`), wait fold (`E16.folded`) and full lockstat report
//! (`E16.lockstat.json`) are written too.
//!
//! E18 (schedule exploration on simulated hosts) requires a build with
//! `--features sim`; `--sim-seed N` overrides its base scheduler seed
//! (CI runs a small fixed matrix of seeds).
//!
//! `lockstat` runs E16 and prints the full lockstat report it leaves
//! behind (histograms, complex-lock and policy breakdowns, reference
//! traffic, order graph) or, with `--json`, the same report as JSON:
//! the `lockstat(1M)`-style entry point. Requires a build with
//! `--features probe`.

use machk_bench::experiments::{self, Opts};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");

    if args.iter().any(|a| a.eq_ignore_ascii_case("lockstat")) {
        lockstat(quick, args.iter().any(|a| a == "--json"));
        return;
    }

    let opts = Opts {
        quick,
        seeds: flag_value(&args, "--seeds"),
        sim_seed: flag_value(&args, "--sim-seed"),
    };

    let artifacts: Option<String> = args
        .iter()
        .position(|a| a == "--artifacts")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let wanted: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            // Skip flags and the values that belong to value-taking ones.
            !a.starts_with("--")
                && (*i == 0
                    || (args[i - 1] != "--seeds"
                        && args[i - 1] != "--artifacts"
                        && args[i - 1] != "--sim-seed"))
        })
        .map(|(_, a)| a.to_uppercase())
        .collect();

    println!("Locking and Reference Counting in the Mach Kernel (ICPP 1991)");
    println!(
        "reproduction experiment suite — {} mode",
        if quick { "quick" } else { "full" }
    );
    println!(
        "host: {} hardware threads",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0)
    );

    let mut ran = 0;
    for e in &experiments::ALL {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == e.id) {
            continue;
        }
        println!("\n################ {}: {}", e.id, e.title);
        let started = std::time::Instant::now();
        let report = e.report(&opts);
        let name = format!("BENCH_{}.json", report.id());
        write_artifact(artifacts.as_deref(), &name, &report.render());
        if e.id == "E16" {
            write_e16_exporter_artifacts(artifacts.as_deref());
        }
        print!("{}", report.text());
        println!("  [{} completed in {:?}]", e.id, started.elapsed());
        ran += 1;
    }
    if ran == 0 {
        eprintln!("no experiment matched {wanted:?}; known ids are E1..E20 and `lockstat`");
        std::process::exit(2);
    }
}

/// The number after `flag`, if given.
fn flag_value(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Write one experiment's JSON summary into the `--artifacts` directory
/// (no-op when the flag is absent).
fn write_artifact(dir: Option<&str>, name: &str, json: &str) {
    let Some(dir) = dir else { return };
    std::fs::create_dir_all(dir).expect("create artifacts dir");
    let path = std::path::Path::new(dir).join(name);
    std::fs::write(&path, format!("{json}\n")).expect("write artifact");
    println!("  [artifact: {}]", path.display());
}

/// After E16 has run with probes, the stats subscriber's trace rings
/// hold the newest events of every traced thread and its registry every
/// lock's counters; write the rings as NDJSON, the wait fold and the
/// lockstat report as JSON next to the envelopes.
#[cfg(feature = "probe")]
fn write_e16_exporter_artifacts(dir: Option<&str>) {
    if dir.is_none() {
        return;
    }
    let (ndjson, _) = machk_obs::report::render_ndjson();
    write_artifact(dir, "E16.ndjson", ndjson.trim_end());
    let stat = machk_obs::Lockstat::collect();
    write_artifact(
        dir,
        "E16.folded",
        stat.render_folded(machk_obs::FlameMetric::Wait).trim_end(),
    );
    write_artifact(dir, "E16.lockstat.json", stat.render_json().trim_end());
}

#[cfg(not(feature = "probe"))]
fn write_e16_exporter_artifacts(_dir: Option<&str>) {}

/// The `lockstat` subcommand: drive the E16 workload, print the report.
#[cfg(feature = "probe")]
fn lockstat(quick: bool, json: bool) {
    // The experiment runner asserts the report's claims as it goes.
    let e16 = experiments::ALL
        .iter()
        .find(|e| e.id == "E16")
        .expect("E16 is listed");
    e16.report(&Opts {
        quick,
        ..Opts::default()
    });
    let stat = machk_obs::Lockstat::collect();
    if json {
        println!("{}", stat.render_json());
    } else {
        print!("{}", stat.render_text(16, true));
    }
}

/// Without the probe feature there is nothing to trace — say so and
/// fail, so scripts notice a mis-built binary.
#[cfg(not(feature = "probe"))]
fn lockstat(_quick: bool, _json: bool) {
    eprintln!("lockstat requires a build with `--features probe` (tracing is compiled out)");
    std::process::exit(2);
}
