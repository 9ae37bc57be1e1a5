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
//! flags a misbuilt trajectory run. Under `--features probe` the E16
//! exporter outputs (`E16.ndjson`, `E16.folded`) are written too.
//!
//! E18 (schedule exploration on simulated hosts) requires a build with
//! `--features sim`; `--sim-seed N` overrides its base scheduler seed
//! (CI runs a small fixed matrix of seeds).
//!
//! `lockstat` runs the E16 workload and prints only the lockstat
//! report (text, or JSON with `--json`) — the `lockstat(1M)`-style
//! entry point. Requires a build with `--features probe`.

use machk_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");

    if args.iter().any(|a| a.eq_ignore_ascii_case("lockstat")) {
        lockstat(quick, args.iter().any(|a| a == "--json"));
        return;
    }

    let seeds: Option<u64> = args
        .iter()
        .position(|a| a == "--seeds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());

    let artifacts: Option<String> = args
        .iter()
        .position(|a| a == "--artifacts")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let sim_seed: Option<u64> = args
        .iter()
        .position(|a| a == "--sim-seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());

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
    for (id, title, run_report) in experiments::all() {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == id) {
            continue;
        }
        println!("\n################ {id}: {title}");
        let started = std::time::Instant::now();
        // E17/E18 honour their CLI overrides; everything else runs the
        // uniform run_report entry from the experiment table.
        let (table, json) = match id {
            "E17" => {
                let n = seeds.unwrap_or(if quick { 5 } else { 200 });
                experiments::e17_chaos::run_report(n)
            }
            "E18" => experiments::e18_sim::run_report_seeded(quick, sim_seed),
            _ => run_report(quick),
        };
        write_artifact(artifacts.as_deref(), &artifact_name(id), &json);
        if id == "E16" {
            write_e16_exporter_artifacts(artifacts.as_deref());
        }
        print!("{table}");
        println!("  [{id} completed in {:?}]", started.elapsed());
        ran += 1;
    }
    if ran == 0 {
        eprintln!("no experiment matched {wanted:?}; known ids are E1..E20 and `lockstat`");
        std::process::exit(2);
    }
}

/// Zero-padded artifact name for an experiment id: `E7` →
/// `BENCH_E07.json`. Padding keeps directory listings and the
/// bench-compare pairing in experiment order.
fn artifact_name(id: &str) -> String {
    let n: u32 = id
        .trim_start_matches(['E', 'e'])
        .parse()
        .unwrap_or_else(|_| panic!("experiment id {id} is not E<number>"));
    format!("BENCH_E{n:02}.json")
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

/// After E16 has run with probes, its exporter subscribers hold the
/// NDJSON backlog (whatever arrived after the in-run drain) and the
/// cumulative flamegraph rollup; write both next to the envelopes.
#[cfg(feature = "probe")]
fn write_e16_exporter_artifacts(dir: Option<&str>) {
    if dir.is_none() {
        return;
    }
    let (ndjson, buf, flame) = experiments::e16_lockstat::exporters();
    ndjson.drain().expect("ndjson drain failed");
    let text = String::from_utf8(buf.lock().unwrap().clone()).expect("ndjson not UTF-8");
    write_artifact(dir, "E16.ndjson", text.trim_end());
    write_artifact(
        dir,
        "E16.folded",
        flame.render_folded(machk_obs::FlameMetric::Wait).trim_end(),
    );
}

#[cfg(not(feature = "probe"))]
fn write_e16_exporter_artifacts(_dir: Option<&str>) {}

/// The `lockstat` subcommand: drive the E16 workload, print the report.
#[cfg(feature = "probe")]
fn lockstat(quick: bool, json: bool) {
    // The experiment runner asserts the report's claims as it goes.
    let rendered = experiments::e16_lockstat::run(quick);
    if json {
        println!("{}", machk_obs::Lockstat::collect().render_json());
    } else {
        print!("{rendered}");
    }
}

/// Without the probe feature there is nothing to trace — say so and
/// fail, so scripts notice a mis-built binary.
#[cfg(not(feature = "probe"))]
fn lockstat(_quick: bool, _json: bool) {
    eprintln!("lockstat requires a build with `--features probe` (tracing is compiled out)");
    std::process::exit(2);
}
