//! machk-lint CLI.
//!
//! ```text
//! cargo run -p machk-lint -- --workspace --baseline lint.baseline.toml
//! cargo run -p machk-lint -- --workspace --write-baseline lint.baseline.toml
//! cargo run -p machk-lint -- crates/vm/src/map.rs --json report.json
//! ```
//!
//! Exit codes: 0 = no new findings, 1 = new (non-baselined) findings,
//! 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use machk_lint::{analyze, baseline::Baseline, report, Workspace};

struct Opts {
    workspace: bool,
    paths: Vec<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: machk-lint [--workspace | PATH...] [--baseline FILE] [--write-baseline FILE] [--json FILE]\n\
     \n\
     --workspace           scan every workspace crate's src/ tree\n\
     PATH...               scan specific .rs files or directories\n\
     --baseline FILE       suppress findings pinned in FILE (exit 1 only on new ones)\n\
     --write-baseline FILE pin all current findings to FILE and exit 0\n\
     --json FILE           also write the machine-readable report to FILE"
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workspace: false,
        paths: Vec::new(),
        baseline: None,
        write_baseline: None,
        json: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => opts.workspace = true,
            "--baseline" => {
                opts.baseline = Some(args.next().ok_or("--baseline needs a FILE")?.into())
            }
            "--write-baseline" => {
                opts.write_baseline =
                    Some(args.next().ok_or("--write-baseline needs a FILE")?.into())
            }
            "--json" => opts.json = Some(args.next().ok_or("--json needs a FILE")?.into()),
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            path => opts.paths.push(path.into()),
        }
    }
    if !opts.workspace && opts.paths.is_empty() {
        return Err("need --workspace or at least one PATH".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("machk-lint: {e}\n");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    // The workspace root: where Cargo.toml + crates/ live. Under
    // `cargo run` that is the cwd cargo set; fall back to walking up.
    let root = find_root();

    let ws = if opts.workspace {
        Workspace::load(&root)
    } else {
        let mut files = Vec::new();
        for p in &opts.paths {
            let abs = if p.is_absolute() {
                p.clone()
            } else {
                root.join(p)
            };
            if abs.is_dir() {
                if let Err(e) = collect_dir(&abs, &mut files) {
                    eprintln!("machk-lint: {}: {e}", abs.display());
                    return ExitCode::from(2);
                }
            } else {
                files.push(abs);
            }
        }
        Workspace::from_paths(&root, &files)
    };
    let ws = match ws {
        Ok(w) => w,
        Err(e) => {
            eprintln!("machk-lint: failed to load sources: {e}");
            return ExitCode::from(2);
        }
    };

    let mut analysis = analyze(&ws);

    if let Some(path) = &opts.write_baseline {
        let b = Baseline::from_findings(&analysis.findings);
        if let Err(e) = std::fs::write(path, b.render()) {
            eprintln!("machk-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "machk-lint: pinned {} finding(s) in {} group(s) to {}",
            analysis.findings.len(),
            b.accepts.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &opts.baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("machk-lint: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        match Baseline::parse(&text) {
            Ok(b) => b.apply(&mut analysis.findings),
            Err(e) => {
                eprintln!("machk-lint: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, report::render_json(&analysis)) {
            eprintln!("machk-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    print!("{}", report::render_text(&analysis));

    if analysis.new_findings().next().is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Walk up from the cwd to the directory containing `crates/`.
fn find_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn collect_dir(dir: &std::path::Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for e in entries {
        if e.is_dir() {
            collect_dir(&e, out)?;
        } else if e.extension().and_then(|x| x.to_str()) == Some("rs") {
            out.push(e);
        }
    }
    Ok(())
}
