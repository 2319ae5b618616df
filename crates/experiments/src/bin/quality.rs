//! Quality runner: `cargo run -p cchunter-experiments --release --bin
//! cchunter-quality` runs the channel × bandwidth × noise sweep and writes
//! `QUALITY_detector.json` at the repository root — per-cell ROC curves,
//! AUC, online detection latency, and benign false-positive rate of the
//! `cchunter` scorer.
//!
//! `--check` instead runs the sweep in quick mode and compares it against
//! the committed `QUALITY_detector.json`, printing a per-cell report and
//! exiting nonzero when any baseline cell lost more than 0.03 AUC, exceeded
//! its FP ceiling, first alarmed more than one window later (or never,
//! where the baseline did), or went missing — the CI detection-quality
//! gate. The baseline file is never rewritten in this mode.
//!
//! Set `CCHUNTER_QUALITY_QUICK=1` for the CI-sized grid (the committed
//! baseline's shape) and `CCHUNTER_QUALITY_SEED` to vary the seed (default
//! 42). Two runs with the same seed are byte-identical.

use cchunter_bench::check::parse_json;
use cchunter_experiments::quality::{compare, parse_cells, run_sweep, SweepConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_mode = args.iter().any(|a| a == "--check");
    // Tolerate the documented spelled-out form
    // `cargo run -p cchunter-experiments --release -- quality`.
    if let Some(unknown) = args.iter().find(|a| *a != "--check" && *a != "quality") {
        eprintln!("unknown argument {unknown:?} (supported: --check)");
        return ExitCode::FAILURE;
    }

    if check_mode {
        // The gate always sweeps the quick grid: it is the shape the
        // committed baseline records, and the AUC/FP slack absorbs what
        // little run-to-run variation the seeded sweep has (none).
        std::env::set_var("CCHUNTER_QUALITY_QUICK", "1");
        return run_check();
    }

    let config = SweepConfig::from_env();
    let result = run_sweep(&config);
    let out = repo_root().join("QUALITY_detector.json");
    std::fs::write(&out, result.render_json())
        .unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    println!("\nwrote {}", out.display());
    println!("\nheadline AUC (noise off, best bandwidth):");
    print!("{}", result.render_headline());
    ExitCode::SUCCESS
}

fn run_check() -> ExitCode {
    let baseline_path = repo_root().join("QUALITY_detector.json");
    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "no baseline at {} ({e}); run `cargo run -p cchunter-experiments --release \
                 --bin cchunter-quality` with CCHUNTER_QUALITY_QUICK=1 and commit the result",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let baseline = match parse_json(&text).and_then(|doc| parse_cells(&doc)) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("baseline {} is malformed: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };

    let config = SweepConfig::from_env();
    let fresh = run_sweep(&config);
    let report = compare(&baseline, &fresh.cells);
    println!("{}", report.render());
    if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The workspace root: two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.join("../..");
    root.canonicalize().unwrap_or(root)
}
