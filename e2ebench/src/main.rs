//! End-to-end audit-service benchmark for CC-Hunter.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload fleet_10k --seed 1 --seconds 5 --trace 0
//! ```
//!
//! An untraced run (`--trace 0`) sets the workload up several times from
//! the seed; each set-up warms the fleet up, measures its share of
//! closed-loop fleet ticks and checks every verdict against the planted
//! truth, and the run reduces the set-ups to the end-to-end metrics (tick
//! metrics from the fastest block of 100-odd consecutive ticks, the median
//! set-up time). A traced run (`--trace 1`) sets up once and reports
//! per-layer metrics instead. Either prints a human-readable report
//! followed by one JSON line. A run whose verdicts or accounting are wrong
//! prints `"correct": false` without metrics and exits with status 1. See
//! `e2ebench/README.md`.

mod alloc;
mod bench;
mod channels;
mod churn;
mod fleet10k;
mod harness;
mod inputs;
mod ledger;
mod replay;
mod stats;
mod trace;

use bench::{Metric, Outcome, RunConfig, Samples};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where traced runs write their spans and churn runs keep their store,
/// relative to the directory the benchmark runs from.
const OUT_DIR: &str = ".bench_run";

const USAGE: &str = "usage: cchunter-e2ebench --workload <fleet_10k|churn_1k> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Set-ups per untraced run. Each measures its share of the ticks;
/// `setup_s` is the median of their set-up times.
const SETUPS: u64 = 3;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.ok_or(USAGE)?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Measured ticks for one set-up: the whole run's ticks when traced, else
/// one share of them; at least one block either way, so every p90 has ten
/// samples beyond it.
fn ticks(args: &Args, per_second: u64) -> u64 {
    let total = args.seconds * per_second;
    let min = bench::BLOCK_TICKS as u64;
    if args.trace {
        total.max(min)
    } else {
        total.div_ceil(SETUPS).max(min)
    }
}

/// Sets the workload up once (set-up number `setup` of the run), timing
/// set-up from `start`, and measures it.
fn measure(args: &Args, setup: u64, start: Instant) -> Result<(Samples, Vec<Metric>), String> {
    let config = RunConfig {
        seed: args.seed,
        trace: args.trace,
        start,
    };
    let out = Path::new(OUT_DIR);
    match args.workload.as_str() {
        "fleet_10k" => {
            let size = fleet10k::FULL;
            let plan = fleet10k::plan(size, ticks(args, fleet10k::TICKS_PER_SECOND));
            bench::measure(&plan, config, out, "fleet_10k", || {
                fleet10k::build(args.seed, size, args.trace)
            })
        }
        "churn_1k" => {
            let size = churn::FULL;
            let plan = churn::plan(size, ticks(args, churn::TICKS_PER_SECOND));
            let total = plan.warmup_ticks + plan.measured_ticks;
            let root = out.join(format!("store-churn_1k-{}-{setup}", std::process::id()));
            bench::measure(&plan, config, out, "churn_1k", || {
                churn::build(args.seed, size, root, total, args.trace)
            })
        }
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
}

fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    if args.trace {
        let (samples, metrics) = measure(args, 0, process_start)?;
        return Ok(Outcome {
            correct: samples.correct(),
            attempted: samples.attempted,
            failed: samples.failed,
            problems: samples.problems,
            metrics,
            notes: vec![format!(
                "{}: traced run, {} pair-quanta | wrong_verdicts {} | failed_fraction {} | \
                 detect_ticks {} | spans in {OUT_DIR}/",
                args.workload,
                samples.attempted,
                samples.wrong_verdicts,
                samples.failed_fraction,
                samples.detect_ticks
            )],
        });
    }
    // The first set-up is timed from process start; later ones from their
    // own start.
    let runs = (0..SETUPS)
        .map(|i| {
            let start = if i == 0 {
                process_start
            } else {
                Instant::now()
            };
            measure(args, i, start).map(|(samples, _)| samples)
        })
        .collect::<Result<Vec<_>, _>>()?;
    bench::end_to_end(&args.workload, &runs)
}

/// A JSON number with all its digits; non-finite values cannot occur in
/// a correct run and are written as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args, process_start) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    if !outcome.correct {
        // Numbers from a run with wrong verdicts are never reported.
        for p in &outcome.problems {
            eprintln!("incorrect: {p}");
        }
        println!("{}", json_line(&outcome, &[]));
        return ExitCode::from(1);
    }
    for m in &outcome.metrics {
        println!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(&outcome, &outcome.metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload fleet_10k --seed 7 --seconds 5 --trace 1").expect("valid");
        assert_eq!(a.workload, "fleet_10k");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 5, true));
        let c = args("--workload w --seed 1 --seconds 1 --trace 0").expect("valid");
        // Untraced runs split the ticks across the set-ups, at least 100
        // each.
        assert_eq!(ticks(&c, 13), 100);
        assert_eq!(ticks(&Args { seconds: 30, ..c }, 36), 360);
        assert_eq!(ticks(&a, 26), 130);
        assert!(args("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            ..Outcome::default()
        };
        let line = json_line(
            &outcome,
            &[Metric {
                name: "tick_p50_ms",
                value: 1.25,
                unit: "ms",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"tick_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "0");
    }
}
