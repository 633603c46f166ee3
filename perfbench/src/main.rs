//! The benchmark command. Run it through `perfbench/run.sh`, which builds
//! this package and the server binary first:
//!
//! ```text
//! bash perfbench/run.sh --workload road-engine --seed 1 --seconds 30 --trace 0
//! bash perfbench/run.sh --self-check
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero when an
//! operation failed or its answer was wrong, when an end-to-end metric has
//! no samples, when the reference self-test failed, or when the run could
//! not be set up.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::stats::Metrics;
use perfbench::{reference, Outcome, RunConfig, Size, Workload, END_TO_END, PER_LAYER};
use priograph_graph::gen::GraphGen;

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: Option<PathBuf>,
    self_check: bool,
}

/// Where snapshots and span files go, relative to the repository root.
const OUT_DIR: &str = "perfbench/.run";

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        server: None,
        self_check: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(Workload::parse(value()?)?),
            "--seed" => cli.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds expects a number in (0, 600]")?;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                }
            }
            "--server" => cli.server = Some(PathBuf::from(value()?)),
            "--self-check" => cli.self_check = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if cli.workload.is_none() && !cli.self_check {
        return Err("--workload is required (or --self-check)".to_string());
    }
    Ok(cli)
}

fn config(cli: &Cli, workload: Workload, seconds: f64, trace: bool, size: Size) -> RunConfig {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tag = format!("{}-seed{}", workload.name(), cli.seed);
    RunConfig {
        workload,
        seed: cli.seed,
        seconds,
        trace,
        size,
        threads,
        server: cli
            .server
            .clone()
            .unwrap_or_else(|| PathBuf::from("priograph-server")),
        work_dir: PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id())),
        span_path: PathBuf::from(OUT_DIR).join(format!("spans-{tag}.jsonl")),
    }
}

/// The metrics of the result line: every end-to-end metric with tracing
/// off, every per-layer metric with it on. An end-to-end metric that reads
/// 0 had no samples (every call of its kind failed), and a time of 0 would
/// look like the best possible one, so it fails the run.
fn result_metrics(outcome: &Outcome, trace: bool) -> Result<Metrics, String> {
    let mut out = Metrics::default();
    if trace {
        for (name, unit) in PER_LAYER {
            let value = outcome
                .metrics
                .get(name)
                .ok_or_else(|| format!("the traced run did not measure {name}"))?;
            out.set(name, value, unit);
        }
    } else {
        for name in END_TO_END {
            let value = outcome
                .metrics
                .get(name)
                .ok_or_else(|| format!("the run did not measure {name}"))?;
            if value <= 0.0 {
                return Err(format!("{name} has no samples"));
            }
            let unit = match name {
                "setup_s" => "s",
                "peak_rss_mb" => "MB",
                _ => "ms",
            };
            out.set(name, value, unit);
        }
    }
    Ok(out)
}

/// The reference checks must catch one perturbed distance and one
/// perturbed coreness, on a road grid and on an R-MAT graph.
fn reference_self_test() -> Result<(), String> {
    let road = GraphGen::road_grid(24, 24).seed(3).build();
    reference::self_test(&road, &road, 5)?;
    let social = GraphGen::rmat(9, 8).seed(3).build();
    let source = social
        .vertices()
        .find(|&v| social.out_degree(v) > 0)
        .unwrap_or(0);
    reference::self_test(&social, &social.symmetrize(), source)
}

fn run_one(config: &RunConfig) -> Result<(Outcome, Metrics), String> {
    println!(
        "perfbench {} seed={} seconds={} trace={} threads={}",
        config.workload.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace),
        config.threads
    );
    let outcome = perfbench::run(config)?;
    println!("{}", outcome.notes);
    print!("{}", outcome.metrics.table());
    println!(
        "ops attempted={} failed={} wrong={}",
        outcome.attempted, outcome.failed, outcome.wrong
    );
    let result = result_metrics(&outcome, config.trace)?;
    Ok((outcome, result))
}

/// Every workload at the small size, untraced and traced, for one second.
fn self_check(cli: &Cli) -> Result<(), String> {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let (outcome, _) = run_one(&config(cli, workload, 1.0, trace, Size::Small))?;
            if outcome.attempted == 0 || outcome.failed > 0 {
                return Err(format!(
                    "{} (trace {}): {} of {} operations failed",
                    workload.name(),
                    u8::from(trace),
                    outcome.failed,
                    outcome.attempted
                ));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = reference_self_test() {
        eprintln!("perfbench: reference self-test failed: {e}");
        return ExitCode::FAILURE;
    }
    if cli.self_check {
        return match self_check(&cli) {
            Ok(()) => {
                println!("self-check passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: self-check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = cli.workload else {
        return ExitCode::from(2);
    };
    match run_one(&config(&cli, workload, cli.seconds, cli.trace, Size::Full)) {
        Ok((outcome, result)) => {
            // Every operation of every workload is meant to succeed, so an
            // error, a refusal or a wrong answer fails the run alike.
            let correct = outcome.failed == 0;
            println!(
                "{}",
                result.result_json(correct, outcome.attempted, outcome.failed)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} operations failed ({} with a wrong answer)",
                    outcome.failed, outcome.attempted, outcome.wrong
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
