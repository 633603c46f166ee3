//! A same-box benchmark for priograph's ordered engines and its serving
//! path. See `README.md` in this directory for the workloads, the metrics
//! and how each layer metric relates to the end-to-end ones.

#![deny(unsafe_code)]

pub mod calib;
pub mod cpu;
pub mod engine;
pub mod probes;
pub mod reference;
pub mod rng;
pub mod serve;
pub mod spans;
pub mod stats;

use std::path::PathBuf;

use stats::Metrics;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: u64 = 5;

/// The end-to-end metrics of the untraced run's result line; every
/// workload reports them, the timed ones scaled to the reference speed
/// (see [`calib`]). The tails `point_p99_ms` and `scan_p90_ms` are
/// measured and printed too but kept off the result line: on the box the
/// README's figures come from they spread too widely between runs to gate.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "peak_rss_mb",
    "sssp_fused_ms",
    "sssp_lazy_ms",
    "wbfs_ms",
    "kcore_ms",
    "point_p50_ms",
];

/// The per-layer metrics of the traced run's result line, with their
/// units: the ones every workload measures. The serving layers, which
/// only `serve-mixed` passes through (`sched.*`, `server.*`, `client.*`,
/// `load.*`, `protocol.noop_rtt_us`, `ledger.point.*`, `ledger.scan.*`),
/// are printed in its table and spans but kept off the result line.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("graph.build_ms", "ms"),
    ("graph.snapshot_load_ms", "ms"),
    ("graph.csr_mb", "MB"),
    ("algorithms.overhead_ms", "ms"),
    ("engine.rounds", "count"),
    ("engine.fused_rounds", "count"),
    ("engine.round_p50_us", "us"),
    ("engine.round_p99_us", "us"),
    ("engine.relaxations", "count"),
    ("engine.work_ratio", "ratio"),
    ("engine.frontier_p50", "count"),
    ("buckets.inserts", "count"),
    ("buckets.processed", "count"),
    ("buckets.inserts_per_relaxation", "ratio"),
    ("parallel.broadcast_p50_us", "us"),
    ("parallel.broadcast_p99_us", "us"),
    ("parallel.barrier_us", "us"),
    ("parallel.gang_broadcast_p50_us", "us"),
    ("parallel.submit_run_p50_us", "us"),
    ("server.point_engine_p50_us", "us"),
    ("protocol.scan.encode_us", "us"),
    ("protocol.scan.decode_us", "us"),
    ("protocol.scan.response_kb", "KB"),
    ("ledger.round.gap_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process engines on a road grid.
    RoadEngine,
    /// In-process engines on an R-MAT graph.
    SocialEngine,
    /// Open-loop load through the server binary.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order `--self-check` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::RoadEngine,
        Workload::SocialEngine,
        Workload::ServeMixed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RoadEngine => "road-engine",
            Workload::SocialEngine => "social-engine",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!(
                    "unknown workload {name:?} (want road-engine, social-engine or serve-mixed)"
                )
            })
    }
}

/// Input sizes: `full` for measurement, `small` for the self-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Graphs larger than the per-core L2 cache.
    Full,
    /// Graphs of a few thousand vertices.
    Small,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every query input (sources, targets, arrivals).
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Engine pool, server and load threads (the machine's parallelism).
    pub threads: usize,
    /// The `priograph-server` binary.
    pub server: PathBuf,
    /// Scratch directory of this run (snapshots), removed afterwards.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub span_path: PathBuf,
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, refusals, or wrong answers.
    pub failed: u64,
    /// Of the failed operations, those whose answer was wrong.
    pub wrong: u64,
    /// Every metric the run measured.
    pub metrics: Metrics,
    /// One line on the inputs, for the human-readable report.
    pub notes: String,
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures, a reference that fails its own checks, or a server
/// whose counters disagree with the client's.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&config.work_dir)
        .map_err(|e| format!("creating {}: {e}", config.work_dir.display()))?;
    let outcome = match config.workload {
        Workload::RoadEngine => engine::run(engine::Shape::Road, config),
        Workload::SocialEngine => engine::run(engine::Shape::Social, config),
        Workload::ServeMixed => serve::run(config),
    };
    let _ = std::fs::remove_dir_all(&config.work_dir);
    outcome
}
