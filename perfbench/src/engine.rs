//! The in-process engine workloads, `road-engine` and `social-engine`.
//!
//! A closed loop runs whole rounds, one query at a time, on one
//! `Pool::new(threads)` pool. A round picks a seeded source and runs SSSP
//! under eager+fusion, SSSP lazy, wBFS on the log-n-weight twin, k-core
//! under lazy constant-sum, and [`Shape::points_per_round`] local-trip point
//! queries, each from its own uniformly drawn source, on the server's
//! serial point engine (the same kind of point `serve-mixed` sends; a few
//! short searches, so the pool never sits idle long between two rounds).
//! Every fourth round ends with a calibration sample on the pool (see
//! [`crate::calib`]). Each answer's fingerprint is kept; after the timed
//! window every answer is compared with the independent reference, which
//! itself must pass the property checks.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use priograph_algorithms::{kcore, sssp, wbfs, AlgoError, UNREACHABLE};
use priograph_core::engine::{RoundInfo, RoundObserver};
use priograph_core::plan::{AlgoFamily, GraphProfile, QueryPlan};
use priograph_core::schedule::Schedule;
use priograph_core::stats::ExecStats;
use priograph_graph::gen::GraphGen;
use priograph_graph::{CsrGraph, VertexId};
use priograph_parallel::Pool;
use priograph_serve::batch::QueryEngine;

use crate::calib::Calibration;
use crate::probes;
use crate::reference::{
    check_coreness, check_shortest_paths, dijkstra, distance, fingerprint, kcore_peel,
};
use crate::rng::Rng64;
use crate::spans::{Span, Tracer};
use crate::stats::{mean, median, quantile, Metrics};
use crate::{Outcome, RunConfig, Size, SETUP_REPEATS};

/// Point targets end a random walk of up to this many steps from the
/// source: local trips, short next to a full-vector query.
pub const TRIP_STEPS: u64 = 512;

/// Distinct sources of one run, drawn from `--seed`; rounds pick among
/// them, so the check after the window computes few references.
pub const SOURCE_POOL: usize = 64;

/// Seed of the input graphs; queries, not graphs, vary with `--seed`.
pub const GRAPH_SEED: u64 = 0x9E1D_2020;

/// Which graph an engine workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A planar road grid with metric weights (high diameter).
    Road,
    /// An R-MAT power-law graph with uniform weights (low diameter).
    Social,
}

impl Shape {
    /// Point queries per round: enough for a steady median, few enough to
    /// keep the serial share of a round small (about 0.5 ms of a 50 ms
    /// round on the road grid, 25 ms of 80 ms on the R-MAT graph).
    pub fn points_per_round(self) -> usize {
        match self {
            Shape::Road => 8,
            Shape::Social => 2,
        }
    }

    /// The generator of the weighted graph.
    pub fn generator(self, size: Size) -> GraphGen {
        let gen = match (self, size) {
            (Shape::Road, Size::Full) => GraphGen::road_grid(320, 320),
            (Shape::Road, Size::Small) => GraphGen::road_grid(40, 40),
            (Shape::Social, Size::Full) => GraphGen::rmat(16, 8).weights_uniform(1, 1000),
            (Shape::Social, Size::Small) => GraphGen::rmat(10, 8).weights_uniform(1, 1000),
        };
        gen.seed(GRAPH_SEED)
    }
}

/// The four full-vector operations of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Fused,
    Lazy,
    Wbfs,
    KCore,
}

const OPS: [Op; 4] = [Op::Fused, Op::Lazy, Op::Wbfs, Op::KCore];

impl Op {
    fn span(self) -> &'static str {
        match self {
            Op::Fused => "algorithms.sssp_fused",
            Op::Lazy => "algorithms.sssp_lazy",
            Op::Wbfs => "algorithms.wbfs",
            Op::KCore => "algorithms.kcore",
        }
    }

    fn metric(self) -> &'static str {
        match self {
            Op::Fused => "sssp_fused_ms",
            Op::Lazy => "sssp_lazy_ms",
            Op::Wbfs => "wbfs_ms",
            Op::KCore => "kcore_ms",
        }
    }
}

/// The end of a random walk of 1 to [`TRIP_STEPS`] steps from `source`,
/// stopping early at a vertex without out-edges.
pub fn local_trip(graph: &CsrGraph, source: VertexId, rng: &mut Rng64) -> VertexId {
    let mut at = source;
    for _ in 0..=rng.below(TRIP_STEPS) {
        let edges = graph.out_edges(at);
        if edges.is_empty() {
            break;
        }
        at = edges[rng.below(edges.len() as u64) as usize].dst;
    }
    at
}

/// Everything a round runs against.
struct Inputs {
    graph: CsrGraph,
    /// Same topology with weights in `[1, log2 n)`, for wBFS.
    twin: CsrGraph,
    /// The symmetrized graph k-core runs on, when `graph` is not symmetric.
    sym: Option<CsrGraph>,
    fused: Schedule,
    lazy: Schedule,
    wbfs: Schedule,
    kcore: Schedule,
    /// Vertices with at least one out-edge; source pools are drawn from them.
    sources: Vec<VertexId>,
}

impl Inputs {
    fn build(shape: Shape, size: Size, tracer: &mut Tracer, setup: u64) -> Inputs {
        let mut timed = |gen: GraphGen| {
            let start = Instant::now();
            let g = gen.build();
            tracer.record(setup, "graph.build", start, Instant::now(), None);
            g
        };
        let graph = timed(shape.generator(size));
        let twin = timed(shape.generator(size).weights_log_n());
        let sym = (!graph.is_symmetric()).then(|| graph.symmetrize());
        let profile = GraphProfile::of(&graph);
        let delta = QueryPlan::heuristic(AlgoFamily::Sssp, &profile)
            .schedule
            .delta;
        let sources = graph
            .vertices()
            .filter(|&v| graph.out_degree(v) > 0)
            .collect();
        Inputs {
            fused: Schedule::eager_with_fusion(delta),
            lazy: QueryPlan::heuristic(AlgoFamily::Sssp, &profile).schedule,
            wbfs: QueryPlan::heuristic(AlgoFamily::Wbfs, &GraphProfile::of(&twin)).schedule,
            kcore: QueryPlan::heuristic(AlgoFamily::KCore, &profile).schedule,
            graph,
            twin,
            sym,
            sources,
        }
    }

    fn kgraph(&self) -> &CsrGraph {
        self.sym.as_ref().unwrap_or(&self.graph)
    }

    fn run(
        &self,
        pool: &Pool,
        op: Op,
        source: VertexId,
        observer: Option<&dyn RoundObserver>,
    ) -> Result<(Vec<i64>, ExecStats), AlgoError> {
        match op {
            Op::Fused => {
                sssp::delta_stepping_observed(pool, &self.graph, source, &self.fused, observer)
                    .map(|r| (r.dist, r.stats))
            }
            Op::Lazy => {
                sssp::delta_stepping_observed(pool, &self.graph, source, &self.lazy, observer)
                    .map(|r| (r.dist, r.stats))
            }
            Op::Wbfs => wbfs::wbfs_observed(pool, &self.twin, source, &self.wbfs, observer)
                .map(|r| (r.dist, r.stats)),
            Op::KCore => kcore::kcore_observed(pool, self.kgraph(), &self.kcore, observer)
                .map(|r| (r.coreness, r.stats)),
        }
    }
}

/// Round timestamps taken by the engine's observer hook.
struct RoundClock {
    stamps: Mutex<Vec<(Instant, RoundInfo)>>,
}

impl RoundObserver for RoundClock {
    fn on_round(&self, info: &RoundInfo) {
        let now = Instant::now();
        if let Ok(mut stamps) = self.stamps.lock() {
            stamps.push((now, *info));
        }
    }
}

/// What one round produced, kept for the check after the window.
struct RoundRecord {
    source: VertexId,
    /// Fingerprint per op, `None` when the call returned an error.
    answers: [Option<u64>; 4],
    /// (source, target, distance) of each point query.
    points: Vec<(VertexId, VertexId, Option<i64>)>,
}

/// Per-call figures of the traced rounds.
#[derive(Default)]
struct TraceTally {
    calls: Vec<(Op, ExecStats, f64, u64)>,
    round_us: Vec<f64>,
    frontier: Vec<f64>,
    gap_us: Vec<f64>,
}

/// Runs an engine workload.
pub fn run(shape: Shape, config: &RunConfig) -> Result<Outcome, String> {
    let mut tracer = Tracer::new();
    let mut metrics = Metrics::default();

    let calibration = Calibration::new(config.threads);
    let mut calib_ms = Vec::new();

    // Set-up: graphs, pool and one warm-up call of every op, several times.
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut kept: Option<(Inputs, Pool)> = None;
    for rep in 0..SETUP_REPEATS {
        drop(kept.take());
        let start = Instant::now();
        let inputs = Inputs::build(shape, config.size, &mut tracer, rep);
        let pool = Pool::new(config.threads);
        let warm = inputs.sources[0];
        for op in OPS {
            inputs
                .run(&pool, op, warm, None)
                .map_err(|e| format!("warm-up {op:?} failed: {e}"))?;
        }
        QueryEngine::new().point_query(&inputs.graph, warm, 0);
        setup_s.push(start.elapsed().as_secs_f64());
        build_ms.push(
            tracer
                .named("graph.build")
                .filter(|s| s.query == rep)
                .map(Span::micros)
                .sum::<f64>()
                / 1e3,
        );
        kept = Some((inputs, pool));
    }
    let (inputs, pool) = kept.ok_or("no set-up ran")?;
    let mut points = QueryEngine::new();

    // The timed window: whole rounds until the deadline has passed.
    let mut rng = Rng64::new(config.seed ^ shape as u64);
    let sources: Vec<VertexId> = (0..SOURCE_POOL)
        .map(|_| inputs.sources[rng.below(inputs.sources.len() as u64) as usize])
        .collect();
    let mut records: Vec<RoundRecord> = Vec::new();
    let mut wall_ms: [Vec<f64>; 4] = Default::default();
    let mut traced_ms: [Vec<f64>; 4] = Default::default();
    let mut point_ms: Vec<f64> = Vec::new();
    let mut tally = TraceTally::default();
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let mut round = 0u64;
    while Instant::now() < deadline {
        let source = sources[rng.below(SOURCE_POOL as u64) as usize];
        // In the traced run every other round is traced; the untraced ones
        // give the baseline for the tracing overhead.
        let traced = config.trace && round % 2 == 1;
        let mut record = RoundRecord {
            source,
            answers: [None; 4],
            points: Vec::with_capacity(shape.points_per_round()),
        };
        for (i, op) in OPS.into_iter().enumerate() {
            let trace = traced.then_some((round, &mut tracer, &mut tally));
            let Some((print, ms)) = call(&inputs, &pool, op, source, trace) else {
                continue;
            };
            record.answers[i] = Some(print);
            if traced {
                traced_ms[i].push(ms);
            } else {
                wall_ms[i].push(ms);
            }
        }
        for _ in 0..shape.points_per_round() {
            // Point sources are drawn from the whole graph: from a pool of
            // 64 the median point cost followed the pool's placement on the
            // grid and differed by 40% between seeds.
            let from = inputs.sources[rng.below(inputs.sources.len() as u64) as usize];
            let target = local_trip(&inputs.graph, from, &mut rng);
            let start = Instant::now();
            let answer = points.point_query(&inputs.graph, from, target);
            let end = Instant::now();
            point_ms.push((end - start).as_secs_f64() * 1e3);
            if traced {
                tracer.record(round, "server.point_engine", start, end, None);
            }
            record.points.push((from, target, answer.distance));
        }
        records.push(record);
        if round.is_multiple_of(4) {
            calib_ms.push(calibration.sample_on(&pool));
        }
        round += 1;
    }

    // Peak memory of the run itself, before the references are computed.
    let peak_rss = crate::stats::peak_rss_mb("self") - calibration.mb();
    // Answers are checked after the window.
    let (attempted, failed, wrong) = verify(&inputs, &records)?;

    metrics.set("setup_s", median(&setup_s), "s");
    metrics.set("peak_rss_mb", peak_rss, "MB");
    for (i, op) in OPS.into_iter().enumerate() {
        metrics.set(op.metric(), median(&wall_ms[i]), "ms");
    }
    metrics.set("point_p50_ms", quantile(&point_ms, 0.5), "ms");
    metrics.set("point_p99_ms", quantile(&point_ms, 0.99), "ms");
    let scans: Vec<f64> = wall_ms.iter().flatten().copied().collect();
    metrics.set("scan_p90_ms", quantile(&scans, 0.9), "ms");
    crate::calib::scale(&mut metrics, &calib_ms)?;

    if config.trace {
        let untraced: f64 = wall_ms.iter().map(|v| median(v)).sum();
        let traced: f64 = traced_ms.iter().map(|v| median(v)).sum();
        metrics.set(
            "trace.overhead_pct",
            (traced - untraced) / untraced * 100.0,
            "%",
        );
        metrics.set("graph.build_ms", median(&build_ms), "ms");
        metrics.set(
            "graph.csr_mb",
            probes::csr_mb(&[&inputs.graph, &inputs.twin]),
            "MB",
        );
        layer_metrics(&tally, &mut metrics);
        let point_us = tracer.micros_of("server.point_engine");
        metrics.set("server.point_engine_p50_us", quantile(&point_us, 0.5), "us");
        let snap = config.work_dir.join("engine.snap");
        probes::snapshot_probe(&inputs.graph, &snap, &mut tracer, &mut metrics)?;
        let _ = std::fs::remove_file(&snap);
        probes::codec_probes(inputs.graph.num_vertices(), &mut tracer, &mut metrics)?;
        probes::pool_probes(&pool, &mut tracer, &mut metrics);
        drop(pool);
        probes::executor_probes(config.threads, &mut tracer, &mut metrics);
        write_spans(&tracer, &config.span_path)?;
    }
    Ok(Outcome {
        attempted,
        failed,
        wrong,
        metrics,
        notes: format!(
            "{} rounds; graph |V|={} |E|={} max weight {}; twin |E|={} max weight {}; k-core |E|={}; delta={}; {} sources drawn from {} vertices",
            records.len(),
            inputs.graph.num_vertices(),
            inputs.graph.num_edges(),
            inputs.graph.max_weight(),
            inputs.twin.num_edges(),
            inputs.twin.max_weight(),
            inputs.kgraph().num_edges(),
            inputs.fused.delta,
            SOURCE_POOL,
            inputs.sources.len()
        ),
    })
}

/// Runs one op and returns its answer's fingerprint and wall time (ms),
/// or `None` when the call failed. With `trace`, records the call's span,
/// one span per engine round, and the call's figures.
fn call(
    inputs: &Inputs,
    pool: &Pool,
    op: Op,
    source: VertexId,
    trace: Option<(u64, &mut Tracer, &mut TraceTally)>,
) -> Option<(u64, f64)> {
    let clock = RoundClock {
        stamps: Mutex::new(Vec::new()),
    };
    let observer = trace.is_some().then_some(&clock as &dyn RoundObserver);
    let start = Instant::now();
    let result = inputs.run(pool, op, source, observer);
    let end = Instant::now();
    let ms = (end - start).as_secs_f64() * 1e3;
    let (answer, stats) = result.ok()?;
    let print = fingerprint(&answer);
    let Some((query, tracer, tally)) = trace else {
        return Some((print, ms));
    };
    let parent = tracer.record(query, op.span(), start, end, None);
    let stamps = clock.stamps.into_inner().unwrap_or_default();
    let mut prev = start;
    for (k, (at, info)) in stamps.iter().enumerate() {
        // The first round also covers the call's set-up, so it gets its
        // own name and stays out of the round percentiles.
        let name = if k == 0 {
            "engine.first_round"
        } else {
            "engine.round"
        };
        let idx = tracer.record(query, name, prev, *at, Some(parent));
        if k > 0 {
            tally.round_us.push(tracer.spans()[idx].micros());
        }
        if op != Op::KCore {
            tally.frontier.push(info.frontier as f64);
        }
        prev = *at;
    }
    let mut reached_edges = 0;
    if op != Op::KCore {
        let loop_us = match (stamps.first(), stamps.last()) {
            (Some(first), Some(last)) => (last.0 - first.0).as_secs_f64() * 1e6,
            _ => 0.0,
        };
        // Wall time minus the algorithms overhead minus the rounds.
        tally
            .gap_us
            .push(stats.elapsed.as_secs_f64() * 1e6 - loop_us);
        let g = if op == Op::Wbfs {
            &inputs.twin
        } else {
            &inputs.graph
        };
        reached_edges = answer
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != UNREACHABLE)
            .map(|(v, _)| g.out_degree(v as VertexId) as u64)
            .sum();
    }
    tally.calls.push((op, stats, ms, reached_edges));
    Some((print, ms))
}

/// Rounds of the in-process engine probe other workloads run.
const PROBE_ROUNDS: u64 = 8;
/// Span query ids of the probe start here, apart from a run's own.
const PROBE_QUERY: u64 = 1 << 40;

/// The engine layers of `shape`'s graph, measured in process: a fresh
/// pool runs [`PROBE_ROUNDS`] traced rounds of the four full-vector ops
/// and fills the `algorithms.*`, `engine.*`, `buckets.*` and
/// `ledger.round.gap_us` metrics. Every answer is checked.
///
/// # Errors
///
/// A failed call, a wrong answer, or a reference failing its own check.
pub fn layer_probe(
    shape: Shape,
    config: &RunConfig,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let inputs = Inputs::build(shape, config.size, tracer, PROBE_QUERY);
    let pool = Pool::new(config.threads);
    let mut rng = Rng64::new(config.seed ^ PROBE_QUERY);
    let mut tally = TraceTally::default();
    let mut records = Vec::new();
    for round in 0..PROBE_ROUNDS {
        let source = inputs.sources[rng.below(inputs.sources.len() as u64) as usize];
        let mut answers = [None; 4];
        for (i, op) in OPS.into_iter().enumerate() {
            let trace = Some((PROBE_QUERY + round, &mut *tracer, &mut tally));
            answers[i] = call(&inputs, &pool, op, source, trace).map(|(print, _)| print);
        }
        records.push(RoundRecord {
            source,
            answers,
            points: Vec::new(),
        });
    }
    let (attempted, failed, _) = verify(&inputs, &records)?;
    if failed > 0 {
        return Err(format!(
            "engine probe: {failed} of {attempted} calls failed"
        ));
    }
    layer_metrics(&tally, metrics);
    Ok(())
}

fn layer_metrics(tally: &TraceTally, metrics: &mut Metrics) {
    let of = |want: &'static [Op]| tally.calls.iter().filter(move |c| want.contains(&c.0));
    let fused: Vec<&ExecStats> = of(&[Op::Fused]).map(|c| &c.1).collect();
    let sssp: Vec<_> = of(&[Op::Fused, Op::Lazy]).collect();
    let lazy: Vec<&ExecStats> = of(&[Op::Lazy]).map(|c| &c.1).collect();
    let avg = |xs: &[&ExecStats], f: fn(&ExecStats) -> u64| {
        mean(&xs.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    let overhead_ms: Vec<f64> = of(&[Op::Fused, Op::Lazy, Op::Wbfs])
        .map(|c| c.2 - c.1.elapsed.as_secs_f64() * 1e3)
        .collect();
    metrics.set("algorithms.overhead_ms", median(&overhead_ms), "ms");
    metrics.set("engine.rounds", avg(&fused, |s| s.rounds), "count");
    metrics.set(
        "engine.fused_rounds",
        avg(&fused, |s| s.fused_rounds),
        "count",
    );
    metrics.set("engine.round_p50_us", quantile(&tally.round_us, 0.5), "us");
    metrics.set("engine.round_p99_us", quantile(&tally.round_us, 0.99), "us");
    let relax: f64 = sssp.iter().map(|c| c.1.relaxations as f64).sum();
    let reached: f64 = sssp.iter().map(|c| c.3 as f64).sum();
    metrics.set(
        "engine.relaxations",
        relax / sssp.len().max(1) as f64,
        "count",
    );
    metrics.set("engine.work_ratio", relax / reached.max(1.0), "ratio");
    metrics.set(
        "engine.frontier_p50",
        quantile(&tally.frontier, 0.5),
        "count",
    );
    metrics.set("buckets.inserts", avg(&lazy, |s| s.bucket_inserts), "count");
    metrics.set("buckets.processed", avg(&lazy, |s| s.buckets), "count");
    let lazy_relax: f64 = lazy.iter().map(|s| s.relaxations as f64).sum();
    let lazy_inserts: f64 = lazy.iter().map(|s| s.bucket_inserts as f64).sum();
    metrics.set(
        "buckets.inserts_per_relaxation",
        lazy_inserts / lazy_relax.max(1.0),
        "ratio",
    );
    metrics.set("ledger.round.gap_us", median(&tally.gap_us), "us");
}

/// Compares every kept answer with the reference; returns (attempted,
/// failed, wrong). The reference of each distinct source is computed once.
/// Errors only when a reference fails its own check.
fn verify(inputs: &Inputs, records: &[RoundRecord]) -> Result<(u64, u64, u64), String> {
    let core = kcore_peel(inputs.kgraph());
    check_coreness(inputs.kgraph(), &core).map_err(|e| format!("reference k-core: {e}"))?;
    let core_print = fingerprint(&core);
    let mut by_source: BTreeMap<VertexId, Vec<&RoundRecord>> = BTreeMap::new();
    for r in records {
        by_source.entry(r.source).or_default().push(r);
    }
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut wrong = 0u64;
    for (source, rounds) in by_source {
        let dist = dijkstra(&inputs.graph, source);
        check_shortest_paths(&inputs.graph, source, &dist)
            .map_err(|e| format!("reference SSSP: {e}"))?;
        let twin = dijkstra(&inputs.twin, source);
        check_shortest_paths(&inputs.twin, source, &twin)
            .map_err(|e| format!("reference wBFS: {e}"))?;
        let expected = [
            fingerprint(&dist),
            fingerprint(&dist),
            fingerprint(&twin),
            core_print,
        ];
        for r in rounds {
            for (got, want) in r.answers.iter().zip(expected) {
                attempted += 1;
                match got {
                    None => failed += 1,
                    Some(got) if *got != want => {
                        failed += 1;
                        wrong += 1;
                    }
                    Some(_) => {}
                }
            }
            for &(from, target, got) in &r.points {
                attempted += 1;
                if got != distance(&inputs.graph, from, target) {
                    failed += 1;
                    wrong += 1;
                }
            }
        }
    }
    Ok((attempted, failed, wrong))
}

/// Writes the run's spans next to the benchmark's other outputs.
pub fn write_spans(tracer: &Tracer, path: &Path) -> Result<(), String> {
    tracer
        .write_jsonl(path)
        .map_err(|e| format!("writing spans to {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One round of real engine answers from `source`, each answer's
    /// vector passed through `edit` before it is fingerprinted.
    fn round(
        inputs: &Inputs,
        pool: &Pool,
        source: VertexId,
        edit: impl Fn(Op, &mut Vec<i64>),
    ) -> RoundRecord {
        let mut answers = [None; 4];
        for (i, op) in OPS.into_iter().enumerate() {
            let (mut answer, _) = inputs.run(pool, op, source, None).unwrap();
            edit(op, &mut answer);
            answers[i] = Some(fingerprint(&answer));
        }
        let mut points = QueryEngine::new();
        let target = local_trip(&inputs.graph, source, &mut Rng64::new(7));
        let distance = points.point_query(&inputs.graph, source, target).distance;
        RoundRecord {
            source,
            answers,
            points: vec![(source, target, distance)],
        }
    }

    #[test]
    fn verify_counts_each_wrong_answer_as_one_failure() {
        for shape in [Shape::Road, Shape::Social] {
            let inputs = Inputs::build(shape, Size::Small, &mut Tracer::new(), 0);
            let pool = Pool::new(2);
            let source = inputs.sources[0];
            let right = round(&inputs, &pool, source, |_, _| {});
            assert_eq!(verify(&inputs, &[right]).unwrap(), (5, 0, 0));
            for wrong_op in OPS {
                // Raise the answer of the last vertex that has a positive one.
                let record = round(&inputs, &pool, source, |op, answer| {
                    if op == wrong_op {
                        let v = (0..answer.len())
                            .rev()
                            .find(|&v| answer[v] > 0 && answer[v] != UNREACHABLE)
                            .unwrap();
                        answer[v] += 1;
                    }
                });
                assert_eq!(
                    verify(&inputs, &[record]).unwrap(),
                    (5, 1, 1),
                    "{shape:?} {wrong_op:?}"
                );
            }
            let mut record = round(&inputs, &pool, source, |_, _| {});
            record.points[0].2 = record.points[0].2.map(|d| d + 1);
            assert_eq!(verify(&inputs, &[record]).unwrap(), (5, 1, 1));
            let mut record = round(&inputs, &pool, source, |_, _| {});
            record.answers[0] = None;
            assert_eq!(verify(&inputs, &[record]).unwrap(), (5, 1, 0));
        }
    }
}
