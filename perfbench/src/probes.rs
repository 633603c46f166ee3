//! Layer probes of the traced run: each times one public entry point of a
//! layer from outside, with nothing else running, and records one span per
//! call.

use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

use priograph_graph::{CsrGraph, GraphSnapshot};
use priograph_parallel::{Executor, Lane, Pool};
use priograph_serve::protocol::Response;

use crate::spans::Tracer;
use crate::stats::{median, quantile, Metrics};

const BROADCASTS: usize = 2_000;
const BARRIER_ROUNDS: usize = 20;
const BARRIERS_PER_ROUND: usize = 500;
const SUBMITS: usize = 1_000;
const CODEC_REPEATS: usize = 15;
const SNAPSHOT_LOADS: usize = 3;

/// Empty broadcasts and region barriers on `pool`:
/// `parallel.broadcast_p50_us`, `parallel.broadcast_p99_us`,
/// `parallel.barrier_us`.
pub fn pool_probes(pool: &Pool, tracer: &mut Tracer, metrics: &mut Metrics) {
    for i in 0..BROADCASTS {
        let start = Instant::now();
        pool.broadcast(|_| {});
        tracer.record(i as u64, "parallel.broadcast", start, Instant::now(), None);
    }
    let broadcasts = tracer.micros_of("parallel.broadcast");
    metrics.set(
        "parallel.broadcast_p50_us",
        quantile(&broadcasts, 0.5),
        "us",
    );
    metrics.set(
        "parallel.broadcast_p99_us",
        quantile(&broadcasts, 0.99),
        "us",
    );
    for i in 0..BARRIER_ROUNDS {
        let start = Instant::now();
        pool.broadcast(|w| {
            for _ in 0..BARRIERS_PER_ROUND {
                w.barrier();
            }
        });
        tracer.record(
            i as u64,
            "parallel.barrier_region",
            start,
            Instant::now(),
            None,
        );
    }
    let per_barrier: Vec<f64> = tracer
        .micros_of("parallel.barrier_region")
        .iter()
        .map(|us| us / BARRIERS_PER_ROUND as f64)
        .collect();
    metrics.set("parallel.barrier_us", median(&per_barrier), "us");
}

/// Gang regions and lane submission on a fresh executor of `threads`
/// workers: `parallel.gang_broadcast_p50_us`, `parallel.submit_run_p50_us`.
pub fn executor_probes(threads: usize, tracer: &mut Tracer, metrics: &mut Metrics) {
    let exec = Executor::new(threads);
    {
        let gang = Pool::attach(&exec);
        for i in 0..BROADCASTS {
            let start = Instant::now();
            gang.broadcast(|_| {});
            tracer.record(
                i as u64,
                "parallel.gang_broadcast",
                start,
                Instant::now(),
                None,
            );
        }
    }
    let (tx, rx) = mpsc::channel::<Instant>();
    for i in 0..SUBMITS {
        let tx = tx.clone();
        let start = Instant::now();
        exec.submit(Lane::Interactive, move |_| {
            let _ = tx.send(Instant::now());
        });
        if let Ok(ran) = rx.recv() {
            tracer.record(i as u64, "parallel.submit_run", start, ran, None);
        }
    }
    exec.wait_idle();
    exec.shutdown();
    let gangs = tracer.micros_of("parallel.gang_broadcast");
    metrics.set(
        "parallel.gang_broadcast_p50_us",
        quantile(&gangs, 0.5),
        "us",
    );
    let submits = tracer.micros_of("parallel.submit_run");
    metrics.set("parallel.submit_run_p50_us", quantile(&submits, 0.5), "us");
}

/// Encodes and decodes one full-vector reply of `vertices` entries:
/// `protocol.scan.encode_us`, `protocol.scan.decode_us`,
/// `protocol.scan.response_kb`.
pub fn codec_probes(
    vertices: usize,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let reply = Response::DistVec((0..vertices as i64).map(|v| v * 37 % 100_003).collect());
    let mut bytes = Vec::new();
    for i in 0..CODEC_REPEATS {
        let start = Instant::now();
        bytes = std::hint::black_box(reply.encode());
        let encoded = Instant::now();
        let back = Response::decode(&bytes).map_err(|e| format!("decoding a reply: {e}"))?;
        let decoded = Instant::now();
        if back != reply {
            return Err("a full-vector reply did not survive encode and decode".to_string());
        }
        tracer.record(i as u64, "protocol.encode", start, encoded, None);
        tracer.record(i as u64, "protocol.decode", encoded, decoded, None);
    }
    metrics.set(
        "protocol.scan.encode_us",
        median(&tracer.micros_of("protocol.encode")),
        "us",
    );
    metrics.set(
        "protocol.scan.decode_us",
        median(&tracer.micros_of("protocol.decode")),
        "us",
    );
    metrics.set(
        "protocol.scan.response_kb",
        bytes.len() as f64 / 1024.0,
        "KB",
    );
    Ok(())
}

/// Writes `graph` as a snapshot at `path` and times loading it back:
/// `graph.snapshot_load_ms`.
pub fn snapshot_probe(
    graph: &CsrGraph,
    path: &Path,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    GraphSnapshot::write(graph, path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    for i in 0..SNAPSHOT_LOADS {
        let start = Instant::now();
        let loaded =
            GraphSnapshot::load(path).map_err(|e| format!("loading {}: {e}", path.display()))?;
        tracer.record(i as u64, "graph.snapshot_load", start, Instant::now(), None);
        if loaded.num_edges() != graph.num_edges() {
            return Err("a snapshot loaded back with a different edge count".to_string());
        }
    }
    metrics.set(
        "graph.snapshot_load_ms",
        median(&tracer.micros_of("graph.snapshot_load")) / 1e3,
        "ms",
    );
    Ok(())
}

/// Bytes of the CSR arrays of `graphs` in MB, computed from |V| and |E|:
/// out- and in-offsets (8 B per vertex each) and out- and in-edges (8 B
/// per edge each).
pub fn csr_mb(graphs: &[&CsrGraph]) -> f64 {
    graphs
        .iter()
        .map(|g| 2.0 * 8.0 * (g.num_vertices() as f64 + 1.0) + 2.0 * 8.0 * g.num_edges() as f64)
        .sum::<f64>()
        / (1024.0 * 1024.0)
}
