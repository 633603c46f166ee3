//! The `serve-mixed` workload: open-loop load through the
//! `priograph-server` binary.
//!
//! The benchmark writes snapshots of a road grid (the hot tenant) and an
//! R-MAT graph, starts the server on the road snapshot with
//! [`SERVER_THREADS`] workers, and loads the R-MAT snapshot over the wire.
//! The server and the thread that drives it share one CPU, and keep-awake
//! spinners run from set-up to the end of the run (see [`crate::cpu`]).
//! That thread drives the road tenant over one connection in
//! whole rounds: a scan cycle (full-vector SSSP eager+fusion and lazy,
//! pinned, wBFS and k-core, back to back), then a phase of [`POINTS_PER_ROUND`] point queries on a seeded
//! Poisson schedule at [`RATE_QPS`], each charged from its scheduled
//! arrival, then one calibration sample (see [`crate::calib`]) while the
//! server is idle. Points and scans share the executor and the wire but not
//! the same moments: run at once, the points queued behind the scans, and
//! that queueing grew out of proportion to the machine's speed (see the
//! README, "Steadiness"). No `TuneGraph` is sent: the tuner's winner
//! depends on timing and would change the plans later queries run.

use std::collections::hash_map::{Entry, HashMap};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use priograph_algorithms::UNREACHABLE;
use priograph_core::plan::{AlgoFamily, GraphProfile, QueryPlan};
use priograph_graph::{CsrGraph, GraphSnapshot, VertexId};
use priograph_load::report::reconcile_settled;
use priograph_load::{BreakerWalk, RunReport};
use priograph_parallel::Pool;
use priograph_serve::batch::QueryEngine;
use priograph_serve::protocol::{
    read_frame, write_frame, ErrorKind, GraphId, Query, QueryOp, Request, Response, StatsV2,
    WireError, WireSchedule, WireStrategy,
};
use priograph_serve::Client;

use crate::calib::Calibration;
use crate::cpu::KeepAwake;
use crate::engine::{local_trip, Shape, SOURCE_POOL};
use crate::probes;
use crate::reference::{check_coreness, check_shortest_paths, dijkstra, fingerprint, kcore_peel};
use crate::rng::Rng64;
use crate::spans::Tracer;
use crate::stats::{median, quantile, Metrics};
use crate::{Outcome, RunConfig, SETUP_REPEATS};

/// Offered rate of the point phases, queries per second.
pub const RATE_QPS: f64 = 256.0;
/// Worker threads of the server. With one per CPU, every round of a scan's
/// gang region waited for both vCPUs of the 2-vCPU box the README's figures
/// come from, and scan times swung with the host's scheduling of either
/// (see the README, "Steadiness").
const SERVER_THREADS: usize = 1;
/// Point queries per round of the measured window.
pub const POINTS_PER_ROUND: usize = 16;
/// How long before each point's arrival its sender stops sleeping and
/// spins. The server is otherwise idle in the point phases and the
/// keep-awake spinners yield to any thread, so the spin takes no CPU the
/// server needs; sleeping to the arrival charged the timer's wake-up delay,
/// about 60 µs of a 0.23 ms point p50, to every point.
const PACE_SPIN_US: u64 = 250;
/// Pause between a round's last point and its calibration sample, so that
/// the server's workers have stopped spinning and parked.
const CALIB_SETTLE: Duration = Duration::from_millis(5);
/// Seed of the source pools, which belong to the workload like the graphs.
const SOURCE_SEED: u64 = 0x5E7E;
/// Point p99 limit of the knee search in the traced run, ms.
pub const KNEE_P99_LIMIT_MS: f64 = 25.0;
/// Offered rates of the knee search, q/s.
const KNEE_RATES: [f64; 6] = [256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0];
/// Length of one knee step, s.
const KNEE_STEP_S: f64 = 2.0;
/// ListGraphs round trips timed on the idle server.
const NOOP_PROBES: usize = 200;
/// Socket budget for one reply, so a stalled server fails the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// What a query is, for the metrics and the answer check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Point,
    Fused,
    Lazy,
    Wbfs,
    KCore,
}

const SCAN_KINDS: [Kind; 4] = [Kind::Fused, Kind::Lazy, Kind::Wbfs, Kind::KCore];

impl Kind {
    fn metric(self) -> &'static str {
        match self {
            Kind::Fused => "sssp_fused_ms",
            Kind::Lazy => "sssp_lazy_ms",
            Kind::Wbfs => "wbfs_ms",
            Kind::KCore => "kcore_ms",
            Kind::Point => "point_p50_ms",
        }
    }
}

/// One scheduled arrival.
#[derive(Debug, Clone)]
struct Arrival {
    at_us: u64,
    kind: Kind,
    query: Query,
}

/// How one query ended.
#[derive(Debug, Clone)]
enum Answer {
    Distance(Option<i64>),
    Vector(u64),
    Busy,
    Remote(ErrorKind),
    Io,
    Wire,
}

/// One finished query.
#[derive(Debug, Clone)]
struct Done {
    index: usize,
    sent_us: u64,
    done_us: u64,
    answer: Answer,
}

/// The server child process; killed on drop unless it was shut down.
struct ServerProcess {
    child: Option<Child>,
    addr: SocketAddr,
}

impl ServerProcess {
    fn start(
        binary: &Path,
        snapshot: &Path,
        threads: usize,
        cpu: Option<usize>,
    ) -> Result<ServerProcess, String> {
        let mut command = Command::new(binary);
        if let Some(cpu) = cpu {
            crate::cpu::pin_command(&mut command, cpu);
        }
        let mut child = command
            .arg("--snapshot")
            .arg(snapshot)
            .args(["--listen", "127.0.0.1:0", "--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", binary.display()))?;
        let stdout = child
            .stdout
            .take()
            .ok_or("server stdout was not captured")?;
        let mut server = ServerProcess {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the server's address: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not report its address (got {line:?})"))?;
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child
            .as_ref()
            .map_or("self".to_string(), |c| c.id().to_string())
    }

    /// Asks the server to drain and waits for it to exit. The server may
    /// exit before its `Bye` reaches the client, so a connection closed
    /// without a reply also counts as acknowledged; the exit status must
    /// still be success.
    fn shutdown(mut self) -> Result<(), String> {
        let mut child = self.child.take().ok_or("server already stopped")?;
        let asked = match Client::connect(self.addr) {
            Ok(mut c) => match c.shutdown() {
                Ok(()) | Err(WireError::Io(_)) => Ok(()),
                Err(e) => Err(e.to_string()),
            },
            Err(e) => Err(e.to_string()),
        };
        if asked.is_err() {
            let _ = child.kill();
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for the server: {e}"))?;
        match asked {
            Ok(()) if status.success() => Ok(()),
            Ok(()) => Err(format!("server exited with {status}")),
            Err(e) => Err(format!("server refused shutdown: {e}")),
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The resident graphs, as the benchmark generated them.
struct Tenants {
    road: CsrGraph,
    social: CsrGraph,
    social_id: GraphId,
    /// Road SSSP Δ from the planner's heuristic, pinned on SSSP scans.
    road_delta: i64,
    road_sources: Vec<VertexId>,
}

fn pick_sources(graph: &CsrGraph, rng: &mut Rng64) -> Vec<VertexId> {
    let candidates: Vec<VertexId> = graph
        .vertices()
        .filter(|&v| graph.out_degree(v) > 0)
        .collect();
    (0..SOURCE_POOL)
        .map(|_| candidates[rng.below(candidates.len() as u64) as usize])
        .collect()
}

/// One set-up: generate, snapshot, start, load, warm up.
fn set_up(
    config: &RunConfig,
    tracer: &mut Tracer,
    rep: u64,
) -> Result<(ServerProcess, Tenants), String> {
    let mut build = |shape: Shape| {
        let start = Instant::now();
        let g = shape.generator(config.size).build();
        tracer.record(rep, "graph.build", start, Instant::now(), None);
        g
    };
    let road = build(Shape::Road);
    let social = build(Shape::Social);
    let road_path = config.work_dir.join("road.snap");
    let social_path = config.work_dir.join("social.snap");
    for (g, p) in [(&road, &road_path), (&social, &social_path)] {
        GraphSnapshot::write(g, p).map_err(|e| format!("writing {}: {e}", p.display()))?;
    }
    let server = ServerProcess::start(&config.server, &road_path, SERVER_THREADS, server_cpu())?;
    let mut client = connect(server.addr)?;
    let social_abs = std::fs::canonicalize(&social_path).map_err(|e| e.to_string())?;
    let info = client
        .load_graph("social", &social_abs.to_string_lossy())
        .map_err(|e| format!("loading the social tenant: {e}"))?;
    let social_warm = social
        .vertices()
        .find(|&v| social.out_degree(v) > 0)
        .unwrap_or(0);
    let tenants = Tenants {
        road_delta: QueryPlan::heuristic(AlgoFamily::Sssp, &GraphProfile::of(&road))
            .schedule
            .delta,
        road_sources: pick_sources(&road, &mut Rng64::new(SOURCE_SEED)),
        social_id: info.id,
        road,
        social,
    };
    // Warm-up: every query kind once, and one point per tenant.
    let warm = [
        scan(Kind::Fused, &tenants, tenants.road_sources[0]),
        scan(Kind::Lazy, &tenants, tenants.road_sources[0]),
        scan(Kind::Wbfs, &tenants, tenants.road_sources[0]),
        scan(Kind::KCore, &tenants, 0),
        point(0, tenants.road_sources[0], 1),
        point(tenants.social_id, social_warm, 1),
    ];
    for q in warm {
        match client.query(q) {
            Ok(Response::Error { kind, message }) => {
                return Err(format!("warm-up {kind}: {message}"))
            }
            Ok(_) => {}
            Err(e) => return Err(format!("warm-up: {e}")),
        }
    }
    Ok((server, tenants))
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))
}

fn point(graph: GraphId, source: VertexId, target: VertexId) -> Query {
    Query {
        graph,
        ..Query::ppsp(source, target)
    }
}

fn scan(kind: Kind, t: &Tenants, source: VertexId) -> Query {
    let (op, strategy, delta) = match kind {
        Kind::Fused => (QueryOp::Sssp, WireStrategy::EagerFusion, t.road_delta),
        Kind::Lazy => (QueryOp::Sssp, WireStrategy::Lazy, t.road_delta),
        Kind::Wbfs => (QueryOp::Wbfs, WireStrategy::ServerDefault, 0),
        Kind::KCore | Kind::Point => (QueryOp::KCore, WireStrategy::ServerDefault, 0),
    };
    Query {
        op,
        graph: 0,
        source,
        target: 0,
        schedule: WireSchedule { strategy, delta },
        deadline_ms: 0,
    }
}

/// The knee search's seeded Poisson stream of point queries on the road
/// tenant: `seconds` at `rate` q/s.
fn arrivals(t: &Tenants, rate: f64, seconds: f64, seed: u64) -> Vec<Arrival> {
    let mut rng = Rng64::new(seed);
    let mut out = Vec::new();
    let mut at = rng.exponential(1.0 / rate);
    while at < seconds {
        let source = t.road_sources[rng.below(t.road_sources.len() as u64) as usize];
        let target = local_trip(&t.road, source, &mut rng);
        out.push(Arrival {
            at_us: (at * 1e6) as u64,
            kind: Kind::Point,
            query: point(0, source, target),
        });
        at += rng.exponential(1.0 / rate);
    }
    out
}

fn micros_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Waits until `at_us` after `origin`: sleeps until `spin_us` before it,
/// then spins. Sleeping all the way charges the timer's wake-up delay to
/// the query; spinning takes a CPU, which only a sender whose server is
/// otherwise idle can spare.
fn pace(origin: Instant, at_us: u64, spin_us: u64) {
    let now = micros_since(origin);
    if at_us > now + spin_us {
        std::thread::sleep(Duration::from_micros(at_us - spin_us - now));
    }
    while micros_since(origin) < at_us {
        std::hint::spin_loop();
    }
}

fn open_stream(addr: SocketAddr) -> Option<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).ok()?;
    stream.set_nodelay(true).ok()?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).ok()?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).ok()?;
    Some(stream)
}

/// Spans of one traced query, in µs since the run origin.
struct QuerySpans {
    encoded_us: u64,
    received_us: u64,
}

/// Sends one query and classifies the reply.
fn send(
    stream: &mut Option<TcpStream>,
    addr: SocketAddr,
    query: &Query,
    origin: Instant,
) -> (Answer, QuerySpans) {
    let mut spans = QuerySpans {
        encoded_us: 0,
        received_us: 0,
    };
    if stream.is_none() {
        *stream = open_stream(addr);
    }
    let Some(s) = stream.as_mut() else {
        return (Answer::Io, spans);
    };
    let payload = Request::Query(*query).encode();
    spans.encoded_us = micros_since(origin);
    let frame = write_frame(s, &payload).and_then(|()| read_frame(s));
    spans.received_us = micros_since(origin);
    let answer = match frame {
        Ok(Some(bytes)) => match Response::decode(&bytes) {
            Ok(Response::Distance { distance, .. }) => Answer::Distance(distance),
            Ok(Response::DistVec(v) | Response::Coreness(v)) => Answer::Vector(fingerprint(&v)),
            Ok(Response::Busy { .. }) => Answer::Busy,
            Ok(Response::Error { kind, .. }) => Answer::Remote(kind),
            Ok(_) | Err(_) => Answer::Wire,
        },
        Ok(None) | Err(WireError::Io(_)) => Answer::Io,
        Err(_) => Answer::Wire,
    };
    if matches!(answer, Answer::Io | Answer::Wire) {
        *stream = None;
    }
    (answer, spans)
}

/// One finished query with its client spans when it was traced.
type Finished = (Done, Option<QuerySpans>);

/// Sends `arrival` on `stream` and records how it ended.
fn issue(
    stream: &mut Option<TcpStream>,
    addr: SocketAddr,
    arrival: &Arrival,
    index: usize,
    traced: bool,
    origin: Instant,
) -> Finished {
    let sent_us = micros_since(origin);
    let (answer, spans) = send(stream, addr, &arrival.query, origin);
    let done = Done {
        index,
        sent_us,
        done_us: micros_since(origin),
        answer,
    };
    (done, traced.then_some(spans))
}

/// Drives the open-loop `points` over `connections` sockets, dealt round
/// robin, and returns how each ended, in the order of `points`.
fn drive(addr: SocketAddr, points: &[Arrival], connections: usize) -> Vec<Finished> {
    let lanes = connections.max(1);
    let origin = Instant::now();
    let mut finished: Vec<Finished> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                scope.spawn(move || {
                    let mut stream = open_stream(addr);
                    (lane..points.len())
                        .step_by(lanes)
                        .map(|i| {
                            // Several senders and a busy server share the
                            // CPUs here, so the senders sleep all the way.
                            pace(origin, points[i].at_us, 0);
                            issue(&mut stream, addr, &points[i], i, false, origin)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    finished.sort_by_key(|(d, _)| d.index);
    finished
}

/// The measured window: whole rounds, until `seconds` have passed, of one
/// scan cycle (with the spinners paused), one open-loop point phase and one
/// calibration sample, all from one thread over one connection, on the
/// server's CPU. In the traced run every other round is traced. Returns
/// every query (each scan "arriving" when it was issued), how each ended,
/// and the calibration samples, ms.
fn window(
    addr: SocketAddr,
    t: &Tenants,
    config: &RunConfig,
    awake: &KeepAwake,
    calibration: &Calibration,
) -> (Vec<Arrival>, Vec<Finished>, Vec<f64>) {
    // A thread of its own, so that the pin ends with the window.
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                if let Some(cpu) = server_cpu() {
                    crate::cpu::pin_current_thread(cpu);
                }
                rounds(addr, t, config, awake, calibration)
            })
            .join()
            .unwrap_or_default()
    })
}

/// The CPU the server and the measured window share: the last one this
/// process may use.
fn server_cpu() -> Option<usize> {
    crate::cpu::allowed_cpus().last().copied()
}

fn rounds(
    addr: SocketAddr,
    t: &Tenants,
    config: &RunConfig,
    awake: &KeepAwake,
    calibration: &Calibration,
) -> (Vec<Arrival>, Vec<Finished>, Vec<f64>) {
    let mut rng = Rng64::new(config.seed);
    // Scan sources cycle through the whole pool in a seeded order: drawn at
    // random, a run's scan medians followed which sources it happened to
    // draw more often.
    let mut order = t.road_sources.clone();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut stream = open_stream(addr);
    let mut plan = Vec::new();
    let mut done = Vec::new();
    let mut calib_ms = Vec::new();
    let end_us = (config.seconds * 1e6) as u64;
    let origin = Instant::now();
    let mut round = 0u64;
    while micros_since(origin) < end_us {
        let traced = config.trace && round % 2 == 1;
        let source = order[round as usize % order.len()];
        awake.pause();
        for kind in SCAN_KINDS {
            let arrival = Arrival {
                at_us: micros_since(origin),
                kind,
                query: scan(kind, t, source),
            };
            let i = plan.len();
            done.push(issue(&mut stream, addr, &arrival, i, traced, origin));
            plan.push(arrival);
        }
        awake.resume();
        let mut at_us = micros_since(origin) as f64;
        for _ in 0..POINTS_PER_ROUND {
            at_us += rng.exponential(1e6 / RATE_QPS);
            let source = t.road_sources[rng.below(t.road_sources.len() as u64) as usize];
            let target = local_trip(&t.road, source, &mut rng);
            let arrival = Arrival {
                at_us: at_us as u64,
                kind: Kind::Point,
                query: point(0, source, target),
            };
            pace(origin, arrival.at_us, PACE_SPIN_US);
            let i = plan.len();
            done.push(issue(&mut stream, addr, &arrival, i, traced, origin));
            plan.push(arrival);
        }
        std::thread::sleep(CALIB_SETTLE);
        calib_ms.push(calibration.sample());
        round += 1;
    }
    (plan, done, calib_ms)
}

/// The exactly-once tallies [`reconcile_settled`] compares with `StatsV2`.
fn run_report(
    plan: &[Arrival],
    done: &[(Done, Option<QuerySpans>)],
    duration_us: u64,
) -> RunReport {
    let mut ok = 0u64;
    let mut busy = 0u64;
    let mut io = 0u64;
    let mut wire = 0u64;
    let mut by_kind = vec![0u64; ErrorKind::ALL.len()];
    for (d, _) in done {
        match d.answer {
            Answer::Distance(_) | Answer::Vector(_) => ok += 1,
            Answer::Busy => busy += 1,
            Answer::Remote(kind) => {
                if let Some(i) = ErrorKind::ALL.iter().position(|k| *k == kind) {
                    by_kind[i] += 1;
                }
            }
            Answer::Io => io += 1,
            Answer::Wire => wire += 1,
        }
    }
    let errors: Vec<(String, u64)> = ErrorKind::ALL
        .iter()
        .zip(&by_kind)
        .filter(|(_, &n)| n > 0)
        .map(|(k, &n)| (k.to_string(), n))
        .collect();
    let dispatched: u64 = priograph_load::DISPATCHED_ERROR_KINDS
        .iter()
        .filter_map(|k| ErrorKind::ALL.iter().position(|x| x == k))
        .map(|i| by_kind[i])
        .sum();
    RunReport {
        mix: "serve-mixed".to_string(),
        arrivals: "poisson".to_string(),
        rate_qps: RATE_QPS,
        seed: 0,
        workers: 0,
        scheduled: plan.len() as u64,
        completed: ok + dispatched,
        ok,
        tunes: 0,
        tunes_ok: 0,
        errors: errors.clone(),
        attempt_errors: errors,
        busy_gave_up: busy,
        refused: 0,
        io_errors: io,
        wire_errors: wire,
        attempts: done.len() as u64,
        busy_attempts: busy,
        local_refusals: 0,
        latency: Default::default(),
        service: Default::default(),
        breaker: BreakerWalk::default(),
        duration_us,
        achieved_qps: 0.0,
        raw_latency_us: Vec::new(),
    }
}

fn series<'a>(
    stats: &'a StatsV2,
    name: &str,
) -> Option<&'a priograph_serve::protocol::SeriesSummary> {
    stats.series.iter().find(|s| s.name == name)
}

fn counter_delta(before: &StatsV2, after: &StatsV2, name: &str) -> f64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0)) as f64
}

/// Runs the `serve-mixed` workload.
#[allow(clippy::too_many_lines)]
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&config.work_dir).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new();
    let mut metrics = Metrics::default();
    let awake = KeepAwake::start(config.threads);
    // One participant, like the server's one worker: a sample on two
    // waits for the slower vCPU and overstated the host's steal.
    let calibration = Calibration::new(1);
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPEATS {
        if let Some((server, _)) = kept.take() {
            ServerProcess::shutdown(server)?;
        }
        let start = Instant::now();
        let pair = set_up(config, &mut tracer, rep)?;
        setup_s.push(start.elapsed().as_secs_f64());
        kept = Some(pair);
    }
    let (server, tenants) = kept.ok_or("no set-up ran")?;
    let mut control = connect(server.addr)?;

    // The wire floor: ListGraphs round trips on the idle server.
    let mut noop_us = Vec::new();
    if config.trace {
        for _ in 0..NOOP_PROBES {
            let start = Instant::now();
            control
                .list_graphs()
                .map_err(|e| format!("ListGraphs: {e}"))?;
            noop_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }

    let before = control.stats_v2().map_err(|e| format!("StatsV2: {e}"))?;
    let origin = Instant::now();
    let (plan, done, calib_ms) = window(server.addr, &tenants, config, &awake, &calibration);
    let duration_us = micros_since(origin);
    let report = run_report(&plan, &done, duration_us);
    reconcile_settled(
        &report,
        &before,
        || control.stats_v2().map_err(|e| format!("StatsV2: {e}")),
        2_000,
    )
    .map_err(|e| format!("client tallies disagree with the server's StatsV2: {e}"))?;
    let after = control.stats_v2().map_err(|e| format!("StatsV2: {e}"))?;

    // Latencies from the scheduled arrival, split by kind; traced queries
    // are kept apart so the untraced ones give the end-to-end figures.
    let mut lat: Vec<(Kind, bool, f64)> = Vec::new();
    let mut lag_us = Vec::new();
    for (d, spans) in &done {
        let a = &plan[d.index];
        if a.kind == Kind::Point {
            lag_us.push(d.sent_us.saturating_sub(a.at_us) as f64);
        }
        if matches!(d.answer, Answer::Distance(_) | Answer::Vector(_)) {
            lat.push((
                a.kind,
                spans.is_some(),
                d.done_us.saturating_sub(a.at_us) as f64 / 1e3,
            ));
        }
        if let Some(s) = spans {
            let root = tracer.record_ns(span(d.index, "client.query", a.at_us, d.done_us, None));
            tracer.record_ns(span(d.index, "load.lag", a.at_us, d.sent_us, Some(root)));
            let service = tracer.record_ns(span(
                d.index,
                service_name(a.kind),
                d.sent_us,
                d.done_us,
                Some(root),
            ));
            tracer.record_ns(span(
                d.index,
                "client.encode",
                d.sent_us,
                s.encoded_us,
                Some(service),
            ));
            tracer.record_ns(span(
                d.index,
                "client.wire",
                s.encoded_us,
                s.received_us,
                Some(service),
            ));
            tracer.record_ns(span(
                d.index,
                "client.decode",
                s.received_us,
                d.done_us,
                Some(service),
            ));
        }
    }
    let of = |want: &[Kind], traced: bool| -> Vec<f64> {
        lat.iter()
            .filter(|(k, t, _)| want.contains(k) && *t == traced)
            .map(|x| x.2)
            .collect()
    };

    // Peak memory of the run itself, before the references are computed.
    let peak_rss = crate::stats::peak_rss_mb("self") - calibration.mb()
        + crate::stats::peak_rss_mb(&server.pid());
    // Answers are checked after the window.
    let (attempted, failed, wrong) = verify(&tenants, &plan, &done)?;

    metrics.set("setup_s", median(&setup_s), "s");
    metrics.set("peak_rss_mb", peak_rss, "MB");
    for kind in SCAN_KINDS {
        metrics.set(kind.metric(), median(&of(&[kind], false)), "ms");
    }
    let points = of(&[Kind::Point], false);
    metrics.set("point_p50_ms", quantile(&points, 0.5), "ms");
    metrics.set("point_p99_ms", quantile(&points, 0.99), "ms");
    metrics.set("scan_p90_ms", quantile(&of(&SCAN_KINDS, false), 0.9), "ms");
    crate::calib::scale(&mut metrics, &calib_ms)?;

    if config.trace {
        let traced_points = of(&[Kind::Point], true);
        metrics.set(
            "trace.overhead_pct",
            (quantile(&traced_points, 0.5) - quantile(&points, 0.5)) / quantile(&points, 0.5)
                * 100.0,
            "%",
        );
        metrics.set(
            "graph.build_ms",
            {
                let per_rep: Vec<f64> = (0..SETUP_REPEATS)
                    .map(|rep| {
                        tracer
                            .named("graph.build")
                            .filter(|s| s.query == rep)
                            .map(|s| s.micros())
                            .sum::<f64>()
                            / 1e3
                    })
                    .collect();
                median(&per_rep)
            },
            "ms",
        );
        metrics.set(
            "graph.csr_mb",
            probes::csr_mb(&[&tenants.road, &tenants.social]),
            "MB",
        );
        server_layers(&after, &mut metrics);
        let scans = counter_delta(&before, &after, "full_queries").max(1.0);
        metrics.set(
            "server.engine.rounds",
            counter_delta(&before, &after, "engine.rounds") / scans,
            "count",
        );
        metrics.set(
            "server.engine.relaxations",
            counter_delta(&before, &after, "engine.relaxations") / scans,
            "count",
        );
        metrics.set(
            "server.engine.frontier_p50",
            series(&after, "engine.frontier").map_or(0.0, |s| s.p50_us as f64),
            "count",
        );
        for name in ["sched.gangs", "sched.steals", "sched.executed"] {
            metrics.set(name, counter_delta(&before, &after, name), "count");
        }
        let noop = median(&noop_us);
        metrics.set("protocol.noop_rtt_us", noop, "us");
        let service = |name: &str| quantile(&tracer.micros_of(name), 0.5);
        metrics.set("client.point.service_p50_us", service("client.point"), "us");
        metrics.set("client.scan.service_p50_us", service("client.scan"), "us");
        metrics.set("load.lag_p50_us", quantile(&lag_us, 0.5), "us");
        metrics.set("load.lag_max_us", quantile(&lag_us, 1.0), "us");
        // In-process point engine on the run's own road endpoints.
        let mut engine = QueryEngine::new();
        for a in plan.iter().filter(|a| a.kind == Kind::Point).take(400) {
            let start = Instant::now();
            engine.point_query(&tenants.road, a.query.source, a.query.target);
            tracer.record(0, "server.point_engine", start, Instant::now(), None);
        }
        metrics.set(
            "server.point_engine_p50_us",
            quantile(&tracer.micros_of("server.point_engine"), 0.5),
            "us",
        );
        probes::codec_probes(tenants.road.num_vertices(), &mut tracer, &mut metrics)?;
        let snap = config.work_dir.join("road.snap");
        probes::snapshot_probe(&tenants.road, &snap, &mut tracer, &mut metrics)?;
        ledger(&after, &lat, &lag_us, noop, &mut metrics);
        metrics.set("load.knee_qps", knee(server.addr, &tenants, config)?, "q/s");
        crate::engine::layer_probe(Shape::Road, config, &mut tracer, &mut metrics)?;
        let pool = Pool::new(config.threads);
        probes::pool_probes(&pool, &mut tracer, &mut metrics);
        drop(pool);
        probes::executor_probes(config.threads, &mut tracer, &mut metrics);
        crate::engine::write_spans(&tracer, &config.span_path)?;
    }
    let points = plan.iter().filter(|a| a.kind == Kind::Point).count();
    let notes = format!(
        "{} rounds of 4 back-to-back scans then {POINTS_PER_ROUND} points at {RATE_QPS} q/s ({points} points) over {:.1} s; server and load thread on CPU {}; {} of {} keep-awake spinners in the idle class; road |V|={} |E|={} max weight {} delta={}; social |V|={} |E|={}",
        calib_ms.len(),
        duration_us as f64 / 1e6,
        server_cpu().map_or_else(|| "(not pinned)".to_string(), |c| c.to_string()),
        awake.running(),
        config.threads,
        tenants.road.num_vertices(),
        tenants.road.num_edges(),
        tenants.road.max_weight(),
        tenants.road_delta,
        tenants.social.num_vertices(),
        tenants.social.num_edges(),
    );
    drop(control);
    server.shutdown()?;
    Ok(Outcome {
        attempted,
        failed,
        wrong,
        metrics,
        notes,
    })
}

fn service_name(kind: Kind) -> &'static str {
    if kind == Kind::Point {
        "client.point"
    } else {
        "client.scan"
    }
}

fn span(
    index: usize,
    name: &'static str,
    start_us: u64,
    end_us: u64,
    parent: Option<usize>,
) -> crate::spans::Span {
    crate::spans::Span {
        query: index as u64,
        name,
        start_ns: start_us * 1_000,
        end_ns: end_us * 1_000,
        parent,
    }
}

/// Server phases of the road tenant from `StatsV2`.
fn server_layers(after: &StatsV2, metrics: &mut Metrics) {
    let get = |name: &str, f: fn(&priograph_serve::protocol::SeriesSummary) -> u64| {
        series(after, name).map_or(0.0, |s| f(s) as f64)
    };
    metrics.set(
        "server.point.queued_p99_us",
        get("graph.0.ppsp.queued", |s| s.p99_us),
        "us",
    );
    metrics.set(
        "server.scan.queued_p99_us",
        get("graph.0.sssp.queued", |s| s.p99_us),
        "us",
    );
    metrics.set(
        "server.point.executed_p50_us",
        get("graph.0.ppsp.executed", |s| s.p50_us),
        "us",
    );
    metrics.set(
        "server.scan.executed_p50_us",
        get("graph.0.sssp.executed", |s| s.p50_us),
        "us",
    );
    metrics.set(
        "server.scan.responded_p50_us",
        get("graph.0.sssp.responded", |s| s.p50_us),
        "us",
    );
}

/// End-to-end p50 minus the sum of its layers' p50s: the server's own
/// total and the wire floor, plus generator lag for points (scans run
/// closed-loop) and the reply codec for scans.
fn ledger(
    after: &StatsV2,
    lat: &[(Kind, bool, f64)],
    lag_us: &[f64],
    noop_us: f64,
    metrics: &mut Metrics,
) {
    let p50 = |want: &[Kind]| {
        let v: Vec<f64> = lat
            .iter()
            .filter(|x| want.contains(&x.0))
            .map(|x| x.2 * 1e3)
            .collect();
        quantile(&v, 0.5)
    };
    let total = |name: &str| series(after, name).map_or(0.0, |s| s.p50_us as f64);
    let lag = quantile(lag_us, 0.5);
    let codec = metrics.get("protocol.scan.encode_us").unwrap_or(0.0)
        + metrics.get("protocol.scan.decode_us").unwrap_or(0.0);
    metrics.set(
        "ledger.point.gap_us",
        p50(&[Kind::Point]) - lag - total("graph.0.ppsp.total") - noop_us,
        "us",
    );
    metrics.set(
        "ledger.scan.gap_us",
        p50(&[Kind::Fused, Kind::Lazy]) - total("graph.0.sssp.total") - noop_us - codec,
        "us",
    );
}

/// The highest rate of [`KNEE_RATES`] at which point p99 stays under
/// [`KNEE_P99_LIMIT_MS`] and the generator's lag stays under it too (a
/// growing backlog shows up as growing lag). Each step offers points alone
/// over `threads` connections: beside back-to-back scans on the server's
/// one worker, point p99 is the length of a scan, not a knee.
fn knee(addr: SocketAddr, t: &Tenants, config: &RunConfig) -> Result<f64, String> {
    let mut best = 0.0;
    for (i, &rate) in KNEE_RATES.iter().enumerate() {
        let step_seed = config.seed.wrapping_add(1 + i as u64);
        let plan = arrivals(t, rate, KNEE_STEP_S, step_seed);
        let done = drive(addr, &plan, config.threads);
        let mut points = Vec::new();
        let mut lag_ms = Vec::new();
        let mut failures = 0;
        for (d, _) in &done {
            let a = &plan[d.index];
            lag_ms.push(d.sent_us.saturating_sub(a.at_us) as f64 / 1e3);
            match d.answer {
                Answer::Distance(_) => points.push(d.done_us.saturating_sub(a.at_us) as f64 / 1e3),
                _ => failures += 1,
            }
        }
        let ok = failures == 0
            && quantile(&points, 0.99) <= KNEE_P99_LIMIT_MS
            && quantile(&lag_ms, 1.0) <= KNEE_P99_LIMIT_MS;
        if !ok {
            break;
        }
        best = rate;
    }
    Ok(best)
}

/// Compares every answer with the references; returns (attempted,
/// failed, wrong).
fn verify(
    t: &Tenants,
    plan: &[Arrival],
    done: &[(Done, Option<QuerySpans>)],
) -> Result<(u64, u64, u64), String> {
    let core = kcore_peel(&t.road);
    check_coreness(&t.road, &core).map_err(|e| format!("reference k-core: {e}"))?;
    let core_print = fingerprint(&core);
    let mut refs: HashMap<(GraphId, VertexId), Vec<i64>> = HashMap::new();
    let mut failed = 0u64;
    let mut wrong = 0u64;
    for (d, _) in done {
        let a = &plan[d.index];
        let q = &a.query;
        let right = match d.answer {
            Answer::Vector(got) if a.kind == Kind::KCore => got == core_print,
            Answer::Vector(_) | Answer::Distance(_) => {
                let graph = if q.graph == 0 { &t.road } else { &t.social };
                let dist = match refs.entry((q.graph, q.source)) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        let dist = dijkstra(graph, q.source);
                        check_shortest_paths(graph, q.source, &dist)
                            .map_err(|e| format!("reference SSSP: {e}"))?;
                        e.insert(dist)
                    }
                };
                match d.answer {
                    Answer::Vector(got) => a.kind != Kind::Point && got == fingerprint(dist),
                    Answer::Distance(got) => {
                        let want = dist[q.target as usize];
                        a.kind == Kind::Point && got == (want != UNREACHABLE).then_some(want)
                    }
                    _ => false,
                }
            }
            Answer::Busy | Answer::Remote(_) | Answer::Io | Answer::Wire => {
                failed += 1;
                continue;
            }
        };
        if !right {
            failed += 1;
            wrong += 1;
        }
    }
    Ok((done.len() as u64, failed, wrong))
}

#[cfg(test)]
mod tests {
    use super::*;
    use priograph_graph::gen::GraphGen;

    fn done(index: usize, answer: Answer) -> Finished {
        let done = Done {
            index,
            sent_us: 0,
            done_us: 1,
            answer,
        };
        (done, None)
    }

    #[test]
    fn verify_counts_each_wrong_answer_as_one_failure() {
        let road = GraphGen::road_grid(12, 12).seed(4).build();
        let t = Tenants {
            road_delta: 64,
            road_sources: pick_sources(&road, &mut Rng64::new(SOURCE_SEED)),
            social_id: 1,
            social: GraphGen::rmat(6, 4).seed(4).build(),
            road,
        };
        let source = t.road_sources[0];
        let target = local_trip(&t.road, source, &mut Rng64::new(3));
        let dist = dijkstra(&t.road, source);
        let core = kcore_peel(&t.road);
        let plan: Vec<Arrival> = [Kind::Point, Kind::Fused, Kind::Wbfs, Kind::KCore]
            .into_iter()
            .map(|kind| Arrival {
                at_us: 0,
                kind,
                query: if kind == Kind::Point {
                    point(0, source, target)
                } else {
                    scan(kind, &t, source)
                },
            })
            .collect();
        let mut raised = dist.clone();
        raised[target as usize] += 1;
        let mut raised_core = core.clone();
        raised_core[0] += 1;
        let right = || {
            vec![
                done(0, Answer::Distance(Some(dist[target as usize]))),
                done(1, Answer::Vector(fingerprint(&dist))),
                done(2, Answer::Vector(fingerprint(&dist))),
                done(3, Answer::Vector(fingerprint(&core))),
            ]
        };
        assert_eq!(verify(&t, &plan, &right()).unwrap(), (4, 0, 0));
        let wrong = [
            Answer::Distance(Some(dist[target as usize] + 1)),
            Answer::Vector(fingerprint(&raised)),
            Answer::Vector(fingerprint(&raised)),
            Answer::Vector(fingerprint(&raised_core)),
        ];
        for (i, answer) in wrong.into_iter().enumerate() {
            let mut answers = right();
            answers[i] = done(i, answer);
            assert_eq!(verify(&t, &plan, &answers).unwrap(), (4, 1, 1), "query {i}");
        }
        let mut answers = right();
        answers[1] = done(1, Answer::Busy);
        assert_eq!(verify(&t, &plan, &answers).unwrap(), (4, 1, 0));
    }
}
