//! The `route` and `live` workloads: point-to-point A* queries sent through
//! a `JobService` on 2 gangs of 1 worker, over a 60x60 road grid.
//!
//! `route` serves the frozen grid.  Queries are small (about 10^3 tasks),
//! so service queueing, worker wake/park, termination scans and the query
//! engine's lane/epoch set-up are a large share of latency while the
//! scheduler does little.  `live` serves the same query stream from a
//! `LiveGraph` of the grid while one writer thread publishes 16-edge
//! slowdown batches, so publishes, overlay reads and compaction run beside
//! the reads; every answer is checked on the version it was served from.
//!
//! Each run has two phases.  A closed loop of two clients gives the
//! capacity.  Then one load thread sends queries open-loop (Poisson
//! arrivals at a fixed offered rate), times each from when it was due, and
//! collects results with `try_wait`; in `live` the writer is the second
//! load thread and runs during this phase.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smq_algos::query::RouteAnswer;
use smq_algos::{astar, RouteQueryEngine};
use smq_core::rng::Pcg32;
use smq_core::Task;
use smq_graph::generators::{road_network, RoadNetworkParams};
use smq_graph::{CsrGraph, GraphSnapshot, GraphSource, GraphUpdate, LiveGraph};
use smq_pool::{JobService, JobTicket, PoolConfig, ServiceConfig, SubmitError, WorkerPool};
use smq_scheduler::{HeapSmq, SmqConfig};
use smq_telemetry::TelemetryConfig;

use crate::cli::{Args, Inject, Size, Workload};
use crate::report::{
    self, median, percentile, ratio, windowed, EndToEnd, Layers, Outcome, WorkStats,
};
use crate::trace::Tracer;
use crate::watchdog::Watchdog;

const GANGS: usize = 2;
const GANG_SIZE: usize = 1;
const QUEUE_CAPACITY: usize = 256;
/// A query slower than this (from when it was due) counts as failed.
const SLO: Duration = Duration::from_millis(250);
/// Closed-loop clients of the capacity phase, and the queries each keeps
/// outstanding.
const CLIENTS: usize = 2;
const PIPELINE: usize = 4;
/// Share of the run given to the capacity phase; the open loop gets the rest.
const CAPACITY_SHARE: f64 = 0.25;
/// The capacity phase is measured in blocks of this length and reports
/// the median block, so a short disturbance from outside the benchmark
/// moves one block, not the result.  Traced runs alternate the blocks
/// between the plain and the traced service; the capacity ratio is the
/// tracing overhead.
const CAPACITY_BLOCK: Duration = Duration::from_millis(500);
/// Open-loop latency percentiles are taken per window of this length, and
/// the median window is reported (same reason as `CAPACITY_BLOCK`).
const LATENCY_WINDOW: Duration = Duration::from_secs(1);
/// Queries sent to each service before anything is measured.
const WARMUP_QUERIES: usize = 64;
/// How long the open-loop thread sleeps at most between result polls.
const POLL: Duration = Duration::from_millis(1);
/// The open-loop thread stops sleeping this long before a query is due and
/// yields until then: a sleep overshoots by ~70 us, which would otherwise
/// be a fifth of the median latency it is measuring.
const GENERATOR_SPIN: Duration = Duration::from_micros(250);
const UPDATE_BATCH: usize = 16;
/// Batches a `live` set-up publishes before the graph is served.
/// Slowdowns accumulate (about 90% of the grid's edges are slowed after
/// this many), so without them query cost would climb through the run as
/// the A* heuristic weakens; with them the measured phases see a graph in
/// its steady state.
const PREFILL_BATCHES: u64 = 2000;
/// Open-loop offered rates, each a third of the capacity its workload
/// measured (`capacity_per_s` on a 2-vCPU x86-64 VM read 7,000 to 11,000
/// q/s on `route` and 3,300 to 5,000 q/s on `live`, where the slowed edges
/// weaken the A* heuristic; the rates are a third of the lower figures).
/// At a third of capacity one query in six finds both gangs busy (Erlang C
/// for 2 servers at 2/3 Erlang), more than the one in ten beyond the gated
/// p90, so queue wait shows in it; at half load the `route` p50 and p90
/// spread 0.16 and 0.22 across runs, against 0.07 at a third.  They are
/// constants so every commit is offered the same traffic.
const ROUTE_OFFERED_QPS: f64 = 2400.0;
const LIVE_OFFERED_QPS: f64 = 1100.0;

struct Sizing {
    grid: u32,
    /// Distinct (source, target) pairs drawn from the seed.
    pairs: usize,
    offered_qps: f64,
    publishes_per_s: f64,
    /// Open-loop queries sent at least.
    min_queries: u64,
    /// Samples a latency window needs to count (its p99 needs 10 beyond it).
    min_window: usize,
}

fn sizing(size: Size, workload: Workload) -> Sizing {
    match size {
        Size::Full => Sizing {
            grid: 60,
            pairs: 2048,
            offered_qps: match workload {
                Workload::Live => LIVE_OFFERED_QPS,
                _ => ROUTE_OFFERED_QPS,
            },
            publishes_per_s: 100.0,
            min_queries: 1000,
            min_window: 1000,
        },
        Size::Tiny => Sizing {
            grid: 12,
            pairs: 32,
            offered_qps: 200.0,
            publishes_per_s: 50.0,
            min_queries: 20,
            min_window: 20,
        },
    }
}

/// A graph source the service can answer queries from.
trait Served: GraphSource + Send + Sync + 'static {
    /// Set-ups per run; `setup_s` is their median.
    const SETUPS: usize;
    /// The graph to serve over `base`, in the state it is served in.
    fn serve(base: Arc<CsrGraph>, seed: u64) -> Arc<Self>;
    /// The version a query was served from and its overlay size, for a
    /// graph that changes under the query; `None` when the precomputed
    /// reference applies.
    fn served_version(view: &Self::View<'_>) -> Option<(u64, usize)>;
    fn live(&self) -> Option<&LiveGraph>;
}

impl Served for CsrGraph {
    const SETUPS: usize = 51;

    fn serve(base: Arc<CsrGraph>, _seed: u64) -> Arc<Self> {
        base
    }

    fn served_version(_view: &&CsrGraph) -> Option<(u64, usize)> {
        None
    }

    fn live(&self) -> Option<&LiveGraph> {
        None
    }
}

impl Served for LiveGraph {
    /// A set-up includes the prefill (about 0.35 s), so fewer are needed to
    /// sample the host over a few seconds.
    const SETUPS: usize = 5;

    fn serve(base: Arc<CsrGraph>, seed: u64) -> Arc<Self> {
        let live = LiveGraph::new(Arc::clone(&base));
        publish_up_to(&live, &base, seed, PREFILL_BATCHES + 1);
        Arc::new(live)
    }

    fn served_version(view: &GraphSnapshot) -> Option<(u64, usize)> {
        Some((view.version(), view.overlay_edges()))
    }

    fn live(&self) -> Option<&LiveGraph> {
        Some(self)
    }
}

struct Stack<G: Served> {
    engine: Arc<RouteQueryEngine<G>>,
    service: JobService,
}

fn stack<G: Served>(graph: &Arc<G>, seed: u64, telemetry: TelemetryConfig) -> Stack<G> {
    let pool = WorkerPool::new_partitioned(
        move |g| {
            HeapSmq::<Task>::new(
                SmqConfig::default_for_threads(GANG_SIZE).with_seed(seed + g as u64),
            )
        },
        PoolConfig::partitioned(GANGS, GANG_SIZE).with_telemetry(telemetry),
    );
    Stack {
        engine: Arc::new(RouteQueryEngine::with_lanes(Arc::clone(graph), GANGS)),
        service: JobService::new(
            pool,
            ServiceConfig {
                queue_capacity: QUEUE_CAPACITY,
                dispatchers: 0,
            },
        ),
    }
}

struct Setup<G: Served> {
    base: Arc<CsrGraph>,
    graph: Arc<G>,
    plain: Stack<G>,
    /// Telemetry-enabled twin of `plain`, traced runs only.
    traced: Option<Stack<G>>,
    /// Grid build, plus the prefill on `live`.
    graph_s: f64,
    total_s: f64,
}

fn set_up<G: Served>(grid: u32, seed: u64, trace: bool) -> Setup<G> {
    let start = Instant::now();
    let base = Arc::new(road_network(RoadNetworkParams {
        width: grid,
        height: grid,
        removal_percent: 10,
        seed,
    }));
    let graph = G::serve(Arc::clone(&base), seed);
    let graph_s = start.elapsed().as_secs_f64();
    let plain = stack(&graph, seed, TelemetryConfig::disabled());
    let traced = trace.then(|| stack(&graph, seed, TelemetryConfig::enabled()));
    Setup {
        base,
        graph,
        plain,
        traced,
        graph_s,
        total_s: start.elapsed().as_secs_f64(),
    }
}

/// What a query job hands back: the answer, the live version it was served
/// from (with that version's overlay size), and when the job closure
/// started and finished on its dispatcher.  The pinned view is released
/// inside the job, so the benchmark holds no graph version.
///
/// `finished` is the last instant the benchmark can see on the serving
/// side.  The service's hand-off after the closure returns (storing the
/// result in the ticket and notifying it) is not part of the measured
/// latency: the load thread polls with `try_wait` between arrivals, so the
/// instant it sees the result would add its polling gap instead.
struct Reply {
    answer: RouteAnswer,
    version: Option<(u64, usize)>,
    started: Instant,
    finished: Instant,
}

fn query_job<G: Served>(
    engine: &Arc<RouteQueryEngine<G>>,
    (source, target): (u32, u32),
) -> impl FnOnce(&WorkerPool) -> Reply + Send + 'static {
    let engine = Arc::clone(engine);
    move |pool| {
        let started = Instant::now();
        let (answer, view) = engine.query_pinned(source, target, pool);
        let version = G::served_version(&view);
        drop(view);
        Reply {
            answer,
            version,
            started,
            finished: Instant::now(),
        }
    }
}

/// Publishes the seeded slowdown batches that take `live` to `version`.
/// Version `v` is the base plus batches `0..v-1`, so a fresh `LiveGraph`
/// over the same base replays any version the served one published.
fn publish_up_to(live: &LiveGraph, base: &CsrGraph, seed: u64, version: u64) {
    while live.current_version() < version {
        live.publish(&slowdowns(base, seed, live.current_version() - 1));
    }
}

/// A live answer, checked after the run on a replay of its version.
struct Deferred {
    pair: usize,
    version: u64,
    distance: u64,
    slow: bool,
}

/// Counts operations and checks answers.  Static-graph answers are
/// compared with precomputed sequential A*; live answers are checked with
/// sequential A* on their version once the measured phases are over, so
/// the check does not compete with the service for the two cores.
struct Checker<'a> {
    pairs: &'a [(u32, u32)],
    references: &'a [(u64, u64)],
    corrupt: bool,
    attempted: u64,
    failed: u64,
    wrong: u64,
    tasks: u64,
    baseline: u64,
    deferred: Vec<Deferred>,
}

impl<'a> Checker<'a> {
    fn new(pairs: &'a [(u32, u32)], references: &'a [(u64, u64)]) -> Self {
        Checker {
            pairs,
            references,
            corrupt: false,
            attempted: 0,
            failed: 0,
            wrong: 0,
            tasks: 0,
            baseline: 0,
            deferred: Vec::new(),
        }
    }

    /// A submission refused, or a job that ended in a `JobError`.
    fn not_served(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    fn answer(&mut self, pair: usize, reply: Reply, slow: bool) {
        self.attempted += 1;
        self.tasks += reply.answer.result.total_tasks();
        let mut distance = reply.answer.distance;
        if std::mem::take(&mut self.corrupt) {
            distance ^= 1;
        }
        match reply.version {
            None => {
                let (expected, expanded) = self.references[pair];
                self.verdict(distance != expected, slow, expanded);
            }
            Some((version, _)) => self.deferred.push(Deferred {
                pair,
                version,
                distance,
                slow,
            }),
        }
    }

    fn verdict(&mut self, wrong: bool, slow: bool, expanded: u64) {
        self.wrong += u64::from(wrong);
        self.failed += u64::from(wrong || slow);
        self.baseline += expanded;
    }

    /// Checks every deferred answer of `served` with sequential A* on its
    /// version, rebuilt by replaying the seeded batches on a fresh
    /// `LiveGraph` over `base`.  Replayed version `v` holds what served
    /// version `v` held, so a served snapshot whose contents went wrong
    /// shows as a wrong answer.  An answer claiming a version that was
    /// never published is wrong.
    fn settle(&mut self, served: &LiveGraph, base: &Arc<CsrGraph>, seed: u64, wd: &Watchdog) {
        let mut deferred = std::mem::take(&mut self.deferred);
        deferred.sort_by_key(|d| d.version);
        let replay = LiveGraph::new(Arc::clone(base));
        let mut snapshot = replay.pin();
        for (i, d) in deferred.into_iter().enumerate() {
            if !(1..=served.current_version()).contains(&d.version) {
                self.verdict(true, d.slow, 0);
                continue;
            }
            if snapshot.version() != d.version {
                wd.watch("replay", d.version, || {
                    publish_up_to(&replay, base, seed, d.version)
                });
                snapshot = replay.pin();
            }
            let (source, target) = self.pairs[d.pair];
            let (expected, expanded) = wd.watch("check", i as u64, || {
                astar::sequential(&snapshot, source, target)
            });
            self.verdict(d.distance != expected, d.slow, expanded);
        }
    }

    fn absorb(&mut self, other: Checker<'_>) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.tasks += other.tasks;
        self.baseline += other.baseline;
        self.deferred.extend(other.deferred);
    }
}

/// The capacity phase: `CLIENTS` threads each keep `PIPELINE` queries
/// outstanding, waiting for the oldest before sending the next, so the
/// service queue stays non-empty and the phase measures what the service
/// can serve rather than how fast a client wakes up.  The phase is cut
/// into `CAPACITY_BLOCK`s; with several stacks the blocks alternate
/// between them.  Returns, per stack, the median over its whole blocks of
/// the queries per second submitted in the block and served.
fn closed_loop<G: Served>(
    stacks: &[&Stack<G>],
    checker: &mut Checker<'_>,
    duration: Duration,
    seed: u64,
    wd: &Watchdog,
) -> Vec<f64> {
    let pairs = checker.pairs;
    let references = checker.references;
    let blocks = (duration.as_secs_f64() / CAPACITY_BLOCK.as_secs_f64()) as usize;
    let start = Instant::now();
    let results: Vec<(Checker<'_>, Vec<u64>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut mine = Checker::new(pairs, references);
                    let mut served = vec![0u64; blocks + 1];
                    let mut rng = Pcg32::with_stream(seed ^ 0xC105ED, client as u64);
                    let mut pipeline = VecDeque::new();
                    let mut id = 0u64;
                    loop {
                        let at = start.elapsed();
                        if at < duration && pipeline.len() < PIPELINE {
                            let block =
                                ((at.as_nanos() / CAPACITY_BLOCK.as_nanos()) as usize).min(blocks);
                            let stack = stacks[block % stacks.len()];
                            let pair = rng.next_bounded(pairs.len());
                            let sent = Instant::now();
                            match stack.service.submit(query_job(&stack.engine, pairs[pair])) {
                                Ok(ticket) => {
                                    let token = wd.begin("closed_loop_query", id);
                                    pipeline.push_back((ticket, pair, sent, block, token));
                                }
                                Err(_) => mine.not_served(),
                            }
                            id += 1;
                            continue;
                        }
                        let Some((ticket, pair, sent, block, token)) = pipeline.pop_front() else {
                            break;
                        };
                        let outcome = ticket.wait();
                        wd.end(token);
                        match outcome {
                            Ok(completion) => {
                                let reply = completion.output;
                                let slow = reply.finished - sent > SLO;
                                mine.answer(pair, reply, slow);
                                served[block] += 1;
                            }
                            Err(_) => mine.not_served(),
                        }
                    }
                    (mine, served)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut served = vec![0u64; blocks + 1];
    for (mine, counts) in results {
        checker.absorb(mine);
        for (total, n) in served.iter_mut().zip(counts) {
            *total += n;
        }
    }
    (0..stacks.len())
        .map(|side| {
            let rates: Vec<f64> = (side..blocks)
                .step_by(stacks.len())
                .map(|b| served[b] as f64 / CAPACITY_BLOCK.as_secs_f64())
                .collect();
            median(&rates)
        })
        .collect()
}

#[derive(Default)]
struct OpenLoop {
    /// (seconds from the phase start to when the query was due, latency in ms)
    latency_ms: Vec<(f64, f64)>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    query_overhead_us: Vec<f64>,
    work: WorkStats,
    overlay_edges: u64,
    views: u64,
}

struct InFlight {
    id: u64,
    pair: usize,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    ticket: JobTicket<Reply>,
    token: u64,
}

/// The open-loop phase, on the calling thread: Poisson arrivals at the
/// offered rate for `duration` (and at least `min_queries`), then a drain
/// of the queries still in flight.
#[allow(clippy::too_many_arguments)]
fn open_loop<G: Served>(
    stack: &Stack<G>,
    sizing: &Sizing,
    duration: Duration,
    seed: u64,
    refuse_first: bool,
    checker: &mut Checker<'_>,
    tracer: &mut Tracer,
    wd: &Watchdog,
) -> OpenLoop {
    let pairs = checker.pairs;
    let mut stats = OpenLoop::default();
    let mut rng = Pcg32::new(seed ^ 0x0BE1);
    let gap =
        |rng: &mut Pcg32| Duration::from_secs_f64(rng.next_exponential(1.0 / sizing.offered_qps));
    let start = Instant::now();
    let mut next_due = start + gap(&mut rng);
    let mut refuse = refuse_first;
    let mut inflight: Vec<InFlight> = Vec::new();
    let mut id = 0u64;
    loop {
        let generating = next_due - start < duration || id < sizing.min_queries;
        if generating && next_due <= Instant::now() {
            let pair = rng.next_bounded(pairs.len());
            let submit_start = Instant::now();
            let submitted = if std::mem::take(&mut refuse) {
                Err(SubmitError::QueueFull)
            } else {
                stack
                    .service
                    .try_submit(query_job(&stack.engine, pairs[pair]))
            };
            let submit_end = Instant::now();
            stats.late_ms.push(ms(submit_start - next_due));
            stats.submit_us.push(ms(submit_end - submit_start) * 1e3);
            match submitted {
                Ok(ticket) => inflight.push(InFlight {
                    id,
                    pair,
                    due: next_due,
                    submit_start,
                    submit_end,
                    ticket,
                    token: wd.begin("open_loop_query", id),
                }),
                Err(_) => checker.not_served(),
            }
            id += 1;
            next_due += gap(&mut rng);
            continue;
        }
        let mut i = 0;
        while i < inflight.len() {
            let Some(outcome) = inflight[i].ticket.try_wait() else {
                i += 1;
                continue;
            };
            let f = inflight.swap_remove(i);
            wd.end(f.token);
            let Ok(completion) = outcome else {
                checker.not_served();
                continue;
            };
            let reply = completion.output;
            let latency = reply.finished - f.due;
            let result = &reply.answer.result;
            let elapsed = result.metrics.elapsed;
            stats
                .latency_ms
                .push(((f.due - start).as_secs_f64(), ms(latency)));
            stats.queue_wait_ms.push(ms(completion.queue_wait));
            stats
                .query_overhead_us
                .push(ms((reply.finished - reply.started).saturating_sub(elapsed)) * 1e3);
            stats.work.add(result);
            if let Some((_, overlay_edges)) = reply.version {
                stats.overlay_edges += overlay_edges as u64;
                stats.views += 1;
            }
            let root = tracer.span("request", f.due, reply.finished, None, f.id);
            tracer.span("load.late", f.due, f.submit_start, root, f.id);
            tracer.span(
                "pool.service.submit",
                f.submit_start,
                f.submit_end,
                root,
                f.id,
            );
            tracer.span(
                "pool.service.queue",
                f.submit_end,
                reply.started,
                root,
                f.id,
            );
            let query = tracer.span(
                "algos.query.query_pinned",
                reply.started,
                reply.finished,
                root,
                f.id,
            );
            tracer.work_loop(query, elapsed, f.id);
            if let Some(telemetry) = &result.metrics.telemetry {
                tracer.add_phases(&telemetry.phases);
            }
            checker.answer(f.pair, reply, latency > SLO);
        }
        if !generating && inflight.is_empty() {
            return stats;
        }
        let now = Instant::now();
        let wake = if generating {
            next_due.max(now)
        } else {
            now + POLL
        };
        let wait = (wake - now).min(POLL);
        if wait > GENERATOR_SPIN {
            std::thread::sleep(wait - GENERATOR_SPIN);
        } else if !wait.is_zero() {
            std::thread::yield_now();
        }
    }
}

fn slowdowns(base: &CsrGraph, seed: u64, round: u64) -> Vec<GraphUpdate> {
    GraphUpdate::random_slowdowns(
        base,
        UPDATE_BATCH,
        seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        8,
    )
}

/// The writer thread of `live`: publishes the next seeded slowdown batch
/// every `1 / publishes_per_s` seconds (absolute schedule) until `stop`.
/// Slowdowns are derived from the base weights, so every version keeps
/// the A* heuristic admissible.  Returns each publish's duration in ms.
fn writer(
    live: &LiveGraph,
    base: &CsrGraph,
    publishes_per_s: f64,
    seed: u64,
    stop: &AtomicBool,
    tracer: &mut Tracer,
    wd: &Watchdog,
) -> Vec<f64> {
    let interval = Duration::from_secs_f64(1.0 / publishes_per_s);
    let start = Instant::now();
    let mut publish_ms = Vec::new();
    let mut round = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let updates = slowdowns(base, seed, live.current_version() - 1);
        let token = wd.begin("publish", round);
        let t0 = Instant::now();
        live.publish(&updates);
        let t1 = Instant::now();
        wd.end(token);
        publish_ms.push(ms(t1 - t0));
        tracer.span("graph.publish", t0, t1, None, round);
        round += 1;
        let deadline = start + interval.mul_f64(round as f64);
        while !stop.load(Ordering::SeqCst) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep((deadline - now).min(Duration::from_millis(2)));
        }
    }
    publish_ms
}

pub fn run(args: &Args, wd: &Watchdog) -> Outcome {
    match args.workload {
        Workload::Live => run_on::<LiveGraph>(args, wd),
        _ => run_on::<CsrGraph>(args, wd),
    }
}

fn run_on<G: Served>(args: &Args, wd: &Watchdog) -> Outcome {
    let sizing = sizing(args.size, args.workload);
    let seed = args.seed;
    let mut setup_s = Vec::new();
    let mut graph_s = Vec::new();
    let mut setup = None;
    for i in 0..G::SETUPS {
        drop(setup.take()); // shut the previous service down first
        let st = wd.watch("setup", i as u64, || {
            set_up::<G>(sizing.grid, seed, args.trace)
        });
        setup_s.push(st.total_s);
        graph_s.push(st.graph_s);
        setup = Some(st);
    }
    let st = setup.expect("at least one set-up");

    let nodes = st.base.num_nodes();
    let mut rng = Pcg32::new(seed ^ 0x51);
    let pairs: Vec<(u32, u32)> = (0..sizing.pairs)
        .map(|_| {
            let source = rng.next_bounded(nodes) as u32;
            let target = (source as usize + 1 + rng.next_bounded(nodes - 1)) % nodes;
            (source, target as u32)
        })
        .collect();
    let references: Vec<(u64, u64)> = match st.graph.live() {
        Some(_) => Vec::new(),
        None => pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, t))| {
                wd.watch("reference", i as u64, || astar::sequential(&*st.base, s, t))
            })
            .collect(),
    };
    let stacks: Vec<&Stack<G>> = std::iter::once(&st.plain).chain(&st.traced).collect();
    for stack in &stacks {
        for (i, &pair) in pairs.iter().take(WARMUP_QUERIES).enumerate() {
            // Warm-up outcomes are not measured; the phases below count
            // every refusal or failure.
            let _ = wd.watch("warmup_query", i as u64, || {
                let ticket = stack.service.submit(query_job(&stack.engine, pair));
                ticket.map(JobTicket::wait)
            });
        }
    }

    let mut checker = Checker::new(&pairs, &references);
    let total = Duration::from_secs(args.seconds);
    let capacity_phase = total.mul_f64(CAPACITY_SHARE);
    let host_start = report::host_cpu();
    let capacity = closed_loop(&stacks, &mut checker, capacity_phase, seed, wd);

    let served = *stacks.last().expect("at least the plain stack");
    let mut tracer = Tracer::new(args.trace);
    checker.corrupt = args.inject == Inject::Corrupt;
    let stop = AtomicBool::new(false);
    let (open, publish_ms) = std::thread::scope(|scope| {
        let writer = st.graph.live().map(|live| {
            let (stop, base) = (&stop, &*st.base);
            scope.spawn(move || {
                let mut tracer = Tracer::new(args.trace);
                let publish_ms = writer(
                    live,
                    base,
                    sizing.publishes_per_s,
                    seed,
                    stop,
                    &mut tracer,
                    wd,
                );
                (publish_ms, tracer)
            })
        });
        let open = open_loop(
            served,
            &sizing,
            total - capacity_phase,
            seed,
            args.inject == Inject::Refuse,
            &mut checker,
            &mut tracer,
            wd,
        );
        stop.store(true, Ordering::SeqCst);
        let publish_ms = writer.map_or_else(Vec::new, |w| {
            let (publish_ms, writer_tracer) = w.join().expect("writer thread panicked");
            tracer.absorb(writer_tracer);
            publish_ms
        });
        (open, publish_ms)
    });
    let steal = report::steal_note(host_start);
    // Before the live check, which builds versions of its own.
    let peak_rss_mb = report::peak_rss_mb();
    if let Some(live) = st.graph.live() {
        checker.settle(live, &st.base, seed, wd);
    }

    let window = LATENCY_WINDOW.as_secs_f64();
    let mut notes = vec![
        format!(
            "grid {0}x{0}: {1} nodes, {2} edges; {3} open-loop queries offered at {4} q/s",
            sizing.grid,
            nodes,
            st.base.num_edges(),
            open.late_ms.len(),
            sizing.offered_qps
        ),
        format!(
            "load generator lateness p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms",
            median(&open.late_ms),
            percentile(&open.late_ms, 0.9),
            percentile(&open.late_ms, 0.99)
        ),
        format!(
            "latency_p50_ms / latency_tail_ms: median over {window:.1} s windows of open-loop p50 / p90; \
             capacity_per_s: median over {:.1} s blocks of 2 closed-loop clients with {} queries outstanding each",
            CAPACITY_BLOCK.as_secs_f64(),
            PIPELINE
        ),
        format!(
            "latency_p99_ms (not gated) = {} ms, median over {window:.1} s windows",
            windowed(&open.latency_ms, window, sizing.min_window, |w| percentile(w, 0.99))
        ),
        steal,
    ];
    if let Some(live) = st.graph.live() {
        notes.push(format!(
            "publish_p99_ms = {} ms over {} publishes; {} versions, {} compactions",
            percentile(&publish_ms, 0.99),
            publish_ms.len(),
            live.versions_published(),
            live.compactions()
        ));
    }
    let metrics = if args.trace {
        let mut layers = Layers::default();
        open.work.fill(&mut layers);
        let service = served.service.stats();
        let pool = served.service.pool_stats();
        layers.pool_threads_spawned = pool.threads_spawned as f64;
        layers.pool_handles_created = pool.handles_created as f64;
        layers.query_overhead_us_p50 = median(&open.query_overhead_us);
        layers.query_overhead_us_p99 = percentile(&open.query_overhead_us, 0.99);
        layers.service_queue_wait_ms_p50 = median(&open.queue_wait_ms);
        layers.service_queue_wait_ms_p99 = percentile(&open.queue_wait_ms, 0.99);
        layers.service_submit_us_p99 = percentile(&open.submit_us, 0.99);
        layers.service_rejected = service.rejected as f64;
        layers.service_failed = service.failed as f64;
        layers.service_cancelled = service.cancelled as f64;
        layers.graph_build_s = median(&graph_s);
        layers.graph_publish_ms_p50 = median(&publish_ms);
        layers.graph_publish_ms_p99 = percentile(&publish_ms, 0.99);
        layers.graph_compactions = st.graph.live().map_or(0, LiveGraph::compactions) as f64;
        layers.graph_overlay_edges_mean = ratio(open.overlay_edges as f64, open.views as f64);
        layers.trace_overhead_frac = capacity[0] / capacity[1] - 1.0;
        notes.push(tracer.table());
        crate::write_trace(&tracer, args);
        layers.metrics()
    } else {
        EndToEnd {
            setup_s: median(&setup_s),
            peak_rss_mb,
            latency_p50_ms: windowed(&open.latency_ms, window, sizing.min_window, median),
            latency_tail_ms: windowed(&open.latency_ms, window, sizing.min_window, |w| {
                percentile(w, 0.90)
            }),
            work_ratio: checker.tasks as f64 / checker.baseline as f64,
            capacity_per_s: capacity[0],
        }
        .metrics()
    };
    Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        wrong: checker.wrong,
        metrics,
        notes,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
