//! The `analytics` workload: a closed loop of one client running
//! whole-fleet SSSP jobs (`engine::run_on_pool`), one at a time, on the
//! full-scale power-law graph.  Large frontiers make the scheduler's
//! push/pop/steal and the relaxation waste dominate; the job service is not
//! on this path.

use std::time::{Duration, Instant};

use smq_algos::engine::run_on_pool;
use smq_algos::sssp::{self, SsspWorkload};
use smq_core::rng::Pcg32;
use smq_core::Task;
use smq_graph::generators::{power_law, PowerLawParams};
use smq_graph::CsrGraph;
use smq_pool::{PoolConfig, WorkerPool};
use smq_scheduler::{HeapSmq, SmqConfig};
use smq_telemetry::TelemetryConfig;

use crate::cli::{Args, Inject, Size};
use crate::report::{self, median, percentile, windowed, EndToEnd, Layers, Outcome, WorkStats};
use crate::trace::Tracer;
use crate::watchdog::Watchdog;

const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Jobs per pool run before the measured window, so caches and the
/// workers' scheduler handles are warm.
const WARMUP_JOBS: usize = 2;
/// A job slower than this counts as failed.
const SLO: Duration = Duration::from_secs(2);
/// `capacity_per_s` is the median over windows of this length of the jobs
/// completed per second of client time, so a short disturbance from
/// outside the benchmark moves one window, not the result.
const CAPACITY_WINDOW_S: f64 = 2.0;

struct Sizing {
    nodes: u32,
    avg_degree: u32,
    /// Distinct sources drawn from the seed; jobs cycle through them.
    sources: usize,
    /// Jobs measured at least, however long that takes (p90 needs 10
    /// samples beyond it).
    min_jobs: usize,
}

fn sizing(size: Size) -> Sizing {
    match size {
        // The TWITTER-like graph of `smq_bench::graphs::standard_graphs(true, seed)`.
        Size::Full => Sizing {
            nodes: 120_000,
            avg_degree: 24,
            sources: 8,
            min_jobs: 100,
        },
        Size::Tiny => Sizing {
            nodes: 2_000,
            avg_degree: 8,
            sources: 2,
            min_jobs: 6,
        },
    }
}

struct Setup {
    graph: CsrGraph,
    pool: WorkerPool,
    /// Telemetry-enabled twin of `pool`, traced runs only.
    traced: Option<WorkerPool>,
    graph_s: f64,
    total_s: f64,
}

fn set_up(sizing: &Sizing, seed: u64, trace: bool) -> Setup {
    let start = Instant::now();
    let graph = power_law(PowerLawParams {
        nodes: sizing.nodes,
        avg_degree: sizing.avg_degree,
        exponent: 2.1,
        max_weight: 255,
        seed: seed ^ 0x22,
    });
    let graph_s = start.elapsed().as_secs_f64();
    let spawn = |telemetry| {
        WorkerPool::new(
            HeapSmq::<Task>::new(SmqConfig::default_for_threads(WORKERS).with_seed(seed)),
            PoolConfig::new(WORKERS).with_telemetry(telemetry),
        )
    };
    let pool = spawn(TelemetryConfig::disabled());
    let traced = trace.then(|| spawn(TelemetryConfig::enabled()));
    Setup {
        graph,
        pool,
        traced,
        graph_s,
        total_s: start.elapsed().as_secs_f64(),
    }
}

pub fn run(args: &Args, wd: &Watchdog) -> Outcome {
    let sizing = sizing(args.size);
    let mut setup_s = Vec::new();
    let mut graph_s = Vec::new();
    let mut setup = None;
    for i in 0..SETUPS {
        drop(setup.take()); // join the previous fleet and free its graph first
        let st = wd.watch("setup", i as u64, || set_up(&sizing, args.seed, args.trace));
        setup_s.push(st.total_s);
        graph_s.push(st.graph_s);
        setup = Some(st);
    }
    let st = setup.expect("at least one set-up");

    let mut rng = Pcg32::new(args.seed ^ 0xA11C);
    let references: Vec<(u32, Vec<u64>, u64)> = (0..sizing.sources)
        .map(|i| {
            let source = rng.next_bounded(st.graph.num_nodes()) as u32;
            let (dist, settled) = wd.watch("reference", i as u64, || {
                sssp::sequential(&st.graph, source)
            });
            (source, dist, settled)
        })
        .collect();

    for k in 0..WARMUP_JOBS {
        let (source, ..) = &references[k % references.len()];
        for pool in std::iter::once(&st.pool).chain(&st.traced) {
            wd.watch("warmup_job", k as u64, || {
                run_on_pool(&SsspWorkload::new(&st.graph, *source), pool)
            });
        }
    }

    let mut tracer = Tracer::new(args.trace);
    let mut corrupt = args.inject == Inject::Corrupt;
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    // Per side — index 0 the plain pool, 1 the traced pool (traced runs
    // alternate jobs between them) — (seconds into the window when the
    // job ended, latency in ms).
    let mut latency_ms: [Vec<(f64, f64)>; 2] = [Vec::new(), Vec::new()];
    let mut work = [WorkStats::default(), WorkStats::default()];
    let mut baseline = [0u64; 2];
    let mut pool_overhead_us = Vec::new();
    let window = Duration::from_secs(args.seconds);
    let host_start = report::host_cpu();
    let window_start = Instant::now();
    let mut k = 0usize;
    while k < sizing.min_jobs || window_start.elapsed() < window {
        let (source, reference, settled) = &references[k % references.len()];
        let side = usize::from(args.trace && k % 2 == 1);
        let pool = match side {
            0 => &st.pool,
            _ => st.traced.as_ref().expect("traced runs spawn a traced pool"),
        };
        let request = k as u64;
        let token = wd.begin("sssp_job", request);
        let t0 = Instant::now();
        let workload = SsspWorkload::new(&st.graph, *source);
        let t_call = Instant::now();
        let run = run_on_pool(&workload, pool);
        let t1 = Instant::now();
        wd.end(token);
        drop(workload);

        let mut output = run.output;
        if std::mem::take(&mut corrupt) {
            output[*source as usize] ^= 1;
        }
        let is_wrong = output != *reference;
        attempted += 1;
        wrong += u64::from(is_wrong);
        failed += u64::from(is_wrong || t1 - t0 > SLO);
        latency_ms[side].push((
            (t1 - window_start).as_secs_f64(),
            (t1 - t0).as_secs_f64() * 1e3,
        ));
        work[side].add(&run.result);
        baseline[side] += settled;
        if side == 1 {
            let elapsed = run.result.metrics.elapsed;
            pool_overhead_us.push((t1 - t_call).saturating_sub(elapsed).as_secs_f64() * 1e6);
            let root = tracer.span("analytics.job", t0, t1, None, request);
            tracer.span("algos.engine.new_workload", t0, t_call, root, request);
            let call = tracer.span("pool.run_on_pool", t_call, t1, root, request);
            tracer.work_loop(call, elapsed, request);
            if let Some(telemetry) = &run.result.metrics.telemetry {
                tracer.add_phases(&telemetry.phases);
            }
        }
        k += 1;
    }
    let wall_s = window_start.elapsed().as_secs_f64();
    let steal = report::steal_note(host_start);

    let mut notes = vec![
        format!(
            "graph: power-law {} nodes, {} edges; {} sources; {} jobs in {:.2} s",
            st.graph.num_nodes(),
            st.graph.num_edges(),
            references.len(),
            k,
            wall_s
        ),
        format!(
            "latency_tail_ms is p90 of job latency; capacity_per_s: median over {CAPACITY_WINDOW_S} s \
             windows of jobs per second of one closed-loop client"
        ),
        steal,
    ];
    let values = latency_ms
        .each_ref()
        .map(|side| side.iter().map(|&(_, v)| v).collect::<Vec<_>>());
    let metrics = if args.trace {
        let mut layers = Layers::default();
        work[1].fill(&mut layers);
        let stats = st.traced.as_ref().expect("traced pool").stats();
        layers.pool_overhead_us_p50 = median(&pool_overhead_us);
        layers.pool_threads_spawned = stats.threads_spawned as f64;
        layers.pool_handles_created = stats.handles_created as f64;
        layers.graph_build_s = median(&graph_s);
        layers.trace_overhead_frac = median(&values[1]) / median(&values[0]) - 1.0;
        notes.push(tracer.table());
        crate::write_trace(&tracer, args);
        layers.metrics()
    } else {
        EndToEnd {
            setup_s: median(&setup_s),
            peak_rss_mb: report::peak_rss_mb(),
            latency_p50_ms: median(&values[0]),
            latency_tail_ms: percentile(&values[0], 0.90),
            work_ratio: work[0].tasks() as f64 / baseline[0] as f64,
            capacity_per_s: windowed(&latency_ms[0], CAPACITY_WINDOW_S, 1, |w| {
                1e3 * w.len() as f64 / w.iter().sum::<f64>()
            }),
        }
        .metrics()
    };
    Outcome {
        attempted,
        failed,
        wrong,
        metrics,
        notes,
    }
}
