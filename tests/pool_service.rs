//! Integration tests for the resident worker pool and job service.
//!
//! The central claims under test:
//!
//! * **Reuse is invisible** — N sequential jobs on one `WorkerPool` produce
//!   results identical to N fresh one-shot `run_parallel` runs, with
//!   per-job `pushes == pops` (termination generations keep job accounting
//!   from leaking across jobs);
//! * **Workers are resident** — a pool serving ≥ 1000 route queries spawns
//!   its threads exactly once (the acceptance criterion's "zero thread
//!   respawns", asserted via `PoolStats::threads_spawned`);
//! * **The service front door behaves** — FIFO admission from many client
//!   threads, correct results under concurrency, graceful drain on
//!   shutdown;
//! * **Gangs are invisible except for speed** — N jobs submitted across C
//!   client threads onto G gangs produce exactly the answers of N
//!   sequential runs, with `submitted == completed` and per-job (hence
//!   per-gang) `pushes == pops`: no task ever leaks across gangs;
//! * **Panics are contained** — a deliberately panicking job resolves its
//!   own ticket to `Err(JobError::Lost)` and leaves other clients' jobs (and the
//!   service) intact.

use std::sync::Arc;

use proptest::prelude::*;

use smq_repro::algos::astar::AstarWorkload;
use smq_repro::algos::cc::CcWorkload;
use smq_repro::algos::kcore::KCoreWorkload;
use smq_repro::algos::sssp::SsspWorkload;
use smq_repro::algos::{astar, engine, RouteQueryEngine};
use smq_repro::core::Task;
use smq_repro::graph::generators::{road_network, uniform_random, RoadNetworkParams};
use smq_repro::multiqueue::{MultiQueue, MultiQueueConfig};
use smq_repro::obim::{Obim, ObimConfig};
use smq_repro::pool::{JobError, JobService, PoolConfig, PoolJob, ServiceConfig, WorkerPool};
use smq_repro::runtime::Scratch;
use smq_repro::smq::{HeapSmq, SmqConfig};

fn smq_pool(threads: usize, seed: u64) -> WorkerPool {
    WorkerPool::new(
        HeapSmq::<Task>::new(SmqConfig::default_for_threads(threads).with_seed(seed)),
        PoolConfig::new(threads),
    )
}

fn smq_gang_pool(gangs: usize, gang_size: usize, seed: u64) -> WorkerPool {
    WorkerPool::new_partitioned(
        move |g| {
            HeapSmq::<Task>::new(
                SmqConfig::default_for_threads(gang_size).with_seed(seed + g as u64),
            )
        },
        PoolConfig::partitioned(gangs, gang_size),
    )
}

proptest! {
    /// N sequential jobs on one pool == N fresh one-shot runs, across
    /// random graphs and mixed workloads, with conserved per-job tasks.
    #[test]
    fn pool_reuse_matches_fresh_runs(
        nodes in 16u32..80,
        edge_factor in 2u64..5,
        threads in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let graph = uniform_random(nodes, u64::from(nodes) * edge_factor, 200, seed);
        let pool = smq_pool(threads, seed);

        // Alternate workload types across the job stream so consecutive
        // jobs differ — the harder case for generation isolation.
        for job in 0..6 {
            let (pooled, fresh) = match job % 3 {
                0 => {
                    let workload = SsspWorkload::new(&graph, 0);
                    let pooled = engine::run_on_pool(&workload, &pool);
                    let fresh_workload = SsspWorkload::new(&graph, 0);
                    let scheduler =
                        HeapSmq::<Task>::new(SmqConfig::default_for_threads(threads).with_seed(seed));
                    let fresh = engine::run_parallel(&fresh_workload, &scheduler, threads);
                    prop_assert_eq!(&pooled.output, &fresh.output, "SSSP diverged on job {}", job);
                    (pooled.result, fresh.result)
                }
                1 => {
                    let workload = CcWorkload::new(&graph);
                    let pooled = engine::run_on_pool(&workload, &pool);
                    let fresh_workload = CcWorkload::new(&graph);
                    let scheduler =
                        HeapSmq::<Task>::new(SmqConfig::default_for_threads(threads).with_seed(seed));
                    let fresh = engine::run_parallel(&fresh_workload, &scheduler, threads);
                    prop_assert_eq!(&pooled.output, &fresh.output, "CC diverged on job {}", job);
                    (pooled.result, fresh.result)
                }
                _ => {
                    let workload = KCoreWorkload::new(&graph);
                    let pooled = engine::run_on_pool(&workload, &pool);
                    let fresh_workload = KCoreWorkload::new(&graph);
                    let scheduler =
                        HeapSmq::<Task>::new(SmqConfig::default_for_threads(threads).with_seed(seed));
                    let fresh = engine::run_parallel(&fresh_workload, &scheduler, threads);
                    prop_assert_eq!(&pooled.output, &fresh.output, "k-core diverged on job {}", job);
                    (pooled.result, fresh.result)
                }
            };
            // Per-job conservation: everything pushed in THIS job was popped
            // in THIS job — no cross-job task leakage through the resident
            // scheduler or the reused termination detector.
            prop_assert_eq!(
                pooled.metrics.total.pushes,
                pooled.metrics.total.pops,
                "job {} leaked tasks across the job boundary",
                job
            );
            prop_assert_eq!(
                pooled.metrics.total.pops,
                pooled.metrics.tasks_executed,
                "job {} pop/execution mismatch",
                job
            );
            prop_assert_eq!(
                pooled.useful_tasks + pooled.wasted_tasks,
                pooled.metrics.tasks_executed
            );
            // The pooled job settles the same useful work as the fresh run
            // (useful counts are deterministic for these exact workloads'
            // final states only; totals may differ by relaxation — compare
            // only what is schedule-independent).
            prop_assert!(pooled.useful_tasks > 0 || fresh.useful_tasks == pooled.useful_tasks);
        }

        let stats = pool.stats();
        prop_assert_eq!(stats.jobs_completed, 6);
        prop_assert_eq!(stats.threads_spawned, threads as u64, "workers respawned");
    }
}

/// The acceptance criterion: one `WorkerPool` serves ≥ 1000 consecutive
/// point-to-point A* query jobs, every answer matching a one-shot run,
/// with zero thread respawns.
#[test]
fn one_pool_serves_a_thousand_route_queries() {
    let graph = Arc::new(road_network(RoadNetworkParams {
        width: 16,
        height: 16,
        removal_percent: 12,
        seed: 77,
    }));
    let n = graph.num_nodes() as u32;
    let engine = RouteQueryEngine::new(Arc::clone(&graph));
    let pool = smq_pool(2, 5);

    for i in 0..1_000u64 {
        let source = ((i * 37) % u64::from(n)) as u32;
        let target = ((i * 101 + 13) % u64::from(n)) as u32;
        let answer = engine.query(source, target, &pool);
        // One-shot reference: the workload the engine replaces.
        let (expected, _) = astar::sequential(&graph, source, target);
        assert_eq!(
            answer.distance, expected,
            "query {i} ({source}->{target}) diverged from the one-shot run"
        );
        // Per-query conservation through the resident scheduler.
        assert_eq!(
            answer.result.metrics.total.pushes, answer.result.metrics.total.pops,
            "query {i} leaked tasks"
        );
    }

    let stats = pool.stats();
    assert_eq!(stats.jobs_completed, 1_000);
    assert_eq!(
        stats.threads_spawned, 2,
        "the pool must never respawn threads across 1000 jobs"
    );
    assert_eq!(
        stats.handles_created, 2,
        "a worker creates its scheduler handle once at warm-up; 1000 jobs \
         must perform zero handle allocations after that"
    );
    assert_eq!(engine.queries_served(), 1_000);
}

/// The 1000-query acceptance run again, at batch granularity 8: identical
/// answers, identical residency guarantees, and the native batch paths
/// demonstrably in use.
#[test]
fn batched_pool_serves_route_queries_exactly() {
    let graph = Arc::new(road_network(RoadNetworkParams {
        width: 14,
        height: 14,
        removal_percent: 12,
        seed: 78,
    }));
    let n = graph.num_nodes() as u32;
    let engine = RouteQueryEngine::new(Arc::clone(&graph));
    let pool = WorkerPool::new(
        HeapSmq::<Task>::new(SmqConfig::default_for_threads(2).with_seed(6)),
        PoolConfig::new(2).with_batch(8),
    );

    let mut batched_flushes = 0u64;
    for i in 0..300u64 {
        let source = ((i * 41) % u64::from(n)) as u32;
        let target = ((i * 89 + 7) % u64::from(n)) as u32;
        let answer = engine.query(source, target, &pool);
        let (expected, _) = astar::sequential(&graph, source, target);
        assert_eq!(answer.distance, expected, "batched query {i} diverged");
        assert_eq!(
            answer.result.metrics.total.pushes, answer.result.metrics.total.pops,
            "batched query {i} leaked tasks"
        );
        batched_flushes += answer.result.metrics.total.batch_flushes;
    }
    assert!(
        batched_flushes > 0,
        "batch 8 queries must exercise the native push_batch path"
    );
    let stats = pool.stats();
    assert_eq!(stats.threads_spawned, 2);
    assert_eq!(stats.handles_created, 2);
}

/// A sample of queries cross-checked against the one-shot *parallel* A*
/// workload as well (not just sequential), on a different scheduler family.
#[test]
fn pooled_queries_match_one_shot_parallel_astar() {
    let graph = Arc::new(road_network(RoadNetworkParams {
        width: 14,
        height: 14,
        removal_percent: 10,
        seed: 3,
    }));
    let n = graph.num_nodes() as u32;
    let engine = RouteQueryEngine::new(Arc::clone(&graph));
    let pool = WorkerPool::new(
        Obim::<Task>::new(ObimConfig::obim(2, 8, 16)),
        PoolConfig::new(2),
    );
    for i in 0..25u32 {
        let source = (i * 19) % n;
        let target = (i * 53 + 5) % n;
        let pooled = engine.query(source, target, &pool);
        let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(2).with_seed(9));
        let one_shot = engine::run_parallel(&AstarWorkload::new(&*graph, source, target), &mq, 2);
        assert_eq!(pooled.distance, one_shot.output);
    }
}

/// Service-level FIFO + concurrency: many clients, every job completes
/// with a correct result, stats reconcile, graceful shutdown drains.
#[test]
fn job_service_serves_concurrent_clients_correctly() {
    let graph = Arc::new(road_network(RoadNetworkParams {
        width: 12,
        height: 12,
        removal_percent: 10,
        seed: 21,
    }));
    let n = graph.num_nodes() as u32;
    let engine = Arc::new(RouteQueryEngine::new(Arc::clone(&graph)));
    let service = Arc::new(JobService::new(
        WorkerPool::new(
            MultiQueue::<Task>::new(MultiQueueConfig::classic(2).with_seed(8)),
            PoolConfig::new(2),
        ),
        ServiceConfig {
            queue_capacity: 8,
            dispatchers: 0,
        },
    ));

    std::thread::scope(|scope| {
        for client in 0..3u32 {
            let service = Arc::clone(&service);
            let engine = Arc::clone(&engine);
            let graph = Arc::clone(&graph);
            scope.spawn(move || {
                for i in 0..40u32 {
                    let source = (client * 47 + i * 7) % n;
                    let target = (client * 31 + i * 11 + 1) % n;
                    let engine = Arc::clone(&engine);
                    let ticket = service
                        .submit(move |pool| engine.query(source, target, pool))
                        .expect("open service accepts jobs");
                    let done = ticket.wait().expect("query job completed");
                    let (expected, _) = astar::sequential(&graph, source, target);
                    assert_eq!(done.output.distance, expected);
                }
            });
        }
    });

    let service = Arc::into_inner(service).expect("clients joined");
    let pool_stats = service.pool_stats();
    let stats = service.shutdown();
    assert_eq!(stats.submitted, 120);
    assert_eq!(stats.completed, 120);
    assert_eq!(pool_stats.jobs_completed, 120);
    assert_eq!(pool_stats.threads_spawned, 2);
}

proptest! {
    /// The concurrent-gang property: N route queries submitted across C
    /// client threads onto a G-gang pool produce exactly the answers N
    /// sequential runs would, with `submitted == completed` and per-job
    /// `pushes == pops` — since each job's metrics slice covers exactly the
    /// gang it ran on, the balance also proves no task leaked across gangs.
    #[test]
    fn concurrent_gang_jobs_match_sequential_runs(
        width in 6u32..12,
        gangs in 1usize..4,
        gang_size in 1usize..3,
        clients in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let graph = Arc::new(road_network(RoadNetworkParams {
            width,
            height: width,
            removal_percent: 10,
            seed,
        }));
        let n = graph.num_nodes() as u32;
        let engine = Arc::new(RouteQueryEngine::with_lanes(Arc::clone(&graph), gangs));
        let service = Arc::new(JobService::new(
            smq_gang_pool(gangs, gang_size, seed),
            ServiceConfig {
                queue_capacity: 8,
                dispatchers: 0, // one per gang: up to G jobs in flight
            },
        ));

        let per_client = 8u32;
        std::thread::scope(|scope| {
            for client in 0..clients as u32 {
                let service = Arc::clone(&service);
                let engine = Arc::clone(&engine);
                let graph = Arc::clone(&graph);
                scope.spawn(move || {
                    for i in 0..per_client {
                        let source = (client * 131 + i * 17 + (seed as u32 % 7)) % n;
                        let target = (client * 37 + i * 43 + 1) % n;
                        let engine = Arc::clone(&engine);
                        let ticket = service
                            .submit(move |pool| engine.query(source, target, pool))
                            .expect("open service accepts jobs");
                        let done = ticket.wait().expect("no job may be lost");
                        // Same output as a sequential run of the same query.
                        let (expected, _) = astar::sequential(&graph, source, target);
                        assert_eq!(
                            done.output.distance, expected,
                            "query {source}->{target} diverged under {gangs} gangs"
                        );
                        // Per-gang task conservation: everything this job
                        // pushed into its gang's scheduler was popped by it.
                        assert_eq!(
                            done.output.result.metrics.total.pushes,
                            done.output.result.metrics.total.pops,
                            "job leaked tasks across gangs"
                        );
                        assert_eq!(
                            done.output.result.metrics.threads,
                            gang_size,
                            "a query job must occupy exactly one gang"
                        );
                    }
                });
            }
        });

        let service = Arc::into_inner(service).expect("clients joined");
        let pool_stats = service.pool_stats();
        let stats = service.shutdown();
        let total = (clients as u32 * per_client) as u64;
        prop_assert_eq!(stats.submitted, total);
        prop_assert_eq!(stats.completed, total, "submitted == completed");
        prop_assert_eq!(stats.failed, 0);
        prop_assert_eq!(pool_stats.jobs_completed, total);
        prop_assert_eq!(pool_stats.threads_spawned, (gangs * gang_size) as u64);
        prop_assert_eq!(pool_stats.gangs_poisoned, 0);
    }
}

/// A job whose `process` panics on its only task.
struct PanickingJob;

impl PoolJob for PanickingJob {
    fn seed_tasks(&self) -> Vec<Task> {
        vec![Task::new(0, 0)]
    }

    fn process(&self, _t: Task, _push: &mut dyn FnMut(Task), _s: &mut Scratch) -> bool {
        panic!("intentional integration-test job panic");
    }
}

/// The `JobTicket::wait` regression: a deliberately panicking job must
/// resolve to `Err(JobError::Lost)` for its own client — and a second client of
/// the long-lived service must also get a `Result` (never a panic), `Ok`
/// while live gangs remain, `Err` once the pool has none left.
#[test]
fn panicking_job_resolves_tickets_instead_of_panicking_clients() {
    // Two gangs: the panic burns one (the factory-built pool lazily
    // respawns it), the second client's job still runs.
    let graph = Arc::new(road_network(RoadNetworkParams {
        width: 8,
        height: 8,
        removal_percent: 10,
        seed: 11,
    }));
    let n = graph.num_nodes() as u32;
    let engine = Arc::new(RouteQueryEngine::with_lanes(Arc::clone(&graph), 2));
    let service = JobService::new(
        smq_gang_pool(2, 1, 41),
        ServiceConfig {
            queue_capacity: 4,
            dispatchers: 0,
        },
    );

    let bad = service
        .submit(|pool| {
            pool.run_job_on(&PanickingJob, 1)
                .expect("fails by panicking");
        })
        .expect("submit panicking job");
    assert!(
        bad.wait().is_err(),
        "the panicking job's own ticket must be Err(JobError::Lost), not a client panic"
    );

    // Second client on the surviving gang: plain Ok.
    let second_engine = Arc::clone(&engine);
    let good = service
        .submit(move |pool| second_engine.query(0, n - 1, pool))
        .expect("service still accepts jobs");
    let done = good
        .wait()
        .expect("surviving gang serves the second client");
    let (expected, _) = astar::sequential(&graph, 0, n - 1);
    assert_eq!(done.output.distance, expected);

    let pool_stats = service.pool_stats();
    let stats = service.shutdown();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed + stats.failed, stats.submitted);
    assert_eq!(pool_stats.gangs_poisoned, 1);
    assert_eq!(
        pool_stats.gangs_respawned, 1,
        "the factory-built pool must lazily rebuild the poisoned gang"
    );
}

/// Same regression on a single-gang pool **without** a respawn factory:
/// with no live gang left, later clients get the typed
/// `Err(JobError::NoCapacity)` — still never a panic out of `wait`.
#[test]
fn fully_poisoned_service_fails_jobs_gracefully() {
    let service = JobService::new(
        smq_pool(1, 13),
        ServiceConfig {
            queue_capacity: 4,
            dispatchers: 0,
        },
    );
    let bad = service
        .submit(|pool| {
            pool.run_job(&PanickingJob).expect("fails by panicking");
        })
        .expect("submit panicking job");
    assert_eq!(bad.wait().map(|c| c.output), Err(JobError::Lost));

    // The only gang is gone: the second client's job cannot run, but its
    // ticket still resolves to Err instead of panicking the client thread.
    let second = service
        .submit(|pool| {
            pool.run_job(&PanickingJob).expect("no capacity to run it");
        })
        .expect("admission is still open");
    assert_eq!(
        second.wait().map(|c| c.output),
        Err(JobError::NoCapacity),
        "second client must see the typed NoCapacity error, not a panic"
    );

    let stats = service.shutdown();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.no_capacity, 1);
    assert_eq!(stats.completed, 0);
}

/// The FIFO-allocator poisoned-gang edge (regression): a claim enqueued
/// while every gang is unavailable — one busy, one freshly poisoned — must
/// still be served (the claim respawns the dead gang first), not starve
/// behind the dead one.
#[test]
fn waiting_claim_reroutes_around_a_poisoned_gang() {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Holds its gang until `gate` opens; flags `started` so the test
    /// knows the gang is claimed.
    struct GateJob {
        started: Arc<AtomicBool>,
        gate: Arc<AtomicBool>,
    }
    impl PoolJob for GateJob {
        fn seed_tasks(&self) -> Vec<Task> {
            vec![Task::new(0, 0)]
        }
        fn process(&self, _t: Task, _p: &mut dyn FnMut(Task), _s: &mut Scratch) -> bool {
            self.started.store(true, Ordering::Release);
            while !self.gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            true
        }
    }

    let pool = Arc::new(WorkerPool::new_partitioned(
        |g| HeapSmq::<Task>::new(SmqConfig::default_for_threads(1).with_seed(61 + g as u64)),
        PoolConfig::partitioned(2, 1),
    ));
    let started = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Job 1 occupies one gang until the gate opens.
        let holder = {
            let pool = Arc::clone(&pool);
            let (started, gate) = (Arc::clone(&started), Arc::clone(&gate));
            scope.spawn(move || pool.run_job_on(&GateJob { started, gate }, 1))
        };
        while !started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }

        // Job 2 takes the only free gang and poisons it.
        assert!(pool.run_job_on(&PanickingJob, 1).is_err());
        assert_eq!(
            pool.live_gangs(),
            1,
            "respawn waits for the next claim: the gang stays dead until then"
        );

        // Job 3 arrives while one gang is busy and the other is dead: it
        // must be served — not starve.
        struct OneTask;
        impl PoolJob for OneTask {
            fn seed_tasks(&self) -> Vec<Task> {
                vec![Task::new(0, 0)]
            }
            fn process(&self, _t: Task, _p: &mut dyn FnMut(Task), _s: &mut Scratch) -> bool {
                true
            }
        }
        let third = {
            let pool = Arc::clone(&pool);
            scope.spawn(move || pool.run_job_on(&OneTask, 1))
        };

        // Give job 3 a moment to reach the claim queue, then free the gang.
        std::thread::sleep(std::time::Duration::from_millis(10));
        gate.store(true, Ordering::Release);

        holder.join().expect("holder thread").expect("gate job");
        let out = third.join().expect("third-job thread");
        assert!(
            out.is_ok(),
            "the waiting claim must be served, not starve behind the dead gang"
        );
    });
    assert_eq!(
        pool.stats().gangs_respawned,
        1,
        "job 3's claim rebuilt the poisoned gang"
    );
}
