//! Scheduler dispatch: build any of the evaluated schedulers from a
//! description and run any of the registered workloads on it through the
//! generic engine (`smq_algos::engine`).

use std::sync::Arc;

use smq_algos::astar::AstarWorkload;
use smq_algos::cc::CcWorkload;
use smq_algos::engine::{self, DecreaseKeyWorkload};
use smq_algos::incremental::IncrementalSsspWorkload;
use smq_algos::kcore::KCoreWorkload;
use smq_algos::mst::BoruvkaWorkload;
use smq_algos::pagerank::{PagerankConfig, PagerankWorkload};
use smq_algos::sssp::SsspWorkload;
use smq_core::{Probability, Scheduler, Task};
use smq_graph::{GraphUpdate, LiveGraph};
use smq_multiqueue::{DeletePolicy, InsertPolicy, MultiQueue, MultiQueueConfig, Reld};
use smq_obim::{Obim, ObimConfig};
use smq_pool::{PoolConfig, WorkerPool};
use smq_runtime::Topology;
use smq_scheduler::{HeapSmq, SkipListSmq, SmqConfig};
use smq_spraylist::{SprayList, SprayListConfig};
use smq_telemetry::{LogHistogram, TelemetryConfig};

use crate::graphs::GraphSpec;

/// Probe interval for the rank-error column: sample every Nth pop so the
/// estimate stays cheap relative to the work loop.
const RANK_PROBE_INTERVAL: u64 = 64;

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-source shortest paths from the spec's source.
    Sssp,
    /// Breadth-first search from the spec's source.
    Bfs,
    /// A* from the spec's source to its target.
    Astar,
    /// Borůvka minimum spanning forest.
    Mst,
    /// Residual-prioritized PageRank-delta.
    PagerankDelta,
    /// k-core decomposition (h-index fixed point).
    KCore,
    /// Weakly connected components (min-label propagation).
    Cc,
    /// Incremental SSSP repair after a batch of non-increasing weight
    /// updates on a `LiveGraph` snapshot.
    IncrementalSssp,
}

impl Workload {
    /// All eight workloads: the paper's four, the three Galois-lineage
    /// benchmarks the engine added, and the dynamic-graph repair workload.
    pub const ALL: [Workload; 8] = [
        Workload::Sssp,
        Workload::Bfs,
        Workload::Astar,
        Workload::Mst,
        Workload::PagerankDelta,
        Workload::KCore,
        Workload::Cc,
        Workload::IncrementalSssp,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Sssp => "SSSP",
            Workload::Bfs => "BFS",
            Workload::Astar => "A*",
            Workload::Mst => "MST",
            Workload::PagerankDelta => "PR-delta",
            Workload::KCore => "k-core",
            Workload::Cc => "CC",
            Workload::IncrementalSssp => "inc-SSSP",
        }
    }

    /// Parses a command-line workload name (`--workloads` flag).
    pub fn parse(name: &str) -> Option<Workload> {
        match name.to_ascii_lowercase().as_str() {
            "sssp" => Some(Workload::Sssp),
            "bfs" => Some(Workload::Bfs),
            "astar" | "a*" => Some(Workload::Astar),
            "mst" => Some(Workload::Mst),
            "pagerank" | "pr-delta" | "prdelta" => Some(Workload::PagerankDelta),
            "kcore" | "k-core" => Some(Workload::KCore),
            "cc" | "components" | "wcc" => Some(Workload::Cc),
            "incsssp" | "inc-sssp" | "incremental" => Some(Workload::IncrementalSssp),
            _ => None,
        }
    }

    /// Whether `spec` is a sensible input for this workload, mirroring the
    /// paper's (and the Galois lineage's) pairings: A* needs coordinates,
    /// MST runs on the road graphs, PageRank-delta and k-core on the
    /// power-law (social/web) graphs.  CC runs everywhere (it is the
    /// cheapest per-task workload, used as a scheduler-overhead canary).
    pub fn suits(&self, spec: &GraphSpec) -> bool {
        match self {
            Workload::Sssp | Workload::Bfs | Workload::Cc | Workload::IncrementalSssp => true,
            Workload::Astar => spec.graph.has_coordinates(),
            Workload::Mst => spec.graph.avg_degree() <= 10.0,
            Workload::PagerankDelta | Workload::KCore => spec.graph.avg_degree() > 10.0,
        }
    }
}

/// The result of one scheduler × workload × graph run.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Wall-clock seconds of the work loop.
    pub seconds: f64,
    /// Tasks whose execution advanced the algorithm.
    pub useful_tasks: u64,
    /// Stale tasks (wasted work).
    pub wasted_tasks: u64,
    /// Fraction of classified queue accesses that stayed on the caller's
    /// (simulated) NUMA node, when the scheduler tracks it.
    pub node_locality: Option<f64>,
    /// Lock (or lock-equivalent synchronization) acquisitions per
    /// scheduler operation (`smq_core::OpStats::locks_per_op`); `None` for
    /// lock-free schedulers.  This is the column that makes the
    /// batch-granularity claim visible: larger `--batch` values must
    /// drive it down.
    pub locks_per_op: Option<f64>,
    /// Sampled rank-error distribution: how far each probed pop's key sat
    /// above a cheap global-min estimate.  Empty for schedulers that do
    /// not expose a min-key hint (OBIM/PMOD, SprayList).
    pub rank_errors: LogHistogram,
}

impl WorkloadResult {
    /// Total tasks executed.
    pub fn total_tasks(&self) -> u64 {
        self.useful_tasks + self.wasted_tasks
    }

    /// Speedup relative to a baseline time.
    pub fn speedup_over(&self, baseline_seconds: f64) -> f64 {
        if self.seconds == 0.0 {
            f64::INFINITY
        } else {
            baseline_seconds / self.seconds
        }
    }

    /// Work increase relative to a baseline task count.
    pub fn work_increase(&self, baseline_tasks: u64) -> f64 {
        if baseline_tasks == 0 {
            1.0
        } else {
            self.total_tasks() as f64 / baseline_tasks as f64
        }
    }
}

/// A buildable scheduler configuration, mirroring the paper's evaluated
/// systems.
#[derive(Debug, Clone)]
pub enum SchedulerSpec {
    /// Classic Multi-Queue (Listing 1) with multiplicity `C`.
    ClassicMq {
        /// Queues per thread.
        c: usize,
    },
    /// Multi-Queue with explicit insert/delete policies and optional
    /// NUMA-aware sampling weight `K`.
    OptimizedMq {
        /// Queues per thread.
        c: usize,
        /// Insert-side policy.
        insert: InsertPolicy,
        /// Delete-side policy.
        delete: DeletePolicy,
        /// NUMA weight `K` (None disables NUMA-aware sampling).
        numa_k: Option<u32>,
    },
    /// Random-enqueue local-dequeue.
    Reld {
        /// Queues per thread.
        c: usize,
    },
    /// Stealing Multi-Queue with d-ary-heap local queues.
    SmqHeap {
        /// Steal batch size.
        steal_size: usize,
        /// Stealing probability.
        p_steal: Probability,
        /// NUMA weight `K` (None disables NUMA-aware victim sampling).
        numa_k: Option<u32>,
    },
    /// Stealing Multi-Queue with skip-list local queues.
    SmqSkipList {
        /// Steal batch size.
        steal_size: usize,
        /// Stealing probability.
        p_steal: Probability,
        /// NUMA weight `K`.
        numa_k: Option<u32>,
    },
    /// OBIM with the given Δ shift and chunk size.
    Obim {
        /// Δ shift.
        delta_shift: u32,
        /// Chunk size.
        chunk_size: usize,
    },
    /// PMOD starting from the given Δ shift.
    Pmod {
        /// Initial Δ shift.
        delta_shift: u32,
        /// Chunk size.
        chunk_size: usize,
    },
    /// SprayList.
    SprayList,
}

impl SchedulerSpec {
    /// The paper's "SMQ (Default)" configuration.
    pub fn smq_default() -> Self {
        SchedulerSpec::SmqHeap {
            steal_size: 4,
            p_steal: Probability::new(8),
            numa_k: None,
        }
    }

    /// Short display name for tables.
    pub fn name(&self) -> String {
        match self {
            SchedulerSpec::ClassicMq { c } => format!("MQ(C={c})"),
            SchedulerSpec::OptimizedMq { numa_k, .. } => match numa_k {
                Some(k) => format!("MQ-opt-NUMA(K={k})"),
                None => "MQ-opt".to_string(),
            },
            SchedulerSpec::Reld { .. } => "RELD".to_string(),
            SchedulerSpec::SmqHeap {
                steal_size,
                p_steal,
                numa_k,
            } => match numa_k {
                Some(k) => format!("SMQ-heap(S={steal_size},p={p_steal},K={k})"),
                None => format!("SMQ-heap(S={steal_size},p={p_steal})"),
            },
            SchedulerSpec::SmqSkipList {
                steal_size,
                p_steal,
                ..
            } => format!("SMQ-sl(S={steal_size},p={p_steal})"),
            SchedulerSpec::Obim {
                delta_shift,
                chunk_size,
            } => format!("OBIM(d={delta_shift},c={chunk_size})"),
            SchedulerSpec::Pmod {
                delta_shift,
                chunk_size,
            } => format!("PMOD(d={delta_shift},c={chunk_size})"),
            SchedulerSpec::SprayList => "SprayList".to_string(),
        }
    }
}

/// Topology used when a spec enables NUMA-aware sampling: `nodes`
/// simulated sockets when the thread count allows it, falling back to the
/// single-node (topology-blind) layout otherwise so odd thread counts
/// still run.
fn numa_topology(threads: usize, nodes: usize) -> Topology {
    if nodes >= 2 && threads >= nodes && threads.is_multiple_of(nodes) {
        Topology::split(threads, nodes)
    } else {
        Topology::single_node(threads)
    }
}

/// Runs one engine workload and converts its accounting.  The only place
/// results are assembled — per-algorithm run logic lives in the workload
/// implementations, not here.
fn engine_run<W, S>(workload: &W, scheduler: &S, threads: usize, batch: usize) -> WorkloadResult
where
    W: DecreaseKeyWorkload,
    S: Scheduler<Task>,
{
    let config = PoolConfig::new(threads)
        .with_batch(batch)
        .with_telemetry(TelemetryConfig::probe_only(RANK_PROBE_INTERVAL));
    let run = WorkerPool::with_borrowed(scheduler, config, |pool| {
        engine::run_on_pool(workload, pool)
    });
    let rank_errors = run
        .result
        .metrics
        .telemetry
        .as_ref()
        .map(|report| report.rank_errors.clone())
        .unwrap_or_default();
    WorkloadResult {
        seconds: run.result.metrics.elapsed.as_secs_f64(),
        useful_tasks: run.result.useful_tasks,
        wasted_tasks: run.result.wasted_tasks,
        node_locality: run.result.metrics.node_locality(),
        locks_per_op: run.result.metrics.total.locks_per_op(),
        rank_errors,
    }
}

/// The deterministic weight-decrease batch the `inc-SSSP` workload arm
/// publishes before repairing: ~5% of the edges, derived from the run seed
/// so every scheduler (and the sequential baseline) repairs the same
/// mutation.
pub fn incremental_update_batch(spec: &GraphSpec, seed: u64) -> Vec<GraphUpdate> {
    let update_count = (spec.graph.num_edges() / 20).clamp(16, 4096);
    GraphUpdate::random_decreases(&spec.graph, update_count, seed ^ 0x9e37_79b9)
}

fn run_on<S: Scheduler<Task>>(
    scheduler: &S,
    workload: Workload,
    spec: &GraphSpec,
    threads: usize,
    batch: usize,
    seed: u64,
) -> WorkloadResult {
    // Each arm only constructs the workload value; the run itself is the
    // single generic driver behind `engine_run`.
    match workload {
        Workload::Sssp => engine_run(
            &SsspWorkload::new(&spec.graph, spec.source),
            scheduler,
            threads,
            batch,
        ),
        Workload::Bfs => engine_run(
            &SsspWorkload::bfs(&spec.graph, spec.source),
            scheduler,
            threads,
            batch,
        ),
        Workload::Astar => engine_run(
            &AstarWorkload::new(&spec.graph, spec.source, spec.target),
            scheduler,
            threads,
            batch,
        ),
        Workload::Mst => engine_run(
            &BoruvkaWorkload::new(&spec.graph),
            scheduler,
            threads,
            batch,
        ),
        Workload::PagerankDelta => engine_run(
            &PagerankWorkload::new(&spec.graph, PagerankConfig::default()),
            scheduler,
            threads,
            batch,
        ),
        Workload::KCore => engine_run(&KCoreWorkload::new(&spec.graph), scheduler, threads, batch),
        Workload::Cc => engine_run(&CcWorkload::new(&spec.graph), scheduler, threads, batch),
        Workload::IncrementalSssp => {
            // Publish the deterministic decrease batch onto a live copy of
            // the spec's graph and repair the pre-update distances on the
            // pinned snapshot.
            let updates = incremental_update_batch(spec, seed);
            let live = LiveGraph::new(Arc::new(spec.graph.clone()));
            live.publish(&updates);
            let snapshot = live.pin();
            engine_run(
                &IncrementalSsspWorkload::after_updates(
                    &spec.graph,
                    &snapshot,
                    spec.source,
                    &updates,
                ),
                scheduler,
                threads,
                batch,
            )
        }
    }
}

/// Builds the scheduler described by `spec_kind` and runs `workload` on
/// `graph_spec` with `threads` workers at batch granularity 1 (the
/// per-task path).
pub fn run_workload(
    spec_kind: &SchedulerSpec,
    workload: Workload,
    graph_spec: &GraphSpec,
    threads: usize,
    seed: u64,
) -> WorkloadResult {
    run_workload_batched(spec_kind, workload, graph_spec, threads, seed, 1)
}

/// Builds the scheduler described by `spec_kind` and runs `workload` on
/// `graph_spec` with `threads` workers and the given hot-path batch size.
/// Specs that enable NUMA-aware sampling simulate the default two-socket
/// topology; use [`run_workload_numa`] to pick the node count.
pub fn run_workload_batched(
    spec_kind: &SchedulerSpec,
    workload: Workload,
    graph_spec: &GraphSpec,
    threads: usize,
    seed: u64,
    batch: usize,
) -> WorkloadResult {
    run_workload_numa(spec_kind, workload, graph_spec, threads, seed, batch, 2)
}

/// Like [`run_workload_batched`], but with an explicit simulated NUMA node
/// count for specs that carry a `numa_k` weight (the `--numa-nodes` flag).
/// Specs with `numa_k: None` ignore it and stay topology-blind.
#[allow(clippy::too_many_arguments)]
pub fn run_workload_numa(
    spec_kind: &SchedulerSpec,
    workload: Workload,
    graph_spec: &GraphSpec,
    threads: usize,
    seed: u64,
    batch: usize,
    numa_nodes: usize,
) -> WorkloadResult {
    match spec_kind {
        SchedulerSpec::ClassicMq { c } => {
            let mq: MultiQueue<Task> = MultiQueue::new(
                MultiQueueConfig::classic(threads)
                    .with_c_factor(*c)
                    .with_seed(seed),
            );
            run_on(&mq, workload, graph_spec, threads, batch, seed)
        }
        SchedulerSpec::OptimizedMq {
            c,
            insert,
            delete,
            numa_k,
        } => {
            let mut config = MultiQueueConfig::classic(threads)
                .with_c_factor(*c)
                .with_insert(*insert)
                .with_delete(*delete)
                .with_seed(seed);
            if let Some(k) = numa_k {
                config = config.with_numa(numa_topology(threads, numa_nodes), *k);
            }
            let mq: MultiQueue<Task> = MultiQueue::new(config);
            run_on(&mq, workload, graph_spec, threads, batch, seed)
        }
        SchedulerSpec::Reld { c } => {
            let reld: Reld<Task> = Reld::new(threads, *c, seed);
            run_on(&reld, workload, graph_spec, threads, batch, seed)
        }
        SchedulerSpec::SmqHeap {
            steal_size,
            p_steal,
            numa_k,
        } => {
            let mut config = SmqConfig::default_for_threads(threads)
                .with_steal_size(*steal_size)
                .with_p_steal(*p_steal)
                .with_seed(seed);
            if let Some(k) = numa_k {
                config = config.with_numa(numa_topology(threads, numa_nodes), *k);
            }
            let smq: HeapSmq<Task> = HeapSmq::new(config);
            run_on(&smq, workload, graph_spec, threads, batch, seed)
        }
        SchedulerSpec::SmqSkipList {
            steal_size,
            p_steal,
            numa_k,
        } => {
            let mut config = SmqConfig::default_for_threads(threads)
                .with_steal_size(*steal_size)
                .with_p_steal(*p_steal)
                .with_seed(seed);
            if let Some(k) = numa_k {
                config = config.with_numa(numa_topology(threads, numa_nodes), *k);
            }
            let smq: SkipListSmq<Task> = SkipListSmq::new(config);
            run_on(&smq, workload, graph_spec, threads, batch, seed)
        }
        SchedulerSpec::Obim {
            delta_shift,
            chunk_size,
        } => {
            let obim: Obim<Task> = Obim::new(ObimConfig::obim(threads, *delta_shift, *chunk_size));
            run_on(&obim, workload, graph_spec, threads, batch, seed)
        }
        SchedulerSpec::Pmod {
            delta_shift,
            chunk_size,
        } => {
            let pmod: Obim<Task> = Obim::new(ObimConfig::pmod(threads, *delta_shift, *chunk_size));
            run_on(&pmod, workload, graph_spec, threads, batch, seed)
        }
        SchedulerSpec::SprayList => {
            let sl: SprayList<Task> = SprayList::new(SprayListConfig {
                seed,
                ..SprayListConfig::default_for_threads(threads)
            });
            run_on(&sl, workload, graph_spec, threads, batch, seed)
        }
    }
}

/// Runs the single-threaded classic Multi-Queue baseline the paper measures
/// speedups against, returning `(seconds, total_tasks)`.
pub fn baseline(workload: Workload, graph_spec: &GraphSpec, seed: u64) -> (f64, u64) {
    let result = run_workload(
        &SchedulerSpec::ClassicMq { c: 4 },
        workload,
        graph_spec,
        1,
        seed,
    );
    (result.seconds, result.total_tasks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::standard_graphs;

    #[test]
    fn every_scheduler_runs_sssp_on_a_small_road_graph() {
        let specs = standard_graphs(false, 7);
        let west = &specs[1];
        let schedulers = [
            SchedulerSpec::ClassicMq { c: 2 },
            SchedulerSpec::OptimizedMq {
                c: 2,
                insert: InsertPolicy::Batching(8),
                delete: DeletePolicy::Batching(8),
                numa_k: Some(16),
            },
            SchedulerSpec::Reld { c: 2 },
            SchedulerSpec::smq_default(),
            SchedulerSpec::SmqSkipList {
                steal_size: 4,
                p_steal: Probability::new(8),
                numa_k: None,
            },
            SchedulerSpec::Obim {
                delta_shift: 4,
                chunk_size: 16,
            },
            SchedulerSpec::Pmod {
                delta_shift: 4,
                chunk_size: 16,
            },
            SchedulerSpec::SprayList,
        ];
        // The reference answer, used to verify every scheduler computes the
        // same distances implicitly through the useful-task invariant: every
        // scheduler must settle at least the same reachable vertices.
        let (_, base_tasks) = baseline(Workload::Sssp, west, 3);
        for sched in &schedulers {
            let result = run_workload(sched, Workload::Sssp, west, 2, 3);
            assert!(
                result.useful_tasks > 0,
                "{} did no useful work",
                sched.name()
            );
            assert!(
                result.work_increase(base_tasks) < 50.0,
                "{} wasted an implausible amount of work",
                sched.name()
            );
        }
    }

    #[test]
    fn incremental_sssp_runs_through_the_engine_dispatch() {
        let specs = standard_graphs(false, 7);
        let west = &specs[1];
        assert!(Workload::IncrementalSssp.suits(west));
        let result = run_workload(
            &SchedulerSpec::smq_default(),
            Workload::IncrementalSssp,
            west,
            2,
            3,
        );
        // Repair work exists (the decreases improve some region).
        assert!(result.useful_tasks > 0, "repair did no useful work");
        // The cost claim is made on the deterministic sequential references
        // (a relaxed parallel run's wasted-task count varies with thread
        // interleaving): exact heap repair settles fewer vertices than a
        // full Dijkstra of the same graph.
        let updates = incremental_update_batch(west, 3);
        let live = LiveGraph::new(Arc::new(west.graph.clone()));
        live.publish(&updates);
        let snapshot = live.pin();
        let (old, full_tasks) = smq_algos::sssp::sequential(&west.graph, west.source);
        let (_, repair_tasks) = smq_algos::incremental::sequential(&snapshot, &old, &updates);
        assert!(
            repair_tasks < full_tasks,
            "repair ({repair_tasks}) should cost less than recompute ({full_tasks})"
        );
        // The parallel run may waste work under relaxation, but not an
        // implausible multiple of the sequential repair.
        assert!(
            result.work_increase(repair_tasks.max(1)) < 50.0,
            "repair wasted an implausible amount of work ({} tasks for {repair_tasks} settles)",
            result.total_tasks()
        );
    }

    #[test]
    fn workload_names_and_spec_names_are_stable() {
        assert_eq!(Workload::Sssp.name(), "SSSP");
        assert_eq!(Workload::ALL.len(), 8);
        assert_eq!(Workload::IncrementalSssp.name(), "inc-SSSP");
        assert!(SchedulerSpec::smq_default().name().starts_with("SMQ-heap"));
        assert_eq!(SchedulerSpec::SprayList.name(), "SprayList");
    }

    #[test]
    fn workload_parse_round_trips() {
        assert_eq!(Workload::parse("sssp"), Some(Workload::Sssp));
        assert_eq!(Workload::parse("BFS"), Some(Workload::Bfs));
        assert_eq!(Workload::parse("a*"), Some(Workload::Astar));
        assert_eq!(Workload::parse("pagerank"), Some(Workload::PagerankDelta));
        assert_eq!(Workload::parse("k-core"), Some(Workload::KCore));
        assert_eq!(Workload::parse("cc"), Some(Workload::Cc));
        assert_eq!(Workload::parse("WCC"), Some(Workload::Cc));
        assert_eq!(Workload::parse("inc-sssp"), Some(Workload::IncrementalSssp));
        assert_eq!(
            Workload::parse("incremental"),
            Some(Workload::IncrementalSssp)
        );
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn new_workloads_run_through_the_engine_dispatch() {
        use smq_graph::generators::{power_law, PowerLawParams};
        // A small stand-in spec so the debug-mode test stays fast; the big
        // standard graphs are exercised by the release-mode binaries.
        let graph = power_law(PowerLawParams {
            nodes: 1_000,
            avg_degree: 12,
            exponent: 2.2,
            max_weight: 255,
            seed: 9,
        });
        let spec = GraphSpec {
            name: "small-social",
            description: "test stand-in",
            source: 0,
            target: (graph.num_nodes() - 1) as u32,
            graph,
        };
        let full = standard_graphs(false, 7);
        for workload in [Workload::PagerankDelta, Workload::KCore] {
            assert!(
                workload.suits(&full[2]),
                "social graphs suit {}",
                workload.name()
            );
            assert!(!workload.suits(&full[0]), "road graphs do not");
            let result = run_workload(&SchedulerSpec::smq_default(), workload, &spec, 2, 3);
            assert!(
                result.useful_tasks > 0,
                "{} did no useful work",
                workload.name()
            );
            assert_eq!(
                result.total_tasks(),
                result.useful_tasks + result.wasted_tasks
            );
        }
        // CC runs on every graph class (cheapest workload, overhead canary).
        assert!(Workload::Cc.suits(&full[0]));
        assert!(Workload::Cc.suits(&full[2]));
        let cc = run_workload(&SchedulerSpec::smq_default(), Workload::Cc, &spec, 2, 3);
        assert!(cc.useful_tasks > 0, "CC did no useful work");
        assert!(
            cc.rank_errors.count() > 0,
            "SMQ exposes a min-key hint, so probes must record samples"
        );
        // OBIM keeps the default (absent) hint: probes record nothing.
        let obim = run_workload(
            &SchedulerSpec::Obim {
                delta_shift: 4,
                chunk_size: 16,
            },
            Workload::Cc,
            &spec,
            2,
            3,
        );
        assert!(obim.rank_errors.is_empty());
    }
}
