//! Single-source shortest paths over a relaxed priority scheduler.
//!
//! The task formulation is the one Galois/PMOD use for delta-stepping-style
//! SSSP: a task is `(tentative distance, vertex)`, priority = distance.
//! Executing a task whose distance is already stale (a shorter path was
//! found meanwhile) is *wasted work*; the better the scheduler's rank
//! guarantees, the fewer such tasks are executed — this is the core
//! mechanism behind the paper's Figure 2 results.
//!
//! The parallel run is [`SsspWorkload`] driven by the generic
//! [`engine`]; the same workload with a unit weight mapping
//! is BFS (see [`crate::bfs`]).

use std::sync::atomic::{AtomicU64, Ordering};

use smq_core::Task;
use smq_graph::{CsrGraph, GraphView};
use smq_runtime::Scratch;

use crate::engine::{self, DecreaseKeyWorkload, SequentialReference, TaskOutcome};

/// Exact sequential Dijkstra.  Returns the distance array and the number of
/// settled vertices (the baseline task count for work-increase reporting).
pub fn sequential<G: GraphView>(graph: &G, source: u32) -> (Vec<u64>, u64) {
    sequential_weighted(graph, source, u64::from)
}

/// Sequential Dijkstra with a caller-supplied weight mapping (used by the
/// BFS reference with a constant mapping).
pub fn sequential_weighted<G: GraphView>(
    graph: &G,
    source: u32,
    edge_weight: impl Fn(u32) -> u64,
) -> (Vec<u64>, u64) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = graph.num_nodes();
    let mut dist = vec![u64::MAX; n];
    let mut heap = BinaryHeap::new();
    let mut settled = 0u64;
    dist[source as usize] = 0;
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        settled += 1;
        for (u, w) in graph.neighbors(v) {
            let nd = d + edge_weight(w);
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    (dist, settled)
}

/// The SSSP workload: one `(distance, vertex)` task per relaxation, shared
/// state = one atomic tentative distance per vertex, priority = distance.
///
/// Generic over the edge-weight mapping so BFS (constant weight 1) shares
/// the implementation — the only difference between the two workloads —
/// and over the [`GraphView`] it reads, so the same monomorphized code
/// runs on a static [`CsrGraph`] or a pinned live-graph snapshot.
pub struct SsspWorkload<'g, G = CsrGraph, F = fn(u32) -> u64> {
    graph: &'g G,
    source: u32,
    label: &'static str,
    edge_weight: F,
    distances: Vec<AtomicU64>,
}

impl<'g, G: GraphView> SsspWorkload<'g, G> {
    /// SSSP from `source` with the graph's own edge weights.
    pub fn new(graph: &'g G, source: u32) -> Self {
        Self::with_weight(graph, source, "SSSP", u64::from)
    }

    /// BFS from `source`: every edge counts 1 hop.
    pub fn bfs(graph: &'g G, source: u32) -> Self {
        Self::with_weight(graph, source, "BFS", |_| 1)
    }
}

impl<'g, G, F> SsspWorkload<'g, G, F>
where
    G: GraphView,
    F: Fn(u32) -> u64 + Sync,
{
    /// SSSP with a caller-supplied weight mapping and display label.
    pub fn with_weight(graph: &'g G, source: u32, label: &'static str, edge_weight: F) -> Self {
        let n = graph.num_nodes();
        assert!((source as usize) < n, "source vertex out of range");
        let distances: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        distances[source as usize].store(0, Ordering::Relaxed);
        Self {
            graph,
            source,
            label,
            edge_weight,
            distances,
        }
    }
}

impl<G, F> DecreaseKeyWorkload for SsspWorkload<'_, G, F>
where
    G: GraphView,
    F: Fn(u32) -> u64 + Sync,
{
    type Output = Vec<u64>;

    fn name(&self) -> &'static str {
        self.label
    }

    fn initial_tasks(&self) -> Vec<Task> {
        vec![Task::new(0, u64::from(self.source))]
    }

    fn process(
        &self,
        task: Task,
        push: &mut dyn FnMut(Task),
        _scratch: &mut Scratch,
    ) -> TaskOutcome {
        let v = task.value as usize;
        let d = task.key;
        if d > self.distances[v].load(Ordering::Relaxed) {
            return TaskOutcome::Wasted;
        }
        for (u, w) in self.graph.neighbors(v as u32) {
            let nd = d + (self.edge_weight)(w);
            if engine::try_decrease(&self.distances[u as usize], nd) {
                push(Task::new(nd, u64::from(u)));
            }
        }
        TaskOutcome::Useful
    }

    fn output(&self) -> Vec<u64> {
        self.distances
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
    }

    fn sequential_reference(&self) -> SequentialReference<Vec<u64>> {
        let (output, baseline_tasks) =
            sequential_weighted(self.graph, self.source, &self.edge_weight);
        SequentialReference {
            output,
            baseline_tasks,
        }
    }

    fn outputs_equivalent(&self, a: &Vec<u64>, b: &Vec<u64>) -> bool {
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smq_core::Scheduler;
    use smq_graph::generators::{power_law, road_network, PowerLawParams, RoadNetworkParams};
    use smq_multiqueue::{MultiQueue, MultiQueueConfig};
    use smq_obim::{Obim, ObimConfig};
    use smq_scheduler::{HeapSmq, SkipListSmq, SmqConfig};
    use smq_spraylist::{SprayList, SprayListConfig};

    fn small_road() -> CsrGraph {
        road_network(RoadNetworkParams {
            width: 24,
            height: 24,
            removal_percent: 10,
            seed: 3,
        })
    }

    #[test]
    fn sequential_matches_hand_computed_graph() {
        use smq_graph::GraphBuilder;
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 10)
            .add_edge(0, 2, 3)
            .add_edge(2, 1, 4)
            .add_edge(1, 3, 2)
            .add_edge(2, 3, 8)
            .add_edge(3, 4, 1);
        let g = b.build();
        let (dist, settled) = sequential(&g, 0);
        assert_eq!(dist, vec![0, 7, 3, 9, 10]);
        assert_eq!(settled, 5);
    }

    #[test]
    fn unreachable_vertices_stay_at_max() {
        use smq_graph::GraphBuilder;
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        let g = b.build();
        let (dist, settled) = sequential(&g, 0);
        assert_eq!(dist[2], u64::MAX);
        assert_eq!(settled, 2);
    }

    fn check_parallel_matches_sequential<S: Scheduler<Task>>(scheduler: &S, threads: usize) {
        let g = small_road();
        let (expected, _) = sequential(&g, 0);
        let run = engine::run_parallel(&SsspWorkload::new(&g, 0), scheduler, threads);
        assert_eq!(run.output, expected);
        assert!(run.result.useful_tasks > 0);
    }

    #[test]
    fn smq_heap_parallel_sssp_is_correct() {
        let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(3));
        check_parallel_matches_sequential(&smq, 3);
    }

    #[test]
    fn smq_skiplist_parallel_sssp_is_correct() {
        let smq: SkipListSmq<Task> = SkipListSmq::new(SmqConfig::default_for_threads(2));
        check_parallel_matches_sequential(&smq, 2);
    }

    #[test]
    fn multiqueue_parallel_sssp_is_correct() {
        let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(2));
        check_parallel_matches_sequential(&mq, 2);
    }

    #[test]
    fn obim_parallel_sssp_is_correct() {
        let obim: Obim<Task> = Obim::new(ObimConfig::obim(2, 4, 8));
        check_parallel_matches_sequential(&obim, 2);
    }

    #[test]
    fn pmod_parallel_sssp_is_correct() {
        let pmod: Obim<Task> = Obim::new(ObimConfig::pmod(2, 4, 8));
        check_parallel_matches_sequential(&pmod, 2);
    }

    #[test]
    fn spraylist_parallel_sssp_is_correct() {
        let sl: SprayList<Task> = SprayList::new(SprayListConfig::default_for_threads(2));
        check_parallel_matches_sequential(&sl, 2);
    }

    #[test]
    fn workload_reports_equivalence_against_its_own_reference() {
        let g = small_road();
        let workload = SsspWorkload::new(&g, 0);
        let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(2));
        let (run, reference) = engine::run_and_check(&workload, &smq, 2);
        assert_eq!(run.output, reference.output);
        assert!(reference.baseline_tasks > 0);
    }

    #[test]
    fn single_threaded_smq_has_no_wasted_work_on_social_graph() {
        // One thread + an exact local priority queue = Dijkstra's ordering,
        // so (almost) no task should be stale.
        let g = power_law(PowerLawParams {
            nodes: 2_000,
            avg_degree: 8,
            exponent: 2.2,
            max_weight: 255,
            seed: 5,
        });
        let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(1));
        let run = engine::run_parallel(&SsspWorkload::new(&g, 0), &smq, 1);
        let (expected, settled) = sequential(&g, 0);
        assert_eq!(run.output, expected);
        // Exactly one useful (settling) task per reachable vertex; the only
        // overhead is lazy-deletion duplicates, which exist even in exact
        // Dijkstra, so we only bound them loosely.
        assert_eq!(run.result.useful_tasks, settled);
        assert!(run.result.work_increase(settled) < 2.0);
    }
}
