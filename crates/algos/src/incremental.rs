//! Incremental SSSP: repairing a distance array after weight decreases.
//!
//! A dynamic-graph service rarely recomputes shortest paths from scratch —
//! after a batch of *non-increasing* updates (weight decreases, edge
//! inserts) the old distances are still valid **upper bounds**, and only
//! the region downstream of an improved edge can change.  The classical
//! repair is a re-relaxation seeded from the heads of the updated edges:
//! for every updated edge `(u, v, w)` propose `dist(u) + w` for `v`, then
//! run the ordinary decrease-key loop over the *new* graph until no label
//! improves.  With a (relaxed) priority scheduler this is exactly the SSSP
//! task formulation with a different initial task set, so the workload
//! plugs into the same engine and the same wasted-work accounting as the
//! from-scratch runs — and its task count measures *repair* work, which on
//! small update batches is orders of magnitude below a full recompute.
//!
//! Correctness sketch: labels start as exact old distances (upper bounds
//! under non-increasing updates).  If a vertex's distance truly decreased,
//! the last edge `(u, v)` of its new shortest path either is an updated
//! edge — covered by a seed task once `u`'s label settles — or is
//! unchanged, in which case `u`'s label must itself have decreased and
//! relaxing `u` (which pushes a task) covers `v`.  Induction along the new
//! shortest-path tree does the rest.

use std::sync::atomic::{AtomicU64, Ordering};

use smq_core::Task;
use smq_graph::{CsrGraph, GraphUpdate, GraphView};
use smq_runtime::Scratch;

use crate::engine::{self, DecreaseKeyWorkload, SequentialReference, TaskOutcome};

/// Exact sequential incremental repair: starting from `old_distances`
/// (exact for the pre-update graph), settles the region affected by
/// `updates` on the post-update `graph`.  Returns the repaired distance
/// array and the number of settled (useful) heap pops — the baseline task
/// count for work-increase reporting.
pub fn sequential<G: GraphView>(
    graph: &G,
    old_distances: &[u64],
    updates: &[GraphUpdate],
) -> (Vec<u64>, u64) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut dist = old_distances.to_vec();
    let mut heap = BinaryHeap::new();
    for (v, d) in seed_proposals(old_distances, updates) {
        if d < dist[v as usize] {
            dist[v as usize] = d;
            heap.push(Reverse((d, v)));
        }
    }
    let mut settled = 0u64;
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        settled += 1;
        for (u, w) in graph.neighbors(v) {
            let nd = d + u64::from(w);
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    (dist, settled)
}

/// `(vertex, proposed distance)` seeds from the heads of updated edges.
fn seed_proposals(old_distances: &[u64], updates: &[GraphUpdate]) -> Vec<(u32, u64)> {
    updates
        .iter()
        .filter_map(|u| {
            let tail = old_distances[u.from() as usize];
            if tail == u64::MAX {
                // An unreached tail cannot improve anything yet; if its own
                // label later drops, normal relaxation covers this edge.
                None
            } else {
                Some((u.to(), tail + u64::from(u.weight())))
            }
        })
        .collect()
}

/// The incremental-SSSP workload: shared state is the distance array
/// seeded with the *old* exact distances, initial tasks are the heads of
/// the updated edges, and `process` is the ordinary SSSP relaxation over
/// the post-update [`GraphView`].
pub struct IncrementalSsspWorkload<'g, G = CsrGraph> {
    /// The post-update graph.
    graph: &'g G,
    seeds: Vec<(u32, u64)>,
    old_distances: Vec<u64>,
    distances: Vec<AtomicU64>,
}

impl<'g, G: GraphView> IncrementalSsspWorkload<'g, G> {
    /// Builds a repair run over the post-update `graph` from the exact
    /// pre-update `old_distances` and the update batch that separates the
    /// two versions.
    ///
    /// # Panics
    /// Panics if the distance array length does not match the graph, or if
    /// an update endpoint is out of range.
    pub fn new(graph: &'g G, old_distances: Vec<u64>, updates: &[GraphUpdate]) -> Self {
        let n = graph.num_nodes();
        assert_eq!(old_distances.len(), n, "one old distance per vertex");
        for u in updates {
            assert!(
                (u.from() as usize) < n && (u.to() as usize) < n,
                "update endpoint out of range"
            );
        }
        let seeds = seed_proposals(&old_distances, updates);
        let distances: Vec<AtomicU64> = old_distances.iter().map(|&d| AtomicU64::new(d)).collect();
        Self {
            graph,
            seeds,
            old_distances,
            distances,
        }
    }

    /// Convenience: computes the pre-update distances with a full Dijkstra
    /// on `old_graph`, checks that every `SetWeight` is non-increasing
    /// against it (the precondition for incremental repair), and builds
    /// the workload over the post-update `new_graph`.
    ///
    /// # Panics
    /// Panics if a `SetWeight` raises an existing edge's weight — repairs
    /// after weight *increases* need a different (decremental) algorithm.
    pub fn after_updates<O: GraphView>(
        old_graph: &O,
        new_graph: &'g G,
        source: u32,
        updates: &[GraphUpdate],
    ) -> Self {
        for u in updates {
            if let GraphUpdate::SetWeight { from, to, weight } = *u {
                if let Some((_, old_w)) =
                    old_graph.neighbors(from).find(|&(target, _)| target == to)
                {
                    assert!(
                        weight <= old_w,
                        "SetWeight {from}->{to} raises {old_w} to {weight}: \
                         incremental repair requires non-increasing updates"
                    );
                }
                // A SetWeight on a missing edge is an insert, which (like
                // InsertEdge) only adds paths and never raises a distance.
            }
        }
        let (old_distances, _) = crate::sssp::sequential(old_graph, source);
        Self::new(new_graph, old_distances, updates)
    }
}

impl<G: GraphView> DecreaseKeyWorkload for IncrementalSsspWorkload<'_, G> {
    type Output = Vec<u64>;

    fn name(&self) -> &'static str {
        "inc-SSSP"
    }

    fn initial_tasks(&self) -> Vec<Task> {
        // Apply the seed proposals here (not in the constructor) so each
        // one also becomes a task when it improves on the old distance.
        let mut tasks = Vec::new();
        for &(v, d) in &self.seeds {
            if engine::try_decrease(&self.distances[v as usize], d) {
                tasks.push(Task::new(d, u64::from(v)));
            }
        }
        tasks
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
            let nd = d + u64::from(w);
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
        // Replay the same seeds through the exact sequential repair.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut dist = self.old_distances.clone();
        let mut heap = BinaryHeap::new();
        for &(v, d) in &self.seeds {
            if d < dist[v as usize] {
                dist[v as usize] = d;
                heap.push(Reverse((d, v)));
            }
        }
        let mut settled = 0u64;
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            settled += 1;
            for (u, w) in self.graph.neighbors(v) {
                let nd = d + u64::from(w);
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                    heap.push(Reverse((nd, u)));
                }
            }
        }
        SequentialReference {
            output: dist,
            baseline_tasks: settled,
        }
    }

    fn outputs_equivalent(&self, a: &Vec<u64>, b: &Vec<u64>) -> bool {
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smq_graph::generators::{road_network, RoadNetworkParams};
    use smq_graph::{GraphBuilder, LiveGraph};
    use smq_scheduler::{HeapSmq, SmqConfig};
    use std::sync::Arc;

    fn road() -> CsrGraph {
        road_network(RoadNetworkParams {
            width: 20,
            height: 20,
            removal_percent: 10,
            seed: 11,
        })
    }

    #[test]
    fn hand_graph_repair_matches_full_dijkstra() {
        // 0 -> 1 (10), 0 -> 2 (3), 2 -> 1 (4), 1 -> 3 (2): dist = [0,7,3,9].
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 10)
            .add_edge(0, 2, 3)
            .add_edge(2, 1, 4)
            .add_edge(1, 3, 2);
        let old = b.build();
        let updates = vec![GraphUpdate::SetWeight {
            from: 0,
            to: 1,
            weight: 1,
        }];
        let live = LiveGraph::new(Arc::new(old.clone()));
        live.publish(&updates);
        let snapshot = live.pin();
        let (old_dist, _) = crate::sssp::sequential(&old, 0);
        assert_eq!(old_dist, vec![0, 7, 3, 9]);
        let (repaired, settled) = sequential(&snapshot, &old_dist, &updates);
        let (full, _) = crate::sssp::sequential(&snapshot, 0);
        assert_eq!(repaired, full);
        assert_eq!(repaired, vec![0, 1, 3, 3]);
        // Only the improved region (1 and 3) re-settles.
        assert_eq!(settled, 2);
    }

    #[test]
    fn empty_update_batch_is_a_no_op() {
        let g = road();
        let (old_dist, _) = crate::sssp::sequential(&g, 0);
        let (repaired, settled) = sequential(&g, &old_dist, &[]);
        assert_eq!(repaired, old_dist);
        assert_eq!(settled, 0);
        let workload = IncrementalSsspWorkload::new(&g, old_dist.clone(), &[]);
        assert!(workload.initial_tasks().is_empty());
        assert_eq!(workload.output(), old_dist);
    }

    #[test]
    fn parallel_repair_matches_full_dijkstra_on_new_snapshot() {
        let base = Arc::new(road());
        let live = LiveGraph::new(Arc::clone(&base));
        let updates = GraphUpdate::random_decreases(&*base, 60, 77);
        live.publish(&updates);
        let snapshot = live.pin();
        let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(2));
        let workload = IncrementalSsspWorkload::after_updates(&*base, &snapshot, 0, &updates);
        let run = engine::run_parallel(&workload, &smq, 2);
        let (full, _) = crate::sssp::sequential(&snapshot, 0);
        assert_eq!(run.output, full);
    }

    #[test]
    fn workload_reports_equivalence_against_its_own_reference() {
        let base = Arc::new(road());
        let live = LiveGraph::new(Arc::clone(&base));
        let updates = GraphUpdate::random_decreases(&*base, 40, 5);
        live.publish(&updates);
        let snapshot = live.pin();
        let workload = IncrementalSsspWorkload::after_updates(&*base, &snapshot, 0, &updates);
        let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(2));
        let (run, reference) = engine::run_and_check(&workload, &smq, 2);
        assert_eq!(run.output, reference.output);
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn weight_increase_is_rejected() {
        let g = road();
        let edge = g.edges().next().unwrap();
        let updates = vec![GraphUpdate::SetWeight {
            from: edge.from,
            to: edge.to,
            weight: edge.weight + 1,
        }];
        let _ = IncrementalSsspWorkload::after_updates(&g, &g, 0, &updates);
    }

    #[test]
    fn repair_is_much_cheaper_than_recompute() {
        let base = Arc::new(road());
        let live = LiveGraph::new(Arc::clone(&base));
        let updates = GraphUpdate::random_decreases(&*base, 4, 21);
        live.publish(&updates);
        let snapshot = live.pin();
        let (old_dist, full_settled) = crate::sssp::sequential(&*base, 0);
        let (_, repair_settled) = sequential(&snapshot, &old_dist, &updates);
        assert!(
            repair_settled < full_settled,
            "repair settled {repair_settled} >= full recompute {full_settled}"
        );
    }
}
