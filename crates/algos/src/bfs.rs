//! Breadth-first search as a priority workload.
//!
//! The paper runs BFS through the same scheduler machinery as SSSP by
//! treating every edge as having weight 1 and prioritizing tasks by hop
//! count.  This keeps the comparison between schedulers apples-to-apples:
//! the only difference from SSSP is the weight function, so BFS is
//! literally [`SsspWorkload::bfs`](crate::sssp::SsspWorkload::bfs) — the
//! SSSP workload with a constant weight mapping.  A parallel BFS run is
//! `engine::run_parallel(&SsspWorkload::bfs(graph, source), scheduler,
//! threads)`; this module keeps only the sequential reference.

use smq_graph::GraphView;

use crate::sssp;

/// Exact sequential BFS.  Returns the level array and the number of visited
/// vertices (baseline task count).
pub fn sequential<G: GraphView>(graph: &G, source: u32) -> (Vec<u64>, u64) {
    sssp::sequential_weighted(graph, source, |_| 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::sssp::SsspWorkload;
    use smq_core::Task;
    use smq_graph::generators::{power_law, PowerLawParams};
    use smq_graph::GraphBuilder;
    use smq_scheduler::{HeapSmq, SmqConfig};

    #[test]
    fn sequential_levels_on_a_path() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 99).add_edge(1, 2, 99).add_edge(2, 3, 99);
        let g = b.build();
        let (levels, visited) = sequential(&g, 0);
        assert_eq!(levels, vec![0, 1, 2, 3]);
        assert_eq!(visited, 4);
    }

    #[test]
    fn parallel_bfs_matches_sequential_on_social_graph() {
        let g = power_law(PowerLawParams {
            nodes: 3_000,
            avg_degree: 6,
            exponent: 2.3,
            max_weight: 255,
            seed: 11,
        });
        let (expected, visited) = sequential(&g, 0);
        let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(2));
        let run = engine::run_parallel(&SsspWorkload::bfs(&g, 0), &smq, 2);
        assert_eq!(run.output, expected);
        assert!(run.result.useful_tasks >= visited);
    }

    #[test]
    fn bfs_ignores_edge_weights() {
        let mut b = GraphBuilder::new(3);
        // Heavy direct edge, light two-hop path: BFS must prefer the direct
        // edge (1 hop), SSSP would prefer the two-hop path.
        b.add_edge(0, 2, 1_000).add_edge(0, 1, 1).add_edge(1, 2, 1);
        let g = b.build();
        let (levels, _) = sequential(&g, 0);
        assert_eq!(levels[2], 1);
        let (dist, _) = sssp::sequential(&g, 0);
        assert_eq!(dist[2], 2);
    }
}
