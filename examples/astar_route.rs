//! Point-to-point routing with A* on a road network, using the SMQ as the
//! scheduler and the coordinate-based heuristic the paper describes.
//!
//! Run with: `cargo run --release --example astar_route`

use smq_repro::algos::astar::{self, AstarWorkload};
use smq_repro::algos::{engine, sssp};
use smq_repro::core::Task;
use smq_repro::graph::generators::{road_network, RoadNetworkParams};
use smq_repro::smq::{HeapSmq, SmqConfig};

fn main() {
    let graph = road_network(RoadNetworkParams {
        width: 80,
        height: 80,
        removal_percent: 12,
        seed: 7,
    });
    let source = 0u32;
    let target = (graph.num_nodes() - 1) as u32;
    let threads = 4;

    // Exact references.
    let (dijkstra_dist, dijkstra_expanded) = sssp::sequential(&graph, source);
    let (astar_dist, astar_expanded) = astar::sequential(&graph, source, target);
    assert_eq!(astar_dist, dijkstra_dist[target as usize]);

    // Parallel A* over the SMQ.
    let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(threads));
    let run = engine::run_parallel(&AstarWorkload::new(&graph, source, target), &smq, threads);
    assert_eq!(run.output, astar_dist, "parallel A* must stay exact");

    println!(
        "route {} -> {} over {} vertices: distance {}",
        source,
        target,
        graph.num_nodes(),
        run.output
    );
    println!("sequential Dijkstra expanded {dijkstra_expanded} vertices");
    println!("sequential A* expanded       {astar_expanded} vertices (heuristic pruning)");
    println!(
        "parallel A* on SMQ executed  {} tasks ({} useful, {} stale) in {:.2?} on {} threads",
        run.result.total_tasks(),
        run.result.useful_tasks,
        run.result.wasted_tasks,
        run.result.metrics.elapsed,
        threads,
    );
}
