//! A small scheduler shoot-out on a power-law ("social network") graph:
//! BFS and SSSP across every scheduler in the workspace.
//!
//! Run with: `cargo run --release --example scheduler_shootout`

use smq_repro::algos::sssp::{self, SsspWorkload};
use smq_repro::algos::{bfs, engine};
use smq_repro::core::{Probability, Task};
use smq_repro::graph::generators::{power_law, PowerLawParams};
use smq_repro::multiqueue::{MultiQueue, MultiQueueConfig, Reld};
use smq_repro::obim::{Obim, ObimConfig};
use smq_repro::smq::{HeapSmq, SkipListSmq, SmqConfig};
use smq_repro::spraylist::{SprayList, SprayListConfig};

fn main() {
    let graph = power_law(PowerLawParams {
        nodes: 20_000,
        avg_degree: 16,
        exponent: 2.2,
        max_weight: 255,
        seed: 3,
    });
    let threads = 4;
    println!(
        "power-law graph: {} vertices, {} edges, max degree {}\n",
        graph.num_nodes(),
        graph.num_edges(),
        graph.max_degree()
    );
    let (sssp_ref, sssp_settled) = sssp::sequential(&graph, 0);
    let (bfs_ref, _) = bfs::sequential(&graph, 0);

    println!(
        "{:<18} {:>12} {:>12} {:>16}",
        "scheduler", "SSSP time", "BFS time", "SSSP work incr."
    );

    macro_rules! shoot {
        ($name:expr, $make:expr) => {{
            let sched = $make;
            let s = engine::run_parallel(&SsspWorkload::new(&graph, 0), &sched, threads);
            assert_eq!(s.output, sssp_ref, "{} computed wrong SSSP", $name);
            drop(sched);
            let sched = $make;
            let b = engine::run_parallel(&SsspWorkload::bfs(&graph, 0), &sched, threads);
            assert_eq!(b.output, bfs_ref, "{} computed wrong BFS", $name);
            println!(
                "{:<18} {:>12.2?} {:>12.2?} {:>16.2}",
                $name,
                s.result.metrics.elapsed,
                b.result.metrics.elapsed,
                s.result.work_increase(sssp_settled)
            );
        }};
    }

    shoot!(
        "SMQ (heap)",
        HeapSmq::<Task>::new(SmqConfig::default_for_threads(threads))
    );
    shoot!(
        "SMQ (skip list)",
        SkipListSmq::<Task>::new(
            SmqConfig::default_for_threads(threads).with_p_steal(Probability::new(8))
        )
    );
    shoot!(
        "Multi-Queue",
        MultiQueue::<Task>::new(MultiQueueConfig::classic(threads))
    );
    shoot!("RELD", Reld::<Task>::new(threads, 4, 9));
    shoot!("OBIM", Obim::<Task>::new(ObimConfig::obim(threads, 8, 32)));
    shoot!("PMOD", Obim::<Task>::new(ObimConfig::pmod(threads, 8, 32)));
    shoot!(
        "SprayList",
        SprayList::<Task>::new(SprayListConfig::default_for_threads(threads))
    );
    println!("\nEvery scheduler produced identical SSSP distances and BFS levels.");
}
