//! Integration tests for the *quality* side of the paper's claims: the SMQ's
//! stealing keeps priority relaxation (and therefore wasted work) bounded,
//! and the rank-model simulator agrees qualitatively with the schedulers'
//! measured wasted work.

use smq_repro::algos::engine;
use smq_repro::algos::sssp::{self, SsspWorkload};
use smq_repro::core::{Probability, Task};
use smq_repro::graph::generators::{road_network, RoadNetworkParams};
use smq_repro::rank::{simulate, RankSimConfig};
use smq_repro::smq::{HeapSmq, SmqConfig};

#[test]
fn more_stealing_means_less_wasted_work_on_road_sssp() {
    // Wasted work in SSSP is driven by priority inversions; Theorem 1 says
    // inversions grow as stealing becomes rarer.  Compare p_steal = 1/2
    // against p_steal = 1/256 on a road graph, same thread count and seeds.
    let graph = road_network(RoadNetworkParams {
        width: 40,
        height: 40,
        removal_percent: 10,
        seed: 5,
    });
    let threads = 4;
    let (_, settled) = sssp::sequential(&graph, 0);

    let run_with = |p: u32, seed: u64| {
        let smq: HeapSmq<Task> = HeapSmq::new(
            SmqConfig::default_for_threads(threads)
                .with_p_steal(Probability::new(p))
                .with_steal_size(1)
                .with_seed(seed),
        );
        engine::run_parallel(&SsspWorkload::new(&graph, 0), &smq, threads)
            .result
            .work_increase(settled)
    };

    // Average over 24 seeds to damp scheduling noise, and only assert the
    // direction with generous slack — per-run wasted work depends on
    // thread interleaving, and an 8-seed mean could still dip below the
    // bound when the test shares few cores with other processes.
    let seeds: Vec<u64> = (1..=24).collect();
    let frequent: f64 = seeds.iter().map(|&s| run_with(2, s)).sum::<f64>() / seeds.len() as f64;
    let rare: f64 = seeds.iter().map(|&s| run_with(256, s)).sum::<f64>() / seeds.len() as f64;
    assert!(
        rare >= frequent * 0.8,
        "rare stealing should not waste less work: frequent {frequent:.3}, rare {rare:.3}"
    );
}

#[test]
fn rank_model_and_scheduler_agree_on_batching_direction() {
    // The analytical model says larger batches increase rank cost; the
    // schedulers should show the same direction in wasted work (larger
    // steal batches => more relaxation).  This ties the theory crate to the
    // implementation crate.
    let model_small = simulate(&RankSimConfig {
        batch: 1,
        ..RankSimConfig::default()
    });
    let model_large = simulate(&RankSimConfig {
        batch: 32,
        ..RankSimConfig::default()
    });
    assert!(model_large.mean_removed_rank > model_small.mean_removed_rank);

    let graph = road_network(RoadNetworkParams {
        width: 40,
        height: 40,
        removal_percent: 10,
        seed: 8,
    });
    let threads = 4;
    let (_, settled) = sssp::sequential(&graph, 0);
    // Wasted work on a real multi-threaded run is interleaving-dependent,
    // so average over 24 seeds and allow generous slack: the assertion
    // only guards the *direction* (huge batches must not systematically
    // reduce waste), not a precise ratio.
    let work_with = |steal_size: usize| {
        let seeds: Vec<u64> = (11..=34).collect();
        seeds
            .iter()
            .map(|&s| {
                let smq: HeapSmq<Task> = HeapSmq::new(
                    SmqConfig::default_for_threads(threads)
                        .with_steal_size(steal_size)
                        .with_p_steal(Probability::new(2))
                        .with_seed(s),
                );
                engine::run_parallel(&SsspWorkload::new(&graph, 0), &smq, threads)
                    .result
                    .work_increase(settled)
            })
            .sum::<f64>()
            / seeds.len() as f64
    };
    let small = work_with(1);
    let large = work_with(256);
    assert!(
        large >= small * 0.8,
        "very large steal batches should not reduce wasted work: small {small:.3}, large {large:.3}"
    );
}

#[test]
fn smq_wasted_work_is_modest_at_default_parameters() {
    // Figure 2's qualitative claim: at the default parameters the SMQ's work
    // increase over the sequential baseline stays small on road SSSP.
    let graph = road_network(RoadNetworkParams {
        width: 48,
        height: 48,
        removal_percent: 10,
        seed: 21,
    });
    let (_, settled) = sssp::sequential(&graph, 0);
    let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(4).with_seed(2));
    let run = engine::run_parallel(&SsspWorkload::new(&graph, 0), &smq, 4);
    let increase = run.result.work_increase(settled);
    assert!(
        increase < 2.0,
        "work increase {increase:.2} is implausibly high for default SMQ parameters"
    );
}
