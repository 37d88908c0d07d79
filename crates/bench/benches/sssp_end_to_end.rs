//! Criterion bench: end-to-end SSSP on a small road graph for the main
//! schedulers of Figure 2 (SMQ, classic Multi-Queue, OBIM, PMOD).
//!
//! Absolute times depend on the machine; the interesting output is the
//! relative ordering, which should match the paper's Figure 2 shape on road
//! graphs (SMQ ≥ OBIM/PMOD ≥ classic MQ).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smq_algos::engine;
use smq_algos::sssp::{self, SsspWorkload};
use smq_core::{Probability, Task};
use smq_graph::generators::{road_network, RoadNetworkParams};
use smq_multiqueue::{MultiQueue, MultiQueueConfig};
use smq_obim::{Obim, ObimConfig};
use smq_scheduler::{HeapSmq, SmqConfig};

fn bench_sssp(c: &mut Criterion) {
    let graph = road_network(RoadNetworkParams {
        width: 48,
        height: 48,
        removal_percent: 10,
        seed: 5,
    });
    let threads = 2;

    let mut group = c.benchmark_group("sssp_road_48x48");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("smq_heap", "default"), |b| {
        b.iter(|| {
            let smq: HeapSmq<Task> = HeapSmq::new(
                SmqConfig::default_for_threads(threads).with_p_steal(Probability::new(4)),
            );
            engine::run_parallel(&SsspWorkload::new(&graph, 0), &smq, threads)
        })
    });
    group.bench_function(BenchmarkId::new("classic_mq", "C=4"), |b| {
        b.iter(|| {
            let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(threads));
            engine::run_parallel(&SsspWorkload::new(&graph, 0), &mq, threads)
        })
    });
    group.bench_function(BenchmarkId::new("obim", "delta=10"), |b| {
        b.iter(|| {
            let obim: Obim<Task> = Obim::new(ObimConfig::obim(threads, 10, 32));
            engine::run_parallel(&SsspWorkload::new(&graph, 0), &obim, threads)
        })
    });
    group.bench_function(BenchmarkId::new("pmod", "delta=10"), |b| {
        b.iter(|| {
            let pmod: Obim<Task> = Obim::new(ObimConfig::pmod(threads, 10, 32));
            engine::run_parallel(&SsspWorkload::new(&graph, 0), &pmod, threads)
        })
    });
    group.bench_function("sequential_dijkstra", |b| {
        b.iter(|| sssp::sequential(&graph, 0))
    });
    group.finish();
}

criterion_group!(benches, bench_sssp);
criterion_main!(benches);
