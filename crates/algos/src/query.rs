//! Point-to-point A* as a *query service* workload: thousands of
//! independent (source, target) route queries over one shared road graph,
//! served **concurrently**.
//!
//! The one-shot [`crate::astar`] workload allocates a fresh `O(n)` g-score
//! array per run — fine for a benchmark, fatal for a query service where a
//! single query touches a few hundred vertices of a million-vertex graph.
//! [`RouteQueryEngine`] keeps a small fixed set of slot arrays (**lanes**)
//! for the graph's lifetime and stamps every entry with the query epoch
//! that wrote it:
//!
//! ```text
//!   slot = (epoch << DIST_BITS) | distance      (one AtomicU64 per vertex)
//! ```
//!
//! A slot whose stamp differs from the current query's epoch *is*
//! "infinity" — no reset pass ever runs.  Per query the engine pays
//! O(touched vertices), not O(n).
//!
//! # Concurrency: lanes + a global epoch allocator
//!
//! Queries no longer serialize on a run lock.  Each query atomically
//! claims a fresh epoch from one shared counter (`fetch_add` — epochs are
//! globally unique) and an idle **lane** (an exclusive slot-array
//! workspace; concurrent queries must not share one, because a 64-bit slot
//! can only hold *one* query's tentative distance and an overwrite would
//! silently reset a live query's g-score to infinity).  An engine with L
//! lanes serves up to L queries at once — pair it with a worker pool of G
//! gangs and `lanes >= G` so every gang can be busy; extra queries block
//! briefly for a free lane.
//!
//! # The epoch-wrap barrier
//!
//! When the 24-bit epoch space is exhausted (every ~16.7M queries), stale
//! stamps could alias a live epoch.  The old engine hard-reset its slots
//! inline, which was only sound because the run lock guaranteed no other
//! query was in flight.  With concurrent queries the wrap is a
//! **stop-the-queries barrier**: every query holds the engine's wrap
//! barrier (an `RwLock`) in shared mode for its whole lifetime, and the
//! thread that observes exhaustion takes the *write* lock — blocking until
//! all in-flight queries drain, wiping every lane, and restarting the
//! epoch counter — before queries resume.  The barrier costs one wipe per
//! 16.7M queries; the common path pays one uncontended read-lock
//! acquisition.
//!
//! Queries execute as single-gang jobs on a resident `smq_pool::WorkerPool`
//! via [`engine::run_on_gangs`], which is what the `service_throughput`
//! benchmark and the `JobService` acceptance tests drive: one scheduler
//! fleet, G concurrent queries, queries/sec as the reported metric.
//!
//! # Dynamic graphs
//!
//! The engine is generic over [`GraphSource`]: by default it serves a
//! frozen `CsrGraph` (pinning is a no-op reference, so the static path is
//! the same code as before the abstraction), but it can equally sit on a
//! [`smq_graph::LiveGraph`] receiving concurrent weight updates.  Every
//! query **pins one version for its whole lifetime** — A* expands the
//! frozen snapshot, never a torn mid-update view — and
//! [`RouteQueryEngine::query_pinned`] hands that exact view back to the
//! caller so the answer can be verified against a sequential run *on the
//! version that actually served it*, not the moving head.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard};

use smq_core::Task;
use smq_graph::{CsrGraph, GraphSource, GraphView};
use smq_pool::{JobOutput, WorkerPool};
use smq_runtime::Scratch;

use crate::astar::heuristic;
use crate::engine::{self, DecreaseKeyWorkload, SequentialReference, TaskOutcome};

/// Low bits of a slot hold the tentative distance.
const DIST_BITS: u32 = 40;
/// In-slot "infinity": also the largest storable distance + 1.
const UNREACHED: u64 = (1 << DIST_BITS) - 1;
/// Epochs live in the remaining high bits.
const MAX_EPOCH: u64 = (1 << (64 - DIST_BITS)) - 1;

#[inline]
fn slot_epoch(raw: u64) -> u64 {
    raw >> DIST_BITS
}

#[inline]
fn slot_distance(raw: u64) -> u64 {
    raw & UNREACHED
}

#[inline]
fn pack(epoch: u64, distance: u64) -> u64 {
    (epoch << DIST_BITS) | distance
}

/// The answer to one route query.
#[derive(Debug, Clone)]
pub struct RouteAnswer {
    /// Shortest source→target distance (`u64::MAX` if unreachable).
    pub distance: u64,
    /// Graph version the query was served from (0 for static graphs).
    pub version: u64,
    /// Work and wall-clock accounting of the query's job.
    pub result: JobOutput,
}

/// One exclusive slot-array workspace.  A lane belongs to exactly one
/// in-flight query at a time; across queries the epoch stamps keep stale
/// entries invisible without any reset pass.
struct QueryLane {
    slots: Vec<AtomicU64>,
}

impl QueryLane {
    fn new(n: usize) -> Self {
        Self {
            // Epoch 0 is never a live query epoch, so fresh slots read as
            // unreached in every query.
            slots: (0..n).map(|_| AtomicU64::new(pack(0, UNREACHED))).collect(),
        }
    }

    /// Hard reset: only called under the wrap barrier's write lock (no
    /// query in flight anywhere).
    fn wipe(&self) {
        for slot in &self.slots {
            slot.store(pack(0, UNREACHED), Ordering::Relaxed);
        }
    }

    /// This epoch's view of a slot: the stored distance if the stamp
    /// matches, otherwise "unreached".
    #[inline]
    fn g_score(&self, v: u32, epoch: u64) -> u64 {
        let raw = self.slots[v as usize].load(Ordering::Relaxed);
        if slot_epoch(raw) == epoch {
            slot_distance(raw)
        } else {
            UNREACHED
        }
    }

    /// Epoch-aware CAS-relax: lowers `v`'s distance for `epoch` to
    /// `proposed` if it improves on the epoch's current view (a stale-epoch
    /// slot counts as unreached).  Returns `true` when this call performed
    /// the decrease.
    #[inline]
    fn try_decrease(&self, v: u32, epoch: u64, proposed: u64) -> bool {
        let slot = &self.slots[v as usize];
        let mut raw = slot.load(Ordering::Relaxed);
        loop {
            let current = if slot_epoch(raw) == epoch {
                slot_distance(raw)
            } else {
                UNREACHED
            };
            if proposed >= current {
                return false;
            }
            match slot.compare_exchange_weak(
                raw,
                pack(epoch, proposed),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => raw = observed,
            }
        }
    }
}

/// A resident point-to-point shortest-path query engine over one shared
/// road graph.
///
/// One engine value serves any number of queries, **concurrently** up to
/// its lane count (see the module docs): each query atomically claims a
/// fresh epoch and an exclusive lane, runs as a single-gang job on the
/// given pool, and releases the lane.  [`RouteQueryEngine::new`] builds a
/// one-lane engine (queries serialize on the lane — the drop-in
/// replacement for the old lock-serialized engine);
/// [`RouteQueryEngine::with_lanes`] sizes it for a gang-partitioned pool.
///
/// The engine is generic over its [`GraphSource`] (default: a frozen
/// [`CsrGraph`]).  Over a [`smq_graph::LiveGraph`] every query pins the
/// latest published snapshot for its whole lifetime, so concurrent weight
/// updates never tear a query mid-expansion.
pub struct RouteQueryEngine<G: GraphSource = CsrGraph> {
    graph: Arc<G>,
    lanes: Vec<QueryLane>,
    /// Indices of idle lanes; queries block on `lane_ready` when empty.
    free_lanes: Mutex<Vec<usize>>,
    lane_ready: Condvar,
    /// Global epoch allocator; `fetch_add` gives every query a unique
    /// epoch.  Values beyond `MAX_EPOCH` are discarded (wrap handling).
    epoch: AtomicU64,
    /// The stop-the-queries barrier: queries hold it shared for their whole
    /// lifetime, the epoch-wrap reset holds it exclusively.
    wrap_barrier: RwLock<()>,
    /// Epoch-space wraps handled so far (diagnostics / tests).
    wraps: AtomicU64,
    queries_served: AtomicU64,
}

impl<G: GraphSource> RouteQueryEngine<G> {
    /// Builds a single-lane engine over `graph` (queries serialize on the
    /// one lane; memory is one `u64` per vertex).
    ///
    /// # Panics
    /// Panics if the graph's total edge weight does not fit the packed
    /// 40-bit distance field (no path can be longer than the sum of all
    /// edge weights, so fitting the sum guarantees every distance fits).
    pub fn new(graph: Arc<G>) -> Self {
        Self::with_lanes(graph, 1)
    }

    /// Builds an engine with `lanes` exclusive workspaces, serving up to
    /// `lanes` queries concurrently (memory: `lanes` `u64`s per vertex).
    /// Size it to the worker pool's gang count.
    ///
    /// The 40-bit-distance check runs against the version pinned *now*;
    /// for a live source, publishers are responsible for keeping the total
    /// weight of later versions under the same bound (each query
    /// `debug_assert`s it on the version it pins).
    ///
    /// # Panics
    /// Like [`new`](Self::new); additionally requires `lanes >= 1`.
    pub fn with_lanes(graph: Arc<G>, lanes: usize) -> Self {
        assert!(lanes >= 1, "need at least one query lane");
        assert!(
            graph.pin().total_weight() < UNREACHED,
            "graph weights overflow the packed 40-bit distance field"
        );
        let n = graph.source_num_nodes();
        Self {
            lanes: (0..lanes).map(|_| QueryLane::new(n)).collect(),
            free_lanes: Mutex::new((0..lanes).collect()),
            lane_ready: Condvar::new(),
            graph,
            epoch: AtomicU64::new(0),
            wrap_barrier: RwLock::new(()),
            wraps: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
        }
    }

    /// The shared graph source.
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// Number of lanes, i.e. the maximum number of concurrent queries.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Queries served so far.
    pub fn queries_served(&self) -> u64 {
        self.queries_served.load(Ordering::Relaxed)
    }

    /// Epoch-space wraps (stop-the-queries resets) handled so far.
    pub fn epoch_wraps(&self) -> u64 {
        self.wraps.load(Ordering::Relaxed)
    }

    /// Runs one (source, target) query as a single-gang job on `pool`,
    /// returning the exact shortest distance (A* with the admissible road
    /// heuristic).  Safe to call from many threads at once: queries
    /// proceed concurrently up to the engine's lane count and the pool's
    /// gang count.
    pub fn query(&self, source: u32, target: u32, pool: &WorkerPool) -> RouteAnswer {
        self.query_pinned(source, target, pool).0
    }

    /// Like [`query`](Self::query), but also returns the graph view the
    /// query was served from.
    ///
    /// Over a live source this is the snapshot pinned for the query's
    /// whole lifetime: verify the answer against a sequential run on
    /// **this** view, not on a fresh pin of the (possibly newer) head.
    pub fn query_pinned(
        &self,
        source: u32,
        target: u32,
        pool: &WorkerPool,
    ) -> (RouteAnswer, G::View<'_>) {
        // Order matters for the wrap barrier: the epoch is allocated while
        // already holding the shared lock, so the exclusive (wrap) holder
        // knows no live epoch exists outside the barrier.
        let (_in_flight, epoch) = self.begin_epoch();
        let lane_claim = self.claim_lane();
        let lane = &self.lanes[lane_claim.index];
        let view = self.graph.pin();
        debug_assert!(
            view.total_weight() < UNREACHED,
            "published updates overflowed the packed 40-bit distance field"
        );
        // Seed the source slot for this epoch before the job starts.
        lane.slots[source as usize].store(pack(epoch, 0), Ordering::Relaxed);
        let active = ActiveQuery {
            graph: &view,
            lane,
            epoch,
            source,
            target,
            best_target: AtomicU64::new(UNREACHED),
        };
        let run = engine::run_on_gangs(&active, pool, 1);
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        let answer = RouteAnswer {
            distance: if run.output >= UNREACHED {
                u64::MAX
            } else {
                run.output
            },
            version: view.version(),
            result: run.result,
        };
        (answer, view)
    }

    /// Claims a unique epoch, entering the wrap barrier in shared mode.
    /// On epoch-space exhaustion, takes the barrier exclusively — i.e.
    /// waits for every in-flight query to finish — wipes all lanes, and
    /// restarts the counter, so a stale stamp can never alias a live epoch.
    fn begin_epoch(&self) -> (RwLockReadGuard<'_, ()>, u64) {
        loop {
            let in_flight = self.wrap_barrier.read().unwrap_or_else(|e| e.into_inner());
            let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
            if epoch <= MAX_EPOCH {
                return (in_flight, epoch);
            }
            // Epoch space exhausted.  Drop the shared lock (we hold no
            // lane and wrote no slot yet) and race to become the resetter;
            // losers find the counter already restarted and just retry.
            drop(in_flight);
            let _barrier = self.wrap_barrier.write().unwrap_or_else(|e| e.into_inner());
            if self.epoch.load(Ordering::Relaxed) >= MAX_EPOCH {
                for lane in &self.lanes {
                    lane.wipe();
                }
                self.epoch.store(0, Ordering::Relaxed);
                self.wraps.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Takes an idle lane, blocking while all lanes are busy.
    fn claim_lane(&self) -> LaneClaim<'_, G> {
        let mut free = self.free_lanes.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(index) = free.pop() {
                return LaneClaim {
                    engine: self,
                    index,
                };
            }
            free = self
                .lane_ready
                .wait(free)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Returns the lane on drop — also on unwind, so a panicking query job
/// cannot leak a lane (its stale-epoch scribbles are invisible to the next
/// query anyway).
struct LaneClaim<'e, G: GraphSource> {
    engine: &'e RouteQueryEngine<G>,
    index: usize,
}

impl<G: GraphSource> Drop for LaneClaim<'_, G> {
    fn drop(&mut self) {
        let mut free = self
            .engine
            .free_lanes
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        free.push(self.index);
        self.engine.lane_ready.notify_one();
    }
}

/// One in-flight query: borrows its pinned graph view and its exclusive
/// lane, carries the query epoch.
struct ActiveQuery<'e, V> {
    graph: &'e V,
    lane: &'e QueryLane,
    epoch: u64,
    source: u32,
    target: u32,
    /// Best route to the target found so far (per query, for pruning).
    best_target: AtomicU64,
}

impl<V: GraphView> DecreaseKeyWorkload for ActiveQuery<'_, V> {
    type Output = u64;

    fn name(&self) -> &'static str {
        "A*-query"
    }

    fn initial_tasks(&self) -> Vec<Task> {
        vec![Task::new(
            heuristic(self.graph, self.source, self.target),
            u64::from(self.source),
        )]
    }

    fn process(
        &self,
        task: Task,
        push: &mut dyn FnMut(Task),
        _scratch: &mut Scratch,
    ) -> TaskOutcome {
        let graph = self.graph;
        let v = task.value as u32;
        let g = self.lane.g_score(v, self.epoch);
        // Same staleness/pruning logic as the one-shot A* workload, against
        // the epoch-stamped slots.
        let expected_f = g.saturating_add(heuristic(graph, v, self.target));
        if task.key > expected_f || g == UNREACHED {
            return TaskOutcome::Wasted;
        }
        if expected_f >= self.best_target.load(Ordering::Relaxed) {
            return TaskOutcome::Wasted;
        }
        if v == self.target {
            self.best_target.fetch_min(g, Ordering::Relaxed);
            return TaskOutcome::Useful;
        }
        for (u, w) in graph.neighbors(v) {
            let ng = g + u64::from(w);
            if self.lane.try_decrease(u, self.epoch, ng) {
                if u == self.target {
                    self.best_target.fetch_min(ng, Ordering::Relaxed);
                }
                push(Task::new(
                    ng + heuristic(graph, u, self.target),
                    u64::from(u),
                ));
            }
        }
        TaskOutcome::Useful
    }

    fn output(&self) -> u64 {
        self.lane.g_score(self.target, self.epoch)
    }

    fn sequential_reference(&self) -> SequentialReference<u64> {
        let (distance, baseline_tasks) =
            crate::astar::sequential(self.graph, self.source, self.target);
        SequentialReference {
            // Map the one-shot sentinel onto the packed one.
            output: if distance == u64::MAX {
                UNREACHED
            } else {
                distance
            },
            baseline_tasks,
        }
    }

    fn outputs_equivalent(&self, a: &u64, b: &u64) -> bool {
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astar;
    use smq_graph::generators::{road_network, RoadNetworkParams};
    use smq_graph::{GraphBuilder, GraphUpdate, LiveGraph};
    use smq_pool::PoolConfig;
    use smq_scheduler::{HeapSmq, SmqConfig};

    fn road() -> Arc<CsrGraph> {
        Arc::new(road_network(RoadNetworkParams {
            width: 18,
            height: 18,
            removal_percent: 12,
            seed: 33,
        }))
    }

    fn pool(threads: usize) -> WorkerPool {
        WorkerPool::new(
            HeapSmq::<Task>::new(SmqConfig::default_for_threads(threads).with_seed(4)),
            PoolConfig::new(threads),
        )
    }

    fn gang_pool(gangs: usize, gang_size: usize) -> WorkerPool {
        WorkerPool::new_partitioned(
            move |g| {
                HeapSmq::<Task>::new(
                    SmqConfig::default_for_threads(gang_size).with_seed(4 + g as u64),
                )
            },
            PoolConfig::partitioned(gangs, gang_size),
        )
    }

    #[test]
    fn packing_round_trips() {
        let raw = pack(12, 99);
        assert_eq!(slot_epoch(raw), 12);
        assert_eq!(slot_distance(raw), 99);
        assert_eq!(slot_distance(pack(MAX_EPOCH, UNREACHED)), UNREACHED);
        assert_eq!(slot_epoch(pack(MAX_EPOCH, UNREACHED)), MAX_EPOCH);
    }

    #[test]
    fn queries_match_one_shot_astar() {
        let graph = road();
        let engine = RouteQueryEngine::new(Arc::clone(&graph));
        let pool = pool(2);
        let n = graph.num_nodes() as u32;
        for i in 0..40u32 {
            let source = (i * 13) % n;
            let target = (i * 29 + 7) % n;
            let answer = engine.query(source, target, &pool);
            let (expected, _) = astar::sequential(&graph, source, target);
            assert_eq!(answer.distance, expected, "query {source}->{target}");
        }
        assert_eq!(engine.queries_served(), 40);
        assert_eq!(pool.stats().threads_spawned, 2);
    }

    #[test]
    fn stale_epoch_slots_read_as_unreached() {
        let graph = road();
        let engine = RouteQueryEngine::new(graph);
        let lane = &engine.lanes[0];
        // Write a distance under epoch 1, then read it under epoch 2.
        lane.slots[5].store(pack(1, 42), Ordering::Relaxed);
        assert_eq!(lane.g_score(5, 1), 42);
        assert_eq!(lane.g_score(5, 2), UNREACHED);
        // try_decrease under epoch 2 treats the stale slot as unreached.
        assert!(lane.try_decrease(5, 2, 100));
        assert_eq!(lane.g_score(5, 2), 100);
        assert!(!lane.try_decrease(5, 2, 100), "equal is not a decrease");
        assert!(lane.try_decrease(5, 2, 7));
    }

    #[test]
    fn unreachable_target_reports_max() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 5);
        let graph = Arc::new(b.build());
        let engine = RouteQueryEngine::new(graph);
        let pool = pool(1);
        let answer = engine.query(0, 2, &pool);
        assert_eq!(answer.distance, u64::MAX);
    }

    #[test]
    fn epoch_wrap_resets_lanes() {
        let graph = road();
        let engine = RouteQueryEngine::new(Arc::clone(&graph));
        // Force the engine to the edge of the epoch space.
        engine.epoch.store(MAX_EPOCH, Ordering::Relaxed);
        engine.lanes[0].slots[3].store(pack(1, 13), Ordering::Relaxed);
        let pool = pool(1);
        let answer = engine.query(0, (graph.num_nodes() - 1) as u32, &pool);
        let (expected, _) = astar::sequential(&graph, 0, (graph.num_nodes() - 1) as u32);
        assert_eq!(answer.distance, expected);
        // The engine wrapped (one stop-the-queries reset), restarted the
        // counter, and the stale slot was wiped.
        assert_eq!(engine.epoch_wraps(), 1);
        assert_eq!(engine.epoch.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_queries_on_separate_lanes_are_exact() {
        // Two client threads hammer one engine (two lanes) through two
        // independent pools; every answer must stay exact even though the
        // queries genuinely overlap.
        let graph = road();
        let engine = Arc::new(RouteQueryEngine::with_lanes(Arc::clone(&graph), 2));
        let n = graph.num_nodes() as u32;
        std::thread::scope(|scope| {
            for t in 0..2u32 {
                let engine = Arc::clone(&engine);
                let graph = Arc::clone(&graph);
                scope.spawn(move || {
                    let pool = pool(1);
                    for i in 0..60u32 {
                        let source = (t * 997 + i * 13) % n;
                        let target = (t * 389 + i * 29 + 7) % n;
                        let answer = engine.query(source, target, &pool);
                        let (expected, _) = astar::sequential(&graph, source, target);
                        assert_eq!(answer.distance, expected, "query {source}->{target}");
                    }
                });
            }
        });
        assert_eq!(engine.queries_served(), 120);
    }

    #[test]
    fn epoch_wrap_barrier_survives_two_live_queries() {
        // The satellite regression: force an epoch wrap while two queries
        // are genuinely in flight.  The old engine's silent inline reset
        // would wipe a live query's slots; the barrier must instead drain
        // both queries, reset, and keep every answer exact.
        let graph = road();
        let engine = Arc::new(RouteQueryEngine::with_lanes(Arc::clone(&graph), 2));
        let n = graph.num_nodes() as u32;
        // 2 threads * 40 queries from 30-before-the-edge: the allocator
        // must cross the wrap mid-stream, with the other thread live.
        engine.epoch.store(MAX_EPOCH - 30, Ordering::Relaxed);
        std::thread::scope(|scope| {
            for t in 0..2u32 {
                let engine = Arc::clone(&engine);
                let graph = Arc::clone(&graph);
                scope.spawn(move || {
                    let pool = pool(1);
                    for i in 0..40u32 {
                        let source = (t * 653 + i * 17) % n;
                        let target = (t * 211 + i * 41 + 3) % n;
                        let answer = engine.query(source, target, &pool);
                        let (expected, _) = astar::sequential(&graph, source, target);
                        assert_eq!(answer.distance, expected, "query {source}->{target}");
                    }
                });
            }
        });
        assert_eq!(engine.queries_served(), 80);
        assert!(
            engine.epoch_wraps() >= 1,
            "the stream must have crossed the epoch wrap"
        );
    }

    #[test]
    fn static_queries_report_version_zero() {
        let graph = road();
        let engine = RouteQueryEngine::new(Arc::clone(&graph));
        let pool = pool(1);
        let (answer, view) = engine.query_pinned(3, 200, &pool);
        let (expected, _) = astar::sequential(&view, 3, 200);
        assert_eq!(answer.distance, expected);
        assert_eq!(answer.version, 0);
        assert_eq!(view.version(), 0);
    }

    #[test]
    fn live_graph_queries_verify_on_the_pinned_view() {
        // An engine over a LiveGraph: weight updates land between queries,
        // every answer must match sequential A* on the view that actually
        // served it, and later queries must observe later versions.
        let graph = road();
        let live = Arc::new(LiveGraph::new(Arc::clone(&graph)));
        let engine = RouteQueryEngine::new(Arc::clone(&live));
        let pool = pool(1);
        let n = graph.num_nodes() as u32;
        let mut last_version = 0;
        for i in 0..12u32 {
            let source = (i * 13) % n;
            let target = (i * 29 + 7) % n;
            let (answer, view) = engine.query_pinned(source, target, &pool);
            let (expected, _) = astar::sequential(&view, source, target);
            assert_eq!(answer.distance, expected, "query {source}->{target}");
            assert_eq!(answer.version, view.version());
            assert!(answer.version > last_version, "versions must advance");
            last_version = answer.version;
            // Slowdowns only: weights stay >= the base weights the road
            // generator derived from coordinates, so the A* heuristic
            // stays admissible on every version.
            let updates = GraphUpdate::random_slowdowns(&*graph, 8, 100 + u64::from(i), 4);
            live.publish(&updates);
        }
        assert!(last_version >= 12);
        assert_eq!(engine.queries_served(), 12);
    }

    #[test]
    fn gang_pool_serves_concurrent_queries() {
        // One 2-gang pool + 2-lane engine: queries claim one gang each.
        let graph = road();
        let engine = Arc::new(RouteQueryEngine::with_lanes(Arc::clone(&graph), 2));
        let pool = gang_pool(2, 1);
        let n = graph.num_nodes() as u32;
        std::thread::scope(|scope| {
            for t in 0..2u32 {
                let engine = Arc::clone(&engine);
                let graph = Arc::clone(&graph);
                let pool = &pool;
                scope.spawn(move || {
                    for i in 0..30u32 {
                        let source = (t * 71 + i * 13) % n;
                        let target = (t * 127 + i * 29 + 7) % n;
                        let answer = engine.query(source, target, pool);
                        let (expected, _) = astar::sequential(&graph, source, target);
                        assert_eq!(answer.distance, expected);
                    }
                });
            }
        });
        assert_eq!(engine.queries_served(), 60);
        assert_eq!(pool.stats().jobs_completed, 60);
        assert_eq!(pool.stats().threads_spawned, 2);
    }
}
