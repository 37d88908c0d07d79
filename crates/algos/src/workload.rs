//! Shared accounting for algorithm runs: the paper's "work increase" metric.

/// Scheduler-independent accounting attached to every parallel algorithm
/// run — the pool's [`JobOutput`](smq_pool::JobOutput) under its
/// historical name.  The alias exists because the `perfbench` benchmark
/// names `smq_algos::workload::AlgoResult`.
pub use smq_pool::JobOutput as AlgoResult;
