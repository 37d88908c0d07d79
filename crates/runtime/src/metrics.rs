//! Per-run measurements reported by the executor.

use std::time::Duration;

use serde::{Deserialize, Serialize};
use smq_core::OpStats;
use smq_telemetry::TelemetryReport;

/// Everything measured during one parallel run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Wall-clock time of the work loop (initial task distribution included,
    /// thread spawn/join excluded as far as possible).
    pub elapsed: Duration,
    /// Number of worker threads used.
    pub threads: usize,
    /// Total tasks executed (popped and processed) across all threads.
    pub tasks_executed: u64,
    /// O(threads) quiescence scans performed across all workers.  The
    /// epoch-gated scan keeps `quiescence_scans * SCAN_GATE <=
    /// total.empty_pops`; before the gate every empty pop scanned.
    pub quiescence_scans: u64,
    /// Per-thread scheduler operation counters.
    pub per_thread: Vec<OpStats>,
    /// Sum of `per_thread`.
    pub total: OpStats,
    /// Merged opt-in instrumentation (phase times, rank-error histogram,
    /// trace lanes); `None` when the run carried no telemetry.
    pub telemetry: Option<TelemetryReport>,
}

impl RunMetrics {
    /// The combined NUMA locality ratio observed during the run (the
    /// paper's `E_int`: in-node samples and steals over all classified
    /// events), if any were classified.
    pub fn node_locality(&self) -> Option<f64> {
        self.total.locality_rate()
    }
}
