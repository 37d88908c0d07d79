//! Result accounting and the output format.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! Untraced runs report [`EndToEnd`], traced runs report [`Layers`]; both
//! print every metric on every workload, so each name means the same thing
//! wherever it appears (see NOTES.md for the per-workload definitions).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use smq_algos::workload::AlgoResult;
use smq_core::OpStats;
use smq_telemetry::TelemetryReport;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The end-to-end metrics, one set per untraced run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub latency_p50_ms: f64,
    pub latency_tail_ms: f64,
    pub work_ratio: f64,
    pub capacity_per_s: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("setup_s", "s", self.setup_s),
            m("peak_rss_mb", "MiB", self.peak_rss_mb),
            m("latency_p50_ms", "ms", self.latency_p50_ms),
            m("latency_tail_ms", "ms", self.latency_tail_ms),
            m("work_ratio", "ratio", self.work_ratio),
            m("capacity_per_s", "1/s", self.capacity_per_s),
        ]
    }
}

/// The per-layer metrics of a traced run.  A layer a workload does not use
/// reports 0 (for example `graph.publish_ms_p50` outside `live`).
#[derive(Debug, Default)]
pub struct Layers {
    pub smq_locks_per_op: f64,
    pub smq_steal_success_ratio: f64,
    pub smq_empty_pop_ratio: f64,
    pub smq_rank_error_p50: f64,
    pub smq_rank_error_p99: f64,
    pub engine_useful_ratio: f64,
    pub engine_tasks_per_job: f64,
    pub runtime_scans_per_job: f64,
    pub runtime_park_ms: f64,
    pub runtime_scan_ms: f64,
    pub pool_overhead_us_p50: f64,
    pub pool_threads_spawned: f64,
    pub pool_handles_created: f64,
    pub query_overhead_us_p50: f64,
    pub query_overhead_us_p99: f64,
    pub service_queue_wait_ms_p50: f64,
    pub service_queue_wait_ms_p99: f64,
    pub service_submit_us_p99: f64,
    pub service_rejected: f64,
    pub service_failed: f64,
    pub service_cancelled: f64,
    pub graph_build_s: f64,
    pub graph_publish_ms_p50: f64,
    pub graph_publish_ms_p99: f64,
    pub graph_compactions: f64,
    pub graph_overlay_edges_mean: f64,
    pub trace_overhead_frac: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("smq.locks_per_op", "ratio", self.smq_locks_per_op),
            m(
                "smq.steal_success_ratio",
                "ratio",
                self.smq_steal_success_ratio,
            ),
            m("smq.empty_pop_ratio", "ratio", self.smq_empty_pop_ratio),
            m("smq.rank_error_p50", "key", self.smq_rank_error_p50),
            m("smq.rank_error_p99", "key", self.smq_rank_error_p99),
            m("engine.useful_ratio", "ratio", self.engine_useful_ratio),
            m("engine.tasks_per_job", "count", self.engine_tasks_per_job),
            m("runtime.scans_per_job", "count", self.runtime_scans_per_job),
            m("runtime.park_ms", "ms", self.runtime_park_ms),
            m("runtime.scan_ms", "ms", self.runtime_scan_ms),
            m("pool.overhead_us_p50", "us", self.pool_overhead_us_p50),
            m("pool.threads_spawned", "count", self.pool_threads_spawned),
            m("pool.handles_created", "count", self.pool_handles_created),
            m("query.overhead_us_p50", "us", self.query_overhead_us_p50),
            m("query.overhead_us_p99", "us", self.query_overhead_us_p99),
            m(
                "service.queue_wait_ms_p50",
                "ms",
                self.service_queue_wait_ms_p50,
            ),
            m(
                "service.queue_wait_ms_p99",
                "ms",
                self.service_queue_wait_ms_p99,
            ),
            m("service.submit_us_p99", "us", self.service_submit_us_p99),
            m("service.rejected", "count", self.service_rejected),
            m("service.failed", "count", self.service_failed),
            m("service.cancelled", "count", self.service_cancelled),
            m("graph.build_s", "s", self.graph_build_s),
            m("graph.publish_ms_p50", "ms", self.graph_publish_ms_p50),
            m("graph.publish_ms_p99", "ms", self.graph_publish_ms_p99),
            m("graph.compactions", "count", self.graph_compactions),
            m(
                "graph.overlay_edges_mean",
                "count",
                self.graph_overlay_edges_mean,
            ),
            m("trace.overhead_frac", "ratio", self.trace_overhead_frac),
        ]
    }
}

/// What one run did: operations attempted, how many failed (refused, wrong
/// answer, or over the workload's latency limit), how many of those were
/// wrong answers, the metrics, and human-readable extras.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Prints the human-readable summary, then the JSON result line last.
    pub fn print(&self, workload: &str, seed: u64) {
        println!("# perfbench workload={workload} seed={seed}");
        for line in self.notes.iter().flat_map(|note| note.lines()) {
            println!("# {line}");
        }
        println!(
            "attempted = {}  failed = {}  wrong_answers = {}",
            self.attempted, self.failed, self.wrong
        );
        for m in &self.metrics {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.wrong == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("write to String");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Cuts `(seconds, value)` samples into consecutive windows of `width`
/// seconds, applies `stat` to each window holding at least `min_samples`
/// values, and returns the median of those window statistics.
pub fn windowed(
    samples: &[(f64, f64)],
    width: f64,
    min_samples: usize,
    stat: impl Fn(&[f64]) -> f64,
) -> f64 {
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(at, value) in samples {
        windows.entry((at / width) as u64).or_default().push(value);
    }
    let stats: Vec<f64> = windows
        .values()
        .filter(|w| w.len() >= min_samples)
        .map(|w| stat(w))
        .collect();
    median(&stats)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status for VmHWM");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Work and scheduler accounting summed over pool jobs.
#[derive(Default)]
pub struct WorkStats {
    pub jobs: u64,
    pub useful: u64,
    pub wasted: u64,
    pub scans: u64,
    pub ops: OpStats,
    pub telemetry: TelemetryReport,
}

impl WorkStats {
    pub fn add(&mut self, result: &AlgoResult) {
        self.jobs += 1;
        self.useful += result.useful_tasks;
        self.wasted += result.wasted_tasks;
        self.scans += result.metrics.quiescence_scans;
        self.ops.merge(&result.metrics.total);
        if let Some(telemetry) = &result.metrics.telemetry {
            self.telemetry.merge(telemetry);
        }
    }

    pub fn tasks(&self) -> u64 {
        self.useful + self.wasted
    }

    /// Fills the `smq`, `algos.engine` and `runtime` rows.
    pub fn fill(&self, layers: &mut Layers) {
        let jobs = self.jobs as f64;
        let ops = &self.ops;
        let phases = &self.telemetry.phases;
        let ranks = &self.telemetry.rank_errors;
        layers.smq_locks_per_op = ops.locks_per_op().unwrap_or(0.0);
        layers.smq_steal_success_ratio = ops.steal_success_rate().unwrap_or(0.0);
        layers.smq_empty_pop_ratio =
            ratio(ops.empty_pops as f64, (ops.pops + ops.empty_pops) as f64);
        layers.smq_rank_error_p50 = ranks.quantile(0.5) as f64;
        layers.smq_rank_error_p99 = ranks.quantile(0.99) as f64;
        layers.engine_useful_ratio = ratio(self.useful as f64, self.tasks() as f64);
        layers.engine_tasks_per_job = ratio(self.tasks() as f64, jobs);
        layers.runtime_scans_per_job = ratio(self.scans as f64, jobs);
        layers.runtime_park_ms = ratio(phases.park_ns as f64 / 1e6, jobs);
        layers.runtime_scan_ms = ratio(phases.scan_ns as f64 / 1e6, jobs);
    }
}

/// Host CPU counters from the first line of `/proc/stat`: (steal, total)
/// jiffies.  On a virtual machine, steal is time the host gave this
/// machine's CPUs to someone else; the summary reports its share over the
/// measured phase, since wall-clock metrics move with it.
pub fn host_cpu() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The steal share between two [`host_cpu`] readings, as a summary line.
pub fn steal_note(start: Option<(u64, u64)>) -> String {
    match (start, host_cpu()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => format!(
            "host steal during the measured phase: {:.1}% of CPU time",
            100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
        ),
        _ => "host steal during the measured phase: unavailable".to_string(),
    }
}
