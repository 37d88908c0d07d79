//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! (name, start, end, parent span, request id).  Spans stay in memory and
//! are written as JSON lines when the run ends; the per-layer self-time
//! table is printed from them.  A span's layer is its name up to the last
//! `.` (`pool.service.submit` belongs to `pool.service`).
//!
//! The benchmark cannot see inside the worker loop, so `runtime.work_loop`
//! spans take their duration from `RunMetrics::elapsed` and are placed at
//! the end of their parent call; the table then splits their self time
//! between `smq` (pop, steal, flush), `algos.engine` (process) and
//! `runtime` (park, quiescence scan) in proportion to the pool's
//! `TelemetryConfig` phase times.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use smq_telemetry::{Phase, PhaseTimes};

pub const WORK_LOOP: &str = "runtime.work_loop";

pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    phases: PhaseTimes,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
            phases: PhaseTimes::default(),
        }
    }

    /// Records a span; returns its index for children, or `None` when
    /// tracing is off.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Records a `runtime.work_loop` child of `parent` lasting `elapsed`
    /// and ending where the parent ends.
    pub fn work_loop(&mut self, parent: Option<usize>, elapsed: Duration, request: u64) {
        let Some(p) = parent else { return };
        let (start, end) = (self.spans[p].start, self.spans[p].end);
        let loop_start = end.checked_sub(elapsed).unwrap_or(start).max(start);
        self.span(WORK_LOOP, loop_start, end, parent, request);
    }

    pub fn add_phases(&mut self, phases: &PhaseTimes) {
        self.phases.merge(phases);
    }

    /// Appends another tracer's spans (from another load thread).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
        self.phases.merge(&other.phases);
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| nanos(s.end - s.start)).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let covered = s
                    .end
                    .min(parent.end)
                    .saturating_duration_since(s.start.max(parent.start));
                self_ns[p] = self_ns[p].saturating_sub(nanos(covered));
            }
        }
        self_ns
    }

    /// The per-span and per-layer self-time table.
    pub fn table(&self) -> String {
        let self_ns = self.self_ns();
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            let row = by_name.entry(s.name).or_default();
            row.0 += 1;
            row.1 += nanos(s.end - s.start);
            row.2 += own;
        }
        let mut out = String::new();
        writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        )
        .expect("write to String");
        let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, (count, total, own)) in &by_name {
            writeln!(
                out,
                "{name:<28} {count:>8} {:>12.3} {:>12.3}",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            )
            .expect("write to String");
            if *name == WORK_LOOP {
                let p = &self.phases;
                let all = p.total_ns().max(1) as f64;
                let share = |ns: u64| *own as f64 * ns as f64 / all;
                *by_layer.entry("smq").or_default() +=
                    share(p.get(Phase::Pop) + p.get(Phase::Steal) + p.get(Phase::Flush));
                *by_layer.entry("algos.engine").or_default() += share(p.get(Phase::Process));
                *by_layer.entry("runtime").or_default() +=
                    share(p.get(Phase::Park) + p.get(Phase::Scan));
            } else {
                *by_layer.entry(layer_of(name)).or_default() += *own as f64;
            }
        }
        let total: f64 = by_layer.values().sum::<f64>().max(1.0);
        writeln!(out, "{:<28} {:>12} {:>8}", "layer", "self_ms", "share").expect("write to String");
        for (layer, ns) in &by_layer {
            writeln!(
                out,
                "{layer:<28} {:>12.3} {:>7.1}%",
                ns / 1e6,
                100.0 * ns / total
            )
            .expect("write to String");
        }
        out
    }

    /// Writes every span as one JSON line, times in microseconds since the
    /// earliest span started.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let Some(origin) = self.spans.iter().map(|s| s.start).min() else {
            return Ok(());
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"layer\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name,
                layer_of(s.name),
                us(s.start),
                us(s.end),
                s.request
            )?;
        }
        out.flush()
    }
}

fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
