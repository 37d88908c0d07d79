//! The parallel work loop: a Galois-style `for_each` over a relaxed priority
//! scheduler.
//!
//! Worker threads repeatedly pop a task from the scheduler and hand it to
//! the user-supplied processing function, which may push any number of new
//! tasks.  Termination uses *distributed* pending-task accounting (see
//! [`crate::termination`]): every worker owns a cache-padded counter pair,
//! counts a task as published before making it visible, and publishes one
//! completion update after fully processing it.  "`pop() == None` and the
//! two-phase quiescence scan balances" is then a safe exit condition even
//! for schedulers that buffer tasks thread-locally (those are flushed
//! whenever a thread observes an empty pop) — without any shared `SeqCst`
//! counter on the per-task hot path.
//!
//! The loop body is [`worker_loop`].  Its one driver is the resident
//! `smq-pool` worker pool: pool workers park between jobs and re-enter the
//! loop for every job, each gang passing its own scheduler handle,
//! detector, and abort flag, so concurrent gangs share nothing on this
//! path.  One-shot runs are single-job pools
//! (`smq_pool::WorkerPool::with_borrowed`).
//! The quiescence scan is *epoch-gated*: a worker only pays the O(threads)
//! counter scan after [`SCAN_GATE`] consecutive empty pops during which the
//! detector's activity epoch did not move (see [`crate::termination`] for
//! the liveness argument).
//!
//! The loop is *batch-granular* ([`WorkerLoopConfig::batch_size`]): above
//! batch size 1 it pops up to a batch of tasks per `pop_batch` call and
//! buffers follow-ups in a per-worker sink flushed via `push_batch` at task
//! boundaries, so the scheduler's per-operation synchronization (locks,
//! buffer publishes) is paid once per batch instead of once per task.
//! Batch size 1 is bit-identical to the historical per-task path.

use crossbeam_utils::Backoff;
use smq_core::{HasKey, SchedulerHandle};
use smq_telemetry::{Phase, WorkerTelemetry};

use crate::scratch::Scratch;
use crate::termination::{TerminationDetector, WorkerTally};

/// How many consecutive empty pops a worker tolerates before it starts
/// yielding to the OS scheduler (important on machines with fewer hardware
/// threads than workers).
const SPINS_BEFORE_YIELD: u32 = 64;

/// How many consecutive empty pops (with a stable activity epoch) a worker
/// accumulates before paying for one O(threads) quiescence scan.  Every
/// scan is paid for by at least this many empty pops, so
/// `quiescence_scans * SCAN_GATE <= empty_pops` holds for every run.
pub const SCAN_GATE: u32 = 8;

/// The per-worker knobs of [`worker_loop`].
#[derive(Debug, Clone)]
pub struct WorkerLoopConfig {
    /// Batch granularity of the hot path (clamped to at least 1).
    ///
    /// With `batch_size == 1` (the default) the loop is the exact
    /// historical per-task path: one `pop()` per task, every follow-up
    /// pushed (and its publish credited) immediately.  With a larger batch
    /// the worker pops up to `batch_size` tasks per `pop_batch` call and
    /// buffers follow-ups in a per-worker sink that flushes via
    /// `push_batch` — at the latest at every task boundary — so locks and
    /// indirect calls per task drop by ~the batch factor while relaxation
    /// semantics and termination soundness are unchanged (see the module
    /// docs of `smq_core::scheduler` and [`crate::termination`]).
    pub batch_size: usize,
}

impl Default for WorkerLoopConfig {
    fn default() -> Self {
        Self { batch_size: 1 }
    }
}

/// What one worker did during one trip through [`worker_loop`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerLoopOutcome {
    /// Tasks popped and processed by this worker.
    pub executed: u64,
    /// Quiescence scans this worker performed (each is O(threads)).
    pub scans: u64,
    /// Tasks popped but *discarded* because the job was cancelled (see
    /// [`LoopControl::cancel`]): their completions were recorded so the
    /// detector stays balanced, but `process` never ran for them.
    pub discarded: u64,
}

/// External control signals a [`worker_loop`] run observes.
///
/// Both flags are optional (`LoopControl::default()` observes neither).
/// The resident worker pool wires them per job:
///
/// * `abort` — the *poison* escape: set when a sibling worker died mid-job.
///   A dead worker's thread-local queues can strand published tasks, so
///   quiescence may be unreachable; survivors bail out on their next empty
///   pop, leaving whatever is still queued stranded (the gang is retired or
///   respawned, never reused as-is).
/// * `cancel` — *cooperative cancellation*: set when the job tripped its
///   deadline or budget.  Unlike `abort`, cancellation must leave the gang
///   **reusable**, so workers keep popping but discard every task (its
///   completion is recorded, `process` is skipped, nothing is pushed).  The
///   frontier therefore collapses, normal quiescence is reached, and the
///   scheduler is provably empty when the loop returns.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopControl<'a> {
    /// Bail out on the next empty pop (gang poisoned; tasks may strand).
    pub abort: Option<&'a std::sync::atomic::AtomicBool>,
    /// Drain-and-discard to quiescence (job cancelled; gang stays clean).
    pub cancel: Option<&'a std::sync::atomic::AtomicBool>,
}

/// A handle through which task processors push newly created tasks.
///
/// Pushing through this wrapper (rather than the raw scheduler handle) keeps
/// the pending-task counter consistent, which is what makes termination
/// detection sound.
///
/// At batch size 1 every push goes straight to the scheduler (the exact
/// historical hot path).  At larger batch sizes the sink buffers follow-ups
/// in a per-worker vector and flushes them through the scheduler's
/// `push_batch` — when the buffer fills, and always at the task boundary —
/// crediting the whole batch with **one** counter store *before* any task
/// becomes visible (publish-before-flush), so the two-phase quiescence
/// argument of [`crate::termination`] applies unchanged.
pub struct TaskSink<'a, 'd, H, T>
where
    H: SchedulerHandle<T>,
{
    handle: &'a mut H,
    tally: &'a mut WorkerTally<'d>,
    buffer: &'a mut Vec<T>,
    batch: usize,
}

impl<H, T> TaskSink<'_, '_, H, T>
where
    H: SchedulerHandle<T>,
{
    /// Pushes a new task into the scheduler (batch size 1) or into the
    /// worker's follow-up buffer (larger batches; flushed via `push_batch`
    /// when full and at every task boundary).
    ///
    /// Either way the publish is counted in the worker's own cache-padded
    /// counter *before* the task becomes visible — a single uncontended
    /// store per push or per batch, never a shared RMW.
    #[inline]
    pub fn push(&mut self, task: T) {
        if self.batch <= 1 {
            self.tally.record_push();
            self.handle.push(task);
        } else {
            self.buffer.push(task);
            if self.buffer.len() >= self.batch {
                flush_sink(self.handle, self.tally, self.buffer);
            }
        }
    }
}

/// Publishes the sink buffer: credits the batch in one counter store, then
/// makes it visible in one `push_batch` call.  The credit must come first —
/// see `WorkerTally::record_pushes`.
#[inline]
fn flush_sink<T, H: SchedulerHandle<T>>(
    handle: &mut H,
    tally: &mut WorkerTally<'_>,
    buffer: &mut Vec<T>,
) {
    if buffer.is_empty() {
        return;
    }
    tally.record_pushes(buffer.len() as u64);
    handle.push_batch(buffer);
}

/// One worker's pop/process/quiesce loop, entered by every resident pool
/// worker once per job.
///
/// The caller must have pushed (and pre-credited, via
/// [`TerminationDetector::preload`]) its seed tasks before entering the
/// loop.  Returns once this worker has observed global quiescence for the
/// detector's current generation — or, if `control.abort` is `Some` and
/// becomes `true`, as soon as the worker next finds the scheduler empty
/// (the worker pool's poison path; see [`LoopControl`]).  If
/// `control.cancel` becomes `true` instead, the worker drains to
/// quiescence while *discarding* every remaining task, so a cancelled
/// job's gang ends with an empty scheduler and stays reusable.
///
/// When `telemetry` is `Some`, worker-loop time is tagged into coarse
/// [`Phase`]s and every Nth successful pop is sampled for rank error
/// against the scheduler's advisory global-min estimate
/// ([`SchedulerHandle::min_key_hint`]).  When it is `None` the loop takes
/// no timestamps and makes no extra scheduler calls, which is how the
/// disabled configuration keeps single-thread `OpStats` bit-identical to
/// the uninstrumented path.
#[allow(clippy::too_many_arguments)]
pub fn worker_loop<T, H, F>(
    handle: &mut H,
    detector: &TerminationDetector,
    tally: &mut WorkerTally<'_>,
    scratch: &mut Scratch,
    config: &WorkerLoopConfig,
    control: LoopControl<'_>,
    mut telemetry: Option<&mut WorkerTelemetry>,
    mut process: F,
) -> WorkerLoopOutcome
where
    T: Send + HasKey + 'static,
    H: SchedulerHandle<T>,
    F: for<'h, 'd> FnMut(T, &mut TaskSink<'h, 'd, H, T>, &mut Scratch),
{
    let batch = config.batch_size.max(1);
    let mut outcome = WorkerLoopOutcome::default();
    let backoff = Backoff::new();
    // The two batch buffers live in the worker's scratch arena, so their
    // capacity survives across jobs on a resident pool.  `pop_buf` holds
    // the tasks of the current batch; `sink_buf` buffers follow-ups until
    // the next flush.  Both stay empty at batch size 1.
    let mut pop_buf: Vec<T> = scratch.take_vec();
    let mut sink_buf: Vec<T> = scratch.take_vec();
    if sink_buf.capacity() < batch {
        // `reserve` takes an *additional* count; the buffer is empty here,
        // so this guarantees capacity >= batch without mid-task growth.
        sink_buf.reserve(batch);
    }
    // Empty pops observed since the last scan (or since the last activity
    // epoch move); `was_idle` tracks idle→busy transitions for the epoch,
    // and `idle_spins` (reset only by a successful pop) drives OS yielding.
    let mut empty_streak = 0u32;
    let mut idle_spins = 0u32;
    let mut was_idle = false;
    let mut seen_epoch = detector.activity_epoch();
    loop {
        if let Some(t) = telemetry.as_deref_mut() {
            // While parked, pop attempts coalesce into the open Park span
            // (no clock read per idle spin); a successful pop ends it via
            // the Process transition below.
            if !t.parked() {
                t.phase(Phase::Pop);
            }
        }
        // Batch size 1 calls `pop()` directly (the exact historical path,
        // stats included); larger batches make one scheduling decision per
        // `pop_batch` and amortize it over up to `batch` tasks.
        let got = if batch == 1 {
            match handle.pop() {
                Some(task) => {
                    pop_buf.push(task);
                    1
                }
                None => 0,
            }
        } else {
            handle.pop_batch(&mut pop_buf, batch)
        };
        if got > 0 {
            if let Some(t) = telemetry.as_deref_mut() {
                // Steal attribution: if the handle's steal counter moved
                // during this pop, the span just spent belongs to Steal.
                if t.timing_enabled() && t.note_steal_ops(handle.stats().steal_attempts) {
                    t.relabel(Phase::Steal);
                }
                // Rank-error probe: compare the best task this pop returned
                // against the best key still visible anywhere.  A positive
                // difference bounds how far the relaxed pop strayed from
                // the true minimum.
                if t.probe_due() {
                    t.record_rank_error(pop_buf[0].key(), handle.min_key_hint());
                }
                t.phase(Phase::Process);
            }
            if was_idle {
                // Off the common hot path: only the first pop after a
                // barren stretch tells the scanners the system moved.
                detector.note_activity();
                was_idle = false;
            }
            empty_streak = 0;
            idle_spins = 0;
            backoff.reset();
            // Cancellation is checked once per pop (not per task): when the
            // job tripped its deadline/budget, every remaining task is
            // discarded — completion recorded (the pop already counted it
            // published), `process` skipped, nothing pushed — so the
            // frontier monotonically collapses to ordinary quiescence.
            let discarding = control
                .cancel
                .is_some_and(|flag| flag.load(std::sync::atomic::Ordering::Acquire));
            if discarding {
                for _task in pop_buf.drain(..) {
                    tally.record_completion();
                    outcome.discarded += 1;
                }
                continue;
            }
            for task in pop_buf.drain(..) {
                // The completion below must be recorded even if `process`
                // unwinds: the popped task was already counted `published`,
                // and skipping its completion would leave the detector
                // permanently unbalanced — surviving pool workers would
                // spin forever in a never-quiescent scan while the
                // coordinator waits for them (deadlock instead of the
                // intended pool poisoning).  `catch_unwind` is free on the
                // non-panic path.
                let panic_payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut sink = TaskSink {
                        handle,
                        tally,
                        buffer: &mut sink_buf,
                        batch,
                    };
                    process(task, &mut sink, scratch)
                }))
                .err();
                outcome.executed += 1;
                match panic_payload {
                    None => {
                        // Flush-at-task-boundary, publish-before-flush: the
                        // task's buffered follow-ups are credited (one
                        // store) and made visible *before* its completion
                        // is recorded, so the sums can never balance while
                        // its children are outstanding.
                        flush_sink(handle, tally, &mut sink_buf);
                        tally.record_completion();
                    }
                    Some(payload) => {
                        // Un-flushed follow-ups of the panicking task were
                        // never credited and never visible: dropping them
                        // keeps the detector balanced.  Remaining tasks of
                        // `pop_buf` stay stranded exactly like the dead
                        // worker's thread-local queues — the pool's gang
                        // poisoning (abort flag) handles both.
                        sink_buf.clear();
                        tally.record_completion();
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        } else {
            if let Some(t) = telemetry.as_deref_mut() {
                // Flush is only worth a span on the first empty pop of a
                // streak; later iterations flush nothing and stay parked.
                if !t.parked() {
                    t.phase(Phase::Flush);
                }
            }
            // Anything buffered locally must become visible before we
            // conclude the system might be done.  (The sink buffer is
            // always empty here — it flushes at every task boundary.)
            handle.flush();
            if let Some(flag) = control.abort {
                if flag.load(std::sync::atomic::Ordering::Acquire) {
                    break;
                }
            }
            was_idle = true;
            idle_spins = idle_spins.saturating_add(1);
            let epoch = detector.activity_epoch();
            if epoch != seen_epoch {
                // Work appeared somewhere since we last looked: the
                // system is churning, a scan now would likely fail.
                seen_epoch = epoch;
                empty_streak = 1;
            } else {
                empty_streak += 1;
            }
            if empty_streak >= SCAN_GATE {
                if let Some(t) = telemetry.as_deref_mut() {
                    t.phase(Phase::Scan);
                }
                // Looked stable for `SCAN_GATE` empty pops: pay for one
                // O(threads) scan, then require a fresh streak before
                // the next one.
                empty_streak = 0;
                outcome.scans += 1;
                if detector.quiescent() {
                    break;
                }
            }
            if let Some(t) = telemetry.as_deref_mut() {
                t.phase(Phase::Park);
            }
            if idle_spins > SPINS_BEFORE_YIELD {
                std::thread::yield_now();
            } else {
                backoff.snooze();
            }
        }
    }
    scratch.put_vec(pop_buf);
    scratch.put_vec(sink_buf);
    outcome
}
