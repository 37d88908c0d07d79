//! A *resident* worker pool for the relaxed priority schedulers, partitioned
//! into **gangs** that execute jobs concurrently.
//!
//! A [`WorkerPool`] is the one thread driver of the workspace: it spawns
//! its fleet **once**, parks the workers on a condvar between jobs, and
//! executes a stream of jobs against long-lived schedulers, so
//! thread-spawn latency and cold scheduler state are paid once, not per
//! job.  Each job seeds a scheduler, runs the worker loop
//! (`smq_runtime::executor::worker_loop`) to quiescence under a fresh
//! termination-detection *generation*, and hands back a [`JobOutput`]:
//! per-job [`RunMetrics`] plus the useful/wasted task counts.  `JobOutput`
//! is also the result of every engine run in `smq_algos`, so one-shot runs
//! and service jobs share one result type.  A one-shot run is a single job
//! on a transient pool ([`WorkerPool::with_borrowed`]).
//!
//! # Gangs: job-level parallelism
//!
//! The fleet is partitioned into `gangs` gangs of `gang_size` workers each
//! (see [`PoolConfig`]).  Every gang owns its **own scheduler instance, its
//! own [`TerminationDetector`], and its own job hand-off state**, so gangs
//! are fully independent: one gang's quiescence scan can only ever observe
//! its own workers' counters, and a job running on gang A shares nothing
//! with a job on gang B except the pool's lifetime counters.  Jobs claim
//! gangs through a FIFO allocator:
//!
//! * [`run_job`](WorkerPool::run_job) claims **every** live gang — the
//!   whole-fleet mode, and exactly the historical behaviour on a
//!   single-gang pool (`PoolConfig::new`);
//! * [`run_job_on`](WorkerPool::run_job_on) claims up to `n` gangs, so
//!   small jobs (tiny route queries whose quiescence phase would idle most
//!   of a big fleet) each occupy one gang and run **concurrently**.
//!
//! A job spanning multiple gangs splits its seed tasks round-robin across
//! all participating workers; follow-up tasks stay inside the gang that
//! created them.  The workload contract (correct under any execution order,
//! monotone shared state) makes that partitioned execution equivalent to a
//! whole-fleet run — only load balance, never the answer, depends on the
//! partitioning.
//!
//! Generations (see `smq_runtime::termination`) are what make detector
//! reuse sound: each gang's counters are zeroed between jobs while that
//! gang's workers are parked, scans that straddle a generation boundary
//! invalidate themselves, and a tally leaked across jobs asserts in debug
//! builds.
//!
//! # Panic containment and gang respawn
//!
//! A job whose `process` panics kills the worker it ran on, which strands
//! that worker's thread-local queues; the gang it happened on is therefore
//! **poisoned** and pulled from the allocator (its surviving workers bail
//! out via an abort flag instead of spinning on an unreachable quiescence).
//! The `run_job*` call that owned the gang returns
//! [`Err(JobError::Lost)`](JobError::Lost); *other* gangs — and their
//! in-flight jobs — are untouched, so a long-lived service survives a bad
//! job.  On pools built from a scheduler *factory*
//! ([`new_partitioned`](WorkerPool::new_partitioned)) a poisoned gang is
//! then **respawned** at the next claim: its surviving workers are joined,
//! the slot gets a fresh scheduler from the stored factory and fresh
//! threads, and the gang returns to the free list — so `live_gangs`
//! recovers to the configured gang count after any panic storm
//! ([`PoolStats::gangs_respawned`] counts the rebuilds;
//! [`respawn_dead`](WorkerPool::respawn_dead) forces the rebuild without
//! waiting for a claim).  Pools without a factory ([`WorkerPool::new`],
//! [`with_borrowed`](WorkerPool::with_borrowed)) cannot rebuild a
//! scheduler and always retire poisoned gangs; once every gang of such a
//! pool is dead, claims fail with [`JobError::NoCapacity`] instead of
//! panicking the caller.
//!
//! # Deadlines, budgets, cancellation
//!
//! A [`JobSpec`] attaches a wall-clock deadline and/or a per-job executed
//! task budget to a job ([`run_job_with`](WorkerPool::run_job_with), or the
//! service's `submit_with`).  Workers check the limits every few tasks;
//! when one trips, the job is **cancelled, not poisoned**: every worker of
//! the job flips into drain-and-discard mode (the shared worker loop
//! records completions for popped tasks without processing them and pushes
//! nothing), so the frontier collapses to ordinary quiescence, the
//! scheduler ends provably empty, and the gang is immediately reusable.
//! The call returns [`Err(JobError::DeadlineExceeded)`](JobError) (or
//! `BudgetExceeded`), and the partial work is discarded.
//!
//! On top of the pool, [`JobService`] adds a bounded multi-producer
//! submission queue with FIFO admission, a configurable number of
//! dispatcher threads (default: one per gang, so up to `gangs` jobs are in
//! flight), completion tickets carrying queue-wait and service-time
//! measurements, per-job timeouts with bounded retry/backoff, and graceful
//! drain-then-join shutdown.
//!
//! # Scheduler ownership
//!
//! Worker threads are OS threads, so the schedulers they share must outlive
//! them.  Three constructions guarantee that:
//!
//! * [`WorkerPool::new`] takes a single-gang scheduler **by value** and
//!   keeps it alive until the workers are joined;
//! * [`WorkerPool::new_partitioned`] builds one scheduler per gang from a
//!   factory closure and owns all of them the same way;
//! * [`WorkerPool::with_borrowed`] runs a closure against a single-gang
//!   pool built on a *borrowed* scheduler and joins every worker before
//!   returning — the scoped mode backing `smq_algos::engine::run_parallel`.
//!
//! All funnel into one erased representation — a thin pointer to the
//! scheduler, cast back to its concrete type by the monomorphized worker
//! entry the constructor installs.  The join-before-invalidation
//! discipline is what makes the erasure sound, and it is enforced
//! structurally (the scoped constructor joins on every path, including
//! unwinds, and the owning constructors join in `Drop` before the boxes are
//! released).

#![warn(missing_docs)]

#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod service;

#[cfg(feature = "fault-inject")]
pub use fault::FaultPlan;
pub use service::{
    JobCompletion, JobPolicy, JobService, JobTicket, RetryPolicy, ServiceConfig, ServiceStats,
    SubmitError,
};

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use smq_core::{OpStats, Scheduler, SchedulerHandle, Task};
use smq_runtime::executor::{worker_loop, LoopControl, WorkerLoopConfig};
use smq_runtime::{RunMetrics, Scratch, TerminationDetector};
use smq_telemetry::{TelemetryConfig, TelemetryReport, WorkerReport, WorkerTelemetry};

/// Why a pool job produced no output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The job (or a pool worker executing it) panicked; the gang it ran on
    /// was poisoned.  The job may have had partial side effects.
    Lost,
    /// Every gang of the pool is dead and cannot be respawned (no scheduler
    /// factory), so nothing can serve the job.
    NoCapacity,
    /// The job tripped its [`JobSpec::deadline`] and was cooperatively
    /// cancelled; its gangs drained cleanly and remain usable.
    DeadlineExceeded,
    /// The job tripped its [`JobSpec::budget`] and was cooperatively
    /// cancelled; its gangs drained cleanly and remain usable.
    BudgetExceeded,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Lost => {
                write!(f, "job was lost: it panicked while executing on the pool")
            }
            JobError::NoCapacity => {
                write!(f, "worker pool has no live gangs left to serve the job")
            }
            JobError::DeadlineExceeded => write!(f, "job exceeded its deadline and was cancelled"),
            JobError::BudgetExceeded => {
                write!(f, "job exceeded its task budget and was cancelled")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Per-job execution limits, enforced cooperatively by the workers (a
/// cheap check every few tasks — see the module docs).  The default spec
/// imposes no limits and adds no per-task work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobSpec {
    /// Cancel the job once this instant passes.
    pub deadline: Option<Instant>,
    /// Cancel the job once its workers have *processed* (not merely
    /// popped) this many tasks in total, across every gang it claimed.
    pub budget: Option<u64>,
}

impl JobSpec {
    /// True when the spec imposes no limit (the zero-overhead fast path).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.budget.is_none()
    }
}

/// Pool tuning knobs.
///
/// The fleet is `gangs * gang_size` worker threads.  `PoolConfig::new(n)`
/// is the single-gang configuration (one scheduler, whole-fleet jobs —
/// the historical behaviour); [`PoolConfig::partitioned`] enables
/// job-level parallelism.
///
/// **Choosing a gang size:** a gang is the unit a job occupies, so
/// `gang_size` should match the parallelism one job can actually use.
/// Tiny jobs (point-to-point route queries touching a few hundred
/// vertices) saturate one or two workers and spend the rest of the fleet
/// idling through the quiescence phase — many small gangs serve them at
/// far higher jobs/sec.  Big jobs (whole-graph SSSP) want one gang as wide
/// as the machine.  A job larger than one gang may claim several via
/// [`WorkerPool::run_job_on`], or the whole fleet via
/// [`WorkerPool::run_job`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of independent worker gangs (each with its own scheduler
    /// instance and termination detector).
    pub gangs: usize,
    /// Worker threads per gang.  Must match each gang scheduler's
    /// configured thread count.
    pub gang_size: usize,
    /// The per-worker loop knobs (see [`WorkerLoopConfig`]).
    pub worker: WorkerLoopConfig,
    /// Opt-in instrumentation for every worker (phase accounting,
    /// rank-error probing, event rings).  Disabled by default: the
    /// uninstrumented hot path takes no timestamps and makes no extra
    /// scheduler calls.
    pub telemetry: TelemetryConfig,
    /// Deterministic fault plan injected into every worker — chaos-testing
    /// only, see [`fault::FaultPlan`].
    #[cfg(feature = "fault-inject")]
    pub faults: Option<FaultPlan>,
}

impl PoolConfig {
    /// A single-gang configuration with `threads` workers: every job
    /// occupies the whole fleet, one at a time.
    pub fn new(threads: usize) -> Self {
        Self::partitioned(1, threads)
    }

    /// A configuration with `gangs` gangs of `gang_size` workers each, so
    /// up to `gangs` jobs execute concurrently.
    pub fn partitioned(gangs: usize, gang_size: usize) -> Self {
        Self {
            gangs,
            gang_size,
            worker: WorkerLoopConfig::default(),
            telemetry: TelemetryConfig::disabled(),
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }

    /// Sets the hot-path batch granularity for every worker (see
    /// `smq_runtime::executor::WorkerLoopConfig::batch_size`).  Batch 1
    /// (the default) is the exact historical per-task path; larger batches
    /// amortize scheduler synchronization over the batch.
    pub fn with_batch(mut self, batch_size: usize) -> Self {
        self.worker.batch_size = batch_size.max(1);
        self
    }

    /// Enables the given instrumentation for every worker of the pool (see
    /// [`TelemetryConfig`]).  Job outputs then carry a merged
    /// `TelemetryReport` in their metrics.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Injects a deterministic fault plan into every worker of the pool
    /// (chaos testing — see [`fault::FaultPlan`]).
    #[cfg(feature = "fault-inject")]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Total worker threads across all gangs.
    pub fn total_threads(&self) -> usize {
        self.gangs * self.gang_size
    }
}

/// One job executable on a [`WorkerPool`]: the object-safe core of
/// `smq_algos::engine::DecreaseKeyWorkload`.
///
/// The contract is the same as the engine's: `process` must be correct for
/// any order of task execution, and the job's shared state must make stale
/// tasks detectable (return `false`).
pub trait PoolJob: Sync {
    /// The tasks seeding this job.
    fn seed_tasks(&self) -> Vec<Task>;

    /// Executes one task, pushing follow-up tasks through `push`.  Returns
    /// `true` when the task advanced the job (was *useful*), `false` when
    /// it was stale on arrival (*wasted*).
    fn process(&self, task: Task, push: &mut dyn FnMut(Task), scratch: &mut Scratch) -> bool;
}

/// Accounting from one pool job, and the one run-result type of the
/// workspace: `smq_algos::engine::EngineRun::result` is this struct, so a
/// job on a resident pool and a one-shot engine run report the same fields
/// and the paper's work metrics ([`work_increase`](Self::work_increase),
/// [`wasted_fraction`](Self::wasted_fraction)) are computed in one place.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Wall-clock and scheduler-operation metrics, carved per-job out of
    /// the persistent worker handles via `OpStats::delta_since`.  Covers
    /// exactly the workers of the gangs this job claimed — the job's
    /// metrics slice.
    pub metrics: RunMetrics,
    /// Tasks whose execution advanced the job.
    pub useful_tasks: u64,
    /// Stale tasks (wasted work caused by priority relaxation).
    pub wasted_tasks: u64,
}

impl JobOutput {
    /// Total tasks executed.
    pub fn total_tasks(&self) -> u64 {
        self.useful_tasks + self.wasted_tasks
    }

    /// Work increase relative to a baseline task count (usually the
    /// sequential algorithm's task count): `1.0` means no wasted work.
    pub fn work_increase(&self, baseline_tasks: u64) -> f64 {
        if baseline_tasks == 0 {
            1.0
        } else {
            self.total_tasks() as f64 / baseline_tasks as f64
        }
    }

    /// Fraction of executed tasks that were wasted.
    pub fn wasted_fraction(&self) -> f64 {
        let total = self.total_tasks();
        if total == 0 {
            0.0
        } else {
            self.wasted_tasks as f64 / total as f64
        }
    }
}

/// Point-in-time pool counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads spawned over the pool's entire lifetime.  Equals the
    /// configured fleet size unless a poisoned gang was respawned (each
    /// rebuild spawns `gang_size` fresh threads); at zero faults this is
    /// the metric service tests assert "zero thread respawns" with.
    pub threads_spawned: u64,
    /// Scheduler handles created over the pool's entire lifetime.  Each
    /// worker creates its handle once before its first park and reuses it
    /// for every job, so after warm-up this equals `threads_spawned`: a
    /// 1000-job service run performs **zero** handle allocations past the
    /// first job on each worker.
    pub handles_created: u64,
    /// Jobs fully executed so far (across all gangs).
    pub jobs_completed: u64,
    /// Gangs poisoned by a panicking job, cumulatively — a respawned gang
    /// still counts here (compare with [`gangs_respawned`](Self::gangs_respawned)).
    pub gangs_poisoned: u64,
    /// Poisoned gangs rebuilt with fresh threads and a fresh scheduler from
    /// the pool's factory (see the module docs).
    pub gangs_respawned: u64,
}

/// Reason codes for [`JobControl::reason`] — which limit tripped first.
const CANCEL_DEADLINE: u8 = 1;
const CANCEL_BUDGET: u8 = 2;

/// Shared cancellation state for one limited job, cloned into **every**
/// gang the job claimed so limits are job-wide: whichever worker trips the
/// deadline or budget first cancels the whole job.  Only allocated when the
/// job's [`JobSpec`] carries a limit — unlimited jobs stay on the
/// zero-overhead path.
struct JobControl {
    /// Workers poll this in the shared worker loop; once set they drain
    /// their queues without processing (see `LoopControl::cancel`).
    cancel: AtomicBool,
    /// Which limit tripped (`CANCEL_DEADLINE` / `CANCEL_BUDGET`); written
    /// once, before `cancel` is raised.
    reason: AtomicU8,
    /// Tasks *processed* so far across all of the job's workers.
    budget_used: AtomicU64,
    /// Task budget; 0 = unlimited.
    budget: u64,
    /// Wall-clock deadline, checked every [`Self::CHECK_EVERY`] tasks.
    deadline: Option<Instant>,
}

impl JobControl {
    /// How many processed tasks a worker batches between deadline checks
    /// (`Instant::now` is the only non-trivial cost on the limited path).
    const CHECK_EVERY: u32 = 16;

    fn new(spec: &JobSpec) -> Self {
        Self {
            cancel: AtomicBool::new(false),
            reason: AtomicU8::new(0),
            budget_used: AtomicU64::new(0),
            budget: spec.budget.unwrap_or(0),
            deadline: spec.deadline,
        }
    }

    /// Records one processed task and trips the budget limit when crossed.
    fn note_processed(&self) {
        let used = self.budget_used.fetch_add(1, Ordering::Relaxed) + 1;
        if self.budget != 0 && used >= self.budget {
            self.trip(CANCEL_BUDGET);
        }
    }

    fn check_deadline(&self) {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.trip(CANCEL_DEADLINE);
            }
        }
    }

    /// First tripper wins; the reason is published before the flag so any
    /// reader that observes `cancel` also observes a reason.
    fn trip(&self, reason: u8) {
        if self
            .reason
            .compare_exchange(0, reason, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.cancel.store(true, Ordering::Release);
        }
    }

    fn cancelled_reason(&self) -> Option<JobError> {
        if !self.cancel.load(Ordering::Acquire) {
            return None;
        }
        Some(match self.reason.load(Ordering::Acquire) {
            CANCEL_BUDGET => JobError::BudgetExceeded,
            _ => JobError::DeadlineExceeded,
        })
    }
}

/// Type- and lifetime-erased pointer to one gang's scheduler.  Only the
/// pool's `worker_main_typed` entry dereferences it, casting it back to
/// the scheduler type `S` the constructor that built the pool erased.
///
/// # Safety invariant
/// The pointee must stay alive and unmoved until every worker thread of the
/// owning gang has been joined.  `WorkerPool::new` /
/// `WorkerPool::new_partitioned` guarantee this by boxing the schedulers
/// and joining in `Drop` before the boxes are released;
/// `WorkerPool::with_borrowed` by joining before the borrow ends.
#[derive(Clone, Copy)]
struct SchedulerRef(*const ());
// SAFETY: the pointee is `Sync` (required by `Scheduler`) and the pointer
// is only dereferenced while the invariant above holds.
unsafe impl Send for SchedulerRef {}
unsafe impl Sync for SchedulerRef {}

/// Lifetime-erased pointer to a job currently being executed.
///
/// # Safety invariant
/// Valid only while some claimed gang still runs the publishing job:
/// `execute` blocks until every worker of every claimed gang has finished
/// (or abandoned) the job before its `&dyn PoolJob` borrow ends.
#[derive(Clone, Copy)]
struct JobRef(*const (dyn PoolJob + 'static));
// SAFETY: the pointee is `Sync` and only dereferenced under the invariant.
unsafe impl Send for JobRef {}
unsafe impl Sync for JobRef {}

/// What one worker reports back after finishing its share of a job.
struct WorkerResult {
    executed: u64,
    scans: u64,
    useful: u64,
    wasted: u64,
    stats: OpStats,
    telemetry: Option<WorkerReport>,
}

/// One gang's job hand-off slot; its workers park on it.
struct JobState {
    /// Monotone job sequence number; workers track the last one they ran.
    seq: u64,
    /// The job being executed, `None` while the gang is idle.
    job: Option<JobRef>,
    /// Per-worker (local tid) seed slices for the current job, taken once.
    seeds: Vec<Option<Vec<Task>>>,
    /// Shared limit state of the current job (`None` for unlimited jobs).
    control: Option<Arc<JobControl>>,
    /// Workers still running the current job.
    remaining: usize,
    /// Per-worker results of the current job.
    results: Vec<Option<WorkerResult>>,
    /// Set when a worker panicked mid-job; the gang is retired (and, on
    /// factory pools, later respawned).
    poisoned: bool,
    /// Set once per thread generation; parked workers exit instead of
    /// waiting for the next job.  Cleared again by a respawn.
    shutdown: bool,
}

impl JobState {
    /// The idle state fresh worker threads expect: `seq` restarts at 0 so a
    /// respawned gang's workers (whose `last_seq` starts at 0) never see a
    /// phantom job from before the rebuild.
    fn fresh(size: usize) -> Self {
        Self {
            seq: 0,
            job: None,
            seeds: Vec::new(),
            control: None,
            remaining: 0,
            results: (0..size).map(|_| None).collect(),
            poisoned: false,
            shutdown: false,
        }
    }
}

/// One independent worker gang: scheduler, detector, and hand-off state.
struct Gang {
    size: usize,
    /// The gang's scheduler; replaced wholesale on respawn.  Workers read
    /// it exactly once, at thread start.
    scheduler: Mutex<SchedulerRef>,
    /// Owns the pointee of `scheduler` for owning pools (`None` when the
    /// scheduler is borrowed).  Only ever replaced *after* every thread of
    /// the previous generation is joined, so the erased pointer cannot
    /// dangle.
    keeper: Mutex<Option<Box<dyn std::any::Any + Send + Sync>>>,
    /// Join handles of this gang's current worker threads.
    threads: Mutex<Vec<JoinHandle<()>>>,
    detector: TerminationDetector,
    state: Mutex<JobState>,
    /// Workers wait here for `seq` to advance (or `shutdown`).
    job_ready: Condvar,
    /// The coordinator waits here for `remaining` to hit zero.
    job_done: Condvar,
    /// Set when a worker of this gang dies mid-job.  A dead worker's
    /// thread-local queues can strand tasks nobody else may serve, so
    /// quiescence would never be reached — survivors poll this in the
    /// worker loop's empty-pop path and bail out instead of spinning
    /// forever.
    aborted: AtomicBool,
}

/// The FIFO gang allocator's shared state.
struct ClaimState {
    /// Indices of idle, live gangs.
    free: Vec<usize>,
    /// Indices of gangs retired by a job panic, awaiting respawn (or
    /// permanently dead on pools that cannot respawn).
    dead: Vec<usize>,
    /// Gangs poisoned over the pool's lifetime (cumulative — respawning a
    /// gang does not un-count its poisoning).
    poisoned_total: u64,
    /// Poisoned gangs rebuilt over the pool's lifetime.
    respawned_total: u64,
    /// FIFO admission: tickets are served strictly in issue order, so a
    /// whole-fleet job cannot be starved by a stream of one-gang jobs.
    next_ticket: u64,
    now_serving: u64,
}

/// The per-worker thread entry installed by the constructor:
/// `worker_main_typed` for the pool's scheduler type.  The signature
/// mentions no scheduler type, so the non-generic pool can store it and
/// respawns can reuse it.
type WorkerEntry = fn(&Arc<Inner>, usize, usize);

/// Rebuilds one gang's scheduler: returns the erased ref and the box that
/// owns its pointee.  Stored by factory constructors so poisoned gangs can
/// be respawned with a fresh scheduler.
type RespawnFactory =
    Box<dyn Fn(usize) -> (SchedulerRef, Box<dyn std::any::Any + Send + Sync>) + Send + Sync>;

struct Inner {
    gangs: Vec<Gang>,
    loop_config: WorkerLoopConfig,
    /// The fleet-wide instrumentation configuration (disabled by default).
    telemetry: TelemetryConfig,
    /// Construction instant shared by every worker's trace lane, so all
    /// lanes of the pool's lifetime sit on one clock.
    origin: Instant,
    claims: Mutex<ClaimState>,
    /// Claimers wait here for their turn and for enough free gangs.
    claim_ready: Condvar,
    /// Scheduler handles created over the pool's lifetime.  Each worker
    /// creates its handle exactly once, before its first park, and keeps it
    /// across every job — so after warm-up this equals the fleet size and
    /// never grows again (the service tests' "zero handle allocations after
    /// warm-up" metric, companion to `PoolStats::threads_spawned`).
    handles_created: AtomicU64,
    /// Worker threads spawned over the pool's lifetime (fleet size, plus
    /// `gang_size` per respawn).
    threads_spawned: AtomicU64,
    /// The thread entry every worker of this pool runs.
    entry: WorkerEntry,
    /// Present on factory-built pools: how to rebuild a gang's scheduler.
    respawn_factory: Option<RespawnFactory>,
    /// Deterministic fault schedule shared by every worker (chaos testing).
    #[cfg(feature = "fault-inject")]
    faults: Option<FaultPlan>,
}

/// Ignore `std` mutex poisoning: the pool has its own `poisoned` flags with
/// precise semantics, and state reads are safe after a panic.
fn lock<T>(state: &Mutex<T>) -> MutexGuard<'_, T> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// The accounting of the last job `execute` finished *on this thread*
    /// (trace lanes stripped).  The job service brackets each job with
    /// [`clear_last_job_output`]/[`take_last_job_output`] to attach the
    /// per-job metrics delta to its [`JobCompletion`] without changing the
    /// user-facing job-closure signature.
    static LAST_JOB_OUTPUT: std::cell::RefCell<Option<JobOutput>> =
        const { std::cell::RefCell::new(None) };
}

/// Drops any stale capture left by a previous job on this thread.
pub(crate) fn clear_last_job_output() {
    LAST_JOB_OUTPUT.with(|slot| slot.borrow_mut().take());
}

/// Takes the capture published by the most recent `execute` on this thread.
pub(crate) fn take_last_job_output() -> Option<JobOutput> {
    LAST_JOB_OUTPUT.with(|slot| slot.borrow_mut().take())
}

thread_local! {
    /// The typed error of the last failed `run_job*` call *on this thread*.
    /// The job service brackets each job with [`clear_last_job_error`] /
    /// [`take_last_job_error`] so it can classify a failure (lost vs.
    /// cancelled vs. no capacity) even when the user's closure swallows or
    /// unwraps the `Result` itself.
    static LAST_JOB_ERROR: std::cell::Cell<Option<JobError>> = const { std::cell::Cell::new(None) };

    /// The [`JobSpec`] `run_job`/`run_job_on` calls on this thread apply.
    /// Set by the service dispatcher around a limited job's closure, so the
    /// user-facing closure signature (`|pool| pool.run_job(..)`) stays
    /// spec-free.
    static CURRENT_JOB_SPEC: std::cell::Cell<JobSpec> = const { std::cell::Cell::new(JobSpec {
        deadline: None,
        budget: None,
    }) };
}

/// Drops any stale error left by a previous job on this thread.
pub(crate) fn clear_last_job_error() {
    LAST_JOB_ERROR.with(|slot| slot.set(None));
}

/// Takes the error recorded by the most recent failed `run_job*`.
pub(crate) fn take_last_job_error() -> Option<JobError> {
    LAST_JOB_ERROR.with(|slot| slot.take())
}

/// Installs the spec `run_job`/`run_job_on` on this thread will apply.
pub(crate) fn set_current_job_spec(spec: JobSpec) {
    CURRENT_JOB_SPEC.with(|slot| slot.set(spec));
}

/// Resets this thread's ambient spec to unlimited.
pub(crate) fn clear_current_job_spec() {
    CURRENT_JOB_SPEC.with(|slot| slot.set(JobSpec::default()));
}

fn current_job_spec() -> JobSpec {
    CURRENT_JOB_SPEC.with(|slot| slot.get())
}

/// Gangs held by one job; returns live gangs to the allocator on drop (also
/// on unwind) and retires poisoned ones (a factory pool respawns them at
/// the next claim).
struct GangClaim<'p> {
    inner: &'p Arc<Inner>,
    gangs: Vec<usize>,
}

impl Drop for GangClaim<'_> {
    fn drop(&mut self) {
        let inner = self.inner;
        let mut st = lock(&inner.claims);
        for &g in &self.gangs {
            if lock(&inner.gangs[g].state).poisoned {
                st.poisoned_total += 1;
                st.dead.push(g);
            } else {
                st.free.push(g);
            }
        }
        // Wake every waiter: the head ticket re-checks its gang count, and
        // if all gangs just died for good, everyone observes that and fails.
        inner.claim_ready.notify_all();
    }
}

/// Rebuilds one poisoned gang: joins the previous thread generation, swaps
/// in a fresh scheduler from the pool's factory, resets the hand-off state,
/// and spawns `gang_size` fresh threads.  Called with the claims lock held
/// (`st`); the gang must be off both the free and dead lists.
fn respawn_gang(inner: &Arc<Inner>, st: &mut ClaimState, g: usize) {
    let factory = inner
        .respawn_factory
        .as_ref()
        .expect("respawn requires a scheduler factory");
    let gang = &inner.gangs[g];
    // Drain the survivors: a poisoned gang's live workers are parked (their
    // completion guards already ran), so a gang-local shutdown flag plus a
    // wake is all it takes for them to exit.  The panicked worker's handle
    // reports `Err` from `join`; just reap it.
    {
        let mut gst = lock(&gang.state);
        gst.shutdown = true;
        gang.job_ready.notify_all();
    }
    for handle in lock(&gang.threads).drain(..) {
        let _ = handle.join();
    }
    // Every old thread is gone, so the old scheduler (possibly left mid-op
    // by the panic) can be dropped and replaced.  Order matters: the old
    // keeper must outlive the joins above, never the other way around.
    let (scheduler, keeper) = factory(g);
    *lock(&gang.scheduler) = scheduler;
    *lock(&gang.keeper) = Some(keeper);
    *lock(&gang.state) = JobState::fresh(gang.size);
    gang.aborted.store(false, Ordering::Release);
    // A fresh generation also zeroes the detector counters the panicked
    // job left unbalanced.
    gang.detector.advance_generation();
    spawn_gang_threads(inner, g);
    st.respawned_total += 1;
    st.free.push(g);
}

/// Spawns `gang_size` worker threads for gang `gang_idx`, registering their
/// handles on the gang.  On a spawn failure the whole fleet (every gang's
/// already-running threads) is shut down and joined *before* unwinding:
/// without that, live workers could outlive the (possibly borrowed) erased
/// scheduler pointers — a use-after-free, not just a leak.
fn spawn_gang_threads(inner: &Arc<Inner>, gang_idx: usize) {
    let gang = &inner.gangs[gang_idx];
    for local in 0..gang.size {
        let name = format!("smq-pool-{gang_idx}-{local}");
        let worker_inner = Arc::clone(inner);
        let entry = inner.entry;
        match std::thread::Builder::new()
            .name(name)
            .spawn(move || entry(&worker_inner, gang_idx, local))
        {
            Ok(handle) => {
                lock(&gang.threads).push(handle);
                inner.threads_spawned.fetch_add(1, Ordering::Relaxed);
            }
            Err(error) => {
                for g in &inner.gangs {
                    let mut gst = lock(&g.state);
                    gst.shutdown = true;
                    g.job_ready.notify_all();
                }
                for g in &inner.gangs {
                    for handle in lock(&g.threads).drain(..) {
                        let _ = handle.join();
                    }
                }
                panic!("failed to spawn pool worker {gang_idx}-{local}: {error}");
            }
        }
    }
}

/// A resident fleet of worker threads, partitioned into gangs, executing a
/// stream of [`PoolJob`]s against long-lived schedulers.
///
/// Workers are spawned once at construction and parked between jobs;
/// [`run_job`](Self::run_job) wakes the whole fleet for one job, while
/// [`run_job_on`](Self::run_job_on) occupies only a few gangs so that up to
/// `gangs` jobs run concurrently.  Queueing and multi-client admission live
/// in [`JobService`].
pub struct WorkerPool {
    inner: Arc<Inner>,
    jobs_completed: AtomicU64,
}

/// Checks that `scheduler` is sized for a gang of `gang_size` workers, then
/// erases it to the thin pointer `worker_main_typed::<S>` casts back.
fn erase<S: Scheduler<Task>>(scheduler: &S, gang_size: usize, gang: usize) -> SchedulerRef {
    assert_eq!(
        gang_size,
        scheduler.num_threads(),
        "gang {gang}: pool gang size must match the scheduler's thread count"
    );
    SchedulerRef((scheduler as *const S).cast())
}

/// Erases one freshly built scheduler: the ref points into the box, and the
/// box (the *keeper*) must outlive every thread that dereferences the ref.
fn erase_owned<S>(
    scheduler: S,
    gang_size: usize,
    gang: usize,
) -> (SchedulerRef, Box<dyn std::any::Any + Send + Sync>)
where
    S: Scheduler<Task> + Send + Sync + 'static,
{
    let boxed: Box<S> = Box::new(scheduler);
    (erase(&*boxed, gang_size, gang), boxed)
}

impl WorkerPool {
    /// Spawns a single-gang resident pool owning `scheduler`.
    ///
    /// The scheduler lives as long as the pool.  Requires
    /// `config.gangs == 1` (one scheduler serves exactly one gang) — build
    /// multi-gang pools with [`new_partitioned`](Self::new_partitioned).
    /// No factory means no respawn: a poisoned gang stays dead.
    pub fn new<S>(scheduler: S, config: PoolConfig) -> WorkerPool
    where
        S: Scheduler<Task> + Send + Sync + 'static,
    {
        assert_eq!(
            config.gangs, 1,
            "WorkerPool::new builds a single-gang pool; use new_partitioned for {} gangs",
            config.gangs
        );
        let (sref, keeper) = erase_owned(scheduler, config.gang_size, 0);
        Self::spawn::<S>(vec![(sref, Some(keeper))], None, config)
    }

    /// Spawns a pool of `config.gangs` gangs, building each gang's
    /// scheduler with `factory(gang_index)`.
    ///
    /// Every scheduler must be configured for `config.gang_size` threads —
    /// a gang is an independent scheduler universe sized to its workers.
    /// The factory is retained for the pool's lifetime so poisoned gangs
    /// can be **respawned** with a fresh scheduler (see the module docs),
    /// which is why it must be `Fn + Send + Sync + 'static`.
    pub fn new_partitioned<S, F>(factory: F, config: PoolConfig) -> WorkerPool
    where
        S: Scheduler<Task> + Send + Sync + 'static,
        F: Fn(usize) -> S + Send + Sync + 'static,
    {
        let gang_size = config.gang_size;
        let make: RespawnFactory = Box::new(move |g| erase_owned(factory(g), gang_size, g));
        let schedulers: Vec<_> = (0..config.gangs)
            .map(|g| {
                let (sref, keeper) = make(g);
                (sref, Some(keeper))
            })
            .collect();
        Self::spawn::<S>(schedulers, Some(make), config)
    }

    /// Runs `f` against a transient single-gang pool built on a *borrowed*
    /// scheduler, joining every worker before returning (also on unwind).
    ///
    /// This is the scoped mode behind one-shot `engine::run_parallel` calls:
    /// same worker-loop semantics as the resident pool, without requiring
    /// `'static` ownership of the scheduler.
    pub fn with_borrowed<S, R>(
        scheduler: &S,
        config: PoolConfig,
        f: impl FnOnce(&WorkerPool) -> R,
    ) -> R
    where
        S: Scheduler<Task>,
    {
        assert_eq!(config.gangs, 1, "with_borrowed builds a single-gang pool");
        // The erased pointer outlives every dereference because the pool
        // joins all workers before this function returns: on the happy path
        // via the explicit `shutdown`, on unwind via `Drop`.  `f` only
        // receives `&WorkerPool`, so the pool cannot escape or be leaked.
        let sref = erase(scheduler, config.gang_size, 0);
        let mut pool = Self::spawn::<S>(vec![(sref, None)], None, config);
        let result = f(&pool);
        pool.shutdown();
        result
    }

    /// Builds the gangs around size-checked schedulers and spawns every
    /// worker on `worker_main_typed::<S>`, which casts each ref back to an
    /// `S`: every ref in `schedulers`, and every ref `respawn_factory`
    /// returns, must have been erased from an `S`.
    fn spawn<S: Scheduler<Task>>(
        schedulers: Vec<(SchedulerRef, Option<Box<dyn std::any::Any + Send + Sync>>)>,
        respawn_factory: Option<RespawnFactory>,
        config: PoolConfig,
    ) -> WorkerPool {
        assert!(config.gangs >= 1, "need at least one gang");
        assert!(config.gang_size >= 1, "need at least one worker per gang");
        assert_eq!(schedulers.len(), config.gangs, "one scheduler per gang");

        let gangs: Vec<Gang> = schedulers
            .into_iter()
            .map(|(scheduler, keeper)| Gang {
                size: config.gang_size,
                scheduler: Mutex::new(scheduler),
                keeper: Mutex::new(keeper),
                threads: Mutex::new(Vec::with_capacity(config.gang_size)),
                detector: TerminationDetector::new(config.gang_size),
                state: Mutex::new(JobState::fresh(config.gang_size)),
                job_ready: Condvar::new(),
                job_done: Condvar::new(),
                aborted: AtomicBool::new(false),
            })
            .collect();

        let inner = Arc::new(Inner {
            claims: Mutex::new(ClaimState {
                free: (0..gangs.len()).collect(),
                dead: Vec::new(),
                poisoned_total: 0,
                respawned_total: 0,
                next_ticket: 0,
                now_serving: 0,
            }),
            claim_ready: Condvar::new(),
            loop_config: config.worker.clone(),
            telemetry: config.telemetry.clone(),
            origin: Instant::now(),
            handles_created: AtomicU64::new(0),
            threads_spawned: AtomicU64::new(0),
            entry: worker_main_typed::<S>,
            respawn_factory,
            #[cfg(feature = "fault-inject")]
            faults: config.faults.clone(),
            gangs,
        });

        for gang in 0..config.gangs {
            spawn_gang_threads(&inner, gang);
        }

        WorkerPool {
            inner,
            jobs_completed: AtomicU64::new(0),
        }
    }

    /// Total number of resident worker threads (all gangs).
    pub fn threads(&self) -> usize {
        self.inner.gangs.iter().map(|g| g.size).sum()
    }

    /// Number of worker gangs (the maximum number of concurrent jobs).
    pub fn gangs(&self) -> usize {
        self.inner.gangs.len()
    }

    /// Workers per gang.
    pub fn gang_size(&self) -> usize {
        self.inner.gangs[0].size
    }

    /// Gangs not currently retired by a job panic (on factory pools the
    /// next claim respawns retired gangs — see the module docs).
    pub fn live_gangs(&self) -> usize {
        let st = lock(&self.inner.claims);
        self.inner.gangs.len() - st.dead.len()
    }

    /// Lifetime counters: threads spawned (fleet size, plus `gang_size` per
    /// gang respawn), jobs completed, gangs lost to job panics, and gangs
    /// rebuilt afterwards.
    pub fn stats(&self) -> PoolStats {
        let st = lock(&self.inner.claims);
        PoolStats {
            threads_spawned: self.inner.threads_spawned.load(Ordering::Relaxed),
            handles_created: self.inner.handles_created.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            gangs_poisoned: st.poisoned_total,
            gangs_respawned: st.respawned_total,
        }
    }

    /// Forces an immediate rebuild of every dead gang (factory pools only);
    /// returns how many were respawned.  Factory pools do this implicitly at
    /// the next claim — this entry point exists so tests and benchmarks can
    /// restore full capacity at a deterministic moment.
    pub fn respawn_dead(&self) -> usize {
        if self.inner.respawn_factory.is_none() {
            return 0;
        }
        let mut st = lock(&self.inner.claims);
        let mut rebuilt = 0;
        while let Some(g) = st.dead.pop() {
            respawn_gang(&self.inner, &mut st, g);
            rebuilt += 1;
        }
        if rebuilt > 0 {
            self.inner.claim_ready.notify_all();
        }
        rebuilt
    }

    /// Claims `want` gangs (capped to the live gang count) in strict FIFO
    /// order.  Blocks until this caller is at the head of the queue *and*
    /// enough gangs are idle.  On factory pools dead gangs are respawned
    /// here first, so capacity recovers before admission is decided.
    ///
    /// Fails with [`JobError::NoCapacity`] when every gang is dead and none
    /// can be respawned.  That state is *permanent* (only a panic kills a
    /// gang, only a factory revives one), so failing every waiter — ticket
    /// order notwithstanding — is sound: no later ticket could ever be
    /// served either.
    fn claim(&self, want: usize) -> Result<GangClaim<'_>, JobError> {
        let inner = &self.inner;
        let mut st = lock(&inner.claims);
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        loop {
            if inner.respawn_factory.is_some() {
                let mut respawned = false;
                while let Some(g) = st.dead.pop() {
                    respawn_gang(inner, &mut st, g);
                    respawned = true;
                }
                if respawned {
                    // Freed capacity may unblock the head ticket, which is
                    // not necessarily us.
                    inner.claim_ready.notify_all();
                }
            }
            let live = inner.gangs.len() - st.dead.len();
            if live == 0 {
                return Err(JobError::NoCapacity);
            }
            let need = want.clamp(1, live);
            if st.now_serving == ticket && st.free.len() >= need {
                let at = st.free.len() - need;
                let taken = st.free.split_off(at);
                st.now_serving += 1;
                // The next ticket may already be satisfiable (enough gangs
                // still free): let it through without waiting for a release.
                inner.claim_ready.notify_all();
                return Ok(GangClaim {
                    inner,
                    gangs: taken,
                });
            }
            st = inner
                .claim_ready
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Executes one job on the **whole fleet** (every live gang) and
    /// returns its accounting.
    ///
    /// Blocks until the job is quiescent.  Concurrent callers are admitted
    /// in FIFO order; on a single-gang pool this is exactly the historical
    /// one-job-at-a-time behaviour.  A panicking job poisons the gangs it
    /// ran on and resolves to [`Err(JobError::Lost)`](JobError::Lost) —
    /// other gangs and callers are unaffected (see the module docs).
    ///
    /// Applies the ambient [`JobSpec`] installed by the service dispatcher,
    /// if any; direct callers run unlimited (use
    /// [`run_job_with`](Self::run_job_with) for explicit limits).
    pub fn run_job(&self, job: &dyn PoolJob) -> Result<JobOutput, JobError> {
        let spec = current_job_spec();
        self.run_job_with(job, self.inner.gangs.len(), &spec)
    }

    /// Executes one job on up to `gangs` gangs (at least one; capped to the
    /// live gang count), leaving the rest of the fleet free for concurrent
    /// jobs.
    ///
    /// `run_job_on(job, 1)` is the service mode for small jobs: each
    /// occupies one gang, so a pool with G gangs serves G jobs at once.
    pub fn run_job_on(&self, job: &dyn PoolJob, gangs: usize) -> Result<JobOutput, JobError> {
        let spec = current_job_spec();
        self.run_job_with(job, gangs, &spec)
    }

    /// Executes one job on up to `gangs` gangs under the given limits: the
    /// job is cooperatively cancelled — not poisoned — if it outlives
    /// `spec.deadline` or processes more than `spec.budget` tasks (see the
    /// module docs).
    pub fn run_job_with(
        &self,
        job: &dyn PoolJob,
        gangs: usize,
        spec: &JobSpec,
    ) -> Result<JobOutput, JobError> {
        assert!(gangs >= 1, "a job needs at least one gang");
        let result = self.run_job_inner(job, gangs, spec);
        if let Err(error) = result {
            // Publish the typed error for the service dispatcher, which
            // classifies outcomes even when the user closure discards the
            // `Result` (see `LAST_JOB_ERROR`).
            LAST_JOB_ERROR.with(|slot| slot.set(Some(error)));
        }
        result
    }

    fn run_job_inner(
        &self,
        job: &dyn PoolJob,
        gangs: usize,
        spec: &JobSpec,
    ) -> Result<JobOutput, JobError> {
        if spec
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            // Already over-deadline: shed without claiming any capacity.
            return Err(JobError::DeadlineExceeded);
        }
        let claim = self.claim(gangs)?;
        self.execute(job, &claim, spec)
    }

    /// Runs `job` on the claimed gangs: seeds split round-robin across all
    /// participating workers, every gang runs to quiescence under a fresh
    /// detector generation, results are merged into one metrics slice.
    fn execute(
        &self,
        job: &dyn PoolJob,
        claim: &GangClaim<'_>,
        spec: &JobSpec,
    ) -> Result<JobOutput, JobError> {
        let inner = &*self.inner;
        // One shared control for the whole job (all claimed gangs), so
        // whichever worker trips a limit cancels the job everywhere.
        // Unlimited jobs allocate nothing and keep the historic hot path.
        let control: Option<Arc<JobControl>> = if spec.is_unlimited() {
            None
        } else {
            Some(Arc::new(JobControl::new(spec)))
        };
        let gang_idxs = &claim.gangs;
        let total_workers: usize = gang_idxs.iter().map(|&g| inner.gangs[g].size).sum();

        // Split the seeds round-robin over every participating worker so
        // each seeds its own queues.
        // (gang, local tid) pairs in a fixed order define the mapping.
        let mut seeds: Vec<Vec<Task>> = (0..total_workers).map(|_| Vec::new()).collect();
        for (i, task) in job.seed_tasks().into_iter().enumerate() {
            seeds[i % total_workers].push(task);
        }

        // SAFETY: `execute` does not return before every worker of every
        // claimed gang finished (or abandoned) this job, so the erased
        // borrow outlives all uses.
        let job_ref = JobRef(unsafe {
            std::mem::transmute::<*const dyn PoolJob, *const (dyn PoolJob + 'static)>(
                job as *const dyn PoolJob,
            )
        });

        let start = Instant::now();
        let mut seeds = seeds.into_iter();
        for &g in gang_idxs {
            let gang = &inner.gangs[g];
            // Fresh termination generation for this job: the gang was idle
            // (it came off the free list), so all its workers are parked
            // and zeroing the counters races nothing; stale tallies from
            // the previous job cannot leak in (they assert in debug builds,
            // and a scan spanning the reset invalidates itself).
            gang.detector.advance_generation();
            let gang_seeds: Vec<Vec<Task>> = (0..gang.size)
                .map(|_| seeds.next().expect("seed split covers every worker"))
                .collect();
            for (local, seed) in gang_seeds.iter().enumerate() {
                gang.detector.preload(local, seed.len() as u64);
            }
            let mut st = lock(&gang.state);
            debug_assert!(!st.poisoned, "claimed a poisoned gang");
            assert!(!st.shutdown, "worker pool is shut down");
            st.seq += 1;
            st.job = Some(job_ref);
            st.seeds = gang_seeds.into_iter().map(Some).collect();
            st.control = control.clone();
            st.remaining = gang.size;
            st.results = (0..gang.size).map(|_| None).collect();
            gang.job_ready.notify_all();
        }

        let mut results: Vec<WorkerResult> = Vec::with_capacity(total_workers);
        let mut any_poisoned = false;
        for &g in gang_idxs {
            let gang = &inner.gangs[g];
            let mut st = lock(&gang.state);
            while st.remaining > 0 {
                st = gang.job_done.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.poisoned {
                any_poisoned = true;
            } else {
                results.extend(
                    st.results
                        .iter_mut()
                        .map(|slot| slot.take().expect("worker finished without a result")),
                );
            }
        }
        // The claim guard (dropped by our caller, also on early returns)
        // retires the poisoned gangs and frees the rest.  Poison takes
        // precedence over cancellation: a job that both tripped a limit
        // and killed a worker is *lost*, not cleanly cancelled.
        if any_poisoned {
            return Err(JobError::Lost);
        }
        if let Some(reason) = control.as_deref().and_then(JobControl::cancelled_reason) {
            // The workers drained to quiescence discarding tasks, so the
            // gangs are clean and immediately reusable; the partial work
            // (and its metrics) is discarded with the job.
            return Err(reason);
        }
        let elapsed = start.elapsed();
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);

        let per_thread: Vec<OpStats> = results.iter().map(|r| r.stats.clone()).collect();
        let total = OpStats::merged(per_thread.iter());
        // Lock-free merge after join: each worker's report was accumulated
        // in plain per-worker state; absorbing them here is the only point
        // the pieces meet.
        let telemetry = if inner.telemetry.is_enabled() {
            let mut report = TelemetryReport::new();
            for result in &mut results {
                if let Some(worker) = result.telemetry.take() {
                    report.absorb(worker);
                }
            }
            Some(report)
        } else {
            None
        };
        let output = JobOutput {
            metrics: RunMetrics {
                elapsed,
                threads: total_workers,
                tasks_executed: results.iter().map(|r| r.executed).sum(),
                quiescence_scans: results.iter().map(|r| r.scans).sum(),
                per_thread,
                total,
                telemetry,
            },
            useful_tasks: results.iter().map(|r| r.useful).sum(),
            wasted_tasks: results.iter().map(|r| r.wasted).sum(),
        };
        // Publish a capture for the job service (same thread ran `execute`),
        // so `JobCompletion` can carry the per-job metrics delta.  Trace
        // lanes are stripped from the capture — completions keep the cheap
        // aggregates (phase times, rank histogram), not event rings.
        LAST_JOB_OUTPUT.with(|slot| {
            let capture = JobOutput {
                metrics: RunMetrics {
                    elapsed: output.metrics.elapsed,
                    threads: output.metrics.threads,
                    tasks_executed: output.metrics.tasks_executed,
                    quiescence_scans: output.metrics.quiescence_scans,
                    per_thread: output.metrics.per_thread.clone(),
                    total: output.metrics.total.clone(),
                    telemetry: output.metrics.telemetry.as_ref().map(|r| TelemetryReport {
                        phases: r.phases.clone(),
                        rank_errors: r.rank_errors.clone(),
                        lanes: Vec::new(),
                    }),
                },
                useful_tasks: output.useful_tasks,
                wasted_tasks: output.wasted_tasks,
            };
            *slot.borrow_mut() = Some(capture);
        });
        Ok(output)
    }

    /// Stops accepting jobs and joins every worker thread.  Called
    /// automatically on drop; idempotent.
    ///
    /// Requires `&mut self`, so no job can be in flight (every `run_job*`
    /// caller borrows the pool shared) — accepted work always drains before
    /// the fleet is torn down.
    pub fn shutdown(&mut self) {
        for gang in &self.inner.gangs {
            let mut st = lock(&gang.state);
            st.shutdown = true;
            gang.job_ready.notify_all();
        }
        for gang in &self.inner.gangs {
            for worker in lock(&gang.threads).drain(..) {
                // A worker that panicked mid-job reports `Err` here; its
                // gang is already marked poisoned, so just reap the thread.
                let _ = worker.join();
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
        // The per-gang keepers drop with `inner` after every thread is
        // joined, so no erased scheduler pointer can dangle.
    }
}

/// Decrements `remaining` when the worker leaves the job for any reason; a
/// missing result means the job's `process` panicked, which poisons the
/// gang instead of deadlocking the coordinator.  (The other half of the
/// no-deadlock guarantee lives in `worker_loop`: the in-flight task's
/// completion is recorded even on unwind, so surviving workers can still
/// reach quiescence and publish their results.)
struct CompletionGuard<'a> {
    gang: &'a Gang,
    local: usize,
    result: Option<WorkerResult>,
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.gang.state);
        if self.result.is_none() {
            st.poisoned = true;
            // Tell this gang's surviving workers to stop waiting for a
            // quiescence that may now be unreachable (tasks stranded in our
            // local queues).
            self.gang.aborted.store(true, Ordering::Release);
        }
        st.results[self.local] = self.result.take();
        st.remaining -= 1;
        if st.remaining == 0 {
            st.job = None;
            st.control = None;
            self.gang.job_done.notify_all();
        }
    }
}

/// The worker entry every pool installs: recovers the concrete scheduler
/// type `S`, so the handle lives on the worker's stack and every hot-path
/// scheduler call in `worker_loop` is a direct (typically inlined) call —
/// no `Box`, no vtable.  Parks between jobs and runs each job published on
/// its gang until shutdown.
fn worker_main_typed<S: Scheduler<Task>>(inner: &Arc<Inner>, gang_idx: usize, local: usize) {
    let gang = &inner.gangs[gang_idx];
    // Read once at thread start: the ref is only ever replaced by a respawn,
    // which joins this whole thread generation first.
    let sref = *lock(&gang.scheduler);
    // SAFETY: the constructor that installed this entry built every gang's
    // scheduler as an `S` (the erased pointer's pointee), and the pool
    // joins this thread before invalidating it (see `SchedulerRef`).
    let scheduler: &S = unsafe { &*sref.0.cast::<S>() };
    // One handle and one scratch arena for the thread's whole life: local
    // queues, insert buffers, and scratch capacity all persist across jobs.
    let mut handle = scheduler.handle(local);
    inner.handles_created.fetch_add(1, Ordering::Relaxed);
    let mut scratch = Scratch::new();
    let mut last_seq = 0u64;
    // The OS thread name doubles as the trace-lane label, so timelines show
    // `smq-pool-0-1`-style identities.  Shared `Arc<str>`: one
    // allocation for the thread's lifetime, not one per instrumented job.
    let worker_name: std::sync::Arc<str> = std::thread::current()
        .name()
        .map(std::sync::Arc::from)
        .unwrap_or_else(|| std::sync::Arc::from(format!("smq-pool-{gang_idx}-{local}").as_str()));
    // When this worker last went idle: backdates the inter-job Park span so
    // traces show parked gaps between jobs instead of missing time.
    let mut idle_since = Instant::now();

    loop {
        // Park until a new job (or shutdown) arrives on this gang.
        let (job_ref, seeds, seq, control) = {
            let mut st = lock(&gang.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.seq > last_seq {
                    let job_ref = st.job.expect("job published without a body");
                    let seeds = st.seeds[local].take().expect("seed slice taken twice");
                    break (job_ref, seeds, st.seq, st.control.clone());
                }
                st = gang.job_ready.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        last_seq = seq;

        let mut guard = CompletionGuard {
            gang,
            local,
            result: None,
        };

        // SAFETY: valid until this worker's guard decrements `remaining`
        // (see `JobRef`).
        let job: &dyn PoolJob = unsafe { &*job_ref.0 };
        let stats_before = handle.stats();
        let mut tally = gang.detector.tally(local);
        // `None` when telemetry is disabled: the loop below then runs the
        // exact uninstrumented path (no timestamps, no extra handle calls).
        let mut telemetry = WorkerTelemetry::begin(
            &inner.telemetry,
            worker_name.clone(),
            inner.origin,
            Some(idle_since),
        );
        // Seeds were pre-credited by the coordinator; pushing them needs no
        // recording.  Above batch size 1 a single batch call makes the
        // whole seed slice visible; at batch 1 the per-task path is kept so
        // the default configuration stays bit-identical to the historical
        // behavior, stats included.
        let mut seeds = seeds;
        if inner.loop_config.batch_size > 1 {
            handle.push_batch(&mut seeds);
        } else {
            for task in seeds.drain(..) {
                handle.push(task);
            }
        }
        handle.flush();

        let mut useful = 0u64;
        let mut wasted = 0u64;
        // Limited jobs pay one relaxed fetch-add per task plus a clock read
        // every CHECK_EVERY tasks; unlimited jobs skip the whole block.
        let mut since_check = 0u32;
        #[cfg(feature = "fault-inject")]
        let faults = inner.faults.as_ref();
        let outcome = worker_loop(
            &mut handle,
            &gang.detector,
            &mut tally,
            &mut scratch,
            &inner.loop_config,
            LoopControl {
                abort: Some(&gang.aborted),
                cancel: control.as_ref().map(|c| &c.cancel),
            },
            telemetry.as_mut(),
            |task, sink, scratch| {
                #[cfg(feature = "fault-inject")]
                let mut panic_in_push = false;
                #[cfg(feature = "fault-inject")]
                if let Some(plan) = faults {
                    match plan.next_action() {
                        Some(fault::FaultAction::Panic) => {
                            panic!("injected fault: worker panic")
                        }
                        Some(fault::FaultAction::Stall(wait)) => std::thread::sleep(wait),
                        Some(fault::FaultAction::PanicInPush) => panic_in_push = true,
                        None => {}
                    }
                }
                {
                    let mut push = |t: Task| {
                        sink.push(t);
                        #[cfg(feature = "fault-inject")]
                        if panic_in_push {
                            // Fires *after* the follow-up is published —
                            // the mid-scheduler-op unwind path.
                            panic!("injected fault: panic mid scheduler push")
                        }
                    };
                    if job.process(task, &mut push, scratch) {
                        useful += 1;
                    } else {
                        wasted += 1;
                    }
                }
                #[cfg(feature = "fault-inject")]
                if panic_in_push {
                    // The task pushed nothing; fire the claimed budget
                    // anyway so injected counts match observed poisons.
                    panic!("injected fault: panic after task with no push")
                }
                if let Some(ctl) = control.as_deref() {
                    ctl.note_processed();
                    since_check += 1;
                    if since_check >= JobControl::CHECK_EVERY {
                        since_check = 0;
                        ctl.check_deadline();
                    }
                }
            },
        );

        guard.result = Some(WorkerResult {
            executed: outcome.executed,
            scans: outcome.scans,
            useful,
            wasted,
            stats: handle.stats().delta_since(&stats_before),
            telemetry: telemetry.map(WorkerTelemetry::finish),
        });
        drop(guard); // publishes the result and wakes the coordinator
        idle_since = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smq_scheduler::{HeapSmq, SmqConfig};
    use std::sync::atomic::AtomicU64;

    /// A toy job: every seed task below `fanout_below` pushes two children;
    /// output = number of processed tasks, tracked in shared state.
    struct FanoutJob {
        seeds: u64,
        fanout_below: u64,
        processed: AtomicU64,
    }

    impl FanoutJob {
        fn new(seeds: u64, fanout_below: u64) -> Self {
            Self {
                seeds,
                fanout_below,
                processed: AtomicU64::new(0),
            }
        }
    }

    impl PoolJob for FanoutJob {
        fn seed_tasks(&self) -> Vec<Task> {
            (0..self.seeds).map(|i| Task::new(i, i)).collect()
        }

        fn process(&self, task: Task, push: &mut dyn FnMut(Task), _scratch: &mut Scratch) -> bool {
            self.processed.fetch_add(1, Ordering::Relaxed);
            if task.key < self.fanout_below {
                push(Task::new(task.key + self.fanout_below, task.value));
                push(Task::new(task.key + 2 * self.fanout_below, task.value));
            }
            true
        }
    }

    fn output(useful: u64, wasted: u64) -> JobOutput {
        JobOutput {
            metrics: RunMetrics {
                elapsed: std::time::Duration::from_millis(10),
                threads: 1,
                tasks_executed: useful + wasted,
                quiescence_scans: 0,
                per_thread: vec![OpStats::default()],
                total: OpStats::default(),
                telemetry: None,
            },
            useful_tasks: useful,
            wasted_tasks: wasted,
        }
    }

    #[test]
    fn work_increase_and_wasted_fraction() {
        let r = output(100, 25);
        assert_eq!(r.total_tasks(), 125);
        assert!((r.work_increase(100) - 1.25).abs() < 1e-12);
        assert!((r.wasted_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(r.work_increase(0), 1.0);
    }

    #[test]
    fn zero_tasks_edge_case() {
        let r = output(0, 0);
        assert_eq!(r.wasted_fraction(), 0.0);
    }

    fn smq(threads: usize) -> HeapSmq<Task> {
        HeapSmq::new(SmqConfig::default_for_threads(threads).with_seed(7))
    }

    fn partitioned(gangs: usize, gang_size: usize) -> WorkerPool {
        WorkerPool::new_partitioned(
            move |_| smq(gang_size),
            PoolConfig::partitioned(gangs, gang_size),
        )
    }

    /// One FanoutJob replay on a fresh single-worker pool of `scheduler`,
    /// returning its per-job metrics slice.
    fn replay<S: Scheduler<Task> + Send + Sync + 'static>(
        scheduler: S,
        telemetry: TelemetryConfig,
    ) -> JobOutput {
        let pool = WorkerPool::new(scheduler, PoolConfig::new(1).with_telemetry(telemetry));
        pool.run_job(&FanoutJob::new(60, 60)).unwrap()
    }

    #[test]
    fn disabled_telemetry_is_bit_identical_single_thread() {
        // The zero-overhead contract, asserted in its strongest form: even
        // *fully enabled* telemetry must leave every single-thread OpStats
        // counter exactly as the disabled (= uninstrumented) path produces
        // it, because instrumentation only ever reads published snapshots.
        // Deterministic seeds make single-thread replays exact.
        let base = replay(smq(1), TelemetryConfig::disabled());
        let instrumented = replay(smq(1), TelemetryConfig::enabled().with_ring(256));
        assert_eq!(
            base.metrics.per_thread, instrumented.metrics.per_thread,
            "SMQ"
        );
        assert_eq!(
            base.metrics.tasks_executed,
            instrumented.metrics.tasks_executed
        );
        assert!(base.metrics.telemetry.is_none());
        assert!(instrumented.metrics.telemetry.is_some());

        use smq_multiqueue::{MultiQueue, MultiQueueConfig};
        let mq = || MultiQueue::<Task>::new(MultiQueueConfig::classic(1).with_seed(3));
        let base = replay(mq(), TelemetryConfig::disabled());
        let instrumented = replay(mq(), TelemetryConfig::enabled().with_ring(256));
        assert_eq!(
            base.metrics.per_thread, instrumented.metrics.per_thread,
            "MultiQueue"
        );
        assert_eq!(
            base.metrics.tasks_executed,
            instrumented.metrics.tasks_executed
        );
    }

    #[test]
    fn enabled_telemetry_reports_phases_lanes_and_rank_probes() {
        let pool = WorkerPool::new(
            smq(2),
            PoolConfig::new(2).with_telemetry(TelemetryConfig::enabled().with_ring(4096)),
        );
        let mut report = TelemetryReport::new();
        for _ in 0..4 {
            let out = pool.run_job(&FanoutJob::new(400, 400)).unwrap();
            report.merge(out.metrics.telemetry.as_ref().expect("telemetry enabled"));
        }
        // Every worker contributed a lane named after its thread.
        assert_eq!(report.lanes.len(), 2);
        for lane in &report.lanes {
            assert!(lane.name.starts_with("smq-pool-"), "lane {}", lane.name);
            assert!(!lane.events.is_empty());
        }
        // Time was accounted: at least pop + process + the quiescence scan
        // every job ends with (park appears between jobs via idle_since).
        use smq_telemetry::Phase;
        assert!(report.phases.get(Phase::Pop) > 0);
        assert!(report.phases.get(Phase::Process) > 0);
        assert!(report.phases.get(Phase::Scan) > 0);
        assert!(report.phases.get(Phase::Park) > 0);
        // 4 jobs × 1200 tasks probed every 64th pop: samples accumulated.
        assert!(report.rank_errors.count() > 0);
    }

    #[test]
    fn resident_pool_runs_many_jobs_without_respawning() {
        let mut pool = WorkerPool::new(smq(2), PoolConfig::new(2));
        for round in 0..50 {
            let job = FanoutJob::new(100, 100);
            let out = pool.run_job(&job).unwrap();
            assert_eq!(out.metrics.tasks_executed, 300, "round {round}");
            assert_eq!(job.processed.load(Ordering::Relaxed), 300);
            assert_eq!(out.useful_tasks, 300);
            assert_eq!(out.wasted_tasks, 0);
            // Per-job stats deltas: every pushed task popped exactly once.
            assert_eq!(out.metrics.total.pushes, out.metrics.total.pops);
            assert_eq!(out.metrics.total.pops, 300);
        }
        let stats = pool.stats();
        assert_eq!(stats.threads_spawned, 2, "workers must never respawn");
        assert_eq!(stats.jobs_completed, 50);
        assert_eq!(stats.gangs_poisoned, 0);
        pool.shutdown();
    }

    #[test]
    fn empty_job_terminates() {
        let pool = WorkerPool::new(smq(2), PoolConfig::new(2));
        let job = FanoutJob::new(0, 0);
        let out = pool.run_job(&job).unwrap();
        assert_eq!(out.metrics.tasks_executed, 0);
    }

    #[test]
    fn borrowed_scheduler_scoped_pool() {
        let scheduler = smq(3);
        let executed = WorkerPool::with_borrowed(&scheduler, PoolConfig::new(3), |pool| {
            let job = FanoutJob::new(500, 500);
            let out = pool.run_job(&job).unwrap();
            out.metrics.tasks_executed
        });
        assert_eq!(executed, 1_500);
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn mismatched_thread_count_is_rejected() {
        let _pool = WorkerPool::new(smq(2), PoolConfig::new(3));
    }

    #[test]
    #[should_panic(expected = "single-gang")]
    fn multi_gang_config_needs_partitioned_constructor() {
        let _pool = WorkerPool::new(smq(2), PoolConfig::partitioned(2, 1));
    }

    #[test]
    fn single_worker_pool_works() {
        let pool = WorkerPool::new(smq(1), PoolConfig::new(1));
        for _ in 0..10 {
            let job = FanoutJob::new(50, 50);
            assert_eq!(pool.run_job(&job).unwrap().metrics.tasks_executed, 150);
        }
        assert_eq!(pool.stats().threads_spawned, 1);
    }

    #[test]
    fn whole_fleet_job_spans_every_gang() {
        // A whole-fleet job on a partitioned pool splits seeds across all
        // gangs and still processes everything exactly once.
        let pool = partitioned(2, 2);
        assert_eq!(pool.threads(), 4);
        assert_eq!(pool.gangs(), 2);
        for _ in 0..20 {
            let job = FanoutJob::new(120, 120);
            let out = pool.run_job(&job).unwrap();
            assert_eq!(out.metrics.tasks_executed, 360);
            assert_eq!(out.metrics.threads, 4);
            assert_eq!(out.metrics.total.pushes, out.metrics.total.pops);
        }
        assert_eq!(pool.stats().threads_spawned, 4);
        assert_eq!(pool.stats().jobs_completed, 20);
    }

    #[test]
    fn concurrent_single_gang_jobs_run_in_parallel() {
        // Two jobs, each claiming one gang of a two-gang pool, must be able
        // to be in flight simultaneously: job A holds its gang hostage
        // until job B has demonstrably started processing.
        use std::sync::atomic::AtomicBool;

        struct GateJob {
            // Set by the partner job; this job spins until it is true.
            partner_started: Arc<AtomicBool>,
            // This job sets it as soon as it processes its first task.
            started: Arc<AtomicBool>,
        }

        impl PoolJob for GateJob {
            fn seed_tasks(&self) -> Vec<Task> {
                vec![Task::new(1, 1)]
            }

            fn process(&self, _t: Task, _push: &mut dyn FnMut(Task), _s: &mut Scratch) -> bool {
                self.started.store(true, Ordering::Release);
                while !self.partner_started.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                true
            }
        }

        let pool = partitioned(2, 1);
        let a = Arc::new(AtomicBool::new(false));
        let b = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            let pool = &pool;
            let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            scope.spawn(move || {
                pool.run_job_on(
                    &GateJob {
                        partner_started: b1,
                        started: a1,
                    },
                    1,
                )
                .unwrap();
            });
            scope.spawn(move || {
                pool.run_job_on(
                    &GateJob {
                        partner_started: a2,
                        started: b2,
                    },
                    1,
                )
                .unwrap();
            });
        });
        // If jobs were serialized, each would spin forever on its partner;
        // reaching this line proves two jobs were in flight concurrently.
        assert_eq!(pool.stats().jobs_completed, 2);
    }

    #[test]
    fn gang_claims_are_capped_to_the_fleet() {
        let pool = partitioned(2, 1);
        // Asking for more gangs than exist claims what is there.
        let out = pool.run_job_on(&FanoutJob::new(40, 40), 64).unwrap();
        assert_eq!(out.metrics.tasks_executed, 120);
        assert_eq!(out.metrics.threads, 2);
    }

    /// A job that panics on one specific task.
    struct PanickingJob;

    impl PoolJob for PanickingJob {
        fn seed_tasks(&self) -> Vec<Task> {
            (0..64u64).map(|i| Task::new(i, i)).collect()
        }

        fn process(&self, task: Task, _push: &mut dyn FnMut(Task), _s: &mut Scratch) -> bool {
            assert!(task.key != 17, "intentional job panic");
            true
        }
    }

    #[test]
    fn panicking_job_loses_the_job_instead_of_deadlocking() {
        // The regression this guards: on a multi-worker pool, a panicking
        // task used to leave the detector permanently unbalanced, so the
        // surviving worker spun forever and `run_job` never returned.
        let pool = WorkerPool::new(smq(2), PoolConfig::new(2));
        assert_eq!(pool.run_job(&PanickingJob).map(|_| ()), Err(JobError::Lost));
        assert_eq!(pool.stats().gangs_poisoned, 1);
    }

    #[test]
    fn panic_poisons_one_gang_and_the_rest_keep_serving() {
        use std::sync::atomic::AtomicBool;

        /// Holds its gang until `gate` opens, then fans out like
        /// `FanoutJob::new(30, 30)`.
        struct HeldFanout {
            fanout: FanoutJob,
            started: AtomicBool,
            gate: AtomicBool,
        }

        impl PoolJob for HeldFanout {
            fn seed_tasks(&self) -> Vec<Task> {
                self.fanout.seed_tasks()
            }

            fn process(&self, task: Task, push: &mut dyn FnMut(Task), s: &mut Scratch) -> bool {
                self.started.store(true, Ordering::Release);
                while !self.gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                self.fanout.process(task, push, s)
            }
        }

        let pool = partitioned(2, 1);
        let held = HeldFanout {
            fanout: FanoutJob::new(30, 30),
            started: AtomicBool::new(false),
            gate: AtomicBool::new(false),
        };
        std::thread::scope(|scope| {
            let in_flight = scope.spawn(|| pool.run_job_on(&held, 1));
            while !held.started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            // The panic poisons the other gang while this one is busy.
            assert_eq!(
                pool.run_job_on(&PanickingJob, 1).map(|_| ()),
                Err(JobError::Lost)
            );
            assert_eq!(pool.stats().gangs_poisoned, 1);
            // Respawn waits for the next claim.
            assert_eq!(pool.stats().gangs_respawned, 0);
            assert_eq!(pool.live_gangs(), 1);
            held.gate.store(true, Ordering::Release);
            // The surviving gang finishes its in-flight job correctly.
            let out = in_flight.join().unwrap().unwrap();
            assert_eq!(out.metrics.tasks_executed, 90);
            assert_eq!(out.metrics.threads, 1, "only the live gang participates");
        });
        for _ in 0..5 {
            let out = pool.run_job_on(&FanoutJob::new(30, 30), 1).unwrap();
            assert_eq!(out.metrics.tasks_executed, 90);
        }
        assert_eq!(pool.stats().jobs_completed, 6);
    }

    #[test]
    fn fully_poisoned_pool_rejects_jobs_with_no_capacity() {
        // `WorkerPool::new` has no factory, so the dead gang stays dead.
        let pool = WorkerPool::new(smq(1), PoolConfig::new(1));
        assert_eq!(pool.run_job(&PanickingJob).map(|_| ()), Err(JobError::Lost));
        assert_eq!(pool.live_gangs(), 0);
        // Nothing can serve the job, and nothing ever will: a typed error,
        // not a panic, and it stays that way for every later call.
        for _ in 0..3 {
            assert_eq!(
                pool.run_job(&FanoutJob::new(1, 0)).map(|_| ()),
                Err(JobError::NoCapacity)
            );
        }
    }

    #[test]
    fn poisoned_gang_respawns_on_next_claim() {
        // On a factory pool the panic poisons a gang, the next job's claim
        // rebuilds it, and capacity is back to full.
        let pool = partitioned(2, 1);
        assert_eq!(
            pool.run_job_on(&PanickingJob, 1).map(|_| ()),
            Err(JobError::Lost)
        );
        // The next whole-fleet job forces a claim, which respawns first —
        // so it runs on BOTH gangs again.
        let out = pool.run_job(&FanoutJob::new(40, 40)).unwrap();
        assert_eq!(out.metrics.threads, 2, "respawned gang participates");
        assert_eq!(out.metrics.tasks_executed, 120);
        assert_eq!(pool.live_gangs(), 2);
        let stats = pool.stats();
        assert_eq!(stats.gangs_poisoned, 1);
        assert_eq!(stats.gangs_respawned, 1);
        assert_eq!(
            stats.threads_spawned, 3,
            "2 at construction + 1 for the respawned gang"
        );
    }

    #[test]
    fn respawn_dead_forces_recovery_on_lazy_pools() {
        let pool = partitioned(2, 1);
        assert_eq!(
            pool.run_job_on(&PanickingJob, 1).map(|_| ()),
            Err(JobError::Lost)
        );
        assert_eq!(pool.live_gangs(), 1);
        assert_eq!(pool.respawn_dead(), 1);
        assert_eq!(pool.live_gangs(), 2);
        assert_eq!(pool.respawn_dead(), 0, "nothing left to rebuild");
        assert_eq!(pool.stats().gangs_respawned, 1);
    }

    #[test]
    fn repeated_panics_keep_respawning_the_same_slot() {
        let pool = partitioned(2, 1);
        for round in 1..=4u64 {
            assert_eq!(
                pool.run_job_on(&PanickingJob, 1).map(|_| ()),
                Err(JobError::Lost),
                "round {round}"
            );
            let out = pool.run_job(&FanoutJob::new(20, 20)).unwrap();
            assert_eq!(out.metrics.threads, 2, "round {round}");
            assert_eq!(pool.stats().gangs_poisoned, round);
            assert_eq!(pool.stats().gangs_respawned, round);
        }
        assert_eq!(pool.live_gangs(), 2);
    }

    /// An endless chain: every processed task pushes a successor, so the
    /// job can only ever end by being cancelled.
    struct EndlessJob {
        /// Sleep per task, to give wall-clock deadlines something to trip.
        nap: std::time::Duration,
    }

    impl PoolJob for EndlessJob {
        fn seed_tasks(&self) -> Vec<Task> {
            vec![Task::new(0, 0)]
        }

        fn process(&self, task: Task, push: &mut dyn FnMut(Task), _s: &mut Scratch) -> bool {
            if !self.nap.is_zero() {
                std::thread::sleep(self.nap);
            }
            push(Task::new(task.key + 1, 0));
            true
        }
    }

    #[test]
    fn deadline_cancels_the_job_and_keeps_the_gang_usable() {
        let pool = WorkerPool::new(smq(1), PoolConfig::new(1));
        let spec = JobSpec {
            deadline: Some(Instant::now() + std::time::Duration::from_millis(20)),
            budget: None,
        };
        let endless = EndlessJob {
            nap: std::time::Duration::from_millis(1),
        };
        assert_eq!(
            pool.run_job_with(&endless, 1, &spec).map(|_| ()),
            Err(JobError::DeadlineExceeded)
        );
        // Cancelled, not poisoned: the gang drained cleanly and serves the
        // next (unlimited) job exactly.
        assert_eq!(pool.stats().gangs_poisoned, 0);
        assert_eq!(pool.live_gangs(), 1);
        let out = pool.run_job(&FanoutJob::new(30, 30)).unwrap();
        assert_eq!(out.metrics.tasks_executed, 90);
    }

    #[test]
    fn already_expired_deadline_sheds_without_running() {
        let pool = WorkerPool::new(smq(1), PoolConfig::new(1));
        let job = FanoutJob::new(10, 10);
        let spec = JobSpec {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            budget: None,
        };
        assert_eq!(
            pool.run_job_with(&job, 1, &spec).map(|_| ()),
            Err(JobError::DeadlineExceeded)
        );
        assert_eq!(
            job.processed.load(Ordering::Relaxed),
            0,
            "shed before any task ran"
        );
    }

    #[test]
    fn budget_cancels_the_job_after_the_configured_tasks() {
        let pool = WorkerPool::new(smq(1), PoolConfig::new(1));
        let spec = JobSpec {
            deadline: None,
            budget: Some(100),
        };
        let endless = EndlessJob {
            nap: std::time::Duration::ZERO,
        };
        assert_eq!(
            pool.run_job_with(&endless, 1, &spec).map(|_| ()),
            Err(JobError::BudgetExceeded)
        );
        assert_eq!(pool.stats().gangs_poisoned, 0);
        // The pool is immediately reusable.
        let out = pool.run_job(&FanoutJob::new(30, 30)).unwrap();
        assert_eq!(out.metrics.tasks_executed, 90);
    }

    #[test]
    fn handles_are_created_once_per_worker_across_many_jobs() {
        let pool = WorkerPool::new(smq(2), PoolConfig::new(2));
        for _ in 0..100 {
            pool.run_job(&FanoutJob::new(20, 20)).unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.jobs_completed, 100);
        assert_eq!(
            stats.handles_created, 2,
            "a worker creates its scheduler handle once, before its first \
             park — never per job"
        );
    }

    #[test]
    fn batched_pool_runs_jobs_correctly() {
        let pool = WorkerPool::new(smq(2), PoolConfig::new(2).with_batch(8));
        for _ in 0..10 {
            let job = FanoutJob::new(100, 100);
            let out = pool.run_job(&job).unwrap();
            assert_eq!(out.metrics.tasks_executed, 300);
            assert_eq!(out.metrics.total.pushes, out.metrics.total.pops);
            // The native SMQ batch paths actually ran.
            assert!(out.metrics.total.batch_flushes > 0);
        }
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mut pool = WorkerPool::new(smq(2), PoolConfig::new(2));
        pool.run_job(&FanoutJob::new(10, 10)).unwrap();
        pool.shutdown();
        pool.shutdown();
        // Drop after explicit shutdown must not double-join.
    }

    #[test]
    fn shutdown_joins_partitioned_fleet() {
        let mut pool = partitioned(3, 2);
        pool.run_job_on(&FanoutJob::new(10, 10), 2).unwrap();
        pool.shutdown();
        assert_eq!(pool.stats().jobs_completed, 1);
    }

    /// The worker loop driven through a transient single-job pool
    /// ([`WorkerPool::with_borrowed`]), on a minimal strict scheduler so it
    /// is tested independently of the real schedulers.
    mod worker_loop {
        use super::*;
        use smq_runtime::SCAN_GATE;
        use std::collections::BinaryHeap;
        use std::sync::atomic::AtomicU64 as Counter;

        /// A single global locked heap.
        struct LockedHeap {
            heap: Mutex<BinaryHeap<std::cmp::Reverse<Task>>>,
            threads: usize,
        }

        impl LockedHeap {
            fn new(threads: usize) -> Self {
                Self {
                    heap: Mutex::new(BinaryHeap::new()),
                    threads,
                }
            }
        }

        struct LockedHeapHandle<'a> {
            parent: &'a LockedHeap,
            stats: OpStats,
        }

        impl Scheduler<Task> for LockedHeap {
            type Handle<'a> = LockedHeapHandle<'a>;

            fn num_threads(&self) -> usize {
                self.threads
            }

            fn handle(&self, thread_id: usize) -> LockedHeapHandle<'_> {
                assert!(thread_id < self.threads);
                LockedHeapHandle {
                    parent: self,
                    stats: OpStats::default(),
                }
            }
        }

        impl SchedulerHandle<Task> for LockedHeapHandle<'_> {
            fn push(&mut self, task: Task) {
                self.parent
                    .heap
                    .lock()
                    .unwrap()
                    .push(std::cmp::Reverse(task));
                self.stats.pushes += 1;
            }

            fn pop(&mut self) -> Option<Task> {
                let got = self.parent.heap.lock().unwrap().pop().map(|r| r.0);
                match got {
                    Some(_) => self.stats.pops += 1,
                    None => self.stats.empty_pops += 1,
                }
                got
            }

            fn stats(&self) -> OpStats {
                self.stats.clone()
            }
        }

        /// A job given by its seed keys and a per-task closure.
        struct FnJob<F> {
            seeds: Vec<u64>,
            process: F,
        }

        impl<F> PoolJob for FnJob<F>
        where
            F: Fn(u64, &mut dyn FnMut(u64), &mut Scratch) + Sync,
        {
            fn seed_tasks(&self) -> Vec<Task> {
                self.seeds.iter().map(|&key| Task::new(key, 0)).collect()
            }

            fn process(
                &self,
                task: Task,
                push: &mut dyn FnMut(Task),
                scratch: &mut Scratch,
            ) -> bool {
                (self.process)(task.key, &mut |key| push(Task::new(key, 0)), scratch);
                true
            }
        }

        /// Runs one job over `seeds` on a transient pool borrowing
        /// `scheduler`.
        fn run<F>(
            scheduler: &LockedHeap,
            config: PoolConfig,
            seeds: Vec<u64>,
            process: F,
        ) -> RunMetrics
        where
            F: Fn(u64, &mut dyn FnMut(u64), &mut Scratch) + Sync,
        {
            let job = FnJob { seeds, process };
            WorkerPool::with_borrowed(scheduler, config, |pool| pool.run_job(&job))
                .expect("job completes")
                .metrics
        }

        #[test]
        fn processes_every_seed_task_once() {
            let sched = LockedHeap::new(2);
            let executed = Counter::new(0);
            let metrics = run(
                &sched,
                PoolConfig::new(2),
                (0..1_000).collect(),
                |_task, _push, _scratch| {
                    executed.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(executed.load(Ordering::Relaxed), 1_000);
            assert_eq!(metrics.tasks_executed, 1_000);
            assert_eq!(metrics.threads, 2);
            assert_eq!(metrics.total.pops, 1_000);
            assert_eq!(metrics.per_thread.len(), 2);
        }

        #[test]
        fn follow_up_tasks_are_processed() {
            // Each task < 1000 pushes task+1000 and task+2000; the run must
            // process all 3000 tasks before terminating.
            let sched = LockedHeap::new(3);
            let executed = Counter::new(0);
            let metrics = run(
                &sched,
                PoolConfig::new(3),
                (0..1_000).collect(),
                |task, push, _scratch| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    if task < 1_000 {
                        push(task + 1_000);
                        push(task + 2_000);
                    }
                },
            );
            assert_eq!(executed.load(Ordering::Relaxed), 3_000);
            assert_eq!(metrics.tasks_executed, 3_000);
        }

        #[test]
        fn empty_initial_set_terminates_immediately() {
            let sched = LockedHeap::new(2);
            let metrics = run(&sched, PoolConfig::new(2), Vec::new(), |_t, _p, _s| {});
            assert_eq!(metrics.tasks_executed, 0);
            assert!(metrics.quiescence_scans >= 2, "each worker scans to exit");
        }

        #[test]
        fn single_thread_run_works() {
            let sched = LockedHeap::new(1);
            let sum = Counter::new(0);
            let metrics = run(
                &sched,
                PoolConfig::new(1),
                vec![5, 10, 15],
                |task, _push, _scratch| {
                    sum.fetch_add(task, Ordering::Relaxed);
                },
            );
            assert_eq!(sum.load(Ordering::Relaxed), 30);
            assert_eq!(metrics.tasks_executed, 3);
        }

        #[test]
        #[should_panic(expected = "thread count")]
        fn mismatched_thread_count_is_rejected() {
            let sched = LockedHeap::new(2);
            let _ = run(&sched, PoolConfig::new(3), vec![1], |_t, _p, _s| {});
        }

        #[test]
        fn deep_task_chain_terminates() {
            // A single chain of 10_000 dependent tasks exercises the case
            // where most threads spin on an empty scheduler while one works.
            let sched = LockedHeap::new(4);
            let executed = Counter::new(0);
            let metrics = run(
                &sched,
                PoolConfig::new(4),
                vec![0],
                |task, push, _scratch| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    if task < 10_000 {
                        push(task + 1);
                    }
                },
            );
            assert_eq!(executed.load(Ordering::Relaxed), 10_001);
            assert_eq!(metrics.tasks_executed, 10_001);
        }

        #[test]
        fn scan_gate_bounds_scan_traffic() {
            // Every quiescence scan must be "paid for" with at least
            // `SCAN_GATE` empty pops, so scans * gate never exceeds total
            // empty pops — the loop-level guarantee behind the epoch-gated
            // scan.
            let sched = LockedHeap::new(4);
            let metrics = run(
                &sched,
                PoolConfig::new(4),
                vec![0],
                |task, push, _scratch| {
                    if task < 5_000 {
                        push(task + 1);
                    }
                },
            );
            assert!(
                metrics.quiescence_scans * u64::from(SCAN_GATE) <= metrics.total.empty_pops,
                "scans={} gate={} empty_pops={}",
                metrics.quiescence_scans,
                SCAN_GATE,
                metrics.total.empty_pops
            );
            // Liveness: every worker still exits via at least one scan.
            assert!(metrics.quiescence_scans >= 4);
        }

        #[test]
        fn batched_loop_processes_every_task() {
            // A scheduler with only the default (per-task) batch impls,
            // driven at batch 8: conservation and termination must be
            // unchanged.
            let sched = LockedHeap::new(2);
            let executed = Counter::new(0);
            let metrics = run(
                &sched,
                PoolConfig::new(2).with_batch(8),
                (0..1_000).collect(),
                |task, push, _scratch| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    if task < 1_000 {
                        push(task + 1_000);
                        push(task + 2_000);
                    }
                },
            );
            assert_eq!(executed.load(Ordering::Relaxed), 3_000);
            assert_eq!(metrics.tasks_executed, 3_000);
            assert_eq!(metrics.total.pushes, metrics.total.pops);
        }

        #[test]
        fn batched_deep_chain_terminates() {
            // Fan-out 1: every sink flush carries a single task, the worst
            // case for the batching sink's bookkeeping.
            let sched = LockedHeap::new(4);
            let metrics = run(
                &sched,
                PoolConfig::new(4).with_batch(32),
                vec![0],
                |task, push, _scratch| {
                    if task < 10_000 {
                        push(task + 1);
                    }
                },
            );
            assert_eq!(metrics.tasks_executed, 10_001);
            assert_eq!(metrics.total.pushes, metrics.total.pops);
        }

        #[test]
        fn with_batch_clamps_to_one() {
            let config = PoolConfig::new(1).with_batch(0);
            assert_eq!(config.worker.batch_size, 1);
        }

        #[test]
        fn scratch_is_usable_from_the_processing_closure() {
            let sched = LockedHeap::new(2);
            let checked = Counter::new(0);
            run(
                &sched,
                PoolConfig::new(2),
                (1..=64).collect(),
                |task, _push, scratch| {
                    let buf = scratch.counting_u32(task as usize);
                    assert!(buf.iter().all(|&c| c == 0), "scratch must be zeroed");
                    buf[(task - 1) as usize] = 1;
                    checked.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(checked.load(Ordering::Relaxed), 64);
        }
    }
}
