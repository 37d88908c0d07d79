//! Hard per-operation time limit.
//!
//! Every operation the benchmark waits on (a set-up step, a job, a query, a
//! publish) is registered while it runs.  A background thread checks the
//! oldest one; if it has run longer than [`HARD_LIMIT`], the process prints
//! the workload, operation and seed to stderr and exits with
//! [`EXIT_STUCK`] without printing a result, so a scheduler that never
//! terminates fails the run quickly instead of hanging it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Far above any tail seen on the served configuration (full-scale SSSP
/// jobs take ~0.12 s, queries ~1 ms; the slowest job recorded in this
/// repository, an MQ MST job, took 5.7 s).
pub const HARD_LIMIT: Duration = Duration::from_secs(30);
pub const EXIT_STUCK: i32 = 3;

const CHECK_EVERY: Duration = Duration::from_millis(100);

struct Shared {
    running: Mutex<HashMap<u64, (&'static str, u64, Instant)>>,
    next_token: AtomicU64,
    stop: AtomicBool,
}

pub struct Watchdog {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn start(workload: &'static str, seed: u64) -> Watchdog {
        let shared = Arc::new(Shared {
            running: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let watched = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("perfbench-watchdog".into())
            .spawn(move || {
                while !watched.stop.load(Ordering::SeqCst) {
                    std::thread::sleep(CHECK_EVERY);
                    let oldest = watched
                        .running
                        .lock()
                        .expect("watchdog registry poisoned")
                        .values()
                        .min_by_key(|(_, _, started)| *started)
                        .copied();
                    if let Some((op, id, started)) = oldest {
                        let age = started.elapsed();
                        if age > HARD_LIMIT {
                            eprintln!(
                                "perfbench watchdog: workload={workload} op={op} id={id} seed={seed} \
                                 still running after {:.1} s (limit {:.1} s)",
                                age.as_secs_f64(),
                                HARD_LIMIT.as_secs_f64()
                            );
                            std::process::exit(EXIT_STUCK);
                        }
                    }
                }
            })
            .expect("spawn watchdog thread");
        Watchdog {
            shared,
            thread: Some(thread),
        }
    }

    /// Registers a running operation; pass the returned token to [`end`].
    ///
    /// [`end`]: Watchdog::end
    pub fn begin(&self, op: &'static str, id: u64) -> u64 {
        let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
        self.shared
            .running
            .lock()
            .expect("watchdog registry poisoned")
            .insert(token, (op, id, Instant::now()));
        token
    }

    pub fn end(&self, token: u64) {
        self.shared
            .running
            .lock()
            .expect("watchdog registry poisoned")
            .remove(&token);
    }

    /// Runs `f` as one watched operation.
    pub fn watch<R>(&self, op: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let token = self.begin(op, id);
        let out = f();
        self.end(token);
        out
    }

    pub fn stop(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("watchdog thread panicked");
        }
    }
}
