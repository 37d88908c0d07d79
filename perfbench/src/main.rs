//! End-to-end benchmark of the served configuration: SMQ (Default) on a
//! resident `smq_pool::WorkerPool` of two workers.  See NOTES.md for the
//! workloads, the metrics and how each layer metric maps to an end-to-end
//! one.
//!
//! ```text
//! perfbench --workload analytics|route|live --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a summary, then the result as one JSON line (the last line of
//! standard output).  Exits with 2 on bad arguments and with
//! `watchdog::EXIT_STUCK` when an operation outlives the hard limit.

mod analytics;
mod cli;
mod report;
mod serve;
mod trace;
mod watchdog;

use std::path::PathBuf;

use cli::{Args, Workload};

/// Where a traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_out";

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let name = args.workload.name();
    let wd = watchdog::Watchdog::start(name, args.seed);
    let outcome = match args.workload {
        Workload::Analytics => analytics::run(&args, &wd),
        Workload::Route | Workload::Live => serve::run(&args, &wd),
    };
    wd.stop();
    outcome.print(name, args.seed);
}

/// Writes a traced run's spans as JSON lines under [`TRACE_DIR`].
fn write_trace(tracer: &trace::Tracer, args: &Args) {
    let path = PathBuf::from(TRACE_DIR).join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("perfbench: spans written to {}", path.display());
}
