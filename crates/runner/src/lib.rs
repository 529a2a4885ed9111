//! # runner — supervised concurrent batch runtime
//!
//! Simulation campaigns over the Spatial Computer Model (parameter sweeps,
//! fault-injection studies, benchmark tables) run many independent
//! simulations, any of which can panic, run away past a deadline, or be
//! unrecoverable under its injected fault plan. This crate executes such
//! batches across a bounded worker pool with full failure containment:
//!
//! * [`pool`] — worker threads with per-job panic isolation
//!   (`catch_unwind`), watchdog-enforced deadlines via cooperative
//!   [`spatial_core::model::CancelToken`]s, and deterministic load
//!   shedding past a saturation threshold;
//! * [`job`] — job specifications and the degradation ladder: checksum-
//!   verified recovery with exponential backoff and seeded jitter, then a
//!   sequential host-oracle fallback marked `Degraded` so a damaged batch
//!   still yields every answer;
//! * [`report`] — structured JSON batch reports (per-job outcome, attempts,
//!   escalation level, exact cost, detour energy, wall time; aggregate
//!   p50/p99) whose wall-clock-free canonical form is bit-deterministic;
//! * [`batch`] — jobspec parsing and end-to-end orchestration;
//! * [`mod@serve`] — the persistent daemon loop: newline-delimited JSON jobs
//!   in, one ordered result line out per job, with the pool, watchdog,
//!   shedding and degradation machinery alive across submissions;
//! * [`tenant`] — per-tenant budgets, rate-limit admission, `ModelGuard`
//!   extent caps, predictive admission policy, and deficit round-robin
//!   fair scheduling for the daemon;
//! * [`cache`] — the bounded LRU warm result cache whose hits return
//!   bit-identical canonical results to cold runs;
//! * [`journal`] — the checksum-framed write-ahead journal and atomic
//!   snapshot that make the daemon survive SIGKILL at any instant with
//!   exactly-once output;
//! * [`lines`] — the invalid-UTF-8-tolerant line reader shared by the
//!   stdin path, the socket path and the client (one implementation of
//!   the consuming-line rules, used by all three);
//! * [`net`] — the TCP front end: supervised per-connection sessions with
//!   a `hello` handshake binding a resume watermark, `ping`/`pong`
//!   heartbeats with idle timeouts, bounded output queues with slow-client
//!   disconnection, and a drain-aware accept loop;
//! * [`client`] — the resumable reconnecting client: `BackoffPolicy`-driven
//!   retry, resume-from-watermark handshakes, and duplicate/loss detection
//!   so an interrupted session still observes the exact uninterrupted
//!   stream;
//! * [`chaos_net`] — seed-deterministic transport fault injection
//!   ([`chaos_net::ChaosTransport`]): partial writes, torn lines, injected
//!   delays and mid-line disconnects for the chaos matrix;
//! * [`json`] — the in-tree JSON reader backing jobspec files (the build
//!   is hermetic: no serde).
//!
//! The determinism discipline threading through all of it: **wall-clock
//! time never influences a reported model quantity.** Deadlines cancel jobs
//! cooperatively, and a cancelled job's cost is withheld from the report
//! rather than reported at whatever value scheduling noise produced.
//!
//! ## Quick example
//!
//! ```
//! use runner::batch::{run_jobspec, Batch};
//!
//! let report = run_jobspec(
//!     r#"{"name": "demo",
//!         "config": {"workers": 2},
//!         "jobs": [{"kind": "scan", "n": 64, "seed": 7},
//!                  {"kind": "sort", "n": 64, "seed": 8}]}"#,
//! )
//! .unwrap();
//! assert_eq!(report.exit_code(false), 0);
//! assert!(report.to_json(true).contains("\"outcome\": \"ok\""));
//! ```

pub mod batch;
pub mod cache;
pub mod chaos_net;
pub mod client;
pub mod job;
pub mod journal;
pub mod json;
pub mod lines;
pub mod net;
pub mod pool;
pub mod report;
pub mod serve;
pub mod tenant;

pub use batch::{run_batch, run_jobspec, write_report, Batch, BatchConfig};
pub use cache::{CacheKey, ResultCache};
pub use chaos_net::{ChaosTransport, NetChaosPlan};
pub use client::{run_client, ClientConfig, ClientError, ClientSummary, Conn};
pub use job::{JobKind, JobResult, JobSpec, Outcome};
pub use journal::{Journal, Recovered, Snapshot};
pub use net::{
    serve_listener, spawn_listener, NetConfig, NetHandle, NetSummary, SessionEnd,
    EXIT_TRANSPORT_DISCONNECT,
};
pub use pool::{run_supervised, PoolConfig, Task, TaskOutcome};
pub use report::BatchReport;
pub use serve::{drain_requested, request_drain, serve, ServeConfig, ServeSummary};
pub use tenant::{DrrScheduler, ExtentCap, RateLimit, Submission, TenantConfig, TenantSnapshot};

use spatial_core::model::{Cost, Machine};
use spatial_core::report::Sweep;

/// Default worker count for sweeps and batches: the machine's available
/// parallelism, overridable with the `SPATIAL_JOBS` environment variable.
pub fn default_workers() -> usize {
    std::env::var("SPATIAL_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
}

/// Parallel drop-in for the bench harness's sequential `sweep`: measures
/// `f(n)` for each size on its own fresh [`Machine`], fanning the sizes out
/// across `workers` supervised threads, and returns the [`Sweep`] with rows
/// in size order.
///
/// Each size runs on an independent machine, so the measured costs are
/// identical to the sequential version — parallelism changes wall time
/// only. A panic inside one measurement is contained by the pool and
/// re-raised here with the offending size named, after the other sizes
/// have finished.
pub fn sweep_supervised(
    name: &str,
    workers: usize,
    sizes: &[u64],
    f: impl Fn(&mut Machine, u64) + Send + Sync,
) -> Sweep {
    let cfg = PoolConfig { workers, ..Default::default() };
    let f = &f;
    let tasks: Vec<Task<'_, Cost>> = sizes
        .iter()
        .map(|&n| Task {
            deadline_ms: None,
            run: Box::new(move |_| {
                let mut m = Machine::new();
                f(&mut m, n);
                m.report()
            }),
        })
        .collect();
    let outcomes = run_supervised(&cfg, tasks);
    let mut sweep = Sweep::new(name);
    for (&n, outcome) in sizes.iter().zip(outcomes) {
        match outcome {
            TaskOutcome::Done(cost) => sweep.push(n, cost),
            TaskOutcome::Panicked(msg) => {
                panic!("sweep {name:?}: measurement at n = {n} panicked: {msg}")
            }
            TaskOutcome::Shed => unreachable!("sweeps never enable shedding"),
        }
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_core::collectives::{place_z, scan};

    fn measure_scan(m: &mut Machine, n: u64) {
        let items = place_z(m, 0, (0..n as i64).collect());
        let _ = scan(m, 0, items, &|a, b| a + b);
    }

    #[test]
    fn parallel_sweep_matches_the_sequential_measurement() {
        let sizes = [16u64, 64, 256];
        let par = sweep_supervised("scan", 3, &sizes, measure_scan);
        for (i, &n) in sizes.iter().enumerate() {
            let mut m = Machine::new();
            measure_scan(&mut m, n);
            assert_eq!(par.points[i].cost, m.report(), "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "measurement at n = 64")]
    fn sweep_names_the_size_that_panicked() {
        sweep_supervised("bad", 2, &[16, 64], |_, n| {
            if n == 64 {
                panic!("deliberate");
            }
        });
    }
}
