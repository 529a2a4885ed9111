//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <sim-bare|serve-cold|serve-warm|batch-small>
//!           --seed <n> --seconds <s> --trace <0|1> --daemon <spatial-dataflow>
//! ```
//!
//! One run sets a workload up, then measures it for `--seconds`. With
//! `--trace 0` it prints the end-to-end metrics. With `--trace 1` it runs
//! the same untraced timed phase, prints its end-to-end figures and the
//! tracing overhead as comment lines, then records spans around direct
//! calls into each layer and prints the per-layer metrics. Every output a
//! run measures is checked against a reference. The last line of standard
//! output is one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics`; a failed check makes the process exit 1. `run.py` builds
//! the daemon and this program from source and passes `--daemon`;
//! `METRICS.md` documents every metric.

mod batch;
mod jobs;
mod probes;
mod serve;
mod sim;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use spatial_core::model::sim_threads;

use stats::{median, percentile};

/// How many times each workload sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The primitives whose `<kind>_msgs_per_s` metrics are kept apart, so a
/// gain on one cannot hide a loss on another.
pub const MSG_KINDS: [&str; 4] = ["scan", "sort", "select", "spmv"];

/// Index of `kind` in [`MSG_KINDS`], if it has a `*_msgs_per_s` metric.
pub fn msg_index(kind: &str) -> Option<usize> {
    MSG_KINDS.iter().position(|k| *k == kind)
}

const USAGE: &str = "usage: perfbench --workload <sim-bare|serve-cold|serve-warm|batch-small> \
                     --seed <n> --seconds <s> --trace <0|1> --daemon <path>";

/// The command line, plus the host fact every workload sizes by.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// The `spatial-dataflow` binary the serve workloads start.
    pub daemon: PathBuf,
    /// Available parallelism: daemon and batch workers, and half the serve
    /// client's request window.
    pub nproc: usize,
}

/// Operations checked in one run, and how many failed a check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one checked operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("check failed: {}", what());
            }
        }
    }
}

/// End-to-end figures of one timed phase.
pub struct Phase {
    /// Verified operations per second.
    pub jobs_per_s: f64,
    /// Per-operation latencies, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Model messages per second of host time, in [`MSG_KINDS`] order.
    pub msgs_per_s: [f64; 4],
}

/// Per-layer figures only a live daemon session yields. `None` where the
/// workload ran no such session; the probes then open a short one.
#[derive(Clone, Copy, Default)]
pub struct Live {
    pub hello_rtt_ms: Option<f64>,
    pub stats_first_ms: Option<f64>,
    pub stats_last_ms: Option<f64>,
    pub outside_execute_ms: Option<f64>,
}

/// What one workload run measured.
pub struct Report {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    pub phase: Phase,
    pub peak_rss_mb: f64,
    pub live: Live,
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// `count` per second of `secs`; 0 when no time was measured.
pub fn rate(count: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        count / secs
    } else {
        0.0
    }
}

/// Peak resident set (VmHWM) of process `pid` in MiB; 0 where `/proc` does
/// not report it.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Scratch directory for journals, inside the current directory.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench_work").join(std::process::id().to_string())
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut daemon) = (None, 1, 10.0, false, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| format!("--seed {val:?}: {e}"))?,
            "--seconds" => {
                seconds = val
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {val:?} is not a positive number"))?
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val:?} is not 0 or 1")),
                }
            }
            "--daemon" => daemon = Some(PathBuf::from(val)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        daemon: daemon.ok_or("--daemon is required")?,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn e2e_metrics(r: &Report) -> Vec<Metric> {
    for pct in [50, 90] {
        if let Some(q) = percentile(&r.phase.latency_ms, pct) {
            println!("# latency_p{pct}_ms over {} samples, {} beyond it", q.samples, q.beyond);
        }
    }
    let p = &r.phase;
    let mut out = vec![
        metric("setup_s", median(&r.setup_s).unwrap_or(0.0), "s"),
        metric("jobs_per_s", p.jobs_per_s, "1/s"),
    ];
    for (name, pct) in [("latency_p50_ms", 50), ("latency_p90_ms", 90)] {
        let value = percentile(&p.latency_ms, pct).map_or(0.0, |q| q.value);
        out.push(metric(name, value, "ms"));
    }
    for (kind, r) in MSG_KINDS.iter().zip(p.msgs_per_s) {
        out.push(metric(format!("{kind}_msgs_per_s"), r, "msgs/s"));
    }
    out.push(metric("peak_rss_mb", r.peak_rss_mb, "MB"));
    out
}

/// A traced run: the end-to-end figures of its timed phase and the tracing
/// overhead as comment lines, then the per-layer metrics.
fn traced_metrics(a: &Args, r: &Report, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    for m in e2e_metrics(r) {
        println!("# end-to-end {} = {} {}", m.name, m.value, m.unit);
    }
    // The timed phase records no spans and the probes run after it, so the
    // end-to-end figures above are what an untraced run measures. What
    // tracing adds is inside each per-layer figure: one clock read a span.
    println!(
        "# tracing overhead: 0 on every end-to-end metric (no spans in the timed phase); \
         {} ns per span (median of an empty span), included in every per-layer duration",
        trace::empty_span_ns(10_000)
    );
    probes::run(a, r.live, tally)
}

fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "# host: nproc={n} sim_threads={} serve_workers={n} batch_workers={n} client_window={} \
         seed={} workload={} seconds={} trace={}",
        sim_threads(),
        2 * args.nproc,
        args.seed,
        args.workload,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        n = args.nproc,
    );
    let mut tally = Tally::default();
    let report = match args.workload.as_str() {
        "sim-bare" => sim::run(&args, &mut tally),
        "serve-cold" => serve::run_cold(&args, &mut tally),
        "serve-warm" => serve::run_warm(&args, &mut tally),
        "batch-small" => batch::run(&args, &mut tally),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let metrics = report.and_then(|r| {
        if args.trace {
            traced_metrics(&args, &r, &mut tally)
        } else {
            Ok(e2e_metrics(&r))
        }
    });
    let _ = std::fs::remove_dir_all(work_dir());
    let _ = std::fs::remove_dir(".perfbench_work");
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let mut measured = true;
    for m in &metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
        // Every metric is a positive, finite measurement; anything else
        // means the run measured nothing.
        if !(m.value.is_finite() && m.value > 0.0) {
            eprintln!("error: metric {} = {} was not measured", m.name, m.value);
            measured = false;
        }
    }
    let correct = measured && tally.failed == 0;
    println!("{}", result_json(correct, &tally, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
