//! Batch orchestration: jobspec parsing, supervised execution, report
//! output.
//!
//! A **jobspec** is a JSON document describing one batch:
//!
//! ```json
//! {
//!   "name": "smoke",
//!   "config": {
//!     "workers": 4,
//!     "queue_cap": 64,
//!     "shed_threshold": null,
//!     "deadline_ms": 2000,
//!     "best_effort": true,
//!     "backoff": {"base_ms": 5, "factor": 2, "max_ms": 200, "jitter": 0.5}
//!   },
//!   "jobs": [
//!     {"kind": "scan", "n": 1024, "seed": 7},
//!     {"kind": "sort", "n": 256, "faults": {"flaky": 0.3}, "retries": 8},
//!     {"kind": "chaos-spin", "deadline_ms": 150}
//!   ]
//! }
//! ```
//!
//! [`run_batch`] executes the jobs through the supervised pool
//! ([`crate::pool`]) and the degradation ladder ([`crate::job`]), then
//! [`write_report`] lands the JSON report under `target/spatial-bench/`
//! (override with `SPATIAL_BENCH_JSON`).

use std::time::Instant;

use spatial_core::recovery::BackoffPolicy;

use crate::job::{execute, JobResult, JobSpec};
use crate::json::Json;
use crate::pool::{run_supervised, PoolConfig, Task, TaskOutcome};
use crate::report::BatchReport;

/// Batch-wide execution policy (jobspec `config` object, overridable by
/// CLI flags).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchConfig {
    /// Worker threads.
    pub workers: usize,
    /// Base of the admission limit (see [`PoolConfig::queue_cap`]).
    pub queue_cap: usize,
    /// Shed fraction of `queue_cap` (see [`PoolConfig::shed_threshold`]).
    pub shed_threshold: Option<f64>,
    /// Default per-job deadline applied to jobs that don't set their own.
    pub default_deadline_ms: Option<u64>,
    /// Backoff between recovery attempts.
    pub backoff: BackoffPolicy,
    /// When set, the batch process exits 0 regardless of job failures (the
    /// report still records every outcome).
    pub best_effort: bool,
    /// Default cost profile applied to jobs that don't set their own
    /// (jobspec `config.profile`, a built-in name validated at parse).
    /// `None` keeps today's raw-counter-only reports byte-identical.
    pub profile: Option<&'static str>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            workers: 4,
            queue_cap: 1024,
            shed_threshold: None,
            default_deadline_ms: None,
            backoff: BackoffPolicy::DEFAULT,
            best_effort: false,
            profile: None,
        }
    }
}

/// A parsed jobspec document.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch {
    /// Batch name (report file stem).
    pub name: String,
    /// Execution policy.
    pub config: BatchConfig,
    /// The jobs, in spec order.
    pub jobs: Vec<JobSpec>,
}

impl Batch {
    /// Parses a jobspec document. Every validation failure names the job
    /// index and field; nothing executes on a malformed spec.
    pub fn parse(doc: &str) -> Result<Batch, String> {
        let v = Json::parse(doc).map_err(|e| e.to_string())?;
        let name = match v.get("name") {
            None => "batch".to_string(),
            Some(j) => j
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| "\"name\" must be a string".to_string())?,
        };
        let mut config = BatchConfig::default();
        if let Some(c) = v.get("config") {
            let u = |field: &str| -> Result<Option<u64>, String> {
                match c.get(field) {
                    None => Ok(None),
                    Some(j) if j.is_null() => Ok(None),
                    Some(j) => j
                        .as_u64()
                        .map(Some)
                        .ok_or_else(|| format!("config.{field} must be an integer or null")),
                }
            };
            if let Some(w) = u("workers")? {
                config.workers = (w as usize).max(1);
            }
            if let Some(q) = u("queue_cap")? {
                config.queue_cap = (q as usize).max(1);
            }
            config.default_deadline_ms = u("deadline_ms")?;
            config.shed_threshold = match c.get("shed_threshold") {
                None => None,
                Some(j) if j.is_null() => None,
                Some(j) => Some(
                    j.as_f64()
                        .filter(|t| (0.0..=1.0).contains(t))
                        .ok_or_else(|| "config.shed_threshold must be in [0, 1]".to_string())?,
                ),
            };
            if let Some(b) = c.get("best_effort") {
                config.best_effort =
                    b.as_bool().ok_or_else(|| "config.best_effort must be a bool".to_string())?;
            }
            config.profile = match c.get("profile") {
                None => None,
                Some(j) if j.is_null() => None,
                Some(j) => {
                    let name = j
                        .as_str()
                        .ok_or_else(|| "config.profile must be a string or null".to_string())?;
                    Some(
                        spatial_core::model::profile_by_name(name)
                            .map_err(|e| format!("config.profile: {e}"))?
                            .name,
                    )
                }
            };
            if let Some(b) = c.get("backoff") {
                let f = |field: &str, default: f64| -> Result<f64, String> {
                    match b.get(field) {
                        None => Ok(default),
                        Some(j) => j
                            .as_f64()
                            .filter(|x| *x >= 0.0)
                            .ok_or_else(|| format!("config.backoff.{field} must be >= 0")),
                    }
                };
                config.backoff = BackoffPolicy {
                    base_ms: f("base_ms", BackoffPolicy::DEFAULT.base_ms as f64)? as u64,
                    factor: f("factor", f64::from(BackoffPolicy::DEFAULT.factor))? as u32,
                    max_ms: f("max_ms", BackoffPolicy::DEFAULT.max_ms as f64)? as u64,
                    jitter: f("jitter", BackoffPolicy::DEFAULT.jitter)?.clamp(0.0, 1.0),
                };
            }
        }
        let jobs_json = v
            .get("jobs")
            .and_then(Json::as_array)
            .ok_or_else(|| "jobspec must contain a \"jobs\" array".to_string())?;
        if jobs_json.is_empty() {
            return Err("jobspec contains no jobs".to_string());
        }
        let mut jobs = Vec::with_capacity(jobs_json.len());
        for (i, j) in jobs_json.iter().enumerate() {
            jobs.push(JobSpec::from_json(j, i)?);
        }
        // chaos-spin must have *some* deadline; the per-job parser only
        // checks the job's own field, so re-check against the batch default.
        for (i, j) in jobs.iter().enumerate() {
            if j.kind == crate::job::JobKind::ChaosSpin
                && j.deadline_ms.or(config.default_deadline_ms).is_none()
            {
                return Err(format!("job {i} ({}): chaos-spin requires a deadline", j.id));
            }
        }
        Ok(Batch { name, config, jobs })
    }
}

/// Runs a batch under full supervision and returns the report.
///
/// Wall times are measured here (per job and for the whole batch); every
/// other report field is a pure function of `(jobs, config)`.
pub fn run_batch(name: &str, config: &BatchConfig, jobs: &[JobSpec]) -> BatchReport {
    let pool = PoolConfig {
        workers: config.workers,
        queue_cap: config.queue_cap,
        shed_threshold: config.shed_threshold,
        watchdog_tick_ms: 5,
    };
    let backoff = config.backoff;
    let started = Instant::now();
    let tasks: Vec<Task<'static, JobResult>> = jobs
        .iter()
        .map(|spec| {
            let mut spec = spec.clone();
            // The batch default profile is applied at execution time, not
            // at parse time, so CLI overrides of `config.profile` reach the
            // jobs; a job's own profile always wins.
            if spec.profile.is_none() {
                spec.profile = config.profile;
            }
            let deadline = spec.deadline_ms.or(config.default_deadline_ms);
            Task {
                deadline_ms: deadline,
                run: Box::new(move |token| {
                    let t0 = Instant::now();
                    let mut r = execute(&spec, token, &backoff);
                    r.wall_ms = t0.elapsed().as_millis() as u64;
                    r
                }),
            }
        })
        .collect();
    let outcomes = run_supervised(&pool, tasks);
    let results = outcomes
        .into_iter()
        .zip(jobs)
        .map(|(o, spec)| match o {
            TaskOutcome::Done(r) => r,
            TaskOutcome::Panicked(msg) => JobResult::panicked(spec, msg),
            TaskOutcome::Shed => JobResult::shed(spec),
        })
        .collect();
    BatchReport {
        name: name.to_string(),
        workers: config.workers,
        profile: config.profile,
        jobs: results,
        wall_ms: started.elapsed().as_millis() as u64,
    }
}

/// Parses and runs a jobspec document in one call (the CLI entry point).
pub fn run_jobspec(doc: &str) -> Result<BatchReport, String> {
    let batch = Batch::parse(doc)?;
    Ok(run_batch(&batch.name, &batch.config, &batch.jobs))
}

/// Resolves the report output directory: `SPATIAL_BENCH_JSON`, else
/// `$CARGO_TARGET_DIR/spatial-bench`, else the workspace-relative
/// `target/spatial-bench` (same convention as the bench harness).
pub fn report_dir() -> std::path::PathBuf {
    std::env::var("SPATIAL_BENCH_JSON")
        .unwrap_or_else(|_| {
            std::env::var("CARGO_TARGET_DIR").map(|t| format!("{t}/spatial-bench")).unwrap_or_else(
                |_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/spatial-bench").to_string(),
            )
        })
        .into()
}

/// Writes `report` (wall times included) to
/// `<report_dir()>/batch-<name>.json` and returns the path.
pub fn write_report(report: &BatchReport) -> std::io::Result<std::path::PathBuf> {
    let dir = report_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("batch-{}.json", report.name));
    std::fs::write(&path, report.to_json(true))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobKind, Outcome};
    use spatial_core::model::Cost;

    const SMOKE: &str = r#"{
        "name": "unit",
        "config": {"workers": 2, "deadline_ms": 5000, "backoff": {"base_ms": 0}},
        "jobs": [
            {"kind": "scan", "n": 64, "seed": 3},
            {"kind": "sort", "n": 64, "seed": 4, "array": "reversed"},
            {"kind": "chaos-panic"},
            {"kind": "select", "n": 64, "k": 10, "seed": 5}
        ]
    }"#;

    #[test]
    fn parse_reads_config_and_jobs() {
        let b = Batch::parse(SMOKE).unwrap();
        assert_eq!(b.name, "unit");
        assert_eq!(b.config.workers, 2);
        assert_eq!(b.config.default_deadline_ms, Some(5000));
        assert_eq!(b.config.backoff.base_ms, 0);
        assert_eq!(b.jobs.len(), 4);
        assert_eq!(b.jobs[2].kind, JobKind::ChaosPanic);
        assert_eq!(b.jobs[2].id, "job-2");
    }

    #[test]
    fn parse_rejects_bad_documents() {
        for (doc, needle) in [
            ("{", "JSON error"),
            (r#"{"jobs": []}"#, "no jobs"),
            (r#"{"name": 3, "jobs": [{"kind": "scan"}]}"#, "must be a string"),
            (r#"{"config": {"shed_threshold": 2.0}, "jobs": [{"kind": "scan"}]}"#, "[0, 1]"),
            (r#"{"jobs": [{"kind": "chaos-spin"}]}"#, "deadline"),
            (r#"{"config": {"deadline_ms": null}, "jobs": [{"kind": "chaos-spin"}]}"#, "deadline"),
        ] {
            let err = Batch::parse(doc).unwrap_err();
            assert!(err.contains(needle), "{doc}: {err}");
        }
        // A batch-level default deadline legitimizes chaos-spin.
        let ok = r#"{"config": {"deadline_ms": 100}, "jobs": [{"kind": "chaos-spin"}]}"#;
        assert!(Batch::parse(ok).is_ok());
    }

    #[test]
    fn batch_runs_supervised_and_classifies_outcomes() {
        let b = Batch::parse(SMOKE).unwrap();
        let report = run_batch(&b.name, &b.config, &b.jobs);
        assert_eq!(report.jobs.len(), 4);
        assert_eq!(report.jobs[0].outcome, Outcome::Ok);
        assert_eq!(report.jobs[1].outcome, Outcome::Ok);
        assert_eq!(report.jobs[2].outcome, Outcome::Panicked);
        assert!(report.jobs[2].error.as_deref().unwrap().contains("chaos-panic"));
        assert_eq!(report.jobs[3].outcome, Outcome::Ok);
        assert_eq!(report.exit_code(false), 1, "the panic decides the exit code");
        assert_eq!(report.exit_code(true), 0);
    }

    #[test]
    fn chaos_spin_under_a_budget_stops_at_the_crossing_send() {
        // Each hop is 14 long, so budget 90 is crossed by the 7th message
        // (98 > 90); a spin that checked its budget any less often than
        // every send would charge more before stopping.
        let mut spec = JobSpec::new("spin-budget", JobKind::ChaosSpin);
        spec.budget = Some(90);
        spec.retries = 1;
        spec.deadline_ms = Some(60_000);
        let config = BatchConfig { backoff: BackoffPolicy::NONE, ..BatchConfig::default() };
        let report = run_batch("unit", &config, &[spec]);
        let r = &report.jobs[0];
        assert_eq!(r.outcome, Outcome::Degraded, "{:?}", r.error);
        assert_eq!((r.attempts, r.escalation), (2, 2));
        assert_eq!(r.cost, Some(Cost { energy: 196, depth: 14, distance: 196, messages: 14 }));
        let error = r.error.as_deref().unwrap();
        assert!(error.ends_with("energy reached 98 (budget 90))"), "{error}");
    }

    #[test]
    fn canonical_report_is_deterministic_across_runs_and_worker_counts() {
        let b = Batch::parse(SMOKE).unwrap();
        let one = run_batch(&b.name, &b.config, &b.jobs).to_json(false);
        let two = run_batch(&b.name, &b.config, &b.jobs).to_json(false);
        assert_eq!(one, two, "same config must replay bit-for-bit");
        let mut wide = b.config;
        wide.workers = 7;
        let mut report = run_batch(&b.name, &wide, &b.jobs);
        report.workers = b.config.workers;
        assert_eq!(
            one,
            report.to_json(false),
            "worker count must not leak into job results (only into the header)"
        );
    }
}
