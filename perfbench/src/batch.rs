//! `batch-small`: thousands of sub-millisecond jobs through
//! `runner::run_batch`, one worker per core.
//!
//! A batch is one jobspec document of [`BATCH_JOBS`] jobs of one kind —
//! kinds rotate batch by batch — with n from 16 to 64, every tenth job
//! carrying `dead_rows` faults. Its timed span runs from the jobspec text to
//! the rendered `BatchReport`. Jobs this small make per-task supervision in
//! `runner::pool` and report encoding a large share of the wall time; no
//! other workload runs `runner::pool`. Latency is taken over the spans of
//! one kind's batches only, so every sample does the same work.

use std::time::{Duration, Instant};

use runner::batch::{run_batch, Batch};
use runner::job::{execute, JobKind, JobSpec};
use runner::json::Json;
use spatial_core::model::{CancelToken, Cost};
use spatial_core::recovery::BackoffPolicy;

use crate::jobs::{
    bare_run, job_json, oracle, parse_checksum, parse_cost, small_n, spec, sub_seed,
};
use crate::{rate, Args, Phase, Report, Tally, SETUP_REPS};

/// Jobs per batch: every batch holds exactly one faulty job, and a run
/// times well over a hundred batches of [`LATENCY_KIND`], so at least ten
/// of them lie beyond the 90th percentile.
pub const BATCH_JOBS: usize = 10;
/// Distinct batches per kind; the timed loop cycles through them.
const CASES_PER_KIND: usize = 3;
/// The kinds, one per batch in rotation.
pub const KINDS: [JobKind; 5] =
    [JobKind::Scan, JobKind::Select, JobKind::TopK, JobKind::Sort, JobKind::Spmv];
/// The kind whose batch spans give the latency percentiles.
const LATENCY_KIND: JobKind = JobKind::Sort;

/// What a job's entry in the rendered report must say.
pub struct Expect {
    outcome: &'static str,
    checksum: u64,
    cost: Cost,
}

/// One batch: its jobs and its jobspec text.
pub struct Case {
    pub kind: JobKind,
    pub specs: Vec<JobSpec>,
    pub text: String,
}

/// The `g`-th job of the workload, of kind `kind`, in slot `i` of its
/// batch. Sizes step evenly from 16 to 64 across the slots, so every batch
/// of a kind does the same amount of work whatever the seed.
fn batch_spec(seed: u64, g: u64, i: usize, kind: JobKind) -> JobSpec {
    let s = sub_seed(seed ^ 0xBA7C, g);
    let n = small_n(kind, 16 + (48 * i / (BATCH_JOBS - 1)) as u64);
    let k = match kind {
        JobKind::TopK => 4,
        _ => n / 2,
    };
    let mut spec = spec(format!("b{g}"), kind, n, s, k);
    if g % 10 == 9 {
        spec.faults.dead_rows = 0.25;
    }
    spec
}

/// The reference entry: the host oracle's checksum, and the bare machine's
/// cost — or, for a faulty job, whose detours a bare machine does not
/// charge, the cost and outcome of a separate cold execution.
fn expect_for(spec: &JobSpec) -> Expect {
    let checksum = oracle(spec);
    if spec.faults.any() {
        let cold = execute(spec, &CancelToken::new(), &BackoffPolicy::DEFAULT);
        Expect { outcome: cold.outcome.label(), checksum, cost: cold.cost.unwrap_or_default() }
    } else {
        Expect { outcome: "ok", checksum, cost: bare_run(spec).1 }
    }
}

/// Batch `b` of the workload.
pub fn make_case(seed: u64, b: usize, workers: usize) -> Case {
    let kind = KINDS[b % KINDS.len()];
    let specs: Vec<JobSpec> =
        (0..BATCH_JOBS).map(|i| batch_spec(seed, (b * BATCH_JOBS + i) as u64, i, kind)).collect();
    let jobs: Vec<String> = specs.iter().map(|s| job_json(s, None)).collect();
    let text = format!(
        "{{\"name\": \"perfbench-{b}\", \"config\": {{\"workers\": {workers}}}, \"jobs\": [{}]}}",
        jobs.join(", ")
    );
    Case { kind, specs, text }
}

/// Jobspec text to rendered report: the span this workload times.
pub fn render(text: &str) -> Result<String, String> {
    let batch = Batch::parse(text)?;
    Ok(run_batch(&batch.name, &batch.config, &batch.jobs).to_json(true))
}

/// Checks every job entry of a rendered report; returns the model
/// messages of the verified jobs.
fn verify(case: &Case, expect: &[Expect], rendered: &str, tally: &mut Tally) -> u64 {
    let doc = Json::parse(rendered).ok();
    let jobs = doc.as_ref().and_then(|d| d.get("jobs")).and_then(Json::as_array).unwrap_or(&[]);
    let mut messages = 0;
    for (i, e) in expect.iter().enumerate() {
        let entry = jobs.get(i);
        let checksum = entry.and_then(|j| j.get("checksum")).and_then(parse_checksum);
        let cost = entry.and_then(|j| j.get("cost")).and_then(parse_cost);
        let outcome = entry.and_then(|j| j.get("outcome")).and_then(Json::as_str);
        let ok = outcome == Some(e.outcome) && checksum == Some(e.checksum) && cost == Some(e.cost);
        tally.check(ok, || {
            format!(
                "batch-small {}: outcome {outcome:?}, checksum {checksum:?}, cost {cost:?}",
                case.specs[i].id
            )
        });
        if ok {
            messages += e.cost.messages;
        }
    }
    messages
}

fn timed(
    cases: &[Case],
    expect: &[Vec<Expect>],
    budget: Duration,
    tally: &mut Tally,
) -> Result<Phase, String> {
    let start = Instant::now();
    let mut latency_ms = Vec::new();
    let (mut msgs, mut secs) = ([0f64; 4], [0f64; 4]);
    let mut jobs = 0usize;
    let mut busy = 0.0;
    for (case, want) in cases.iter().zip(expect).cycle() {
        if jobs > 0 && start.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        let rendered = render(&case.text)?;
        let took = t.elapsed().as_secs_f64();
        let messages = verify(case, want, &rendered, tally);
        if case.kind == LATENCY_KIND {
            latency_ms.push(took * 1e3);
        }
        busy += took;
        jobs += case.specs.len();
        if let Some(k) = crate::msg_index(case.kind.label()) {
            msgs[k] += messages as f64;
            secs[k] += took;
        }
    }
    Ok(Phase {
        jobs_per_s: rate(jobs as f64, busy),
        latency_ms,
        msgs_per_s: std::array::from_fn(|k| rate(msgs[k], secs[k])),
    })
}

pub fn run(a: &Args, tally: &mut Tally) -> Result<Report, String> {
    // Set-up is program work only: generating the jobspec texts and the
    // first render of each. The expected entries are the benchmark's own
    // work and are computed after it.
    let mut setup_s = Vec::new();
    let mut cases = Vec::new();
    let mut first = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        cases = (0..CASES_PER_KIND * KINDS.len()).map(|b| make_case(a.seed, b, a.nproc)).collect();
        first = cases.iter().map(|c| render(&c.text)).collect::<Result<Vec<_>, _>>()?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let expect: Vec<Vec<Expect>> =
        cases.iter().map(|c| c.specs.iter().map(expect_for).collect()).collect();
    for ((case, want), rendered) in cases.iter().zip(&expect).zip(&first) {
        verify(case, want, rendered, tally);
    }
    let phase = timed(&cases, &expect, a.seconds, tally)?;
    Ok(Report {
        setup_s,
        phase,
        peak_rss_mb: crate::peak_rss_mb(std::process::id()),
        live: Default::default(),
    })
}
