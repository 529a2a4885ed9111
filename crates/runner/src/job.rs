//! Job specifications and the degradation ladder.
//!
//! A [`JobSpec`] names one simulation to run — which primitive, on how many
//! elements, under which injected fault plan, with which budget, retry cap
//! and deadline. [`execute`] drives it through the full supervision ladder:
//!
//! 1. **Recovery with backoff** — the job runs under
//!    [`spatial_core::recovery::run_with_recovery_policy`]: checksum-verified
//!    re-execution with per-attempt re-salted transients and exponential
//!    backoff with seeded jitter between attempts.
//! 2. **Host-oracle fallback** — if recovery exhausts (and the job was
//!    *not* cancelled), the job degrades gracefully: the result is computed
//!    by the sequential host oracle instead of the spatial machine, the
//!    sunk simulation cost is reported, and the outcome is marked
//!    [`Outcome::Degraded`]. A degraded batch still yields every answer.
//!
//! Cancellation short-circuits the ladder: once a deadline has fired there
//! is no time left to retry or degrade into, so the job reports
//! [`Outcome::DeadlineExceeded`]. Its cost is omitted from the report — how
//! far a cancelled run got depends on wall-clock scheduling, and reporting
//! a timing-dependent number would silently break batch-report determinism.
//!
//! Besides the five paper primitives, three **chaos kinds** exist purely to
//! exercise the supervision machinery in tests and smoke runs: a job that
//! panics, a job that spins until cancelled, and a job whose checksum can
//! never pass.

use spatial_core::model::{
    profile_by_name, zorder, CancelToken, Coord, Cost, FaultPlan, Machine, ModelGuard,
    ProfiledCost, SpatialError, SubGrid,
};
use spatial_core::recovery::{
    checksum_i64, run_with_recovery_policy, BackoffPolicy, RecoveryExhausted,
};
use spatial_core::{collectives, selection, sorting, spmv, topk};
use workloads::arrays::ArrayKind;

use crate::json::Json;

/// Which primitive a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Energy-optimal inclusive scan (§IV) over `+`.
    Scan,
    /// 2D mergesort in Z-order (§V).
    Sort,
    /// Randomized rank selection, `k` 1-based (§VI).
    Select,
    /// Top-k via repeated selection.
    TopK,
    /// Sparse matrix–vector product (§VIII) on a random uniform matrix.
    Spmv,
    /// Chaos: panics immediately (exercises panic isolation).
    ChaosPanic,
    /// Chaos: sends messages forever until cancelled (exercises deadlines;
    /// a spec with this kind and no deadline is rejected at parse time).
    ChaosSpin,
    /// Chaos: runs a scan whose checksum can never pass (exercises the
    /// full ladder down to the host oracle).
    ChaosBadVerify,
}

impl JobKind {
    /// All kinds, for enumeration in docs and tests.
    pub const ALL: [JobKind; 8] = [
        JobKind::Scan,
        JobKind::Sort,
        JobKind::Select,
        JobKind::TopK,
        JobKind::Spmv,
        JobKind::ChaosPanic,
        JobKind::ChaosSpin,
        JobKind::ChaosBadVerify,
    ];

    /// The jobspec spelling of this kind.
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Scan => "scan",
            JobKind::Sort => "sort",
            JobKind::Select => "select",
            JobKind::TopK => "topk",
            JobKind::Spmv => "spmv",
            JobKind::ChaosPanic => "chaos-panic",
            JobKind::ChaosSpin => "chaos-spin",
            JobKind::ChaosBadVerify => "chaos-badverify",
        }
    }

    /// Parses the jobspec spelling back into a kind (the inverse of
    /// [`JobKind::label`]; also used by snapshot recovery).
    pub fn parse(s: &str) -> Option<JobKind> {
        JobKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// Declarative fault injection for one job (compiled to a
/// [`FaultPlan`] over the job's input extent).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultCfg {
    /// Fraction of rows permanently dead (remapped with detour energy).
    pub dead_rows: f64,
    /// Fraction of rows with degraded (double-cost) links.
    pub degraded_rows: f64,
    /// Per-message transient corruption probability.
    pub flaky: f64,
}

impl FaultCfg {
    /// Whether any fault dimension is active.
    pub fn any(&self) -> bool {
        self.dead_rows > 0.0 || self.degraded_rows > 0.0 || self.flaky > 0.0
    }

    /// Parses a `{"dead_rows": …, "degraded_rows": …, "flaky": …}` object.
    /// `ctx` prefixes error messages (e.g. `"job 3"` or a tenant name).
    pub fn from_json(f: &Json, ctx: &str) -> Result<FaultCfg, String> {
        let frac = |name: &str| -> Result<f64, String> {
            match f.get(name) {
                None => Ok(0.0),
                Some(j) => j
                    .as_f64()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| format!("{ctx}: faults.{name} must be in [0, 1]")),
            }
        };
        Ok(FaultCfg {
            dead_rows: frac("dead_rows")?,
            degraded_rows: frac("degraded_rows")?,
            flaky: frac("flaky")?,
        })
    }

    /// Compiles to a [`FaultPlan`] over `extent` with the given seed.
    pub fn compile(&self, seed: u64, extent: SubGrid) -> FaultPlan {
        FaultPlan::builder(seed)
            .random_dead_rows(extent, self.dead_rows)
            .random_degraded_rows(extent, self.degraded_rows)
            .flaky(self.flaky)
            .build()
    }
}

/// One job in a batch.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Stable identifier, echoed in the report (defaults to `job-<index>`).
    pub id: String,
    /// Which primitive to run.
    pub kind: JobKind,
    /// Input size (elements for arrays, rows for spmv).
    pub n: u64,
    /// Base seed: input generation, selection pivots, backoff jitter and
    /// fault plans all derive from it.
    pub seed: u64,
    /// Input array family (ignored by spmv and chaos kinds).
    pub array: ArrayKind,
    /// Rank for select / size for topk (1-based; defaults to `n/2` max 1).
    pub k: u64,
    /// Injected faults, if any.
    pub faults: FaultCfg,
    /// Optional energy budget enforced by a [`ModelGuard`].
    pub budget: Option<u64>,
    /// Retry cap for recovery (attempts = retries + 1).
    pub retries: u32,
    /// Per-job wall-clock deadline; `None` inherits the batch default.
    pub deadline_ms: Option<u64>,
    /// Cost profile the job's machine reports under (a built-in name,
    /// validated at parse time; see [`spatial_core::model::profile_by_name`]).
    /// `None` inherits the batch/serve default, which defaults to raw
    /// counters only. Pure accounting: never affects execution or the raw
    /// `cost` tuple.
    pub profile: Option<&'static str>,
}

impl JobSpec {
    /// A baseline spec for `kind` (n = 256, seed 1, uniform input, no
    /// faults, 3 retries, no deadline).
    pub fn new(id: impl Into<String>, kind: JobKind) -> JobSpec {
        JobSpec {
            id: id.into(),
            kind,
            n: 256,
            seed: 1,
            array: ArrayKind::Uniform,
            k: 128,
            faults: FaultCfg::default(),
            budget: None,
            retries: 3,
            deadline_ms: None,
            profile: None,
        }
    }

    /// Parses one job object from a jobspec document. `index` supplies the
    /// default id.
    pub fn from_json(v: &Json, index: usize) -> Result<JobSpec, String> {
        let kind_str = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("job {index}: missing string field \"kind\""))?;
        let kind = JobKind::parse(kind_str).ok_or_else(|| {
            let known: Vec<&str> = JobKind::ALL.iter().map(|k| k.label()).collect();
            format!("job {index}: unknown kind {kind_str:?} (known: {})", known.join(", "))
        })?;
        let field_u64 = |name: &str, default: u64| -> Result<u64, String> {
            match v.get(name) {
                None => Ok(default),
                Some(j) => j.as_u64().ok_or_else(|| {
                    format!("job {index}: field {name:?} must be a non-negative integer")
                }),
            }
        };
        let n = field_u64("n", 256)?.max(1);
        let seed = field_u64("seed", 1)?;
        let k = field_u64("k", (n / 2).max(1))?;
        let retries = field_u64("retries", 3)?.min(u64::from(u32::MAX)) as u32;
        let deadline_ms = match v.get("deadline_ms") {
            None => None,
            Some(j) if j.is_null() => None,
            Some(j) => Some(j.as_u64().ok_or_else(|| {
                format!("job {index}: field \"deadline_ms\" must be an integer or null")
            })?),
        };
        let budget = match v.get("budget") {
            None => None,
            Some(j) if j.is_null() => None,
            Some(j) => Some(j.as_u64().ok_or_else(|| {
                format!("job {index}: field \"budget\" must be an integer or null")
            })?),
        };
        let array = match v.get("array").and_then(Json::as_str) {
            None => ArrayKind::Uniform,
            Some(s) => ArrayKind::ALL
                .into_iter()
                .find(|a| a.label() == s)
                .ok_or_else(|| format!("job {index}: unknown array kind {s:?}"))?,
        };
        let faults = match v.get("faults") {
            None => FaultCfg::default(),
            Some(f) => FaultCfg::from_json(f, &format!("job {index}"))?,
        };
        let id = match v.get("id") {
            None => format!("job-{index}"),
            Some(j) => j
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("job {index}: field \"id\" must be a string"))?,
        };
        let profile = match v.get("profile") {
            None => None,
            Some(j) if j.is_null() => None,
            Some(j) => {
                let name = j.as_str().ok_or_else(|| {
                    format!("job {index}: field \"profile\" must be a string or null")
                })?;
                // Resolve to the registry's `&'static` name; an unknown name
                // surfaces the typed usage error verbatim.
                Some(profile_by_name(name).map_err(|e| format!("job {index}: {e}"))?.name())
            }
        };
        // chaos-spin needing a deadline is checked by `Batch::parse`, which
        // also knows the batch-wide default deadline.
        if matches!(kind, JobKind::Select | JobKind::TopK) && (k < 1 || k > n) {
            return Err(format!("job {index} ({id}): k = {k} out of range 1..={n}"));
        }
        Ok(JobSpec { id, kind, n, seed, array, k, faults, budget, retries, deadline_ms, profile })
    }

    /// The grid extent the job's input occupies (used to scope random fault
    /// plans so injected dead rows actually intersect the computation).
    pub fn extent(&self) -> SubGrid {
        SubGrid::input_square(zorder::next_power_of_four(self.n))
    }

    /// Side of the square grid the job's input occupies — what a tenant's
    /// [`crate::tenant::ExtentCap`] is checked against at dispatch.
    pub fn extent_side(&self) -> u64 {
        self.extent().h
    }

    /// The closed-form **energy floor** of this job: the paper's Table I Θ
    /// bound for the primitive, evaluated with unit constants in exact
    /// integer arithmetic ([`spatial_core::theory::Shape::eval_u64`]). The
    /// model's real constants
    /// are all ≥ 1, so the measured energy of any execution is at least
    /// this value — which is what makes refusing a job whose floor already
    /// exceeds a tenant's remaining budget safe: it could never have fit.
    ///
    /// Chaos kinds predict 0 (they exercise supervision, not the model),
    /// and so does every job with `n ≤ 1`: a single element needs no
    /// message, while the Θ shapes evaluate to 1 there.
    pub fn predicted_energy(&self) -> u64 {
        use spatial_core::theory::{
            scan_bound, selection_bound, sorting_bound, spmv_bound, Metric,
        };
        if self.n <= 1 {
            return 0;
        }
        match self.kind {
            JobKind::Scan => scan_bound(Metric::Energy).eval_u64(self.n),
            JobKind::Sort => sorting_bound(Metric::Energy).eval_u64(self.n),
            // Top-k runs a selection phase first; its Θ(n) floor holds.
            JobKind::Select | JobKind::TopK => selection_bound(Metric::Energy).eval_u64(self.n),
            // The spmv workload has m ≥ n non-zeros; bound with m = n.
            JobKind::Spmv => spmv_bound(Metric::Energy).eval_u64(self.n),
            JobKind::ChaosPanic | JobKind::ChaosSpin | JobKind::ChaosBadVerify => 0,
        }
    }
}

/// Final classification of one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Verified result from the spatial machine (possibly after retries).
    Ok,
    /// Recovery exhausted; the answer came from the sequential host oracle.
    Degraded,
    /// The job panicked (contained by the pool).
    Panicked,
    /// The job's deadline fired and the run was cancelled.
    DeadlineExceeded,
    /// The job was rejected at admission (pool saturated).
    Shed,
    /// The job was rejected at admission because its tenant's cumulative
    /// energy budget is exhausted. It never executed (serve daemon only).
    OverBudget,
    /// The job was rejected *before execution* because its closed-form
    /// predicted energy ([`JobSpec::predicted_energy`]) already exceeds the
    /// tenant's remaining budget (serve daemon, predictive admission).
    PredictedOverBudget,
    /// The job was rejected at dispatch because its input grid exceeds the
    /// tenant's registered extent cap (serve daemon only).
    ExtentRefused,
}

impl Outcome {
    /// Every outcome, in report/aggregate order.
    pub const ALL: [Outcome; 8] = [
        Outcome::Ok,
        Outcome::Degraded,
        Outcome::Panicked,
        Outcome::DeadlineExceeded,
        Outcome::Shed,
        Outcome::OverBudget,
        Outcome::PredictedOverBudget,
        Outcome::ExtentRefused,
    ];

    /// Report spelling.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Degraded => "degraded",
            Outcome::Panicked => "panicked",
            Outcome::DeadlineExceeded => "deadline-exceeded",
            Outcome::Shed => "shed",
            Outcome::OverBudget => "over-budget",
            Outcome::PredictedOverBudget => "predicted-over-budget",
            Outcome::ExtentRefused => "extent-refused",
        }
    }

    /// Parses the report spelling back into an outcome (snapshot recovery).
    pub fn parse(s: &str) -> Option<Outcome> {
        Outcome::ALL.into_iter().find(|o| o.label() == s)
    }

    /// Index of this outcome in [`Outcome::ALL`] (stats buckets). Total by
    /// construction — a match, not a searched `position().expect()` — so
    /// adding a variant without extending `ALL` is a compile error here,
    /// not a panic in the daemon's emission path.
    pub fn index(self) -> usize {
        match self {
            Outcome::Ok => 0,
            Outcome::Degraded => 1,
            Outcome::Panicked => 2,
            Outcome::DeadlineExceeded => 3,
            Outcome::Shed => 4,
            Outcome::OverBudget => 5,
            Outcome::PredictedOverBudget => 6,
            Outcome::ExtentRefused => 7,
        }
    }

    /// The exit-code-style classification of this outcome, extending the
    /// [`SpatialError`] taxonomy (codes 2–11): 0 ok, 1 panicked, 8 degraded
    /// (recovery exhausted), 9 deadline exceeded, 10 shed, 12 over budget,
    /// 13 predicted over budget (refused pre-execution), 14 extent refused.
    pub fn exit_code(self) -> i32 {
        match self {
            Outcome::Ok => 0,
            Outcome::Panicked => 1,
            Outcome::Degraded => spatial_core::recovery::EXIT_RECOVERY_EXHAUSTED,
            Outcome::DeadlineExceeded => 9,
            Outcome::Shed => 10,
            Outcome::OverBudget => 12,
            Outcome::PredictedOverBudget => 13,
            Outcome::ExtentRefused => 14,
        }
    }
}

/// The result of executing (or failing to execute) one job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// Echoed job id.
    pub id: String,
    /// Echoed kind.
    pub kind: JobKind,
    /// Final classification.
    pub outcome: Outcome,
    /// Attempts executed on the spatial machine (0 for panicked/shed).
    pub attempts: u32,
    /// Ladder level: 0 = clean first attempt, 1 = recovered via retries,
    /// 2 = host-oracle fallback.
    pub escalation: u8,
    /// Accumulated model cost across attempts. `None` when no
    /// deterministic cost exists (panicked, shed, deadline-exceeded).
    pub cost: Option<Cost>,
    /// `cost` charged under the job's [`JobSpec::profile`]. `None` when no
    /// profile was requested, when there is no cost, or if the profile's
    /// arithmetic saturated (impossible for built-ins on real runs). Derived
    /// from `cost` alone, so exactly as deterministic.
    pub profiled: Option<ProfiledCost>,
    /// Fault-detour energy of the final attempt.
    pub detour_energy: u64,
    /// Total scheduled backoff between attempts (deterministic).
    pub backoff_ms: u64,
    /// FNV checksum of the job's output (host-oracle checksum when
    /// degraded; `None` when there is no output).
    pub checksum: Option<u64>,
    /// Human-readable failure detail, if any.
    pub error: Option<String>,
    /// Wall time of the job closure, milliseconds. Excluded from
    /// deterministic report comparisons.
    pub wall_ms: u64,
}

impl JobResult {
    fn skeleton(spec: &JobSpec, outcome: Outcome) -> JobResult {
        JobResult {
            id: spec.id.clone(),
            kind: spec.kind,
            outcome,
            attempts: 0,
            escalation: 0,
            cost: None,
            profiled: None,
            detour_energy: 0,
            backoff_ms: 0,
            checksum: None,
            error: None,
            wall_ms: 0,
        }
    }

    /// Result for a job the pool refused to run.
    pub fn shed(spec: &JobSpec) -> JobResult {
        JobResult {
            error: Some("shed: submission queue past saturation threshold".into()),
            ..JobResult::skeleton(spec, Outcome::Shed)
        }
    }

    /// Result for a job that panicked (message captured by the pool).
    pub fn panicked(spec: &JobSpec, message: String) -> JobResult {
        JobResult {
            error: Some(format!("panicked: {message}")),
            ..JobResult::skeleton(spec, Outcome::Panicked)
        }
    }

    /// Result for a job rejected at admission because its tenant's energy
    /// budget is exhausted (`charged` of `budget` units already spent).
    pub fn over_budget(spec: &JobSpec, tenant: &str, charged: u64, budget: u64) -> JobResult {
        JobResult {
            error: Some(format!(
                "over budget: tenant \"{tenant}\" has charged {charged} of {budget} energy units"
            )),
            ..JobResult::skeleton(spec, Outcome::OverBudget)
        }
    }

    /// Result for a job refused *before execution* by predictive admission:
    /// its closed-form energy floor already exceeds the tenant's remaining
    /// budget, so running it could only have ended over budget.
    pub fn predicted_over_budget(
        spec: &JobSpec,
        tenant: &str,
        predicted: u64,
        remaining: u64,
    ) -> JobResult {
        JobResult {
            error: Some(format!(
                "predicted over budget: job \"{}\" predicted energy {predicted} exceeds \
                 tenant \"{tenant}\" remaining budget {remaining}",
                spec.id
            )),
            ..JobResult::skeleton(spec, Outcome::PredictedOverBudget)
        }
    }

    /// Result for a job refused at dispatch because its input grid exceeds
    /// the tenant's registered extent cap.
    pub fn extent_refused(
        spec: &JobSpec,
        tenant: &str,
        side: u64,
        rows: u64,
        cols: u64,
    ) -> JobResult {
        JobResult {
            error: Some(format!(
                "extent refused: job \"{}\" needs a {side}x{side} grid, \
                 tenant \"{tenant}\" extent cap is {rows}x{cols}",
                spec.id
            )),
            ..JobResult::skeleton(spec, Outcome::ExtentRefused)
        }
    }
}

/// The sequential host oracle: the reference answer a degraded job falls
/// back to, and the checksum source every spatial run is verified against.
///
/// Returns the output as an `i64` stream to be checksummed.
pub fn host_oracle(spec: &JobSpec) -> Vec<i64> {
    let n = spec.n as usize;
    match spec.kind {
        JobKind::Scan | JobKind::ChaosBadVerify => {
            let data = spec.array.generate(n, spec.seed);
            data.iter()
                .scan(0i64, |acc, &x| {
                    *acc = acc.wrapping_add(x);
                    Some(*acc)
                })
                .collect()
        }
        JobKind::Sort => {
            let mut data = spec.array.generate(n, spec.seed);
            data.sort_unstable();
            data
        }
        JobKind::Select => {
            let mut data = spec.array.generate(n, spec.seed);
            data.sort_unstable();
            vec![data[(spec.k - 1) as usize]]
        }
        JobKind::TopK => {
            let mut data = spec.array.generate(n, spec.seed);
            data.sort_unstable();
            data.split_off(n - spec.k as usize)
        }
        JobKind::Spmv => {
            let mat = workloads::matrices::random_uniform(n, 4, spec.seed);
            let x = spec.array.generate(n, spec.seed ^ 0x5EED);
            mat.multiply_dense(&x)
        }
        JobKind::ChaosPanic | JobKind::ChaosSpin => Vec::new(),
    }
}

/// One attempt of `spec` on a fault-enabled machine. The attempt index
/// re-salts randomized primitives so a retry explores a fresh execution.
fn attempt(
    spec: &JobSpec,
    token: &CancelToken,
    m: &mut Machine,
    attempt: u32,
) -> Result<Vec<i64>, SpatialError> {
    m.set_cancel_token(token.clone());
    if let Some(b) = spec.budget {
        m.enable_guard(ModelGuard::new().max_energy(b));
    }
    if let Some(name) = spec.profile {
        // Validated at parse time; carried on the machine through the whole
        // attempt (accounting only — the bare fast path is unaffected).
        m.set_profile(profile_by_name(name).expect("spec profiles are validated at parse"));
    }
    run_primitive(spec, m, spec.seed ^ (u64::from(attempt) << 32))
}

/// Runs `spec`'s primitive on `m` as it is armed, with `salt` seeding the
/// randomized primitives.
fn run_primitive(spec: &JobSpec, m: &mut Machine, salt: u64) -> Result<Vec<i64>, SpatialError> {
    let n = spec.n as usize;
    match spec.kind {
        JobKind::Scan | JobKind::ChaosBadVerify => {
            let items = collectives::place_z(m, 0, spec.array.generate(n, spec.seed));
            let out = m.guarded(|m| {
                collectives::scan_any(m, 0, items, &|a: &i64, b: &i64| a.wrapping_add(*b))
            })?;
            Ok(collectives::read_values(out))
        }
        JobKind::Sort => {
            let items = collectives::place_z(m, 0, spec.array.generate(n, spec.seed));
            let out = m.guarded(|m| sorting::sort_z(m, 0, items))?;
            Ok(collectives::read_values(out))
        }
        JobKind::Select => {
            let items = collectives::place_z(m, 0, spec.array.generate(n, spec.seed));
            let (t, _stats) = m.guarded(|m| selection::select_rank(m, 0, items, spec.k, salt))?;
            Ok(vec![t.into_value()])
        }
        JobKind::TopK => {
            let items = collectives::place_z(m, 0, spec.array.generate(n, spec.seed));
            let out = m.guarded(|m| topk::top_k(m, 0, items, spec.k, salt))?;
            Ok(out.into_iter().map(|t| t.into_value()).collect())
        }
        JobKind::Spmv => {
            let mat = workloads::matrices::random_uniform(n, 4, spec.seed);
            let x = spec.array.generate(n, spec.seed ^ 0x5EED);
            Ok(m.guarded(|m| spmv::spmv(m, &mat, &x))?.y)
        }
        JobKind::ChaosPanic => panic!("chaos-panic: deliberate job panic ({})", spec.id),
        JobKind::ChaosSpin => {
            // Bounce a value between two corners until the watchdog trips
            // the cancel token or the budget runs out. Every send is its own
            // `guarded` call, which reads the token and the latch when it
            // returns, so the spin stops within one message.
            let mut v = m.guarded(|m| m.place(Coord::ORIGIN, 0i64))?;
            loop {
                v = m.guarded(|m| m.send_owned(v, Coord::new(7, 7)))?;
                v = m.guarded(|m| m.send_owned(v, Coord::ORIGIN))?;
            }
        }
    }
}

/// Executes one job through the degradation ladder (see the module docs).
///
/// `default_deadline` and `policy` come from the batch config; `wall_ms` is
/// filled in by the caller, which owns the clock.
pub fn execute(spec: &JobSpec, token: &CancelToken, policy: &BackoffPolicy) -> JobResult {
    let expected = match spec.kind {
        // The bad-verify chaos kind checks against a corrupted checksum, so
        // the spatial run can never verify and the ladder must bottom out.
        JobKind::ChaosBadVerify => checksum_i64(&host_oracle(spec)) ^ 1,
        _ => checksum_i64(&host_oracle(spec)),
    };
    let plan = spec.faults.compile(spec.seed, spec.extent());
    let outcome = run_with_recovery_policy(
        &plan,
        spec.retries,
        policy,
        spec.seed,
        |m, a| attempt(spec, token, m, a),
        |out| checksum_i64(out) == expected,
    );
    match outcome {
        Ok(rec) => JobResult {
            attempts: rec.attempts,
            escalation: u8::from(rec.attempts > 1),
            cost: Some(rec.cost),
            profiled: charge_profiled(spec, rec.cost),
            detour_energy: rec.detour_energy,
            backoff_ms: rec.backoff_ms,
            checksum: Some(checksum_i64(&rec.value)),
            ..JobResult::skeleton(spec, Outcome::Ok)
        },
        Err(ex) if ex.cancelled() => deadline_exceeded(spec, ex),
        Err(ex) => {
            // Host-oracle fallback: the spatial runs failed, but the batch
            // still produces this job's answer — sequentially, with the
            // sunk simulation cost on the books and the outcome marked.
            let oracle = host_oracle(spec);
            JobResult {
                attempts: ex.attempts,
                escalation: 2,
                cost: Some(ex.cost),
                profiled: charge_profiled(spec, ex.cost),
                backoff_ms: ex.backoff_ms,
                checksum: Some(checksum_i64(&oracle)),
                error: Some(format!("degraded to host oracle: {ex}")),
                ..JobResult::skeleton(spec, Outcome::Degraded)
            }
        }
    }
}

/// Charges `cost` under the spec's profile, if one was requested. The
/// charge is a pure function of the deterministic `cost`, so it inherits
/// the report's bit-determinism; a saturated charge (unreachable for the
/// built-in profiles on real counters) yields `None` rather than aborting a
/// job that already produced its answer.
fn charge_profiled(spec: &JobSpec, cost: Cost) -> Option<ProfiledCost> {
    let p = profile_by_name(spec.profile?).expect("spec profiles are validated at parse");
    p.charge(cost).ok()
}

fn deadline_exceeded(spec: &JobSpec, ex: RecoveryExhausted) -> JobResult {
    JobResult {
        attempts: ex.attempts,
        // Cost deliberately withheld: how much traffic a cancelled attempt
        // managed to send depends on when the watchdog fired, and a
        // timing-dependent number has no place in a deterministic report.
        cost: None,
        backoff_ms: ex.backoff_ms,
        error: Some(format!(
            "deadline exceeded after {} ms",
            spec.deadline_ms.map(|d| d.to_string()).unwrap_or_else(|| "?".into())
        )),
        ..JobResult::skeleton(spec, Outcome::DeadlineExceeded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(spec: &JobSpec) -> JobResult {
        execute(spec, &CancelToken::new(), &BackoffPolicy::NONE)
    }

    #[test]
    fn every_clean_kind_verifies_against_its_oracle() {
        for kind in [JobKind::Scan, JobKind::Sort, JobKind::Select, JobKind::TopK, JobKind::Spmv] {
            let mut spec = JobSpec::new(format!("t-{}", kind.label()), kind);
            spec.n = 64;
            spec.k = 5;
            let r = run(&spec);
            assert_eq!(r.outcome, Outcome::Ok, "{kind:?}: {:?}", r.error);
            assert_eq!(r.attempts, 1);
            assert_eq!(r.escalation, 0);
            assert_eq!(r.checksum, Some(checksum_i64(&host_oracle(&spec))), "{kind:?}");
            assert!(r.cost.unwrap().energy > 0);
        }
    }

    #[test]
    fn predicted_energy_never_exceeds_a_bare_run() {
        // The admission floor's promise: no execution charges less energy.
        for kind in [JobKind::Scan, JobKind::Sort, JobKind::Select, JobKind::TopK, JobKind::Spmv] {
            for n in 0..=64u64 {
                for array in ArrayKind::ALL {
                    let doc = format!(
                        r#"{{"kind": "{}", "n": {n}, "array": "{}"}}"#,
                        kind.label(),
                        array.label()
                    );
                    let json = Json::parse(&doc).expect("well-formed job");
                    let spec = JobSpec::from_json(&json, 0).expect("the parser accepts the job");
                    let mut m = Machine::new();
                    run_primitive(&spec, &mut m, spec.seed).expect("a bare run cannot fail");
                    assert!(
                        spec.predicted_energy() <= m.energy(),
                        "{doc}: floor {} above the executed energy {}",
                        spec.predicted_energy(),
                        m.energy()
                    );
                }
            }
        }
    }

    #[test]
    fn flaky_faults_recover_with_escalation_one() {
        let mut spec = JobSpec::new("flaky", JobKind::Scan);
        spec.n = 64;
        spec.faults.flaky = 0.02;
        spec.retries = 100;
        let r = run(&spec);
        assert_eq!(r.outcome, Outcome::Ok, "{:?}", r.error);
        assert!(r.attempts > 1, "2% flaky over a 64-scan should corrupt at least once");
        assert_eq!(r.escalation, 1);
        // Determinism of the whole ladder.
        assert_eq!(r, run(&spec));
    }

    #[test]
    fn unrecoverable_faults_degrade_to_the_host_oracle() {
        let mut spec = JobSpec::new("dead", JobKind::Scan);
        spec.n = 64;
        spec.faults.flaky = 1.0;
        spec.retries = 2;
        let r = run(&spec);
        assert_eq!(r.outcome, Outcome::Degraded);
        assert_eq!(r.attempts, 3);
        assert_eq!(r.escalation, 2);
        assert_eq!(r.checksum, Some(checksum_i64(&host_oracle(&spec))), "oracle answer present");
        assert!(r.cost.unwrap().energy > 0, "sunk cost stays on the books");
        assert!(r.error.as_deref().unwrap().contains("degraded"));
    }

    #[test]
    fn bad_verify_chaos_always_degrades() {
        let mut spec = JobSpec::new("bv", JobKind::ChaosBadVerify);
        spec.n = 16;
        spec.retries = 1;
        let r = run(&spec);
        assert_eq!(r.outcome, Outcome::Degraded);
        assert_eq!(r.attempts, 2);
    }

    #[test]
    fn pre_cancelled_job_reports_deadline_exceeded_without_cost() {
        let mut spec = JobSpec::new("spin", JobKind::ChaosSpin);
        spec.deadline_ms = Some(50);
        let token = CancelToken::new();
        token.cancel();
        let r = execute(&spec, &token, &BackoffPolicy::NONE);
        assert_eq!(r.outcome, Outcome::DeadlineExceeded);
        assert_eq!(r.attempts, 1, "cancellation aborts the retry loop");
        assert_eq!(r.cost, None, "timing-dependent cost must not reach the report");
    }

    #[test]
    fn budget_violation_exhausts_into_degraded() {
        let mut spec = JobSpec::new("tight", JobKind::Sort);
        spec.n = 256;
        spec.budget = Some(10);
        spec.retries = 1;
        let r = run(&spec);
        assert_eq!(r.outcome, Outcome::Degraded);
        assert!(r.error.as_deref().unwrap().contains("budget"), "{:?}", r.error);
    }

    #[test]
    fn jobspec_json_round_trip_and_validation() {
        let v = Json::parse(
            r#"{"kind": "select", "n": 100, "k": 7, "seed": 9, "array": "zigzag",
                "faults": {"flaky": 0.5}, "budget": 123, "retries": 2, "deadline_ms": 400}"#,
        )
        .unwrap();
        let spec = JobSpec::from_json(&v, 3).unwrap();
        assert_eq!(spec.id, "job-3");
        assert_eq!(spec.kind, JobKind::Select);
        assert_eq!((spec.n, spec.k, spec.seed), (100, 7, 9));
        assert_eq!(spec.array, ArrayKind::Zigzag);
        assert_eq!(spec.faults.flaky, 0.5);
        assert_eq!(spec.budget, Some(123));
        assert_eq!(spec.deadline_ms, Some(400));

        for (bad, needle) in [
            (r#"{"kind": "warp"}"#, "unknown kind"),
            (r#"{"kind": "select", "n": 4, "k": 9}"#, "out of range"),
            (r#"{"kind": "scan", "faults": {"flaky": 1.5}}"#, "[0, 1]"),
            (r#"{"kind": "scan", "n": -3}"#, "non-negative"),
        ] {
            let err = JobSpec::from_json(&Json::parse(bad).unwrap(), 0).unwrap_err();
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn dead_row_faults_charge_detour_energy() {
        let mut spec = JobSpec::new("detour", JobKind::Scan);
        spec.n = 256;
        spec.faults.dead_rows = 0.2;
        spec.retries = 4;
        let r = run(&spec);
        assert_eq!(r.outcome, Outcome::Ok, "{:?}", r.error);
        assert!(r.detour_energy > 0, "dead rows must be priced");
    }
}
