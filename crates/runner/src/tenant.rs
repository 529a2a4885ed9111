//! Per-tenant state and deficit-round-robin scheduling for the serve
//! daemon.
//!
//! A long-lived daemon serves many tenants from one worker pool, and three
//! per-tenant mechanisms keep them isolated:
//!
//! * **Admission (rate limiting)** — each tenant may hold at most
//!   [`RateLimit::burst`] admissions within the last [`RateLimit::window`]
//!   submissions of the *global* stream. The decision is a pure function of
//!   the submission sequence — never of queue drain timing — which is what
//!   keeps a served stream's canonical output byte-identical at any worker
//!   count. Rejected jobs become [`crate::job::Outcome::Shed`].
//! * **Budgets** — a tenant's cumulative model energy is charged against an
//!   optional [`TenantConfig::budget`]. Jobs of an exhausted tenant are
//!   rejected with the typed [`crate::job::Outcome::OverBudget`] instead of
//!   panicking or silently running. Because a tenant's jobs execute in
//!   submission order (one in flight at a time), the ledger before job *k*
//!   depends only on jobs *1..k* of that tenant — deterministic at any
//!   worker count.
//! * **Fair scheduling** — free worker slots are handed out by deficit
//!   round robin ([`DrrScheduler::next`]): each tenant's turn earns it
//!   [`DrrScheduler::quantum`] work units of deficit, a job costs its input
//!   size `n` in units, and a job is dispatched only when the deficit
//!   covers it. A tenant spamming huge jobs therefore cannot starve a
//!   tenant of small ones: between two dispatches of a backlogged tenant,
//!   every other tenant receives at most `O(quantum + max_weight)` units
//!   (see the bound pinned by `tests/scheduling.rs`).
//!
//! The scheduler is a plain single-threaded data structure; the serve loop
//! drives it under one mutex. All iteration orders are fixed (tenants live
//! in a `Vec` in first-seen order), so a fixed call sequence produces a
//! fixed dispatch sequence.

use std::collections::VecDeque;

use crate::job::{FaultCfg, JobSpec};

/// Sliding-window admission cap: at most `burst` jobs from one tenant
/// within any `window` consecutive submissions of the global stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RateLimit {
    /// Maximum admitted jobs inside the window (at least 1).
    pub burst: u64,
    /// Window length, in global submission sequence numbers (at least 1).
    pub window: u64,
}

/// A [`spatial_core::model::ModelGuard`]-style *extent* policy: the largest
/// grid a tenant's job may occupy. A job whose input square exceeds either
/// dimension is refused at dispatch with
/// [`crate::job::Outcome::ExtentRefused`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExtentCap {
    /// Maximum grid rows a job's input extent may span.
    pub rows: u64,
    /// Maximum grid columns a job's input extent may span.
    pub cols: u64,
}

impl ExtentCap {
    /// Whether a square input extent of side `side` fits under the cap.
    pub fn admits(&self, side: u64) -> bool {
        side <= self.rows && side <= self.cols
    }
}

/// Declarative per-tenant policy, set by the `tenant` control verb.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TenantConfig {
    /// Cumulative model-energy budget; `None` is unlimited.
    pub budget: Option<u64>,
    /// Admission rate limit; `None` admits everything.
    pub rate: Option<RateLimit>,
    /// Default fault plan applied to this tenant's jobs that don't declare
    /// their own.
    pub faults: Option<FaultCfg>,
    /// Largest grid extent a job may occupy; `None` is unbounded.
    pub extent: Option<ExtentCap>,
    /// Predictive admission: refuse a job before execution when its
    /// closed-form energy floor ([`crate::job::JobSpec::predicted_energy`])
    /// already exceeds the remaining budget. Opt-in — the default keeps the
    /// pre-existing semantics where a job runs under its guard and is
    /// charged what it actually spent.
    pub predict: bool,
}

/// One job submission bound for the scheduler.
#[derive(Clone, Debug, PartialEq)]
pub struct Submission {
    /// Global input-line sequence number (also the output ordering key).
    pub seq: u64,
    /// Owning tenant.
    pub tenant: String,
    /// The job itself.
    pub spec: JobSpec,
}

/// The DRR work units one job costs: its input size (minimum 1), the same
/// size-proportional estimate the paper's closed forms are linear in.
pub fn weight(spec: &JobSpec) -> u64 {
    spec.n.max(1)
}

struct Tenant {
    name: String,
    config: TenantConfig,
    queue: VecDeque<Submission>,
    /// DRR deficit counter, in work units.
    deficit: u64,
    /// Whether a job of this tenant is currently in flight (per-tenant
    /// execution is serial so the budget ledger is well-ordered).
    busy: bool,
    /// Recent admission sequence numbers (rate-limited tenants only).
    admitted: VecDeque<u64>,
    /// Cumulative model energy charged against the budget.
    charged: u64,
    /// Completed job count (ledger telemetry; also the fairness probe).
    completed: u64,
}

impl Tenant {
    /// Backlogged with no job in flight: the tenant could dispatch now.
    fn ready(&self) -> bool {
        !self.busy && !self.queue.is_empty()
    }
}

/// Why a submission was refused admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The tenant exceeded its sliding-window rate limit.
    RateLimited {
        /// The configured limit, echoed into the error message.
        burst: u64,
        /// The configured window.
        window: u64,
    },
}

/// Deficit-round-robin scheduler over per-tenant FIFO queues.
pub struct DrrScheduler {
    tenants: Vec<Tenant>,
    /// Ring cursor into `tenants` (first-seen order).
    cursor: usize,
    /// Deficit earned per visit, in work units.
    pub quantum: u64,
    pending: usize,
}

impl DrrScheduler {
    /// A scheduler granting `quantum` work units per tenant visit.
    pub fn new(quantum: u64) -> DrrScheduler {
        DrrScheduler { tenants: Vec::new(), cursor: 0, quantum: quantum.max(1), pending: 0 }
    }

    fn slot(&mut self, name: &str) -> usize {
        if let Some(i) = self.tenants.iter().position(|t| t.name == name) {
            return i;
        }
        self.tenants.push(Tenant {
            name: name.to_string(),
            config: TenantConfig::default(),
            queue: VecDeque::new(),
            deficit: 0,
            busy: false,
            admitted: VecDeque::new(),
            charged: 0,
            completed: 0,
        });
        self.tenants.len() - 1
    }

    /// Registers (or re-registers) a tenant's policy. Budgets and rate
    /// limits take effect for subsequent submissions; already-queued jobs
    /// keep their admission.
    pub fn register(&mut self, name: &str, config: TenantConfig) {
        let i = self.slot(name);
        self.tenants[i].config = config;
    }

    /// The tenant's default fault plan, if registered.
    pub fn fault_default(&mut self, name: &str) -> Option<FaultCfg> {
        let i = self.slot(name);
        self.tenants[i].config.faults
    }

    /// Admission decision for a submission at global sequence `seq`: `Ok`
    /// records the admission, `Err` names the refusal. Pure function of the
    /// admission history — timing never enters.
    pub fn admit(&mut self, name: &str, seq: u64) -> Result<(), Refusal> {
        let i = self.slot(name);
        let t = &mut self.tenants[i];
        let Some(rate) = t.config.rate else {
            return Ok(());
        };
        while t.admitted.front().is_some_and(|&s| s + rate.window <= seq) {
            t.admitted.pop_front();
        }
        if t.admitted.len() as u64 >= rate.burst.max(1) {
            return Err(Refusal::RateLimited { burst: rate.burst.max(1), window: rate.window });
        }
        t.admitted.push_back(seq);
        Ok(())
    }

    /// Queues an admitted submission.
    pub fn enqueue(&mut self, sub: Submission) {
        let i = self.slot(&sub.tenant);
        self.tenants[i].queue.push_back(sub);
        self.pending += 1;
    }

    /// Jobs queued and not yet dispatched, across all tenants.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Whether any tenant could dispatch right now (has queued work and no
    /// job in flight).
    pub fn dispatchable(&self) -> bool {
        self.tenants.iter().any(Tenant::ready)
    }

    /// Picks the next job by deficit round robin and marks its tenant busy.
    /// Returns `None` when no tenant is dispatchable (all idle, or every
    /// backlogged tenant already has a job in flight).
    ///
    /// Not an `Iterator`: `None` means "nothing dispatchable *right now*" —
    /// a `complete()` call can make the same scheduler yield again.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Submission> {
        if !self.dispatchable() {
            return None;
        }
        // Grant at once the full rounds in which no backlogged idle tenant
        // covers its head job: each adds one quantum to each of them and
        // dispatches nothing, and ends with the cursor where it started, so
        // the turns below dispatch what turn-by-turn rounds would.
        let quantum = self.quantum;
        let rounds = (self.tenants.iter().filter(|t| t.ready()))
            .map(|t| weight(&t.queue[0].spec).saturating_sub(t.deficit).div_ceil(quantum))
            .min()
            .unwrap_or(0)
            .saturating_sub(1);
        for t in self.tenants.iter_mut().filter(|t| t.ready()) {
            t.deficit = t.deficit.saturating_add(rounds.saturating_mul(quantum));
        }
        Some(self.turns())
    }

    /// Visits tenants from the cursor, one quantum per backlogged idle
    /// tenant per turn, until one covers its head job's weight; dispatches
    /// that job. Needs a dispatchable tenant.
    fn turns(&mut self) -> Submission {
        let k = self.tenants.len();
        loop {
            let i = self.cursor;
            self.cursor = (self.cursor + 1) % k;
            let t = &mut self.tenants[i];
            if t.queue.is_empty() {
                // Classic DRR: an idle flow forfeits its accumulated credit.
                t.deficit = 0;
                continue;
            }
            if t.busy {
                continue;
            }
            t.deficit = t.deficit.saturating_add(self.quantum);
            let w = weight(&t.queue.front().expect("non-empty queue").spec);
            if t.deficit >= w {
                t.deficit -= w;
                t.busy = true;
                let sub = t.queue.pop_front().expect("non-empty queue");
                if t.queue.is_empty() {
                    t.deficit = 0;
                }
                self.pending -= 1;
                return sub;
            }
        }
    }

    /// Completes the tenant's in-flight job, charging `energy` against its
    /// budget ledger.
    pub fn complete(&mut self, name: &str, energy: u64) {
        let i = self.slot(name);
        let t = &mut self.tenants[i];
        debug_assert!(t.busy, "complete() without a dispatched job");
        t.busy = false;
        t.charged = t.charged.saturating_add(energy);
        t.completed += 1;
    }

    /// Whether the tenant has consumed its whole budget (unlimited tenants
    /// are never over budget).
    pub fn over_budget(&mut self, name: &str) -> bool {
        let i = self.slot(name);
        let t = &self.tenants[i];
        t.config.budget.is_some_and(|b| t.charged >= b)
    }

    /// Remaining budget (`None` = unlimited).
    pub fn remaining_budget(&mut self, name: &str) -> Option<u64> {
        let i = self.slot(name);
        let t = &self.tenants[i];
        t.config.budget.map(|b| b.saturating_sub(t.charged))
    }

    /// The tenant's configured budget (`None` = unlimited).
    pub fn budget_of(&mut self, name: &str) -> Option<u64> {
        let i = self.slot(name);
        self.tenants[i].config.budget
    }

    /// Cumulative energy charged to the tenant.
    pub fn charged(&mut self, name: &str) -> u64 {
        let i = self.slot(name);
        self.tenants[i].charged
    }

    /// Completed job count per tenant, in first-seen tenant order (the
    /// fairness probe used by the scheduling property tests).
    pub fn completion_counts(&self) -> Vec<(String, u64)> {
        self.tenants.iter().map(|t| (t.name.clone(), t.completed)).collect()
    }

    /// The tenant's extent cap, if registered.
    pub fn extent_cap(&mut self, name: &str) -> Option<ExtentCap> {
        let i = self.slot(name);
        self.tenants[i].config.extent
    }

    /// Whether the tenant opted into predictive admission.
    pub fn predictive(&mut self, name: &str) -> bool {
        let i = self.slot(name);
        self.tenants[i].config.predict
    }

    /// Durable per-tenant state, in first-seen order, for the serve
    /// snapshot. Queue contents and the DRR cursor/deficit are deliberately
    /// excluded: queued-but-undispatched work is re-driven from the journal
    /// on recovery, and the cursor never influences canonical output bytes
    /// (per-tenant execution is serial and emission is seq-ordered).
    pub fn export_tenants(&self) -> Vec<TenantSnapshot> {
        self.tenants
            .iter()
            .map(|t| TenantSnapshot {
                name: t.name.clone(),
                config: t.config,
                charged: t.charged,
                completed: t.completed,
                admitted: t.admitted.iter().copied().collect(),
            })
            .collect()
    }

    /// Rehydrates one tenant from a snapshot (inverse of
    /// [`DrrScheduler::export_tenants`]). Replaces any existing state for
    /// the name.
    pub fn import_tenant(&mut self, snap: TenantSnapshot) {
        let i = self.slot(&snap.name);
        let t = &mut self.tenants[i];
        t.config = snap.config;
        t.charged = snap.charged;
        t.completed = snap.completed;
        t.admitted = snap.admitted.into_iter().collect();
    }
}

/// The durable slice of one tenant's ledger, as written to (and read back
/// from) the serve snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSnapshot {
    /// Tenant name.
    pub name: String,
    /// Registered policy.
    pub config: TenantConfig,
    /// Cumulative energy charged against the budget.
    pub charged: u64,
    /// Completed job count.
    pub completed: u64,
    /// Recent admission sequence numbers (rate-limit window), oldest first.
    pub admitted: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;

    fn sub(tenant: &str, seq: u64, n: u64) -> Submission {
        let mut spec = JobSpec::new(format!("{tenant}-{seq}"), JobKind::Scan);
        spec.n = n;
        Submission { seq, tenant: tenant.into(), spec }
    }

    #[test]
    fn drr_interleaves_backlogged_tenants() {
        let mut s = DrrScheduler::new(64);
        for i in 0..4 {
            s.enqueue(sub("a", i, 64));
            s.enqueue(sub("b", 100 + i, 64));
        }
        let mut order = Vec::new();
        while let Some(job) = s.next() {
            order.push(job.tenant.clone());
            s.complete(&job.tenant, 0);
        }
        assert_eq!(order, ["a", "b", "a", "b", "a", "b", "a", "b"]);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn drr_weights_big_jobs_against_their_tenant() {
        // Tenant `big` queues 4096-unit jobs, `small` queues 64-unit jobs
        // with quantum 64: small must get ~64 dispatches per big one.
        let mut s = DrrScheduler::new(64);
        for i in 0..2 {
            s.enqueue(sub("big", i, 4096));
        }
        for i in 0..200 {
            s.enqueue(sub("small", 10 + i, 64));
        }
        let mut small_before_first_big = 0;
        let mut seen_big = false;
        while let Some(job) = s.next() {
            if job.tenant == "big" {
                seen_big = true;
                break;
            }
            small_before_first_big += 1;
            s.complete(&job.tenant, 0);
        }
        assert!(seen_big, "big tenant must not starve either");
        assert!(
            (60..=70).contains(&small_before_first_big),
            "a 4096-unit job at quantum 64 should cost ~64 turns, got {small_before_first_big}"
        );
    }

    /// `next` against the turn-by-turn loop it shortcuts: random tenants,
    /// weights, quanta and busy flags give the same dispatch sequence, the
    /// same deficits and the same cursor.
    #[test]
    fn full_round_grants_dispatch_like_the_turn_by_turn_loop() {
        for case in 0..300 {
            let mut rng = spatial_rng::Rng::stream(0xD22, case);
            let quantum = rng.gen_range(1u64..=300);
            let (mut fast, mut slow) = (DrrScheduler::new(quantum), DrrScheduler::new(quantum));
            for seq in 0..80 {
                match rng.gen_range(0u32..3) {
                    0 => {
                        let tenant = format!("t{}", rng.gen_range(0u32..5));
                        let n = rng.gen_range(0u64..20_000);
                        fast.enqueue(sub(&tenant, seq, n));
                        slow.enqueue(sub(&tenant, seq, n));
                    }
                    1 => {
                        let want = slow.dispatchable().then(|| slow.turns().seq);
                        assert_eq!(fast.next().map(|j| j.seq), want, "case {case}, step {seq}");
                    }
                    _ => {
                        let busy: Vec<String> = fast
                            .tenants
                            .iter()
                            .filter(|t| t.busy)
                            .map(|t| t.name.clone())
                            .collect();
                        if !busy.is_empty() {
                            let name = &busy[rng.gen_range(0..busy.len())];
                            fast.complete(name, 1);
                            slow.complete(name, 1);
                        }
                    }
                }
                let state = |s: &DrrScheduler| {
                    (s.cursor, s.tenants.iter().map(|t| t.deficit).collect::<Vec<_>>())
                };
                assert_eq!(state(&fast), state(&slow), "case {case}, step {seq}");
            }
        }
    }

    #[test]
    fn a_job_of_the_largest_weight_dispatches_in_one_call() {
        let mut s = DrrScheduler::new(1);
        s.enqueue(sub("a", 0, 1 << 40));
        s.enqueue(sub("b", 1, u64::MAX));
        assert_eq!(s.next().map(|j| j.seq), Some(0));
        assert_eq!(s.next().map(|j| j.seq), Some(1));
    }

    #[test]
    fn busy_tenant_is_skipped_but_not_forgotten() {
        let mut s = DrrScheduler::new(1024);
        s.enqueue(sub("a", 0, 16));
        s.enqueue(sub("a", 1, 16));
        s.enqueue(sub("b", 2, 16));
        let first = s.next().unwrap();
        assert_eq!(first.tenant, "a");
        // `a` has a job in flight: only `b` is dispatchable.
        let second = s.next().unwrap();
        assert_eq!(second.tenant, "b");
        assert!(s.next().is_none(), "both tenants busy");
        s.complete("a", 10);
        let third = s.next().unwrap();
        assert_eq!(third.tenant, "a");
        assert_eq!(s.charged("a"), 10);
    }

    #[test]
    fn rate_limit_is_a_pure_function_of_the_sequence() {
        let mut s = DrrScheduler::new(64);
        s.register(
            "t",
            TenantConfig { rate: Some(RateLimit { burst: 2, window: 10 }), ..Default::default() },
        );
        assert!(s.admit("t", 0).is_ok());
        assert!(s.admit("t", 1).is_ok());
        assert_eq!(s.admit("t", 2), Err(Refusal::RateLimited { burst: 2, window: 10 }));
        // Window slides on global sequence numbers: the window at seq 10 is
        // (0, 10], so the admission at seq 0 has aged out (and 1 has not).
        assert!(s.admit("t", 10).is_ok());
        assert!(s.admit("t", 11).is_ok(), "window (1, 11] holds only seq 10");
        assert!(s.admit("t", 12).is_err(), "seqs 10 and 11 fill the burst");
        // Unregistered tenants are unlimited.
        for seq in 0..100 {
            assert!(s.admit("other", seq).is_ok());
        }
    }

    #[test]
    fn budget_ledger_trips_exactly_at_the_boundary() {
        let mut s = DrrScheduler::new(64);
        s.register("t", TenantConfig { budget: Some(100), ..Default::default() });
        assert!(!s.over_budget("t"));
        assert_eq!(s.remaining_budget("t"), Some(100));
        s.enqueue(sub("t", 0, 16));
        let job = s.next().unwrap();
        s.complete(&job.tenant, 99);
        assert!(!s.over_budget("t"));
        assert_eq!(s.remaining_budget("t"), Some(1));
        s.enqueue(sub("t", 1, 16));
        let job = s.next().unwrap();
        s.complete(&job.tenant, 1);
        assert!(s.over_budget("t"), "charged == budget means exhausted");
        assert_eq!(s.remaining_budget("t"), Some(0));
        assert_eq!(s.remaining_budget("unregistered"), None, "None = unlimited");
    }

    #[test]
    fn extent_cap_admits_by_both_dimensions() {
        let cap = ExtentCap { rows: 16, cols: 8 };
        assert!(cap.admits(8));
        assert!(!cap.admits(9), "cols bind before rows");
        assert!(!cap.admits(32));
        let mut s = DrrScheduler::new(64);
        assert_eq!(s.extent_cap("t"), None, "unregistered tenants are unbounded");
        s.register("t", TenantConfig { extent: Some(cap), ..Default::default() });
        assert_eq!(s.extent_cap("t"), Some(cap));
        assert!(!s.predictive("t"), "predict defaults off");
    }

    #[test]
    fn tenant_snapshot_round_trips_the_ledger() {
        let mut s = DrrScheduler::new(64);
        s.register(
            "t",
            TenantConfig {
                budget: Some(500),
                rate: Some(RateLimit { burst: 2, window: 10 }),
                predict: true,
                ..Default::default()
            },
        );
        assert!(s.admit("t", 3).is_ok());
        assert!(s.admit("t", 5).is_ok());
        s.enqueue(sub("t", 3, 16));
        let job = s.next().unwrap();
        s.complete(&job.tenant, 123);

        let snaps = s.export_tenants();
        let mut fresh = DrrScheduler::new(64);
        for snap in snaps {
            fresh.import_tenant(snap);
        }
        assert_eq!(fresh.charged("t"), 123);
        assert_eq!(fresh.remaining_budget("t"), Some(377));
        assert!(fresh.predictive("t"));
        // The admission window carried over: seqs 3 and 5 still fill the
        // burst at seq 6.
        assert!(fresh.admit("t", 6).is_err());
        assert_eq!(fresh.completion_counts(), vec![("t".to_string(), 1)]);
    }
}
