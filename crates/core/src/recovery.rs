//! Checksum-verified re-execution under hardware faults.
//!
//! [`run_with_recovery`] is the harness that makes the fault-injection layer
//! ([`spatial_model::FaultPlan`]) usable end to end: it executes an
//! algorithm on a fault-enabled [`Machine`], detects a failed or corrupted
//! run, and deterministically re-executes with a salted attempt seed up to a
//! retry cap — accumulating cost across attempts so fault tolerance is
//! *priced*, not assumed free.
//!
//! An attempt counts as failed when any of:
//!
//! * the run returned a typed [`SpatialError`] (e.g. a
//!   [`Machine::guarded`] primitive hit a dead PE or tripped a guard);
//! * the machine latched a violation the run did not check;
//! * the machine recorded fault hits ([`Machine::fault_hits`]) — the
//!   simulator cannot flip bits inside arbitrary payloads, so a transient
//!   message corruption is surfaced as a hit and treated exactly like an
//!   end-to-end checksum mismatch on real hardware;
//! * the caller's `verify` closure (the end-to-end checksum) rejected the
//!   output.
//!
//! Retries run the *same* permanent defect pattern (re-executing does not
//! repair the wafer) with the transient-corruption stream re-salted by the
//! attempt index ([`FaultPlan::for_attempt`]), so the whole harness is a
//! pure function of `(plan seed, retry cap, input)` — bit-deterministic,
//! like everything else in the simulator.
//!
//! ## Cost accounting across attempts
//!
//! Energy and message counts add up over attempts (every re-execution sends
//! real traffic). Depth and distance also *add* rather than max: a retry
//! can only start after the previous attempt's checksum failed, so attempts
//! compose sequentially along the critical path.

use spatial_model::{Cost, FaultPlan, Machine, SpatialError};
use spatial_rng::Rng;

/// A successful [`run_with_recovery`] outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recovered<T> {
    /// The verified output of the final (successful) attempt.
    pub value: T,
    /// Number of attempts executed (1 = no retry was needed).
    pub attempts: u32,
    /// Total cost across all attempts (see the module docs for the
    /// accumulation rules).
    pub cost: Cost,
    /// Per-attempt cost snapshots, in execution order.
    pub attempt_costs: Vec<Cost>,
    /// Fault-tolerance energy overhead of the final attempt: extra distance
    /// charged for dead-row detours and degraded links.
    pub detour_energy: u64,
    /// Total milliseconds of backoff delay scheduled between attempts
    /// (deterministically computed from the [`BackoffPolicy`]; 0 without
    /// one).
    pub backoff_ms: u64,
}

/// All attempts failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryExhausted {
    /// Number of attempts executed (retry cap + 1, or fewer when the run
    /// was cancelled — cancellation aborts the retry loop immediately).
    pub attempts: u32,
    /// Total cost sunk across the failed attempts.
    pub cost: Cost,
    /// The typed error of the last attempt, if it failed with one (`None`
    /// when the last attempt merely failed its checksum).
    pub last_error: Option<SpatialError>,
    /// Total milliseconds of backoff delay scheduled between attempts.
    pub backoff_ms: u64,
}

impl RecoveryExhausted {
    /// Whether the retry loop stopped because the run's cancel token was
    /// tripped (deadline exceeded) rather than because retries ran out.
    pub fn cancelled(&self) -> bool {
        matches!(self.last_error, Some(SpatialError::Cancelled))
    }
}

impl std::fmt::Display for RecoveryExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "recovery exhausted after {} attempts", self.attempts)?;
        match &self.last_error {
            Some(e) => write!(f, " (last error: {e})"),
            None => write!(f, " (last attempt failed its end-to-end checksum)"),
        }
    }
}

impl std::error::Error for RecoveryExhausted {}

/// Process exit code for an exhausted recovery (the per-violation codes
/// 4–7 and the cancellation code 9 belong to [`SpatialError::exit_code`];
/// 10 is the batch runner's load-shed code).
pub const EXIT_RECOVERY_EXHAUSTED: i32 = 8;

/// Exponential backoff with seeded jitter, applied between recovery
/// attempts.
///
/// The delay before retry `attempt` (1-based; attempt 0 is the initial
/// execution and never waits) is
/// `min(base_ms · factor^(attempt-1), max_ms)`, scaled by a jitter factor
/// drawn uniformly from `[1 - jitter, 1 + jitter]`. The jitter draw comes
/// from [`spatial_rng`] seeded by `(backoff seed, attempt)`, so the
/// *scheduled* delays — reported in [`Recovered::backoff_ms`] — are a pure
/// function of the seed and bit-reproducible, even though the wall-clock
/// sleep they drive is not. Jitter de-synchronizes retry storms when many
/// jobs hit the same transient fault burst at once.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry, in milliseconds (0 disables waiting).
    pub base_ms: u64,
    /// Multiplier applied per further retry.
    pub factor: u32,
    /// Upper bound on a single delay, in milliseconds.
    pub max_ms: u64,
    /// Jitter half-width as a fraction of the delay, in `[0, 1]`.
    pub jitter: f64,
}

impl BackoffPolicy {
    /// No waiting between attempts (the [`run_with_recovery`] behaviour).
    pub const NONE: BackoffPolicy = BackoffPolicy { base_ms: 0, factor: 2, max_ms: 0, jitter: 0.0 };

    /// A production-shaped default: 5 ms doubling to a 200 ms cap, ±50%
    /// jitter.
    pub const DEFAULT: BackoffPolicy =
        BackoffPolicy { base_ms: 5, factor: 2, max_ms: 200, jitter: 0.5 };

    /// The deterministic scheduled delay before `attempt` (1-based), in
    /// milliseconds.
    pub fn delay_ms(&self, seed: u64, attempt: u32) -> u64 {
        if self.base_ms == 0 || attempt == 0 {
            return 0;
        }
        let mut delay = self.base_ms;
        for _ in 1..attempt {
            delay = delay.saturating_mul(u64::from(self.factor.max(1)));
            if delay >= self.max_ms {
                break;
            }
        }
        delay = delay.min(self.max_ms.max(self.base_ms));
        if self.jitter > 0.0 {
            // One uniform draw per (seed, attempt): fixed-point arithmetic
            // on a plain product keeps this reproducible across platforms.
            let u = Rng::stream(seed ^ 0xBAC0_FF5E, u64::from(attempt)).gen_f64();
            let scale = 1.0 - self.jitter.clamp(0.0, 1.0) * (1.0 - 2.0 * u);
            delay = ((delay as f64) * scale).round() as u64;
        }
        delay
    }
}

/// Runs `run` on a fresh fault-enabled [`Machine`] until an attempt passes
/// the end-to-end `verify` checksum, retrying with salted attempt seeds up
/// to `retry_cap` extra times (so at most `retry_cap + 1` attempts).
///
/// `run` receives the machine (faults already enabled; enable a guard
/// inside if wanted) and the attempt index, which randomized algorithms
/// should fold into their seed so a retry explores a different execution.
/// A plan that injects nothing leaves the machine bare
/// ([`Machine::enable_faults`]), so a clean run takes the closed-form
/// kernels.
///
/// ```
/// use spatial_core::model::{Coord, FaultPlan, Machine};
/// use spatial_core::recovery::run_with_recovery;
///
/// let plan = FaultPlan::builder(7).dead_row(1).flaky(0.2).build();
/// let out = run_with_recovery(&plan, 16, |m, _attempt| {
///     m.guarded(|m| {
///         let a = m.place(Coord::new(0, 0), 21i64);
///         *m.send(&a, Coord::new(3, 0)).value() * 2
///     })
/// }, |v| *v == 42)
/// .expect("recoverable");
/// assert_eq!(out.value, 42);
/// assert!(out.attempts >= 1);
/// ```
pub fn run_with_recovery<T>(
    plan: &FaultPlan,
    retry_cap: u32,
    run: impl FnMut(&mut Machine, u32) -> Result<T, SpatialError>,
    verify: impl FnMut(&T) -> bool,
) -> Result<Recovered<T>, RecoveryExhausted> {
    run_with_recovery_policy(plan, retry_cap, &BackoffPolicy::NONE, 0, run, verify)
}

/// [`run_with_recovery`] with exponential backoff between attempts.
///
/// `backoff_seed` seeds the jitter draws (see [`BackoffPolicy`]); the total
/// *scheduled* delay is reported in `backoff_ms` of either result, so the
/// supervision layer can price waiting as well as re-execution. The thread
/// actually sleeps the scheduled delay before each retry.
///
/// One condition aborts the retry loop early rather than burning the
/// remaining budget: an attempt failing with [`SpatialError::Cancelled`].
/// The run's deadline is gone, so further attempts cannot help. Every other
/// failure is worth re-salting and retrying, because the
/// transient-corruption stream differs per attempt.
pub fn run_with_recovery_policy<T>(
    plan: &FaultPlan,
    retry_cap: u32,
    policy: &BackoffPolicy,
    backoff_seed: u64,
    mut run: impl FnMut(&mut Machine, u32) -> Result<T, SpatialError>,
    mut verify: impl FnMut(&T) -> bool,
) -> Result<Recovered<T>, RecoveryExhausted> {
    let mut total = Cost::default();
    let mut attempt_costs = Vec::new();
    let mut last_error = None;
    let mut backoff_ms = 0u64;
    for attempt in 0..=retry_cap {
        let delay = policy.delay_ms(backoff_seed, attempt);
        if delay > 0 {
            backoff_ms += delay;
            std::thread::sleep(std::time::Duration::from_millis(delay));
        }
        let mut machine = Machine::new();
        machine.enable_faults(plan.for_attempt(attempt));
        let result = run(&mut machine, attempt);
        let cost = machine.report();
        attempt_costs.push(cost);
        total = accumulate(total, cost);
        let clean = machine.fault_hits() == 0 && machine.violation().is_none();
        match result {
            Ok(value) if clean && verify(&value) => {
                return Ok(Recovered {
                    value,
                    attempts: attempt + 1,
                    cost: total,
                    attempt_costs,
                    detour_energy: machine.detour_energy(),
                    backoff_ms,
                });
            }
            Ok(_) => {
                last_error = machine.take_violation();
            }
            Err(e) => {
                last_error = Some(e);
            }
        }
        if matches!(last_error, Some(SpatialError::Cancelled)) {
            return Err(RecoveryExhausted {
                attempts: attempt + 1,
                cost: total,
                last_error,
                backoff_ms,
            });
        }
    }
    Err(RecoveryExhausted { attempts: retry_cap + 1, cost: total, last_error, backoff_ms })
}

/// Sequential composition of attempt costs (see the module docs).
fn accumulate(total: Cost, attempt: Cost) -> Cost {
    Cost {
        energy: total.energy.saturating_add(attempt.energy),
        depth: total.depth.saturating_add(attempt.depth),
        distance: total.distance.saturating_add(attempt.distance),
        messages: total.messages.saturating_add(attempt.messages),
    }
}

/// FNV-1a checksum of a `u64` stream — the reference end-to-end checksum
/// for recovery verification (cheap, deterministic, order-sensitive).
pub fn checksum(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// [`checksum`] over a slice of `i64` values (the common output shape).
pub fn checksum_i64(values: &[i64]) -> u64 {
    checksum(values.iter().map(|&v| v as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_model::{Coord, ModelGuard};

    fn ping_pong(m: &mut Machine, hops: i64) -> Result<i64, SpatialError> {
        m.guarded(|m| {
            let mut v = m.place(Coord::ORIGIN, 1i64);
            for i in 1..=hops {
                v = m.send_owned(v, Coord::new(i % 4, (i + 1) % 4));
            }
            *v.value()
        })
    }

    #[test]
    fn clean_plan_succeeds_first_try() {
        let plan = FaultPlan::builder(1).build();
        let out = run_with_recovery(&plan, 3, |m, _| ping_pong(m, 10), |&v| v == 1).unwrap();
        assert_eq!(out.attempts, 1);
        assert_eq!(out.detour_energy, 0);
        assert_eq!(out.attempt_costs.len(), 1);
        assert_eq!(out.cost, out.attempt_costs[0]);
    }

    #[test]
    fn clean_plan_runs_on_a_bare_machine() {
        let plan = FaultPlan::builder(1).build();
        let out = run_with_recovery(&plan, 3, |m, _| Ok(m.is_bare()), |_| true).unwrap();
        assert!(out.value, "an empty plan arms nothing");
        let plan = FaultPlan::builder(1).flaky(0.001).build();
        let out = run_with_recovery(&plan, 3, |m, _| Ok(m.is_bare()), |_| true).unwrap();
        assert!(!out.value, "a flaky plan is an instrument");
    }

    #[test]
    fn flaky_plan_retries_and_recovers_deterministically() {
        // 30% per-message corruption over 10 messages: a clean attempt has
        // probability ~0.03, so retries are essentially guaranteed.
        let plan = FaultPlan::builder(5).flaky(0.3).build();
        let go = || run_with_recovery(&plan, 200, |m, _| ping_pong(m, 10), |&v| v == 1);
        let a = go().expect("should recover within 200 retries");
        let b = go().expect("deterministic");
        assert!(a.attempts > 1, "expected at least one retry, got {}", a.attempts);
        assert_eq!(a, b, "recovery is bit-deterministic per seed");
        assert_eq!(a.attempt_costs.len() as u32, a.attempts);
        let energy_sum: u64 = a.attempt_costs.iter().map(|c| c.energy).sum();
        assert_eq!(a.cost.energy, energy_sum, "retry cost is accumulated, not hidden");
    }

    #[test]
    fn exhaustion_reports_sunk_cost() {
        let plan = FaultPlan::builder(2).flaky(1.0).build();
        let err = run_with_recovery(&plan, 4, |m, _| ping_pong(m, 3), |&v| v == 1).unwrap_err();
        assert_eq!(err.attempts, 5);
        assert!(err.cost.messages >= 5 * 3);
        assert!(err.last_error.is_none(), "checksum failure, not a typed error");
    }

    #[test]
    fn typed_errors_propagate_as_last_error() {
        let plan = FaultPlan::builder(3).dead_pe(Coord::new(1, 2)).build();
        let err = run_with_recovery(
            &plan,
            2,
            |m, _| {
                m.guarded(|m| {
                    let v = m.place(Coord::ORIGIN, 1i64);
                    *m.send(&v, Coord::new(1, 2)).value()
                })
            },
            |_| true,
        )
        .unwrap_err();
        let dead = Coord::new(1, 2);
        assert_eq!(err.last_error, Some(SpatialError::DeadPe { logical: dead, physical: dead }));
    }

    #[test]
    fn guard_violations_inside_run_fail_the_attempt() {
        let plan = FaultPlan::builder(4).build();
        let err = run_with_recovery(
            &plan,
            1,
            |m, _| {
                m.enable_guard(ModelGuard::new().max_energy(2));
                ping_pong(m, 10)
            },
            |_| true,
        )
        .unwrap_err();
        assert!(matches!(err.last_error, Some(SpatialError::BudgetExceeded { .. })));
    }

    #[test]
    fn backoff_delays_are_deterministic_bounded_and_jittered() {
        let p = BackoffPolicy { base_ms: 10, factor: 2, max_ms: 100, jitter: 0.5 };
        assert_eq!(p.delay_ms(7, 0), 0, "the initial attempt never waits");
        for attempt in 1..12 {
            let d = p.delay_ms(7, attempt);
            assert_eq!(d, p.delay_ms(7, attempt), "delay must be a pure function of the seed");
            // Exponential core 10·2^(a-1) capped at 100, jitter within ±50%.
            let core = (10u64 << (attempt - 1).min(20)).min(100);
            assert!(d >= core / 2 && d <= core + core / 2, "attempt {attempt}: {d} vs {core}");
        }
        // Different seeds explore different jitter.
        let spread: std::collections::HashSet<u64> = (0..32).map(|s| p.delay_ms(s, 3)).collect();
        assert!(spread.len() > 8, "jitter should spread delays, got {spread:?}");
        assert_eq!(BackoffPolicy::NONE.delay_ms(1, 5), 0);
    }

    #[test]
    fn policy_recovery_reports_scheduled_backoff() {
        let plan = FaultPlan::builder(5).flaky(0.3).build();
        let policy = BackoffPolicy { base_ms: 1, factor: 2, max_ms: 4, jitter: 0.0 };
        let go = || {
            run_with_recovery_policy(&plan, 200, &policy, 77, |m, _| ping_pong(m, 10), |&v| v == 1)
        };
        let a = go().expect("recoverable");
        let b = go().expect("deterministic");
        assert_eq!(a, b, "backoff accounting must replay bit-for-bit");
        assert!(a.attempts > 1);
        let expect: u64 = (1..a.attempts).map(|i| policy.delay_ms(77, i)).sum();
        assert_eq!(a.backoff_ms, expect, "scheduled delay sums over retries");
    }

    #[test]
    fn cancellation_aborts_the_retry_loop() {
        use spatial_model::CancelToken;
        let plan = FaultPlan::builder(2).flaky(1.0).build();
        let token = CancelToken::new();
        token.cancel();
        let err = run_with_recovery(
            &plan,
            50,
            |m, _| {
                m.set_cancel_token(token.clone());
                ping_pong(m, 3)
            },
            |&v| v == 1,
        )
        .unwrap_err();
        assert_eq!(err.attempts, 1, "no point retrying past a dead deadline");
        assert!(err.cancelled());
    }

    #[test]
    fn checksum_is_order_sensitive_and_stable() {
        assert_eq!(checksum_i64(&[1, 2, 3]), checksum_i64(&[1, 2, 3]));
        assert_ne!(checksum_i64(&[1, 2, 3]), checksum_i64(&[3, 2, 1]));
        assert_ne!(checksum_i64(&[]), checksum_i64(&[0]));
    }
}
