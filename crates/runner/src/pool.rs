//! Bounded worker pool with panic isolation, deadlines, and load shedding.
//!
//! This is the supervision core of the batch runtime. A fixed set of tasks
//! is executed across at most [`PoolConfig::workers`] OS threads, and three
//! failure containment mechanisms wrap every task:
//!
//! * **Panic isolation** — each task runs under
//!   [`std::panic::catch_unwind`]; a panicking task becomes
//!   [`TaskOutcome::Panicked`] with the panic message, and its worker thread
//!   survives to run the next task.
//! * **Deadlines** — every task runs with its own [`CancelToken`]. The
//!   `Watchdog` (shared with `serve`) holds one slot per worker with the
//!   token and deadline of the task it runs, trips every token past its
//!   deadline once per tick, and is woken at once when the pool finishes,
//!   so the pool returns without sleeping out a tick. The simulator reads
//!   the token when `Machine::guarded` returns and latches
//!   `SpatialError::Cancelled` then: the attempt runs to completion and the
//!   deadline only stops further retries. Only a job that guards every send
//!   (chaos-spin) stops within one message of the deadline firing.
//!   No wall-clock ever enters the simulator itself — the token is a plain
//!   flag, which is what keeps cancelled runs classifiable without
//!   poisoning cost determinism.
//! * **Load shedding** — with a [`PoolConfig::shed_threshold`] set, tasks
//!   past [`PoolConfig::admission_limit`] (`ceil(threshold · queue_cap)`)
//!   are marked [`TaskOutcome::Shed`] before any worker starts and never
//!   execute, so the shed set is a pure function of the task count and the
//!   config — never of thread timing. Without a threshold every task runs.
//!
//! Every task is materialised before the workers start, so there is no
//! queue: each worker claims the next admitted task by its index from a
//! shared counter. Results come back indexed by submission order
//! regardless of which worker finished when, so callers can zip outcomes
//! with their specs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use spatial_core::model::CancelToken;

/// Pool sizing and admission policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PoolConfig {
    /// Maximum concurrent worker threads (clamped to at least 1).
    pub workers: usize,
    /// Base of [`PoolConfig::admission_limit`] (clamped to at least 1).
    pub queue_cap: usize,
    /// Fraction of `queue_cap` past which tasks are shed instead of run.
    /// `None` disables shedding: every task runs.
    pub shed_threshold: Option<f64>,
    /// Watchdog polling interval. Deadlines are enforced with this
    /// granularity; the default (5 ms) is far below any realistic job
    /// deadline.
    pub watchdog_tick_ms: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { workers: 4, queue_cap: 1024, shed_threshold: None, watchdog_tick_ms: 5 }
    }
}

impl PoolConfig {
    /// Number of tasks admitted before shedding starts, for a submission of
    /// any size. `usize::MAX` when shedding is disabled.
    pub fn admission_limit(&self) -> usize {
        match self.shed_threshold {
            None => usize::MAX,
            Some(t) => {
                let cap = self.queue_cap.max(1) as f64;
                ((t.clamp(0.0, 1.0) * cap).ceil() as usize).min(self.queue_cap.max(1))
            }
        }
    }
}

/// One unit of supervised work. The `'a` lifetime lets task closures
/// borrow from the caller's stack (the pool runs on scoped threads).
pub struct Task<'a, T> {
    /// Wall-clock deadline for this task, if any. Enforced by the watchdog
    /// via the task's [`CancelToken`].
    pub deadline_ms: Option<u64>,
    /// The work. Receives the task's own cancel token so it can wire it
    /// into a [`spatial_core::model::Machine`] (or poll it directly).
    #[allow(clippy::type_complexity)]
    pub run: Box<dyn FnOnce(&CancelToken) -> T + Send + 'a>,
}

/// How a task left the pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskOutcome<T> {
    /// The task ran to completion (its own result may still describe a
    /// failure — that classification belongs to the job layer).
    Done(T),
    /// The task panicked; the payload message was captured and the worker
    /// thread survived.
    Panicked(String),
    /// The task was rejected at admission because the pool was saturated.
    /// It never executed.
    Shed,
}

/// Locks `m`, recovering the guard from a poisoned lock. A worker that
/// panicked inside the critical section must never take its executor down
/// with it: the panic is already contained and reported elsewhere (per-job
/// `catch_unwind`, thread join), and every structure under these locks is
/// updated in a single assignment or append, so a recovered guard is safe
/// to keep using.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The deadline watchdog of both executors, [`run_supervised`] and `serve`:
/// one slot per worker holds the token and absolute deadline of the job
/// that worker is running. [`Watchdog::run`] trips every token past its
/// deadline once per tick until [`Watchdog::stop`] wakes it.
pub(crate) struct Watchdog {
    slots: Vec<Mutex<Option<(CancelToken, Instant)>>>,
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl Watchdog {
    /// A watchdog with one empty slot per worker.
    pub(crate) fn new(workers: usize) -> Self {
        Watchdog {
            slots: (0..workers).map(|_| Mutex::new(None)).collect(),
            stopped: Mutex::new(false),
            wake: Condvar::new(),
        }
    }

    /// Runs `job` on worker `wi` under `catch_unwind`, with a fresh token
    /// that the watchdog trips once `deadline_ms` (if any) has passed.
    pub(crate) fn supervise<R>(
        &self,
        wi: usize,
        deadline_ms: Option<u64>,
        job: impl FnOnce(&CancelToken) -> R,
    ) -> std::thread::Result<R> {
        let token = CancelToken::new();
        if let Some(ms) = deadline_ms {
            *lock(&self.slots[wi]) =
                Some((token.clone(), Instant::now() + Duration::from_millis(ms)));
        }
        let out = catch_unwind(AssertUnwindSafe(|| job(&token)));
        *lock(&self.slots[wi]) = None;
        out
    }

    /// Polls the slots every `tick_ms` until [`Watchdog::stop`].
    pub(crate) fn run(&self, tick_ms: u64) {
        let tick = Duration::from_millis(tick_ms.max(1));
        let mut stopped = lock(&self.stopped);
        while !*stopped {
            stopped = self.wake.wait_timeout(stopped, tick).unwrap_or_else(|e| e.into_inner()).0;
            let now = Instant::now();
            for slot in &self.slots {
                if let Some((token, deadline)) = &*lock(slot) {
                    if now >= *deadline {
                        token.cancel();
                    }
                }
            }
        }
    }

    /// Ends [`Watchdog::run`] at once, without waiting out its tick.
    pub(crate) fn stop(&self) {
        *lock(&self.stopped) = true;
        self.wake.notify_all();
    }
}

/// Runs `tasks` under supervision and returns one [`TaskOutcome`] per task,
/// in submission order.
///
/// Blocks until every admitted task has finished (or been cancelled and
/// then finished). Panics inside tasks are contained; a panic in the pool
/// machinery itself propagates, as it indicates a bug in the runner, not in
/// a job.
pub fn run_supervised<T: Send>(cfg: &PoolConfig, tasks: Vec<Task<'_, T>>) -> Vec<TaskOutcome<T>> {
    let n = tasks.len();
    // Tasks past the admission limit are shed before any worker starts, so
    // the shed set depends on the task count and the config alone.
    let admitted = cfg.admission_limit().min(n);
    let results: Vec<Mutex<Option<TaskOutcome<T>>>> =
        (0..n).map(|i| Mutex::new((i >= admitted).then_some(TaskOutcome::Shed))).collect();
    let slots: Vec<Mutex<Option<Task<T>>>> =
        tasks.into_iter().take(admitted).map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let workers = cfg.workers.max(1).min(admitted);
    let watchdog = Watchdog::new(workers);

    if workers > 0 {
        std::thread::scope(|scope| {
            scope.spawn(|| watchdog.run(cfg.watchdog_tick_ms));
            let (slots, results, next, watchdog) = (&slots, &results, &next, &watchdog);
            let pool: Vec<_> = (0..workers)
                .map(|wi| {
                    // `Relaxed` suffices: the counter only hands out indices;
                    // each slot's mutex publishes its task and its result.
                    scope.spawn(move || loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(idx) else { return };
                        let task = lock(slot).take().expect("each index is claimed once");
                        let outcome = match watchdog.supervise(wi, task.deadline_ms, task.run) {
                            Ok(v) => TaskOutcome::Done(v),
                            Err(payload) => TaskOutcome::Panicked(panic_message(payload.as_ref())),
                        };
                        *lock(&results[idx]) = Some(outcome);
                    })
                })
                .collect();
            // Wake the watchdog as soon as the last worker exits; a panic in
            // the pool machinery itself still propagates, once it is stopped.
            let joined: Vec<_> = pool.into_iter().map(|w| w.join()).collect();
            watchdog.stop();
            for j in joined {
                if let Err(payload) = j {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    results
        .into_iter()
        .map(|r| r.into_inner().unwrap().expect("admitted task finished without a result"))
        .collect()
}

/// Best-effort extraction of a human-readable panic message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(v: u64) -> Task<'static, u64> {
        Task { deadline_ms: None, run: Box::new(move |_| v) }
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let cfg = PoolConfig { workers: 4, ..Default::default() };
        let tasks: Vec<Task<'static, u64>> = (0..32)
            .map(|i| Task {
                deadline_ms: None,
                run: Box::new(move |_| {
                    // Stagger completions so out-of-order finishes are real.
                    std::thread::sleep(Duration::from_millis((32 - i) % 7));
                    i * i
                }),
            })
            .collect();
        let out = run_supervised(&cfg, tasks);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(*o, TaskOutcome::Done((i as u64) * (i as u64)));
        }
    }

    #[test]
    fn panics_are_isolated_and_labelled() {
        let cfg = PoolConfig { workers: 2, ..Default::default() };
        let mut tasks: Vec<Task<'static, u64>> = vec![plain(1)];
        tasks.push(Task { deadline_ms: None, run: Box::new(|_| panic!("boom in job 1")) });
        tasks.push(plain(3));
        let out = run_supervised(&cfg, tasks);
        assert_eq!(out[0], TaskOutcome::Done(1));
        assert_eq!(out[1], TaskOutcome::Panicked("boom in job 1".into()));
        assert_eq!(out[2], TaskOutcome::Done(3), "worker survived the panic");
    }

    #[test]
    fn watchdog_cancels_past_deadline() {
        let cfg = PoolConfig { workers: 1, watchdog_tick_ms: 2, ..Default::default() };
        let spin = Task {
            deadline_ms: Some(30),
            run: Box::new(|token: &CancelToken| {
                let start = Instant::now();
                while !token.is_cancelled() {
                    assert!(start.elapsed() < Duration::from_secs(10), "watchdog never fired");
                    std::hint::spin_loop();
                }
                true
            }),
        };
        let out = run_supervised(&cfg, vec![spin]);
        assert_eq!(out, vec![TaskOutcome::Done(true)]);
    }

    #[test]
    fn last_task_wakes_the_watchdog_instead_of_waiting_out_its_tick() {
        // The task outlives the watchdog's start-up, so the watchdog is
        // inside its tick when the task finishes.
        let cfg = PoolConfig { watchdog_tick_ms: 10_000, ..Default::default() };
        let task = Task {
            deadline_ms: None,
            run: Box::new(|_: &CancelToken| {
                std::thread::sleep(Duration::from_millis(50));
                7
            }),
        };
        let start = Instant::now();
        assert_eq!(run_supervised(&cfg, vec![task]), vec![TaskOutcome::Done(7)]);
        assert!(start.elapsed() < Duration::from_secs(1), "took {:?}", start.elapsed());
    }

    #[test]
    fn gated_mode_sheds_deterministically_past_the_threshold() {
        let cfg =
            PoolConfig { workers: 2, queue_cap: 4, shed_threshold: Some(0.5), watchdog_tick_ms: 5 };
        assert_eq!(cfg.admission_limit(), 2);
        let out = run_supervised(&cfg, (0..5).map(plain).collect());
        assert_eq!(out[0], TaskOutcome::Done(0));
        assert_eq!(out[1], TaskOutcome::Done(1));
        for o in &out[2..] {
            assert_eq!(*o, TaskOutcome::Shed);
        }
    }

    #[test]
    fn streaming_mode_backpressures_instead_of_shedding() {
        let cfg =
            PoolConfig { workers: 2, queue_cap: 1, shed_threshold: None, watchdog_tick_ms: 5 };
        let out = run_supervised(&cfg, (0..16).map(plain).collect());
        assert_eq!(out.len(), 16);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(*o, TaskOutcome::Done(i as u64), "queue_cap 1 must not drop work");
        }
    }

    #[test]
    fn admission_limit_edges() {
        let mut cfg = PoolConfig { queue_cap: 2, shed_threshold: Some(1.0), ..Default::default() };
        assert_eq!(cfg.admission_limit(), 2);
        cfg.shed_threshold = Some(0.0);
        assert_eq!(cfg.admission_limit(), 0, "threshold 0 sheds everything");
        cfg.shed_threshold = None;
        assert_eq!(cfg.admission_limit(), usize::MAX);
    }

    #[test]
    fn empty_task_list_is_a_noop() {
        let out: Vec<TaskOutcome<u64>> = run_supervised(&PoolConfig::default(), Vec::new());
        assert!(out.is_empty());
    }
}
