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
//! * **Load shedding** — admission is bounded by
//!   [`PoolConfig::queue_cap`]. With a [`PoolConfig::shed_threshold`] set,
//!   jobs beyond `ceil(threshold · queue_cap)` are rejected up front as
//!   [`TaskOutcome::Shed`] without executing; workers are gated until
//!   admission completes, so the shed set is a pure function of the task
//!   list and the config — never of thread timing. Without a threshold the
//!   pool runs in streaming mode: submission blocks (backpressure) while
//!   the queue is full and every task eventually runs.
//!
//! Results come back indexed by submission order regardless of which worker
//! finished when, so callers can zip outcomes with their specs.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use spatial_core::model::CancelToken;

/// Pool sizing and admission policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PoolConfig {
    /// Maximum concurrent worker threads (clamped to at least 1).
    pub workers: usize,
    /// Bound on the submission queue (clamped to at least 1).
    pub queue_cap: usize,
    /// Saturation fraction of `queue_cap` past which jobs are shed instead
    /// of queued. `None` disables shedding (backpressure blocks instead).
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

impl<T> TaskOutcome<T> {
    /// The completed value, if this outcome is [`TaskOutcome::Done`].
    pub fn done(self) -> Option<T> {
        match self {
            TaskOutcome::Done(v) => Some(v),
            _ => None,
        }
    }
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

/// Shared submission queue: indices into the task vector plus a closed
/// flag so workers know when to exit.
struct Queue {
    ready: VecDeque<usize>,
    closed: bool,
}

/// Runs `tasks` under supervision and returns one [`TaskOutcome`] per task,
/// in submission order.
///
/// Blocks until every admitted task has finished (or been cancelled and
/// then finished). Panics inside tasks are contained; a panic in the pool
/// machinery itself (a poisoned lock) propagates, as it indicates a bug in
/// the runner, not in a job.
pub fn run_supervised<T: Send>(cfg: &PoolConfig, tasks: Vec<Task<'_, T>>) -> Vec<TaskOutcome<T>> {
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let admit = cfg.admission_limit();
    let slots: Vec<Mutex<Option<Task<T>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<TaskOutcome<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();

    let queue = Mutex::new(Queue { ready: VecDeque::new(), closed: false });
    let not_empty = Condvar::new();
    let not_full = Condvar::new();

    // Admission. With shedding enabled this happens entirely before any
    // worker starts (the queue lock is held by nobody else yet), so the
    // shed set is count-based and deterministic. In streaming mode the
    // submitter runs concurrently with the workers below and blocks on
    // `not_full` when the queue is at capacity.
    let gated = cfg.shed_threshold.is_some();
    let mut shed = vec![false; n];
    if gated {
        let mut q = queue.lock().unwrap();
        for (i, s) in shed.iter_mut().enumerate() {
            if i < admit {
                q.ready.push_back(i);
            } else {
                *s = true;
            }
        }
        q.closed = true;
    }
    let admitted = if gated { admit.min(n) } else { n };
    let workers = cfg.workers.max(1).min(admitted.max(1));
    let watchdog = Watchdog::new(workers);

    std::thread::scope(|scope| {
        scope.spawn(|| watchdog.run(cfg.watchdog_tick_ms));

        let (queue, not_empty, not_full) = (&queue, &not_empty, &not_full);
        let (slots, results, watchdog) = (&slots, &results, &watchdog);
        let mut pool = Vec::with_capacity(workers);
        for wi in 0..workers {
            pool.push(scope.spawn(move || loop {
                let idx = {
                    let mut q = queue.lock().unwrap();
                    loop {
                        if let Some(i) = q.ready.pop_front() {
                            break i;
                        }
                        if q.closed {
                            return;
                        }
                        q = not_empty.wait(q).unwrap();
                    }
                };
                not_full.notify_one();
                let task = slots[idx].lock().unwrap().take().expect("task dispatched twice");
                let outcome = match watchdog.supervise(wi, task.deadline_ms, task.run) {
                    Ok(v) => TaskOutcome::Done(v),
                    Err(payload) => TaskOutcome::Panicked(panic_message(payload.as_ref())),
                };
                *results[idx].lock().unwrap() = Some(outcome);
            }));
        }

        // Streaming submission with backpressure.
        if !gated {
            for i in 0..n {
                let mut q = queue.lock().unwrap();
                while q.ready.len() >= cfg.queue_cap.max(1) {
                    q = not_full.wait(q).unwrap();
                }
                q.ready.push_back(i);
                drop(q);
                not_empty.notify_one();
            }
            queue.lock().unwrap().closed = true;
        }
        not_empty.notify_all();
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

    results
        .into_iter()
        .zip(shed)
        .map(|(slot, was_shed)| {
            if was_shed {
                TaskOutcome::Shed
            } else {
                slot.into_inner().unwrap().expect("admitted task finished without a result")
            }
        })
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
