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
//! * **Deadlines** — every task owns a [`CancelToken`] created before the
//!   pool starts. A watchdog thread polls the running set once per tick and
//!   trips the token of any task past its deadline; the last task to finish
//!   wakes it, so the pool returns without sleeping out a tick. The
//!   simulator latches `SpatialError::Cancelled` at the next `place`/`send`
//!   after the token trips, but a primitive never checks the latch
//!   mid-run: the attempt runs to completion and the deadline only stops
//!   further retries. Only a job that checks the latch after every send
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
use std::sync::{Condvar, Mutex};
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

    // Every task gets its token up front so the watchdog can reach it
    // whether or not a worker has picked the task up yet.
    let tokens: Vec<CancelToken> = (0..n).map(|_| CancelToken::new()).collect();
    let slots: Vec<Mutex<Option<Task<T>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<TaskOutcome<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Absolute deadline of each *running* task (None = not running or no
    // deadline). The watchdog polls this.
    let running: Vec<Mutex<Option<Instant>>> = (0..n).map(|_| Mutex::new(None)).collect();

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
    // Admitted tasks not yet finished; the last one to finish signals
    // `all_done` so the watchdog exits at once.
    let remaining = Mutex::new(admitted);
    let all_done = Condvar::new();
    let workers = cfg.workers.max(1).min(admitted.max(1));
    let tick = Duration::from_millis(cfg.watchdog_tick_ms.max(1));

    std::thread::scope(|scope| {
        // Watchdog: once per tick, trip the token of any running task past
        // its deadline. Exits as soon as every admitted task has completed.
        scope.spawn(|| {
            let mut left = remaining.lock().unwrap();
            while *left > 0 {
                left = all_done.wait_timeout(left, tick).unwrap().0;
                let now = Instant::now();
                for (i, slot) in running.iter().enumerate() {
                    let due = *slot.lock().unwrap();
                    if let Some(deadline) = due {
                        if now >= deadline {
                            tokens[i].cancel();
                        }
                    }
                }
            }
        });

        for _ in 0..workers {
            scope.spawn(|| loop {
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
                if let Some(ms) = task.deadline_ms {
                    *running[idx].lock().unwrap() =
                        Some(Instant::now() + Duration::from_millis(ms));
                }
                let token = &tokens[idx];
                let outcome = match catch_unwind(AssertUnwindSafe(|| (task.run)(token))) {
                    Ok(v) => TaskOutcome::Done(v),
                    Err(payload) => TaskOutcome::Panicked(panic_message(payload.as_ref())),
                };
                *running[idx].lock().unwrap() = None;
                *results[idx].lock().unwrap() = Some(outcome);
                let mut left = remaining.lock().unwrap();
                *left -= 1;
                if *left == 0 {
                    all_done.notify_one();
                }
            });
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
