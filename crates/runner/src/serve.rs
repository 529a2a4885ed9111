//! The persistent serving loop: newline-delimited JSON jobs in, one result
//! line out per job, worker pool and supervision alive across submissions.
//!
//! ## Protocol
//!
//! Each input line is one of:
//!
//! * **A job submission** — a JSON object with the same fields as a batch
//!   jobspec entry (`kind`, `n`, `seed`, `k`, `array`, `faults`, `budget`,
//!   `retries`, `deadline_ms`, `id`) plus an optional `tenant` name
//!   (default `"default"`). Produces exactly one single-line
//!   `spatial-batch-report/v1` result.
//! * **A control verb** — an object with an `"op"` field:
//!   `{"op": "tenant", "tenant": NAME, "budget": N, "rate": {"burst": B,
//!   "window": W}, "faults": {…}, "extent": {"rows": R, "cols": C},
//!   "predict": BOOL}` registers per-tenant policy and is acknowledged
//!   with a `spatial-serve-ctl/v1` line; `{"op": "stats"}` emits a
//!   `spatial-serve-stats/v1` aggregate line; `{"op": "drain"}` is
//!   acknowledged and then gracefully shuts the daemon down (stop
//!   admitting, drain the pool, flush the snapshot, return).
//! * **A comment** (`#` prefix) or blank line — skipped without output.
//!
//! Malformed lines (including invalid UTF-8) produce a
//! `spatial-serve-ctl/v1` error line; the daemon never exits on bad input,
//! a panicking job, or an exhausted tenant. EOF on stdin — or SIGTERM, via
//! [`request_drain`] — drains the queue and shuts down cleanly.
//!
//! Admission is layered, each refusal typed and deterministic: sliding-
//! window rate limits shed at intake ([`Outcome::Shed`]); at dispatch an
//! exhausted budget refuses with [`Outcome::OverBudget`], an oversized
//! input grid with [`Outcome::ExtentRefused`] (the tenant's `extent` cap),
//! and — for tenants that opt in with `predict` — a closed-form energy
//! floor ([`JobSpec::predicted_energy`]) already above the remaining
//! budget refuses with [`Outcome::PredictedOverBudget`] *before* spending
//! any execution on the job.
//!
//! ## Ordering and determinism
//!
//! Output lines are emitted **strictly in input-line order**, whatever
//! order the pool finishes jobs in: every consuming line gets a sequence
//! number, completed results park in a [`BTreeMap`] keyed by it, and a
//! cursor releases them in order. Two consequences:
//!
//! * the `stats` verb has barrier semantics — it aggregates exactly the
//!   jobs submitted before it, because it cannot emit until they have;
//! * with `canonical = true` (every wall-clock-derived field omitted) the
//!   full output stream is a **pure function of the input stream**:
//!   byte-identical across worker counts and across cache-cold/warm runs.
//!
//! The three admission decisions are deterministic by construction: rate
//! limiting is a pure function of global sequence numbers
//! ([`DrrScheduler::admit`]); budget admission is evaluated when a job is
//! dispatched, and a tenant's jobs run one at a time in submission order,
//! so the ledger a job sees depends only on that tenant's stream prefix;
//! and cache hits return bit-identical canonical results to cold runs
//! ([`crate::cache`]). Deficit round robin shares the pool fairly across
//! tenants in between ([`crate::tenant`]).

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use spatial_core::recovery::BackoffPolicy;

use crate::cache::{CacheKey, ResultCache};
use crate::job::{execute, FaultCfg, JobKind, JobResult, JobSpec, Outcome};
use crate::journal::{Aggregate, Journal, RecordKind, Recovered, Snapshot};
use crate::json::{escape, Json};
use crate::pool::{lock, panic_message, Watchdog};
use crate::report::{cost_json, Multiset};
use crate::tenant::{DrrScheduler, ExtentCap, RateLimit, Refusal, Submission, TenantConfig};

/// Serving-loop configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Deadline applied to jobs that don't carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Omit every wall-clock-derived field (`wall_ms`, `cached`, cache and
    /// latency stats), making the output a pure function of the input.
    pub canonical: bool,
    /// DRR deficit granted per tenant visit, in work units (= elements).
    pub quantum: u64,
    /// Watchdog polling interval for deadlines, milliseconds.
    pub watchdog_tick_ms: u64,
    /// Backoff between recovery attempts. The default is compressed
    /// (1–8 ms) relative to the batch default: a daemon should not stall
    /// its stream on sleeps, and the *scheduled* delays in `backoff_ms`
    /// stay deterministic either way.
    pub backoff: BackoffPolicy,
    /// Warm-cache entry cap ([`ResultCache::with_capacity`]); 0 disables
    /// caching. Eviction only affects non-canonical `cached` flags, never
    /// canonical bytes.
    pub cache_capacity: usize,
    /// Write-ahead journal directory for crash-safe serving — see
    /// [`crate::journal`]. Requires `canonical`: recovery re-derives
    /// output lines by replay, which only reproduces bytes exactly when
    /// the stream is a pure function of the input.
    pub journal: Option<PathBuf>,
    /// Exactly-once resume point: the number of complete output lines the
    /// client already received. Output for sequence numbers below this is
    /// suppressed on recovery instead of re-delivered.
    pub resume_from: u64,
    /// Discard a final line with no trailing newline instead of consuming
    /// it. Off for stdin (a file's unterminated last line is intentional);
    /// on for socket sessions, where a missing newline means the transport
    /// was cut mid-line and the reconnect will restream the line whole —
    /// consuming the torn half would poison the exactly-once dedupe.
    pub discard_torn_tail: bool,
    /// Default cost profile applied to submissions that don't carry their
    /// own (`--profile` on the CLI, a built-in name validated at parse).
    /// Purely additive accounting: with `None` the output stream is
    /// byte-identical to the pre-profile daemon.
    pub profile: Option<&'static str>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: crate::default_workers(),
            default_deadline_ms: None,
            canonical: false,
            quantum: 1024,
            watchdog_tick_ms: 5,
            backoff: BackoffPolicy { base_ms: 1, factor: 2, max_ms: 8, jitter: 0.5 },
            cache_capacity: 4096,
            journal: None,
            resume_from: 0,
            discard_torn_tail: false,
            profile: None,
        }
    }
}

/// What a serve session processed (the daemon itself exits 0 on clean EOF;
/// per-job failures are reported in-stream, not via the exit code).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Input lines consumed from the live stream this session (excluding
    /// comments, blanks, and lines skipped by resume deduplication).
    pub lines: u64,
    /// Job result lines emitted.
    pub jobs: u64,
    /// Control error lines emitted.
    pub errors: u64,
    /// Journaled input lines re-driven through the pipeline at startup.
    pub replayed: u64,
    /// Whether the session ended by drain (the `{"op": "drain"}` verb or
    /// [`request_drain`]) rather than plain EOF. The TCP supervision layer
    /// uses this to classify how a connection ended.
    pub drained: bool,
}

/// Signals the serving loop to drain: stop admitting input, finish what is
/// queued, flush the snapshot, and return cleanly. Async-signal-safe (one
/// atomic store) — `main` installs it as the SIGTERM handler. The check
/// happens between input lines, so a reader blocked on a quiet stdin
/// drains at the next line (or EOF); the `{"op": "drain"}` verb is the
/// in-band, always-prompt equivalent.
pub fn request_drain() {
    DRAIN.store(true, Ordering::SeqCst);
}

/// Whether a process-wide drain has been requested ([`request_drain`],
/// typically from the SIGTERM handler). The TCP accept loop polls this so
/// drain wakes a listener even with zero live connections.
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::SeqCst)
}

static DRAIN: AtomicBool = AtomicBool::new(false);

/// [`Condvar::wait`] with the same poison recovery as [`lock`].
fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(|e| e.into_inner())
}

/// A line waiting its turn in the ordered emission buffer.
enum Pending {
    /// Fully formed control line.
    Line(String),
    /// Completed job: the formed line plus the fields the aggregates need.
    Job {
        line: String,
        outcome: Outcome,
        energy: Option<u64>,
        wall_ms: u64,
        cached: bool,
        /// Whether the job consulted the result cache (dispatched jobs do;
        /// rate-shed and over-budget rejections never reach it).
        looked_up: bool,
        attempts: u32,
    },
    /// Stats verb: the line is rendered from [`Aggregate`] when its turn comes.
    Stats,
}

struct Core<W: Write> {
    out: W,
    sched: DrrScheduler,
    cache: ResultCache,
    ready: BTreeMap<u64, Pending>,
    next_out: u64,
    seq: u64,
    inflight: usize,
    closed: bool,
    canonical: bool,
    agg: Aggregate,
    /// Per-job wall times for the non-canonical `stats` line. Outside
    /// [`Aggregate`]: a journal requires canonical mode, which never
    /// prints them, so a snapshot has no use for them.
    walls: Multiset,
    io_err: Option<io::Error>,
    summary: ServeSummary,
    /// Open write-ahead journal, if crash safety is on.
    journal: Option<Journal>,
    /// Output records already durable in the journal: sequence numbers
    /// below this are not re-appended on replay.
    journaled_out: u64,
    /// Client resume point: stdout is suppressed below this sequence.
    emit_from: u64,
    /// Set by the `drain` verb; the reader stops admitting afterwards.
    drain: bool,
}

/// Runs the serving loop until EOF (or drain) on `input`, writing one
/// output line per consuming input line to `out` in input order. Returns
/// after the queue has drained and every output line has been written.
///
/// With [`ServeConfig::journal`] set, the loop first **recovers**: the
/// journal directory's snapshot rehydrates tenant ledgers, aggregates and
/// the warm cache; journaled inputs past the snapshot point are re-driven
/// through the normal pipeline (deterministic re-execution regenerates
/// byte-identical output lines); and output below
/// [`ServeConfig::resume_from`] — lines the client confirms it already
/// holds — is suppressed rather than re-delivered. A resuming client
/// re-streams its full input: lines matching the journaled prefix are
/// deduplicated, so the concatenation of the client's pre-crash and
/// post-crash output is exactly the uninterrupted stream.
pub fn serve<R: BufRead, W: Write + Send>(
    mut input: R,
    out: W,
    cfg: &ServeConfig,
) -> io::Result<ServeSummary> {
    let workers = cfg.workers.max(1);
    let (journal, recovered) = match &cfg.journal {
        Some(dir) => {
            if !cfg.canonical {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "journaling requires canonical mode: crash recovery re-derives output \
                     lines by replay, which is exact only for canonical streams",
                ));
            }
            let (j, r) = Journal::open(dir)?;
            (Some(j), r)
        }
        None => (None, Recovered::default()),
    };

    // Rehydrate from the snapshot, if one survived: `base` consuming lines
    // are already reflected in the restored state and skip replay.
    let mut sched = DrrScheduler::new(cfg.quantum);
    let mut cache = ResultCache::with_capacity(cfg.cache_capacity);
    let mut agg = Aggregate::default();
    let mut base: u64 = 0;
    if let Some(snap) = &recovered.snapshot {
        base = snap.lines;
        for t in snap.tenants.clone() {
            sched.import_tenant(t);
        }
        cache.import(snap.cache.clone());
        agg = snap.agg.clone();
    }
    let journaled_in = recovered.inputs.len() as u64;
    let journaled_out = recovered.outputs.len() as u64;

    // Snapshot-covered outputs the client is missing are re-delivered
    // straight from the journal — their inputs will not be replayed.
    let mut out = out;
    if cfg.resume_from < base.min(journaled_out) {
        for seq in cfg.resume_from..base.min(journaled_out) {
            writeln!(out, "{}", recovered.outputs[seq as usize])?;
        }
        out.flush()?;
    }

    let core = Mutex::new(Core {
        out,
        sched,
        cache,
        ready: BTreeMap::new(),
        next_out: base,
        seq: base,
        inflight: 0,
        closed: false,
        canonical: cfg.canonical,
        agg,
        walls: Multiset::default(),
        io_err: None,
        summary: ServeSummary::default(),
        journal,
        journaled_out,
        emit_from: cfg.resume_from,
        drain: false,
    });
    let work = Condvar::new();
    let done = Condvar::new();
    let watchdog = Watchdog::new(workers);

    std::thread::scope(|scope| -> io::Result<()> {
        scope.spawn(|| watchdog.run(cfg.watchdog_tick_ms));
        for wi in 0..workers {
            let (core, work, done, watchdog) = (&core, &work, &done, &watchdog);
            scope.spawn(move || worker_loop(wi, core, work, done, watchdog, cfg));
        }

        // Recovery replay: journaled inputs past the snapshot point go
        // through the normal pipeline. Deterministic re-execution emits
        // exactly the lines the pre-crash process would have (stdout
        // suppressed below `resume_from`, journal appends below the
        // already-durable watermark).
        for payload in recovered.inputs.get(base as usize..).unwrap_or_default() {
            let mut g = lock(&core);
            let seq = g.seq;
            g.seq += 1;
            g.summary.replayed += 1;
            handle_line(&mut g, seq, payload, cfg);
            drop(g);
            work.notify_all();
        }

        // Reader loop. On a read error the daemon still drains what it
        // already admitted before reporting the error. The shared raw-line
        // reader ([`crate::lines`], `read_until`-based, never `lines()`)
        // turns invalid UTF-8 into a per-line ctl error, never a daemon
        // exit — and the DRAIN check runs after *every* raw line, comments
        // included, so a nudge on a quiet stream is enough to drain.
        let read_result: io::Result<()> = (|| {
            let mut dedupe = 0usize;
            let mut buf = Vec::new();
            loop {
                if DRAIN.load(Ordering::SeqCst) {
                    break; // SIGTERM: stop admitting, drain, snapshot
                }
                let n = crate::lines::read_raw_line(&mut input, &mut buf)?;
                if n == 0 {
                    break; // EOF
                }
                if cfg.discard_torn_tail && !crate::lines::is_complete(&buf) {
                    continue; // cut mid-line; the next read is EOF
                }
                let trimmed = match crate::lines::consuming(&buf) {
                    Some(t) => t,
                    None => continue,
                };
                if crate::lines::is_pong(&trimmed) {
                    // Heartbeat reply: transport-level noise, no sequence
                    // number, no output line — canonical purity holds.
                    continue;
                }
                // Exactly-once dedupe: a resuming client re-streams its
                // full input, and lines matching the journaled prefix were
                // already processed (their output either delivered before
                // the crash or re-emitted by recovery). First divergence
                // ends deduplication for good.
                if dedupe < recovered.inputs.len() {
                    if trimmed == recovered.inputs[dedupe] {
                        dedupe += 1;
                        continue;
                    }
                    dedupe = recovered.inputs.len();
                }
                let mut g = lock(&core);
                let seq = g.seq;
                g.seq += 1;
                g.summary.lines += 1;
                if seq >= journaled_in {
                    // Write-ahead: the input is durable before any of its
                    // effects are.
                    if let Some(j) = g.journal.as_mut() {
                        if let Err(e) = j.append(RecordKind::Input, seq, &trimmed) {
                            g.io_err = Some(e);
                        }
                    }
                }
                handle_line(&mut g, seq, &trimmed, cfg);
                let drained = g.drain;
                drop(g);
                work.notify_all();
                if drained {
                    break; // in-band drain verb
                }
            }
            Ok(())
        })();

        let mut g = lock(&core);
        g.closed = true;
        g.summary.drained = g.drain || DRAIN.load(Ordering::SeqCst);
        work.notify_all();
        while g.inflight > 0 || g.sched.pending() > 0 || !g.ready.is_empty() {
            g = wait(&done, g);
        }
        drop(g);
        work.notify_all();
        watchdog.stop();
        read_result
    })?;

    let mut g = core.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some(e) = g.io_err.take() {
        return Err(e);
    }
    // Quiescent point: everything consumed has been emitted. Flush the
    // snapshot so the next recovery replays nothing that finished here.
    if let Some(j) = g.journal.as_ref() {
        let snap = Snapshot {
            lines: g.seq,
            emitted: g.next_out,
            tenants: g.sched.export_tenants(),
            agg: g.agg.clone(),
            cache: g.cache.export(),
        };
        j.write_snapshot(&snap)?;
    }
    Ok(g.summary)
}

/// Handles one consuming input line (core lock held by the caller).
fn handle_line<W: Write>(g: &mut Core<W>, seq: u64, line: &str, cfg: &ServeConfig) {
    let v = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return ctl_error(g, seq, &format!("invalid JSON: {e}")),
    };
    if let Some(op) = v.get("op").and_then(Json::as_str) {
        match op {
            "tenant" => match parse_tenant_op(&v) {
                Ok((name, tc)) => {
                    g.sched.register(&name, tc);
                    push_line(g, seq, ctl_line(seq, "tenant", Some(&name), true, None));
                }
                Err(e) => ctl_error(g, seq, &e),
            },
            "stats" => {
                g.ready.insert(seq, Pending::Stats);
                try_emit(g);
            }
            "drain" => {
                // Graceful shutdown from in-band: acknowledge, then the
                // reader stops admitting and the queue drains.
                g.drain = true;
                push_line(g, seq, ctl_line(seq, "drain", None, true, None));
            }
            other => ctl_error(g, seq, &format!("unknown op {other:?}")),
        }
        return;
    }

    let tenant = match v.get("tenant") {
        None => "default".to_string(),
        Some(j) => match j.as_str() {
            Some(s) => s.to_string(),
            None => return ctl_error(g, seq, "field \"tenant\" must be a string"),
        },
    };
    let mut spec = match JobSpec::from_json(&v, seq as usize) {
        Ok(s) => s,
        Err(e) => return ctl_error(g, seq, &e),
    };
    if v.get("faults").is_none() {
        // The tenant's registered fault plan is the default for its jobs.
        if let Some(f) = g.sched.fault_default(&tenant) {
            spec.faults = f;
        }
    }
    if spec.profile.is_none() {
        spec.profile = cfg.profile;
    }
    if spec.kind == JobKind::ChaosSpin && spec.deadline_ms.or(cfg.default_deadline_ms).is_none() {
        return ctl_error(g, seq, &format!("job \"{}\": chaos-spin requires a deadline", spec.id));
    }
    if let Err(Refusal::RateLimited { burst, window }) = g.sched.admit(&tenant, seq) {
        let mut r = JobResult::shed(&spec);
        r.error = Some(format!(
            "shed: tenant \"{tenant}\" rate limit exceeded ({burst} per {window} submissions)"
        ));
        return record_job(g, seq, &tenant, &r, false, false);
    }
    g.sched.enqueue(Submission { seq, tenant, spec });
}

/// One serving worker: pick by DRR, decide budget admission and cache hits
/// under the lock, execute (contained) outside it, complete and emit.
fn worker_loop<W: Write + Send>(
    wi: usize,
    core: &Mutex<Core<W>>,
    work: &Condvar,
    done: &Condvar,
    watchdog: &Watchdog,
    cfg: &ServeConfig,
) {
    loop {
        let (sub, effective, key) = {
            let mut g = lock(core);
            'pick: loop {
                while let Some(sub) = g.sched.next() {
                    if g.sched.over_budget(&sub.tenant) {
                        let charged = g.sched.charged(&sub.tenant);
                        let budget = g.sched.budget_of(&sub.tenant).unwrap_or(charged);
                        let r = JobResult::over_budget(&sub.spec, &sub.tenant, charged, budget);
                        g.sched.complete(&sub.tenant, 0);
                        record_job(&mut g, sub.seq, &sub.tenant, &r, false, false);
                        done.notify_all();
                        continue;
                    }
                    // ModelGuard extent policy: the job's input square must
                    // fit the tenant's registered grid cap.
                    if let Some(cap) = g.sched.extent_cap(&sub.tenant) {
                        let side = sub.spec.extent_side();
                        if !cap.admits(side) {
                            let r = JobResult::extent_refused(
                                &sub.spec,
                                &sub.tenant,
                                side,
                                cap.rows,
                                cap.cols,
                            );
                            g.sched.complete(&sub.tenant, 0);
                            record_job(&mut g, sub.seq, &sub.tenant, &r, false, false);
                            done.notify_all();
                            continue;
                        }
                    }
                    // Predictive admission (opt-in): refuse before
                    // execution when the closed-form energy floor already
                    // exceeds what is left of the budget.
                    if g.sched.predictive(&sub.tenant) {
                        if let Some(remaining) = g.sched.remaining_budget(&sub.tenant) {
                            let predicted = sub.spec.predicted_energy();
                            if predicted > remaining {
                                let r = JobResult::predicted_over_budget(
                                    &sub.spec,
                                    &sub.tenant,
                                    predicted,
                                    remaining,
                                );
                                g.sched.complete(&sub.tenant, 0);
                                record_job(&mut g, sub.seq, &sub.tenant, &r, false, false);
                                done.notify_all();
                                continue;
                            }
                        }
                    }
                    // The guard is armed at whatever is tighter: the job's
                    // own budget or what is left of the tenant's.
                    let effective = match (sub.spec.budget, g.sched.remaining_budget(&sub.tenant)) {
                        (Some(b), Some(r)) => Some(b.min(r)),
                        (Some(b), None) => Some(b),
                        (None, r) => r,
                    };
                    let key = CacheKey::of(&sub.spec, effective);
                    if let Some(hit) = g.cache.lookup(&key, &sub.spec.id) {
                        let energy = hit.cost.map_or(0, |c| c.energy);
                        g.sched.complete(&sub.tenant, energy);
                        record_job(&mut g, sub.seq, &sub.tenant, &hit, true, true);
                        done.notify_all();
                        continue;
                    }
                    g.inflight += 1;
                    if g.sched.dispatchable() {
                        work.notify_all();
                    }
                    break 'pick (sub, effective, key);
                }
                if g.closed && g.inflight == 0 && g.sched.pending() == 0 {
                    return;
                }
                g = wait(work, g);
            }
        };

        let mut spec = sub.spec.clone();
        spec.budget = effective;
        let started = Instant::now();
        let deadline_ms = spec.deadline_ms.or(cfg.default_deadline_ms);
        let executed =
            watchdog.supervise(wi, deadline_ms, |token| execute(&spec, token, &cfg.backoff));
        let mut result = match executed {
            Ok(r) => r,
            Err(payload) => JobResult::panicked(&spec, panic_message(payload.as_ref())),
        };
        result.wall_ms = started.elapsed().as_millis() as u64;
        let energy = result.cost.map_or(0, |c| c.energy);

        let mut g = lock(core);
        g.cache.insert(key, &result);
        g.sched.complete(&sub.tenant, energy);
        g.inflight -= 1;
        record_job(&mut g, sub.seq, &sub.tenant, &result, false, true);
        drop(g);
        work.notify_all();
        done.notify_all();
    }
}

/// Parks a completed job in the emission buffer and drains what's ready.
fn record_job<W: Write>(
    g: &mut Core<W>,
    seq: u64,
    tenant: &str,
    r: &JobResult,
    cached: bool,
    looked_up: bool,
) {
    let line = job_line(seq, tenant, r, cached, g.canonical);
    g.ready.insert(
        seq,
        Pending::Job {
            line,
            outcome: r.outcome,
            energy: r.cost.map(|c| c.energy),
            wall_ms: r.wall_ms,
            cached,
            looked_up,
            attempts: r.attempts,
        },
    );
    g.summary.jobs += 1;
    try_emit(g);
}

fn push_line<W: Write>(g: &mut Core<W>, seq: u64, line: String) {
    g.ready.insert(seq, Pending::Line(line));
    try_emit(g);
}

fn ctl_error<W: Write>(g: &mut Core<W>, seq: u64, msg: &str) {
    g.summary.errors += 1;
    push_line(g, seq, ctl_line(seq, "error", None, false, Some(msg)));
}

/// Releases every buffered line whose turn has come, updating aggregates
/// as job lines pass the cursor.
fn try_emit<W: Write>(g: &mut Core<W>) {
    let mut wrote = false;
    while let Some(p) = g.ready.remove(&g.next_out) {
        let line = match p {
            Pending::Line(s) => s,
            Pending::Job { line, outcome, energy, wall_ms, cached, looked_up, attempts } => {
                g.agg.jobs += 1;
                g.agg.counts[outcome.index()] += 1;
                g.agg.attempts += u64::from(attempts);
                if let Some(e) = energy {
                    g.agg.energy_total += e;
                    g.agg.energies.push(e);
                }
                g.walls.push(wall_ms);
                if looked_up {
                    g.agg.cache_lookups += 1;
                    g.agg.cache_hits += u64::from(cached);
                }
                line
            }
            Pending::Stats => {
                let (len, cap) = (g.cache.len(), g.cache.capacity());
                stats_line(g.next_out, &g.agg, &g.walls, g.canonical, len, cap)
            }
        };
        if g.io_err.is_none() {
            // Write-ahead: the line is durable in the journal before the
            // client can see it, so the journal's emitted watermark is
            // always ≥ what any client received.
            if g.next_out >= g.journaled_out {
                if let Some(j) = g.journal.as_mut() {
                    let seq = g.next_out;
                    if let Err(e) = j.append(RecordKind::Output, seq, &line) {
                        g.io_err = Some(e);
                    }
                }
            }
            if g.io_err.is_none() && g.next_out >= g.emit_from {
                if let Err(e) = writeln!(g.out, "{line}") {
                    g.io_err = Some(e);
                }
            }
        }
        g.next_out += 1;
        wrote = true;
    }
    if wrote && g.io_err.is_none() {
        if let Err(e) = g.out.flush() {
            g.io_err = Some(e);
        }
    }
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |x| x.to_string())
}

/// One job result as a single `spatial-batch-report/v1` line (same fields
/// as the batch writer's job object, plus `seq`, `tenant` and `code`).
fn job_line(seq: u64, tenant: &str, j: &JobResult, cached: bool, canonical: bool) -> String {
    let mut s = String::with_capacity(256);
    s.push_str("{\"schema\": \"spatial-batch-report/v1\", ");
    s.push_str(&format!("\"seq\": {seq}, "));
    s.push_str(&format!("\"tenant\": \"{}\", ", escape(tenant)));
    s.push_str(&format!("\"id\": \"{}\", ", escape(&j.id)));
    s.push_str(&format!("\"kind\": \"{}\", ", j.kind.label()));
    s.push_str(&format!("\"outcome\": \"{}\", ", j.outcome.label()));
    s.push_str(&format!("\"code\": {}, ", j.outcome.exit_code()));
    s.push_str(&format!("\"attempts\": {}, ", j.attempts));
    s.push_str(&format!("\"escalation\": {}, ", j.escalation));
    match j.cost {
        Some(c) => s.push_str(&format!("\"cost\": {}, ", cost_json(c))),
        None => s.push_str("\"cost\": null, "),
    }
    if let Some(p) = &j.profiled {
        s.push_str(&format!("\"profiled\": {}, ", crate::report::profiled_json(p)));
    }
    s.push_str(&format!("\"detour_energy\": {}, ", j.detour_energy));
    s.push_str(&format!("\"backoff_ms\": {}, ", j.backoff_ms));
    match j.checksum {
        Some(c) => s.push_str(&format!("\"checksum\": \"0x{c:016x}\", ")),
        None => s.push_str("\"checksum\": null, "),
    }
    match &j.error {
        Some(e) => s.push_str(&format!("\"error\": \"{}\"", escape(e))),
        None => s.push_str("\"error\": null"),
    }
    if !canonical {
        s.push_str(&format!(", \"cached\": {cached}, \"wall_ms\": {}", j.wall_ms));
    }
    s.push('}');
    s
}

/// The `stats` verb's aggregate line. Rates are fixed-point strings so the
/// canonical form never depends on float formatting.
fn stats_line(
    seq: u64,
    agg: &Aggregate,
    walls: &Multiset,
    canonical: bool,
    cache_len: usize,
    cache_cap: usize,
) -> String {
    let rate = |count: u64| -> String {
        if agg.jobs == 0 {
            "null".into()
        } else {
            format!("\"{:.3}\"", count as f64 / agg.jobs as f64)
        }
    };
    let mut s = String::with_capacity(256);
    s.push_str("{\"schema\": \"spatial-serve-stats/v1\", ");
    s.push_str(&format!("\"seq\": {seq}, "));
    s.push_str(&format!("\"jobs\": {}, ", agg.jobs));
    for (o, c) in Outcome::ALL.iter().zip(agg.counts) {
        s.push_str(&format!("\"{}\": {c}, ", o.label()));
    }
    s.push_str(&format!("\"attempts\": {}, ", agg.attempts));
    s.push_str(&format!("\"energy_total\": {}, ", agg.energy_total));
    s.push_str(&format!("\"shed_rate\": {}, ", rate(agg.counts[Outcome::Shed.index()])));
    s.push_str(&format!("\"degradation_rate\": {}, ", rate(agg.counts[Outcome::Degraded.index()])));
    s.push_str(&format!("\"energy_p50\": {}, ", opt(agg.energies.percentile(50))));
    s.push_str(&format!("\"energy_p99\": {}", opt(agg.energies.percentile(99))));
    if !canonical {
        let hit_rate = if agg.cache_lookups == 0 {
            "null".into()
        } else {
            format!("\"{:.3}\"", agg.cache_hits as f64 / agg.cache_lookups as f64)
        };
        s.push_str(&format!(
            ", \"cache_hits\": {}, \"cache_lookups\": {}, \"cache_hit_rate\": {hit_rate}",
            agg.cache_hits, agg.cache_lookups
        ));
        s.push_str(&format!(", \"cache_len\": {cache_len}, \"cache_capacity\": {cache_cap}"));
        s.push_str(&format!(
            ", \"wall_ms_p50\": {}, \"wall_ms_p99\": {}",
            opt(walls.percentile(50)),
            opt(walls.percentile(99))
        ));
    }
    s.push('}');
    s
}

fn ctl_line(seq: u64, op: &str, tenant: Option<&str>, ok: bool, error: Option<&str>) -> String {
    let mut s = format!("{{\"schema\": \"spatial-serve-ctl/v1\", \"seq\": {seq}, ");
    s.push_str(&format!("\"op\": \"{}\", ", escape(op)));
    if let Some(t) = tenant {
        s.push_str(&format!("\"tenant\": \"{}\", ", escape(t)));
    }
    s.push_str(&format!("\"ok\": {ok}, "));
    match error {
        Some(e) => s.push_str(&format!("\"error\": \"{}\"", escape(e))),
        None => s.push_str("\"error\": null"),
    }
    s.push('}');
    s
}

fn parse_tenant_op(v: &Json) -> Result<(String, TenantConfig), String> {
    let name = v
        .get("tenant")
        .and_then(Json::as_str)
        .ok_or_else(|| "op \"tenant\": missing string field \"tenant\"".to_string())?
        .to_string();
    let budget = match v.get("budget") {
        None => None,
        Some(j) if j.is_null() => None,
        Some(j) => Some(j.as_u64().ok_or_else(|| {
            format!("tenant \"{name}\": field \"budget\" must be an integer or null")
        })?),
    };
    let rate = match v.get("rate") {
        None => None,
        Some(j) if j.is_null() => None,
        Some(j) => {
            let field = |k: &str| -> Result<u64, String> {
                j.get(k).and_then(Json::as_u64).filter(|&x| x >= 1).ok_or_else(|| {
                    format!("tenant \"{name}\": rate.{k} must be a positive integer")
                })
            };
            Some(RateLimit { burst: field("burst")?, window: field("window")? })
        }
    };
    let faults = match v.get("faults") {
        None => None,
        Some(f) => Some(FaultCfg::from_json(f, &format!("tenant \"{name}\""))?),
    };
    let extent = match v.get("extent") {
        None => None,
        Some(j) if j.is_null() => None,
        Some(j) => {
            let field = |k: &str| -> Result<u64, String> {
                j.get(k).and_then(Json::as_u64).filter(|&x| x >= 1).ok_or_else(|| {
                    format!("tenant \"{name}\": extent.{k} must be a positive integer")
                })
            };
            Some(ExtentCap { rows: field("rows")?, cols: field("cols")? })
        }
    };
    let predict = match v.get("predict") {
        None => false,
        Some(j) => j
            .as_bool()
            .ok_or_else(|| format!("tenant \"{name}\": field \"predict\" must be a boolean"))?,
    };
    Ok((name, TenantConfig { budget, rate, faults, extent, predict }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(input: &str, workers: usize, canonical: bool) -> (String, ServeSummary) {
        let cfg = ServeConfig { workers, canonical, ..Default::default() };
        let mut out = Vec::new();
        let summary = serve(io::Cursor::new(input.to_string()), &mut out, &cfg).expect("serve I/O");
        (String::from_utf8(out).expect("utf8 output"), summary)
    }

    fn field<'a>(line: &'a str, key: &str) -> &'a str {
        let pat = format!("\"{key}\": ");
        let start = line.find(&pat).unwrap_or_else(|| panic!("no {key:?} in {line}")) + pat.len();
        let rest = &line[start..];
        let end = rest.find(", \"").unwrap_or(rest.len() - 1);
        &rest[..end]
    }

    #[test]
    fn results_stream_in_input_order_with_stats_barrier() {
        let input = r#"
# comment lines and blanks are skipped
{"kind": "sort", "n": 256, "seed": 1, "id": "big"}
{"kind": "scan", "n": 16, "seed": 2, "id": "small"}
{"op": "stats"}
"#;
        let (out, summary) = run(input, 4, true);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert_eq!(field(lines[0], "id"), "\"big\"", "input order, not completion order");
        assert_eq!(field(lines[1], "id"), "\"small\"");
        assert!(lines[2].contains("spatial-serve-stats/v1"));
        assert_eq!(field(lines[2], "jobs"), "2", "stats covers exactly the preceding jobs");
        assert_eq!(field(lines[2], "ok"), "2");
        for (i, l) in lines.iter().enumerate() {
            assert_eq!(field(l, "seq"), i.to_string());
            Json::parse(l).expect("every output line is valid JSON");
        }
        assert_eq!(
            summary,
            ServeSummary { lines: 3, jobs: 2, errors: 0, replayed: 0, drained: false }
        );
    }

    #[test]
    fn canonical_output_is_worker_count_invariant() {
        let input = r#"
{"op": "tenant", "tenant": "a", "budget": 1000000}
{"kind": "scan", "n": 64, "seed": 3, "tenant": "a"}
{"kind": "sort", "n": 64, "seed": 4, "tenant": "b"}
{"kind": "scan", "n": 64, "seed": 3, "tenant": "a"}
{"kind": "select", "n": 64, "k": 9, "seed": 5, "tenant": "b"}
{"op": "stats"}
"#;
        let (one, _) = run(input, 1, true);
        let (four, _) = run(input, 4, true);
        assert_eq!(one, four, "canonical stream must not depend on the worker count");
    }

    #[test]
    fn over_budget_tenant_is_rejected_typed_not_killed() {
        let input = r#"
{"op": "tenant", "tenant": "t", "budget": 50}
{"kind": "sort", "n": 256, "seed": 1, "tenant": "t", "id": "spender"}
{"kind": "scan", "n": 16, "seed": 2, "tenant": "t", "id": "refused"}
{"kind": "scan", "n": 16, "seed": 2, "tenant": "other", "id": "bystander"}
"#;
        let (out, _) = run(input, 2, true);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // The spender runs under a guard armed at the remaining 50 units and
        // degrades (sort of 256 needs far more); its sunk cost exhausts the
        // tenant, so the next job is refused with the typed outcome.
        assert_eq!(field(lines[1], "outcome"), "\"degraded\"");
        assert_eq!(field(lines[2], "outcome"), "\"over-budget\"");
        assert_eq!(field(lines[2], "code"), "12");
        assert_eq!(field(lines[2], "cost"), "null", "rejected jobs never execute");
        assert_eq!(field(lines[3], "outcome"), "\"ok\"", "other tenants are unaffected");
    }

    #[test]
    fn rate_limited_jobs_shed_deterministically() {
        let input = r#"
{"op": "tenant", "tenant": "noisy", "rate": {"burst": 2, "window": 100}}
{"kind": "scan", "n": 16, "seed": 1, "tenant": "noisy"}
{"kind": "scan", "n": 16, "seed": 2, "tenant": "noisy"}
{"kind": "scan", "n": 16, "seed": 3, "tenant": "noisy"}
{"kind": "scan", "n": 16, "seed": 4, "tenant": "quiet"}
"#;
        let (out, _) = run(input, 3, true);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(field(lines[1], "outcome"), "\"ok\"");
        assert_eq!(field(lines[2], "outcome"), "\"ok\"");
        assert_eq!(field(lines[3], "outcome"), "\"shed\"");
        assert_eq!(field(lines[3], "code"), "10");
        assert!(lines[3].contains("rate limit"), "{}", lines[3]);
        assert_eq!(field(lines[4], "outcome"), "\"ok\"");
    }

    #[test]
    fn warm_cache_hits_are_flagged_and_bit_identical() {
        let input = r#"
{"kind": "sort", "n": 64, "seed": 9, "id": "cold"}
{"kind": "sort", "n": 64, "seed": 9, "id": "warm"}
"#;
        let (out, _) = run(input, 1, false);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(field(lines[0], "cached"), "false");
        assert_eq!(field(lines[1], "cached"), "true");
        assert_eq!(field(lines[0], "cost"), field(lines[1], "cost"), "hit is bit-identical");
        assert_eq!(field(lines[0], "checksum"), field(lines[1], "checksum"));
        // Canonically (id aside) the two lines differ only in seq/id.
        let (canon, _) = run(input, 1, true);
        let c: Vec<&str> = canon.lines().collect();
        let strip = |s: &str| s.replace("\"seq\": 0", "").replace("\"seq\": 1", "");
        assert_eq!(strip(c[0]).replace("\"cold\"", "X"), strip(c[1]).replace("\"warm\"", "X"),);
    }

    #[test]
    fn seeds_past_two_to_the_53_run_with_their_exact_value() {
        let input = r#"
{"kind": "scan", "n": 16, "seed": 9007199254740992, "id": "a"}
{"kind": "scan", "n": 16, "seed": 9007199254740993, "id": "b"}
{"kind": "scan", "n": 16, "seed": 18446744073709551616, "id": "c"}
"#;
        let (out, summary) = run(input, 1, false);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_ne!(field(lines[0], "checksum"), field(lines[1], "checksum"));
        assert_eq!(field(lines[1], "cached"), "false", "2^53 + 1 is not 2^53");
        assert!(lines[2].contains("spatial-serve-ctl/v1"), "{}", lines[2]);
        assert!(lines[2].contains(r#"field \"seed\" must be a non-negative"#), "{}", lines[2]);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn daemon_survives_panics_bad_lines_and_unknown_ops() {
        let input = r#"
{"kind": "chaos-panic", "id": "boom"}
this is not json
{"op": "warp"}
{"kind": "scan", "n": 16, "seed": 1, "id": "after"}
"#;
        let (out, summary) = run(input, 2, true);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(field(lines[0], "outcome"), "\"panicked\"");
        assert_eq!(field(lines[0], "code"), "1");
        assert!(lines[1].contains("\"ok\": false") && lines[1].contains("invalid JSON"));
        assert!(lines[2].contains("unknown op"));
        assert_eq!(field(lines[3], "outcome"), "\"ok\"", "daemon kept serving");
        assert_eq!(summary.errors, 2);
    }

    #[test]
    fn an_n_beyond_the_model_is_an_error_line_then_serving_goes_on() {
        let input = r#"
{"kind": "scan", "n": 18446744073709551615}
{"op": "tenant", "tenant": "boxed", "extent": {"rows": 8, "cols": 8}}
{"kind": "scan", "n": 18446744073709551615, "tenant": "boxed"}
{"kind": "scan", "n": 16, "seed": 1, "id": "after"}
"#;
        let (out, summary) = run(input, 2, true);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        for i in [0, 2] {
            assert!(lines[i].contains("spatial-serve-ctl/v1"), "{}", lines[i]);
            assert!(lines[i].contains("exceeds 4^31"), "{}", lines[i]);
        }
        assert_eq!(field(lines[3], "outcome"), "\"ok\"");
        assert_eq!(summary.errors, 2);
    }

    #[test]
    fn serving_returns_without_waiting_out_the_watchdog_tick() {
        let cfg = ServeConfig { workers: 1, watchdog_tick_ms: 10_000, ..Default::default() };
        let input = r#"{"kind": "scan", "n": 16, "id": "one"}"#;
        let start = Instant::now();
        let summary = serve(io::Cursor::new(input), Vec::new(), &cfg).expect("serve I/O");
        assert_eq!(summary.jobs, 1);
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
    }

    #[test]
    fn spin_without_deadline_is_refused_with_deadline_cancelled() {
        let input = r#"
{"kind": "chaos-spin", "id": "undeadlined"}
{"kind": "chaos-spin", "deadline_ms": 30, "id": "leashed"}
"#;
        let (out, _) = run(input, 1, true);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("requires a deadline"), "{}", lines[0]);
        assert_eq!(field(lines[1], "outcome"), "\"deadline-exceeded\"");
        assert_eq!(field(lines[1], "code"), "9");
        assert_eq!(field(lines[1], "cost"), "null");
    }

    #[test]
    fn predictive_admission_refuses_before_execution() {
        // sort n=4096 has an energy floor of 4096·√4096 = 262144 ≫ 1000,
        // so the predictive tenant refuses it without running; the scan
        // floor (64) fits and runs normally. The non-predictive tenant
        // keeps the old semantics: the sort executes under its guard.
        let input = r#"
{"op": "tenant", "tenant": "fore", "budget": 1000, "predict": true}
{"kind": "sort", "n": 4096, "seed": 1, "tenant": "fore", "id": "refused"}
{"kind": "scan", "n": 64, "seed": 2, "tenant": "fore", "id": "fits"}
{"op": "tenant", "tenant": "legacy", "budget": 1000}
{"kind": "sort", "n": 4096, "seed": 1, "tenant": "legacy", "id": "runs-anyway"}
"#;
        let (out, _) = run(input, 2, true);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(field(lines[1], "outcome"), "\"predicted-over-budget\"");
        assert_eq!(field(lines[1], "code"), "13");
        assert_eq!(field(lines[1], "cost"), "null", "refused jobs never execute");
        assert_eq!(field(lines[1], "attempts"), "0");
        assert!(lines[1].contains("predicted energy 262144"), "{}", lines[1]);
        assert_eq!(field(lines[2], "outcome"), "\"ok\"", "floor under budget runs");
        assert_ne!(field(lines[4], "outcome"), "\"predicted-over-budget\"", "opt-in only");
    }

    #[test]
    fn extent_cap_refuses_oversized_grids() {
        // sort n=256 occupies a 16×16 input square; an 8×8 cap refuses it
        // with the typed outcome while n=64 (8×8) still fits.
        let input = r#"
{"op": "tenant", "tenant": "boxed", "extent": {"rows": 8, "cols": 8}}
{"kind": "sort", "n": 256, "seed": 1, "tenant": "boxed", "id": "too-wide"}
{"kind": "scan", "n": 64, "seed": 2, "tenant": "boxed", "id": "fits"}
"#;
        let (out, _) = run(input, 2, true);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("\"ok\": true"));
        assert_eq!(field(lines[1], "outcome"), "\"extent-refused\"");
        assert_eq!(field(lines[1], "code"), "14");
        assert!(lines[1].contains("needs a 16x16 grid"), "{}", lines[1]);
        assert_eq!(field(lines[2], "outcome"), "\"ok\"");
    }

    #[test]
    fn drain_verb_acks_stops_admitting_and_returns() {
        let input = r#"
{"kind": "scan", "n": 16, "seed": 1, "id": "served"}
{"op": "drain"}
{"kind": "scan", "n": 16, "seed": 2, "id": "never-admitted"}
"#;
        let (out, summary) = run(input, 2, true);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert_eq!(field(lines[0], "outcome"), "\"ok\"");
        assert!(lines[1].contains("\"op\": \"drain\"") && lines[1].contains("\"ok\": true"));
        assert_eq!(summary.lines, 2, "the post-drain line was never consumed");
        assert!(summary.drained, "the summary records the drain");
    }

    #[test]
    fn pong_lines_are_transport_noise_not_consuming() {
        let input = r#"
{"kind": "scan", "n": 16, "seed": 1, "id": "first"}
{"op": "pong"}
{"op": "pong", "nonce": 7}
{"kind": "scan", "n": 16, "seed": 2, "id": "second"}
"#;
        let (out, summary) = run(input, 2, true);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "pongs consume no seq and emit nothing: {out}");
        assert_eq!(field(lines[0], "seq"), "0");
        assert_eq!(field(lines[1], "seq"), "1", "seq numbering skips heartbeat replies");
        assert_eq!(summary.lines, 2);
        assert!(!summary.drained);
    }

    #[test]
    fn outcome_index_matches_all_order() {
        for (i, o) in Outcome::ALL.into_iter().enumerate() {
            assert_eq!(o.index(), i, "{o:?}");
        }
    }

    #[test]
    fn invalid_utf8_input_becomes_a_ctl_error_not_an_exit() {
        let mut input =
            b"{\"kind\": \"scan\", \"n\": 16, \"seed\": 1}\n\xff\xfe garbage\n".to_vec();
        input.extend_from_slice(b"{\"kind\": \"scan\", \"n\": 16, \"seed\": 2}\n");
        let cfg = ServeConfig { workers: 1, canonical: true, ..Default::default() };
        let mut out = Vec::new();
        let summary = serve(io::Cursor::new(input), &mut out, &cfg).expect("serve I/O");
        let text = String::from_utf8(out).expect("output is clean utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[1].contains("invalid JSON"), "{}", lines[1]);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn bounded_cache_keeps_canonical_bytes_while_evicting() {
        // Capacity 1 forces eviction between the two distinct sorts, so
        // the repeat of the first is a miss — but canonical bytes must be
        // identical to an unbounded run.
        let input = r#"
{"kind": "sort", "n": 64, "seed": 9, "id": "a"}
{"kind": "sort", "n": 64, "seed": 10, "id": "b"}
{"kind": "sort", "n": 64, "seed": 9, "id": "a-again"}
"#;
        let run_cap = |capacity: usize| {
            let cfg = ServeConfig {
                workers: 1,
                canonical: true,
                cache_capacity: capacity,
                ..Default::default()
            };
            let mut out = Vec::new();
            serve(io::Cursor::new(input.to_string()), &mut out, &cfg).expect("serve I/O");
            String::from_utf8(out).expect("utf8")
        };
        assert_eq!(run_cap(1), run_cap(4096), "eviction never changes canonical output");
        assert_eq!(run_cap(0), run_cap(4096), "disabled cache neither");
    }

    #[test]
    fn journal_requires_canonical_mode() {
        let dir =
            std::env::temp_dir().join(format!("spatial-serve-noncanon-{}", std::process::id()));
        let cfg = ServeConfig {
            workers: 1,
            canonical: false,
            journal: Some(dir.clone()),
            ..Default::default()
        };
        let err = serve(io::Cursor::new(String::new()), Vec::new(), &cfg)
            .expect_err("journal without canonical must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_session_recovers_and_replays_nothing_already_delivered() {
        let dir =
            std::env::temp_dir().join(format!("spatial-serve-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let input = "{\"op\": \"tenant\", \"tenant\": \"t\", \"budget\": 100000}\n\
                     {\"kind\": \"sort\", \"n\": 64, \"seed\": 1, \"tenant\": \"t\", \"id\": \"one\"}\n\
                     {\"kind\": \"scan\", \"n\": 64, \"seed\": 2, \"tenant\": \"t\", \"id\": \"two\"}\n\
                     {\"op\": \"stats\"}\n";
        let cfg = ServeConfig {
            workers: 2,
            canonical: true,
            journal: Some(dir.clone()),
            ..Default::default()
        };
        let mut first = Vec::new();
        let s1 = serve(io::Cursor::new(input.to_string()), &mut first, &cfg).expect("first run");
        assert_eq!((s1.lines, s1.replayed), (4, 0));
        let first = String::from_utf8(first).unwrap();
        assert_eq!(first.lines().count(), 4);

        // A client that received everything resumes from 4 and re-streams
        // the full input: nothing is re-emitted and nothing re-runs.
        let cfg2 = ServeConfig { resume_from: 4, ..cfg.clone() };
        let mut second = Vec::new();
        let s2 = serve(io::Cursor::new(input.to_string()), &mut second, &cfg2).expect("resume");
        assert_eq!(second, b"", "exactly-once: no duplicate delivery");
        assert_eq!(s2.lines, 0, "all four lines deduplicated");
        assert_eq!(s2.replayed, 0, "snapshot covered everything — no replay");

        // A client that lost everything resumes from 0: the full stream is
        // re-delivered byte-identically (from the journal, not re-executed).
        let mut third = Vec::new();
        let s3 = serve(io::Cursor::new(input.to_string()), &mut third, &cfg).expect("redeliver");
        assert_eq!(String::from_utf8(third).unwrap(), first, "byte-identical re-delivery");
        assert_eq!(s3.lines, 0);

        // Fresh input past the journaled prefix is served normally, with
        // tenant ledgers carried across the restart.
        let extended = format!("{input}{{\"op\": \"stats\"}}\n");
        let mut fourth = Vec::new();
        let cfg4 = ServeConfig { resume_from: 4, ..cfg.clone() };
        let s4 = serve(io::Cursor::new(extended), &mut fourth, &cfg4).expect("extend");
        assert_eq!(s4.lines, 1, "only the new stats line consumed");
        let fourth = String::from_utf8(fourth).unwrap();
        let lines: Vec<&str> = fourth.lines().collect();
        assert_eq!(lines.len(), 1);
        assert_eq!(field(lines[0], "seq"), "4");
        assert_eq!(field(lines[0], "jobs"), "2", "aggregates survived the restart");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_missing_a_count_is_refused_and_the_journal_replays() {
        let dir = std::env::temp_dir().join(format!("spatial-serve-counts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let input = r#"{"op": "tenant", "tenant": "boxed", "extent": {"rows": 8, "cols": 8}}
{"kind": "sort", "n": 256, "seed": 1, "tenant": "boxed", "id": "too-wide"}
{"kind": "scan", "n": 64, "seed": 2, "tenant": "boxed", "id": "fits"}
"#;
        let cfg = ServeConfig {
            workers: 2,
            canonical: true,
            journal: Some(dir.clone()),
            ..Default::default()
        };
        serve(io::Cursor::new(input.to_string()), io::sink(), &cfg).expect("first run");

        // Cut the last count (extent-refused, which is 1 here) out of the
        // snapshot: its `counts` list now has 7 entries instead of 8.
        let path = dir.join(crate::journal::SNAPSHOT_FILE);
        let snap = std::fs::read_to_string(&path).unwrap();
        let start = snap.find("\"counts\": [").unwrap();
        let end = start + snap[start..].find(']').unwrap();
        let cut = snap[..end].rfind(", ").unwrap();
        std::fs::write(&path, format!("{}{}", &snap[..cut], &snap[end..])).unwrap();
        assert_eq!(crate::journal::read_snapshot(&dir), None);

        // Recovery replays the journal instead, so the next stats line
        // counts the refusal, as an uninterrupted session does.
        let extended = format!("{input}{{\"op\": \"stats\"}}\n");
        let mut out = Vec::new();
        let cfg2 = ServeConfig { resume_from: 3, ..cfg.clone() };
        let s = serve(io::Cursor::new(extended.clone()), &mut out, &cfg2).expect("recover");
        assert_eq!(s.replayed, 3, "the journal replays what the snapshot would have covered");
        let (whole, _) = run(&extended, 2, true);
        let stats = whole.lines().last().unwrap();
        assert_eq!(field(stats, "extent-refused"), "1");
        assert_eq!(String::from_utf8(out).unwrap(), format!("{stats}\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_v1_snapshot_is_refused_and_the_journal_replays() {
        let dir = std::env::temp_dir().join(format!("spatial-serve-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let input = r#"{"op": "tenant", "tenant": "t", "budget": 10000000}
{"kind": "sort", "n": 64, "seed": 1, "tenant": "t", "id": "one"}
{"kind": "scan", "n": 64, "seed": 2, "tenant": "t", "id": "two"}
{"kind": "sort", "n": 64, "seed": 1, "tenant": "t", "id": "again"}
"#;
        let cfg = ServeConfig {
            workers: 2,
            canonical: true,
            journal: Some(dir.clone()),
            ..Default::default()
        };
        serve(io::Cursor::new(input.to_string()), io::sink(), &cfg).expect("first run");

        // Rewrite the snapshot in the v1 layout: the v1 schema tag, one
        // energy and one wall time listed per job.
        let path = dir.join(crate::journal::SNAPSHOT_FILE);
        let v2 = std::fs::read_to_string(&path).unwrap();
        let snap = Snapshot::parse(&v2).expect("a v2 snapshot");
        let per_job: Vec<String> = snap
            .agg
            .energies
            .counts()
            .flat_map(|(v, count)| std::iter::repeat_n(format!("\"{v}\""), count as usize))
            .collect();
        assert_eq!(per_job.len(), 3);
        let start = v2.find("\"energies\": ").unwrap();
        let end = v2.find(", \"cache_hits\"").unwrap();
        let v1 = format!(
            "{}\"energies\": [{}], \"walls\": [\"0\", \"0\", \"0\"]{}",
            &v2[..start],
            per_job.join(", "),
            &v2[end..]
        )
        .replace("spatial-serve-snapshot/v2", "spatial-serve-snapshot/v1");
        std::fs::write(&path, v1).unwrap();
        assert_eq!(crate::journal::read_snapshot(&dir), None, "v1 fails the schema check");

        let extended = format!("{input}{{\"op\": \"stats\"}}\n");
        let mut out = Vec::new();
        let cfg2 = ServeConfig { resume_from: 4, ..cfg.clone() };
        let s = serve(io::Cursor::new(extended.clone()), &mut out, &cfg2).expect("recover");
        assert_eq!(s.replayed, 4, "the journal replays the whole prefix");
        let (whole, _) = run(&extended, 2, true);
        let stats = whole.lines().last().unwrap();
        assert_eq!(field(stats, "jobs"), "3");
        assert_eq!(String::from_utf8(out).unwrap(), format!("{stats}\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_long_journaled_session_snapshots_one_entry_per_distinct_energy() {
        let dir = std::env::temp_dir().join(format!("spatial-serve-long-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pair = "{\"kind\": \"scan\", \"n\": 16, \"seed\": 1}\n\
                    {\"kind\": \"sort\", \"n\": 16, \"seed\": 1}\n";
        let cfg = ServeConfig {
            workers: 2,
            canonical: true,
            journal: Some(dir.clone()),
            ..Default::default()
        };
        let s = serve(io::Cursor::new(pair.repeat(1000)), io::sink(), &cfg).expect("serve");
        assert_eq!(s.jobs, 2000);
        let json = std::fs::read_to_string(dir.join(crate::journal::SNAPSHOT_FILE)).unwrap();
        assert!(!json.contains("walls"), "{json}");
        let snap = Snapshot::parse(&json).expect("a v2 snapshot");
        let counts: Vec<u64> = snap.agg.energies.counts().map(|(_, count)| count).collect();
        assert_eq!(counts, [1000, 1000], "scan and sort energies, 1000 jobs each");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tenant_fault_default_applies_to_unfaulted_jobs() {
        let input = r#"
{"op": "tenant", "tenant": "flaky", "faults": {"flaky": 1.0}}
{"kind": "scan", "n": 16, "seed": 1, "retries": 1, "tenant": "flaky", "id": "inherits"}
{"kind": "scan", "n": 16, "seed": 1, "retries": 1, "tenant": "flaky", "id": "opts-out", "faults": {}}
"#;
        let (out, _) = run(input, 1, true);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("\"ok\": true"));
        assert_eq!(field(lines[1], "outcome"), "\"degraded\"", "tenant faults applied");
        assert_eq!(field(lines[2], "outcome"), "\"ok\"", "explicit faults override");
    }
}
