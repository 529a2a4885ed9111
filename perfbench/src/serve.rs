//! `serve-cold` and `serve-warm`: the shipped daemon, driven in a closed
//! loop over one loopback TCP connection from one client thread.
//!
//! `serve-cold` starts `spatial-dataflow serve --listen 127.0.0.1:0` with a
//! worker per core and no journal, and keeps at most two requests per core
//! outstanding. Every request carries a fresh seed, so nothing is cached
//! and the time goes to `job::execute` on the instrumented machine.
//! Requests rotate over one tenant per core: the daemon runs one tenant's
//! jobs one at a time, so a single tenant would leave the other workers
//! idle.
//!
//! `serve-warm` adds `--canonical --journal`, registers two tenants — `b`
//! rate-limited, so deterministic `shed` refusals flow — and fills the
//! result cache with 64 small jobs during set-up. In the timed loop 95% of
//! the submissions repeat a cached job, 5% are fresh tiny jobs that miss
//! and insert, and a `stats` verb follows every 50 submissions. Execution
//! is near zero, so the time goes to line reading, JSON parsing, admission,
//! the cache, the journal, the stats aggregate and the socket.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use runner::job::{JobKind, JobSpec};
use runner::json::Json;
use spatial_core::model::Cost;
use workloads::Rng;

use crate::jobs::{
    bare_run, job_json, oracle, parse_checksum, parse_cost, small_n, spec, sub_seed,
};
use crate::stats::median;
use crate::{rate, Args, Live, Phase, Report, Tally, SETUP_REPS};

type Res<T> = Result<T, String>;

fn io_err(what: &'static str) -> impl Fn(io::Error) -> String {
    move |e| format!("{what}: {e}")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A running daemon. Dropping it kills the process if it still runs, and
/// always reaps it.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    log: Option<JoinHandle<String>>,
}

impl Daemon {
    fn spawn(bin: &Path, workers: usize, journal: Option<&Path>) -> Res<Daemon> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--jobs", &workers.to_string()]);
        if let Some(dir) = journal {
            cmd.arg("--canonical").arg("--journal").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(io_err("starting the daemon"))?;
        let mut err = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        // The daemon announces its bound port on stderr.
        let addr = loop {
            line.clear();
            if !matches!(err.read_line(&mut line), Ok(n) if n > 0) {
                break None;
            }
            if let Some(a) = line.trim().strip_prefix("serve: listening on ") {
                break a.parse::<SocketAddr>().ok();
            }
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "the daemon did not announce a listening address: {}",
                line.trim()
            ));
        };
        let log = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = err.read_to_string(&mut rest);
            rest
        });
        Ok(Daemon { child, addr, log: Some(log) })
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(self.child.id())
    }

    /// Waits up to `timeout` for a drained daemon to exit on its own.
    fn finish(mut self, timeout: Duration) -> Res<()> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let log =
                        self.log.take().map(|h| h.join().unwrap_or_default()).unwrap_or_default();
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("the daemon exited with {status}: {}", log.trim()))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("the daemon did not exit after drain".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.log.take() {
            let _ = h.join();
        }
    }
}

/// The client end of one connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> Res<Conn> {
        let stream = TcpStream::connect(addr).map_err(io_err("connecting to the daemon"))?;
        stream.set_nodelay(true).map_err(io_err("socket options"))?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(io_err("socket options"))?;
        let writer = stream.try_clone().map_err(io_err("socket clone"))?;
        Ok(Conn { reader: BufReader::new(stream), writer, buf: String::new() })
    }

    fn send(&mut self, line: &str) -> Res<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes).map_err(io_err("sending a request"))
    }

    /// The next protocol line; heartbeat pings are answered and skipped.
    fn recv(&mut self) -> Res<String> {
        loop {
            self.buf.clear();
            let n = self.reader.read_line(&mut self.buf).map_err(io_err("reading a reply"))?;
            if n == 0 {
                return Err("the daemon closed the connection".into());
            }
            let line = self.buf.trim();
            if line.contains("\"spatial-serve-ping/v1\"") {
                self.send("{\"op\": \"pong\"}")?;
                continue;
            }
            return Ok(line.to_string());
        }
    }
}

/// A daemon with one handshaken connection.
pub struct Session {
    daemon: Daemon,
    conn: Conn,
    /// Seconds from spawning the daemon to its listening announcement.
    start_s: f64,
    hello_rtt_ms: f64,
    /// Sequence number of the next consuming line sent.
    seq: u64,
}

/// Starts a daemon and handshakes one connection. The hello round trip is
/// not part of any set-up time: it waits on the daemon's accept-loop poll,
/// and whether the connection lands before the loop's first accept or
/// after it decides between about 1 ms and about 26 ms.
fn open_session(a: &Args, journal: Option<&Path>) -> Res<Session> {
    let t = Instant::now();
    let daemon = Daemon::spawn(&a.daemon, a.nproc, journal)?;
    let start_s = t.elapsed().as_secs_f64();
    let mut conn = Conn::open(daemon.addr)?;
    let t = Instant::now();
    conn.send("{\"op\": \"hello\"}")?;
    let ack = conn.recv()?;
    let hello_rtt_ms = ms(t.elapsed());
    if Json::parse(&ack).ok().and_then(|v| v.get("ok").and_then(Json::as_bool)) != Some(true) {
        return Err(format!("hello refused: {ack}"));
    }
    Ok(Session { daemon, conn, start_s, hello_rtt_ms, seq: 0 })
}

impl Session {
    /// Drains the daemon, waits for it to exit, and returns its peak RSS.
    fn close(mut self) -> Res<f64> {
        let rss = self.daemon.peak_rss_mb();
        self.conn.send("{\"op\": \"drain\"}")?;
        let ack = self.conn.recv()?;
        if !ack.contains("\"op\": \"drain\"") {
            return Err(format!("unexpected reply to drain: {ack}"));
        }
        drop(self.conn);
        self.daemon.finish(Duration::from_secs(30))?;
        Ok(rss)
    }

    /// Sends one consuming line and returns its sequence number.
    fn send(&mut self, line: &str) -> Res<u64> {
        self.conn.send(line)?;
        self.seq += 1;
        Ok(self.seq - 1)
    }
}

/// Drives `conn` in a closed loop: requests from `next` go out while fewer
/// than `window` are outstanding, `next` has more and `budget` has not
/// passed; then the outstanding ones drain. Replies arrive in request
/// order. `reply` gets each request with its reply line and the instants
/// its bytes went out and its reply came in. Returns the wall seconds.
fn closed_loop<R>(
    conn: &mut Conn,
    window: usize,
    budget: Duration,
    mut next: impl FnMut() -> Option<(R, String)>,
    mut reply: impl FnMut(R, &str, Instant, Instant),
) -> Res<f64> {
    let start = Instant::now();
    let mut inflight: VecDeque<(R, Instant)> = VecDeque::with_capacity(window);
    let mut more = true;
    loop {
        while more && inflight.len() < window && start.elapsed() < budget {
            match next() {
                Some((r, line)) => {
                    let sent = Instant::now();
                    conn.send(&line)?;
                    inflight.push_back((r, sent));
                }
                None => more = false,
            }
        }
        let Some((r, sent)) = inflight.pop_front() else { break };
        let line = conn.recv()?;
        reply(r, &line, sent, Instant::now());
    }
    Ok(start.elapsed().as_secs_f64())
}

/// The fields of a job result line the checks read.
struct JobLine {
    seq: u64,
    kind: String,
    outcome: String,
    cost: Option<Cost>,
    checksum: Option<u64>,
    wall_ms: Option<u64>,
}

fn parse_job_line(line: &str) -> Option<JobLine> {
    let v = Json::parse(line).ok()?;
    if v.get("schema")?.as_str()? != "spatial-batch-report/v1" {
        return None;
    }
    let cost = v.get("cost")?;
    let cost = if cost.is_null() { None } else { Some(parse_cost(cost)?) };
    let checksum = v.get("checksum")?;
    let checksum = if checksum.is_null() { None } else { Some(parse_checksum(checksum)?) };
    Some(JobLine {
        seq: v.get("seq")?.as_u64()?,
        kind: v.get("kind")?.as_str()?.to_string(),
        outcome: v.get("outcome")?.as_str()?.to_string(),
        cost,
        checksum,
        wall_ms: v.get("wall_ms").and_then(Json::as_u64),
    })
}

/// The serve-cold kinds and sizes: each executes for 30–90 ms on a 2-core
/// box, long against the 1 ms resolution of the `wall_ms` it reports.
pub const COLD_KINDS: [(JobKind, u64); 5] = [
    (JobKind::Scan, 1 << 18),
    (JobKind::Select, 4096),
    (JobKind::TopK, 4096),
    (JobKind::Sort, 256),
    (JobKind::Spmv, 64),
];

/// The `i`-th serve-cold job: kinds in rotation, every seed fresh.
pub fn cold_spec(seed: u64, i: u64) -> JobSpec {
    let (kind, n) = COLD_KINDS[(i % 5) as usize];
    let s = sub_seed(seed, i);
    let k = match kind {
        JobKind::TopK => 16,
        _ => n / 2,
    };
    spec(format!("c{i}"), kind, n, s, k)
}

/// One job of each serve-cold kind, on a seed stream the timed phase never
/// uses: serve-cold's warm-up, and the probe session's plumbing sample.
fn one_of_each(seed: u64) -> Vec<JobSpec> {
    (0..COLD_KINDS.len() as u64).map(|i| cold_spec(seed ^ 0x9E37, i)).collect()
}

/// Sends `specs` one request at a time; returns each reply line with the
/// sequence number sent and the round trip in milliseconds.
fn one_by_one(s: &mut Session, specs: &[JobSpec]) -> Res<Vec<(u64, String, f64)>> {
    let mut replies = Vec::with_capacity(specs.len());
    for spec in specs {
        let t = Instant::now();
        let seq = s.send(&job_json(spec, None))?;
        let line = s.conn.recv()?;
        replies.push((seq, line, ms(t.elapsed())));
    }
    Ok(replies)
}

/// Checks the replies of [`one_by_one`] as serve-cold checks its own;
/// returns each verified job's round trip minus its `wall_ms`.
fn check_one_by_one(
    specs: &[JobSpec],
    replies: &[(u64, String, f64)],
    tally: &mut Tally,
) -> Vec<f64> {
    let mut outside = Vec::new();
    for (spec, (seq, line, rtt)) in specs.iter().zip(replies) {
        let j = parse_job_line(line).filter(|j| {
            j.seq == *seq
                && j.outcome == "ok"
                && j.checksum == Some(oracle(spec))
                && j.cost == Some(bare_run(spec).1)
        });
        tally.check(j.is_some(), || format!("one-by-one {}: unexpected reply {line}", spec.id));
        if let Some(w) = j.and_then(|j| j.wall_ms) {
            outside.push(rtt - w as f64);
        }
    }
    outside
}

/// A served job awaiting its bare-machine cost check.
struct Served {
    spec: JobSpec,
    cost: Cost,
}

fn cold_phase(
    s: &mut Session,
    a: &Args,
    budget: Duration,
    tally: &mut Tally,
    outside_ms: &mut Vec<f64>,
) -> Res<Phase> {
    let mut served: Vec<Served> = Vec::new();
    let mut latency_ms = Vec::new();
    let (mut msgs, mut exec_s) = ([0f64; 4], [0f64; 4]);
    let tenants = a.nproc as u64;
    let seq = &mut s.seq;
    let mut next = 0;
    let wall = closed_loop(
        &mut s.conn,
        2 * a.nproc,
        budget,
        || {
            let i = next;
            next += 1;
            let spec = cold_spec(a.seed, i);
            let line = job_json(&spec, Some(&format!("t{}", i % tenants)));
            *seq += 1;
            Some(((spec, *seq - 1), line))
        },
        |(spec, want_seq), line, sent, got| {
            let rtt = ms(got - sent);
            let ok = parse_job_line(line).filter(|j| {
                j.seq == want_seq
                    && j.kind == spec.kind.label()
                    && j.outcome == "ok"
                    && j.checksum == Some(oracle(&spec))
                    && j.cost.is_some()
            });
            match ok {
                Some(j) => {
                    let cost = j.cost.expect("checked above");
                    let wall_ms = j.wall_ms.unwrap_or(0);
                    if let Some(k) = crate::msg_index(spec.kind.label()) {
                        msgs[k] += cost.messages as f64;
                        exec_s[k] += wall_ms as f64 / 1e3;
                    }
                    outside_ms.push(rtt - wall_ms as f64);
                    latency_ms.push(rtt);
                    served.push(Served { spec, cost });
                }
                None => tally
                    .check(false, || format!("serve-cold {}: unexpected reply {line}", spec.id)),
            }
        },
    )?;
    let verified = served.len();
    for sv in served {
        let bare = bare_run(&sv.spec).1;
        tally.check(sv.cost == bare, || {
            format!(
                "serve-cold {}: cost {:?} differs from the bare machine's {bare:?}",
                sv.spec.id, sv.cost
            )
        });
    }
    // Host time per simulated message on the served path: the daemon's own
    // execute time per job, so queueing behind other kinds does not blur
    // one kind's figure. The daemon reports whole milliseconds, rounded
    // down; every kind is sized to take tens of them, which keeps that
    // error to a few percent.
    let msgs_per_s = std::array::from_fn(|k| rate(msgs[k], exec_s[k]));
    Ok(Phase { jobs_per_s: rate(verified as f64, wall), latency_ms, msgs_per_s })
}

pub fn run_cold(a: &Args, tally: &mut Tally) -> Res<Report> {
    // Set-up: the daemon's start-up, then a warm-up of one job of each kind.
    let warm_up = one_of_each(a.seed);
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let mut s = open_session(a, None)?;
        let t = Instant::now();
        let replies = one_by_one(&mut s, &warm_up)?;
        setup_s.push(s.start_s + t.elapsed().as_secs_f64());
        check_one_by_one(&warm_up, &replies, tally);
        if let Some(old) = kept.replace(s) {
            old.close()?;
        }
    }
    let mut s = kept.expect("at least one set-up");
    let mut outside = Vec::new();
    let phase = cold_phase(&mut s, a, a.seconds, tally, &mut outside)?;
    let live = Live {
        hello_rtt_ms: Some(s.hello_rtt_ms),
        outside_execute_ms: median(&outside),
        ..Live::default()
    };
    let peak_rss_mb = s.close()?;
    Ok(Report { setup_s, phase, peak_rss_mb, live })
}

/// Cached jobs filled during serve-warm's set-up.
pub const FILL: u64 = 64;
/// Submissions between two `stats` verbs.
const STATS_EVERY: u64 = 50;
/// Tenant `b`'s rate limit: at most `burst` admissions in any `window`
/// consecutive sequence numbers.
pub const RATE_B: (u64, u64) = (2, 8);

/// Tenant registrations sent right after hello.
pub fn tenant_ops() -> [String; 2] {
    [
        "{\"op\": \"tenant\", \"tenant\": \"a\"}".to_string(),
        format!(
            "{{\"op\": \"tenant\", \"tenant\": \"b\", \"rate\": {{\"burst\": {}, \"window\": {}}}}}",
            RATE_B.0, RATE_B.1
        ),
    ]
}

fn small_spec(id: String, seed: u64, i: u64, n: u64) -> JobSpec {
    let (kind, _) = COLD_KINDS[(i % 5) as usize];
    let n = small_n(kind, n);
    let s = sub_seed(seed, i);
    let k = match kind {
        JobKind::TopK => 4,
        _ => n / 2,
    };
    spec(id, kind, n, s, k)
}

/// The `j`-th cached serve-warm job: kinds in rotation, n from 16 to 64.
/// The cached set is the same for every run; the run's seed drives the
/// traffic over it. (Selection's message count on inputs this small swings
/// with the data, so a seeded cache would make the messages a hit delivers
/// a property of the seed.)
pub fn fill_spec(j: u64) -> JobSpec {
    small_spec(format!("w{j}"), 0xF111, j, 16 << ((j / 5) % 3))
}

/// The `i`-th fresh serve-warm job: n from 16 to 32, a seed never cached.
fn fresh_spec(seed: u64, i: u64) -> JobSpec {
    small_spec(format!("f{i}"), seed ^ 0xF4E5, i, 16 + sub_seed(seed ^ 0x17, i) % 17)
}

/// The daemon's rate-limit rule, restated as the oracle for which of
/// tenant `b`'s submissions it sheds: a pure function of sequence numbers.
struct RateOracle {
    admitted: VecDeque<u64>,
}

impl RateOracle {
    fn admits(&mut self, seq: u64) -> bool {
        let (burst, window) = RATE_B;
        while self.admitted.front().is_some_and(|&s| s + window <= seq) {
            self.admitted.pop_front();
        }
        if self.admitted.len() as u64 >= burst {
            return false;
        }
        self.admitted.push_back(seq);
        true
    }
}

/// One serve-warm request and what its reply must be.
pub enum Warm {
    /// A repeat of cached job `j`; the reply must equal its cold line.
    Cached(usize),
    /// A fresh job and its oracle checksum.
    Fresh(JobSpec, u64),
    /// A `stats` verb that must count this many job results before it.
    Stats(u64),
}

/// serve-warm's timed request stream, a pure function of the seed.
pub struct WarmGen {
    rng: Rng,
    seed: u64,
    rate_b: RateOracle,
    fill: Vec<JobSpec>,
    fresh: u64,
    jobs_sent: u64,
    since_stats: u64,
}

/// One generated line with its sequence number, tenant and expectation.
pub struct WarmReq {
    pub what: Warm,
    pub seq: u64,
    pub tenant: &'static str,
    /// Whether tenant `b`'s rate limit refuses it.
    pub shed: bool,
    pub line: String,
}

impl WarmGen {
    /// A generator whose first line gets sequence `seq`, after `jobs_sent`
    /// job submissions.
    pub fn new(seed: u64, jobs_sent: u64) -> WarmGen {
        WarmGen {
            rng: Rng::seed_from_u64(seed ^ 0x3A7),
            seed,
            rate_b: RateOracle { admitted: VecDeque::new() },
            fill: (0..FILL).map(fill_spec).collect(),
            fresh: 0,
            jobs_sent,
            since_stats: 0,
        }
    }

    /// The cached job `j`.
    pub fn fill(&self, j: usize) -> &JobSpec {
        &self.fill[j]
    }

    /// The next request, for sequence number `seq`.
    pub fn next(&mut self, seq: u64) -> WarmReq {
        if self.since_stats == STATS_EVERY {
            self.since_stats = 0;
            let line = "{\"op\": \"stats\"}".to_string();
            return WarmReq {
                what: Warm::Stats(self.jobs_sent),
                seq,
                tenant: "",
                shed: false,
                line,
            };
        }
        self.since_stats += 1;
        self.jobs_sent += 1;
        let tenant = if self.rng.gen_bool(0.3) { "b" } else { "a" };
        let shed = tenant == "b" && !self.rate_b.admits(seq);
        let (what, line) = if self.rng.gen_bool(0.95) {
            let j = self.rng.gen_range(0..FILL as usize);
            (Warm::Cached(j), job_json(&self.fill[j], Some(tenant)))
        } else {
            let spec = fresh_spec(self.seed, self.fresh);
            self.fresh += 1;
            let line = job_json(&spec, Some(tenant));
            let sum = oracle(&spec);
            (Warm::Fresh(spec, sum), line)
        };
        WarmReq { what, seq, tenant, shed, line }
    }
}

/// A job line without its `seq` and `tenant` fields: what must be
/// byte-identical between a cold result and every cached repeat of it.
pub fn strip_seq_tenant(line: &str) -> Option<String> {
    let at = line.find("\"seq\": ")?;
    let end = at + line[at..].find(", ")? + 2;
    let mut s = format!("{}{}", &line[..at], &line[end..]);
    let at = s.find("\"tenant\": \"")?;
    let end = at + s[at..].find("\", ")? + 3;
    s.replace_range(at..end, "");
    Some(s)
}

/// The serve-warm set-up: a journaled daemon, both tenants registered and
/// the cache filled. Returns the session, its set-up seconds (the daemon's
/// start-up, the registrations and the fill) and each cached job's reply.
fn warm_setup(a: &Args, dir: &Path) -> Res<(Session, f64, Vec<String>)> {
    let gen = WarmGen::new(a.seed, 0);
    let mut s = open_session(a, Some(dir))?;
    let t = Instant::now();
    for op in tenant_ops() {
        s.send(&op)?;
        let ack = s.conn.recv()?;
        if !ack.contains("\"ok\": true") {
            return Err(format!("tenant registration refused: {ack}"));
        }
    }
    let mut replies = vec![String::new(); FILL as usize];
    let mut j = 0usize;
    let seq = &mut s.seq;
    closed_loop(
        &mut s.conn,
        2 * a.nproc,
        Duration::MAX,
        || {
            let job = (j < FILL as usize).then(|| (j, job_json(gen.fill(j), Some("a"))))?;
            j += 1;
            *seq += 1;
            Some(job)
        },
        |j, line, _, _| replies[j] = line.to_string(),
    )?;
    let setup_s = s.start_s + t.elapsed().as_secs_f64();
    Ok((s, setup_s, replies))
}

/// Checks the fill's replies against the host oracle and the bare machine;
/// returns each cached job's cold line without its `seq` and `tenant`.
fn check_fill(gen: &WarmGen, replies: &[String], tally: &mut Tally) -> Vec<String> {
    let mut cold = Vec::with_capacity(replies.len());
    for (j, line) in replies.iter().enumerate() {
        let spec = gen.fill(j);
        let ok = parse_job_line(line).is_some_and(|r| {
            r.outcome == "ok"
                && r.checksum == Some(oracle(spec))
                && r.cost == Some(bare_run(spec).1)
        });
        tally.check(ok, || format!("serve-warm fill {}: unexpected reply {line}", spec.id));
        cold.push(strip_seq_tenant(line).unwrap_or_default());
    }
    cold
}

/// serve-warm's timed state: the request stream, the cold lines cached
/// replies must equal, and the round trips of its `stats` verbs.
struct WarmRun {
    gen: WarmGen,
    cold: Vec<String>,
    stats_ms: Vec<f64>,
}

fn warm_phase(
    s: &mut Session,
    a: &Args,
    run: &mut WarmRun,
    budget: Duration,
    tally: &mut Tally,
) -> Res<Phase> {
    let WarmRun { gen, cold, stats_ms } = run;
    let mut latency_ms = Vec::new();
    let (mut msgs, mut secs) = ([0f64; 4], [0f64; 4]);
    let mut fresh: Vec<Served> = Vec::new();
    let seq = &mut s.seq;
    let wall = closed_loop(
        &mut s.conn,
        2 * a.nproc,
        budget,
        || {
            let req = gen.next(*seq);
            *seq += 1;
            let line = req.line.clone();
            Some((req, line))
        },
        |req, line, sent, got| {
            let rtt = ms(got - sent);
            if let Warm::Stats(jobs) = req.what {
                let counted =
                    Json::parse(line).ok().and_then(|v| v.get("jobs").and_then(Json::as_u64));
                tally.check(counted == Some(jobs), || {
                    format!("serve-warm stats at seq {}: {line}", req.seq)
                });
                stats_ms.push(rtt);
                return;
            }
            let parsed = parse_job_line(line).filter(|j| j.seq == req.seq);
            let ok = match (&parsed, &req.what) {
                (Some(j), _) if req.shed => j.outcome == "shed" && j.cost.is_none(),
                (Some(_), Warm::Cached(k)) => strip_seq_tenant(line).as_deref() == Some(&cold[*k]),
                (Some(j), Warm::Fresh(_, sum)) => j.outcome == "ok" && j.checksum == Some(*sum),
                _ => false,
            };
            if !ok {
                tally.check(false, || {
                    format!("serve-warm seq {} ({}): unexpected reply {line}", req.seq, req.tenant)
                });
                return;
            }
            latency_ms.push(rtt);
            let j = parsed.expect("checked above");
            if let (Warm::Cached(_), Some(cost), Some(k)) =
                (&req.what, j.cost, crate::msg_index(&j.kind))
            {
                msgs[k] += cost.messages as f64;
                secs[k] += rtt / 1e3;
            }
            match req.what {
                Warm::Fresh(spec, _) if !req.shed => {
                    fresh.push(Served { spec, cost: j.cost.expect("an ok reply has a cost") })
                }
                _ => tally.check(true, String::new),
            }
        },
    )?;
    let verified = latency_ms.len();
    for sv in fresh {
        let bare = bare_run(&sv.spec).1;
        tally.check(sv.cost == bare, || {
            format!(
                "serve-warm {}: cost {:?} differs from the bare machine's {bare:?}",
                sv.spec.id, sv.cost
            )
        });
    }
    // Cache hits only: simulated messages delivered per second of the
    // round trips that delivered them. The few fresh jobs execute for
    // milliseconds and would swamp the figure.
    let msgs_per_s = std::array::from_fn(|k| rate(msgs[k], secs[k]));
    Ok(Phase { jobs_per_s: rate(verified as f64, wall), latency_ms, msgs_per_s })
}

pub fn run_warm(a: &Args, tally: &mut Tally) -> Res<Report> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let dir = crate::work_dir().join(format!("warm-{rep}"));
        let (s, secs, replies) = warm_setup(a, &dir)?;
        setup_s.push(secs);
        let cold = check_fill(&WarmGen::new(a.seed, 0), &replies, tally);
        if let Some((old, _)) = kept.replace((s, cold)) {
            old.close()?;
        }
    }
    let (mut s, cold) = kept.expect("at least one set-up");
    let mut run = WarmRun { gen: WarmGen::new(a.seed, FILL), cold, stats_ms: Vec::new() };
    let phase = warm_phase(&mut s, a, &mut run, a.seconds, tally)?;
    let live = Live {
        hello_rtt_ms: Some(s.hello_rtt_ms),
        stats_first_ms: run.stats_ms.first().copied(),
        stats_last_ms: run.stats_ms.last().copied(),
        ..Live::default()
    };
    let peak_rss_mb = s.close()?;
    Ok(Report { setup_s, phase, peak_rss_mb, live })
}

/// A short session measuring the daemon's plumbing alone, for runs whose
/// workload opened none: hello, a `stats` verb, one job of each serve-cold
/// kind with a single request outstanding, and a second `stats` verb.
pub fn probe_session(a: &Args, tally: &mut Tally) -> Res<Live> {
    let mut s = open_session(a, None)?;
    let specs = one_of_each(a.seed);
    let mut stats = Vec::new();
    let mut replies = Vec::new();
    for round in 0..2 {
        let t = Instant::now();
        s.send("{\"op\": \"stats\"}")?;
        let line = s.conn.recv()?;
        stats.push(ms(t.elapsed()));
        tally.check(line.contains("spatial-serve-stats/v1"), || format!("probe stats: {line}"));
        if round == 0 {
            replies = one_by_one(&mut s, &specs)?;
        }
    }
    let live = Live {
        hello_rtt_ms: Some(s.hello_rtt_ms),
        stats_first_ms: stats.first().copied(),
        stats_last_ms: stats.last().copied(),
        outside_execute_ms: median(&check_one_by_one(&specs, &replies, tally)),
    };
    s.close()?;
    Ok(live)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_seq_tenant_leaves_the_rest_byte_identical() {
        let line = "{\"schema\": \"spatial-batch-report/v1\", \"seq\": 17, \"tenant\": \"b\", \
                    \"id\": \"w3\", \"outcome\": \"ok\"}";
        let other = "{\"schema\": \"spatial-batch-report/v1\", \"seq\": 4, \"tenant\": \"a\", \
                     \"id\": \"w3\", \"outcome\": \"ok\"}";
        let want = "{\"schema\": \"spatial-batch-report/v1\", \"id\": \"w3\", \"outcome\": \"ok\"}";
        assert_eq!(strip_seq_tenant(line).as_deref(), Some(want));
        assert_eq!(strip_seq_tenant(line), strip_seq_tenant(other));
        assert_eq!(strip_seq_tenant("{\"id\": \"x\"}"), None);
    }

    #[test]
    fn rate_oracle_admits_a_burst_per_window() {
        let mut o = RateOracle { admitted: VecDeque::new() };
        let admitted: Vec<bool> = [0, 1, 2, 7, 8, 9, 16].iter().map(|&s| o.admits(s)).collect();
        // Burst 2 per 8: seqs 0 and 1 fill the window, 2 and 7 are shed, 8
        // and 9 fall in a fresh window, 16 after 8 has aged out.
        assert_eq!(admitted, [true, true, false, false, true, true, true]);
    }
}
