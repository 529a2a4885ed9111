//! TCP front end for the serve daemon: supervised per-connection sessions
//! over the same newline-JSON line protocol as stdin, `std::net` only.
//!
//! ## Session protocol
//!
//! A connection starts with a **handshake**: the first consuming line must
//! be `{"op": "hello", "resume_from": N, "tenant": NAME}` (`resume_from`
//! and `tenant` optional, defaulting to 0 and none). `resume_from` is the
//! client's watermark — the number of complete result lines it already
//! holds — and maps straight onto [`ServeConfig::resume_from`], so a
//! reconnecting client gets exactly the journaled lines it is missing and
//! nothing twice. The daemon replies with one
//! `{"schema": "spatial-serve-hello/v1", ...}` ack line, then runs the
//! ordinary serving loop ([`crate::serve::serve`]) over the socket. A
//! non-`hello` first line is answered with an `"ok": false` ack and the
//! connection is closed ([`SessionEnd::HandshakeRejected`]); a nonzero
//! watermark without a journal is rejected the same way, because there is
//! nothing to resume from.
//!
//! ## Supervision
//!
//! * **Heartbeats** — the read side carries a timeout of
//!   [`NetConfig::heartbeat_ms`]; each expiry enqueues one out-of-band
//!   `{"schema": "spatial-serve-ping/v1", "nonce": N}` line. A client
//!   reply of `{"op": "pong"}` (consumed as transport noise, no sequence
//!   number) — or any other traffic — resets the miss counter. After
//!   [`NetConfig::max_missed`] consecutive silent intervals the session is
//!   closed as [`SessionEnd::IdleTimeout`].
//! * **Backpressure** — output lines pass through a bounded queue
//!   ([`QueueWriter`], capacity [`NetConfig::send_queue_lines`]) drained
//!   by a dedicated writer thread. A client that stops reading stalls the
//!   queue; once an enqueue has waited [`NetConfig::write_stall_ms`] the
//!   session is cut as [`SessionEnd::SlowClient`] instead of wedging the
//!   daemon. Journaled-before-delivery ordering is preserved: a line the
//!   queue never delivered is re-sent from the journal on reconnect.
//! * **Drain** — the accept loop polls a nonblocking listener every
//!   [`NetConfig::accept_poll_ms`], checking the caller's stop flag and
//!   the process-wide [`crate::serve::drain_requested`] flag between
//!   polls, so SIGTERM wakes a listener with zero live connections (no
//!   blocked `accept()` to race). A live session notices drain at its
//!   next line or heartbeat expiry, finishes what it admitted, snapshots,
//!   and closes as [`SessionEnd::Drained`]. The in-band `{"op": "drain"}`
//!   verb drains the whole daemon, not just its connection.
//!
//! Sessions are accepted **one at a time** (the backlog queues the rest):
//! the write-ahead journal is single-writer, and the exactly-once resume
//! contract is defined over one totally-ordered stream. Concurrency lives
//! inside the session (the worker pool), not across sessions.

use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::lines;
use crate::pool::lock;
use crate::serve::{drain_requested, serve, ServeConfig, ServeSummary};

/// Process exit code (and per-session label code) for a transport-layer
/// disconnect: slow client, idle timeout, peer error, rejected handshake,
/// or a reconnecting client that exhausted its retries.
pub const EXIT_TRANSPORT_DISCONNECT: i32 = 15;

/// Supervision knobs for the TCP front end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetConfig {
    /// Read-timeout interval; each expiry sends one heartbeat ping.
    pub heartbeat_ms: u64,
    /// Consecutive silent heartbeat intervals before the session is closed
    /// as idle.
    pub max_missed: u32,
    /// Bounded output queue capacity, in lines.
    pub send_queue_lines: usize,
    /// How long an enqueue may wait on a full queue (and the socket write
    /// timeout) before the client is declared slow and disconnected.
    pub write_stall_ms: u64,
    /// Accept-loop poll interval while the listener is idle.
    pub accept_poll_ms: u64,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            heartbeat_ms: 2000,
            max_missed: 3,
            send_queue_lines: 1024,
            write_stall_ms: 5000,
            accept_poll_ms: 25,
        }
    }
}

/// How a session ended — every way a connection can leave the daemon,
/// typed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionEnd {
    /// Clean EOF from the peer (orderly shutdown of its write half).
    Eof,
    /// Drain: the in-band verb, the caller's stop flag, or SIGTERM.
    Drained,
    /// The peer went silent past the heartbeat allowance.
    IdleTimeout,
    /// The peer stopped reading and the bounded output queue stalled.
    SlowClient,
    /// A transport error (reset, broken pipe) ended the session.
    PeerError,
    /// The first consuming line was not an acceptable `hello`.
    HandshakeRejected,
}

impl SessionEnd {
    /// Every end, in summary-bucket order.
    pub const ALL: [SessionEnd; 6] = [
        SessionEnd::Eof,
        SessionEnd::Drained,
        SessionEnd::IdleTimeout,
        SessionEnd::SlowClient,
        SessionEnd::PeerError,
        SessionEnd::HandshakeRejected,
    ];

    /// Log/report spelling.
    pub fn label(self) -> &'static str {
        match self {
            SessionEnd::Eof => "eof",
            SessionEnd::Drained => "drained",
            SessionEnd::IdleTimeout => "idle-timeout",
            SessionEnd::SlowClient => "slow-client",
            SessionEnd::PeerError => "peer-error",
            SessionEnd::HandshakeRejected => "handshake-rejected",
        }
    }

    /// Index in [`SessionEnd::ALL`] (total match — see
    /// [`crate::job::Outcome::index`] for the idiom).
    pub fn index(self) -> usize {
        match self {
            SessionEnd::Eof => 0,
            SessionEnd::Drained => 1,
            SessionEnd::IdleTimeout => 2,
            SessionEnd::SlowClient => 3,
            SessionEnd::PeerError => 4,
            SessionEnd::HandshakeRejected => 5,
        }
    }

    /// Exit code a single-session process would report: clean ends exit 0,
    /// every transport failure exits [`EXIT_TRANSPORT_DISCONNECT`].
    pub fn exit_code(self) -> i32 {
        match self {
            SessionEnd::Eof | SessionEnd::Drained => 0,
            _ => EXIT_TRANSPORT_DISCONNECT,
        }
    }
}

/// What a listener served before it stopped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetSummary {
    /// Connections accepted.
    pub sessions: u64,
    /// Per-[`SessionEnd`] counts, indexed by [`SessionEnd::index`].
    pub ends: [u64; SessionEnd::ALL.len()],
    /// Consuming lines served across all sessions.
    pub lines: u64,
    /// Job result lines emitted across all sessions.
    pub jobs: u64,
}

impl NetSummary {
    /// Sessions that ended as `end`.
    pub fn count(&self, end: SessionEnd) -> u64 {
        self.ends[end.index()]
    }
}

// ---------------------------------------------------------------------------
// Bounded output queue
// ---------------------------------------------------------------------------

struct QueueState {
    queue: VecDeque<Vec<u8>>,
    /// Configured line cap (the `VecDeque` allocation may exceed it).
    capacity: usize,
    closed: bool,
    /// First delivery error, surfaced to producers on their next enqueue
    /// (`io::Error` is not `Clone`, so kind + message are kept instead).
    err: Option<(io::ErrorKind, String)>,
}

struct QueueShared {
    state: Mutex<QueueState>,
    /// Signals the writer thread: a line arrived or the queue closed.
    ready: Condvar,
    /// Signals producers: the writer freed a slot (or died).
    space: Condvar,
}

impl QueueShared {
    fn surface(g: &QueueState) -> io::Result<()> {
        match &g.err {
            Some((kind, msg)) => Err(io::Error::new(*kind, msg.clone())),
            None => Ok(()),
        }
    }
}

/// The write half handed to the serving loop: buffers until a full line,
/// then enqueues it for the writer thread, blocking up to the stall budget
/// when the queue is full. An exceeded stall budget is the slow-client
/// signal: the enqueue fails with `WouldBlock` and the session ends.
pub struct QueueWriter {
    shared: Arc<QueueShared>,
    partial: Vec<u8>,
    capacity: usize,
    stall: Duration,
}

impl QueueWriter {
    fn enqueue(&self, line: Vec<u8>) -> io::Result<()> {
        let deadline = Instant::now() + self.stall;
        let mut g = lock(&self.shared.state);
        loop {
            QueueShared::surface(&g)?;
            if g.queue.len() < self.capacity {
                g.queue.push_back(line);
                self.shared.ready.notify_all();
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!(
                        "slow client: send queue full ({} lines) for {} ms",
                        self.capacity,
                        self.stall.as_millis()
                    ),
                ));
            }
            g = self.shared.space.wait_timeout(g, deadline - now).map(|(g, _)| g).unwrap_or_else(
                |e| {
                    let (g, _) = e.into_inner();
                    g
                },
            );
        }
    }
}

impl Write for QueueWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.partial.extend_from_slice(buf);
        while let Some(pos) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=pos).collect();
            self.enqueue(line)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // Delivery is the writer thread's job; completed lines are already
        // queued and partial lines must wait for their newline.
        Ok(())
    }
}

/// The retained half of a [`QueueWriter`]: out-of-band ping injection plus
/// orderly shutdown of the writer thread.
struct QueueHandle {
    shared: Arc<QueueShared>,
    join: std::thread::JoinHandle<()>,
}

impl QueueHandle {
    /// Enqueues a line without blocking; full queue or dead writer drops it
    /// (a ping the client cannot take is not worth stalling reads for).
    fn try_enqueue(&self, line: Vec<u8>) {
        let mut g = lock(&self.shared.state);
        if g.err.is_none() && g.queue.len() < g.capacity {
            g.queue.push_back(line);
            self.shared.ready.notify_all();
        }
    }

    /// Closes the queue, waits for the writer to drain it, and reports the
    /// first delivery error if there was one.
    fn finish(self) -> io::Result<()> {
        {
            let mut g = lock(&self.shared.state);
            g.closed = true;
            self.shared.ready.notify_all();
        }
        let _ = self.join.join();
        let g = lock(&self.shared.state);
        QueueShared::surface(&g)
    }
}

/// Starts a writer thread draining the queue into `sink`. Generic over the
/// sink so tests can drive the backpressure path without a socket.
fn spawn_queue<W: Write + Send + 'static>(
    sink: W,
    capacity: usize,
    stall: Duration,
) -> (QueueWriter, QueueHandle) {
    let shared = Arc::new(QueueShared {
        state: Mutex::new(QueueState {
            queue: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            closed: false,
            err: None,
        }),
        ready: Condvar::new(),
        space: Condvar::new(),
    });
    let thread_shared = Arc::clone(&shared);
    let mut sink = sink;
    let join = std::thread::spawn(move || loop {
        let line = {
            let mut g = lock(&thread_shared.state);
            loop {
                if let Some(l) = g.queue.pop_front() {
                    thread_shared.space.notify_all();
                    break Some(l);
                }
                if g.closed || g.err.is_some() {
                    break None;
                }
                g = thread_shared.ready.wait(g).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(line) = line else { return };
        if let Err(e) = sink.write_all(&line).and_then(|()| sink.flush()) {
            let mut g = lock(&thread_shared.state);
            g.err = Some((e.kind(), e.to_string()));
            g.queue.clear();
            thread_shared.space.notify_all();
            return;
        }
    });
    (
        QueueWriter {
            shared: Arc::clone(&shared),
            partial: Vec::new(),
            capacity: capacity.max(1),
            stall,
        },
        QueueHandle { shared, join },
    )
}

// ---------------------------------------------------------------------------
// Session read side
// ---------------------------------------------------------------------------

/// The read half of a session: a socket with a read timeout, turned into a
/// plain blocking reader that answers each timeout with a heartbeat ping
/// and converts sustained silence — or a requested drain — into EOF.
struct SessionReader<'a> {
    stream: TcpStream,
    pings: &'a QueueHandle,
    net: &'a NetConfig,
    stop: &'a AtomicBool,
    missed: u32,
    nonce: u64,
    /// Set when EOF was synthesized by the idle cutoff (distinguishes
    /// [`SessionEnd::IdleTimeout`] from a real EOF afterwards).
    idle: Arc<AtomicBool>,
}

impl Read for SessionReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.stop.load(Ordering::SeqCst) || drain_requested() {
                return Ok(0); // drain: synthesize EOF, serve finishes up
            }
            match self.stream.read(buf) {
                Ok(n) => {
                    self.missed = 0;
                    return Ok(n);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    self.missed += 1;
                    if self.missed > self.net.max_missed {
                        self.idle.store(true, Ordering::SeqCst);
                        return Ok(0);
                    }
                    self.nonce += 1;
                    let ping = format!(
                        "{{\"schema\": \"spatial-serve-ping/v1\", \"nonce\": {}}}\n",
                        self.nonce
                    );
                    self.pings.try_enqueue(ping.into_bytes());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Hello {
    resume_from: u64,
    tenant: Option<String>,
}

/// Parses a `hello` line. `Err` is the rejection message for the ack.
fn parse_hello(line: &str, journaled: bool) -> Result<Hello, String> {
    let v = Json::parse(line).map_err(|e| format!("handshake is not valid JSON: {e}"))?;
    match v.get("op").and_then(Json::as_str) {
        Some("hello") => {}
        Some(other) => return Err(format!("expected op \"hello\", got {other:?}")),
        None => return Err("expected a {\"op\": \"hello\"} handshake line".into()),
    }
    let resume_from = match v.get("resume_from") {
        None => 0,
        Some(j) => j
            .as_u64()
            .ok_or_else(|| "field \"resume_from\" must be a non-negative integer".to_string())?,
    };
    if resume_from > 0 && !journaled {
        return Err(format!(
            "resume_from {resume_from} requires a journal: the daemon has no \
             record to redeliver from (start it with --journal)"
        ));
    }
    let tenant = match v.get("tenant") {
        None => None,
        Some(j) => Some(
            j.as_str().ok_or_else(|| "field \"tenant\" must be a string".to_string())?.to_string(),
        ),
    };
    Ok(Hello { resume_from, tenant })
}

fn hello_ack(ok: bool, resume_from: u64, tenant: Option<&str>, error: Option<&str>) -> String {
    let mut s = String::from("{\"schema\": \"spatial-serve-hello/v1\", ");
    s.push_str(&format!("\"ok\": {ok}, \"resume_from\": {resume_from}, "));
    match tenant {
        Some(t) => s.push_str(&format!("\"tenant\": \"{}\", ", crate::json::escape(t))),
        None => s.push_str("\"tenant\": null, "),
    }
    match error {
        Some(e) => s.push_str(&format!("\"error\": \"{}\"", crate::json::escape(e))),
        None => s.push_str("\"error\": null"),
    }
    s.push('}');
    s.push('\n');
    s
}

// ---------------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------------

/// Serves connections from `listener` until `stop` is set or a drain is
/// requested ([`crate::serve::request_drain`] / the in-band verb). Each
/// session runs the full serving loop over its socket; the journal and
/// resume watermarks give reconnecting clients exactly-once delivery
/// across sessions. Per-session failures are classified in the summary,
/// never propagated — only listener-level errors end the loop.
pub fn serve_listener(
    listener: TcpListener,
    cfg: &ServeConfig,
    net: &NetConfig,
    stop: &AtomicBool,
) -> io::Result<NetSummary> {
    listener.set_nonblocking(true)?;
    let poll = Duration::from_millis(net.accept_poll_ms.max(1));
    let mut summary = NetSummary::default();
    loop {
        if stop.load(Ordering::SeqCst) || drain_requested() {
            return Ok(summary);
        }
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(poll);
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        summary.sessions += 1;
        let (end, served) = serve_session(stream, cfg, net, stop);
        summary.ends[end.index()] += 1;
        if let Some(s) = served {
            summary.lines += s.lines;
            summary.jobs += s.jobs;
        }
        if end == SessionEnd::Drained {
            // The in-band drain verb shuts the daemon down, same as on
            // stdin; stop-flag and SIGTERM drains land here too.
            return Ok(summary);
        }
    }
}

/// Runs one connection through handshake + serving loop and classifies how
/// it ended. `None` summary means the serving loop never started (rejected
/// or empty handshake).
fn serve_session(
    stream: TcpStream,
    cfg: &ServeConfig,
    net: &NetConfig,
    stop: &AtomicBool,
) -> (SessionEnd, Option<ServeSummary>) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(Duration::from_millis(net.heartbeat_ms.max(1)))).is_err() {
        return (SessionEnd::PeerError, None);
    }
    let write_half = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return (SessionEnd::PeerError, None),
    };
    let _ = write_half.set_write_timeout(Some(Duration::from_millis(net.write_stall_ms.max(1))));
    let stall = Duration::from_millis(net.write_stall_ms);
    let (writer, handle) = spawn_queue(write_half, net.send_queue_lines, stall);

    let idle = Arc::new(AtomicBool::new(false));
    let reader = SessionReader {
        stream,
        pings: &handle,
        net,
        stop,
        missed: 0,
        nonce: 0,
        idle: Arc::clone(&idle),
    };
    let mut input = BufReader::new(reader);

    // Handshake: scan to the first consuming line (comments, blanks and
    // stray pongs are transport noise even before hello).
    let mut writer = writer;
    let mut buf = Vec::new();
    let first = loop {
        match lines::read_raw_line(&mut input, &mut buf) {
            Ok(0) => {
                let _ = handle.finish();
                let end = if stop.load(Ordering::SeqCst) || drain_requested() {
                    SessionEnd::Drained
                } else if idle.load(Ordering::SeqCst) {
                    SessionEnd::IdleTimeout
                } else {
                    SessionEnd::Eof
                };
                return (end, None);
            }
            Ok(_) => {
                if !lines::is_complete(&buf) {
                    continue; // torn tail: EOF comes on the next read
                }
                match lines::consuming(&buf) {
                    None => continue,
                    Some(t) if lines::is_pong(&t) => continue,
                    Some(t) => break t,
                }
            }
            Err(_) => {
                let _ = handle.finish();
                return (SessionEnd::PeerError, None);
            }
        }
    };
    let hello = match parse_hello(&first, cfg.journal.is_some()) {
        Ok(h) => h,
        Err(msg) => {
            let _ = writer.write_all(hello_ack(false, 0, None, Some(&msg)).as_bytes());
            let _ = handle.finish();
            return (SessionEnd::HandshakeRejected, None);
        }
    };
    let ack = hello_ack(true, hello.resume_from, hello.tenant.as_deref(), None);
    if writer.write_all(ack.as_bytes()).is_err() {
        let _ = handle.finish();
        return (SessionEnd::PeerError, None);
    }

    // The session's serving loop: same core as stdin, with the client's
    // watermark as the resume point and torn tails discarded (a TCP cut
    // mid-line must not consume a half line — the reconnect will restream
    // it whole).
    let session_cfg =
        ServeConfig { resume_from: hello.resume_from, discard_torn_tail: true, ..cfg.clone() };
    let result = serve(&mut input, writer, &session_cfg);
    let queue_err = handle.finish();
    let end = match &result {
        Ok(s) if s.drained || stop.load(Ordering::SeqCst) || drain_requested() => {
            SessionEnd::Drained
        }
        Ok(_) if idle.load(Ordering::SeqCst) => SessionEnd::IdleTimeout,
        Ok(_) => match queue_err {
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => SessionEnd::SlowClient,
            Err(_) => SessionEnd::PeerError,
            Ok(()) => SessionEnd::Eof,
        },
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => SessionEnd::SlowClient,
        Err(_) => SessionEnd::PeerError,
    };
    (end, result.ok())
}

/// A listener running on its own thread — the in-process harness for tests
/// and the building block `main` uses for `serve --listen`.
pub struct NetHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<io::Result<NetSummary>>,
}

impl NetHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests stop and waits for the accept loop to finish.
    pub fn stop(self) -> io::Result<NetSummary> {
        self.stop.store(true, Ordering::SeqCst);
        self.join.join().unwrap_or_else(|_| Err(io::Error::other("listener thread panicked")))
    }

    /// Waits for the accept loop to finish on its own (drain verb or
    /// process-wide drain).
    pub fn join(self) -> io::Result<NetSummary> {
        self.join.join().unwrap_or_else(|_| Err(io::Error::other("listener thread panicked")))
    }
}

/// Binds `addr` and serves it on a background thread. The stop flag is
/// instance-scoped, so parallel in-process listeners (tests) cannot drain
/// each other.
pub fn spawn_listener<A: ToSocketAddrs>(
    addr: A,
    cfg: ServeConfig,
    net: NetConfig,
) -> io::Result<NetHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let join = std::thread::spawn(move || serve_listener(listener, &cfg, &net, &thread_stop));
    Ok(NetHandle { addr, stop, join })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that accepts one write then blocks until dropped — the
    /// narrowest model of a client that stopped reading.
    struct StuckSink {
        unblock: Arc<AtomicBool>,
    }

    impl Write for StuckSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            while !self.unblock.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn full_queue_times_out_as_slow_client_not_a_hang() {
        let unblock = Arc::new(AtomicBool::new(false));
        let sink = StuckSink { unblock: Arc::clone(&unblock) };
        let (mut w, handle) = spawn_queue(sink, 2, Duration::from_millis(50));
        // The writer thread takes one line off the queue and wedges in the
        // sink; two more fill the queue; the next must time out.
        let start = Instant::now();
        let mut stalled = None;
        for i in 0..8 {
            if let Err(e) = writeln!(w, "line {i}") {
                stalled = Some(e);
                break;
            }
        }
        let e = stalled.expect("a bounded queue against a stuck sink must stall");
        assert_eq!(e.kind(), io::ErrorKind::WouldBlock, "{e}");
        assert!(e.to_string().contains("slow client"), "{e}");
        assert!(start.elapsed() < Duration::from_secs(5), "stall must be bounded");
        unblock.store(true, Ordering::SeqCst);
        handle.finish().expect("queue drains once the sink unblocks");
    }

    #[test]
    fn queue_preserves_line_order_and_finish_drains() {
        let out = Arc::new(Mutex::new(Vec::new()));
        struct Cap(Arc<Mutex<Vec<u8>>>);
        impl Write for Cap {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (mut w, handle) = spawn_queue(Cap(Arc::clone(&out)), 4, Duration::from_millis(500));
        for i in 0..32 {
            writeln!(w, "{i}").expect("queue accepts under drain");
        }
        handle.finish().expect("clean finish");
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let got: Vec<&str> = text.lines().collect();
        let want: Vec<String> = (0..32).map(|i| i.to_string()).collect();
        assert_eq!(got, want, "FIFO order through the bounded queue");
    }

    #[test]
    fn hello_parsing_accepts_and_rejects() {
        assert!(parse_hello(r#"{"op": "hello"}"#, false).is_ok());
        let h = parse_hello(r#"{"op": "hello", "resume_from": 7, "tenant": "t"}"#, true).unwrap();
        assert_eq!((h.resume_from, h.tenant.as_deref()), (7, Some("t")));
        let e = parse_hello(r#"{"op": "hello", "resume_from": 7}"#, false).unwrap_err();
        assert!(e.contains("requires a journal"), "{e}");
        assert!(parse_hello(r#"{"kind": "scan", "n": 16}"#, true).is_err());
        assert!(parse_hello("not json", true).is_err());
    }

    #[test]
    fn session_end_metadata_is_total() {
        for (i, end) in SessionEnd::ALL.into_iter().enumerate() {
            assert_eq!(end.index(), i);
            assert!(!end.label().is_empty());
        }
        assert_eq!(SessionEnd::Eof.exit_code(), 0);
        assert_eq!(SessionEnd::Drained.exit_code(), 0);
        assert_eq!(SessionEnd::SlowClient.exit_code(), EXIT_TRANSPORT_DISCONNECT);
    }
}
