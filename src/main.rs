//! `spatial-dataflow` — command-line driver for the spatial primitives.
//!
//! ```bash
//! cargo run --release -- scan   --n 65536
//! cargo run --release -- sort   --n 4096 --kind reversed
//! cargo run --release -- select --n 65536 --k 100 --seed 7
//! cargo run --release -- spmv   --n 1024 --nnz-per-row 4
//! cargo run --release -- topk   --n 65536 --k 32
//! cargo run --release -- sort   --n 4096 --faults 9:0.1
//! cargo run --release -- scan   --n 4096 --budget 100000
//! cargo run --release -- batch  experiments/jobspecs/smoke.json --jobs 4
//! cargo run --release -- serve  --jobs 4 < experiments/jobspecs/serve_smoke.jsonl
//! cargo run --release -- chaos  --mode spin --timeout 200
//! cargo run --release -- info
//! ```
//!
//! Each subcommand runs the primitive on a generated workload, verifies the
//! output against a host reference, and prints the exact Spatial Computer
//! Model costs next to the paper's Table I bound.
//!
//! `--faults <seed>:<fraction>` injects a seeded hardware-fault plan (dead
//! rows and degraded links over the input extent) and runs the primitive
//! under checksum-verified recovery; `--flaky <p>` adds per-message
//! transient corruption; `--budget <energy>` arms an energy budget guard;
//! `--timeout <ms>` arms a watchdog that cancels the run cooperatively.
//!
//! `batch <jobspec.json>` runs a whole batch of jobs through the supervised
//! runtime (`crates/runner`): bounded worker pool, per-job panic isolation,
//! deadlines, exponential backoff with seeded jitter, and graceful
//! degradation to a host oracle. The JSON report lands under
//! `target/spatial-bench/`.
//!
//! `serve` keeps that runtime alive as a daemon: newline-delimited JSON job
//! submissions on stdin, one result line per job on stdout, with per-tenant
//! budgets, rate limits, deficit-round-robin fair scheduling, and a warm
//! result cache. With `--journal <dir>` (requires `--canonical`) every
//! input and output line is journaled through a checksum-framed write-ahead
//! log so a SIGKILLed daemon can be restarted on the same directory and
//! resume with exactly-once output; `--resume-from <n>` tells the restart
//! how many complete output lines the client already holds. SIGTERM drains
//! gracefully, like the in-stream `{"op": "drain"}` verb. See README
//! "Serving mode" for the protocol.
//!
//! `serve --listen <addr>` serves the same protocol over TCP instead of
//! stdin/stdout: each connection opens with a `hello` handshake carrying
//! the client's resume watermark, heartbeat pings police silent peers, and
//! a bounded output queue disconnects clients that stop reading. `client
//! --connect <addr>` is the matching resumable client: it restreams its
//! stdin across however many reconnects it takes and exits only when the
//! observed result stream is complete and duplicate-free.
//!
//! Violations exit with distinct codes instead of panicking:
//!
//! | code | meaning |
//! |-----:|---------|
//! | 0 | success |
//! | 1 | a batch job panicked (contained; see the report) |
//! | 2 | usage error |
//! | 3 | output failed host verification |
//! | 4 | message targeted a dead PE |
//! | 5 | message left the guard extent |
//! | 6 | per-PE resident-word cap exceeded |
//! | 7 | cost budget exceeded |
//! | 8 | recovery retries exhausted (or batch job degraded) |
//! | 9 | deadline exceeded (run cancelled) |
//! | 10 | job shed: submission queue past saturation threshold |
//! | 12 | tenant over budget (serve admission; per-job `code` field only) |
//! | 13 | predicted over budget (serve admission; per-job `code` field only) |
//! | 14 | extent refused (serve admission; per-job `code` field only) |
//! | 15 | transport disconnect (client retries exhausted / session torn) |

use spatial_dataflow::collectives::scan_any;
use spatial_dataflow::model::zorder;
use spatial_dataflow::prelude::*;
use spatial_dataflow::recovery::{run_with_recovery, EXIT_RECOVERY_EXHAUSTED};
use spatial_dataflow::theory::{self, Metric, Shape};
use workloads::ArrayKind;

use spatial_dataflow::verify::EXIT_VERIFY_FAILED;

fn usage() -> ! {
    eprintln!(
        "usage: spatial-dataflow <command> [options]\n\
         \n\
         commands:\n\
           scan    --n <int> [--kind uniform|sorted|reversed|dup-heavy|zigzag] [--seed <int>]\n\
           sort    --n <int> [--kind ...] [--seed <int>]\n\
           select  --n <int> [--k <rank>] [--kind ...] [--seed <int>]\n\
           topk    --n <int> [--k <count>] [--kind ...] [--seed <int>]\n\
           spmv    --n <int> [--nnz-per-row <int>] [--seed <int>]\n\
           batch   <jobspec.json>  run a job batch through the supervised runtime\n\
           serve   persistent daemon: JSON job lines on stdin, result lines on stdout\n\
           client  --connect <addr>  resumable TCP client: stdin jobs to a daemon,\n\
                                     reconnecting + deduping until the stream completes\n\
           chaos   --mode panic|spin|badverify  deliberately misbehaving job\n\
           info    print the Table I bounds\n\
         \n\
         robustness options (any command):\n\
           --faults <seed>:<fraction>  inject seeded dead/degraded rows over the input\n\
                                       extent and run under checksum-verified recovery\n\
           --flaky <p>                 per-message transient corruption probability\n\
           --budget <energy>           arm an energy budget guard (exit 7 on breach)\n\
           --retries <int>             recovery retry cap (default 8)\n\
           --timeout <ms>              watchdog deadline; cancelled runs exit 9\n\
           --profile <name>            cost profile for reported totals: model-exact |\n\
                                       wse-like | systolic-like | simt-like. Adds a pJ\n\
                                       energy breakdown and EDP next to the raw counters\n\
                                       (batch/serve: default for jobs without their own)\n\
         \n\
         batch options:\n\
           --jobs <int>                worker threads (overrides the jobspec config)\n\
           --timeout <ms>              default per-job deadline (overrides the jobspec)\n\
           --best-effort               exit 0 even when jobs fail (report still\n\
                                       records every outcome)\n\
         \n\
         serve options:\n\
           --jobs <int>                worker threads (default: available parallelism)\n\
           --timeout <ms>              default per-job deadline\n\
           --canonical                 omit wall-clock fields: output becomes a pure\n\
                                       function of the input stream\n\
           --quantum <int>             DRR deficit per tenant visit (default 1024)\n\
           --cache-capacity <int>      max warm-cache entries, LRU evicted (default\n\
                                       4096; 0 disables caching)\n\
           --journal <dir>             write-ahead journal + snapshot directory for\n\
                                       crash-safe serving (requires --canonical)\n\
           --resume-from <int>         complete output lines the client already\n\
                                       received; the restart re-emits from there\n\
           --listen <addr>             serve over TCP instead of stdin/stdout; each\n\
                                       connection handshakes with a hello line\n\
           --heartbeat <ms>            ping interval for silent TCP peers (default 2000)\n\
           --idle-misses <int>         unanswered pings before idle disconnect (default 3)\n\
           --send-queue <lines>        bounded per-connection output queue (default 1024)\n\
         \n\
         client options:\n\
           --connect <addr>            daemon address (required)\n\
           --max-reconnects <int>      reconnect attempts after the first (default 8)\n\
           --seed <int>                backoff jitter seed\n\
           --cut-after <bytes>         chaos: tear the connection after this many bytes\n\
           --cut-conns <int>           chaos: apply the cut to the first k connections\n\
                                       (default 1 when --cut-after is given)\n\
         \n\
         exit codes: 0 ok | 1 job panicked | 2 usage | 3 verify failed | 4 dead PE |\n\
                     5 out of extent | 6 memory cap | 7 budget | 8 recovery exhausted /\n\
                     degraded | 9 deadline exceeded | 10 job shed (overload) |\n\
                     12 tenant over budget | 13 predicted over budget |\n\
                     14 extent refused (12-14: serve, per-job code field) |\n\
                     15 transport disconnect (client retries exhausted)\n"
    );
    std::process::exit(2)
}

struct Args {
    n: usize,
    k: u64,
    nnz_per_row: usize,
    seed: u64,
    kind: ArrayKind,
    faults: Option<(u64, f64)>,
    flaky: f64,
    budget: Option<u64>,
    retries: u32,
    timeout_ms: Option<u64>,
    jobs: Option<usize>,
    best_effort: bool,
    canonical: bool,
    quantum: Option<u64>,
    cache_capacity: Option<usize>,
    journal: Option<String>,
    resume_from: u64,
    listen: Option<String>,
    heartbeat_ms: Option<u64>,
    idle_misses: Option<u32>,
    send_queue: Option<usize>,
    connect: Option<String>,
    max_reconnects: Option<u32>,
    cut_after: Option<u64>,
    cut_conns: u32,
    mode: Option<String>,
    /// Validated built-in cost profile name (`--profile`).
    profile: Option<&'static str>,
    /// First positional argument (the jobspec path for `batch`).
    path: Option<String>,
}

fn parse(mut argv: std::env::Args) -> (String, Args) {
    let cmd = argv.next().unwrap_or_else(|| usage());
    let mut args = Args {
        n: 4096,
        k: 0,
        nnz_per_row: 4,
        seed: 1,
        kind: ArrayKind::Uniform,
        faults: None,
        flaky: 0.0,
        budget: None,
        retries: 8,
        timeout_ms: None,
        jobs: None,
        best_effort: false,
        canonical: false,
        quantum: None,
        cache_capacity: None,
        journal: None,
        resume_from: 0,
        listen: None,
        heartbeat_ms: None,
        idle_misses: None,
        send_queue: None,
        connect: None,
        max_reconnects: None,
        cut_after: None,
        cut_conns: 1,
        mode: None,
        profile: None,
        path: None,
    };
    let mut it = argv.peekable();
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--n" => {
                args.n = val().parse().unwrap_or_else(|_| usage());
                if args.n as u64 > zorder::MAX_POWER_OF_FOUR {
                    eprintln!("error: --n {} exceeds 4^31, the largest Z-order array", args.n);
                    std::process::exit(2);
                }
            }
            "--k" => args.k = val().parse().unwrap_or_else(|_| usage()),
            "--nnz-per-row" => args.nnz_per_row = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--kind" => {
                let v = val();
                args.kind =
                    ArrayKind::ALL.into_iter().find(|k| k.label() == v).unwrap_or_else(|| usage());
            }
            "--faults" => {
                let v = val();
                let (s, f) = v.split_once(':').unwrap_or_else(|| usage());
                let seed = s.parse().unwrap_or_else(|_| usage());
                let frac: f64 = f.parse().unwrap_or_else(|_| usage());
                if !(0.0..=1.0).contains(&frac) {
                    usage();
                }
                args.faults = Some((seed, frac));
            }
            "--flaky" => {
                args.flaky = val().parse().unwrap_or_else(|_| usage());
                if !(0.0..=1.0).contains(&args.flaky) {
                    usage();
                }
            }
            "--budget" => args.budget = Some(val().parse().unwrap_or_else(|_| usage())),
            "--retries" => args.retries = val().parse().unwrap_or_else(|_| usage()),
            "--timeout" => args.timeout_ms = Some(val().parse().unwrap_or_else(|_| usage())),
            "--jobs" => {
                args.jobs = Some(val().parse().unwrap_or_else(|_| usage()));
                if args.jobs == Some(0) {
                    usage();
                }
            }
            "--best-effort" => args.best_effort = true,
            "--canonical" => args.canonical = true,
            "--quantum" => {
                args.quantum = Some(val().parse().unwrap_or_else(|_| usage()));
                if args.quantum == Some(0) {
                    usage();
                }
            }
            "--cache-capacity" => {
                args.cache_capacity = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--journal" => args.journal = Some(val()),
            "--resume-from" => args.resume_from = val().parse().unwrap_or_else(|_| usage()),
            "--listen" => args.listen = Some(val()),
            "--heartbeat" => args.heartbeat_ms = Some(val().parse().unwrap_or_else(|_| usage())),
            "--idle-misses" => args.idle_misses = Some(val().parse().unwrap_or_else(|_| usage())),
            "--send-queue" => {
                args.send_queue = Some(val().parse().unwrap_or_else(|_| usage()));
                if args.send_queue == Some(0) {
                    usage();
                }
            }
            "--connect" => args.connect = Some(val()),
            "--max-reconnects" => {
                args.max_reconnects = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--cut-after" => args.cut_after = Some(val().parse().unwrap_or_else(|_| usage())),
            "--cut-conns" => args.cut_conns = val().parse().unwrap_or_else(|_| usage()),
            "--mode" => args.mode = Some(val()),
            "--profile" => {
                // Typed usage error: an unknown name reports itself (and the
                // known names) instead of the generic usage dump.
                args.profile = match profile_by_name(&val()) {
                    Ok(p) => Some(p.name),
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(e.exit_code());
                    }
                };
            }
            f if !f.starts_with("--") && args.path.is_none() => args.path = Some(f.to_string()),
            _ => usage(),
        }
    }
    (cmd, args)
}

/// Outcome of [`execute`]: the verified value plus run telemetry.
struct Outcome<T> {
    value: T,
    cost: Cost,
    /// `cost` charged under `--profile`, when one was given.
    profiled: Option<ProfiledCost>,
    attempts: u32,
    detour_energy: u64,
}

/// Arms the wall-clock watchdog for `--timeout`: a detached thread that
/// trips the returned token after the deadline. `Machine::guarded` reads the
/// token when its closure returns, so a cancelled run surfaces
/// [`SpatialError::Cancelled`] (exit 9) when its attempt ends and is not
/// retried.
fn arm_watchdog(timeout_ms: Option<u64>) -> Option<CancelToken> {
    timeout_ms.map(|ms| {
        let token = CancelToken::new();
        let t = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            t.cancel();
        });
        token
    })
}

/// Runs `run` under the robustness options in `a` (fault plan, flaky
/// messages, budget guard, recovery retries, watchdog deadline), verifies
/// with `verify`, and exits with the documented code on any failure.
/// `extent_side` is the side of the Z-square the input occupies — the
/// region the fault plan draws dead/degraded rows from.
fn execute<T>(
    a: &Args,
    extent_side: u64,
    mut run: impl FnMut(&mut Machine, u32) -> Result<T, SpatialError>,
    mut verify: impl FnMut(&T) -> bool,
) -> Outcome<T> {
    let guard = a.budget.map(|e| ModelGuard::new().max_energy(e));
    let cancel = arm_watchdog(a.timeout_ms);
    let profile = a.profile.map(|n| profile_by_name(n).expect("validated at parse"));
    let prepare = |m: &mut Machine| {
        if let Some(g) = guard {
            m.enable_guard(g);
        }
        if let Some(t) = &cancel {
            m.set_cancel_token(t.clone());
        }
    };
    // Charging can only saturate on adversarial weights, never on the
    // built-in profiles; keep the typed exit anyway so the invariant is
    // enforced, not assumed.
    let charge = |cost: Cost| -> Option<ProfiledCost> {
        profile.map(|p| match p.charge(cost) {
            Ok(pc) => pc,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(e.exit_code());
            }
        })
    };
    if a.faults.is_none() && a.flaky == 0.0 {
        let mut m = Machine::new();
        prepare(&mut m);
        let value = match run(&mut m, 0) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(e.exit_code());
            }
        };
        if let Some(e) = m.take_violation() {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
        if !verify(&value) {
            eprintln!("error: output failed host verification");
            std::process::exit(EXIT_VERIFY_FAILED);
        }
        let cost = m.report();
        Outcome { value, cost, profiled: charge(cost), attempts: 1, detour_energy: 0 }
    } else {
        let (fseed, frac) = a.faults.unwrap_or((a.seed, 0.0));
        let extent = SubGrid::square(Coord::ORIGIN, extent_side.max(1));
        let plan = spatial_dataflow::model::FaultPlan::builder(fseed)
            .random_dead_rows(extent, frac)
            .random_degraded_rows(extent, frac)
            .flaky(a.flaky)
            .build();
        println!(
            "fault plan (seed {fseed}): dead rows {:?}, degraded rows {:?}, flaky {}",
            plan.dead_rows(),
            plan.degraded_rows(),
            a.flaky
        );
        let result = run_with_recovery(
            &plan,
            a.retries,
            |m, attempt| {
                prepare(m);
                run(m, attempt)
            },
            &mut verify,
        );
        match result {
            Ok(rec) => Outcome {
                value: rec.value,
                cost: rec.cost,
                profiled: charge(rec.cost),
                attempts: rec.attempts,
                detour_energy: rec.detour_energy,
            },
            Err(ex) => {
                eprintln!("error: {ex}");
                let code = match ex.last_error {
                    Some(e) => e.exit_code(),
                    None => EXIT_RECOVERY_EXHAUSTED,
                };
                std::process::exit(code);
            }
        }
    }
}

fn report<T>(name: &str, n: u64, out: &Outcome<T>, bound: impl Fn(Metric) -> Shape) {
    println!("\n{name} (n = {n})");
    println!("  measured: {}", out.cost);
    if let Some(p) = &out.profiled {
        println!("  profile:  {p}");
    }
    println!(
        "  paper:    energy Θ({}), depth O({}), distance Θ({})",
        bound(Metric::Energy).label(),
        bound(Metric::Depth).label(),
        bound(Metric::Distance).label()
    );
    if out.attempts > 1 || out.detour_energy > 0 {
        println!(
            "  faults:   {} attempt(s), detour energy {} ({:.2}% of total)",
            out.attempts,
            out.detour_energy,
            100.0 * out.detour_energy as f64 / (out.cost.energy.max(1)) as f64
        );
    }
}

/// The rank `select` and `topk` run with: `--k`, or `default` when it was
/// not given (`--k 0` also means not given). An empty input or a rank
/// outside `1..=n` is a usage error (exit 2).
fn rank_arg(cmd: &str, a: &Args, default: u64) -> u64 {
    let (n, k) = (a.n as u64, if a.k == 0 { default } else { a.k });
    if !(1..=n).contains(&k) {
        eprintln!("error: {cmd} needs --n >= 1 and 1 <= --k <= n (got n = {n}, k = {k})");
        std::process::exit(2);
    }
    k
}

/// Side of the Z-order square holding `n` elements from index 0.
fn z_side(n: u64) -> u64 {
    let padded = zorder::next_power_of_four(n.max(1));
    (padded as f64).sqrt() as u64
}

/// `batch <jobspec.json>` — runs a whole job batch through the supervised
/// runtime and exits with the batch's aggregate code (0 under
/// `--best-effort`).
/// Replaces the default panic hook with a one-liner. Job panics inside the
/// supervised runtime are *contained by design*, so a full backtrace per
/// induced panic is noise (especially with `RUST_BACKTRACE=1` in CI); the
/// panic message still reaches the report and the summary.
fn quiet_contained_panics() {
    std::panic::set_hook(Box::new(|info| {
        eprintln!("[contained] {info}");
    }));
}

fn run_batch_command(a: &Args) -> ! {
    quiet_contained_panics();
    let path = a.path.clone().unwrap_or_else(|| usage());
    let doc = match std::fs::read_to_string(&path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot read jobspec {path}: {e}");
            std::process::exit(2);
        }
    };
    let mut batch = match runner::Batch::parse(&doc) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: invalid jobspec {path}: {e}");
            std::process::exit(2);
        }
    };
    // CLI flags override the jobspec's config block.
    if let Some(jobs) = a.jobs {
        batch.config.workers = jobs;
    }
    if let Some(ms) = a.timeout_ms {
        batch.config.default_deadline_ms = Some(ms);
    }
    if a.best_effort {
        batch.config.best_effort = true;
    }
    if let Some(p) = a.profile {
        batch.config.profile = Some(p);
    }
    println!(
        "batch {:?}: {} job(s) on {} worker(s){}",
        batch.name,
        batch.jobs.len(),
        batch.config.workers,
        if batch.config.best_effort { ", best-effort" } else { "" }
    );
    let report = runner::run_batch(&batch.name, &batch.config, &batch.jobs);
    for job in &report.jobs {
        let detail = match (&job.cost, &job.error) {
            (Some(c), _) => format!("{} attempt(s), energy {}", job.attempts, c.energy),
            (None, Some(e)) => e.clone(),
            (None, None) => String::new(),
        };
        println!("  {:<16} {:<18} {detail}", job.id, job.outcome.label());
    }
    println!(
        "  => {} ok, {} degraded, {} panicked, {} deadline-exceeded, {} shed in {} ms",
        report.count(runner::Outcome::Ok),
        report.count(runner::Outcome::Degraded),
        report.count(runner::Outcome::Panicked),
        report.count(runner::Outcome::DeadlineExceeded),
        report.count(runner::Outcome::Shed),
        report.wall_ms
    );
    match runner::write_report(&report) {
        Ok(p) => println!("  report: {}", p.display()),
        Err(e) => eprintln!("warning: could not write batch report: {e}"),
    }
    std::process::exit(report.exit_code(batch.config.best_effort));
}

/// Routes SIGTERM into the daemon's graceful drain: a single
/// async-signal-safe atomic store, checked by the reader between lines.
/// Raw `signal(2)` keeps the workspace free of a libc dependency.
#[cfg(unix)]
fn install_sigterm_drain() {
    extern "C" fn on_sigterm(_sig: i32) {
        runner::request_drain();
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_drain() {}

/// `serve` — the persistent multi-tenant daemon: reads newline-delimited
/// JSON job submissions from stdin, streams one result line per job to
/// stdout, and keeps the supervised pool alive across submissions. Exits 0
/// on clean EOF shutdown — per-job failures (panics, deadlines, exhausted
/// tenants) are reported in-stream, never by killing the daemon.
fn run_serve_command(a: &Args) -> ! {
    quiet_contained_panics();
    install_sigterm_drain();
    let mut cfg = runner::ServeConfig::default();
    if let Some(jobs) = a.jobs {
        cfg.workers = jobs;
    }
    cfg.default_deadline_ms = a.timeout_ms;
    cfg.canonical = a.canonical;
    if let Some(q) = a.quantum {
        cfg.quantum = q;
    }
    if let Some(cap) = a.cache_capacity {
        cfg.cache_capacity = cap;
    }
    if let Some(dir) = &a.journal {
        if !a.canonical {
            eprintln!("error: --journal requires --canonical (journaled output must be a pure function of the input stream)");
            std::process::exit(2);
        }
        cfg.journal = Some(std::path::PathBuf::from(dir));
    }
    cfg.resume_from = a.resume_from;
    cfg.profile = a.profile;
    if let Some(addr) = &a.listen {
        run_serve_listener(a, cfg, addr);
    }
    let stdin = std::io::stdin();
    match runner::serve(stdin.lock(), std::io::stdout(), &cfg) {
        Ok(s) => {
            eprintln!(
                "serve: shut down cleanly after {} line(s): {} job(s), {} error line(s), {} replayed",
                s.lines, s.jobs, s.errors, s.replayed
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: serve I/O: {e}");
            std::process::exit(2);
        }
    }
}

/// `serve --listen <addr>` — the TCP front end. Same protocol, same core
/// loop; each connection handshakes with a hello line binding its resume
/// watermark, and SIGTERM / the in-band drain verb shut the listener down
/// across connections (the nonblocking accept loop polls the drain flag,
/// so a drain with zero connected clients still completes promptly).
fn run_serve_listener(a: &Args, cfg: runner::ServeConfig, addr: &str) -> ! {
    if a.resume_from != 0 {
        // Over TCP the watermark arrives per connection in the hello.
        eprintln!(
            "error: --resume-from is a stdin-mode flag; TCP clients resume via the hello handshake"
        );
        std::process::exit(2);
    }
    let mut net = runner::NetConfig::default();
    if let Some(ms) = a.heartbeat_ms {
        net.heartbeat_ms = ms.max(1);
    }
    if let Some(m) = a.idle_misses {
        net.max_missed = m;
    }
    if let Some(q) = a.send_queue {
        net.send_queue_lines = q;
    }
    let listener = match std::net::TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(2);
        }
    };
    let bound = listener.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| addr.to_string());
    // Tests and scripts bind port 0 and parse the actual port from here.
    eprintln!("serve: listening on {bound}");
    let stop = std::sync::atomic::AtomicBool::new(false);
    match runner::serve_listener(listener, &cfg, &net, &stop) {
        Ok(s) => {
            let ends: Vec<String> = runner::SessionEnd::ALL
                .into_iter()
                .filter(|&e| s.count(e) > 0)
                .map(|e| format!("{} {}", s.count(e), e.label()))
                .collect();
            eprintln!(
                "serve: listener shut down after {} session(s) ({}): {} line(s), {} job(s)",
                s.sessions,
                if ends.is_empty() { "none".to_string() } else { ends.join(", ") },
                s.lines,
                s.jobs
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: serve listener: {e}");
            std::process::exit(2);
        }
    }
}

/// `client --connect <addr>` — streams stdin to a TCP daemon and prints the
/// observed result lines, reconnecting with the resume watermark until the
/// stream is complete. `--cut-after`/`--cut-conns` wrap the first k
/// connections in a seeded chaos plan, so CI can force a mid-stream
/// disconnect and still demand byte-identical output.
fn run_client_command(a: &Args) -> ! {
    let Some(addr) = a.connect.clone() else {
        eprintln!("error: client needs --connect <addr>");
        std::process::exit(2);
    };
    let mut input = String::new();
    if let Err(e) = std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut input) {
        eprintln!("error: reading stdin: {e}");
        std::process::exit(2);
    }
    let mut cfg = runner::ClientConfig { seed: a.seed, ..Default::default() };
    if let Some(r) = a.max_reconnects {
        cfg.max_reconnects = r;
    }
    let cut_after = a.cut_after;
    let cut_conns = a.cut_conns;
    let seed = a.seed;
    let dial = move |attempt: u32| -> std::io::Result<Box<dyn runner::Conn>> {
        let stream = std::net::TcpStream::connect(&addr)?;
        match cut_after {
            Some(bytes) if attempt < cut_conns => {
                let plan = runner::NetChaosPlan::new(seed ^ u64::from(attempt)).cut_after(bytes);
                Ok(Box::new(runner::ChaosTransport::new(stream, plan)))
            }
            _ => Ok(Box::new(stream)),
        }
    };
    let mut log = std::io::stderr();
    match runner::run_client(&input, dial, &cfg, &mut log) {
        Ok(summary) => {
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            for line in &summary.observed {
                use std::io::Write;
                if writeln!(out, "{line}").is_err() {
                    std::process::exit(2);
                }
            }
            eprintln!(
                "client: complete after {} reconnect(s): {} result line(s), {} ping(s) absorbed",
                summary.reconnects,
                summary.observed.len(),
                summary.pings
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: client: {e}");
            std::process::exit(runner::EXIT_TRANSPORT_DISCONNECT);
        }
    }
}

/// `chaos --mode panic|spin|badverify` — one deliberately misbehaving job,
/// for exercising the supervision machinery from the command line.
///
/// `panic` and `spin` run through the supervised runtime (panic isolation
/// and watchdog deadlines live there); `badverify` runs a scan whose host
/// verification is forced to fail, exercising the plain exit-3 path.
fn run_chaos_command(a: &Args) -> ! {
    quiet_contained_panics();
    let mode = a.mode.as_deref().unwrap_or_else(|| usage());
    if mode == "badverify" {
        let vals = a.kind.generate(a.n, a.seed);
        execute(
            a,
            z_side(a.n as u64),
            |m, _| {
                let items = place_z(m, 0, vals.clone());
                m.guarded(|m| scan_any(m, 0, items, &|x, y| x.wrapping_add(*y))).map(read_values)
            },
            |_| false,
        );
        unreachable!("a failed verification always exits");
    }
    let kind = match mode {
        "panic" => runner::JobKind::ChaosPanic,
        "spin" => runner::JobKind::ChaosSpin,
        _ => usage(),
    };
    if kind == runner::JobKind::ChaosSpin && a.timeout_ms.is_none() {
        eprintln!("error: chaos --mode spin never terminates; give it --timeout <ms>");
        std::process::exit(2);
    }
    let mut spec = runner::JobSpec::new(format!("chaos-{mode}"), kind);
    spec.n = a.n as u64;
    spec.seed = a.seed;
    spec.deadline_ms = a.timeout_ms;
    let config = runner::BatchConfig {
        workers: a.jobs.unwrap_or(1),
        best_effort: a.best_effort,
        ..Default::default()
    };
    let report = runner::run_batch("chaos", &config, std::slice::from_ref(&spec));
    let job = &report.jobs[0];
    println!("chaos job {:?}: {}", job.id, job.outcome.label());
    if let Some(e) = &job.error {
        println!("  {e}");
    }
    std::process::exit(report.exit_code(config.best_effort));
}

fn main() {
    let mut argv = std::env::args();
    let _bin = argv.next();
    let (cmd, a) = parse(argv);
    match cmd.as_str() {
        "scan" => {
            let vals = a.kind.generate(a.n, a.seed);
            let mut expect = vals.clone();
            for i in 1..expect.len() {
                expect[i] = expect[i].wrapping_add(expect[i - 1]);
            }
            let out = execute(
                &a,
                z_side(a.n as u64),
                |m, _| {
                    let items = place_z(m, 0, vals.clone());
                    m.guarded(|m| scan_any(m, 0, items, &|x, y| x.wrapping_add(*y)))
                        .map(read_values)
                },
                |got| *got == expect,
            );
            report("parallel scan", a.n as u64, &out, theory::scan_bound);
            println!("  verified against the sequential prefix sum.");
        }
        "sort" => {
            let vals = a.kind.generate(a.n, a.seed);
            let mut expect = vals.clone();
            expect.sort_unstable();
            let out = execute(
                &a,
                z_side(a.n as u64),
                |m, _| {
                    let items = place_z(m, 0, vals.clone());
                    m.guarded(|m| sort_z_values(m, 0, items))
                },
                |got| *got == expect,
            );
            report("2D mergesort", a.n as u64, &out, theory::sorting_bound);
            println!("  verified against std sort ({} input).", a.kind.label());
        }
        "select" => {
            let k = rank_arg("select", &a, (a.n as u64 / 2).max(1));
            let vals = a.kind.generate(a.n, a.seed);
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            let expect = sorted[(k - 1) as usize];
            let out = execute(
                &a,
                z_side(a.n as u64),
                |m, attempt| {
                    let items = place_z(m, 0, vals.clone());
                    // Fold the attempt index into the seed so a retry explores
                    // a fresh pivot trajectory.
                    let seed = a.seed ^ (u64::from(attempt) << 48);
                    m.guarded(|m| select_rank(m, 0, items, k, seed))
                        .map(|(t, stats)| (t.into_value(), stats))
                },
                |(got, _)| *got == expect,
            );
            report("rank selection", a.n as u64, &out, theory::selection_bound);
            let (got, stats) = &out.value;
            println!(
                "  rank {k} -> {got}; {} iterations, {} fallbacks, active counts {:?}",
                stats.iterations, stats.fallbacks, stats.active_trajectory
            );
        }
        "topk" => {
            let k = rank_arg("topk", &a, (a.n as u64).min(16));
            let vals = a.kind.generate(a.n, a.seed);
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            let expect: Vec<i64> = sorted[a.n - k as usize..].to_vec();
            let out = execute(
                &a,
                z_side(a.n as u64),
                |m, attempt| {
                    let items = place_z(m, 0, vals.clone());
                    let seed = a.seed ^ (u64::from(attempt) << 48);
                    m.guarded(|m| {
                        top_k(m, 0, items, k, seed)
                            .into_iter()
                            .map(Tracked::into_value)
                            .collect::<Vec<i64>>()
                    })
                },
                |got| *got == expect,
            );
            println!(
                "\ntop-{k} of {} elements: {:?}{}",
                a.n,
                &out.value[..out.value.len().min(8)],
                if out.value.len() > 8 { " …" } else { "" }
            );
            println!("  measured: {}", out.cost);
            if let Some(p) = &out.profiled {
                println!("  profile:  {p}");
            }
            if out.attempts > 1 || out.detour_energy > 0 {
                println!(
                    "  faults:   {} attempt(s), detour energy {}",
                    out.attempts, out.detour_energy
                );
            }
            println!("  composition: Θ(n) selection + Θ(k^1.5) sort (vs Θ(n^1.5) for sorting everything)");
        }
        "spmv" => {
            let mat = workloads::random_uniform(a.n, a.nnz_per_row, a.seed);
            let x: Vec<i64> = (0..a.n as i64).map(|i| (i % 7) - 3).collect();
            let expect = mat.multiply_dense(&x);
            let nnz = mat.nnz() as u64;
            let out = execute(
                &a,
                z_side(nnz),
                |m, _| m.guarded(|m| spmv(m, &mat, &x).y),
                |y| *y == expect,
            );
            report("sparse matrix-vector multiply", nnz, &out, theory::spmv_bound);
            println!("  verified against the dense reference (m = {nnz} non-zeros).");
        }
        "batch" => run_batch_command(&a),
        "serve" => run_serve_command(&a),
        "client" => run_client_command(&a),
        "chaos" => run_chaos_command(&a),
        "info" => {
            println!("Table I — Spatial Computer Model bounds (Gianinazzi et al., IPDPS 2025):");
            for (name, f) in [
                ("parallel scan", theory::scan_bound as fn(Metric) -> Shape),
                ("sorting", theory::sorting_bound),
                ("rank selection", theory::selection_bound),
                ("spmv", theory::spmv_bound),
            ] {
                println!(
                    "  {name:<16} energy Θ({:<10}) depth O({:<8}) distance Θ({})",
                    f(Metric::Energy).label(),
                    f(Metric::Depth).label(),
                    f(Metric::Distance).label()
                );
            }
            println!("\nrun `./run_experiments.sh` to regenerate every table/figure reproduction.");
        }
        _ => usage(),
    }
}
