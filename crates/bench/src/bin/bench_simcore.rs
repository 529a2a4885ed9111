//! Throughput benchmark of the simulator core itself.
//!
//! Every other benchmark in this crate measures *model costs* (energy,
//! depth, distance — functions of the algorithm, not of the host). This one
//! measures how fast the simulator *executes*: messages per second of wall
//! clock, the number that decides how large an `n` the figure sweeps can
//! reach. Results land in `BENCH_simcore.json` (committed at the repo root)
//! so the trajectory of the simulator's own performance is versioned next to
//! the code.
//!
//! Modes:
//!
//! * default — the full run: scan at n = 2^14 and 2^16, 2D mergesort at
//!   n = 2^16 and 2^20. Writes `BENCH_simcore.json` in the current
//!   directory.
//! * `--smoke` — CI-sized run (scan 2^14, sort 2^12), writes under
//!   `target/spatial-bench/`, and when a committed `BENCH_simcore.json` is
//!   present compares messages/sec per benchmark id, **failing (exit 1) on a
//!   regression of more than 25%** — against the committed `serial` section
//!   when the run is pinned to `SPATIAL_SIM_THREADS=1`, the `benchmarks`
//!   section otherwise. An id with no reference entry fails the gate too.
//!   A scaling gate then runs sort_z/65536 at 1 and 2 threads and fails
//!   if the threaded setting is slower than 95% of serial: mid-sized sorts
//!   sit below the shard engine's amortization threshold, so a thread
//!   setting above one must be free there. It and the profile gate
//!   (wse-like vs bare) each sample five back-to-back pairs of the two
//!   settings and gate on the median per-pair ratio, so host drift between
//!   the settings cancels.
//!
//! Full runs additionally record a `serial` section (every id but the 2^20
//! mergesort, re-measured with one shard) and a `scaling` section (the
//! sort_z/65536 messages/sec at 1, 2, 4 and all available workers).
//!
//! Environment:
//!
//! * `SPATIAL_BENCH_BASELINE=<path>` — a previous run of this harness whose
//!   `benchmarks` section is embedded verbatim as this run's `baseline`
//!   (used once, to record the pre-rework numbers the 2x acceptance gate of
//!   the fast-path PR compares against);
//! * `SPATIAL_BENCH_SAMPLES` / `SPATIAL_BENCH_WARMUP_MS` — as in
//!   [`bench::timing`].

use std::time::Instant;

use bench::pseudo;
use runner::json::Json;
use spatial_core::collectives::{place_z, scan};
use spatial_core::model::{set_sim_threads, sim_threads, Machine};
use spatial_core::sorting::sort_z;

/// One measured benchmark: wall time and message count of a full primitive
/// run, reduced to the headline messages/sec figure.
struct Throughput {
    id: String,
    messages: u64,
    median_ns: u128,
    msgs_per_sec: u64,
}

fn env_u64(var: &str, default: u64) -> u64 {
    std::env::var(var).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Times `f` (which returns the machine's message count) like
/// [`bench::timing::Group`]: warmup, then median of N samples. Huge runs
/// (hundreds of billions of model messages) pass `huge = true` to run a
/// single un-warmed sample — a 2^20 mergesort is its own warmup.
fn measure(id: &str, huge: bool, mut f: impl FnMut() -> u64) -> Throughput {
    let samples = if huge { 1 } else { env_u64("SPATIAL_BENCH_SAMPLES", 5).max(1) as usize };
    let warmup_ms = if huge { 0 } else { env_u64("SPATIAL_BENCH_WARMUP_MS", 200) };
    let mut messages = 0;
    if !huge {
        let warm_start = Instant::now();
        loop {
            messages = std::hint::black_box(f());
            if warm_start.elapsed().as_millis() >= u128::from(warmup_ms) {
                break;
            }
        }
    }
    let _ = messages;
    let mut ns: Vec<u128> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        messages = std::hint::black_box(f());
        ns.push(t.elapsed().as_nanos());
    }
    ns.sort_unstable();
    let median_ns = ns[ns.len() / 2];
    let msgs_per_sec = ((messages as f64) / (median_ns as f64 / 1e9)) as u64;
    println!(
        "{id:<16} {messages:>10} msgs   median {:>12}   {:>12} msgs/s",
        bench::timing::fmt_ns(median_ns),
        msgs_per_sec
    );
    Throughput { id: id.to_string(), messages, median_ns, msgs_per_sec }
}

fn scan_bench(n: usize) -> Throughput {
    let vals = pseudo(n, 1);
    measure(&format!("scan/{n}"), false, || {
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, vals.clone());
        let out = scan(&mut m, 0, items, &|a, b| a + b);
        std::hint::black_box(out);
        m.messages()
    })
}

fn sort_bench(n: usize, huge: bool) -> Throughput {
    let vals = pseudo(n, 2);
    measure(&format!("sort_z/{n}"), huge, || {
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, vals.clone());
        let out = sort_z(&mut m, 0, items);
        std::hint::black_box(out);
        m.messages()
    })
}

/// One point of the thread-scaling curve: a benchmark re-run with the
/// sharded bare path pinned to a fixed worker count.
struct ScalePoint {
    id: String,
    threads: usize,
    msgs_per_sec: u64,
}

/// Median messages/sec of `samples` fresh sort runs — a lean probe for the
/// scaling curve and the two-setting gates, which cannot afford the full
/// warmup-plus-five-samples protocol on a 2^16 sort.
fn sort_rate(n: usize, samples: usize) -> u64 {
    let vals = pseudo(n, 2);
    let mut rates: Vec<u64> = (0..samples.max(1))
        .map(|_| {
            let mut m = Machine::new();
            let items = place_z(&mut m, 0, vals.clone());
            let t = Instant::now();
            let out = sort_z(&mut m, 0, items);
            let ns = t.elapsed().as_nanos();
            std::hint::black_box(out);
            ((m.messages() as f64) / (ns as f64 / 1e9)) as u64
        })
        .collect();
    rates.sort_unstable();
    rates[rates.len() / 2]
}

/// Messages/sec of one [`sort_rate`] run whose report is charged under the
/// wse-like cost profile at the end — the workload the profile gate
/// compares against its bare twin.
fn sort_rate_profiled(n: usize) -> u64 {
    use spatial_core::model::WSE_LIKE;
    let mut m = Machine::new();
    let items = place_z(&mut m, 0, pseudo(n, 2));
    let t = Instant::now();
    let out = sort_z(&mut m, 0, items);
    let profiled = WSE_LIKE.charge(m.report()).expect("built-in profiles cannot saturate");
    let ns = t.elapsed().as_nanos();
    std::hint::black_box(out);
    std::hint::black_box(profiled);
    ((m.messages() as f64) / (ns as f64 / 1e9)) as u64
}

/// Runs `base` and `test` (each returning a msgs/sec rate) as `pairs`
/// back-to-back pairs, alternating which setting goes first, and returns
/// the median per-pair ratio `test / base` with each side's median rate.
/// A pair runs within seconds, so the host's speed drift between the two
/// settings cancels in its ratio; five runs of one setting followed by five
/// of the other would measure that drift instead.
fn paired_ratio(
    pairs: usize,
    mut base: impl FnMut() -> u64,
    mut test: impl FnMut() -> u64,
) -> (f64, u64, u64) {
    let (mut ratios, mut bases, mut tests) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..pairs {
        let (b, t) = if i % 2 == 0 {
            let b = base();
            (b, test())
        } else {
            let t = test();
            (base(), t)
        };
        ratios.push(t as f64 / b as f64);
        bases.push(b);
        tests.push(t);
    }
    ratios.sort_by(f64::total_cmp);
    bases.sort_unstable();
    tests.sort_unstable();
    let mid = ratios.len() / 2;
    (ratios[mid], bases[mid], tests[mid])
}

fn rows(results: &[Throughput]) -> String {
    let mut s = String::new();
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"messages\": {}, \"median_ns\": {}, \"msgs_per_sec\": {}}}{}\n",
            r.id,
            r.messages,
            r.median_ns,
            r.msgs_per_sec,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s
}

fn render(
    results: &[Throughput],
    serial: &[Throughput],
    scaling: &[ScalePoint],
    baseline: Option<&str>,
) -> String {
    let mut s = String::from("{\n  \"format\": \"spatial-bench/v1\",\n  \"group\": \"simcore\",\n");
    s.push_str("  \"unit\": \"messages_per_second\",\n  \"benchmarks\": [\n");
    s.push_str(&rows(results));
    s.push_str("  ]");
    if !serial.is_empty() {
        s.push_str(",\n  \"serial\": [\n");
        s.push_str(&rows(serial));
        s.push_str("  ]");
    }
    if !scaling.is_empty() {
        s.push_str(",\n  \"scaling\": [\n");
        for (i, p) in scaling.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": \"{}\", \"threads\": {}, \"msgs_per_sec\": {}}}{}\n",
                p.id,
                p.threads,
                p.msgs_per_sec,
                if i + 1 < scaling.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]");
    }
    if let Some(b) = baseline {
        s.push_str(",\n  \"baseline\": ");
        s.push_str(b.trim_end());
        s.push('\n');
    } else {
        s.push('\n');
    }
    s.push_str("}\n");
    s
}

/// Extracts the `benchmarks` array of a previous run, re-rendered compactly
/// for embedding as a `baseline` section.
fn baseline_section(doc: &Json) -> Option<String> {
    let benches = doc.get("benchmarks")?.as_array()?;
    let mut s = String::from("[\n");
    for (i, b) in benches.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"messages\": {}, \"median_ns\": {}, \"msgs_per_sec\": {}}}{}\n",
            b.get("id")?.as_str()?,
            b.get("messages")?.as_u64()?,
            b.get("median_ns")?.as_u64()?,
            b.get("msgs_per_sec")?.as_u64()?,
            if i + 1 < benches.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]");
    Some(s)
}

/// Compares this run against the committed reference section; returns the
/// ids that regressed by more than `max_loss_pct` percent. A benchmark id
/// with no reference entry is itself reported as a failure — a silently
/// skipped gate is how a renamed benchmark loses its regression cover.
fn regressions(
    results: &[Throughput],
    committed: &Json,
    section: &str,
    max_loss_pct: f64,
) -> Vec<String> {
    let mut bad = Vec::new();
    let Some(benches) = committed.get(section).and_then(Json::as_array) else {
        bad.push(format!("committed reference has no \"{section}\" section"));
        return bad;
    };
    for r in results {
        let reference = benches.iter().find_map(|b| {
            if b.get("id")?.as_str()? == r.id {
                b.get("msgs_per_sec")?.as_f64()
            } else {
                None
            }
        });
        let Some(reference) = reference else {
            bad.push(format!("{}: no entry in the committed \"{section}\" section", r.id));
            continue;
        };
        let floor = reference * (1.0 - max_loss_pct / 100.0);
        if (r.msgs_per_sec as f64) < floor {
            bad.push(format!(
                "{}: {} msgs/s vs committed {} (floor {:.0})",
                r.id, r.msgs_per_sec, reference as u64, floor
            ));
        }
    }
    bad
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // `--no-huge` drops the single-sample 2^20 mergesort (~10^11 model
    // messages) from the full run — used when recording a baseline on a
    // build too slow to finish it in reasonable time.
    let huge = !std::env::args().any(|a| a == "--no-huge");
    println!("== simulator-core throughput ({}) ==", if smoke { "smoke" } else { "full" });

    // `SPATIAL_BENCH_FILTER=<substring>` runs matching ids only (profiling
    // aid; a filtered run is not a valid BENCH_simcore.json refresh).
    let filter = std::env::var("SPATIAL_BENCH_FILTER").ok();
    let want = |id: &str| filter.as_deref().is_none_or(|f| id.contains(f));
    let mut plan: Vec<(String, bool)> = if smoke {
        vec![("scan/16384".into(), false), ("sort_z/4096".into(), false)]
    } else {
        let mut p = vec![
            ("scan/16384".into(), false),
            ("scan/65536".into(), false),
            ("sort_z/4096".into(), false),
            ("sort_z/65536".into(), true),
        ];
        if huge {
            p.push(("sort_z/1048576".into(), true));
        }
        p
    };
    plan.retain(|(id, _)| want(id));
    let run_plan = |plan: &[(String, bool)]| -> Vec<Throughput> {
        plan.iter()
            .map(|(id, huge)| {
                let n: usize =
                    id.split('/').nth(1).expect("id is kind/n").parse().expect("n parses");
                if id.starts_with("scan/") {
                    scan_bench(n)
                } else {
                    sort_bench(n, *huge)
                }
            })
            .collect()
    };
    let results = run_plan(&plan);

    // Full runs also record the serial (1-shard) numbers for every id but
    // the 2^20 mergesort, so a `SPATIAL_SIM_THREADS=1` smoke run gates
    // against like-for-like figures, plus the per-thread scaling curve of
    // the sharded bare path on sort_z/65536.
    let mut serial: Vec<Throughput> = Vec::new();
    let mut scaling: Vec<ScalePoint> = Vec::new();
    if !smoke {
        let serial_plan: Vec<(String, bool)> =
            plan.iter().filter(|(id, _)| id != "sort_z/1048576").cloned().collect();
        if sim_threads() == 1 {
            // Already serial: the main section is the serial section.
            serial = results
                .iter()
                .filter(|r| r.id != "sort_z/1048576")
                .map(|r| Throughput {
                    id: r.id.clone(),
                    messages: r.messages,
                    median_ns: r.median_ns,
                    msgs_per_sec: r.msgs_per_sec,
                })
                .collect();
        } else {
            println!("-- serial reference (1 shard) --");
            set_sim_threads(1);
            serial = run_plan(&serial_plan);
            set_sim_threads(0);
        }
        let curve_id = "sort_z/65536";
        if want(curve_id) {
            println!("-- thread scaling ({curve_id}) --");
            let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
            let mut counts = vec![1usize, 2, 4, avail];
            counts.sort_unstable();
            counts.dedup();
            for threads in counts {
                set_sim_threads(threads);
                // Median of five fresh runs: single samples on a busy host
                // drift enough to fake a scaling regression.
                let msgs_per_sec = sort_rate(65536, 5);
                println!("{curve_id:<16} threads={threads:<3} {msgs_per_sec:>12} msgs/s");
                scaling.push(ScalePoint { id: curve_id.into(), threads, msgs_per_sec });
            }
            set_sim_threads(0);
        }
    }

    let baseline = std::env::var("SPATIAL_BENCH_BASELINE").ok().and_then(|p| {
        let doc = std::fs::read_to_string(&p).ok()?;
        baseline_section(&Json::parse(&doc).ok()?)
    });
    // A benchmark id absent from the embedded baseline can never be gated —
    // exactly how sort_z/1048576 once shipped without a reference. Refuse to
    // write such a file.
    if let Some(b) = &baseline {
        let missing: Vec<&str> = results
            .iter()
            .map(|r| r.id.as_str())
            .filter(|id| !b.contains(&format!("\"{id}\"")))
            .collect();
        if !missing.is_empty() {
            eprintln!("baseline/benchmark id mismatch: no baseline entry for {missing:?}");
            std::process::exit(1);
        }
    }
    let rendered = render(&results, &serial, &scaling, baseline.as_deref());

    if smoke {
        let dir = std::env::var("SPATIAL_BENCH_JSON")
            .unwrap_or_else(|_| "target/spatial-bench".to_string());
        let path = std::path::Path::new(&dir).join("simcore-smoke.json");
        std::fs::create_dir_all(&dir).ok();
        std::fs::write(&path, &rendered).expect("write smoke results");
        println!("  -> {}", path.display());
        // Gate: compare against the committed reference when present. A
        // serial run (SPATIAL_SIM_THREADS=1) gates against the committed
        // serial numbers, not the default-thread ones.
        match std::fs::read_to_string("BENCH_simcore.json") {
            Err(_) => println!("no committed BENCH_simcore.json; skipping regression gate"),
            Ok(doc) => {
                let committed = Json::parse(&doc).expect("committed BENCH_simcore.json parses");
                assert_eq!(
                    committed.get("format").and_then(Json::as_str),
                    Some("spatial-bench/v1"),
                    "committed BENCH_simcore.json must be spatial-bench/v1"
                );
                let section = if sim_threads() == 1 && committed.get("serial").is_some() {
                    "serial"
                } else {
                    "benchmarks"
                };
                let bad = regressions(&results, &committed, section, 25.0);
                if !bad.is_empty() {
                    eprintln!("messages/sec regression (>25%) vs \"{section}\":");
                    for b in &bad {
                        eprintln!("  {b}");
                    }
                    std::process::exit(1);
                }
                println!("regression gate passed (within 25% of committed \"{section}\")");
            }
        }
        // Scaling gate: a thread setting above 1 must never cost throughput
        // on mid-sized sorts. The shard engine only engages past its
        // amortization threshold (2^17 items), so sort_z/65536 must run at
        // serial speed at any thread count — this pins the regression where
        // sharded 2^16 bitonic stages lost ~20% (955 -> 751 M msgs/s).
        if want("sort_z/65536") {
            println!("-- scaling gate (sort_z/65536, threads 2 vs 1, 5 pairs) --");
            let (ratio, serial, sharded) = paired_ratio(
                5,
                || {
                    set_sim_threads(1);
                    sort_rate(65536, 1)
                },
                || {
                    set_sim_threads(2);
                    sort_rate(65536, 1)
                },
            );
            set_sim_threads(0);
            println!(
                "  serial {serial} msgs/s   threads=2 {sharded} msgs/s   median pair ratio {ratio:.3}"
            );
            if ratio < 0.95 {
                eprintln!(
                    "scaling regression: threads=2 ran sort_z/65536 at a median {ratio:.3}x \
                     of serial per pair, under 0.95"
                );
                std::process::exit(1);
            }
            println!("scaling gate passed (threads=2 within 5% of serial)");
        }
        // Profile gate: a cost profile is pure accounting charged onto the
        // finished report. The machine holds no profile, so none can reach
        // the per-message path; the gate times the run plus its one charge
        // against the bare run.
        if want("sort_z/65536") {
            println!("-- profile gate (sort_z/65536, wse-like vs bare, 5 pairs) --");
            set_sim_threads(1);
            let (ratio, bare, profiled) =
                paired_ratio(5, || sort_rate(65536, 1), || sort_rate_profiled(65536));
            set_sim_threads(0);
            println!(
                "  bare {bare} msgs/s   wse-like {profiled} msgs/s   median pair ratio {ratio:.3}"
            );
            if ratio < 0.95 {
                eprintln!(
                    "profile overhead: wse-like ran sort_z/65536 at a median {ratio:.3}x of \
                     bare per pair, under 0.95 — profiles must stay off the hot path"
                );
                std::process::exit(1);
            }
            println!("profile gate passed (profiled within 5% of bare)");
        }
    } else {
        std::fs::write("BENCH_simcore.json", &rendered).expect("write BENCH_simcore.json");
        println!("  -> BENCH_simcore.json");
    }
}
