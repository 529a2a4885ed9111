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
//!   present compares messages/sec per benchmark id against its
//!   `benchmarks` section, **failing (exit 1) on a regression of more than
//!   25%**. An id with no reference entry fails the gate too. A profile
//!   gate then checks that a cost profile stays off the simulation: a
//!   sort_z/65536 run charged under wse-like must report raw counters
//!   exactly equal to a bare run's, and the charge itself must cost under
//!   5% of the bare run it prices (nanoseconds against most of a second).
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
use spatial_core::model::{Cost, Machine, WSE_LIKE};
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

/// One bare sort_z run of `n` items: its raw counters and the wall time of
/// the sort, placement excluded.
fn sort_run(n: usize) -> (Cost, u128) {
    let mut m = Machine::new();
    let items = place_z(&mut m, 0, pseudo(n, 2));
    let t = Instant::now();
    let out = sort_z(&mut m, 0, items);
    let ns = t.elapsed().as_nanos();
    std::hint::black_box(out);
    (m.report(), ns)
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

fn render(results: &[Throughput], baseline: Option<&str>) -> String {
    let mut s = String::from("{\n  \"format\": \"spatial-bench/v1\",\n  \"group\": \"simcore\",\n");
    s.push_str("  \"unit\": \"messages_per_second\",\n  \"benchmarks\": [\n");
    s.push_str(&rows(results));
    s.push_str("  ]");
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
    let results: Vec<Throughput> = plan
        .iter()
        .map(|(id, huge)| {
            let n: usize = id.split('/').nth(1).expect("id is kind/n").parse().expect("n parses");
            if id.starts_with("scan/") {
                scan_bench(n)
            } else {
                sort_bench(n, *huge)
            }
        })
        .collect();

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
    let rendered = render(&results, baseline.as_deref());

    if smoke {
        let dir = std::env::var("SPATIAL_BENCH_JSON")
            .unwrap_or_else(|_| "target/spatial-bench".to_string());
        let path = std::path::Path::new(&dir).join("simcore-smoke.json");
        std::fs::create_dir_all(&dir).ok();
        std::fs::write(&path, &rendered).expect("write smoke results");
        println!("  -> {}", path.display());
        // Gate: compare against the committed reference when present.
        match std::fs::read_to_string("BENCH_simcore.json") {
            Err(_) => println!("no committed BENCH_simcore.json; skipping regression gate"),
            Ok(doc) => {
                let committed = Json::parse(&doc).expect("committed BENCH_simcore.json parses");
                assert_eq!(
                    committed.get("format").and_then(Json::as_str),
                    Some("spatial-bench/v1"),
                    "committed BENCH_simcore.json must be spatial-bench/v1"
                );
                let bad = regressions(&results, &committed, "benchmarks", 25.0);
                if !bad.is_empty() {
                    eprintln!("messages/sec regression (>25%) vs \"benchmarks\":");
                    for b in &bad {
                        eprintln!("  {b}");
                    }
                    std::process::exit(1);
                }
                println!("regression gate passed (within 25% of committed \"benchmarks\")");
            }
        }
        // Profile gate: a cost profile is pure accounting charged onto a
        // finished report, so it adds exactly one `charge` call to a run.
        // Check both halves of that: the charged run's raw counters equal
        // the bare run's, and the charge costs nothing next to the run.
        if want("sort_z/65536") {
            println!("-- profile gate (sort_z/65536, wse-like vs bare) --");
            let (bare, run_ns) = sort_run(65536);
            let (profiled, _) = sort_run(65536);
            std::hint::black_box(WSE_LIKE.charge(profiled).expect("built-ins cannot saturate"));
            if profiled != bare {
                eprintln!(
                    "profile leak: the wse-like run counted {profiled:?}, the bare run {bare:?}"
                );
                std::process::exit(1);
            }
            const CHARGES: u32 = 1000;
            let t = Instant::now();
            for _ in 0..CHARGES {
                std::hint::black_box(WSE_LIKE.charge(std::hint::black_box(bare)).ok());
            }
            let charge_ns = t.elapsed().as_nanos() / u128::from(CHARGES);
            println!("  raw counters equal   charge {charge_ns} ns   bare run {run_ns} ns");
            if charge_ns * 20 > run_ns {
                eprintln!(
                    "profile overhead: one wse-like charge took {charge_ns} ns, over 5% of the \
                     {run_ns} ns bare sort_z/65536 run it prices"
                );
                std::process::exit(1);
            }
            println!("profile gate passed (equal counters, charge under 5% of the run)");
        }
    } else {
        std::fs::write("BENCH_simcore.json", &rendered).expect("write BENCH_simcore.json");
        println!("  -> BENCH_simcore.json");
    }
}
