//! Determinism regression tests: running any primitive twice on identical
//! inputs must produce bit-identical results, bit-identical `Cost`
//! snapshots, and an identical message trace. The simulator (and the
//! in-tree RNG behind selection/workloads) has no hidden state, so any
//! divergence here is a bug — typically a `HashMap` iteration order or an
//! uninitialised seed sneaking into an algorithm.

use spatial_dataflow::model::{Cost, Machine, MsgRecord};
use spatial_dataflow::prelude::*;
use spatial_dataflow::topk::top_k;

const TRACE_CAP: usize = 1 << 20;

/// Runs `f` on a traced machine; returns its value, the cost snapshot and
/// the full message record.
fn traced<T>(f: impl Fn(&mut Machine) -> T) -> (T, Cost, Vec<MsgRecord>, u64) {
    let mut m = Machine::new();
    m.enable_trace(TRACE_CAP);
    let v = f(&mut m);
    let trace = m.trace().expect("trace enabled");
    (v, m.report(), trace.records().to_vec(), trace.dropped())
}

/// Asserts two runs of `f` agree on everything observable.
fn assert_twice_identical<T: PartialEq + std::fmt::Debug>(
    name: &str,
    f: impl Fn(&mut Machine) -> T,
) {
    let (v1, c1, t1, d1) = traced(&f);
    let (v2, c2, t2, d2) = traced(&f);
    assert_eq!(v1, v2, "{name}: results differ between runs");
    assert_eq!(c1, c2, "{name}: cost snapshots differ between runs");
    assert_eq!(d1, d2, "{name}: trace drop counts differ");
    assert_eq!(t1.len(), t2.len(), "{name}: trace lengths differ");
    for (i, (a, b)) in t1.iter().zip(&t2).enumerate() {
        assert_eq!(a, b, "{name}: trace record {i} differs");
    }
}

fn vals(n: usize, seed: u64) -> Vec<i64> {
    workloads::arrays::uniform(n, seed)
}

#[test]
fn scan_is_deterministic() {
    let v = vals(256, 3); // scan wants a power-of-four length
    assert_twice_identical("scan", |m| {
        let items = place_z(m, 0, v.clone());
        read_values(scan(m, 0, items, &|a, b| a + b))
    });
}

#[test]
fn sort_is_deterministic() {
    let v = vals(512, 4);
    assert_twice_identical("sort_z", |m| {
        let items = place_z(m, 0, v.clone());
        sort_z_values(m, 0, items)
    });
}

#[test]
fn selection_is_deterministic() {
    let v = vals(1024, 5);
    assert_twice_identical("select_rank_values", |m| {
        let (got, stats) = select_rank_values(m, 0, v.clone(), 300, 17);
        (got, stats.iterations, stats.fallbacks, stats.active_trajectory.clone())
    });
}

#[test]
fn spmv_is_deterministic() {
    let a = workloads::random_uniform(64, 4, 6);
    let x: Vec<i64> = (0..64).collect();
    assert_twice_identical("spmv", |m| spmv(m, &a, &x).y);
}

#[test]
fn broadcast_is_deterministic() {
    assert_twice_identical("broadcast", |m| {
        let grid = SubGrid::square(Coord::ORIGIN, 16);
        let root = m.place(grid.origin, 99i64);
        let copies = broadcast(m, root, grid);
        copies.into_iter().map(|t| (t.loc(), t.into_value())).collect::<Vec<_>>()
    });
}

#[test]
fn segmented_scan_is_deterministic() {
    let v = vals(256, 7);
    assert_twice_identical("segmented_scan", |m| {
        let items: Vec<_> =
            v.iter().enumerate().map(|(i, &x)| SegItem { value: x, head: i % 17 == 0 }).collect();
        let placed = place_z(m, 0, items);
        let out = segmented_scan(m, 0, placed, &|a, b| a + b);
        read_values(out)
    });
}

#[test]
fn top_k_is_deterministic() {
    let v = vals(512, 8);
    assert_twice_identical("top_k", |m| {
        let items = place_z(m, 0, v.clone());
        top_k(m, 0, items, 40, 23).into_iter().map(|t| t.into_value()).collect::<Vec<_>>()
    });
}

#[test]
fn workload_generators_are_deterministic() {
    // Generator determinism feeds every other test here.
    for seed in 0..8u64 {
        assert_eq!(workloads::arrays::uniform(100, seed), workloads::arrays::uniform(100, seed));
        assert_eq!(
            workloads::random_uniform(32, 3, seed).entries,
            workloads::random_uniform(32, 3, seed).entries
        );
        assert_eq!(
            workloads::graphs::rmat(4, 40, seed).entries,
            workloads::graphs::rmat(4, 40, seed).entries
        );
    }
}

#[test]
fn faulted_run_is_deterministic() {
    // Same FaultPlan seed → bit-identical results, costs, detour meter,
    // fault hits, and message trace. The fault layer adds two RNG-driven
    // mechanisms (plan sampling at build time, per-message corruption at
    // run time); both must be pure functions of the seed.
    use spatial_dataflow::model::{Coord, FaultPlan, SubGrid};
    let v = vals(256, 9);
    let plan = || {
        FaultPlan::builder(41)
            .random_dead_rows(SubGrid::square(Coord::ORIGIN, 16), 0.15)
            .random_degraded_rows(SubGrid::square(Coord::ORIGIN, 16), 0.1)
            .flaky(0.001)
            .build()
    };
    assert_eq!(plan(), plan(), "plan sampling must be deterministic");
    assert_twice_identical("faulted sort_z", |m| {
        m.enable_faults(plan());
        let items = place_z(m, 0, v.clone());
        let out = sort_z_values(m, 0, items);
        (out, m.fault_hits(), m.detour_energy())
    });
}

#[test]
fn batch_report_is_byte_deterministic() {
    // The committed smoke jobspec exercises every outcome class (clean runs,
    // recovered faults, degradation to the host oracle, a contained panic,
    // a deadline cancellation). Its canonical report — everything except the
    // wall-clock fields — must come back byte-identical across runs and
    // worker counts: job costs, attempt counts, scheduled backoff delays,
    // checksums, and aggregate percentiles are all pure functions of
    // (jobspec, seed), never of scheduling.
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/experiments/jobspecs/smoke.json"
    ))
    .expect("read smoke jobspec");
    let go = |workers: usize| {
        let mut batch = runner::Batch::parse(&doc).expect("parse smoke jobspec");
        batch.config.workers = workers; // the CLI's `--jobs` override
        runner::run_batch(&batch.name, &batch.config, &batch.jobs).to_json(false)
    };
    let first = go(4);
    assert_eq!(first, go(4), "same worker count must replay bit-for-bit");
    // Across worker counts only the header's `workers` echo may differ:
    // every job row and aggregate must be schedule-independent.
    let strip =
        |s: &str| s.lines().filter(|l| !l.contains("\"workers\"")).collect::<Vec<_>>().join("\n");
    assert_eq!(strip(&first), strip(&go(1)), "scheduling must not leak into the canonical report");
    assert!(first.contains("\"outcome\": \"degraded\""), "smoke batch must degrade a job");
    assert!(first.contains("\"outcome\": \"deadline-exceeded\""), "smoke batch must cancel a job");
}

#[test]
fn recovery_retry_counts_are_deterministic() {
    // Two invocations of the full recovery harness with the same plan seed
    // must agree on the retry count and every per-attempt cost snapshot.
    use spatial_dataflow::model::FaultPlan;
    use spatial_dataflow::recovery::run_with_recovery;
    let v = vals(64, 10);
    let expect: Vec<i64> = v
        .iter()
        .scan(0i64, |acc, &x| {
            *acc = acc.wrapping_add(x);
            Some(*acc)
        })
        .collect();
    let go = || {
        let plan = FaultPlan::builder(13).flaky(0.01).build();
        run_with_recovery(
            &plan,
            100,
            |m, _| {
                let items = place_z(m, 0, v.clone());
                m.guarded(|m| {
                    spatial_dataflow::collectives::scan_any(m, 0, items, &|a, b| a.wrapping_add(*b))
                })
                .map(read_values)
            },
            |got| *got == expect,
        )
        .expect("recoverable")
    };
    let a = go();
    let b = go();
    assert_eq!(a, b, "recovery (value, attempts, costs, detour) must replay bit-for-bit");
}

#[test]
fn serve_warm_cache_hit_replays_the_cold_line_bit_for_bit() {
    // Submitting the same job twice to one daemon instance must produce two
    // canonical lines that agree on everything but the sequence number: the
    // second is a warm cache hit, and a hit that differed anywhere (cost,
    // checksum, attempts, backoff schedule) would make cache state
    // observable in the canonical stream.
    let job = r#"{"kind": "sort", "n": 256, "seed": 14, "retries": 2, "id": "dup"}"#;
    let input = format!("{job}\n{job}\n");
    let mut out = Vec::new();
    let cfg = runner::ServeConfig { workers: 2, canonical: true, ..Default::default() };
    runner::serve(std::io::Cursor::new(input), &mut out, &cfg).expect("serve");
    let text = String::from_utf8(out).expect("utf8 canonical stream");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one result line per submission:\n{text}");
    let unseq =
        |l: &str| l.replacen("\"seq\": 0", "\"seq\": _", 1).replacen("\"seq\": 1", "\"seq\": _", 1);
    assert_eq!(unseq(lines[0]), unseq(lines[1]), "warm hit must be bit-identical");
}

#[test]
fn serve_canonical_stream_is_cold_warm_and_worker_count_invariant() {
    // The committed smoke stream must serve to the same canonical bytes
    // (a) as the committed golden expectation, (b) at any worker count,
    // and (c) on a freshly started (cache-cold) instance as on any replay —
    // the cache can only change latency, never output.
    let stream = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/experiments/jobspecs/serve_smoke.jsonl"
    ))
    .expect("read committed serve smoke stream");
    let go = |workers: usize| {
        let cfg = runner::ServeConfig { workers, canonical: true, ..Default::default() };
        let mut out = Vec::new();
        runner::serve(std::io::Cursor::new(stream.as_str()), &mut out, &cfg).expect("serve");
        String::from_utf8(out).expect("utf8 canonical stream")
    };
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/experiments/golden/serve_smoke.canonical"
    ))
    .expect("read committed golden canonical output");
    let first = go(4);
    assert_eq!(first, golden, "serve output must match the committed golden");
    assert_eq!(first, go(4), "cold instance and replay must agree bit-for-bit");
    assert_eq!(first, go(1), "worker count must not leak into the canonical stream");
}

/// The profiles exercised by the profile-aware suites: all four built-ins
/// by default; `SPATIAL_PROFILE=<name>` narrows to one, which is how the CI
/// profile matrix gives each built-in its own leg.
fn profiles_under_test() -> Vec<CostProfile> {
    match std::env::var("SPATIAL_PROFILE") {
        Ok(name) => {
            vec![*profile_by_name(&name).expect("SPATIAL_PROFILE must name a built-in profile")]
        }
        Err(_) => spatial_dataflow::model::builtin_profiles().to_vec(),
    }
}

#[test]
fn sharded_bare_path_is_thread_count_invariant() {
    // Bare batches run on the calling thread, so `set_sim_threads` (a no-op
    // kept for perfbench) must stay unobservable, and every bare run must
    // charge exactly what the instrumented replay charges. Exercise the
    // largest sizes the suite runs: a scan over 4^9 cells, which runs as a
    // level kernel when bare and as the per-node code when traced, and an
    // irregular `send_batch` of 200,000 pseudo-random destinations.
    use spatial_dataflow::model::{set_sim_threads, zorder};
    let v = vals(262144, 11);
    let run = |threads: usize, trace: bool| {
        set_sim_threads(threads);
        let mut m = Machine::new();
        let mut mi = Machine::new();
        if trace {
            m.enable_trace(1);
            mi.enable_trace(1);
        }
        let items = place_z(&mut m, 0, v.clone());
        let out = read_values(scan(&mut m, 0, items, &|a, b| a + b));
        let placed =
            mi.place_batch((0..200000u64).collect::<Vec<_>>(), |i| zorder::coord_of(i as u64));
        let sends: Vec<_> = placed
            .into_iter()
            .enumerate()
            .map(|(i, t)| (t, zorder::coord_of((i as u64).wrapping_mul(7919) % 300000)))
            .collect();
        let _ = mi.send_batch(sends);
        set_sim_threads(0);
        (out, m.report(), mi.report())
    };
    let traced = run(1, true);
    for threads in [1usize, 2, 7] {
        let bare = run(threads, false);
        assert_eq!(bare.0, traced.0, "scan values differ from the traced run at {threads} threads");
        assert_eq!(bare.1, traced.1, "scan Cost differs from the traced run at {threads} threads");
        assert_eq!(
            bare.2, traced.2,
            "irregular-batch Cost differs from the traced run at {threads} threads"
        );
    }
}

#[test]
fn profiled_totals_are_invariant_under_sim_thread_count() {
    // A profile charges the final raw counters, so the derived pJ/EDP
    // totals must be bit-identical at every `set_sim_threads` value and on
    // the traced replay too. This pins the full chain (run -> raw Cost ->
    // ProfiledCost) rather than assuming the composition.
    use spatial_dataflow::model::set_sim_threads;
    let v = vals(262144, 23);
    let run = |threads: usize, trace: bool| {
        set_sim_threads(threads);
        let mut m = Machine::new();
        if trace {
            m.enable_trace(1);
        }
        let items = place_z(&mut m, 0, v.clone());
        let _ = read_values(scan(&mut m, 0, items, &|a, b| a + b));
        set_sim_threads(0);
        m.report()
    };
    let traced = run(1, true);
    let bare = [1usize, 2, 7].map(|threads| (threads, run(threads, false)));
    for profile in profiles_under_test() {
        let expected = profile.charge(traced).expect("built-in profiles cannot saturate");
        for (threads, c) in bare {
            assert_eq!(
                expected,
                profile.charge(c).expect("built-in profiles cannot saturate"),
                "{} profiled totals differ from the traced scan at {threads} threads",
                profile.name
            );
        }
    }
}

#[test]
fn profiled_batch_report_is_worker_count_invariant() {
    // The canonical batch report with a default profile configured: the
    // profiled blocks ride on deterministic costs, so the report stays a
    // pure function of (jobspec, profile) at any worker count.
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/experiments/jobspecs/smoke.json"
    ))
    .expect("read smoke jobspec");
    let strip =
        |s: &str| s.lines().filter(|l| !l.contains("\"workers\"")).collect::<Vec<_>>().join("\n");
    for profile in profiles_under_test() {
        let go = |workers: usize| {
            let batch = runner::Batch::parse(&doc).expect("parse smoke jobspec");
            let mut config = batch.config;
            config.workers = workers;
            config.profile = Some(profile.name);
            strip(&runner::run_batch(&batch.name, &config, &batch.jobs).to_json(false))
        };
        let report = go(4);
        assert!(
            report.contains("\"profiled\""),
            "{}: report must carry profiled job blocks",
            profile.name
        );
        assert!(
            report.contains(&format!("\"profile\": \"{}\"", profile.name)),
            "{}: report must name its profile",
            profile.name
        );
        assert_eq!(report, go(1), "{} profiled report differs across worker counts", profile.name);
    }
}
