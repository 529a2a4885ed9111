//! The per-layer metrics of a traced run: spans around direct calls into
//! each layer's public functions, on inputs shaped like the workloads'.
//! Every traced run measures every layer, so each workload's traced run
//! reports the full per-layer set.

use std::hint::black_box;
use std::io::Cursor;

use runner::batch::{run_batch, Batch};
use runner::cache::{CacheKey, ResultCache};
use runner::job::{execute, JobResult, JobSpec, Outcome};
use runner::journal::{Journal, RecordKind};
use runner::json::Json;
use runner::pool::{run_supervised, PoolConfig, Task};
use runner::serve::{serve, ServeConfig};
use runner::tenant::{DrrScheduler, RateLimit, TenantConfig};
use spatial_core::collectives::{place_z, read_values};
use spatial_core::model::batch::classify;
use spatial_core::model::{
    set_sim_threads, zorder, BatchPattern, CancelToken, Coord, FaultPlan, Machine, ModelGuard,
    Tracked,
};
use spatial_core::sorting::{allpairs_rank, merge_adjacent, scratch_for, sort_z};
use spatial_core::sortnet::{odd_even_transposition, run_on_coords};
use workloads::Rng;

use crate::batch::{make_case, KINDS};
use crate::jobs::{bare_run, job_json, oracle};
use crate::serve::{cold_spec, probe_session, tenant_ops, Warm, WarmGen, COLD_KINDS, FILL, RATE_B};
use crate::trace::Tracer;
use crate::{metric, rate, Args, Live, Metric, Tally};

type Res<T> = Result<T, String>;

const NS: f64 = 1e9;

pub fn run(a: &Args, live: Live, tally: &mut Tally) -> Res<Vec<Metric>> {
    let mut out = Vec::new();
    model(a, tally, &mut out);
    sorting(a, tally, &mut out);
    jobs(a, tally, &mut out);
    instruments(a, tally, &mut out);
    warm_path(a, tally, &mut out)?;
    batch(a, tally, &mut out)?;
    let live = match live {
        Live {
            hello_rtt_ms: Some(_),
            stats_first_ms: Some(_),
            stats_last_ms: Some(_),
            outside_execute_ms: Some(_),
        } => live,
        _ => {
            let probe = probe_session(a, tally)?;
            Live {
                hello_rtt_ms: live.hello_rtt_ms.or(probe.hello_rtt_ms),
                stats_first_ms: live.stats_first_ms.or(probe.stats_first_ms),
                stats_last_ms: live.stats_last_ms.or(probe.stats_last_ms),
                outside_execute_ms: live.outside_execute_ms.or(probe.outside_execute_ms),
            }
        }
    };
    out.push(metric(
        "runner.serve.outside_execute_ms",
        live.outside_execute_ms.unwrap_or(0.0),
        "ms",
    ));
    out.push(metric("runner.serve.stats_rtt_ms.first", live.stats_first_ms.unwrap_or(0.0), "ms"));
    out.push(metric("runner.serve.stats_rtt_ms.last", live.stats_last_ms.unwrap_or(0.0), "ms"));
    out.push(metric("runner.net.hello_rtt_ms", live.hello_rtt_ms.unwrap_or(0.0), "ms"));
    Ok(out)
}

/// Items on row 0 at even columns, valued by index.
fn row_items(m: &mut Machine, n: usize) -> Vec<Tracked<i64>> {
    (0..n).map(|i| m.place(Coord::new(0, 2 * i as i64), i as i64)).collect()
}

fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    Rng::seed_from_u64(seed).shuffle(&mut p);
    p
}

/// The destination patterns of the batch probes: one displacement for all
/// items, an affinely strided compaction, and a random permutation.
fn destinations(seed: u64, n: usize) -> [(&'static str, Vec<Coord>); 3] {
    let perm = permutation(seed, n);
    [
        ("uniform", (0..n).map(|i| Coord::new(1, 2 * i as i64)).collect()),
        ("affine", (0..n).map(|i| Coord::new(0, i as i64)).collect()),
        ("irregular", perm.iter().map(|&p| Coord::new(0, 2 * p as i64)).collect()),
    ]
}

fn send_batch_span(t: &mut Tracer, name: &str, dsts: &[Coord]) {
    let mut m = Machine::new();
    let pairs: Vec<(Tracked<i64>, Coord)> =
        row_items(&mut m, dsts.len()).into_iter().zip(dsts.iter().copied()).collect();
    black_box(t.span(name, || m.send_batch(pairs)));
}

fn model(a: &Args, tally: &mut Tally, out: &mut Vec<Metric>) {
    let mut t = Tracer::default();
    let vals = workloads::uniform(1 << 20, a.seed);
    for _ in 0..5 {
        let v = vals.clone();
        let mut m = Machine::new();
        black_box(t.span("place_z", || place_z(&mut m, 0, v)));
    }
    out.push(metric(
        "collectives.place_z.ns_per_item",
        t.median_ns("place_z") / (1 << 20) as f64,
        "ns",
    ));

    const N: usize = 1 << 16;
    for (label, dsts) in destinations(a.seed, N) {
        let mut m = Machine::new();
        let items = row_items(&mut m, N);
        let pattern = classify(items.iter().zip(&dsts).map(|(it, d)| (it.loc(), *d)));
        let expected = match label {
            "uniform" => matches!(pattern, BatchPattern::Uniform { .. }),
            "affine" => matches!(pattern, BatchPattern::Affine { .. }),
            _ => matches!(pattern, BatchPattern::Irregular),
        };
        tally.check(expected, || format!("the {label} batch probe classified as {pattern:?}"));
        for _ in 0..7 {
            send_batch_span(&mut t, &format!("send_batch.{label}"), &dsts);
            if label != "affine" {
                let mut m = Machine::new();
                let items = row_items(&mut m, N);
                let pairs: Vec<(&Tracked<i64>, Coord)> =
                    items.iter().zip(dsts.iter().copied()).collect();
                black_box(
                    t.span(&format!("send_batch_copy.{label}"), || m.send_batch_copy(&pairs)),
                );
            }
        }
        out.push(metric(
            format!("model.send_batch.{label}.ns_per_item"),
            t.median_ns(&format!("send_batch.{label}")) / N as f64,
            "ns",
        ));
    }
    for label in ["uniform", "irregular"] {
        out.push(metric(
            format!("model.send_batch_copy.{label}.ns_per_item"),
            t.median_ns(&format!("send_batch_copy.{label}")) / N as f64,
            "ns",
        ));
    }

    // The scan tree's two batch calls, at its leaf level: four children
    // gathering at their block's first cell, and the carry fold-and-scatter
    // back down.
    let leaf_vals: Vec<i64> = vals[..N].to_vec();
    let hub = |g: usize| zorder::coord_of(4 * g as u64);
    for _ in 0..5 {
        let mut m = Machine::new();
        let leaves = place_z(&mut m, 0, leaf_vals.clone());
        let sums = t.span("gather_copy", || {
            (0..N / 4)
                .map(|g| {
                    let srcs = [
                        &leaves[4 * g],
                        &leaves[4 * g + 1],
                        &leaves[4 * g + 2],
                        &leaves[4 * g + 3],
                    ];
                    m.gather_copy(&srcs, hub(g), |x, y| x.wrapping_add(*y))
                })
                .collect::<Vec<_>>()
        });
        black_box(sums);
        let mut carries: Vec<Option<Tracked<i64>>> =
            (0..N / 4).map(|g| Some(m.place(hub(g), 0))).collect();
        let prefixes = t.span("fold_scatter", || {
            (0..N / 4)
                .map(|g| {
                    let children = [&leaves[4 * g], &leaves[4 * g + 1], &leaves[4 * g + 2]];
                    let dsts = [0, 1, 2, 3].map(|i| zorder::coord_of((4 * g + i) as u64));
                    m.fold_scatter(carries[g].take(), &children, hub(g), &dsts, |x, y| {
                        x.wrapping_add(*y)
                    })
                })
                .collect::<Vec<_>>()
        });
        black_box(prefixes);
    }
    out.push(metric("model.gather_copy.ns_per_item", t.median_ns("gather_copy") / N as f64, "ns"));
    out.push(metric(
        "model.fold_scatter.ns_per_item",
        t.median_ns("fold_scatter") / N as f64,
        "ns",
    ));

    // The shard engine engages above 2^17 items: an irregular 2^18 batch at
    // one sim thread and at one per core.
    const BIG: usize = 1 << 18;
    let [_, _, (_, irregular)] = destinations(a.seed, BIG);
    for threads in [1, a.nproc] {
        set_sim_threads(threads);
        for _ in 0..5 {
            send_batch_span(&mut t, &format!("shard.{threads}"), &irregular);
        }
    }
    set_sim_threads(0);
    let speedup = rate(t.median_ns("shard.1"), t.median_ns(&format!("shard.{}", a.nproc)));
    println!(
        "# model.shard.speedup: irregular send_batch of {BIG} items, 1 sim thread vs {}",
        a.nproc
    );
    out.push(metric("model.shard.speedup", speedup, "x"));
}

/// Distinct values for the sorting probes.
fn distinct(seed: u64, n: usize) -> Vec<i64> {
    let mut v: Vec<i64> =
        workloads::uniform(n, seed).iter().enumerate().map(|(i, x)| (x << 20) | i as i64).collect();
    Rng::seed_from_u64(seed ^ 1).shuffle(&mut v);
    v
}

fn sorting(a: &Args, tally: &mut Tally, out: &mut Vec<Metric>) {
    let mut t = Tracer::default();

    // sort_z's base case: the 16-wire odd-even transposition network over
    // every 16-item block of a 2^16 array.
    let net = odd_even_transposition(16);
    let vals = distinct(a.seed, 1 << 16);
    let mut messages = 0;
    for _ in 0..3 {
        let mut m = Machine::new();
        let mut items = place_z(&mut m, 0, vals.clone()).into_iter();
        let blocks: Vec<Vec<Tracked<i64>>> =
            (0..1 << 12).map(|_| items.by_ref().take(16).collect()).collect();
        let sorted = t.span("run_on_coords", || {
            blocks.into_iter().map(|b| run_on_coords(&mut m, &net, b)).collect::<Vec<_>>()
        });
        tally.check(
            sorted.iter().all(|b| b.windows(2).all(|w| w[0].value() <= w[1].value())),
            || "run_on_coords left a block unsorted".into(),
        );
        messages = m.messages();
    }
    out.push(metric(
        "sortnet.run_on_coords.msgs_per_s",
        rate(messages as f64 * NS, t.median_ns("run_on_coords")),
        "msgs/s",
    ));

    // sort_z's top-level merge at n = 2^16: two sorted 2^15 halves.
    let half = 1 << 15;
    let (mut lo, mut hi) = (vals[..half].to_vec(), vals[half..].to_vec());
    lo.sort_unstable();
    hi.sort_unstable();
    for _ in 0..3 {
        let mut m = Machine::new();
        let a_items = place_z(&mut m, 0, lo.clone());
        let b_items = place_z(&mut m, half as u64, hi.clone());
        let merged = t.span("merge_adjacent", || merge_adjacent(&mut m, a_items, b_items, 0));
        let merged = read_values(merged);
        tally.check(merged.windows(2).all(|w| w[0] < w[1]), || {
            "merge_adjacent left its output unsorted".into()
        });
        messages = m.messages();
    }
    out.push(metric(
        "sorting.merge_adjacent.msgs_per_s",
        rate(messages as f64 * NS, t.median_ns("merge_adjacent")),
        "msgs/s",
    ));

    // The sample that merge ranks: one element per √n stride, 256 of them.
    let sample = &vals[..256];
    for _ in 0..5 {
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, sample.to_vec());
        let ranked =
            t.span("allpairs_rank", || allpairs_rank(&mut m, items, scratch_for(0, 256 * 256)));
        let mut ranks: Vec<u64> = ranked.iter().map(|r| r.value().1).collect();
        ranks.sort_unstable();
        tally.check(ranks.iter().enumerate().all(|(i, &r)| r == i as u64), || {
            "allpairs_rank ranks are not a permutation".into()
        });
        messages = m.messages();
    }
    out.push(metric(
        "sorting.allpairs_rank.msgs_per_s",
        rate(messages as f64 * NS, t.median_ns("allpairs_rank")),
        "msgs/s",
    ));
}

/// `job::execute` against the bare machine on each serve-cold kind.
fn jobs(a: &Args, tally: &mut Tally, out: &mut Vec<Metric>) {
    let mut t = Tracer::default();
    let backoff = ServeConfig::default().backoff;
    let mut rows = Vec::new();
    for i in 0..COLD_KINDS.len() as u64 {
        let spec = cold_spec(a.seed ^ 0x51, i);
        let kind = spec.kind.label();
        for _ in 0..3 {
            let r = t
                .span(&format!("execute.{kind}"), || execute(&spec, &CancelToken::new(), &backoff));
            let (_, bare) = t.span(&format!("bare.{kind}"), || bare_run(&spec));
            tally.check(
                r.outcome == Outcome::Ok
                    && r.checksum == Some(oracle(&spec))
                    && r.cost == Some(bare),
                || format!("execute {kind}: {:?} cost {:?}, bare cost {bare:?}", r.outcome, r.cost),
            );
        }
        let exec = t.median_ns(&format!("execute.{kind}")) / 1e6;
        let bare = t.median_ns(&format!("bare.{kind}")) / 1e6;
        rows.push((kind, exec, bare));
    }
    for (kind, exec, _) in &rows {
        out.push(metric(format!("runner.job.execute_ms.{kind}"), *exec, "ms"));
    }
    for (kind, _, bare) in &rows {
        out.push(metric(format!("model.bare_ms.{kind}"), *bare, "ms"));
    }
    for (kind, exec, bare) in &rows {
        out.push(metric(format!("model.instrument_tax.{kind}"), rate(*exec, *bare), "x"));
    }
}

/// Arms one instrument on a machine.
type Arm = fn(&mut Machine);

/// sort_z at n = 1024 with exactly one instrument armed. (At n = 4096 the
/// memory meter alone runs for 13 s; the per-message tax is the same.)
fn instruments(a: &Args, tally: &mut Tally, out: &mut Vec<Metric>) {
    let mut t = Tracer::default();
    let vals = distinct(a.seed ^ 0x4096, 1024);
    let arms: [(&str, Arm); 6] = [
        ("bare", |_| {}),
        ("faults", |m| m.enable_faults(FaultPlan::builder(7).build())),
        ("cancel", |m| m.set_cancel_token(CancelToken::new())),
        ("guard", |m| m.enable_guard(ModelGuard::new().max_energy(u64::MAX))),
        ("memory", |m| m.enable_memory_meter()),
        ("trace", |m| m.enable_trace(1 << 12)),
    ];
    let mut bare_cost = None;
    for (name, arm) in arms {
        let mut m = Machine::new();
        arm(&mut m);
        let items = place_z(&mut m, 0, vals.clone());
        black_box(t.span(name, || sort_z(&mut m, 0, items)));
        let cost = m.report();
        let want = *bare_cost.get_or_insert(cost);
        tally.check(cost == want, || {
            format!("sort_z under the {name} instrument cost {cost:?}, bare {want:?}")
        });
        out.push(metric(
            format!("model.instr.{name}.msgs_per_s"),
            rate(cost.messages as f64 * NS, t.median_ns(name)),
            "msgs/s",
        ));
    }
}

/// The serve-warm request path, layer by layer, on serve-warm's own
/// request stream.
fn warm_path(a: &Args, tally: &mut Tally, out: &mut Vec<Metric>) -> Res<()> {
    let mut t = Tracer::default();
    let mut gen = WarmGen::new(a.seed, FILL);
    let mut lines: Vec<String> = tenant_ops().to_vec();
    lines.extend((0..FILL as usize).map(|j| job_json(gen.fill(j), Some("a"))));
    let mut reqs = Vec::new();
    for _ in 0..2000 {
        let r = gen.next(lines.len() as u64);
        lines.push(r.line.clone());
        reqs.push(r);
    }
    let text = lines.join("\n") + "\n";

    let mut cursor = Cursor::new(text.as_bytes());
    let mut buf = Vec::new();
    let mut consumed = Vec::new();
    t.span("lines", || {
        while runner::lines::read_raw_line(&mut cursor, &mut buf).is_ok_and(|n| n > 0) {
            consumed.extend(runner::lines::consuming(&buf));
        }
    });
    tally.check(consumed.len() == lines.len(), || {
        format!("lines consumed {} of {}", consumed.len(), lines.len())
    });
    out.push(metric(
        "runner.lines.consuming_us",
        t.median_ns("lines") / 1e3 / lines.len() as f64,
        "us",
    ));

    let parsed: Vec<Json> =
        t.span("json", || consumed.iter().filter_map(|l| Json::parse(l).ok()).collect());
    tally.check(parsed.len() == lines.len(), || "a request line failed to parse".into());
    out.push(metric("runner.json.parse_us", t.median_ns("json") / 1e3 / lines.len() as f64, "us"));
    let jobs: Vec<&Json> = parsed.iter().filter(|v| v.get("op").is_none()).collect();
    let specs: Vec<JobSpec> = t.span("from_json", || {
        jobs.iter().enumerate().filter_map(|(i, v)| JobSpec::from_json(v, i).ok()).collect()
    });
    tally.check(specs.len() == jobs.len(), || "a job line failed to parse".into());
    out.push(metric(
        "runner.job.from_json_us",
        t.median_ns("from_json") / 1e3 / jobs.len() as f64,
        "us",
    ));

    let mut sched = DrrScheduler::new(1024);
    sched.register("a", TenantConfig::default());
    sched.register(
        "b",
        TenantConfig {
            rate: Some(RateLimit { burst: RATE_B.0, window: RATE_B.1 }),
            ..TenantConfig::default()
        },
    );
    let timed: Vec<&crate::serve::WarmReq> =
        reqs.iter().filter(|r| !matches!(r.what, Warm::Stats(_))).collect();
    let mut shed = 0;
    for r in &timed {
        let admitted = t.span("admit", || sched.admit(r.tenant, r.seq).is_ok());
        tally.check(admitted != r.shed, || {
            format!("admission of seq {} disagrees with the rate oracle", r.seq)
        });
        shed += u32::from(!admitted);
    }
    out.push(metric("runner.tenant.admit_us", t.mean_ns("admit") / 1e3, "us"));
    out.push(metric(
        "runner.tenant.shed_ratio",
        rate(f64::from(shed), timed.len() as f64),
        "ratio",
    ));

    let mut cache = ResultCache::with_capacity(ServeConfig::default().cache_capacity);
    let backoff = ServeConfig::default().backoff;
    let token = CancelToken::new();
    for j in 0..FILL as usize {
        let spec = gen.fill(j);
        let r = execute(spec, &token, &backoff);
        t.span("insert", || cache.insert(CacheKey::of(spec, None), &r));
    }
    let (mut hits, mut lookups) = (0u32, 0u32);
    for r in timed.iter().filter(|r| !r.shed) {
        let spec = match &r.what {
            Warm::Cached(j) => gen.fill(*j).clone(),
            Warm::Fresh(spec, _) => spec.clone(),
            Warm::Stats(_) => continue,
        };
        let key = CacheKey::of(&spec, None);
        lookups += 1;
        if t.span("lookup", || cache.lookup(&key, &spec.id)).is_some() {
            hits += 1;
        } else {
            let fresh: JobResult = execute(&spec, &token, &backoff);
            t.span("insert", || cache.insert(key, &fresh));
        }
    }
    out.push(metric("runner.cache.lookup_us", t.mean_ns("lookup") / 1e3, "us"));
    out.push(metric("runner.cache.insert_us", t.mean_ns("insert") / 1e3, "us"));
    out.push(metric("runner.cache.hit_ratio", rate(f64::from(hits), f64::from(lookups)), "ratio"));

    // The journal: a fresh open, then the records an in-process canonical
    // session over the first 500 timed requests wrote, appended again.
    let dir = crate::work_dir().join("probe-journal");
    let short = lines[..lines.len().min(2 + FILL as usize + 500)].join("\n") + "\n";
    let cfg = ServeConfig {
        workers: a.nproc,
        canonical: true,
        journal: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let mut served = Vec::new();
    serve(Cursor::new(short.as_bytes()), &mut served, &cfg)
        .map_err(|e| format!("in-process serve: {e}"))?;
    let outputs: Vec<String> =
        String::from_utf8_lossy(&served).lines().map(str::to_string).collect();
    let inputs: Vec<&str> = short.lines().collect();
    tally.check(outputs.len() == inputs.len(), || {
        format!("{} output lines for {} inputs", outputs.len(), inputs.len())
    });
    let wal = std::fs::metadata(dir.join(runner::journal::WAL_FILE)).map_or(0, |m| m.len());
    out.push(metric(
        "runner.journal.bytes_per_line",
        rate(wal as f64, (inputs.len() + outputs.len()) as f64),
        "B",
    ));

    let fresh_dir = crate::work_dir().join("probe-append");
    let (mut journal, _) =
        t.span("open", || Journal::open(&fresh_dir)).map_err(|e| format!("journal open: {e}"))?;
    for (seq, (i, o)) in inputs.iter().zip(&outputs).enumerate() {
        for (kind, payload) in [(RecordKind::Input, *i), (RecordKind::Output, o.as_str())] {
            t.span("append", || journal.append(kind, seq as u64, payload))
                .map_err(|e| format!("journal append: {e}"))?;
        }
    }
    out.push(metric("runner.journal.append_us", t.mean_ns("append") / 1e3, "us"));
    out.push(metric("runner.journal.open_ms", t.median_ns("open") / 1e6, "ms"));
    Ok(())
}

/// The batch path, layer by layer, on one batch of each batch-small kind.
fn batch(a: &Args, tally: &mut Tally, out: &mut Vec<Metric>) -> Res<()> {
    let mut t = Tracer::default();
    let cases: Vec<_> = (0..KINDS.len()).map(|b| make_case(a.seed ^ 0xB0, b, a.nproc)).collect();
    let backoff = ServeConfig::default().backoff;
    let (mut attempts, mut jobs) = (0u64, 0u64);
    for case in &cases {
        for _ in 0..4 {
            let batch = t.span("parse", || Batch::parse(&case.text))?;
            let report = run_batch(&batch.name, &batch.config, &batch.jobs);
            black_box(t.span("to_json", || report.to_json(true)));
        }
        for spec in &case.specs {
            let r = t.span("execute", || execute(spec, &CancelToken::new(), &backoff));
            tally.check(r.checksum == Some(oracle(spec)), || {
                format!("execute {}: wrong checksum", spec.id)
            });
            attempts += u64::from(r.attempts);
            jobs += 1;
        }
    }
    out.push(metric("recovery.attempts_per_job", rate(attempts as f64, jobs as f64), "count"));
    out.push(metric("runner.batch.parse_ms", t.median_ns("parse") / 1e6, "ms"));
    out.push(metric("runner.report.to_json_ms", t.median_ns("to_json") / 1e6, "ms"));
    out.push(metric("runner.job.execute_us", t.mean_ns("execute") / 1e3, "us"));

    let pool = PoolConfig { workers: a.nproc, ..PoolConfig::default() };
    let tasks = crate::batch::BATCH_JOBS;
    for _ in 0..20 {
        let noop: Vec<Task<'_, ()>> =
            (0..tasks).map(|_| Task { deadline_ms: None, run: Box::new(|_| ()) }).collect();
        black_box(t.span("pool", || run_supervised(&pool, noop)));
    }
    out.push(metric(
        "runner.pool.task_overhead_us",
        t.median_ns("pool") / 1e3 / tasks as f64,
        "us",
    ));
    Ok(())
}
