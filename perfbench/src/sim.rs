//! `sim-bare`: whole primitive runs on a fresh bare `Machine::new()`, each
//! from `place_z` to its output.
//!
//! The runner does none of the work, so every number here is the model
//! core's bare fast path: the closed-form kernels and the batch engine,
//! and in set-up — since scan's 2^20-item batches cross its threshold —
//! the shard engine. The primitives are sort_z (n = 2^16), scan (n = 2^20),
//! select_rank (n = 2^16) and spmv (n = 1024, four non-zeros per row).
//!
//! A timed pass runs sort_z once and the three shorter primitives several
//! times each, interleaved, so that no primitive's runs bunch in one part
//! of the phase and sort_z takes about half of the time, not nine tenths.
//! The timed phase runs one pass loop per core at one sim thread each:
//! on a shared host each core's speed moves between two levels for seconds
//! at a time, and loops on every core average over them. Each
//! `*_msgs_per_s` is the primitive's messages over its summed host time, a
//! time-weighted mean that moves smoothly where a median of per-run rates
//! jumps between the levels. Latency is taken over scan runs only, so every
//! sample does the same work and a change in how the primitives' times
//! compare cannot move it.

use std::time::{Duration, Instant};

use runner::json::Json;
use spatial_core::collectives::{place_z, read_values, scan};
use spatial_core::model::{set_sim_threads, Cost, Machine};
use spatial_core::recovery::checksum_i64;
use spatial_core::selection::select_rank;
use spatial_core::sorting::sort_z;
use spatial_core::spmv::{spmv, Coo};
use workloads::Rng;

use crate::{rate, Args, Phase, Report, Tally, SETUP_REPS};

/// The seed `pinned_costs.json` was measured at.
pub const DEFAULT_SEED: u64 = 1;

/// The four primitives, in `MSG_KINDS` order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Prim {
    Scan,
    Sort,
    Select,
    Spmv,
}

impl Prim {
    const ALL: [Prim; 4] = [Prim::Scan, Prim::Sort, Prim::Select, Prim::Spmv];

    fn label(self) -> &'static str {
        crate::MSG_KINDS[self as usize]
    }
}

/// The set-up's pass: each primitive once, checked against the reference.
const CHECK_PASS: [Prim; 4] = [Prim::Select, Prim::Scan, Prim::Spmv, Prim::Sort];

/// One timed pass: sort_z once and the shorter primitives interleaved
/// around it, about 4 s on the reference box.
const TIMED_PASS: [Prim; 17] = {
    use Prim::*;
    [
        Scan, Select, Spmv, Scan, Select, Spmv, Scan, Select, //
        Sort,   //
        Scan, Select, Spmv, Scan, Select, Spmv, Scan, Select,
    ]
};

/// select_rank's rank and random salt. Both are fixed, and its input is
/// arranged like the default seed's (see [`arrange_like`]), so every seed
/// does exactly the same work.
const SELECT_K: u64 = 1 << 15;
const SELECT_SALT: u64 = 0x5E1E_C7ED;

/// The random draws that seed each of one input set's five arrays.
fn draws(seed: u64) -> [u64; 5] {
    let mut rng = Rng::seed_from_u64(seed);
    std::array::from_fn(|_| rng.next_u64())
}

/// `values`, made distinct and placed so that any two positions compare
/// as they do in `pattern` (ties broken by position, as select_rank breaks
/// them). select_rank's work depends only on how its inputs compare: on
/// independent random inputs its message count moves by ±12% from seed to
/// seed, and its time per message with it, which no code change caused.
fn arrange_like(pattern: &[i64], mut values: Vec<i64>) -> Vec<i64> {
    values.sort_unstable();
    for i in 1..values.len() {
        values[i] = values[i].max(values[i - 1] + 1);
    }
    let mut order: Vec<usize> = (0..pattern.len()).collect();
    order.sort_by_key(|&i| (pattern[i], i));
    let mut out = vec![0; pattern.len()];
    for (&pos, v) in order.iter().zip(values) {
        out[pos] = v;
    }
    out
}

/// One generated input set and the checksums of its host-computed outputs.
struct Inputs {
    scan: Vec<i64>,
    sort: Vec<i64>,
    select: Vec<i64>,
    mat: Coo<i64>,
    x: Vec<i64>,
    /// Output checksums, in `Prim::ALL` order.
    expected: [u64; 4],
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let d = draws(seed);
        let scan = workloads::uniform(1 << 20, d[0]);
        let sort = workloads::uniform(1 << 16, d[1]);
        let select = arrange_like(
            &workloads::uniform(1 << 16, draws(DEFAULT_SEED)[2]),
            workloads::uniform(1 << 16, d[2]),
        );
        let mat = workloads::random_uniform(1024, 4, d[3]);
        let x = workloads::uniform(1024, d[4]);

        let prefix: Vec<i64> = scan
            .iter()
            .scan(0i64, |acc, &v| {
                *acc = acc.wrapping_add(v);
                Some(*acc)
            })
            .collect();
        let mut sorted = sort.clone();
        sorted.sort_unstable();
        let mut ranked = select.clone();
        ranked.sort_unstable();
        let expected = [
            checksum_i64(&prefix),
            checksum_i64(&sorted),
            checksum_i64(&[ranked[(SELECT_K - 1) as usize]]),
            checksum_i64(&mat.multiply_dense(&x)),
        ];
        Inputs { scan, sort, select, mat, x, expected }
    }
}

/// One whole primitive run: its model cost, output checksum and host
/// seconds from `place_z` to the output values.
fn run_once(p: Prim, inp: &Inputs) -> (Cost, u64, f64) {
    let mut m = Machine::new();
    let (out, took) = match p {
        Prim::Scan => {
            let v = inp.scan.clone();
            let t = Instant::now();
            let items = place_z(&mut m, 0, v);
            let out = read_values(scan(&mut m, 0, items, &|a: &i64, b: &i64| a.wrapping_add(*b)));
            (out, t.elapsed())
        }
        Prim::Sort => {
            let v = inp.sort.clone();
            let t = Instant::now();
            let items = place_z(&mut m, 0, v);
            let out = read_values(sort_z(&mut m, 0, items));
            (out, t.elapsed())
        }
        Prim::Select => {
            let v = inp.select.clone();
            let t = Instant::now();
            let items = place_z(&mut m, 0, v);
            let (pick, _) = select_rank(&mut m, 0, items, SELECT_K, SELECT_SALT);
            (vec![pick.into_value()], t.elapsed())
        }
        Prim::Spmv => {
            let t = Instant::now();
            let out = spmv(&mut m, &inp.mat, &inp.x).y;
            (out, t.elapsed())
        }
    };
    (m.report(), checksum_i64(&out), took.as_secs_f64())
}

struct Run {
    prim: Prim,
    cost: Cost,
    secs: f64,
}

/// Runs `order`, checking every output against the host result.
fn pass(order: &[Prim], inp: &Inputs, tally: &mut Tally) -> Vec<Run> {
    let mut runs = Vec::new();
    for &prim in order {
        let (cost, sum, secs) = run_once(prim, inp);
        tally.check(sum == inp.expected[prim as usize], || {
            format!(
                "sim-bare {}: output checksum {sum:#x} differs from the host result",
                prim.label()
            )
        });
        runs.push(Run { prim, cost, secs });
    }
    runs
}

/// Checks every run's cost against `reference`; repetitions of one input
/// must report identical costs at any thread count.
fn check_costs(runs: &[Run], reference: &[Cost; 4], what: &str, tally: &mut Tally) {
    for r in runs {
        let want = reference[r.prim as usize];
        tally.check(r.cost == want, || {
            format!("sim-bare {} ({what}): cost {:?} differs from {want:?}", r.prim.label(), r.cost)
        });
    }
}

/// The cost each primitive reported in `runs` (the first of its runs).
fn costs_of(runs: &[Run]) -> [Cost; 4] {
    Prim::ALL.map(|p| runs.iter().find(|r| r.prim == p).map_or(Cost::default(), |r| r.cost))
}

/// The costs pinned at [`DEFAULT_SEED`] in `pinned_costs.json`.
fn pinned() -> Result<[Cost; 4], String> {
    let doc = Json::parse(include_str!("../pinned_costs.json"))
        .map_err(|e| format!("pinned_costs.json: {e}"))?;
    let mut out = [Cost::default(); 4];
    for p in Prim::ALL {
        let c = doc
            .get("costs")
            .and_then(|c| c.get(p.label()))
            .ok_or_else(|| format!("pinned_costs.json: no costs.{}", p.label()))?;
        let field = |k: &str| {
            c.get(k).and_then(Json::as_u64).ok_or_else(|| {
                format!("pinned_costs.json: costs.{}.{k} is not an integer", p.label())
            })
        };
        out[p as usize] = Cost {
            energy: field("energy")?,
            depth: field("depth")?,
            distance: field("distance")?,
            messages: field("messages")?,
        };
    }
    Ok(out)
}

/// Timed passes over `inp` on `loops` threads at once, each running whole
/// passes until `budget` has passed (at least one each).
fn timed(
    inp: &Inputs,
    reference: &[Cost; 4],
    budget: Duration,
    loops: usize,
    tally: &mut Tally,
) -> Phase {
    let start = Instant::now();
    let per_loop: Vec<(Vec<Run>, Tally)> = std::thread::scope(|s| {
        let loops: Vec<_> = (0..loops)
            .map(|_| {
                s.spawn(|| {
                    let (mut runs, mut t) = (Vec::new(), Tally::default());
                    while runs.is_empty() || start.elapsed() < budget {
                        runs.extend(pass(&TIMED_PASS, inp, &mut t));
                    }
                    (runs, t)
                })
            })
            .collect();
        loops.into_iter().map(|h| h.join().expect("a timed pass loop panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut runs = Vec::new();
    for (r, t) in per_loop {
        runs.extend(r);
        tally.attempted += t.attempted;
        tally.failed += t.failed;
    }
    check_costs(&runs, reference, "timed pass", tally);
    let msgs_per_s = Prim::ALL.map(|p| {
        let (msgs, secs) = runs
            .iter()
            .filter(|r| r.prim == p)
            .fold((0.0, 0.0), |(m, s), r| (m + r.cost.messages as f64, s + r.secs));
        rate(msgs, secs)
    });
    let latency_ms = runs.iter().filter(|r| r.prim == Prim::Scan).map(|r| r.secs * 1e3).collect();
    Phase { jobs_per_s: rate(runs.len() as f64, wall), latency_ms, msgs_per_s }
}

pub fn run(a: &Args, tally: &mut Tally) -> Result<Report, String> {
    let pinned = pinned()?;
    // Three set-ups, each an input generation plus a warm-up pass, and each
    // a check: the run's inputs at one sim thread (the reference costs),
    // the default seed's inputs against the pinned costs, and the run's
    // inputs again at the default thread count.
    let mut setup_s = Vec::new();
    let t = Instant::now();
    set_sim_threads(1);
    let inputs = Inputs::generate(a.seed);
    let reference = costs_of(&pass(&CHECK_PASS, &inputs, tally));
    set_sim_threads(0);
    setup_s.push(t.elapsed().as_secs_f64());

    let t = Instant::now();
    let default = Inputs::generate(DEFAULT_SEED);
    let runs = pass(&CHECK_PASS, &default, tally);
    setup_s.push(t.elapsed().as_secs_f64());
    check_costs(&runs, &pinned, "pinned at the default seed", tally);
    drop(default);

    let t = Instant::now();
    let inputs = Inputs::generate(a.seed);
    let runs = pass(&CHECK_PASS, &inputs, tally);
    setup_s.push(t.elapsed().as_secs_f64());
    check_costs(&runs, &reference, "default sim threads vs one", tally);
    debug_assert_eq!(setup_s.len(), SETUP_REPS);
    for (p, c) in Prim::ALL.iter().zip(&reference) {
        println!(
            "# cost {} at seed {}: energy {} depth {} distance {} messages {}",
            p.label(),
            a.seed,
            c.energy,
            c.depth,
            c.distance,
            c.messages
        );
    }

    // One pass loop per core, each at one sim thread, so the loops do not
    // share cores with shard threads.
    println!("# sim-bare timed phase: {} pass loops at 1 sim thread each", a.nproc);
    set_sim_threads(1);
    let phase = timed(&inputs, &reference, a.seconds, a.nproc, tally);
    set_sim_threads(0);
    Ok(Report {
        setup_s,
        phase,
        peak_rss_mb: crate::peak_rss_mb(std::process::id()),
        live: Default::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arranged_values_compare_like_the_pattern() {
        // Ties in the pattern (the two 5s) order by position.
        let pattern = [5, -3, 5, 9, 0];
        let out = arrange_like(&pattern, vec![7, 7, 7, 1, 2]);
        for i in 0..pattern.len() {
            for j in 0..pattern.len() {
                assert_eq!((pattern[i], i).cmp(&(pattern[j], j)), out[i].cmp(&out[j]), "{i} {j}");
            }
        }
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [1, 2, 7, 8, 9]);
    }

    #[test]
    fn every_seed_selects_with_the_same_work() {
        let cost = |seed| {
            let inp = Inputs::generate(seed);
            let (cost, sum, _) = run_once(Prim::Select, &inp);
            assert_eq!(sum, inp.expected[Prim::Select as usize]);
            cost.messages
        };
        assert_eq!(cost(DEFAULT_SEED), cost(DEFAULT_SEED + 1));
    }
}
