//! **Lemma IV.1 / Corollary IV.2** — broadcast & reduce collectives.
//!
//! (a) Square-grid sweep: the optimal collectives take `O(n)` energy at
//!     `O(log n)` depth, while the row-major binary-tree baseline pays
//!     `Θ(n log n)` — the `Θ(log n)` separation claimed in §IV.B over \[11\].
//! (b) Tall-grid sweep (`h × w`, fixed `w`): energy follows
//!     `O(hw + h log h)`.

use bench::{measure, pow4_sizes};
use runner::{run_supervised, sweep_supervised, PoolConfig, Task, TaskOutcome};
use spatial_core::collectives::naive::{naive_broadcast, naive_reduce};
use spatial_core::collectives::zarray::place_row_major;
use spatial_core::collectives::{broadcast, reduce};
use spatial_core::model::{Coord, Machine, SubGrid};
use spatial_core::report::print_section;
use spatial_core::theory::{self, Metric};

fn main() {
    let jobs = runner::default_workers();
    println!("Reproduction of Lemma IV.1 / Corollary IV.2 (and the §IV energy improvement).");
    eprintln!("(sweeps run on {jobs} supervised workers; override with SPATIAL_JOBS)");

    print_section("(a) Square broadcast: optimal vs binary-tree baseline");
    println!(
        "{:>10} {:>14} {:>14} {:>8} {:>10} {:>10}",
        "n", "opt energy", "naive energy", "ratio", "opt depth", "naive dep"
    );
    // Both variants of one size form a single supervised task; the sizes
    // fan out across the pool and come back in submission order.
    let sizes = pow4_sizes(3, 9);
    let tasks: Vec<Task<'_, _>> = sizes
        .iter()
        .map(|&n| Task {
            deadline_ms: None,
            run: Box::new(move |_| {
                let side = (n as f64).sqrt() as u64;
                let grid = SubGrid::square(Coord::ORIGIN, side);
                let opt = measure(|m| {
                    let root = m.place(grid.origin, 1i64);
                    let _ = broadcast(m, root, grid);
                });
                let naive = measure(|m| {
                    let root = m.place(grid.origin, 1i64);
                    let _ = naive_broadcast(m, root, grid);
                });
                (opt, naive)
            }),
        })
        .collect();
    let cfg = PoolConfig { workers: jobs, ..Default::default() };
    let mut opt_sweep = spatial_core::report::Sweep::new("broadcast-opt");
    let mut naive_sweep = spatial_core::report::Sweep::new("broadcast-naive");
    for (&n, outcome) in sizes.iter().zip(run_supervised(&cfg, tasks)) {
        let (opt, naive) = match outcome {
            TaskOutcome::Done(pair) => pair,
            other => panic!("broadcast measurement at n = {n} failed: {other:?}"),
        };
        opt_sweep.push(n, opt);
        naive_sweep.push(n, naive);
        println!(
            "{:>10} {:>14} {:>14} {:>8.2} {:>10} {:>10}",
            n,
            opt.energy,
            naive.energy,
            naive.energy as f64 / opt.energy as f64,
            opt.depth,
            naive.depth
        );
    }
    println!("(the ratio column must grow like Θ(log n): ~1 extra doubling per 4x n)");
    bench::print_profiled(&opt_sweep, bench::profile_from_args());
    for line in opt_sweep.report_lines([
        (Metric::Energy, theory::collective_bound(Metric::Energy)),
        (Metric::Depth, theory::collective_bound(Metric::Depth)),
        (Metric::Distance, theory::collective_bound(Metric::Distance)),
    ]) {
        println!("{line}");
    }
    for line in naive_sweep.report_lines([
        (Metric::Energy, theory::naive_collective_bound(Metric::Energy)),
        (Metric::Depth, theory::naive_collective_bound(Metric::Depth)),
        (Metric::Distance, theory::naive_collective_bound(Metric::Distance)),
    ]) {
        println!("{line}");
    }

    print_section("(b) Reduce mirrors broadcast (reverse pattern)");
    let s = sweep_supervised("reduce", jobs, &pow4_sizes(3, 9), |m, n| {
        let side = (n as f64).sqrt() as u64;
        let grid = SubGrid::square(Coord::ORIGIN, side);
        let items = place_row_major(m, grid, (0..n as i64).collect());
        let total = reduce(m, items, grid, &|a, b| a + b);
        assert_eq!(total.into_value(), (n * (n - 1) / 2) as i64);
    });
    bench::print_sweep(
        &s,
        [
            (Metric::Energy, theory::collective_bound(Metric::Energy)),
            (Metric::Depth, theory::collective_bound(Metric::Depth)),
            (Metric::Distance, theory::collective_bound(Metric::Distance)),
        ],
    );
    bench::print_profiled(&s, bench::profile_from_args());
    // Baseline comparison at one size for the record.
    let n = 4u64.pow(8);
    let side = (n as f64).sqrt() as u64;
    let grid = SubGrid::square(Coord::ORIGIN, side);
    let naive = measure(|m: &mut Machine| {
        let items = place_row_major(m, grid, (0..n as i64).collect());
        let _ = naive_reduce(m, items, grid, &|a, b| a + b);
    });
    println!("naive reduce at n={n}: energy={} (vs optimal above)", naive.energy);

    print_section("(c) Tall grids: energy O(hw + h log h)");
    println!("{:>8} {:>6} {:>14} {:>16} {:>10}", "h", "w", "energy", "hw + h·log2(h)", "ratio");
    for &(h, w) in
        &[(64u64, 64u64), (256, 64), (1024, 64), (4096, 64), (4096, 16), (4096, 4), (4096, 1)]
    {
        let grid = SubGrid::new(Coord::ORIGIN, h, w);
        let c = measure(|m| {
            let root = m.place(grid.origin, 1i64);
            let _ = broadcast(m, root, grid);
        });
        let bound = (h * w) as f64 + h as f64 * (h as f64).log2();
        println!(
            "{:>8} {:>6} {:>14} {:>16.0} {:>10.2}",
            h,
            w,
            c.energy,
            bound,
            c.energy as f64 / bound
        );
    }
    println!("(the ratio column must stay bounded by a constant)");
}
