//! **Table I** — the paper's summary of Spatial Computer Model bounds.
//!
//! For each row (Parallel Scan §IV, Sorting §V, Rank Selection §VI,
//! SpMV §VIII) this binary sweeps the input size, measures the exact model
//! costs, fits the polynomial exponents and checks the polylog depth claims:
//!
//! | Problem        | Energy     | Depth     | Distance |
//! |----------------|-----------:|----------:|---------:|
//! | Parallel Scan  | Θ(n)       | O(log n)  | Θ(√n)    |
//! | Sorting        | Θ(n^{3/2}) | O(log³ n) | Θ(√n)    |
//! | Rank Selection | Θ(n)       | O(log² n) | Θ(√n)    |
//! | SpMV           | Θ(m^{3/2}) | O(log³ n) | Θ(√m)    |

use bench::{pow4_sizes, print_profiled, print_sweep, profile_from_args, pseudo};
use runner::sweep_supervised;
use spatial_core::collectives::{place_z, scan};
use spatial_core::report::print_section;
use spatial_core::selection::select_rank_values;
use spatial_core::sorting::sort_z;
use spatial_core::spmv::spmv;
use spatial_core::theory::{self, Metric};

fn main() {
    // Each sweep point runs on its own independent machine, so the sizes
    // fan out across the supervised worker pool: identical measured costs,
    // a fraction of the wall time, and a panicking measurement is contained
    // and named instead of killing the whole table.
    let jobs = runner::default_workers();
    let profile = profile_from_args();
    println!("Reproduction of Table I: fitted scaling exponents vs paper bounds.");
    println!("(energy/distance: log-log fit; depth: metric / log^k n ratios must stay bounded)");
    eprintln!("(sweeps run on {jobs} supervised workers; override with SPATIAL_JOBS)");
    if let Some(p) = profile {
        println!("(profiled totals under the {:?} cost profile)", p.name);
    }

    print_section("Table I row 1: Parallel Scan (Lemma IV.3)");
    let s = sweep_supervised("scan", jobs, &pow4_sizes(4, 9), |m, n| {
        let items = place_z(m, 0, pseudo(n as usize, 1));
        let _ = scan(m, 0, items, &|a, b| a + b);
    });
    print_sweep(
        &s,
        [
            (Metric::Energy, theory::scan_bound(Metric::Energy)),
            (Metric::Depth, theory::scan_bound(Metric::Depth)),
            (Metric::Distance, theory::scan_bound(Metric::Distance)),
        ],
    );
    print_profiled(&s, profile);

    print_section("Table I row 2: Sorting / 2D Mergesort (Theorem V.8)");
    let s = sweep_supervised("mergesort", jobs, &pow4_sizes(3, 7), |m, n| {
        let items = place_z(m, 0, pseudo(n as usize, 2));
        let _ = sort_z(m, 0, items);
    });
    print_sweep(
        &s,
        [
            (Metric::Energy, theory::sorting_bound(Metric::Energy)),
            (Metric::Depth, theory::sorting_bound(Metric::Depth)),
            (Metric::Distance, theory::sorting_bound(Metric::Distance)),
        ],
    );
    print_profiled(&s, profile);

    print_section("Table I row 3: Rank Selection (Theorem VI.3; mean over 5 seeds)");
    // Averaging over seeds smooths the sampling variance; the sweep reaches
    // 4^9 so the linear-energy regime dominates the fit.
    let seeds = 5u64;
    let s = sweep_supervised("selection", jobs, &pow4_sizes(4, 9), |m, n| {
        for seed in 0..seeds {
            let vals = pseudo(n as usize, 3);
            let (_, stats) = select_rank_values(m, 0, vals, n / 2, seed);
            assert_eq!(stats.fallbacks, 0, "fallback at n={n} seed={seed}");
        }
    });
    let s = {
        // Divide the accumulated energy/messages by the seed count (depth
        // and distance watermarks are already per-run maxima).
        let mut avg = spatial_core::report::Sweep::new("selection(avg)");
        for p in &s.points {
            let mut c = p.cost;
            c.energy /= seeds;
            c.messages /= seeds;
            avg.push(p.n, c);
        }
        avg
    };
    print_sweep(
        &s,
        [
            (Metric::Energy, theory::selection_bound(Metric::Energy)),
            (Metric::Depth, theory::selection_bound(Metric::Depth)),
            (Metric::Distance, theory::selection_bound(Metric::Distance)),
        ],
    );
    print_profiled(&s, profile);

    print_section("Table I row 4: SpMV (Theorem VIII.2; uniform random, m = 4n)");
    // Sizes chosen so the padded matrix segment is well filled.
    let s = sweep_supervised("spmv", jobs, &[920, 3900, 15800, 63800], |m, nnz| {
        let n = (nnz / 4) as usize;
        let a = workloads::random_uniform(n, 4, 5);
        let x: Vec<i64> = pseudo(n, 6);
        let out = spmv(m, &a, &x);
        assert_eq!(out.y, a.multiply_dense(&x));
    });
    print_sweep(
        &s,
        [
            (Metric::Energy, theory::spmv_bound(Metric::Energy)),
            (Metric::Depth, theory::spmv_bound(Metric::Depth)),
            (Metric::Distance, theory::spmv_bound(Metric::Distance)),
        ],
    );
    print_profiled(&s, profile);

    println!("\nDone. Record these tables in EXPERIMENTS.md.");
}
