//! **Fig. 2 / Lemma V.3–V.4 vs Theorem V.8** — sorting networks vs the
//! energy-optimal 2D mergesort.
//!
//! The paper's §V.B conclusion: on a `√n × √n` grid, Bitonic Sort costs
//! `Θ(n^{3/2} log n)` energy and `Θ(√n log n)` distance — a `Θ(log n)`
//! factor above the 2D mergesort on both metrics — because its recursion
//! eventually becomes one-dimensional inside single rows. This binary sweeps
//! both algorithms, prints the energy/distance ratios (which must grow
//! logarithmically), and reproduces the Lemma V.3 merge-network costs on
//! rectangles.

use bench::{measure, pow4_sizes, pseudo};
use spatial_core::collectives::zarray::{place_row_major, place_z};
use spatial_core::model::{Coord, SubGrid};
use spatial_core::report::{print_section, Sweep};
use spatial_core::sorting::sort_z;
use spatial_core::sortnet::{bitonic_merge, bitonic_sort, run_row_major};
use spatial_core::theory::{self, Metric};

fn main() {
    println!("Reproduction of the §V sorting-network analysis (Fig. 2 discussion).");

    print_section("(a) Bitonic Sort vs 2D Mergesort on square grids");
    println!(
        "{:>8} {:>15} {:>15} {:>8} {:>9} {:>9} {:>8}",
        "n", "bitonic energy", "merge energy", "E ratio", "bit dist", "mrg dist", "D ratio"
    );
    let mut bit = Sweep::new("bitonic");
    let mut mrg = Sweep::new("mergesort");
    for &n in &pow4_sizes(3, 7) {
        let vals = pseudo(n as usize, 1);
        let side = (n as f64).sqrt() as u64;
        let grid = SubGrid::square(Coord::ORIGIN, side);
        let net = bitonic_sort(n as usize);
        let cb = measure(|m| {
            let items = place_row_major(m, grid, vals.clone());
            let out = run_row_major(m, &net, grid, items);
            assert!(out.windows(2).all(|w| w[0].value() <= w[1].value()));
        });
        let cm = measure(|m| {
            let items = place_z(m, 0, vals.clone());
            let _ = sort_z(m, 0, items);
        });
        bit.push(n, cb);
        mrg.push(n, cm);
        println!(
            "{:>8} {:>15} {:>15} {:>8.4} {:>9} {:>9} {:>8.2}",
            n,
            cb.energy,
            cm.energy,
            cb.energy as f64 / cm.energy as f64,
            cb.distance,
            cm.distance,
            cb.distance as f64 / cm.distance as f64
        );
    }
    println!("(asymptotics: the E-ratio must grow ≈ Θ(log n) — visible from n = 256 on.");
    println!(" Note the *constants*: the 2D mergesort pays ≈100-150x more per element than");
    println!(" the bitonic network at these sizes, because every merge level runs three");
    println!(" all-pairs rank selections over Θ(√n)-sized windows (the paper's own design,");
    println!(" Lemma V.6). The asymptotic ordering — mergesort energy Θ(n^1.5) vs bitonic");
    println!(" Θ(n^1.5 log n) — shows up as the fitted-exponent gap below; the absolute");
    println!(" crossover lies beyond simulable sizes.)");

    print_section("scaling fits");
    for line in bit.report_lines([
        (Metric::Energy, theory::bitonic_sort_bound(Metric::Energy)),
        (Metric::Depth, theory::bitonic_sort_bound(Metric::Depth)),
        (Metric::Distance, theory::bitonic_sort_bound(Metric::Distance)),
    ]) {
        println!("{line}");
    }
    for line in mrg.report_lines([
        (Metric::Energy, theory::sorting_bound(Metric::Energy)),
        (Metric::Depth, theory::sorting_bound(Metric::Depth)),
        (Metric::Distance, theory::sorting_bound(Metric::Distance)),
    ]) {
        println!("{line}");
    }
    // Under a profile the EDP columns make the depth-vs-energy trade
    // quantitative: bitonic's extra energy shows up directly, mergesort's
    // deeper recursion inflates delay instead.
    let profile = bench::profile_from_args();
    bench::print_profiled(&bit, profile);
    bench::print_profiled(&mrg, profile);

    print_section("(b) Lemma V.3: Bitonic Merge on h×w rectangles, energy Θ(h²w + w²h)");
    println!("{:>8} {:>6} {:>14} {:>14} {:>8}", "h", "w", "energy", "h²w + w²h", "ratio");
    for &(h, w) in &[(16u64, 16u64), (32, 32), (64, 64), (64, 16), (16, 64), (128, 8), (8, 128)] {
        let n = (h * w) as usize;
        let grid = SubGrid::new(Coord::ORIGIN, h, w);
        let net = bitonic_merge(n);
        // Bitonic input: ascending first half, descending second half.
        let mut input = pseudo(n, 3);
        let half = n / 2;
        input[..half].sort_unstable();
        input[half..].sort_unstable_by(|a, b| b.cmp(a));
        let c = measure(|m| {
            let items = place_row_major(m, grid, input.clone());
            let out = run_row_major(m, &net, grid, items);
            assert!(out.windows(2).all(|x| x[0].value() <= x[1].value()));
        });
        let bound = (h * h * w + w * w * h) as f64;
        println!(
            "{:>8} {:>6} {:>14} {:>14.0} {:>8.3}",
            h,
            w,
            c.energy,
            bound,
            c.energy as f64 / bound
        );
    }
    println!("(the ratio column must stay bounded above AND below by constants — Θ, not just O)");
}
