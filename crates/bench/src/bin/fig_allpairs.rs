//! **Lemma V.5** — All-Pairs Sort: `O(n^{5/2})` energy, `O(log n)` depth,
//! `O(n)` distance.
//!
//! The deliberately energy-hungry, depth-optimal subroutine used on samples
//! and windows inside the rank routines. The sweep fits all three metrics.

use bench::{print_profiled, print_sweep, profile_from_args, pseudo, sweep};
use spatial_core::collectives::zarray::place_z;
use spatial_core::report::print_section;
use spatial_core::sorting::allpairs::{allpairs_sort_to_z, scratch_for};
use spatial_core::sorting::keyed::attach_uids;
use spatial_core::theory::{self, Metric};

fn main() {
    println!("Reproduction of Lemma V.5 (All-Pairs Sort).");

    // Powers of four avoid the padding stairstep (the scratch square pads n
    // to the next power of four, which would distort a doubling sweep).
    print_section("n-sweep (powers of four: padding-free)");
    let s = sweep("all-pairs", &[16, 64, 256, 1024], |m, n| {
        let vals = pseudo(n as usize, 1);
        let mut expect = vals.clone();
        expect.sort();
        let items = attach_uids(place_z(m, 0, vals));
        let bm = spatial_core::model::zorder::next_power_of_four(n);
        let sorted = allpairs_sort_to_z(m, items, scratch_for(0, bm * bm), 0);
        let got: Vec<i64> = sorted.iter().map(|t| t.value().key).collect();
        assert_eq!(got, expect);
    });
    print_sweep(
        &s,
        [
            (Metric::Energy, theory::allpairs_bound(Metric::Energy)),
            (Metric::Depth, theory::allpairs_bound(Metric::Depth)),
            (Metric::Distance, theory::allpairs_bound(Metric::Distance)),
        ],
    );
    print_profiled(&s, profile_from_args());

    print_section("comparison: all-pairs always wins on depth; its energy grows as n^{5/2}");
    println!(
        "{:>8} {:>16} {:>16} {:>10} {:>10}",
        "n", "allpairs E", "mergesort E", "ap depth", "ms depth"
    );
    for &n in &[16u64, 64, 256] {
        let vals = pseudo(n as usize, 2);
        let ap = bench::measure(|m| {
            let items = attach_uids(place_z(m, 0, vals.clone()));
            let bm = spatial_core::model::zorder::next_power_of_four(n);
            let _ = allpairs_sort_to_z(m, items, scratch_for(0, bm * bm), 0);
        });
        let ms = bench::measure(|m| {
            let items = place_z(m, 0, vals.clone());
            let _ = spatial_core::sorting::sort_z(m, 0, items);
        });
        println!("{:>8} {:>16} {:>16} {:>10} {:>10}", n, ap.energy, ms.energy, ap.depth, ms.depth);
    }
    println!("(all-pairs keeps O(log n) depth; the paper uses it only on O(√n)-sized inputs)");
}
