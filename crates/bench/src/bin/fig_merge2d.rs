//! **Lemma V.7 / Fig. 3** — the 2D merge: `O((n_A+n_B)^{3/2})` energy,
//! `O(log²)` depth, `O(√n)` distance, for balanced and skewed inputs.

use bench::{measure, print_sweep, sweep};
use spatial_core::collectives::zarray::place_z;
use spatial_core::model::Machine;
use spatial_core::report::print_section;
use spatial_core::sorting::keyed::Keyed;
use spatial_core::sorting::merge2d::merge_adjacent;
use spatial_core::theory::{self, Metric};

fn run_merge(m: &mut Machine, na: usize, nb: usize, lo: u64) {
    let a: Vec<Keyed<i64>> = (0..na).map(|i| Keyed::new(2 * i as i64, i as u64)).collect();
    let b: Vec<Keyed<i64>> =
        (0..nb).map(|i| Keyed::new(2 * i as i64 + 1, (na + i) as u64)).collect();
    let ai = place_z(m, lo, a);
    let bi = place_z(m, lo + na as u64, b);
    let out = merge_adjacent(m, ai, bi, lo);
    assert!(out.windows(2).all(|w| w[0].value() < w[1].value()), "output sorted");
}

fn main() {
    println!("Reproduction of Lemma V.7 (2D merge, Fig. 3 recursion).");

    print_section("balanced merge n-sweep (n_A = n_B = n/2)");
    let s = sweep("merge2d", &[256, 1024, 4096, 16384, 65536], |m, n| {
        run_merge(m, (n / 2) as usize, (n / 2) as usize, 0);
    });
    print_sweep(
        &s,
        [
            (Metric::Energy, theory::merge_bound(Metric::Energy)),
            (Metric::Depth, theory::merge_bound(Metric::Depth)),
            (Metric::Distance, theory::merge_bound(Metric::Distance)),
        ],
    );

    print_section("skew sweep at n = 16384: the balanced split costs the most");
    println!("{:>10} {:>10} {:>14} {:>8} {:>10}", "n_A", "n_B", "energy", "depth", "distance");
    let n = 16384usize;
    for &frac in &[2usize, 4, 8, 16, 64] {
        let na = n / frac;
        let nb = n - na;
        let c = measure(|m| run_merge(m, na, nb, 0));
        println!("{:>10} {:>10} {:>14} {:>8} {:>10}", na, nb, c.energy, c.depth, c.distance);
    }
    println!("(the Lemma V.7 recurrence charges (n_A + n_B)^{{3/2}} whatever the split:");
    println!(" skewed merges stay below that bound)");
}
