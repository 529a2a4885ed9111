//! **Lemma V.6** — rank selection in two sorted arrays: `O(n^{5/4})`
//! energy, `O(log n)` depth, `O(√n)` distance.

use bench::{print_sweep, sweep};
use spatial_core::collectives::zarray::place_z;
use spatial_core::report::print_section;
use spatial_core::sorting::keyed::Keyed;
use spatial_core::sorting::rank2::multi_rank_split;
use spatial_core::theory::{self, Metric};

#[allow(clippy::type_complexity)]
fn setup(
    m: &mut spatial_core::model::Machine,
    half: usize,
    lo: u64,
) -> (Vec<spatial_core::model::Tracked<Keyed<i64>>>, Vec<spatial_core::model::Tracked<Keyed<i64>>>)
{
    let a: Vec<Keyed<i64>> = (0..half).map(|i| Keyed::new(3 * i as i64, i as u64)).collect();
    let b: Vec<Keyed<i64>> =
        (0..half).map(|i| Keyed::new(3 * i as i64 + 1, (half + i) as u64)).collect();
    let ai = place_z(m, lo, a);
    let bi = place_z(m, lo + half as u64, b);
    (ai, bi)
}

fn main() {
    println!("Reproduction of Lemma V.6 (deterministic rank selection in two sorted arrays).");

    print_section("n-sweep at k = n/2");
    let s = sweep("rank2", &[256, 1024, 4096, 16384, 65536], |m, n| {
        let half = (n / 2) as usize;
        let (ai, bi) = setup(m, half, 0);
        let split = multi_rank_split(m, &ai, 0, &bi, half as u64, &[n / 2])[0];
        assert_eq!(split.ca + split.cb, n / 2);
    });
    print_sweep(
        &s,
        [
            (Metric::Energy, theory::rank2_bound(Metric::Energy)),
            (Metric::Depth, theory::rank2_bound(Metric::Depth)),
            (Metric::Distance, theory::rank2_bound(Metric::Distance)),
        ],
    );

    print_section("k-sweep at n = 16384 (cost must be stable across ranks)");
    println!("{:>10} {:>14} {:>8} {:>10}", "k", "energy", "depth", "distance");
    let n = 16384u64;
    for k in [1u64, n / 8, n / 4, n / 2, 3 * n / 4, n - 1, n] {
        let c = bench::measure(|m| {
            let (ai, bi) = setup(m, (n / 2) as usize, 0);
            let _ = multi_rank_split(m, &ai, 0, &bi, n / 2, &[k]);
        });
        println!("{:>10} {:>14} {:>8} {:>10}", k, c.energy, c.depth, c.distance);
    }
    println!("(k = 1 skips the sampling phase — the paper's l = 0 case — and costs as much:");
    println!(" the windows dominate; k = n - 1 and k = n are the cheap ranks)");
}
