//! **Ablation** — multiselection vs. repeated rank selection.
//!
//! The paper frames the merge's three quartile queries as a *multiselection*
//! problem (\[53\]). Sharing one sample, one all-pairs ranking and one bundled
//! pivot broadcast across the three queries removes the redundant `Θ(n)` and
//! `Θ(n^{5/4})` terms; this ablation measures the saving and its effect on
//! the full 2D mergesort (which uses the shared variant).

use bench::{measure, pseudo};
use spatial_core::collectives::zarray::place_z;
use spatial_core::model::Machine;
use spatial_core::report::print_section;
use spatial_core::sorting::keyed::Keyed;
use spatial_core::sorting::rank2::multi_rank_split;

#[allow(clippy::type_complexity)]
fn setup(
    m: &mut Machine,
    half: usize,
) -> (Vec<spatial_core::model::Tracked<Keyed<i64>>>, Vec<spatial_core::model::Tracked<Keyed<i64>>>)
{
    let mut a: Vec<i64> = pseudo(half, 1);
    let mut b: Vec<i64> = pseudo(half, 2);
    a.sort_unstable();
    b.sort_unstable();
    let ka: Vec<Keyed<i64>> =
        a.into_iter().enumerate().map(|(i, v)| Keyed::new(v, i as u64)).collect();
    let kb: Vec<Keyed<i64>> =
        b.into_iter().enumerate().map(|(i, v)| Keyed::new(v, (half + i) as u64)).collect();
    let ai = place_z(m, 0, ka);
    let bi = place_z(m, half as u64, kb);
    (ai, bi)
}

fn main() {
    println!("Multiselection ablation (paper §V-C(c), citation [53]).");

    print_section("three quartile splits: shared sample vs three separate runs");
    println!(
        "{:>10} {:>16} {:>16} {:>8} {:>10} {:>10}",
        "n", "multi energy", "3x single E", "saving", "multi dep", "single dep"
    );
    for &n in &[1024u64, 4096, 16384, 65536] {
        let half = (n / 2) as usize;
        let ks = [n / 4, n / 2, 3 * n / 4];

        let mut mm = Machine::new();
        let (ai, bi) = setup(&mut mm, half);
        let multi = multi_rank_split(&mut mm, &ai, 0, &bi, half as u64, &ks);

        let mut ms = Machine::new();
        let (ai, bi) = setup(&mut ms, half);
        let single = ks.map(|k| multi_rank_split(&mut ms, &ai, 0, &bi, half as u64, &[k])[0]);

        assert_eq!(multi, single, "same answers");
        println!(
            "{:>10} {:>16} {:>16} {:>7.1}% {:>10} {:>10}",
            n,
            mm.energy(),
            ms.energy(),
            100.0 * (1.0 - mm.energy() as f64 / ms.energy() as f64),
            mm.report().depth,
            ms.report().depth
        );
    }

    print_section("effect on the full 2D mergesort (which uses the shared variant)");
    for &n in &[1024usize, 4096] {
        let vals = pseudo(n, 5);
        let cost = measure(|m| {
            let items = place_z(m, 0, vals.clone());
            let out = spatial_core::sorting::sort_z(m, 0, items);
            assert!(out.windows(2).all(|w| w[0].value() <= w[1].value()));
        });
        println!("  mergesort n={n}: {cost}");
    }
    println!("\n(the merge spends most energy in the per-quartile windows, which cannot be");
    println!(" shared — the multiselection saving is the shared sample + bundled broadcast)");
}
