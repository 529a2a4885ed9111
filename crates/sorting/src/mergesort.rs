//! 2D Mergesort (paper §V-C, Theorem V.8).
//!
//! Recursively sort the four quadrants of the (Z-segment) array, merge the
//! two top quadrants, merge the two bottom quadrants, and merge the results:
//! `E(n) = O(n^{3/2}) + 4E(n/4)` gives `O(n^{3/2})` energy — optimal by the
//! permutation lower bound (Lemma V.1 / Corollary V.2) — at `O(log³ n)`
//! depth and `O(√n)` distance.
//!
//! [`sort_z`] keeps the array in Z-order; [`sort_row_major`] additionally
//! performs the row-major conversions at the boundaries (the permutation of
//! Fig. 3(d)), preserving all cost bounds.

use spatial_model::{zorder, Machine, SubGrid, Tracked};

use collectives::route::{route, row_major_to_z};

use crate::keyed::{attach_uids, Keyed};
use crate::merge2d::{base_network, merge_adjacent, BASE};

/// Sorts `items` (element `i` resident at Z-index `lo + i`) ascending along
/// the Z-curve. Stable; `lo` must be aligned to the padded length.
///
/// ```
/// use spatial_model::Machine;
/// use collectives::place_z;
/// use sorting::sort_z_values;
///
/// let mut m = Machine::new();
/// let items = place_z(&mut m, 0, vec![9i64, 1, 8, 2, 7, 3]);
/// assert_eq!(sort_z_values(&mut m, 0, items), vec![1, 2, 3, 7, 8, 9]);
/// ```
///
/// Arbitrary lengths are supported: inputs are padded internally with
/// `+∞` sentinels up to the next power of four (paper §III assumes powers of
/// four w.l.o.g.).
pub fn sort_z<T: Ord + Clone>(
    machine: &mut Machine,
    lo: u64,
    items: Vec<Tracked<T>>,
) -> Vec<Tracked<T>> {
    let n = items.len() as u64;
    if n <= 1 {
        return items;
    }
    let padded = zorder::next_power_of_four(n);
    assert_eq!(lo % padded, 0, "segment must be aligned to its padded length");
    // Wrap keys so all elements are distinct (stability) and pad with +∞.
    let mut keyed: Vec<Tracked<Pad<T>>> =
        attach_uids(items).into_iter().map(|t| t.map(Pad::Val)).collect();
    keyed.extend(
        machine.place_batch((n..padded).map(Pad::Inf).collect(), |i| {
            zorder::coord_of(lo + n + i as u64)
        }),
    );
    let sorted = sort_pow4(machine, lo, keyed);
    // Strip sentinels (they sorted to the tail) and unwrap.
    let mut out = Vec::with_capacity(n as usize);
    for t in sorted {
        match t.value() {
            Pad::Val(_) => out.push(t.map(|p| match p {
                Pad::Val(k) => k.key,
                Pad::Inf(_) => unreachable!(),
            })),
            Pad::Inf(_) => machine.discard(t),
        }
    }
    out
}

/// Like [`sort_z`] but returns the sorted plain values (reads the array out
/// of the machine).
pub fn sort_z_values<T: Ord + Clone>(
    machine: &mut Machine,
    lo: u64,
    items: Vec<Tracked<T>>,
) -> Vec<T> {
    sort_z(machine, lo, items).into_iter().map(Tracked::into_value).collect()
}

/// Sorts an array stored **row-major** on a square subgrid, returning it
/// sorted in row-major order (the paper's input/output convention): convert
/// to Z-order, run [`sort_z`], permute back (Fig. 3(d)).
pub fn sort_row_major<T: Ord + Clone>(
    machine: &mut Machine,
    grid: SubGrid,
    items: Vec<Tracked<T>>,
) -> Vec<Tracked<T>> {
    assert!(
        grid.is_square() && grid.w.is_power_of_two(),
        "row-major sort needs a power-of-two square"
    );
    assert_eq!(items.len() as u64, grid.len());
    assert!(
        grid.origin.row >= 0 && grid.origin.col >= 0,
        "grid must sit in the Z-indexed quadrant"
    );
    let lo = zorder::index_of(grid.origin);
    assert_eq!(lo % grid.len(), 0, "grid must be an aligned Z-square");
    let z_items = row_major_to_z(machine, items, lo);
    let sorted = sort_z(machine, lo, z_items);
    route(machine, sorted, |i, _| grid.rm_coord(i as u64))
}

/// Padding wrapper: `Inf` sorts after every value; the payload keeps the
/// sentinels distinct so the `Keyed` invariant (total order) holds.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Pad<T> {
    Val(Keyed<T>),
    Inf(u64),
}

fn sort_pow4<T: Ord + Clone>(
    machine: &mut Machine,
    lo: u64,
    items: Vec<Tracked<Pad<T>>>,
) -> Vec<Tracked<Pad<T>>> {
    let n = items.len();
    debug_assert!(zorder::is_power_of_four(n as u64));
    if n <= BASE {
        return sortnet::run_on_coords(machine, base_network(n), items);
    }
    let q = n / 4;
    let mut quadrants: Vec<Vec<Tracked<Pad<T>>>> = Vec::with_capacity(4);
    let mut iter = items.into_iter();
    for i in 0..4 {
        let chunk: Vec<_> = iter.by_ref().take(q).collect();
        quadrants.push(sort_pow4(machine, lo + (i * q) as u64, chunk));
    }
    let bottom = quadrants.pop().expect("4 quadrants");
    let third = quadrants.pop().expect("4 quadrants");
    let second = quadrants.pop().expect("4 quadrants");
    let first = quadrants.pop().expect("4 quadrants");
    // Merge the two top quadrants, the two bottom quadrants, then the halves.
    let top = merge_adjacent(machine, first, second, lo);
    let bot = merge_adjacent(machine, third, bottom, lo + 2 * q as u64);
    merge_adjacent(machine, top, bot, lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::zarray::place_z;
    use spatial_model::Coord;

    fn pseudo(n: usize, seed: i64) -> Vec<i64> {
        (0..n).map(|i| ((i as i64 * 2654435761 + seed) % 1000003) - 500000).collect()
    }

    fn run_sort(vals: Vec<i64>, lo: u64) -> (Machine, Vec<i64>) {
        let mut m = Machine::new();
        let items = place_z(&mut m, lo, vals);
        let out = sort_z(&mut m, lo, items);
        for (i, t) in out.iter().enumerate() {
            assert_eq!(t.loc(), zorder::coord_of(lo + i as u64), "output cell {i}");
        }
        let got = out.into_iter().map(Tracked::into_value).collect();
        (m, got)
    }

    #[test]
    fn sorts_power_of_four_sizes() {
        for &n in &[1usize, 4, 16, 64, 256, 1024] {
            let vals = pseudo(n, 42);
            let mut expect = vals.clone();
            expect.sort_unstable();
            let (_, got) = run_sort(vals, 0);
            assert_eq!(got, expect, "n = {n}");
        }
    }

    #[test]
    fn sorts_awkward_sizes_with_padding() {
        for &n in &[2usize, 3, 5, 17, 100, 333, 777] {
            let vals = pseudo(n, 7);
            let mut expect = vals.clone();
            expect.sort_unstable();
            let lo = 0;
            let (_, got) = run_sort(vals, lo);
            assert_eq!(got, expect, "n = {n}");
        }
    }

    #[test]
    fn sorts_adversarial_inputs() {
        let n = 256usize;
        let cases: Vec<Vec<i64>> = vec![
            (0..n as i64).collect(),                // already sorted
            (0..n as i64).rev().collect(),          // reversed
            vec![5; n],                             // constant
            (0..n as i64).map(|i| i % 4).collect(), // few distinct
            (0..n as i64).map(|i| if i % 2 == 0 { i } else { -i }).collect(), // zigzag
        ];
        for vals in cases {
            let mut expect = vals.clone();
            expect.sort_unstable();
            let (_, got) = run_sort(vals, 0);
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn sort_is_stable() {
        let mut m = Machine::new();
        // Key = value % 4; attach payload via index to observe stability.
        let vals: Vec<(i64, usize)> = (0..64usize).map(|i| ((i as i64 * 13) % 4, i)).collect();
        #[derive(Clone, PartialEq, Eq, Debug)]
        struct Item(i64, usize);
        impl Ord for Item {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                self.0.cmp(&o.0) // compare key only
            }
        }
        impl PartialOrd for Item {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }
        let items = place_z(&mut m, 0, vals.iter().map(|&(k, i)| Item(k, i)).collect());
        let out = sort_z(&mut m, 0, items);
        let got: Vec<(i64, usize)> = out.iter().map(|t| (t.value().0, t.value().1)).collect();
        let mut expect = vals;
        expect.sort_by_key(|&(k, _)| k); // std stable sort
        assert_eq!(got, expect.iter().map(|&(k, i)| (k, i)).collect::<Vec<_>>());
    }

    #[test]
    fn sorts_on_offset_segment() {
        let vals = pseudo(64, 3);
        let mut expect = vals.clone();
        expect.sort_unstable();
        let (_, got) = run_sort(vals, 4096);
        assert_eq!(got, expect);
    }

    #[test]
    fn sort_energy_scales_as_n_to_three_halves() {
        // Theorem V.8: Θ(n^{3/2}); 4x n → ≈8x energy.
        let energy = |n: usize| {
            let (m, _) = run_sort(pseudo(n, 1), 0);
            m.energy() as f64
        };
        let growth = energy(4096) / energy(1024);
        assert!(growth > 5.0 && growth < 13.0, "expected ≈8x growth for 4x n, got {growth:.1}x");
    }

    #[test]
    fn sort_depth_is_polylog() {
        let n = 4096usize;
        let (m, _) = run_sort(pseudo(n, 9), 0);
        let log = (n as f64).log2();
        let bound = (10.0 * log * log * log) as u64;
        assert!(m.report().depth <= bound, "depth {} > {bound}", m.report().depth);
    }

    #[test]
    fn sort_distance_is_order_sqrt_n() {
        let n = 4096usize;
        let (m, _) = run_sort(pseudo(n, 11), 0);
        let bound = 100 * (n as f64).sqrt() as u64;
        assert!(m.report().distance <= bound, "distance {} > {bound}", m.report().distance);
    }

    #[test]
    fn row_major_sort_roundtrip() {
        let n = 256usize;
        let side = 16u64;
        let grid = SubGrid::square(Coord::ORIGIN, side);
        let vals = pseudo(n, 23);
        let mut m = Machine::new();
        let items: Vec<_> =
            vals.iter().enumerate().map(|(i, &v)| m.place(grid.rm_coord(i as u64), v)).collect();
        let out = sort_row_major(&mut m, grid, items);
        let mut expect = vals;
        expect.sort_unstable();
        for (i, t) in out.iter().enumerate() {
            assert_eq!(t.loc(), grid.rm_coord(i as u64), "row-major output cell");
            assert_eq!(*t.value(), expect[i]);
        }
    }

    #[test]
    fn sort_z_memory_stays_constant_per_pe() {
        // Theorem V.8 needs O(1) words per PE: the rank splits' sample and
        // window squares, the bundled pivot broadcast and the quarter routing
        // each leave a bounded number of words on any PE. Must not grow with n.
        for n in [16usize, 64, 256, 1024] {
            let mut m = Machine::new();
            m.enable_memory_meter();
            let items = place_z(&mut m, 0, pseudo(n, 29));
            let _ = sort_z(&mut m, 0, items);
            let peak = m.memory().unwrap().peak();
            assert!(peak <= 4, "n = {n}: peak {peak}");
        }
    }
}
