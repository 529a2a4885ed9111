//! Top-k extraction: the sort-pooling primitive as a library operation.
//!
//! The paper's introduction motivates the primitives with GNN sort-pooling
//! layers \[16\]: keep the `k` largest-scoring elements, in sorted order.
//! Composing the paper's algorithms gives an `O(n + k^{3/2})`-energy,
//! poly-log-depth implementation — polynomially cheaper than the
//! `Θ(n^{3/2})` sort-everything approach whenever `k ≪ n`:
//!
//! 1. randomized rank selection (§VI) finds the k-th largest element —
//!    `O(n)` energy;
//! 2. a broadcast + exclusive scan compacts the `k` survivors onto a small
//!    segment — `O(n)` energy;
//! 3. a 2D mergesort over just those `k` orders them — `O(k^{3/2})` energy.

use spatial_model::{zorder, Machine, Tracked};

use collectives::scan::scan_exclusive;
use collectives::zseg::broadcast_z;
use selection::select_rank;
use sorting::allpairs::scratch_for;
use sorting::keyed::Keyed;
use sorting::mergesort::sort_z;

/// Returns the `k` largest elements of `items` (resident on the Z-segment
/// `[lo, lo+n)`, `lo` aligned to the padded length), sorted ascending and
/// placed on a compact aligned segment near the data.
///
/// Ties are broken by position (later elements win), so exactly `k`
/// elements are returned even with duplicate keys. `seed` drives the
/// randomized selection; the run is deterministic given the seed.
///
/// ```
/// use spatial_model::Machine;
/// use collectives::place_z;
/// use spatial_core::topk::top_k;
///
/// let mut m = Machine::new();
/// let items = place_z(&mut m, 0, (0i64..1000).collect());
/// let top: Vec<i64> = top_k(&mut m, 0, items, 3, 7).into_iter().map(|t| t.into_value()).collect();
/// assert_eq!(top, vec![997, 998, 999]);
/// ```
pub fn top_k<T: Ord + Clone>(
    machine: &mut Machine,
    lo: u64,
    items: Vec<Tracked<T>>,
    k: u64,
    seed: u64,
) -> Vec<Tracked<T>> {
    let n = items.len() as u64;
    assert!(k >= 1 && k <= n, "k = {k} out of range 1..={n}");
    let padded = zorder::next_power_of_four(n);
    assert_eq!(lo % padded, 0, "segment must be aligned to its padded length");

    // Work over (key, uid) so every element is distinct.
    let keyed: Vec<Tracked<Keyed<T>>> = items
        .into_iter()
        .enumerate()
        .map(|(i, t)| t.map(|key| Keyed::new(key, i as u64)))
        .collect();

    // 1) The k-th largest = rank n-k+1 smallest. Selection consumes copies.
    let dup: Vec<Tracked<Keyed<T>>> = keyed.iter().map(|t| t.duplicate()).collect();
    let (threshold, _stats) = select_rank(machine, lo, dup, n - k + 1, seed);

    // 2) Broadcast the threshold; mark survivors; compact with a scan.
    let thr_copies = broadcast_z(machine, threshold, lo, lo + padded);
    let mut survivor = vec![false; padded as usize];
    let mut indicator: Vec<Tracked<u64>> = Vec::with_capacity(padded as usize);
    for (i, c) in thr_copies.iter().enumerate() {
        let is_in = if i < n as usize {
            let f = keyed[i].zip_with(c, |e, t| e >= t);
            let b = *f.value();
            machine.discard(f);
            b
        } else {
            false
        };
        survivor[i] = is_in;
        indicator.push(c.with_value(u64::from(is_in)));
    }
    for c in thr_copies {
        machine.discard(c);
    }
    let idx = scan_exclusive(machine, lo, indicator, 0, &|a, b| a + b);

    // 3) Route survivors to a compact aligned segment and sort them.
    let out_lo = scratch_for(lo, zorder::next_power_of_four(k));
    let mut selected: Vec<Tracked<Keyed<T>>> = Vec::with_capacity(k as usize);
    for (i, (t, ix)) in keyed.into_iter().zip(idx).enumerate() {
        if survivor[i] {
            let slot = *ix.value();
            selected.push(machine.move_to(t, zorder::coord_of(out_lo + slot)));
        } else {
            machine.discard(t);
        }
        machine.discard(ix);
    }
    debug_assert_eq!(selected.len() as u64, k, "threshold must admit exactly k elements");
    let sorted = sort_z(machine, out_lo, selected);
    sorted.into_iter().map(|t| t.map(|kd| kd.key)).collect()
}

/// Returns the `k` smallest elements, sorted ascending (mirror of
/// [`top_k`] via reversed ordering).
pub fn bottom_k<T: Ord + Clone>(
    machine: &mut Machine,
    lo: u64,
    items: Vec<Tracked<T>>,
    k: u64,
    seed: u64,
) -> Vec<Tracked<T>> {
    // Wrap keys in a reversing adapter, take the top-k, then unwrap and
    // reverse the (ascending-in-reversed-order) output.
    #[derive(Clone, PartialEq, Eq)]
    struct Rev<T>(T);
    impl<T: Ord> Ord for Rev<T> {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            o.0.cmp(&self.0)
        }
    }
    impl<T: Ord> PartialOrd for Rev<T> {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    let wrapped: Vec<Tracked<Rev<T>>> = items.into_iter().map(|t| t.map(Rev)).collect();
    let mut out: Vec<Tracked<T>> =
        top_k(machine, lo, wrapped, k, seed).into_iter().map(|t| t.map(|r| r.0)).collect();
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::zarray::place_z;

    fn pseudo(n: usize, seed: i64) -> Vec<i64> {
        (0..n).map(|i| ((i as i64 * 2654435761 + seed) % 10007) - 5000).collect()
    }

    fn run_top_k(vals: Vec<i64>, k: u64, seed: u64) -> (Machine, Vec<i64>) {
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, vals);
        let out = top_k(&mut m, 0, items, k, seed);
        let got = out.into_iter().map(|t| t.into_value()).collect();
        (m, got)
    }

    #[test]
    fn returns_k_largest_sorted() {
        for &(n, k) in &[(64usize, 8u64), (100, 1), (256, 256), (1000, 37)] {
            let vals = pseudo(n, 3);
            let mut expect = vals.clone();
            expect.sort_unstable();
            let expect: Vec<i64> = expect[n - k as usize..].to_vec();
            let (_, got) = run_top_k(vals, k, 7);
            assert_eq!(got, expect, "n={n} k={k}");
        }
    }

    #[test]
    fn handles_duplicates_exactly_k() {
        let vals = vec![5i64; 100];
        let (_, got) = run_top_k(vals, 10, 1);
        assert_eq!(got, vec![5i64; 10]);
    }

    #[test]
    fn bottom_k_mirrors_top_k() {
        let vals = pseudo(200, 9);
        let mut expect = vals.clone();
        expect.sort_unstable();
        let expect: Vec<i64> = expect[..25].to_vec();
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, vals);
        let out = bottom_k(&mut m, 0, items, 25, 3);
        let got: Vec<i64> = out.into_iter().map(|t| t.into_value()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn cheaper_than_sorting_for_small_k() {
        let n = 4096usize;
        let vals = pseudo(n, 5);
        let (m_topk, _) = run_top_k(vals.clone(), 32, 11);
        let mut m_sort = Machine::new();
        let items = place_z(&mut m_sort, 0, vals);
        let _ = sort_z(&mut m_sort, 0, items);
        assert!(
            m_topk.energy() * 5 < m_sort.energy(),
            "top-k {} vs sort {}",
            m_topk.energy(),
            m_sort.energy()
        );
    }

    #[test]
    fn output_lands_on_a_compact_segment() {
        let (_, _) = {
            let mut m = Machine::new();
            let items = place_z(&mut m, 0, pseudo(256, 2));
            let out = top_k(&mut m, 0, items, 16, 5);
            for (i, t) in out.iter().enumerate() {
                assert_eq!(t.loc(), zorder::coord_of(i as u64), "compact placement");
            }
            (m, out)
        };
    }
}
