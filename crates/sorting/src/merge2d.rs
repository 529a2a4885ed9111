//! The 2D merge (paper §V-C(b), Lemma V.7, Fig. 3).
//!
//! Merges two sorted arrays occupying *adjacent* Z-segments into one sorted
//! array over the union segment:
//!
//! 1. find the rank-`n/4`, `n/2`, `3n/4` splits of `A‖B` ([`crate::rank2`]);
//! 2. route every element directly to its quarter of the output segment
//!    (A-part first, then B-part, inside each quarter);
//! 3. recurse on the four quarters;
//! 4. tiny quarters finish with an odd-even transposition network.
//!
//! Because each element moves only within the current `m`-element segment
//! (diameter `O(√m)`), the per-node permutation costs `O(m^{3/2})` and the
//! recurrence `E(m) = O(m^{3/2}) + 4E(m/4)` solves to `O(m^{3/2})` — the
//! paper's bound. Depth is `O(log² m)` (a rank split per level), distance
//! `O(√m)`.

use std::sync::OnceLock;

use sortnet::Network;
use spatial_model::{zorder, Machine, Tracked};

use crate::rank2::multi_rank_split;

/// Below this size a merge (and a mergesort) finishes with a constant-cost
/// sorting network.
pub(crate) const BASE: usize = 16;

/// The odd-even transposition network of width `n ≤ BASE`, built once per
/// process and shared by the merge's and the mergesort's base cases.
pub(crate) fn base_network(n: usize) -> &'static Network {
    static NETS: OnceLock<Vec<Network>> = OnceLock::new();
    &NETS.get_or_init(|| (0..=BASE).map(sortnet::odd_even_transposition).collect())[n]
}

/// Merges sorted `a` (on `[lo, lo+|A|)`) and sorted `b` (on the adjacent
/// segment `[lo+|A|, lo+|A|+|B|)`) into a sorted array on the union segment.
///
/// Any combined length is supported (quarters are uneven by at most one
/// element when it is not divisible by four). Elements must be pairwise
/// distinct ([`crate::keyed::Keyed`] guarantees this).
pub fn merge_adjacent<P: Ord + Clone>(
    machine: &mut Machine,
    a: Vec<Tracked<P>>,
    b: Vec<Tracked<P>>,
    lo: u64,
) -> Vec<Tracked<P>> {
    let n = a.len() + b.len();
    if n == 0 {
        return Vec::new();
    }
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    if n <= BASE {
        return base_merge(machine, a, b, lo);
    }
    // Quarter boundaries ⌊i·n/4⌋ — uneven by at most one element when n is
    // not divisible by 4, which leaves the recurrence unchanged.
    let ks: [u64; 5] = [0, n as u64 / 4, n as u64 / 2, 3 * n as u64 / 4, n as u64];
    let b_lo = lo + a.len() as u64;

    // Step 1: the three quartile splits (each pair (ca, cb) says how many of
    // A's and B's leading elements belong to the first k = ks[i] outputs).
    // Solved as one multiselection: the sample is gathered and ranked once
    // and the pivots ship in a single bundled broadcast (the paper cites
    // this as the multiselection problem [53]).
    let mut ca = [0u64; 5];
    let mut cb = [0u64; 5];
    let splits = multi_rank_split(machine, &a, lo, &b, b_lo, &[ks[1], ks[2], ks[3]]);
    for (i, s) in splits.into_iter().enumerate() {
        ca[i + 1] = s.ca;
        cb[i + 1] = s.cb;
    }
    ca[4] = a.len() as u64;
    cb[4] = b.len() as u64;
    for i in 0..4 {
        assert!(ca[i] <= ca[i + 1] && cb[i] <= cb[i + 1], "splits must be monotone");
    }

    // Step 2: route each element straight to its quarter (A-part first).
    // The whole permutation is one batch of moves; `which` remembers each
    // element's quarter (0..4 for A-parts, 4..8 for B-parts).
    let (na, nb) = (a.len(), b.len());
    let mut moves: Vec<(Tracked<P>, spatial_model::Coord)> = Vec::with_capacity(n);
    let mut which: Vec<usize> = Vec::with_capacity(n);
    for (j, el) in a.into_iter().enumerate() {
        let j = j as u64;
        let i = (0..4).find(|&i| j < ca[i + 1]).expect("within bounds");
        let dst = lo + ks[i] + (j - ca[i]);
        moves.push((el, zorder::coord_of(dst)));
        which.push(i);
    }
    for (j, el) in b.into_iter().enumerate() {
        let j = j as u64;
        let i = (0..4).find(|&i| j < cb[i + 1]).expect("within bounds");
        let a_part = ca[i + 1] - ca[i];
        let dst = lo + ks[i] + a_part + (j - cb[i]);
        moves.push((el, zorder::coord_of(dst)));
        which.push(4 + i);
    }
    let mut quarter_a: [Vec<Tracked<P>>; 4] = Default::default();
    let mut quarter_b: [Vec<Tracked<P>>; 4] = Default::default();
    for (q, el) in which.into_iter().zip(machine.send_batch(moves)) {
        if q < 4 {
            quarter_a[q].push(el);
        } else {
            quarter_b[q - 4].push(el);
        }
    }
    debug_assert_eq!(quarter_a.iter().map(Vec::len).sum::<usize>(), na);
    debug_assert_eq!(quarter_b.iter().map(Vec::len).sum::<usize>(), nb);

    // Step 3: recurse; concatenating the sorted quarters sorts the segment.
    let mut out = Vec::with_capacity(n);
    for (i, (qa, qb)) in quarter_a.into_iter().zip(quarter_b).enumerate() {
        out.extend(merge_adjacent(machine, qa, qb, lo + ks[i]));
    }
    out
}

/// Constant-size base case: odd-even transposition over the segment cells.
fn base_merge<P: Ord + Clone>(
    machine: &mut Machine,
    a: Vec<Tracked<P>>,
    b: Vec<Tracked<P>>,
    lo: u64,
) -> Vec<Tracked<P>> {
    let items: Vec<Tracked<P>> = a.into_iter().chain(b).collect();
    // The inputs already occupy [lo, lo+n) contiguously (A then B).
    for (i, it) in items.iter().enumerate() {
        debug_assert_eq!(it.loc(), zorder::coord_of(lo + i as u64));
    }
    sortnet::run_on_coords(machine, base_network(items.len()), items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyed::Keyed;
    use collectives::zarray::place_z;

    fn keyed(vals: &[i64], uid0: u64) -> Vec<Keyed<i64>> {
        vals.iter().enumerate().map(|(i, &v)| Keyed::new(v, uid0 + i as u64)).collect()
    }

    fn run_merge(a: Vec<i64>, b: Vec<i64>, lo: u64) -> (Machine, Vec<i64>) {
        let mut m = Machine::new();
        let ka = keyed(&a, 0);
        let kb = keyed(&b, a.len() as u64);
        let ia = place_z(&mut m, lo, ka);
        let ib = place_z(&mut m, lo + a.len() as u64, kb);
        let out = merge_adjacent(&mut m, ia, ib, lo);
        // Output must be sorted AND sit on consecutive Z-cells.
        for (i, t) in out.iter().enumerate() {
            assert_eq!(t.loc(), zorder::coord_of(lo + i as u64), "output cell {i}");
        }
        let vals: Vec<i64> = out.iter().map(|t| t.value().key).collect();
        (m, vals)
    }

    fn sorted_union(a: &[i64], b: &[i64]) -> Vec<i64> {
        let mut v: Vec<i64> = a.iter().chain(b.iter()).copied().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn merges_equal_halves() {
        for side in [8i64, 32, 128, 512] {
            let a: Vec<i64> = (0..side).map(|i| i * 2).collect();
            let b: Vec<i64> = (0..side).map(|i| i * 2 + 1).collect();
            let expect = sorted_union(&a, &b);
            let (_, got) = run_merge(a, b, 0);
            assert_eq!(got, expect, "side {side}");
        }
    }

    #[test]
    fn merges_disjoint_ranges() {
        let a: Vec<i64> = (0..64).collect();
        let b: Vec<i64> = (64..128).collect();
        let expect = sorted_union(&a, &b);
        let (_, got) = run_merge(a.clone(), b.clone(), 0);
        assert_eq!(got, expect);
        let (_, got) = run_merge(b, a, 0);
        assert_eq!(got, expect);
    }

    #[test]
    fn merges_with_duplicates() {
        let a = vec![1i64; 32];
        let b = vec![1i64; 32];
        let (_, got) = run_merge(a, b, 0);
        assert_eq!(got, vec![1i64; 64]);
    }

    #[test]
    fn merges_interleaved_patterns() {
        let mut a: Vec<i64> = (0..96).map(|i| (i * 37) % 251).collect();
        let mut b: Vec<i64> = (0..160).map(|i| (i * 91 + 7) % 251).collect();
        a.sort_unstable();
        b.sort_unstable();
        let expect = sorted_union(&a, &b);
        let (_, got) = run_merge(a, b, 0);
        assert_eq!(got, expect);
    }

    #[test]
    fn merge_on_offset_segment() {
        let a: Vec<i64> = (0..32).map(|i| i * 3).collect();
        let b: Vec<i64> = (0..32).map(|i| i * 3 + 1).collect();
        let expect = sorted_union(&a, &b);
        let (_, got) = run_merge(a, b, 192);
        assert_eq!(got, expect);
    }

    #[test]
    fn merge_energy_scales_as_n_sqrt_n() {
        // Lemma V.7: O(n^{3/2}): 4x n → ≈8x energy; reject ≥ n² growth.
        let energy = |half: i64| {
            let a: Vec<i64> = (0..half).map(|i| i * 2).collect();
            let b: Vec<i64> = (0..half).map(|i| i * 2 + 1).collect();
            let (m, _) = run_merge(a, b, 0);
            m.energy() as f64
        };
        let growth = energy(2048) / energy(512);
        assert!(growth > 5.0 && growth < 14.0, "expected ≈8x growth for 4x n, got {growth:.1}x");
    }

    #[test]
    fn merge_depth_is_polylog() {
        let half = 2048i64;
        let a: Vec<i64> = (0..half).map(|i| i * 2).collect();
        let b: Vec<i64> = (0..half).map(|i| i * 2 + 1).collect();
        let (m, _) = run_merge(a, b, 0);
        let log = (2.0 * half as f64).log2();
        let bound = (25.0 * log * log) as u64;
        assert!(m.report().depth <= bound, "depth {} > {bound}", m.report().depth);
    }

    #[test]
    fn merge_distance_is_order_sqrt_n() {
        let half = 2048i64;
        let a: Vec<i64> = (0..half).map(|i| i * 2).collect();
        let b: Vec<i64> = (0..half).map(|i| i * 2 + 1).collect();
        let (m, _) = run_merge(a, b, 0);
        let bound = 60 * ((2 * half) as f64).sqrt() as u64;
        assert!(m.report().distance <= bound, "distance {} > {bound}", m.report().distance);
    }
}
