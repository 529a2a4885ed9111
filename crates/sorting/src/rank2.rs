//! Rank selection in two sorted arrays (paper §V-C(c), Lemma V.6).
//!
//! Given two sorted Z-segment arrays `A` and `B` and a target rank `k`
//! (1-based), determine how the `k` smallest elements of `A‖B` split between
//! the arrays. The algorithm samples every `⌊√n⌋`-th element, ranks the
//! sample with All-Pairs Sort, uses the `l`-th sample as a pivot to discard
//! all but `O(√n)` candidates per array, and finishes with an All-Pairs Sort
//! of the narrowed windows. Costs: `O(n^{5/4})` energy, `O(log n)` depth,
//! `O(√n)` distance.
//!
//! One deviation from the paper's step 4 (documented in DESIGN.md): the
//! pivot's predecessors are located with a broadcast-compare-reduce over each
//! array instead of a pointer-chasing binary search. This costs `O(n)` energy
//! (within the `O(n^{5/4})` budget) but keeps the distance at `O(√n)`, where
//! `log n` sequential round-trip probes would cost `O(√n log n)`.

use spatial_model::{Coord, Machine, Tracked};

use collectives::zseg::{broadcast_z, reduce_z};

use crate::allpairs::{allpairs_rank, scratch_for};

/// Integer square root (floor).
pub(crate) fn isqrt(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let mut x = (n as f64).sqrt() as u64;
    while (x + 1) * (x + 1) <= n {
        x += 1;
    }
    while x * x > n {
        x -= 1;
    }
    x
}

/// How the `k` smallest elements of `A‖B` split between the arrays.
///
/// `ca + cb == k`; the `k` smallest elements are exactly
/// `A[0..ca] ∪ B[0..cb]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Split {
    /// Number of the k smallest coming from `A`.
    pub ca: u64,
    /// Number of the k smallest coming from `B`.
    pub cb: u64,
}

/// Computes the rank-`k` split of two sorted arrays for every `k` in `ks`
/// (1-based, `1 ≤ k ≤ |A| + |B|`): the *multiselection* problem the paper
/// cites (\[53\]) for the merge's three quartile queries, and Lemma V.6's
/// single split at `K = 1`. One sample is gathered and all-pairs-ranked
/// once; all pivots ship in a single broadcast; only the `O(√n)`-sized
/// windows are ranked per k. Costs: `O(K·n^{5/4})` energy, `O(log n)`
/// depth, `O(√n)` distance.
///
/// `a` must be sorted ascending on the Z-segment `[a_lo, a_lo + |A|)` and
/// `b` on `[b_lo, b_lo + |B|)`. Elements across both arrays must be pairwise
/// distinct (wrap in [`crate::keyed::Keyed`]).
///
/// The number of ranks `K` is fixed at compile time, so the pivot bundle
/// and every per-element indicator are plain arrays.
pub fn multi_rank_split<P: Ord + Clone, const K: usize>(
    machine: &mut Machine,
    a: &[Tracked<P>],
    a_lo: u64,
    b: &[Tracked<P>],
    b_lo: u64,
    ks: &[u64; K],
) -> [Split; K] {
    let (na, nb) = (a.len() as u64, b.len() as u64);
    let n = na + nb;
    for &k in ks {
        assert!(k >= 1 && k <= n, "rank {k} out of range 1..={n}");
    }
    if na == 0 {
        return ks.map(|k| Split { ca: 0, cb: k });
    }
    if nb == 0 {
        return ks.map(|k| Split { ca: k, cb: 0 });
    }

    let stride = isqrt(n).max(1);
    // Window length per array; 3·stride + 4 covers the pivot-rank slack
    // (rank(S_l) ∈ [k-1-3·stride, k-1], see the lemma's proof and DESIGN.md).
    let win = 3 * stride + 4;

    // A rank skips the sampling phase when it is small enough that its
    // answer lies in the first windows anyway (the paper's case l = 0).
    let needs_pivot: [bool; K] = ks.map(|k| (k - 1) / stride != 0 && n > win);
    let exclusions: [(u64, u64); K] = if needs_pivot.contains(&true) {
        // Shared phase: sample once, rank once.
        let mut sample: Vec<Tracked<(P, u8)>> = Vec::new();
        let mut i = 0;
        while i < na {
            sample.push(a[i as usize].duplicate().map(|kd| (kd, 0u8)));
            i += stride;
        }
        let mut i = 0;
        while i < nb {
            sample.push(b[i as usize].duplicate().map(|kd| (kd, 1u8)));
            i += stride;
        }
        let s_len = sample.len() as u64;
        let bm = spatial_model::zorder::next_power_of_four(s_len);
        let scratch = scratch_for(a_lo, bm * bm);
        let ranked = allpairs_rank(machine, sample, scratch);

        // Pick every needed pivot from the one ranked sample and count all
        // predecessors with a single bundled broadcast + reduce.
        let pivots: [Option<Tracked<P>>; K] = std::array::from_fn(|j| {
            if !needs_pivot[j] {
                return None;
            }
            let l = (ks[j] - 1) / stride;
            let idx = (l - 1).min(s_len - 1);
            let pivot = ranked
                .iter()
                .find(|t| t.value().1 == idx)
                .expect("ranks form a permutation")
                .duplicate()
                .map(|(p, _)| p.0);
            Some(pivot)
        });
        for t in ranked {
            machine.discard(t);
        }
        let counts = count_leq_multi(machine, a, a_lo, b, b_lo, &pivots);
        for p in pivots.into_iter().flatten() {
            machine.discard(p);
        }
        counts
    } else {
        [(0, 0); K]
    };

    // Per-rank window phase (windows are disjoint across the quartiles).
    std::array::from_fn(|j| {
        let (ea, eb) = exclusions[j];
        window_phase(machine, a, a_lo, b, ks[j], ea, eb, win)
    })
}

/// Steps 5+6 of Lemma V.6: all-pairs-rank the two narrowed windows and count
/// how many of the `k - ea - eb` smallest come from `A`.
#[allow(clippy::too_many_arguments)]
fn window_phase<P: Ord + Clone>(
    machine: &mut Machine,
    a: &[Tracked<P>],
    a_lo: u64,
    b: &[Tracked<P>],
    k: u64,
    ea: u64,
    eb: u64,
    win: u64,
) -> Split {
    let (na, nb) = (a.len() as u64, b.len() as u64);
    debug_assert!(ea + eb < k, "pivot must rank below k: ea={ea} eb={eb} k={k}");
    let kp = k - ea - eb; // rank within the windows

    let wa_end = na.min(ea + win);
    let wb_end = nb.min(eb + win);
    let mut window: Vec<Tracked<(P, u8)>> = Vec::new();
    for i in ea..wa_end {
        window.push(a[i as usize].duplicate().map(|kd| (kd, 0u8)));
    }
    for i in eb..wb_end {
        window.push(b[i as usize].duplicate().map(|kd| (kd, 1u8)));
    }
    let w_len = window.len() as u64;
    assert!(kp <= w_len, "window too small: kp={kp} w={w_len} (k={k}, ea={ea}, eb={eb})");
    let bm = spatial_model::zorder::next_power_of_four(w_len);
    let scratch = scratch_for(a_lo, bm * bm);
    let ranked = allpairs_rank(machine, window, scratch);

    // Count A-elements among the kp smallest of the window. The indicators
    // sit on block corners spread over the scratch square; compact them onto
    // a Z-segment in one batch and reduce.
    let moves: Vec<(Tracked<u64>, Coord)> = ranked
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let indicator = t.map(|((_kd, src), rank)| u64::from(src == 0 && rank < kp));
            (indicator, spatial_model::zorder::coord_of(scratch + i as u64))
        })
        .collect();
    let compact = machine.send_batch(moves);
    let ca_win = reduce_z(machine, compact, scratch, &|x, y| x + y);
    let ca_win_val = *ca_win.value();
    machine.discard(ca_win);

    let ca = ea + ca_win_val;
    Split { ca, cb: k - ca }
}

/// Counts, for every present pivot, the `≤`-predecessors in both arrays with
/// a **single** bundled broadcast and reduce (the pivots travel together as
/// one constant-size message payload). Absent pivots count `(0, 0)`.
fn count_leq_multi<P: Ord + Clone, const K: usize>(
    machine: &mut Machine,
    a: &[Tracked<P>],
    a_lo: u64,
    b: &[Tracked<P>],
    b_lo: u64,
    pivots: &[Option<Tracked<P>>; K],
) -> [(u64, u64); K] {
    // Gather the pivot values (they sit on different block corners of the
    // ranked sample square) at the first pivot's PE and bundle them into a
    // single constant-size message payload, whose path joins every pivot's.
    let first = pivots.iter().flatten().next().expect("at least one pivot");
    let hub = first.loc();
    let mut carrier = first.with_value(());
    let mut vals: [Option<P>; K] = std::array::from_fn(|_| None);
    for (slot, p) in vals.iter_mut().zip(pivots) {
        let Some(t) = p else { continue };
        let moved = if t.loc() == hub { t.duplicate() } else { machine.send(t, hub) };
        carrier = carrier.zip_with(&moved, |(), _| ());
        *slot = Some(moved.value().clone());
        machine.discard(moved);
    }
    let bundle = carrier.map(|()| vals);
    let mut counts = [(0u64, 0u64); K];
    for (arr, lo, pick_a) in [(a, a_lo, true), (b, b_lo, false)] {
        let hi = lo + arr.len() as u64;
        let copies = broadcast_z(machine, bundle.duplicate(), lo, hi);
        let indicators: Vec<Tracked<[u64; K]>> = arr
            .iter()
            .zip(copies)
            .map(|(el, pv)| {
                let ind = el.zip_with(&pv, |e, ps| {
                    ps.each_ref().map(|p| u64::from(p.as_ref().is_some_and(|p| e <= p)))
                });
                machine.discard(pv);
                ind
            })
            .collect();
        let total = reduce_z(machine, indicators, lo, &|x: &[u64; K], y: &[u64; K]| {
            std::array::from_fn(|j| x[j] + y[j])
        });
        for (c, t) in counts.iter_mut().zip(total.value()) {
            if pick_a {
                c.0 = *t;
            } else {
                c.1 = *t;
            }
        }
        machine.discard(total);
    }
    machine.discard(bundle);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyed::Keyed;
    use collectives::zarray::place_z;

    /// Places two sorted keyed arrays on adjacent Z-segments.
    #[allow(clippy::type_complexity)]
    fn setup(
        m: &mut Machine,
        a_vals: &[i64],
        b_vals: &[i64],
        lo: u64,
    ) -> (Vec<Tracked<Keyed<i64>>>, u64, Vec<Tracked<Keyed<i64>>>, u64) {
        let a: Vec<Keyed<i64>> =
            a_vals.iter().enumerate().map(|(i, &v)| Keyed::new(v, i as u64)).collect();
        let off = a_vals.len() as u64;
        let b: Vec<Keyed<i64>> =
            b_vals.iter().enumerate().map(|(i, &v)| Keyed::new(v, off + i as u64)).collect();
        let a_items = place_z(m, lo, a);
        let b_items = place_z(m, lo + off, b);
        (a_items, lo, b_items, lo + off)
    }

    fn reference_split(a: &[i64], b: &[i64], k: u64) -> Split {
        let mut all: Vec<(i64, u64)> = a.iter().enumerate().map(|(i, &v)| (v, i as u64)).collect();
        let off = a.len() as u64;
        all.extend(b.iter().enumerate().map(|(i, &v)| (v, off + i as u64)));
        all.sort_unstable();
        let ca = all[..k as usize].iter().filter(|(_, uid)| *uid < off).count() as u64;
        Split { ca, cb: k - ca }
    }

    #[test]
    fn exhaustive_small_arrays_all_ranks() {
        let cases: Vec<(Vec<i64>, Vec<i64>)> = vec![
            (vec![1, 3, 5, 7], vec![2, 4, 6, 8]),
            (vec![1, 2, 3, 4], vec![5, 6, 7, 8]),
            (vec![5, 6, 7, 8], vec![1, 2, 3, 4]),
            (vec![1, 1, 1, 1], vec![1, 1, 1, 1]),
            (vec![3], vec![1, 2, 4, 5, 6, 7, 9]),
            (vec![], vec![1, 2, 3]),
            (vec![1, 2, 3], vec![]),
            ((0..16).map(|i| i * 2).collect(), (0..16).map(|i| i * 2 + 1).collect()),
        ];
        for (a, b) in cases {
            let n = (a.len() + b.len()) as u64;
            for k in 1..=n {
                let mut m = Machine::new();
                let (ai, alo, bi, blo) = setup(&mut m, &a, &b, 0);
                let got = multi_rank_split(&mut m, &ai, alo, &bi, blo, &[k])[0];
                let expect = reference_split(&a, &b, k);
                assert_eq!(got, expect, "a={a:?} b={b:?} k={k}");
                assert_eq!(got.ca + got.cb, k);
            }
        }
    }

    #[test]
    fn larger_arrays_random_ranks() {
        let mk = |seed: i64, n: i64, step: i64| -> Vec<i64> {
            let mut v: Vec<i64> = (0..n).map(|i| (i * step + seed) % 1000).collect();
            v.sort_unstable();
            v
        };
        for (na, nb) in [(128i64, 128i64), (256, 64), (37, 219), (200, 200)] {
            let a = mk(17, na, 13);
            let b = mk(5, nb, 29);
            let n = (na + nb) as u64;
            for k in [1u64, 2, n / 4, n / 2, 3 * n / 4, n - 1, n] {
                let mut m = Machine::new();
                let (ai, alo, bi, blo) = setup(&mut m, &a, &b, 0);
                let got = multi_rank_split(&mut m, &ai, alo, &bi, blo, &[k])[0];
                assert_eq!(got, reference_split(&a, &b, k), "na={na} nb={nb} k={k}");
            }
        }
    }

    #[test]
    fn every_rank_on_medium_arrays() {
        let a: Vec<i64> = (0..48).map(|i| i * 3).collect();
        let b: Vec<i64> = (0..80).map(|i| i * 2 + 1).collect();
        let n = 128u64;
        for k in 1..=n {
            let mut m = Machine::new();
            let (ai, alo, bi, blo) = setup(&mut m, &a, &b, 256);
            let got = multi_rank_split(&mut m, &ai, alo, &bi, blo, &[k])[0];
            assert_eq!(got, reference_split(&a, &b, k), "k={k}");
        }
    }

    #[test]
    fn energy_is_subquadratic() {
        // Lemma V.6: O(n^{5/4}) energy. 4x n → ≈ 5.7x energy; allow slack
        // but reject quadratic (16x) growth.
        let energy = |n: i64| {
            let a: Vec<i64> = (0..n).map(|i| i * 2).collect();
            let b: Vec<i64> = (0..n).map(|i| i * 2 + 1).collect();
            let mut m = Machine::new();
            let (ai, alo, bi, blo) = setup(&mut m, &a, &b, 0);
            let _ = multi_rank_split(&mut m, &ai, alo, &bi, blo, &[n as u64]);
            m.energy() as f64
        };
        let growth = energy(2048) / energy(512);
        assert!(growth < 12.0, "expected ≈5.7x growth for 4x n, got {growth:.1}x");
    }

    #[test]
    fn depth_is_logarithmic() {
        let n = 1024i64;
        let a: Vec<i64> = (0..n).map(|i| i * 3).collect();
        let b: Vec<i64> = (0..n).map(|i| i * 3 + 1).collect();
        let mut m = Machine::new();
        let (ai, alo, bi, blo) = setup(&mut m, &a, &b, 0);
        let _ = multi_rank_split(&mut m, &ai, alo, &bi, blo, &[n as u64]);
        let bound = 20 * (2.0 * n as f64).log2() as u64 + 20;
        assert!(m.report().depth <= bound, "depth {} > {bound}", m.report().depth);
    }

    #[test]
    fn multiselect_matches_individual_splits() {
        let a: Vec<i64> = (0..96).map(|i| i * 3).collect();
        let b: Vec<i64> = (0..160).map(|i| i * 2 + 1).collect();
        let n = 256u64;
        let ks = [n / 4, n / 2, 3 * n / 4];
        let mut m = Machine::new();
        let (ai, alo, bi, blo) = setup(&mut m, &a, &b, 0);
        let multi = multi_rank_split(&mut m, &ai, alo, &bi, blo, &ks);
        for (j, &k) in ks.iter().enumerate() {
            assert_eq!(multi[j], reference_split(&a, &b, k), "k={k}");
        }
    }

    #[test]
    fn multiselect_saves_energy_over_separate_calls() {
        let half = 2048i64;
        let a: Vec<i64> = (0..half).map(|i| i * 2).collect();
        let b: Vec<i64> = (0..half).map(|i| i * 2 + 1).collect();
        let n = (2 * half) as u64;
        let ks = [n / 4, n / 2, 3 * n / 4];

        let mut m1 = Machine::new();
        let (ai, alo, bi, blo) = setup(&mut m1, &a, &b, 0);
        let multi = multi_rank_split(&mut m1, &ai, alo, &bi, blo, &ks);

        let mut m2 = Machine::new();
        let (ai, alo, bi, blo) = setup(&mut m2, &a, &b, 0);
        let single = ks.map(|k| multi_rank_split(&mut m2, &ai, alo, &bi, blo, &[k])[0]);

        assert_eq!(multi, single);
        assert!(
            m1.energy() < m2.energy(),
            "shared sample must be cheaper: {} vs {}",
            m1.energy(),
            m2.energy()
        );
    }

    #[test]
    fn multiselect_handles_mixed_small_and_large_ranks() {
        let a: Vec<i64> = (0..64).map(|i| i * 5).collect();
        let b: Vec<i64> = (0..64).map(|i| i * 5 + 2).collect();
        let ks = [1u64, 2, 64, 127, 128];
        let mut m = Machine::new();
        let (ai, alo, bi, blo) = setup(&mut m, &a, &b, 0);
        let multi = multi_rank_split(&mut m, &ai, alo, &bi, blo, &ks);
        for (j, &k) in ks.iter().enumerate() {
            assert_eq!(multi[j], reference_split(&a, &b, k), "k={k}");
        }
    }

    #[test]
    fn multiselect_empty_ranks_is_empty() {
        let a: Vec<i64> = vec![1, 2];
        let b: Vec<i64> = vec![3, 4];
        let mut m = Machine::new();
        let (ai, alo, bi, blo) = setup(&mut m, &a, &b, 0);
        assert!(multi_rank_split(&mut m, &ai, alo, &bi, blo, &[]).is_empty());
    }

    #[test]
    fn isqrt_is_exact() {
        for n in 0..2000u64 {
            let r = isqrt(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "isqrt({n}) = {r}");
        }
    }
}
