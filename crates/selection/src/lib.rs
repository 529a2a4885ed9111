//! # Randomized rank selection (paper §VI, Theorem VI.3)
//!
//! Selects the rank-`k` element of `n` inputs with **linear energy**,
//! `O(log² n)` depth and `O(√n)` distance, with high probability — a
//! polynomial energy separation from sorting (`Θ(n^{3/2})`).
//!
//! Each iteration samples every active element independently with probability
//! `c·N^{-1/2}`, compacts the sample into a small square (scan + route),
//! sorts it with a Bitonic network, picks two pivots whose sample ranks
//! bracket `k` with high probability (Lemma VI.1), broadcasts them, counts
//! and deactivates everything outside the pivot interval (Lemma VI.2 shows
//! `N_{t+1} ≲ N_t^{3/4}·√ln n`, so `O(1)` iterations suffice), and flips the
//! comparison order whenever `k` passes the midpoint. If a pivot check fails
//! — probability `O(n^{-c/6})` — the algorithm falls back to a full 2D
//! Mergesort, preserving correctness.
//!
//! All randomness comes from a caller-provided seed, so runs (and their
//! exact model costs) are reproducible. [`SelectionStats`] exposes the
//! active-count trajectory, sample sizes and fallback count for the
//! Lemma VI.2 experiments.

use spatial_rng::Rng;

use spatial_model::{zorder, Machine, Tracked};

use collectives::scan::scan_exclusive;
use collectives::zarray::place_z;
use collectives::zseg::{broadcast_z, reduce_z};
use sorting::keyed::Keyed;
use sorting::mergesort::sort_z;

/// Telemetry from one selection run.
#[derive(Clone, Debug, Default)]
pub struct SelectionStats {
    /// Active-element count before each iteration (starts at `n`).
    pub active_trajectory: Vec<u64>,
    /// Sample size drawn in each iteration.
    pub sample_sizes: Vec<u64>,
    /// Number of sampling iterations executed.
    pub iterations: usize,
    /// 1 if the algorithm resorted to the sort-everything fallback.
    pub fallbacks: u32,
    /// Number of comparator flips (`k` crossed the midpoint).
    pub flips: u32,
}

/// The default sampling constant `c ≥ 3` of §VI.
pub const C: f64 = 3.0;

/// Tuning knobs for [`select_rank_cfg`].
#[derive(Clone, Copy, Debug)]
pub struct SelectionConfig {
    /// The §VI sampling constant: larger `c` draws bigger samples, lowering
    /// the pivot-failure probability (`O(n^{-c/6})`, Lemma VI.1) at the cost
    /// of proportionally more sampling energy. The paper requires `c ≥ 3`.
    pub c: f64,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig { c: C, seed: 0 }
    }
}

/// Selects the rank-`k` smallest element (`k` 1-based) of `items`, which
/// occupy the Z-segment `[lo, lo + n)` (`lo` aligned to the padded length).
///
/// Returns the selected element (resident wherever the final gather placed
/// it) together with run telemetry.
pub fn select_rank<T: Ord + Clone + Send + Sync>(
    machine: &mut Machine,
    lo: u64,
    items: Vec<Tracked<T>>,
    k: u64,
    seed: u64,
) -> (Tracked<T>, SelectionStats) {
    select_rank_cfg(machine, lo, items, k, SelectionConfig { c: C, seed })
}

/// [`select_rank`] with explicit tuning (used by the `c`-ablation bench).
pub fn select_rank_cfg<T: Ord + Clone + Send + Sync>(
    machine: &mut Machine,
    lo: u64,
    items: Vec<Tracked<T>>,
    k: u64,
    cfg: SelectionConfig,
) -> (Tracked<T>, SelectionStats) {
    let n = items.len() as u64;
    assert!(n > 0, "selection on an empty array");
    assert!(k >= 1 && k <= n, "rank {k} out of range 1..={n}");
    assert!(cfg.c >= 1.0, "sampling constant must be at least 1");
    let padded = zorder::next_power_of_four(n);
    assert_eq!(lo % padded, 0, "segment must be aligned to its padded length");

    let c = cfg.c;
    // Domain-separated stream: callers habitually reuse one seed for both
    // the input generator and the algorithm. With the raw seed, this RNG
    // would replay the exact draws that produced the data, and since
    // `gen_bool` and `gen_range` both key off the high bits of `next_u64`,
    // the Bernoulli "uniform" sample would degenerate to the ~p·n smallest
    // elements — pivots then never bracket the target rank and every run
    // takes the sort fallback. Salting decorrelates the streams while
    // keeping the run deterministic in `cfg.seed`.
    let mut rng = Rng::stream(cfg.seed, 0x005E_1EC7);
    let mut stats = SelectionStats::default();

    // Wrap keys with uids for a strict total order; `active[i]` mirrors the
    // activity flag resident at each element's PE.
    let elems: Vec<Tracked<Keyed<T>>> = items
        .into_iter()
        .enumerate()
        .map(|(i, t)| t.map(|key| Keyed::new(key, i as u64)))
        .collect();
    let mut active: Vec<bool> = vec![true; n as usize];
    let mut big_n = n;
    let mut k = k;
    let mut flipped = false;
    // Paper §VI: w.l.o.g. k ≤ ⌈n/2⌉ — select the (n+1−k)-th under the
    // reversed comparator otherwise.
    if k > n.div_ceil(2) {
        k = n + 1 - k;
        flipped = true;
        stats.flips += 1;
    }

    let threshold = (c * (n as f64).sqrt()).ceil() as u64;
    let ln_n = (n.max(2) as f64).ln();

    while big_n > threshold.max(4) {
        stats.active_trajectory.push(big_n);
        stats.iterations += 1;

        // Step 1: Bernoulli(c/√N) sampling at each active PE (local).
        let p = (c / (big_n as f64).sqrt()).min(1.0);
        let sampled: Vec<bool> = active.iter().map(|&a| a && rng.gen_bool(p)).collect();
        let s_len = sampled.iter().filter(|&&s| s).count() as u64;
        stats.sample_sizes.push(s_len);
        if s_len == 0 {
            continue; // empty sample: redraw (vanishing probability)
        }

        // Step 2: scan assigns each sampled element its index; route the
        // sample into a compact aligned square next to the data.
        let mut indicator: Vec<Tracked<u64>> =
            elems.iter().enumerate().map(|(i, t)| t.with_value(u64::from(sampled[i]))).collect();
        indicator.extend(machine.place_batch(vec![0u64; (padded - n) as usize], |i| {
            zorder::coord_of(lo + n + i as u64)
        }));
        let idx = scan_exclusive(machine, lo, indicator, 0, &|a, b| a + b);
        let s_pad = zorder::next_power_of_four(s_len);
        let g_lo = sorting::allpairs::scratch_for(lo, s_pad);
        let mut sample_sends: Vec<(Tracked<Keyed<T>>, spatial_model::Coord)> =
            Vec::with_capacity(s_len as usize);
        for (i, ix) in idx.into_iter().enumerate() {
            if i < n as usize && sampled[i] {
                let slot = *ix.value();
                sample_sends.push((elems[i].duplicate(), zorder::coord_of(g_lo + slot)));
            }
            machine.discard(ix);
        }
        let sample = machine.send_batch(sample_sends);

        // Step 3: Bitonic-sort the sample under the effective order and read
        // off the two pivots by rank.
        let sorted = bitonic_sort_z(machine, g_lo, sample, flipped);
        let (r_rank, l_rank) = pivot_ranks(big_n, k, s_len, ln_n, c);
        let s_r = sorted[(r_rank - 1) as usize].duplicate();
        let s_l = l_rank.map(|l| sorted[(l - 1) as usize].duplicate());
        for t in sorted {
            machine.discard(t);
        }

        // Step 4: broadcast the pivots over the input segment.
        let r_copies = broadcast_z(machine, s_r, lo, lo + padded);
        let l_copies = s_l.map(|sl| broadcast_z(machine, sl, lo, lo + padded));

        // Step 5: count active elements outside [s_l, s_r] (reduce).
        let mut below = vec![false; n as usize];
        let mut above = vec![false; n as usize];
        let mut outside: Vec<Tracked<(u64, u64)>> = Vec::with_capacity(padded as usize);
        for i in 0..padded as usize {
            let rc = &r_copies[i];
            let is_above = if i < n as usize && active[i] {
                let v = elems[i].zip_with(rc, |e, r| eff_lt(r, e, flipped));
                let b = *v.value();
                machine.discard(v);
                b
            } else {
                false
            };
            let is_below = match &l_copies {
                Some(lc) if i < n as usize && active[i] => {
                    let v = elems[i].zip_with(&lc[i], |e, l| eff_lt(e, l, flipped));
                    let b = *v.value();
                    machine.discard(v);
                    b
                }
                _ => false,
            };
            if i < n as usize {
                below[i] = is_below;
                above[i] = is_above;
            }
            outside.push(rc.with_value((u64::from(is_below), u64::from(is_above))));
        }
        for c in r_copies {
            machine.discard(c);
        }
        if let Some(lc) = l_copies {
            for c in lc {
                machine.discard(c);
            }
        }
        let counts = reduce_z(machine, outside, lo, &|a, b| (a.0 + b.0, a.1 + b.1));
        let (n_below, n_above) = *counts.value();
        machine.discard(counts);

        // Pivot failure (Lemma VI.1): fall back to sorting everything.
        if n_below >= k || n_above >= big_n - k {
            stats.fallbacks += 1;
            stats.active_trajectory.push(big_n);
            return (finish_by_sorting(machine, lo, elems, &active, k, flipped), stats);
        }

        // Step 6: deactivate everything outside the pivot interval.
        k -= n_below;
        for i in 0..n as usize {
            if below[i] || above[i] {
                active[i] = false;
            }
        }
        big_n -= n_below + n_above;
        debug_assert_eq!(big_n, active.iter().filter(|&&a| a).count() as u64);

        // Step 7: keep k in the lower half by flipping the comparator.
        if k > big_n.div_ceil(2) {
            k = big_n + 1 - k;
            flipped = !flipped;
            stats.flips += 1;
        }
    }
    stats.active_trajectory.push(big_n);

    (finish_by_sorting(machine, lo, elems, &active, k, flipped), stats)
}

/// Effective order: `a < b`, reversed when `flipped`.
fn eff_lt<P: Ord>(a: &P, b: &P, flipped: bool) -> bool {
    if flipped {
        b < a
    } else {
        a < b
    }
}

/// The 1-based sample ranks of the upper/lower pivots (§VI step 3).
///
/// Upper pivot rank `r = min(|S|, c·k/√N + (c/2)·N^{1/4}·√ln n)`; the lower
/// pivot exists only when `k ≥ ½·N^{3/4}·√ln n` and has rank
/// `l = c·k/√N − (c/2)·N^{1/4}·√ln n` (dummy `-∞` otherwise).
fn pivot_ranks(big_n: u64, k: u64, s_len: u64, ln_n: f64, c: f64) -> (u64, Option<u64>) {
    let nf = big_n as f64;
    let center = c * k as f64 / nf.sqrt();
    let spread = 0.5 * c * nf.powf(0.25) * ln_n.sqrt();
    let r = (center + spread).ceil().max(1.0) as u64;
    let r = r.min(s_len);
    let l = if (k as f64) >= 0.5 * nf.powf(0.75) * ln_n.sqrt() {
        let l = (center - spread).floor() as i64;
        (l >= 1).then_some((l as u64).min(s_len))
    } else {
        None
    };
    (r, l)
}

/// Bitonic sort of a sample resident on the Z-segment `[lo, lo+len)` under
/// the (possibly flipped) effective order. Pads to a power of two with
/// effective `+∞` sentinels.
fn bitonic_sort_z<T: Ord + Clone + Send + Sync>(
    machine: &mut Machine,
    lo: u64,
    sample: Vec<Tracked<Keyed<T>>>,
    flipped: bool,
) -> Vec<Tracked<Keyed<T>>> {
    // Wrap in a flip-aware ordering so the data-oblivious network sorts the
    // effective order directly; sentinels sort to the tail either way.
    #[derive(Clone, PartialEq, Eq)]
    enum W<T> {
        Val(bool, Keyed<T>), // (flipped, key)
        Inf(u64),
    }
    impl<T: Ord> Ord for W<T> {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            match (self, o) {
                (W::Inf(a), W::Inf(b)) => a.cmp(b),
                (W::Inf(_), W::Val(..)) => std::cmp::Ordering::Greater,
                (W::Val(..), W::Inf(_)) => std::cmp::Ordering::Less,
                (W::Val(f, a), W::Val(_, b)) => {
                    if *f {
                        b.cmp(a)
                    } else {
                        a.cmp(b)
                    }
                }
            }
        }
    }
    impl<T: Ord> PartialOrd for W<T> {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }

    let len = sample.len();
    let padded = (len as u64).next_power_of_two();
    let mut wires: Vec<Tracked<W<T>>> =
        sample.into_iter().map(|t| t.map(|kd| W::Val(flipped, kd))).collect();
    wires.extend(machine.place_batch((len as u64..padded).map(W::Inf).collect(), |i| {
        zorder::coord_of(lo + len as u64 + i as u64)
    }));
    let net = sortnet::bitonic_sort(padded as usize);
    let out = sortnet::run_on_coords(machine, &net, wires);
    let mut res = Vec::with_capacity(len);
    for t in out {
        match t.value() {
            W::Val(..) => res.push(t.map(|w| match w {
                W::Val(_, kd) => kd,
                W::Inf(_) => unreachable!(),
            })),
            W::Inf(_) => machine.discard(t),
        }
    }
    res
}

/// Terminal phase (and pivot-failure fallback): gather the active elements
/// into a compact segment, 2D-mergesort them, and pick the k-th under the
/// effective order.
fn finish_by_sorting<T: Ord + Clone + Send + Sync>(
    machine: &mut Machine,
    lo: u64,
    elems: Vec<Tracked<Keyed<T>>>,
    active: &[bool],
    k: u64,
    flipped: bool,
) -> Tracked<T> {
    let mut survivors: Vec<Tracked<Keyed<T>>> = Vec::new();
    for (i, t) in elems.into_iter().enumerate() {
        if active[i] {
            survivors.push(t);
        } else {
            machine.discard(t);
        }
    }
    let m = survivors.len() as u64;
    debug_assert!(k >= 1 && k <= m);
    // Compact into an aligned segment near the data, then sort (normal
    // order) and convert the flipped rank.
    let g_lo = sorting::allpairs::scratch_for(lo, zorder::next_power_of_four(m));
    let compact: Vec<Tracked<Keyed<T>>> = machine.send_batch(
        survivors
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let dst = zorder::coord_of(g_lo + i as u64);
                (t, dst)
            })
            .collect(),
    );
    let sorted = sort_z(machine, g_lo, compact);
    let idx = if flipped { m - k } else { k - 1 };
    let mut res = None;
    for (i, t) in sorted.into_iter().enumerate() {
        if i as u64 == idx {
            res = Some(t.map(|kd| kd.key));
        } else {
            machine.discard(t);
        }
    }
    res.expect("rank within bounds")
}

/// Selects multiple quantiles of the same array (the "nonparametric
/// statistics" use-case of §VI's opening \[54\]).
///
/// `qs` are fractions in `(0, 1]`; quantile `q` maps to rank `⌈q·n⌉`.
/// Each quantile runs one (independent) §VI selection over duplicated
/// inputs, so the total energy is `O(|qs|·n)` — still polynomially below
/// one full sort for constant `|qs|`.
pub fn quantiles<T: Ord + Clone + Send + Sync>(
    machine: &mut Machine,
    lo: u64,
    items: &[Tracked<T>],
    qs: &[f64],
    seed: u64,
) -> Vec<(f64, T)> {
    let n = items.len() as u64;
    assert!(n > 0);
    qs.iter()
        .enumerate()
        .map(|(i, &q)| {
            assert!(q > 0.0 && q <= 1.0, "quantile {q} out of (0, 1]");
            let k = ((q * n as f64).ceil() as u64).clamp(1, n);
            let dup: Vec<Tracked<T>> = items.iter().map(|t| t.duplicate()).collect();
            let (v, _) = select_rank(machine, lo, dup, k, seed.wrapping_add(i as u64));
            (q, v.into_value())
        })
        .collect()
}

/// Convenience wrapper: selects the median (upper median for even `n`).
pub fn select_median<T: Ord + Clone + Send + Sync>(
    machine: &mut Machine,
    lo: u64,
    items: Vec<Tracked<T>>,
    seed: u64,
) -> (Tracked<T>, SelectionStats) {
    let k = (items.len() as u64).div_ceil(2);
    select_rank(machine, lo, items, k, seed)
}

/// Places values on `[lo, lo+n)` and selects rank `k` — the one-call API
/// used by examples and benches.
///
/// ```
/// use spatial_model::Machine;
/// use selection::select_rank_values;
///
/// let mut m = Machine::new();
/// let vals: Vec<i64> = (0..100).map(|i| (i * 37) % 101).collect();
/// let (third_smallest, stats) = select_rank_values(&mut m, 0, vals, 3, 42);
/// assert_eq!(third_smallest, 2);
/// assert_eq!(stats.fallbacks, 0);
/// ```
pub fn select_rank_values<T: Ord + Clone + Send + Sync>(
    machine: &mut Machine,
    lo: u64,
    values: Vec<T>,
    k: u64,
    seed: u64,
) -> (T, SelectionStats) {
    let items = place_z(machine, lo, values);
    let (t, stats) = select_rank(machine, lo, items, k, seed);
    (t.into_value(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: i64) -> Vec<i64> {
        (0..n).map(|i| ((i as i64 * 2654435761 + seed) % 100003) - 50000).collect()
    }

    fn reference_kth(vals: &[i64], k: u64) -> i64 {
        let mut v = vals.to_vec();
        v.sort_unstable();
        v[(k - 1) as usize]
    }

    #[test]
    fn selects_exact_rank_small() {
        for n in [1usize, 2, 5, 16, 64] {
            let vals = pseudo(n, 3);
            for k in 1..=n as u64 {
                let mut m = Machine::new();
                let (got, _) = select_rank_values(&mut m, 0, vals.clone(), k, 99);
                assert_eq!(got, reference_kth(&vals, k), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn selects_median_of_large_arrays_multiple_seeds() {
        for &n in &[1024usize, 4096] {
            let vals = pseudo(n, 7);
            let k = (n as u64) / 2;
            let expect = reference_kth(&vals, k);
            for seed in 0..5u64 {
                let mut m = Machine::new();
                let (got, stats) = select_rank_values(&mut m, 0, vals.clone(), k, seed);
                assert_eq!(got, expect, "n={n} seed={seed}");
                assert!(stats.iterations <= 8, "too many iterations: {}", stats.iterations);
            }
        }
    }

    #[test]
    fn selects_extreme_ranks() {
        let n = 4096usize;
        let vals = pseudo(n, 11);
        for &k in &[1u64, 2, 100, n as u64 - 1, n as u64] {
            let mut m = Machine::new();
            let (got, _) = select_rank_values(&mut m, 0, vals.clone(), k, 5);
            assert_eq!(got, reference_kth(&vals, k), "k={k}");
        }
    }

    #[test]
    fn handles_heavy_duplicates() {
        let n = 1024usize;
        let vals: Vec<i64> = (0..n).map(|i| (i % 3) as i64).collect();
        for &k in &[1u64, 341, 342, 512, 683, 1024] {
            let mut m = Machine::new();
            let (got, _) = select_rank_values(&mut m, 0, vals.clone(), k, 1);
            assert_eq!(got, reference_kth(&vals, k), "k={k}");
        }
    }

    #[test]
    fn energy_is_near_linear() {
        // Theorem VI.3: O(n) energy (vs Θ(n^{3/2}) for sorting). 4x n should
        // give ≈4x energy; reject 8x (the sorting rate).
        let energy = |n: usize| {
            let vals = pseudo(n, 13);
            let mut m = Machine::new();
            let (_, stats) = select_rank_values(&mut m, 0, vals, n as u64 / 2, 7);
            assert_eq!(stats.fallbacks, 0, "fallback would skew the energy reading");
            m.energy() as f64
        };
        let growth = energy(16384) / energy(4096);
        assert!(growth < 6.5, "expected ≈4x energy for 4x n, got {growth:.1}x");
    }

    #[test]
    fn active_count_collapses_per_lemma() {
        // Lemma VI.2: N_{t+1} ≤ (1+ε)·N_t^{3/4}·√ln n w.h.p.
        let n = 16384usize;
        let vals = pseudo(n, 17);
        let mut m = Machine::new();
        let (_, stats) = select_rank_values(&mut m, 0, vals, n as u64 / 2, 23);
        let ln_n = (n as f64).ln();
        for w in stats.active_trajectory.windows(2) {
            let bound = 2.0 * (w[0] as f64).powf(0.75) * ln_n.sqrt() + 2.0 * C * (n as f64).sqrt();
            assert!((w[1] as f64) <= bound, "N went {} -> {} exceeding {bound:.0}", w[0], w[1]);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let vals = pseudo(1024, 29);
        let run = |seed| {
            let mut m = Machine::new();
            let (v, stats) = select_rank_values(&mut m, 0, vals.clone(), 300, seed);
            (v, m.report(), stats.iterations)
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn quantiles_match_order_statistics() {
        let n = 2048usize;
        let vals = pseudo(n, 31);
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        let mut m = Machine::new();
        let items = collectives::zarray::place_z(&mut m, 0, vals);
        let got = quantiles(&mut m, 0, &items, &[0.25, 0.5, 0.75, 1.0], 5);
        for (q, v) in got {
            let k = ((q * n as f64).ceil() as usize).clamp(1, n);
            assert_eq!(v, sorted[k - 1], "q = {q}");
        }
    }

    #[test]
    #[should_panic(expected = "out of (0, 1]")]
    fn quantiles_reject_zero() {
        let mut m = Machine::new();
        let items = collectives::zarray::place_z(&mut m, 0, vec![1i64, 2, 3, 4]);
        let _ = quantiles(&mut m, 0, &items, &[0.0], 1);
    }

    #[test]
    fn sorted_and_reverse_inputs() {
        let n = 1024usize;
        let asc: Vec<i64> = (0..n as i64).collect();
        let desc: Vec<i64> = (0..n as i64).rev().collect();
        for vals in [asc, desc] {
            let mut m = Machine::new();
            let (got, _) = select_rank_values(&mut m, 0, vals.clone(), 700, 3);
            assert_eq!(got, reference_kth(&vals, 700));
        }
    }

    #[test]
    fn select_rank_memory_stays_constant_per_pe() {
        // The sample sort, the pivot broadcasts and counting reductions, and
        // the 2D mergesort of the survivors keep O(1) words per PE. Must not
        // grow with n.
        for n in [16usize, 64, 256, 1024] {
            let mut m = Machine::new();
            m.enable_memory_meter();
            let items = collectives::zarray::place_z(&mut m, 0, pseudo(n, 13));
            let _ = select_rank(&mut m, 0, items, (n / 2) as u64, 7);
            let peak = m.memory().unwrap().peak();
            assert!(peak <= 4, "n = {n}: peak {peak}");
        }
    }
}
