//! The energy-optimal parallel scan (paper §IV.C, Lemma IV.3).
//!
//! Input: an array of `n` elements (n a power of four) stored along the
//! Z-order curve of a `√n × √n` subgrid. The scan runs an **up-sweep**
//! (computing quadrant partial sums along a 4-ary summation tree whose height-
//! `i` subtree root sits at the `i`-th Z-order position of its subgrid) and a
//! **down-sweep** (passing exclusive prefixes down to the quadrants), exactly
//! as in Fig. 1. Costs: `O(n)` energy, `O(log n)` depth, `O(√n)` distance.
//!
//! The operator only needs to be associative; the inclusive scan never
//! requires an identity element (the carried prefix is `Option`al).
//!
//! On a bare machine the whole block runs as the closed-form level kernel
//! [`Machine::scan_block`]. With any instrument armed, the per-node sweeps
//! below run instead, so instruments observe every message; both paths
//! report identical costs, results and paths.

use spatial_model::{zorder, Machine, Tracked};

/// The instrumented path's 4-ary summation tree in arena form: `levels[l]`
/// holds the subtree sums of every block of `4^l` leaves, in block order
/// (`levels[h]` is the root sum; `levels[0]` stays empty — the one-element
/// subtree sums *are* the leaves, which both sweeps read in place). The
/// slots are `Option` so the down-sweep can consume each sum exactly once.
///
/// Compared to a boxed node-per-subtree tree this allocates one `Vec` per
/// *level* instead of a `Box` plus scratch `Vec`s per *node* (~`n/3` heap
/// allocations saved), which is what makes the sweep allocation-free on its
/// hot path. The message DAG is unchanged — same sends, same dependencies —
/// so every reported cost is bit-identical to the recursive form.
struct SumLevels<T> {
    levels: Vec<Vec<Option<Tracked<T>>>>,
}

/// Inclusive scan of `items` (element `i` at global Z-index `lo + i`) under
/// the associative operator `op`. Result `i` — `A_0 ∘ … ∘ A_i` — is returned
/// at the same Z-position as input `i`.
///
/// ```
/// use spatial_model::Machine;
/// use collectives::{place_z, read_values, scan};
///
/// let mut m = Machine::new();
/// let items = place_z(&mut m, 0, vec![1i64, 2, 3, 4]);
/// let sums = read_values(scan(&mut m, 0, items, &|a, b| a + b));
/// assert_eq!(sums, vec![1, 3, 6, 10]);
/// assert!(m.energy() > 0); // the up/down sweeps sent real messages
/// ```
///
/// # Panics
/// Panics if `items.len()` is not a power of four, if `lo` is not aligned to
/// the array length, or if items are not resident at their Z-positions.
pub fn scan<T: Clone>(
    machine: &mut Machine,
    lo: u64,
    items: Vec<Tracked<T>>,
    op: &impl Fn(&T, &T) -> T,
) -> Vec<Tracked<T>> {
    let n = items.len() as u64;
    assert!(zorder::is_power_of_four(n), "scan input must be a power of 4 (pad if needed)");
    assert_eq!(lo % n, 0, "scan segment must be aligned so quadrants are square subgrids");
    if machine.is_bare() {
        let mut items = items;
        machine.scan_block(lo, &mut items, None, op);
        return items;
    }
    // Per-item placement validation is a debug assertion (as in the bare
    // kernel): it is O(n) pure overhead on the hot path, and the test
    // profile keeps debug assertions on, so misplaced inputs still fail
    // loudly everywhere it matters.
    if cfg!(debug_assertions) {
        for (i, it) in items.iter().enumerate() {
            debug_assert_eq!(
                it.loc(),
                zorder::coord_of(lo + i as u64),
                "item {i} off its Z-position"
            );
        }
    }
    let sums = up_sweep(machine, lo, n, &items, op);
    down_sweep(machine, lo, n, sums, None, items, op)
}

/// Exclusive scan: result `i` is `identity ∘ A_0 ∘ … ∘ A_{i-1}`; result `0`
/// is `identity`.
pub fn scan_exclusive<T: Clone>(
    machine: &mut Machine,
    lo: u64,
    items: Vec<Tracked<T>>,
    identity: T,
    op: &impl Fn(&T, &T) -> T,
) -> Vec<Tracked<T>> {
    // Shift trick: run the inclusive machinery but emit the carried prefix
    // (or identity) at each leaf instead of combining with the leaf value.
    let n = items.len() as u64;
    assert!(zorder::is_power_of_four(n));
    assert_eq!(lo % n, 0);
    if machine.is_bare() {
        let mut items = items;
        machine.scan_block(lo, &mut items, Some(&identity), op);
        return items;
    }
    let sums = up_sweep(machine, lo, n, &items, op);
    down_sweep(machine, lo, n, sums, Some(&identity), items, op)
}

/// Inclusive scan over a Z-segment of **arbitrary** length (extension
/// beyond the paper's power-of-four assumption, documented in DESIGN.md).
///
/// The segment `[lo, lo+n)` decomposes into `O(log n)` aligned power-of-four
/// blocks; each block runs the energy-optimal [`scan`], the block totals are
/// gathered at the first cell where the carries are formed locally, and each
/// carry is broadcast over its block and folded in. Costs: `O(n)` energy,
/// `O(log n)` depth, `O(√n)` distance — the Lemma IV.3 bounds without the
/// padding.
pub fn scan_any<T: Clone>(
    machine: &mut Machine,
    lo: u64,
    items: Vec<Tracked<T>>,
    op: &impl Fn(&T, &T) -> T,
) -> Vec<Tracked<T>> {
    let n = items.len() as u64;
    if n == 0 {
        return items;
    }
    if zorder::is_power_of_four(n) && lo.is_multiple_of(n) {
        return scan(machine, lo, items, op);
    }
    let blocks = zorder::aligned_blocks(lo, lo + n);
    // Per-block scans.
    let mut scanned: Vec<Vec<Tracked<T>>> = Vec::with_capacity(blocks.len());
    let mut iter = items.into_iter();
    for &(start, len) in &blocks {
        let chunk: Vec<Tracked<T>> = iter.by_ref().take(len as usize).collect();
        scanned.push(scan(machine, start, chunk, op));
    }
    // Gather the block totals at the segment's first cell and form the
    // exclusive block carries locally.
    let hub = zorder::coord_of(lo);
    let gathers: Vec<(&Tracked<T>, spatial_model::Coord)> =
        scanned.iter().map(|blk| (blk.last().expect("non-empty block"), hub)).collect();
    let totals: Vec<Tracked<T>> = machine.send_batch_copy(&gathers);
    drop(gathers);
    let mut carries: Vec<Option<Tracked<T>>> = vec![None];
    let mut running: Option<Tracked<T>> = None;
    for t in &totals[..totals.len() - 1] {
        running = Some(match running.take() {
            None => t.duplicate(),
            Some(r) => {
                let nr = r.zip_with(t, |x, y| op(x, y));
                machine.discard(r);
                nr
            }
        });
        carries.push(Some(running.as_ref().expect("just set").duplicate()));
    }
    if let Some(r) = running {
        machine.discard(r);
    }
    for t in totals {
        machine.discard(t);
    }
    // Broadcast each carry over its block and fold it in.
    let mut out = Vec::with_capacity(n as usize);
    for ((&(start, len), blk), carry) in blocks.iter().zip(scanned).zip(carries) {
        match carry {
            None => out.extend(blk),
            Some(c) => {
                let c = machine.move_to(c, zorder::coord_of(start));
                let copies = crate::zseg::broadcast_z(machine, c, start, start + len);
                for (v, cp) in blk.into_iter().zip(copies) {
                    let folded = cp.zip_with(&v, |p, x| op(p, x));
                    machine.discard(cp);
                    machine.discard(v);
                    out.push(folded);
                }
            }
        }
    }
    out
}

/// Height of the subtree covering `len` leaves (`len = 4^h`).
fn height(len: u64) -> u64 {
    (len.trailing_zeros() / 2) as u64
}

/// Builds the summation tree level by level (bottom-up). Each internal node
/// gathers its four child sums at its storage cell — Z-position
/// `block_lo + level` of its block — folding as they arrive so at most two
/// tree words are ever resident at the cell, exactly as in the recursive
/// formulation.
fn up_sweep<T: Clone>(
    machine: &mut Machine,
    lo: u64,
    n: u64,
    leaves: &[Tracked<T>],
    op: &impl Fn(&T, &T) -> T,
) -> SumLevels<T> {
    let h = height(n);
    let mut levels: Vec<Vec<Option<Tracked<T>>>> = Vec::with_capacity(h as usize + 1);
    // Level 0 is the leaves themselves (the subtree sum of one element is
    // the element); both sweeps read them in place, so the level stays
    // empty rather than holding n redundant duplicates.
    levels.push(Vec::new());
    for l in 1..=h {
        let blk = 1u64 << (2 * l); // 4^l leaves per block at this level
        let groups = (n / blk) as usize;
        let mut cur: Vec<Option<Tracked<T>>> = Vec::with_capacity(groups);
        let prev = &levels[(l - 1) as usize];
        for g in 0..groups {
            let cell = zorder::coord_of(lo + g as u64 * blk + l);
            let child = |i: usize| -> &Tracked<T> {
                if l == 1 {
                    &leaves[4 * g + i]
                } else {
                    prev[4 * g + i].as_ref().expect("child sum")
                }
            };
            let srcs = [child(0), child(1), child(2), child(3)];
            cur.push(Some(machine.gather_copy(&srcs, cell, |x, y| op(x, y))));
        }
        levels.push(cur);
    }
    SumLevels { levels }
}

/// Passes exclusive prefixes down the tree, level by level (top-down).
///
/// For each node: the incoming carry was already delivered to the block's
/// top-left processor by the parent's prefix distribution; one
/// [`Machine::fold_scatter`] gathers the first three child sums there, forms
/// the running prefixes, and ships prefix `i` to child block `i`'s top-left
/// processor (prefix 0 stays put — a self-move is free, as in the recursive
/// formulation's `move_to`).
///
/// With `exclusive: None` each leaf stores `carry ∘ A` (inclusive scan);
/// with `Some(identity)` the leaf emits the carry (or identity) itself.
/// Consumes the leaves and returns the scan results in leaf order.
fn down_sweep<T: Clone>(
    machine: &mut Machine,
    lo: u64,
    n: u64,
    mut sums: SumLevels<T>,
    exclusive: Option<&T>,
    leaves: Vec<Tracked<T>>,
    op: &impl Fn(&T, &T) -> T,
) -> Vec<Tracked<T>> {
    let h = height(n);
    // carries[g]: the exclusive prefix of the g-th block of the current
    // level, resident at that block's top-left processor.
    let mut carries: Vec<Option<Tracked<T>>> = vec![None];
    for l in (1..=h).rev() {
        let blk = 1u64 << (2 * l);
        let q = blk / 4;
        let groups = (n / blk) as usize;
        debug_assert_eq!(carries.len(), groups);
        let mut next: Vec<Option<Tracked<T>>> = (0..groups * 4).map(|_| None).collect();
        for (g, carry) in carries.drain(..).enumerate() {
            let block_lo = lo + g as u64 * blk;
            let node_sum = sums.levels[l as usize][g].take().expect("node sum");
            machine.discard(node_sum);
            let top_left = zorder::coord_of(block_lo);
            // Level-1 nodes read their children (the leaves) in place.
            let child = |i: usize| -> &Tracked<T> {
                if l == 1 {
                    &leaves[4 * g + i]
                } else {
                    sums.levels[(l - 1) as usize][4 * g + i].as_ref().expect("child sum")
                }
            };
            let children = [child(0), child(1), child(2)];
            let dsts = [
                zorder::coord_of(block_lo),
                zorder::coord_of(block_lo + q),
                zorder::coord_of(block_lo + 2 * q),
                zorder::coord_of(block_lo + 3 * q),
            ];
            let prefixes = machine.fold_scatter(carry, &children, top_left, &dsts, |x, y| op(x, y));
            for (i, p) in prefixes.into_iter().enumerate() {
                next[4 * g + i] = p;
            }
        }
        carries = next;
    }
    // Level 0: combine each leaf with its carry, emitting results in leaf
    // order (level-1 prefixes were scattered in leaf order, so `carries[j]`
    // is leaf `j`'s exclusive prefix).
    debug_assert_eq!(carries.len(), leaves.len());
    leaves
        .into_iter()
        .zip(carries)
        .map(|(a, carry)| match exclusive {
            None => match carry {
                None => a,
                Some(x) => {
                    // The carry was sent to this leaf's own processor.
                    debug_assert_eq!(x.loc(), a.loc());
                    let r = x.zip_with(&a, |p, v| op(p, v));
                    machine.discard(x);
                    machine.discard(a);
                    r
                }
            },
            Some(identity) => {
                let res = match carry {
                    None => a.with_value(identity.clone()),
                    Some(x) => {
                        debug_assert_eq!(x.loc(), a.loc());
                        x
                    }
                };
                machine.discard(a);
                res
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zarray::{place_z, read_values};

    fn run_scan(vals: Vec<i64>) -> (Machine, Vec<i64>) {
        let mut m = Machine::new();
        let n = vals.len();
        let items = place_z(&mut m, 0, vals);
        let out = scan(&mut m, 0, items, &|a, b| a + b);
        assert_eq!(out.len(), n);
        (m, read_values(out))
    }

    #[test]
    fn scan_matches_sequential_prefix_sum() {
        for &n in &[1usize, 4, 16, 64, 256, 1024] {
            let vals: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % 101 - 50).collect();
            let mut expect = vals.clone();
            for i in 1..n {
                expect[i] += expect[i - 1];
            }
            let (_, got) = run_scan(vals);
            assert_eq!(got, expect, "n = {n}");
        }
    }

    #[test]
    fn scan_results_stay_on_their_pe() {
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, (0..16i64).collect());
        let locs: Vec<_> = items.iter().map(|t| t.loc()).collect();
        let out = scan(&mut m, 0, items, &|a, b| a + b);
        for (o, l) in out.iter().zip(locs) {
            assert_eq!(o.loc(), l, "result must overwrite the input position");
        }
    }

    #[test]
    fn scan_energy_is_linear() {
        // Lemma IV.3: O(n) energy.
        for &n in &[64usize, 256, 1024, 4096] {
            let (m, _) = run_scan((0..n as i64).collect());
            assert!(m.energy() <= 12 * n as u64, "n = {n}: energy {} > {}", m.energy(), 12 * n);
        }
    }

    #[test]
    fn scan_depth_is_logarithmic() {
        for &n in &[64usize, 1024, 4096] {
            let (m, _) = run_scan((0..n as i64).collect());
            let bound = 8 * (n as f64).log2() as u64 + 8;
            assert!(m.report().depth <= bound, "n = {n}: depth {} > {bound}", m.report().depth);
        }
    }

    #[test]
    fn scan_distance_is_order_sqrt_n() {
        for &n in &[256usize, 4096] {
            let (m, _) = run_scan((0..n as i64).collect());
            let bound = 16 * (n as f64).sqrt() as u64;
            assert!(
                m.report().distance <= bound,
                "n = {n}: distance {} > {bound}",
                m.report().distance
            );
        }
    }

    #[test]
    fn scan_on_offset_aligned_segment() {
        let mut m = Machine::new();
        let items = place_z(&mut m, 64, (1..=16i64).collect());
        let out = scan(&mut m, 64, items, &|a, b| a + b);
        let got = read_values(out);
        let expect: Vec<i64> = (1..=16i64)
            .scan(0, |s, x| {
                *s += x;
                Some(*s)
            })
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn scan_with_non_commutative_operator() {
        // String concatenation is associative but not commutative: the scan
        // must preserve Z-curve order.
        let mut m = Machine::new();
        let letters: Vec<String> = "abcdefghijklmnop".chars().map(|c| c.to_string()).collect();
        let items = place_z(&mut m, 0, letters);
        let out = scan(&mut m, 0, items, &|a: &String, b: &String| format!("{a}{b}"));
        let got = read_values(out);
        assert_eq!(got[0], "a");
        assert_eq!(got[3], "abcd");
        assert_eq!(got[15], "abcdefghijklmnop");
    }

    #[test]
    fn exclusive_scan_shifts_by_one() {
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, vec![3i64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]);
        let out = scan_exclusive(&mut m, 0, items, 0, &|a, b| a + b);
        let got = read_values(out);
        let vals = [3i64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
        let mut expect = vec![0i64];
        for i in 0..15 {
            expect.push(expect[i] + vals[i]);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn scan_memory_stays_constant_per_pe() {
        // Paper: "each processor stores at most 2 values of the summation
        // tree" — plus one carry in flight. Must not grow with n.
        let mut m = Machine::new();
        m.enable_memory_meter();
        let items = place_z(&mut m, 0, (0..256i64).collect());
        let out = scan(&mut m, 0, items, &|a, b| a + b);
        assert!(m.memory().unwrap().peak() <= 3, "peak {}", m.memory().unwrap().peak());
        for o in out {
            m.discard(o);
        }
    }

    #[test]
    #[should_panic(expected = "power of 4")]
    fn scan_rejects_non_power_of_four() {
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, vec![1i64, 2, 3, 4, 5, 6, 7, 8]);
        let _ = scan(&mut m, 0, items, &|a, b| a + b);
    }

    #[test]
    fn scan_any_handles_arbitrary_lengths() {
        for n in [1usize, 2, 3, 7, 8, 13, 100, 257, 1000] {
            let vals: Vec<i64> = (0..n as i64).map(|i| (i * 7) % 13 - 6).collect();
            let mut expect = vals.clone();
            for i in 1..n {
                expect[i] += expect[i - 1];
            }
            let mut m = Machine::new();
            let items = place_z(&mut m, 0, vals);
            let got = read_values(scan_any(&mut m, 0, items, &|a, b| a + b));
            assert_eq!(got, expect, "n = {n}");
        }
    }

    #[test]
    fn scan_any_on_unaligned_start() {
        // lo = 4 with len = 24: blocks (4,4), (8,8), (16,12→(16,4)+(20,4)+(24,4))…
        let n = 24usize;
        let vals: Vec<i64> = (1..=n as i64).collect();
        let mut expect = vals.clone();
        for i in 1..n {
            expect[i] += expect[i - 1];
        }
        let mut m = Machine::new();
        let items = place_z(&mut m, 4, vals);
        let got = read_values(scan_any(&mut m, 4, items, &|a, b| a + b));
        assert_eq!(got, expect);
    }

    #[test]
    fn scan_any_energy_stays_linear() {
        let n = 3000usize;
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, vec![1i64; n]);
        let _ = scan_any(&mut m, 0, items, &|a, b| a + b);
        assert!(m.energy() <= 24 * n as u64, "energy {}", m.energy());
    }

    #[test]
    fn scan_any_with_non_commutative_operator() {
        let n = 21usize;
        let letters: Vec<String> =
            (0..n).map(|i| ((b'a' + (i % 26) as u8) as char).to_string()).collect();
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, letters.clone());
        let got =
            read_values(scan_any(&mut m, 0, items, &|a: &String, b: &String| format!("{a}{b}")));
        assert_eq!(got[n - 1], letters.concat());
        assert_eq!(got[2], letters[..3].concat());
    }
}
