//! Closed-form cost kernels for the regular collective DAGs of the §V
//! primitives.
//!
//! The All-Pairs Sort (paper §V-C(a)) explodes `m` elements onto an
//! `bm × bm` scratch square and runs three perfectly regular quadtree
//! collectives over it: replicate the staged array into every hosting block,
//! broadcast each block's corner element over its block, and sum-reduce the
//! comparison indicators back onto the corners. Every message in those three
//! phases crosses a displacement determined solely by a base-4 digit of its
//! block index or cell offset — never by the data — so the aggregate energy,
//! the message count, and every output's critical [`Path`] satisfy closed
//! forms over digit decompositions. [`Machine::allpairs_square_finish`]
//! charges exactly what the open-coded level-order phases in
//! `sorting::allpairs` charge, in `O(bm·log bm)` work instead of `O(m·bm)`
//! materialized deliveries.
//!
//! Why the closed forms are exact (and not just asymptotic):
//!
//! * **Energy / messages.** Aligned Z-blocks keep corresponding cells at one
//!   common displacement per quadtree edge (`decode` is additive across
//!   disjoint bit ranges), so each phase is a sequence of uniform batches.
//!   Their true sums are charged through the same saturating accumulator the
//!   batch API uses; saturating addition of non-negative terms is
//!   grouping-independent (see the saturation note in [`crate::batch`]), so
//!   the final counter is bit-identical to the per-item loop's.
//! * **Paths.** `Path::step` adds constants and `Path::join` is an
//!   element-wise max, so the fold over the reduce tree equals a per-leaf
//!   maximum of `leaf path + route constants`, which separates into terms
//!   depending only on the staged paths, the corner paths, and digit
//!   statistics of the block index.
//! * **Watermarks.** Every intermediate delivery's path is component-wise
//!   dominated by its block's final reduced path, so max-merging only the
//!   final paths leaves the machine's depth/distance watermarks identical.
//!
//! ## Level kernels for the Z-quadtree collectives
//!
//! The scan of Lemma IV.3 and the quadrant broadcast and reduce over an
//! aligned Z-block ([`Machine::scan_block`], [`Machine::broadcast_block`],
//! [`Machine::reduce_block`]) have the same property one level at a time:
//! every group of a quadtree level sends its children over the same
//! displacements, fixed by the level alone. These kernels fold flat
//! `(value, Path)` level arrays instead of materializing a `Tracked` per
//! delivery, and are exact for the same reasons:
//!
//! * **Translation invariance.** A block aligned to its length puts child
//!   `i` of every group at the same offset from the group's fold cell, so a
//!   level's messages all have one of at most six lengths, known from the
//!   level alone; its energy is `groups × Σ per-child distance` and its
//!   message count `groups × children sent`, charged once per level through
//!   the saturating `add_energy_total` (grouping-independent, as above).
//! * **Paths.** Each group's path is computed exactly as the per-node code
//!   computes it — `step` by the level's constant for every child that
//!   travels, `join` where values combine — only over `(T, Path)` pairs.
//! * **Watermarks.** The watermarks are raised over exactly the paths the
//!   per-node code delivers (dominated intermediates need not be observed:
//!   a gathered child's step path is dominated by the running prefix it
//!   joins, which the scatter then delivers one step further).

use crate::batch::ShardAcc;
use crate::machine::Machine;
use crate::path::Path;
use crate::value::Tracked;
use crate::zorder;

/// Manhattan distance from the origin to `decode(z)`.
#[inline]
fn dist1(z: u64) -> u64 {
    let (r, c) = zorder::decode(z);
    r + c
}

/// Digit statistics of a Z offset: `nz` = number of nonzero base-4 digits
/// (messages on the quadtree route from 0 to `o`), `route` = total Manhattan
/// distance of that route, `edge` = distance of the final edge (the least
/// significant nonzero digit), 0 for `o == 0`.
#[inline]
fn digit_stats(o: u64) -> (u64, u64, u64) {
    let mut nz = 0u64;
    let mut route = 0u64;
    let mut x = o;
    let mut pos = 0u32;
    while x > 0 {
        let d = x & 3;
        if d != 0 {
            nz += 1;
            route += dist1(d << pos);
        }
        x >>= 2;
        pos += 2;
    }
    let edge = if o == 0 {
        0
    } else {
        let tz = o.trailing_zeros() & !1;
        dist1(o & (3 << tz))
    };
    (nz, route, edge)
}

/// Manhattan distance between the cells at Z offsets `a` and `b` of one
/// aligned block (the block's own position cancels).
#[inline]
fn hop(a: u64, b: u64) -> u64 {
    zorder::coord_of(a).manhattan(zorder::coord_of(b))
}

/// `log₄ n` for an aligned block length, after checking that the block is
/// one: `n` a power of four and `lo` a multiple of it.
fn block_height(lo: u64, n: u64) -> u64 {
    assert!(zorder::is_power_of_four(n), "block length {n} is not a power of four");
    assert!(lo.is_multiple_of(n), "block at Z-index {lo} is not aligned to its length {n}");
    u64::from(n.trailing_zeros() / 2)
}

impl Machine {
    /// One level of a quadtree fold: each consecutive group of four nodes
    /// folds in ascending order, `op(op(op(n0, n1), n2), n3)`, at the cell
    /// child `i` reaches over `hops[i]` (`None`: child `i` already resides
    /// there and sends nothing). The level is charged with one energy and
    /// one message total, and the watermarks are raised over the paths of
    /// the children that travel.
    fn fold_fours<N, T>(
        &mut self,
        nodes: &[N],
        parts: impl Fn(&N) -> (&T, Path),
        hops: [Option<u64>; 4],
        op: &impl Fn(&T, &T) -> T,
    ) -> Vec<(T, Path)> {
        let groups = (nodes.len() / 4) as u64;
        let sent = hops.iter().flatten();
        self.add_energy_total(u128::from(groups) * u128::from(sent.clone().sum::<u64>()));
        self.add_messages(groups * sent.count() as u64);
        let mut acc = ShardAcc::default();
        let out = nodes
            .chunks_exact(4)
            .map(|group| {
                let mut path = Path::ZERO;
                for (node, hop) in group.iter().zip(hops) {
                    let p = parts(node).1;
                    path = path.join(match hop {
                        Some(d) => {
                            acc.observe(p.step(d));
                            p.step(d)
                        }
                        None => p,
                    });
                }
                let [a, b, c, d] = [0, 1, 2, 3].map(|i| parts(&group[i]).0);
                (op(&op(&op(a, b), c), d), path)
            })
            .collect();
        self.absorb_watermarks(acc);
        out
    }

    /// Charges one down-sweep level of the scan: each of `groups` blocks of
    /// `4^l` leaves gathers its first three child sums at its first cell
    /// and scatters the three running prefixes to child blocks 1–3. Returns
    /// the gather hop of children 0–2 and the scatter hop to child blocks
    /// 1–3 (index 0 unused).
    fn charge_down_level(&mut self, l: u64, groups: usize) -> ([u64; 3], [u64; 4]) {
        let q = 1u64 << (2 * (l - 1));
        let gather = [0, 1, 2].map(|i| dist1(i * q + l - 1));
        let scatter = [0, 1, 2, 3].map(|i| dist1(i * q));
        let per_group = gather.iter().sum::<u64>() + scatter.iter().sum::<u64>();
        self.add_energy_total(groups as u128 * u128::from(per_group));
        self.add_messages(6 * groups as u64);
        (gather, scatter)
    }

    /// The Lemma IV.3 scan of one aligned power-of-four block on a bare
    /// machine, charged level by level in closed form. `leaves[i]` sits at
    /// Z-index `lo + i` and is rewritten in place with result `i`: the
    /// inclusive prefix `A_0 ∘ … ∘ A_i` when `identity` is `None`, the
    /// exclusive prefix (`identity` for element 0) otherwise.
    ///
    /// Costs, results and their paths are bit-identical to the per-node
    /// code in `collectives::scan`: the up-sweep gathers each block's four
    /// child sums at Z offset `l` of the block (level `l`), the down-sweep
    /// gathers the first three at the block's first cell and scatters the
    /// running prefixes to child blocks 1–3, and each leaf folds the prefix
    /// it receives. Level 1 of the down-sweep is fused into the leaf fold.
    /// `op` must be a pure function: the kernel computes each prefix value
    /// once where the per-node code recomputes equal ones.
    ///
    /// # Panics
    /// Panics if the machine is instrumented, if the block is not an
    /// aligned power of four, or (in debug builds) if a leaf is off its
    /// Z-cell.
    pub fn scan_block<T: Clone>(
        &mut self,
        lo: u64,
        leaves: &mut [Tracked<T>],
        identity: Option<&T>,
        op: impl Fn(&T, &T) -> T,
    ) {
        assert!(self.is_bare(), "closed-form kernels require an uninstrumented machine");
        let h = block_height(lo, leaves.len() as u64);
        for (i, leaf) in leaves.iter().enumerate() {
            debug_assert_eq!(
                leaf.loc(),
                zorder::coord_of(lo + i as u64),
                "leaf {i} off its Z-cell"
            );
        }
        if h == 0 {
            if let Some(id) = identity {
                let p = leaves[0].path();
                leaves[0].rewrite(id.clone(), p);
            }
            return;
        }
        // Up-sweep: sums[l - 1] holds level l's subtree sums, each gathered
        // at Z offset l of its block.
        let up = |l: u64| {
            let q = 1u64 << (2 * (l - 1));
            [0, 1, 2, 3].map(|i| Some(hop(i * q + l - 1, l)))
        };
        let mut sums = vec![self.fold_fours(leaves, |t| (t.value(), t.path()), up(1), &op)];
        for l in 2..=h {
            let level = self.fold_fours(&sums[(l - 2) as usize], |s| (&s.0, s.1), up(l), &op);
            sums.push(level);
        }
        // Down-sweep: level l's carries replace its sums, and each group
        // rewrites its children's sums with their carries. Group 0 of every
        // level is on the array's left edge and has no carry, so slot 0
        // keeps a stale sum that is never read as a carry.
        for l in (2..=h).rev() {
            let carries = std::mem::take(&mut sums[(l - 1) as usize]);
            let (gather, scatter) = self.charge_down_level(l, carries.len());
            let children = &mut sums[(l - 2) as usize];
            let mut acc = ShardAcc::default();
            for (g, carry) in carries.into_iter().enumerate() {
                let ch = &mut children[4 * g..4 * g + 4];
                let mut run = if g == 0 {
                    (ch[0].0.clone(), ch[0].1.step(gather[0]))
                } else {
                    let (cv, cp) = carry;
                    let run = (op(&cv, &ch[0].0), cp.join(ch[0].1.step(gather[0])));
                    ch[0] = (cv, cp);
                    run
                };
                for i in 1..3 {
                    let delivered = run.1.step(scatter[i]);
                    acc.observe(delivered);
                    let next = (op(&run.0, &ch[i].0), run.1.join(ch[i].1.step(gather[i])));
                    ch[i] = (std::mem::replace(&mut run, next).0, delivered);
                }
                let delivered = run.1.step(scatter[3]);
                acc.observe(delivered);
                ch[3] = (run.0, delivered);
            }
            self.absorb_watermarks(acc);
        }
        // Level 1 and the leaf fold: the prefix delivered to leaf `4g + i`
        // is the group's carry folded with leaves 4g…4g+i−1, so each leaf's
        // result is one running prefix, computed once.
        let carries = std::mem::take(&mut sums[0]);
        let (gather, scatter) = self.charge_down_level(1, carries.len());
        let mut acc = ShardAcc::default();
        for ((g, carry), a) in carries.into_iter().enumerate().zip(leaves.chunks_exact_mut(4)) {
            let carry = (g > 0).then_some(carry);
            let p = [0, 1, 2, 3].map(|i| a[i].path());
            let r1 = match &carry {
                Some((_, cp)) => cp.join(p[0].step(gather[0])),
                None => p[0].step(gather[0]),
            };
            let r2 = r1.join(p[1].step(gather[1]));
            let r3 = r2.join(p[2].step(gather[2]));
            let delivered = [r1.step(scatter[1]), r2.step(scatter[2]), r3.step(scatter[3])];
            for d in delivered {
                acc.observe(d);
            }
            match identity {
                None => {
                    let v1 = carry.as_ref().map(|(cv, _)| op(cv, a[0].value()));
                    let v2 = op(v1.as_ref().unwrap_or(a[0].value()), a[1].value());
                    let v3 = op(&v2, a[2].value());
                    let v4 = op(&v3, a[3].value());
                    if let (Some(v1), Some((_, cp))) = (v1, carry) {
                        a[0].rewrite(v1, cp.join(p[0]));
                    }
                    a[1].rewrite(v2, delivered[0].join(p[1]));
                    a[2].rewrite(v3, delivered[1].join(p[2]));
                    a[3].rewrite(v4, delivered[2].join(p[3]));
                }
                Some(id) => {
                    let v1 = match &carry {
                        Some((cv, _)) => op(cv, a[0].value()),
                        None => a[0].value().clone(),
                    };
                    let v2 = op(&v1, a[1].value());
                    let v3 = op(&v2, a[2].value());
                    match carry {
                        Some((cv, cp)) => a[0].rewrite(cv, cp),
                        None => a[0].rewrite(id.clone(), p[0]),
                    }
                    a[1].rewrite(v1, delivered[0]);
                    a[2].rewrite(v2, delivered[1]);
                    a[3].rewrite(v3, delivered[2]);
                }
            }
        }
        self.absorb_watermarks(acc);
    }

    /// Broadcasts `root` over the aligned power-of-four block of `len`
    /// cells starting at Z-index `start` on a bare machine, appending the
    /// block's copies to `out` in Z order (`root` itself first). Charged
    /// level by level in closed form, bit-identically to the per-level
    /// quadrant broadcast in `collectives::zseg`, where each filled corner
    /// copies to its three sibling corners: cell `o` receives the root's
    /// path plus one step per non-zero base-4 digit of `o`, each as long
    /// as that digit's quadtree edge.
    ///
    /// # Panics
    /// Panics if the machine is instrumented, if the block is not an
    /// aligned power of four, or (in debug builds) if `root` is off the
    /// block's first cell.
    pub fn broadcast_block<T: Clone>(
        &mut self,
        root: Tracked<T>,
        start: u64,
        len: u64,
        out: &mut Vec<Tracked<T>>,
    ) {
        assert!(self.is_bare(), "closed-form kernels require an uninstrumented machine");
        let h = block_height(start, len);
        debug_assert_eq!(root.loc(), zorder::coord_of(start), "root off the block's first cell");
        let base = out.len();
        out.reserve(len as usize);
        out.push(root);
        // Digit weight q, least significant first: the cells filled so far
        // are offsets [0, q), and digit d of weight q extends them to
        // [d·q, (d+1)·q). The per-corner code sends that digit's edges at
        // its level, one from each of the len/4q corners filled by then.
        for j in 0..h {
            let q = 1u64 << (2 * j);
            let corners = len / (4 * q);
            let hops = [1, 2, 3].map(|d| dist1(d * q));
            self.add_energy_total(u128::from(corners) * u128::from(hops.iter().sum::<u64>()));
            self.add_messages(3 * corners);
            for (d, hop) in (1..4).zip(hops) {
                let (dr, dc) = zorder::decode(d * q);
                let (dr, dc) = (dr as i64, dc as i64);
                for x in 0..q as usize {
                    let src = &out[base + x];
                    let copy = Tracked::raw(
                        src.value().clone(),
                        src.loc().offset(dr, dc),
                        src.path().step(hop),
                    );
                    out.push(copy);
                }
            }
        }
        // Every digit of the last cell is 3, the longest edge of its level,
        // so its path dominates every delivered path.
        if h > 0 {
            let mut acc = ShardAcc::default();
            acc.observe(out[out.len() - 1].path());
            self.absorb_watermarks(acc);
        }
    }

    /// Sum-reduces the aligned power-of-four block `items` (item `i` at
    /// Z-index `start + i`) onto its first cell on a bare machine, charged
    /// level by level in closed form. Bit-identical to the per-level
    /// quadrant reduce in `collectives::zseg`: each group of four partials
    /// folds onto the group's corner, siblings in ascending order.
    ///
    /// # Panics
    /// Panics if the machine is instrumented, if the block is not an
    /// aligned power of four, or (in debug builds) if an item is off its
    /// Z-cell.
    pub fn reduce_block<T>(
        &mut self,
        mut items: Vec<Tracked<T>>,
        start: u64,
        op: impl Fn(&T, &T) -> T,
    ) -> Tracked<T> {
        assert!(self.is_bare(), "closed-form kernels require an uninstrumented machine");
        let h = block_height(start, items.len() as u64);
        for (i, it) in items.iter().enumerate() {
            debug_assert_eq!(
                it.loc(),
                zorder::coord_of(start + i as u64),
                "item {i} off its Z-cell"
            );
        }
        if h == 0 {
            return items.pop().expect("a block of one");
        }
        // Sibling i of a group at stride s sits i·s cells past the corner.
        let hops = |s: u64| [None, Some(dist1(s)), Some(dist1(2 * s)), Some(dist1(3 * s))];
        let mut level = self.fold_fours(&items, |t| (t.value(), t.path()), hops(1), &op);
        drop(items);
        for j in 1..h {
            level = self.fold_fours(&level, |s| (&s.0, s.1), hops(1 << (2 * j)), &op);
        }
        let (value, path) = level.pop().expect("one root");
        Tracked::raw(value, zorder::coord_of(start), path)
    }

    /// Charges the replicate + broadcast + compare + reduce phases of an
    /// All-Pairs rank on a bare machine in closed form and builds the ranked
    /// outputs, bit-identically to the open-coded level-order phases.
    ///
    /// `staged[j]` is the path of array element `j` staged at cell
    /// `scratch_lo + j`; `corners[i]` is element `i`'s copy at the corner of
    /// block `i` (cell `scratch_lo + i·bm`); `ranks[i]` is element `i`'s rank
    /// under the total order, computed locally by the caller (the DAG's cost
    /// is data-independent, so the simulator may resolve comparisons host-
    /// side). Returns `(element, rank)` at each corner with the exact
    /// critical path the materialized simulation produces.
    ///
    /// # Panics
    /// Panics if the machine is instrumented (callers must use the
    /// materializing path so instruments observe the per-item event stream),
    /// or on inconsistent lengths / `bm` not a power of four / `m < 2`.
    pub fn allpairs_square_finish<T: Clone>(
        &mut self,
        staged: &[Path],
        corners: Vec<Tracked<T>>,
        ranks: &[u64],
        scratch_lo: u64,
        bm: u64,
    ) -> Vec<Tracked<(T, u64)>> {
        assert!(self.is_bare(), "closed-form kernels require an uninstrumented machine");
        let m = staged.len() as u64;
        assert!(m >= 2, "closed-form all-pairs needs at least two elements");
        assert!(corners.len() as u64 == m && ranks.len() as u64 == m, "inconsistent lengths");
        let lvls = (bm.trailing_zeros() as u64) / 2; // bm = 4^lvls
        assert!(bm >= 4 && bm == 1 << (2 * lvls), "bm must be a power of four >= 4");
        assert!(m <= bm, "more elements than blocks");
        let scale = 1u64 << lvls; // decode(x·bm) = decode(x)·2^lvls per axis

        // One pass over the offsets accumulates every digit statistic the
        // three phases need.
        let mut sum_edge_in: u128 = 0; // Σ_{o=1}^{bm-1} edge(o)   (broadcast = reduce)
        let mut sum_edge_blk: u128 = 0; // Σ_{b=1}^{m-1} edge(b)    (replication, unscaled)
        let mut max_route = 0u64; // max_o route(o)
        let mut mp_depth = 0u64; // max_{o<m} staged[o].depth + nz(o)
        let mut mp_dist = 0u64; // max_{o<m} staged[o].distance + route(o)
        let mut blk: Vec<(u64, u64)> = Vec::with_capacity(m as usize); // (nz, route) per block
        for o in 0..bm {
            let (nz, route, edge) = digit_stats(o);
            if o > 0 {
                sum_edge_in += u128::from(edge);
            }
            max_route = max_route.max(route);
            if o < m {
                let p = staged[o as usize];
                mp_depth = mp_depth.max(p.depth + nz);
                mp_dist = mp_dist.max(p.distance + route);
                if o > 0 {
                    sum_edge_blk += u128::from(edge);
                }
                blk.push((nz, route));
            }
        }

        // Phase A (replicate into blocks): every block b ≥ 1 receives the
        // m-element array copy over its single incoming tree edge.
        self.add_energy_total(u128::from(m) * sum_edge_blk * u128::from(scale));
        self.add_messages(m * (m - 1));
        // Phase B (per-block broadcast): each of the m blocks floods bm cells.
        self.add_energy_total(u128::from(m) * sum_edge_in);
        self.add_messages(m * (bm - 1));
        // Compare phase: local, free.
        // Phase D (per-block reduce): the mirror tree of phase B.
        self.add_energy_total(u128::from(m) * sum_edge_in);
        self.add_messages(m * (bm - 1));

        // Final reduced path at each corner, exact per the separation
        // argument in the module docs; watermark = max over those paths.
        let mut acc = ShardAcc::default();
        let out: Vec<Tracked<(T, u64)>> = corners
            .into_iter()
            .zip(ranks)
            .enumerate()
            .map(|(i, (corner, &rank))| {
                let (nz_i, route_i) = blk[i];
                let c = corner.path();
                let r = Path {
                    depth: (nz_i + mp_depth).max(c.depth + 2 * lvls),
                    distance: (route_i * scale + mp_dist).max(c.distance + 2 * max_route),
                };
                acc.observe(r);
                let (value, loc, _) = corner.into_parts();
                debug_assert_eq!(loc, zorder::coord_of(scratch_lo + i as u64 * bm));
                Tracked::raw((value, rank), loc, c.join(r))
            })
            .collect();
        self.absorb_watermarks(acc);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_stats_match_naive_routes() {
        for o in 0u64..256 {
            let mut nz = 0;
            let mut route = 0;
            let mut last_edge = 0;
            for pos in 0..4 {
                let d = (o >> (2 * pos)) & 3;
                if d != 0 {
                    nz += 1;
                    let e = dist1(d << (2 * pos));
                    route += e;
                    if last_edge == 0 {
                        last_edge = e; // least significant nonzero digit
                    }
                }
            }
            assert_eq!(digit_stats(o), (nz, route, last_edge), "o = {o}");
        }
    }

    #[test]
    fn closed_form_kernel_charges_identically_through_every_profile() {
        // `allpairs_square_finish` requires a *bare* machine — and a profile
        // is not an instrument, so a profiled machine still takes the
        // closed-form path and its profiled report equals charging the raw
        // closed-form counters directly.
        use crate::profile::builtin_profiles;

        let kernel_run = |m: &mut Machine| {
            let staged = vec![Path::ZERO; 4];
            let corners: Vec<Tracked<u64>> =
                (0..4u64).map(|i| Tracked::raw(i, zorder::coord_of(i * 4), Path::ZERO)).collect();
            let out = m.allpairs_square_finish(&staged, corners, &[0, 1, 2, 3], 0, 4);
            assert_eq!(out.len(), 4);
        };
        let mut bare = Machine::new();
        kernel_run(&mut bare);
        let raw = bare.report();
        assert!(raw.messages > 0, "the kernel charges real traffic");
        for profile in builtin_profiles() {
            let mut m = Machine::with_profile(*profile);
            assert!(m.is_bare(), "profiled machines must keep the kernel path");
            kernel_run(&mut m);
            assert_eq!(m.report(), raw, "raw counters are profile-independent");
            assert_eq!(
                m.profiled_report().unwrap(),
                profile.charge(raw).unwrap(),
                "kernel charge equals charging the raw counters under {}",
                profile.name()
            );
        }
    }

    #[test]
    fn scale_law_matches_decode() {
        // decode(x · 4^L) = decode(x) · 2^L, the identity the block-level
        // distances rely on.
        for x in 1u64..64 {
            for l in 0..5u64 {
                let (r, c) = zorder::decode(x);
                let (rs, cs) = zorder::decode(x << (2 * l));
                assert_eq!((rs, cs), (r << l, c << l), "x={x} l={l}");
            }
        }
    }
}
