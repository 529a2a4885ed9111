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
//! `sorting::allpairs` charge, in `O(m)` work instead of `O(m·bm)`
//! materialized deliveries: the broadcast and reduce trees cover whole
//! blocks, whose digit sums are closed forms, and the replication tree and
//! the staged paths need one O(1) digit identity per hosting offset.
//!
//! Why the closed forms are exact (and not just asymptotic):
//!
//! * **Energy / messages.** Aligned Z-blocks keep corresponding cells at one
//!   common displacement per quadtree edge (`decode` is additive across
//!   disjoint bit ranges), so each phase is a sequence of groups of messages
//!   that all cross one displacement, and each group's energy is its count
//!   times that length. The true sums are charged through the saturating
//!   `add_energy_total`; saturating addition of non-negative terms is
//!   grouping-independent (see the saturation note on
//!   `Machine::add_energy_total`), so the final counter is bit-identical to
//!   the per-item loop's.
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
//! displacements, fixed by the level alone. The scan and the reduce walk
//! the block's quadtree once, depth first in Z order, with one
//! `(value, Path)` pair per open node on an `O(log n)` stack; the broadcast
//! appends its copies level by level. None materializes a `Tracked` per
//! delivery, and all are exact for the same reasons:
//!
//! * **Translation invariance.** A block aligned to its length puts child
//!   `i` of every group at the same offset from the group's fold cell, so a
//!   level's messages all have one of at most six lengths, known from the
//!   level alone; its energy is `groups × Σ per-child distance` and its
//!   message count `groups × children sent`, charged once per level through
//!   the saturating `add_energy_total` (grouping-independent, as above).
//! * **Paths.** Each group's path is computed exactly as the per-node code
//!   computes it — `step` by the level's constant for every child that
//!   travels, `join` where values combine — only over `(T, Path)` pairs,
//!   and every `op` call has the per-node code's operands and bracketing.
//! * **Order.** The scan's carry into a block depends only on the blocks
//!   before it in Z order, so one walk runs both sweeps: a node walks child
//!   0 with its own carry, folds each child's returned sum into its running
//!   prefix to form the next child's carry, and returns its own up-sweep
//!   sum. Only the order of the per-node code's computations changes, and
//!   neither the per-level totals nor the watermark maxima depend on it.
//! * **Watermarks.** The watermarks are raised over exactly the paths the
//!   per-node code delivers (dominated intermediates need not be observed:
//!   a gathered child's step path is dominated by the running prefix it
//!   joins, which the scatter then delivers one step further).

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
///
/// Each is O(1): a digit is nonzero when either of its two bits is set, so
/// `nz` counts the even bit positions of `o | o >> 1`; `decode` is additive
/// over disjoint bits, so the route's per-digit edges sum to `dist1(o)`;
/// and the final edge is `dist1` of the lowest nonzero digit alone.
#[inline]
fn digit_stats(o: u64) -> (u64, u64, u64) {
    let nz = u64::from(((o | (o >> 1)) & 0x5555_5555_5555_5555).count_ones());
    let edge = if o == 0 { 0 } else { dist1(o & (3 << (o.trailing_zeros() & !1))) };
    (nz, dist1(o), edge)
}

/// `Σ_{o=1}^{bm−1} edge(o)` over a block of `bm = scale²` cells. The offsets
/// whose lowest nonzero digit has weight `4^k` and value `d` number
/// `4^{L−1−k}` (any higher digits), and `dist1(d·4^k) = 2^k·dist1(d)` with
/// `dist1(1) + dist1(2) + dist1(3) = 4`, so the sum is
/// `Σ_{k<L} 4^{L−1−k}·2^k·4 = Σ_{k<L} 2^{2L−k} = 2·scale·(scale − 1)`.
#[inline]
fn block_edge_sum(scale: u64) -> u128 {
    2 * u128::from(scale) * u128::from(scale - 1)
}

/// `max_{o<bm} route(o)` over a block of `bm = scale²` cells: the route is
/// `dist1(o)`, largest at the block's far corner `(scale − 1, scale − 1)`.
#[inline]
fn block_max_route(scale: u64) -> u64 {
    2 * (scale - 1)
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

/// The hop lengths of scan level `l`, the same in every block of `4^l`
/// leaves: child `i`'s sum sits at Z offset `i·q + l − 1` (`q = 4^{l−1}`).
/// The up-sweep gathers all four sums at offset `l`; the down-sweep gathers
/// the first three at the block's first cell and scatters the running
/// prefixes from there to the first cells of children 1–3.
#[derive(Clone, Copy, Default)]
struct ScanLevel {
    up: [u64; 4],
    gather: [u64; 3],
    scatter: [u64; 3],
}

impl ScanLevel {
    fn new(l: u64) -> Self {
        let q = 1u64 << (2 * (l - 1));
        let sum = |i: u64| i * q + l - 1;
        ScanLevel {
            up: [0, 1, 2, 3].map(|i| hop(sum(i), l)),
            gather: [0, 1, 2].map(|i| dist1(sum(i))),
            scatter: [1, 2, 3].map(|i| dist1(i * q)),
        }
    }

    /// The hops of the ten messages one block of the level sends.
    fn sends(&self) -> [u64; 10] {
        let ([u0, u1, u2, u3], [g0, g1, g2], [s1, s2, s3]) = (self.up, self.gather, self.scatter);
        [u0, u1, u2, u3, g0, g1, g2, s1, s2, s3]
    }
}

/// The hops of reduce level `l`: sibling `i` sits `i·4^{l−1}` cells past its
/// group's corner, `dist1(i·4^{l−1}) = 2^{l−1}·dist1(i)` away (decode's
/// scale law); sibling 0 is already there.
fn corner_hops(l: u64) -> [Option<u64>; 4] {
    let s = 1 << (l - 1);
    [None, Some(s), Some(s), Some(2 * s)]
}

/// Folds four children at one cell in ascending order,
/// `op(op(op(c0, c1), c2), c3)`: child `i` travels `hops[i]` (`None`: it
/// already resides there). The join of the travelled paths is observed,
/// which raises the watermarks as observing each one would.
///
/// Written without zipped or mapped array iterators: with them, the walks'
/// in-cache folds measured up to 1.5× slower.
#[inline(always)]
fn fold4<T>(
    kids: [(&T, Path); 4],
    hops: [Option<u64>; 4],
    op: &impl Fn(&T, &T) -> T,
    seen: &mut Path,
) -> (T, Path) {
    let [(a, pa), (b, pb), (c, pc), (d, pd)] = kids;
    let (mut sent, mut stayed) = (Path::ZERO, Path::ZERO);
    for (p, hop) in [(pa, hops[0]), (pb, hops[1]), (pc, hops[2]), (pd, hops[3])] {
        match hop {
            Some(d) => sent = sent.join(p.step(d)),
            None => stayed = stayed.join(p),
        }
    }
    *seen = seen.join(sent);
    (op(&op(&op(a, b), c), d), sent.join(stayed))
}

/// A child sum `(value, path)` as [`fold4`] takes it.
fn part<T>(t: &Tracked<T>) -> (&T, Path) {
    (t.value(), t.path())
}

/// The scan's depth-first walk over the block `leaves`, of height
/// `levels.len()`, whose running prefix `carry` arrives at its first cell
/// (`None` on the array's left edge): rewrites every leaf with its result
/// and returns the block's up-sweep sum and path.
#[inline]
fn scan_walk<T: Clone>(
    leaves: &mut [Tracked<T>],
    levels: &[ScanLevel],
    carry: Option<(&T, Path)>,
    identity: Option<&T>,
    op: &impl Fn(&T, &T) -> T,
    seen: &mut Path,
) -> (T, Path) {
    match levels {
        [level] => {
            scan_four(leaves.try_into().expect("four leaves"), level, carry, identity, op, seen)
        }
        _ => scan_node(leaves, levels, carry, identity, op, seen),
    }
}

/// A node of height 2 or more: walks the four children in Z order. Child
/// 0 is handed the block's own carry; the later children the prefix
/// gathered at the block's first cell so far, one scatter step on.
fn scan_node<T: Clone>(
    leaves: &mut [Tracked<T>],
    levels: &[ScanLevel],
    carry: Option<(&T, Path)>,
    identity: Option<&T>,
    op: &impl Fn(&T, &T) -> T,
    seen: &mut Path,
) -> (T, Path) {
    let (hops, below) = levels.split_last().expect("a block of height at least 2");
    let q = leaves.len() / 4;
    let (c0, rest) = leaves.split_at_mut(q);
    let (c1, rest) = rest.split_at_mut(q);
    let (c2, c3) = rest.split_at_mut(q);
    let (s0, p0) = scan_walk(c0, below, carry, identity, op, seen);
    let run = match carry {
        Some((v, vp)) => (op(v, &s0), vp.join(p0.step(hops.gather[0]))),
        None => (s0.clone(), p0.step(hops.gather[0])),
    };
    let (s1, p1) =
        scan_walk(c1, below, Some(deliver(&run, hops.scatter[0], seen)), identity, op, seen);
    let run = (op(&run.0, &s1), run.1.join(p1.step(hops.gather[1])));
    let (s2, p2) =
        scan_walk(c2, below, Some(deliver(&run, hops.scatter[1], seen)), identity, op, seen);
    let run = (op(&run.0, &s2), run.1.join(p2.step(hops.gather[2])));
    let (s3, p3) =
        scan_walk(c3, below, Some(deliver(&run, hops.scatter[2], seen)), identity, op, seen);
    fold4([(&s0, p0), (&s1, p1), (&s2, p2), (&s3, p3)], hops.up.map(Some), op, seen)
}

/// The running prefix `run` delivered `d` hops away, observed on arrival.
fn deliver<'a, T>(run: &'a (T, Path), d: u64, seen: &mut Path) -> (&'a T, Path) {
    *seen = seen.join(run.1.step(d));
    (&run.0, run.1.step(d))
}

/// Level 1 of the scan's walk: the up-sweep fold of four leaves, then the
/// down-sweep fused into the leaf fold. The prefix delivered to leaf `i` is
/// the carry folded with leaves `0…i−1`, so each leaf's result is one
/// running prefix, computed once.
fn scan_four<T: Clone>(
    a: &mut [Tracked<T>; 4],
    hops: &ScanLevel,
    carry: Option<(&T, Path)>,
    identity: Option<&T>,
    op: &impl Fn(&T, &T) -> T,
    seen: &mut Path,
) -> (T, Path) {
    let p = [a[0].path(), a[1].path(), a[2].path(), a[3].path()];
    let sum =
        fold4([part(&a[0]), part(&a[1]), part(&a[2]), part(&a[3])], hops.up.map(Some), op, seen);
    let (gather, scatter) = (hops.gather, hops.scatter);
    let r1 = match carry {
        Some((_, cp)) => cp.join(p[0].step(gather[0])),
        None => p[0].step(gather[0]),
    };
    let r2 = r1.join(p[1].step(gather[1]));
    let r3 = r2.join(p[2].step(gather[2]));
    let delivered = [r1.step(scatter[0]), r2.step(scatter[1]), r3.step(scatter[2])];
    for d in delivered {
        *seen = seen.join(d);
    }
    match identity {
        None => {
            let v1 = carry.map(|(cv, _)| op(cv, a[0].value()));
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
            let v1 = match carry {
                Some((cv, _)) => op(cv, a[0].value()),
                None => a[0].value().clone(),
            };
            let v2 = op(&v1, a[1].value());
            let v3 = op(&v2, a[2].value());
            match carry {
                Some((cv, cp)) => a[0].rewrite(cv.clone(), cp),
                None => a[0].rewrite(id.clone(), p[0]),
            }
            a[1].rewrite(v1, delivered[0]);
            a[2].rewrite(v2, delivered[1]);
            a[3].rewrite(v3, delivered[2]);
        }
    }
    sum
}

/// One node of the reduce's depth-first walk: folds the block `items`, of
/// height `l`, onto its corner and returns the sum and its path.
fn reduce_node<T>(
    items: &[Tracked<T>],
    l: u64,
    op: &impl Fn(&T, &T) -> T,
    seen: &mut Path,
) -> (T, Path) {
    if let [a, b, c, d] = items {
        return fold4([part(a), part(b), part(c), part(d)], corner_hops(1), op, seen);
    }
    let q = items.len() / 4;
    let (s0, p0) = reduce_node(&items[..q], l - 1, op, seen);
    let (s1, p1) = reduce_node(&items[q..2 * q], l - 1, op, seen);
    let (s2, p2) = reduce_node(&items[2 * q..3 * q], l - 1, op, seen);
    let (s3, p3) = reduce_node(&items[3 * q..], l - 1, op, seen);
    fold4([(&s0, p0), (&s1, p1), (&s2, p2), (&s3, p3)], corner_hops(l), op, seen)
}

impl Machine {
    /// Charges one quadtree level whose `blocks` each send one message over
    /// every hop in `hops`.
    fn charge_level(&mut self, blocks: u64, hops: impl IntoIterator<Item = u64, IntoIter: Clone>) {
        let hops = hops.into_iter();
        self.add_energy_total(u128::from(blocks) * u128::from(hops.clone().sum::<u64>()));
        self.add_messages(blocks * hops.count() as u64);
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
    /// it receives. One depth-first walk runs both sweeps, reading and
    /// rewriting each leaf once; level 1 of the down-sweep is fused into
    /// the leaf fold. `op` must be a pure function: the kernel computes each
    /// prefix value once where the per-node code recomputes equal ones.
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
        // A power of four that fits in a u64 has height at most 31.
        let mut levels = [ScanLevel::default(); 32];
        for l in 1..=h {
            let level = ScanLevel::new(l);
            self.charge_level(leaves.len() as u64 >> (2 * l), level.sends());
            levels[l as usize - 1] = level;
        }
        let mut seen = Path::ZERO;
        scan_walk(leaves, &levels[..h as usize], None, identity, &op, &mut seen);
        self.absorb_watermarks(seen);
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
            self.absorb_watermarks(out[out.len() - 1].path());
        }
    }

    /// Sum-reduces the aligned power-of-four block `items` (item `i` at
    /// Z-index `start + i`) onto its first cell on a bare machine, charged
    /// level by level in closed form. Bit-identical to the per-level
    /// quadrant reduce in `collectives::zseg`: each group of four partials
    /// folds onto the group's corner, siblings in ascending order. One
    /// depth-first walk folds every group.
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
        for l in 1..=h {
            self.charge_level(items.len() as u64 >> (2 * l), corner_hops(l).into_iter().flatten());
        }
        let mut seen = Path::ZERO;
        let (value, path) = reduce_node(&items, h, &op, &mut seen);
        self.absorb_watermarks(seen);
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

        // The broadcast and reduce trees span whole blocks, so their sums are
        // closed forms; the replication tree and the staged paths span only
        // the m hosting offsets, one O(1) digit identity each.
        let sum_edge_in = block_edge_sum(scale); // Σ_{o=1}^{bm-1} edge(o)   (broadcast = reduce)
        let max_route = block_max_route(scale); // max_o route(o)
        let mut sum_edge_blk: u128 = 0; // Σ_{b=1}^{m-1} edge(b)    (replication, unscaled)
        let mut mp_depth = 0u64; // max_{o<m} staged[o].depth + nz(o)
        let mut mp_dist = 0u64; // max_{o<m} staged[o].distance + route(o)
        for (o, p) in staged.iter().enumerate() {
            let (nz, route, edge) = digit_stats(o as u64);
            sum_edge_blk += u128::from(edge);
            mp_depth = mp_depth.max(p.depth + nz);
            mp_dist = mp_dist.max(p.distance + route);
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
        let mut seen = Path::ZERO;
        let out: Vec<Tracked<(T, u64)>> = corners
            .into_iter()
            .zip(ranks)
            .enumerate()
            .map(|(i, (corner, &rank))| {
                let (nz_i, route_i, _) = digit_stats(i as u64);
                let c = corner.path();
                let r = Path {
                    depth: (nz_i + mp_depth).max(c.depth + 2 * lvls),
                    distance: (route_i * scale + mp_dist).max(c.distance + 2 * max_route),
                };
                seen = seen.join(r);
                let (value, loc, _) = corner.into_parts();
                debug_assert_eq!(loc, zorder::coord_of(scratch_lo + i as u64 * bm));
                Tracked::raw((value, rank), loc, c.join(r))
            })
            .collect();
        self.absorb_watermarks(seen);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-digit route from offset 0 to `o`, edge by edge: `(nz, route,
    /// edge)` as the level-order phases send it.
    fn naive_digit_stats(o: u64) -> (u64, u64, u64) {
        let (mut nz, mut route, mut last_edge) = (0, 0, 0);
        for pos in 0..32 {
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
        (nz, route, last_edge)
    }

    #[test]
    fn digit_stats_match_naive_routes() {
        for o in 0u64..1 << 12 {
            assert_eq!(digit_stats(o), naive_digit_stats(o), "o = {o}");
        }
    }

    #[test]
    fn block_sums_match_the_naive_loop() {
        for lvls in 1..=6u64 {
            let (bm, scale) = (1u64 << (2 * lvls), 1u64 << lvls);
            let edges: u128 = (1..bm).map(|o| u128::from(naive_digit_stats(o).2)).sum();
            let per_level: u128 =
                (0..lvls).map(|k| (1u128 << (2 * (lvls - 1 - k))) * (1u128 << k) * 4).sum();
            assert_eq!(block_edge_sum(scale), edges, "L = {lvls}");
            assert_eq!(per_level, edges, "L = {lvls}");
            let max_route = (0..bm).map(|o| naive_digit_stats(o).1).max().unwrap();
            assert_eq!(block_max_route(scale), max_route, "L = {lvls}");
            assert_eq!(max_route, 2 * ((1 << lvls) - 1), "L = {lvls}");
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
