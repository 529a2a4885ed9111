//! All-Pairs Sort (paper §V-C(a), Lemma V.5).
//!
//! "Explode" the computation onto an `M × M` scratch square (`M` = input size
//! padded to a power of four): block `Γ_i` — the `i`-th aligned `M`-cell
//! sub-square in Z-order — computes the rank of element `A_i` by comparing it
//! against a full copy of the array. Costs (Lemma V.5): `O(m^{5/2})` energy,
//! `O(log m)` depth, `O(m)` distance. The quadratic-plus energy is the price
//! of the very low depth; the rank routines only ever run it on
//! `O(√n)`-sized samples and windows.
//!
//! Scratch placement: the caller passes an *aligned* Z-offset (see
//! [`scratch_for`]); the scratch square may overlap resident data — each PE
//! holds O(1) extra words during the sort, which the model allows.

use collectives::zseg::{broadcast_blocks, reduce_blocks};
use spatial_model::{zorder, Coord, Machine, Tracked};

/// The aligned Z-offset of a scratch square of at least `cells` cells that
/// contains (or sits next to) Z-index `near`.
///
/// Alignment guarantees every block boundary in the all-pairs layout is an
/// aligned sub-square; containment keeps the scratch within `O(√cells)`
/// distance of the data it serves.
pub fn scratch_for(near: u64, cells: u64) -> u64 {
    let s = zorder::next_power_of_four(cells);
    (near / s) * s
}

/// Computes the rank of every element under the total order of `P`.
///
/// Returns, in **input order**, each element paired with its rank in the
/// sorted sequence (`0` = smallest), resident at its block corner inside the
/// scratch square at `scratch_lo` (which must be aligned to the scratch
/// size; use [`scratch_for`]).
///
/// # Panics
/// Panics if two elements compare equal (wrap inputs in
/// [`crate::Keyed`] to guarantee distinctness) or if `scratch_lo` is
/// misaligned.
pub fn allpairs_rank<P: Ord + Clone>(
    machine: &mut Machine,
    items: Vec<Tracked<P>>,
    scratch_lo: u64,
) -> Vec<Tracked<(P, u64)>> {
    let m = items.len() as u64;
    assert!(m > 0, "all-pairs rank of an empty array");
    let bm = zorder::next_power_of_four(m); // cells per block, and #blocks
    let total = bm * bm;
    assert_eq!(scratch_lo % total, 0, "scratch offset must be aligned to the scratch size");

    // Step 0 (input staging): bring the array into block 0, element j at the
    // block's j-th Z-cell — one batched move.
    let staged: Vec<Tracked<P>> = machine.send_batch(
        items
            .into_iter()
            .enumerate()
            .map(|(j, t)| (t, zorder::coord_of(scratch_lo + j as u64)))
            .collect(),
    );

    // Step 1 (scatter): element i also goes to the corner of block i.
    // Element 0 is already at block 0's corner (a free duplicate, as in the
    // open-coded loop); the rest are one batched copy.
    let scatter: Vec<(&Tracked<P>, Coord)> = staged
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, t)| (t, zorder::coord_of(scratch_lo + i as u64 * bm)))
        .collect();
    let mut corners: Vec<Tracked<P>> = Vec::with_capacity(m as usize);
    corners.push(staged[0].duplicate());
    corners.extend(machine.send_batch_copy(&scatter));
    drop(scatter);

    // On a bare machine the three remaining phases (replicate, broadcast,
    // compare, reduce) are charged in closed form: their message DAG is
    // data-independent, so the ranks resolve host-side and the machine
    // charges the exact aggregate Cost and output paths without
    // materializing the O(m·bm) intermediate copies. Any armed instrument
    // takes the materializing path below and observes the per-item stream.
    if machine.is_bare() && m > 1 {
        // The stable sort merges presorted runs in linear time, and every
        // sample and window the rank splits send here is two sorted runs.
        let mut order: Vec<usize> = (0..m as usize).collect();
        order.sort_by(|&x, &y| staged[x].value().cmp(staged[y].value()));
        for w in order.windows(2) {
            assert!(
                staged[w[0]].value() != staged[w[1]].value(),
                "all-pairs rank requires distinct elements"
            );
        }
        let mut ranks = vec![0u64; m as usize];
        for (r, &i) in order.iter().enumerate() {
            ranks[i] = r as u64;
        }
        let staged_paths: Vec<spatial_model::Path> = staged.iter().map(|t| t.path()).collect();
        for t in staged {
            machine.discard(t);
        }
        return machine.allpairs_square_finish(&staged_paths, corners, &ranks, scratch_lo, bm);
    }

    // Step 3 (array copy): replicate the whole array into every block that
    // hosts an element, treating blocks as units of a Z-quadrant broadcast,
    // level by level with one batch per target quadrant.
    let block_copies: Vec<Vec<Tracked<P>>> = copy_to_blocks(machine, staged, bm, m, scratch_lo);

    // Step 2 (per-block broadcast): element i floods block i. All blocks
    // advance level by level, one batch per level and quadrant.
    let mut bcasts =
        broadcast_blocks(machine, corners.iter().map(|c| c.duplicate()).collect(), scratch_lo, bm)
            .into_iter();

    // Step 4 (compare): local, free. 1 if the resident copy element precedes
    // A_i under the total order.
    let mut indicators: Vec<Tracked<u64>> = Vec::with_capacity((m * bm) as usize);
    for (i, copy) in block_copies.iter().enumerate() {
        for (j, b) in bcasts.by_ref().take(bm as usize).enumerate() {
            let ind = if j < copy.len() {
                copy[j].zip_with(&b, |a_j, a_i| {
                    assert!(a_j != a_i || j == i, "all-pairs rank requires distinct elements");
                    u64::from(a_j < a_i)
                })
            } else {
                b.with_value(0u64)
            };
            machine.discard(b);
            indicators.push(ind);
        }
    }
    for copy in block_copies {
        for c in copy {
            machine.discard(c);
        }
    }

    // Step 5 (reduce): rank = sum of indicators onto each block corner,
    // again level by level across all blocks at once.
    let ranks = reduce_blocks(machine, indicators, scratch_lo, bm, &|x: &u64, y: &u64| x + y);

    corners
        .into_iter()
        .zip(ranks)
        .map(|(corner, rank)| {
            let ranked = corner.zip_with(&rank, |p, r| (p.clone(), *r));
            machine.discard(corner);
            machine.discard(rank);
            ranked
        })
        .collect()
}

/// All-Pairs Sort: ranks the elements and routes each to Z-index
/// `out_lo + rank`. Returns the sorted array indexed by rank.
pub fn allpairs_sort_to_z<P: Ord + Clone>(
    machine: &mut Machine,
    items: Vec<Tracked<P>>,
    scratch_lo: u64,
    out_lo: u64,
) -> Vec<Tracked<P>> {
    let m = items.len();
    let ranked = allpairs_rank(machine, items, scratch_lo);
    let routed = machine.send_batch(
        ranked
            .into_iter()
            .map(|t| {
                let dst = zorder::coord_of(out_lo + t.value().1);
                (t, dst)
            })
            .collect(),
    );
    let mut out: Vec<Option<Tracked<P>>> = (0..m).map(|_| None).collect();
    for moved in routed {
        let rank = moved.value().1;
        let slot = &mut out[rank as usize];
        assert!(slot.is_none(), "duplicate rank {rank}");
        *slot = Some(moved.map(|(p, _)| p));
    }
    out.into_iter().map(|o| o.expect("ranks form a permutation")).collect()
}

/// Replicates the array held by block 0 into every block that hosts an
/// element (block index `< m_used`), level by level over the block-index
/// quadtree. At each level every holder block copies its `m_used` elements
/// into up to three target blocks, one batch per `(level, quadrant)`.
/// Charges exactly what the depth-first per-element recursion charges.
/// Returns one array copy per hosting block, in block order.
fn copy_to_blocks<P: Clone>(
    machine: &mut Machine,
    holder: Vec<Tracked<P>>,
    bm: u64,
    m_used: u64,
    scratch_lo: u64,
) -> Vec<Vec<Tracked<P>>> {
    // Frontier of (block index, that block's array copy), kept in ascending
    // block order.
    let mut frontier: Vec<(u64, Vec<Tracked<P>>)> = vec![(0, holder)];
    let mut span = bm;
    while span > 1 {
        let q = span / 4;
        let mut added: Vec<(u64, Vec<Tracked<P>>)> = Vec::new();
        for t in 1..4 {
            // One uniform cross-block batch per target quadrant: block b
            // replicates to block b + t·q, for every frontier block b that
            // has a target hosting an element. Blocks created at this level
            // join the frontier only once the level completes.
            let sends: Vec<(&Tracked<P>, Coord)> = frontier
                .iter()
                .filter(|(b, _)| b + t * q < m_used)
                .flat_map(|(b, copy)| {
                    let target_lo = scratch_lo + (b + t * q) * bm;
                    copy.iter()
                        .enumerate()
                        .map(move |(j, el)| (el, zorder::coord_of(target_lo + j as u64)))
                })
                .collect();
            if sends.is_empty() {
                continue;
            }
            let mut arrived = machine.send_batch_copy(&sends).into_iter();
            drop(sends);
            added.extend(
                frontier
                    .iter()
                    .filter(|(b, _)| b + t * q < m_used)
                    .map(|(b, copy)| (b + t * q, arrived.by_ref().take(copy.len()).collect())),
            );
        }
        frontier.extend(added);
        frontier.sort_by_key(|(b, _)| *b);
        span = q;
    }
    debug_assert!(frontier.iter().enumerate().all(|(i, (b, _))| i as u64 == *b));
    frontier.into_iter().map(|(_, copy)| copy).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyed::{attach_uids, detach_uids};
    use collectives::zarray::{place_z, read_values};

    fn run_sort(vals: Vec<i64>) -> (Machine, Vec<i64>) {
        let mut m = Machine::new();
        let n = vals.len() as u64;
        let items = attach_uids(place_z(&mut m, 0, vals));
        let cells = zorder::next_power_of_four(n) * zorder::next_power_of_four(n);
        let sorted = allpairs_sort_to_z(&mut m, items, scratch_for(0, cells), 0);
        (m, read_values(detach_uids(sorted)))
    }

    #[test]
    fn sorts_small_arrays_of_every_size() {
        for n in 1..=20usize {
            let vals: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 11 - 5).collect();
            let mut expect = vals.clone();
            expect.sort();
            let (_, got) = run_sort(vals);
            assert_eq!(got, expect, "n = {n}");
        }
    }

    #[test]
    fn sorts_with_duplicates_stably() {
        let vals = vec![3i64, 1, 3, 1, 3, 1, 2, 2];
        let mut m = Machine::new();
        let items = attach_uids(place_z(&mut m, 0, vals.clone()));
        let sorted = allpairs_sort_to_z(&mut m, items, scratch_for(0, 16 * 16), 0);
        let got: Vec<(i64, u64)> = sorted.iter().map(|t| (t.value().key, t.value().uid)).collect();
        // Stable: equal keys keep input order of uids.
        assert_eq!(got, vec![(1, 1), (1, 3), (1, 5), (2, 6), (2, 7), (3, 0), (3, 2), (3, 4)]);
    }

    #[test]
    fn ranks_are_a_permutation() {
        let vals: Vec<i64> = vec![9, -3, 7, 7, 0, 2, 2, 2, 14, 1];
        let mut m = Machine::new();
        let items = attach_uids(place_z(&mut m, 0, vals));
        let ranked = allpairs_rank(&mut m, items, 0);
        let mut ranks: Vec<u64> = ranked.iter().map(|t| t.value().1).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn energy_scales_as_m_to_the_five_halves() {
        // Lemma V.5: O(m^{5/2}) energy. 4x the input → ≈32x the energy.
        let energy = |n: usize| {
            let (m, _) = run_sort((0..n as i64).rev().collect());
            m.energy() as f64
        };
        let growth = energy(256) / energy(64);
        assert!(
            growth > 16.0 && growth < 80.0,
            "expected ≈32x energy growth for 4x m, got {growth:.1}x"
        );
    }

    #[test]
    fn depth_is_logarithmic() {
        for &n in &[16usize, 64, 256] {
            let (m, _) = run_sort((0..n as i64).rev().collect());
            let bound = 10 * (n as f64).log2() as u64 + 10;
            assert!(m.report().depth <= bound, "n = {n}: depth {} > {bound}", m.report().depth);
        }
    }

    #[test]
    fn distance_is_linear_in_m() {
        for &n in &[64usize, 256] {
            let (m, _) = run_sort((0..n as i64).collect());
            assert!(
                m.report().distance <= 12 * n as u64,
                "n = {n}: distance {}",
                m.report().distance
            );
        }
    }

    #[test]
    fn closed_form_kernel_matches_materialized_replay() {
        // The closed-form charge must be bit-identical to the per-item
        // level-order phases a traced machine replays: same Cost report,
        // same output values, ranks, locations and critical paths — for
        // every size class (power of four, just above, just below, tiny), up
        // to bm = 1024 blocks.
        for n in [2usize, 3, 4, 5, 7, 13, 16, 17, 29, 40, 64, 65, 255, 256, 257] {
            let vals: Vec<i64> = (0..n as i64).map(|i| (i * 131) % 257 - 60).collect();
            let run = |traced: bool| {
                let mut m = Machine::new();
                if traced {
                    m.enable_trace(0); // armed, so every message is replayed; keeps no records
                }
                // Pre-route the inputs so staged paths are heterogeneous.
                let placed = place_z(&mut m, 0, vals.clone());
                let items: Vec<_> = placed
                    .into_iter()
                    .enumerate()
                    .map(|(i, t)| {
                        if i % 3 == 0 {
                            let loc = t.loc();
                            let away = m.send_owned(t, zorder::coord_of(4096 + i as u64));
                            m.send_owned(away, loc)
                        } else {
                            t
                        }
                    })
                    .collect();
                let items = attach_uids(items);
                let bm = zorder::next_power_of_four(n as u64);
                let ranked = allpairs_rank(&mut m, items, scratch_for(0, bm * bm));
                let outs: Vec<(i64, u64, u64, spatial_model::Coord, spatial_model::Path)> = ranked
                    .iter()
                    .map(|t| (t.value().0.key, t.value().0.uid, t.value().1, t.loc(), t.path()))
                    .collect();
                if traced {
                    let replayed = m.trace().expect("trace armed").dropped();
                    assert_eq!(replayed, m.messages(), "n = {n}: every message replayed");
                }
                (m.report(), outs)
            };
            let (fast_cost, fast_out) = run(false);
            let (ref_cost, ref_out) = run(true);
            assert_eq!(fast_cost, ref_cost, "Cost diverges at n = {n}");
            assert_eq!(fast_out, ref_out, "outputs diverge at n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "all-pairs rank requires distinct elements")]
    fn closed_form_kernel_rejects_duplicates() {
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, vec![5i64, 5, 1, 2]);
        let _ = allpairs_rank(&mut m, items, 0);
    }

    #[test]
    fn scratch_for_aligns_and_localizes() {
        let s = scratch_for(1234, 1000);
        assert_eq!(s % zorder::next_power_of_four(1000), 0);
        assert!(s <= 1234);
        assert_eq!(scratch_for(0, 5), 0);
    }
}
