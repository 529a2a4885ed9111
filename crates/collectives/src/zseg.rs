//! Collectives over arbitrary Z-curve segments.
//!
//! Arrays in this codebase live on contiguous ranges `[lo, hi)` of the global
//! Z-order curve (see DESIGN.md). Such a range decomposes into `O(log L)`
//! aligned power-of-four blocks, each an axis-aligned square; the block sides
//! first grow then shrink, so chaining block corners costs `O(√L)` distance
//! and the per-block quadrant trees give `O(L)` total energy at `O(log L)`
//! depth — the same bounds as the square-subgrid collectives.

use spatial_model::{zorder, Coord, Machine, Tracked};

/// Broadcasts `root` to every cell of the Z-range `[lo, hi)`.
///
/// Returns one value per cell, indexed by Z-offset (`out[i]` lives at
/// Z-index `lo + i`). The root may start anywhere; it is first moved to
/// `coord_of(lo)`. On a bare machine each aligned block is filled by the
/// closed-form kernel [`Machine::broadcast_block`]; with any instrument
/// armed, by the per-level sends of the quadrant broadcast below.
pub fn broadcast_z<T: Clone + Send + Sync>(
    machine: &mut Machine,
    root: Tracked<T>,
    lo: u64,
    hi: u64,
) -> Vec<Tracked<T>> {
    assert!(lo < hi, "empty Z range");
    let mut out = Vec::with_capacity((hi - lo) as usize);
    let mut carrier = machine.move_to(root, zorder::coord_of(lo));
    let blocks = zorder::aligned_blocks(lo, hi);
    for (bi, &(start, len)) in blocks.iter().enumerate() {
        let here = machine.move_to(carrier, zorder::coord_of(start));
        // Hand the value to the next block corner before filling this block,
        // so the inter-block chain is only O(#blocks) messages long.
        carrier = if bi + 1 < blocks.len() {
            machine.send(&here, zorder::coord_of(blocks[bi + 1].0))
        } else {
            here.duplicate()
        };
        if machine.is_bare() {
            machine.broadcast_block(here, start, len, &mut out);
        } else {
            bcast_block(machine, here, start, len, &mut out);
        }
    }
    machine.discard(carrier);
    out
}

/// Quadrant broadcast within one aligned block, level by level, appending
/// the block's copies to `out` in Z order. At each level the filled corners
/// (offsets `k·span`) each copy to their three sibling corners
/// `k·span + i·q`, one batch per `(level, i)`. Charges exactly what the
/// depth-first recursion charges.
fn bcast_block<T: Clone + Send + Sync>(
    machine: &mut Machine,
    root: Tracked<T>,
    start: u64,
    len: u64,
    out: &mut Vec<Tracked<T>>,
) {
    debug_assert_eq!(root.loc(), zorder::coord_of(start));
    let mut slots: Vec<Option<Tracked<T>>> = (0..len).map(|_| None).collect();
    slots[0] = Some(root);
    let mut filled: Vec<u64> = vec![0];
    let mut span = len;
    while span > 1 {
        let q = span / 4;
        for i in 1..4 {
            let sends: Vec<(&Tracked<T>, Coord)> = filled
                .iter()
                .map(|&off| {
                    let src = slots[off as usize].as_ref().expect("filled corner");
                    (src, zorder::coord_of(start + off + i * q))
                })
                .collect();
            let arrived = machine.send_batch_copy(&sends);
            drop(sends);
            for (&off, got) in filled.iter().zip(arrived) {
                slots[(off + i * q) as usize] = Some(got);
            }
        }
        let mut next = Vec::with_capacity(filled.len() * 4);
        for i in 0..4 {
            next.extend(filled.iter().map(|&off| off + i * q));
        }
        next.sort_unstable();
        filled = next;
        span = q;
    }
    out.extend(slots.into_iter().map(|o| o.expect("broadcast_z missed a cell")));
}

/// Reduces one value per cell of the Z-range `[lo, hi)` (indexed by
/// Z-offset) onto the range's first cell. On a bare machine each aligned
/// block is reduced by the closed-form kernel [`Machine::reduce_block`];
/// with any instrument armed, by the per-level sends of the quadrant
/// reduce below.
pub fn reduce_z<T: Clone + Send + Sync>(
    machine: &mut Machine,
    items: Vec<Tracked<T>>,
    lo: u64,
    op: &impl Fn(&T, &T) -> T,
) -> Tracked<T> {
    let hi = lo + items.len() as u64;
    assert!(lo < hi, "empty Z range");
    // Reduce each aligned block onto its corner, then chain the corners
    // back-to-front so the result lands on the first cell.
    let blocks = zorder::aligned_blocks(lo, hi);
    let mut rest = items;
    let mut acc: Option<Tracked<T>> = None;
    for &(start, _) in blocks.iter().rev() {
        let block = match start - lo {
            0 => std::mem::take(&mut rest),
            at => rest.split_off(at as usize),
        };
        let partial = if machine.is_bare() {
            machine.reduce_block(block, start, op)
        } else {
            reduce_block(machine, start, block, op)
        };
        acc = Some(match acc {
            None => partial,
            Some(a) => {
                let arrived = machine.send_owned(a, zorder::coord_of(start));
                let combined = partial.zip_with(&arrived, |x, y| op(x, y));
                machine.discard(partial);
                machine.discard(arrived);
                combined
            }
        });
    }
    let res = acc.expect("non-empty range");
    machine.move_to(res, zorder::coord_of(lo))
}

/// Quadrant sum-reduce within one aligned block, bottom-up level by level.
/// Each level's group of four partials folds onto the group corner, the
/// three travelling siblings in one batch per `(level, i)`. Siblings fold in
/// ascending quadrant order, exactly as the depth-first recursion does.
fn reduce_block<T: Clone + Send + Sync>(
    machine: &mut Machine,
    start: u64,
    mut vals: Vec<Tracked<T>>,
    op: &impl Fn(&T, &T) -> T,
) -> Tracked<T> {
    for (i, it) in vals.iter().enumerate() {
        debug_assert_eq!(it.loc(), zorder::coord_of(start + i as u64), "item {i} off its Z-cell");
    }
    let mut stride = 1u64;
    while vals.len() > 1 {
        let groups = vals.len() / 4;
        let mut keep: Vec<Tracked<T>> = Vec::with_capacity(groups);
        let mut sib_sends: [Vec<(Tracked<T>, Coord)>; 3] =
            std::array::from_fn(|_| Vec::with_capacity(groups));
        let mut it = vals.into_iter();
        for g in 0..groups {
            let corner = zorder::coord_of(start + 4 * g as u64 * stride);
            keep.push(it.next().expect("corner partial"));
            for s in &mut sib_sends {
                s.push((it.next().expect("sibling partial"), corner));
            }
        }
        let mut arrived: Vec<std::vec::IntoIter<Tracked<T>>> =
            sib_sends.into_iter().map(|s| machine.send_batch(s).into_iter()).collect();
        let mut next = Vec::with_capacity(groups);
        for mut acc in keep {
            for a in &mut arrived {
                let arr = a.next().expect("one arrival per group");
                let combined = acc.zip_with(&arr, |x, y| op(x, y));
                machine.discard(arr);
                machine.discard(std::mem::replace(&mut acc, combined));
            }
            next.push(acc);
        }
        vals = next;
        stride *= 4;
    }
    vals.pop().expect("non-empty block")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zarray::place_z;

    #[test]
    fn broadcast_z_reaches_every_cell_of_unaligned_ranges() {
        for &(lo, hi) in &[(0u64, 16u64), (3, 29), (17, 18), (5, 133), (64, 64 + 48)] {
            let mut m = Machine::new();
            let root = m.place(zorder::coord_of(lo), 7i64);
            let out = broadcast_z(&mut m, root, lo, hi);
            assert_eq!(out.len() as u64, hi - lo);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v.value(), 7);
                assert_eq!(v.loc(), zorder::coord_of(lo + i as u64));
            }
        }
    }

    #[test]
    fn broadcast_z_energy_is_linear() {
        for &len in &[64u64, 256, 1024, 4096] {
            let mut m = Machine::new();
            let root = m.place(zorder::coord_of(0), 1u8);
            let _ = broadcast_z(&mut m, root, 0, len);
            assert!(m.energy() <= 6 * len, "len {len}: energy {}", m.energy());
        }
    }

    #[test]
    fn reduce_z_sums_unaligned_ranges() {
        for &(lo, len) in &[(0u64, 16u64), (3, 29), (17, 1), (5, 133), (21, 100)] {
            let mut m = Machine::new();
            let vals: Vec<i64> = (0..len as i64).collect();
            let items = place_z(&mut m, lo, vals);
            let total = reduce_z(&mut m, items, lo, &|a, b| a + b);
            assert_eq!(total.loc(), zorder::coord_of(lo));
            assert_eq!(
                total.into_value(),
                (len as i64) * (len as i64 - 1) / 2,
                "lo={lo} len={len}"
            );
        }
    }

    #[test]
    fn reduce_z_depth_is_logarithmic_for_aligned_ranges() {
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, vec![1i64; 1024]);
        let _ = reduce_z(&mut m, items, 0, &|a, b| a + b);
        assert!(m.report().depth <= 40, "depth {}", m.report().depth);
    }

    #[test]
    fn broadcast_then_reduce_roundtrip() {
        let mut m = Machine::new();
        let root = m.place(zorder::coord_of(11), 3i64);
        let out = broadcast_z(&mut m, root, 11, 91);
        let total = reduce_z(&mut m, out, 11, &|a, b| a + b);
        assert_eq!(total.into_value(), 3 * 80);
    }
}
