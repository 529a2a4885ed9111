//! Broadcast without multicasting (paper §IV.A, Lemma IV.1).
//!
//! The general `h × w` broadcast first runs a binary-tree 1D broadcast down
//! the first column, then a recursive quadrant (2D) broadcast inside each
//! `w × w` block, achieving `O(hw + h log h)` energy, `O(log n)` depth and
//! `O(w + h)` distance — a `Θ(log n)` energy improvement over binary-tree
//! broadcasts in the logarithmic-depth regime.

use spatial_model::{Coord, Machine, SubGrid, Tracked};

use crate::check_grid_len;

/// Broadcasts `root` (resident at `grid.origin`) to every PE of `grid`.
///
/// Returns one value per PE in row-major order.
///
/// ```
/// use spatial_model::{Coord, Machine, SubGrid};
/// use collectives::broadcast;
///
/// let mut m = Machine::new();
/// let grid = SubGrid::square(Coord::ORIGIN, 4);
/// let root = m.place(grid.origin, 7i64);
/// let copies = broadcast(&mut m, root, grid);
/// assert_eq!(copies.len(), 16);
/// assert!(copies.iter().all(|c| *c.value() == 7));
/// ```
///
/// # Panics
/// Panics if `root` is not located at the grid origin.
pub fn broadcast<T: Clone>(
    machine: &mut Machine,
    root: Tracked<T>,
    grid: SubGrid,
) -> Vec<Tracked<T>> {
    assert_eq!(root.loc(), grid.origin, "broadcast root must sit at the subgrid origin");
    let mut out: Vec<Option<Tracked<T>>> = (0..grid.len()).map(|_| None).collect();
    bcast_general(machine, root, grid, grid, &mut out);
    let res: Vec<Tracked<T>> = out.into_iter().map(|o| o.expect("broadcast missed a PE")).collect();
    check_grid_len(&res, &grid);
    res
}

/// 1D broadcast along a column or row of `len` PEs starting at the root.
///
/// The paper's binary offset tree: the root has one child directly next to it
/// and one child at offset `⌈len/2⌉`; both children recursively cover their
/// halves. Energy `O(len log len)`, depth `O(log len)`, distance `O(len)`.
pub fn broadcast_1d<T: Clone>(
    machine: &mut Machine,
    root: Tracked<T>,
    len: u64,
    vertical: bool,
) -> Vec<Tracked<T>> {
    let origin = root.loc();
    let mut out: Vec<Option<Tracked<T>>> = (0..len).map(|_| None).collect();
    let place = |i: u64| -> Coord {
        if vertical {
            origin.offset(i as i64, 0)
        } else {
            origin.offset(0, i as i64)
        }
    };
    bcast_1d_rec(machine, root, 0, len, &place, &mut out);
    out.into_iter().map(|o| o.expect("1D broadcast missed a PE")).collect()
}

fn bcast_1d_rec<T: Clone>(
    machine: &mut Machine,
    root: Tracked<T>,
    lo: u64,
    len: u64,
    place: &impl Fn(u64) -> Coord,
    out: &mut [Option<Tracked<T>>],
) {
    debug_assert_eq!(root.loc(), place(lo));
    if len == 1 {
        out[lo as usize] = Some(root);
        return;
    }
    // Children cover [lo+1, lo+1+a) and [lo+1+a, lo+len); a = ⌈(len-1)/2⌉.
    let a = (len - 1).div_ceil(2);
    let b = len - 1 - a;
    let near = machine.send(&root, place(lo + 1));
    let far = (b > 0).then(|| machine.send(&root, place(lo + 1 + a)));
    out[lo as usize] = Some(root);
    bcast_1d_rec(machine, near, lo + 1, a, place, out);
    if let Some(far) = far {
        bcast_1d_rec(machine, far, lo + 1 + a, b, place, out);
    }
}

/// 2D broadcast on a (near-)square subgrid by quadrant recursion: the root
/// sends the value to the top-left corners of the other three quadrants, then
/// all four quadrants recurse. Energy `O(w²)`, depth `O(log w)`, distance `O(w)`.
pub fn broadcast_2d<T: Clone>(
    machine: &mut Machine,
    root: Tracked<T>,
    grid: SubGrid,
) -> Vec<Tracked<T>> {
    assert_eq!(root.loc(), grid.origin);
    let mut out: Vec<Option<Tracked<T>>> = (0..grid.len()).map(|_| None).collect();
    bcast_2d_rec(machine, root, grid, grid, &mut out);
    out.into_iter().map(|o| o.expect("2D broadcast missed a PE")).collect()
}

/// Quadrant recursion over an arbitrary rectangle (handles odd and
/// non-power-of-two sides by splitting at `⌈h/2⌉ × ⌈w/2⌉`).
fn bcast_2d_rec<T: Clone>(
    machine: &mut Machine,
    root: Tracked<T>,
    grid: SubGrid,
    full: SubGrid,
    out: &mut [Option<Tracked<T>>],
) {
    debug_assert_eq!(root.loc(), grid.origin);
    if grid.len() == 1 {
        out[full.rm_index(grid.origin) as usize] = Some(root);
        return;
    }
    let rh = grid.h.div_ceil(2);
    let rw = grid.w.div_ceil(2);
    let mut parts = Vec::with_capacity(4);
    parts.push(SubGrid::new(grid.origin, rh, rw));
    if grid.w > rw {
        parts.push(SubGrid::new(grid.origin.offset(0, rw as i64), rh, grid.w - rw));
    }
    if grid.h > rh {
        parts.push(SubGrid::new(grid.origin.offset(rh as i64, 0), grid.h - rh, rw));
        if grid.w > rw {
            parts.push(SubGrid::new(
                grid.origin.offset(rh as i64, rw as i64),
                grid.h - rh,
                grid.w - rw,
            ));
        }
    }
    let copies: Vec<Tracked<T>> =
        parts[1..].iter().map(|p| machine.send(&root, p.origin)).collect();
    bcast_2d_rec(machine, root, parts[0], full, out);
    for (p, c) in parts[1..].iter().zip(copies) {
        bcast_2d_rec(machine, c, *p, full, out);
    }
}

fn bcast_general<T: Clone>(
    machine: &mut Machine,
    root: Tracked<T>,
    grid: SubGrid,
    full: SubGrid,
    out: &mut [Option<Tracked<T>>],
) {
    if grid.len() == 1 {
        out[full.rm_index(grid.origin) as usize] = Some(root);
        return;
    }
    if grid.h >= grid.w {
        if grid.w == 1 {
            let col = broadcast_1d(machine, root, grid.h, true);
            for v in col {
                let idx = full.rm_index(v.loc()) as usize;
                out[idx] = Some(v);
            }
            return;
        }
        // 1D broadcast down the first column, then a square block per stripe.
        let col = broadcast_1d(machine, root, grid.h, true);
        let mut col: Vec<Option<Tracked<T>>> = col.into_iter().map(Some).collect();
        let mut r = 0;
        while r < grid.h {
            let bh = grid.w.min(grid.h - r);
            let corner = col[r as usize].take().expect("column value consumed twice");
            let block = SubGrid::new(grid.origin.offset(r as i64, 0), bh, grid.w);
            // The corner PE now holds two copies (column + block); hand the
            // column copy to the block recursion and keep the other cells'
            // column values as the final values for column cells... but the
            // block recursion re-delivers to them, so discard extras below.
            if bh == grid.w {
                bcast_2d_rec(machine, corner, block, full, out);
            } else {
                bcast_general(machine, corner, block, full, out);
            }
            r += bh;
        }
        // Column PEs received a value from both the 1D phase and the block
        // phase; keep the block-phase value (already written) and release the
        // remaining column copies.
        for c in col.into_iter().flatten() {
            machine.discard(c);
        }
    } else {
        // Wide grid: mirror the construction along the first row.
        let row = broadcast_1d(machine, root, grid.w, false);
        let mut row: Vec<Option<Tracked<T>>> = row.into_iter().map(Some).collect();
        let mut c = 0;
        while c < grid.w {
            let bw = grid.h.min(grid.w - c);
            let corner = row[c as usize].take().expect("row value consumed twice");
            let block = SubGrid::new(grid.origin.offset(0, c as i64), grid.h, bw);
            if bw == grid.h {
                bcast_2d_rec(machine, corner, block, full, out);
            } else {
                bcast_general(machine, corner, block, full, out);
            }
            c += bw;
        }
        for v in row.into_iter().flatten() {
            machine.discard(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_broadcast(h: u64, w: u64) -> (Machine, Vec<Tracked<i64>>) {
        let mut m = Machine::new();
        let g = SubGrid::new(Coord::ORIGIN, h, w);
        let root = m.place(g.origin, 42i64);
        let vals = broadcast(&mut m, root, g);
        (m, vals)
    }

    #[test]
    fn every_pe_receives_the_value() {
        for &(h, w) in &[
            (1, 1),
            (4, 4),
            (8, 8),
            (16, 4),
            (4, 16),
            (7, 3),
            (3, 7),
            (9, 9),
            (32, 1),
            (1, 32),
            (12, 5),
        ] {
            let (_, vals) = run_broadcast(h, w);
            assert_eq!(vals.len() as u64, h * w);
            let g = SubGrid::new(Coord::ORIGIN, h, w);
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(*v.value(), 42, "({h},{w}) idx {i}");
                assert_eq!(v.loc(), g.rm_coord(i as u64), "value must land on its PE");
            }
        }
    }

    #[test]
    fn square_broadcast_energy_is_linear() {
        // Lemma IV.1 with h = w: energy O(w²) = O(n).
        for side in [4u64, 8, 16, 32, 64] {
            let (m, _) = run_broadcast(side, side);
            let n = side * side;
            assert!(
                m.energy() <= 4 * n,
                "side {side}: energy {} exceeds 4n = {}",
                m.energy(),
                4 * n
            );
        }
    }

    #[test]
    fn broadcast_depth_is_logarithmic() {
        for side in [4u64, 16, 64] {
            let (m, _) = run_broadcast(side, side);
            let n = (side * side) as f64;
            let bound = (4.0 * n.log2().ceil()) as u64 + 4;
            assert!(m.report().depth <= bound, "side {side}: depth {} > {bound}", m.report().depth);
        }
    }

    #[test]
    fn broadcast_distance_is_linear_in_side() {
        for side in [8u64, 32] {
            let (m, _) = run_broadcast(side, side);
            assert!(m.report().distance <= 6 * side, "distance {}", m.report().distance);
        }
    }

    #[test]
    fn tall_grid_energy_matches_lemma() {
        // h×w with h >> w: energy O(hw + h log h).
        let (m, _) = run_broadcast(256, 4);
        let (h, w) = (256f64, 4f64);
        let bound = (4.0 * (h * w + h * h.log2())) as u64;
        assert!(m.energy() <= bound, "energy {} > {bound}", m.energy());
    }

    #[test]
    fn broadcast_1d_energy_is_h_log_h() {
        let mut m = Machine::new();
        let root = m.place(Coord::ORIGIN, 1u8);
        let out = broadcast_1d(&mut m, root, 128, true);
        assert_eq!(out.len(), 128);
        let bound = (2.0 * 128.0 * 128f64.log2()) as u64;
        assert!(m.energy() <= bound, "energy {} > {bound}", m.energy());
        // Depth should be around log2(128) = 7 (each level sends 2 messages).
        assert!(m.report().depth <= 16, "depth {}", m.report().depth);
    }

    #[test]
    fn memory_stays_constant_per_pe() {
        let mut m = Machine::new();
        m.enable_memory_meter();
        let g = SubGrid::square(Coord::ORIGIN, 16);
        let root = m.place(g.origin, 7i64);
        let vals = broadcast(&mut m, root, g);
        assert!(m.memory().unwrap().peak() <= 3, "peak residency {}", m.memory().unwrap().peak());
        for v in vals {
            m.discard(v);
        }
    }
}
