//! Shearsort — the mesh-connected baseline of the paper's §II.B.
//!
//! Mesh algorithms proceed in rounds of neighbour exchanges; a `K`-round
//! mesh algorithm costs `O(Kn)` energy, depth `K` and distance `O(K)` in
//! the Spatial Computer Model. Shearsort sorts a `√n × √n` mesh in
//! `Θ(√n log n)` rounds (alternating snake-order row sorts and column
//! sorts), so it lands at `Θ(n^{3/2} log n)` energy and — crucially —
//! `Θ(√n log n)` **depth**. The optimal mesh algorithms reach `Θ(√n)`
//! rounds [Thompson & Kung]; either way the depth is polynomial, which is
//! exactly what the paper's 2D mergesort improves to poly-logarithmic while
//! keeping `Θ(n^{3/2})` energy. The `fig_mesh` benchmark measures this
//! trade.

use spatial_model::{Machine, SubGrid, Tracked};

use sortnet::network::{Comparator, Network};
use sortnet::run_on_coords;

/// One odd-even transposition step applied to every row simultaneously
/// (`dir[r]` = false for ascending rows, true for descending).
fn row_step<T: Ord + Clone>(
    machine: &mut Machine,
    grid: SubGrid,
    items: Vec<Tracked<T>>,
    odd: bool,
    snake: bool,
) -> Vec<Tracked<T>> {
    let (h, w) = (grid.h as usize, grid.w as usize);
    let mut net = Network::new(h * w);
    let mut stage = Vec::new();
    for r in 0..h {
        let descending = snake && r % 2 == 1;
        let mut c = usize::from(odd);
        while c + 1 < w {
            let (lo, hi) = (r * w + c, r * w + c + 1);
            if descending {
                stage.push(Comparator::new(hi, lo));
            } else {
                stage.push(Comparator::new(lo, hi));
            }
            c += 2;
        }
    }
    net.push_stage(stage);
    run_on_coords(machine, &net, items)
}

/// One odd-even transposition step applied to every column simultaneously
/// (always top-to-bottom ascending).
fn col_step<T: Ord + Clone>(
    machine: &mut Machine,
    grid: SubGrid,
    items: Vec<Tracked<T>>,
    odd: bool,
) -> Vec<Tracked<T>> {
    let (h, w) = (grid.h as usize, grid.w as usize);
    let mut net = Network::new(h * w);
    let mut stage = Vec::new();
    for c in 0..w {
        let mut r = usize::from(odd);
        while r + 1 < h {
            stage.push(Comparator::new(r * w + c, (r + 1) * w + c));
            r += 2;
        }
    }
    net.push_stage(stage);
    run_on_coords(machine, &net, items)
}

/// Sorts `items` (row-major on the square `grid`) into **snake order**:
/// even rows ascend left→right, odd rows descend, and rows are globally
/// ordered. Pure mesh algorithm: every message crosses exactly one grid
/// edge.
pub fn shearsort_snake<T: Ord + Clone>(
    machine: &mut Machine,
    grid: SubGrid,
    items: Vec<Tracked<T>>,
) -> Vec<Tracked<T>> {
    assert!(grid.is_square(), "shearsort runs on square meshes");
    assert_eq!(items.len() as u64, grid.len());
    for (i, it) in items.iter().enumerate() {
        assert_eq!(it.loc(), grid.rm_coord(i as u64), "item {i} off its mesh cell");
    }
    let h = grid.h as usize;
    let w = grid.w as usize;
    let phases = (usize::BITS - (h.max(2) - 1).leading_zeros()) as usize + 1;
    let mut cur = items;
    for _ in 0..phases {
        // Full snake-order row sort: w transposition steps.
        for step in 0..w {
            cur = row_step(machine, grid, cur, step % 2 == 1, true);
        }
        // Full column sort: h transposition steps.
        for step in 0..h {
            cur = col_step(machine, grid, cur, step % 2 == 1);
        }
    }
    // Final row pass leaves each row internally sorted in snake order.
    for step in 0..w {
        cur = row_step(machine, grid, cur, step % 2 == 1, true);
    }
    cur
}

/// Sorts into **row-major** order: shearsort + reversal of the odd rows
/// (a one-message-per-element permutation inside each row).
pub fn shearsort_row_major<T: Ord + Clone>(
    machine: &mut Machine,
    grid: SubGrid,
    items: Vec<Tracked<T>>,
) -> Vec<Tracked<T>> {
    let snake = shearsort_snake(machine, grid, items);
    let w = grid.w as usize;
    // The row reversal is a bijection on indices, so tagging each element
    // with its destination and sorting by it fills every slot by
    // construction — no placeholder vector, no panic path.
    let mut placed: Vec<(usize, Tracked<T>)> = snake
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let (r, c) = (i / w, i % w);
            let dst_c = if r % 2 == 1 { w - 1 - c } else { c };
            let dst = r * w + dst_c;
            (dst, machine.move_to(t, grid.rm_coord(dst as u64)))
        })
        .collect();
    placed.sort_by_key(|&(dst, _)| dst);
    placed.into_iter().map(|(_, t)| t).collect()
}

/// Snake-order index of row-major position `i` on a width-`w` grid
/// (testing helper: `snake_value_order(i)` gives the row-major cell holding
/// the `i`-th smallest element after [`shearsort_snake`]).
pub fn snake_cell(i: usize, w: usize) -> usize {
    let (r, c) = (i / w, i % w);
    if r % 2 == 1 {
        r * w + (w - 1 - c)
    } else {
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_model::Coord;

    fn place(m: &mut Machine, grid: SubGrid, vals: Vec<i64>) -> Vec<Tracked<i64>> {
        vals.into_iter().enumerate().map(|(i, v)| m.place(grid.rm_coord(i as u64), v)).collect()
    }

    fn pseudo(n: usize) -> Vec<i64> {
        (0..n).map(|i| ((i as i64 * 2654435761) % 1009) - 500).collect()
    }

    #[test]
    fn sorts_into_snake_order() {
        for side in [2u64, 4, 8, 16] {
            let n = (side * side) as usize;
            let grid = SubGrid::square(Coord::ORIGIN, side);
            let mut m = Machine::new();
            let items = place(&mut m, grid, pseudo(n));
            let out = shearsort_snake(&mut m, grid, items);
            let got: Vec<i64> = out.iter().map(|t| *t.value()).collect();
            let mut expect = pseudo(n);
            expect.sort_unstable();
            for (rank, &v) in expect.iter().enumerate() {
                assert_eq!(got[snake_cell(rank, side as usize)], v, "side {side} rank {rank}");
            }
        }
    }

    #[test]
    fn row_major_variant_matches_std_sort() {
        let side = 8u64;
        let n = 64usize;
        let grid = SubGrid::square(Coord::ORIGIN, side);
        let mut m = Machine::new();
        let items = place(&mut m, grid, pseudo(n));
        let out = shearsort_row_major(&mut m, grid, items);
        let got: Vec<i64> = out.iter().map(|t| *t.value()).collect();
        let mut expect = pseudo(n);
        expect.sort_unstable();
        assert_eq!(got, expect);
        for (i, t) in out.iter().enumerate() {
            assert_eq!(t.loc(), grid.rm_coord(i as u64));
        }
    }

    #[test]
    fn every_message_is_a_mesh_edge() {
        let side = 8u64;
        let grid = SubGrid::square(Coord::ORIGIN, side);
        let mut m = Machine::new();
        m.enable_trace(1 << 22);
        let items = place(&mut m, grid, pseudo(64));
        let _ = shearsort_snake(&mut m, grid, items);
        for rec in m.trace().unwrap().records() {
            assert_eq!(rec.len, 1, "mesh algorithms only talk to neighbours");
        }
    }

    #[test]
    fn depth_is_order_sqrt_n_log_n() {
        // The §II.B point: mesh sorting has polynomial depth.
        for side in [8u64, 16, 32] {
            let n = (side * side) as usize;
            let grid = SubGrid::square(Coord::ORIGIN, side);
            let mut m = Machine::new();
            let items = place(&mut m, grid, pseudo(n));
            let _ = shearsort_snake(&mut m, grid, items);
            let rounds = (side as f64) * ((side as f64).log2() + 2.0) * 2.5;
            assert!(
                m.report().depth as f64 <= rounds + side as f64,
                "side {side}: depth {} vs round bound {rounds}",
                m.report().depth
            );
            // And it really is polynomial: at least ~side rounds deep.
            assert!(m.report().depth >= side, "side {side}: depth {}", m.report().depth);
        }
    }

    #[test]
    fn energy_matches_k_rounds_times_n() {
        // O(Kn) energy for a K-round mesh algorithm.
        let side = 16u64;
        let n = side * side;
        let grid = SubGrid::square(Coord::ORIGIN, side);
        let mut m = Machine::new();
        let items = place(&mut m, grid, pseudo(n as usize));
        let _ = shearsort_snake(&mut m, grid, items);
        let k = m.report().depth; // rounds
        assert!(m.energy() <= 2 * k * n, "energy {} vs 2Kn {}", m.energy(), 2 * k * n);
    }

    #[test]
    fn already_sorted_input_stays_sorted() {
        let side = 8u64;
        let grid = SubGrid::square(Coord::ORIGIN, side);
        let mut m = Machine::new();
        let vals: Vec<i64> = (0..64).collect();
        let items = place(&mut m, grid, vals.clone());
        let out = shearsort_row_major(&mut m, grid, items);
        let got: Vec<i64> = out.iter().map(|t| *t.value()).collect();
        assert_eq!(got, vals);
    }
}
