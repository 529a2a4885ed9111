//! Permutation routing and the Lemma V.1 lower-bound pattern.
//!
//! Any permutation can be realised by one direct message per element; the
//! paper's lower bound (Lemma V.1) exhibits a permutation — reversing the
//! row-major order — that forces `Ω(max(w,h)²·min(w,h))` energy on an
//! `h × w` subgrid, which is `Ω(n^{3/2})` on a square. Sorting implements
//! arbitrary permutations, so the bound transfers to sorting
//! (Corollary V.2) and, via permutation matrices, to SpMV (Lemma VIII.1).

use spatial_model::{Cost, Machine, SubGrid};

/// Routes value `i` from row-major cell `i` to row-major cell `perm[i]` of
/// `grid`, one message per element. Returns the cost of the permutation.
///
/// `perm` must be a permutation of `0..grid.len()`.
pub fn permute_row_major(machine: &mut Machine, grid: SubGrid, perm: &[u64]) -> Cost {
    let n = grid.len();
    assert_eq!(perm.len() as u64, n);
    let mut seen = vec![false; n as usize];
    for &p in perm {
        assert!(p < n && !std::mem::replace(&mut seen[p as usize], true), "not a permutation");
    }
    let before = machine.report();
    for (i, &p) in perm.iter().enumerate() {
        let v = machine.place(grid.rm_coord(i as u64), i as u64);
        let moved = machine.send_owned(v, grid.rm_coord(p));
        machine.discard(moved);
    }
    machine.report() - before
}

/// The reversal permutation `i ↦ n-1-i` of Lemma V.1's proof: elements in the
/// first third of the rows must cross to the last third.
pub fn reversal_perm(n: u64) -> Vec<u64> {
    (0..n).map(|i| n - 1 - i).collect()
}

/// A transpose-like permutation (row-major index of the transposed cell):
/// another `Θ(n^{3/2})` pattern on a square grid.
pub fn transpose_perm(side: u64) -> Vec<u64> {
    let n = side * side;
    (0..n).map(|i| (i % side) * side + i / side).collect()
}

/// Lower bound of Lemma V.1 for an `h × w` grid (up to the lemma's constant):
/// `max(w,h)² · min(w,h) / 9`.
///
/// Computed in `u128`, where the product is exact for every grid of fewer
/// than 2^128 cells (in `u64` it overflows for square sides above about
/// 2^21.3). Beyond that the product saturates, which keeps the result a
/// lower bound.
pub fn permutation_energy_lower_bound(h: u64, w: u64) -> u128 {
    let (mx, mn) = (u128::from(h.max(w)), u128::from(h.min(w)));
    (mx * mx).saturating_mul(mn) / 9
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_model::Coord;

    #[test]
    fn reversal_meets_the_lower_bound_on_squares() {
        for side in [8u64, 16, 32] {
            let n = side * side;
            let grid = SubGrid::square(Coord::ORIGIN, side);
            let mut m = Machine::new();
            let cost = permute_row_major(&mut m, grid, &reversal_perm(n));
            let lb = permutation_energy_lower_bound(side, side);
            assert!(
                u128::from(cost.energy) >= lb,
                "side {side}: energy {} < bound {lb}",
                cost.energy
            );
            // And it is Θ(n^{3/2}): also check an upper constant.
            assert!(cost.energy <= 2 * n * side, "side {side}: energy {} too large", cost.energy);
        }
    }

    #[test]
    fn reversal_on_rectangles_scales_with_max_dim_squared() {
        let grid = SubGrid::new(Coord::ORIGIN, 64, 4);
        let mut m = Machine::new();
        let cost = permute_row_major(&mut m, grid, &reversal_perm(grid.len()));
        let lb = permutation_energy_lower_bound(64, 4);
        assert!(u128::from(cost.energy) >= lb, "energy {} < bound {lb}", cost.energy);
    }

    #[test]
    fn lower_bound_is_symmetric_and_grows_with_the_square() {
        assert_eq!(permutation_energy_lower_bound(8, 4), permutation_energy_lower_bound(4, 8));
        assert!(permutation_energy_lower_bound(64, 64) > permutation_energy_lower_bound(32, 32));
    }

    #[test]
    fn lower_bound_does_not_overflow_past_side_two_to_the_twenty_one() {
        let side = 1u64 << 22;
        assert_eq!(permutation_energy_lower_bound(side, side), (1u128 << 66) / 9);
        // The largest grid saturates the product instead of panicking.
        assert_eq!(permutation_energy_lower_bound(u64::MAX, u64::MAX), u128::MAX / 9);
    }

    #[test]
    fn identity_costs_nothing() {
        let grid = SubGrid::square(Coord::ORIGIN, 8);
        let mut m = Machine::new();
        let perm: Vec<u64> = (0..64).collect();
        let cost = permute_row_major(&mut m, grid, &perm);
        assert_eq!(cost.energy, 0);
    }

    #[test]
    fn transpose_is_also_expensive() {
        let side = 16u64;
        let grid = SubGrid::square(Coord::ORIGIN, side);
        let mut m = Machine::new();
        let cost = permute_row_major(&mut m, grid, &transpose_perm(side));
        // Transpose moves Θ(n) elements a Θ(√n) distance.
        assert!(cost.energy as f64 > 0.2 * (side * side) as f64 * side as f64);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_non_permutations() {
        let grid = SubGrid::square(Coord::ORIGIN, 2);
        let mut m = Machine::new();
        let _ = permute_row_major(&mut m, grid, &[0, 0, 1, 2]);
    }
}
