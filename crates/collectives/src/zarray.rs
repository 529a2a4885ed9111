//! Placement helpers: arrays on the Z-order curve or row-major on a subgrid.

use spatial_model::{zorder, Machine, SubGrid, Tracked};

/// Places `values[i]` at global Z-order index `lo + i`.
///
/// This is the canonical array layout of the paper (§III): an array occupies
/// a contiguous segment of the grid-wide Z-order curve, so any aligned
/// power-of-four sub-segment is a square subgrid.
pub fn place_z<T>(machine: &mut Machine, lo: u64, values: Vec<T>) -> Vec<Tracked<T>> {
    machine.place_batch(values, |i| zorder::coord_of(lo + i as u64))
}

/// Places `values[i]` at row-major index `i` of `grid`.
pub fn place_row_major<T>(machine: &mut Machine, grid: SubGrid, values: Vec<T>) -> Vec<Tracked<T>> {
    assert_eq!(values.len() as u64, grid.len());
    machine.place_batch(values, |i| grid.rm_coord(i as u64))
}

/// Extracts the plain values (consuming the tracked wrappers).
pub fn read_values<T>(items: Vec<Tracked<T>>) -> Vec<T> {
    items.into_iter().map(Tracked::into_value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_model::Coord;

    #[test]
    fn place_z_puts_items_on_curve() {
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, vec![10, 20, 30, 40, 50]);
        assert_eq!(items[0].loc(), Coord::new(0, 0));
        assert_eq!(items[1].loc(), Coord::new(0, 1));
        assert_eq!(items[2].loc(), Coord::new(1, 0));
        assert_eq!(items[3].loc(), Coord::new(1, 1));
        assert_eq!(items[4].loc(), Coord::new(0, 2));
        assert_eq!(m.energy(), 0, "placement is free");
    }

    #[test]
    fn place_row_major_matches_grid_indexing() {
        let mut m = Machine::new();
        let g = SubGrid::new(Coord::new(5, 5), 2, 3);
        let items = place_row_major(&mut m, g, vec![0, 1, 2, 3, 4, 5]);
        for (i, it) in items.iter().enumerate() {
            assert_eq!(it.loc(), g.rm_coord(i as u64));
        }
        assert_eq!(read_values(items), vec![0, 1, 2, 3, 4, 5]);
    }
}
