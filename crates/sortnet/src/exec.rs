//! Spatial execution of comparator networks.
//!
//! Each wire is pinned to one PE; a comparator exchanges the two wire values
//! (two messages, each paying the Manhattan distance between the PEs) and
//! keeps the minimum on the `low` wire. This is the execution model behind
//! Lemma V.3/V.4: the network's geometry — not its comparator count — sets
//! the energy.

use spatial_model::{Coord, Machine, SubGrid, Tracked};

use crate::network::Network;

/// Runs `net` with wire `i` pinned at `items[i].loc()`.
///
/// Returns the wire values after the last stage, in wire order (each value
/// still resident on its wire's PE).
pub fn run_on_coords<T: Clone + Ord>(
    machine: &mut Machine,
    net: &Network,
    items: Vec<Tracked<T>>,
) -> Vec<Tracked<T>> {
    assert_eq!(items.len(), net.width(), "one input per wire");
    let locs: Vec<Coord> = items.iter().map(|t| t.loc()).collect();
    let mut wires: Vec<Tracked<T>> = items;
    for stage in net.stages() {
        // Exchange: each endpoint sends its value to the other; both then
        // locally keep min/max, so the chain through a comparator is one
        // message long. A stage's comparators touch disjoint wires, so the
        // whole stage's exchanges charge as one batch.
        let sends: Vec<(&Tracked<T>, Coord)> = stage
            .iter()
            .flat_map(|c| [(&wires[c.low], locs[c.high]), (&wires[c.high], locs[c.low])])
            .collect();
        let arrived = machine.send_batch_copy(&sends);
        drop(sends);
        for (c, pair) in stage.iter().zip(arrived.chunks_exact(2)) {
            let (to_high, to_low) = (&pair[0], &pair[1]);
            let new_low =
                wires[c.low].zip_with(to_low, |a, b| if a <= b { a.clone() } else { b.clone() });
            let new_high =
                wires[c.high].zip_with(to_high, |a, b| if a >= b { a.clone() } else { b.clone() });
            machine.discard(std::mem::replace(&mut wires[c.low], new_low));
            machine.discard(std::mem::replace(&mut wires[c.high], new_high));
        }
        for t in arrived {
            machine.discard(t);
        }
    }
    wires
}

/// Runs `net` with wires mapped row-major onto `grid` (the Fig. 2 layout).
/// `items[i]` must already reside at row-major position `i`.
pub fn run_row_major<T: Clone + Ord>(
    machine: &mut Machine,
    net: &Network,
    grid: SubGrid,
    items: Vec<Tracked<T>>,
) -> Vec<Tracked<T>> {
    assert_eq!(items.len() as u64, grid.len());
    for (i, it) in items.iter().enumerate() {
        assert_eq!(it.loc(), grid.rm_coord(i as u64), "wire {i} must sit at its row-major cell");
    }
    run_on_coords(machine, net, items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitonic::{bitonic_merge, bitonic_sort};
    use crate::oddeven::odd_even_transposition;

    fn place_rm(m: &mut Machine, grid: SubGrid, vals: Vec<i64>) -> Vec<Tracked<i64>> {
        vals.into_iter().enumerate().map(|(i, v)| m.place(grid.rm_coord(i as u64), v)).collect()
    }

    fn pseudo(n: usize) -> Vec<i64> {
        (0..n).map(|i| ((i as i64 * 2654435761) % 1009) - 500).collect()
    }

    #[test]
    fn grid_execution_matches_host_semantics() {
        let n = 64usize;
        let grid = SubGrid::square(Coord::ORIGIN, 8);
        let net = bitonic_sort(n);
        let vals = pseudo(n);
        let mut m = Machine::new();
        let items = place_rm(&mut m, grid, vals.clone());
        let out = run_row_major(&mut m, &net, grid, items);
        let got: Vec<i64> = out.iter().map(|t| *t.value()).collect();
        assert_eq!(got, net.apply(&vals));
        let mut sorted = vals;
        sorted.sort_unstable();
        assert_eq!(got, sorted);
    }

    #[test]
    fn values_stay_on_their_wires() {
        let n = 16usize;
        let grid = SubGrid::square(Coord::ORIGIN, 4);
        let net = odd_even_transposition(n);
        let mut m = Machine::new();
        let items = place_rm(&mut m, grid, pseudo(n));
        let out = run_row_major(&mut m, &net, grid, items);
        for (i, t) in out.iter().enumerate() {
            assert_eq!(t.loc(), grid.rm_coord(i as u64));
        }
    }

    #[test]
    fn energy_counts_two_messages_per_comparator() {
        // One comparator between adjacent cells: 2 messages of distance 1.
        let grid = SubGrid::new(Coord::ORIGIN, 1, 2);
        let mut net = Network::new(2);
        net.push_stage(vec![crate::network::Comparator::new(0, 1)]);
        let mut m = Machine::new();
        let items = place_rm(&mut m, grid, vec![9, 1]);
        let out = run_row_major(&mut m, &net, grid, items);
        assert_eq!(m.energy(), 2);
        assert_eq!(m.messages(), 2);
        assert_eq!(*out[0].value(), 1);
        assert_eq!(*out[1].value(), 9);
    }

    #[test]
    fn bitonic_sort_energy_scales_as_n_sqrt_n_log_n() {
        // Lemma V.4 with h = w = √n: energy Θ(n^{3/2} log n). Check the
        // growth rate between two sizes: n 16× larger → energy ≈ 64·(log
        // ratio) ≈ 85× larger. Accept a broad band around that.
        let energy = |side: u64| {
            let n = (side * side) as usize;
            let grid = SubGrid::square(Coord::ORIGIN, side);
            let net = bitonic_sort(n);
            let mut m = Machine::new();
            let items = place_rm(&mut m, grid, pseudo(n));
            let _ = run_row_major(&mut m, &net, grid, items);
            m.energy() as f64
        };
        let growth = energy(32) / energy(8);
        assert!(
            growth > 48.0 && growth < 140.0,
            "expected ≈64–90x energy growth for 16x n, got {growth:.1}x"
        );
    }

    #[test]
    fn bitonic_merge_on_grid_sorts_two_sorted_halves() {
        let n = 64usize;
        let grid = SubGrid::square(Coord::ORIGIN, 8);
        let mut a: Vec<i64> = pseudo(n / 2);
        let mut b: Vec<i64> = pseudo(n / 2).iter().map(|x| x + 13).collect();
        a.sort_unstable();
        b.sort_unstable();
        b.reverse(); // make [A asc, B desc] bitonic
        let input: Vec<i64> = a.iter().chain(b.iter()).copied().collect();
        let mut m = Machine::new();
        let items = place_rm(&mut m, grid, input.clone());
        let out = run_row_major(&mut m, &bitonic_merge(n), grid, items);
        let got: Vec<i64> = out.iter().map(|t| *t.value()).collect();
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn depth_watermark_tracks_network_depth() {
        let n = 256usize;
        let grid = SubGrid::square(Coord::ORIGIN, 16);
        let net = bitonic_sort(n);
        let mut m = Machine::new();
        let items = place_rm(&mut m, grid, pseudo(n));
        let _ = run_row_major(&mut m, &net, grid, items);
        // Each stage adds at most 1 to any chain; values passing through a
        // comparator gain exactly one message.
        assert!(m.report().depth as usize <= net.depth());
        assert!(m.report().depth as usize >= net.depth() / 2);
    }
}
