//! The low-depth SpMV algorithm (paper §VIII, Theorem VIII.2).
//!
//! 1. sort the COO triples by column index (2D Mergesort);
//! 2. elect *column leaders* by comparing with the previous processor;
//! 3. each leader fetches its `x_j` from the vector subgrid and a segmented
//!    broadcast copies it across the column group;
//! 4. every processor multiplies `A_{ij}·x_j` locally;
//! 5. sort the partial products by row index;
//! 6. elect *row leaders* and sum each row group with a segmented scan;
//! 7. gather the row results into the output vector subgrid.
//!
//! Total: `O(m^{3/2})` energy, `O(log³ n)` depth, `O(√m)` distance —
//! dominated by the two sorts (Theorem V.8) and the scans (Lemma IV.3).

use spatial_model::{zorder, Coord, Cost, Machine, Tracked};

use collectives::segmented::{segmented_scan, SegItem};
use sorting::mergesort::sort_z;

use crate::matrix::Coo;
use crate::Scalar;

/// One COO triple during the spatial computation; ordered by `(key, uid)`
/// where `key` is set to the column (phase 1) or row (phase 5) index.
#[derive(Clone, Debug)]
struct Entry<V> {
    key: u32,
    row: u32,
    col: u32,
    val: V,
    uid: u64,
}

impl<V> PartialEq for Entry<V> {
    fn eq(&self, o: &Self) -> bool {
        (self.key, self.uid) == (o.key, o.uid)
    }
}
impl<V> Eq for Entry<V> {}
impl<V> PartialOrd for Entry<V> {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl<V> Ord for Entry<V> {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (self.key, self.uid).cmp(&(o.key, o.uid))
    }
}

/// Result of a spatial SpMV run.
#[derive(Clone, Debug)]
pub struct SpmvOutput<V> {
    /// The product `A·x`.
    pub y: Vec<V>,
    /// Exact model cost of the multiplication (input placement excluded).
    pub cost: Cost,
}

/// Computes `y = A·x` on the Spatial Computer Model.
///
/// The `m` triples are placed on the Z-segment `[0, m̃)` (padded size) in
/// their given arbitrary order, the vector on the adjacent aligned segment,
/// exactly as §VIII prescribes. Returns the product and the cost.
///
/// ```
/// use spatial_model::Machine;
/// use spmv::{spmv, Coo};
///
/// let a = Coo::new(2, 2, vec![(0, 0, 2i64), (1, 0, -1), (1, 1, 3)]);
/// let mut m = Machine::new();
/// let out = spmv(&mut m, &a, &[10, 100]);
/// assert_eq!(out.y, vec![20, 290]);
/// assert!(out.cost.energy > 0);
/// ```
pub fn spmv<V: Scalar>(machine: &mut Machine, a: &Coo<V>, x: &[V]) -> SpmvOutput<V> {
    assert_eq!(x.len(), a.n_cols, "dimension mismatch");
    let m = a.nnz() as u64;
    let n = a.n_cols as u64;
    if m == 0 {
        return SpmvOutput { y: vec![V::default(); a.n_rows], cost: Cost::default() };
    }
    let m_pad = zorder::next_power_of_four(m);
    let n_pad = zorder::next_power_of_four(n.max(1));
    // Vector subgrid: first aligned n_pad-square after the matrix subgrid.
    let x_lo = m_pad.div_ceil(n_pad) * n_pad;
    // Output subgrid: next aligned n_pad-square after the vector.
    let y_lo = x_lo + n_pad;

    let before = machine.report();

    // Input placement (free): triples on the matrix subgrid, x on its own.
    let entries: Vec<Tracked<Entry<V>>> = machine.place_batch(
        a.entries
            .iter()
            .enumerate()
            .map(|(i, &(row, col, val))| Entry { key: col, row, col, val, uid: i as u64 })
            .collect(),
        |i| zorder::coord_of(i as u64),
    );
    let xs: Vec<Tracked<V>> =
        machine.place_batch(x.to_vec(), |j| zorder::coord_of(x_lo + j as u64));

    // Step 1: sort by column.
    let sorted = sort_z(machine, 0, entries);

    // Step 2: column leaders (first processor of each column group).
    let leaders = elect_leaders(machine, &sorted, |e| e.key);

    // Step 3: leaders fetch x_j; segmented broadcast over the groups. The
    // fetch runs in two batched waves — all requests to the vector subgrid,
    // then all responses back — with the local zip at the cells in between.
    // The vector subgrid is disjoint from the matrix subgrid, so no request
    // is a self-send and the batch charges exactly the per-leader loop.
    let requests: Vec<(Tracked<usize>, Coord)> = sorted
        .iter()
        .enumerate()
        .filter(|&(i, _)| leaders[i])
        .map(|(_, e)| {
            let col = e.value().col as usize;
            (e.with_value(col), xs[col].loc())
        })
        .collect();
    let arrived = machine.send_batch(requests);
    let responses: Vec<(Tracked<V>, Coord)> = sorted
        .iter()
        .enumerate()
        .filter(|&(i, _)| leaders[i])
        .zip(arrived)
        .map(|((_, e), request)| {
            let col = e.value().col as usize;
            let response = xs[col].zip_with(&request, |v, _| *v);
            machine.discard(request);
            (response, e.loc())
        })
        .collect();
    let mut fetched = machine.send_batch(responses).into_iter();
    let mut seg: Vec<Tracked<SegItem<V>>> = Vec::with_capacity(m_pad as usize);
    for (i, e) in sorted.iter().enumerate() {
        if leaders[i] {
            let response = fetched.next().expect("one response per leader");
            seg.push(response.map(|v| SegItem::new(true, v)));
        } else {
            seg.push(e.with_value(SegItem::new(false, V::default())));
        }
    }
    seg.extend(
        machine.place_batch(vec![SegItem::new(true, V::default()); (m_pad - m) as usize], |i| {
            zorder::coord_of(m + i as u64)
        }),
    );
    let xvals = segmented_scan(machine, 0, seg, &|a: &V, _| *a);
    for x in xs {
        machine.discard(x);
    }

    // Step 4: local partial products; re-key by row for the second sort.
    let mut products: Vec<Tracked<Entry<V>>> = Vec::with_capacity(m as usize);
    for (i, e) in sorted.into_iter().enumerate() {
        if (i as u64) < m {
            let p = e.zip_with(&xvals[i], |en, xv| Entry {
                key: en.row,
                row: en.row,
                col: en.col,
                val: en.val * *xv,
                uid: en.uid,
            });
            machine.discard(e);
            products.push(p);
        } else {
            machine.discard(e);
        }
    }
    for v in xvals {
        machine.discard(v);
    }

    // Step 5: sort the products by row.
    let by_row = sort_z(machine, 0, products);

    // Step 6: row leaders + segmented sum; the *last* element of each group
    // holds the row total after the inclusive scan.
    let leaders = elect_leaders(machine, &by_row, |e| e.key);
    let mut seg: Vec<Tracked<SegItem<V>>> = by_row
        .iter()
        .enumerate()
        .map(|(i, e)| e.with_value(SegItem::new(leaders[i], e.value().val)))
        .collect();
    seg.extend(
        machine.place_batch(vec![SegItem::new(true, V::default()); (m_pad - m) as usize], |i| {
            zorder::coord_of(m + i as u64)
        }),
    );
    let sums = segmented_scan(machine, 0, seg, &|a: &V, b: &V| *a + *b);

    // Step 7: the final element of each row group routes the result to the
    // output vector subgrid — one batch (the output subgrid is disjoint from
    // the matrix subgrid, so no route is a self-send).
    let last_rows: Vec<usize> = by_row
        .iter()
        .enumerate()
        .filter(|&(i, _)| i + 1 == m as usize || leaders[i + 1])
        .map(|(_, e)| e.value().row as usize)
        .collect();
    let row_sends: Vec<(Tracked<V>, Coord)> = by_row
        .iter()
        .enumerate()
        .filter(|&(i, _)| i + 1 == m as usize || leaders[i + 1])
        .map(|(i, e)| (sums[i].duplicate(), zorder::coord_of(y_lo + e.value().row as u64)))
        .collect();
    let routed_rows = machine.send_batch(row_sends);
    let mut y_cells: Vec<Option<Tracked<V>>> = (0..a.n_rows).map(|_| None).collect();
    for (row, routed) in last_rows.into_iter().zip(routed_rows) {
        y_cells[row] = Some(routed);
    }
    for s in sums {
        machine.discard(s);
    }
    for e in by_row {
        machine.discard(e);
    }

    let y: Vec<V> =
        y_cells.into_iter().map(|c| c.map_or(V::default(), |t| t.into_value())).collect();
    let cost = machine.report() - before;
    SpmvOutput { y, cost }
}

/// An entry plus its per-channel products; ordered by the entry (distinct
/// via uid), so the row sort works on any scalar payload.
#[derive(Clone, Debug)]
struct MultiEntry<V> {
    entry: Entry<V>,
    prods: Vec<V>,
}
impl<V> PartialEq for MultiEntry<V> {
    fn eq(&self, o: &Self) -> bool {
        self.entry == o.entry
    }
}
impl<V> Eq for MultiEntry<V> {}
impl<V> Ord for MultiEntry<V> {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        self.entry.cmp(&o.entry)
    }
}
impl<V> PartialOrd for MultiEntry<V> {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}

/// Sparse matrix × multiple vectors (SpM-multi-V, the paper's citation
/// \[13\]): computes `y_c = A·x_c` for all `d` channels in **one** pass.
///
/// The sorts, leader elections and scans — the `Θ(m^{3/2})` terms — are
/// shared across channels; only the fetched payloads grow to `d` words per
/// message (still O(1) for a constant channel count, e.g. GNN feature
/// widths). Compared with `d` independent [`spmv`] calls this removes
/// `d − 1` sorts; the `fig_spmm` benchmark quantifies the saving.
pub fn spmv_multi<V: Scalar>(
    machine: &mut Machine,
    a: &Coo<V>,
    xs: &[Vec<V>],
) -> (Vec<Vec<V>>, Cost) {
    let d = xs.len();
    assert!(d >= 1, "at least one channel");
    for x in xs {
        assert_eq!(x.len(), a.n_cols, "dimension mismatch");
    }
    let m = a.nnz() as u64;
    let n = a.n_cols as u64;
    if m == 0 {
        return (vec![vec![V::default(); a.n_rows]; d], Cost::default());
    }
    let m_pad = zorder::next_power_of_four(m);
    let n_pad = zorder::next_power_of_four(n.max(1));
    let x_lo = m_pad.div_ceil(n_pad) * n_pad;
    let y_lo = x_lo + n_pad;

    let before = machine.report();

    // Entries carry their value; the vector cells hold all d channel values.
    let entries: Vec<Tracked<Entry<V>>> = machine.place_batch(
        a.entries
            .iter()
            .enumerate()
            .map(|(i, &(row, col, val))| Entry { key: col, row, col, val, uid: i as u64 })
            .collect(),
        |i| zorder::coord_of(i as u64),
    );
    let xcells: Vec<Tracked<Vec<V>>> = machine.place_batch(
        (0..a.n_cols).map(|j| xs.iter().map(|x| x[j]).collect::<Vec<V>>()).collect(),
        |j| zorder::coord_of(x_lo + j as u64),
    );

    // Shared: sort by column, elect leaders, fetch + segment-broadcast the
    // d-word x payloads (two batched waves, as in [`spmv`]).
    let sorted = sort_z(machine, 0, entries);
    let leaders = elect_leaders(machine, &sorted, |e| e.key);
    let requests: Vec<(Tracked<usize>, Coord)> = sorted
        .iter()
        .enumerate()
        .filter(|&(i, _)| leaders[i])
        .map(|(_, e)| {
            let col = e.value().col as usize;
            (e.with_value(col), xcells[col].loc())
        })
        .collect();
    let arrived = machine.send_batch(requests);
    let responses: Vec<(Tracked<Vec<V>>, Coord)> = sorted
        .iter()
        .enumerate()
        .filter(|&(i, _)| leaders[i])
        .zip(arrived)
        .map(|((_, e), request)| {
            let col = e.value().col as usize;
            let response = xcells[col].zip_with(&request, |v, _| v.clone());
            machine.discard(request);
            (response, e.loc())
        })
        .collect();
    let mut fetched = machine.send_batch(responses).into_iter();
    let mut seg: Vec<Tracked<SegItem<Vec<V>>>> = Vec::with_capacity(m_pad as usize);
    for (i, e) in sorted.iter().enumerate() {
        if leaders[i] {
            let response = fetched.next().expect("one response per leader");
            seg.push(response.map(|v| SegItem::new(true, v)));
        } else {
            seg.push(e.with_value(SegItem::new(false, vec![V::default(); d])));
        }
    }
    seg.extend(
        machine.place_batch(
            vec![SegItem::new(true, vec![V::default(); d]); (m_pad - m) as usize],
            |i| zorder::coord_of(m + i as u64),
        ),
    );
    let xvals = segmented_scan(machine, 0, seg, &|a: &Vec<V>, _| a.clone());
    for x in xcells {
        machine.discard(x);
    }

    // Local products (a d-vector per entry), re-keyed by row.
    let mut products: Vec<Tracked<MultiEntry<V>>> = Vec::with_capacity(m as usize);
    for (i, e) in sorted.into_iter().enumerate() {
        if (i as u64) < m {
            let p = e.zip_with(&xvals[i], |en, xv| MultiEntry {
                entry: Entry { key: en.row, row: en.row, col: en.col, val: en.val, uid: en.uid },
                prods: xv.iter().map(|&x| en.val * x).collect(),
            });
            machine.discard(e);
            products.push(p);
        } else {
            machine.discard(e);
        }
    }
    for v in xvals {
        machine.discard(v);
    }

    // Shared row sort + segmented vector-sum.
    let by_row = sort_z(machine, 0, products);
    let leaders = elect_leaders_by(machine, &by_row, |me: &MultiEntry<V>| me.entry.key);
    let mut seg: Vec<Tracked<SegItem<Vec<V>>>> = by_row
        .iter()
        .enumerate()
        .map(|(i, e)| e.with_value(SegItem::new(leaders[i], e.value().prods.clone())))
        .collect();
    seg.extend(
        machine.place_batch(
            vec![SegItem::new(true, vec![V::default(); d]); (m_pad - m) as usize],
            |i| zorder::coord_of(m + i as u64),
        ),
    );
    let sums = segmented_scan(machine, 0, seg, &|a: &Vec<V>, b: &Vec<V>| {
        a.iter().zip(b).map(|(&x, &y)| x + y).collect()
    });

    let last_rows: Vec<usize> = by_row
        .iter()
        .enumerate()
        .filter(|&(i, _)| i + 1 == m as usize || leaders[i + 1])
        .map(|(_, e)| e.value().entry.row as usize)
        .collect();
    let row_sends: Vec<(Tracked<Vec<V>>, Coord)> = by_row
        .iter()
        .enumerate()
        .filter(|&(i, _)| i + 1 == m as usize || leaders[i + 1])
        .map(|(i, e)| (sums[i].duplicate(), zorder::coord_of(y_lo + e.value().entry.row as u64)))
        .collect();
    let routed_rows = machine.send_batch(row_sends);
    let mut ys = vec![vec![V::default(); a.n_rows]; d];
    for (row, routed) in last_rows.into_iter().zip(routed_rows) {
        for (c, y) in ys.iter_mut().enumerate() {
            y[row] = routed.value()[c];
        }
        machine.discard(routed);
    }
    for s in sums {
        machine.discard(s);
    }
    for e in by_row {
        machine.discard(e);
    }

    (ys, machine.report() - before)
}

/// Leader election for arbitrary payloads (shared by [`spmv_multi`]): every
/// processor `i > 0` receives a copy of its predecessor's value in one
/// batch, then compares locally.
fn elect_leaders_by<T: Clone + Send + Sync>(
    machine: &mut Machine,
    sorted: &[Tracked<T>],
    key: impl Fn(&T) -> u32,
) -> Vec<bool> {
    let mut leaders = vec![false; sorted.len()];
    if sorted.is_empty() {
        return leaders;
    }
    leaders[0] = true;
    let sends: Vec<(&Tracked<T>, Coord)> = sorted.windows(2).map(|w| (&w[0], w[1].loc())).collect();
    let prevs = machine.send_batch_copy(&sends);
    drop(sends);
    for (i, prev) in prevs.into_iter().enumerate() {
        let flag = sorted[i + 1].zip_with(&prev, |e, p| key(e) != key(p));
        leaders[i + 1] = *flag.value();
        machine.discard(prev);
        machine.discard(flag);
    }
    leaders
}

/// Leader election by neighbour comparison (paper step 2): processor `i`
/// receives the key of processor `i-1`; it leads iff the keys differ (or
/// `i = 0`).
fn elect_leaders<V: Scalar>(
    machine: &mut Machine,
    sorted: &[Tracked<Entry<V>>],
    key: impl Fn(&Entry<V>) -> u32,
) -> Vec<bool> {
    elect_leaders_by(machine, sorted, key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_matrix(n: usize, nnz_per_row: usize, seed: u64) -> Coo<i64> {
        let mut entries = Vec::new();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for r in 0..n as u32 {
            for _ in 0..nnz_per_row {
                let c = (next() % n as u64) as u32;
                let v = (next() % 19) as i64 - 9;
                entries.push((r, c, v));
            }
        }
        Coo::new(n, n, entries)
    }

    #[test]
    fn matches_dense_reference_small() {
        let a = Coo::new(3, 3, vec![(0, 0, 1i64), (1, 2, 5), (2, 1, -2), (2, 2, 7)]);
        let x = vec![3i64, 4, 5];
        let mut m = Machine::new();
        let out = spmv(&mut m, &a, &x);
        assert_eq!(out.y, a.multiply_dense(&x));
    }

    #[test]
    fn matches_dense_reference_random() {
        for n in [8usize, 32, 64] {
            let a = pseudo_matrix(n, 5, n as u64);
            let x: Vec<i64> = (0..n as i64).map(|i| (i % 7) - 3).collect();
            let mut m = Machine::new();
            let out = spmv(&mut m, &a, &x);
            assert_eq!(out.y, a.multiply_dense(&x), "n = {n}");
        }
    }

    #[test]
    fn handles_empty_rows_and_duplicate_coordinates() {
        let a = Coo::new(4, 4, vec![(1, 1, 2i64), (1, 1, 3), (3, 0, 1)]);
        let x = vec![10i64, 1, 0, 0];
        let mut m = Machine::new();
        let out = spmv(&mut m, &a, &x);
        assert_eq!(out.y, vec![0, 5, 0, 10]);
    }

    #[test]
    fn works_with_floats() {
        let a = Coo::new(2, 2, vec![(0, 0, 0.5f64), (0, 1, 0.25), (1, 0, -1.5)]);
        let x = vec![4.0f64, 8.0];
        let mut m = Machine::new();
        let out = spmv(&mut m, &a, &x);
        assert_eq!(out.y, vec![4.0, -6.0]);
    }

    #[test]
    fn empty_matrix_costs_nothing() {
        let a: Coo<i64> = Coo::new(5, 5, vec![]);
        let mut m = Machine::new();
        let out = spmv(&mut m, &a, &[1, 2, 3, 4, 5]);
        assert_eq!(out.y, vec![0; 5]);
        assert_eq!(out.cost.energy, 0);
    }

    #[test]
    fn identity_matrix_is_a_copy() {
        let n = 16usize;
        let a: Coo<i64> = Coo::permutation(&(0..n).collect::<Vec<_>>());
        let x: Vec<i64> = (0..n as i64).map(|i| i * i).collect();
        let mut m = Machine::new();
        let out = spmv(&mut m, &a, &x);
        assert_eq!(out.y, x);
    }

    #[test]
    fn rectangular_matrices_work() {
        // Tall (more rows than columns) and wide shapes.
        let tall = Coo::new(8, 3, vec![(0, 0, 1i64), (5, 2, 4), (7, 1, -2), (3, 0, 9)]);
        let x = vec![2i64, 3, 5];
        let mut m = Machine::new();
        let out = spmv(&mut m, &tall, &x);
        assert_eq!(out.y, tall.multiply_dense(&x));

        let wide = Coo::new(2, 9, vec![(0, 8, 3i64), (1, 0, 2), (1, 7, 1)]);
        let x: Vec<i64> = (1..=9).collect();
        let mut m = Machine::new();
        let out = spmv(&mut m, &wide, &x);
        assert_eq!(out.y, wide.multiply_dense(&x));
    }

    #[test]
    fn single_entry_matrix() {
        let a = Coo::new(1, 1, vec![(0, 0, 7i64)]);
        let mut m = Machine::new();
        let out = spmv(&mut m, &a, &[6]);
        assert_eq!(out.y, vec![42]);
    }

    #[test]
    fn multi_channel_matches_per_channel() {
        let n = 64usize;
        let a = pseudo_matrix(n, 4, 5);
        let xs: Vec<Vec<i64>> =
            (0..3).map(|c| (0..n as i64).map(|i| (i * (c + 2)) % 11 - 5).collect()).collect();
        let mut m = Machine::new();
        let (ys, _) = spmv_multi(&mut m, &a, &xs);
        for (c, x) in xs.iter().enumerate() {
            assert_eq!(ys[c], a.multiply_dense(x), "channel {c}");
        }
    }

    #[test]
    fn multi_channel_shares_the_sorts() {
        let n = 256usize;
        let d = 4usize;
        let a = pseudo_matrix(n, 4, 9);
        let xs: Vec<Vec<i64>> = (0..d).map(|c| vec![c as i64 + 1; n]).collect();

        let mut mm = Machine::new();
        let (ys, multi_cost) = spmv_multi(&mut mm, &a, &xs);

        let mut ms = Machine::new();
        let mut singles = Vec::new();
        for x in &xs {
            singles.push(spmv(&mut ms, &a, x).y);
        }
        assert_eq!(ys, singles);
        assert!(
            (multi_cost.energy as f64) < 0.6 * ms.energy() as f64,
            "shared sorts must save: {} vs {}",
            multi_cost.energy,
            ms.energy()
        );
    }

    #[test]
    fn multi_channel_with_floats() {
        let a = Coo::new(2, 2, vec![(0, 0, 0.5f64), (1, 1, 2.0)]);
        let xs = vec![vec![4.0, 3.0], vec![-2.0, 1.0]];
        let mut m = Machine::new();
        let (ys, _) = spmv_multi(&mut m, &a, &xs);
        assert_eq!(ys, vec![vec![2.0, 6.0], vec![-1.0, 2.0]]);
    }

    #[test]
    fn energy_scales_as_m_to_three_halves() {
        // Theorem VIII.2: O(m^{3/2}). 4x m → ≈8x energy.
        let energy = |n: usize| {
            let a = pseudo_matrix(n, 4, 3);
            let x: Vec<i64> = vec![1; n];
            let mut m = Machine::new();
            let out = spmv(&mut m, &a, &x);
            assert_eq!(out.y, a.multiply_dense(&x));
            out.cost.energy as f64
        };
        let growth = energy(1024) / energy(256);
        assert!(growth > 5.0 && growth < 13.0, "expected ≈8x for 4x m, got {growth:.1}x");
    }

    #[test]
    fn depth_is_polylog() {
        let n = 256usize;
        let a = pseudo_matrix(n, 4, 7);
        let x: Vec<i64> = vec![1; n];
        let mut m = Machine::new();
        let out = spmv(&mut m, &a, &x);
        let log = (a.nnz() as f64).log2();
        let bound = (12.0 * log * log * log) as u64;
        assert!(out.cost.depth <= bound, "depth {} > {bound}", out.cost.depth);
    }

    #[test]
    fn distance_is_order_sqrt_m() {
        let n = 256usize;
        let a = pseudo_matrix(n, 4, 11);
        let x: Vec<i64> = vec![1; n];
        let mut m = Machine::new();
        let out = spmv(&mut m, &a, &x);
        let bound = 120 * (a.nnz() as f64).sqrt() as u64;
        assert!(out.cost.distance <= bound, "distance {} > {bound}", out.cost.distance);
    }

    #[test]
    fn spmv_memory_stays_constant_per_pe() {
        // The two sorts, the segmented broadcast and scan, and the routing
        // of §VIII keep O(1) words per PE. Must not grow with the number of
        // non-zeros n.
        for n in [16usize, 64, 256, 1024] {
            let a = pseudo_matrix(n / 4, 4, 3);
            let x: Vec<i64> = (0..(n / 4) as i64).collect();
            let mut m = Machine::new();
            m.enable_memory_meter();
            let out = spmv(&mut m, &a, &x);
            assert_eq!(out.y, a.multiply_dense(&x));
            let peak = m.memory().unwrap().peak();
            assert!(peak <= 4, "n = {n}: peak {peak}");
        }
    }
}
