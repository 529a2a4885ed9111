//! # Spatial communication collectives (paper §IV)
//!
//! Energy-optimal, low-depth collectives for the Spatial Computer Model:
//!
//! * [`broadcast()`] / [`reduce()`] / [`all_reduce`] — the multicast-free
//!   `O(hw + h log h)`-energy, `O(log n)`-depth collectives of Lemma IV.1 and
//!   Corollary IV.2;
//! * [`scan()`] — the energy-optimal parallel scan of Lemma IV.3:
//!   `O(n)` energy, `O(log n)` depth, `O(√n)` distance via a 4-ary summation
//!   tree in Z-order (up-sweep + down-sweep, Fig. 1);
//! * [`segmented`] — segmented scans via the segmented-operator construction;
//! * [`naive`] — the `Θ(n log n)`-energy row-major binary-tree baselines the
//!   paper improves on (used by the ablation benchmarks);
//! * [`route`] — direct data-movement helpers (gather/scatter/permute) shared
//!   by the sorting and selection crates.
//!
//! Inputs and outputs are vectors of [`spatial_model::Tracked`] values whose
//! locations encode the layout (row-major on a [`SubGrid`], or positions on
//! the global Z-order curve).

pub mod broadcast;
pub mod naive;
pub mod reduce;
pub mod route;
pub mod scan;
pub mod segmented;
pub mod zarray;
pub mod zseg;

pub use broadcast::{broadcast, broadcast_1d, broadcast_2d};
pub use reduce::{all_reduce, reduce, reduce_2d};
pub use scan::{scan, scan_any, scan_exclusive};
pub use segmented::{segmented_scan, SegItem};
pub use zarray::{place_row_major, place_z, read_values};
pub use zseg::{broadcast_z, reduce_z};

use spatial_model::SubGrid;

/// Panics unless `items.len()` matches the subgrid size.
pub(crate) fn check_grid_len<T>(items: &[T], grid: &SubGrid) {
    assert_eq!(
        items.len() as u64,
        grid.len(),
        "expected one item per PE of the {}x{} subgrid",
        grid.h,
        grid.w
    );
}
