//! # spatial-dataflow
//!
//! A from-scratch Rust reproduction of *Energy-Optimal and Low-Depth
//! Algorithmic Primitives for Spatial Dataflow Architectures* (Gianinazzi,
//! Ben-Nun, Besta, Ashkboos, Baumann, Luczynski, Hoefler — IPDPS 2025):
//! the Spatial Computer Model as an exact cost-accounting simulator, plus
//! energy-optimal parallel scans, rank selection, 2D mergesort, PRAM
//! simulation and sparse matrix–vector multiplication built on it.
//!
//! This crate is a thin facade over [`spatial_core`]; see the README for a
//! tour and `examples/` for runnable scenarios:
//!
//! ```bash
//! cargo run --release --example quickstart
//! cargo run --release --example pagerank
//! cargo run --release --example poisson_jacobi
//! cargo run --release --example sort_pooling
//! cargo run --release --example visualize
//! ```

pub use spatial_core::*;

pub use gnn;

/// End-to-end verification helper for examples and drivers: report the
/// failed check on stderr and exit with code 3 (the same code the CLI uses
/// for a failed host-reference verification) instead of panicking, so fault
/// regressions are CI-visible as clean exit statuses.
pub mod verify {
    /// Exit code for a failed end-to-end verification.
    pub const EXIT_VERIFY_FAILED: i32 = 3;

    /// Checks a verification condition; on failure prints `msg` and exits 3.
    pub fn ensure(cond: bool, msg: impl std::fmt::Display) {
        if !cond {
            eprintln!("verification FAILED: {msg}");
            std::process::exit(EXIT_VERIFY_FAILED);
        }
    }
}

/// Convenient single-import surface for applications.
pub mod prelude {
    pub use spatial_core::collectives::{
        all_reduce, broadcast, place_row_major, place_z, read_values, reduce, scan, scan_exclusive,
        segmented_scan, SegItem,
    };
    pub use spatial_core::model::{
        profile_by_name, CancelToken, Coord, Cost, CostProfile, FaultPlan, Machine, ModelGuard,
        Path, ProfileError, ProfiledCost, SpatialError, SubGrid, Tracked,
    };
    pub use spatial_core::recovery::{checksum, checksum_i64, run_with_recovery, Recovered};
    pub use spatial_core::selection::{select_median, select_rank, select_rank_values};
    pub use spatial_core::sorting::{sort_row_major, sort_z, sort_z_values};
    pub use spatial_core::spmv::{spmv, Coo, Csr};
    pub use spatial_core::theory;
    pub use spatial_core::topk::{bottom_k, top_k};
}

#[cfg(test)]
mod facade_tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_primary_workflow() {
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, vec![4i64, 1, 3, 2]);
        let sorted = sort_z_values(&mut m, 0, items);
        assert_eq!(sorted, vec![1, 2, 3, 4]);
    }
}
