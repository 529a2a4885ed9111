//! # Sparse matrix–vector multiplication (paper §VIII)
//!
//! SpMV on the Spatial Computer Model, built from the sorting and scanning
//! primitives:
//!
//! * [`matrix`] — COO/CSR sparse matrices and a dense reference multiply;
//! * [`lowdepth`] — the paper's direct algorithm (Theorem VIII.2): sort by
//!   column, elect column leaders, fetch and segment-broadcast the `x`
//!   entries, multiply, sort by row, segment-sum, gather. Costs
//!   `O(m^{3/2})` energy, `O(log³ n)` depth, `O(√m)` distance — energy
//!   optimal for `m = O(n)` by the permutation bound (Lemma VIII.1);
//! * [`pram_baseline`] — the §VIII upper-bound algorithm run through the
//!   CRCW PRAM simulator (Lemma VII.2): same energy order, but a `log n`
//!   factor worse in depth and distance, which the direct algorithm removes.

pub mod linalg;
pub mod lowdepth;
pub mod matrix;
pub mod pram_baseline;

pub use linalg::SpatialVector;
pub use lowdepth::{spmv, spmv_multi, SpmvOutput};
pub use matrix::{Coo, Csr};

/// Scalar values a matrix can carry: enough arithmetic for `A·x` plus the
/// bits the simulator needs to move values around.
pub trait Scalar:
    Copy
    + Default
    + PartialEq
    + std::fmt::Debug
    + Send
    + Sync
    + std::ops::Add<Output = Self>
    + std::ops::Mul<Output = Self>
{
}

impl Scalar for f64 {}
impl Scalar for i64 {}
impl Scalar for i32 {}
