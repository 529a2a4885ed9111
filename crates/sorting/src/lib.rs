//! # Energy-optimal spatial sorting (paper §V)
//!
//! The paper's sorting toolchain on the Spatial Computer Model:
//!
//! * [`allpairs`] — All-Pairs Sort (Lemma V.5): compare everything with
//!   everything on an exploded `m × m` grid; `O(m^{5/2})` energy but only
//!   `O(log m)` depth. Used on small samples inside the rank routines.
//! * [`rank2`] — deterministic rank selection in two sorted arrays
//!   (Lemma V.6): `O(n^{5/4})` energy, `O(log n)` depth, `O(√n)` distance.
//! * [`merge2d`] — the 2D merge (Lemma V.7, Fig. 3): rank-split into four
//!   quarters and recurse; `O(n^{3/2})` energy, `O(log² n)` depth.
//! * [`mergesort`] — 2D Mergesort (Theorem V.8): sort the four quadrants,
//!   merge pairwise; `O(n^{3/2})` energy (optimal by the Lemma V.1
//!   permutation bound), `O(log³ n)` depth, `O(√n)` distance.
//! * [`permute`] — direct permutation routing, including the row-reversal
//!   pattern realising the Lemma V.1 lower bound and the Z-order ↔ row-major
//!   layout conversions.
//!
//! ## Layout convention
//!
//! Arrays occupy contiguous ranges of the global Z-order curve (a *Z-segment*
//! `[lo, lo+len)`); a Z-segment of length `L` spans `O(√L)` grid diameter, so
//! per-recursion-level permutations cost `O(L^{3/2})` — the same recurrence
//! as the paper's square + "mirrored-L" layout (see DESIGN.md for the
//! substitution argument). [`mergesort::sort_row_major`] converts from/to
//! row-major input at the ends, mirroring Fig. 3(d).

pub mod allpairs;
pub mod keyed;
pub mod merge2d;
pub mod mergesort;
pub mod permute;
pub mod rank2;
pub mod shearsort;

pub use allpairs::{allpairs_rank, allpairs_sort_to_z, scratch_for};
pub use keyed::Keyed;
pub use merge2d::merge_adjacent;
pub use mergesort::{sort_row_major, sort_z, sort_z_values};
pub use rank2::multi_rank_split;
pub use shearsort::{shearsort_row_major, shearsort_snake};
