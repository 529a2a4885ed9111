//! The Z-order (Morton) space-filling curve.
//!
//! The paper stores arrays along the Z-order traversal of the grid: visit the
//! four quadrants in order, top two quadrants first (left to right), then the
//! bottom two (left to right), recursing inside each quadrant. That order
//! corresponds to interleaving the bits of the row index (more significant)
//! and column index (less significant).
//!
//! A key locality property used throughout (Observation 1): sending a message
//! along each edge of the Z-order curve of a `√n × √n` subgrid takes `O(n)`
//! energy, and a contiguous curve range of length `L` fits in a bounding box
//! of side `O(√L)`.

use crate::coord::Coord;

/// Spreads the low 32 bits of `x` so bit `k` moves to bit `2k`.
#[inline]
fn spread(x: u64) -> u64 {
    let mut x = x & 0xFFFF_FFFF;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Inverse of [`spread`]: collects bits at even positions back together.
#[inline]
fn compact(x: u64) -> u64 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x
}

/// Z-order index of the cell `(row, col)` (both must be non-negative and fit
/// in 32 bits). Row bits are placed at the more significant interleave
/// positions so that the top quadrants precede the bottom quadrants.
///
/// ```
/// use spatial_model::zorder::{decode, encode};
/// assert_eq!(encode(0, 0), 0);
/// assert_eq!(encode(0, 1), 1);
/// assert_eq!(encode(1, 0), 2); // top quadrants first, then bottom
/// assert_eq!(decode(encode(123, 456)), (123, 456));
/// ```
#[inline]
pub fn encode(row: u64, col: u64) -> u64 {
    debug_assert!(row < (1 << 32) && col < (1 << 32));
    (spread(row) << 1) | spread(col)
}

/// Inverse of [`encode`].
#[inline]
pub fn decode(z: u64) -> (u64, u64) {
    (compact(z >> 1), compact(z))
}

/// The grid coordinate of global Z-order index `z` (relative to the origin).
#[inline]
pub fn coord_of(z: u64) -> Coord {
    let (r, c) = decode(z);
    Coord::new(r as i64, c as i64)
}

/// The global Z-order index of a coordinate in the non-negative quadrant.
#[inline]
pub fn index_of(c: Coord) -> u64 {
    debug_assert!(c.row >= 0 && c.col >= 0, "Z-order indices cover the non-negative quadrant");
    encode(c.row as u64, c.col as u64)
}

/// Bounding box `(min_row, min_col, max_row, max_col)` of the Z-curve range
/// `[lo, hi)`. Panics if the range is empty.
pub fn bounding_box(lo: u64, hi: u64) -> (u64, u64, u64, u64) {
    assert!(lo < hi, "empty Z range");
    let mut bb = (u64::MAX, u64::MAX, 0u64, 0u64);
    // Decompose the range into maximal aligned squares; the corners of each
    // aligned square are cheap to compute from its first index.
    for (start, len) in aligned_blocks(lo, hi) {
        let (r0, c0) = decode(start);
        let side = (len as f64).sqrt() as u64;
        debug_assert_eq!(side * side, len);
        bb.0 = bb.0.min(r0);
        bb.1 = bb.1.min(c0);
        bb.2 = bb.2.max(r0 + side - 1);
        bb.3 = bb.3.max(c0 + side - 1);
    }
    bb
}

/// Side length of the smallest square covering the bounding box of `[lo, hi)`.
pub fn range_diameter_side(lo: u64, hi: u64) -> u64 {
    let (r0, c0, r1, c1) = bounding_box(lo, hi);
    (r1 - r0 + 1).max(c1 - c0 + 1)
}

/// Decomposes `[lo, hi)` into maximal 4-power aligned blocks
/// `(start, len)` with `len` a power of four and `start % len == 0`.
///
/// Any Z-range of length `L` decomposes into `O(log L)` such blocks, each of
/// which is an axis-aligned square on the grid — the structural fact behind
/// the `O(√L)` diameter of Z-segments.
pub fn aligned_blocks(lo: u64, hi: u64) -> Vec<(u64, u64)> {
    let mut blocks = Vec::new();
    let mut cur = lo;
    while cur < hi {
        // Largest power-of-4 block aligned at `cur` and fitting in the range.
        let align = if cur == 0 { u64::MAX } else { 1u64 << cur.trailing_zeros() };
        let mut len = 1u64;
        while len * 4 <= align.min(hi - cur) && cur.is_multiple_of(len * 4) && cur + len * 4 <= hi {
            len *= 4;
        }
        // Round down to a power of four (alignment may give a power of two).
        while !is_power_of_four(len) {
            len /= 2;
        }
        blocks.push((cur, len));
        cur += len;
    }
    blocks
}

/// Whether `x` is a power of four.
#[inline]
pub fn is_power_of_four(x: u64) -> bool {
    x.is_power_of_two() && x.trailing_zeros().is_multiple_of(2)
}

/// The largest power of four a `u64` holds, `4^31`: the longest array the
/// Z-order model lays out.
pub const MAX_POWER_OF_FOUR: u64 = 1 << 62;

/// Rounds `n` up to the next power of four (`next_power_of_four(0) == 1`).
///
/// # Panics
/// Panics if `n` exceeds [`MAX_POWER_OF_FOUR`].
#[inline]
pub fn next_power_of_four(n: u64) -> u64 {
    assert!(n <= MAX_POWER_OF_FOUR, "{n} exceeds 4^31, the largest power of four in a u64");
    let mut p = 1u64;
    while p < n {
        p *= 4;
    }
    p
}

/// The coordinates of the Z-curve range `[lo, hi)` in curve order.
pub fn coords(lo: u64, hi: u64) -> impl Iterator<Item = Coord> {
    (lo..hi).map(coord_of)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_power_of_four_reaches_the_largest_and_refuses_beyond() {
        assert_eq!(next_power_of_four(MAX_POWER_OF_FOUR), MAX_POWER_OF_FOUR);
        assert_eq!(next_power_of_four((1 << 60) + 1), MAX_POWER_OF_FOUR);
        let beyond = std::panic::catch_unwind(|| next_power_of_four(MAX_POWER_OF_FOUR + 1));
        assert!(beyond.is_err(), "4^31 + 1 has no power of four in a u64");
    }

    #[test]
    fn first_sixteen_indices_follow_paper_order() {
        // On a 4×4 grid, the paper's Z-order visits the top-left 2×2 quadrant
        // first (itself in Z-order), then top-right, bottom-left, bottom-right.
        let expect = [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1), // top-left quadrant
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3), // top-right quadrant
            (2, 0),
            (2, 1),
            (3, 0),
            (3, 1), // bottom-left quadrant
            (2, 2),
            (2, 3),
            (3, 2),
            (3, 3), // bottom-right quadrant
        ];
        for (z, &(r, c)) in expect.iter().enumerate() {
            assert_eq!(decode(z as u64), (r, c), "z = {z}");
            assert_eq!(encode(r, c), z as u64);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for z in 0..4096u64 {
            let (r, c) = decode(z);
            assert_eq!(encode(r, c), z);
        }
        for &(r, c) in &[(0u64, 0u64), (123, 456), (1 << 20, 1 << 19), ((1 << 32) - 1, 17)] {
            assert_eq!(decode(encode(r, c)), (r, c));
        }
    }

    #[test]
    fn consecutive_z_indices_are_close_on_average() {
        // Observation 1: walking the whole curve of an n-cell square costs O(n).
        let n = 4096u64; // 64×64
        let total: u64 = (1..n).map(|z| coord_of(z - 1).manhattan(coord_of(z))).sum();
        assert!(total < 4 * n, "curve walk energy {total} should be O(n)");
    }

    #[test]
    fn aligned_blocks_cover_range_exactly() {
        for &(lo, hi) in &[(0u64, 16u64), (3, 97), (5, 6), (0, 1), (21, 85), (64, 80)] {
            let blocks = aligned_blocks(lo, hi);
            let mut cur = lo;
            for (s, l) in &blocks {
                assert_eq!(*s, cur);
                assert!(is_power_of_four(*l), "len {l} must be a power of 4");
                assert_eq!(s % l, 0, "block must be aligned");
                cur += l;
            }
            assert_eq!(cur, hi);
        }
    }

    #[test]
    fn range_diameter_is_order_sqrt_len() {
        // A Z-range of length L fits in a box of side O(√L).
        for &(lo, len) in &[(0u64, 256u64), (37, 200), (100, 1000), (1000, 24)] {
            let side = range_diameter_side(lo, lo + len);
            let bound = 4 * ((len as f64).sqrt().ceil() as u64 + 1);
            assert!(side <= bound, "side {side} exceeds O(√{len}) bound {bound}");
        }
    }

    #[test]
    fn power_of_four_helpers() {
        assert!(is_power_of_four(1));
        assert!(is_power_of_four(4));
        assert!(is_power_of_four(64));
        assert!(!is_power_of_four(2));
        assert!(!is_power_of_four(8));
        assert!(!is_power_of_four(0));
        assert_eq!(next_power_of_four(0), 1);
        assert_eq!(next_power_of_four(1), 1);
        assert_eq!(next_power_of_four(5), 16);
        assert_eq!(next_power_of_four(64), 64);
    }

    #[test]
    fn bounding_box_of_full_square() {
        assert_eq!(bounding_box(0, 64), (0, 0, 7, 7));
        assert_eq!(bounding_box(0, 4), (0, 0, 1, 1));
    }
}
