//! Seed-deterministic hardware fault injection.
//!
//! The cost bounds of the paper assume an idealized grid of always-working
//! PEs, but the hardware the model abstracts (wafer-scale engines, per "The
//! spatial computer", Gianinazzi et al.) ships with yield defects: dead PEs
//! and spare rows that traffic must route around. A [`FaultPlan`] describes
//! one such defect pattern, reproducibly derived from a `u64` seed:
//!
//! * **dead rows** — whole grid rows fused out (the Cerebras-style failure
//!   unit). The plan's [`FaultPlan::physical`] remap detours *around* them:
//!   logical row `r` maps to the `r`-th live physical row, so algorithms keep
//!   working unchanged while the extra Manhattan distance of every detoured
//!   message is charged to energy/distance (the fault-tolerance overhead is
//!   measured, not hidden — see [`crate::Machine::detour_energy`]);
//! * **dead PEs** — individual hard-dead elements that row redundancy does
//!   *not* cover. Addressing one is a [`crate::SpatialError::DeadPe`];
//! * **degraded rows** — live rows with slow links: every message whose
//!   bounding row interval touches a degraded row is charged one extra unit
//!   of distance per degraded row touched;
//! * **flaky messages** — transient (soft) faults: each message is corrupted
//!   independently with probability `flaky`, deterministically per
//!   `(seed, attempt)`. The simulator cannot flip bits inside arbitrary
//!   payload types, so a corruption is recorded as a *fault hit*
//!   ([`crate::Machine::fault_hits`]) — the recovery harness treats any hit
//!   as an end-to-end checksum failure and re-executes with the next attempt
//!   salt ([`FaultPlan::for_attempt`]), which re-rolls the per-message
//!   corruption stream while keeping the permanent defect pattern fixed.

use std::collections::BTreeSet;

use spatial_rng::Rng;

use crate::coord::Coord;
use crate::grid::SubGrid;

/// Stream salts so the independent random draws of one seed never collide.
const SALT_DEAD_ROWS: u64 = 0xDEAD_0001;
const SALT_DEAD_PES: u64 = 0xDEAD_0002;
const SALT_DEGRADED: u64 = 0xDEAD_0003;
const SALT_MESSAGES: u64 = 0xDEAD_0004;

/// A deterministic hardware-defect pattern (see the module docs).
///
/// Build one with [`FaultPlan::builder`]; activate it with
/// [`crate::Machine::enable_faults`]. All random draws are functions of the
/// builder seed alone, so two plans built with the same seed and the same
/// builder calls are identical, and fault runs are bit-reproducible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    attempt: u32,
    /// Sorted physical rows that are fused out entirely.
    dead_rows: Vec<i64>,
    /// Individual hard-dead physical PEs (not covered by row redundancy).
    dead_pes: BTreeSet<Coord>,
    /// Sorted physical rows with degraded (slow) links.
    degraded_rows: Vec<i64>,
    /// Per-message transient corruption probability, in `[0, 1]`.
    flaky_millis: u32,
}

impl FaultPlan {
    /// Starts building a plan whose random draws derive from `seed`.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed,
            dead_rows: BTreeSet::new(),
            dead_pes: BTreeSet::new(),
            degraded_rows: BTreeSet::new(),
            flaky_millis: 0,
        }
    }

    /// The seed the plan's random draws derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The retry-attempt salt (0 for a freshly built plan).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The same permanent defect pattern with the transient-fault stream
    /// re-salted for retry `attempt`. Dead rows, dead PEs and degraded rows
    /// are unchanged — re-executing does not repair the wafer — but the
    /// per-message corruption draws differ, deterministically per
    /// `(seed, attempt)`.
    pub fn for_attempt(&self, attempt: u32) -> FaultPlan {
        FaultPlan { attempt, ..self.clone() }
    }

    /// The sorted list of fused-out physical rows.
    pub fn dead_rows(&self) -> &[i64] {
        &self.dead_rows
    }

    /// The individual hard-dead physical PEs.
    pub fn dead_pes(&self) -> impl Iterator<Item = Coord> + '_ {
        self.dead_pes.iter().copied()
    }

    /// The sorted list of degraded (slow-link) physical rows.
    pub fn degraded_rows(&self) -> &[i64] {
        &self.degraded_rows
    }

    /// The per-message transient corruption probability.
    pub fn flaky(&self) -> f64 {
        f64::from(self.flaky_millis) / 1000.0
    }

    /// Maps a logical coordinate to its physical PE, detouring around dead
    /// rows: logical row `r` lands on the `r`-th live physical row (rows at
    /// or beyond each dead row shift one further out, in both directions
    /// from row 0). Columns are unaffected — the redundancy unit is a whole
    /// row, as on wafer-scale hardware. The map is injective and
    /// order-preserving, and physical distances are never shorter than
    /// logical ones, so the detour overhead is non-negative.
    pub fn physical(&self, c: Coord) -> Coord {
        let mut r = c.row;
        if r >= 0 {
            for &d in self.dead_rows.iter().filter(|&&d| d >= 0) {
                if d <= r {
                    r += 1;
                }
            }
        } else {
            for &d in self.dead_rows.iter().rev().filter(|&&d| d < 0) {
                if d >= r {
                    r -= 1;
                }
            }
        }
        Coord::new(r, c.col)
    }

    /// Whether physical coordinate `c` is dead (fused-out row or individual
    /// dead PE). Coordinates produced by [`FaultPlan::physical`] never land
    /// on a dead *row*, but can land on an individual dead PE.
    pub fn is_dead_physical(&self, c: Coord) -> bool {
        self.dead_rows.binary_search(&c.row).is_ok() || self.dead_pes.contains(&c)
    }

    /// Extra distance charged to a message between physical PEs `a` and `b`
    /// for degraded links: one unit per degraded row inside the message's
    /// row interval. Zero for self-messages.
    pub fn degraded_penalty(&self, a: Coord, b: Coord) -> u64 {
        if a == b || self.degraded_rows.is_empty() {
            return 0;
        }
        let (lo, hi) = (a.row.min(b.row), a.row.max(b.row));
        let from = self.degraded_rows.partition_point(|&r| r < lo);
        let to = self.degraded_rows.partition_point(|&r| r <= hi);
        (to - from) as u64
    }

    /// The deterministic per-message corruption stream for this
    /// `(seed, attempt)` pair.
    pub(crate) fn message_rng(&self) -> Rng {
        Rng::stream(self.seed ^ (u64::from(self.attempt) << 32), SALT_MESSAGES)
    }

    /// Whether the plan injects nothing: no dead rows, dead PEs, degraded
    /// rows or flaky rate. Such a plan charges every message its logical
    /// distance and draws nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.dead_rows.is_empty()
            && self.dead_pes.is_empty()
            && self.degraded_rows.is_empty()
            && !self.has_transient_faults()
    }

    /// Whether the plan injects transient (per-message) faults at all.
    pub(crate) fn has_transient_faults(&self) -> bool {
        self.flaky_millis > 0
    }

    /// Whether the plan has individual hard-dead PEs (the only way a
    /// remapped physical coordinate can be dead — [`FaultPlan::physical`]
    /// never lands on a dead *row*).
    pub(crate) fn has_dead_pes(&self) -> bool {
        !self.dead_pes.is_empty()
    }

    /// Whether the individual physical PE `c` is hard-dead.
    pub(crate) fn dead_pe_at(&self, c: Coord) -> bool {
        self.dead_pes.contains(&c)
    }

    /// Precomputes the dead-row remap as a flat lookup (see [`RowRemap`]).
    /// Returns `None` when the dead rows span too wide a window to tabulate,
    /// in which case callers fall back to [`FaultPlan::physical`].
    pub(crate) fn row_remap(&self) -> Option<RowRemap> {
        RowRemap::build(self)
    }
}

/// Flat-table form of the dead-row remap of [`FaultPlan::physical`].
///
/// Outside the window spanned by the dead rows the remap is a constant
/// shift (all dead rows on that side have been skipped), so only the rows
/// inside the window need a table entry. `row()` is then a bounds check and
/// an index — the per-message cost of fault-aware routing drops from
/// `O(dead rows)` to `O(1)`.
#[derive(Debug)]
pub(crate) struct RowRemap {
    /// Physical rows for logical rows `0, 1, …, pos.len()-1`.
    pos: Vec<i64>,
    /// Physical rows for logical rows `-1, -2, …, -neg.len()`.
    neg: Vec<i64>,
    /// Shift applied to logical rows at or beyond `pos.len()`.
    pos_shift: i64,
    /// Shift applied to logical rows below `-neg.len()`.
    neg_shift: i64,
}

/// Refuse to tabulate remaps spanning more rows than this (a plan with dead
/// rows billions apart would allocate absurdly; such plans keep the exact
/// per-call computation instead).
const REMAP_CAP: i64 = 1 << 22;

impl RowRemap {
    fn build(plan: &FaultPlan) -> Option<RowRemap> {
        let pos_dead = plan.dead_rows.iter().filter(|&&d| d >= 0).count() as i64;
        let neg_dead = plan.dead_rows.len() as i64 - pos_dead;
        // Window: up to the outermost dead row on each side; beyond it the
        // shift is the full dead-row count of that side.
        let pos_hi = plan.dead_rows.last().copied().filter(|&d| d >= 0).map_or(0, |d| d + 1);
        let neg_lo = plan.dead_rows.first().copied().filter(|&d| d < 0).unwrap_or(0);
        if pos_hi > REMAP_CAP || -neg_lo > REMAP_CAP {
            return None;
        }
        let pos = (0..pos_hi).map(|r| plan.physical(Coord::new(r, 0)).row).collect();
        let neg = (1..=-neg_lo).map(|i| plan.physical(Coord::new(-i, 0)).row).collect();
        Some(RowRemap { pos, neg, pos_shift: pos_dead, neg_shift: neg_dead })
    }

    /// The physical row for logical row `r` (equals
    /// [`FaultPlan::physical`]`.row`).
    #[inline]
    pub(crate) fn row(&self, r: i64) -> i64 {
        if r >= 0 {
            match self.pos.get(r as usize) {
                Some(&p) => p,
                None => r + self.pos_shift,
            }
        } else {
            match self.neg.get((-1 - r) as usize) {
                Some(&p) => p,
                None => r - self.neg_shift,
            }
        }
    }

    /// The physical PE for logical coordinate `c`.
    #[inline]
    pub(crate) fn physical(&self, c: Coord) -> Coord {
        Coord::new(self.row(c.row), c.col)
    }
}

/// Builder for [`FaultPlan`] (see [`FaultPlan::builder`]).
#[derive(Clone, Debug)]
pub struct FaultPlanBuilder {
    seed: u64,
    dead_rows: BTreeSet<i64>,
    dead_pes: BTreeSet<Coord>,
    degraded_rows: BTreeSet<i64>,
    flaky_millis: u32,
}

impl FaultPlanBuilder {
    /// Marks physical row `r` as fused out.
    pub fn dead_row(mut self, r: i64) -> Self {
        self.dead_rows.insert(r);
        self
    }

    /// Marks an individual physical PE as hard-dead (not covered by the
    /// spare-row remap; traffic addressing it is a
    /// [`crate::SpatialError::DeadPe`]).
    pub fn dead_pe(mut self, c: Coord) -> Self {
        self.dead_pes.insert(c);
        self
    }

    /// Marks physical row `r` as degraded (slow links).
    pub fn degraded_row(mut self, r: i64) -> Self {
        self.degraded_rows.insert(r);
        self
    }

    /// Fuses out a seed-deterministic `fraction` of the rows of `extent`
    /// (at least one row when `fraction > 0`, never all of them).
    pub fn random_dead_rows(mut self, extent: SubGrid, fraction: f64) -> Self {
        for r in random_rows(self.seed, SALT_DEAD_ROWS, extent, fraction) {
            self.dead_rows.insert(r);
        }
        self
    }

    /// Degrades a seed-deterministic `fraction` of the rows of `extent`.
    pub fn random_degraded_rows(mut self, extent: SubGrid, fraction: f64) -> Self {
        for r in random_rows(self.seed, SALT_DEGRADED, extent, fraction) {
            self.degraded_rows.insert(r);
        }
        self
    }

    /// Marks a seed-deterministic `fraction` of the PEs of `extent` as
    /// individually hard-dead.
    pub fn random_dead_pes(mut self, extent: SubGrid, fraction: f64) -> Self {
        let n = extent.len();
        let k = ((n as f64 * fraction.clamp(0.0, 1.0)).round() as u64).min(n) as usize;
        let mut rng = Rng::stream(self.seed, SALT_DEAD_PES);
        for idx in rng.sample_indices(n as usize, k) {
            self.dead_pes.insert(extent.rm_coord(idx as u64));
        }
        self
    }

    /// Sets the per-message transient corruption probability (clamped to
    /// `[0, 1]`, quantized to 1/1000ths so plans stay `Eq`/hashable).
    pub fn flaky(mut self, p: f64) -> Self {
        self.flaky_millis = (p.clamp(0.0, 1.0) * 1000.0).round() as u32;
        self
    }

    /// Finalizes the plan.
    pub fn build(self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            attempt: 0,
            dead_rows: self.dead_rows.into_iter().collect(),
            dead_pes: self.dead_pes,
            degraded_rows: self.degraded_rows.into_iter().collect(),
            flaky_millis: self.flaky_millis,
        }
    }
}

/// Picks a deterministic `fraction` of the rows of `extent` (at least one for
/// any positive fraction, and never the full extent so a remap target always
/// exists inside a one-row margin).
fn random_rows(seed: u64, salt: u64, extent: SubGrid, fraction: f64) -> Vec<i64> {
    let rows = extent.h;
    if rows == 0 || fraction <= 0.0 {
        return Vec::new();
    }
    let k = ((rows as f64 * fraction.clamp(0.0, 1.0)).round() as u64).clamp(1, (rows - 1).max(1));
    let mut rng = Rng::stream(seed, salt);
    rng.sample_indices(rows as usize, k as usize)
        .into_iter()
        .map(|i| extent.origin.row + i as i64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physical_remap_skips_dead_rows_and_preserves_order() {
        let plan = FaultPlan::builder(0).dead_row(1).dead_row(3).build();
        // Logical rows 0,1,2,3 → physical 0,2,4,5 (rows 1 and 3 skipped).
        assert_eq!(plan.physical(Coord::new(0, 7)), Coord::new(0, 7));
        assert_eq!(plan.physical(Coord::new(1, 7)), Coord::new(2, 7));
        assert_eq!(plan.physical(Coord::new(2, 7)), Coord::new(4, 7));
        assert_eq!(plan.physical(Coord::new(3, 7)), Coord::new(5, 7));
        for r in 0..32 {
            assert!(!plan.is_dead_physical(plan.physical(Coord::new(r, 0))));
        }
    }

    #[test]
    fn physical_remap_handles_negative_rows() {
        let plan = FaultPlan::builder(0).dead_row(-2).dead_row(1).build();
        assert_eq!(plan.physical(Coord::new(-1, 0)), Coord::new(-1, 0));
        assert_eq!(plan.physical(Coord::new(-2, 0)), Coord::new(-3, 0));
        assert_eq!(plan.physical(Coord::new(-3, 0)), Coord::new(-4, 0));
        assert_eq!(plan.physical(Coord::new(1, 0)), Coord::new(2, 0));
    }

    #[test]
    fn physical_remap_is_injective_and_non_contracting() {
        let plan = FaultPlan::builder(9).dead_row(0).dead_row(2).dead_row(5).dead_row(-1).build();
        let mut seen = std::collections::HashSet::new();
        for r in -8..8 {
            for c in 0..4 {
                let p = plan.physical(Coord::new(r, c));
                assert!(seen.insert(p), "{p} hit twice");
            }
        }
        // Physical distance never undercuts logical distance.
        for a in -4..4 {
            for b in -4..4 {
                let (la, lb) = (Coord::new(a, 0), Coord::new(b, 3));
                assert!(plan.physical(la).manhattan(plan.physical(lb)) >= la.manhattan(lb));
            }
        }
    }

    #[test]
    fn degraded_penalty_counts_rows_in_the_interval() {
        let plan = FaultPlan::builder(0).degraded_row(2).degraded_row(5).build();
        let p = |a: (i64, i64), b: (i64, i64)| {
            plan.degraded_penalty(Coord::new(a.0, a.1), Coord::new(b.0, b.1))
        };
        assert_eq!(p((0, 0), (1, 3)), 0);
        assert_eq!(p((0, 0), (3, 0)), 1);
        assert_eq!(p((0, 0), (7, 0)), 2);
        assert_eq!(p((2, 0), (2, 5)), 1, "horizontal hop along a degraded row");
        assert_eq!(p((2, 0), (2, 0)), 0, "self-message is free");
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let extent = SubGrid::square(Coord::ORIGIN, 16);
        let mk = |seed| {
            FaultPlan::builder(seed)
                .random_dead_rows(extent, 0.2)
                .random_dead_pes(extent, 0.05)
                .random_degraded_rows(extent, 0.1)
                .flaky(0.01)
                .build()
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
        assert!(!mk(7).dead_rows().is_empty());
        assert!((mk(7).dead_rows().len() as u64) < extent.h);
    }

    #[test]
    fn row_remap_table_matches_exact_computation() {
        let plans = [
            FaultPlan::builder(0).build(),
            FaultPlan::builder(0).dead_row(0).build(),
            FaultPlan::builder(0).dead_row(1).dead_row(3).build(),
            FaultPlan::builder(0).dead_row(-2).dead_row(1).build(),
            FaultPlan::builder(0).dead_row(-5).dead_row(-1).dead_row(0).dead_row(7).build(),
        ];
        for plan in &plans {
            let remap = plan.row_remap().expect("small plans tabulate");
            for r in -64..64 {
                for c in [-3, 0, 17] {
                    let l = Coord::new(r, c);
                    assert_eq!(remap.physical(l), plan.physical(l), "{plan:?} at {l}");
                }
            }
        }
        // A pathologically wide plan refuses to tabulate.
        let wide = FaultPlan::builder(0).dead_row(1 << 40).build();
        assert!(wide.row_remap().is_none());
    }

    #[test]
    fn for_attempt_keeps_structure_but_resalts_messages() {
        let plan = FaultPlan::builder(3).dead_row(1).flaky(0.5).build();
        let retry = plan.for_attempt(1);
        assert_eq!(plan.dead_rows(), retry.dead_rows());
        let draws = |p: &FaultPlan| {
            let mut rng = p.message_rng();
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_ne!(draws(&plan), draws(&retry));
        assert_eq!(draws(&plan), draws(&plan.for_attempt(0)));
    }
}
