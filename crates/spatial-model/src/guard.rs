//! Model-conformance guards: grid extent, per-PE memory cap, cost budgets.
//!
//! The Spatial Computer Model makes promises the bare simulator never
//! enforced: algorithms operate on a declared subgrid (plus scratch), each PE
//! holds `O(1)` words, and a primitive's cost is supposed to stay within its
//! analyzed bound. A [`ModelGuard`] turns each promise into a checked
//! invariant: activate one with [`crate::Machine::enable_guard`] and every
//! placement/send is validated, with violations latched on the machine as
//! typed [`crate::SpatialError`] values (see [`crate::Machine::guarded`]).

use crate::cost::Cost;
use crate::error::{BudgetMetric, SpatialError};
use crate::grid::SubGrid;

/// A set of opt-in conformance checks for a [`crate::Machine`].
///
/// All checks default to off; enable the ones the run should enforce:
///
/// ```
/// use spatial_model::{Coord, Machine, ModelGuard, SubGrid};
///
/// let guard = ModelGuard::new()
///     .extent(SubGrid::square(Coord::ORIGIN, 8))
///     .mem_cap(4)
///     .max_energy(1_000);
/// let mut m = Machine::new();
/// m.enable_guard(guard);
/// let v = m.place(Coord::new(0, 0), 1i64);
/// assert!(m.guarded(|m| m.send(&v, Coord::new(100, 0))).is_err()); // outside the extent
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModelGuard {
    pub(crate) extent: Option<SubGrid>,
    pub(crate) mem_cap: Option<u32>,
    pub(crate) max_energy: Option<u64>,
    pub(crate) max_depth: Option<u64>,
    pub(crate) max_distance: Option<u64>,
    pub(crate) max_messages: Option<u64>,
}

impl ModelGuard {
    /// A guard with every check disabled.
    pub fn new() -> Self {
        ModelGuard::default()
    }

    /// Restricts all placements and message targets to `extent` (logical
    /// coordinates). Violations: [`SpatialError::OutOfBounds`].
    pub fn extent(mut self, extent: SubGrid) -> Self {
        self.extent = Some(extent);
        self
    }

    /// Hard per-PE resident-word cap enforcing the model's `O(1)`-memory
    /// promise. Enabling this auto-enables the memory meter. Violations:
    /// [`SpatialError::MemoryExceeded`].
    pub fn mem_cap(mut self, cap: u32) -> Self {
        self.mem_cap = Some(cap);
        self
    }

    /// Energy budget. Violations: [`SpatialError::BudgetExceeded`].
    pub fn max_energy(mut self, budget: u64) -> Self {
        self.max_energy = Some(budget);
        self
    }

    /// Depth budget. Violations: [`SpatialError::BudgetExceeded`].
    pub fn max_depth(mut self, budget: u64) -> Self {
        self.max_depth = Some(budget);
        self
    }

    /// Distance budget. Violations: [`SpatialError::BudgetExceeded`].
    pub fn max_distance(mut self, budget: u64) -> Self {
        self.max_distance = Some(budget);
        self
    }

    /// Message-count budget. Violations: [`SpatialError::BudgetExceeded`].
    pub fn max_messages(mut self, budget: u64) -> Self {
        self.max_messages = Some(budget);
        self
    }

    /// The first cost budget `cost` exceeds, if any.
    pub(crate) fn budget_violation(&self, cost: Cost) -> Option<SpatialError> {
        let checks = [
            (self.max_energy, cost.energy, BudgetMetric::Energy),
            (self.max_depth, cost.depth, BudgetMetric::Depth),
            (self.max_distance, cost.distance, BudgetMetric::Distance),
            (self.max_messages, cost.messages, BudgetMetric::Messages),
        ];
        for (budget, used, metric) in checks {
            if let Some(budget) = budget {
                if used > budget {
                    return Some(SpatialError::BudgetExceeded { metric, used, budget });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_violation_reports_the_first_overflow() {
        let g = ModelGuard::new().max_energy(100).max_messages(10);
        assert_eq!(
            g.budget_violation(Cost { energy: 100, depth: 5, distance: 50, messages: 10 }),
            None
        );
        let e = g.budget_violation(Cost { energy: 101, depth: 5, distance: 50, messages: 11 });
        assert_eq!(
            e,
            Some(SpatialError::BudgetExceeded {
                metric: BudgetMetric::Energy,
                used: 101,
                budget: 100
            })
        );
    }

    #[test]
    fn unset_budgets_never_fire() {
        let g = ModelGuard::new();
        assert_eq!(
            g.budget_violation(Cost {
                energy: u64::MAX,
                depth: u64::MAX,
                distance: u64::MAX,
                messages: u64::MAX
            }),
            None
        );
    }
}
