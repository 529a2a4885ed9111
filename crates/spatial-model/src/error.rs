//! Typed model-conformance and fault errors.
//!
//! Before this layer existed the simulator accepted any misuse silently: a
//! send outside the declared grid, a PE hoarding an unbounded number of
//! words, or an algorithm blowing past its energy budget all "succeeded"
//! with nonsense costs. Every such violation now surfaces as a
//! [`SpatialError`] latched on the [`crate::Machine`] (see
//! [`crate::Machine::violation`]); [`crate::Machine::guarded`] turns the
//! latch into a `Result`.

use std::fmt;

use crate::coord::Coord;
use crate::grid::SubGrid;

/// Which guarded cost counter a [`SpatialError::BudgetExceeded`] refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BudgetMetric {
    /// Total message distance.
    Energy,
    /// Longest chain of dependent messages.
    Depth,
    /// Largest total distance along any dependency chain.
    Distance,
    /// Message count.
    Messages,
}

impl fmt::Display for BudgetMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BudgetMetric::Energy => "energy",
            BudgetMetric::Depth => "depth",
            BudgetMetric::Distance => "distance",
            BudgetMetric::Messages => "messages",
        };
        f.write_str(s)
    }
}

/// A model-conformance violation or hardware-fault contact.
///
/// The error taxonomy of the fault/guard layer (see DESIGN.md, "Fault model
/// and conformance guards"):
///
/// * [`DeadPe`](SpatialError::DeadPe) — traffic addressed to a processing
///   element the active [`crate::FaultPlan`] marks dead (and that row
///   redundancy could not remap around);
/// * [`OutOfBounds`](SpatialError::OutOfBounds) — traffic addressed outside
///   the [`crate::ModelGuard`]'s declared grid extent;
/// * [`MemoryExceeded`](SpatialError::MemoryExceeded) — a delivery that would
///   push a PE's resident-word count above the guard's hard cap (the model
///   promises `O(1)` words per PE);
/// * [`BudgetExceeded`](SpatialError::BudgetExceeded) — a cost counter
///   crossed the guard's budget for that metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpatialError {
    /// A message or placement targeted a dead processing element.
    DeadPe {
        /// The logical coordinate the algorithm addressed.
        logical: Coord,
        /// The physical coordinate after fault remapping.
        physical: Coord,
    },
    /// A message or placement targeted a PE outside the guarded extent.
    OutOfBounds {
        /// The offending logical coordinate.
        loc: Coord,
        /// The guard's declared grid extent.
        extent: SubGrid,
    },
    /// A delivery would exceed the hard per-PE resident-word cap.
    MemoryExceeded {
        /// The PE whose residency would overflow.
        loc: Coord,
        /// Words resident before the delivery.
        resident: u32,
        /// The guard's hard cap.
        cap: u32,
    },
    /// An accumulated cost counter crossed its guarded budget.
    BudgetExceeded {
        /// The metric that overflowed.
        metric: BudgetMetric,
        /// The counter value after the offending message.
        used: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The run's [`crate::CancelToken`] was tripped (deadline watchdog,
    /// batch shutdown, user interrupt) and [`crate::Machine::guarded`] read
    /// it when its closure returned.
    Cancelled,
    /// An instrumentation accessor was used on a machine that never enabled
    /// that instrument (e.g. reading the trace without
    /// [`crate::Machine::enable_trace`]) — a usage error, reported instead
    /// of panicking.
    InstrumentationDisabled {
        /// Which instrument is missing and how to enable it.
        what: &'static str,
    },
}

impl SpatialError {
    /// A distinct process exit code per error variant, used by the CLI so
    /// fault regressions are distinguishable in scripts and CI:
    /// dead PE → 4, out of bounds → 5, memory cap → 6, budget → 7,
    /// cancelled/deadline → 9 (8 is the recovery-exhausted code of
    /// `spatial_core::recovery`, 10 is the batch runner's shed code).
    /// A disabled instrument is a usage error and shares the usage code 2.
    pub fn exit_code(&self) -> i32 {
        match self {
            SpatialError::InstrumentationDisabled { .. } => 2,
            SpatialError::DeadPe { .. } => 4,
            SpatialError::OutOfBounds { .. } => 5,
            SpatialError::MemoryExceeded { .. } => 6,
            SpatialError::BudgetExceeded { .. } => 7,
            SpatialError::Cancelled => 9,
        }
    }
}

impl fmt::Display for SpatialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpatialError::DeadPe { logical, physical } if logical == physical => {
                write!(f, "dead PE: {logical} is marked dead by the active fault plan")
            }
            SpatialError::DeadPe { logical, physical } => {
                write!(f, "dead PE: logical {logical} remaps to dead physical PE {physical}")
            }
            SpatialError::OutOfBounds { loc, extent } => write!(
                f,
                "out of bounds: {loc} is outside the guarded {}x{} extent at {}",
                extent.h, extent.w, extent.origin
            ),
            SpatialError::MemoryExceeded { loc, resident, cap } => write!(
                f,
                "memory exceeded: delivery to {loc} would make {} words resident (cap {cap})",
                resident + 1
            ),
            SpatialError::BudgetExceeded { metric, used, budget } => {
                write!(f, "budget exceeded: {metric} reached {used} (budget {budget})")
            }
            SpatialError::Cancelled => {
                write!(f, "cancelled: the run's cancel token was tripped (deadline exceeded)")
            }
            SpatialError::InstrumentationDisabled { what } => {
                write!(f, "instrumentation disabled: {what}")
            }
        }
    }
}

impl std::error::Error for SpatialError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let errs = [
            SpatialError::DeadPe { logical: Coord::ORIGIN, physical: Coord::ORIGIN },
            SpatialError::OutOfBounds {
                loc: Coord::ORIGIN,
                extent: SubGrid::square(Coord::ORIGIN, 4),
            },
            SpatialError::MemoryExceeded { loc: Coord::ORIGIN, resident: 3, cap: 3 },
            SpatialError::BudgetExceeded { metric: BudgetMetric::Energy, used: 10, budget: 9 },
            SpatialError::Cancelled,
        ];
        let codes: std::collections::HashSet<i32> = errs.iter().map(|e| e.exit_code()).collect();
        assert_eq!(codes.len(), errs.len());
        assert!(codes.iter().all(|&c| c > 2), "0-2 are reserved for ok/usage");
        assert!(!codes.contains(&8), "8 belongs to recovery exhaustion");
        assert!(!codes.contains(&10), "10 belongs to batch load shedding");
        // A disabled instrument is a plain usage error, not a run failure.
        let usage = SpatialError::InstrumentationDisabled { what: "trace" };
        assert_eq!(usage.exit_code(), 2);
    }

    #[test]
    fn display_names_the_offender() {
        let e = SpatialError::DeadPe { logical: Coord::new(1, 2), physical: Coord::new(3, 2) };
        assert!(format!("{e}").contains("(3,2)"));
        let e = SpatialError::BudgetExceeded { metric: BudgetMetric::Depth, used: 7, budget: 6 };
        assert!(format!("{e}").contains("depth"));
    }
}
