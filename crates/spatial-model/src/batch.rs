//! Batch-shape description for the machine's batch APIs.
//!
//! [`classify`] names the displacement shape of a batch of point-to-point
//! messages ([`BatchPattern`]). It describes a batch; the machine does not
//! branch on it. Every bare batch call charges each message its own
//! Manhattan distance in one per-item loop on the calling thread: the
//! regular quadtree DAGs whose batches are uniform run as closed-form level
//! kernels ([`crate::kernels`]) instead, and a closed form for the few
//! regular batches left would still visit every item to step its
//! [`crate::Path`].

use crate::coord::Coord;

/// The displacement structure of a batch of point-to-point messages. It
/// describes a batch; the machine's batch APIs charge every shape with the
/// same per-item loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BatchPattern {
    /// No items.
    Empty,
    /// Every message has the same `(drow, dcol)` displacement — e.g. a whole
    /// aligned Z-block shifting to a sibling block. Translation invariance
    /// of the Manhattan metric makes every per-message cost identical:
    /// `energy = count · (|drow| + |dcol|)`.
    Uniform {
        /// Common row displacement (`dst.row - src.row`).
        drow: i64,
        /// Common column displacement.
        dcol: i64,
    },
    /// Message `i` has displacement `(drow + i·srow, dcol + i·scol)` with
    /// `(srow, scol) ≠ (0, 0)` — e.g. a strided compaction.
    Affine {
        /// Row displacement of item 0.
        drow: i64,
        /// Column displacement of item 0.
        dcol: i64,
        /// Per-item row stride.
        srow: i64,
        /// Per-item column stride.
        scol: i64,
    },
    /// Anything else.
    Irregular,
}

/// Classifies a batch of `(src, dst)` pairs in one pass of comparisons.
pub fn classify(mut pairs: impl Iterator<Item = (Coord, Coord)>) -> BatchPattern {
    let Some((s0, d0)) = pairs.next() else {
        return BatchPattern::Empty;
    };
    let base = (d0.row - s0.row, d0.col - s0.col);
    let Some((s1, d1)) = pairs.next() else {
        return BatchPattern::Uniform { drow: base.0, dcol: base.1 };
    };
    let second = (d1.row - s1.row, d1.col - s1.col);
    let stride = (second.0 - base.0, second.1 - base.1);
    let mut expect = second;
    for (s, d) in pairs {
        expect = (expect.0 + stride.0, expect.1 + stride.1);
        if (d.row - s.row, d.col - s.col) != expect {
            return BatchPattern::Irregular;
        }
    }
    if stride == (0, 0) {
        BatchPattern::Uniform { drow: base.0, dcol: base.1 }
    } else {
        BatchPattern::Affine { drow: base.0, dcol: base.1, srow: stride.0, scol: stride.1 }
    }
}

/// The number of threads a bare batch call runs on: always 1.
///
/// Bare batches run their per-item loop on the calling thread. A thread
/// count never changed a reported cost, only wall time, and on a 2-vCPU
/// host a batch split across two threads ran slower than on one. This and
/// [`set_sim_threads`] are no-ops kept only because the repository
/// benchmark (`perfbench/`) still calls them.
pub fn sim_threads() -> usize {
    1
}

/// Does nothing; see [`sim_threads`].
pub fn set_sim_threads(_n: usize) {}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(disp: &[(i64, i64)]) -> Vec<(Coord, Coord)> {
        disp.iter()
            .enumerate()
            .map(|(i, &(dr, dc))| {
                let s = Coord::new(i as i64, 2 * i as i64);
                (s, Coord::new(s.row + dr, s.col + dc))
            })
            .collect()
    }

    #[test]
    fn classify_recognizes_each_shape() {
        assert_eq!(classify(pairs(&[]).into_iter()), BatchPattern::Empty);
        assert_eq!(
            classify(pairs(&[(3, -1)]).into_iter()),
            BatchPattern::Uniform { drow: 3, dcol: -1 }
        );
        assert_eq!(
            classify(pairs(&[(3, -1), (3, -1), (3, -1)]).into_iter()),
            BatchPattern::Uniform { drow: 3, dcol: -1 }
        );
        assert_eq!(
            classify(pairs(&[(1, 0), (3, -2), (5, -4)]).into_iter()),
            BatchPattern::Affine { drow: 1, dcol: 0, srow: 2, scol: -2 }
        );
        assert_eq!(classify(pairs(&[(1, 0), (3, 0), (4, 0)]).into_iter()), BatchPattern::Irregular);
    }

    #[test]
    fn profiled_totals_agree_across_bare_and_instrumented_paths() {
        // A profile is charged onto the final counters, and the raw
        // counters are bit-identical between the bare per-item loop and the
        // instrumented per-item replay — so every profiled total must agree
        // too. This pins that chain end to end on the machine's batch APIs.
        use crate::machine::Machine;
        use crate::profile::builtin_profiles;

        let n = 5003;
        let run = |m: &mut Machine| {
            let items = m.place_batch((0..n as u64).collect(), |i| Coord::new(i as i64 % 509, 0));
            // Uniform phase: one common displacement for every item.
            let moved = m.send_batch(
                items
                    .into_iter()
                    .map(|t| {
                        let dst = Coord::new(t.loc().row + 1, t.loc().col + 2);
                        (t, dst)
                    })
                    .collect(),
            );
            // Irregular phase: a displacement per item.
            let _ = m.send_batch(
                moved
                    .into_iter()
                    .enumerate()
                    .map(|(i, t)| (t, Coord::new((i % 37) as i64, (i % 11) as i64)))
                    .collect::<Vec<_>>(),
            );
        };
        let mut bare = Machine::new();
        assert!(bare.is_bare());
        run(&mut bare);
        // Instrumented replay: the trace forces the materializing per-item
        // path; counters — hence profiled totals — must match.
        let mut traced = Machine::new();
        traced.enable_trace(4);
        assert!(!traced.is_bare());
        run(&mut traced);
        assert_eq!(bare.report(), traced.report());
        for profile in builtin_profiles() {
            let reference = profile.charge(bare.report()).expect("built-ins cannot saturate here");
            assert_eq!(profile.charge(traced.report()).unwrap(), reference, "{}", profile.name);
        }
    }

    #[test]
    fn u128_intermediates_charge_a_two_to_twenty_message_run_exactly() {
        // A 2^20-message run under weights big enough that every
        // pJ component overflows u64: the u128 intermediates must carry the
        // exact products (no clamp, no wrap, no error for representable
        // results).
        use crate::machine::Machine;
        use crate::profile::{CostProfile, ProfileWeights};

        let huge = CostProfile {
            name: "huge-weights",
            weights: ProfileWeights {
                pj_per_hop: 1 << 60,
                pj_per_op: 1 << 60,
                pj_per_word_hop: 1 << 60,
                cycles_per_hop: 1 << 20,
                cycles_per_op: 1 << 20,
            },
        };

        let n = 1u64 << 20;
        let mut m = Machine::new();
        let items = m.place_batch((0..n).collect(), |i| Coord::new(i as i64, 0));
        let _ = m.send_batch(
            items
                .into_iter()
                .map(|t| {
                    let dst = Coord::new(t.loc().row + 3, t.loc().col + 4);
                    (t, dst)
                })
                .collect(),
        );
        let c = m.report();
        assert_eq!(c.messages, n, "one message per item");
        assert_eq!(c.energy, 7 * n, "uniform displacement of 7 hops");
        let p = huge.charge(c).expect("representable in u128");
        let w = 1u128 << 60;
        assert_eq!(p.hop_pj, w * u128::from(c.energy));
        assert_eq!(p.op_pj, w * u128::from(c.messages));
        assert_eq!(p.occupancy_pj, w * (u128::from(c.energy) + u128::from(c.messages)));
        assert!(p.total_pj > u128::from(u64::MAX), "the point of the u128 intermediates");
        assert_eq!(p.delay_cycles, (u128::from(c.distance) + u128::from(c.depth)) << 20);
        assert_eq!(p.edp, p.total_pj * p.delay_cycles);
    }

    #[test]
    fn bare_send_batch_saturates_where_the_per_item_path_does() {
        // Energy saturates at u64::MAX. A bare batch sums its messages
        // locally and adds the sum to the counter once; the instrumented
        // path adds each message in turn. Both must clamp to the same
        // counter, and keep counting messages, once the energy overflows.
        use crate::machine::Machine;

        let run = |m: &mut Machine| {
            m.add_energy_total(u128::from(u64::MAX - 10));
            let items = m.place_batch((0..64u64).collect(), |i| Coord::new(i as i64, 0));
            let _ =
                m.send_batch(items.into_iter().map(|t| (t, Coord::new(0, 3))).collect::<Vec<_>>());
            m.report()
        };
        let mut bare = Machine::new();
        let bare = run(&mut bare);
        let mut traced = Machine::new();
        traced.enable_trace(4);
        assert_eq!(bare, run(&mut traced));
        assert_eq!(bare.energy, u64::MAX);
        assert_eq!(bare.messages, 64);
    }
}
