//! Batch-shape description and deterministic sharded execution for the
//! bare (uninstrumented) fast path of the machine's batch APIs.
//!
//! [`classify`] names the displacement shape of a batch of point-to-point
//! messages ([`BatchPattern`]). It describes a batch; the machine does not
//! branch on it. Every bare batch call charges each message its own
//! Manhattan distance in one per-item loop: the regular quadtree DAGs whose
//! batches are uniform run as closed-form level kernels
//! ([`crate::kernels`]) instead, and a closed form for the few regular
//! batches left would still visit every item to step its [`Path`].
//!
//! That per-item work (charging each message, constructing each delivered
//! value and extending its path) is embarrassingly parallel, so `shard_map`
//! partitions it into contiguous chunks across `std::thread::scope` workers.
//! Each worker accumulates into a private `ShardAcc`; the partials are
//! merged **in fixed shard order** (lowest item index first). Every merged
//! quantity is either an exact sum (`messages`), a saturating sum of
//! non-negative terms (`energy` — see below), or a max (`depth`,
//! `distance`), all of which are independent of the partition, so the
//! reported [`crate::Cost`] is bit-identical at any thread count.
//!
//! *Saturation note.* A serial left fold of `saturating_add` over
//! non-negative terms equals `min(true_sum, u64::MAX)`: partial sums are
//! monotone, so the fold clamps exactly when the true sum exceeds `u64::MAX`
//! and is exact otherwise. Per-shard partials merged with `saturating_add`
//! compute the same function, as do the `u128` closed forms of the level
//! kernels — so all three evaluation orders agree bit-for-bit even at the
//! saturation boundary.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::coord::Coord;
use crate::path::Path;

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

/// Override slot for [`sim_threads`]; `0` means "no override, use the
/// environment". Programmatic so a single test process can exercise several
/// thread counts (the env var is read once and cached).
static THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

static THREADS_ENV: OnceLock<usize> = OnceLock::new();

/// Worker count used by the sharded bare-path batch kernels.
///
/// Resolution order: [`set_sim_threads`] override, then the
/// `SPATIAL_SIM_THREADS` environment variable (read once per process), then
/// `std::thread::available_parallelism()`. `1` forces the serial path.
/// Any value yields bit-identical costs; this knob trades wall clock only.
pub fn sim_threads() -> usize {
    match THREADS_OVERRIDE.load(Ordering::Relaxed) {
        0 => *THREADS_ENV.get_or_init(|| {
            std::env::var("SPATIAL_SIM_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n: &usize| n >= 1)
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        }),
        n => n,
    }
}

/// Sets the worker count programmatically, overriding the environment
/// (`0` clears the override). Takes effect on the next batch call.
pub fn set_sim_threads(n: usize) {
    THREADS_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Below this many items a batch is processed serially. Scoped-thread
/// spawns cost tens of microseconds and the merge adds a pass over the
/// partials; batches under ~10^5 items cannot amortize that. The threshold
/// is deliberately high: a 2^16-item bitonic stage loses ~20% end to end
/// when sharded (see the `scaling` section of `BENCH_simcore.json`), so
/// only the 2^17+ batches of the largest sweeps engage the shard engine.
const MIN_PARALLEL_ITEMS: usize = 1 << 17;
/// Minimum items per shard; fewer workers are used for mid-sized batches,
/// keeping each shard's working set large enough to amortize its spawn.
const MIN_CHUNK: usize = 1 << 15;

/// Private per-shard cost accumulator. `energy` and `messages` start at zero
/// and are *partials* to be merged into the machine's counters; `depth` and
/// `distance` are running maxima.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ShardAcc {
    pub energy: u64,
    pub messages: u64,
    pub depth: u64,
    pub distance: u64,
}

impl ShardAcc {
    /// Records a delivered value's path against the watermark maxima.
    #[inline]
    pub fn observe(&mut self, p: Path) {
        self.depth = self.depth.max(p.depth);
        self.distance = self.distance.max(p.distance);
    }

    /// Charges one message of length `d`.
    #[inline]
    pub fn charge(&mut self, d: u64) {
        self.energy = self.energy.saturating_add(d);
        self.messages += 1;
    }

    /// Folds another shard's partial in (fixed caller-driven order).
    fn merge(&mut self, o: &ShardAcc) {
        self.energy = self.energy.saturating_add(o.energy);
        self.messages += o.messages;
        self.depth = self.depth.max(o.depth);
        self.distance = self.distance.max(o.distance);
    }
}

/// How many shards a batch of `n` items runs on under the current thread
/// setting.
fn shards_for(n: usize) -> usize {
    if n < MIN_PARALLEL_ITEMS {
        return 1;
    }
    sim_threads().clamp(1, n.div_ceil(MIN_CHUNK))
}

/// Maps `f` over owned items, sharded across scoped workers when the batch
/// is large enough. `f` receives each item's global index. Outputs are
/// concatenated and shard partials merged in ascending item order, so the
/// result is identical to the serial fold for any thread count.
pub(crate) fn shard_map<I, O>(
    items: Vec<I>,
    f: impl Fn(I, usize, &mut ShardAcc) -> O + Sync,
) -> (Vec<O>, ShardAcc)
where
    I: Send,
    O: Send,
{
    let n = items.len();
    let shards = shards_for(n);
    if shards <= 1 {
        let mut acc = ShardAcc::default();
        let out = items.into_iter().enumerate().map(|(i, it)| f(it, i, &mut acc)).collect();
        return (out, acc);
    }
    let chunk = n.div_ceil(shards);
    // Carve the vector into contiguous chunks back to front (one memcpy of
    // each tail), so workers own their items without any unsafe slicing.
    let mut chunks: Vec<(usize, Vec<I>)> = Vec::with_capacity(shards);
    let mut rest = items;
    for s in (1..shards).rev() {
        let at = (s * chunk).min(rest.len());
        chunks.push((at, rest.split_off(at)));
    }
    chunks.push((0, rest));
    chunks.reverse();
    let f = &f;
    let results: Vec<(Vec<O>, ShardAcc)> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|(base, c)| {
                scope.spawn(move || {
                    let mut acc = ShardAcc::default();
                    let out: Vec<O> = c
                        .into_iter()
                        .enumerate()
                        .map(|(i, it)| f(it, base + i, &mut acc))
                        .collect();
                    (out, acc)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("batch shard worker panicked")).collect()
    });
    merge_shards(n, results)
}

/// Borrowed-item variant of [`shard_map`]: shards a slice by subslices (no
/// item copying), same deterministic merge.
pub(crate) fn shard_map_ref<I, O>(
    items: &[I],
    f: impl Fn(&I, usize, &mut ShardAcc) -> O + Sync,
) -> (Vec<O>, ShardAcc)
where
    I: Sync,
    O: Send,
{
    let n = items.len();
    let shards = shards_for(n);
    if shards <= 1 {
        let mut acc = ShardAcc::default();
        let out = items.iter().enumerate().map(|(i, it)| f(it, i, &mut acc)).collect();
        return (out, acc);
    }
    let chunk = n.div_ceil(shards);
    let f = &f;
    let results: Vec<(Vec<O>, ShardAcc)> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(s, c)| {
                let base = s * chunk;
                scope.spawn(move || {
                    let mut acc = ShardAcc::default();
                    let out: Vec<O> =
                        c.iter().enumerate().map(|(i, it)| f(it, base + i, &mut acc)).collect();
                    (out, acc)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("batch shard worker panicked")).collect()
    });
    merge_shards(n, results)
}

/// Concatenates shard outputs and merges shard partials, lowest item index
/// first — the single place that fixes the deterministic reduction order.
fn merge_shards<O>(n: usize, results: Vec<(Vec<O>, ShardAcc)>) -> (Vec<O>, ShardAcc) {
    let mut out = Vec::with_capacity(n);
    let mut acc = ShardAcc::default();
    for (o, a) in results {
        out.extend(o);
        acc.merge(&a);
    }
    (out, acc)
}

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
    fn shard_map_is_partition_independent() {
        // Large enough to shard; compare against the serial fold.
        let items: Vec<u64> = (0..(MIN_PARALLEL_ITEMS as u64 * 2 + 17)).collect();
        let f = |it: u64, i: usize, acc: &mut ShardAcc| {
            acc.charge(it % 13);
            acc.observe(Path { depth: it % 7, distance: it % 29 });
            it + i as u64
        };
        let mut serial_acc = ShardAcc::default();
        let serial: Vec<u64> =
            items.iter().enumerate().map(|(i, &it)| f(it, i, &mut serial_acc)).collect();
        for threads in [1usize, 2, 3, 8] {
            set_sim_threads(threads);
            let (out, acc) = shard_map(items.clone(), f);
            assert_eq!(out, serial, "threads={threads}");
            assert_eq!(acc.energy, serial_acc.energy);
            assert_eq!(acc.messages, serial_acc.messages);
            assert_eq!(acc.depth, serial_acc.depth);
            assert_eq!(acc.distance, serial_acc.distance);
            let (out_ref, acc_ref) = shard_map_ref(&items, |&it, i, a| f(it, i, a));
            assert_eq!(out_ref, serial);
            assert_eq!(acc_ref.messages, serial_acc.messages);
        }
        set_sim_threads(0);
    }

    #[test]
    fn profiled_totals_agree_across_bare_sharded_and_instrumented_paths() {
        // A profile is charged onto the final counters, and the raw
        // counters are bit-identical across the shard engine at any thread
        // count and the instrumented per-item replay — so every profiled
        // total must agree too. This pins that chain end to end on the
        // machine's batch APIs.
        use crate::machine::Machine;
        use crate::profile::builtin_profiles;

        let n = MIN_PARALLEL_ITEMS + 1031; // past the shard engage threshold
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
        let mut reports = Vec::new();
        for threads in [1usize, 2, 7] {
            set_sim_threads(threads);
            let mut m = Machine::new();
            assert!(m.is_bare());
            run(&mut m);
            reports.push(m.report());
        }
        set_sim_threads(0);
        // Instrumented replay: the trace forces the materializing per-item
        // path; counters — hence profiled totals — must match.
        let mut m = Machine::new();
        m.enable_trace(4);
        assert!(!m.is_bare());
        run(&mut m);
        reports.push(m.report());
        for profile in builtin_profiles() {
            let reference = profile.charge(reports[0]).expect("built-ins cannot saturate here");
            for (i, &c) in reports.iter().enumerate() {
                assert_eq!(profile.charge(c).unwrap(), reference, "{} run {i}", profile.name);
            }
        }
    }

    #[test]
    fn u128_intermediates_charge_a_two_to_twenty_message_run_exactly() {
        // A sharded 2^20-message run under weights big enough that every
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
    fn saturating_energy_merge_matches_serial_clamp() {
        // Shard partials that individually and jointly saturate must merge
        // to exactly what the serial monotone fold produces: u64::MAX.
        let mut a = ShardAcc { energy: u64::MAX - 10, ..Default::default() };
        let b = ShardAcc { energy: 100, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.energy, u64::MAX);
    }
}
