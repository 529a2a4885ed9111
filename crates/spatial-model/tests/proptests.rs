//! Property-based tests for the simulator substrate, on the in-tree
//! harness (`spatial_core::check`).

use spatial_core::check::{check, Gen};
use spatial_core::{prop_assert, prop_assert_eq};

use spatial_model::{zorder, Coord, Cost, Machine, Path, Tracked};

#[test]
fn zorder_encode_decode_roundtrip() {
    check("zorder_encode_decode_roundtrip", |g: &mut Gen| {
        let r = g.int(0u64..(1 << 24));
        let c = g.int(0u64..(1 << 24));
        let z = zorder::encode(r, c);
        prop_assert_eq!(zorder::decode(z), (r, c));
        Ok(())
    });
}

#[test]
fn zorder_decode_encode_roundtrip() {
    check("zorder_decode_encode_roundtrip", |g: &mut Gen| {
        let z = g.int(0u64..(1 << 48));
        let (r, c) = zorder::decode(z);
        prop_assert_eq!(zorder::encode(r, c), z);
        Ok(())
    });
}

#[test]
fn zorder_preserves_quadrant_order() {
    check("zorder_preserves_quadrant_order", |g: &mut Gen| {
        // If a < b as Z-indices, both coordinates live inside the smallest
        // aligned square that contains them both.
        let a = g.int(0u64..(1 << 20) - 1);
        let b = g.int(a + 1..(1 << 20));
        let square = zorder::next_power_of_four(b + 1);
        let (ra, ca) = zorder::decode(a);
        let (rb, cb) = zorder::decode(b);
        let side = (square as f64).sqrt() as u64;
        prop_assert!(ra < side && ca < side && rb < side && cb < side);
        Ok(())
    });
}

#[test]
fn aligned_blocks_partition_any_range() {
    check("aligned_blocks_partition_any_range", |g: &mut Gen| {
        let lo = g.int(0u64..5000);
        let len = g.int(1u64..5000);
        let hi = lo + len;
        let blocks = zorder::aligned_blocks(lo, hi);
        let mut cur = lo;
        for (s, l) in blocks {
            prop_assert_eq!(s, cur);
            prop_assert!(zorder::is_power_of_four(l));
            prop_assert_eq!(s % l, 0);
            cur += l;
        }
        prop_assert_eq!(cur, hi);
        Ok(())
    });
}

#[test]
fn aligned_range_diameter_is_sqrt_len() {
    check("aligned_range_diameter_is_sqrt_len", |g: &mut Gen| {
        // The O(√L) diameter holds for ranges contained in an aligned
        // square of comparable size — which is how every algorithm in this
        // workspace uses Z-segments. (A range crossing a high quadrant
        // boundary, e.g. the curve midpoint, can span the whole grid.)
        let block = g.int(0u64..100);
        let len = g.int(1u64..10_000);
        let p = zorder::next_power_of_four(len);
        let lo = block * p;
        let side = zorder::range_diameter_side(lo, lo + len);
        let bound = 2 * ((p as f64).sqrt() as u64);
        prop_assert!(side <= bound, "side {} > bound {}", side, bound);
        Ok(())
    });
}

// Past `proptest` regression (shrunk to `lo = 29183, len = 3586`), kept as a
// pinned case now that the random harness draws different inputs.
#[test]
fn aligned_range_diameter_regression_29183() {
    let (lo, len) = (29183u64, 3586u64);
    let p = zorder::next_power_of_four(len);
    let lo = (lo / p) * p; // align as the property does via block * p
    let side = zorder::range_diameter_side(lo, lo + len);
    assert!(side <= 2 * ((p as f64).sqrt() as u64));
}

#[test]
fn manhattan_triangle_inequality() {
    check("manhattan_triangle_inequality", |g: &mut Gen| {
        let pt = |g: &mut Gen| Coord::new(g.int(-1000i64..1000), g.int(-1000i64..1000));
        let (a, b, c) = (pt(g), pt(g), pt(g));
        prop_assert!(a.manhattan(c) <= a.manhattan(b) + b.manhattan(c));
        prop_assert_eq!(a.manhattan(b), b.manhattan(a));
        Ok(())
    });
}

#[test]
fn path_join_is_lattice_like() {
    check("path_join_is_lattice_like", |g: &mut Gen| {
        let path = |g: &mut Gen| Path { depth: g.int(0u64..1000), distance: g.int(0u64..1000) };
        let (a, b, c) = (path(g), path(g), path(g));
        prop_assert_eq!(a.join(b), b.join(a));
        prop_assert_eq!(a.join(b).join(c), a.join(b.join(c)));
        prop_assert_eq!(a.join(a), a);
        prop_assert_eq!(a.join(Path::ZERO), a);
        Ok(())
    });
}

#[test]
fn send_chain_accounting_is_exact() {
    check("send_chain_accounting_is_exact", |g: &mut Gen| {
        // A single chain of sends: energy = distance = sum of hop lengths,
        // depth = number of hops.
        let n_hops = g.size(1..20);
        let hops: Vec<(i64, i64)> = g.vec(n_hops, |g| (g.int(-50i64..50), g.int(-50i64..50)));
        let mut m = Machine::new();
        let mut cur = m.place(Coord::ORIGIN, 0u8);
        let mut expect = 0u64;
        for (dr, dc) in &hops {
            let dst = cur.loc().offset(*dr, *dc);
            expect += cur.loc().manhattan(dst);
            cur = m.send_owned(cur, dst);
        }
        let rep = m.report();
        prop_assert_eq!(rep.energy, expect);
        prop_assert_eq!(rep.distance, expect);
        prop_assert_eq!(rep.depth, hops.len() as u64);
        prop_assert_eq!(cur.path().distance, expect);
        Ok(())
    });
}

#[test]
fn path_recurrence_matches_shadow_dag() {
    check("path_recurrence_matches_shadow_dag", |g: &mut Gen| {
        // Random message DAG: each step either sends a random live value to
        // a random cell or zips two live values at a common cell. A shadow
        // interpreter maintains every value's expected Path by the model
        // recurrence (send: join-free `step`; zip: elementwise-max `join`);
        // the machine must agree value-by-value, and its depth/distance
        // watermarks must equal the max over everything ever produced.
        let steps = g.size(5..40);
        let mut m = Machine::new();
        let cell = |g: &mut Gen| Coord::new(g.int(-40i64..40), g.int(-40i64..40));
        let mut live: Vec<(spatial_model::Tracked<u8>, Path)> = (0..4)
            .map(|i| {
                let c = cell(g);
                (m.place(c, i), Path::ZERO)
            })
            .collect();
        let mut water = Path::ZERO;
        for _ in 0..steps {
            if g.int(0u32..3) == 0 && live.len() >= 2 {
                // Local zip: bring b to a's cell first (a send, also shadowed).
                let bi = g.size(1..live.len());
                let (b, pb) = live.remove(bi);
                let (a, pa) = &live[0];
                let hop = b.loc().manhattan(a.loc());
                let b = m.send_owned(b, a.loc());
                let pb = pb.step(hop);
                water = water.join(pb);
                let z = a.zip_with(&b, |x, y| x.wrapping_add(*y));
                let pz = pa.join(pb);
                prop_assert_eq!(z.path(), pz);
                m.discard(b);
                live.push((z, pz));
            } else {
                let i = g.size(0..live.len());
                let (v, p) = live.remove(i);
                let dst = cell(g);
                let hop = v.loc().manhattan(dst);
                let v = m.send_owned(v, dst);
                let p = p.step(hop);
                water = water.join(p);
                prop_assert_eq!(v.path(), p);
                live.push((v, p));
            }
        }
        let rep = m.report();
        prop_assert_eq!(rep.depth, water.depth);
        prop_assert_eq!(rep.distance, water.distance);
        Ok(())
    });
}

#[test]
fn costs_are_translation_invariant() {
    check("costs_are_translation_invariant", |g: &mut Gen| {
        // The model has no distinguished origin: replaying the same message
        // pattern shifted by an arbitrary grid offset reports the identical
        // Cost. (Manhattan distance depends only on coordinate differences.)
        let n_msgs = g.size(1..30);
        let script: Vec<(i64, i64, i64, i64)> = g.vec(n_msgs, |g| {
            (g.int(-100i64..100), g.int(-100i64..100), g.int(-100i64..100), g.int(-100i64..100))
        });
        let run = |offset: Coord| {
            let mut m = Machine::new();
            let mut prev: Option<spatial_model::Tracked<u8>> = None;
            for &(r, c, dr, dc) in &script {
                let src = Coord::new(r + offset.row, c + offset.col);
                let v = match prev.take() {
                    // Alternate fresh placements with chained sends so both
                    // watermarks and sums are exercised.
                    None => m.place(src, 0u8),
                    Some(p) => m.send_owned(p, src),
                };
                prev = Some(m.send_owned(v, src.offset(dr, dc)));
            }
            m.report()
        };
        let base = run(Coord::ORIGIN);
        let shifted = run(Coord::new(g.int(-10_000i64..10_000), g.int(-10_000i64..10_000)));
        prop_assert_eq!(base, shifted);
        Ok(())
    });
}

#[test]
fn cost_delta_round_trips_against_counters() {
    check("cost_delta_round_trips_against_counters", |g: &mut Gen| {
        // delta subtracts the monotone counters exactly (adding the earlier
        // snapshot back restores them) and keeps the later watermarks.
        let snap = |g: &mut Gen| {
            let energy = g.int(0u64..1 << 40);
            let messages = g.int(0u64..1 << 30);
            Cost { energy, depth: g.int(0u64..1 << 20), distance: g.int(0u64..=energy), messages }
        };
        let early = snap(g);
        let later = Cost {
            energy: early.energy + g.int(0u64..1 << 40),
            depth: early.depth + g.int(0u64..1 << 20),
            distance: early.distance + g.int(0u64..1 << 20),
            messages: early.messages + g.int(0u64..1 << 30),
        };
        let d = later.delta(early);
        prop_assert_eq!(d, later - early, "operator form agrees");
        prop_assert_eq!(d.energy + early.energy, later.energy);
        prop_assert_eq!(d.messages + early.messages, later.messages);
        prop_assert_eq!(d.depth, later.depth);
        prop_assert_eq!(d.distance, later.distance);
        prop_assert_eq!(later.delta(later).energy, 0);
        prop_assert_eq!(later.delta(later).messages, 0);
        Ok(())
    });
}

#[test]
fn parallel_sends_do_not_inflate_depth() {
    check("parallel_sends_do_not_inflate_depth", |g: &mut Gen| {
        // A 1-to-many fan from independent placements has depth exactly 1.
        let fan = g.size(1..50);
        let mut m = Machine::new();
        for i in 0..fan {
            let v = m.place(Coord::new(i as i64 * 3, 0), i);
            let _ = m.send(&v, Coord::new(i as i64 * 3, 7));
        }
        prop_assert_eq!(m.report().depth, 1);
        prop_assert_eq!(m.report().distance, 7);
        prop_assert_eq!(m.report().energy, 7 * fan as u64);
        Ok(())
    });
}

/// Sends a copy of every `srcs[i]` (value `i`) to `dsts[i]`, then moves the
/// original there: once through `send_batch_copy` and `send_batch`, once
/// item by item through `send` and `move_to`. Requires equal costs and an
/// equal `(value, loc, path)` for every output; returns the costs.
fn batch_vs_loop(srcs: &[Coord], dsts: &[Coord]) -> Result<Cost, String> {
    let mut batched = Machine::new();
    let items: Vec<_> = srcs.iter().enumerate().map(|(i, &c)| batched.place(c, i)).collect();
    let copies: Vec<_> = items.iter().zip(dsts).map(|(t, &d)| (t, d)).collect();
    let batch_copied = batched.send_batch_copy(&copies);
    let batch_moved = batched.send_batch(items.into_iter().zip(dsts.iter().copied()).collect());

    let mut looped = Machine::new();
    let items: Vec<_> = srcs.iter().enumerate().map(|(i, &c)| looped.place(c, i)).collect();
    let loop_copied: Vec<_> = items.iter().zip(dsts).map(|(t, &d)| looped.send(t, d)).collect();
    let loop_moved: Vec<_> =
        items.into_iter().zip(dsts).map(|(t, &d)| looped.move_to(t, d)).collect();

    prop_assert_eq!(batched.report(), looped.report());
    let parts = |ts: &[Tracked<usize>]| -> Vec<(usize, Coord, Path)> {
        ts.iter().map(|t| (*t.value(), t.loc(), t.path())).collect()
    };
    prop_assert_eq!(parts(&batch_copied), parts(&loop_copied));
    prop_assert_eq!(parts(&batch_moved), parts(&loop_moved));
    Ok(batched.report())
}

#[test]
fn batches_match_the_per_item_loop() {
    // Both batch APIs must be indistinguishable from sending every item on
    // its own, whatever the displacement shape: a copy to its own PE charges
    // a zero-length message, a move to its own PE is free.
    //
    // Five messages 2^62 hops long sum past u64::MAX: both sides clamp.
    let srcs: Vec<Coord> = (0..5).map(|i| Coord::new(0, i)).collect();
    let dsts: Vec<Coord> = srcs.iter().map(|s| Coord::new(1 << 62, s.col)).collect();
    let cost = batch_vs_loop(&srcs, &dsts).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(cost.energy, u64::MAX);

    check("batches_match_the_per_item_loop", |g: &mut Gen| {
        // 0: uniform, 1: affinely strided, 2: random with some self-sends,
        // 3: all self-sends.
        let shape = g.int(0u32..4);
        let (drow, dcol) = (g.int(-40i64..=40), g.int(-40i64..=40));
        let (srow, scol) = (g.int(-5i64..=5), g.int(-5i64..=5));
        for n in [0, 1, 2, g.size(0..=200usize)] {
            let srcs: Vec<Coord> =
                (0..n).map(|_| Coord::new(g.int(-2000i64..2000), g.int(-2000i64..2000))).collect();
            let dsts: Vec<Coord> = srcs
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let i = i as i64;
                    match shape {
                        0 => Coord::new(s.row + drow, s.col + dcol),
                        1 => Coord::new(s.row + drow + i * srow, s.col + dcol + i * scol),
                        2 if g.bool_p(0.75) => {
                            Coord::new(s.row + g.int(-40i64..=40), s.col + g.int(-40i64..=40))
                        }
                        _ => s,
                    }
                })
                .collect();
            batch_vs_loop(&srcs, &dsts)?;
        }
        Ok(())
    });
}
