//! Differential oracle tests: every spatial primitive against a plain
//! sequential reference implementation, swept over many RNG seeds through
//! the in-tree property harness. A sweep of ≥25 seeds per primitive is the
//! hermetic replacement for the old crates.io-powered fuzzing setup.

use spatial_dataflow::check::{check_cfg, Config, Gen};
use spatial_dataflow::collectives::zseg::{broadcast_blocks, reduce_blocks};
use spatial_dataflow::collectives::{broadcast_z, place_row_major, reduce_z, scan_any};
use spatial_dataflow::model::zorder;
use spatial_dataflow::prelude::*;
use spatial_dataflow::rng::Rng;
use spatial_dataflow::sorting::rank2::Split;
use spatial_dataflow::sorting::{merge_adjacent, multi_rank_split, shearsort_snake, Keyed};
use spatial_dataflow::{prop_assert, prop_assert_eq};

/// At least 25 seeds per primitive regardless of `SPATIAL_CHECK_CASES`.
fn cfg() -> Config {
    let base = Config::from_env();
    Config { cases: base.cases.max(25), seed: base.seed }
}

/// A fresh input vector drawn from the case's seeded stream.
fn input(g: &mut Gen, max_len: usize) -> Vec<i64> {
    g.vec_i64(1..max_len, -100_000..=100_000)
}

#[test]
fn differential_scan() {
    check_cfg(&cfg(), "differential_scan", |g: &mut Gen| {
        let vals = input(g, 600);
        // Sequential reference: inclusive prefix sum.
        let mut expect = vals.clone();
        for i in 1..expect.len() {
            expect[i] += expect[i - 1];
        }
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, vals);
        // `scan_any` handles arbitrary lengths (pads to a power of four).
        let got = read_values(scan_any(&mut m, 0, items, &|a, b| a + b));
        prop_assert_eq!(got, expect);
        Ok(())
    });
}

#[test]
fn differential_sort() {
    check_cfg(&cfg(), "differential_sort", |g: &mut Gen| {
        let vals = input(g, 600);
        let mut expect = vals.clone();
        expect.sort();
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, vals);
        prop_assert_eq!(sort_z_values(&mut m, 0, items), expect);
        Ok(())
    });
}

#[test]
fn differential_selection() {
    check_cfg(&cfg(), "differential_selection", |g: &mut Gen| {
        let vals = input(g, 600);
        let n = vals.len() as u64;
        let k = g.int(1u64..=n);
        let algo_seed = g.int(0u64..1 << 32);
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        let mut m = Machine::new();
        let (got, _) = select_rank_values(&mut m, 0, vals, k, algo_seed);
        prop_assert_eq!(got, sorted[(k - 1) as usize], "k={k} seed={algo_seed}");
        Ok(())
    });
}

#[test]
fn differential_spmv() {
    check_cfg(&cfg(), "differential_spmv", |g: &mut Gen| {
        let n = g.size(2..48);
        let nnz = g.size(0..4 * n);
        let entries: Vec<(u32, u32, i64)> =
            g.vec(nnz, |g| (g.int(0u32..n as u32), g.int(0u32..n as u32), g.int(-9i64..=9)));
        let a = Coo::new(n, n, entries.clone());
        let x = g.vec_i64(n..n + 1, -9..=9);
        // Sequential reference: accumulate entry-by-entry.
        let mut expect = vec![0i64; n];
        for &(r, c, v) in &entries {
            expect[r as usize] += v * x[c as usize];
        }
        let mut m = Machine::new();
        prop_assert_eq!(spmv(&mut m, &a, &x).y, expect);
        Ok(())
    });
}

#[test]
fn differential_broadcast() {
    check_cfg(&cfg(), "differential_broadcast", |g: &mut Gen| {
        let side = 1u64 << g.int(0u32..6); // 1..=32
        let value = g.int(i64::MIN..=i64::MAX);
        let mut m = Machine::new();
        let grid = SubGrid::square(Coord::ORIGIN, side);
        let root = m.place(grid.origin, value);
        let copies = broadcast(&mut m, root, grid);
        prop_assert_eq!(copies.len() as u64, side * side);
        for t in &copies {
            prop_assert_eq!(*t.value(), value);
            prop_assert!(grid.contains(t.loc()), "{:?} outside {side}x{side}", t.loc());
        }
        Ok(())
    });
}

#[test]
fn differential_merge2d() {
    check_cfg(&cfg(), "differential_merge2d", |g: &mut Gen| {
        // Two independently sorted runs on adjacent Z-segments, arbitrary
        // (possibly zero) lengths, duplicate values allowed — `Keyed` breaks
        // ties so Lemma V.7's distinctness precondition holds.
        let mut a = g.vec_i64(0..300, -500..=500);
        let mut b = g.vec_i64(0..300, -500..=500);
        a.sort_unstable();
        b.sort_unstable();
        let mut expect: Vec<i64> = a.iter().chain(b.iter()).copied().collect();
        expect.sort_unstable();
        let lo = 4 * g.int(0u64..64); // exercise offset segments too
        let mut m = Machine::new();
        let ka: Vec<Keyed<i64>> =
            a.iter().enumerate().map(|(i, &v)| Keyed::new(v, i as u64)).collect();
        let kb: Vec<Keyed<i64>> =
            b.iter().enumerate().map(|(i, &v)| Keyed::new(v, (a.len() + i) as u64)).collect();
        let ia = place_z(&mut m, lo, ka);
        let ib = place_z(&mut m, lo + a.len() as u64, kb);
        let out = merge_adjacent(&mut m, ia, ib, lo);
        for (i, t) in out.iter().enumerate() {
            prop_assert_eq!(
                t.loc(),
                spatial_dataflow::model::zorder::coord_of(lo + i as u64),
                "output {i} off its Z-cell"
            );
        }
        let got: Vec<i64> = out.iter().map(|t| t.value().key).collect();
        prop_assert_eq!(got, expect);
        Ok(())
    });
}

/// Places sorted `a` and `b` as `Keyed` values (A's uids first) on adjacent
/// Z-segments from `lo` and splits them at every rank of `ks`.
fn rank_splits<const K: usize>(
    m: &mut Machine,
    a: &[i64],
    b: &[i64],
    lo: u64,
    ks: &[u64; K],
) -> [Split; K] {
    let uid0 = a.len() as u64;
    let ka: Vec<Keyed<i64>> = a.iter().enumerate().map(|(i, &v)| Keyed::new(v, i as u64)).collect();
    let kb: Vec<Keyed<i64>> =
        b.iter().enumerate().map(|(i, &v)| Keyed::new(v, uid0 + i as u64)).collect();
    let ia = place_z(m, lo, ka);
    let ib = place_z(m, lo + uid0, kb);
    multi_rank_split(m, &ia, lo, &ib, lo + uid0, ks)
}

/// Host reference: how the `k` smallest `(value, uid)` pairs split.
fn reference_splits<const K: usize>(a: &[i64], b: &[i64], ks: &[u64; K]) -> [Split; K] {
    let na = a.len() as u64;
    let mut all: Vec<(i64, u64)> = a.iter().enumerate().map(|(i, &v)| (v, i as u64)).collect();
    all.extend(b.iter().enumerate().map(|(i, &v)| (v, na + i as u64)));
    all.sort_unstable();
    ks.map(|k| {
        let ca = all[..k as usize].iter().filter(|&&(_, uid)| uid < na).count() as u64;
        Split { ca, cb: k - ca }
    })
}

/// Splits on a bare machine (closed-form kernels) and a trace-armed one
/// (per-item replay): both must agree with the host reference and charge
/// the same cost.
fn check_rank_splits<const K: usize>(
    a: &[i64],
    b: &[i64],
    lo: u64,
    ks: &[u64; K],
) -> Result<(), String> {
    let mut bare = Machine::new();
    let got = rank_splits(&mut bare, a, b, lo, ks);
    let mut traced = Machine::new();
    traced.enable_trace(0);
    let replayed = rank_splits(&mut traced, a, b, lo, ks);
    let at = format!("|A|={} |B|={} lo={lo} ks={ks:?}", a.len(), b.len());
    prop_assert_eq!(got, reference_splits(a, b, ks), "{at}");
    prop_assert_eq!(replayed, got, "{at}: traced splits");
    prop_assert_eq!(traced.report(), bare.report(), "{at}: cost");
    Ok(())
}

#[test]
fn differential_multi_rank_split() {
    check_cfg(&cfg(), "differential_multi_rank_split", |g: &mut Gen| {
        // Sorted runs with duplicate values (`Keyed` makes the elements
        // distinct). A quarter of the cases empty one side and a quarter keep
        // n within one window, so no pivot is drawn.
        let (na, nb) = match g.int(0u32..4) {
            0 if g.bool_p(0.5) => (0, g.size(1..=300)),
            0 => (g.size(1..=300), 0),
            1 => (g.size(0..=6), g.size(1..=6)),
            _ => (g.size(0..=300), g.size(0..=300)),
        };
        let mut a = g.vec(na, |g| g.int(-500i64..=500));
        let mut b = g.vec(nb, |g| g.int(-500i64..=500));
        a.sort_unstable();
        b.sort_unstable();
        let n = (na + nb) as u64;
        if n == 0 {
            return Ok(());
        }
        let lo = 4 * g.int(0u64..64);
        let quartiles = [n / 4, n / 2, 3 * n / 4].map(|k| k.max(1));
        check_rank_splits(&a, &b, lo, &quartiles)?;
        let mix = [1, g.int(1..=n), n.div_ceil(2), g.int(1..=n), n];
        check_rank_splits(&a, &b, lo, &mix)
    });
}

#[test]
fn differential_shearsort() {
    check_cfg(&cfg(), "differential_shearsort", |g: &mut Gen| {
        let side = g.int(1u64..=12);
        let n = (side * side) as usize;
        let vals = g.vec_i64(n..n + 1, -100_000..=100_000);
        let mut expect = vals.clone();
        expect.sort_unstable();
        let mut m = Machine::new();
        let grid = SubGrid::square(Coord::ORIGIN, side);
        let items = place_row_major(&mut m, grid, vals);
        let out = shearsort_snake(&mut m, grid, items);
        // Un-snake: odd rows are stored right-to-left.
        let w = side as usize;
        let mut got = Vec::with_capacity(n);
        for r in 0..w {
            let row = &out[r * w..(r + 1) * w];
            if r % 2 == 0 {
                got.extend(row.iter().map(|t| *t.value()));
            } else {
                got.extend(row.iter().rev().map(|t| *t.value()));
            }
        }
        prop_assert_eq!(got, expect, "side={side}");
        Ok(())
    });
}

#[test]
fn differential_segmented_scan() {
    check_cfg(&cfg(), "differential_segmented_scan", |g: &mut Gen| {
        let vals = input(g, 400);
        let heads: Vec<bool> = (0..vals.len()).map(|_| g.int(0u32..4) == 0).collect();
        // Sequential reference: restart the running sum at every head.
        let mut expect = Vec::with_capacity(vals.len());
        let mut acc = 0i64;
        for (i, &v) in vals.iter().enumerate() {
            acc = if i == 0 || heads[i] { v } else { acc + v };
            expect.push(acc);
        }
        let mut m = Machine::new();
        let seg: Vec<SegItem<i64>> =
            vals.iter().zip(&heads).map(|(&v, &h)| SegItem::new(h, v)).collect();
        // `segmented_scan` requires a power-of-four length; pad with fresh
        // single-element segments and drop the padding afterwards.
        let n = vals.len();
        let mut padded = 1usize;
        while padded < n {
            padded *= 4;
        }
        let mut seg = seg;
        seg.resize(padded, SegItem::new(true, 0));
        let items = place_z(&mut m, 0, seg);
        let got = read_values(segmented_scan(&mut m, 0, items, &|a, b| a + b));
        prop_assert_eq!(&got[..n], &expect[..]);
        Ok(())
    });
}

#[test]
fn differential_profiled_charge_is_path_independent() {
    // A cost profile is a pure function of the final raw counters, so every
    // execution path that agrees on raw counters must agree on the profiled
    // charge: bare machine (closed-form level kernels eligible) vs fully
    // instrumented machine (trace forces the materializing per-item path).
    // Swept over seeds and all built-in profiles (or the single profile the
    // CI matrix pins via SPATIAL_PROFILE).
    let profiles: Vec<&'static dyn CostProfile> = match std::env::var("SPATIAL_PROFILE") {
        Ok(name) => {
            vec![profile_by_name(&name).expect("SPATIAL_PROFILE must name a built-in profile")]
        }
        Err(_) => spatial_dataflow::model::builtin_profiles().to_vec(),
    };
    check_cfg(&cfg(), "differential_profiled_charge", |g: &mut Gen| {
        let vals = input(g, 600);
        let run = |m: &mut Machine| {
            let items = place_z(m, 0, vals.clone());
            let _ = sort_z(m, 0, items);
        };
        for &profile in &profiles {
            let mut bare = Machine::with_profile(profile);
            run(&mut bare);
            let mut traced = Machine::with_profile(profile);
            traced.enable_trace(1 << 16);
            run(&mut traced);
            prop_assert_eq!(
                bare.report(),
                traced.report(),
                "{}: raw counters diverge between bare and instrumented paths",
                profile.name()
            );
            let b = bare.profiled_report().expect("built-ins cannot saturate");
            let t = traced.profiled_report().expect("built-ins cannot saturate");
            prop_assert_eq!(b, t, "{}: profiled charge is path-dependent", profile.name());
            prop_assert_eq!(
                b,
                profile.charge(bare.report()).expect("re-charge"),
                "{}: machine charge must equal charging the raw tuple",
                profile.name()
            );
        }
        Ok(())
    });
}

#[test]
fn differential_rng_gen_range_is_in_bounds_and_unbiased_enough() {
    // The RNG itself gets a differential check against its contract: bounds
    // always hold and a long stream hits every bucket of a small range.
    check_cfg(&cfg(), "differential_rng", |g: &mut Gen| {
        let lo = g.int(-1000i64..1000);
        let span = g.int(1i64..100);
        let mut rng = Rng::seed_from_u64(g.case_seed());
        let mut hit = vec![false; span as usize];
        for _ in 0..2048 {
            let v = rng.gen_range(lo..lo + span);
            prop_assert!(v >= lo && v < lo + span, "{v} outside [{lo},{})", lo + span);
            hit[(v - lo) as usize] = true;
        }
        prop_assert!(span > 64 || hit.iter().all(|&h| h), "missed a bucket in span {span}");
        Ok(())
    });
}

/// Runs `run` on a bare machine, which takes the closed-form level kernels,
/// and on one with a trace armed, which forces the per-node path, and
/// asserts that both charge the same cost and return the same
/// `(value, loc, path)` outputs.
fn assert_kernel_matches_replay<T: PartialEq + std::fmt::Debug>(
    what: &str,
    run: impl Fn(&mut Machine) -> Vec<Tracked<T>>,
) {
    let parts = |out: Vec<Tracked<T>>| -> Vec<(Coord, Path, T)> {
        out.into_iter().map(|t| (t.loc(), t.path(), t.into_value())).collect()
    };
    let mut bare = Machine::new();
    let got = parts(run(&mut bare));
    let mut traced = Machine::new();
    traced.enable_trace(0); // armed, so every message takes the per-node path; keeps no records
    let want = parts(run(&mut traced));
    let replayed = traced.trace().expect("trace armed").dropped();
    assert_eq!(replayed, traced.report().messages, "{what}: every message replayed");
    assert_eq!(bare.report(), traced.report(), "{what}: cost");
    assert_eq!(got, want, "{what}: outputs");
}

/// Places `vals[i]` on Z-index `lo + i`. Two items in three first travel
/// out and back once or twice, so the inputs carry unequal non-zero paths.
fn place_with_paths<T>(m: &mut Machine, lo: u64, vals: Vec<T>) -> Vec<Tracked<T>> {
    vals.into_iter()
        .enumerate()
        .map(|(i, v)| {
            let home = zorder::coord_of(lo + i as u64);
            let mut t = m.place(home, v);
            for _ in 0..i % 3 {
                t = m.send_owned(t, home.offset(1 + (i % 4) as i64, -((i % 5) as i64)));
                t = m.send_owned(t, home);
            }
            t
        })
        .collect()
}

/// `n` one-letter strings, folded by [`concat`].
fn letters(rng: &mut Rng, n: u64) -> Vec<String> {
    (0..n).map(|_| char::from(b'a' + rng.gen_range(0u8..26)).to_string()).collect()
}

/// Concatenation that brackets every fold: neither commutative nor
/// associative, so each value spells out the exact fold tree that built it
/// and both paths must combine the same operands in the same shape.
fn concat(a: &String, b: &String) -> String {
    format!("({a}{b})")
}

/// Every collective the level kernels serve, bare against replayed.
fn assert_collectives_match_replay(rng: &mut Rng, lo: u64, n: u64) {
    let vals = letters(rng, n);
    let heads: Vec<SegItem<i64>> =
        (0..n).map(|_| SegItem::new(rng.gen_bool(0.25), rng.gen_range(-99i64..=99))).collect();
    let root = rng.gen_range(0i64..1 << 40).to_string();
    let aligned = zorder::is_power_of_four(n) && lo.is_multiple_of(n);
    let at = format!("lo={lo} n={n}");
    if aligned {
        assert_kernel_matches_replay(&format!("scan {at}"), |m| {
            let items = place_with_paths(m, lo, vals.clone());
            scan(m, lo, items, &concat)
        });
        assert_kernel_matches_replay(&format!("scan_exclusive {at}"), |m| {
            let items = place_with_paths(m, lo, vals.clone());
            scan_exclusive(m, lo, items, "^".to_string(), &concat)
        });
        assert_kernel_matches_replay(&format!("segmented_scan {at}"), |m| {
            let items = place_with_paths(m, lo, heads.clone());
            segmented_scan(m, lo, items, &|a: &i64, b: &i64| a + b)
        });
    }
    assert_kernel_matches_replay(&format!("scan_any {at}"), |m| {
        let items = place_with_paths(m, lo, vals.clone());
        scan_any(m, lo, items, &concat)
    });
    assert_kernel_matches_replay(&format!("broadcast_z {at}"), |m| {
        let r = m.place(zorder::coord_of(lo).offset(3, -2), root.clone());
        let r = m.send_owned(r, zorder::coord_of(lo).offset(0, 5));
        broadcast_z(m, r, lo, lo + n)
    });
    assert_kernel_matches_replay(&format!("reduce_z {at}"), |m| {
        let items = place_with_paths(m, lo, vals.clone());
        vec![reduce_z(m, items, lo, &concat)]
    });
}

#[test]
fn differential_level_kernels_match_the_replay_on_aligned_blocks() {
    let mut rng = Rng::seed_from_u64(0x5CA7);
    for k in 0..=6 {
        let n = 1u64 << (2 * k);
        for lo in [0, n, 3 * n] {
            assert_collectives_match_replay(&mut rng, lo, n);
        }
    }
}

#[test]
fn differential_level_kernels_match_the_replay_on_unaligned_ranges() {
    let mut rng = Rng::seed_from_u64(0xA11C);
    let fixed = [(3u64, 26u64), (17, 1), (5, 128), (64, 48), (11, 80), (1, 2), (2, 3), (4, 24)];
    let drawn: Vec<(u64, u64)> =
        (0..16).map(|_| (rng.gen_range(0u64..5000), rng.gen_range(1u64..700))).collect();
    for (lo, n) in fixed.into_iter().chain(drawn) {
        assert_collectives_match_replay(&mut rng, lo, n);
    }
}

/// zseg's multi-block replays, which All-Pairs Sort floods and sums all its
/// blocks with, against one trace-armed `broadcast_z` / `reduce_z` call per
/// block: the same `(value, loc, path)` for every output and the same cost.
#[test]
fn differential_multi_block_replay_matches_one_block_calls() {
    let parts = |out: Vec<Tracked<String>>| -> Vec<(Coord, Path, String)> {
        out.into_iter().map(|t| (t.loc(), t.path(), t.into_value())).collect()
    };
    let traced = || {
        let mut m = Machine::new();
        m.enable_trace(0);
        m
    };
    // A root that reaches its block corner over a detour, so roots carry
    // non-zero paths.
    let root_at = |m: &mut Machine, corner: u64, v: &String| {
        let home = zorder::coord_of(corner);
        let r = m.place(home.offset(3, -2), v.clone());
        m.send_owned(r, home)
    };
    let mut rng = Rng::seed_from_u64(0xB10C);
    for k in [1u64, 2, 5] {
        for len in [1u64, 4, 16, 64] {
            let (lo, at) = (3 * len, format!("k={k} len={len}"));
            let block_lo = |b: u64| lo + b * len;
            let roots: Vec<String> =
                (0..k).map(|_| rng.gen_range(0i64..1 << 40).to_string()).collect();
            let leaves = letters(&mut rng, k * len);

            let mut multi = traced();
            let rs = (0..k).map(|b| root_at(&mut multi, block_lo(b), &roots[b as usize])).collect();
            let got = parts(broadcast_blocks(&mut multi, rs, lo, len));
            let mut single = traced();
            let mut want = Vec::new();
            for b in 0..k {
                let r = root_at(&mut single, block_lo(b), &roots[b as usize]);
                want.extend(parts(broadcast_z(&mut single, r, block_lo(b), block_lo(b + 1))));
            }
            assert_eq!(multi.report(), single.report(), "broadcast {at}: cost");
            assert_eq!(got, want, "broadcast {at}: outputs");

            // Each block's leaves carry the paths a one-block call's would.
            let place = |m: &mut Machine, b: usize| {
                let chunk = leaves[b * len as usize..][..len as usize].to_vec();
                place_with_paths(m, block_lo(b as u64), chunk)
            };
            let mut multi = traced();
            let items = (0..k as usize).flat_map(|b| place(&mut multi, b)).collect();
            let got = parts(reduce_blocks(&mut multi, items, lo, len, &concat));
            let mut single = traced();
            let mut want = Vec::new();
            for b in 0..k as usize {
                let items = place(&mut single, b);
                want.extend(parts(vec![reduce_z(&mut single, items, block_lo(b as u64), &concat)]));
            }
            assert_eq!(multi.report(), single.report(), "reduce {at}: cost");
            assert_eq!(got, want, "reduce {at}: outputs");
        }
    }
}

/// The bare kernels trust each input's Z-cell for its hop lengths, so a
/// misplaced input must still fail loudly rather than be charged as if it
/// sat on its cell.
#[test]
#[cfg_attr(not(debug_assertions), ignore = "placement is checked by debug assertions")]
#[should_panic(expected = "off its Z-cell")]
fn bare_scan_rejects_a_leaf_off_its_z_cell() {
    let mut m = Machine::new();
    let items = place_z(&mut m, 4, vec![1i64, 2, 3, 4]);
    assert!(m.is_bare());
    let _ = scan(&mut m, 0, items, &|a, b| a + b);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "placement is checked by debug assertions")]
#[should_panic(expected = "off its Z-cell")]
fn bare_reduce_z_rejects_an_item_off_its_z_cell() {
    let mut m = Machine::new();
    let items = place_z(&mut m, 16, vec![1i64; 16]);
    assert!(m.is_bare());
    let _ = reduce_z(&mut m, items, 0, &|a, b| a + b);
}
