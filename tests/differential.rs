//! Differential oracle tests: every spatial primitive against a plain
//! sequential reference implementation, swept over many RNG seeds through
//! the in-tree property harness. A sweep of ≥25 seeds per primitive is the
//! hermetic replacement for the old crates.io-powered fuzzing setup.

use spatial_dataflow::check::{check_cfg, Config, Gen};
use spatial_dataflow::collectives::{broadcast_z, place_row_major, reduce_z, scan_any};
use spatial_dataflow::model::zorder;
use spatial_dataflow::prelude::*;
use spatial_dataflow::rng::Rng;
use spatial_dataflow::sorting::{merge_adjacent, shearsort_snake, Keyed};
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
    // charge: bare machine (closed-form batch kernels eligible) vs fully
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
