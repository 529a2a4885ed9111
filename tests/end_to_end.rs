//! Cross-crate integration tests: full pipelines composed through the
//! public facade, exactly as a downstream user would write them.

use spatial_dataflow::model::{zorder, Machine};
use spatial_dataflow::prelude::*;
use spatial_dataflow::theory::{self, Metric};

fn pseudo(n: usize, seed: i64) -> Vec<i64> {
    (0..n).map(|i| ((i as i64 * 2654435761 + seed) % 1000003) - 500000).collect()
}

#[test]
fn scan_sort_select_compose_on_one_machine() {
    // Run the three primitives back-to-back on a single machine; costs
    // accumulate and every output stays correct.
    let n = 1024usize;
    let vals = pseudo(n, 1);
    let mut m = Machine::new();

    let items = place_z(&mut m, 0, vals.clone());
    let sums = read_values(scan(&mut m, 0, items, &|a, b| a + b));
    assert_eq!(*sums.last().unwrap(), vals.iter().sum::<i64>());

    let items = place_z(&mut m, 0, vals.clone());
    let sorted = sort_z_values(&mut m, 0, items);
    let (median, _) = select_rank_values(&mut m, 0, vals.clone(), n as u64 / 2, 3);
    assert_eq!(median, sorted[n / 2 - 1]);
}

#[test]
fn selection_energy_is_polynomially_below_sorting() {
    // The headline separation of §VI: Θ(n) vs Θ(n^{3/2}).
    let n = 16384usize;
    let vals = pseudo(n, 5);

    let mut ms = Machine::new();
    let items = place_z(&mut ms, 0, vals.clone());
    let _ = sort_z(&mut ms, 0, items);

    let mut mr = Machine::new();
    let (_, stats) = select_rank_values(&mut mr, 0, vals, n as u64 / 2, 11);
    assert_eq!(stats.fallbacks, 0);

    let ratio = ms.energy() as f64 / mr.energy() as f64;
    assert!(ratio > 4.0, "sorting should cost far more energy (ratio {ratio:.1})");
}

#[test]
fn spmv_equals_sort_plus_scan_composition() {
    // SpMV is built from the primitives; verify the composition end to end
    // against the dense oracle on an irregular matrix.
    let a = workloads::zipf_rows(128, 6, 3);
    let x: Vec<i64> = (0..128).map(|i| (i % 11) - 5).collect();
    let mut m = Machine::new();
    let out = spmv(&mut m, &a, &x);
    assert_eq!(out.y, a.multiply_dense(&x));
    // Cost sanity against Table I shapes.
    // Cost sanity against Table I shapes (constants are loose: the model
    // hides them and padding inflates small instances).
    let nnz = a.nnz() as f64;
    assert!((out.cost.energy as f64) < 20_000.0 * nnz.powf(1.5));
    assert!((out.cost.distance as f64) < 200.0 * nnz.sqrt());
}

#[test]
fn table1_shapes_hold_across_a_sweep() {
    // A miniature of the `table1` experiment binary, kept small enough for
    // the test suite: fit the scaling exponents and compare with Table I.
    use spatial_dataflow::report::Sweep;

    let mut scan_sweep = Sweep::new("scan");
    for k in 3..=8u32 {
        let n = 4usize.pow(k);
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, pseudo(n, 7));
        let _ = scan(&mut m, 0, items, &|a, b| a + b);
        scan_sweep.push(n as u64, m.report());
    }
    assert!(scan_sweep.conforms(Metric::Energy, theory::scan_bound(Metric::Energy), 0.1));
    assert!(scan_sweep.conforms(Metric::Distance, theory::scan_bound(Metric::Distance), 0.1));
    assert!(scan_sweep.conforms(Metric::Depth, theory::scan_bound(Metric::Depth), 0.1));

    let mut sort_sweep = Sweep::new("sort");
    for k in 3..=6u32 {
        let n = 4usize.pow(k);
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, pseudo(n, 9));
        let _ = sort_z(&mut m, 0, items);
        sort_sweep.push(n as u64, m.report());
    }
    assert!(sort_sweep.conforms(Metric::Energy, theory::sorting_bound(Metric::Energy), 0.2));
    assert!(sort_sweep.conforms(Metric::Distance, theory::sorting_bound(Metric::Distance), 0.25));
}

#[test]
fn pram_simulation_runs_library_programs() {
    use spatial_dataflow::pram::programs::TreeSum;
    use spatial_dataflow::pram::{simulate_crcw, simulate_erew, PramLayout, PramProgram};

    let prog = TreeSum::new((1..=256).collect());
    let layout = PramLayout::adjacent(prog.processors(), prog.memory_cells());
    let mut m1 = Machine::new();
    let mut m2 = Machine::new();
    assert_eq!(simulate_erew(&mut m1, &prog, layout)[0], simulate_crcw(&mut m2, &prog, layout)[0]);
    // CRCW pays for generality: more energy, more depth.
    assert!(m2.energy() > m1.energy());
    assert!(m2.report().depth > m1.report().depth);
}

#[test]
fn permutation_lower_bound_transfers_to_spmv() {
    // Lemma VIII.1: multiplying by a permutation matrix moves the vector,
    // so SpMV energy must exceed the Lemma V.1 permutation bound shape.
    let n = 256usize;
    let a = workloads::permutation_matrix(n, 3);
    let x: Vec<i64> = (0..n as i64).collect();
    let mut m = Machine::new();
    let out = spmv(&mut m, &a, &x);
    let mut expect = vec![0i64; n];
    for &(r, c, _) in &a.entries {
        expect[r as usize] = x[c as usize];
    }
    assert_eq!(out.y, expect);
    // The measured energy is superlinear in n (n^{3/2} shape): compare per
    // element against √n.
    let per_elem = out.cost.energy as f64 / n as f64;
    assert!(per_elem > (n as f64).sqrt() / 4.0, "per-element energy {per_elem:.1}");
}

#[test]
fn z_layout_and_row_major_layout_agree() {
    let n = 256usize;
    let vals = pseudo(n, 21);
    let grid = spatial_dataflow::model::SubGrid::square(spatial_dataflow::model::Coord::ORIGIN, 16);

    let mut m1 = Machine::new();
    let items = place_z(&mut m1, 0, vals.clone());
    let a = sort_z_values(&mut m1, 0, items);

    let mut m2 = Machine::new();
    let items = place_row_major(&mut m2, grid, vals);
    let out = sort_row_major(&mut m2, grid, items);
    let b: Vec<i64> = out.iter().map(|t| *t.value()).collect();
    assert_eq!(a, b);
    // The row-major version pays two extra permutations but stays Θ(n^{3/2}).
    assert!(m2.energy() >= m1.energy());
    assert!(m2.energy() < 3 * m1.energy());
}

#[test]
fn padded_sizes_work_everywhere() {
    // Non-power-of-four sizes across the whole stack.
    for n in [5usize, 29, 77, 200] {
        let vals = pseudo(n, n as i64);
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, vals.clone());
        let sorted = sort_z_values(&mut m, 0, items);
        let mut expect = vals.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect, "sort n={n}");

        let (kth, _) = select_rank_values(&mut m, 0, vals.clone(), (n as u64).div_ceil(2), 2);
        assert_eq!(kth, expect[(n - 1) / 2], "select n={n}");
    }
}

#[test]
fn tracked_values_report_consistent_paths() {
    // The watermark is the max over all value paths — an invariant of the
    // cost accounting, checked across a composite computation.
    let mut m = Machine::new();
    let items = place_z(&mut m, 0, pseudo(64, 2));
    let out = scan(&mut m, 0, items, &|a, b| a + b);
    let report = m.report();
    for t in &out {
        assert!(t.path().depth <= report.depth);
        assert!(t.path().distance <= report.distance);
    }
    assert!(report.energy >= report.distance, "energy sums all chains");
}

#[test]
fn zorder_segment_is_where_the_values_live() {
    // place_z really places on the global curve, and sort keeps the segment.
    let mut m = Machine::new();
    let items = place_z(&mut m, 64, pseudo(64, 4));
    let sorted = sort_z(&mut m, 64, items);
    for (i, t) in sorted.iter().enumerate() {
        assert_eq!(t.loc(), zorder::coord_of(64 + i as u64));
    }
}

/// The documented exit-code taxonomy, checked against the real binary: every
/// failure class the CLI promises a distinct code for actually produces it.
mod cli_exit_codes {
    use std::process::{Command, Output};

    fn run(args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_spatial-dataflow"))
            .args(args)
            .output()
            .expect("spawn spatial-dataflow")
    }

    fn assert_exit(args: &[&str], want: i32) -> Output {
        let out = run(args);
        assert_eq!(
            out.status.code(),
            Some(want),
            "`spatial-dataflow {}` should exit {want}\nstdout:\n{}\nstderr:\n{}",
            args.join(" "),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        out
    }

    #[test]
    fn usage_errors_exit_2() {
        assert_exit(&["frobnicate"], 2);
        assert_exit(&["scan", "--n", "not-a-number"], 2);
        // `chaos --mode spin` without a deadline would never terminate; the
        // CLI must refuse it rather than hang.
        assert_exit(&["chaos", "--mode", "spin"], 2);
        assert_exit(&["batch"], 2);
    }

    #[test]
    fn rank_argument_edges_exit_cleanly() {
        // Empty inputs and ranks outside 1..=n are usage errors (exit 2),
        // never index panics; `--k 0` selects the default rank.
        for cmd in ["select", "topk"] {
            for n in 0u64..=2 {
                for k in [0, 1, n, n + 1] {
                    let args = [cmd, "--n", &n.to_string(), "--k", &k.to_string()];
                    let out = run(&args);
                    let stderr = String::from_utf8_lossy(&out.stderr);
                    let code = out.status.code();
                    assert!(matches!(code, Some(0 | 2)), "{args:?} exited {code:?}: {stderr}");
                    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
                    let valid = n >= 1 && k <= n;
                    assert_eq!(code == Some(0), valid, "{args:?}: {stderr}");
                }
            }
        }
    }

    #[test]
    fn an_n_beyond_the_z_order_model_is_a_usage_error() {
        // 4^31 is the largest array the model lays out; beyond it the
        // padding to a power of four would wrap, so --n refuses it up front.
        for cmd in ["scan", "sort", "select", "topk", "spmv"] {
            for n in [(1u64 << 62) + 1, u64::MAX] {
                let out = assert_exit(&[cmd, "--n", &n.to_string()], 2);
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert!(stderr.contains("exceeds 4^31"), "{cmd} --n {n}: {stderr}");
            }
        }
    }

    #[test]
    fn unknown_profile_is_a_typed_usage_error() {
        // A bad --profile must exit 2 with a message naming the stranger and
        // listing the built-ins — not the generic usage dump, and certainly
        // not a run under some silently-substituted default.
        let out = assert_exit(&["scan", "--n", "64", "--profile", "nope"], 2);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown profile \"nope\""), "stderr: {stderr}");
        for known in ["model-exact", "wse-like", "systolic-like", "simt-like"] {
            assert!(stderr.contains(known), "stderr must list {known}: {stderr}");
        }
    }

    #[test]
    fn profiled_run_reports_energy_breakdown_and_edp() {
        let out = assert_exit(&["scan", "--n", "256", "--profile", "wse-like"], 0);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("profile=wse-like"), "stdout: {stdout}");
        for field in ["total_pj=", "delay_cycles=", "edp="] {
            assert!(stdout.contains(field), "stdout must report {field}: {stdout}");
        }
        // The raw counters stay on their own line, profile or not.
        assert!(stdout.contains("measured: energy="), "stdout: {stdout}");
    }

    #[test]
    fn failed_verification_exits_3() {
        let out = assert_exit(&["chaos", "--mode", "badverify", "--n", "64"], 3);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("verification"), "stderr: {stderr}");
    }

    #[test]
    fn budget_breach_exits_7() {
        assert_exit(&["scan", "--n", "256", "--budget", "10"], 7);
    }

    #[test]
    fn exhausted_recovery_exits_8() {
        // Corrupting every message makes the checksum verification fail on
        // every attempt; once the retry cap is hit the run exits 8.
        assert_exit(&["scan", "--n", "64", "--flaky", "1.0", "--retries", "1"], 8);
    }

    #[test]
    fn deadline_cancellation_exits_9() {
        let out = assert_exit(&["chaos", "--mode", "spin", "--timeout", "150"], 9);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("deadline-exceeded"), "stdout: {stdout}");
    }

    #[test]
    fn load_shedding_exits_10() {
        // A saturation threshold of 0.5 over a queue of 2 admits a single
        // job; the other three are shed deterministically, and the batch
        // (not best-effort) reports the overload with exit 10.
        let spec = r#"{
            "name": "shed-exit",
            "config": {"workers": 1, "queue_cap": 2, "shed_threshold": 0.5},
            "jobs": [
                {"id": "a", "kind": "scan", "n": 64, "seed": 1},
                {"id": "b", "kind": "scan", "n": 64, "seed": 2},
                {"id": "c", "kind": "scan", "n": 64, "seed": 3},
                {"id": "d", "kind": "scan", "n": 64, "seed": 4}
            ]
        }"#;
        let path = std::env::temp_dir().join(format!("spatial-shed-{}.json", std::process::id()));
        std::fs::write(&path, spec).unwrap();
        let out = assert_exit(&["batch", path.to_str().unwrap()], 10);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("3 shed"), "stdout: {stdout}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn best_effort_batch_contains_every_failure_class() {
        // The acceptance scenario: a batch holding panicking, deadline-
        // exceeding, and unrecoverable jobs still completes with exit 0
        // under --best-effort, classifying each failure correctly.
        let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/experiments/jobspecs/smoke.json");
        let out = assert_exit(&["batch", spec, "--best-effort", "--jobs", "4"], 0);
        let stdout = String::from_utf8_lossy(&out.stdout);
        for needle in [
            "deliberate-panic   panicked",
            "deliberate-timeout deadline-exceeded",
            "scan-unrecoverable degraded",
            "scan-clean       ok",
        ] {
            assert!(
                stdout
                    .split_whitespace()
                    .collect::<Vec<_>>()
                    .join(" ")
                    .contains(&needle.split_whitespace().collect::<Vec<_>>().join(" ")),
                "expected {needle:?} in batch summary:\n{stdout}"
            );
        }
        assert!(stdout.contains("1 panicked"), "stdout: {stdout}");
        assert!(stdout.contains("1 deadline-exceeded"), "stdout: {stdout}");
    }
}
