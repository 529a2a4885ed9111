//! Fault-injection acceptance tests (ISSUE PR 2).
//!
//! Every primitive must stay *correct* when the machine remaps around
//! seeded dead rows — the logical algorithm is untouched; only the charged
//! (physical) distances grow — and the energy overhead of the detours must
//! be (a) exactly what the machine's `detour_energy` meter claims and
//! (b) bounded relative to the fault-free run. Guard violations surface as
//! typed [`SpatialError`] values, never panics, and everything here is
//! bit-deterministic per seed.

use spatial_dataflow::collectives::scan_any;
use spatial_dataflow::model::{zorder, FaultPlan, SubGrid};
use spatial_dataflow::prelude::*;
use spatial_dataflow::recovery::run_with_recovery;

/// Three seeded dead-row plans over the given extent (≈10–20% dead rows
/// plus some degraded links), as the acceptance criteria require.
fn plans(extent: SubGrid) -> Vec<FaultPlan> {
    [11u64, 22, 33]
        .into_iter()
        .map(|seed| {
            FaultPlan::builder(seed)
                .random_dead_rows(extent, 0.15)
                .random_degraded_rows(extent, 0.10)
                .build()
        })
        .collect()
}

fn extent_for(n: u64) -> SubGrid {
    let padded = zorder::next_power_of_four(n.max(1));
    let side = (1u64..).find(|s| s * s >= padded).unwrap();
    SubGrid::square(Coord::ORIGIN, side)
}

fn vals(n: usize, seed: u64) -> Vec<i64> {
    workloads::arrays::uniform(n, seed)
}

/// Runs `f` fault-free and under each plan; asserts identical output,
/// exact detour accounting, and a sane overhead ratio.
fn assert_correct_under_faults<T: PartialEq + std::fmt::Debug>(
    name: &str,
    n: u64,
    f: impl Fn(&mut Machine) -> Result<T, SpatialError>,
) {
    let mut base = Machine::new();
    let expect = f(&mut base).expect("fault-free run must succeed");
    let energy_base = base.report().energy;
    assert_eq!(base.detour_energy(), 0, "{name}: fault-free run charged detours");

    for plan in plans(extent_for(n)) {
        let seed = plan.seed();
        let faulted = |plan: FaultPlan| {
            let mut m = Machine::new();
            m.enable_faults(plan);
            let got = f(&mut m).unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            (got, m.report(), m.detour_energy())
        };
        let (got, cost, detour) = faulted(plan.clone());
        assert_eq!(got, expect, "{name} seed {seed}: output corrupted by dead-row remap");
        let energy_fault = cost.energy;
        assert_eq!(
            energy_fault - energy_base,
            detour,
            "{name} seed {seed}: measured overhead must equal the detour meter"
        );
        // Dead rows stretch every crossing path by O(#dead); with ≤20% of
        // rows out the end-to-end energy should stay well under 2x.
        assert!(
            energy_fault < 2 * energy_base,
            "{name} seed {seed}: overhead {energy_fault}/{energy_base} unreasonable"
        );
        // Bit-determinism per fault seed: replay and compare everything.
        let (got2, cost2, detour2) = faulted(plan);
        assert_eq!(got, got2, "{name} seed {seed}: faulted replay diverged");
        assert_eq!(cost, cost2, "{name} seed {seed}: faulted costs diverged");
        assert_eq!(detour, detour2, "{name} seed {seed}: detour meter diverged");
    }
}

#[test]
fn scan_correct_under_dead_rows() {
    let v = vals(256, 3);
    assert_correct_under_faults("scan", 256, |m| {
        let items = place_z(m, 0, v.clone());
        m.guarded(|m| scan_any(m, 0, items, &|a, b| a.wrapping_add(*b))).map(read_values)
    });
}

#[test]
fn broadcast_correct_under_dead_rows() {
    let grid = SubGrid::square(Coord::ORIGIN, 16);
    assert_correct_under_faults("broadcast", 256, |m| {
        m.guarded(|m| {
            let root = m.place(Coord::ORIGIN, 42i64);
            broadcast(m, root, grid).into_iter().map(Tracked::into_value).collect::<Vec<_>>()
        })
    });
}

#[test]
fn mergesort_correct_under_dead_rows() {
    let v = vals(512, 4);
    assert_correct_under_faults("mergesort", 512, |m| {
        let items = place_z(m, 0, v.clone());
        m.guarded(|m| sort_z_values(m, 0, items))
    });
}

#[test]
fn selection_correct_under_dead_rows() {
    let v = vals(1024, 5);
    assert_correct_under_faults("selection", 1024, |m| {
        let items = place_z(m, 0, v.clone());
        m.guarded(|m| select_rank(m, 0, items, 100, 7)).map(|(t, _)| t.into_value())
    });
}

#[test]
fn spmv_correct_under_dead_rows() {
    let mat = workloads::random_uniform(128, 4, 9);
    let x: Vec<i64> = (0..128i64).collect();
    let nnz = mat.nnz() as u64;
    assert_correct_under_faults("spmv", nnz, |m| m.guarded(|m| spmv(m, &mat, &x).y));
}

#[test]
fn retry_runs_are_bit_deterministic_per_seed() {
    let v = vals(64, 6);
    let expect: Vec<i64> = v
        .iter()
        .scan(0i64, |acc, &x| {
            *acc = acc.wrapping_add(x);
            Some(*acc)
        })
        .collect();
    let go = |seed: u64| {
        // ~210 messages at 1% corruption each: a clean attempt has ≈12%
        // probability, so retries are near-certain and recovery within the
        // 100-attempt cap is overwhelmingly likely.
        let plan =
            FaultPlan::builder(seed).random_dead_rows(extent_for(64), 0.1).flaky(0.01).build();
        run_with_recovery(
            &plan,
            100,
            |m, _attempt| {
                let items = place_z(m, 0, v.clone());
                m.guarded(|m| scan_any(m, 0, items, &|a, b| a.wrapping_add(*b))).map(read_values)
            },
            |got| *got == expect,
        )
        .expect("recoverable within 100 retries")
    };
    let a = go(77);
    let b = go(77);
    assert_eq!(a, b, "same fault seed must replay bit-for-bit (value, costs, retry count)");
    assert_eq!(a.attempt_costs.len() as u32, a.attempts);
    let summed: u64 = a.attempt_costs.iter().map(|c| c.energy).sum();
    assert_eq!(a.cost.energy, summed, "retry cost accumulates across attempts");
    // A different fault seed is a genuinely different execution.
    let c = go(78);
    assert_ne!(a.cost, c.cost, "distinct fault seeds should differ somewhere");
}

#[test]
fn guard_violations_are_values_not_panics() {
    // Energy budget: typed error, no panic, machine still usable.
    let mut m = Machine::new();
    m.enable_guard(ModelGuard::new().max_energy(10));
    let v = place_z(&mut m, 0, vals(64, 1));
    let err = m.guarded(|m| sort_z(m, 0, v)).unwrap_err();
    assert!(
        matches!(err, SpatialError::BudgetExceeded { used, budget: 10, .. } if used > 10),
        "got {err}"
    );
    assert_eq!(err.exit_code(), 7);

    // Dead PE: the latched error carries the coordinates.
    let mut m = Machine::new();
    let dead = Coord::new(2, 2);
    m.enable_faults(FaultPlan::builder(1).dead_pe(dead).build());
    let t = m.place(Coord::ORIGIN, 1i64);
    let err = m.guarded(|m| m.send(&t, dead)).unwrap_err();
    assert_eq!(err, SpatialError::DeadPe { logical: dead, physical: dead });
    assert_eq!(err.exit_code(), 4);

    // Extent guard: out-of-bounds is typed too.
    let mut m = Machine::new();
    let extent = SubGrid::square(Coord::ORIGIN, 4);
    m.enable_guard(ModelGuard::new().extent(extent));
    let t = m.place(Coord::ORIGIN, 1i64);
    let err = m.guarded(|m| m.send(&t, Coord::new(9, 0))).unwrap_err();
    assert_eq!(err, SpatialError::OutOfBounds { loc: Coord::new(9, 0), extent });
    assert_eq!(err.exit_code(), 5);
}

#[test]
fn primitives_respect_hard_memory_cap() {
    // Satellite audit: the model gives every PE O(1) words. With the guard's
    // hard cap armed at 4 resident words, every primitive must complete
    // without tripping it — at any input size (the up-sweep once leaked
    // O(log n) accumulator words per tree cell; this pins the fix).
    let cap = ModelGuard::new().mem_cap(4);
    for n in [256usize, 1024] {
        let v = vals(n, 2);
        let mut m = Machine::new();
        m.enable_guard(cap);
        let items = place_z(&mut m, 0, v.clone());
        m.guarded(|m| scan_any(m, 0, items, &|a, b| a.wrapping_add(*b)))
            .unwrap_or_else(|e| panic!("scan n={n}: {e}"));

        let mut m = Machine::new();
        m.enable_guard(cap);
        let items = place_z(&mut m, 0, v.clone());
        m.guarded(|m| sort_z(m, 0, items)).unwrap_or_else(|e| panic!("sort n={n}: {e}"));

        let mut m = Machine::new();
        m.enable_guard(cap);
        let items = place_z(&mut m, 0, v.clone());
        m.guarded(|m| select_rank(m, 0, items, (n / 2) as u64, 7))
            .unwrap_or_else(|e| panic!("select n={n}: {e}"));

        let mut m = Machine::new();
        m.enable_guard(cap);
        let side = (n as f64).sqrt() as u64;
        m.guarded(|m| {
            let root = m.place(Coord::ORIGIN, 1i64);
            broadcast(m, root, SubGrid::square(Coord::ORIGIN, side))
        })
        .unwrap_or_else(|e| panic!("broadcast n={n}: {e}"));
    }
    let mat = workloads::random_uniform(128, 4, 9);
    let x: Vec<i64> = (0..128i64).collect();
    let mut m = Machine::new();
    m.enable_guard(cap);
    m.guarded(|m| spmv(m, &mat, &x)).unwrap_or_else(|e| panic!("spmv: {e}"));
}

#[test]
fn memory_cap_violation_is_typed() {
    // A cap of 1 is untenable for any gather — it must surface as the typed
    // MemoryExceeded error, not a panic.
    let mut m = Machine::new();
    m.enable_guard(ModelGuard::new().mem_cap(1));
    let items = place_z(&mut m, 0, vals(64, 3));
    let err = m.guarded(|m| scan_any(m, 0, items, &|a, b| a.wrapping_add(*b))).unwrap_err();
    // Every PE held at most one word before the first overflow.
    assert!(matches!(err, SpatialError::MemoryExceeded { resident: 1, cap: 1, .. }), "got {err}");
    assert_eq!(err.exit_code(), 6);
}
