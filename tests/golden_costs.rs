//! Golden-cost corpus: exact `(energy, depth, distance, messages)` tuples
//! for every user-facing primitive at small sizes, pinned against the
//! committed snapshot in `experiments/golden/costs.json`.
//!
//! The Spatial Computer Model simulator reports *exact* model costs, so any
//! change to these numbers is a change to the model itself — a routing
//! tweak, an extra message, a different tree shape — and must be a conscious
//! decision, never a silent side effect of a performance refactor. The
//! fast-path rework of the simulator core (batch sends, flat meters, arena
//! sweeps) was landed under exactly this pin: the corpus passed bit-identical
//! before and after.
//!
//! To regenerate after an *intentional* model change:
//!
//! ```bash
//! SPATIAL_BLESS=1 cargo test --test golden_costs
//! git diff experiments/golden/costs.json   # drift is a reviewable diff
//! ```

use spatial_dataflow::model::{Coord, Cost, Machine, SubGrid};
use spatial_dataflow::prelude::*;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/experiments/golden/costs.json");

/// The corpus sizes. All primitives here accept powers of four, which keeps
/// the layouts canonical (a `√n × √n` square at the origin).
const SIZES: [usize; 3] = [16, 64, 256];

/// Deterministic input data shared by every entry (values are irrelevant to
/// the costs of data-oblivious primitives, but selection's pivot draws and
/// spmv's sparsity pattern make them part of the pin).
fn vals(n: usize) -> Vec<i64> {
    (0..n).map(|i| ((i as i64).wrapping_mul(2654435761) % 1009) - 500).collect()
}

fn measure(f: impl FnOnce(&mut Machine)) -> Cost {
    let mut m = Machine::new();
    f(&mut m);
    m.report()
}

/// Every pinned primitive at one size, in corpus order.
fn entries_for(n: usize) -> Vec<(String, Cost)> {
    let side = (n as f64).sqrt() as u64;
    let grid = SubGrid::square(Coord::ORIGIN, side);
    let mut out = Vec::new();

    out.push((
        format!("scan/{n}"),
        measure(|m| {
            let items = place_z(m, 0, vals(n));
            let _ = scan(m, 0, items, &|a, b| a + b);
        }),
    ));
    out.push((
        format!("broadcast/{n}"),
        measure(|m| {
            let root = m.place(grid.origin, 7i64);
            let _ = broadcast(m, root, grid);
        }),
    ));
    out.push((
        format!("reduce/{n}"),
        measure(|m| {
            let items = place_row_major(m, grid, vals(n));
            let _ = reduce(m, items, grid, &|a, b| a + b);
        }),
    ));
    out.push((
        format!("sort_z_mergesort/{n}"),
        measure(|m| {
            let items = place_z(m, 0, vals(n));
            let _ = sort_z(m, 0, items);
        }),
    ));
    out.push((
        format!("sort_bitonic/{n}"),
        measure(|m| {
            let items = place_row_major(m, grid, vals(n));
            let net = spatial_dataflow::sortnet::bitonic_sort(n);
            let _ = spatial_dataflow::sortnet::run_row_major(m, &net, grid, items);
        }),
    ));
    out.push((
        format!("select_rank/{n}"),
        measure(|m| {
            let _ = select_rank_values(m, 0, vals(n), n as u64 / 2, 42);
        }),
    ));
    out.push((
        format!("spmv/{n}"),
        measure(|m| {
            let a = workloads::random_uniform(n, 3, 9);
            let x = vals(n);
            let _ = spmv(m, &a, &x);
        }),
    ));
    out.push((
        format!("spmv_multi/{n}"),
        measure(|m| {
            let a = workloads::random_uniform(n, 3, 9);
            let xs: Vec<Vec<i64>> =
                (0..3).map(|k| vals(n).into_iter().map(|v| v + k as i64).collect()).collect();
            let _ = spatial_dataflow::spmv::spmv_multi(m, &a, &xs);
        }),
    ));
    out.push((
        format!("segmented_sum/{n}"),
        measure(|m| {
            let items: Vec<SegItem<i64>> =
                vals(n).into_iter().enumerate().map(|(i, v)| SegItem::new(i % 5 == 0, v)).collect();
            let placed = place_z(m, 0, items);
            let _ = segmented_scan(m, 0, placed, &|a, b| a + b);
        }),
    ));
    out.push((
        format!("pram_erew_treesum/{n}"),
        measure(|m| {
            use spatial_dataflow::pram::programs::TreeSum;
            use spatial_dataflow::pram::{simulate_erew, PramLayout, PramProgram};
            let prog = TreeSum::new(vals(n));
            let layout = PramLayout::adjacent(prog.processors(), prog.memory_cells());
            let _ = simulate_erew(m, &prog, layout);
        }),
    ));
    out
}

/// Canonical text form of the corpus: one line per entry so any drift is a
/// one-line diff in review.
fn render(entries: &[(String, Cost)]) -> String {
    let mut s = String::from("{\n  \"format\": \"spatial-golden/v1\",\n  \"entries\": [\n");
    for (i, (id, c)) in entries.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"id\": \"{id}\", \"energy\": {}, \"depth\": {}, \"distance\": {}, \"messages\": {}}}{}\n",
            c.energy,
            c.depth,
            c.distance,
            c.messages,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[test]
fn golden_costs_match_committed_corpus() {
    let mut entries = Vec::new();
    for &n in &SIZES {
        entries.extend(entries_for(n));
    }
    let rendered = render(&entries);

    if std::env::var("SPATIAL_BLESS").map(|v| v == "1").unwrap_or(false) {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap())
            .expect("create experiments/golden");
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden corpus");
        eprintln!("blessed {} entries into {GOLDEN_PATH}", entries.len());
        return;
    }

    let committed = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "missing golden corpus {GOLDEN_PATH}: {e}\n\
             generate it with SPATIAL_BLESS=1 cargo test --test golden_costs"
        )
    });
    if committed != rendered {
        let diff: Vec<String> = committed
            .lines()
            .zip(rendered.lines())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("  committed: {a}\n  measured:  {b}"))
            .collect();
        panic!(
            "golden costs drifted from {GOLDEN_PATH} ({} line(s)):\n{}\n\
             If this change to the model is intentional, re-bless with \
             SPATIAL_BLESS=1 cargo test --test golden_costs",
            diff.len(),
            diff.join("\n")
        );
    }
}

/// The corpus generator itself must be deterministic, otherwise the pin
/// would flap without any model change.
#[test]
fn golden_corpus_generation_is_deterministic() {
    let a = entries_for(64);
    let b = entries_for(64);
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------------
// Profile-aware golden corpus: the same 30 subjects charged under every
// built-in cost profile, pinned in experiments/golden/profiled_costs.json.
//
// A profile is pure accounting over the raw counters, so this corpus cannot
// drift unless either (a) the raw corpus above drifts, or (b) a profile's
// weights or charging arithmetic change. Both deserve a reviewable diff.
// Re-bless together with the raw corpus:
//
//   SPATIAL_BLESS=1 cargo test --test golden_costs
// ---------------------------------------------------------------------------

const PROFILED_GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/experiments/golden/profiled_costs.json");

/// Canonical text form: one line per (profile, subject) pair, profiles in
/// registry order, subjects in corpus order. The u128 fields are decimal
/// strings for the same 53-bit-mantissa reason the checksums are hex.
fn render_profiled(entries: &[(String, Cost)]) -> String {
    let profiles = spatial_dataflow::model::builtin_profiles();
    let total = profiles.len() * entries.len();
    let mut s =
        String::from("{\n  \"format\": \"spatial-golden-profiled/v1\",\n  \"entries\": [\n");
    let mut k = 0;
    for profile in profiles {
        for (id, c) in entries {
            let p = profile.charge(*c).expect("built-in profiles cannot saturate on real runs");
            k += 1;
            s.push_str(&format!(
                "    {{\"id\": \"{id}\", \"profile\": \"{}\", \"hop_pj\": \"{}\", \
                 \"op_pj\": \"{}\", \"occupancy_pj\": \"{}\", \"total_pj\": \"{}\", \
                 \"delay_cycles\": \"{}\", \"edp\": \"{}\"}}{}\n",
                p.profile,
                p.hop_pj,
                p.op_pj,
                p.occupancy_pj,
                p.total_pj,
                p.delay_cycles,
                p.edp,
                if k < total { "," } else { "" }
            ));
        }
    }
    s.push_str("  ]\n}\n");
    s
}

#[test]
fn golden_profiled_costs_match_committed_corpus() {
    let mut entries = Vec::new();
    for &n in &SIZES {
        entries.extend(entries_for(n));
    }
    let rendered = render_profiled(&entries);

    if std::env::var("SPATIAL_BLESS").map(|v| v == "1").unwrap_or(false) {
        std::fs::create_dir_all(std::path::Path::new(PROFILED_GOLDEN_PATH).parent().unwrap())
            .expect("create experiments/golden");
        std::fs::write(PROFILED_GOLDEN_PATH, &rendered).expect("write profiled golden corpus");
        eprintln!("blessed profiled corpus into {PROFILED_GOLDEN_PATH}");
        return;
    }

    let committed = std::fs::read_to_string(PROFILED_GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "missing profiled golden corpus {PROFILED_GOLDEN_PATH}: {e}\n\
             generate it with SPATIAL_BLESS=1 cargo test --test golden_costs"
        )
    });
    if committed != rendered {
        let diff: Vec<String> = committed
            .lines()
            .zip(rendered.lines())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("  committed: {a}\n  measured:  {b}"))
            .collect();
        panic!(
            "profiled golden costs drifted from {PROFILED_GOLDEN_PATH} ({} line(s)):\n{}\n\
             If this change is intentional, re-bless with \
             SPATIAL_BLESS=1 cargo test --test golden_costs",
            diff.len(),
            diff.join("\n")
        );
    }
}

/// The model-exact profile is the identity mapping on the corpus: pJ totals
/// equal raw energy, delay equals raw distance, and the embedded raw tuple
/// is the corpus tuple, bit for bit. This is the contract that lets the
/// default profile replace the old unprofiled accounting with zero drift.
#[test]
fn model_exact_reproduces_the_raw_corpus_bit_identically() {
    use spatial_dataflow::model::MODEL_EXACT;
    for &n in &SIZES {
        for (id, c) in entries_for(n) {
            let p = MODEL_EXACT.charge(c).expect("model-exact never saturates");
            assert_eq!(p.raw, c, "{id}: raw tuple must ride through verbatim");
            assert_eq!(p.total_pj, u128::from(c.energy), "{id}: total_pj == energy");
            assert_eq!(p.hop_pj, u128::from(c.energy), "{id}: hop term carries everything");
            assert_eq!(p.op_pj, 0, "{id}: no per-op energy in the pure model");
            assert_eq!(p.occupancy_pj, 0, "{id}: no occupancy energy in the pure model");
            assert_eq!(p.delay_cycles, u128::from(c.distance), "{id}: delay == distance");
            assert_eq!(p.edp, u128::from(c.energy) * u128::from(c.distance), "{id}: EDP");
        }
    }
}
