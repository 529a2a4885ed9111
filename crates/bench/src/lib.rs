//! Shared helpers for the experiment binaries and Criterion benches.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it (see DESIGN.md §3 for the index); the binaries share the
//! sweep-and-report machinery here. Run them with, e.g.:
//!
//! ```bash
//! cargo run -p bench --release --bin table1
//! ```

pub mod timing;

use spatial_core::model::{profile_by_name, Cost, CostProfile, Machine};
use spatial_core::report::Sweep;

/// Deterministic pseudo-random array (no RNG state needed for sweeps whose
/// exact values are irrelevant).
pub fn pseudo(n: usize, seed: i64) -> Vec<i64> {
    (0..n)
        .map(|i| {
            ((i as i64).wrapping_mul(2654435761).wrapping_add(seed * 40503)) % 1_000_003 - 500_000
        })
        .collect()
}

/// Runs `f` on a fresh machine and returns the accumulated cost.
pub fn measure(f: impl FnOnce(&mut Machine)) -> Cost {
    let mut m = Machine::new();
    f(&mut m);
    m.report()
}

/// Builds a sweep by measuring `f(n)` for each size.
pub fn sweep(name: &str, sizes: &[u64], mut f: impl FnMut(&mut Machine, u64)) -> Sweep {
    let mut s = Sweep::new(name);
    for &n in sizes {
        let cost = measure(|m| f(m, n));
        s.push(n, cost);
    }
    s
}

/// Prints a sweep's raw rows and its paper-vs-measured verdict lines.
pub fn print_sweep(
    s: &Sweep,
    claims: [(spatial_core::theory::Metric, spatial_core::theory::Shape); 3],
) {
    for row in s.raw_rows() {
        println!("{row}");
    }
    for line in s.report_lines(claims) {
        println!("{line}");
    }
}

/// Powers of four `4^lo ..= 4^hi`.
pub fn pow4_sizes(lo: u32, hi: u32) -> Vec<u64> {
    (lo..=hi).map(|k| 4u64.pow(k)).collect()
}

/// Resolves the experiment-wide cost profile: `--profile <name>` on the
/// binary's command line, else the `SPATIAL_PROFILE` environment variable
/// (the CI matrix leg sets the latter), else `None` — raw counters only,
/// exactly today's output. An unknown name aborts with the typed usage
/// message rather than silently generating figures under the wrong model.
pub fn profile_from_args() -> Option<&'static CostProfile> {
    let mut name = std::env::var("SPATIAL_PROFILE").ok();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--profile" {
            name = args.next();
        }
    }
    match profile_by_name(&name?) {
        Ok(p) => Some(p),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}

/// Prints the profiled charge of every sweep point — one indented line per
/// size, after the raw rows. A `None` profile prints nothing, so callers
/// can pass [`profile_from_args`]'s result straight through and the default
/// figure output stays byte-identical.
pub fn print_profiled(s: &Sweep, profile: Option<&'static CostProfile>) {
    let Some(p) = profile else { return };
    println!("  profiled ({}):", p.name);
    for point in &s.points {
        match p.charge(point.cost) {
            Ok(c) => println!(
                "    n={:>10}  total_pj={}  delay_cycles={}  edp={}",
                point.n, c.total_pj, c.delay_cycles, c.edp
            ),
            Err(e) => println!("    n={:>10}  {e}", point.n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pseudo_is_deterministic() {
        assert_eq!(pseudo(16, 3), pseudo(16, 3));
        assert_ne!(pseudo(16, 3), pseudo(16, 4));
    }

    #[test]
    fn pow4_sizes_are_powers() {
        assert_eq!(pow4_sizes(2, 4), vec![16, 64, 256]);
    }
}
