//! Job specs, their request encodings, and the benchmark's own cost
//! reference for a runner job: the same primitive on the same input on a
//! bare `Machine::new()`, outside the runner's instrumented recovery path.

use runner::job::{host_oracle, JobKind, JobSpec};
use runner::json::Json;
use spatial_core::collectives::{place_z, read_values, scan_any};
use spatial_core::model::{Cost, Machine};
use spatial_core::recovery::checksum_i64;
use spatial_core::selection::select_rank;
use spatial_core::sorting::sort_z;
use spatial_core::spmv::spmv;
use spatial_core::topk::top_k;
use workloads::Rng;

/// A job spec with the fields the workloads vary; the rest keep
/// [`JobSpec::new`]'s defaults (uniform input, no faults, 3 retries).
pub fn spec(id: String, kind: JobKind, n: u64, seed: u64, k: u64) -> JobSpec {
    let mut s = JobSpec::new(id, kind);
    s.n = n;
    s.seed = seed;
    s.k = k;
    s
}

/// The `i`-th seed drawn from the stream `seed`. Kept below 2^52: requests
/// travel as JSON numbers, which hold integers exactly only up to 2^53.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut rng = Rng::stream(seed, i);
    rng.next_u64() >> 12
}

/// The input size of a small job of `kind` sized `n`: an spmv of n rows
/// sorts its 4n non-zeros twice, so it gets a quarter of the rows to stay
/// as small as the others.
pub fn small_n(kind: JobKind, n: u64) -> u64 {
    if kind == JobKind::Spmv {
        n / 4
    } else {
        n
    }
}

/// The host oracle's checksum for `spec`: what every answer must match.
pub fn oracle(spec: &JobSpec) -> u64 {
    checksum_i64(&host_oracle(spec))
}

/// A result's `cost` object.
pub fn parse_cost(c: &Json) -> Option<Cost> {
    let f = |k: &str| c.get(k).and_then(Json::as_u64);
    Some(Cost {
        energy: f("energy")?,
        depth: f("depth")?,
        distance: f("distance")?,
        messages: f("messages")?,
    })
}

/// A result's `"0x…"` checksum string.
pub fn parse_checksum(c: &Json) -> Option<u64> {
    u64::from_str_radix(c.as_str()?.strip_prefix("0x")?, 16).ok()
}

/// `spec` as one jobspec object: an entry of a batch's `jobs` array or,
/// with a tenant, one serve submission line.
pub fn job_json(spec: &JobSpec, tenant: Option<&str>) -> String {
    let mut s = format!(
        "{{\"kind\": \"{}\", \"n\": {}, \"seed\": {}, \"k\": {}, \"id\": \"{}\"",
        spec.kind.label(),
        spec.n,
        spec.seed,
        spec.k,
        spec.id
    );
    if spec.faults.dead_rows > 0.0 {
        s.push_str(&format!(", \"faults\": {{\"dead_rows\": {}}}", spec.faults.dead_rows));
    }
    if let Some(t) = tenant {
        s.push_str(&format!(", \"tenant\": \"{t}\""));
    }
    s.push('}');
    s
}

/// Runs `spec`'s primitive on a bare machine and returns its output and
/// exact cost. The runner must report this cost for every fault-free job,
/// whatever instruments its own machine carried.
pub fn bare_run(spec: &JobSpec) -> (Vec<i64>, Cost) {
    let mut m = Machine::new();
    let n = spec.n as usize;
    let input = || spec.array.generate(n, spec.seed);
    // The runner salts randomized primitives with the attempt index; a
    // fault-free job succeeds on attempt 0, whose salt is the seed itself.
    let out = match spec.kind {
        JobKind::Scan => {
            let items = place_z(&mut m, 0, input());
            read_values(scan_any(&mut m, 0, items, &|a: &i64, b: &i64| a.wrapping_add(*b)))
        }
        JobKind::Sort => {
            let items = place_z(&mut m, 0, input());
            read_values(sort_z(&mut m, 0, items))
        }
        JobKind::Select => {
            let items = place_z(&mut m, 0, input());
            vec![select_rank(&mut m, 0, items, spec.k, spec.seed).0.into_value()]
        }
        JobKind::TopK => {
            let items = place_z(&mut m, 0, input());
            read_values(top_k(&mut m, 0, items, spec.k, spec.seed))
        }
        JobKind::Spmv => {
            let mat = workloads::random_uniform(n, 4, spec.seed);
            let x = spec.array.generate(n, spec.seed ^ 0x5EED);
            spmv(&mut m, &mat, &x).y
        }
        JobKind::ChaosPanic | JobKind::ChaosSpin | JobKind::ChaosBadVerify => {
            unreachable!("the workloads submit no chaos kinds")
        }
    };
    (out, m.report())
}
