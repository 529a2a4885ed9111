//! Structured batch reports.
//!
//! Every batch run emits one JSON document: per-job outcome, attempts,
//! escalation level, exact model cost, detour energy and wall time, plus
//! aggregate counts and nearest-rank p50/p99 percentiles. The writer emits
//! keys in a fixed order and jobs in spec order, so **the report minus its
//! wall-time fields is a pure function of `(jobspec, seed, worker count)`**
//! — that property is what the determinism suite pins down. Pass
//! `include_wall = false` to [`BatchReport::to_json`] to get exactly that
//! timing-free canonical form.
//!
//! Checksums are written as hex strings (`"0x…"`): JSON numbers are
//! doubles, and a 64-bit FNV checksum does not survive a trip through a
//! 53-bit mantissa. Profiled energy/EDP fields are u128 and written as
//! decimal strings for the same reason.
//!
//! The profiled block is strictly **opt-in**: with no profile configured,
//! every emitted byte is identical to the pre-profile writer, which keeps
//! the pinned canonical goldens valid.

use std::collections::BTreeMap;

use spatial_core::model::{Cost, ProfiledCost};

use crate::job::{JobResult, Outcome};
use crate::json::escape;

/// The complete result of one batch run.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchReport {
    /// Batch name (from the jobspec, default "batch").
    pub name: String,
    /// Worker threads used.
    pub workers: usize,
    /// Batch-default cost profile, when one was configured. Controls the
    /// aggregate profile block; per-job profiled costs follow each job's
    /// own (possibly overridden) spec profile.
    pub profile: Option<&'static str>,
    /// Per-job results, in spec order.
    pub jobs: Vec<JobResult>,
    /// Total wall time of the batch, milliseconds.
    pub wall_ms: u64,
}

impl BatchReport {
    /// Count of jobs with the given outcome.
    pub fn count(&self, o: Outcome) -> usize {
        self.jobs.iter().filter(|j| j.outcome == o).count()
    }

    /// The process exit code this batch maps to: the first non-ok job in
    /// spec order decides (see [`Outcome::exit_code`]: degraded → 8,
    /// panicked → 1, deadline → 9, shed → 10, over-budget → 12); an all-ok
    /// batch — or any batch under `best_effort` — exits 0.
    pub fn exit_code(&self, best_effort: bool) -> i32 {
        if best_effort {
            return 0;
        }
        self.jobs.iter().map(|j| j.outcome.exit_code()).find(|&c| c != 0).unwrap_or(0)
    }

    /// Serializes the report. With `include_wall = false` every
    /// wall-clock-derived field is omitted and the output is
    /// bit-deterministic for a fixed `(jobspec, seed, workers)`.
    pub fn to_json(&self, include_wall: bool) -> String {
        let mut s = String::with_capacity(256 + self.jobs.len() * 256);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"spatial-batch-report/v1\",\n");
        s.push_str(&format!("  \"name\": \"{}\",\n", escape(&self.name)));
        s.push_str(&format!("  \"workers\": {},\n", self.workers));
        if let Some(p) = self.profile {
            s.push_str(&format!("  \"profile\": \"{p}\",\n"));
        }
        if include_wall {
            s.push_str(&format!("  \"wall_ms\": {},\n", self.wall_ms));
        }
        s.push_str("  \"jobs\": [\n");
        for (i, j) in self.jobs.iter().enumerate() {
            s.push_str(&job_json(j, include_wall));
            s.push_str(if i + 1 < self.jobs.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n");
        s.push_str(&self.aggregate_json(include_wall));
        s.push_str("}\n");
        s
    }

    fn aggregate_json(&self, include_wall: bool) -> String {
        let energy = |j: &JobResult| j.cost.map(|c| c.energy);
        let energies: Multiset = self.jobs.iter().filter_map(energy).collect();
        let attempts: u32 = self.jobs.iter().map(|j| j.attempts).sum();
        let energy_total: u64 = self.jobs.iter().filter_map(energy).sum();
        let detour_total: u64 = self.jobs.iter().map(|j| j.detour_energy).sum();
        let backoff_total: u64 = self.jobs.iter().map(|j| j.backoff_ms).sum();
        let mut s = String::new();
        s.push_str("  \"aggregate\": {\n");
        s.push_str(&format!("    \"total\": {},\n", self.jobs.len()));
        for o in Outcome::ALL {
            s.push_str(&format!("    \"{}\": {},\n", o.label(), self.count(o)));
        }
        s.push_str(&format!("    \"attempts\": {attempts},\n"));
        s.push_str(&format!("    \"energy_total\": {energy_total},\n"));
        s.push_str(&format!("    \"detour_energy_total\": {detour_total},\n"));
        s.push_str(&format!("    \"backoff_ms_total\": {backoff_total},\n"));
        s.push_str(&format!("    \"energy_p50\": {},\n", json_opt(energies.percentile(50))));
        if self.profile.is_some() {
            // Energy is additive across jobs (each pJ total is linear in the
            // summed counters); EDP is not, so `edp_total` is the plain sum
            // of per-job EDPs — a workload figure of merit, not a physical
            // quantity of the union run.
            let total_pj: u128 = self
                .jobs
                .iter()
                .filter_map(|j| j.profiled.as_ref())
                .fold(0u128, |a, p| a.saturating_add(p.total_pj));
            let edp_total: u128 = self
                .jobs
                .iter()
                .filter_map(|j| j.profiled.as_ref())
                .fold(0u128, |a, p| a.saturating_add(p.edp));
            s.push_str(&format!("    \"total_pj\": \"{total_pj}\",\n"));
            s.push_str(&format!("    \"edp_total\": \"{edp_total}\",\n"));
        }
        s.push_str(&format!("    \"energy_p99\": {}", json_opt(energies.percentile(99))));
        if include_wall {
            let walls: Multiset = self.jobs.iter().map(|j| j.wall_ms).collect();
            s.push_str(&format!(",\n    \"wall_ms_p50\": {}", json_opt(walls.percentile(50))));
            s.push_str(&format!(",\n    \"wall_ms_p99\": {}", json_opt(walls.percentile(99))));
            let messages: u64 = self.jobs.iter().filter_map(|j| j.cost.map(|c| c.messages)).sum();
            let busy: u64 = self.jobs.iter().filter(|j| j.cost.is_some()).map(|j| j.wall_ms).sum();
            s.push_str(&format!(
                ",\n    \"msgs_per_sec\": {}\n",
                json_opt(msgs_per_sec(messages, busy))
            ));
        } else {
            s.push('\n');
        }
        s.push_str("  }\n");
        s
    }
}

fn job_json(j: &JobResult, include_wall: bool) -> String {
    let mut s = String::new();
    s.push_str("    {\n");
    s.push_str(&format!("      \"id\": \"{}\",\n", escape(&j.id)));
    s.push_str(&format!("      \"kind\": \"{}\",\n", j.kind.label()));
    s.push_str(&format!("      \"outcome\": \"{}\",\n", j.outcome.label()));
    s.push_str(&format!("      \"attempts\": {},\n", j.attempts));
    s.push_str(&format!("      \"escalation\": {},\n", j.escalation));
    match j.cost {
        Some(c) => s.push_str(&format!("      \"cost\": {},\n", cost_json(c))),
        None => s.push_str("      \"cost\": null,\n"),
    }
    if let Some(p) = &j.profiled {
        s.push_str(&format!("      \"profiled\": {},\n", profiled_json(p)));
    }
    s.push_str(&format!("      \"detour_energy\": {},\n", j.detour_energy));
    s.push_str(&format!("      \"backoff_ms\": {},\n", j.backoff_ms));
    match j.checksum {
        Some(c) => s.push_str(&format!("      \"checksum\": \"0x{c:016x}\",\n")),
        None => s.push_str("      \"checksum\": null,\n"),
    }
    match &j.error {
        Some(e) => s.push_str(&format!("      \"error\": \"{}\"", escape(e))),
        None => s.push_str("      \"error\": null"),
    }
    if include_wall {
        s.push_str(&format!(",\n      \"wall_ms\": {},\n", j.wall_ms));
        // Simulator throughput on this job — wall-derived, so it lives
        // outside the canonical (bit-deterministic) form.
        let rate = j.cost.and_then(|c| msgs_per_sec(c.messages, j.wall_ms));
        s.push_str(&format!("      \"msgs_per_sec\": {}\n", json_opt(rate)));
    } else {
        s.push('\n');
    }
    s.push_str("    }");
    s
}

pub(crate) fn cost_json(c: Cost) -> String {
    format!(
        "{{\"energy\": {}, \"depth\": {}, \"distance\": {}, \"messages\": {}}}",
        c.energy, c.depth, c.distance, c.messages
    )
}

/// Serializes a profiled cost. The u128 fields are decimal **strings**:
/// worst-case EDP far exceeds the 53-bit mantissa of a JSON double, and a
/// round-trip through one must not silently change a deterministic value.
pub(crate) fn profiled_json(p: &ProfiledCost) -> String {
    format!(
        "{{\"profile\": \"{}\", \"hop_pj\": \"{}\", \"op_pj\": \"{}\", \
         \"occupancy_pj\": \"{}\", \"total_pj\": \"{}\", \"delay_cycles\": \"{}\", \
         \"edp\": \"{}\"}}",
        p.profile, p.hop_pj, p.op_pj, p.occupancy_pj, p.total_pj, p.delay_cycles, p.edp
    )
}

fn json_opt(v: Option<u64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "null".into())
}

/// Simulated messages per wall-clock second; `None` when the interval is too
/// short to measure (sub-millisecond jobs round to 0 ms).
fn msgs_per_sec(messages: u64, wall_ms: u64) -> Option<u64> {
    if wall_ms == 0 {
        return None;
    }
    Some(messages.saturating_mul(1000) / wall_ms)
}

/// An exact multiset of `u64` values: value → count, plus the total.
///
/// A nearest-rank percentile depends only on the multiset of values, and
/// the traffic a daemon aggregates has few distinct ones (energies repeat
/// per cached job, wall times are whole milliseconds), so this holds
/// O(distinct values) however many are pushed, and [`Multiset::percentile`]
/// walks the counts without allocating. Every count is at least 1 and the
/// total is their sum; the fields are private to keep both true.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Multiset {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl Multiset {
    /// Adds one occurrence of `value`.
    pub fn push(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Nearest-rank percentile (`p` in 0..=100): the smallest value whose
    /// running count reaches `max(1, ⌈p·total/100⌉)`; `None` when empty.
    pub fn percentile(&self, p: u32) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let total = u128::from(self.total);
        let rank = (u128::from(p) * total).div_ceil(100).clamp(1, total);
        let mut seen = 0u128;
        self.counts.iter().find_map(|(&value, &count)| {
            seen += u128::from(count);
            (seen >= rank).then_some(value)
        })
    }

    /// `(value, count)` pairs in increasing value order.
    pub fn counts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&value, &count)| (value, count))
    }

    /// Rebuilds a multiset from [`Multiset::counts`] output; `None` unless
    /// the values strictly increase, every count is at least 1 and the
    /// counts sum to at most `u64::MAX`.
    pub fn from_counts(pairs: impl IntoIterator<Item = (u64, u64)>) -> Option<Multiset> {
        let mut m = Multiset::default();
        for (value, count) in pairs {
            if count == 0 || m.counts.last_key_value().is_some_and(|(&last, _)| last >= value) {
                return None;
            }
            m.total = m.total.checked_add(count)?;
            m.counts.insert(value, count);
        }
        Some(m)
    }
}

impl FromIterator<u64> for Multiset {
    fn from_iter<I: IntoIterator<Item = u64>>(values: I) -> Multiset {
        let mut m = Multiset::default();
        values.into_iter().for_each(|v| m.push(v));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobKind, JobSpec};
    use crate::json::Json;

    fn sample_report() -> BatchReport {
        let spec = JobSpec::new("a", JobKind::Scan);
        let mut ok = JobResult::shed(&spec);
        ok.outcome = Outcome::Ok;
        ok.attempts = 1;
        ok.cost = Some(Cost { energy: 100, depth: 5, distance: 9, messages: 40 });
        ok.checksum = Some(0xDEAD_BEEF);
        ok.error = None;
        ok.wall_ms = 17;
        let shed = JobResult::shed(&JobSpec::new("b", JobKind::Sort));
        BatchReport {
            name: "t".into(),
            workers: 2,
            profile: None,
            jobs: vec![ok, shed],
            wall_ms: 99,
        }
    }

    #[test]
    fn profiled_fields_are_opt_in_and_stringly_precise() {
        use spatial_core::model::{profile_by_name, WSE_LIKE};

        let mut r = sample_report();
        // Default report: no profile key anywhere — byte-compatible with the
        // pre-profile writer (the canonical goldens rely on this).
        assert!(!r.to_json(false).contains("profile"));

        let p = profile_by_name("wse-like").unwrap();
        r.profile = Some(p.name);
        r.jobs[0].profiled = Some(p.charge(r.jobs[0].cost.unwrap()).unwrap());
        let doc = Json::parse(&r.to_json(false)).expect("profiled report is valid JSON");
        assert_eq!(doc.get("profile").and_then(Json::as_str), Some("wse-like"));
        let jobs = doc.get("jobs").and_then(Json::as_array).unwrap();
        let pj = jobs[0].get("profiled").unwrap();
        // cost = {energy: 100, depth: 5, distance: 9, messages: 40} under
        // wse-like (1, 2, 1, 1, 1): hop 100, op 80, occupancy 140 → 320 pJ;
        // delay 9 + 5 = 14 cycles; EDP 4480.
        let w = WSE_LIKE.weights;
        assert_eq!((w.pj_per_hop, w.pj_per_op, w.pj_per_word_hop), (1, 2, 1));
        assert_eq!(pj.get("total_pj").and_then(Json::as_str), Some("320"));
        assert_eq!(pj.get("delay_cycles").and_then(Json::as_str), Some("14"));
        assert_eq!(pj.get("edp").and_then(Json::as_str), Some("4480"));
        assert!(jobs[1].get("profiled").is_none(), "shed job has no cost to charge");
        let agg = doc.get("aggregate").unwrap();
        assert_eq!(agg.get("total_pj").and_then(Json::as_str), Some("320"));
        assert_eq!(agg.get("edp_total").and_then(Json::as_str), Some("4480"));
    }

    #[test]
    fn report_parses_with_and_without_wall_fields() {
        let r = sample_report();
        for include_wall in [true, false] {
            let doc = Json::parse(&r.to_json(include_wall)).expect("writer emits valid JSON");
            assert_eq!(doc.get("schema").and_then(Json::as_str), Some("spatial-batch-report/v1"));
            let jobs = doc.get("jobs").and_then(Json::as_array).unwrap();
            assert_eq!(jobs.len(), 2);
            assert_eq!(jobs[0].get("outcome").and_then(Json::as_str), Some("ok"));
            assert_eq!(jobs[0].get("checksum").and_then(Json::as_str), Some("0x00000000deadbeef"));
            assert_eq!(jobs[1].get("outcome").and_then(Json::as_str), Some("shed"));
            assert!(jobs[1].get("cost").unwrap().is_null());
            let agg = doc.get("aggregate").unwrap();
            assert_eq!(agg.get("total").and_then(Json::as_u64), Some(2));
            assert_eq!(agg.get("ok").and_then(Json::as_u64), Some(1));
            assert_eq!(agg.get("shed").and_then(Json::as_u64), Some(1));
            assert_eq!(agg.get("energy_p50").and_then(Json::as_u64), Some(100));
            assert_eq!(doc.get("wall_ms").is_some(), include_wall);
            assert_eq!(jobs[0].get("wall_ms").is_some(), include_wall);
            assert_eq!(agg.get("wall_ms_p50").is_some(), include_wall);
            // Throughput is wall-derived and only present alongside wall_ms.
            assert_eq!(jobs[0].get("msgs_per_sec").is_some(), include_wall);
            assert_eq!(agg.get("msgs_per_sec").is_some(), include_wall);
            if include_wall {
                // 40 messages over 17 ms → 2352 msgs/sec (integer floor).
                assert_eq!(jobs[0].get("msgs_per_sec").and_then(Json::as_u64), Some(2352));
                assert!(jobs[1].get("msgs_per_sec").unwrap().is_null(), "shed job has no cost");
                assert_eq!(agg.get("msgs_per_sec").and_then(Json::as_u64), Some(2352));
            }
        }
    }

    #[test]
    fn canonical_form_is_independent_of_wall_times() {
        let mut a = sample_report();
        let mut b = sample_report();
        a.wall_ms = 1;
        b.wall_ms = 100_000;
        a.jobs[0].wall_ms = 3;
        b.jobs[0].wall_ms = 999;
        assert_eq!(a.to_json(false), b.to_json(false));
        assert_ne!(a.to_json(true), b.to_json(true));
    }

    #[test]
    fn exit_code_picks_the_first_failure_in_spec_order() {
        let mut r = sample_report();
        assert_eq!(r.exit_code(false), 10, "job b is shed");
        r.jobs[1].outcome = Outcome::DeadlineExceeded;
        assert_eq!(r.exit_code(false), 9);
        r.jobs[0].outcome = Outcome::Degraded;
        assert_eq!(r.exit_code(false), 8, "earlier job wins");
        r.jobs[0].outcome = Outcome::Panicked;
        assert_eq!(r.exit_code(false), 1);
        assert_eq!(r.exit_code(true), 0, "--best-effort always exits 0");
        r.jobs[0].outcome = Outcome::Ok;
        r.jobs[1].outcome = Outcome::Ok;
        assert_eq!(r.exit_code(false), 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let of = |values: &[u64]| values.iter().copied().collect::<Multiset>();
        assert_eq!(of(&[]).percentile(50), None);
        assert_eq!(of(&[7]).percentile(50), Some(7));
        assert_eq!(of(&[1, 2, 3, 4]).percentile(50), Some(2));
        assert_eq!(of(&[1, 2, 3, 4]).percentile(99), Some(4));
        assert_eq!(of(&[4, 1, 3, 2]).percentile(25), Some(1), "push order does not matter");
        let hundred: Multiset = (1..=100).collect();
        assert_eq!(hundred.percentile(50), Some(50));
        assert_eq!(hundred.percentile(99), Some(99));
    }

    /// The clone-and-sort nearest-rank percentile the multiset replaced,
    /// kept as the oracle.
    fn sorted_percentile(values: &[u64], p: u32) -> Option<u64> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = ((u64::from(p) * sorted.len() as u64).div_ceil(100)).max(1) as usize;
        Some(sorted[rank.min(sorted.len()) - 1])
    }

    #[test]
    fn multiset_percentiles_match_the_sorted_oracle_in_any_push_order() {
        use spatial_core::check::{check, Gen};
        use spatial_core::prop_assert_eq;

        check("multiset_percentiles_match_the_sorted_oracle_in_any_push_order", |g: &mut Gen| {
            // Every case covers lengths 0, 1 and 2, then one in 0..=300.
            for len in [0, 1, 2, g.size(0..=300)] {
                // Few distinct values, as a daemon's energies are, or the
                // full range; 0 and u64::MAX are always among them.
                let few = g.bool_p(0.5);
                let rest = g.vec(len.saturating_sub(2), |g| {
                    if few {
                        g.int(0..4u64)
                    } else {
                        g.int(0..=u64::MAX)
                    }
                });
                let mut values: Vec<u64> =
                    [0, u64::MAX].into_iter().chain(rest).take(len).collect();
                g.rng().shuffle(&mut values);
                let m: Multiset = values.iter().copied().collect();
                for p in [0, 1, 50, 99, 100] {
                    prop_assert_eq!(m.percentile(p), sorted_percentile(&values, p), "p{p}");
                }
                g.rng().shuffle(&mut values);
                prop_assert_eq!(values.iter().copied().collect::<Multiset>(), m, "reordered");
                prop_assert_eq!(Multiset::from_counts(m.counts()), Some(m));
            }
            Ok(())
        });
    }

    #[test]
    fn from_counts_refuses_what_push_cannot_build() {
        assert_eq!(Multiset::from_counts([]), Some(Multiset::default()));
        assert_eq!(Multiset::from_counts([(3, 1), (7, 2)]), Some([7, 3, 7].into_iter().collect()));
        assert_eq!(Multiset::from_counts([(3, 0)]), None, "a zero count");
        assert_eq!(Multiset::from_counts([(7, 1), (3, 1)]), None, "values out of order");
        assert_eq!(Multiset::from_counts([(3, 1), (3, 1)]), None, "a repeated value");
        assert_eq!(Multiset::from_counts([(0, u64::MAX), (1, 1)]), None, "total past u64::MAX");
        let full = Multiset::from_counts([(0, u64::MAX - 1), (u64::MAX, 1)]).unwrap();
        assert_eq!(full.percentile(100), Some(u64::MAX));
        assert_eq!(full.percentile(99), Some(0));
    }
}
