//! Write-ahead journal and atomic snapshot for crash-safe serving.
//!
//! A journal directory holds two files:
//!
//! * **`journal.log`** — an append-only write-ahead log of checksum-framed
//!   text records, one per line:
//!
//!   ```text
//!   w1 <i|o> <seq> <fnv64-hex> <payload>
//!   ```
//!
//!   `i` records carry a consuming input line *before* it is processed; `o`
//!   records carry a canonical output line *before* it is written to the
//!   client. The checksum is FNV-1a-64 over `kind:seq:payload`. Because
//!   every record is appended (and pushed to the OS) before its effect
//!   becomes visible, the journal is always **ahead** of both the daemon's
//!   state and the client's view — a SIGKILL at any instant loses at most
//!   work the journal already knows how to redo, never work it has no
//!   record of.
//!
//! * **`snapshot.json`** — a versioned (`spatial-serve-snapshot/v2`)
//!   point-in-time image of the serve state (tenant ledgers, rolling
//!   aggregates, warm cache in LRU order), written at clean shutdown via
//!   write-to-temp + `rename` so a crash mid-write can never leave a
//!   half-snapshot behind. All `u64` scalars are encoded as decimal
//!   strings and all `f64`s as IEEE-754 bit patterns in hex, so no value
//!   passes through a JSON number (many readers decode those as `f64`s).
//!
//! ## Recovery and the consistent-prefix rule
//!
//! [`Journal::open`] replays the log with a strict prefix discipline: the
//! first record that is torn (no trailing newline), corrupt (checksum or
//! framing mismatch), or out of sequence invalidates **itself and
//! everything after it**, and the file is truncated back to the last good
//! byte so subsequent appends extend a clean log. Duplicate `(kind, seq)`
//! records — possible if a crash lands between an append and the state
//! change it covers being re-journaled — keep their first occurrence, so
//! replay is idempotent. Inputs and outputs each form a dense prefix
//! `0..n`, which is exactly the shape the serve loop's in-order emission
//! guarantees.
//!
//! Durability target: **process death** (SIGKILL, panic, OOM-kill). Writes
//! reach the OS page cache synchronously but are not `fsync`ed — the model
//! costs being replayed are pure functions of the input, so re-deriving
//! the tail after a power loss is the host's problem, not a correctness
//! one.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use spatial_core::model::{profile_by_name, Cost};
use workloads::arrays::ArrayKind;

use crate::cache::CacheKey;
use crate::job::{FaultCfg, JobKind, JobResult, Outcome};
use crate::json::{escape, Json};
use crate::report::Multiset;
use crate::tenant::{ExtentCap, RateLimit, TenantConfig, TenantSnapshot};

/// The write-ahead log file name inside a journal directory.
pub const WAL_FILE: &str = "journal.log";
/// The snapshot file name inside a journal directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";
/// The snapshot schema tag.
pub const SNAPSHOT_SCHEMA: &str = "spatial-serve-snapshot/v2";

/// FNV-1a 64-bit hash — the record checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What a journal record covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A consuming input line, journaled before it is processed.
    Input,
    /// A canonical output line, journaled before it reaches the client.
    Output,
}

impl RecordKind {
    fn tag(self) -> char {
        match self {
            RecordKind::Input => 'i',
            RecordKind::Output => 'o',
        }
    }
}

fn record_checksum(kind: RecordKind, seq: u64, payload: &str) -> u64 {
    fnv1a64(format!("{}:{seq}:{payload}", kind.tag()).as_bytes())
}

/// Renders one record line (without the trailing newline).
fn record_line(kind: RecordKind, seq: u64, payload: &str) -> String {
    format!("w1 {} {seq} {:016x} {payload}", kind.tag(), record_checksum(kind, seq, payload))
}

/// Parses and checksum-verifies one record line.
fn parse_record(line: &str) -> Option<(RecordKind, u64, &str)> {
    let rest = line.strip_prefix("w1 ")?;
    let (kind, rest) = match rest.as_bytes().first()? {
        b'i' => (RecordKind::Input, rest.get(2..)?),
        b'o' => (RecordKind::Output, rest.get(2..)?),
        _ => return None,
    };
    let (seq, rest) = rest.split_once(' ')?;
    let seq: u64 = seq.parse().ok()?;
    let (crc, payload) = rest.split_once(' ')?;
    let crc = u64::from_str_radix(crc, 16).ok()?;
    if crc != record_checksum(kind, seq, payload) {
        return None;
    }
    Some((kind, seq, payload))
}

/// What [`Journal::open`] reconstructed from a journal directory.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Journaled input lines; index == sequence number (dense prefix).
    pub inputs: Vec<String>,
    /// Journaled output lines; index == sequence number (dense prefix).
    /// `outputs.len()` is the emitted watermark: everything below it was
    /// durably journaled before any client could have seen it.
    pub outputs: Vec<String>,
    /// The last clean-shutdown snapshot, if present and well-formed.
    pub snapshot: Option<Snapshot>,
    /// Bytes discarded from the log tail (torn or corrupt records).
    pub discarded: u64,
}

/// An open write-ahead journal (appender half).
pub struct Journal {
    file: File,
    dir: PathBuf,
}

impl Journal {
    /// Opens (creating if necessary) the journal in `dir`, replaying the
    /// existing log under the consistent-prefix rule and truncating any
    /// bad tail so the returned appender extends a clean log.
    pub fn open(dir: &Path) -> io::Result<(Journal, Recovered)> {
        fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut rec = Recovered { snapshot: read_snapshot(dir), ..Recovered::default() };
        let mut good_end: u64 = 0;
        let mut pos = 0usize;
        while pos < bytes.len() {
            let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') else {
                break; // torn final record: no newline made it to disk
            };
            let line = &bytes[pos..pos + nl];
            let Some((kind, seq, payload)) = std::str::from_utf8(line).ok().and_then(parse_record)
            else {
                break; // corrupt record: discard it and everything after
            };
            let bucket = match kind {
                RecordKind::Input => &mut rec.inputs,
                RecordKind::Output => &mut rec.outputs,
            };
            if seq == bucket.len() as u64 {
                bucket.push(payload.to_string());
            } else if seq > bucket.len() as u64 {
                break; // sequence gap: the log is no longer a clean prefix
            }
            // seq < len: duplicate record — keep the first occurrence.
            pos += nl + 1;
            good_end = pos as u64;
        }
        rec.discarded = bytes.len() as u64 - good_end;
        if rec.discarded > 0 {
            file.set_len(good_end)?;
        }
        file.seek(SeekFrom::Start(good_end))?;
        Ok((Journal { file, dir: dir.to_path_buf() }, rec))
    }

    /// Appends one record and pushes it to the OS before returning — after
    /// this call, a SIGKILL cannot lose the record.
    pub fn append(&mut self, kind: RecordKind, seq: u64, payload: &str) -> io::Result<()> {
        let mut line = record_line(kind, seq, payload);
        line.push('\n');
        self.file.write_all(line.as_bytes())
    }

    /// Atomically replaces the snapshot: write to a temp file in the same
    /// directory, then `rename` over the target. A crash mid-write leaves
    /// the previous snapshot (or none) intact, never a torn one.
    pub fn write_snapshot(&self, snap: &Snapshot) -> io::Result<()> {
        let tmp = self.dir.join("snapshot.json.tmp");
        let target = self.dir.join(SNAPSHOT_FILE);
        let mut f = File::create(&tmp)?;
        f.write_all(snap.to_json().as_bytes())?;
        drop(f);
        fs::rename(&tmp, &target)
    }
}

/// Reads and validates the snapshot in `dir`, if any. A missing, torn, or
/// schema-mismatched snapshot yields `None` — recovery then falls back to
/// replaying the full journal, which always works because the log is never
/// truncated past data a snapshot covers.
pub fn read_snapshot(dir: &Path) -> Option<Snapshot> {
    let src = fs::read_to_string(dir.join(SNAPSHOT_FILE)).ok()?;
    Snapshot::parse(&src)
}

/// The rolling aggregates behind the daemon's `stats` verb. The serve loop
/// updates one at *emission* time, so a stats line covers exactly the jobs
/// that precede it in the stream, and snapshots it by `clone`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Aggregate {
    /// Jobs that have passed the emission cursor.
    pub jobs: u64,
    /// Per-outcome counts, in [`Outcome::ALL`] order.
    pub counts: [u64; Outcome::ALL.len()],
    /// Total attempts across jobs.
    pub attempts: u64,
    /// Total model energy.
    pub energy_total: u64,
    /// Per-job energies, the percentile source.
    pub energies: Multiset,
    /// Cache hits observed.
    pub cache_hits: u64,
    /// Cache lookups observed.
    pub cache_lookups: u64,
}

/// A point-in-time image of the serve state, written at clean shutdown.
#[derive(Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Consuming input lines reflected in this state.
    pub lines: u64,
    /// Output lines emitted (== `lines` at a quiescent shutdown).
    pub emitted: u64,
    /// Tenant ledgers, first-seen order.
    pub tenants: Vec<TenantSnapshot>,
    /// Rolling stats aggregates.
    pub agg: Aggregate,
    /// Warm cache entries, LRU order (least recently used first).
    pub cache: Vec<(CacheKey, JobResult)>,
}

// ---------------------------------------------------------------------
// Snapshot serialization. u64 → decimal string, f64 → IEEE-754 bits in
// hex: neither large integers nor exact fault fractions pass through a
// JSON number.
// ---------------------------------------------------------------------

fn u(x: u64) -> String {
    format!("\"{x}\"")
}

fn opt_u(x: Option<u64>) -> String {
    x.map_or_else(|| "null".to_string(), u)
}

fn u_list(xs: &[u64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| u(x)).collect();
    format!("[{}]", items.join(", "))
}

/// A multiset as `[value, count]` pairs in value order.
fn multiset_json(m: &Multiset) -> String {
    let pairs: Vec<String> = m.counts().map(|(v, c)| format!("[{}, {}]", u(v), u(c))).collect();
    format!("[{}]", pairs.join(", "))
}

fn f_bits(x: f64) -> String {
    format!("\"{:016x}\"", x.to_bits())
}

fn get_u(v: &Json, key: &str) -> Option<u64> {
    v.get(key)?.as_str()?.parse().ok()
}

fn get_opt_u(v: &Json, key: &str) -> Option<Option<u64>> {
    match v.get(key) {
        None => Some(None),
        Some(j) if j.is_null() => Some(None),
        Some(j) => Some(Some(j.as_str()?.parse().ok()?)),
    }
}

fn get_u_list(v: &Json, key: &str) -> Option<Vec<u64>> {
    v.get(key)?.as_array()?.iter().map(|j| j.as_str()?.parse().ok()).collect()
}

fn get_multiset(v: &Json, key: &str) -> Option<Multiset> {
    let pairs = v.get(key)?.as_array()?.iter().map(|pair| match pair.as_array()? {
        [value, count] => Some((value.as_str()?.parse().ok()?, count.as_str()?.parse().ok()?)),
        _ => None,
    });
    Multiset::from_counts(pairs.collect::<Option<Vec<_>>>()?)
}

fn get_f_bits(j: &Json) -> Option<f64> {
    Some(f64::from_bits(u64::from_str_radix(j.as_str()?, 16).ok()?))
}

fn faults_json(f: &FaultCfg) -> String {
    format!(
        "{{\"dead_rows\": {}, \"degraded_rows\": {}, \"flaky\": {}}}",
        f_bits(f.dead_rows),
        f_bits(f.degraded_rows),
        f_bits(f.flaky)
    )
}

fn parse_faults(v: &Json) -> Option<FaultCfg> {
    Some(FaultCfg {
        dead_rows: get_f_bits(v.get("dead_rows")?)?,
        degraded_rows: get_f_bits(v.get("degraded_rows")?)?,
        flaky: get_f_bits(v.get("flaky")?)?,
    })
}

fn tenant_json(t: &TenantSnapshot) -> String {
    let rate = t.config.rate.map_or_else(
        || "null".to_string(),
        |r| format!("{{\"burst\": {}, \"window\": {}}}", u(r.burst), u(r.window)),
    );
    let faults = t.config.faults.as_ref().map_or_else(|| "null".to_string(), faults_json);
    let extent = t.config.extent.map_or_else(
        || "null".to_string(),
        |e| format!("{{\"rows\": {}, \"cols\": {}}}", u(e.rows), u(e.cols)),
    );
    format!(
        "{{\"name\": \"{}\", \"budget\": {}, \"rate\": {rate}, \"faults\": {faults}, \
         \"extent\": {extent}, \"predict\": {}, \"charged\": {}, \"completed\": {}, \
         \"admitted\": {}}}",
        escape(&t.name),
        opt_u(t.config.budget),
        t.config.predict,
        u(t.charged),
        u(t.completed),
        u_list(&t.admitted)
    )
}

fn parse_tenant(v: &Json) -> Option<TenantSnapshot> {
    let rate = match v.get("rate") {
        None => None,
        Some(j) if j.is_null() => None,
        Some(j) => Some(RateLimit { burst: get_u(j, "burst")?, window: get_u(j, "window")? }),
    };
    let faults = match v.get("faults") {
        None => None,
        Some(j) if j.is_null() => None,
        Some(j) => Some(parse_faults(j)?),
    };
    let extent = match v.get("extent") {
        None => None,
        Some(j) if j.is_null() => None,
        Some(j) => Some(ExtentCap { rows: get_u(j, "rows")?, cols: get_u(j, "cols")? }),
    };
    Some(TenantSnapshot {
        name: v.get("name")?.as_str()?.to_string(),
        config: TenantConfig {
            budget: get_opt_u(v, "budget")?,
            rate,
            faults,
            extent,
            predict: v.get("predict")?.as_bool()?,
        },
        charged: get_u(v, "charged")?,
        completed: get_u(v, "completed")?,
        admitted: get_u_list(v, "admitted")?,
    })
}

fn cache_entry_json(key: &CacheKey, r: &JobResult) -> String {
    let profile = key.profile.map_or_else(|| "null".to_string(), |name| format!("\"{name}\""));
    let key_json = format!(
        "{{\"kind\": \"{}\", \"n\": {}, \"seed\": {}, \"array\": \"{}\", \"k\": {}, \
         \"faults\": [{}, {}, {}], \"budget\": {}, \"retries\": {}, \"profile\": {profile}}}",
        key.kind,
        u(key.n),
        u(key.seed),
        key.array,
        u(key.k),
        u(key.faults[0]),
        u(key.faults[1]),
        u(key.faults[2]),
        opt_u(key.budget),
        u(u64::from(key.retries))
    );
    let cost = r.cost.map_or_else(
        || "null".to_string(),
        |c| {
            format!(
                "{{\"energy\": {}, \"depth\": {}, \"distance\": {}, \"messages\": {}}}",
                u(c.energy),
                u(c.depth),
                u(c.distance),
                u(c.messages)
            )
        },
    );
    let error =
        r.error.as_ref().map_or_else(|| "null".to_string(), |e| format!("\"{}\"", escape(e)));
    format!(
        "{{\"key\": {key_json}, \"result\": {{\"id\": \"{}\", \"kind\": \"{}\", \
         \"outcome\": \"{}\", \"attempts\": {}, \"escalation\": {}, \"cost\": {cost}, \
         \"detour_energy\": {}, \"backoff_ms\": {}, \"checksum\": {}, \"error\": {error}}}}}",
        escape(&r.id),
        r.kind.label(),
        r.outcome.label(),
        u(u64::from(r.attempts)),
        u(u64::from(r.escalation)),
        u(r.detour_energy),
        u(r.backoff_ms),
        opt_u(r.checksum)
    )
}

fn parse_cache_entry(v: &Json) -> Option<(CacheKey, JobResult)> {
    let k = v.get("key")?;
    let faults = k.get("faults")?.as_array()?;
    if faults.len() != 3 {
        return None;
    }
    let fault_bits = |i: usize| faults[i].as_str()?.parse().ok();
    let key = CacheKey {
        kind: JobKind::parse(k.get("kind")?.as_str()?)?.label(),
        n: get_u(k, "n")?,
        seed: get_u(k, "seed")?,
        array: ArrayKind::ALL
            .into_iter()
            .find(|a| Some(a.label()) == k.get("array").and_then(Json::as_str))?
            .label(),
        k: get_u(k, "k")?,
        faults: [fault_bits(0)?, fault_bits(1)?, fault_bits(2)?],
        budget: get_opt_u(k, "budget")?,
        retries: get_u(k, "retries")? as u32,
        // Absent (pre-profile snapshots) and explicit null both mean the
        // model-exact default; unknown names invalidate the entry.
        profile: match k.get("profile") {
            None => None,
            Some(j) if j.is_null() => None,
            Some(j) => Some(profile_by_name(j.as_str()?).ok()?.name),
        },
    };
    let r = v.get("result")?;
    let cost = match r.get("cost") {
        None => None,
        Some(j) if j.is_null() => None,
        Some(j) => Some(Cost {
            energy: get_u(j, "energy")?,
            depth: get_u(j, "depth")?,
            distance: get_u(j, "distance")?,
            messages: get_u(j, "messages")?,
        }),
    };
    let error = match r.get("error") {
        None => None,
        Some(j) if j.is_null() => None,
        Some(j) => Some(j.as_str()?.to_string()),
    };
    let result = JobResult {
        id: r.get("id")?.as_str()?.to_string(),
        kind: JobKind::parse(r.get("kind")?.as_str()?)?,
        outcome: Outcome::parse(r.get("outcome")?.as_str()?)?,
        attempts: get_u(r, "attempts")? as u32,
        escalation: get_u(r, "escalation")? as u8,
        cost,
        // The profiled block is a pure function of (profile, cost), so it is
        // recomputed rather than persisted — recovered hits stay bit-identical
        // to fresh runs by construction.
        profiled: match (key.profile, cost) {
            (Some(name), Some(c)) => profile_by_name(name).ok()?.charge(c).ok(),
            _ => None,
        },
        detour_energy: get_u(r, "detour_energy")?,
        backoff_ms: get_u(r, "backoff_ms")?,
        checksum: get_opt_u(r, "checksum")?,
        error,
        wall_ms: 0,
    };
    Some((key, result))
}

impl Snapshot {
    /// Serializes to the versioned snapshot document.
    pub fn to_json(&self) -> String {
        let tenants: Vec<String> = self.tenants.iter().map(tenant_json).collect();
        let cache: Vec<String> = self.cache.iter().map(|(k, r)| cache_entry_json(k, r)).collect();
        format!(
            "{{\"schema\": \"{SNAPSHOT_SCHEMA}\", \"lines\": {}, \"emitted\": {}, \
             \"tenants\": [{}], \"agg\": {{\"jobs\": {}, \"counts\": {}, \"attempts\": {}, \
             \"energy_total\": {}, \"energies\": {}, \"cache_hits\": {}, \
             \"cache_lookups\": {}}}, \"cache\": [{}]}}\n",
            u(self.lines),
            u(self.emitted),
            tenants.join(", "),
            u(self.agg.jobs),
            u_list(&self.agg.counts),
            u(self.agg.attempts),
            u(self.agg.energy_total),
            multiset_json(&self.agg.energies),
            u(self.agg.cache_hits),
            u(self.agg.cache_lookups),
            cache.join(", ")
        )
    }

    /// Parses a snapshot document; `None` on any structural problem
    /// (including a schema tag this version does not speak).
    pub fn parse(src: &str) -> Option<Snapshot> {
        let v = Json::parse(src).ok()?;
        if v.get("schema")?.as_str()? != SNAPSHOT_SCHEMA {
            return None;
        }
        let agg_v = v.get("agg")?;
        let agg = Aggregate {
            jobs: get_u(agg_v, "jobs")?,
            // One count per outcome: a list of any other length is refused.
            counts: get_u_list(agg_v, "counts")?.try_into().ok()?,
            attempts: get_u(agg_v, "attempts")?,
            energy_total: get_u(agg_v, "energy_total")?,
            energies: get_multiset(agg_v, "energies")?,
            cache_hits: get_u(agg_v, "cache_hits")?,
            cache_lookups: get_u(agg_v, "cache_lookups")?,
        };
        let tenants =
            v.get("tenants")?.as_array()?.iter().map(parse_tenant).collect::<Option<Vec<_>>>()?;
        let cache = v
            .get("cache")?
            .as_array()?
            .iter()
            .map(parse_cache_entry)
            .collect::<Option<Vec<_>>>()?;
        Some(Snapshot {
            lines: get_u(&v, "lines")?,
            emitted: get_u(&v, "emitted")?,
            tenants,
            agg,
            cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spatial-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn append_all(j: &mut Journal, records: &[(RecordKind, u64, &str)]) {
        for &(kind, seq, payload) in records {
            j.append(kind, seq, payload).unwrap();
        }
    }

    #[test]
    fn round_trip_recovers_dense_prefixes() {
        let dir = tmp_dir("rt");
        let (mut j, rec) = Journal::open(&dir).unwrap();
        assert!(rec.inputs.is_empty() && rec.outputs.is_empty() && rec.snapshot.is_none());
        append_all(
            &mut j,
            &[
                (RecordKind::Input, 0, r#"{"kind": "scan"}"#),
                (RecordKind::Output, 0, r#"{"seq": 0}"#),
                (RecordKind::Input, 1, r#"{"kind": "sort"}"#),
            ],
        );
        drop(j);
        let (_, rec) = Journal::open(&dir).unwrap();
        assert_eq!(rec.inputs, vec![r#"{"kind": "scan"}"#, r#"{"kind": "sort"}"#]);
        assert_eq!(rec.outputs, vec![r#"{"seq": 0}"#]);
        assert_eq!(rec.discarded, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let dir = tmp_dir("torn");
        let (mut j, _) = Journal::open(&dir).unwrap();
        append_all(&mut j, &[(RecordKind::Input, 0, "first"), (RecordKind::Input, 1, "second")]);
        drop(j);
        let path = dir.join(WAL_FILE);
        let clean_len = fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: a record prefix with no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"w1 i 2 deadbeef").unwrap();
        drop(f);
        let (mut j, rec) = Journal::open(&dir).unwrap();
        assert_eq!(rec.inputs, vec!["first", "second"], "clean prefix survives");
        assert!(rec.discarded > 0);
        assert_eq!(fs::metadata(&path).unwrap().len(), clean_len, "tail truncated");
        // The journal still appends cleanly after truncation.
        j.append(RecordKind::Input, 2, "third").unwrap();
        drop(j);
        let (_, rec) = Journal::open(&dir).unwrap();
        assert_eq!(rec.inputs, vec!["first", "second", "third"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_byte_mid_record_discards_it_and_everything_after() {
        let dir = tmp_dir("flip");
        let (mut j, _) = Journal::open(&dir).unwrap();
        append_all(
            &mut j,
            &[
                (RecordKind::Input, 0, "alpha"),
                (RecordKind::Input, 1, "bravo"),
                (RecordKind::Input, 2, "charlie"),
            ],
        );
        drop(j);
        let path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte inside the middle record.
        let idx = String::from_utf8_lossy(&bytes).find("bravo").unwrap();
        bytes[idx] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        let (_, rec) = Journal::open(&dir).unwrap();
        assert_eq!(rec.inputs, vec!["alpha"], "corruption invalidates the suffix");
        assert!(rec.discarded > 0);
        // Replay after recovery is idempotent: reopening again finds the
        // already-truncated clean prefix with nothing further to discard.
        let (_, rec) = Journal::open(&dir).unwrap();
        assert_eq!(rec.inputs, vec!["alpha"]);
        assert_eq!(rec.discarded, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_records_replay_idempotently() {
        let dir = tmp_dir("dup");
        let (mut j, _) = Journal::open(&dir).unwrap();
        append_all(
            &mut j,
            &[
                (RecordKind::Input, 0, "original"),
                (RecordKind::Input, 0, "original"),
                (RecordKind::Output, 0, "emitted"),
                (RecordKind::Output, 0, "emitted-again"),
                (RecordKind::Input, 1, "next"),
            ],
        );
        drop(j);
        let (_, rec) = Journal::open(&dir).unwrap();
        assert_eq!(rec.inputs, vec!["original", "next"], "first occurrence wins");
        assert_eq!(rec.outputs, vec!["emitted"], "duplicate output not double-counted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_gap_ends_the_trusted_prefix() {
        let dir = tmp_dir("gap");
        let (mut j, _) = Journal::open(&dir).unwrap();
        append_all(&mut j, &[(RecordKind::Input, 0, "zero"), (RecordKind::Input, 5, "five")]);
        drop(j);
        let (_, rec) = Journal::open(&dir).unwrap();
        assert_eq!(rec.inputs, vec!["zero"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_snapshot() -> Snapshot {
        let mut spec = JobSpec::new("cached-job", JobKind::Sort);
        spec.n = 64;
        spec.faults.flaky = 0.25;
        let key = CacheKey::of(&spec, Some(1_000_000));
        let result = JobResult {
            cost: Some(Cost { energy: 123, depth: 4, distance: 56, messages: 7 }),
            checksum: Some(u64::MAX),
            outcome: Outcome::Ok,
            attempts: 1,
            ..JobResult::shed(&spec)
        };
        Snapshot {
            lines: u64::MAX - 1,
            emitted: u64::MAX - 1,
            tenants: vec![TenantSnapshot {
                name: "acme \"quoted\"".into(),
                config: TenantConfig {
                    budget: Some(u64::MAX),
                    rate: Some(RateLimit { burst: 2, window: 10 }),
                    faults: Some(FaultCfg { dead_rows: 0.1, degraded_rows: 0.0, flaky: 0.3 }),
                    extent: Some(ExtentCap { rows: 8, cols: 16 }),
                    predict: true,
                },
                charged: 999,
                completed: 3,
                admitted: vec![7, 9],
            }],
            agg: Aggregate {
                jobs: 5,
                counts: [3, 1, 0, 0, 1, 0, 0, 0],
                attempts: 6,
                energy_total: 4242,
                energies: Multiset::from_counts([(0, 1), (2142, 2), (u64::MAX, u64::MAX - 3)])
                    .expect("a valid multiset"),
                cache_hits: 2,
                cache_lookups: 4,
            },
            cache: vec![(key, JobResult { error: None, ..result })],
        }
    }

    #[test]
    fn snapshot_round_trips_exactly_including_64_bit_extremes() {
        let snap = sample_snapshot();
        let parsed = Snapshot::parse(&snap.to_json()).expect("parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn snapshot_write_is_atomic_and_corruption_tolerant() {
        let dir = tmp_dir("snap");
        let (j, _) = Journal::open(&dir).unwrap();
        let snap = sample_snapshot();
        j.write_snapshot(&snap).unwrap();
        assert!(!dir.join("snapshot.json.tmp").exists(), "temp renamed away");
        let json = snap.to_json();
        assert_eq!(read_snapshot(&dir), Some(snap));
        // A torn or garbage snapshot is ignored, not fatal; so is one whose
        // counts list has the wrong length (7 or 9 outcomes instead of 8),
        // or whose energy pairs no pushes could have built.
        let counts = r#""counts": ["3", "1", "0", "0", "1", "0", "0", "0"]"#;
        let energies = r#""energies": [["0", "1"], ["2142", "2"], "#;
        for (right, wrong) in [
            (counts, r#""counts": ["3", "1", "0", "0", "1", "0", "0"]"#),
            (counts, r#""counts": ["3", "1", "0", "0", "1", "0", "0", "0", "0"]"#),
            (energies, r#""energies": [["0", "1"], ["2142", "0"], "#),
            (energies, r#""energies": [["2142", "2"], ["0", "1"], "#),
            (energies, r#""energies": [["0", "1"], ["2142", "2", "9"], "#),
            (energies, r#""energies": [["0", "1"], ["2142", "3"], "#),
        ] {
            assert!(json.contains(right), "{json}");
            fs::write(dir.join(SNAPSHOT_FILE), json.replace(right, wrong)).unwrap();
            assert_eq!(read_snapshot(&dir), None, "{wrong}");
        }
        fs::write(dir.join(SNAPSHOT_FILE), "{\"schema\": \"spatial-serve-sn").unwrap();
        assert_eq!(read_snapshot(&dir), None);
        fs::write(dir.join(SNAPSHOT_FILE), "{\"schema\": \"something/v9\"}").unwrap();
        assert_eq!(read_snapshot(&dir), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_framing_rejects_tampering() {
        let good = record_line(RecordKind::Input, 7, "payload with spaces");
        assert_eq!(parse_record(&good), Some((RecordKind::Input, 7, "payload with spaces")));
        let tampered = good.replace("payload", "Payload");
        assert_eq!(parse_record(&tampered), None, "checksum catches payload edits");
        assert_eq!(parse_record("w2 i 0 00 x"), None, "unknown version");
        assert_eq!(parse_record("w1 q 0 00 x"), None, "unknown kind");
        assert_eq!(parse_record("w1 i notanum 00 x"), None);
    }
}
