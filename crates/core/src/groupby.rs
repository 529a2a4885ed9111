//! Group-by aggregation: the sort + leader + segmented-scan idiom as a
//! reusable primitive.
//!
//! The low-depth SpMV (§VIII) is built from exactly this pattern (group the
//! COO triples by column, then by row); factoring it out gives a general
//! `Θ(n^{3/2})`-energy, polylog-depth group-by-and-aggregate for any keyed
//! data — the "irregular data structure" workloads (graphs, sparse tensors)
//! the paper's introduction targets.

use spatial_model::{zorder, Machine, Tracked};

use collectives::segmented::{segmented_scan, SegItem};
use sorting::keyed::Keyed;
use sorting::mergesort::sort_z;

/// One aggregated group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group<K, A> {
    /// The group key.
    pub key: K,
    /// The aggregate of all values with this key.
    pub aggregate: A,
    /// Number of members.
    pub count: u64,
}

/// Groups `(key, value)` pairs by key and combines each group's values with
/// the associative operator `op`.
///
/// Input: pair `i` resident at Z-index `lo + i` (`lo` aligned to the padded
/// length). Pipeline: 2D-mergesort by key → neighbour-message leader
/// election → segmented scan (the §VIII steps 1–2 and 5–7 generalized).
/// Output groups are returned in ascending key order, each resident at its
/// group's last element's PE. Costs: `O(n^{3/2})` energy, `O(log³ n)` depth,
/// `O(√n)` distance — sort-dominated, like SpMV.
pub fn group_by<K, V, A>(
    machine: &mut Machine,
    lo: u64,
    items: Vec<Tracked<(K, V)>>,
    init: impl Fn(&V) -> A,
    op: impl Fn(&A, &A) -> A,
) -> Vec<Group<K, A>>
where
    K: Ord + Clone,
    V: Clone,
    A: Clone,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let n_pad = zorder::next_power_of_four(n as u64);
    assert_eq!(lo % n_pad, 0, "segment must be aligned to its padded length");

    // Sort by (key, position): Keyed makes elements distinct. The value
    // rides along as payload.
    #[derive(Clone)]
    struct Pair<K, V> {
        key: Keyed<K>,
        value: V,
    }
    impl<K: Ord, V> PartialEq for Pair<K, V> {
        fn eq(&self, o: &Self) -> bool {
            self.key == o.key
        }
    }
    impl<K: Ord, V> Eq for Pair<K, V> {}
    impl<K: Ord, V> Ord for Pair<K, V> {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            self.key.cmp(&o.key)
        }
    }
    impl<K: Ord, V> PartialOrd for Pair<K, V> {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }

    let pairs: Vec<Tracked<Pair<K, V>>> = items
        .into_iter()
        .enumerate()
        .map(|(i, t)| t.map(|(k, v)| Pair { key: Keyed::new(k, i as u64), value: v }))
        .collect();
    let sorted = sort_z(machine, lo, pairs);

    // Leader election: first element of each equal-key run.
    let mut leaders = vec![false; n];
    for i in 0..n {
        if i == 0 {
            leaders[0] = true;
            continue;
        }
        let prev = machine.send(&sorted[i - 1], sorted[i].loc());
        let flag = sorted[i].zip_with(&prev, |a, b| a.key.key != b.key.key);
        leaders[i] = *flag.value();
        machine.discard(prev);
        machine.discard(flag);
    }

    // Segmented aggregate + count in one scan (padding cells are isolated
    // heads carrying `None`, so no identity element is needed).
    type AggItem<A> = SegItem<Option<(A, u64)>>;
    let mut seg: Vec<Tracked<AggItem<A>>> = sorted
        .iter()
        .enumerate()
        .map(|(i, t)| t.with_value(SegItem::new(leaders[i], Some((init(&t.value().value), 1u64)))))
        .collect();
    for i in n as u64..n_pad {
        seg.push(machine.place(zorder::coord_of(lo + i), SegItem::new(true, None)));
    }
    // Scan over Option<(A, u64)> so the padding has an identity-free slot.
    let scanned = segmented_scan(
        machine,
        lo,
        seg,
        &|x: &Option<(A, u64)>, y: &Option<(A, u64)>| match (x, y) {
            (Some((ax, cx)), Some((ay, cy))) => Some((op(ax, ay), cx + cy)),
            (Some(v), None) | (None, Some(v)) => Some(v.clone()),
            (None, None) => None,
        },
    );

    // The last element of each run holds the group result.
    let mut out = Vec::new();
    for i in 0..n {
        let is_last = i + 1 == n || leaders[i + 1];
        if is_last {
            let group = sorted[i].zip_with(&scanned[i], |p, agg| {
                let (aggregate, count) = agg.clone().expect("non-empty group");
                Group { key: p.key.key.clone(), aggregate, count }
            });
            out.push(group.into_value());
        }
    }
    for t in sorted {
        machine.discard(t);
    }
    for t in scanned {
        machine.discard(t);
    }
    out
}

/// Counts occurrences of each key (a group-by with a counting aggregate).
pub fn group_counts<K: Ord + Clone>(
    machine: &mut Machine,
    lo: u64,
    items: Vec<Tracked<K>>,
) -> Vec<(K, u64)> {
    let pairs: Vec<Tracked<(K, ())>> = items.into_iter().map(|t| t.map(|k| (k, ()))).collect();
    group_by(machine, lo, pairs, |_| (), |_, _| ()).into_iter().map(|g| (g.key, g.count)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::zarray::place_z;

    #[test]
    fn groups_and_sums() {
        let mut m = Machine::new();
        let data: Vec<(u32, i64)> = vec![(2, 10), (1, 1), (2, 20), (3, 7), (1, 2), (2, 30)];
        let items = place_z(&mut m, 0, data);
        let groups = group_by(&mut m, 0, items, |v| *v, |a, b| a + b);
        let simple: Vec<(u32, i64, u64)> =
            groups.into_iter().map(|g| (g.key, g.aggregate, g.count)).collect();
        assert_eq!(simple, vec![(1, 3, 2), (2, 60, 3), (3, 7, 1)]);
    }

    #[test]
    fn group_counts_match_reference() {
        let mut m = Machine::new();
        let keys: Vec<u8> = (0..100).map(|i| (i * 7 % 5) as u8).collect();
        let mut expect = std::collections::BTreeMap::new();
        for &k in &keys {
            *expect.entry(k).or_insert(0u64) += 1;
        }
        let items = place_z(&mut m, 0, keys);
        let got = group_counts(&mut m, 0, items);
        assert_eq!(got, expect.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn single_group_and_singletons() {
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, vec![(1u8, 1i64); 16]);
        let g = group_by(&mut m, 0, items, |v| *v, |a, b| a + b);
        assert_eq!(g.len(), 1);
        assert_eq!((g[0].aggregate, g[0].count), (16, 16));

        let mut m = Machine::new();
        let items = place_z(&mut m, 0, (0u8..16).map(|k| (k, 1i64)).collect());
        let g = group_by(&mut m, 0, items, |v| *v, |a, b| a + b);
        assert_eq!(g.len(), 16);
        assert!(g.iter().all(|g| g.count == 1));
    }

    #[test]
    fn max_aggregate() {
        let mut m = Machine::new();
        let data: Vec<(u8, i64)> = vec![(0, 3), (1, 9), (0, 7), (1, 2), (0, 5)];
        let items = place_z(&mut m, 0, data);
        let g = group_by(&mut m, 0, items, |v| *v, |a, b| *a.max(b));
        assert_eq!(g[0].aggregate, 7);
        assert_eq!(g[1].aggregate, 9);
    }
}
