//! Segmented scans (paper §IV.C, "Segmented Scan").
//!
//! For any associative operator one can define a *segmented* operator that
//! carries segment-start flags and resets the accumulation at each segment
//! boundary; running the ordinary energy-optimal [`scan`] under the
//! segmented operator yields a per-segment scan at identical cost.

use spatial_model::{Machine, Tracked};

use crate::scan::scan;

/// One element of a segmented array: `head` marks the first element of a
/// segment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SegItem<T> {
    /// Whether this element starts a new segment.
    pub head: bool,
    /// The payload.
    pub value: T,
}

impl<T> SegItem<T> {
    /// Convenience constructor.
    pub fn new(head: bool, value: T) -> Self {
        SegItem { head, value }
    }
}

/// The segmented-operator construction: associative whenever `op` is.
pub fn segmented_op<T: Clone>(
    op: &impl Fn(&T, &T) -> T,
) -> impl Fn(&SegItem<T>, &SegItem<T>) -> SegItem<T> + '_ {
    move |a, b| {
        if b.head {
            b.clone()
        } else {
            SegItem { head: a.head, value: op(&a.value, &b.value) }
        }
    }
}

/// Segmented inclusive scan: equivalent to running [`scan`] independently on
/// every maximal run delimited by `head` flags. Element 0 is treated as a
/// segment head regardless of its flag.
pub fn segmented_scan<T: Clone>(
    machine: &mut Machine,
    lo: u64,
    items: Vec<Tracked<SegItem<T>>>,
    op: &impl Fn(&T, &T) -> T,
) -> Vec<Tracked<T>> {
    let seg = segmented_op(op);
    let out = scan(machine, lo, items, &seg);
    out.into_iter().map(|t| t.map(|s| s.value)).collect()
}

/// A "copy-first" segmented broadcast: every element of a segment receives
/// the segment head's value. Implemented as a segmented scan under the
/// left-projection operator (associative).
pub fn segmented_broadcast<T: Clone>(
    machine: &mut Machine,
    lo: u64,
    items: Vec<Tracked<SegItem<T>>>,
) -> Vec<Tracked<T>> {
    segmented_scan(machine, lo, items, &|a: &T, _b: &T| a.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zarray::{place_z, read_values};

    fn seg_input(vals: &[i64], heads: &[usize]) -> Vec<SegItem<i64>> {
        vals.iter().enumerate().map(|(i, &v)| SegItem::new(heads.contains(&i), v)).collect()
    }

    fn reference_segmented_sum(vals: &[i64], heads: &[usize]) -> Vec<i64> {
        let mut out = Vec::with_capacity(vals.len());
        let mut acc = 0;
        for (i, &v) in vals.iter().enumerate() {
            if i == 0 || heads.contains(&i) {
                acc = v;
            } else {
                acc += v;
            }
            out.push(acc);
        }
        out
    }

    #[test]
    fn segmented_scan_resets_at_heads() {
        let vals: Vec<i64> = (1..=16).collect();
        let heads = vec![0, 3, 4, 9, 15];
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, seg_input(&vals, &heads));
        let got = read_values(segmented_scan(&mut m, 0, items, &|a, b| a + b));
        assert_eq!(got, reference_segmented_sum(&vals, &heads));
    }

    #[test]
    fn single_segment_equals_plain_scan() {
        let vals: Vec<i64> = (0..64).map(|i| (i * 31) % 17 - 8).collect();
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, seg_input(&vals, &[0]));
        let got = read_values(segmented_scan(&mut m, 0, items, &|a, b| a + b));
        let mut expect = vals.clone();
        for i in 1..64 {
            expect[i] += expect[i - 1];
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn all_heads_is_identity() {
        let vals: Vec<i64> = (0..16).collect();
        let heads: Vec<usize> = (0..16).collect();
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, seg_input(&vals, &heads));
        let got = read_values(segmented_scan(&mut m, 0, items, &|a, b| a + b));
        assert_eq!(got, vals);
    }

    #[test]
    fn segmented_broadcast_copies_head_value() {
        let vals = vec![7i64, 0, 0, 0, 9, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0];
        let heads = vec![0, 4, 8, 12];
        let mut m = Machine::new();
        let items = place_z(&mut m, 0, seg_input(&vals, &heads));
        let got = read_values(segmented_broadcast(&mut m, 0, items));
        assert_eq!(got, vec![7, 7, 7, 7, 9, 9, 9, 9, 2, 2, 2, 2, 5, 5, 5, 5]);
    }

    #[test]
    fn segmented_op_is_associative_on_samples() {
        let op = |a: &i64, b: &i64| a + b;
        let sop = segmented_op(&op);
        let samples = [
            SegItem::new(false, 3i64),
            SegItem::new(true, 5),
            SegItem::new(false, -2),
            SegItem::new(true, 11),
        ];
        for a in samples {
            for b in samples {
                for c in samples {
                    assert_eq!(sop(&sop(&a, &b), &c), sop(&a, &sop(&b, &c)));
                }
            }
        }
    }
}
