//! The label oracle and the output checks every run makes outside its
//! timed phases: precision/recall of leaf detections against the
//! generator's labels, Theorem-3 containment, and a digest of all
//! detections that must repeat across runs of one commit.

use std::collections::HashSet;

use crate::inputs::{Fnv, ReadingTable};

/// One detection as the program reports it — the `Query` row shape of
/// the wire protocol: `(node, time_ns, level, value)`.
pub type Row = (u32, u64, u8, Vec<f64>);

/// Where a leaf's readings sit in stream time: reading `seq` of the
/// leaf with index `i` among `leaves` is read at `i·period/leaves +
/// seq·period` (the drivers' staggered phases).
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub leaves: usize,
    pub period_ns: u64,
}

impl Schedule {
    /// The reading a leaf detection at `time_ns` refers to, `None` when
    /// the time is not one of that leaf's reading instants.
    pub fn seq_of(&self, leaf: usize, time_ns: u64) -> Option<usize> {
        let phase = leaf as u64 * self.period_ns / self.leaves as u64;
        let since = time_ns.checked_sub(phase)?;
        (since % self.period_ns == 0).then_some((since / self.period_ns) as usize)
    }
}

/// Exact confusion counts of leaf detections against the labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Score {
    pub true_pos: u64,
    pub false_pos: u64,
    pub false_neg: u64,
    /// Leaf rows that name no offered reading (always a failure).
    pub unmatched: u64,
}

impl Score {
    pub fn precision(&self) -> f64 {
        self.true_pos as f64 / (self.true_pos + self.false_pos) as f64
    }

    pub fn recall(&self) -> f64 {
        self.true_pos as f64 / (self.true_pos + self.false_neg) as f64
    }

    pub fn add(&mut self, other: Score) {
        self.true_pos += other.true_pos;
        self.false_pos += other.false_pos;
        self.false_neg += other.false_neg;
        self.unmatched += other.unmatched;
    }
}

/// Scores the rows recorded *by leaf nodes* (`leaf_index` maps a node id
/// to its position among the leaves, `None` for leaders) over the first
/// `offered` readings of every leaf in `table[first_leaf..]`. A reading
/// flagged more than once counts once.
pub fn score_leaf_rows<'a>(
    rows: impl IntoIterator<Item = &'a Row>,
    leaf_index: impl Fn(u32) -> Option<usize>,
    schedule: Schedule,
    table: &ReadingTable,
    first_leaf: usize,
    offered: usize,
) -> Score {
    let mut flagged = vec![false; schedule.leaves * offered];
    let mut score = Score::default();
    for (node, time_ns, _, _) in rows {
        let Some(leaf) = leaf_index(*node) else {
            continue;
        };
        match schedule.seq_of(leaf, *time_ns) {
            Some(seq) if seq < offered => flagged[leaf * offered + seq] = true,
            _ => score.unmatched += 1,
        }
    }
    for leaf in 0..schedule.leaves {
        for seq in 0..offered {
            match (
                flagged[leaf * offered + seq],
                table.is_injected(first_leaf + leaf, seq),
            ) {
                (true, true) => score.true_pos += 1,
                (true, false) => score.false_pos += 1,
                (false, true) => score.false_neg += 1,
                (false, false) => {}
            }
        }
    }
    score
}

/// Theorem 3 as the D3-shaped protocols implement it: a leader only
/// re-checks what a child flagged, so every leader row's value must
/// also be a row of one of its children. Returns the violations.
pub fn containment_violations(rows: &[Row], children_of: impl Fn(u32) -> Vec<u32>) -> u64 {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let seen: HashSet<(u32, Vec<u64>)> = rows.iter().map(|r| (r.0, bits(&r.3))).collect();
    let mut violations = 0;
    for (node, _, _, value) in rows {
        let children = children_of(*node);
        if !children.is_empty() && !children.iter().any(|&c| seen.contains(&(c, bits(value)))) {
            violations += 1;
        }
    }
    violations
}

/// Order-independent FNV digest of `(node, time_ns, level, value bits)`.
pub fn digest_rows(rows: &[Row]) -> u64 {
    let mut keys: Vec<(u32, u64, u8, Vec<u64>)> = rows
        .iter()
        .map(|(n, t, l, v)| (*n, *t, *l, v.iter().map(|x| x.to_bits()).collect()))
        .collect();
    keys.sort();
    let mut h = Fnv::new();
    for (n, t, l, v) in keys {
        h.write_u64(u64::from(n));
        h.write_u64(t);
        h.write_u64(u64::from(l));
        for b in v {
            h.write_u64(b);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Stream;

    #[test]
    fn staggered_times_map_back_to_sequence_numbers() {
        let s = Schedule {
            leaves: 4,
            period_ns: 1000,
        };
        assert_eq!(s.seq_of(0, 3000), Some(3));
        assert_eq!(s.seq_of(1, 250), Some(0));
        assert_eq!(s.seq_of(3, 2750), Some(2));
        assert_eq!(s.seq_of(3, 2751), None);
        assert_eq!(s.seq_of(2, 100), None);
    }

    #[test]
    fn precision_and_recall_on_a_toy_case() {
        // Find two labelled and two clean readings of leaf 0, flag one
        // of each, twice over for the labelled one.
        let table = ReadingTable::generate(Stream::SkewedEngine, 1, 2, 4096);
        let labelled: Vec<usize> = (0..4096).filter(|&s| table.is_injected(0, s)).collect();
        let clean: Vec<usize> = (0..4096).filter(|&s| !table.is_injected(0, s)).collect();
        let schedule = Schedule {
            leaves: 2,
            period_ns: 1000,
        };
        let at = |seq: usize| seq as u64 * 1000;
        let rows: Vec<Row> = vec![
            (0, at(labelled[0]), 1, vec![0.1]),
            (0, at(labelled[0]), 4, vec![0.1]),
            (0, at(clean[0]), 1, vec![0.4]),
            (9, at(clean[1]), 2, vec![0.4]), // a leader row: not scored
            (0, 17, 1, vec![0.4]),           // no such reading instant
        ];
        let leaf_index = |n: u32| (n < 2).then_some(n as usize);
        let score = score_leaf_rows(&rows, leaf_index, schedule, &table, 0, 4096);
        let positives = (0..2)
            .flat_map(|l| (0..4096).map(move |s| (l, s)))
            .filter(|&(l, s)| table.is_injected(l, s))
            .count() as u64;
        assert_eq!(score.true_pos, 1);
        assert_eq!(score.false_pos, 1);
        assert_eq!(score.false_neg, positives - 1);
        assert_eq!(score.unmatched, 1);
        assert_eq!(score.precision(), 0.5);
        assert_eq!(score.recall(), 1.0 / positives as f64);
    }

    #[test]
    fn containment_finds_a_leader_row_no_child_reported() {
        let children = |n: u32| if n == 2 { vec![0, 1] } else { Vec::new() };
        let ok: Vec<Row> = vec![(0, 5, 1, vec![0.9]), (2, 9, 2, vec![0.9])];
        assert_eq!(containment_violations(&ok, children), 0);
        let bad: Vec<Row> = vec![(0, 5, 1, vec![0.9]), (2, 9, 2, vec![0.8])];
        assert_eq!(containment_violations(&bad, children), 1);
    }

    #[test]
    fn digest_ignores_order_and_sees_every_field() {
        let a: Vec<Row> = vec![(0, 5, 1, vec![0.9]), (2, 9, 2, vec![0.9])];
        let b: Vec<Row> = vec![(2, 9, 2, vec![0.9]), (0, 5, 1, vec![0.9])];
        let c: Vec<Row> = vec![(0, 5, 1, vec![0.9]), (2, 9, 3, vec![0.9])];
        assert_eq!(digest_rows(&a), digest_rows(&b));
        assert_ne!(digest_rows(&a), digest_rows(&c));
    }
}
