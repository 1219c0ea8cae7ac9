//! Socket-backed ingestion: an out-of-order, at-least-once reading
//! buffer that replays as an in-order [`StreamSource`].
//!
//! Network ingestion breaks the two assumptions every driver makes
//! about its source — that reading `seq` of a leaf is requested exactly
//! once, in order. A TCP feed delivers readings out of order (multiple
//! connections, retransmissions after reconnects) and more than once
//! (at-least-once delivery). [`IngestBuffer`] sits between the socket
//! and the driver and restores both invariants:
//!
//! * **Dedup** — each `(node, seq)` is accepted once; replays of
//!   already-buffered or already-consumed readings are counted and
//!   dropped, which is what makes at-least-once retransmission
//!   idempotent.
//! * **Contiguity** — [`IngestBuffer::frontier`] reports the largest
//!   `W` such that every leaf holds (or has consumed) all readings
//!   `seq < W`. A driver that only advances its stop time past complete
//!   waves (`stop_ns = W·period − 1` with
//!   [`crate::Network::run_until`]) therefore never asks for a
//!   reading that has not arrived — and never ends a stream early.
//! * **Explicit end** — a stream only ends when the producer declares
//!   its total via [`IngestBuffer::finish`]; the buffer then lets the
//!   driver's fetch of `seq == total` return `None`, exactly how a
//!   recorded [`crate::ReadingTrace`] ends a replayed stream.
//!
//! The whole buffer implements [`snod_persist::Persist`], so a daemon
//! checkpoint captures buffered-but-unprocessed readings alongside the
//! runtime state: restart resumes mid-wave without losing or replaying
//! anything already folded into the models.

use std::collections::HashMap;

use snod_persist::{ByteReader, ByteWriter, Persist, PersistError};

use crate::config::StreamSource;
use crate::node::NodeId;

/// What [`IngestBuffer::push`] did with a reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Newly buffered; will be handed to the driver in order.
    Accepted,
    /// Already buffered or already consumed — dropped (idempotent).
    Duplicate,
    /// `node` is not a leaf of this buffer.
    UnknownNode,
    /// `seq` is at or past the declared stream total — dropped.
    BeyondEnd,
}

/// Per-leaf reorder/dedup buffer feeding a driver in strict order.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestBuffer {
    /// Leaf node ids, in topology order.
    leaves: Vec<u32>,
    /// node id → index into the per-leaf vectors.
    index_of: HashMap<u32, usize>,
    /// Buffered readings not yet fetched by the driver.
    pending: HashMap<(u32, u64), Vec<f64>>,
    /// Next seq the driver will fetch, per leaf.
    consumed: Vec<u64>,
    /// First seq not yet received, per leaf (`>= consumed`): everything
    /// below it is consumed or pending.
    contig: Vec<u64>,
    /// Declared stream totals (set by [`IngestBuffer::finish`]).
    total: Vec<Option<u64>>,
    /// Readings dropped as duplicates.
    duplicates: u64,
}

impl IngestBuffer {
    /// An empty buffer over the given leaves.
    pub fn new(leaves: &[NodeId]) -> Self {
        let leaves: Vec<u32> = leaves.iter().map(|n| n.0).collect();
        let index_of = leaves.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let n = leaves.len();
        Self {
            leaves,
            index_of,
            pending: HashMap::new(),
            consumed: vec![0; n],
            contig: vec![0; n],
            total: vec![None; n],
            duplicates: 0,
        }
    }

    /// Offers one reading. Out-of-order arrivals are buffered;
    /// duplicates (by `(node, seq)`) are counted and dropped.
    pub fn push(&mut self, node: NodeId, seq: u64, value: Vec<f64>) -> PushOutcome {
        let Some(&i) = self.index_of.get(&node.0) else {
            return PushOutcome::UnknownNode;
        };
        if let Some(total) = self.total[i] {
            if seq >= total {
                return PushOutcome::BeyondEnd;
            }
        }
        if seq < self.consumed[i] || self.pending.contains_key(&(node.0, seq)) {
            self.duplicates += 1;
            return PushOutcome::Duplicate;
        }
        self.pending.insert((node.0, seq), value);
        if seq == self.contig[i] {
            let mut c = self.contig[i];
            while self.pending.contains_key(&(node.0, c)) {
                c += 1;
            }
            self.contig[i] = c;
        }
        PushOutcome::Accepted
    }

    /// Declares that `node`'s stream has exactly `total` readings
    /// (`seq` 0..total). Returns false on a conflicting declaration
    /// (different from an earlier one, or below what already arrived).
    pub fn finish(&mut self, node: NodeId, total: u64) -> bool {
        let Some(&i) = self.index_of.get(&node.0) else {
            return false;
        };
        match self.total[i] {
            Some(t) => t == total,
            None if total < self.contig[i] => false,
            None => {
                self.total[i] = Some(total);
                true
            }
        }
    }

    /// The largest `W` such that every *unfinished* leaf has received
    /// all readings `seq < W`. Finished leaves (total declared and
    /// fully received) no longer bound the frontier.
    pub fn frontier(&self) -> u64 {
        let mut w = u64::MAX;
        for i in 0..self.leaves.len() {
            if self.leaf_finished(i) {
                continue;
            }
            w = w.min(self.contig[i]);
        }
        if w == u64::MAX {
            0
        } else {
            w
        }
    }

    fn leaf_finished(&self, i: usize) -> bool {
        matches!(self.total[i], Some(t) if self.contig[i] >= t)
    }

    /// True once every leaf's declared total has fully arrived: the
    /// driver can run to quiescence and the streams will end exactly at
    /// their totals.
    pub fn all_finished(&self) -> bool {
        (0..self.leaves.len()).all(|i| self.leaf_finished(i))
    }

    /// Contiguous received high-water mark of `node` (first missing
    /// seq).
    pub fn received(&self, node: NodeId) -> u64 {
        self.index_of.get(&node.0).map_or(0, |&i| self.contig[i])
    }

    /// The leaves this buffer serves, in topology order.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.leaves.iter().map(|&n| NodeId(n))
    }

    /// Total readings dropped as duplicates so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Readings buffered but not yet consumed by the driver.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Total readings consumed by the driver across all leaves.
    pub fn consumed_total(&self) -> u64 {
        self.consumed.iter().sum()
    }
}

impl Persist for IngestBuffer {
    fn save(&self, w: &mut ByteWriter) {
        self.leaves.save(w);
        self.consumed.save(w);
        self.contig.save(w);
        self.total.save(w);
        self.duplicates.save(w);
        let mut rows: Vec<(&(u32, u64), &Vec<f64>)> = self.pending.iter().collect();
        rows.sort_by_key(|(k, _)| **k);
        w.put_usize(rows.len());
        for (k, v) in rows {
            k.save(w);
            v.save(w);
        }
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let leaves = Vec::<u32>::load(r)?;
        let consumed = Vec::<u64>::load(r)?;
        let contig = Vec::<u64>::load(r)?;
        let total = Vec::<Option<u64>>::load(r)?;
        let duplicates = u64::load(r)?;
        let n_pending = r.get_len()?;
        let mut pending = HashMap::with_capacity(n_pending);
        for _ in 0..n_pending {
            let k = <(u32, u64)>::load(r)?;
            let v = Vec::<f64>::load(r)?;
            pending.insert(k, v);
        }
        if consumed.len() != leaves.len() || contig.len() != leaves.len() || total.len() != leaves.len() {
            return Err(PersistError::Corrupt("ingest buffer shape mismatch"));
        }
        let index_of = leaves.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        Ok(Self {
            leaves,
            index_of,
            pending,
            consumed,
            contig,
            total,
            duplicates,
        })
    }
}

/// The driver side: strictly in-order fetches. A fetch past the
/// contiguous frontier (which a correctly sliced driver never issues
/// before [`IngestBuffer::all_finished`]) ends the stream — identical
/// to how a [`crate::ReadingTrace`] ends at its last recorded row.
impl StreamSource for IngestBuffer {
    fn next(&mut self, node: NodeId, seq: u64) -> Option<Vec<f64>> {
        let &i = self.index_of.get(&node.0)?;
        debug_assert_eq!(
            seq, self.consumed[i],
            "driver fetches must be strictly in order"
        );
        let value = self.pending.remove(&(node.0, seq))?;
        self.consumed[i] = self.consumed[i].max(seq + 1);
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf2() -> IngestBuffer {
        IngestBuffer::new(&[NodeId(0), NodeId(1)])
    }

    #[test]
    fn in_order_push_advances_frontier() {
        let mut b = buf2();
        assert_eq!(b.push(NodeId(0), 0, vec![1.0]), PushOutcome::Accepted);
        assert_eq!(b.frontier(), 0); // leaf 1 has nothing yet
        assert_eq!(b.push(NodeId(1), 0, vec![2.0]), PushOutcome::Accepted);
        assert_eq!(b.frontier(), 1);
    }

    #[test]
    fn out_of_order_buffers_until_gap_fills() {
        let mut b = buf2();
        b.push(NodeId(0), 1, vec![1.0]);
        b.push(NodeId(0), 2, vec![2.0]);
        assert_eq!(b.received(NodeId(0)), 0);
        b.push(NodeId(0), 0, vec![0.0]);
        assert_eq!(b.received(NodeId(0)), 3);
        // Fetches come out in order regardless of arrival order.
        assert_eq!(b.next(NodeId(0), 0), Some(vec![0.0]));
        assert_eq!(b.next(NodeId(0), 1), Some(vec![1.0]));
        assert_eq!(b.next(NodeId(0), 2), Some(vec![2.0]));
    }

    #[test]
    fn duplicates_are_dropped_and_counted() {
        let mut b = buf2();
        b.push(NodeId(0), 0, vec![1.0]);
        assert_eq!(b.push(NodeId(0), 0, vec![9.9]), PushOutcome::Duplicate);
        assert_eq!(b.next(NodeId(0), 0), Some(vec![1.0])); // first write wins
        // Replay of an already-consumed reading is also a duplicate.
        assert_eq!(b.push(NodeId(0), 0, vec![9.9]), PushOutcome::Duplicate);
        assert_eq!(b.duplicates(), 2);
    }

    #[test]
    fn finish_ends_streams_exactly_at_totals() {
        let mut b = buf2();
        b.push(NodeId(0), 0, vec![1.0]);
        b.push(NodeId(1), 0, vec![1.0]);
        assert!(b.finish(NodeId(0), 1));
        assert!(b.finish(NodeId(1), 1));
        assert!(b.all_finished());
        assert_eq!(b.push(NodeId(0), 5, vec![1.0]), PushOutcome::BeyondEnd);
        assert_eq!(b.next(NodeId(0), 0), Some(vec![1.0]));
        assert_eq!(b.next(NodeId(0), 1), None); // stream ends at total
        // Conflicting declarations are rejected.
        assert!(!b.finish(NodeId(0), 3));
        assert!(b.finish(NodeId(0), 1));
    }

    #[test]
    fn finished_leaves_stop_bounding_the_frontier() {
        let mut b = buf2();
        b.push(NodeId(0), 0, vec![1.0]);
        assert!(b.finish(NodeId(0), 1));
        b.push(NodeId(1), 0, vec![1.0]);
        b.push(NodeId(1), 1, vec![2.0]);
        assert_eq!(b.frontier(), 2); // only leaf 1 counts now
        assert!(!b.all_finished());
    }

    #[test]
    fn unknown_nodes_are_rejected() {
        let mut b = buf2();
        assert_eq!(b.push(NodeId(7), 0, vec![1.0]), PushOutcome::UnknownNode);
        assert!(!b.finish(NodeId(7), 1));
    }

    #[test]
    fn sequence_gaps_at_high_node_counts() {
        // 10k leaves, every leaf delivered with a seq gap: evens first,
        // so the frontier is pinned at the gap; then the odd backfill
        // releases the whole window at once. Exercises the per-leaf
        // contiguity scan and the frontier min-reduction at scale.
        let n = 10_000u32;
        let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut b = IngestBuffer::new(&ids);
        let per_leaf = 8u64;
        for &leaf in &ids {
            for seq in (0..per_leaf).step_by(2) {
                assert_eq!(b.push(leaf, seq, vec![0.0]), PushOutcome::Accepted);
            }
        }
        assert_eq!(b.frontier(), 1, "every leaf is missing seq 1");
        assert_eq!(b.pending_len(), n as usize * (per_leaf as usize / 2));
        for &leaf in &ids {
            for seq in (1..per_leaf).step_by(2) {
                assert_eq!(b.push(leaf, seq, vec![0.0]), PushOutcome::Accepted);
            }
        }
        assert_eq!(b.frontier(), per_leaf);
        assert_eq!(b.duplicates(), 0);
    }

    #[test]
    fn overflow_replay_past_totals_at_high_node_counts() {
        // An aggressive at-least-once producer replays whole windows
        // and overshoots declared totals across 10k leaves: every
        // replay is a counted duplicate, every overshoot is BeyondEnd,
        // and the buffer's memory stays bounded by the live window.
        let n = 10_000u32;
        let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut b = IngestBuffer::new(&ids);
        let total = 4u64;
        for &leaf in &ids {
            for seq in 0..total {
                b.push(leaf, seq, vec![1.0]);
            }
            assert!(b.finish(leaf, total));
        }
        assert!(b.all_finished());
        for &leaf in &ids {
            // Full-window replay: all duplicates.
            for seq in 0..total {
                assert_eq!(b.push(leaf, seq, vec![1.0]), PushOutcome::Duplicate);
            }
            // Overshoot past the declared total: dropped, not buffered.
            for seq in total..total + 3 {
                assert_eq!(b.push(leaf, seq, vec![1.0]), PushOutcome::BeyondEnd);
            }
        }
        assert_eq!(b.duplicates(), u64::from(n) * total);
        assert_eq!(b.pending_len(), n as usize * total as usize);
        // Drain in order; consumed replays also count as duplicates.
        for &leaf in &ids {
            for seq in 0..total {
                assert_eq!(b.next(leaf, seq), Some(vec![1.0]));
            }
        }
        assert_eq!(b.pending_len(), 0);
        assert_eq!(b.push(NodeId(0), 0, vec![1.0]), PushOutcome::Duplicate);
        assert_eq!(b.consumed_total(), u64::from(n) * total);
    }

    #[test]
    fn persists_mid_wave() {
        let mut b = buf2();
        b.push(NodeId(0), 0, vec![0.5]);
        b.push(NodeId(0), 2, vec![2.5]); // gap at seq 1
        b.push(NodeId(1), 0, vec![1.5]);
        b.push(NodeId(1), 0, vec![1.5]); // duplicate
        b.finish(NodeId(1), 2);
        assert_eq!(b.next(NodeId(0), 0), Some(vec![0.5]));
        let mut w = ByteWriter::new();
        b.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = IngestBuffer::load(&mut r).expect("round trips");
        assert_eq!(b, back);
    }
}
