//! Determinism at scale: the arena/slab event queue, the CSR
//! hierarchy and the reusable dispatch-batch buffers must not change
//! a single bit of behaviour at 10,000 leaves — sequential vs
//! parallel engines stay bit-identical — and a checkpoint taken
//! mid-run at 10,000 or 50,000 leaves resumes into the exact state of
//! an uninterrupted run.
//!
//! The detector here is a cheap counting relay (no KDE work), so the
//! suite exercises the *dispatch machinery* — queue ordering, batch
//! grouping, RNG draw order, per-node statistics — at full topology
//! scale while staying fast in debug builds.

use sensor_outliers::persist::{ByteReader, ByteWriter, Persist, PersistError};
use sensor_outliers::simnet::{DetectorEngine, EngineCtx, Hierarchy, Network, NodeId, SimConfig};

/// Counting relay: leaves push every reading up, leaders forward every
/// second message. Enough traffic to keep every tier busy, no model
/// math.
#[derive(Debug, Default, Clone, PartialEq)]
struct Relay {
    readings: u64,
    received: u64,
    forwarded: u64,
}

impl DetectorEngine<Vec<f64>> for Relay {
    fn ingest(&mut self, ctx: &mut EngineCtx<'_, Vec<f64>>, value: &[f64]) {
        self.readings += 1;
        ctx.send_parent(value.to_vec());
    }

    fn on_message(&mut self, ctx: &mut EngineCtx<'_, Vec<f64>>, _from: NodeId, payload: Vec<f64>) {
        self.received += 1;
        if self.received.is_multiple_of(2) && ctx.send_parent(payload) {
            self.forwarded += 1;
        }
    }
}

impl Persist for Relay {
    fn save(&self, w: &mut ByteWriter) {
        self.readings.save(w);
        self.received.save(w);
        self.forwarded.save(w);
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            readings: u64::load(r)?,
            received: u64::load(r)?,
            forwarded: u64::load(r)?,
        })
    }
}

const LEAVES: usize = 10_000;
const TIERS: usize = 5;
const READINGS: u64 = 3;

fn build(leaves: usize, workers: usize) -> Network<Vec<f64>, Relay> {
    let topo = Hierarchy::deep(leaves, TIERS).expect("deep topology");
    // Synchronous readings maximise same-instant batch sizes (the
    // parallel engine's hardest case) and a lossy radio makes the
    // loss-RNG draw order observable in the stats.
    let sim = SimConfig {
        stagger_readings: false,
        ..SimConfig::default()
    }
    .with_drop_probability(0.05)
    .with_worker_threads(workers);
    Network::new(topo, sim, |_, _| Relay::default())
}

fn source(node: NodeId, seq: u64) -> Option<Vec<f64>> {
    Some(vec![node.0 as f64 + seq as f64 * 0.001])
}

#[test]
fn sequential_vs_parallel_bit_identity_at_10k_leaves() {
    let mut seq_net = build(LEAVES, 1);
    let mut par_net = build(LEAVES, 4);
    let mut src = source;
    seq_net.run(&mut src, READINGS);
    let mut src = source;
    par_net.run(&mut src, READINGS);

    let (a, b) = (seq_net.stats(), par_net.stats());
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.bytes, b.bytes);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.messages_per_level, b.messages_per_level);
    assert_eq!(a.bytes_per_node, b.bytes_per_node);
    // Float accumulation order must match exactly, not just the sums.
    assert_eq!(a.tx_joules.to_bits(), b.tx_joules.to_bits());
    assert_eq!(a.rx_joules.to_bits(), b.rx_joules.to_bits());
    // The checkpoint serialises the full engine state — queue, RNG
    // streams, per-node stats, every app — so byte equality is the
    // strongest bit-identity statement available.
    assert_eq!(seq_net.checkpoint(), par_net.checkpoint());
    // Sanity: the run really happened at scale.
    assert!(a.messages > 0);
    for (_, app) in seq_net.apps().take(LEAVES) {
        assert_eq!(app.readings, READINGS);
    }
}

#[test]
fn checkpoint_round_trip_at_10k_and_50k_leaves() {
    let sim = SimConfig::default();
    // (leaves, readings per leaf, cut): 10k leaves stop after the first
    // reading wave; 50k leaves read once and stop with that wave one hop
    // up the tree.
    for (leaves, readings, cut_ns) in [
        (LEAVES, READINGS, sim.reading_period_ns),
        (50_000, 1, sim.link_latency_ns),
    ] {
        // Uninterrupted reference run (parallel).
        let mut full = build(leaves, 4);
        let mut src = source;
        full.run(&mut src, readings);

        // Interrupted run: stop at the cut, checkpoint, restore into a
        // freshly built network, finish there.
        let mut first = build(leaves, 4);
        let mut src = source;
        first.run_until(&mut src, readings, cut_ns);
        let bytes = first.checkpoint();
        assert_ne!(
            bytes,
            full.checkpoint(),
            "{leaves} leaves: the cut must fall mid-run"
        );

        let mut resumed = build(leaves, 2);
        resumed.restore(&bytes).expect("checkpoint restores");
        let mut src = source;
        resumed.run(&mut src, readings);

        assert_eq!(
            full.checkpoint(),
            resumed.checkpoint(),
            "{leaves} leaves: resumed run must be bit-identical to the uninterrupted one"
        );
    }
}
