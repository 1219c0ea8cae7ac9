//! Network statistics — the quantities behind Figure 11 and §10.3.

use crate::node::NodeId;

/// Aggregated traffic and energy accounting for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStats {
    /// Total messages sent.
    pub messages: u64,
    /// Total bytes on the air (payload + headers).
    pub bytes: u64,
    /// Messages sent by nodes at each tier (index 0 = leaf tier).
    pub messages_per_level: Vec<u64>,
    /// Bytes sent per node.
    pub bytes_per_node: Vec<u64>,
    /// Messages sent per node.
    pub messages_per_node: Vec<u64>,
    /// Messages lost on the air (lossy-radio simulation, including loss
    /// bursts from a fault plan; retransmissions and acks can be
    /// dropped too).
    pub dropped: u64,
    /// Frames that arrived at a crashed (or failed) node and
    /// evaporated.
    pub lost_to_crash: u64,
    /// Extra deliveries created by link-fault duplication (best-effort
    /// and reliable frames and acks alike). Radio artifacts: charged
    /// receive energy, but no extra transmit cost.
    pub duplicates: u64,
    /// Duplicate reliable deliveries the receiver suppressed by message
    /// id (the application never saw them; the engine still re-acked).
    pub duplicates_suppressed: u64,
    /// Retransmissions aired by the ack/retry protocol (also counted in
    /// [`NetStats::messages`] — they are real frames).
    pub retransmissions: u64,
    /// Acknowledgement frames sent (protocol overhead, accounted
    /// separately from application messages).
    pub acks: u64,
    /// Bytes spent on acknowledgement frames.
    pub ack_bytes: u64,
    /// Reliable messages abandoned after exhausting every retry.
    pub retry_exhausted: u64,
    /// Times a node scored against a stale last-known model instead of
    /// a fresh one (graceful degradation, see
    /// [`crate::EngineCtx::note_degraded_score`]).
    pub degraded_scores: u64,
    /// Times a node fell back to local-only detection because its
    /// upstream went silent (see
    /// [`crate::EngineCtx::note_local_fallback`]).
    pub local_fallbacks: u64,
    /// Recovering nodes revived from their last periodic checkpoint
    /// (see [`crate::fault::RestartPolicy::Warm`]).
    pub warm_restarts: u64,
    /// Recovering nodes revived from their pristine (start-of-run)
    /// state (see [`crate::fault::RestartPolicy::Cold`]).
    pub cold_restarts: u64,
    /// Total transmit energy across the network (J).
    pub tx_joules: f64,
    /// Total receive energy across the network (J).
    pub rx_joules: f64,
    /// Simulated time covered by the run (ns).
    pub elapsed_ns: u64,
}

impl NetStats {
    /// Accounting sized for `node_count` nodes and `levels` tiers.
    pub fn new(node_count: usize, levels: usize) -> Self {
        Self {
            messages_per_level: vec![0; levels],
            bytes_per_node: vec![0; node_count],
            messages_per_node: vec![0; node_count],
            ..Self::default()
        }
    }

    /// Records one sent message.
    pub fn record_send(&mut self, from: NodeId, level: u8, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
        if let Some(slot) = self.messages_per_level.get_mut((level - 1) as usize) {
            *slot += 1;
        }
        self.bytes_per_node[from.index()] += bytes as u64;
        self.messages_per_node[from.index()] += 1;
    }

    /// Messages per simulated second; 0 when no time elapsed.
    pub fn messages_per_second(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.messages as f64 * 1e9 / self.elapsed_ns as f64
        }
    }

    /// Bytes per simulated second.
    pub fn bytes_per_second(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.bytes as f64 * 1e9 / self.elapsed_ns as f64
        }
    }

    /// Total radio energy (J).
    pub fn total_joules(&self) -> f64 {
        self.tx_joules + self.rx_joules
    }
}

snod_persist::persist_struct! {
    NetStats {
        messages,
        bytes,
        messages_per_level,
        bytes_per_node,
        messages_per_node,
        dropped,
        lost_to_crash,
        duplicates,
        duplicates_suppressed,
        retransmissions,
        acks,
        ack_bytes,
        retry_exhausted,
        degraded_scores,
        local_fallbacks,
        warm_restarts,
        cold_restarts,
        tx_joules,
        rx_joules,
        elapsed_ns,
    }
    check: none
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_send_accumulates() {
        let mut s = NetStats::new(4, 2);
        s.record_send(NodeId(1), 1, 10);
        s.record_send(NodeId(1), 1, 20);
        s.record_send(NodeId(3), 2, 5);
        assert_eq!(s.messages, 3);
        assert_eq!(s.bytes, 35);
        assert_eq!(s.messages_per_level, vec![2, 1]);
        assert_eq!(s.bytes_per_node[1], 30);
        assert_eq!(s.messages_per_node[3], 1);
    }

    #[test]
    fn rates_handle_zero_elapsed() {
        let s = NetStats::new(1, 1);
        assert_eq!(s.messages_per_second(), 0.0);
        assert_eq!(s.bytes_per_second(), 0.0);
    }

    #[test]
    fn rates_scale_with_time() {
        let mut s = NetStats::new(1, 1);
        s.record_send(NodeId(0), 1, 100);
        s.elapsed_ns = 2_000_000_000; // 2 s
        assert!((s.messages_per_second() - 0.5).abs() < 1e-12);
        assert!((s.bytes_per_second() - 50.0).abs() < 1e-12);
    }
}
