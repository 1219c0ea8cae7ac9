//! Shared daemon health counters and the public stats snapshot.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One escalation as exposed on the `/escalations` endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct EscalationRecord {
    /// Tenant that produced it.
    pub tenant: String,
    /// Node that flagged the value.
    pub node: u32,
    /// Stream time of the detection.
    pub time_ns: u64,
    /// Tier of the flagging node (1 = leaf).
    pub level: u8,
}

/// Bounded recent-escalation ring shared by workers and the metrics
/// endpoint.
#[derive(Debug, Default)]
pub(crate) struct EscalationLog {
    ring: Mutex<VecDeque<EscalationRecord>>,
    total: AtomicU64,
}

/// Retained escalations on the `/escalations` endpoint.
pub(crate) const ESCALATION_RING: usize = 1024;

impl EscalationLog {
    pub fn push(&self, rec: EscalationRecord) {
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().expect("escalation log lock");
        if ring.len() == ESCALATION_RING {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    pub fn recent(&self) -> Vec<EscalationRecord> {
        self.ring
            .lock()
            .expect("escalation log lock")
            .iter()
            .cloned()
            .collect()
    }

    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

/// Lock-free daemon counters, updated by connection handlers and tenant
/// workers, surfaced through [`ServeStats`] and the obs gauges.
#[derive(Debug, Default)]
pub(crate) struct DaemonStats {
    /// Readings currently queued across all tenants.
    pub depth: AtomicU64,
    /// Readings dropped because a tenant queue was full (unacked; the
    /// client retransmits them).
    pub shed: AtomicU64,
    /// Readings dropped as duplicates by sequence-number dedup.
    pub duplicates: AtomicU64,
    /// Hellos beyond the first for an already-known tenant.
    pub reconnects: AtomicU64,
    /// Crashed tenant workers respawned from their last checkpoint.
    pub worker_restarts: AtomicU64,
    /// Frames rejected by the decoder (connection closed each time).
    pub wire_errors: AtomicU64,
    /// Frames successfully decoded.
    pub frames: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections dropped by the slow-loris frame deadline.
    pub slow_loris_drops: AtomicU64,
    /// Checkpoint files written.
    pub checkpoints: AtomicU64,
}

/// A point-in-time snapshot of daemon health, readable without the obs
/// feature (the same numbers back the obs gauges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Readings currently queued across all tenants.
    pub queued: u64,
    /// Readings shed by full tenant queues.
    pub shed: u64,
    /// Readings dropped by sequence-number dedup.
    pub duplicates: u64,
    /// Reconnects (Hellos for already-known tenants).
    pub reconnects: u64,
    /// Tenant workers respawned after a crash.
    pub worker_restarts: u64,
    /// Frames rejected by the wire decoder.
    pub wire_errors: u64,
    /// Frames decoded.
    pub frames: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Connections dropped by the slow-loris guard.
    pub slow_loris_drops: u64,
    /// Checkpoint files written.
    pub checkpoints: u64,
    /// Live tenants.
    pub tenants: usize,
    /// Escalations produced since start.
    pub escalations: u64,
}
