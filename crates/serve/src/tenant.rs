//! Per-tenant workers: one thread per tenant owning a [`Network`]
//! and an [`IngestBuffer`], fed through a bounded queue.
//!
//! ## Stream-time slicing
//!
//! The worker must produce escalations *bit-identical* to an
//! in-process run over the same trace, while readings arrive
//! incrementally, out of order, and more than once. The trick is to
//! advance the runtime only over **complete waves**: with `W =`
//! [`IngestBuffer::frontier`] (every leaf holds all readings
//! `seq < W`), every reading event scheduled before stream time
//! `W·period` is satisfiable, so
//! [`Network::run_until`]`(…, stop_ns = W·period − 1)` can never
//! ask the buffer for a reading that has not arrived — and the
//! run-split property (a `run_until` cut at any stop time equals the
//! uninterrupted run, pinned by the checkpoint-equivalence suite)
//! makes the sliced run equal the one-shot reference. Once every
//! declared stream total has arrived the worker runs to quiescence,
//! checkpoints, and reports [`Msg::FinishOk`].
//!
//! ## Crash safety
//!
//! A checkpoint atomically captures the ingest buffer (including
//! buffered-but-unprocessed readings), the pushed-escalation cursors
//! and the full runtime state. `durable` acks advance only when a
//! checkpoint lands on disk; a client that replays from `durable` after
//! a daemon kill therefore re-sends exactly the window the disk image
//! may have lost, and sequence-number dedup absorbs the overlap — no
//! reading is double-ingested, so no escalation is duplicated.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use snod_core::DetectorBackend;
use snod_engine::{IngestBuffer, Network, NodeId, PushOutcome};
use snod_persist::{ByteReader, ByteWriter, Persist};

use crate::config::{BackendVisitor, TenantSpec};
use crate::stats::{DaemonStats, EscalationLog, EscalationRecord};
use crate::wire::Msg;

/// A connection's outbound frame queue, as seen by a worker: `handle`
/// is what this connection calls the tenant, `tx` feeds the
/// connection's writer thread.
#[derive(Debug, Clone)]
pub(crate) struct ConnSink {
    pub conn_id: u64,
    pub handle: u32,
    pub subscribe: bool,
    pub tx: Sender<Msg>,
}

/// Messages routed to a tenant worker.
#[derive(Debug)]
pub(crate) enum TenantMsg {
    /// One reading (at-least-once; the worker dedups).
    Reading { node: u32, seq: u64, value: Vec<f64> },
    /// Declared per-leaf stream totals.
    Finish { totals: Vec<(u32, u64)> },
    /// A connection wants acks (and, if subscribed, escalations).
    Attach(ConnSink),
    /// A connection went away.
    Detach { conn_id: u64 },
    /// Reply the full detection list to this sink.
    Query(ConnSink),
    /// Fault injection: panic the worker (supervision test hook).
    Crash,
    /// Stop. `drain: true` processes everything buffered and writes a
    /// final checkpoint; `false` exits immediately (used by
    /// `hard_abort`, the in-process stand-in for `kill -9`).
    Shutdown { drain: bool },
}

/// Mutable-state shared between a worker and the daemon (gauges,
/// supervision).
#[derive(Debug, Default)]
pub(crate) struct TenantShared {
    /// Readings queued to this tenant.
    pub depth: std::sync::atomic::AtomicU64,
    /// Readings consumed by the runtime.
    pub processed: std::sync::atomic::AtomicU64,
    /// Milliseconds since daemon epoch of the last checkpoint (or
    /// worker start).
    pub last_ckpt_ms: std::sync::atomic::AtomicU64,
    /// FinishOk reached.
    pub finished: std::sync::atomic::AtomicBool,
}

/// Worker knobs distilled from the daemon config.
#[derive(Debug, Clone)]
pub(crate) struct WorkerConfig {
    pub spec: TenantSpec,
    pub ckpt_path: Option<PathBuf>,
    pub checkpoint_every: u64,
    pub checkpoint_interval: Duration,
}

/// Everything a tenant worker is started from.
pub(crate) struct WorkerSeed {
    pub name: String,
    pub cfg: WorkerConfig,
    pub rx: Receiver<TenantMsg>,
    pub shared: Arc<TenantShared>,
    pub stats: Arc<DaemonStats>,
    pub esc_log: Arc<EscalationLog>,
    pub epoch: Instant,
}

impl WorkerSeed {
    /// Spawns the worker thread for `cfg.spec`'s configured backend.
    pub fn spawn(self) -> std::thread::JoinHandle<()> {
        let spec = self.cfg.spec.clone();
        spec.with_backend(self)
            .expect("tenant spec validated when the daemon started")
    }
}

impl BackendVisitor for WorkerSeed {
    type Out = std::thread::JoinHandle<()>;

    fn visit<B: DetectorBackend>(self, backend: B) -> Self::Out {
        let thread_name = format!("snod-tenant-{}", self.name);
        let worker = Worker::new(&backend, self);
        std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || worker.run())
            .expect("spawn tenant worker")
    }
}

pub(crate) struct Worker<B: DetectorBackend> {
    name: String,
    cfg: WorkerConfig,
    rx: Receiver<TenantMsg>,
    rt: Network<B::Payload, B::Engine>,
    buf: IngestBuffer,
    /// Per-node count of detections already pushed to subscribers and
    /// the escalation log (persisted, so a warm restart does not replay
    /// checkpointed escalations).
    pushed: Vec<u64>,
    sinks: Vec<ConnSink>,
    shared: Arc<TenantShared>,
    stats: Arc<DaemonStats>,
    esc_log: Arc<EscalationLog>,
    epoch: Instant,
    /// Per-leaf contiguous mark covered by the last on-disk checkpoint.
    durable: Vec<u64>,
    last_acked: Vec<(u64, u64)>,
    dups_reported: u64,
    since_ckpt: u64,
    dirty: bool,
    last_ckpt: Instant,
    finish_sent: bool,
}

impl<B: DetectorBackend> Worker<B> {
    /// Builds the worker, restoring from its checkpoint file when one
    /// exists. A checkpoint that fails to restore (torn write from a
    /// crash mid-rename cannot happen — writes are atomic — but a
    /// corrupted disk can) is reported and ignored: the tenant starts
    /// fresh rather than staying down, and the client's replay-from-
    /// zero resend path refills it.
    fn new(backend: &B, seed: WorkerSeed) -> Self {
        let WorkerSeed {
            name,
            cfg,
            rx,
            shared,
            stats,
            esc_log,
            epoch,
        } = seed;
        let rt = cfg
            .spec
            .build_backend_runtime(backend)
            .expect("tenant spec validated when the daemon started");
        let leaves = rt.topology().leaves().to_vec();
        let n_leaves = leaves.len();
        let mut worker = Self {
            buf: IngestBuffer::new(&leaves),
            pushed: vec![0; rt.topology().node_count()],
            rt,
            name,
            cfg,
            rx,
            sinks: Vec::new(),
            shared,
            stats,
            esc_log,
            epoch,
            durable: vec![0; n_leaves],
            last_acked: vec![(u64::MAX, u64::MAX); n_leaves],
            dups_reported: 0,
            since_ckpt: 0,
            dirty: false,
            last_ckpt: Instant::now(),
            finish_sent: false,
        };
        if let Some(path) = worker.cfg.ckpt_path.clone() {
            if path.exists() {
                if let Err(e) = worker.restore(&path) {
                    eprintln!("snod-serve: tenant {} checkpoint ignored: {e}", worker.name);
                }
            }
        }
        worker
            .shared
            .last_ckpt_ms
            .store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
        worker.dups_reported = worker.buf.duplicates();
        worker
    }

    fn restore(&mut self, path: &std::path::Path) -> Result<(), snod_persist::PersistError> {
        let payload = snod_persist::read_checkpoint_file(path)?;
        let mut r = ByteReader::new(&payload);
        let buf = IngestBuffer::load(&mut r)?;
        let pushed = Vec::<u64>::load(&mut r)?;
        let finish_sent = bool::load(&mut r)?;
        let rt_bytes = Vec::<u8>::load(&mut r)?;
        r.finish()?;
        if pushed.len() != self.pushed.len() {
            return Err(snod_persist::PersistError::Corrupt(
                "tenant checkpoint node count mismatch",
            ));
        }
        self.rt.restore(&rt_bytes)?;
        self.durable = self
            .rt
            .topology()
            .leaves()
            .iter()
            .map(|&n| buf.received(n))
            .collect();
        self.buf = buf;
        self.pushed = pushed;
        self.finish_sent = finish_sent;
        if finish_sent {
            self.shared.finished.store(true, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The worker loop. Exits on Shutdown, on a closed queue (the
    /// daemon dropped it — the `hard_abort` path), or by panicking on
    /// an injected Crash.
    fn run(mut self) {
        loop {
            let mut shutdown: Option<bool> = None;
            match self.rx.recv_timeout(Duration::from_millis(25)) {
                Ok(msg) => shutdown = self.handle(msg),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return, // hard abort: no checkpoint
            }
            // Fold in everything else already queued before running the
            // engine once over the enlarged frontier.
            while shutdown.is_none() {
                match self.rx.try_recv() {
                    Ok(msg) => shutdown = self.handle(msg),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return,
                }
            }
            self.advance();
            match shutdown {
                Some(true) => {
                    self.checkpoint(true);
                    return;
                }
                Some(false) => return,
                None => {}
            }
            self.maybe_checkpoint();
            self.send_acks();
        }
    }

    /// Returns `Some(drain)` on Shutdown.
    fn handle(&mut self, msg: TenantMsg) -> Option<bool> {
        match msg {
            TenantMsg::Reading { node, seq, value } => {
                self.shared.depth.fetch_sub(1, Ordering::Relaxed);
                self.stats.depth.fetch_sub(1, Ordering::Relaxed);
                snod_obs::counter!("serve.ingest.readings").incr();
                match self.buf.push(NodeId(node), seq, value) {
                    PushOutcome::Accepted => {}
                    PushOutcome::Duplicate => {
                        snod_obs::counter!("serve.ingest.duplicates").incr();
                        let dups = self.buf.duplicates();
                        self.stats
                            .duplicates
                            .fetch_add(dups - self.dups_reported, Ordering::Relaxed);
                        self.dups_reported = dups;
                    }
                    PushOutcome::UnknownNode | PushOutcome::BeyondEnd => {
                        snod_obs::counter!("serve.ingest.rejected").incr();
                    }
                }
            }
            TenantMsg::Finish { totals } => {
                for (node, total) in totals {
                    if !self.buf.finish(NodeId(node), total) {
                        snod_obs::counter!("serve.ingest.finish_conflicts").incr();
                    }
                }
            }
            TenantMsg::Attach(sink) => {
                // Fresh attachment (often a reconnect): immediately tell
                // the client where this tenant stands so it can trim and
                // replay its resend buffer.
                let _ = sink.tx.send(Msg::Ack {
                    handle: sink.handle,
                    acks: self.ack_rows(),
                });
                if self.finish_sent {
                    let _ = sink.tx.send(Msg::FinishOk {
                        handle: sink.handle,
                    });
                }
                self.sinks.retain(|s| s.conn_id != sink.conn_id || s.handle != sink.handle);
                self.sinks.push(sink);
            }
            TenantMsg::Detach { conn_id } => {
                self.sinks.retain(|s| s.conn_id != conn_id);
            }
            TenantMsg::Query(sink) => {
                let mut rows = Vec::new();
                for (node, engine) in self.rt.apps() {
                    for d in B::detections(engine) {
                        rows.push((node.0, d.time_ns, d.level, d.value.clone()));
                    }
                }
                let _ = sink.tx.send(Msg::Detections {
                    handle: sink.handle,
                    rows,
                });
            }
            TenantMsg::Crash => panic!("injected tenant crash ({})", self.name),
            TenantMsg::Shutdown { drain } => return Some(drain),
        }
        None
    }

    /// Advances the runtime over every complete wave (see module docs).
    fn advance(&mut self) {
        let stop = if self.buf.all_finished() {
            u64::MAX
        } else {
            let w = self.buf.frontier();
            if w == 0 {
                return;
            }
            w.saturating_mul(self.cfg.spec.reading_period_ns)
                .saturating_sub(1)
        };
        let before = self.buf.consumed_total();
        self.rt.run_until(&mut self.buf, u64::MAX, stop);
        let processed = self.buf.consumed_total() - before;
        if processed > 0 {
            self.since_ckpt += processed;
            self.dirty = true;
            self.shared
                .processed
                .store(self.buf.consumed_total(), Ordering::Relaxed);
        }
        self.push_new_detections();
        if stop == u64::MAX && !self.finish_sent {
            // Fully drained: make the final state durable before
            // declaring the stream complete.
            self.checkpoint(true);
            self.finish_sent = true;
            self.shared.finished.store(true, Ordering::Relaxed);
            self.send_acks();
            let sinks = std::mem::take(&mut self.sinks);
            self.sinks = sinks
                .into_iter()
                .filter(|s| s.tx.send(Msg::FinishOk { handle: s.handle }).is_ok())
                .collect();
        }
    }

    fn push_new_detections(&mut self) {
        let mut fresh: Vec<(u32, u64, u8, Vec<f64>)> = Vec::new();
        for (node, engine) in self.rt.apps() {
            let seen = self.pushed[node.index()] as usize;
            for d in &B::detections(engine)[seen..] {
                fresh.push((node.0, d.time_ns, d.level, d.value.clone()));
            }
        }
        if fresh.is_empty() {
            return;
        }
        for (node, engine) in self.rt.apps() {
            self.pushed[node.index()] = B::detections(engine).len() as u64;
        }
        for (node, time_ns, level, _) in &fresh {
            snod_obs::counter!("serve.escalations").incr();
            self.esc_log.push(EscalationRecord {
                tenant: self.name.clone(),
                node: *node,
                time_ns: *time_ns,
                level: *level,
            });
        }
        self.sinks.retain(|s| {
            if !s.subscribe {
                return true;
            }
            fresh.iter().all(|(node, time_ns, level, value)| {
                s.tx
                    .send(Msg::Escalation {
                        handle: s.handle,
                        node: *node,
                        time_ns: *time_ns,
                        level: *level,
                        value: value.clone(),
                    })
                    .is_ok()
            })
        });
    }

    fn ack_rows(&self) -> Vec<(u32, u64, u64)> {
        self.rt
            .topology()
            .leaves()
            .iter()
            .enumerate()
            .map(|(i, &n)| (n.0, self.buf.received(n), self.durable[i]))
            .collect()
    }

    fn send_acks(&mut self) {
        // Without a checkpoint directory nothing is ever more durable
        // than "received": report the contiguous mark for both.
        if self.cfg.ckpt_path.is_none() {
            for (i, &n) in self.rt.topology().leaves().iter().enumerate() {
                self.durable[i] = self.buf.received(n);
            }
        }
        let now: Vec<(u64, u64)> = self
            .rt
            .topology()
            .leaves()
            .iter()
            .enumerate()
            .map(|(i, &n)| (self.buf.received(n), self.durable[i]))
            .collect();
        if now == self.last_acked {
            return;
        }
        self.last_acked = now;
        let acks = self.ack_rows();
        self.sinks.retain(|s| {
            s.tx
                .send(Msg::Ack {
                    handle: s.handle,
                    acks: acks.clone(),
                })
                .is_ok()
        });
    }

    fn maybe_checkpoint(&mut self) {
        let due = (self.cfg.checkpoint_every > 0 && self.since_ckpt >= self.cfg.checkpoint_every)
            || (self.dirty && self.last_ckpt.elapsed() >= self.cfg.checkpoint_interval);
        if due {
            self.checkpoint(false);
        }
    }

    fn checkpoint(&mut self, force: bool) {
        if !force && !self.dirty {
            return;
        }
        if let Some(path) = self.cfg.ckpt_path.clone() {
            let mut w = ByteWriter::new();
            self.buf.save(&mut w);
            self.pushed.save(&mut w);
            self.finish_sent.save(&mut w);
            self.rt.checkpoint().save(&mut w);
            if let Err(e) = snod_persist::write_checkpoint_file(&path, &w.into_bytes()) {
                eprintln!("snod-serve: tenant {} checkpoint failed: {e}", self.name);
                return;
            }
            snod_obs::counter!("serve.checkpoints").incr();
            self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        for (i, &n) in self.rt.topology().leaves().iter().enumerate() {
            self.durable[i] = self.buf.received(n);
        }
        self.since_ckpt = 0;
        self.dirty = false;
        self.last_ckpt = Instant::now();
        self.shared
            .last_ckpt_ms
            .store(self.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
    }
}
