//! The daemon: listener, connection supervision, tenant registry and
//! lifecycle.
//!
//! ## Supervision and backpressure
//!
//! The accept loop is non-blocking with exponential backoff on listener
//! errors. Each connection gets a reader thread (with a read-poll
//! timeout, so shutdown and the slow-loris frame deadline are both
//! observed) and a writer thread fed by an unbounded channel. Tenant
//! workers hang off **bounded** queues: a full queue sheds the reading
//! — counted, surfaced in metrics, and *unacked*, so the at-least-once
//! client replays it later. A worker that panics is respawned from its
//! last checkpoint by the supervisor sweep (or on demand by the first
//! connection that notices the dead queue), and previously attached
//! connections are re-attached so acks keep flowing.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] stops accepting, lets workers drain their
//! queues, writes final checkpoints and joins everything.
//! [`ServerHandle::hard_abort`] is the crash path used by the restart
//! tests: it drops the worker queues without any drain or final
//! checkpoint, leaving the checkpoint directory exactly as a `kill -9`
//! would — recovery must work from periodic checkpoints alone.

use std::collections::HashMap;
use std::io::Read;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::{valid_tenant_name, ServeConfig};
use crate::error::ServeError;
use crate::stats::{DaemonStats, EscalationLog, EscalationRecord, ServeStats};
use crate::tenant::{ConnSink, TenantMsg, TenantShared, WorkerConfig, WorkerSeed};
use crate::wire::{encode_frame, error_code, FrameDecoder, Msg};

pub(crate) struct TenantEntry {
    tx: SyncSender<TenantMsg>,
    shared: Arc<TenantShared>,
    join: JoinHandle<()>,
    /// Attachments to re-establish when the worker is respawned.
    sinks: Vec<ConnSink>,
    hellos: u64,
}

#[derive(Default)]
pub(crate) struct Registry {
    tenants: HashMap<String, TenantEntry>,
}

pub(crate) struct Inner {
    cfg: ServeConfig,
    pub(crate) stats: Arc<DaemonStats>,
    pub(crate) registry: Mutex<Registry>,
    pub(crate) shutdown: AtomicBool,
    epoch: Instant,
    pub(crate) esc_log: Arc<EscalationLog>,
    conn_seq: AtomicU64,
}

impl Inner {
    pub(crate) fn tenant_count(&self) -> usize {
        self.registry.lock().expect("registry lock").tenants.len()
    }

    fn worker_config(&self, name: &str) -> WorkerConfig {
        WorkerConfig {
            spec: self.cfg.tenant.clone(),
            ckpt_path: self
                .cfg
                .checkpoint_dir
                .as_ref()
                .map(|d| d.join(format!("{name}.ckpt"))),
            checkpoint_every: self.cfg.checkpoint_every,
            checkpoint_interval: self.cfg.checkpoint_interval,
        }
    }

    fn spawn_entry(self: &Arc<Self>, name: &str, sinks: Vec<ConnSink>) -> TenantEntry {
        let (tx, rx) = mpsc::sync_channel::<TenantMsg>(self.cfg.queue_capacity.max(1));
        let shared = Arc::new(TenantShared::default());
        let join = WorkerSeed {
            name: name.to_string(),
            cfg: self.worker_config(name),
            rx,
            shared: Arc::clone(&shared),
            stats: Arc::clone(&self.stats),
            esc_log: Arc::clone(&self.esc_log),
            epoch: self.epoch,
        }
        .spawn();
        for sink in &sinks {
            let _ = tx.try_send(TenantMsg::Attach(sink.clone()));
        }
        TenantEntry {
            tx,
            shared,
            join,
            sinks,
            hellos: 0,
        }
    }

    /// Resolves (or creates, or respawns) a tenant for a Hello.
    /// Returns `(queue, shared, resumed)` or a protocol error code.
    fn ensure_tenant(
        self: &Arc<Self>,
        name: &str,
    ) -> Result<(SyncSender<TenantMsg>, Arc<TenantShared>, bool), u8> {
        let mut reg = self.registry.lock().expect("registry lock");
        if let Some(entry) = reg.tenants.get(name) {
            if !entry.join.is_finished() {
                return Ok((entry.tx.clone(), Arc::clone(&entry.shared), true));
            }
        }
        if let Some(dead) = reg.tenants.remove(name) {
            // Crashed worker: warm restart from its last checkpoint.
            let _ = dead.join.join();
            self.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
            snod_obs::counter!("serve.worker.restarts").incr();
            let mut entry = self.spawn_entry(name, dead.sinks);
            entry.hellos = dead.hellos;
            let out = (entry.tx.clone(), Arc::clone(&entry.shared), true);
            reg.tenants.insert(name.to_string(), entry);
            return Ok(out);
        }
        if reg.tenants.len() >= self.cfg.max_tenants {
            return Err(error_code::TENANT_LIMIT);
        }
        let resumed = self
            .worker_config(name)
            .ckpt_path
            .is_some_and(|p| p.exists());
        let entry = self.spawn_entry(name, Vec::new());
        let out = (entry.tx.clone(), Arc::clone(&entry.shared), resumed);
        reg.tenants.insert(name.to_string(), entry);
        Ok(out)
    }

    /// Replaces a dead worker (noticed via a disconnected queue).
    /// Returns the fresh queue, or None during shutdown.
    fn respawn(self: &Arc<Self>, name: &str) -> Option<SyncSender<TenantMsg>> {
        if self.shutdown.load(Ordering::Relaxed) {
            return None;
        }
        let mut reg = self.registry.lock().expect("registry lock");
        let entry = reg.tenants.get(name)?;
        if !entry.join.is_finished() {
            return Some(entry.tx.clone());
        }
        let dead = reg.tenants.remove(name)?;
        let _ = dead.join.join();
        self.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
        snod_obs::counter!("serve.worker.restarts").incr();
        let mut entry = self.spawn_entry(name, dead.sinks);
        entry.hellos = dead.hellos;
        let tx = entry.tx.clone();
        reg.tenants.insert(name.to_string(), entry);
        Some(tx)
    }

    fn detach_conn(&self, conn_id: u64, names: &[String]) {
        let mut reg = self.registry.lock().expect("registry lock");
        for name in names {
            if let Some(entry) = reg.tenants.get_mut(name) {
                entry.sinks.retain(|s| s.conn_id != conn_id);
                let _ = entry.tx.try_send(TenantMsg::Detach { conn_id });
            }
        }
    }

    pub(crate) fn snapshot(&self) -> ServeStats {
        let s = &self.stats;
        ServeStats {
            queued: s.depth.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            duplicates: s.duplicates.load(Ordering::Relaxed),
            reconnects: s.reconnects.load(Ordering::Relaxed),
            worker_restarts: s.worker_restarts.load(Ordering::Relaxed),
            wire_errors: s.wire_errors.load(Ordering::Relaxed),
            frames: s.frames.load(Ordering::Relaxed),
            connections: s.connections.load(Ordering::Relaxed),
            slow_loris_drops: s.slow_loris_drops.load(Ordering::Relaxed),
            checkpoints: s.checkpoints.load(Ordering::Relaxed),
            tenants: self.tenant_count(),
            escalations: self.esc_log.total(),
        }
    }
}

/// A running daemon. Dropping the handle hard-aborts (no drain, no
/// final checkpoints) — call [`ServerHandle::shutdown`] for the
/// graceful path.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

/// Starts the daemon. Binds the ingestion listener (and the metrics
/// listener when configured), spawns the accept loop and the
/// supervisor sweep, and returns immediately.
pub fn serve(cfg: ServeConfig) -> Result<ServerHandle, ServeError> {
    cfg.tenant.validate()?; // validate the tenant template up front
    if let Some(dir) = &cfg.checkpoint_dir {
        std::fs::create_dir_all(dir)?;
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let metrics_listener = match &cfg.metrics_addr {
        Some(a) => {
            let l = TcpListener::bind(a)?;
            l.set_nonblocking(true)?;
            Some(l)
        }
        None => None,
    };
    let metrics_addr = metrics_listener
        .as_ref()
        .map(|l| l.local_addr())
        .transpose()?;
    let inner = Arc::new(Inner {
        cfg,
        stats: Arc::new(DaemonStats::default()),
        registry: Mutex::new(Registry::default()),
        shutdown: AtomicBool::new(false),
        epoch: Instant::now(),
        esc_log: Arc::new(EscalationLog::default()),
        conn_seq: AtomicU64::new(0),
    });
    let mut threads = Vec::new();
    {
        let inner = Arc::clone(&inner);
        threads.push(
            std::thread::Builder::new()
                .name("snod-accept".into())
                .spawn(move || accept_loop(inner, listener))
                .expect("spawn accept loop"),
        );
    }
    {
        let inner = Arc::clone(&inner);
        threads.push(
            std::thread::Builder::new()
                .name("snod-supervisor".into())
                .spawn(move || supervisor_loop(inner))
                .expect("spawn supervisor"),
        );
    }
    if let Some(l) = metrics_listener {
        let inner = Arc::clone(&inner);
        threads.push(
            std::thread::Builder::new()
                .name("snod-metrics".into())
                .spawn(move || crate::http::metrics_loop(inner, l))
                .expect("spawn metrics endpoint"),
        );
    }
    Ok(ServerHandle {
        addr,
        metrics_addr,
        inner,
        threads,
    })
}

impl ServerHandle {
    /// The bound ingestion address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics address, when enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Current daemon health counters.
    pub fn stats(&self) -> ServeStats {
        self.inner.snapshot()
    }

    /// Recent escalations (the `/escalations` ring).
    pub fn recent_escalations(&self) -> Vec<EscalationRecord> {
        self.inner.esc_log.recent()
    }

    /// Graceful stop: stop accepting, drain every tenant queue, write
    /// final checkpoints, join all threads.
    pub fn shutdown(mut self) {
        self.stop(true);
    }

    /// Crash stop: drop worker queues with no drain and no final
    /// checkpoint. The checkpoint directory is left exactly as a
    /// `kill -9` at this instant would leave it — the restart tests
    /// recover from this state.
    pub fn hard_abort(mut self) {
        self.stop(false);
    }

    fn stop(&mut self, drain: bool) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let entries: Vec<(String, TenantEntry)> = {
            let mut reg = self.inner.registry.lock().expect("registry lock");
            reg.tenants.drain().collect()
        };
        if drain {
            for (_, e) in &entries {
                let _ = e.tx.send(TenantMsg::Shutdown { drain: true });
            }
        }
        for (_, e) in entries {
            // Without drain the queue sender drops here un-sent: the
            // worker sees a dead queue and exits with no checkpoint.
            drop(e.tx);
            let _ = e.join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop(false);
    }
}

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    let mut backoff = Duration::from_millis(10);
    loop {
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff = Duration::from_millis(10);
                inner.stats.connections.fetch_add(1, Ordering::Relaxed);
                snod_obs::counter!("serve.connections").incr();
                let inner = Arc::clone(&inner);
                let _ = std::thread::Builder::new()
                    .name("snod-conn".into())
                    .spawn(move || run_conn(inner, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => {
                // Transient listener failure: exponential backoff.
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(1));
            }
        }
    }
}

/// Periodic sweep: respawn crashed workers, refresh health gauges.
fn supervisor_loop(inner: Arc<Inner>) {
    loop {
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let mut dead: Vec<String> = Vec::new();
        let mut max_age_ms = 0u64;
        let now_ms = inner.epoch.elapsed().as_millis() as u64;
        {
            let reg = inner.registry.lock().expect("registry lock");
            for (name, entry) in &reg.tenants {
                if entry.join.is_finished() {
                    dead.push(name.clone());
                } else if inner.cfg.checkpoint_dir.is_some() {
                    let last = entry.shared.last_ckpt_ms.load(Ordering::Relaxed);
                    max_age_ms = max_age_ms.max(now_ms.saturating_sub(last));
                }
            }
        }
        for name in dead {
            let _ = inner.respawn(&name);
        }
        if snod_obs::enabled() {
            let s = &inner.stats;
            snod_obs::gauge!("serve.queue.depth").set(s.depth.load(Ordering::Relaxed));
            snod_obs::gauge!("serve.shed.count").set(s.shed.load(Ordering::Relaxed));
            snod_obs::gauge!("serve.reconnects").set(s.reconnects.load(Ordering::Relaxed));
            snod_obs::gauge!("serve.checkpoint.age_ms").set(max_age_ms);
            snod_obs::gauge!("serve.tenants").set(inner.tenant_count() as u64);
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// A tenant as one connection sees it.
struct LocalTenant {
    name: String,
    tx: SyncSender<TenantMsg>,
    shared: Arc<TenantShared>,
}

fn run_conn(inner: Arc<Inner>, stream: TcpStream) {
    let conn_id = inner.conn_seq.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (out_tx, out_rx) = mpsc::channel::<Msg>();
    let writer = std::thread::Builder::new()
        .name("snod-conn-writer".into())
        .spawn(move || {
            let mut write_half = write_half;
            while let Ok(msg) = out_rx.recv() {
                if write_half.write_all(&encode_frame(&msg)).is_err() {
                    return;
                }
            }
            let _ = write_half.flush();
        })
        .expect("spawn conn writer");

    let mut reader = ConnReader {
        inner: &inner,
        conn_id,
        out_tx: out_tx.clone(),
        locals: Vec::new(),
    };
    reader.read_loop(stream);
    let names: Vec<String> = reader.locals.iter().map(|l| l.name.clone()).collect();
    inner.detach_conn(conn_id, &names);
    drop(reader);
    drop(out_tx); // writer drains queued frames, then exits
    let _ = writer.join();
}

struct ConnReader<'a> {
    inner: &'a Arc<Inner>,
    conn_id: u64,
    out_tx: mpsc::Sender<Msg>,
    locals: Vec<LocalTenant>,
}

impl ConnReader<'_> {
    fn read_loop(&mut self, mut stream: TcpStream) {
        let mut dec = FrameDecoder::new();
        let mut partial_since: Option<Instant> = None;
        let mut rbuf = [0u8; 16 * 1024];
        loop {
            if self.inner.shutdown.load(Ordering::Relaxed) {
                return;
            }
            match stream.read(&mut rbuf) {
                Ok(0) => return,
                Ok(n) => {
                    dec.feed(&rbuf[..n]);
                    loop {
                        match dec.next_frame() {
                            Ok(Some(msg)) => {
                                self.inner.stats.frames.fetch_add(1, Ordering::Relaxed);
                                snod_obs::counter!("serve.frames").incr();
                                if !self.handle(msg) {
                                    return;
                                }
                            }
                            Ok(None) => break,
                            Err(e) => {
                                self.inner.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                                snod_obs::counter!("serve.wire_errors").incr();
                                let _ = self.out_tx.send(Msg::Error {
                                    code: error_code::MALFORMED_FRAME,
                                    message: e.to_string(),
                                });
                                return;
                            }
                        }
                    }
                    partial_since = if dec.buffered() > 0 {
                        partial_since.or_else(|| Some(Instant::now()))
                    } else {
                        None
                    };
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => return,
            }
            if let Some(t0) = partial_since {
                // Slow-loris guard: a frame must complete within the
                // deadline, however slowly its bytes trickle in. Idle
                // connections (no partial frame) are never dropped.
                if t0.elapsed() > self.inner.cfg.frame_deadline {
                    self.inner
                        .stats
                        .slow_loris_drops
                        .fetch_add(1, Ordering::Relaxed);
                    snod_obs::counter!("serve.slow_loris_drops").incr();
                    return;
                }
            }
        }
    }

    fn error(&self, code: u8, message: impl Into<String>) {
        let _ = self.out_tx.send(Msg::Error {
            code,
            message: message.into(),
        });
    }

    /// Handles one decoded frame; false closes the connection.
    fn handle(&mut self, msg: Msg) -> bool {
        match msg {
            Msg::Hello { tenant, subscribe } => self.hello(&tenant, subscribe),
            Msg::Reading {
                handle,
                node,
                seq,
                value,
            } => self.reading(handle, node, seq, value),
            Msg::Finish { handle, totals } => self.control(handle, TenantMsg::Finish { totals }),
            Msg::Query { handle } => {
                let sink = ConnSink {
                    conn_id: self.conn_id,
                    handle,
                    subscribe: false,
                    tx: self.out_tx.clone(),
                };
                self.control(handle, TenantMsg::Query(sink))
            }
            Msg::Crash { handle } => {
                if !self.inner.cfg.allow_crash_frames {
                    self.error(error_code::CRASH_DISABLED, "crash frames disabled");
                    return true;
                }
                self.control(handle, TenantMsg::Crash)
            }
            Msg::Ping => self.out_tx.send(Msg::Pong).is_ok(),
            // Server-side frames arriving at the server are misuse.
            _ => {
                self.error(error_code::MALFORMED_FRAME, "unexpected server frame");
                false
            }
        }
    }

    fn hello(&mut self, tenant: &str, subscribe: bool) -> bool {
        if !valid_tenant_name(tenant) {
            self.error(error_code::BAD_TENANT_NAME, "invalid tenant name");
            return false;
        }
        let (tx, shared, resumed) = match self.inner.ensure_tenant(tenant) {
            Ok(t) => t,
            Err(code) => {
                self.error(code, "tenant rejected");
                return false;
            }
        };
        let handle = self.locals.len() as u32;
        {
            let mut reg = self.inner.registry.lock().expect("registry lock");
            if let Some(entry) = reg.tenants.get_mut(tenant) {
                entry.hellos += 1;
                if entry.hellos > 1 {
                    self.inner.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                    snod_obs::counter!("serve.reconnects").incr();
                }
                let sink = ConnSink {
                    conn_id: self.conn_id,
                    handle,
                    subscribe,
                    tx: self.out_tx.clone(),
                };
                entry.sinks.push(sink.clone());
                let _ = entry.tx.send(TenantMsg::Attach(sink));
            }
        }
        self.locals.push(LocalTenant {
            name: tenant.to_string(),
            tx,
            shared,
        });
        self.out_tx.send(Msg::HelloOk { handle, resumed }).is_ok()
    }

    fn reading(&mut self, handle: u32, node: u32, seq: u64, value: Vec<f64>) -> bool {
        let Some(local) = self.locals.get_mut(handle as usize) else {
            self.error(error_code::UNKNOWN_HANDLE, "unknown handle");
            return false;
        };
        local.shared.depth.fetch_add(1, Ordering::Relaxed);
        self.inner.stats.depth.fetch_add(1, Ordering::Relaxed);
        match local.tx.try_send(TenantMsg::Reading { node, seq, value }) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                // Load shedding: drop, count, do not ack — the client's
                // resend pass retransmits once the queue drains.
                local.shared.depth.fetch_sub(1, Ordering::Relaxed);
                self.inner.stats.depth.fetch_sub(1, Ordering::Relaxed);
                self.inner.stats.shed.fetch_add(1, Ordering::Relaxed);
                snod_obs::counter!("serve.shed").incr();
                true
            }
            Err(TrySendError::Disconnected(m)) => {
                local.shared.depth.fetch_sub(1, Ordering::Relaxed);
                self.inner.stats.depth.fetch_sub(1, Ordering::Relaxed);
                // Worker crashed: respawn from checkpoint and retry once.
                match self.inner.respawn(&local.name) {
                    Some(tx) => {
                        local.tx = tx;
                        local.shared.depth.fetch_add(1, Ordering::Relaxed);
                        self.inner.stats.depth.fetch_add(1, Ordering::Relaxed);
                        if local.tx.try_send(m).is_err() {
                            local.shared.depth.fetch_sub(1, Ordering::Relaxed);
                            self.inner.stats.depth.fetch_sub(1, Ordering::Relaxed);
                            self.inner.stats.shed.fetch_add(1, Ordering::Relaxed);
                            snod_obs::counter!("serve.shed").incr();
                        }
                        true
                    }
                    None => true, // shutting down; reading is lost (unacked)
                }
            }
        }
    }

    /// Routes a control message (Finish/Query/Crash): blocking send so
    /// it is never shed, with one respawn retry if the worker died.
    fn control(&mut self, handle: u32, msg: TenantMsg) -> bool {
        let Some(local) = self.locals.get_mut(handle as usize) else {
            self.error(error_code::UNKNOWN_HANDLE, "unknown handle");
            return false;
        };
        match local.tx.send(msg) {
            Ok(()) => true,
            Err(mpsc::SendError(m)) => match self.inner.respawn(&local.name) {
                Some(tx) => {
                    local.tx = tx;
                    local.tx.send(m).is_ok() || {
                        self.error(error_code::UNKNOWN_HANDLE, "tenant unavailable");
                        true
                    }
                }
                None => true,
            },
        }
    }
}
