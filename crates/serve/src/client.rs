//! A resilient single-threaded client for `snod serve`.
//!
//! The client owns the at-least-once half of the ingestion contract:
//! every reading stays in a resend buffer until the server acks it as
//! `durable` (covered by an on-disk checkpoint; without a checkpoint
//! directory the server reports `durable == received`). On any
//! connection failure the client redials with backoff, re-Hellos every
//! tenant **in open order** — which makes its locally predicted handles
//! match the server's dense per-connection assignment — and replays the
//! entire unpruned buffer. The server's sequence-number dedup absorbs
//! the overlap, so retransmission is always safe.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::wire::{encode_frame, FrameDecoder, Msg};

/// One detection or escalation as reported by the daemon:
/// `(node, time_ns, level, value)`.
pub type DetectionRow = (u32, u64, u8, Vec<f64>);

/// Client knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address.
    pub addr: String,
    /// Readings the server has not acked as received are retransmitted
    /// once the ack stream *stalls* for this long (covers load-shedding
    /// drops). A backlogged-but-progressing server is never re-sent to:
    /// blind cadence-based retransmission of in-flight rows is what the
    /// server's dedup counter used to book as hundreds of thousands of
    /// "duplicates" on a perfectly clean run.
    pub resend_interval: Duration,
    /// Initial redial backoff after a connection failure.
    pub connect_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Subscribe to live escalation frames.
    pub subscribe: bool,
}

impl ClientConfig {
    /// Defaults for `addr`.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            resend_interval: Duration::from_millis(300),
            connect_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(1),
            subscribe: false,
        }
    }
}

#[derive(Debug, Default)]
struct TenantState {
    name: String,
    /// Resend buffer: rows not yet covered by a durable ack.
    sent: Vec<(u32, u64, Vec<f64>)>,
    /// Per-node `(received, durable)` marks from the latest ack.
    marks: HashMap<u32, (u64, u64)>,
    totals: Option<Vec<(u32, u64)>>,
    finished: bool,
    resumed: Option<bool>,
    escalations: Vec<DetectionRow>,
    detections: Option<Vec<DetectionRow>>,
    detections_version: u64,
}

/// See the module docs.
pub struct ServeClient {
    cfg: ClientConfig,
    conn: Option<(TcpStream, FrameDecoder)>,
    tenants: Vec<TenantState>,
    /// Last time the ack stream made progress (a received mark
    /// advanced, or nothing was outstanding). Resends fire only when
    /// this goes stale — see [`ClientConfig::resend_interval`].
    last_progress: Instant,
    /// Current stall threshold: `resend_interval`, doubled after every
    /// resend pass that still sees no progress, reset on progress.
    resend_wait: Duration,
    /// Whether any ack arrived on the current connection. Until one
    /// does, a quiet period is indistinguishable from server warm-up —
    /// and nothing can have been lost that a resend would fix (only
    /// load-shedding drops rows on a live connection, and spotting a
    /// shed requires ack flow in the first place) — so stalls are only
    /// called once the ack stream has started.
    acked_since_dial: bool,
    backoff: Duration,
    next_dial: Instant,
    last_error: Option<(u8, String)>,
    reconnects: u64,
    ever_connected: bool,
}

impl ServeClient {
    pub fn new(cfg: ClientConfig) -> Self {
        let backoff = cfg.connect_backoff;
        let resend_wait = cfg.resend_interval;
        Self {
            cfg,
            conn: None,
            tenants: Vec::new(),
            last_progress: Instant::now(),
            resend_wait,
            acked_since_dial: false,
            backoff,
            next_dial: Instant::now(),
            last_error: None,
            reconnects: 0,
            ever_connected: false,
        }
    }

    /// Opens (or re-opens, after a client restart) a tenant stream.
    /// Returns the handle used by every other method.
    pub fn open(&mut self, tenant: impl Into<String>) -> u32 {
        let handle = self.tenants.len() as u32;
        self.tenants.push(TenantState {
            name: tenant.into(),
            ..TenantState::default()
        });
        if self.conn.is_some() {
            self.send_frame(&Msg::Hello {
                tenant: self.tenants[handle as usize].name.clone(),
                subscribe: self.cfg.subscribe,
            });
        }
        handle
    }

    /// Buffers and transmits one reading (at-least-once).
    pub fn send(&mut self, handle: u32, node: u32, seq: u64, value: Vec<f64>) {
        // Dial (and replay the backlog) *before* buffering this row:
        // buffering first would make the dial's catch-up replay include
        // it and the frame below would then be its duplicate.
        self.ensure_conn();
        let t = &mut self.tenants[handle as usize];
        let durable = t.marks.get(&node).map_or(0, |m| m.1);
        if seq >= durable {
            t.sent.push((node, seq, value.clone()));
        }
        self.send_frame(&Msg::Reading {
            handle,
            node,
            seq,
            value,
        });
    }

    /// Declares the per-leaf stream totals.
    pub fn finish(&mut self, handle: u32, totals: Vec<(u32, u64)>) {
        self.tenants[handle as usize].totals = Some(totals.clone());
        self.ensure_conn();
        self.send_frame(&Msg::Finish { handle, totals });
    }

    /// Drives the connection for `wait`: reads frames, retransmits
    /// unacked readings, reconnects as needed.
    pub fn pump(&mut self, wait: Duration) {
        let deadline = Instant::now() + wait;
        loop {
            self.ensure_conn();
            self.read_frames();
            self.maybe_resend();
            if Instant::now() >= deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Pumps until the server confirms the tenant's stream is complete.
    pub fn wait_finished(&mut self, handle: u32, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.tenants[handle as usize].finished {
            if Instant::now() >= deadline {
                return false;
            }
            self.pump(Duration::from_millis(20));
        }
        true
    }

    /// Fetches the tenant's full detection list.
    pub fn query(&mut self, handle: u32, timeout: Duration) -> Option<Vec<DetectionRow>> {
        let want = self.tenants[handle as usize].detections_version + 1;
        let deadline = Instant::now() + timeout;
        let mut last_ask = Instant::now() - Duration::from_secs(1);
        while self.tenants[handle as usize].detections_version < want {
            if Instant::now() >= deadline {
                return None;
            }
            if last_ask.elapsed() >= Duration::from_millis(200) {
                self.ensure_conn();
                self.send_frame(&Msg::Query { handle });
                last_ask = Instant::now();
            }
            self.pump(Duration::from_millis(20));
        }
        self.tenants[handle as usize].detections.clone()
    }

    /// Escalation frames received so far (requires `subscribe`).
    pub fn escalations(&self, handle: u32) -> &[DetectionRow] {
        &self.tenants[handle as usize].escalations
    }

    /// Whether the server reported the tenant as resumed from a
    /// checkpoint at the last Hello.
    pub fn resumed(&self, handle: u32) -> Option<bool> {
        self.tenants[handle as usize].resumed
    }

    /// The last protocol error frame received, if any.
    pub fn last_error(&self) -> Option<&(u8, String)> {
        self.last_error.as_ref()
    }

    /// Successful redials after a lost connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Readings buffered awaiting a durable ack.
    pub fn unacked(&self, handle: u32) -> usize {
        self.tenants[handle as usize].sent.len()
    }

    /// Requests an injected worker panic (the daemon must enable
    /// crash frames).
    pub fn inject_crash(&mut self, handle: u32) {
        self.ensure_conn();
        self.send_frame(&Msg::Crash { handle });
    }

    fn ensure_conn(&mut self) {
        if self.conn.is_some() || Instant::now() < self.next_dial {
            return;
        }
        match TcpStream::connect(&self.cfg.addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
                self.conn = Some((stream, FrameDecoder::new()));
                self.backoff = self.cfg.connect_backoff;
                if self.ever_connected {
                    self.reconnects += 1;
                } else {
                    self.ever_connected = true;
                }
                // Re-Hello every tenant in open order so server handles
                // match ours, then retransmit what the server lacks.
                for i in 0..self.tenants.len() {
                    let hello = Msg::Hello {
                        tenant: self.tenants[i].name.clone(),
                        subscribe: self.cfg.subscribe,
                    };
                    self.send_frame(&hello);
                }
                self.resend_unreceived();
                // The replay above is the reconnect catch-up; give the
                // server a full quiet interval before calling a stall.
                self.last_progress = Instant::now();
                self.resend_wait = self.cfg.resend_interval;
                self.acked_since_dial = false;
            }
            Err(_) => {
                self.next_dial = Instant::now() + self.backoff;
                self.backoff = (self.backoff * 2).min(self.cfg.max_backoff);
            }
        }
    }

    /// Retransmits every row the server has not acked as *received*,
    /// plus the Finish totals. Rows between `durable` and `received`
    /// stay buffered but are not re-sent here: if the server crashes
    /// and loses them, its Attach-ack on reconnect rewinds our marks to
    /// the restored state and the next pass picks them up.
    fn resend_unreceived(&mut self) {
        for handle in 0..self.tenants.len() as u32 {
            let t = &self.tenants[handle as usize];
            if t.finished {
                continue;
            }
            let rows: Vec<(u32, u64, Vec<f64>)> = t
                .sent
                .iter()
                .filter(|(node, seq, _)| *seq >= t.marks.get(node).map_or(0, |m| m.0))
                .cloned()
                .collect();
            for (node, seq, value) in rows {
                self.send_frame(&Msg::Reading {
                    handle,
                    node,
                    seq,
                    value,
                });
            }
            if let Some(totals) = self.tenants[handle as usize].totals.clone() {
                self.send_frame(&Msg::Finish { handle, totals });
            }
        }
    }

    /// True if the server still owes us something a retransmission can
    /// nudge: a row not yet acked as received, or a declared Finish the
    /// server has not confirmed (the Finish frame itself can be lost).
    fn has_outstanding(&self) -> bool {
        self.tenants.iter().any(|t| {
            !t.finished
                && (t.totals.is_some()
                    || t.sent
                        .iter()
                        .any(|(node, seq, _)| *seq >= t.marks.get(node).map_or(0, |m| m.0)))
        })
    }

    /// Stall-gated retransmission. Rows in flight to a busy-but-healthy
    /// server keep arriving and advancing the received marks, so the
    /// stall clock keeps resetting and nothing is re-sent (a clean run
    /// produces exactly zero server-side duplicates). A genuinely lost
    /// row — shed under overload, or dropped by a fault — leaves the
    /// marks frozen below it; once they sit still for `resend_wait`,
    /// everything unreceived is replayed. Each fruitless pass doubles
    /// the wait so a slow drain is not hammered with replays.
    fn maybe_resend(&mut self) {
        if self.conn.is_none()
            || !self.acked_since_dial
            || self.last_progress.elapsed() < self.resend_wait
        {
            return;
        }
        if !self.has_outstanding() {
            self.last_progress = Instant::now();
            self.resend_wait = self.cfg.resend_interval;
            return;
        }
        self.last_progress = Instant::now();
        self.resend_wait =
            (self.resend_wait * 2).min(self.cfg.max_backoff.max(self.cfg.resend_interval));
        self.resend_unreceived();
    }

    fn send_frame(&mut self, msg: &Msg) {
        let Some((stream, _)) = self.conn.as_mut() else {
            return;
        };
        if stream.write_all(&encode_frame(msg)).is_err() {
            self.drop_conn();
        }
    }

    fn drop_conn(&mut self) {
        self.conn = None;
        self.next_dial = Instant::now() + self.backoff;
        self.backoff = (self.backoff * 2).min(self.cfg.max_backoff);
    }

    fn read_frames(&mut self) {
        let Some((stream, dec)) = self.conn.as_mut() else {
            return;
        };
        let mut buf = [0u8; 16 * 1024];
        match stream.read(&mut buf) {
            Ok(0) => {
                self.drop_conn();
                return;
            }
            Ok(n) => dec.feed(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                self.drop_conn();
                return;
            }
        }
        loop {
            let frame = {
                let Some((_, dec)) = self.conn.as_mut() else {
                    return;
                };
                dec.next_frame()
            };
            match frame {
                Ok(Some(msg)) => self.handle_frame(msg),
                Ok(None) => return,
                Err(_) => {
                    // A server speaking garbage: drop and redial.
                    self.drop_conn();
                    return;
                }
            }
        }
    }

    fn handle_frame(&mut self, msg: Msg) {
        match msg {
            Msg::HelloOk { handle, resumed } => {
                if let Some(t) = self.tenants.get_mut(handle as usize) {
                    t.resumed = Some(resumed);
                }
            }
            Msg::Ack { handle, acks } => {
                let Some(t) = self.tenants.get_mut(handle as usize) else {
                    return;
                };
                let mut advanced = false;
                for (node, received, durable) in acks {
                    let old = t.marks.get(&node).copied().unwrap_or((0, 0));
                    advanced |= received > old.0 || durable > old.1;
                    t.marks.insert(node, (received, durable));
                }
                if advanced || !self.acked_since_dial {
                    self.last_progress = Instant::now();
                    self.resend_wait = self.cfg.resend_interval;
                }
                self.acked_since_dial = true;
                let t = self
                    .tenants
                    .get_mut(handle as usize)
                    .expect("checked above");
                // Durably acked rows can never be needed again.
                t.sent
                    .retain(|(node, seq, _)| *seq >= t.marks.get(node).map_or(0, |m| m.1));
            }
            Msg::Escalation {
                handle,
                node,
                time_ns,
                level,
                value,
            } => {
                if let Some(t) = self.tenants.get_mut(handle as usize) {
                    t.escalations.push((node, time_ns, level, value));
                }
            }
            Msg::Detections { handle, rows } => {
                if let Some(t) = self.tenants.get_mut(handle as usize) {
                    t.detections = Some(rows);
                    t.detections_version += 1;
                }
            }
            Msg::FinishOk { handle } => {
                if let Some(t) = self.tenants.get_mut(handle as usize) {
                    t.finished = true;
                }
            }
            Msg::Error { code, message } => {
                self.last_error = Some((code, message));
            }
            Msg::Pong => {}
            // Client-side frames arriving at the client: ignore.
            _ => {}
        }
    }
}
