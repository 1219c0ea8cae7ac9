//! The wire-level load generator: plain `TcpStream`s speaking the public
//! `snod_serve::wire` protocol (`encode_frame`, `FrameDecoder`, `Msg`).
//! It is the benchmark's own so that a change to `snod_serve::client`
//! cannot move a number.
//!
//! Two disciplines. The **closed loop** keeps a fixed window of readings
//! in flight per stream and sends the next only when the `received` mark
//! advances (windowing on `durable` with a window below the checkpoint
//! interval would park every tenant on the 2 s interval checkpoint). The
//! **open loop** sends each reading at its precomputed due time, never
//! in response to an ack, and times it from the instant it was due.

use std::cell::Cell;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use snod_serve::wire::{encode_frame, FrameDecoder, Msg};

use crate::inputs::ReadingTable;
use crate::manifest as m;
use crate::oracle::Row;

/// How the 256 leaf streams are grouped into tenants.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub tenants: usize,
    /// Leaves per tenant; stream `s` is leaf `s % leaves` of tenant
    /// `s / leaves`.
    pub leaves: usize,
}

impl Layout {
    pub fn tenant_name(tenant: usize) -> String {
        format!("t{tenant:03}")
    }
}

/// Everything waits at most this long for the daemon before the run is
/// declared failed.
const PATIENCE: Duration = Duration::from_secs(60);
/// How long an idle read blocks before the loop looks around.
const READ_POLL: Duration = Duration::from_millis(50);
/// Closed loop: per-stream ring of send times, deeper than any lag of
/// the `durable` mark.
const RING: usize = 512;

/// What one generator thread saw in one phase.
#[derive(Debug, Default)]
pub struct GenLog {
    /// `(time, readings newly received-acked)`, in time order.
    pub acked: Vec<(u64, u32)>,
    /// `(ack time, ms since the reading was sent — open loop: due)`.
    pub received_ms: Vec<(u64, f32)>,
    pub durable_ms: Vec<(u64, f32)>,
    /// Open loop: `(send time, ms the send left after it was due)`.
    pub late_ms: Vec<(u64, f32)>,
    pub sent: u64,
    pub received: u64,
    pub durable: u64,
    pub ack_frames: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub errors: Vec<String>,
}

impl GenLog {
    pub fn merge(&mut self, other: GenLog) {
        self.acked.extend(other.acked);
        self.acked.sort_unstable_by_key(|e| e.0);
        self.received_ms.extend(other.received_ms);
        self.durable_ms.extend(other.durable_ms);
        self.late_ms.extend(other.late_ms);
        self.sent += other.sent;
        self.received += other.received;
        self.durable += other.durable;
        self.ack_frames += other.ack_frames;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
        self.errors.extend(other.errors);
    }
}

/// The daemon's marks for the streams of one connection.
struct Marks {
    leaves: usize,
    received: Vec<u64>,
    durable: Vec<u64>,
    finished: Vec<bool>,
    rows: Vec<Option<Vec<Row>>>,
}

impl Marks {
    /// Applies one server frame at time `now`; `since` resolves the send
    /// (or due) time of reading `seq` of local stream `s`.
    fn absorb(
        &mut self,
        msg: Msg,
        now: u64,
        since: &dyn Fn(usize, u64) -> Option<u64>,
        log: &mut GenLog,
    ) {
        match msg {
            Msg::Ack { handle, acks } => {
                log.ack_frames += 1;
                let mut newly = 0;
                for (node, received, durable) in acks {
                    let s = handle as usize * self.leaves + node as usize;
                    if s >= self.received.len() {
                        log.errors
                            .push(format!("ack for unknown stream {handle}/{node}"));
                        continue;
                    }
                    let ms =
                        |seq| since(s, seq).map(|t0| (now, now.saturating_sub(t0) as f32 / 1e6));
                    log.received_ms
                        .extend((self.received[s]..received).filter_map(ms));
                    log.durable_ms
                        .extend((self.durable[s]..durable).filter_map(ms));
                    newly += received.saturating_sub(self.received[s]);
                    self.received[s] = self.received[s].max(received);
                    self.durable[s] = self.durable[s].max(durable);
                }
                if newly > 0 {
                    log.acked.push((now, newly as u32));
                }
            }
            Msg::FinishOk { handle } => {
                if let Some(f) = self.finished.get_mut(handle as usize) {
                    *f = true;
                }
            }
            Msg::Detections { handle, rows } => {
                if let Some(slot) = self.rows.get_mut(handle as usize) {
                    *slot = Some(rows);
                }
            }
            Msg::Error { code, message } => {
                log.errors.push(format!("daemon error {code}: {message}"))
            }
            _ => {}
        }
    }
}

/// Blocks up to [`READ_POLL`] for bytes; returns the frames they finish.
fn read_frames(
    stream: &mut TcpStream,
    dec: &mut FrameDecoder,
    rbuf: &mut [u8],
    log: &mut GenLog,
) -> Result<Vec<Msg>, String> {
    let n = match stream.read(rbuf) {
        Ok(0) => return Err("daemon closed the connection".into()),
        Ok(n) => n,
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => 0,
        Err(e) => return Err(format!("read: {e}")),
    };
    log.bytes_in += n as u64;
    dec.feed(&rbuf[..n]);
    let mut out = Vec::new();
    while let Some(msg) = dec.next_frame().map_err(|e| format!("wire: {e}"))? {
        out.push(msg);
    }
    Ok(out)
}

/// When each reading of the open loop is due: reading `k` of the phase
/// (streams round-robin, so `k = (seq − first_seq)·streams + stream`)
/// is due `k · interval` after `start`.
#[derive(Debug, Clone, Copy)]
pub struct DueTable {
    pub start_ns: u64,
    pub interval_ns: u64,
    pub first_seq: u64,
    pub until_seq: u64,
    pub streams: usize,
}

impl DueTable {
    pub fn due_ns(&self, global_stream: usize, seq: u64) -> Option<u64> {
        let k = seq.checked_sub(self.first_seq)? * self.streams as u64 + global_stream as u64;
        Some(self.start_ns + k * self.interval_ns)
    }
}

/// One connection and the contiguous block of tenants it carries.
pub struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    rbuf: Vec<u8>,
    layout: Layout,
    first_tenant: usize,
    /// Per local stream: the next seq to send.
    next: Vec<u64>,
    marks: Marks,
}

impl Conn {
    /// Connects and opens the `c`-th of `SERVE_CONNECTIONS` equal blocks
    /// of tenants; returns once every `HelloOk` is in.
    pub fn open(addr: SocketAddr, layout: Layout, c: usize) -> Result<Self, String> {
        let tenants = layout.tenants / m::SERVE_CONNECTIONS;
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_POLL))
            .map_err(|e| e.to_string())?;
        let streams = tenants * layout.leaves;
        let mut conn = Self {
            stream,
            dec: FrameDecoder::new(),
            rbuf: vec![0; 64 * 1024],
            layout,
            first_tenant: c * tenants,
            next: vec![0; streams],
            marks: Marks {
                leaves: layout.leaves,
                received: vec![0; streams],
                durable: vec![0; streams],
                finished: vec![false; tenants],
                rows: vec![None; tenants],
            },
        };
        let hellos: Vec<u8> = (0..tenants)
            .flat_map(|t| {
                let tenant = Layout::tenant_name(conn.first_tenant + t);
                encode_frame(&Msg::Hello {
                    tenant,
                    subscribe: false,
                })
            })
            .collect();
        conn.stream
            .write_all(&hellos)
            .map_err(|e| format!("hello: {e}"))?;
        let answered = Cell::new(0);
        let count = |msg: &Msg| {
            answered.set(answered.get() + usize::from(matches!(msg, Msg::HelloOk { .. })))
        };
        conn.pump(&mut GenLog::default(), count, |_| answered.get() == tenants)?;
        Ok(conn)
    }

    /// After a restart: true once the daemon's first acks show every
    /// stream restored to `total` received readings.
    pub fn resumed_at(&mut self, total: u64) -> bool {
        self.pump(
            &mut GenLog::default(),
            |_| {},
            |m| m.received.iter().all(|&r| r >= total),
        )
        .is_ok()
    }

    pub fn tenants(&self) -> usize {
        self.marks.finished.len()
    }

    fn first_stream(&self) -> usize {
        self.first_tenant * self.layout.leaves
    }

    /// Reads and applies frames until `done` holds or patience runs out.
    fn pump(
        &mut self,
        log: &mut GenLog,
        mut each: impl FnMut(&Msg),
        mut done: impl FnMut(&Marks) -> bool,
    ) -> Result<(), String> {
        let deadline = Instant::now() + PATIENCE;
        while !done(&self.marks) {
            if Instant::now() > deadline {
                return Err("the daemon stopped answering".into());
            }
            for msg in read_frames(&mut self.stream, &mut self.dec, &mut self.rbuf, log)? {
                each(&msg);
                self.marks.absorb(msg, 0, &|_, _| None, log);
            }
        }
        Ok(())
    }

    fn reading_frame(&self, table: &ReadingTable, s: usize, seq: u64) -> Vec<u8> {
        encode_frame(&Msg::Reading {
            handle: (s / self.layout.leaves) as u32,
            node: (s % self.layout.leaves) as u32,
            seq,
            value: table.value(self.first_stream() + s, seq as usize).to_vec(),
        })
    }

    /// Closed loop: sends every stream's readings `..until`, at most
    /// `window` per stream beyond its `received` mark, and returns when
    /// all are received-acked.
    pub fn closed_loop(
        &mut self,
        table: &ReadingTable,
        until: u64,
        window: u64,
        epoch: Instant,
    ) -> GenLog {
        let mut log = GenLog::default();
        let streams = self.next.len();
        let mut sent_at = vec![0u64; streams * RING];
        let (received0, durable0) = self.progress();
        let deadline = Instant::now() + PATIENCE;
        let mut out = Vec::new();
        loop {
            out.clear();
            let now = epoch.elapsed().as_nanos() as u64;
            for s in 0..streams {
                while self.next[s] < until && self.next[s] - self.marks.received[s] < window {
                    out.extend(self.reading_frame(table, s, self.next[s]));
                    sent_at[s * RING + self.next[s] as usize % RING] = now;
                    self.next[s] += 1;
                    log.sent += 1;
                }
            }
            if !out.is_empty() {
                log.bytes_out += out.len() as u64;
                if let Err(e) = self.stream.write_all(&out) {
                    log.errors.push(format!("write: {e}"));
                    break;
                }
            }
            if self.marks.received.iter().all(|&r| r >= until) {
                break;
            }
            if Instant::now() > deadline {
                log.errors
                    .push("closed loop: the daemon stopped acknowledging".into());
                break;
            }
            let frames =
                match read_frames(&mut self.stream, &mut self.dec, &mut self.rbuf, &mut log) {
                    Ok(frames) => frames,
                    Err(e) => {
                        log.errors.push(e);
                        break;
                    }
                };
            let now = epoch.elapsed().as_nanos() as u64;
            let next = &self.next;
            let since = |s: usize, seq: u64| {
                (seq < next[s] && seq + RING as u64 >= next[s])
                    .then(|| sent_at[s * RING + seq as usize % RING])
            };
            for msg in frames {
                self.marks.absorb(msg, now, &since, &mut log);
            }
        }
        let (received, durable) = self.progress();
        log.received = received - received0;
        log.durable = durable - durable0;
        log
    }

    fn progress(&self) -> (u64, u64) {
        (
            self.marks.received.iter().sum(),
            self.marks.durable.iter().sum(),
        )
    }

    /// Open loop: this connection's share of `due`, each reading sent at
    /// its due time from the precomputed table, never in response to an
    /// ack, while a reader thread stamps acks as they arrive. The sender
    /// sleeps until the due time and does not spin: on a 2-core host a
    /// spinning sender exhausts its scheduler slice and is then parked
    /// for milliseconds (measured: p99 lateness 35.7 ms spinning the
    /// last 200 µs against 2.9 ms sleeping). A reading never acked stays
    /// unacked: nothing is resent.
    pub fn open_loop(&mut self, table: &ReadingTable, due: DueTable, epoch: Instant) -> GenLog {
        let first_stream = self.first_stream();
        let local_streams = self.next.len();
        let (received0, durable0) = self.progress();
        let Self {
            stream,
            dec,
            rbuf,
            layout,
            marks,
            ..
        } = self;
        let mut reader = match stream.try_clone() {
            Ok(r) => r,
            Err(e) => {
                return GenLog {
                    errors: vec![format!("clone socket: {e}")],
                    ..GenLog::default()
                }
            }
        };
        let sender_done = AtomicBool::new(false);
        let mut send_log = GenLog::default();
        let mut read_log = std::thread::scope(|scope| {
            let reading = scope.spawn(|| {
                let mut log = GenLog::default();
                let since = |s: usize, seq: u64| due.due_ns(first_stream + s, seq);
                let mut give_up: Option<Instant> = None;
                while marks.received.iter().any(|&r| r < due.until_seq) {
                    if sender_done.load(Ordering::Acquire) {
                        // Everything is sent: the tail gets the same patience
                        // as any other wait, so a stalled host costs a slow
                        // slice, not the run.
                        let limit = *give_up.get_or_insert_with(|| Instant::now() + PATIENCE);
                        if Instant::now() > limit {
                            break;
                        }
                    }
                    match read_frames(&mut reader, dec, rbuf, &mut log) {
                        Ok(frames) => {
                            let now = epoch.elapsed().as_nanos() as u64;
                            for msg in frames {
                                marks.absorb(msg, now, &since, &mut log);
                            }
                        }
                        Err(e) => {
                            log.errors.push(e);
                            break;
                        }
                    }
                }
                log
            });

            'send: for seq in due.first_seq..due.until_seq {
                for s in 0..local_streams {
                    let due_ns = due
                        .due_ns(first_stream + s, seq)
                        .expect("seq is in the table");
                    let frame = encode_frame(&Msg::Reading {
                        handle: (s / layout.leaves) as u32,
                        node: (s % layout.leaves) as u32,
                        seq,
                        value: table.value(first_stream + s, seq as usize).to_vec(),
                    });
                    let mut now = epoch.elapsed().as_nanos() as u64;
                    while now < due_ns {
                        std::thread::sleep(Duration::from_nanos(due_ns - now));
                        now = epoch.elapsed().as_nanos() as u64;
                    }
                    send_log.late_ms.push((now, (now - due_ns) as f32 / 1e6));
                    send_log.bytes_out += frame.len() as u64;
                    send_log.sent += 1;
                    if let Err(e) = stream.write_all(&frame) {
                        send_log.errors.push(format!("write: {e}"));
                        break 'send;
                    }
                }
            }
            sender_done.store(true, Ordering::Release);
            reading.join().expect("reader thread")
        });
        let (received, durable) = self.progress();
        read_log.received = received - received0;
        read_log.durable = durable - durable0;
        read_log.merge(send_log);
        read_log
    }

    /// Declares every stream's total, waits for every `FinishOk`, then
    /// queries every tenant. Returns the rows per tenant, in order.
    pub fn finish_and_query(&mut self, total: u64) -> Result<(Vec<Vec<Row>>, GenLog), String> {
        let mut log = GenLog::default();
        let mut out = Vec::new();
        for t in 0..self.tenants() {
            let totals = (0..self.layout.leaves as u32).map(|n| (n, total)).collect();
            out.extend(encode_frame(&Msg::Finish {
                handle: t as u32,
                totals,
            }));
        }
        self.stream
            .write_all(&out)
            .map_err(|e| format!("finish: {e}"))?;
        log.bytes_out += out.len() as u64;
        self.pump(&mut log, |_| {}, |m| m.finished.iter().all(|&f| f))?;
        let queries: Vec<u8> = (0..self.tenants())
            .flat_map(|t| encode_frame(&Msg::Query { handle: t as u32 }))
            .collect();
        self.stream
            .write_all(&queries)
            .map_err(|e| format!("query: {e}"))?;
        log.bytes_out += queries.len() as u64;
        self.pump(&mut log, |_| {}, |m| m.rows.iter().all(Option::is_some))?;
        let rows = self
            .marks
            .rows
            .iter_mut()
            .map(|r| r.take().unwrap_or_default())
            .collect();
        Ok((rows, log))
    }
}
