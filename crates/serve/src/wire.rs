//! The length-prefixed TCP frame protocol.
//!
//! Every frame is a 24-byte header followed by a [`Persist`]-encoded
//! payload — deliberately the same envelope shape as a `snod-persist`
//! checkpoint (`magic · version · length · CRC-32 · payload`), with its
//! own magic so the two can never be confused:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "SNODWIRE"
//!      8     4  version (u32 LE) — currently 1
//!     12     8  payload length (u64 LE) — capped at MAX_FRAME_BYTES
//!     20     4  CRC-32 (IEEE) of the payload
//!     24     …  payload: a tag byte + Persist-encoded fields
//! ```
//!
//! [`FrameDecoder`] is an incremental splitter: feed it arbitrary byte
//! chunks (TCP gives no framing guarantees — frames arrive split,
//! merged, or one byte at a time) and pop complete messages. Every
//! malformation is a typed [`WireError`]; the decoder never panics and
//! never allocates from an unvalidated length — the length field is
//! bounds-checked against [`MAX_FRAME_BYTES`] *before* any buffer
//! grows, so a hostile 2⁶⁴-byte header costs 24 bytes of buffering,
//! not an allocation.

use snod_persist::{crc32, ByteReader, ByteWriter, Persist, PersistError};

/// Frame magic: distinguishes wire frames from checkpoint files.
pub const WIRE_MAGIC: [u8; 8] = *b"SNODWIRE";

/// Current protocol version.
pub const WIRE_VERSION: u32 = 1;

/// Header length: magic (8) + version (4) + payload length (8) +
/// CRC-32 (4).
pub const WIRE_HEADER_LEN: usize = 24;

/// Hard cap on a frame's payload. A `Reading` is a few dozen bytes; a
/// `Detections` reply over a long run is the largest legitimate frame.
pub const MAX_FRAME_BYTES: u64 = 1 << 22;

/// Typed wire-protocol violations. Modeled on
/// [`snod_persist::PersistError`]: every way a frame can be malformed
/// maps to a distinct variant, and none of them panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first eight bytes were not [`WIRE_MAGIC`].
    BadMagic,
    /// The frame declares a protocol version this build does not speak.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build speaks.
        supported: u32,
    },
    /// The declared payload length exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// Length found in the header.
        len: u64,
    },
    /// The payload did not match the header's CRC-32.
    BadChecksum {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the payload as received.
        found: u32,
    },
    /// The CRC matched but the payload did not decode as a message.
    BadPayload(PersistError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported wire version {found} (this build speaks {supported})"
                )
            }
            WireError::Oversized { len } => {
                write!(
                    f,
                    "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            WireError::BadChecksum { expected, found } => {
                write!(f, "frame checksum mismatch: header says {expected:#010x}, payload is {found:#010x}")
            }
            WireError::BadPayload(e) => write!(f, "frame payload malformed: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<PersistError> for WireError {
    fn from(e: PersistError) -> Self {
        WireError::BadPayload(e)
    }
}

/// One protocol message, client→server or server→client.
///
/// Multi-tenancy is multiplexed per connection through small `handle`
/// integers: each [`Msg::Hello`] opens (or re-attaches to) one tenant
/// and is answered by [`Msg::HelloOk`] carrying the handle — assigned
/// densely in Hello order on that connection, so a pipelining client
/// can predict handles without waiting for the round trip.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Client → server: open tenant `tenant` on this connection.
    /// `subscribe` requests escalation push frames.
    Hello {
        /// Tenant name (`[A-Za-z0-9_-]{1,64}`).
        tenant: String,
        /// Push live escalations to this connection.
        subscribe: bool,
    },
    /// Client → server: one sensor reading. At-least-once: duplicates
    /// (by `(node, seq)`) are deduplicated server-side, so clients
    /// retransmit freely after reconnects or missing acks.
    Reading {
        /// Tenant handle from [`Msg::HelloOk`].
        handle: u32,
        /// Leaf node id within the tenant's topology.
        node: u32,
        /// 0-based reading index of that leaf's stream.
        seq: u64,
        /// The reading.
        value: Vec<f64>,
    },
    /// Client → server: declares each leaf stream's total length so the
    /// server can drain to quiescence and reply [`Msg::FinishOk`].
    Finish {
        /// Tenant handle.
        handle: u32,
        /// `(node, total readings)` per leaf.
        totals: Vec<(u32, u64)>,
    },
    /// Client → server: request the tenant's full detection list.
    Query {
        /// Tenant handle.
        handle: u32,
    },
    /// Client → server: liveness probe.
    Ping,
    /// Client → server: fault-injection hook — makes the tenant's
    /// worker thread panic so supervision can be exercised end to end.
    /// Rejected unless the daemon was configured to allow it.
    Crash {
        /// Tenant handle.
        handle: u32,
    },
    /// Server → client: reply to [`Msg::Hello`].
    HelloOk {
        /// Handle to use in subsequent frames on this connection.
        handle: u32,
        /// True when the tenant was restored from a checkpoint.
        resumed: bool,
    },
    /// Server → client: ingestion progress. `received` is the
    /// contiguous high-water mark (first missing seq); `durable` is the
    /// mark covered by the last on-disk checkpoint — the client may
    /// drop its retransmit buffer below `durable`, and after a server
    /// crash must replay from `durable`, not `received`.
    Ack {
        /// Tenant handle.
        handle: u32,
        /// `(node, received, durable)` per leaf.
        acks: Vec<(u32, u64, u64)>,
    },
    /// Server → client (subscribers only): a node flagged an outlier.
    Escalation {
        /// Tenant handle.
        handle: u32,
        /// Node that flagged it.
        node: u32,
        /// Stream time of the detection.
        time_ns: u64,
        /// Tier of the flagging node (1 = leaf).
        level: u8,
        /// The flagged value.
        value: Vec<f64>,
    },
    /// Server → client: reply to [`Msg::Query`].
    Detections {
        /// Tenant handle.
        handle: u32,
        /// `(node, time_ns, level, value)` rows in detection order.
        rows: Vec<(u32, u64, u8, Vec<f64>)>,
    },
    /// Server → client: every declared stream total has been ingested,
    /// processed to quiescence and checkpointed.
    FinishOk {
        /// Tenant handle.
        handle: u32,
    },
    /// Server → client: the previous frame was rejected. The connection
    /// stays open unless the error was a framing violation.
    Error {
        /// Machine-readable reason (see `error_code`).
        code: u8,
        /// Human-readable detail.
        message: String,
    },
    /// Server → client: reply to [`Msg::Ping`].
    Pong,
}

/// Error codes carried by [`Msg::Error`].
pub mod error_code {
    /// The frame referenced a handle no Hello on this connection opened.
    pub const UNKNOWN_HANDLE: u8 = 1;
    /// The tenant name was empty, too long or had invalid characters.
    pub const BAD_TENANT_NAME: u8 = 2;
    /// The daemon is at its tenant capacity.
    pub const TENANT_LIMIT: u8 = 3;
    /// Crash frames are not enabled on this daemon.
    pub const CRASH_DISABLED: u8 = 4;
    /// The frame itself was malformed (connection will close).
    pub const MALFORMED_FRAME: u8 = 5;
    /// The reading referenced a node outside the tenant topology, or a
    /// seq at or past a declared stream total.
    pub const BAD_READING: u8 = 6;
}

impl Persist for Msg {
    fn save(&self, w: &mut ByteWriter) {
        match self {
            Msg::Hello { tenant, subscribe } => {
                w.put_u8(0);
                tenant.save(w);
                subscribe.save(w);
            }
            Msg::Reading {
                handle,
                node,
                seq,
                value,
            } => {
                w.put_u8(1);
                handle.save(w);
                node.save(w);
                seq.save(w);
                value.save(w);
            }
            Msg::Finish { handle, totals } => {
                w.put_u8(2);
                handle.save(w);
                totals.save(w);
            }
            Msg::Query { handle } => {
                w.put_u8(3);
                handle.save(w);
            }
            Msg::Ping => w.put_u8(4),
            Msg::Crash { handle } => {
                w.put_u8(5);
                handle.save(w);
            }
            Msg::HelloOk { handle, resumed } => {
                w.put_u8(16);
                handle.save(w);
                resumed.save(w);
            }
            Msg::Ack { handle, acks } => {
                w.put_u8(17);
                handle.save(w);
                acks.save(w);
            }
            Msg::Escalation {
                handle,
                node,
                time_ns,
                level,
                value,
            } => {
                w.put_u8(18);
                handle.save(w);
                node.save(w);
                time_ns.save(w);
                level.save(w);
                value.save(w);
            }
            Msg::Detections { handle, rows } => {
                w.put_u8(19);
                handle.save(w);
                rows.save(w);
            }
            Msg::FinishOk { handle } => {
                w.put_u8(20);
                handle.save(w);
            }
            Msg::Error { code, message } => {
                w.put_u8(21);
                code.save(w);
                message.save(w);
            }
            Msg::Pong => w.put_u8(22),
        }
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(match r.get_u8()? {
            0 => Msg::Hello {
                tenant: String::load(r)?,
                subscribe: bool::load(r)?,
            },
            1 => Msg::Reading {
                handle: u32::load(r)?,
                node: u32::load(r)?,
                seq: u64::load(r)?,
                value: Vec::load(r)?,
            },
            2 => Msg::Finish {
                handle: u32::load(r)?,
                totals: Vec::load(r)?,
            },
            3 => Msg::Query {
                handle: u32::load(r)?,
            },
            4 => Msg::Ping,
            5 => Msg::Crash {
                handle: u32::load(r)?,
            },
            16 => Msg::HelloOk {
                handle: u32::load(r)?,
                resumed: bool::load(r)?,
            },
            17 => Msg::Ack {
                handle: u32::load(r)?,
                acks: Vec::load(r)?,
            },
            18 => Msg::Escalation {
                handle: u32::load(r)?,
                node: u32::load(r)?,
                time_ns: u64::load(r)?,
                level: u8::load(r)?,
                value: Vec::load(r)?,
            },
            19 => Msg::Detections {
                handle: u32::load(r)?,
                rows: Vec::load(r)?,
            },
            20 => Msg::FinishOk {
                handle: u32::load(r)?,
            },
            21 => Msg::Error {
                code: u8::load(r)?,
                message: String::load(r)?,
            },
            22 => Msg::Pong,
            _ => return Err(PersistError::Corrupt("unknown wire message tag")),
        })
    }
}

/// Encodes one message as a complete frame (header + payload).
pub fn encode_frame(msg: &Msg) -> Vec<u8> {
    let mut w = ByteWriter::new();
    msg.save(&mut w);
    let payload = w.into_bytes();
    debug_assert!((payload.len() as u64) <= MAX_FRAME_BYTES);
    let mut out = Vec::with_capacity(WIRE_HEADER_LEN + payload.len());
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Incremental frame splitter over an unframed byte stream.
///
/// After any `Err` the stream is unsynchronized and the connection must
/// be closed — the protocol resynchronizes by reconnecting, and the
/// at-least-once client replays whatever was in flight.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as a complete frame. Used by
    /// the server's slow-loris guard: a connection that holds a partial
    /// frame open past the frame deadline is dropped.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete message, `Ok(None)` when more bytes are
    /// needed. Errors indicate an unrecoverable framing violation.
    pub fn next_frame(&mut self) -> Result<Option<Msg>, WireError> {
        if self.buf.len() < WIRE_HEADER_LEN {
            if !self.buf.is_empty()
                && self.buf[..self.buf.len().min(8)] != WIRE_MAGIC[..self.buf.len().min(8)]
            {
                return Err(WireError::BadMagic);
            }
            return Ok(None);
        }
        if self.buf[..8] != WIRE_MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = u32::from_le_bytes(self.buf[8..12].try_into().expect("4 bytes"));
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion {
                found: version,
                supported: WIRE_VERSION,
            });
        }
        let len = u64::from_le_bytes(self.buf[12..20].try_into().expect("8 bytes"));
        if len > MAX_FRAME_BYTES {
            return Err(WireError::Oversized { len });
        }
        let len = len as usize;
        if self.buf.len() < WIRE_HEADER_LEN + len {
            return Ok(None);
        }
        let expected = u32::from_le_bytes(self.buf[20..24].try_into().expect("4 bytes"));
        let payload = &self.buf[WIRE_HEADER_LEN..WIRE_HEADER_LEN + len];
        let found = crc32(payload);
        if found != expected {
            return Err(WireError::BadChecksum { expected, found });
        }
        let mut r = ByteReader::new(payload);
        let msg = Msg::load(&mut r)?;
        r.finish().map_err(WireError::BadPayload)?;
        self.buf.drain(..WIRE_HEADER_LEN + len);
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msgs() -> Vec<Msg> {
        vec![
            Msg::Hello {
                tenant: "plant-7".into(),
                subscribe: true,
            },
            Msg::Reading {
                handle: 3,
                node: 1,
                seq: 42,
                value: vec![0.1 + 0.2, -1.5e-17],
            },
            Msg::Finish {
                handle: 3,
                totals: vec![(0, 100), (1, 99)],
            },
            Msg::Query { handle: 0 },
            Msg::Ping,
            Msg::Crash { handle: 9 },
            Msg::HelloOk {
                handle: 3,
                resumed: true,
            },
            Msg::Ack {
                handle: 3,
                acks: vec![(0, 10, 8), (1, 7, 7)],
            },
            Msg::Escalation {
                handle: 1,
                node: 4,
                time_ns: 123_456_789,
                level: 2,
                value: vec![0.99],
            },
            Msg::Detections {
                handle: 1,
                rows: vec![(0, 5, 1, vec![0.5, 0.25])],
            },
            Msg::FinishOk { handle: 3 },
            Msg::Error {
                code: error_code::UNKNOWN_HANDLE,
                message: "no such handle".into(),
            },
            Msg::Pong,
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in sample_msgs() {
            let frame = encode_frame(&msg);
            let mut dec = FrameDecoder::new();
            dec.feed(&frame);
            assert_eq!(dec.next_frame().expect("valid"), Some(msg.clone()));
            assert_eq!(dec.next_frame().expect("empty"), None);
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn split_and_merged_feeds_reassemble() {
        let msgs = sample_msgs();
        let stream: Vec<u8> = msgs.iter().flat_map(encode_frame).collect();
        // One byte at a time.
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for &b in &stream {
            dec.feed(&[b]);
            while let Some(m) = dec.next_frame().expect("valid stream") {
                out.push(m);
            }
        }
        assert_eq!(out, msgs);
        // Everything in one feed.
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        let mut out = Vec::new();
        while let Some(m) = dec.next_frame().expect("valid stream") {
            out.push(m);
        }
        assert_eq!(out, msgs);
    }

    #[test]
    fn frame_header_mirrors_persist_envelope_shape() {
        let frame = encode_frame(&Msg::Ping);
        assert_eq!(&frame[..8], b"SNODWIRE");
        assert_eq!(frame.len(), WIRE_HEADER_LEN + 1);
        assert_eq!(WIRE_HEADER_LEN, snod_persist::HEADER_LEN);
    }
}
