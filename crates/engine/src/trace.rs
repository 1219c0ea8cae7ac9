//! Replayable reading traces: record what a run ingested, replay it
//! bit-identically.
//!
//! A [`ReadingTrace`] is the portable capture format behind the
//! conformance suite and the CLI's `--replay` flag: one row per leaf
//! reading, in fetch order, serialized as plain CSV (`node,seq,v1,v2,…`
//! — values in Rust's shortest round-tripping float notation, so replay
//! is bit-exact). A trace implements [`StreamSource`] and can therefore
//! feed a [`crate::Network`] directly; [`TraceRecorder`]
//! wraps any live source and captures what it hands out.

use std::collections::HashMap;
use std::path::Path;

use crate::config::StreamSource;
use crate::node::NodeId;

/// Errors raised while reading or parsing a trace.
#[derive(Debug)]
pub enum TraceError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// A CSV row was malformed.
    Parse {
        /// 1-based line number of the offending row.
        line: usize,
        /// What was wrong with it.
        what: &'static str,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Parse { line, what } => write!(f, "trace line {line}: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// A recorded sequence of leaf readings, replayable as a
/// [`StreamSource`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReadingTrace {
    /// `(node, seq, value)` rows in recording order.
    rows: Vec<(NodeId, u64, Vec<f64>)>,
    /// `(node, seq) -> row index` for replay lookups.
    index: HashMap<(u32, u64), usize>,
}

impl ReadingTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one reading. Later recordings of the same `(node, seq)`
    /// replace the earlier row's value (replay keeps the first row's
    /// position).
    pub fn record(&mut self, node: NodeId, seq: u64, value: &[f64]) {
        match self.index.get(&(node.0, seq)) {
            Some(&i) => self.rows[i].2 = value.to_vec(),
            None => {
                self.index.insert((node.0, seq), self.rows.len());
                self.rows.push((node, seq, value.to_vec()));
            }
        }
    }

    /// Number of recorded readings.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The recorded value of reading `seq` at `node`, if any.
    pub fn get(&self, node: NodeId, seq: u64) -> Option<&[f64]> {
        self.index
            .get(&(node.0, seq))
            .map(|&i| self.rows[i].2.as_slice())
    }

    /// Serializes the trace as CSV: one `node,seq,v1,v2,…` row per
    /// reading, in recording order. Floats use Rust's shortest
    /// round-tripping notation, so [`ReadingTrace::from_csv`] restores
    /// the exact bits.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (node, seq, value) in &self.rows {
            out.push_str(&format!("{},{}", node.0, seq));
            for v in value {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parses a trace from [`ReadingTrace::to_csv`] output. Blank lines
    /// and `#` comment lines are ignored. Tolerant of cross-platform
    /// artifacts: CRLF line endings, a trailing newline and a leading
    /// UTF-8 byte-order mark all parse identically to the plain form —
    /// a trace recorded on one platform must replay on another.
    pub fn from_csv(text: &str) -> Result<Self, TraceError> {
        let text = text.strip_prefix('\u{feff}').unwrap_or(text);
        let mut trace = Self::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split(',');
            let parse = |s: Option<&str>, what| {
                s.and_then(|s| s.trim().parse::<u64>().ok())
                    .ok_or(TraceError::Parse { line: i + 1, what })
            };
            let node = parse(fields.next(), "missing or invalid node id")?;
            let node = u32::try_from(node).map_err(|_| TraceError::Parse {
                line: i + 1,
                what: "node id out of range",
            })?;
            let seq = parse(fields.next(), "missing or invalid seq")?;
            let mut value = Vec::new();
            for field in fields {
                value.push(field.trim().parse::<f64>().map_err(|_| TraceError::Parse {
                    line: i + 1,
                    what: "invalid reading value",
                })?);
            }
            if value.is_empty() {
                return Err(TraceError::Parse {
                    line: i + 1,
                    what: "row has no reading values",
                });
            }
            trace.record(NodeId(node), seq, &value);
        }
        Ok(trace)
    }

    /// Iterates over the recorded `(node, seq, value)` rows in
    /// recording order.
    pub fn rows(&self) -> impl Iterator<Item = (NodeId, u64, &[f64])> {
        self.rows.iter().map(|(n, s, v)| (*n, *s, v.as_slice()))
    }

    /// Writes the CSV form to `path`.
    pub fn write_file(&self, path: &Path) -> Result<(), TraceError> {
        std::fs::write(path, self.to_csv())?;
        Ok(())
    }

    /// Reads a trace from a CSV file written by
    /// [`ReadingTrace::write_file`].
    pub fn read_file(path: &Path) -> Result<Self, TraceError> {
        Self::from_csv(&std::fs::read_to_string(path)?)
    }
}

/// Replaying a trace: a recorded `(node, seq)` row yields its value,
/// anything unrecorded ends that stream (exactly how the recording run
/// saw its source end).
impl StreamSource for ReadingTrace {
    fn next(&mut self, node: NodeId, seq: u64) -> Option<Vec<f64>> {
        self.get(node, seq).map(<[f64]>::to_vec)
    }
}

/// Wraps a [`StreamSource`], recording every reading it hands out into
/// an owned [`ReadingTrace`] (take it with
/// [`TraceRecorder::into_trace`] after the run).
pub struct TraceRecorder<S> {
    inner: S,
    trace: ReadingTrace,
}

impl<S: StreamSource> TraceRecorder<S> {
    /// Records everything `inner` produces.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            trace: ReadingTrace::new(),
        }
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &ReadingTrace {
        &self.trace
    }

    /// Consumes the recorder into its trace.
    pub fn into_trace(self) -> ReadingTrace {
        self.trace
    }
}

impl<S: StreamSource> StreamSource for TraceRecorder<S> {
    fn next(&mut self, node: NodeId, seq: u64) -> Option<Vec<f64>> {
        let value = self.inner.next(node, seq)?;
        self.trace.record(node, seq, &value);
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trips_bit_exactly() {
        let mut t = ReadingTrace::new();
        t.record(NodeId(0), 0, &[0.1 + 0.2, -1.5e-17]);
        t.record(NodeId(3), 7, &[f64::MIN_POSITIVE, 42.0]);
        let back = ReadingTrace::from_csv(&t.to_csv()).expect("parses");
        assert_eq!(t, back);
        let a = back.get(NodeId(0), 0).expect("row present");
        assert_eq!(a[0].to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn replay_ends_stream_where_recording_did() {
        let mut t = ReadingTrace::new();
        t.record(NodeId(1), 0, &[1.0]);
        assert_eq!(t.next(NodeId(1), 0), Some(vec![1.0]));
        assert_eq!(t.next(NodeId(1), 1), None);
        assert_eq!(t.next(NodeId(2), 0), None);
    }

    #[test]
    fn recorder_captures_what_the_source_produced() {
        let source = |node: NodeId, seq: u64| (seq < 2).then(|| vec![node.0 as f64 + seq as f64]);
        let mut rec = TraceRecorder::new(source);
        assert!(rec.next(NodeId(0), 0).is_some());
        assert!(rec.next(NodeId(0), 1).is_some());
        assert!(rec.next(NodeId(0), 2).is_none());
        let trace = rec.into_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.get(NodeId(0), 1), Some(&[1.0f64][..]));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let t = ReadingTrace::from_csv("# header\n\n0,0,1.5\n").expect("parses");
        assert_eq!(t.len(), 1);
    }

    /// Regression: traces recorded on one platform must replay on
    /// another. CRLF line endings, a trailing newline and a UTF-8 BOM
    /// (all common artifacts of editing or transferring a CSV on
    /// Windows) must parse bit-identically to the plain form.
    #[test]
    fn cross_platform_line_endings_replay_identically() {
        let mut t = ReadingTrace::new();
        t.record(NodeId(0), 0, &[0.1 + 0.2]);
        t.record(NodeId(1), 0, &[-3.25e-9, 7.5]);
        t.record(NodeId(0), 1, &[f64::MIN_POSITIVE]);
        let unix = t.to_csv();
        let crlf = unix.replace('\n', "\r\n");
        let no_trailing = unix.trim_end_matches('\n').to_string();
        let bom = format!("\u{feff}{unix}");
        let bom_crlf = format!("\u{feff}{crlf}");
        for text in [&crlf, &no_trailing, &bom, &bom_crlf] {
            let back = ReadingTrace::from_csv(text).expect("platform variant parses");
            assert_eq!(back, t, "variant {text:?} must replay identically");
        }
    }

    #[test]
    fn rows_iterate_in_recording_order() {
        let mut t = ReadingTrace::new();
        t.record(NodeId(2), 5, &[1.0]);
        t.record(NodeId(0), 0, &[2.0, 3.0]);
        let rows: Vec<_> = t.rows().collect();
        assert_eq!(rows[0], (NodeId(2), 5, &[1.0][..]));
        assert_eq!(rows[1], (NodeId(0), 0, &[2.0, 3.0][..]));
    }

    #[test]
    fn malformed_rows_are_rejected() {
        assert!(ReadingTrace::from_csv("x,0,1.0").is_err());
        assert!(ReadingTrace::from_csv("0,0").is_err());
        assert!(ReadingTrace::from_csv("0,0,nope").is_err());
    }
}
