//! The binary codec: little-endian, length-prefixed, bounds-checked.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;

use crate::error::PersistError;

/// Serializes a value into an append-only byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern — exact, including
    /// NaN payloads and signed zeros, so restored floats are
    /// bit-identical.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Deserializes values from a byte slice; every read is bounds-checked
/// and returns [`PersistError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed — trailing garbage is
    /// corruption, not padding.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::Corrupt("trailing bytes after payload"))
        }
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` (encoded as `u64`), rejecting values that do not
    /// fit this platform's word.
    pub fn get_usize(&mut self) -> Result<usize, PersistError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| PersistError::Corrupt("usize out of range"))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a collection length and sanity-checks it against the bytes
    /// left: every element of every persisted collection occupies at
    /// least one byte, so a length exceeding `remaining()` is corrupt —
    /// rejecting it here keeps a flipped length byte from provoking an
    /// absurd allocation or a long decode loop.
    pub fn get_len(&mut self) -> Result<usize, PersistError> {
        let n = self.get_usize()?;
        if n > self.remaining() {
            return Err(PersistError::Corrupt("collection length exceeds payload"));
        }
        Ok(n)
    }
}

/// A type that can snapshot itself into bytes and be rebuilt exactly —
/// the workspace's stand-in for `Serialize + DeserializeOwned`.
///
/// The contract backing the bit-identical-resume guarantee: for any
/// value `v`, `load(save(v)) == v` in the strongest sense available —
/// observable behaviour after restore matches the original under every
/// future operation, including RNG draws and float accumulation order.
pub trait Persist: Sized {
    /// Appends this value's encoding to `w`.
    fn save(&self, w: &mut ByteWriter);
    /// Decodes one value, consuming exactly the bytes `save` produced.
    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError>;

    /// Convenience: the value encoded into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.save(&mut w);
        w.into_bytes()
    }

    /// Convenience: decodes a value that must span the whole slice.
    fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = ByteReader::new(bytes);
        let v = Self::load(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

macro_rules! impl_persist_int {
    ($($t:ty => $put:ident / $get:ident),* $(,)?) => {$(
        impl Persist for $t {
            fn save(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }
            fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
                r.$get()
            }
        }
    )*};
}

impl_persist_int!(
    u8 => put_u8 / get_u8,
    u32 => put_u32 / get_u32,
    u64 => put_u64 / get_u64,
    usize => put_usize / get_usize,
    f64 => put_f64 / get_f64,
);

impl Persist for u16 {
    fn save(&self, w: &mut ByteWriter) {
        w.put_u32(u32::from(*self));
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        u16::try_from(r.get_u32()?).map_err(|_| PersistError::Corrupt("u16 out of range"))
    }
}

impl Persist for i64 {
    fn save(&self, w: &mut ByteWriter) {
        w.put_u64(*self as u64);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(r.get_u64()? as i64)
    }
}

impl Persist for bool {
    fn save(&self, w: &mut ByteWriter) {
        w.put_u8(u8::from(*self));
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::Corrupt("boolean must be 0 or 1")),
        }
    }
}

impl Persist for String {
    fn save(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        w.put_bytes(self.as_bytes());
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let n = r.get_len()?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::Corrupt("invalid utf-8"))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn save(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            _ => Err(PersistError::Corrupt("option tag must be 0 or 1")),
        }
    }
}

macro_rules! impl_persist_seq {
    ($($seq:ident => $push:ident),*) => {$(
        impl<T: Persist> Persist for $seq<T> {
            fn save(&self, w: &mut ByteWriter) {
                w.put_usize(self.len());
                for v in self {
                    v.save(w);
                }
            }
            fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
                let n = r.get_len()?;
                let mut out = $seq::with_capacity(n);
                for _ in 0..n {
                    out.$push(T::load(r)?);
                }
                Ok(out)
            }
        }
    )*};
}

impl_persist_seq!(Vec => push, VecDeque => push_back);

macro_rules! impl_persist_tuple {
    ($(($($t:ident $i:tt),+)),* $(,)?) => {$(
        impl<$($t: Persist),+> Persist for ($($t,)+) {
            fn save(&self, w: &mut ByteWriter) {
                $(self.$i.save(w);)+
            }
            fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
                Ok(($($t::load(r)?,)+))
            }
        }
    )*};
}

impl_persist_tuple!((A 0, B 1), (A 0, B 1, C 2), (A 0, B 1, C 2, D 3));

/// Hash maps are written in sorted key order so the encoding of a
/// given state is unique — golden-file tests depend on it.
impl<K: Persist + Ord + Hash + Eq, V: Persist> Persist for HashMap<K, V> {
    fn save(&self, w: &mut ByteWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.put_usize(entries.len());
        for (k, v) in entries {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let n = r.get_len()?;
        let mut out = HashMap::with_capacity(n);
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            if out.insert(k, v).is_some() {
                return Err(PersistError::Corrupt("duplicate map key"));
            }
        }
        Ok(out)
    }
}

/// Hash sets are written in sorted order, like maps.
impl<T: Persist + Ord + Hash + Eq> Persist for HashSet<T> {
    fn save(&self, w: &mut ByteWriter) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        w.put_usize(items.len());
        for v in items {
            v.save(w);
        }
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let n = r.get_len()?;
        let mut out = HashSet::with_capacity(n);
        for _ in 0..n {
            if !out.insert(T::load(r)?) {
                return Err(PersistError::Corrupt("duplicate set element"));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(T::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(-17i64);
        roundtrip(true);
        roundtrip(std::f64::consts::PI);
        roundtrip(String::from("snod"));
    }

    #[test]
    fn float_bit_patterns_survive() {
        for v in [f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE] {
            let back = f64::from_bytes(&v.to_bytes()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<f64>::new());
        roundtrip(VecDeque::from([1.5f64, -2.5]));
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip((1u64, 2.5f64, true));
        roundtrip(HashMap::from([(3u64, 1.0f64), (1, 2.0)]));
        roundtrip(HashSet::from([9u64, 4, 7]));
    }

    #[test]
    fn map_encoding_is_key_sorted() {
        let a = HashMap::from([(1u64, 10u64), (2, 20), (3, 30)]);
        let mut entries: Vec<(u64, u64)> = a.clone().into_iter().collect();
        entries.reverse();
        let b: HashMap<u64, u64> = entries.into_iter().collect();
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = 42u64.to_bytes();
        let err = u64::from_bytes(&bytes[..5]).unwrap_err();
        assert!(matches!(err, PersistError::Truncated { .. }));
    }

    #[test]
    fn bad_tags_are_typed() {
        assert_eq!(
            bool::from_bytes(&[2]).unwrap_err(),
            PersistError::Corrupt("boolean must be 0 or 1")
        );
        assert_eq!(
            Option::<u8>::from_bytes(&[7]).unwrap_err(),
            PersistError::Corrupt("option tag must be 0 or 1")
        );
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // claimed length
        let err = Vec::<u64>::from_bytes(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 1u64.to_bytes();
        bytes.push(0);
        assert_eq!(
            u64::from_bytes(&bytes).unwrap_err(),
            PersistError::Corrupt("trailing bytes after payload")
        );
    }
}
