//! The checkpoint envelope: magic, version, checksum, atomic writes.

use std::fs;
use std::path::Path;

use crate::codec::Persist;
use crate::error::PersistError;

/// First eight bytes of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"SNODCKPT";

/// Format version this build writes and reads. Bump on ANY change to
/// the encoding of any persisted type — the golden-file guard test
/// fails loudly when bytes change without a bump.
pub const FORMAT_VERSION: u32 = 2;

/// Envelope size: magic (8) + version (4) + payload length (8) +
/// CRC-32 (4).
pub const HEADER_LEN: usize = 24;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 of `data` (IEEE, the zlib/PNG polynomial). CRC is chosen over
/// a mixing hash because it *guarantees* detection of any single-bit
/// flip — the exact corruption the test suite injects.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Wraps `payload` in the checkpoint envelope.
pub fn encode_checkpoint(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates the envelope and returns the payload slice. Every
/// malformation — short header, wrong magic, future version, length
/// mismatch, checksum mismatch — is a typed [`PersistError`].
pub fn decode_checkpoint(bytes: &[u8]) -> Result<&[u8], PersistError> {
    if bytes.len() < HEADER_LEN {
        // A too-short file with intact magic is a truncation; anything
        // else is not a checkpoint at all.
        if bytes.len() >= 8 && bytes[..8] == MAGIC {
            return Err(PersistError::Truncated {
                needed: HEADER_LEN,
                available: bytes.len(),
            });
        }
        return Err(PersistError::BadMagic);
    }
    if bytes[..8] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let len = u64::from_le_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
    ]);
    let expected = u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]);
    let payload = &bytes[HEADER_LEN..];
    let len = usize::try_from(len).map_err(|_| PersistError::Corrupt("payload length"))?;
    if payload.len() < len {
        return Err(PersistError::Truncated {
            needed: len,
            available: payload.len(),
        });
    }
    if payload.len() > len {
        return Err(PersistError::Corrupt("trailing bytes after payload"));
    }
    let found = crc32(payload);
    if found != expected {
        return Err(PersistError::BadChecksum { expected, found });
    }
    Ok(payload)
}

/// Writes `payload` to `path` atomically: the envelope goes to a
/// sibling temp file which is then renamed over `path`, so a crash
/// mid-write leaves either the old checkpoint or the new one — never a
/// torn hybrid.
pub fn write_checkpoint_file(path: &Path, payload: &[u8]) -> Result<(), PersistError> {
    let file_name = path
        .file_name()
        .ok_or(PersistError::Io(String::new()))
        .map_err(|_| PersistError::Io("checkpoint path has no file name".into()))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    fs::write(&tmp, encode_checkpoint(payload))?;
    // Rename is the commit point; clean up the temp file if it fails.
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        PersistError::from(e)
    })
}

/// Reads `path`, validates the envelope, and returns the payload.
pub fn read_checkpoint_file(path: &Path) -> Result<Vec<u8>, PersistError> {
    let bytes = fs::read(path)?;
    decode_checkpoint(&bytes).map(<[u8]>::to_vec)
}

/// [`write_checkpoint_file`] for any [`Persist`] value.
pub fn save_to_file<T: Persist>(path: &Path, value: &T) -> Result<(), PersistError> {
    write_checkpoint_file(path, &value.to_bytes())
}

/// [`read_checkpoint_file`] for any [`Persist`] value.
pub fn load_from_file<T: Persist>(path: &Path) -> Result<T, PersistError> {
    T::from_bytes(&read_checkpoint_file(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn envelope_roundtrips() {
        let payload = b"sliding window state";
        let enc = encode_checkpoint(payload);
        assert_eq!(decode_checkpoint(&enc).unwrap(), payload);
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut enc = encode_checkpoint(b"x");
        enc[0] ^= 0xFF;
        assert_eq!(decode_checkpoint(&enc).unwrap_err(), PersistError::BadMagic);
        assert_eq!(
            decode_checkpoint(b"tiny").unwrap_err(),
            PersistError::BadMagic
        );
    }

    #[test]
    fn future_version_is_rejected() {
        let mut enc = encode_checkpoint(b"x");
        enc[8] = 0xFF;
        assert!(matches!(
            decode_checkpoint(&enc).unwrap_err(),
            PersistError::UnsupportedVersion { .. }
        ));
    }

    #[test]
    fn truncation_is_rejected() {
        let enc = encode_checkpoint(b"some payload");
        for cut in [9, HEADER_LEN - 1, HEADER_LEN + 3, enc.len() - 1] {
            assert!(
                matches!(
                    decode_checkpoint(&enc[..cut]).unwrap_err(),
                    PersistError::Truncated { .. }
                ),
                "cut at {cut} not reported as truncation"
            );
        }
    }

    #[test]
    fn every_payload_bit_flip_is_caught() {
        let enc = encode_checkpoint(b"guarded bytes");
        for i in HEADER_LEN..enc.len() {
            for bit in 0..8 {
                let mut bad = enc.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    matches!(
                        decode_checkpoint(&bad).unwrap_err(),
                        PersistError::BadChecksum { .. }
                    ),
                    "flip at byte {i} bit {bit} slipped through"
                );
            }
        }
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join("snod-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.ckpt");
        write_checkpoint_file(&path, b"v1").unwrap();
        write_checkpoint_file(&path, b"v2").unwrap(); // overwrite via rename
        assert_eq!(read_checkpoint_file(&path).unwrap(), b"v2");
        assert!(!path.with_file_name("atomic.ckpt.tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn typed_value_file_roundtrip() {
        let dir = std::env::temp_dir().join("snod-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("typed.ckpt");
        save_to_file(&path, &vec![1.5f64, -2.5, 0.0]).unwrap();
        let back: Vec<f64> = load_from_file(&path).unwrap();
        assert_eq!(back, vec![1.5, -2.5, 0.0]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_checkpoint_file(Path::new("/nonexistent/snod.ckpt")).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }
}
