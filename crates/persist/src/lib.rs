//! Checkpoint/restore codec for the sensor-outliers runtime.
//!
//! The paper's substrate is pure sliding-window state — chain samples,
//! streaming variance buckets, kernel centres, replica models — so a
//! process that can serialize that state can stop and later resume
//! *exactly* where it left off. This crate provides the three layers
//! that make resume provably lossless:
//!
//! 1. **Codec** ([`Persist`], [`ByteWriter`], [`ByteReader`]): a
//!    hand-rolled little-endian binary encoding with bounds-checked
//!    reads that surface every malformation as a typed
//!    [`PersistError`] instead of a panic. (The workspace's `serde` is
//!    interface-only in this build, so the codec carries the bytes
//!    itself; the trait mirrors `Serialize`/`Deserialize` so a swap to
//!    a serde backend is mechanical.)
//! 2. **Container** ([`write_checkpoint_file`], [`read_checkpoint_file`]):
//!    a checksummed, versioned envelope written atomically (temp file +
//!    rename) so a crash mid-write can never leave a torn checkpoint in
//!    place of a good one.
//! 3. **Replayable randomness** ([`SeededRng`]): a counting wrapper
//!    over the deterministic word-stream RNG whose state is exactly
//!    `(seed, words drawn)` — restoring fast-forwards the stream, so a
//!    resumed run draws the same tail of random numbers an
//!    uninterrupted run would.
//!
//! Structs implement [`Persist`] through [`persist_struct!`], which
//! takes one ordered field list and a declared load-time check.
//!
//! Encoded output is fully deterministic (unordered collections are
//! written in sorted key order), which is what lets the golden
//! checkpoint files under `tests/goldens/` guard the format.

mod codec;
mod container;
#[doc(hidden)]
pub mod declare;
mod error;
mod rng;

pub use codec::{ByteReader, ByteWriter, Persist};
pub use container::{
    crc32, decode_checkpoint, encode_checkpoint, load_from_file, read_checkpoint_file,
    save_to_file, write_checkpoint_file, FORMAT_VERSION, HEADER_LEN, MAGIC,
};
pub use error::PersistError;
pub use rng::SeededRng;
