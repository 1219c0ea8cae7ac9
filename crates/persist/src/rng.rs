//! Replayable randomness: an RNG whose state is `(seed, words drawn)`.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A seeded word-stream RNG that counts its draws so it can be
/// checkpointed and restored exactly.
///
/// `StdRng` is a deterministic 32-bit word stream: every `RngCore`
/// method reduces to a sequence of word draws (`next_u64` is two,
/// `fill_bytes` one per 4-byte chunk), so the generator's state after
/// any history is a pure function of `(seed, words drawn)`. This
/// wrapper records exactly that pair; [`SeededRng::restore`] reseeds
/// and fast-forwards the stream, after which the restored generator
/// produces bit-for-bit the tail the original would have.
///
/// The wrapper delegates every draw to the inner generator, so swapping
/// `StdRng` for `SeededRng` changes no behaviour — only adds a counter.
#[derive(Debug, Clone)]
pub struct SeededRng {
    seed: u64,
    words: u64,
    inner: StdRng,
}

impl SeededRng {
    /// A fresh stream from `seed`, zero words drawn.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self {
            seed,
            words: 0,
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Rebuilds the stream state after `words` draws from `seed`, by
    /// reseeding and fast-forwarding. Each skipped word is one
    /// splitmix64 step, so even multi-million-draw histories replay in
    /// milliseconds.
    pub fn restore(seed: u64, words: u64) -> Self {
        let mut rng = Self::seed_from_u64(seed);
        for _ in 0..words {
            rng.inner.next_u32();
        }
        rng.words = words;
        rng
    }

    /// The stream's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// 32-bit words drawn so far.
    pub fn words_drawn(&self) -> u64 {
        self.words
    }
}

impl PartialEq for SeededRng {
    /// Two streams are equal when they will produce the same future
    /// draws — i.e. same seed, same position.
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed && self.words == other.words
    }
}
impl Eq for SeededRng {}

impl RngCore for SeededRng {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.words += 2;
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.words += dest.len().div_ceil(4) as u64;
        self.inner.fill_bytes(dest);
    }
}

crate::persist_struct! {
    SeededRng {
        seed,
        words,
    }
    derived {
        inner: SeededRng::restore(seed, words).inner,
    }
    check: none
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Persist;
    use rand::Rng;

    #[test]
    fn wrapper_matches_raw_stdrng() {
        let mut raw = StdRng::seed_from_u64(42);
        let mut wrapped = SeededRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(raw.next_u32(), wrapped.next_u32());
            assert_eq!(raw.next_u64(), wrapped.next_u64());
            assert_eq!(raw.gen::<f64>(), wrapped.gen::<f64>());
            assert_eq!(raw.gen_range(0..17u64), wrapped.gen_range(0..17u64));
        }
        let mut a = [0u8; 7];
        let mut b = [0u8; 7];
        raw.fill_bytes(&mut a);
        wrapped.fill_bytes(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn restore_continues_the_exact_stream() {
        let mut original = SeededRng::seed_from_u64(7);
        for _ in 0..123 {
            original.gen::<f64>();
        }
        original.next_u32(); // odd word count: mid-u64 position
        let mut resumed = SeededRng::restore(original.seed(), original.words_drawn());
        for _ in 0..50 {
            assert_eq!(original.next_u64(), resumed.next_u64());
            assert_eq!(
                original.gen_range(0..1000u64),
                resumed.gen_range(0..1000u64)
            );
        }
    }

    #[test]
    fn persist_roundtrip_preserves_position() {
        let mut rng = SeededRng::seed_from_u64(99);
        let mut bytes = [0u8; 13];
        rng.fill_bytes(&mut bytes); // 4 words (partial chunk counts)
        assert_eq!(rng.words_drawn(), 4);
        let mut copy = SeededRng::from_bytes(&rng.to_bytes()).unwrap();
        assert_eq!(copy, rng);
        assert_eq!(rng.next_u64(), copy.next_u64());
    }
}
