//! Seeded workload inputs, generated in set-up with the benchmark's own
//! PRNG and handed to the program as plain reading tables. Every
//! reading carries an `is_injected` label so detections can be scored
//! exactly; the program never sees the labels.
//!
//! Each leaf draws from its own stream `(seed, leaf)`, so a longer table
//! extends a shorter one: the smoke run and the full run share a prefix.

/// xoshiro256++ seeded through SplitMix64. Owned by the benchmark so a
/// change to the repository's vendored `rand` cannot move the inputs.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    spare_normal: Option<f64>,
}

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut z = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
            spare_normal: None,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Standard normal (Box–Muller, both variates used).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        let u = 1.0 - self.unit();
        let v = self.unit();
        let r = (-2.0 * u.ln()).sqrt();
        let (sin, cos) = (std::f64::consts::TAU * v).sin_cos();
        self.spare_normal = Some(r * sin);
        r * cos
    }
}

/// The three stream shapes the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Paper §10: three Gaussians (means 0.30/0.35/0.45, σ = 0.03) plus
    /// 0.5 % uniform noise in `[0.5, 1]`; the noise is the label.
    Mixture1d,
    /// Correlated pairs: three clusters on the diagonal (0.3, 0.5, 0.7;
    /// σ = 0.03 per axis); 1 % labelled anomalies take `x` from one
    /// cluster and `y` from another, so each coordinate alone looks normal.
    Correlated2d,
    /// Engine-like skewed stream: tight level at 0.43, unlabelled
    /// left-tail dips, one labelled failure burst per 2048 readings and
    /// 0.4 % labelled spikes (mean ≈ 0.42, skew ≈ −6).
    SkewedEngine,
}

impl Stream {
    pub fn dims(self) -> usize {
        match self {
            Stream::Correlated2d => 2,
            _ => 1,
        }
    }

    /// The share of readings labelled injected lies in this range for
    /// any table of at least a few thousand readings per leaf.
    #[cfg(test)]
    pub fn label_share_range(self) -> (f64, f64) {
        match self {
            Stream::Mixture1d => (0.003, 0.007),
            Stream::Correlated2d => (0.007, 0.013),
            Stream::SkewedEngine => (0.015, 0.040),
        }
    }
}

const BURST_BLOCK: usize = 2048;
const BURST_LEN: usize = 48;

/// Leaf-major table of readings with their labels.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadingTable {
    pub dims: usize,
    pub leaves: usize,
    pub per_leaf: usize,
    values: Vec<f64>,
    injected: Vec<bool>,
}

impl ReadingTable {
    pub fn generate(stream: Stream, seed: u64, leaves: usize, per_leaf: usize) -> Self {
        let dims = stream.dims();
        let mut values = Vec::with_capacity(leaves * per_leaf * dims);
        let mut injected = Vec::with_capacity(leaves * per_leaf);
        for leaf in 0..leaves {
            let mut rng = Rng::new(seed, leaf as u64);
            let mut burst_at = 0usize;
            for seq in 0..per_leaf {
                let label = match stream {
                    Stream::Mixture1d => {
                        let noise = rng.unit() < 0.005;
                        let means = [0.30, 0.35, 0.45];
                        let clean = means[(rng.next_u64() % 3) as usize] + 0.03 * rng.normal();
                        let noisy = rng.range(0.5, 1.0);
                        values.push(if noise { noisy } else { clean });
                        noise
                    }
                    Stream::Correlated2d => {
                        let anomaly = rng.unit() < 0.01;
                        let centres = [0.3, 0.5, 0.7];
                        let i = (rng.next_u64() % 3) as usize;
                        let other = (i + 1 + (rng.next_u64() % 2) as usize) % 3;
                        let j = if anomaly { other } else { i };
                        values.push(centres[i] + 0.03 * rng.normal());
                        values.push(centres[j] + 0.03 * rng.normal());
                        anomaly
                    }
                    Stream::SkewedEngine => {
                        if seq % BURST_BLOCK == 0 {
                            let span = (BURST_BLOCK / 2) as u64;
                            burst_at = seq + BURST_BLOCK / 4 + (rng.next_u64() % span) as usize;
                        }
                        let in_burst = (burst_at..burst_at + BURST_LEN).contains(&seq);
                        let level = 0.43 + 0.008 * rng.normal();
                        let dip = rng.unit() < 0.01;
                        let dip_depth = -0.06 * (1.0 - rng.unit()).ln();
                        let spike = rng.unit() < 0.004;
                        let side = if rng.unit() < 0.5 { -1.0 } else { 1.0 };
                        let spike_size = side * rng.range(0.02, 0.3);
                        let failed = 0.12 + 0.01 * rng.normal();
                        values.push(if in_burst {
                            failed
                        } else if spike {
                            level + spike_size
                        } else if dip {
                            level - dip_depth
                        } else {
                            level
                        });
                        in_burst || spike
                    }
                };
                injected.push(label);
            }
        }
        Self {
            dims,
            leaves,
            per_leaf,
            values,
            injected,
        }
    }

    pub fn value(&self, leaf: usize, seq: usize) -> &[f64] {
        let at = (leaf * self.per_leaf + seq) * self.dims;
        &self.values[at..at + self.dims]
    }

    pub fn is_injected(&self, leaf: usize, seq: usize) -> bool {
        self.injected[leaf * self.per_leaf + seq]
    }

    pub fn readings(&self) -> usize {
        self.leaves * self.per_leaf
    }

    #[cfg(test)]
    pub fn injected_share(&self) -> f64 {
        self.injected.iter().filter(|&&b| b).count() as f64 / self.injected.len() as f64
    }

    /// FNV-1a over every value's bits and label.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for v in &self.values {
            h.write_u64(v.to_bits());
        }
        for &b in &self.injected {
            h.write_u64(u64::from(b));
        }
        h.finish()
    }
}

/// FNV-1a, 64-bit: the digest of inputs and of detection lists.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Stream; 3] = [
        Stream::Mixture1d,
        Stream::Correlated2d,
        Stream::SkewedEngine,
    ];

    #[test]
    fn same_seed_same_table_other_seed_other_table() {
        for stream in ALL {
            let a = ReadingTable::generate(stream, 1, 4, 3000);
            let b = ReadingTable::generate(stream, 1, 4, 3000);
            let c = ReadingTable::generate(stream, 2, 4, 3000);
            assert_eq!(a.digest(), b.digest(), "{stream:?}");
            assert_ne!(a.digest(), c.digest(), "{stream:?}");
        }
    }

    #[test]
    fn a_longer_table_extends_a_shorter_one() {
        for stream in ALL {
            let short = ReadingTable::generate(stream, 7, 3, 2500);
            let long = ReadingTable::generate(stream, 7, 3, 5000);
            for leaf in 0..3 {
                for seq in 0..2500 {
                    assert_eq!(short.value(leaf, seq), long.value(leaf, seq));
                    assert_eq!(short.is_injected(leaf, seq), long.is_injected(leaf, seq));
                }
            }
        }
    }

    #[test]
    fn label_share_is_in_the_stated_range_and_values_are_in_range() {
        for stream in ALL {
            for seed in [1, 2, 3] {
                let t = ReadingTable::generate(stream, seed, 8, 8192);
                let (lo, hi) = stream.label_share_range();
                let share = t.injected_share();
                assert!(
                    (lo..=hi).contains(&share),
                    "{stream:?} seed {seed}: {share}"
                );
                assert!(t
                    .values
                    .iter()
                    .all(|v| v.is_finite() && (-0.5..=1.5).contains(v)));
            }
        }
    }

    #[test]
    fn the_engine_stream_is_left_skewed() {
        let t = ReadingTable::generate(Stream::SkewedEngine, 1, 8, 8192);
        let n = t.values.len() as f64;
        let mean = t.values.iter().sum::<f64>() / n;
        let m2 = t.values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let m3 = t.values.iter().map(|v| (v - mean).powi(3)).sum::<f64>() / n;
        let skew = m3 / m2.powf(1.5);
        assert!((0.40..0.44).contains(&mean), "mean {mean}");
        assert!(skew < -3.0, "skew {skew}");
    }

    #[test]
    fn normal_variates_have_unit_scale() {
        let mut rng = Rng::new(9, 0);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(
            mean.abs() < 0.03 && (var - 1.0).abs() < 0.05,
            "{mean} {var}"
        );
    }
}
