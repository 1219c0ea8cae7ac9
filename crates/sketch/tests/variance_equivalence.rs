//! Differential check of `WindowedVariance`'s filter-then-verify merge
//! pass against the plain greedy pass it replaced (reproduced below as
//! `Reference`): after every push the persisted buckets must be
//! byte-identical and `variance()` / `mean()` bit-identical, across
//! window sizes, ε, stream shapes and magnitudes from subnormal to
//! overflowing, and across a `save`/`load` round trip mid-stream. The
//! O(1) `variance_interval()` must contain `variance()` whenever it
//! answers.

use std::collections::VecDeque;

use snod_persist::{ByteWriter, Persist};
use snod_sketch::WindowedVariance;

#[derive(Clone, Copy)]
struct Bucket {
    oldest: u64,
    newest: u64,
    n: u64,
    mean: f64,
    v: f64,
}

impl Bucket {
    fn combine(a: &Bucket, b: &Bucket) -> Bucket {
        let n = a.n + b.n;
        let mean = (a.n as f64 * a.mean + b.n as f64 * b.mean) / n as f64;
        let d = a.mean - b.mean;
        let v = a.v + b.v + (a.n as f64 * b.n as f64 / n as f64) * d * d;
        Bucket {
            oldest: a.oldest.min(b.oldest),
            newest: a.newest.max(b.newest),
            n,
            mean,
            v,
        }
    }
}

#[derive(Clone, Copy)]
struct Combined {
    n: f64,
    mean: f64,
    v: f64,
}

impl Combined {
    const EMPTY: Combined = Combined {
        n: 0.0,
        mean: 0.0,
        v: 0.0,
    };

    fn add(self, n: f64, mean: f64, v: f64) -> Combined {
        if n == 0.0 {
            return self;
        }
        if self.n == 0.0 {
            return Combined { n, mean, v };
        }
        let total = self.n + n;
        let m = (self.n * self.mean + n * mean) / total;
        let d = self.mean - mean;
        Combined {
            n: total,
            mean: m,
            v: self.v + v + (self.n * n / total) * d * d,
        }
    }
}

/// The sketch with the merge pass that recomputes every suffix fold.
struct Reference {
    buckets: VecDeque<Bucket>,
    window: u64,
    eps: f64,
    time: u64,
    max_buckets_seen: usize,
}

impl Reference {
    fn new(window: u64, eps: f64) -> Self {
        Self {
            buckets: VecDeque::new(),
            window,
            eps,
            time: 0,
            max_buckets_seen: 0,
        }
    }

    fn push(&mut self, x: f64) {
        self.time += 1;
        let horizon = self.time.saturating_sub(self.window);
        while self.buckets.front().is_some_and(|b| b.newest <= horizon) {
            self.buckets.pop_front();
        }
        self.buckets.push_back(Bucket {
            oldest: self.time,
            newest: self.time,
            n: 1,
            mean: x,
            v: 0.0,
        });
        self.merge_pass();
        self.max_buckets_seen = self.max_buckets_seen.max(self.buckets.len());
    }

    fn merge_pass(&mut self) {
        loop {
            let m = self.buckets.len();
            if m < 3 {
                return;
            }
            let mut suffix = vec![Combined::EMPTY; m + 1];
            for i in (0..m).rev() {
                let b = &self.buckets[i];
                suffix[i] = suffix[i + 1].add(b.n as f64, b.mean, b.v);
            }
            let threshold = self.eps * self.eps / 9.0;
            let mut merged_any = false;
            for i in 0..m - 2 {
                let cand = Bucket::combine(&self.buckets[i], &self.buckets[i + 1]);
                if cand.v <= threshold * suffix[i + 2].v {
                    self.buckets[i] = cand;
                    self.buckets.remove(i + 1);
                    merged_any = true;
                    break;
                }
            }
            if !merged_any {
                return;
            }
        }
    }

    fn variance(&self) -> f64 {
        let horizon = self.time.saturating_sub(self.window);
        let mut acc = Combined::EMPTY;
        for b in &self.buckets {
            if b.oldest > horizon {
                acc = acc.add(b.n as f64, b.mean, b.v);
            } else {
                let live = b.newest.saturating_sub(horizon) as f64;
                if live > 0.0 {
                    acc = acc.add(live, b.mean, b.v * (live / b.n as f64));
                }
            }
        }
        if acc.n <= 1.0 {
            0.0
        } else {
            acc.v / acc.n
        }
    }

    fn mean(&self) -> f64 {
        let horizon = self.time.saturating_sub(self.window);
        let mut acc = Combined::EMPTY;
        for b in &self.buckets {
            let live = if b.oldest > horizon {
                b.n as f64
            } else {
                b.newest.saturating_sub(horizon) as f64
            };
            if live > 0.0 {
                acc = acc.add(live, b.mean, 0.0);
            }
        }
        acc.mean
    }

    /// `WindowedVariance`'s checkpoint encoding of the same state.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_usize(self.buckets.len());
        for b in &self.buckets {
            w.put_u64(b.oldest);
            w.put_u64(b.newest);
            w.put_u64(b.n);
            w.put_f64(b.mean);
            w.put_f64(b.v);
        }
        w.put_u64(self.window);
        w.put_f64(self.eps);
        w.put_u64(self.time);
        w.put_usize(self.max_buckets_seen);
        w.into_bytes()
    }

    fn loadable(&self) -> bool {
        self.buckets
            .iter()
            .all(|b| b.mean.is_finite() && b.v.is_finite())
    }
}

/// Pushes `xs` into both sketches, comparing after every push; restores
/// the sketch from its own checkpoint halfway through.
fn check(window: usize, eps: f64, name: &str, xs: &[f64]) {
    let mut wv = WindowedVariance::new(window, eps).unwrap();
    let mut reference = Reference::new(window as u64, eps);
    for (t, &x) in xs.iter().enumerate() {
        wv.push(x);
        reference.push(x);
        let ctx = || format!("{name}: W = {window}, ε = {eps}, push {t}");
        assert!(
            wv.to_bytes() == reference.to_bytes(),
            "buckets differ — {}",
            ctx()
        );
        assert_eq!(
            wv.variance().to_bits(),
            reference.variance().to_bits(),
            "variance — {}",
            ctx()
        );
        assert_eq!(
            wv.mean().to_bits(),
            reference.mean().to_bits(),
            "mean — {}",
            ctx()
        );
        if let Some((lo, hi)) = wv.variance_interval() {
            let v = wv.variance();
            assert!(
                lo <= v && v <= hi,
                "variance {v:e} outside [{lo:e}, {hi:e}] — {}",
                ctx()
            );
        }
        if t == xs.len() / 2 {
            let restored = WindowedVariance::from_bytes(&wv.to_bytes());
            if reference.loadable() {
                wv = restored.unwrap_or_else(|e| panic!("reload failed ({e:?}) — {}", ctx()));
                assert!(wv.variance_interval().is_none(), "stale filter — {}", ctx());
            } else {
                assert!(restored.is_err(), "non-finite moments loaded — {}", ctx());
            }
        }
    }
}

/// xorshift64* uniforms in [0, 1).
struct Rng(u64);

impl Rng {
    fn uniform(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn streams(len: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut draw = |f: &mut dyn FnMut(&mut Rng, usize) -> f64| -> Vec<f64> {
        (0..len).map(|i| f(&mut rng, i)).collect()
    };
    let uniform = draw(&mut |r, _| r.uniform());
    let clustered = draw(&mut |r, _| {
        let centre = if r.uniform() < 0.9 { 0.0 } else { 5.0 };
        centre + 0.1 * (r.uniform() + r.uniform() + r.uniform() - 1.5)
    });
    let zeros = draw(&mut |r, _| if r.uniform() < 0.5 { 0.0 } else { -0.0 });
    let scaled = |xs: &[f64], offset: f64, scale: f64| -> Vec<f64> {
        xs.iter().map(|x| offset + scale * (x - 0.5)).collect()
    };
    vec![
        ("constant", vec![3.5; len]),
        ("signed zeros", zeros),
        ("ramp", (0..len).map(|i| i as f64 * 0.01).collect()),
        ("sawtooth", (0..len).map(|i| (i % 97) as f64).collect()),
        (
            "alternating",
            (0..len)
                .map(|i| if i % 2 == 0 { -1.0 } else { 1.0 })
                .collect(),
        ),
        ("offset 1e6", scaled(&uniform, 1e6, 1e-6)),
        ("offset 1e12", scaled(&clustered, 1e12, 1e-3)),
        ("subnormal", scaled(&uniform, 0.0, 1e-310)),
        ("scale 1e150", scaled(&clustered, 0.0, 1e150)),
        ("offset 1e150", scaled(&uniform, 1e150, 1e140)),
        ("scale 1e200", scaled(&uniform, 0.0, 1e200)),
        ("uniform", uniform),
        ("clustered", clustered),
    ]
}

/// Every stream shape at one window size and ε; long enough to slide
/// the window, rebuild the filter and restore mid-stream.
fn matrix(window: usize, eps: f64) {
    let len = (window + window / 2).max(400);
    for (name, xs) in streams(len, window as u64) {
        check(window, eps, name, &xs);
    }
}

#[test]
fn small_windows_match_the_reference_pass() {
    for window in [1, 2, 3, 16] {
        for eps in [0.05, 0.2, 1.0] {
            matrix(window, eps);
        }
    }
}

#[test]
fn fine_eps_matches_the_reference_pass() {
    matrix(1024, 0.05);
}

#[test]
fn paper_eps_matches_the_reference_pass() {
    matrix(1024, 0.2);
}

#[test]
fn coarse_eps_matches_the_reference_pass() {
    matrix(1024, 1.0);
}

#[test]
fn regime_changes_match_the_reference_pass() {
    // Scale jumps by many orders of magnitude within one window, so the
    // filter's pivot and error bounds lag the data until the next rebuild.
    let mut xs = Vec::new();
    let mut rng = Rng(7);
    for scale in [1.0, 1e-9, 1e9, 1.0, 1e-300, 1.0] {
        xs.extend((0..700).map(|_| scale * rng.uniform()));
    }
    for eps in [0.05, 0.2] {
        check(512, eps, "regime changes", &xs);
    }
}
