//! Chain sampling over sliding windows (Babcock, Datar, Motwani, SODA 2002).
//!
//! The paper's kernel estimators are built from a uniform random sample `R`
//! of the current sliding window `W` (Section 5: *"chain-sample, which
//! maintains a running sample of the sensor readings in the window"*).
//! A sample of size `|R|` *with replacement* is maintained as `|R|`
//! independent chains; each chain uses expected `O(1)` memory.
//!
//! ## The single-chain algorithm
//!
//! For the `i`-th stream element (1-based) and window length `w`:
//!
//! 1. With probability `1 / min(i, w)` the element becomes the chain's
//!    current sample. A *replacement index* is drawn uniformly from
//!    `[i+1, i+w]` — the range of indices that will be in the window at the
//!    moment element `i` expires — and any previously stored successors are
//!    discarded.
//! 2. Otherwise, if `i` equals the replacement index the chain is waiting
//!    for, the element is appended to the chain and a fresh replacement
//!    index is drawn from `[i+1, i+w]` for it.
//! 3. When the current sample expires (its index drops out of the window),
//!    the chain advances to its first stored successor. Because the
//!    replacement index is at most `cur + w`, the successor is guaranteed
//!    to have arrived (and to still be in the window) by expiry time.
//!
//! ## Per-element cost
//!
//! A naive implementation touches all `|R|` chains on every element. This
//! one runs in expected `O(1 + |R|/|W|)` per element: how many chains
//! select the element is drawn from `Binomial(|R|, 1/min(i, w))`, and
//! chains waiting for a replacement or an expiry at index `i` are found
//! through index-keyed maps instead of scans.

use std::collections::HashMap;
use std::collections::VecDeque;

use rand::Rng;
use snod_persist::{Persist, PersistError, SeededRng};

use crate::SketchError;

#[derive(Debug, Clone)]
struct Chain<T> {
    /// `(stream index, value)` of the element currently sampled.
    current: Option<(u64, T)>,
    /// Stored future replacements, ascending by index.
    successors: VecDeque<(u64, T)>,
    /// Index (1-based) of the next replacement this chain waits for.
    pending: Option<u64>,
}

impl<T> Chain<T> {
    fn new() -> Self {
        Self {
            current: None,
            successors: VecDeque::new(),
            pending: None,
        }
    }

    fn stored(&self) -> usize {
        usize::from(self.current.is_some()) + self.successors.len()
    }
}

/// A with-replacement uniform sample of the last `window` stream elements,
/// maintained as `sample_size` independent chains.
///
/// ```
/// use snod_sketch::ChainSampler;
/// let mut s = ChainSampler::<f64>::new(100, 10, 42).unwrap();
/// for i in 0..1000 {
///     s.push(i as f64);
/// }
/// let sample = s.sample();
/// assert_eq!(sample.len(), 10);
/// // every sampled value lies in the current window [900, 999]
/// assert!(sample.iter().all(|&v| (900.0..1000.0).contains(&v)));
/// ```
#[derive(Debug, Clone)]
pub struct ChainSampler<T> {
    chains: Vec<Chain<T>>,
    window: u64,
    /// 1-based index of the last element pushed.
    position: u64,
    /// Increments whenever the *current sample* of any chain changes —
    /// lets callers cache anything derived from [`Self::sample`].
    version: u64,
    /// Chains waiting for a replacement at a given future index.
    waiting: HashMap<u64, Vec<usize>>,
    /// Chains whose current sample expires at a given future index.
    expiring: HashMap<u64, Vec<usize>>,
    rng: SeededRng,
}

impl<T: Clone> ChainSampler<T> {
    /// Creates a sampler over a window of `window` elements that maintains
    /// `sample_size` chains. `seed` makes the sampler deterministic.
    pub fn new(window: usize, sample_size: usize, seed: u64) -> Result<Self, SketchError> {
        if window == 0 {
            return Err(SketchError::ZeroSize("window capacity"));
        }
        if sample_size == 0 {
            return Err(SketchError::ZeroSize("sample size"));
        }
        Ok(Self {
            chains: (0..sample_size).map(|_| Chain::new()).collect(),
            window: window as u64,
            position: 0,
            version: 0,
            waiting: HashMap::new(),
            expiring: HashMap::new(),
            rng: SeededRng::seed_from_u64(seed),
        })
    }

    /// Number of chains, i.e. the with-replacement sample size `|R|`.
    pub fn sample_size(&self) -> usize {
        self.chains.len()
    }

    /// The window length `|W|`.
    pub fn window(&self) -> usize {
        self.window as usize
    }

    /// Total elements pushed so far.
    pub fn stream_len(&self) -> u64 {
        self.position
    }

    /// A counter that changes whenever [`Self::sample`] would return a
    /// different set — cache invalidation hook for derived models.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// How many of the `k` chains select this element, distributed as
    /// `Binomial(k, 1/bound)`. Sampled by inversion for small means.
    fn draw_selection_count(&mut self, bound: u64) -> usize {
        let k = self.chains.len();
        if bound == 1 {
            return k; // first element: every chain takes it
        }
        let p = 1.0 / bound as f64;
        // With a large mean (early stream positions), q^k underflows and
        // inversion degenerates — fall back to per-chain Bernoulli there.
        if k as f64 * p > 300.0 {
            return (0..k).filter(|_| self.rng.gen::<f64>() < p).count();
        }
        // Inversion sampling: walk the binomial CDF. The mean k/bound is
        // tiny in steady state (|R|/|W| ≪ 1), so this loop is short.
        let mut u: f64 = self.rng.gen();
        let q = 1.0 - p;
        // P(X = 0) = q^k
        let mut prob = q.powi(k as i32);
        let mut x = 0usize;
        while u > prob && x < k {
            u -= prob;
            // P(X = x+1) = P(X = x) · (k − x)/(x + 1) · p/q
            prob *= (k - x) as f64 / (x + 1) as f64 * (p / q);
            x += 1;
        }
        x
    }

    /// Picks `count` distinct chain indices uniformly (rejection
    /// sampling; `count` is almost always 0 or 1).
    fn draw_selected_chains(&mut self, count: usize, out: &mut Vec<usize>) {
        out.clear();
        let k = self.chains.len();
        if count >= k {
            out.extend(0..k);
            return;
        }
        while out.len() < count {
            let c = self.rng.gen_range(0..k);
            if !out.contains(&c) {
                out.push(c);
            }
        }
    }

    /// Feeds one stream element into every chain. Returns `true` when the
    /// element was stored by at least one chain (the paper's leaf processes
    /// forward an element to their parent, with probability `f`, exactly
    /// when the sample accepted it — algorithm D3, line 14).
    pub fn push(&mut self, value: T) -> bool {
        snod_obs::counter!("sketch.chain.pushes").incr();
        self.position += 1;
        let i = self.position;
        let w = self.window;
        let mut accepted = false;

        // 1. Chains that select this element (probability 1/min(i, w)
        //    each, drawn jointly as a binomial).
        let count = self.draw_selection_count(i.min(w));
        let mut selected = Vec::new();
        self.draw_selected_chains(count, &mut selected);
        for &c in &selected {
            let replacement = self.rng.gen_range(i + 1..=i + w);
            let chain = &mut self.chains[c];
            // Invalidate any stale bookkeeping: entries in `waiting` and
            // `expiring` are validated against the chain state when their
            // index arrives, so no eager cleanup is needed here.
            chain.current = Some((i, value.clone()));
            chain.successors.clear();
            chain.pending = Some(replacement);
            self.waiting.entry(replacement).or_default().push(c);
            self.expiring.entry(i + w).or_default().push(c);
            accepted = true;
            self.version += 1;
        }

        // 2. Chains waiting for exactly this index as a replacement.
        if let Some(waiters) = self.waiting.remove(&i) {
            for c in waiters {
                if selected.contains(&c) {
                    continue; // the selection above superseded the wait
                }
                let chain = &mut self.chains[c];
                if chain.pending != Some(i) {
                    continue; // stale entry from before a re-selection
                }
                let replacement = self.rng.gen_range(i + 1..=i + w);
                chain.successors.push_back((i, value.clone()));
                chain.pending = Some(replacement);
                self.waiting.entry(replacement).or_default().push(c);
                accepted = true;
            }
        }

        // 3. Chains whose current sample expires with this arrival
        //    (current index == i − w).
        if let Some(expired) = self.expiring.remove(&i) {
            for c in expired {
                let chain = &mut self.chains[c];
                let Some((idx, _)) = chain.current else {
                    continue;
                };
                if idx + w != i {
                    continue; // stale: the chain re-selected since
                }
                chain.current = chain.successors.pop_front();
                self.version += 1;
                if let Some((nidx, _)) = chain.current {
                    self.expiring.entry(nidx + w).or_default().push(c);
                }
            }
        }
        if accepted {
            snod_obs::counter!("sketch.chain.accepts").incr();
        }
        accepted
    }

    /// The current with-replacement sample. Length equals `sample_size()`
    /// once the stream is non-empty (each chain always holds one live
    /// element after the first push).
    pub fn sample(&self) -> Vec<T> {
        self.chains
            .iter()
            .filter_map(|c| c.current.as_ref().map(|(_, v)| v.clone()))
            .collect()
    }

    /// Like [`Self::sample`] but exposes the stream index of every sampled
    /// element (used by tests to check window membership).
    pub fn sample_with_indices(&self) -> Vec<(u64, T)> {
        self.chains
            .iter()
            .filter_map(|c| c.current.clone())
            .collect()
    }

    /// Total number of `(index, value)` entries currently stored across all
    /// chains — the quantity charged against sensor memory in §10.3.
    pub fn stored_entries(&self) -> usize {
        self.chains.iter().map(Chain::stored).sum()
    }

    /// Approximate memory footprint in bytes, assuming `value_bytes` bytes
    /// per stored value (the paper assumes a 16-bit architecture, i.e. 2
    /// bytes per number) plus 8 bytes for the stream index of each entry.
    pub fn memory_bytes(&self, value_bytes: usize) -> usize {
        self.stored_entries() * (value_bytes + 8)
    }
}

snod_persist::persist_struct! {
    impl[T: Persist] Chain<T> {
        current,
        successors,
        pending,
    }
    check: none
}

snod_persist::persist_struct! {
    impl[T: Persist] ChainSampler<T> {
        chains,
        window,
        position,
        version,
        waiting,
        expiring,
        rng,
    }
    check: ChainSampler::check_loaded
}

impl<T> ChainSampler<T> {
    /// What a loaded state must respect for `push` to run: a positive
    /// window and at least one chain; every map entry names a chain and
    /// lies in the future (stale entries stay legal, `push` skips them),
    /// and each chain's stored indices are past, strictly ascending, and
    /// wait for a future replacement.
    fn check_loaded(&self) -> Result<(), PersistError> {
        if self.window == 0 {
            return Err(PersistError::Corrupt(
                "chain sampler window must be positive",
            ));
        }
        if self.chains.is_empty() {
            return Err(PersistError::Corrupt(
                "chain sampler needs at least one chain",
            ));
        }
        let p = self.position;
        if p.checked_add(self.window).is_none() {
            return Err(PersistError::Corrupt("chain sampler position overflows"));
        }
        let entries = self.waiting.iter().chain(&self.expiring);
        for (&at, ids) in entries {
            if at <= p {
                return Err(PersistError::Corrupt(
                    "chain sampler map index is not ahead",
                ));
            }
            if ids.iter().any(|&c| c >= self.chains.len()) {
                return Err(PersistError::Corrupt("chain sampler map names no chain"));
            }
        }
        for chain in &self.chains {
            let indices = chain.current.iter().chain(&chain.successors).map(|e| e.0);
            let mut last = 0;
            for i in indices {
                if i <= last || i > p {
                    return Err(PersistError::Corrupt(
                        "chain sample indices must ascend up to the position",
                    ));
                }
                last = i;
            }
            if chain.pending.is_some_and(|at| at <= p) {
                return Err(PersistError::Corrupt(
                    "chain replacement index is not ahead",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_parameters() {
        assert!(ChainSampler::<f64>::new(0, 4, 1).is_err());
        assert!(ChainSampler::<f64>::new(4, 0, 1).is_err());
    }

    #[test]
    fn sample_is_full_size_after_first_element() {
        let mut s = ChainSampler::new(16, 8, 7).unwrap();
        s.push(1.0_f64);
        assert_eq!(s.sample().len(), 8);
    }

    #[test]
    fn sample_never_shrinks() {
        // Every chain's replacement arrives before its expiry, so the
        // sample stays full forever.
        let mut s = ChainSampler::new(32, 16, 23).unwrap();
        for i in 0..10_000u64 {
            s.push(i);
            assert_eq!(s.sample().len(), 16, "sample shrank at element {i}");
        }
    }

    #[test]
    fn sampled_indices_always_inside_window() {
        let mut s = ChainSampler::new(50, 20, 3).unwrap();
        for i in 0..5_000_u64 {
            s.push(i as f64);
            let horizon = s.stream_len().saturating_sub(50);
            for (idx, _) in s.sample_with_indices() {
                assert!(idx > horizon && idx <= s.stream_len());
            }
        }
    }

    #[test]
    fn sample_is_roughly_uniform_over_window() {
        // Push a long stream where the value equals the stream position,
        // then check that sampled positions cover the window without heavy
        // bias: split the window into 4 quartiles and require each to get
        // at least half of its expected share.
        let w = 400;
        let k = 64;
        let mut counts = [0usize; 4];
        let mut total = 0usize;
        for seed in 0..40 {
            let mut s = ChainSampler::new(w, k, seed).unwrap();
            for i in 0..(3 * w as u64) {
                s.push(i);
            }
            let lo = 3 * w as u64 - w as u64; // window start (exclusive horizon)
            for (idx, _) in s.sample_with_indices() {
                let off = (idx - lo - 1) as usize;
                counts[off * 4 / w] += 1;
                total += 1;
            }
        }
        let expected = total as f64 / 4.0;
        for (q, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > 0.5 * expected && (c as f64) < 1.5 * expected,
                "quartile {q} count {c} far from expected {expected}"
            );
        }
    }

    #[test]
    fn chains_use_bounded_memory() {
        let mut s = ChainSampler::new(1_000, 32, 11).unwrap();
        let mut max_entries = 0;
        for i in 0..50_000_u64 {
            s.push(i);
            max_entries = max_entries.max(s.stored_entries());
        }
        // Expected chain length is O(1); allow a generous constant.
        assert!(
            max_entries < 32 * 16,
            "stored entries {max_entries} exceed expected O(k) bound"
        );
    }

    #[test]
    fn bookkeeping_maps_stay_bounded() {
        let mut s = ChainSampler::new(500, 64, 13).unwrap();
        for i in 0..100_000u64 {
            s.push(i);
        }
        // One waiting entry per chain tail, one expiring entry per live
        // chain head (plus bounded stale entries within one window).
        assert!(s.waiting.len() <= 64 * 4, "waiting {}", s.waiting.len());
        assert!(s.expiring.len() <= 64 * 4, "expiring {}", s.expiring.len());
    }

    #[test]
    fn version_changes_exactly_when_sample_changes() {
        let mut s = ChainSampler::new(64, 8, 17).unwrap();
        let mut last_version = s.version();
        let mut last_sample = s.sample();
        for i in 0..2_000u64 {
            s.push(i);
            let sample = s.sample();
            if s.version() == last_version {
                assert_eq!(sample, last_sample, "sample changed without version bump");
            }
            last_version = s.version();
            last_sample = sample;
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mut a = ChainSampler::new(100, 10, 99).unwrap();
        let mut b = ChainSampler::new(100, 10, 99).unwrap();
        for i in 0..1_000_u64 {
            a.push(i);
            b.push(i);
        }
        assert_eq!(a.sample(), b.sample());
    }

    /// A sampler 50 pushes in, damaged by `damage`, saved and loaded.
    fn reload_damaged(damage: impl FnOnce(&mut ChainSampler<u64>)) -> Result<(), PersistError> {
        let mut s = ChainSampler::new(16, 4, 5).unwrap();
        for i in 0..50u64 {
            s.push(i);
        }
        damage(&mut s);
        ChainSampler::<u64>::from_bytes(&s.to_bytes()).map(|_| ())
    }

    fn rejects(damage: impl FnOnce(&mut ChainSampler<u64>)) -> &'static str {
        match reload_damaged(damage) {
            Err(PersistError::Corrupt(why)) => why,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn load_accepts_stale_map_entries() {
        // A re-selected chain leaves entries behind; `push` skips them.
        reload_damaged(|s| s.waiting.entry(s.position + 3).or_default().push(0)).unwrap();
    }

    #[test]
    fn load_rejects_a_map_entry_naming_no_chain() {
        // Loaded, this state would panic at `self.chains[c]` on the push
        // that reaches the entry.
        let ahead = |s: &ChainSampler<u64>| s.position + 1;
        let why = rejects(|s| s.waiting.entry(ahead(s)).or_default().push(4));
        assert_eq!(why, "chain sampler map names no chain");
        let why = rejects(|s| s.expiring.entry(ahead(s)).or_default().push(usize::MAX));
        assert_eq!(why, "chain sampler map names no chain");
    }

    #[test]
    fn load_rejects_a_map_entry_that_is_not_ahead() {
        let why = rejects(|s| s.expiring.entry(s.position).or_default().push(0));
        assert_eq!(why, "chain sampler map index is not ahead");
    }

    #[test]
    fn load_rejects_an_overflowing_position() {
        let why = rejects(|s| s.position = u64::MAX - 3);
        assert_eq!(why, "chain sampler position overflows");
    }

    #[test]
    fn load_rejects_chain_indices_out_of_order_or_ahead() {
        let why = rejects(|s| s.chains[1].current.as_mut().unwrap().0 = s.position + 1);
        assert_eq!(why, "chain sample indices must ascend up to the position");
        let why = rejects(|s| {
            let current = s.chains[2].current.unwrap();
            s.chains[2].successors.push_front(current);
        });
        assert_eq!(why, "chain sample indices must ascend up to the position");
    }

    #[test]
    fn load_rejects_a_replacement_index_not_ahead() {
        let why = rejects(|s| s.chains[0].pending = Some(s.position));
        assert_eq!(why, "chain replacement index is not ahead");
    }

    #[test]
    fn large_sample_pushes_are_fast_enough_for_debug_tests() {
        // Regression guard for the O(|R|)-per-push implementation: 40k
        // pushes against |R| = 2000 must stay well under a second even
        // unoptimised.
        let mut s = ChainSampler::new(20_000, 2_000, 1).unwrap();
        let start = std::time::Instant::now();
        for i in 0..40_000u64 {
            s.push(i);
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "pushes took {:?}",
            start.elapsed()
        );
    }
}
