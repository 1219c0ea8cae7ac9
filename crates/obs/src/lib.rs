//! Observability substrate for the snod crates: structured timing spans
//! and a lock-free metrics registry (counters, gauges and HDR-style
//! log-linear histograms).
//!
//! # Design constraints (DESIGN.md §9)
//!
//! * **Zero off-path cost.** Everything here is compiled out unless the
//!   `enabled` cargo feature is on. [`enabled`] is a `const fn`, so the
//!   `if snod_obs::enabled()` branches the [`counter!`]/[`span!`] macros
//!   expand to fold away entirely in disabled builds — call sites in the
//!   library crates never need `#[cfg]` attributes of their own.
//! * **Lock-free hot path.** Handles point at leaked, `'static` atomic
//!   cells; recording is a relaxed `fetch_add`. The registry mutex is
//!   only taken when a call site first materialises its handle (the
//!   macros cache handles in a `OnceLock`, so that happens once per call
//!   site per process).
//! * **Determinism.** Instrumentation only *reads* simulation state and
//!   increments process-global atomics. It never draws randomness, never
//!   advances simulated time, and never feeds anything back into the
//!   code under observation, so a run is bit-identical with the feature
//!   on or off (`tests/obs_determinism.rs` in the workspace root proves
//!   it). Wall-clock timestamps ([`std::time::Instant`]) are taken only
//!   for span histograms and never influence control flow.
//!
//! # Naming
//!
//! Metric names are dot-separated paths, `crate.component.event`
//! (e.g. `density.sweep.queries`, `simnet.radio.dropped`). Span
//! histograms record nanoseconds and use the same scheme with a verb
//! leaf (e.g. `core.model.rebuild`). See DESIGN.md §9 for the taxonomy.
//!
//! ```
//! let c = snod_obs::counter!("doc.example.events");
//! c.add(3);
//! {
//!     let _span = snod_obs::span!("doc.example.work");
//!     // ... timed region ...
//! }
//! let snap = snod_obs::snapshot();
//! # let _ = snap.to_json();
//! ```

#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(feature = "enabled")]
use std::sync::{Mutex, OnceLock};
#[cfg(feature = "enabled")]
use std::time::Instant;

/// Whether instrumentation is compiled into this build. `const`, so
/// disabled-path branches are removed by the compiler.
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

// ------------------------------------------------------------ registry --

#[cfg(feature = "enabled")]
struct Registry {
    counters: Mutex<Vec<(String, &'static AtomicU64)>>,
    gauges: Mutex<Vec<(String, &'static AtomicU64)>>,
    histograms: Mutex<Vec<(String, &'static HistCells)>>,
    /// Runtime kill-switch (used by the determinism test); collection
    /// defaults to on when compiled in.
    active: AtomicBool,
}

#[cfg(feature = "enabled")]
fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        gauges: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
        active: AtomicBool::new(true),
    })
}

#[cfg(feature = "enabled")]
fn find_or_insert<T: ?Sized>(
    table: &Mutex<Vec<(String, &'static T)>>,
    name: &str,
    make: impl FnOnce() -> &'static T,
) -> &'static T {
    let mut t = table.lock().expect("obs registry poisoned");
    if let Some((_, cell)) = t.iter().find(|(n, _)| n == name) {
        cell
    } else {
        let cell = make();
        t.push((name.to_string(), cell));
        cell
    }
}

/// Runtime toggle for collection (compiled-in builds only; a no-op
/// otherwise). Collection starts enabled.
pub fn set_active(on: bool) {
    #[cfg(feature = "enabled")]
    registry().active.store(on, Ordering::Relaxed);
    #[cfg(not(feature = "enabled"))]
    let _ = on;
}

/// Whether collection is compiled in *and* runtime-active.
#[inline]
pub fn is_active() -> bool {
    #[cfg(feature = "enabled")]
    {
        registry().active.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    false
}

// ------------------------------------------------------------- counter --

/// Monotonic event counter. Copyable handle to a `'static` cell.
#[derive(Clone, Copy)]
pub struct Counter {
    #[cfg(feature = "enabled")]
    cell: &'static AtomicU64,
}

impl Counter {
    /// Registers (or re-acquires) the counter called `name`.
    pub fn named(name: &str) -> Self {
        #[cfg(feature = "enabled")]
        {
            let cell = find_or_insert(&registry().counters, name, || {
                Box::leak(Box::new(AtomicU64::new(0)))
            });
            Counter { cell }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = name;
            Counter {}
        }
    }

    /// A handle that records nothing (what [`counter!`] expands to in
    /// disabled builds).
    pub fn null() -> Self {
        #[cfg(feature = "enabled")]
        {
            static NULL: AtomicU64 = AtomicU64::new(0);
            Counter { cell: &NULL }
        }
        #[cfg(not(feature = "enabled"))]
        Counter {}
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "enabled")]
        if is_active() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
        #[cfg(not(feature = "enabled"))]
        let _ = n;
    }

    /// Current value (0 in disabled builds).
    pub fn get(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.cell.load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "enabled"))]
        0
    }
}

// --------------------------------------------------------------- gauge --

/// Last-write-wins (or high-water-mark) value.
#[derive(Clone, Copy)]
pub struct Gauge {
    #[cfg(feature = "enabled")]
    cell: &'static AtomicU64,
}

impl Gauge {
    pub fn named(name: &str) -> Self {
        #[cfg(feature = "enabled")]
        {
            let cell = find_or_insert(&registry().gauges, name, || {
                Box::leak(Box::new(AtomicU64::new(0)))
            });
            Gauge { cell }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = name;
            Gauge {}
        }
    }

    pub fn null() -> Self {
        #[cfg(feature = "enabled")]
        {
            static NULL: AtomicU64 = AtomicU64::new(0);
            Gauge { cell: &NULL }
        }
        #[cfg(not(feature = "enabled"))]
        Gauge {}
    }

    #[inline]
    pub fn set(&self, v: u64) {
        #[cfg(feature = "enabled")]
        if is_active() {
            self.cell.store(v, Ordering::Relaxed);
        }
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn record_max(&self, v: u64) {
        #[cfg(feature = "enabled")]
        if is_active() {
            self.cell.fetch_max(v, Ordering::Relaxed);
        }
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }

    pub fn get(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.cell.load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "enabled"))]
        0
    }
}

// ----------------------------------------------------------- histogram --

/// Log-linear bucket layout (HDR-histogram style): `1 << SUB_BITS`
/// linear sub-buckets per power of two, giving a worst-case relative
/// error of `2^-SUB_BITS` (12.5%) on any recorded value while covering
/// the full `u64` range in [`BUCKETS`] cells.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Number of buckets needed to cover `0..=u64::MAX`.
pub const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

// Only the enabled histogram path (and the layout test) use the bucket
// mapping; keep it compiled under both settings so the test covers it.
#[cfg_attr(not(feature = "enabled"), allow(dead_code))]
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64;
        let shift = msb - SUB_BITS as u64;
        let sub = (v >> shift) - SUB;
        ((shift + 1) * SUB + sub) as usize
    }
}

/// Smallest value mapping to bucket `i` (the quantile estimate the
/// snapshot reports — a conservative lower bound).
#[cfg_attr(not(feature = "enabled"), allow(dead_code))]
fn bucket_floor(i: usize) -> u64 {
    if i < SUB as usize {
        i as u64
    } else {
        let shift = (i / SUB as usize - 1) as u32;
        (SUB + (i % SUB as usize) as u64) << shift
    }
}

#[cfg(feature = "enabled")]
struct HistCells {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

#[cfg(feature = "enabled")]
impl HistCells {
    fn new() -> Self {
        HistCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Histogram of `u64` observations (span histograms record
/// nanoseconds). Copyable handle.
#[derive(Clone, Copy)]
pub struct Histogram {
    #[cfg(feature = "enabled")]
    cells: &'static HistCells,
}

impl Histogram {
    pub fn named(name: &str) -> Self {
        #[cfg(feature = "enabled")]
        {
            let cells = find_or_insert(&registry().histograms, name, || {
                Box::leak(Box::new(HistCells::new()))
            });
            Histogram { cells }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = name;
            Histogram {}
        }
    }

    pub fn null() -> Self {
        #[cfg(feature = "enabled")]
        {
            static NULL: OnceLock<&'static HistCells> = OnceLock::new();
            Histogram {
                cells: NULL.get_or_init(|| Box::leak(Box::new(HistCells::new()))),
            }
        }
        #[cfg(not(feature = "enabled"))]
        Histogram {}
    }

    #[inline]
    pub fn record(&self, v: u64) {
        #[cfg(feature = "enabled")]
        if is_active() {
            self.cells.count.fetch_add(1, Ordering::Relaxed);
            self.cells.sum.fetch_add(v, Ordering::Relaxed);
            self.cells.max.fetch_max(v, Ordering::Relaxed);
            self.cells.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }

    /// Starts a timing span that records its elapsed nanoseconds into
    /// this histogram when dropped.
    #[inline]
    pub fn start(&self) -> SpanGuard {
        #[cfg(feature = "enabled")]
        {
            SpanGuard {
                inner: is_active().then(|| (*self, Instant::now())),
            }
        }
        #[cfg(not(feature = "enabled"))]
        SpanGuard {}
    }

    /// Times `f`, recording its wall-clock nanoseconds.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.start();
        f()
    }
}

/// RAII timing span; records into its histogram on drop. Bind it to a
/// named variable (`let _span = ...`), not `_`, or it drops immediately.
#[must_use = "a span records on drop; binding to _ times nothing"]
pub struct SpanGuard {
    #[cfg(feature = "enabled")]
    inner: Option<(Histogram, Instant)>,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some((h, t0)) = self.inner.take() {
            h.record(t0.elapsed().as_nanos() as u64);
        }
    }
}

// -------------------------------------------------------------- macros --

/// Cached [`Counter`] handle for a static name; ≈ one relaxed atomic
/// load per use once initialised, and nothing at all in disabled builds.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        if $crate::enabled() {
            static __SNOD_OBS: ::std::sync::OnceLock<$crate::Counter> =
                ::std::sync::OnceLock::new();
            *__SNOD_OBS.get_or_init(|| $crate::Counter::named($name))
        } else {
            $crate::Counter::null()
        }
    }};
}

/// Cached [`Gauge`] handle for a static name.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        if $crate::enabled() {
            static __SNOD_OBS: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
            *__SNOD_OBS.get_or_init(|| $crate::Gauge::named($name))
        } else {
            $crate::Gauge::null()
        }
    }};
}

/// Cached [`Histogram`] handle for a static name.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        if $crate::enabled() {
            static __SNOD_OBS: ::std::sync::OnceLock<$crate::Histogram> =
                ::std::sync::OnceLock::new();
            *__SNOD_OBS.get_or_init(|| $crate::Histogram::named($name))
        } else {
            $crate::Histogram::null()
        }
    }};
}

/// Opens a timing span recording into the histogram `$name`; returns a
/// [`SpanGuard`] that records on drop.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::histogram!($name).start()
    };
}

// ------------------------------------------------------------ snapshot --

/// Point-in-time export of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded values (ns for span histograms).
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Quantile lower bounds (≤ 12.5% relative error).
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time export of every registered metric, sorted by name so
/// the serialised form is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter by name, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// A histogram by name, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Whether nothing was registered (always true in disabled builds).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Hand-rolled JSON encoding (the workspace pins no JSON crate).
    /// Shape:
    /// `{"counters": {name: u64, ...}, "gauges": {...},
    ///   "histograms": {name: {"count": .., "sum": .., "max": ..,
    ///                         "p50": .., "p90": .., "p99": ..}, ...}}`
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n    \"{}\": {v}", esc(n)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n    \"{}\": {v}", esc(n)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!(
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                esc(&h.name),
                h.count,
                h.sum,
                h.max,
                h.p50,
                h.p90,
                h.p99
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Snapshots every registered metric. Empty in disabled builds.
pub fn snapshot() -> MetricsSnapshot {
    #[cfg(feature = "enabled")]
    {
        let reg = registry();
        let mut counters: Vec<(String, u64)> = reg
            .counters
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, u64)> = reg
            .gauges
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
            .collect();
        gauges.sort();
        let mut histograms: Vec<HistogramSnapshot> = reg
            .histograms
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(n, cells)| {
                let count = cells.count.load(Ordering::Relaxed);
                let counts: Vec<u64> = cells
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect();
                let q = |p: f64| -> u64 {
                    let target = (count as f64 * p).ceil() as u64;
                    let mut seen = 0u64;
                    for (i, &c) in counts.iter().enumerate() {
                        seen += c;
                        if seen >= target && c > 0 {
                            return bucket_floor(i);
                        }
                    }
                    0
                };
                HistogramSnapshot {
                    name: n.clone(),
                    count,
                    sum: cells.sum.load(Ordering::Relaxed),
                    max: cells.max.load(Ordering::Relaxed),
                    p50: q(0.50),
                    p90: q(0.90),
                    p99: q(0.99),
                }
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
    #[cfg(not(feature = "enabled"))]
    MetricsSnapshot::default()
}

/// Zeroes every registered metric (bench binaries call this between
/// phases to attribute counts per phase). Handles stay valid.
pub fn reset() {
    #[cfg(feature = "enabled")]
    {
        let reg = registry();
        for (_, c) in reg.counters.lock().expect("obs registry poisoned").iter() {
            c.store(0, Ordering::Relaxed);
        }
        for (_, g) in reg.gauges.lock().expect("obs registry poisoned").iter() {
            g.store(0, Ordering::Relaxed);
        }
        for (_, h) in reg.histograms.lock().expect("obs registry poisoned").iter() {
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
            h.max.store(0, Ordering::Relaxed);
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
    }
}

// --------------------------------------------------------------- tests --

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every index from 0..BUCKETS is hit, floors are non-decreasing,
        // and a value always lands in a bucket whose floor is ≤ it.
        let mut prev_floor = 0;
        for i in 0..BUCKETS {
            let f = bucket_floor(i);
            assert!(f >= prev_floor, "floor regressed at {i}");
            assert_eq!(bucket_index(f), i, "floor of {i} maps elsewhere");
            prev_floor = f;
        }
        for v in [0u64, 1, 7, 8, 9, 1_000, 123_456_789, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < BUCKETS);
            assert!(bucket_floor(i) <= v);
        }
    }

    // One test covers registration, snapshots and the runtime
    // kill-switch: `set_active` is process-global, so splitting these
    // into parallel #[test]s would race.
    #[cfg(feature = "enabled")]
    #[test]
    fn registry_roundtrip_and_kill_switch() {
        let c = Counter::named("test.obs.inactive");
        set_active(false);
        c.incr();
        set_active(true);
        assert_eq!(c.get(), 0);
        c.incr();
        assert_eq!(c.get(), 1);

        let c = Counter::named("test.obs.counter");
        let before = c.get();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        assert_eq!(Counter::named("test.obs.counter").get(), before + 5);

        let h = Histogram::named("test.obs.hist");
        for v in [10u64, 20, 30, 1_000] {
            h.record(v);
        }
        let snap = snapshot();
        assert!(snap.counter("test.obs.counter").unwrap() >= 5);
        let hs = snap.histogram("test.obs.hist").unwrap();
        assert!(hs.count >= 4);
        assert!(hs.max >= 1_000);
        assert!(hs.p50 <= hs.p90 && hs.p90 <= hs.p99 && hs.p99 <= hs.max);
        assert!(snap.to_json().contains("\"test.obs.counter\""));
    }

    #[test]
    fn disabled_build_is_inert() {
        // Valid under both feature settings; in disabled builds the
        // handles are zero-sized and the snapshot is empty.
        let c = counter!("test.obs.macro");
        c.incr();
        let _g = gauge!("test.obs.gauge");
        let s = span!("test.obs.span");
        drop(s);
        if !enabled() {
            assert!(snapshot().is_empty());
            assert_eq!(c.get(), 0);
        }
    }
}
