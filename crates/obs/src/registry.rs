//! The metrics registry: named counters, gauges, log-bucketed
//! histograms, series, events, span aggregates, and stage tracking.
//!
//! Handles (`Counter`, `Gauge`, `Histogram`) are cheap clones of
//! `Arc`-backed atomics: looking one up takes a short mutex-protected
//! map access, but recording through a handle is a single lock-free
//! atomic operation, cheap enough for hot loops. Hot kernels should
//! fetch handles once (or accumulate in locals and flush), not look up
//! by name per iteration.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::json::Json;

/// Determinism class of a metric. See DESIGN.md §13.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Bit-identical across thread counts for a given config and seed.
    /// Rendered in the structural (golden-comparable) part of the
    /// manifest.
    Structural,
    /// Wall-clock, scheduling, or platform dependent. Rendered only
    /// under the manifest's trailing `timings` section.
    Timing,
}

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `u64::MAX` (which lands in bucket 64).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Maps a sample to its histogram bucket: `0 -> 0`, otherwise
/// `1 + floor(log2(v))`. Bucket `i >= 1` therefore covers the value
/// range `[2^(i-1), 2^i - 1]`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        1 + v.ilog2() as usize
    }
}

/// Inclusive lower bound of a bucket (`0` for bucket 0).
pub fn bucket_lower_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i => 1u64 << (i - 1),
    }
}

/// A monotonically increasing `u64` counter handle.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge handle (stored as raw bits).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// A base-2 log-bucketed histogram handle for `u64` samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            core: Arc::new(HistogramCore {
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            }),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
        self.core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Returns a point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .core
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect();
        HistogramSnapshot {
            count: self.core.count.load(Ordering::Relaxed),
            sum: self.core.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Point-in-time histogram state; only non-empty buckets are listed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples (wrapping on overflow).
    pub sum: u64,
    /// `(bucket_index, sample_count)` pairs for non-empty buckets,
    /// in ascending bucket order.
    pub buckets: Vec<(usize, u64)>,
}

/// Aggregated timing for one span path across all threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Number of completed spans with this path.
    pub count: u64,
    /// Total wall time inside the span, including child spans.
    pub total: Duration,
    /// Wall time excluding child spans on the same thread.
    pub self_time: Duration,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, (Class, Counter)>,
    gauges: BTreeMap<String, (Class, Gauge)>,
    histograms: BTreeMap<String, (Class, Histogram)>,
    series: BTreeMap<String, (Class, Vec<f64>)>,
    events: BTreeMap<String, Vec<String>>,
    sections: BTreeMap<String, BTreeMap<String, Json>>,
    spans: BTreeMap<String, SpanAgg>,
    stage: String,
    stage_rss: BTreeMap<String, u64>,
}

/// The metrics registry. One process-wide instance is installed via
/// [`crate::install`]; independent instances can be created for tests.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A poisoned registry only means a panicking thread held the
        // lock mid-update; metrics stay usable.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Returns (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str, class: Class) -> Counter {
        let mut inner = self.lock();
        inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| {
                (
                    class,
                    Counter {
                        cell: Arc::new(AtomicU64::new(0)),
                    },
                )
            })
            .1
            .clone()
    }

    /// Returns (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str, class: Class) -> Gauge {
        let mut inner = self.lock();
        inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| {
                (
                    class,
                    Gauge {
                        bits: Arc::new(AtomicU64::new(0f64.to_bits())),
                    },
                )
            })
            .1
            .clone()
    }

    /// Returns (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str, class: Class) -> Histogram {
        let mut inner = self.lock();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| (class, Histogram::new()))
            .1
            .clone()
    }

    /// Appends `v` to the series named `name`.
    pub fn series_push(&self, name: &str, class: Class, v: f64) {
        let mut inner = self.lock();
        inner
            .series
            .entry(name.to_string())
            .or_insert_with(|| (class, Vec::new()))
            .1
            .push(v);
    }

    /// Records an event under `scope`. Events within one scope keep
    /// their recording order; scopes are sorted on export, so the
    /// cross-scope interleaving (which depends on scheduling) never
    /// reaches the manifest.
    pub fn event(&self, scope: &str, what: &str) {
        let mut inner = self.lock();
        inner
            .events
            .entry(scope.to_string())
            .or_default()
            .push(what.to_string());
    }

    /// Sets `key` within the named structural manifest section.
    /// Sections render as top-level manifest objects between `events`
    /// and `timings`, so their entries — like any Structural metric —
    /// must be deterministic across thread counts. Keys within a
    /// section and sections themselves render in sorted order;
    /// re-setting a key overwrites it (last write wins).
    pub fn section_set(&self, section: &str, key: &str, value: Json) {
        let mut inner = self.lock();
        inner
            .sections
            .entry(section.to_string())
            .or_default()
            .insert(key.to_string(), value);
    }

    /// Marks the start of a pipeline stage. The peak RSS observed so
    /// far is attributed to the stage being left (if any), so each
    /// stage records the high-water mark up to its end.
    pub fn set_stage(&self, name: &str) {
        let rss = peak_rss_kb();
        let mut inner = self.lock();
        if !inner.stage.is_empty() {
            let old = inner.stage.clone();
            inner.stage_rss.insert(old, rss);
        }
        inner.stage = name.to_string();
    }

    /// Records `kb` as stage `name`'s RSS reading.
    #[cfg(test)]
    pub(crate) fn set_stage_rss(&self, name: &str, kb: u64) {
        self.lock().stage_rss.insert(name.to_string(), kb);
    }

    /// Returns the current stage name (empty if never set).
    pub fn stage(&self) -> String {
        self.lock().stage.clone()
    }

    /// Returns the current value of a counter, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.lock().counters.get(name).map(|(_, c)| c.get())
    }

    /// Folds a completed span into the per-path aggregate.
    pub(crate) fn span_record(&self, path: &str, total: Duration, self_time: Duration) {
        let mut inner = self.lock();
        let agg = inner.spans.entry(path.to_string()).or_default();
        agg.count += 1;
        agg.total += total;
        agg.self_time += self_time;
    }

    /// Clears all recorded state (metrics, events, spans, stage).
    /// Handles obtained before the reset are detached: they keep
    /// working but no longer feed the registry's maps.
    pub fn reset(&self) {
        let mut inner = self.lock();
        *inner = Inner::default();
    }

    /// Snapshot accessor used by the manifest builder.
    pub(crate) fn with_inner<R>(&self, f: impl FnOnce(&Snapshot) -> R) -> R {
        let inner = self.lock();
        let snap = Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, (class, c))| (k.clone(), (*class, c.get())))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, (class, g))| (k.clone(), (*class, g.get())))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, (class, h))| (k.clone(), (*class, h.snapshot())))
                .collect(),
            series: inner.series.clone(),
            events: inner.events.clone(),
            sections: inner.sections.clone(),
            spans: inner.spans.clone(),
            stage: inner.stage.clone(),
            stage_rss: inner.stage_rss.clone(),
        };
        drop(inner);
        f(&snap)
    }
}

/// A fully materialized copy of registry state for export.
pub(crate) struct Snapshot {
    pub counters: BTreeMap<String, (Class, u64)>,
    pub gauges: BTreeMap<String, (Class, f64)>,
    pub histograms: BTreeMap<String, (Class, HistogramSnapshot)>,
    pub series: BTreeMap<String, (Class, Vec<f64>)>,
    pub events: BTreeMap<String, Vec<String>>,
    pub sections: BTreeMap<String, BTreeMap<String, Json>>,
    pub spans: BTreeMap<String, SpanAgg>,
    pub stage: String,
    pub stage_rss: BTreeMap<String, u64>,
}

/// Returns the process peak resident set size in KiB, read from
/// `/proc/self/status` (`VmHWM`). Returns 0 on platforms without
/// procfs; peak RSS then simply reports as 0 in the manifest.
pub fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let digits: String = rest.chars().filter(char::is_ascii_digit).collect();
                    if let Ok(kb) = digits.parse() {
                        return kb;
                    }
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edge_cases() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        // Every power of two starts a new bucket; its predecessor
        // closes the previous one.
        for shift in 1..64 {
            let v = 1u64 << shift;
            assert_eq!(bucket_index(v), shift + 1, "2^{shift}");
            assert_eq!(bucket_index(v - 1), shift, "2^{shift} - 1");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(HISTOGRAM_BUCKETS, 65);
    }

    #[test]
    fn bucket_lower_bounds_match_indices() {
        for i in 0..HISTOGRAM_BUCKETS {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i, "bucket {i} lower bound {lo}");
        }
    }

    #[test]
    fn histogram_records_edges() {
        let reg = Registry::new();
        let h = reg.histogram("h", Class::Structural);
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        // Sum wraps: 0 + 1 + MAX + MAX == MAX - 1 (mod 2^64).
        assert_eq!(snap.sum, u64::MAX.wrapping_mul(2).wrapping_add(1));
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (64, 2)]);
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("c", Class::Structural);
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        assert_eq!(reg.counter_value("c"), Some(4));
        assert_eq!(reg.counter_value("missing"), None);
        let g = reg.gauge("g", Class::Timing);
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        // Same name returns the same underlying cell.
        reg.counter("c", Class::Structural).inc();
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn events_keep_per_scope_order() {
        let reg = Registry::new();
        reg.event("b/second", "one");
        reg.event("a/first", "one");
        reg.event("b/second", "two");
        reg.with_inner(|snap| {
            let scopes: Vec<&String> = snap.events.keys().collect();
            assert_eq!(scopes, ["a/first", "b/second"]);
            assert_eq!(snap.events["b/second"], ["one", "two"]);
        });
    }

    #[test]
    fn reset_clears_state() {
        let reg = Registry::new();
        reg.counter("c", Class::Structural).inc();
        reg.set_stage("x");
        reg.reset();
        assert_eq!(reg.counter_value("c"), None);
        assert_eq!(reg.stage(), "");
    }
}
