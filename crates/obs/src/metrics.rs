//! The metrics registry: counters, gauges, log-linear histograms, and the
//! plain-data snapshots they export.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Sub-buckets per power of two (`2^SUB_BITS`), the histogram's relative
/// resolution: any recorded value lands in a bucket whose width is at most
/// 1/8 of its lower bound, so a quantile read back from bucket counts is
/// within 12.5 % of the true sample value.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;

/// Highest most-significant-bit position covered by a dedicated bucket
/// (values up to `2^(TOP_MSB+1)` µs ≈ 12.7 days); anything larger lands in
/// the saturating last bucket.
const TOP_MSB: u32 = 39;

/// Number of buckets in every [`Histogram`]: a linear region (one bucket
/// per value below `SUB`) followed by `SUB` log-linear buckets per octave.
pub const BUCKET_COUNT: usize = (SUB + (TOP_MSB as u64 - SUB_BITS as u64 + 1) * SUB) as usize;

/// The bucket index a value records into.
fn bucket_index(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    if msb > TOP_MSB {
        return BUCKET_COUNT - 1;
    }
    let sub = (value >> (msb - SUB_BITS)) - SUB;
    (SUB + (msb - SUB_BITS) as u64 * SUB + sub) as usize
}

/// The `[lower, upper]` (inclusive) value range of bucket `index`.
/// The saturating last bucket's upper bound is `u64::MAX`.
pub(crate) fn bucket_bounds(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < SUB {
        return (index, index);
    }
    let octave = (index - SUB) / SUB + SUB_BITS as u64;
    let sub = (index - SUB) % SUB;
    let width = 1u64 << (octave - SUB_BITS as u64);
    let lower = (SUB + sub) * width;
    if index as usize == BUCKET_COUNT - 1 {
        (lower, u64::MAX)
    } else {
        (lower, lower + width - 1)
    }
}

/// A monotone named counter: one relaxed `fetch_add` per record. Handles
/// are cheap clones of a registry-owned atomic, so recording never takes a
/// lock — exactly the cost of the ad-hoc `AtomicU64` fields this replaces.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time named value: one relaxed `store` per set.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The shared storage behind a [`Histogram`] handle.
#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A fixed-bucket log-linear latency histogram (microseconds).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one value (clamped into the saturating top bucket).
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// Records a duration as whole microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

/// The exported state of one histogram: plain data, mergeable, and
/// quantile-extractable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Per-bucket counts, [`BUCKET_COUNT`] long (shorter vectors decode
    /// leniently as trailing zeros).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile (`p` in 0..=100) over the bucket counts: the
    /// upper bound of the bucket holding the rank, so the reported value is
    /// ≥ the true sample quantile and within one bucket width (≤ 12.5 %) of
    /// it. Returns 0 when empty. The saturating top bucket reports its
    /// lower bound (its upper bound is unbounded).
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lower, upper) = bucket_bounds(index);
                return if index == BUCKET_COUNT - 1 {
                    lower
                } else {
                    upper
                };
            }
        }
        self.max
    }

    /// Adds another snapshot's buckets into this one. Merging per-shard or
    /// per-thread histograms is exact: the merged bucket counts equal those
    /// of one histogram fed the concatenated samples, so quantiles agree
    /// bucket-for-bucket (the merge property tests pin this).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (into, &from) in self.buckets.iter_mut().zip(&other.buckets) {
            *into += from;
        }
    }

    /// The bucket-wise difference `self - before`, for before/after
    /// measurement windows (saturating, so a restarted source reads as
    /// zero rather than wrapping).
    pub fn delta(&self, before: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self.buckets.clone();
        for (into, &b) in buckets.iter_mut().zip(&before.buckets) {
            *into = into.saturating_sub(b);
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(before.count),
            sum: self.sum.saturating_sub(before.sum),
            max: self.max, // max is not delta-able; keep the window's upper bound
            buckets,
        }
    }
}

/// A full registry export: plain data, mergeable, delta-able, renderable.
/// `BTreeMap` keys keep every rendering and wire encoding deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value (0 when absent — decoders and old peers omit
    /// counters they do not know).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram's state, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Folds `other` into this snapshot: counters add, gauges add (a merged
    /// gauge reads as the total across sources — overlay edges across
    /// shards, connections across listeners), histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += value;
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// The difference `self - before` for counters and histograms; gauges
    /// keep their current (point-in-time) values.
    pub fn delta(&self, before: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, &v)| (name.clone(), v.saturating_sub(before.counter(name))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, hist)| {
                    let base = before.histograms.get(name);
                    let d = match base {
                        Some(b) => hist.delta(b),
                        None => hist.clone(),
                    };
                    (name.clone(), d)
                })
                .collect(),
        }
    }

    /// A copy with every metric name prefixed (`shard0.` …), used by the
    /// sharded cluster to publish per-shard breakdowns next to the merged
    /// aggregate without name collisions.
    pub fn prefixed(&self, prefix: &str) -> MetricsSnapshot {
        let rename = |map: &BTreeMap<String, u64>| {
            map.iter()
                .map(|(name, &v)| (format!("{prefix}{name}"), v))
                .collect()
        };
        MetricsSnapshot {
            counters: rename(&self.counters),
            gauges: rename(&self.gauges),
            histograms: self
                .histograms
                .iter()
                .map(|(name, hist)| (format!("{prefix}{name}"), hist.clone()))
                .collect(),
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
}

/// The named-metric registry one layer (session, cluster, server) owns.
///
/// Handle creation ([`Registry::counter`] …) takes a short lock and is done
/// once at construction; recording through a handle is lock-free. Clones
/// share the same storage.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = Self::lock(&self.inner.counters);
        Counter(Arc::clone(map.entry(name.to_owned()).or_default()))
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = Self::lock(&self.inner.gauges);
        Gauge(Arc::clone(map.entry(name.to_owned()).or_default()))
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = Self::lock(&self.inner.histograms);
        Histogram(Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(HistogramCore::new())),
        ))
    }

    /// Exports every metric as plain data. Concurrent recording keeps
    /// going; the snapshot is a relaxed read of each atomic, which is the
    /// right consistency for monitoring (monotone counters never read
    /// backwards between snapshots).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Self::lock(&self.inner.counters)
                .iter()
                .map(|(name, v)| (name.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: Self::lock(&self.inner.gauges)
                .iter()
                .map(|(name, v)| (name.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: Self::lock(&self.inner.histograms)
                .iter()
                .map(|(name, core)| (name.clone(), core.snapshot()))
                .collect(),
        }
    }
}

/// Nearest-rank percentile of an unsorted sample list (`p` in 0..=100).
/// Extracted from the bench driver so every consumer (reports, histogram
/// quantiles, tests) shares one definition.
pub fn percentile_ms(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    percentile_sorted(&sorted, p)
}

/// Nearest-rank percentile of an already ascending-sorted sample list, so
/// one sort serves every percentile of a report.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_are_inverse() {
        // Every bucket's bounds map back to the bucket, and the buckets
        // tile the value axis without gaps or overlaps.
        let mut next_expected = 0u64;
        for index in 0..BUCKET_COUNT {
            let (lower, upper) = bucket_bounds(index);
            assert_eq!(
                lower,
                next_expected,
                "bucket {index} starts where {} ended",
                index.wrapping_sub(1)
            );
            assert_eq!(bucket_index(lower), index);
            if index < BUCKET_COUNT - 1 {
                assert_eq!(bucket_index(upper), index);
                next_expected = upper + 1;
            }
        }
        assert_eq!(
            bucket_index(u64::MAX),
            BUCKET_COUNT - 1,
            "saturating top bucket"
        );
    }

    #[test]
    fn bucket_resolution_is_within_an_eighth() {
        for index in (SUB as usize)..(BUCKET_COUNT - 1) {
            let (lower, upper) = bucket_bounds(index);
            let width = upper - lower + 1;
            assert!(
                width * SUB <= lower,
                "bucket {index} ([{lower}, {upper}]) wider than lower/8"
            );
        }
    }

    #[test]
    fn counters_and_gauges_record_through_clones() {
        let registry = Registry::new();
        let c = registry.counter("c");
        let c2 = registry.counter("c");
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5, "same-name handles share storage");
        let g = registry.gauge("g");
        g.set(7);
        g.set(3);
        assert_eq!(registry.gauge("g").get(), 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.gauge("g"), 3);
        assert_eq!(snap.counter("absent"), 0, "absent counters read as zero");
    }

    #[test]
    fn histogram_quantiles_track_true_percentiles_within_resolution() {
        let registry = Registry::new();
        let h = registry.histogram("lat");
        // A deterministic skewed sample set (no external PRNG: xorshift).
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut samples: Vec<u64> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 1_000_000
            })
            .collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let snap = registry.snapshot();
        let hist = snap.histogram("lat").unwrap();
        for p in [50.0, 95.0, 99.0, 99.9] {
            let truth = {
                let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
                samples[rank.clamp(1, samples.len()) - 1]
            };
            let q = hist.quantile(p);
            assert!(q >= truth, "p{p}: {q} < true {truth}");
            // Upper bound of the bucket holding the rank: within one bucket
            // width, i.e. ≤ 12.5 % above the true value (+1 for the linear
            // region's integer grain).
            assert!(
                q <= truth + truth / 8 + 1,
                "p{p}: {q} beyond bucket resolution of true {truth}"
            );
        }
        assert_eq!(hist.count, 10_000);
        assert_eq!(hist.max, *samples.last().unwrap());
    }

    #[test]
    fn merged_histograms_report_identical_quantiles_to_concatenated() {
        // Satellite: per-shard/per-thread recording must compose. Feed the
        // same sample stream (a) split across 4 histograms then merged, and
        // (b) into one histogram; bucket counts — hence quantiles — must be
        // identical, not merely close.
        let registry = Registry::new();
        let shards: Vec<Histogram> = (0..4)
            .map(|i| registry.histogram(&format!("shard{i}")))
            .collect();
        let single = registry.histogram("single");
        let mut x = 0xC0FFEEu64;
        for k in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 250_000;
            shards[k % 4].record(v);
            single.record(v);
        }
        let snap = registry.snapshot();
        let mut merged = HistogramSnapshot::default();
        for i in 0..4 {
            merged.merge(snap.histogram(&format!("shard{i}")).unwrap());
        }
        let reference = snap.histogram("single").unwrap();
        assert_eq!(&merged, reference, "merge is exact, bucket for bucket");
        for p in [0.0, 50.0, 95.0, 99.0, 99.9, 100.0] {
            assert_eq!(merged.quantile(p), reference.quantile(p));
        }
    }

    #[test]
    fn histogram_edge_cases_empty_single_and_saturating() {
        let registry = Registry::new();
        // Empty: all quantiles are zero.
        let _empty = registry.histogram("empty");
        let hist = registry.snapshot().histogram("empty").unwrap().clone();
        assert_eq!(hist.quantile(50.0), 0);
        assert_eq!(hist.quantile(99.9), 0);
        assert_eq!(hist.mean(), 0.0);

        // Single sample: every quantile is that sample's bucket.
        let one = registry.histogram("one");
        one.record(777);
        let hist = registry.snapshot().histogram("one").unwrap().clone();
        let (lower, upper) = bucket_bounds(bucket_index(777));
        for p in [0.0, 50.0, 100.0] {
            let q = hist.quantile(p);
            assert!(q >= lower && q <= upper, "single-sample quantile {q}");
            assert!(q >= 777);
        }
        assert_eq!(hist.count, 1);
        assert_eq!(hist.max, 777);

        // Saturating bucket: enormous values clamp, quantile reports the
        // top bucket's lower bound instead of a fictitious u64::MAX.
        let sat = registry.histogram("sat");
        sat.record(u64::MAX);
        sat.record(u64::MAX - 1);
        let hist = registry.snapshot().histogram("sat").unwrap().clone();
        let (top_lower, top_upper) = bucket_bounds(BUCKET_COUNT - 1);
        assert_eq!(top_upper, u64::MAX);
        assert_eq!(hist.quantile(50.0), top_lower);
        assert_eq!(hist.buckets[BUCKET_COUNT - 1], 2);

        // Merging an empty histogram is the identity.
        let mut merged = hist.clone();
        merged.merge(&HistogramSnapshot::default());
        assert_eq!(merged, hist);
    }

    #[test]
    fn snapshot_merge_delta_and_prefix() {
        let a = Registry::new();
        a.counter("requests").add(10);
        a.gauge("overlay").set(3);
        a.histogram("lat").record(100);
        let b = Registry::new();
        b.counter("requests").add(5);
        b.gauge("overlay").set(4);
        b.histogram("lat").record(200);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("requests"), 15);
        assert_eq!(merged.gauge("overlay"), 7, "gauges total across sources");
        assert_eq!(merged.histogram("lat").unwrap().count, 2);

        a.counter("requests").add(7);
        a.histogram("lat").record(300);
        let delta = a.snapshot().delta(&{
            let mut before = MetricsSnapshot::default();
            before.counters.insert("requests".into(), 10);
            before
        });
        assert_eq!(delta.counter("requests"), 7);
        assert_eq!(
            delta.histogram("lat").unwrap().count,
            2,
            "no baseline histogram: full"
        );

        let prefixed = b.snapshot().prefixed("shard1.");
        assert_eq!(prefixed.counter("shard1.requests"), 5);
        assert_eq!(prefixed.counter("requests"), 0);
        assert!(prefixed.histogram("shard1.lat").is_some());
    }

    #[test]
    fn histogram_delta_subtracts_a_window() {
        let r = Registry::new();
        let h = r.histogram("lat");
        h.record(10);
        h.record(20);
        let before = r.snapshot();
        h.record(1_000);
        let window = r
            .snapshot()
            .histogram("lat")
            .unwrap()
            .delta(before.histogram("lat").unwrap());
        assert_eq!(window.count, 1);
        assert_eq!(window.sum, 1_000);
        let (lower, upper) = bucket_bounds(bucket_index(1_000));
        let q = window.quantile(50.0);
        assert!(q >= lower && q <= upper);
    }

    #[test]
    fn percentiles_follow_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_ms(&samples, 50.0), 50.0);
        assert_eq!(percentile_ms(&samples, 95.0), 95.0);
        assert_eq!(percentile_ms(&samples, 99.0), 99.0);
        assert_eq!(percentile_ms(&samples, 100.0), 100.0);
        assert_eq!(percentile_ms(&[7.0], 50.0), 7.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
    }
}
