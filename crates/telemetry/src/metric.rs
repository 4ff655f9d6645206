//! Lock-free metric primitives: [`Counter`], [`Gauge`], [`Histogram`].
//!
//! Every instrument is a thin handle over `Arc`-shared atomics: cloning a
//! handle shares the underlying cells, so the same metric can be updated
//! from any number of threads while a registry (or a test) reads it. The
//! record paths are wait-free single atomic RMW operations and perform no
//! allocation. [`LocalHistogram`] is the single-owner exception: plain
//! cells for one thread's samples, published with one merge.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A monotonically increasing event count.
///
/// # Example
///
/// ```
/// use augur_telemetry::Counter;
///
/// let c = Counter::new();
/// c.inc();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// A counter seeded at `value` (used when migrating prior bookkeeping
    /// into the registry, e.g. cloning a store's stats).
    pub fn with_value(value: u64) -> Self {
        Counter {
            value: Arc::new(AtomicU64::new(value)),
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (consumer lag, queue depth, a
/// sweep's headline number).
///
/// Stored as `f64` bits in an atomic; non-finite writes are recorded as
/// written but rendered as `null`/`0` by the exporters.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Sets the gauge from an integer (convenience for counts).
    pub fn set_u64(&self, v: u64) {
        self.set(v as f64);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 5;
/// Sub-buckets per power-of-two range (32).
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range (highest index is
/// `(64 - SUB_BITS) * SUB + SUB - 1` for values with the top bit set).
const BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * (SUB as usize);

/// A log-linear histogram of `u64` samples (microseconds, work units,
/// probe counts — unit-agnostic).
///
/// Values below 32 are exact; above that, each power-of-two range is
/// split into 32 linear sub-buckets, so a bucket spans at most 1/32 of
/// its lower bound. Quantile readouts return the bucket midpoint, giving
/// a **relative error ≤ 1/32 (≈3.2%) plus one unit of integer rounding**
/// — the bound the property tests in this crate assert. The record path
/// is a bucket-index computation plus three atomic adds; no allocation,
/// no locks.
///
/// # Example
///
/// ```
/// use augur_telemetry::Histogram;
///
/// let h = Histogram::new();
/// for v in 1..=100u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.5);
/// assert!((49..=52).contains(&p50));
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramCells>,
}

#[derive(Debug)]
struct HistogramCells {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Per-bucket exemplar slots, allocated lazily by
    /// [`Histogram::enable_exemplars`] so histograms that never opt in
    /// pay nothing. Absent slots make [`Histogram::record_traced`]
    /// behave exactly like [`Histogram::record`].
    exemplars: OnceLock<Box<[ExemplarCell]>>,
}

/// One bucket's exemplar storage: last-writer-wins `(trace_id, value,
/// ts_us)`. The three cells are written independently with relaxed
/// stores (`trace_id` last, as the presence marker), so a reader racing
/// a writer may observe a torn exemplar — acceptable for a best-effort
/// drill-down sample, and impossible under the deterministic
/// single-writer clocks the benches pin.
#[derive(Debug, Default)]
struct ExemplarCell {
    trace_id: AtomicU64,
    value: AtomicU64,
    ts_us: AtomicU64,
}

/// A retained `(trace_id, value, ts_us)` observation for one histogram
/// bucket — the concrete trace behind a quantile, exported in
/// OpenMetrics exemplar syntax and rendered as drill-down links on the
/// watch dashboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Bucket index the exemplar belongs to (interpret with
    /// [`bucket_midpoint`] / [`bucket_upper_edge`]).
    pub bucket: usize,
    /// Trace id of the run/frame that recorded the value (never 0).
    pub trace_id: u64,
    /// The recorded sample value.
    pub value: u64,
    /// Timestamp of the observation on the recording clock.
    pub ts_us: u64,
}

/// A point-in-time readout of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Index of the bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        // Safe: v >= 32 so leading_zeros <= 58 and msb >= SUB_BITS.
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) - SUB) as usize;
        let exp = (msb - SUB_BITS + 1) as usize;
        (exp << SUB_BITS) + sub
    }
}

/// Midpoint value represented by bucket `idx` — the inverse of the
/// internal bucket-index mapping up to the documented 1/32 error bound.
/// Public so downstream aggregators (the `augur-watch` rollup engine)
/// can interpret the sparse readout from [`Histogram::nonzero_buckets`]
/// without re-deriving the bucket layout.
pub fn bucket_midpoint(idx: usize) -> u64 {
    bucket_value(idx)
}

/// Largest value bucket `idx` can hold — the inclusive upper edge, what
/// OpenMetrics renders as the `le` label of a `_bucket` series. Public
/// for the exporter and downstream aggregators.
pub fn bucket_upper_edge(idx: usize) -> u64 {
    let exp = idx >> SUB_BITS;
    let sub = (idx & (SUB as usize - 1)) as u64;
    if exp == 0 {
        sub
    } else {
        let width = 1u64 << (exp - 1);
        let lo = (SUB + sub) << (exp - 1);
        lo + width - 1
    }
}

/// Midpoint value represented by bucket `idx` (inverse of
/// [`bucket_index`] up to the documented error bound).
fn bucket_value(idx: usize) -> u64 {
    let exp = idx >> SUB_BITS;
    let sub = (idx & (SUB as usize - 1)) as u64;
    if exp == 0 {
        sub
    } else {
        let width = 1u64 << (exp - 1);
        let lo = (SUB + sub) << (exp - 1);
        lo + width / 2
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            inner: Arc::new(HistogramCells {
                buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
                exemplars: OnceLock::new(),
            }),
        }
    }

    /// Opts this histogram into per-bucket exemplar retention
    /// (idempotent; allocates the slot array once). Until called,
    /// [`Histogram::record_traced`] records the value but retains no
    /// exemplar, and exports stay byte-identical to an untouched
    /// histogram.
    pub fn enable_exemplars(&self) {
        let _ = self
            .inner
            .exemplars
            .get_or_init(|| (0..BUCKETS).map(|_| ExemplarCell::default()).collect());
    }

    /// Records one sample and, when exemplars are enabled and
    /// `trace_id` is nonzero, retains `(trace_id, v, ts_us)` as the
    /// bucket's exemplar (last writer wins).
    pub fn record_traced(&self, v: u64, trace_id: u64, ts_us: u64) {
        self.record(v);
        if trace_id == 0 {
            return;
        }
        if let Some(slots) = self.inner.exemplars.get() {
            if let Some(cell) = slots.get(bucket_index(v)) {
                cell.value.store(v, Ordering::Relaxed);
                cell.ts_us.store(ts_us, Ordering::Relaxed);
                cell.trace_id.store(trace_id, Ordering::Relaxed);
            }
        }
    }

    /// The retained exemplars in bucket order (empty when exemplars
    /// were never enabled or nothing was recorded with a trace).
    /// Exemplars are deliberately not moved by [`Histogram::merge`] —
    /// they identify traces of *this* recorder's samples.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let Some(slots) = self.inner.exemplars.get() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (bucket, cell) in slots.iter().enumerate() {
            let trace_id = cell.trace_id.load(Ordering::Relaxed);
            if trace_id == 0 {
                continue;
            }
            out.push(Exemplar {
                bucket,
                trace_id,
                value: cell.value.load(Ordering::Relaxed),
                ts_us: cell.ts_us.load(Ordering::Relaxed),
            });
        }
        out
    }

    /// Records one sample. Wait-free, allocation-free.
    pub fn record(&self, v: u64) {
        let cells = &*self.inner;
        if let Some(b) = cells.buckets.get(bucket_index(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(v, Ordering::Relaxed);
        cells.min.fetch_min(v, Ordering::Relaxed);
        cells.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of samples recorded so far.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (0 < q ≤ 1) as the midpoint of the bucket holding
    /// the rank-`⌈q·count⌉` sample; 0 when empty. See the type docs for
    /// the error bound.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_of(
            self.inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)),
            self.count(),
            // Racy concurrent records can leave the bucket total short of
            // the rank; fall back to max.
            self.inner.max.load(Ordering::Relaxed),
            q,
        )
    }

    /// The non-empty buckets as `(bucket_index, count)` pairs, in index
    /// order, together with the totals needed to reconstruct windowed
    /// deltas: `(buckets, count, sum)`. The sparse form is what rollup
    /// engines persist per window — a handful of pairs instead of the
    /// full dense bucket array. Interpret indexes with
    /// [`bucket_midpoint`]; counts are relaxed loads, so a concurrent
    /// writer may leave the totals off by in-flight samples.
    pub fn nonzero_buckets(&self) -> (Vec<(u32, u64)>, u64, u64) {
        let mut buckets = Vec::new();
        for (idx, b) in self.inner.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((idx as u32, n));
            }
        }
        (buckets, self.count(), self.sum())
    }

    /// Merges `other`'s samples into `self` bucket-by-bucket: counts and
    /// sums add exactly; min/max combine exactly; quantiles of the merged
    /// histogram keep the documented bucketing bound (relative error
    /// ≤ 1/32 ≈ 3.2%, comfortably inside the 12.5% contract the property
    /// test pins) because both histograms share one bucket layout.
    ///
    /// Intended for aggregating sharded recorders — e.g. per-thread or
    /// per-run histograms folded into one family before export, the shape
    /// `augur-doctor` relies on when snapshots are produced from shards.
    /// `other` is read with relaxed loads; merging concurrently with
    /// writers folds in whatever had landed at read time.
    pub fn merge(&self, other: &Histogram) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return; // merging a histogram into itself would double it
        }
        let count = other.inner.count.load(Ordering::Relaxed);
        if count == 0 {
            return;
        }
        for (dst, src) in self.inner.buckets.iter().zip(other.inner.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.inner.count.fetch_add(count, Ordering::Relaxed);
        self.inner
            .sum
            .fetch_add(other.inner.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.inner
            .min
            .fetch_min(other.inner.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.inner
            .max
            .fetch_max(other.inner.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Folds a [`LocalHistogram`]'s samples into `self` with one atomic
    /// add per non-empty bucket plus one each for count, sum, min and
    /// max. The result is exactly what recording each of its samples
    /// here would have left: counts, sums, buckets, min and max alike.
    pub fn merge_local(&self, other: &LocalHistogram) {
        if other.count == 0 {
            return;
        }
        for (dst, &n) in self.inner.buckets.iter().zip(other.buckets.iter()) {
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.inner.count.fetch_add(other.count, Ordering::Relaxed);
        self.inner.sum.fetch_add(other.sum, Ordering::Relaxed);
        self.inner.min.fetch_min(other.min, Ordering::Relaxed);
        self.inner.max.fetch_max(other.max, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time readout (individual cells are
    /// loaded independently; under concurrent writes the fields may be
    /// off by in-flight samples, which is fine for reporting).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let min = self.inner.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min: if count == 0 { 0 } else { min },
            max: self.inner.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// The rank-`⌈q·count⌉` bucket midpoint over `buckets` (in index
/// order), or `fallback` when the buckets hold fewer samples than that.
fn quantile_of(buckets: impl Iterator<Item = u64>, count: u64, fallback: u64, q: f64) -> u64 {
    if count == 0 || !q.is_finite() {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (idx, n) in buckets.enumerate() {
        seen += n;
        if seen >= rank {
            return bucket_value(idx);
        }
    }
    fallback
}

/// A [`Histogram`] owned by one thread: the same bucket layout in plain
/// `u64` cells, so recording a sample costs no atomic operation. A run
/// folds its per-record samples here and publishes them once with
/// [`Histogram::merge_local`].
///
/// # Example
///
/// ```
/// use augur_telemetry::{Histogram, LocalHistogram};
///
/// let mut local = LocalHistogram::new();
/// for v in 1..=100u64 {
///     local.record(v);
/// }
/// let shared = Histogram::new();
/// shared.merge_local(&local);
/// assert_eq!(shared.count(), 100);
/// assert_eq!(shared.quantile(0.5), local.quantile(0.5));
/// ```
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LocalHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample. The sum wraps as [`Histogram::record`]'s
    /// atomic add does.
    pub fn record(&mut self, v: u64) {
        if let Some(b) = self.buckets.get_mut(bucket_index(v)) {
            *b += 1;
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The `q`-quantile, read exactly as [`Histogram::quantile`] reads it.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_of(self.buckets.iter().copied(), self.count, self.max, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::with_value(10);
        c.inc();
        assert_eq!(c.get(), 11);
        let c2 = c.clone();
        c2.add(9);
        assert_eq!(c.get(), 20, "clones share the cell");

        let g = Gauge::new();
        g.set(1.5);
        assert_eq!(g.get(), 1.5);
        g.set_u64(7);
        assert_eq!(g.get(), 7.0);
    }

    #[test]
    fn bucket_index_is_monotone_and_invertible_within_bound() {
        let mut last = 0usize;
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1_000, 65_535, 1 << 40] {
            let idx = bucket_index(v);
            assert!(idx >= last, "index must not decrease: v={v}");
            last = idx;
            let back = bucket_value(idx);
            let err = back.abs_diff(v);
            assert!(
                err <= v / 32 + 1,
                "v={v} idx={idx} back={back} err={err} exceeds bound"
            );
        }
    }

    #[test]
    fn bucket_index_is_contiguous_at_range_boundaries() {
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(63), 63);
        assert_eq!(bucket_index(64), 64);
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn histogram_quantiles_on_uniform_data() {
        let h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1_000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1_000);
        for (q, exact) in [(0.50, 500u64), (0.90, 900), (0.99, 990)] {
            let got = h.quantile(q);
            let err = got.abs_diff(exact);
            assert!(err <= exact / 32 + 1, "q={q} got={got} want≈{exact}");
        }
        assert!((s.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn merge_combines_counts_sums_and_extremes() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 10, 100] {
            a.record(v);
        }
        for v in [5u64, 50, 5_000] {
            b.record(v);
        }
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 111 + 5_055);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 5_000);
        // `b` is untouched.
        assert_eq!(b.count(), 3);
        // Merging an empty histogram or a clone of self is a no-op.
        a.merge(&Histogram::new());
        let before = a.snapshot();
        a.merge(&a.clone());
        assert_eq!(a.snapshot(), before);
    }

    #[test]
    fn merge_local_equals_recording_each_sample() {
        let samples = [0u64, 7, 31, 32, 1_000, 1_000, 65_535, 1 << 40, u64::MAX];
        let direct = Histogram::new();
        let merged = Histogram::new();
        let mut local = LocalHistogram::new();
        // Both sides start from the same earlier samples.
        for h in [&direct, &merged] {
            h.record(500);
            h.record(2);
        }
        for &v in &samples {
            direct.record(v);
            local.record(v);
        }
        merged.merge_local(&local);
        assert_eq!(merged.snapshot(), direct.snapshot());
        assert_eq!(merged.nonzero_buckets(), direct.nonzero_buckets());
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            let only_local = Histogram::new();
            only_local.merge_local(&local);
            assert_eq!(local.quantile(q), only_local.quantile(q), "q={q}");
        }
        // An empty local histogram leaves min untouched.
        let before = merged.snapshot();
        merged.merge_local(&LocalHistogram::new());
        assert_eq!(merged.snapshot(), before);
        assert_eq!(LocalHistogram::new().quantile(0.5), 0);
    }

    #[test]
    fn nonzero_buckets_round_trips_through_midpoints() {
        let h = Histogram::new();
        for v in [3u64, 3, 700, 1_000_000] {
            h.record(v);
        }
        let (buckets, count, sum) = h.nonzero_buckets();
        assert_eq!(count, 4);
        assert_eq!(sum, 3 + 3 + 700 + 1_000_000);
        assert_eq!(buckets.len(), 3, "two identical samples share a bucket");
        let total: u64 = buckets.iter().map(|(_, n)| n).sum();
        assert_eq!(total, count);
        for &(idx, _) in &buckets {
            let mid = bucket_midpoint(idx as usize);
            // Every reported bucket must sit near one of the samples.
            assert!(
                [3u64, 700, 1_000_000]
                    .iter()
                    .any(|v| mid.abs_diff(*v) <= v / 32 + 1),
                "midpoint {mid} matches no recorded sample"
            );
        }
        assert!(Histogram::new().nonzero_buckets().0.is_empty());
    }

    #[test]
    fn exemplars_retain_last_trace_per_bucket() {
        let h = Histogram::new();
        h.record_traced(100, 0xabc, 10);
        assert!(
            h.exemplars().is_empty(),
            "no retention before enable_exemplars"
        );
        assert_eq!(h.count(), 1, "the sample itself still lands");

        h.enable_exemplars();
        h.record_traced(100, 0xdead, 20);
        h.record_traced(101, 0xbeef, 30); // same bucket: overwrites
        h.record_traced(5_000, 0xfeed, 40); // different bucket
        h.record_traced(7, 0, 50); // zero trace id: no exemplar
        let ex = h.exemplars();
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].trace_id, 0xbeef);
        assert_eq!(ex[0].value, 101);
        assert_eq!(ex[0].ts_us, 30);
        assert_eq!(ex[1].trace_id, 0xfeed);
        assert!(
            bucket_upper_edge(ex[1].bucket) >= 5_000
                && bucket_midpoint(ex[1].bucket).abs_diff(5_000) <= 5_000 / 32 + 1,
            "exemplar bucket must cover its value"
        );
    }

    #[test]
    fn bucket_upper_edge_bounds_its_bucket() {
        for v in [0u64, 1, 31, 32, 100, 1_000, 65_535, 1 << 40] {
            let idx = bucket_index(v);
            assert!(bucket_upper_edge(idx) >= v, "v={v}");
            if idx + 1 < BUCKETS {
                assert!(bucket_upper_edge(idx) < bucket_upper_edge(idx + 1));
            }
        }
    }
}
