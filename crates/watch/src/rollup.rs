//! The rollup engine: periodic registry sampling into windowed series.
//!
//! A [`RollupEngine`] samples a telemetry [`Registry`] at fixed-resolution
//! window boundaries and turns cumulative instruments into *windowed*
//! points: counter deltas, last-value gauges, and sparse histogram deltas
//! (only the buckets that changed, interpreted through the shared
//! log-linear layout via [`bucket_midpoint`]). Recent windows live in a
//! ring buffer (tier 0); coarser historical tiers are produced by
//! downsampling — counters sum, gauges keep the last value, histograms
//! merge bucket-wise, which preserves the crate-wide quantile error bound
//! because every tier shares one bucket layout. A full ring evicts its
//! oldest window; retention is bounded by the tier layout.
//!
//! Time is whatever the caller's [`TimeSource`](augur_telemetry::TimeSource)
//! says it is: under `ManualTime` the whole rollup cascade is
//! bit-for-bit deterministic.

use std::collections::{BTreeMap, VecDeque};

use augur_telemetry::{bucket_midpoint, Counter, Labels, Registry};

use crate::error::WatchError;

/// One rollup tier: windows of `window_us` microseconds kept in a ring of
/// `capacity` points per series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Window width in microseconds.
    pub window_us: u64,
    /// Ring capacity (windows retained) per series.
    pub capacity: usize,
}

/// Tier layout for a [`RollupEngine`].
///
/// Each tier's window must be an integer multiple of the previous tier's,
/// and each coarser tier's source ring must retain at least one full
/// coarse window of fine points (`capacity >= factor`), so downsampling
/// never reads evicted data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupConfig {
    /// Tiers from finest (tier 0) to coarsest.
    pub tiers: Vec<TierSpec>,
}

impl Default for RollupConfig {
    /// 1 s windows for 2 minutes, 10 s windows for 12 minutes, 1 min
    /// windows for 48 minutes.
    fn default() -> Self {
        RollupConfig {
            tiers: vec![
                TierSpec {
                    window_us: 1_000_000,
                    capacity: 120,
                },
                TierSpec {
                    window_us: 10_000_000,
                    capacity: 72,
                },
                TierSpec {
                    window_us: 60_000_000,
                    capacity: 48,
                },
            ],
        }
    }
}

impl RollupConfig {
    /// Checks the tier invariants described on the type.
    pub fn validate(&self) -> Result<(), WatchError> {
        let first = match self.tiers.first() {
            Some(t) => t,
            None => return Err(WatchError::config("at least one rollup tier is required")),
        };
        if first.window_us == 0 {
            return Err(WatchError::config("tier window must be nonzero"));
        }
        for (prev, next) in self.tiers.iter().zip(self.tiers.iter().skip(1)) {
            if next.window_us == 0 || next.window_us % prev.window_us != 0 {
                return Err(WatchError::config(
                    "each tier window must be a nonzero multiple of the previous tier's",
                ));
            }
            let factor = (next.window_us / prev.window_us) as usize;
            if prev.capacity < factor {
                return Err(WatchError::config(
                    "tier capacity must cover one full window of the next tier",
                ));
            }
        }
        for tier in &self.tiers {
            if tier.capacity == 0 {
                return Err(WatchError::config("tier capacity must be nonzero"));
            }
        }
        Ok(())
    }
}

/// A sparse windowed histogram: the buckets that received samples in one
/// window, plus window-local count and sum. Buckets are `(index, count)`
/// pairs in index order over the telemetry crate's shared log-linear
/// layout; resolve an index to a representative value with
/// [`bucket_midpoint`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowHist {
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<(u32, u64)>,
    /// Samples in the window.
    pub count: u64,
    /// Sum of samples in the window.
    pub sum: u64,
}

impl WindowHist {
    /// Whether the window saw no samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The window that elapsed between the cumulative state `earlier` and
    /// the cumulative state `self` (per-bucket saturating subtraction).
    pub fn delta_from(&self, earlier: &WindowHist) -> WindowHist {
        let mut buckets = Vec::new();
        let mut a = self.buckets.iter().peekable();
        let mut b = earlier.buckets.iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ai, an)), Some(&&(bi, bn))) => {
                    if ai < bi {
                        buckets.push((ai, an));
                        a.next();
                    } else if ai > bi {
                        // A cumulative bucket cannot shrink; skip.
                        b.next();
                    } else {
                        let d = an.saturating_sub(bn);
                        if d > 0 {
                            buckets.push((ai, d));
                        }
                        a.next();
                        b.next();
                    }
                }
                (Some(&&(ai, an)), None) => {
                    buckets.push((ai, an));
                    a.next();
                }
                (None, _) => break,
            }
        }
        WindowHist {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Adds `other`'s buckets into `self` (the downsampling merge). Both
    /// operands share the telemetry bucket layout, so the merged quantiles
    /// keep the documented 1/32 bucketing error — the property the rollup
    /// proptests pin at ≤ 12.5%.
    pub fn merge(&mut self, other: &WindowHist) {
        if other.count == 0 && other.buckets.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let mut a = self.buckets.iter().peekable();
        let mut b = other.buckets.iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ai, an)), Some(&&(bi, bn))) => {
                    if ai < bi {
                        merged.push((ai, an));
                        a.next();
                    } else if ai > bi {
                        merged.push((bi, bn));
                        b.next();
                    } else {
                        merged.push((ai, an.saturating_add(bn)));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&p), None) => {
                    merged.push(p);
                    a.next();
                }
                (None, Some(&&p)) => {
                    merged.push(p);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The `q`-quantile (0 < q ≤ 1) as the midpoint of the bucket holding
    /// the rank-`⌈q·count⌉` sample; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 || !q.is_finite() {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_midpoint(idx as usize);
            }
        }
        self.buckets
            .last()
            .map(|&(idx, _)| bucket_midpoint(idx as usize))
            .unwrap_or(0)
    }

    /// Mean sample value in the window (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The value of one series over one window.
#[derive(Debug, Clone, PartialEq)]
pub enum PointValue {
    /// Counter increments that landed inside the window.
    Counter(u64),
    /// Gauge reading at window close.
    Gauge(f64),
    /// Histogram samples recorded inside the window.
    Hist(WindowHist),
}

/// One closed window of one series.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowPoint {
    /// Window start, microseconds.
    pub start_us: u64,
    /// Windowed value.
    pub value: PointValue,
}

/// Canonical series key: `name` or `name{k=v,...}` with labels in their
/// registry (sorted) order. This is the address SLO objectives use.
pub fn series_key(name: &str, labels: &Labels) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16);
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

/// Per-series ring storage: one `VecDeque` per tier.
type SeriesRings = Vec<VecDeque<WindowPoint>>;

/// The rollup engine; see the module docs.
#[derive(Debug)]
pub struct RollupEngine {
    registry: Registry,
    tiers: Vec<TierSpec>,
    /// Start of the currently open tier-0 window.
    window_start_us: u64,
    prev_counters: BTreeMap<String, u64>,
    prev_hists: BTreeMap<String, WindowHist>,
    series: BTreeMap<String, SeriesRings>,
    windows_closed: Counter,
}

impl RollupEngine {
    /// An engine sampling `registry` with the given tier layout.
    pub fn new(registry: Registry, config: RollupConfig) -> Result<RollupEngine, WatchError> {
        config.validate()?;
        let windows_closed = registry.counter("rollup_windows_closed_total");
        Ok(RollupEngine {
            registry,
            tiers: config.tiers,
            window_start_us: 0,
            prev_counters: BTreeMap::new(),
            prev_hists: BTreeMap::new(),
            series: BTreeMap::new(),
            windows_closed,
        })
    }

    /// Tier-0 window width in microseconds.
    pub fn tier0_window_us(&self) -> u64 {
        self.tiers.first().map(|t| t.window_us).unwrap_or(1)
    }

    /// Number of tiers.
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// Closes every tier-0 window that has fully elapsed by `now_us` and
    /// cascades aligned downsamples. Returns the closed window starts (in
    /// order), which is what the SLO engine evaluates.
    pub fn tick(&mut self, now_us: u64) -> Vec<u64> {
        let w0 = self.tier0_window_us();
        let mut closed = Vec::new();
        while now_us >= self.window_start_us.saturating_add(w0) {
            let start = self.window_start_us;
            self.close_tier0(start);
            let boundary = start.saturating_add(w0);
            self.cascade(boundary);
            self.window_start_us = boundary;
            closed.push(start);
        }
        closed
    }

    /// Closes the in-progress partial window (if it has any elapsed time)
    /// without advancing tier alignment. Used at session finish so short
    /// deterministic runs still get their trailing samples evaluated.
    /// Returns the closed window's start.
    pub fn flush(&mut self, now_us: u64) -> Option<u64> {
        if now_us <= self.window_start_us {
            return None;
        }
        let start = self.window_start_us;
        self.close_tier0(start);
        self.window_start_us = now_us;
        Some(start)
    }

    /// Samples the registry and appends one tier-0 point per series.
    fn close_tier0(&mut self, start_us: u64) {
        let snap = self.registry.snapshot();
        let mut points: Vec<(String, PointValue)> = Vec::new();
        for c in &snap.counters {
            let key = series_key(&c.name, &c.labels);
            let prev = self.prev_counters.insert(key.clone(), c.value).unwrap_or(0);
            points.push((key, PointValue::Counter(c.value.saturating_sub(prev))));
        }
        for g in &snap.gauges {
            let key = series_key(&g.name, &g.labels);
            points.push((key, PointValue::Gauge(g.value)));
        }
        for (name, labels, hist) in self.registry.histogram_handles() {
            let key = series_key(&name, &labels);
            let (buckets, count, sum) = hist.nonzero_buckets();
            let cum = WindowHist {
                buckets,
                count,
                sum,
            };
            let prev = self.prev_hists.insert(key.clone(), cum.clone());
            let delta = match prev {
                Some(p) => cum.delta_from(&p),
                None => cum,
            };
            points.push((key, PointValue::Hist(delta)));
        }
        for (key, value) in points {
            self.push_point(&key, 0, WindowPoint { start_us, value });
        }
        self.windows_closed.inc();
    }

    /// Produces aligned downsampled points for every coarser tier whose
    /// window ends exactly at `boundary_us`.
    fn cascade(&mut self, boundary_us: u64) {
        for level in 1..self.tiers.len() {
            let w = match self.tiers.get(level) {
                Some(t) => t.window_us,
                None => break,
            };
            if !boundary_us.is_multiple_of(w) || boundary_us == 0 {
                // Coarser tiers are multiples of this one, so none of
                // them can be aligned either.
                break;
            }
            let start = boundary_us - w;
            let mut agg: Vec<(String, WindowPoint)> = Vec::new();
            for (key, rings) in &self.series {
                let src = match rings.get(level - 1) {
                    Some(r) => r,
                    None => continue,
                };
                let mut value: Option<PointValue> = None;
                for p in src.iter() {
                    if p.start_us < start || p.start_us >= boundary_us {
                        continue;
                    }
                    value = Some(match (value, &p.value) {
                        (None, v) => v.clone(),
                        (Some(PointValue::Counter(a)), PointValue::Counter(b)) => {
                            PointValue::Counter(a.saturating_add(*b))
                        }
                        // Gauges downsample to the latest reading.
                        (Some(PointValue::Gauge(_)), PointValue::Gauge(b)) => PointValue::Gauge(*b),
                        (Some(PointValue::Hist(mut a)), PointValue::Hist(b)) => {
                            a.merge(b);
                            PointValue::Hist(a)
                        }
                        // Mixed kinds under one key cannot happen (the
                        // registry namespaces by type); keep the first.
                        (Some(v), _) => v,
                    });
                }
                if let Some(value) = value {
                    agg.push((
                        key.clone(),
                        WindowPoint {
                            start_us: start,
                            value,
                        },
                    ));
                }
            }
            for (key, point) in agg {
                self.push_point(&key, level, point);
            }
        }
    }

    /// Appends a point to one series ring, evicting the oldest points
    /// when the ring is full.
    fn push_point(&mut self, key: &str, tier: usize, point: WindowPoint) {
        let tier_count = self.tiers.len();
        let capacity = match self.tiers.get(tier) {
            Some(t) => t.capacity,
            None => return,
        };
        let rings = self
            .series
            .entry(key.to_string())
            .or_insert_with(|| vec![VecDeque::new(); tier_count]);
        let ring = match rings.get_mut(tier) {
            Some(r) => r,
            None => return,
        };
        while ring.len() >= capacity {
            ring.pop_front();
        }
        ring.push_back(point);
    }

    /// All series keys currently tracked, sorted.
    pub fn series_keys(&self) -> Vec<String> {
        self.series.keys().cloned().collect()
    }

    /// The retained points of one series at one tier, oldest first.
    pub fn series_points(&self, key: &str, tier: usize) -> Vec<WindowPoint> {
        self.series
            .get(key)
            .and_then(|rings| rings.get(tier))
            .map(|ring| ring.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// The point of `key` at `tier` whose window starts at `start_us`.
    pub fn point_at(&self, key: &str, tier: usize, start_us: u64) -> Option<WindowPoint> {
        self.series
            .get(key)
            .and_then(|rings| rings.get(tier))
            .and_then(|ring| ring.iter().rev().find(|p| p.start_us == start_us))
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> RollupConfig {
        RollupConfig {
            tiers: vec![
                TierSpec {
                    window_us: 100,
                    capacity: 10,
                },
                TierSpec {
                    window_us: 500,
                    capacity: 4,
                },
            ],
        }
    }

    #[test]
    fn config_validation_rejects_bad_layouts() {
        assert!(RollupConfig { tiers: vec![] }.validate().is_err());
        assert!(RollupConfig {
            tiers: vec![
                TierSpec {
                    window_us: 100,
                    capacity: 10
                },
                TierSpec {
                    window_us: 250,
                    capacity: 4
                },
            ],
        }
        .validate()
        .is_err());
        assert!(RollupConfig {
            tiers: vec![
                TierSpec {
                    window_us: 100,
                    capacity: 3
                },
                TierSpec {
                    window_us: 500,
                    capacity: 4
                },
            ],
        }
        .validate()
        .is_err());
        assert!(RollupConfig::default().validate().is_ok());
        assert!(tiny_config().validate().is_ok());
    }

    #[test]
    fn counter_windows_hold_deltas_not_cumulatives() {
        let reg = Registry::new();
        let mut eng = RollupEngine::new(reg.clone(), tiny_config()).unwrap_or_else(|e| {
            unreachable!("valid config: {e}");
        });
        let c = reg.counter("events_total");
        c.add(5);
        assert_eq!(eng.tick(100), vec![0]);
        c.add(2);
        assert_eq!(eng.tick(200), vec![100]);
        let pts = eng.series_points("events_total", 0);
        let deltas: Vec<_> = pts.iter().map(|p| p.value.clone()).collect();
        assert_eq!(deltas, vec![PointValue::Counter(5), PointValue::Counter(2)]);
    }

    #[test]
    fn histogram_windows_are_deltas_and_cascade_merges() {
        let reg = Registry::new();
        let mut eng = RollupEngine::new(reg.clone(), tiny_config()).unwrap_or_else(|e| {
            unreachable!("valid config: {e}");
        });
        let h = reg.histogram("lat_us");
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        eng.tick(100);
        for v in [1_000u64, 2_000] {
            h.record(v);
        }
        // Jump to the tier-1 boundary: closes windows 100..500.
        eng.tick(500);
        let t0 = eng.series_points("lat_us", 0);
        assert_eq!(t0.len(), 5);
        let counts: Vec<u64> = t0
            .iter()
            .map(|p| match &p.value {
                PointValue::Hist(h) => h.count,
                _ => u64::MAX,
            })
            .collect();
        assert_eq!(counts, vec![3, 2, 0, 0, 0]);
        // Tier 1 got one merged point covering 0..500 with all 5 samples.
        let t1 = eng.series_points("lat_us", 1);
        assert_eq!(t1.len(), 1);
        match &t1.first().map(|p| p.value.clone()) {
            Some(PointValue::Hist(h)) => {
                assert_eq!(h.count, 5);
                assert_eq!(h.sum, 60 + 3_000);
                // Merged p50 tracks the exact median (30) within the
                // log-linear bound (30/32 + 1 rounds to 1).
                let p50 = h.quantile(0.5);
                assert!(p50.abs_diff(30) <= 1, "p50={p50}");
            }
            other => unreachable!("expected hist point, got {other:?}"),
        }
    }

    #[test]
    fn last_tier_eviction_keeps_the_newest_windows() {
        let reg = Registry::new();
        let config = RollupConfig {
            tiers: vec![TierSpec {
                window_us: 100,
                capacity: 2,
            }],
        };
        let mut eng = RollupEngine::new(reg.clone(), config)
            .unwrap_or_else(|e| unreachable!("valid config: {e}"));
        let c = reg.counter("ticks_total");
        for i in 1..=5u64 {
            c.inc();
            eng.tick(i * 100);
        }
        // Ring holds the newest 2 of 5 windows; the oldest 3 were evicted.
        let kept = eng.series_points("ticks_total", 0);
        assert_eq!(
            kept.iter().map(|p| p.start_us).collect::<Vec<_>>(),
            vec![300, 400]
        );
        assert!(kept
            .iter()
            .all(|p| matches!(p.value, PointValue::Counter(1))));
    }

    #[test]
    fn gauge_windows_keep_last_value_and_flush_closes_partials() {
        let reg = Registry::new();
        let mut eng = RollupEngine::new(reg.clone(), tiny_config()).unwrap_or_else(|e| {
            unreachable!("valid config: {e}");
        });
        let g = reg.gauge("depth");
        g.set(3.0);
        eng.tick(100);
        g.set(7.0);
        // Mid-window: nothing closes on tick, flush closes the partial.
        assert!(eng.tick(150).is_empty());
        assert_eq!(eng.flush(150), Some(100));
        let pts = eng.series_points("depth", 0);
        let vals: Vec<_> = pts.iter().map(|p| p.value.clone()).collect();
        assert_eq!(vals, vec![PointValue::Gauge(3.0), PointValue::Gauge(7.0)]);
    }
}
