//! Incremental view maintenance vs batch recomputation.
//!
//! §4.1: "Incrementally computing a small amount of new data based on
//! partial results in advance can get a quick determination". This module
//! implements both sides of that trade:
//!
//! - [`IncrementalView`] folds each new event into per-group running
//!   statistics in O(1), so the freshest aggregate is always a hash
//!   lookup away — the only strategy that fits an AR frame budget.
//! - [`BatchAggregator`] recomputes the same statistics from the full
//!   history on demand, O(n) per refresh — the baseline whose latency
//!   grows past the frame budget (experiment E2 locates the crossover).
//!
//! Both produce identical [`GroupedStats`], which the tests assert.

use std::collections::HashMap;

/// Running statistics for one group (Welford's algorithm for variance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupedStats {
    /// Observation count.
    pub count: u64,
    /// Running mean.
    pub mean: f64,
    /// Sum of squared deviations (for variance).
    m2: f64,
    /// Minimum observed.
    pub min: f64,
    /// Maximum observed.
    pub max: f64,
}

impl Default for GroupedStats {
    fn default() -> Self {
        GroupedStats::new()
    }
}

impl GroupedStats {
    fn new() -> Self {
        GroupedStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn add(&mut self, v: f64) {
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Population variance (`None` when empty).
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Standard deviation (`None` when empty).
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }
}

/// Incrementally maintained per-group statistics.
///
/// # Example
///
/// ```
/// use augur_analytics::IncrementalView;
///
/// let mut view = IncrementalView::new();
/// view.update(1, 10.0);
/// view.update(1, 20.0);
/// view.update(2, 5.0);
/// assert_eq!(view.get(1).unwrap().mean, 15.0);
/// assert_eq!(view.group_count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IncrementalView {
    groups: HashMap<u64, GroupedStats>,
    updates: u64,
}

impl IncrementalView {
    /// Creates an empty view.
    pub fn new() -> Self {
        IncrementalView::default()
    }

    /// Folds one observation into its group — O(1).
    pub fn update(&mut self, group: u64, value: f64) {
        self.groups.entry(group).or_default().add(value);
        self.updates += 1;
    }

    /// Statistics for a group.
    pub fn get(&self, group: u64) -> Option<&GroupedStats> {
        self.groups.get(&group)
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total updates applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Iterator over (group, stats).
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &GroupedStats)> {
        self.groups.iter()
    }

    /// The group with the highest mean (ties arbitrary; `None` if empty).
    pub fn top_by_mean(&self) -> Option<(u64, &GroupedStats)> {
        self.groups
            .iter()
            .max_by(|a, b| {
                a.1.mean
                    .partial_cmp(&b.1.mean)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(k, v)| (*k, v))
    }
}

/// Batch recomputation over full history — the O(n)-per-refresh baseline.
#[derive(Debug, Clone, Default)]
pub struct BatchAggregator {
    history: Vec<(u64, f64)>,
}

impl BatchAggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        BatchAggregator::default()
    }

    /// Appends an observation to history (cheap; the cost is in
    /// [`BatchAggregator::recompute`]).
    pub fn ingest(&mut self, group: u64, value: f64) {
        self.history.push((group, value));
    }

    /// History length.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Whether no data has been ingested.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// Recomputes every group's statistics from scratch.
    pub fn recompute(&self) -> HashMap<u64, GroupedStats> {
        let mut out: HashMap<u64, GroupedStats> = HashMap::new();
        for &(g, v) in &self.history {
            out.entry(g).or_default().add(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn incremental_matches_batch_exactly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut view = IncrementalView::new();
        let mut batch = BatchAggregator::new();
        for _ in 0..10_000 {
            let g = rng.gen_range(0..20u64);
            let v = rng.gen_range(-100.0..100.0);
            view.update(g, v);
            batch.ingest(g, v);
        }
        let recomputed = batch.recompute();
        assert_eq!(view.group_count(), recomputed.len());
        for (g, want) in &recomputed {
            let got = view.get(*g).unwrap();
            assert_eq!(got.count, want.count);
            assert!((got.mean - want.mean).abs() < 1e-9);
            assert!((got.variance().unwrap() - want.variance().unwrap()).abs() < 1e-6);
            assert_eq!(got.min, want.min);
            assert_eq!(got.max, want.max);
        }
    }

    #[test]
    fn welford_variance_is_correct() {
        let mut s = GroupedStats::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(v);
        }
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.variance(), Some(4.0));
        assert_eq!(s.stddev(), Some(2.0));
        assert_eq!(s.sum(), 40.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn empty_stats_yield_none() {
        let s = GroupedStats::new();
        assert_eq!(s.variance(), None);
        assert_eq!(s.stddev(), None);
        let v = IncrementalView::new();
        assert!(v.get(0).is_none());
        assert!(v.top_by_mean().is_none());
    }

    #[test]
    fn top_by_mean() {
        let mut v = IncrementalView::new();
        v.update(1, 10.0);
        v.update(2, 50.0);
        v.update(3, 30.0);
        assert_eq!(v.top_by_mean().unwrap().0, 2);
    }

    #[test]
    fn update_counts() {
        let mut v = IncrementalView::new();
        for i in 0..7 {
            v.update(i % 2, i as f64);
        }
        assert_eq!(v.updates(), 7);
        assert_eq!(v.group_count(), 2);
        assert_eq!(v.iter().count(), 2);
    }
}
