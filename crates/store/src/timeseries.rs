//! Append-only time-series storage with range queries and downsampling.
//!
//! Sensor history — vitals, fixes, interaction rates — is stored one
//! series per (device, metric). Samples append in time order; range
//! queries binary-search the sorted buffer; downsampling buckets a range
//! and reduces each bucket, the primitive behind the dashboard-style AR
//! overlays of §2.1.

use std::collections::HashMap;

use crate::error::StoreError;

/// Identifies a series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SeriesId(pub u64);

impl std::fmt::Display for SeriesId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "series:{}", self.0)
    }
}

/// One sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Sample time, microseconds since the epoch.
    pub t_us: u64,
    /// Value.
    pub value: f64,
}

/// Downsampling reducer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Downsample {
    /// Arithmetic mean of the bucket.
    Mean,
    /// Minimum of the bucket.
    Min,
    /// Maximum of the bucket.
    Max,
    /// Sample count in the bucket.
    Count,
    /// Last value in the bucket.
    Last,
}

impl Downsample {
    fn reduce(&self, values: &[f64]) -> f64 {
        match self {
            Downsample::Mean => values.iter().sum::<f64>() / values.len() as f64,
            Downsample::Min => values.iter().cloned().fold(f64::INFINITY, f64::min),
            Downsample::Max => values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            Downsample::Count => values.len() as f64,
            // Buckets are only materialised non-empty; NaN marks the
            // impossible branch like Mean's 0/0 would.
            Downsample::Last => values.last().copied().unwrap_or(f64::NAN),
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Series {
    name: String,
    samples: Vec<Sample>, // sorted by t_us
}

/// The time-series store.
///
/// # Example
///
/// ```
/// use augur_store::{TimeSeriesStore, Downsample};
///
/// let mut ts = TimeSeriesStore::new();
/// let hr = ts.create_series("patient-1/heart-rate");
/// for i in 0..60u64 {
///     ts.append(hr, i * 1_000_000, 70.0 + (i % 5) as f64)?;
/// }
/// let minute = ts.downsample(hr, 0, 60_000_000, 10_000_000, Downsample::Mean)?;
/// assert_eq!(minute.len(), 6);
/// # Ok::<(), augur_store::StoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeSeriesStore {
    series: HashMap<SeriesId, Series>,
    by_name: HashMap<String, SeriesId>,
    next_id: u64,
}

impl TimeSeriesStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TimeSeriesStore::default()
    }

    /// Creates (or returns the existing) series with `name`.
    pub fn create_series(&mut self, name: &str) -> SeriesId {
        if let Some(id) = self.by_name.get(name) {
            return *id;
        }
        let id = SeriesId(self.next_id);
        self.next_id += 1;
        self.series.insert(
            id,
            Series {
                name: name.to_string(),
                samples: Vec::new(),
            },
        );
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Looks a series up by name.
    pub fn series_by_name(&self, name: &str) -> Option<SeriesId> {
        self.by_name.get(name).copied()
    }

    /// The name of a series.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownSeries`] for unregistered ids.
    pub fn name(&self, id: SeriesId) -> Result<&str, StoreError> {
        self.series
            .get(&id)
            .map(|s| s.name.as_str())
            .ok_or(StoreError::UnknownSeries(id.0))
    }

    /// Appends a sample; time must be non-decreasing within the series.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownSeries`] or [`StoreError::OutOfOrderSample`].
    pub fn append(&mut self, id: SeriesId, t_us: u64, value: f64) -> Result<(), StoreError> {
        let s = self
            .series
            .get_mut(&id)
            .ok_or(StoreError::UnknownSeries(id.0))?;
        if let Some(last) = s.samples.last() {
            if t_us < last.t_us {
                return Err(StoreError::OutOfOrderSample {
                    series: id.0,
                    t_us,
                    last_us: last.t_us,
                });
            }
        }
        s.samples.push(Sample { t_us, value });
        Ok(())
    }

    /// Samples with `t_us` in `[from_us, to_us)`.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownSeries`] for unregistered ids.
    pub fn range(&self, id: SeriesId, from_us: u64, to_us: u64) -> Result<&[Sample], StoreError> {
        let s = self
            .series
            .get(&id)
            .ok_or(StoreError::UnknownSeries(id.0))?;
        let lo = s.samples.partition_point(|x| x.t_us < from_us);
        let hi = s.samples.partition_point(|x| x.t_us < to_us);
        Ok(&s.samples[lo..hi])
    }

    /// The most recent sample at or before `t_us`.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownSeries`] for unregistered ids.
    pub fn latest_at(&self, id: SeriesId, t_us: u64) -> Result<Option<Sample>, StoreError> {
        let s = self
            .series
            .get(&id)
            .ok_or(StoreError::UnknownSeries(id.0))?;
        let idx = s.samples.partition_point(|x| x.t_us <= t_us);
        Ok(idx.checked_sub(1).map(|i| s.samples[i]))
    }

    /// Downsamples `[from_us, to_us)` into buckets of `bucket_us`,
    /// reducing each non-empty bucket with `how`. Returns
    /// `(bucket_start_us, reduced)` pairs; empty buckets are omitted.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidParameter`] if `bucket_us == 0`, plus
    /// [`StoreError::UnknownSeries`].
    pub fn downsample(
        &self,
        id: SeriesId,
        from_us: u64,
        to_us: u64,
        bucket_us: u64,
        how: Downsample,
    ) -> Result<Vec<(u64, f64)>, StoreError> {
        if bucket_us == 0 {
            return Err(StoreError::InvalidParameter("bucket_us"));
        }
        let samples = self.range(id, from_us, to_us)?;
        let mut out: Vec<(u64, f64)> = Vec::new();
        let mut bucket_start = None::<u64>;
        let mut values: Vec<f64> = Vec::new();
        for s in samples {
            let b = from_us + ((s.t_us - from_us) / bucket_us) * bucket_us;
            if bucket_start != Some(b) {
                if let Some(bs) = bucket_start {
                    out.push((bs, how.reduce(&values)));
                }
                bucket_start = Some(b);
                values.clear();
            }
            values.push(s.value);
        }
        if let Some(bs) = bucket_start {
            out.push((bs, how.reduce(&values)));
        }
        Ok(out)
    }

    /// Drops samples older than `cutoff_us` from every series, returning
    /// the number removed (retention enforcement).
    pub fn trim_before(&mut self, cutoff_us: u64) -> usize {
        let mut removed = 0;
        for s in self.series.values_mut() {
            let keep_from = s.samples.partition_point(|x| x.t_us < cutoff_us);
            removed += keep_from;
            s.samples.drain(..keep_from);
        }
        removed
    }

    /// Number of series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Total stored samples.
    pub fn sample_count(&self) -> usize {
        self.series.values().map(|s| s.samples.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> (TimeSeriesStore, SeriesId) {
        let mut ts = TimeSeriesStore::new();
        let id = ts.create_series("s");
        for i in 0..100u64 {
            ts.append(id, i * 1_000, i as f64).unwrap();
        }
        (ts, id)
    }

    #[test]
    fn create_is_idempotent() {
        let mut ts = TimeSeriesStore::new();
        let a = ts.create_series("x");
        let b = ts.create_series("x");
        assert_eq!(a, b);
        assert_eq!(ts.series_count(), 1);
        assert_eq!(ts.series_by_name("x"), Some(a));
        assert_eq!(ts.name(a).unwrap(), "x");
    }

    #[test]
    fn rejects_out_of_order() {
        let mut ts = TimeSeriesStore::new();
        let id = ts.create_series("s");
        ts.append(id, 100, 1.0).unwrap();
        assert!(matches!(
            ts.append(id, 50, 2.0),
            Err(StoreError::OutOfOrderSample { .. })
        ));
        // Equal timestamps are allowed (sensor bursts).
        assert!(ts.append(id, 100, 3.0).is_ok());
    }

    #[test]
    fn range_query_half_open() {
        let (ts, id) = filled();
        let r = ts.range(id, 10_000, 20_000).unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].t_us, 10_000);
        assert_eq!(r.last().unwrap().t_us, 19_000);
    }

    #[test]
    fn latest_at_boundaries() {
        let (ts, id) = filled();
        assert_eq!(ts.latest_at(id, 0).unwrap().unwrap().value, 0.0);
        assert_eq!(ts.latest_at(id, 5_500).unwrap().unwrap().value, 5.0);
        let mut empty = TimeSeriesStore::new();
        let e = empty.create_series("e");
        assert_eq!(empty.latest_at(e, 10).unwrap(), None);
    }

    #[test]
    fn downsample_mean_and_count() {
        let (ts, id) = filled();
        let means = ts
            .downsample(id, 0, 100_000, 10_000, Downsample::Mean)
            .unwrap();
        assert_eq!(means.len(), 10);
        assert_eq!(means[0], (0, 4.5)); // mean of 0..=9
        let counts = ts
            .downsample(id, 0, 100_000, 25_000, Downsample::Count)
            .unwrap();
        assert_eq!(
            counts,
            vec![(0, 25.0), (25_000, 25.0), (50_000, 25.0), (75_000, 25.0)]
        );
    }

    #[test]
    fn downsample_min_max_last() {
        let (ts, id) = filled();
        let min = ts
            .downsample(id, 0, 30_000, 30_000, Downsample::Min)
            .unwrap();
        assert_eq!(min, vec![(0, 0.0)]);
        let max = ts
            .downsample(id, 0, 30_000, 30_000, Downsample::Max)
            .unwrap();
        assert_eq!(max, vec![(0, 29.0)]);
        let last = ts
            .downsample(id, 0, 30_000, 30_000, Downsample::Last)
            .unwrap();
        assert_eq!(last, vec![(0, 29.0)]);
    }

    #[test]
    fn downsample_omits_empty_buckets() {
        let mut ts = TimeSeriesStore::new();
        let id = ts.create_series("sparse");
        ts.append(id, 0, 1.0).unwrap();
        ts.append(id, 95_000, 2.0).unwrap();
        let b = ts
            .downsample(id, 0, 100_000, 10_000, Downsample::Mean)
            .unwrap();
        assert_eq!(b, vec![(0, 1.0), (90_000, 2.0)]);
    }

    #[test]
    fn trim_enforces_retention() {
        let (mut ts, id) = filled();
        let removed = ts.trim_before(50_000);
        assert_eq!(removed, 50);
        assert_eq!(ts.sample_count(), 50);
        assert!(ts.range(id, 0, 50_000).unwrap().is_empty());
    }

    #[test]
    fn unknown_series_errors() {
        let ts = TimeSeriesStore::new();
        assert!(matches!(
            ts.range(SeriesId(9), 0, 1),
            Err(StoreError::UnknownSeries(9))
        ));
    }

    #[test]
    fn zero_bucket_rejected() {
        let (ts, id) = filled();
        assert!(matches!(
            ts.downsample(id, 0, 10, 0, Downsample::Mean),
            Err(StoreError::InvalidParameter("bucket_us"))
        ));
    }
}
