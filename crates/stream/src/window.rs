//! Event-time windows and keyed windowed aggregation.
//!
//! Tumbling and sliding windows are assigned directly from an event's
//! timestamp; session windows grow by merging. The
//! [`WindowedAggregator`] keeps per-(key, window) accumulators, drops
//! records that arrive behind the watermark (counting them), and emits
//! finalized windows as the watermark advances — the core of experiments
//! E2 (incremental vs batch) and E9 (alerting latency).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::watermark::{BoundedOutOfOrderness, Watermark};

/// A half-open event-time window `[start_us, end_us)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Window {
    /// Inclusive start, microseconds.
    pub start_us: u64,
    /// Exclusive end, microseconds.
    pub end_us: u64,
}

impl Window {
    /// Creates a window.
    ///
    /// # Panics
    ///
    /// Panics if `start_us >= end_us`.
    pub fn new(start_us: u64, end_us: u64) -> Self {
        assert!(start_us < end_us, "window start must precede end");
        Window { start_us, end_us }
    }

    /// Window length in microseconds.
    pub fn len_us(&self) -> u64 {
        self.end_us - self.start_us
    }

    /// Whether an event time falls inside.
    pub fn contains(&self, t_us: u64) -> bool {
        t_us >= self.start_us && t_us < self.end_us
    }

    /// Whether two windows overlap or touch (used for session merging).
    pub fn mergeable(&self, other: &Window) -> bool {
        self.start_us <= other.end_us && other.start_us <= self.end_us
    }

    /// The union of two mergeable windows.
    pub fn merge(&self, other: &Window) -> Window {
        Window {
            start_us: self.start_us.min(other.start_us),
            end_us: self.end_us.max(other.end_us),
        }
    }
}

impl std::fmt::Display for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start_us, self.end_us)
    }
}

/// Assigns windows to event times.
pub trait WindowAssigner {
    /// Replaces the contents of `out` with the windows an event at
    /// `t_us` belongs to, in ascending start order. The caller owns and
    /// reuses `out`, so assignment allocates nothing once it has grown.
    fn assign(&self, t_us: u64, out: &mut Vec<Window>);

    /// `Some(gap)` if windows must be merged session-style.
    fn session_gap_us(&self) -> Option<u64> {
        None
    }
}

/// Fixed, non-overlapping windows of `size_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TumblingWindows {
    size_us: u64,
}

impl TumblingWindows {
    /// Creates an assigner with the given window size.
    ///
    /// # Panics
    ///
    /// Panics if `size_us == 0`.
    pub fn new(size_us: u64) -> Self {
        assert!(size_us > 0, "window size must be positive");
        TumblingWindows { size_us }
    }
}

impl WindowAssigner for TumblingWindows {
    fn assign(&self, t_us: u64, out: &mut Vec<Window>) {
        let start = (t_us / self.size_us) * self.size_us;
        out.clear();
        out.push(Window::new(start, start + self.size_us));
    }
}

/// Overlapping windows of `size_us` sliding every `slide_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlidingWindows {
    size_us: u64,
    slide_us: u64,
}

impl SlidingWindows {
    /// Creates an assigner.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero or `slide_us > size_us`.
    pub fn new(size_us: u64, slide_us: u64) -> Self {
        assert!(
            size_us > 0 && slide_us > 0,
            "window parameters must be positive"
        );
        assert!(slide_us <= size_us, "slide must not exceed size");
        SlidingWindows { size_us, slide_us }
    }
}

impl WindowAssigner for SlidingWindows {
    fn assign(&self, t_us: u64, out: &mut Vec<Window>) {
        out.clear();
        let last_start = (t_us / self.slide_us) * self.slide_us;
        let mut start = last_start;
        loop {
            if start + self.size_us > t_us {
                out.push(Window::new(start, start + self.size_us));
            }
            if start < self.slide_us {
                break;
            }
            start -= self.slide_us;
            if start + self.size_us <= t_us {
                break;
            }
        }
        out.reverse();
    }
}

/// Session windows closing after `gap_us` of inactivity per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionWindows {
    gap_us: u64,
}

impl SessionWindows {
    /// Creates an assigner with the given inactivity gap.
    ///
    /// # Panics
    ///
    /// Panics if `gap_us == 0`.
    pub fn new(gap_us: u64) -> Self {
        assert!(gap_us > 0, "session gap must be positive");
        SessionWindows { gap_us }
    }
}

impl WindowAssigner for SessionWindows {
    fn assign(&self, t_us: u64, out: &mut Vec<Window>) {
        out.clear();
        out.push(Window::new(t_us, t_us + self.gap_us));
    }

    fn session_gap_us(&self) -> Option<u64> {
        Some(self.gap_us)
    }
}

/// A fold over window contents.
///
/// The accumulator must be `Clone` so the engine can checkpoint state by
/// snapshot (see [`crate::checkpoint`]).
pub trait Aggregation<T> {
    /// Accumulator type.
    type Acc: Clone + Send + 'static;

    /// A fresh accumulator.
    fn init(&self) -> Self::Acc;

    /// Folds one item in.
    fn fold(&self, acc: &mut Self::Acc, item: &T);

    /// Merges two accumulators (needed for session-window merging).
    fn merge(&self, a: Self::Acc, b: Self::Acc) -> Self::Acc;
}

/// Counts items.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountAggregation;

impl<T> Aggregation<T> for CountAggregation {
    type Acc = u64;
    fn init(&self) -> u64 {
        0
    }
    fn fold(&self, acc: &mut u64, _item: &T) {
        *acc += 1;
    }
    fn merge(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// Accumulates count / sum / min / max / mean of an extracted `f64`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NumericStats {
    /// Item count.
    pub count: u64,
    /// Sum of values.
    pub sum: f64,
    /// Minimum (`f64::INFINITY` when empty).
    pub min: f64,
    /// Maximum (`f64::NEG_INFINITY` when empty).
    pub max: f64,
}

impl NumericStats {
    /// A stats accumulator with proper identity values.
    pub fn empty() -> Self {
        NumericStats {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Mean value (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Folds one value in.
    pub fn add(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another accumulator in.
    pub fn merge(&mut self, other: &NumericStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// [`Aggregation`] computing [`NumericStats`] over `extract(item)`.
pub struct StatsAggregation<T, F: Fn(&T) -> f64> {
    extract: F,
    _marker: std::marker::PhantomData<fn(&T)>,
}

impl<T, F: Fn(&T) -> f64> StatsAggregation<T, F> {
    /// Creates the aggregation from a value extractor.
    pub fn new(extract: F) -> Self {
        StatsAggregation {
            extract,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T, F: Fn(&T) -> f64> std::fmt::Debug for StatsAggregation<T, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsAggregation").finish_non_exhaustive()
    }
}

impl<T, F: Fn(&T) -> f64> Aggregation<T> for StatsAggregation<T, F> {
    type Acc = NumericStats;
    fn init(&self) -> NumericStats {
        NumericStats::empty()
    }
    fn fold(&self, acc: &mut NumericStats, item: &T) {
        acc.add((self.extract)(item));
    }
    fn merge(&self, mut a: NumericStats, b: NumericStats) -> NumericStats {
        a.merge(&b);
        a
    }
}

/// An emitted window result.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowResult<Acc> {
    /// Grouping key.
    pub key: u64,
    /// The finalized window.
    pub window: Window,
    /// The accumulated value.
    pub value: Acc,
}

/// Keyed windowed aggregation with watermark-driven emission.
///
/// # Example
///
/// ```
/// use augur_stream::{TumblingWindows, WindowedAggregator, Watermark};
/// use augur_stream::window::CountAggregation;
///
/// let mut agg = WindowedAggregator::new(TumblingWindows::new(1_000), CountAggregation);
/// agg.offer(1, 100, &());
/// agg.offer(1, 900, &());
/// agg.offer(1, 1_100, &());
/// let fired = agg.advance(Watermark(1_000));
/// assert_eq!(fired.len(), 1);
/// assert_eq!(fired[0].value, 2);
/// ```
#[derive(Debug)]
pub struct WindowedAggregator<W, A, T>
where
    W: WindowAssigner,
    A: Aggregation<T>,
{
    assigner: W,
    aggregation: A,
    // Keyed state ordered by window end for cheap emission.
    state: BTreeMap<(u64, u64, u64), A::Acc>, // (end_us, key, start_us)
    emitted_watermark: Watermark,
    late_dropped: u64,
    /// Scratch buffer [`WindowAssigner::assign`] refills on every offer.
    windows: Vec<Window>,
    _marker: std::marker::PhantomData<fn(&T)>,
}

impl<W, A, T> WindowedAggregator<W, A, T>
where
    W: WindowAssigner,
    A: Aggregation<T>,
{
    /// Creates an aggregator.
    pub fn new(assigner: W, aggregation: A) -> Self {
        WindowedAggregator {
            assigner,
            aggregation,
            state: BTreeMap::new(),
            emitted_watermark: Watermark(0),
            late_dropped: 0,
            windows: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Records dropped for arriving behind the watermark.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Number of live (key, window) accumulators.
    pub fn live_windows(&self) -> usize {
        self.state.len()
    }

    /// Offers an item. Returns `false` if it was dropped as late.
    pub fn offer(&mut self, key: u64, event_time_us: u64, item: &T) -> bool {
        self.assigner.assign(event_time_us, &mut self.windows);
        // Late if every window it belongs to has already been emitted.
        if self
            .windows
            .iter()
            .all(|w| w.end_us <= self.emitted_watermark.0)
        {
            self.late_dropped += 1;
            return false;
        }
        if let Some(_gap) = self.assigner.session_gap_us() {
            let window = self.windows[0];
            self.offer_session(key, window, item);
        } else {
            for w in &self.windows {
                if w.end_us <= self.emitted_watermark.0 {
                    continue; // this pane already fired; drop silently
                }
                let acc = self
                    .state
                    .entry((w.end_us, key, w.start_us))
                    .or_insert_with(|| self.aggregation.init());
                self.aggregation.fold(acc, item);
            }
        }
        true
    }

    fn offer_session(&mut self, key: u64, mut window: Window, item: &T) {
        let mut acc = self.aggregation.init();
        self.aggregation.fold(&mut acc, item);
        // Find existing sessions for this key that merge with the new one.
        let mergeable: Vec<(u64, u64, u64)> = self
            .state
            .keys()
            .filter(|(end, k, start)| *k == key && Window::new(*start, *end).mergeable(&window))
            .cloned()
            .collect();
        for k in mergeable {
            if let Some(existing) = self.state.remove(&k) {
                window = window.merge(&Window::new(k.2, k.0));
                acc = self.aggregation.merge(acc, existing);
            }
        }
        self.state
            .insert((window.end_us, key, window.start_us), acc);
    }

    /// Advances the watermark, emitting every window whose end has
    /// passed. Results are ordered by (end, key).
    pub fn advance(&mut self, watermark: Watermark) -> Vec<WindowResult<A::Acc>> {
        if watermark <= self.emitted_watermark {
            return Vec::new();
        }
        self.emitted_watermark = watermark;
        // All keys with end_us <= watermark: the prefix below
        // (watermark+1, 0, 0), detached in one split. Most advances fire
        // nothing, and a split allocates, so look before splitting.
        let boundary = (watermark.0 + 1, 0u64, 0u64);
        if self
            .state
            .first_key_value()
            .is_none_or(|(k, _)| *k >= boundary)
        {
            return Vec::new();
        }
        let pending = self.state.split_off(&boundary);
        emit(std::mem::replace(&mut self.state, pending))
    }

    /// Emits everything regardless of the watermark (end of stream),
    /// ordered by (end, key, start).
    pub fn flush(&mut self) -> Vec<WindowResult<A::Acc>> {
        emit(std::mem::take(&mut self.state))
    }

    /// Snapshot of the internal state for checkpointing.
    pub fn snapshot(&self) -> WindowState<A::Acc> {
        WindowState {
            state: self.state.clone().into_iter().collect(),
            emitted_watermark: self.emitted_watermark,
            late_dropped: self.late_dropped,
            generator: None,
        }
    }

    /// Restores a snapshot taken by [`WindowedAggregator::snapshot`].
    pub fn restore(&mut self, snap: WindowState<A::Acc>) {
        self.state = snap.state.into_iter().collect();
        self.emitted_watermark = snap.emitted_watermark;
        self.late_dropped = snap.late_dropped;
    }
}

/// Moves fired accumulators out of `fired` as results, in the map's
/// (end, key, start) order.
fn emit<Acc>(fired: BTreeMap<(u64, u64, u64), Acc>) -> Vec<WindowResult<Acc>> {
    fired
        .into_iter()
        .map(|((end_us, key, start_us), value)| WindowResult {
            key,
            window: Window::new(start_us, end_us),
            value,
        })
        .collect()
}

/// Checkpointable window-operator state.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowState<Acc> {
    state: Vec<((u64, u64, u64), Acc)>,
    emitted_watermark: Watermark,
    late_dropped: u64,
    /// The pipeline's watermark generator at the checkpoint, so a resumed
    /// run measures lateness against the watermark the interrupted run
    /// had rather than one that starts over from zero.
    pub(crate) generator: Option<BoundedOutOfOrderness>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assigned(assigner: &impl WindowAssigner, t_us: u64) -> Vec<Window> {
        let mut out = Vec::new();
        assigner.assign(t_us, &mut out);
        out
    }

    #[test]
    fn tumbling_assignment() {
        let w = TumblingWindows::new(1_000);
        assert_eq!(assigned(&w, 0), vec![Window::new(0, 1_000)]);
        assert_eq!(assigned(&w, 999), vec![Window::new(0, 1_000)]);
        assert_eq!(assigned(&w, 1_000), vec![Window::new(1_000, 2_000)]);
    }

    #[test]
    fn sliding_assignment_covers_event() {
        let w = SlidingWindows::new(1_000, 250);
        let t = 1_100;
        let windows = assigned(&w, t);
        assert_eq!(windows.len(), 4);
        for win in &windows {
            assert!(win.contains(t), "{win} should contain {t}");
        }
        // Consecutive starts differ by the slide.
        for pair in windows.windows(2) {
            assert_eq!(pair[1].start_us - pair[0].start_us, 250);
        }
    }

    #[test]
    fn sliding_equal_size_and_slide_is_tumbling() {
        let s = SlidingWindows::new(500, 500);
        let t = TumblingWindows::new(500);
        for time in [0u64, 499, 500, 1_250] {
            assert_eq!(assigned(&s, time), assigned(&t, time));
        }
    }

    #[test]
    #[should_panic(expected = "slide must not exceed size")]
    fn sliding_rejects_gap_larger_than_size() {
        let _ = SlidingWindows::new(100, 200);
    }

    #[test]
    fn tumbling_count_fires_on_watermark() {
        let mut agg = WindowedAggregator::new(TumblingWindows::new(1_000), CountAggregation);
        for t in [10, 20, 990, 1_500, 2_200] {
            assert!(agg.offer(7, t, &()));
        }
        assert!(agg.advance(Watermark(999)).is_empty());
        let fired = agg.advance(Watermark(1_000));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].key, 7);
        assert_eq!(fired[0].value, 3);
        let rest = agg.flush();
        assert_eq!(rest.len(), 2);
        assert_eq!(rest.iter().map(|r| r.value).sum::<u64>(), 2);
    }

    #[test]
    fn late_records_are_dropped_and_counted() {
        let mut agg = WindowedAggregator::new(TumblingWindows::new(1_000), CountAggregation);
        agg.offer(1, 500, &());
        agg.advance(Watermark(2_000));
        assert!(!agg.offer(1, 700, &()), "record behind watermark");
        assert_eq!(agg.late_dropped(), 1);
    }

    #[test]
    fn keys_are_isolated() {
        let mut agg = WindowedAggregator::new(TumblingWindows::new(1_000), CountAggregation);
        agg.offer(1, 100, &());
        agg.offer(2, 200, &());
        agg.offer(2, 300, &());
        let mut fired = agg.advance(Watermark(1_000));
        fired.sort_by_key(|r| r.key);
        assert_eq!(fired.len(), 2);
        assert_eq!((fired[0].key, fired[0].value), (1, 1));
        assert_eq!((fired[1].key, fired[1].value), (2, 2));
    }

    #[test]
    fn stats_aggregation_computes_summary() {
        let agg_fn = StatsAggregation::new(|v: &f64| *v);
        let mut agg = WindowedAggregator::new(TumblingWindows::new(1_000), agg_fn);
        for (t, v) in [(10, 1.0), (20, 5.0), (30, 3.0)] {
            agg.offer(1, t, &v);
        }
        let fired = agg.advance(Watermark(1_000));
        let s = &fired[0].value;
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 9.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean(), Some(3.0));
    }

    #[test]
    fn session_windows_merge_within_gap() {
        let mut agg = WindowedAggregator::new(SessionWindows::new(1_000), CountAggregation);
        // Events at 0, 500, 900: one session [0, 1900).
        agg.offer(1, 0, &());
        agg.offer(1, 500, &());
        agg.offer(1, 900, &());
        // A distant event: separate session.
        agg.offer(1, 5_000, &());
        let fired = agg.flush();
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].value, 3);
        assert_eq!(fired[0].window, Window::new(0, 1_900));
        assert_eq!(fired[1].value, 1);
    }

    #[test]
    fn session_merge_bridges_gap_between_sessions() {
        let mut agg = WindowedAggregator::new(SessionWindows::new(1_000), CountAggregation);
        agg.offer(1, 0, &());
        agg.offer(1, 2_000, &());
        // Bridge arrives between them, merging all three.
        agg.offer(1, 1_000, &());
        let fired = agg.flush();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].value, 3);
        assert_eq!(fired[0].window, Window::new(0, 3_000));
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut agg = WindowedAggregator::new(TumblingWindows::new(1_000), CountAggregation);
        agg.offer(1, 100, &());
        agg.offer(2, 1_200, &());
        let snap = agg.snapshot();
        agg.offer(3, 1_300, &());
        agg.restore(snap);
        assert_eq!(agg.live_windows(), 2);
        let fired = agg.flush();
        assert_eq!(fired.len(), 2);
    }

    #[test]
    fn numeric_stats_identity() {
        let s = NumericStats::empty();
        assert_eq!(s.mean(), None);
        let mut a = NumericStats::empty();
        a.add(2.0);
        let mut b = NumericStats::empty();
        b.merge(&a);
        assert_eq!(b.count, 1);
        assert_eq!(b.min, 2.0);
    }

    #[test]
    fn advance_is_idempotent_for_same_watermark() {
        let mut agg = WindowedAggregator::new(TumblingWindows::new(100), CountAggregation);
        agg.offer(1, 50, &());
        assert_eq!(agg.advance(Watermark(100)).len(), 1);
        assert!(agg.advance(Watermark(100)).is_empty());
        assert!(agg.advance(Watermark(50)).is_empty());
    }
}
