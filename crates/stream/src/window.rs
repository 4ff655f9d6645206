//! Event-time windows and keyed windowed aggregation.
//!
//! Tumbling and sliding windows are assigned directly from an event's
//! timestamp; session windows grow by merging. The
//! [`WindowedAggregator`] keeps per-(key, window) accumulators, drops
//! records that arrive behind the watermark (counting them), and emits
//! finalized windows as the watermark advances — the core of experiments
//! E2 (incremental vs batch) and E9 (alerting latency).

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher};

use crate::watermark::{BoundedOutOfOrderness, Watermark};

/// A half-open event-time window `[start_us, end_us)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
    ///
    /// A window whose end would pass `u64::MAX` is skipped, so a time
    /// near `u64::MAX` may get no window; [`WindowedAggregator::offer`]
    /// drops such a record and counts it as late.
    fn assign(&self, t_us: u64, out: &mut Vec<Window>);

    /// `Some(gap)` if windows must be merged session-style.
    fn session_gap_us(&self) -> Option<u64> {
        None
    }
}

/// Fixed, non-overlapping windows of `size_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        if let Some(end) = start.checked_add(self.size_us) {
            out.push(Window::new(start, end));
        }
    }
}

/// Overlapping windows of `size_us` sliding every `slide_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        let mut start = (t_us / self.slide_us) * self.slide_us;
        loop {
            // Walk starts down; skip panes ending past `u64::MAX` and stop
            // at the first that ends at or before `t_us`.
            if let Some(end) = start.checked_add(self.size_us) {
                if end <= t_us {
                    break;
                }
                out.push(Window::new(start, end));
            }
            if start < self.slide_us {
                break;
            }
            start -= self.slide_us;
        }
        out.reverse();
    }
}

/// Session windows closing after `gap_us` of inactivity per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        if let Some(end) = t_us.checked_add(self.gap_us) {
            out.push(Window::new(t_us, end));
        }
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
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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

/// Hashes the aggregator's integer keys by folded multiplication (the
/// two halves of a 128-bit product xor-ed together), as the `foldhash`
/// crate does, keyed by two secrets drawn from the standard library's
/// per-process random state. Record keys and event times come from
/// producers, and the secrets keep colliding keys from being crafted in
/// advance. With SipHash, the standard map's default, a `window_batch`
/// pass took about an eighth longer.
#[derive(Debug, Clone, Copy)]
struct PaneHash {
    seed: u64,
    mul: u64,
}

impl Default for PaneHash {
    fn default() -> Self {
        let random = RandomState::new();
        PaneHash {
            seed: random.hash_one(0u64),
            // Odd, so the multiply discards no input bit.
            mul: random.hash_one(1u64) | 1,
        }
    }
}

impl BuildHasher for PaneHash {
    type Hasher = PaneHasher;

    fn build_hasher(&self) -> PaneHasher {
        PaneHasher {
            acc: self.seed,
            mul: self.mul,
        }
    }
}

/// The running state of one [`PaneHash`] hash.
#[derive(Debug, Clone, Copy)]
struct PaneHasher {
    acc: u64,
    mul: u64,
}

impl Hasher for PaneHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.acc ^ n) * u128::from(self.mul);
        self.acc = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.acc
    }
}

/// The open panes that end at one instant, keyed by `(key, start_us)`.
type PaneMap<Acc> = HashMap<(u64, u64), Acc, PaneHash>;

/// Every open tumbling or sliding pane that ends at `end_us`.
#[derive(Debug)]
struct Bucket<Acc> {
    end_us: u64,
    panes: PaneMap<Acc>,
}

/// One open session window and its accumulator.
#[derive(Debug)]
struct Session<Acc> {
    window: Window,
    acc: Acc,
}

/// Keyed windowed aggregation with watermark-driven emission.
///
/// Tumbling and sliding panes live in one hash map per window end, and
/// those buckets sit in a queue ordered by end, so a record costs one
/// hash lookup per pane and firing pops buckets off the front. Sessions
/// are kept per key, in start order. Results fire in `(end, key, start)`
/// order either way.
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
    /// Open panes, one bucket per window end, in ascending end order.
    buckets: VecDeque<Bucket<A::Acc>>,
    /// Pane maps of fired buckets, emptied and kept for reuse.
    spare: Vec<PaneMap<A::Acc>>,
    /// Each key's open sessions in start order. A key's sessions never
    /// overlap or touch, so this is also end order.
    sessions: HashMap<u64, Vec<Session<A::Acc>>, PaneHash>,
    /// A lower bound on the earliest open session end (`u64::MAX` when
    /// none): merging only moves ends later.
    session_end: u64,
    /// A lower bound on the earliest end of any open window, so an
    /// advance that fires nothing is one compare.
    next_end: u64,
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
            buckets: VecDeque::new(),
            spare: Vec::new(),
            sessions: HashMap::default(),
            session_end: u64::MAX,
            next_end: u64::MAX,
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
        let panes: usize = self.buckets.iter().map(|b| b.panes.len()).sum();
        panes + self.sessions.values().map(Vec::len).sum::<usize>()
    }

    /// Offers an item. Returns `false` if it was dropped as late (or
    /// belongs to no window: see [`WindowAssigner::assign`]).
    pub fn offer(&mut self, key: u64, event_time_us: u64, item: &T) -> bool {
        self.assigner.assign(event_time_us, &mut self.windows);
        let watermark = self.emitted_watermark.0;
        // Late if every window it belongs to has already been emitted.
        if self.windows.iter().all(|w| w.end_us <= watermark) {
            self.late_dropped += 1;
            return false;
        }
        if self.assigner.session_gap_us().is_some() {
            let window = self.windows[0];
            self.offer_session(key, window, item);
            return true;
        }
        // A record's panes end in consecutive, mostly open buckets at the
        // back of the queue, so each search first tries the bucket after
        // the previous one.
        let windows = std::mem::take(&mut self.windows);
        let mut hint = self.buckets.len().saturating_sub(windows.len());
        for w in &windows {
            if w.end_us <= watermark {
                continue; // this pane already fired; drop silently
            }
            let b = self.bucket(w.end_us, hint);
            hint = b + 1;
            let acc = self.buckets[b]
                .panes
                .entry((key, w.start_us))
                .or_insert_with(|| self.aggregation.init());
            self.aggregation.fold(acc, item);
        }
        self.windows = windows;
        true
    }

    /// The index of the bucket for `end_us`, opening it in end order if
    /// it is new. `hint` is checked first.
    fn bucket(&mut self, end_us: u64, hint: usize) -> usize {
        if self.buckets.get(hint).is_some_and(|b| b.end_us == end_us) {
            return hint;
        }
        let i = self.buckets.partition_point(|b| b.end_us < end_us);
        if self.buckets.get(i).is_none_or(|b| b.end_us != end_us) {
            let panes = self.spare.pop().unwrap_or_default();
            self.buckets.insert(i, Bucket { end_us, panes });
            self.next_end = self.next_end.min(end_us);
        }
        i
    }

    fn offer_session(&mut self, key: u64, mut window: Window, item: &T) {
        let mut acc = self.aggregation.init();
        self.aggregation.fold(&mut acc, item);
        // The key's sessions that overlap or touch the new one form one
        // run of its start-ordered list; they merge in start order.
        let list = self.sessions.entry(key).or_default();
        let lo = list.partition_point(|s| s.window.end_us < window.start_us);
        let hi = list.partition_point(|s| s.window.start_us <= window.end_us);
        for s in list.drain(lo..hi) {
            window = window.merge(&s.window);
            acc = self.aggregation.merge(acc, s.acc);
        }
        list.insert(lo, Session { window, acc });
        self.session_end = self.session_end.min(window.end_us);
        self.next_end = self.next_end.min(window.end_us);
    }

    /// Advances the watermark, emitting every window whose end has
    /// passed. Results are ordered by (end, key, start).
    pub fn advance(&mut self, watermark: Watermark) -> Vec<WindowResult<A::Acc>> {
        if watermark <= self.emitted_watermark {
            return Vec::new();
        }
        self.emitted_watermark = watermark;
        if watermark.0 < self.next_end {
            return Vec::new();
        }
        self.fire(watermark.0)
    }

    /// Emits everything regardless of the watermark (end of stream),
    /// ordered by (end, key, start).
    pub fn flush(&mut self) -> Vec<WindowResult<A::Acc>> {
        self.fire(u64::MAX)
    }

    /// Removes and emits every window ending at or before `upto`, in
    /// (end, key, start) order.
    fn fire(&mut self, upto: u64) -> Vec<WindowResult<A::Acc>> {
        let mut out = Vec::new();
        let fired = self.buckets.partition_point(|b| b.end_us <= upto);
        for mut bucket in self.buckets.drain(..fired) {
            let from = out.len();
            let end_us = bucket.end_us;
            out.extend(
                bucket
                    .panes
                    .drain()
                    .map(|((key, start_us), value)| WindowResult {
                        key,
                        window: Window { start_us, end_us },
                        value,
                    }),
            );
            out[from..].sort_unstable_by_key(|r| (r.key, r.window.start_us));
            self.spare.push(bucket.panes);
        }
        if self.session_end <= upto {
            let mut next = u64::MAX;
            self.sessions.retain(|&key, list| {
                let n = list.partition_point(|s| s.window.end_us <= upto);
                out.extend(list.drain(..n).map(|s| WindowResult {
                    key,
                    window: s.window,
                    value: s.acc,
                }));
                if let Some(s) = list.first() {
                    next = next.min(s.window.end_us);
                }
                !list.is_empty()
            });
            self.session_end = next;
            out.sort_unstable_by_key(|r| (r.window.end_us, r.key, r.window.start_us));
        }
        self.next_end = self
            .buckets
            .front()
            .map_or(u64::MAX, |b| b.end_us)
            .min(self.session_end);
        out
    }

    /// Snapshot of the internal state for checkpointing, entries in
    /// (end, key, start) order.
    pub fn snapshot(&self) -> WindowState<A::Acc> {
        let mut state = Vec::with_capacity(self.live_windows());
        for b in &self.buckets {
            state.extend(
                b.panes
                    .iter()
                    .map(|(&(key, start), acc)| ((b.end_us, key, start), acc.clone())),
            );
        }
        for (&key, list) in &self.sessions {
            state.extend(list.iter().map(|s| {
                let id = (s.window.end_us, key, s.window.start_us);
                (id, s.acc.clone())
            }));
        }
        state.sort_unstable_by_key(|(id, _)| *id);
        WindowState {
            state,
            emitted_watermark: self.emitted_watermark,
            late_dropped: self.late_dropped,
            generator: None,
        }
    }

    /// Restores a snapshot taken by [`WindowedAggregator::snapshot`].
    pub fn restore(&mut self, snap: WindowState<A::Acc>) {
        for mut bucket in self.buckets.drain(..) {
            bucket.panes.clear();
            self.spare.push(bucket.panes);
        }
        self.sessions.clear();
        self.session_end = u64::MAX;
        self.next_end = u64::MAX;
        let sessions = self.assigner.session_gap_us().is_some();
        // Entries come in (end, key, start) order: each key's sessions in
        // end (hence start) order, and each pane's bucket at the back.
        for ((end_us, key, start_us), acc) in snap.state {
            let window = Window { start_us, end_us };
            if sessions {
                self.sessions
                    .entry(key)
                    .or_default()
                    .push(Session { window, acc });
                self.session_end = self.session_end.min(end_us);
                self.next_end = self.next_end.min(end_us);
            } else {
                let b = self.bucket(end_us, self.buckets.len().saturating_sub(1));
                self.buckets[b].panes.insert((key, start_us), acc);
            }
        }
        self.emitted_watermark = snap.emitted_watermark;
        self.late_dropped = snap.late_dropped;
    }
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
    fn assigners_skip_windows_ending_past_u64_max() {
        let tumbling = TumblingWindows::new(1_000);
        let sliding = SlidingWindows::new(1_000, 250);
        let session = SessionWindows::new(1_000);
        // No half-open window holds u64::MAX, and every 1_000 µs pane
        // holding u64::MAX - 1 ends past it: u64::MAX = BASE + 551_615,
        // with BASE a multiple of 1_000.
        for t in [u64::MAX, u64::MAX - 1] {
            assert_eq!(assigned(&tumbling, t), []);
            assert_eq!(assigned(&sliding, t), []);
            assert_eq!(assigned(&session, t), []);
        }
        const BASE: u64 = u64::MAX - 551_615;
        let fits = [
            Window::new(BASE + 550_250, BASE + 551_250),
            Window::new(BASE + 550_500, BASE + 551_500),
        ];
        assert_eq!(assigned(&sliding, BASE + 551_215), fits);
        let t = u64::MAX - 1;
        let last = Window::new(t, u64::MAX);
        assert_eq!(assigned(&SessionWindows::new(1), t), [last]);
        // 3 divides u64::MAX, so the last size-3 window ends exactly there.
        let last = Window::new(u64::MAX - 3, u64::MAX);
        assert_eq!(assigned(&TumblingWindows::new(3), t), [last]);
    }

    #[test]
    fn aggregator_drops_a_record_no_window_can_hold() {
        let mut agg = WindowedAggregator::new(TumblingWindows::new(1_000), CountAggregation);
        assert!(agg.offer(1, 500, &()));
        assert!(!agg.offer(1, u64::MAX - 1, &()));
        assert_eq!((agg.late_dropped(), agg.live_windows()), (1, 1));
        let counts: Vec<u64> = agg.flush().iter().map(|r| r.value).collect();
        assert_eq!(counts, [1]);
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
