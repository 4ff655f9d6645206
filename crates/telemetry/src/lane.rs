//! Worker lanes: deterministic logical thread identity plus per-lane
//! flight-recorder rings, contention accounting, and a deterministic
//! multi-lane drain merge.
//!
//! The sharding arc (ROADMAP item 1) needs instrumentation that can
//! *see* workers. OS thread ids are useless for that — they differ per
//! run and per host — so a [`LaneId`] is a **logical** worker id
//! assigned at spawn in registration order: same program, same lane
//! numbering, every run. Each registered [`Lane`] owns
//!
//! - its **own flight-recorder ring** ([`FlightRecorder::for_lane`]),
//!   so lanes never contend on a shared write cursor and every drained
//!   [`FlightEvent`] carries the lane that recorded it;
//! - **contention accounting**: [`Lane::block`] measures a blocked
//!   window on a [`Clock`] (channel full/empty, a contended lock) and
//!   records it as a `blocked/…` span plus the `lane_blocked_us`
//!   counter, while [`Lane::work`] records ordinary spans and charges
//!   `lane_busy_us` — the inputs to xray's measured parallel
//!   efficiency `Σ busy / (lanes × elapsed)`.
//!
//! [`Lanes::merge_drains`] drains every lane and merges the per-lane
//! streams in a **canonical order** — `(ts_us, lane, per-lane drain
//! index)` — so the merged event list, and therefore every artifact
//! rendered from it (Chrome trace, xray JSON), is byte-identical no
//! matter how the OS interleaved the lanes or in which order the rings
//! were drained. Loss stays exact per lane: each [`LaneSummary`]
//! carries its ring's `drained + dropped == total` accounting and the
//! merged [`MergedDrain::truncated`] flag propagates into xray.
//!
//! # Example
//!
//! ```
//! use augur_telemetry::{Clock, Lanes, ManualTime, TraceContext};
//!
//! let lanes = Lanes::new(7, 64);
//! let lane = lanes.register("worker-0");
//! let time = ManualTime::shared();
//! let clock: Clock = time.clone();
//! let name = lane.recorder().intern("stage/encode");
//! {
//!     let _w = lane.work(&clock, lane.root(), name);
//!     time.advance_micros(250); // modeled work
//! }
//! let merged = lanes.merge_drains();
//! assert_eq!(merged.events.len(), 1);
//! assert_eq!(merged.events[0].lane, lane.id());
//! assert_eq!(merged.lanes[0].busy_us, 250);
//! assert!(!merged.truncated);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::flight::{FlightEvent, FlightRecorder, NameId};
use crate::time::Clock;
use crate::trace::TraceContext;

/// Deterministic logical worker-lane id. Lane 0 is the **control
/// lane** (the main thread / single-threaded paths); worker lanes are
/// numbered from 1 in [`Lanes::register`] order — never from OS thread
/// ids, which vary per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LaneId(pub u16);

impl LaneId {
    /// The control lane: events recorded outside any registered lane.
    pub const CONTROL: LaneId = LaneId(0);

    /// True for registered worker lanes (anything but the control lane).
    pub fn is_worker(self) -> bool {
        self.0 != 0
    }
}

impl std::fmt::Display for LaneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == 0 {
            f.write_str("control")
        } else {
            write!(f, "lane-{}", self.0)
        }
    }
}

/// Which contended resource a blocked window covers; selects the
/// pre-interned `blocked/…` span name so the hot path never interns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedSite {
    /// Waiting for data on an empty channel, or parked on an empty
    /// stream topic until an append arrives.
    ChannelRecv,
    /// Waiting on the broker's consumer-group commit lock.
    CommitLock,
    /// An injected or externally-imposed stall (red-gate probes).
    Stall,
}

/// Span names for the [`BlockedSite`] variants, in discriminant order.
const BLOCKED_NAMES: [&str; 3] = [
    "blocked/channel_recv",
    "blocked/commit_lock",
    "blocked/stall",
];

/// One registered worker lane: a cheap cloneable handle owning the
/// lane's ring, its deterministic trace root, and its busy/blocked
/// counters. Pass a clone to the worker thread at spawn.
#[derive(Debug, Clone)]
pub struct Lane {
    id: LaneId,
    name: Arc<str>,
    recorder: FlightRecorder,
    root: TraceContext,
    salt: Arc<AtomicU64>,
    busy_us: Arc<AtomicU64>,
    blocked_us: Arc<AtomicU64>,
    blocked_names: [NameId; 3],
}

impl Lane {
    /// This lane's deterministic id.
    pub fn id(&self) -> LaneId {
        self.id
    }

    /// The human-readable lane name given at registration.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lane's private flight-recorder ring.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The lane's deterministic trace root; derive span contexts from
    /// it (or from an enclosing stage span) for lane-local events.
    pub fn root(&self) -> TraceContext {
        self.root
    }

    /// Total busy time charged to this lane, microseconds.
    pub fn busy_us(&self) -> u64 {
        self.busy_us.load(Ordering::Relaxed)
    }

    /// Total blocked time charged to this lane, microseconds.
    pub fn blocked_us(&self) -> u64 {
        self.blocked_us.load(Ordering::Relaxed)
    }

    /// Charges `us` of busy time without recording a span — for hot
    /// paths that account work in bulk.
    pub fn add_busy_us(&self, us: u64) {
        self.busy_us.fetch_add(us, Ordering::Relaxed);
    }

    /// A fresh deterministic child context under `parent`, salted by a
    /// per-lane monotonic counter (deterministic while the lane is
    /// driven by one thread, which is the lane contract).
    pub fn next_ctx(&self, parent: TraceContext) -> TraceContext {
        let salt = self.salt.fetch_add(1, Ordering::Relaxed);
        parent.child(salt)
    }

    /// Starts a busy span under `parent`: on drop it records the span
    /// on this lane's ring and charges the duration to `lane_busy_us`
    /// — minus any [`Lane::block`] windows closed inside the span, so
    /// time spent blocked never double-counts as busy.
    pub fn work(&self, clock: &Clock, parent: TraceContext, name: NameId) -> LaneWork {
        LaneWork {
            blocked_at_start: self.blocked_us(),
            lane: self.clone(),
            clock: clock.clone(),
            ctx: self.next_ctx(parent),
            name,
            start_us: clock.now_micros(),
        }
    }

    /// Starts a blocked window under `parent`: on drop it charges the
    /// duration to `lane_blocked_us` and, when non-zero, records a
    /// `blocked/…` span so the wait is visible on the lane's timeline.
    /// A zero-length window is completely free — it neither records a
    /// span nor consumes a context salt, so speculative guards around
    /// `try_lock` fast paths leave the lane's deterministic span-id
    /// sequence untouched when no real wait happened.
    pub fn block(&self, clock: &Clock, parent: TraceContext, site: BlockedSite) -> LaneBlock {
        LaneBlock {
            lane: self.clone(),
            clock: clock.clone(),
            parent,
            name: self.blocked_names[site as usize],
            start_us: clock.now_micros(),
        }
    }
}

/// Guard for [`Lane::work`]: records the span and charges busy time on
/// drop.
pub struct LaneWork {
    lane: Lane,
    clock: Clock,
    ctx: TraceContext,
    name: NameId,
    start_us: u64,
    blocked_at_start: u64,
}

impl std::fmt::Debug for LaneWork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneWork")
            .field("lane", &self.lane.id)
            .field("ctx", &self.ctx)
            .field("start_us", &self.start_us)
            .finish_non_exhaustive()
    }
}

impl LaneWork {
    /// The span's context — derive child contexts from it.
    pub fn ctx(&self) -> TraceContext {
        self.ctx
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for LaneWork {
    fn drop(&mut self) {
        let dur = self.clock.now_micros().saturating_sub(self.start_us);
        // Blocked windows closed while this span was open (the lane is
        // driven by one thread) are contention, not work.
        let nested_blocked = self.lane.blocked_us().saturating_sub(self.blocked_at_start);
        self.lane
            .busy_us
            .fetch_add(dur.saturating_sub(nested_blocked), Ordering::Relaxed);
        self.lane
            .recorder
            .record_span(self.ctx, self.name, self.start_us, dur);
    }
}

/// Guard for [`Lane::block`]: charges blocked time on drop and records
/// a `blocked/…` span when the window was non-empty.
pub struct LaneBlock {
    lane: Lane,
    clock: Clock,
    parent: TraceContext,
    name: NameId,
    start_us: u64,
}

impl std::fmt::Debug for LaneBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneBlock")
            .field("lane", &self.lane.id)
            .field("parent", &self.parent)
            .field("start_us", &self.start_us)
            .finish_non_exhaustive()
    }
}

impl LaneBlock {
    /// Ends the blocked window now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for LaneBlock {
    fn drop(&mut self) {
        let dur = self.clock.now_micros().saturating_sub(self.start_us);
        self.lane.blocked_us.fetch_add(dur, Ordering::Relaxed);
        if dur > 0 {
            // The context is derived only now: empty windows must not
            // perturb the lane's salt sequence (see [`Lane::block`]).
            let ctx = self.lane.next_ctx(self.parent);
            self.lane
                .recorder
                .record_span(ctx, self.name, self.start_us, dur);
        }
    }
}

/// Loss and contention accounting for one lane in a [`MergedDrain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSummary {
    /// The lane's deterministic id.
    pub id: LaneId,
    /// The lane name given at registration (`"control"` for lane 0).
    pub name: String,
    /// Events this merge drained from the lane's ring.
    pub drained: u64,
    /// Events the lane's ring has dropped (cumulative; exact at
    /// quiescence: `drained totals + dropped == total`).
    pub dropped: u64,
    /// Events the lane's ring accepted over its lifetime.
    pub total: u64,
    /// Busy time charged via [`Lane::work`] / [`Lane::add_busy_us`], µs.
    pub busy_us: u64,
    /// Blocked time charged via [`Lane::block`], µs.
    pub blocked_us: u64,
}

/// The result of a deterministic multi-lane drain merge: events in
/// canonical `(ts_us, lane, per-lane order)` order plus exact per-lane
/// loss accounting.
#[derive(Debug, Clone, Default)]
pub struct MergedDrain {
    /// Merged events, canonically ordered (see [`merge_drained`]).
    pub events: Vec<FlightEvent>,
    /// Per-lane accounting, sorted by lane id.
    pub lanes: Vec<LaneSummary>,
    /// Σ per-lane totals: events accepted across all merged rings.
    pub total_events: u64,
    /// Σ per-lane drops: events lost across all merged rings.
    pub dropped_events: u64,
    /// True when any lane's ring dropped events — the merged stream
    /// has holes and downstream analysis (xray) must say so.
    pub truncated: bool,
}

/// Merges already-drained per-lane batches into canonical order.
///
/// The order is a pure function of the batch *contents*: events sort
/// by `(ts_us, lane id, position within the lane's drain)`, so the
/// merged list — and any artifact rendered from it — is byte-identical
/// regardless of the order the rings were drained or the order batches
/// are passed in. Per-lane drains already preserve ticket order, which
/// is what the position tie-break pins down for equal timestamps.
pub fn merge_drained(batches: Vec<(LaneSummary, Vec<FlightEvent>)>) -> MergedDrain {
    let mut lanes: Vec<LaneSummary> = Vec::with_capacity(batches.len());
    let mut keyed: Vec<((u64, u16, u64), FlightEvent)> = Vec::new();
    for (summary, events) in batches {
        for (idx, event) in events.into_iter().enumerate() {
            keyed.push(((event.ts_us, summary.id.0, idx as u64), event));
        }
        lanes.push(summary);
    }
    lanes.sort_by(|a, b| a.id.cmp(&b.id).then_with(|| a.name.cmp(&b.name)));
    keyed.sort_by_key(|entry| entry.0);
    let total_events = lanes
        .iter()
        .fold(0u64, |acc, l| acc.saturating_add(l.total));
    let dropped_events = lanes
        .iter()
        .fold(0u64, |acc, l| acc.saturating_add(l.dropped));
    MergedDrain {
        events: keyed.into_iter().map(|(_, e)| e).collect(),
        lanes,
        total_events,
        dropped_events,
        truncated: dropped_events > 0,
    }
}

#[derive(Debug)]
struct LanesInner {
    seed: u64,
    capacity: usize,
    /// Next id to hand out (worker ids start at 1). An atomic — not
    /// the `lanes` mutex — allocates ids, so registration never holds
    /// the registry lock across name interning (lock-order hygiene).
    next_id: AtomicU64,
    lanes: Mutex<Vec<Lane>>,
}

/// The lane registry: hands out deterministic [`LaneId`]s in
/// registration order and merges all lane rings into one canonical
/// drain. Cloning shares the registry.
#[derive(Debug, Clone)]
pub struct Lanes {
    inner: Arc<LanesInner>,
}

impl Lanes {
    /// A registry whose lanes derive trace roots from `seed` and whose
    /// rings hold `capacity_per_lane` entries each.
    pub fn new(seed: u64, capacity_per_lane: usize) -> Lanes {
        Lanes {
            inner: Arc::new(LanesInner {
                seed,
                capacity: capacity_per_lane,
                next_id: AtomicU64::new(1),
                lanes: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Registers the next worker lane. Ids are assigned sequentially
    /// from 1 in call order — call from the *spawning* thread, before
    /// handing the returned [`Lane`] to the worker, so the numbering is
    /// program order, not scheduler order.
    pub fn register(&self, name: &str) -> Lane {
        let raw = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let id = LaneId(u16::try_from(raw).unwrap_or(u16::MAX));
        let recorder = FlightRecorder::for_lane(self.inner.capacity, id);
        let blocked_names = BLOCKED_NAMES.map(|n| recorder.intern(n));
        // Salt the root key with a lane tag so lane roots never collide
        // with scenario roots derived from small ordinals.
        let root = TraceContext::root(self.inner.seed, 0x6c61_6e65_0000_0000 | u64::from(id.0));
        let lane = Lane {
            id,
            name: Arc::from(name),
            recorder,
            root,
            salt: Arc::new(AtomicU64::new(0)),
            busy_us: Arc::new(AtomicU64::new(0)),
            blocked_us: Arc::new(AtomicU64::new(0)),
            blocked_names,
        };
        self.inner.lanes.lock().push(lane.clone());
        lane
    }

    /// Number of registered lanes.
    pub fn len(&self) -> usize {
        self.inner.lanes.lock().len()
    }

    /// True when no lane has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the registered lane handles, in id order.
    pub fn handles(&self) -> Vec<Lane> {
        let mut lanes = self.inner.lanes.lock().clone();
        // Push order can trail id order if registrations ever race;
        // the canonical drain is keyed by id, so sort here.
        lanes.sort_by_key(|l| l.id.0);
        lanes
    }

    /// Drains every lane's ring and merges the streams canonically
    /// (see [`merge_drained`]). Call at quiescence — after the worker
    /// threads have joined — for exact `drained + dropped == total`
    /// accounting per lane.
    pub fn merge_drains(&self) -> MergedDrain {
        let lanes = self.handles();
        let mut batches: Vec<(LaneSummary, Vec<FlightEvent>)> = Vec::with_capacity(lanes.len());
        for lane in lanes {
            let events = lane.recorder.drain();
            batches.push((
                LaneSummary {
                    id: lane.id,
                    name: lane.name.to_string(),
                    drained: events.len() as u64,
                    dropped: lane.recorder.dropped_events(),
                    total: lane.recorder.total_events(),
                    busy_us: lane.busy_us(),
                    blocked_us: lane.blocked_us(),
                },
                events,
            ));
        }
        merge_drained(batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::ManualTime;

    #[test]
    fn registration_assigns_sequential_ids() {
        let lanes = Lanes::new(1, 64);
        let a = lanes.register("pump");
        let b = lanes.register("worker-0");
        assert_eq!(a.id(), LaneId(1));
        assert_eq!(b.id(), LaneId(2));
        assert_eq!(a.name(), "pump");
        assert!(a.id().is_worker());
        assert!(!LaneId::CONTROL.is_worker());
        assert_eq!(lanes.len(), 2);
        assert_eq!(format!("{}", a.id()), "lane-1");
        assert_eq!(format!("{}", LaneId::CONTROL), "control");
    }

    #[test]
    fn work_and_block_charge_the_lane_counters() {
        let lanes = Lanes::new(2, 64);
        let lane = lanes.register("w");
        let time = ManualTime::shared();
        let clock: Clock = time.clone();
        let stage = lane.recorder().intern("stage/run");
        {
            let w = lane.work(&clock, lane.root(), stage);
            time.advance_micros(30);
            w.end();
        }
        {
            let b = lane.block(&clock, lane.root(), BlockedSite::ChannelRecv);
            time.advance_micros(12);
            b.end();
        }
        // A zero-length blocked window charges nothing and records no span.
        lane.block(&clock, lane.root(), BlockedSite::Stall).end();
        assert_eq!(lane.busy_us(), 30);
        assert_eq!(lane.blocked_us(), 12);
        let merged = lanes.merge_drains();
        assert_eq!(merged.events.len(), 2);
        assert_eq!(merged.events[0].name, "stage/run");
        assert_eq!(merged.events[1].name, "blocked/channel_recv");
        assert!(merged.events.iter().all(|e| e.lane == lane.id()));
        assert_eq!(merged.lanes[0].busy_us, 30);
        assert_eq!(merged.lanes[0].blocked_us, 12);
    }

    #[test]
    fn merge_order_is_independent_of_batch_order() {
        let mk = |lane: u16, ts: &[u64]| {
            let lanes = Lanes::new(3, 64);
            let mut handle = None;
            for i in 1..=lane {
                handle = Some(lanes.register(&format!("w{i}")));
            }
            let Some(h) = handle else {
                return (lanes.merge_drains().lanes.pop(), Vec::new());
            };
            let n = h.recorder().intern("e");
            for &t in ts {
                h.recorder().record_span(h.next_ctx(h.root()), n, t, 1);
            }
            let events = h.recorder().drain();
            let summary = LaneSummary {
                id: h.id(),
                name: h.name().to_string(),
                drained: events.len() as u64,
                dropped: 0,
                total: events.len() as u64,
                busy_us: 0,
                blocked_us: 0,
            };
            (Some(summary), events)
        };
        let (sa, ea) = mk(1, &[5, 10, 10]);
        let (sb, eb) = mk(2, &[10, 20]);
        let (sa, sb) = match (sa, sb) {
            (Some(a), Some(b)) => (a, b),
            _ => return,
        };
        let fwd = merge_drained(vec![(sa.clone(), ea.clone()), (sb.clone(), eb.clone())]);
        let rev = merge_drained(vec![(sb, eb), (sa, ea)]);
        assert_eq!(fwd.events, rev.events, "batch order must not matter");
        assert_eq!(fwd.lanes, rev.lanes);
        // Equal timestamps: lane 1 sorts before lane 2, ring order kept.
        let at10: Vec<u16> = fwd
            .events
            .iter()
            .filter(|e| e.ts_us == 10)
            .map(|e| e.lane.0)
            .collect();
        assert_eq!(at10, vec![1, 1, 2]);
    }

    #[test]
    fn per_lane_loss_is_exact_and_propagates_truncation() {
        let lanes = Lanes::new(4, 8);
        let lossy = lanes.register("lossy");
        let clean = lanes.register("clean");
        let n = lossy.recorder().intern("x");
        for i in 0..20u64 {
            lossy
                .recorder()
                .record_span(lossy.next_ctx(lossy.root()), n, i, 1);
        }
        let m = clean.recorder().intern("y");
        clean
            .recorder()
            .record_span(clean.next_ctx(clean.root()), m, 0, 1);
        let merged = lanes.merge_drains();
        assert!(merged.truncated);
        let lossy_sum = &merged.lanes[0];
        assert_eq!(lossy_sum.id, LaneId(1));
        assert_eq!(lossy_sum.drained + lossy_sum.dropped, lossy_sum.total);
        assert_eq!(lossy_sum.dropped, 12);
        let clean_sum = &merged.lanes[1];
        assert_eq!(clean_sum.dropped, 0);
        assert_eq!(clean_sum.drained, 1);
        assert_eq!(merged.total_events, 21);
        assert_eq!(merged.dropped_events, 12);
        assert_eq!(
            merged.events.len() as u64 + merged.dropped_events,
            merged.total_events
        );
    }
}
