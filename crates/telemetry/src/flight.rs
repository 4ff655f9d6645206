//! The flight recorder: a bounded, lock-free MPSC ring of structured
//! span/event records.
//!
//! Producers on hot paths call [`FlightRecorder::record_span`] /
//! [`FlightRecorder::record_instant`]; each record is pushed into a
//! [`SeqRing`] — **no lock, no allocation, never blocks** (see
//! [`crate::ring`] for the slot protocol and why it is torn-proof).
//! When the ring wraps before a drain, old entries are overwritten and
//! counted in [`FlightRecorder::dropped_events`]: at quiescence
//! `drained + dropped_events == total_events` exactly, the invariant
//! `tests/flight_stress.rs` asserts under 4-producer overflow. This
//! module only encodes events into ring cells and decodes them back.
//!
//! # Example
//!
//! ```
//! use augur_telemetry::{FlightRecorder, TraceContext};
//!
//! let rec = FlightRecorder::new(64);
//! let name = rec.intern("render/layout");
//! let ctx = TraceContext::root(42, 0);
//! rec.record_span(ctx, name, 1_000, 250);
//! let events = rec.drain();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].name, "render/layout");
//! assert_eq!(rec.dropped_events(), 0);
//! ```

use std::sync::Arc;

use crate::lane::LaneId;
use crate::ring::{Interner, SeqRing};
use crate::trace::TraceContext;

/// An interned event name: hot paths carry this copyable id instead of a
/// string. Intern names once at setup via [`FlightRecorder::intern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameId(u32);

/// What kind of record a flight event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A duration: `ts_us..ts_us + dur_us`.
    Span,
    /// A point event at `ts_us`; `arg` carries a payload (e.g. a count).
    Instant,
}

/// One drained flight-recorder entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Causal chain identity.
    pub trace_id: u64,
    /// This event's span id.
    pub span_id: u64,
    /// Parent span id (0 for a root).
    pub parent_span_id: u64,
    /// Resolved event name.
    pub name: String,
    /// Span or instant.
    pub kind: FlightEventKind,
    /// Start (spans) or occurrence (instants) time, microseconds.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Free-form payload for instants (0 for spans).
    pub arg: u64,
    /// The worker lane that recorded this event ([`LaneId::CONTROL`]
    /// for plain recorders; see [`FlightRecorder::for_lane`]).
    pub lane: LaneId,
}

/// Ring cells per event: trace, span and parent ids, `(name << 8) |
/// kind`, timestamp, duration and arg.
const CELLS: usize = 7;

#[derive(Debug)]
struct FlightInner {
    ring: SeqRing<CELLS>,
    names: Interner,
    /// Stamped onto every drained event; the ring belongs to one lane.
    lane: LaneId,
}

/// The bounded lock-free span/event ring. Cloning shares the ring. See
/// the module docs for the protocol and guarantees.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<FlightInner>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(4096)
    }
}

impl FlightRecorder {
    /// A recorder holding up to `capacity` entries (rounded up to a power
    /// of two, minimum 8). Events drain on the control lane
    /// ([`LaneId::CONTROL`]).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder::for_lane(capacity, LaneId::CONTROL)
    }

    /// A recorder whose drained events carry `lane` — one ring per
    /// worker lane, so lanes never share a write cursor. Normally
    /// constructed through [`crate::Lanes::register`].
    pub fn for_lane(capacity: usize, lane: LaneId) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(FlightInner {
                ring: SeqRing::new(capacity),
                names: Interner::default(),
                lane,
            }),
        }
    }

    /// The lane this ring records for ([`LaneId::CONTROL`] by default).
    pub fn lane(&self) -> LaneId {
        self.inner.lane
    }

    /// Ring capacity in entries.
    pub fn capacity(&self) -> usize {
        self.inner.ring.capacity()
    }

    /// Interns `name`, returning the id hot paths pass to the record
    /// calls. Takes a short lock — call at setup, not per event.
    pub fn intern(&self, name: &str) -> NameId {
        NameId(self.inner.names.intern(name))
    }

    /// Total records accepted so far (drained, pending, or dropped).
    pub fn total_events(&self) -> u64 {
        self.inner.ring.total()
    }

    /// Records overwritten before a drain could read them (plus
    /// abandoned or torn slots). Monotonic; updated at drain time.
    pub fn dropped_events(&self) -> u64 {
        self.inner.ring.dropped()
    }

    /// Live loss count: already-charged drops **plus** what a drain
    /// would charge right now (exact at quiescence). Unlike
    /// [`FlightRecorder::dropped_events`] this moves between drains, so
    /// monitors (e.g. the watch session's trace-loss SLO) can alert on
    /// span loss while a run is still in flight. Takes the read-cursor
    /// lock briefly; call from control-plane code, not hot paths.
    pub fn lost_events(&self) -> u64 {
        self.inner.ring.lost()
    }

    fn record(&self, ctx: TraceContext, name: NameId, kind: FlightEventKind, cells: [u64; 3]) {
        if ctx.sampled {
            let [ts_us, dur_us, arg] = cells;
            let meta = (u64::from(name.0) << 8) | kind as u64;
            let (trace, span, parent) = (ctx.trace_id, ctx.span_id, ctx.parent_span_id);
            self.inner
                .ring
                .push([trace, span, parent, meta, ts_us, dur_us, arg]);
        }
    }

    /// Records a completed span (`start_us..start_us + dur_us`).
    /// Lock-free, allocation-free; a no-op for unsampled contexts.
    pub fn record_span(&self, ctx: TraceContext, name: NameId, start_us: u64, dur_us: u64) {
        self.record(ctx, name, FlightEventKind::Span, [start_us, dur_us, 0]);
    }

    /// Records a point event with a free-form `arg` payload.
    /// Lock-free, allocation-free; a no-op for unsampled contexts.
    pub fn record_instant(&self, ctx: TraceContext, name: NameId, ts_us: u64, arg: u64) {
        self.record(ctx, name, FlightEventKind::Instant, [ts_us, 0, arg]);
    }

    /// Drains every currently-readable entry in ticket (chronological)
    /// order, advancing the read cursor and charging overwritten or torn
    /// tickets to [`FlightRecorder::dropped_events`]. At quiescence
    /// (no concurrent producers) `drained_total + dropped_events ==`
    /// [`FlightRecorder::total_events`] exactly.
    pub fn drain(&self) -> Vec<FlightEvent> {
        let inner = &*self.inner;
        inner
            .ring
            .drain()
            .into_iter()
            .map(|c| inner.decode(c))
            .collect()
    }
}

impl FlightInner {
    fn decode(&self, cells: [u64; CELLS]) -> FlightEvent {
        let [trace_id, span_id, parent_span_id, meta, ts_us, dur_us, arg] = cells;
        FlightEvent {
            trace_id,
            span_id,
            parent_span_id,
            name: self.names.resolve(meta >> 8),
            kind: match meta & 0xff {
                0 => FlightEventKind::Span,
                _ => FlightEventKind::Instant,
            },
            ts_us,
            dur_us,
            arg,
            lane: self.lane,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_drains_in_order() {
        let rec = FlightRecorder::new(16);
        let a = rec.intern("a");
        let b = rec.intern("b");
        assert_eq!(rec.intern("a"), a, "interning is idempotent");
        let ctx = TraceContext::root(1, 1);
        rec.record_span(ctx, a, 10, 5);
        rec.record_instant(ctx.child(1), b, 20, 7);
        let events = rec.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[0].kind, FlightEventKind::Span);
        assert_eq!(events[0].dur_us, 5);
        assert_eq!(events[1].name, "b");
        assert_eq!(events[1].kind, FlightEventKind::Instant);
        assert_eq!(events[1].arg, 7);
        assert_eq!(events[1].parent_span_id, ctx.span_id);
        assert!(rec.drain().is_empty(), "drain consumes");
        assert_eq!(rec.dropped_events(), 0);
    }

    #[test]
    fn overflow_is_counted_not_silent() {
        let rec = FlightRecorder::new(8);
        let n = rec.intern("x");
        let ctx = TraceContext::root(2, 2);
        for i in 0..20u64 {
            rec.record_span(ctx, n, i, 1);
        }
        let events = rec.drain();
        assert_eq!(events.len(), 8, "only the last `capacity` survive");
        assert_eq!(rec.dropped_events(), 12);
        assert_eq!(
            events.len() as u64 + rec.dropped_events(),
            rec.total_events()
        );
        // The survivors are the most recent tickets, in order.
        assert_eq!(events[0].ts_us, 12);
        assert_eq!(events[7].ts_us, 19);
    }

    #[test]
    fn lost_events_tracks_overwrites_before_drain() {
        let rec = FlightRecorder::new(8);
        let n = rec.intern("x");
        let ctx = TraceContext::root(5, 5);
        for i in 0..6u64 {
            rec.record_span(ctx, n, i, 1);
        }
        assert_eq!(rec.lost_events(), 0, "ring not yet lapped");
        for i in 6..20u64 {
            rec.record_span(ctx, n, i, 1);
        }
        assert_eq!(rec.lost_events(), 12, "live estimate sees overwrites");
        assert_eq!(rec.dropped_events(), 0, "not yet charged: no drain ran");
        let _ = rec.drain();
        assert_eq!(rec.dropped_events(), 12);
        assert_eq!(rec.lost_events(), 12, "estimate matches after drain");
    }

    #[test]
    fn unsampled_contexts_record_nothing() {
        let rec = FlightRecorder::new(8);
        let n = rec.intern("x");
        rec.record_span(TraceContext::root(3, 3).unsampled(), n, 0, 1);
        assert_eq!(rec.total_events(), 0);
        assert!(rec.drain().is_empty());
    }
}
