//! Chrome trace-event export: turns drained [`FlightEvent`]s into the
//! JSON Array Format understood by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) (open the file via "Open trace
//! file"). Spans become complete events (`"ph":"X"`) with microsecond
//! `ts`/`dur`; instants become `"ph":"i"`. Causal ids travel in `args`
//! as zero-padded hex strings, so a span's parent can be located by
//! searching for its `parent_span_id`.
//!
//! ## Thread rows
//!
//! Events recorded on a worker lane render on a **stable lane-keyed
//! tid** (`tid == lane id`), one real timeline row per worker, with a
//! `thread_name` metadata row carrying the lane's registered name — so
//! a 4-lane run reads as four named worker rows in Perfetto, blocked
//! windows visible per lane. Control-lane events (lane 0) keep the
//! historical per-causal-chain grouping: each distinct `trace_id` gets
//! a synthetic tid in order of first appearance, offset above
//! [`CONTROL_TID_BASE`] so it can never collide with a lane tid, and
//! named `trace-<n>` via its own `thread_name` row. (Before lanes
//! existed these synthetic tids were unnamed and started at 1, where
//! they would have aliased real worker rows.)
//!
//! Rendering is a pure function of the drained event list (plus the
//! optional lane-name table): under a [`ManualTime`](crate::ManualTime)
//! driven run the output is byte-for-byte reproducible, which is what
//! lets `tests/trace_causality.rs` assert trace stability across runs.

use std::fmt::Write as _;

use crate::export::escape_json;
use crate::flight::{FlightEvent, FlightEventKind};
use crate::lane::{LaneId, LaneSummary};

/// Control-lane causal chains get synthetic tids counted up from this
/// base — above the entire [`LaneId`] range (`u16`), so a synthetic tid
/// can never alias a worker lane's row.
pub const CONTROL_TID_BASE: u64 = 1 << 16;

/// Renders `events` (in drain order) as a Chrome trace-event JSON
/// document; worker-lane names default to `lane-<id>`. See
/// [`render_chrome_trace_with_lanes`] for named lanes.
pub fn render_chrome_trace(process_name: &str, events: &[FlightEvent]) -> String {
    render_chrome_trace_with_lanes(process_name, events, &[])
}

/// Renders `events` with worker-lane names taken from `lanes` (the
/// [`LaneSummary`] table of a merged drain). `process_name` labels the
/// single emitted process; every worker lane present in `events` or in
/// `lanes` gets a named `thread_name` metadata row and a stable
/// `tid == lane id`; control-lane events group per causal chain (see
/// the module docs).
pub fn render_chrome_trace_with_lanes(
    process_name: &str,
    events: &[FlightEvent],
    lanes: &[LaneSummary],
) -> String {
    // Worker lanes present: from the summary table and the events.
    let mut worker_lanes: Vec<(LaneId, &str)> = lanes
        .iter()
        .filter(|l| l.id.is_worker())
        .map(|l| (l.id, l.name.as_str()))
        .collect();
    for e in events {
        if e.lane.is_worker() && !worker_lanes.iter().any(|(id, _)| *id == e.lane) {
            worker_lanes.push((e.lane, ""));
        }
    }
    worker_lanes.sort_by_key(|(id, _)| *id);
    // Control chains: distinct trace ids in order of first appearance.
    let mut chains: Vec<u64> = Vec::new();
    for e in events {
        if !e.lane.is_worker() && !chains.contains(&e.trace_id) {
            chains.push(e.trace_id);
        }
    }

    let mut out = begin_trace(process_name, &worker_lanes, &chains);
    for e in events {
        let tid = event_tid(e, &chains);
        out.push(',');
        render_event(&mut out, e, tid);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Opens a trace document: the `process_name` row, a `thread_name` row
/// per worker lane (named `lane-<id>` when its name is empty), and a
/// `trace-<n>` row per control chain (see the module docs). Callers
/// append `,`-prefixed events and close with `],"displayTimeUnit":"ms"}`.
fn begin_trace(process_name: &str, worker_lanes: &[(LaneId, &str)], chains: &[u64]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape_json(process_name)
    );
    for (id, name) in worker_lanes {
        let name = if name.is_empty() {
            format!("lane-{}", id.0)
        } else {
            escape_json(name)
        };
        let _ = write!(
            out,
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"{name}\"}}}}",
            id.0
        );
    }
    for (idx, _) in chains.iter().enumerate() {
        out.push(',');
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"trace-{idx}\"}}}}",
            CONTROL_TID_BASE + idx as u64,
        );
    }
    out
}

/// The stable tid for one event: the lane id for worker lanes, or its
/// causal chain's position in `chains`, offset above
/// [`CONTROL_TID_BASE`].
fn event_tid(e: &FlightEvent, chains: &[u64]) -> u64 {
    if e.lane.is_worker() {
        u64::from(e.lane.0)
    } else {
        let pos = chains.iter().position(|t| *t == e.trace_id).unwrap_or(0);
        CONTROL_TID_BASE + pos as u64
    }
}

/// Writes one span/instant row at `tid`.
fn render_event(out: &mut String, e: &FlightEvent, tid: u64) {
    match e.kind {
        FlightEventKind::Span => {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"trace_id\":\"{:016x}\",\
                 \"span_id\":\"{:016x}\",\"parent_span_id\":\"{:016x}\"}}}}",
                escape_json(&e.name),
                e.ts_us,
                e.dur_us,
                e.trace_id,
                e.span_id,
                e.parent_span_id
            );
        }
        FlightEventKind::Instant => {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"trace_id\":\"{:016x}\",\
                 \"span_id\":\"{:016x}\",\"parent_span_id\":\"{:016x}\",\"arg\":{}}}}}",
                escape_json(&e.name),
                e.ts_us,
                e.trace_id,
                e.span_id,
                e.parent_span_id,
                e.arg
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightRecorder;
    use crate::lane::Lanes;
    use crate::time::{Clock, ManualTime};
    use crate::trace::TraceContext;

    fn sample_events() -> Vec<FlightEvent> {
        let rec = FlightRecorder::new(16);
        let frame = rec.intern("frame");
        let layout = rec.intern("layout \"q\"");
        let drop_ev = rec.intern("drop");
        let root = TraceContext::root(7, 0);
        rec.record_span(root, frame, 0, 1_000);
        rec.record_span(root.child_named("layout"), layout, 100, 400);
        rec.record_instant(root.child_named("drop"), drop_ev, 600, 3);
        rec.drain()
    }

    #[test]
    fn renders_spans_instants_and_metadata() {
        let json = render_chrome_trace("augur tourism", &sample_events());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("augur tourism"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":1000"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"arg\":3"));
        // Hostile span names are JSON-escaped.
        assert!(json.contains("layout \\\"q\\\""));
        // Same trace -> same named synthetic tid for every event,
        // offset above the lane range so it cannot alias a worker row.
        let tid = format!("\"tid\":{},", CONTROL_TID_BASE);
        assert_eq!(
            json.matches(tid.as_str()).count(),
            4,
            "thread_name row + all three events share one causal-chain tid"
        );
        assert!(json.contains("{\"name\":\"trace-0\"}"));
    }

    #[test]
    fn worker_lanes_render_on_named_lane_tids() {
        let lanes = Lanes::new(9, 64);
        let pump = lanes.register("pump");
        let worker = lanes.register("worker-0");
        let time = ManualTime::shared();
        let clock: Clock = time.clone();
        let n = pump.recorder().intern("poll");
        {
            let w = pump.work(&clock, pump.root(), n);
            time.advance_micros(5);
            w.end();
        }
        let m = worker.recorder().intern("transform");
        {
            let w = worker.work(&clock, worker.root(), m);
            time.advance_micros(7);
            w.end();
        }
        let merged = lanes.merge_drains();
        let json = render_chrome_trace_with_lanes("p", &merged.events, &merged.lanes);
        // One named thread row per worker lane, tid == lane id.
        assert!(json.contains(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{\"name\":\"pump\"}}"
        ));
        assert!(json.contains(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\
             \"args\":{\"name\":\"worker-0\"}}"
        ));
        // The events land on their lane's tid.
        assert!(json.contains("\"name\":\"poll\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":0,\"dur\":5,\"pid\":1,\"tid\":1,"));
        assert!(json.contains("\"tid\":2,"));
        // Unnamed lanes (events without a summary row) get a default name.
        let json2 = render_chrome_trace("p", &merged.events);
        assert!(json2.contains("{\"name\":\"lane-1\"}"));
        assert!(json2.contains("{\"name\":\"lane-2\"}"));
    }

    #[test]
    fn distinct_traces_get_distinct_named_tids() {
        // Regression for the tid-aliasing fix: two causal chains must
        // render on two different, *named* rows.
        let rec = FlightRecorder::new(16);
        let n = rec.intern("frame");
        rec.record_span(TraceContext::root(1, 0), n, 0, 10);
        rec.record_span(TraceContext::root(1, 1), n, 10, 10);
        let json = render_chrome_trace("p", &rec.drain());
        let t0 = format!("\"tid\":{},", CONTROL_TID_BASE);
        let t1 = format!("\"tid\":{},", CONTROL_TID_BASE + 1);
        assert_eq!(json.matches(t0.as_str()).count(), 2);
        assert_eq!(json.matches(t1.as_str()).count(), 2);
        assert!(json.contains("{\"name\":\"trace-0\"}"));
        assert!(json.contains("{\"name\":\"trace-1\"}"));
    }

    #[test]
    fn rendering_is_a_pure_function_of_events() {
        let events = sample_events();
        assert_eq!(
            render_chrome_trace("p", &events),
            render_chrome_trace("p", &events)
        );
    }

    #[test]
    fn parent_ids_are_preserved_in_args() {
        let events = sample_events();
        let json = render_chrome_trace("p", &events);
        let root_span = events[0].span_id;
        assert!(json.contains(&format!("\"parent_span_id\":\"{root_span:016x}\"")));
    }
}
