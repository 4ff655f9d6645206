//! Merged Chrome trace-event export: spans from a drained
//! [`FlightRecorder`](augur_telemetry::FlightRecorder) plus log records
//! as instant events, in one Perfetto-loadable document — so a WARN
//! about a late drop renders *inside* the frame span that caused it.
//!
//! Spans and thread rows are written by telemetry's own Chrome helpers,
//! so without logs the output equals
//! [`render_chrome_trace`](augur_telemetry::render_chrome_trace); log
//! records add `"cat":"log"` instants whose `args` carry the level and
//! the typed fields. Worker-lane spans render on `tid == lane id` with
//! a named `thread_name` row; control-lane events and logs are
//! assigned per-`trace_id` synthetic tids (offset above
//! [`CONTROL_TID_BASE`](augur_telemetry::chrome::CONTROL_TID_BASE), in
//! order of first appearance over the merged stream), so a causal
//! chain's spans and logs share a row. A log whose trace ran on a
//! worker lane joins that lane's row.

use std::fmt::Write as _;

use augur_telemetry::chrome::{begin_trace, chain_tid, event_tid, render_event};
use augur_telemetry::{escape_json, json_f64, FlightEvent, LaneId};

use crate::export::canonical_order;
use crate::ring::{FieldValue, LogRecord};

/// Renders spans and logs (each in drain order) as one Chrome
/// trace-event JSON document. Logs are canonically ordered first, so the
/// output is a pure function of the two record sets.
pub fn render_chrome_trace_with_logs(
    process_name: &str,
    spans: &[FlightEvent],
    logs: &[LogRecord],
) -> String {
    let mut sorted_logs: Vec<LogRecord> = logs.to_vec();
    canonical_order(&mut sorted_logs);
    // Worker lanes present, and the lane each lane-borne trace ran on.
    let mut worker_lanes: Vec<(LaneId, &str)> = Vec::new();
    let mut lane_of_trace: Vec<(u64, LaneId)> = Vec::new();
    for e in spans {
        if e.lane.is_worker() {
            if !worker_lanes.iter().any(|(id, _)| *id == e.lane) {
                worker_lanes.push((e.lane, ""));
            }
            if !lane_of_trace.iter().any(|(t, _)| *t == e.trace_id) {
                lane_of_trace.push((e.trace_id, e.lane));
            }
        }
    }
    worker_lanes.sort_by_key(|(id, _)| *id);
    let lane_of = |trace_id: u64| -> Option<LaneId> {
        lane_of_trace
            .iter()
            .find(|(t, _)| *t == trace_id)
            .map(|(_, l)| *l)
    };
    // Control chains in first-appearance order over spans then logs.
    let mut chains: Vec<u64> = Vec::new();
    for e in spans {
        if !e.lane.is_worker() && !chains.contains(&e.trace_id) {
            chains.push(e.trace_id);
        }
    }
    for r in &sorted_logs {
        if lane_of(r.trace_id).is_none() && !chains.contains(&r.trace_id) {
            chains.push(r.trace_id);
        }
    }
    // Control-lane spans and logs of a trace that ran on a worker lane
    // join that lane's row.
    let control_tid = |trace_id: u64| -> u64 {
        lane_of(trace_id).map_or_else(|| chain_tid(trace_id, &chains), |l| u64::from(l.0))
    };
    let mut out = begin_trace(process_name, &worker_lanes, &chains);
    for e in spans {
        let tid = if e.lane.is_worker() {
            event_tid(e, &chains)
        } else {
            control_tid(e.trace_id)
        };
        out.push(',');
        render_event(&mut out, e, tid);
    }
    for r in &sorted_logs {
        let tid = control_tid(r.trace_id);
        out.push(',');
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"log\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
             \"pid\":1,\"tid\":{tid},\"args\":{{\"trace_id\":\"{:016x}\",\
             \"span_id\":\"{:016x}\",\"level\":\"{}\"",
            escape_json(&r.msg),
            r.ts_us,
            r.trace_id,
            r.span_id,
            r.level
        );
        for (key, value) in &r.fields {
            let _ = write!(out, ",\"{}\":", escape_json(key));
            match value {
                FieldValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::I64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::F64(v) => out.push_str(&json_f64(*v)),
                FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                FieldValue::Str(s) => {
                    let _ = write!(out, "\"{}\"", escape_json(s));
                }
            }
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::Level;
    use crate::ring::EventLog;
    use crate::site::LogSite;
    use augur_telemetry::chrome::CONTROL_TID_BASE;
    use augur_telemetry::{render_chrome_trace, FlightRecorder, Lanes, TraceContext};

    fn sample() -> (Vec<FlightEvent>, Vec<LogRecord>) {
        let rec = FlightRecorder::new(16);
        let frame = rec.intern("frame");
        let root = TraceContext::root(7, 0);
        rec.record_span(root, frame, 0, 1_000);
        rec.record_span(root.child_named("layout"), rec.intern("layout"), 100, 400);

        let log = EventLog::new(16);
        let site = LogSite::unlimited();
        log.event(
            &site,
            Level::Warn,
            root.child_named("layout"),
            "layout/declutter_drop",
            450,
            &[("dropped", crate::ring::Arg::U64(3))],
        );
        (rec.drain(), log.drain())
    }

    #[test]
    fn logs_render_as_instants_on_the_span_chain_row() {
        let (spans, logs) = sample();
        let json = render_chrome_trace_with_logs("augur", &spans, &logs);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"cat\":\"log\""));
        assert!(json.contains("\"level\":\"warn\""));
        assert!(json.contains("\"dropped\":3"));
        // The log instant shares the causal chain's named tid with its
        // spans (thread_name row + two spans + one log).
        let tid = format!("\"tid\":{CONTROL_TID_BASE},");
        assert_eq!(json.matches(tid.as_str()).count(), 4);
        assert!(json.contains("{\"name\":\"trace-0\"}"));
        // The log's span_id matches the layout span it was emitted under.
        let layout_span = spans[1].span_id;
        assert!(logs.iter().all(|r| r.span_id == layout_span));
    }

    #[test]
    fn rendering_is_a_pure_function_of_inputs() {
        let (spans, logs) = sample();
        assert_eq!(
            render_chrome_trace_with_logs("p", &spans, &logs),
            render_chrome_trace_with_logs("p", &spans, &logs)
        );
    }

    #[test]
    fn without_logs_the_span_rows_match_the_telemetry_renderer() {
        let control = FlightRecorder::new(16);
        let frame = control.intern("frame \"q\"");
        let root = TraceContext::root(7, 0);
        control.record_span(root, frame, 0, 1_000);
        control.record_instant(root.child_named("drop"), control.intern("drop"), 600, 3);
        control.record_span(TraceContext::root(7, 1), frame, 1_000, 500);
        let lanes = Lanes::new(9, 16);
        for (i, lane) in [lanes.register("pump"), lanes.register("worker-0")]
            .iter()
            .enumerate()
        {
            let poll = lane.recorder().intern("poll");
            lane.recorder()
                .record_span(lane.root(), poll, 10 * i as u64, 5);
        }
        let mut spans = control.drain();
        spans.extend(lanes.merge_drains().events);
        assert_eq!(
            render_chrome_trace_with_logs("p", &spans, &[]),
            render_chrome_trace("p", &spans)
        );
    }
}
