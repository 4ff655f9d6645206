//! The event log's three contract properties:
//!
//! 1. JSONL output is **byte-identical** across same-seed runs at 1 and
//!    4 producer threads (canonical order absorbs ticket interleaving).
//! 2. `drained + dropped == total_records` holds exactly under ring
//!    overflow.
//! 3. Every `span_id` a scenario-shaped workload logs exists in the
//!    drained `FlightRecorder` trace it ran under (logs join traces).
#![allow(clippy::expect_used)] // test harness: a panicked producer is fatal by design

use std::collections::HashSet;
use std::sync::Arc;
use std::thread;

use augur_telemetry::log::{render_jsonl, Arg, EventLog, Level, LogSite, Value};
use augur_telemetry::{FlightRecorder, TraceContext};
use proptest::prelude::*;

/// The deterministic record set a "run" at `seed` emits: one WARN per
/// work item, fields derived from the item index. Ring is large enough
/// and sites unlimited, so every record is admitted regardless of how
/// items are partitioned across producer threads.
fn run_partitioned(seed: u64, items: u64, threads: u64) -> String {
    let log = Arc::new(EventLog::with_min_level(
        (items as usize * 2).next_power_of_two(),
        Level::Debug,
    ));
    // Pre-intern so producer threads stay lock-free.
    let msg = log.intern("stage/decision");
    let key_item = log.intern("item");
    let key_cost = log.intern("cost");
    let mut handles = Vec::new();
    for t in 0..threads {
        let log = Arc::clone(&log);
        handles.push(thread::spawn(move || {
            let site = LogSite::unlimited();
            let mut i = t;
            while i < items {
                let ctx = TraceContext::root(seed, i).child_named("stage");
                log.record(
                    &site,
                    Level::Warn,
                    ctx,
                    msg,
                    1_000 + i * 33,
                    &[
                        (key_item, Value::U64(i)),
                        (key_cost, Value::F64(i as f64 * 0.5)),
                    ],
                );
                i += threads;
            }
        }));
    }
    for h in handles {
        h.join().expect("producer thread panicked");
    }
    assert_eq!(log.total_records(), items);
    assert_eq!(log.dropped_records(), 0, "sized to avoid overflow");
    render_jsonl(&log.drain())
}

proptest! {
    #[test]
    fn jsonl_is_byte_identical_across_1_and_4_producer_threads(
        seed in 0u64..1_000,
        items in 1u64..400,
    ) {
        let single = run_partitioned(seed, items, 1);
        let quad = run_partitioned(seed, items, 4);
        prop_assert_eq!(&single, &quad, "thread count leaked into the export");
        prop_assert_eq!(single.lines().count() as u64, items);
        // Same-seed reruns are byte-identical too.
        prop_assert_eq!(&single, &run_partitioned(seed, items, 1));
    }

    #[test]
    fn drained_plus_dropped_equals_total_under_overflow(
        capacity in 8usize..64,
        emitted in 1u64..2_000,
        threads in 1u64..5,
    ) {
        let log = Arc::new(EventLog::new(capacity));
        let msg = log.intern("overflow/probe");
        let mut handles = Vec::new();
        for t in 0..threads {
            let log = Arc::clone(&log);
            handles.push(thread::spawn(move || {
                let site = LogSite::unlimited();
                let mut i = t;
                while i < emitted {
                    let ctx = TraceContext::root(0xF10, i);
                    log.record(&site, Level::Info, ctx, msg, i, &[]);
                    i += threads;
                }
            }));
        }
        for h in handles {
            h.join().expect("producer thread panicked");
        }
        let drained = log.drain();
        prop_assert_eq!(log.total_records(), emitted);
        prop_assert!(drained.len() <= log.capacity());
        prop_assert_eq!(
            drained.len() as u64 + log.dropped_records(),
            log.total_records(),
            "every admitted record must be drained or counted dropped"
        );
        // A second drain moves nothing at quiescence.
        let dropped = log.dropped_records();
        prop_assert!(log.drain().is_empty());
        prop_assert_eq!(log.dropped_records(), dropped);
    }

    #[test]
    fn every_logged_span_id_exists_in_the_drained_trace(
        seed in 0u64..1_000,
        frames in 1u64..60,
    ) {
        // A scenario-shaped workload: per frame, record a span on the
        // flight ring and log a decision under the same context (plus
        // one under a named child that is also recorded as a span).
        let rec = FlightRecorder::new((frames as usize * 4).next_power_of_two());
        let log = EventLog::new((frames as usize * 4).next_power_of_two());
        let site = LogSite::unlimited();
        let frame_name = rec.intern("frame");
        let stage_name = rec.intern("stage");
        for i in 0..frames {
            let root = TraceContext::root(seed, i);
            rec.record_span(root, frame_name, i * 100, 90);
            log.event(&site, Level::Info, root, "frame/summary", i * 100 + 90, &[]);
            let stage = root.child_named("stage");
            rec.record_span(stage, stage_name, i * 100 + 10, 40);
            log.event(
                &site,
                Level::Warn,
                stage,
                "stage/shed",
                i * 100 + 50,
                &[("frame", Arg::U64(i))],
            );
        }
        let trace_spans: HashSet<u64> = rec.drain().iter().map(|e| e.span_id).collect();
        let records = log.drain();
        prop_assert_eq!(records.len() as u64, frames * 2);
        for r in &records {
            prop_assert!(
                trace_spans.contains(&r.span_id),
                "log span_id {:016x} missing from the drained trace",
                r.span_id
            );
        }
    }
}
