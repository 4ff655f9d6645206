//! Flight-recorder overflow stress: 4 producer threads hammer a small
//! ring far past capacity, then a single drain must account for every
//! ticket exactly — `drained + dropped_events == total_events` — with no
//! torn reads surfacing as garbage events. The seqlock slot protocol
//! this exercises (`src/ring.rs`) races most under optimized builds, so
//! CI also runs the telemetry, log and xray tests with `--release`; the
//! invariants hold at any opt level.

use std::collections::HashSet;
use std::sync::Arc;
use std::thread;

use augur_telemetry::{FlightEventKind, FlightRecorder, TraceContext};

const PRODUCERS: u64 = 4;
const EVENTS_PER_PRODUCER: u64 = 50_000;
const CAPACITY: usize = 1024;

#[test]
fn four_producer_overflow_accounts_for_every_ticket() {
    let rec = Arc::new(FlightRecorder::new(CAPACITY));
    // Intern up-front: the hot path must stay lock-free.
    let names: Vec<_> = (0..PRODUCERS)
        .map(|p| rec.intern(&format!("producer/{p}")))
        .collect();
    let valid_names: HashSet<String> = (0..PRODUCERS).map(|p| format!("producer/{p}")).collect();

    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let rec = Arc::clone(&rec);
        let name = names[p as usize];
        handles.push(thread::spawn(move || {
            let root = TraceContext::root(0xF11, p);
            for i in 0..EVENTS_PER_PRODUCER {
                // Encode (producer, i) into the timestamp so drained
                // events can be structurally validated.
                rec.record_span(root.child(i), name, p * EVENTS_PER_PRODUCER + i, 1);
            }
        }));
    }
    for h in handles {
        h.join().expect("producer thread panicked");
    }

    // Quiescent now: one drain must balance the books exactly.
    let events = rec.drain();
    let total = rec.total_events();
    let dropped = rec.dropped_events();

    assert_eq!(total, PRODUCERS * EVENTS_PER_PRODUCER);
    assert!(
        events.len() <= CAPACITY,
        "at most `capacity` events can survive a lapped ring, got {}",
        events.len()
    );
    assert_eq!(
        events.len() as u64 + dropped,
        total,
        "every ticket must be drained or counted dropped"
    );

    // No torn payloads: every survivor must be internally consistent.
    for e in &events {
        assert_eq!(e.kind, FlightEventKind::Span);
        assert!(
            valid_names.contains(&e.name),
            "unknown interned name {:?}",
            e.name
        );
        let producer = e.ts_us / EVENTS_PER_PRODUCER;
        let i = e.ts_us % EVENTS_PER_PRODUCER;
        let expected = TraceContext::root(0xF11, producer).child(i);
        assert_eq!(e.trace_id, expected.trace_id, "torn trace_id");
        assert_eq!(e.span_id, expected.span_id, "torn span_id");
        assert_eq!(e.parent_span_id, expected.parent_span_id, "torn parent");
        assert_eq!(e.name, format!("producer/{producer}"), "name/payload mix");
        assert_eq!(e.dur_us, 1);
    }

    // A second drain on a quiescent ring yields nothing and moves no
    // counters.
    assert!(rec.drain().is_empty());
    assert_eq!(rec.dropped_events(), dropped);
    assert_eq!(rec.total_events(), total);
}

#[test]
fn four_producers_without_overflow_drop_nothing() {
    // 4 × 128 = 512 events into a 1024-slot ring: nothing may drop and
    // every event must drain exactly once.
    let rec = Arc::new(FlightRecorder::new(1024));
    let name = rec.intern("fits");
    let mut handles = Vec::new();
    for p in 0..4u64 {
        let rec = Arc::clone(&rec);
        handles.push(thread::spawn(move || {
            let root = TraceContext::root(7, p);
            for i in 0..128u64 {
                rec.record_span(root.child(i), name, p * 128 + i, 1);
            }
        }));
    }
    for h in handles {
        h.join().expect("producer thread panicked");
    }
    let events = rec.drain();
    assert_eq!(events.len(), 512);
    assert_eq!(rec.dropped_events(), 0);
    assert_eq!(rec.total_events(), 512);
    // Exactly-once: all (trace_id, span_id) pairs are distinct.
    let unique: HashSet<(u64, u64)> = events.iter().map(|e| (e.trace_id, e.span_id)).collect();
    assert_eq!(unique.len(), 512);
}
