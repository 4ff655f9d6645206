//! The bounded read path (`Pipeline::collect` / `Pipeline::run_windowed`)
//! against simple reference models.
//!
//! - An oracle proptest over random topics: 1–4 partitions, event times
//!   on a coarse grid (so partitions share times), out-of-order arrivals
//!   that turn late under arrival order, and undecodable records. The
//!   reference stable-sorts the decoded records by time and folds them
//!   with a naive window model (a list of open panes, sorted on firing).
//! - Crash and resume: a run killed at a random record after at least
//!   one checkpoint, resumed from its last checkpoint, emits exactly
//!   what the uninterrupted run emits, in both event-time and arrival
//!   order.
//! - Registry pins: after a run, every total, bucket, min and max the
//!   pipeline left in the registry equals what recording each record
//!   into a fresh `Counter` / `Histogram` leaves.

#![allow(clippy::unwrap_used)] // integration tests: a panic here IS the test failure

use std::sync::Arc;

use augur_stream::window::Aggregation;
use augur_stream::{
    BoundedOutOfOrderness, Broker, CheckpointStore, Obs, PipelineBuilder, Record, SlidingWindows,
    WatermarkGenerator, Window, WindowResult, WindowState,
};
use augur_telemetry::{Counter, Histogram, ManualTime, Registry};
use proptest::prelude::*;

const TOPIC: &str = "t";

/// One generated record: key, event time, and `Some(value)` when its
/// payload decodes.
type Input = (u64, u64, Option<u64>);

/// A decoded record as the reference sees it: key, event time, value.
type Decoded = (u64, u64, u64);

fn decode(r: &Record) -> Option<u64> {
    r.payload.as_ref().try_into().ok().map(u64::from_le_bytes)
}

/// Appends `inputs` one by one; an undecodable record gets a 3-byte
/// payload the decoder rejects.
fn topic(partitions: u32, inputs: &[Input]) -> Broker {
    let broker = Broker::new();
    broker.create_topic(TOPIC, partitions).unwrap();
    for &(key, t_us, value) in inputs {
        let payload = match value {
            Some(v) => v.to_le_bytes().to_vec(),
            None => vec![0u8; 3],
        };
        broker
            .append(TOPIC, Record::new(key, payload, t_us))
            .unwrap();
    }
    broker
}

/// The decoded records in partition-then-offset order, derived from the
/// generated input and the key routing alone.
fn arrival_order(broker: &Broker, partitions: u32, inputs: &[Input]) -> Vec<Decoded> {
    let mut out = Vec::new();
    for p in 0..partitions {
        for &(key, t_us, value) in inputs {
            if broker.partition_for(TOPIC, key).unwrap().0 == p {
                if let Some(v) = value {
                    out.push((key, t_us, v));
                }
            }
        }
    }
    out
}

/// The reference event-time order: a stable sort of arrival order by time.
fn event_order(arrival: &[Decoded]) -> Vec<Decoded> {
    let mut out = arrival.to_vec();
    out.sort_by_key(|&(_, t_us, _)| t_us);
    out
}

/// Keeps every value in fold order, so a result pins which records were
/// folded into a pane and in what order.
struct Values;

impl Aggregation<u64> for Values {
    type Acc = Vec<u64>;
    fn init(&self) -> Vec<u64> {
        Vec::new()
    }
    fn fold(&self, acc: &mut Vec<u64>, item: &u64) {
        acc.push(*item);
    }
    fn merge(&self, mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
        a.extend(b);
        a
    }
}

/// A result as `((end, key, start), values)`.
type Pane = ((u64, u64, u64), Vec<u64>);

fn panes(results: Vec<WindowResult<Vec<u64>>>) -> Vec<Pane> {
    results
        .into_iter()
        .map(|r| ((r.window.end_us, r.key, r.window.start_us), r.value))
        .collect()
}

/// Naive windowed fold over `records` in the given order: a watermark
/// trailing the largest time seen by `bound_us`, panes kept in a plain
/// list and fired sorted by (end, key, start) whenever the watermark
/// advances, records dropped as late when every pane they belong to has
/// fired. Returns the emitted panes and the late count.
fn reference_fold(records: &[Decoded], size: u64, slide: u64, bound_us: u64) -> (Vec<Pane>, u64) {
    let mut open: Vec<Pane> = Vec::new();
    let mut out = Vec::new();
    let (mut max_seen, mut fired_to, mut late) = (0u64, 0u64, 0u64);
    let fire = |open: &mut Vec<Pane>, out: &mut Vec<Pane>, upto: u64| {
        let (mut done, keep): (Vec<Pane>, Vec<Pane>) =
            open.drain(..).partition(|((end, _, _), _)| *end <= upto);
        *open = keep;
        done.sort_by_key(|(k, _)| *k);
        out.extend(done);
    };
    for &(key, t_us, v) in records {
        if t_us > max_seen {
            max_seen = t_us;
            let wm = max_seen.saturating_sub(bound_us);
            if wm > fired_to {
                fired_to = wm;
                fire(&mut open, &mut out, wm);
            }
        }
        let starts: Vec<u64> = (0..=t_us)
            .step_by(slide as usize)
            .filter(|s| s + size > t_us)
            .collect();
        if starts.iter().all(|s| s + size <= fired_to) {
            late += 1;
            continue;
        }
        for s in starts.into_iter().filter(|s| s + size > fired_to) {
            let k = (s + size, key, s);
            match open.iter_mut().find(|(pk, _)| *pk == k) {
                Some((_, values)) => values.push(v),
                None => open.push((k, vec![v])),
            }
        }
    }
    fire(&mut open, &mut out, u64::MAX);
    (out, late)
}

/// Random topics: event times on a 250 µs grid (duplicates across and
/// within partitions), arrivals up to ~2.5 ms out of order, and about one
/// record in six undecodable. Values are the generation index, so every
/// decoded record is distinguishable.
fn inputs() -> impl Strategy<Value = (u32, Vec<Input>)> {
    (
        1u32..=4,
        prop::collection::vec((0u64..6, 0u64..40, 0u64..10, 0u8..6), 0..120),
    )
        .prop_map(|(partitions, raw)| {
            let inputs = raw
                .into_iter()
                .enumerate()
                .map(|(i, (key, slot, back, kind))| {
                    let t_us = (slot * 250 + i as u64 * 40).saturating_sub(back * 250);
                    (key, t_us, (kind != 0).then_some(i as u64))
                })
                .collect();
            (partitions, inputs)
        })
}

proptest! {
    #[test]
    fn bounded_runs_match_the_reference(
        generated in inputs(),
        size_slots in 1u64..8,
        slide_shift in 0u32..3,
        bound_us in 0u64..2_000,
        arrival in any::<bool>(),
    ) {
        let (partitions, inputs) = generated;
        let broker = topic(partitions, &inputs);
        let arrival_recs = arrival_order(&broker, partitions, &inputs);
        let event_recs = event_order(&arrival_recs);
        let size = size_slots * 1_000;
        let slide = size >> slide_shift;
        let order = if arrival { &arrival_recs } else { &event_recs };

        let build = || {
            PipelineBuilder::new(broker.clone(), TOPIC, decode)
                .watermark_bound_us(bound_us)
                .arrival_order(arrival)
                .build()
        };
        let (got, metrics) = build()
            .run_windowed(SlidingWindows::new(size, slide), Values, None, None, false)
            .unwrap();
        let (want, late) = reference_fold(order, size, slide, bound_us);
        prop_assert_eq!(panes(got), want);
        prop_assert_eq!(metrics.late_dropped, late);
        prop_assert_eq!(metrics.records_in, arrival_recs.len() as u64);
        if !arrival {
            prop_assert_eq!(late, 0, "event-time order drops nothing");
        }

        // `collect` yields the values in the reference order, through a
        // filter and a map.
        let (items, metrics) = PipelineBuilder::new(broker.clone(), TOPIC, decode)
            .arrival_order(arrival)
            .filter(|v| v % 7 != 3)
            .map(|v| v * 2)
            .build()
            .collect()
            .unwrap();
        let want: Vec<u64> = order
            .iter()
            .map(|&(_, _, v)| v)
            .filter(|v| v % 7 != 3)
            .map(|v| v * 2)
            .collect();
        prop_assert_eq!(items, want);
        let payload_bytes: u64 = inputs.iter().map(|i| if i.2.is_some() { 8 } else { 3 }).sum();
        prop_assert_eq!(metrics.bytes_in, payload_bytes);
    }

    #[test]
    fn crash_and_resume_is_exactly_once(
        generated in inputs(),
        bound_us in 0u64..2_000,
        interval_pick in any::<usize>(),
        crash_pick in any::<usize>(),
        arrival in any::<bool>(),
    ) {
        let (partitions, inputs) = generated;
        let broker = topic(partitions, &inputs);
        let n = arrival_order(&broker, partitions, &inputs).len();
        if n < 2 {
            continue;
        }
        // A checkpoint interval in 1..n, and a crash in interval..n, so
        // the run crashes after at least one checkpoint.
        let interval = 1 + interval_pick % (n - 1);
        let crash_at = interval + crash_pick % (n - interval);
        let assigner = SlidingWindows::new(2_000, 1_000);
        let build = || {
            PipelineBuilder::new(broker.clone(), TOPIC, decode)
                .watermark_bound_us(bound_us)
                .arrival_order(arrival)
                .build()
        };
        let (whole, _) = build().run_windowed(assigner, Values, None, None, false).unwrap();

        let store: CheckpointStore<WindowState<Vec<u64>>> = CheckpointStore::new(4);
        let (partial, m) = build()
            .run_windowed(assigner, Values, Some((&store, interval)), Some(crash_at), false)
            .unwrap();
        prop_assert_eq!(m.records_in, crash_at as u64);
        // Output the crashed run emitted before its last checkpoint is
        // committed; what it emitted after is replayed on resume.
        let checkpoint = crash_at / interval * interval;
        let (committed, _) = build()
            .run_windowed(assigner, Values, None, Some(checkpoint), false)
            .unwrap();
        prop_assert!(partial.starts_with(&committed));
        let (rest, m) = build()
            .run_windowed(assigner, Values, Some((&store, interval)), None, true)
            .unwrap();
        prop_assert_eq!(m.records_in, (n - checkpoint) as u64);
        let mut resumed = committed;
        resumed.extend(rest);
        prop_assert_eq!(panes(resumed), panes(whole));
    }
}

/// A read holds its decoded records in fixed-size chunks, which the
/// proptest's small topics never fill past the first. Over a few thousand
/// records, scattered in time with many duplicates, both runs still
/// match the reference in both orders.
#[test]
fn reads_spanning_many_storage_chunks_match_the_reference() {
    let inputs: Vec<Input> = (0..5_000u64)
        .map(|i| {
            let slot = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 53;
            (i % 7, slot * 250, (i % 6 != 5).then_some(i))
        })
        .collect();
    let broker = topic(3, &inputs);
    let arrival_recs = arrival_order(&broker, 3, &inputs);
    let event_recs = event_order(&arrival_recs);
    for (arrival, order) in [(false, &event_recs), (true, &arrival_recs)] {
        let (got, _) = PipelineBuilder::new(broker.clone(), TOPIC, decode)
            .watermark_bound_us(1_000)
            .arrival_order(arrival)
            .build()
            .run_windowed(SlidingWindows::new(8_000, 4_000), Values, None, None, false)
            .unwrap();
        assert_eq!(panes(got), reference_fold(order, 8_000, 4_000, 1_000).0);
        let (items, _) = PipelineBuilder::new(broker.clone(), TOPIC, decode)
            .arrival_order(arrival)
            .build()
            .collect()
            .unwrap();
        let want: Vec<u64> = order.iter().map(|&(_, _, v)| v).collect();
        assert_eq!(items, want);
    }
}

/// A fixed topic on three partitions whose arrivals run backwards far
/// enough to be dropped as late under arrival order, plus undecodable
/// records.
fn late_topic() -> (Broker, Vec<Input>) {
    let inputs: Vec<Input> = (0..90u64)
        .map(|i| {
            let t_us = if i % 9 == 4 { i * 100 / 3 } else { i * 100 };
            (i % 5, t_us, (i % 11 != 6).then_some(i))
        })
        .collect();
    (topic(3, &inputs), inputs)
}

fn histogram(registry: &Registry, name: &str) -> Histogram {
    registry.histogram_labeled(name, &[("topic", TOPIC)])
}

fn counter(registry: &Registry, name: &str) -> u64 {
    registry.counter_labeled(name, &[("topic", TOPIC)]).get()
}

#[test]
fn windowed_registry_matches_per_record_recording() {
    let (broker, inputs) = late_topic();
    let obs = Obs::default();
    let mut pipeline = PipelineBuilder::new(broker.clone(), TOPIC, decode)
        .arrival_order(true)
        .watermark_bound_us(150)
        .filter(|v| v % 4 != 1)
        .obs(&obs)
        .build();
    let store: CheckpointStore<WindowState<Vec<u64>>> = CheckpointStore::new(2);
    let assigner = SlidingWindows::new(400, 200);
    let (_, crashed) = pipeline
        .run_windowed(assigner, Values, Some((&store, 10)), Some(37), false)
        .unwrap();
    let (_, full) = pipeline
        .run_windowed(assigner, Values, None, None, false)
        .unwrap();
    assert!(full.late_dropped > 0, "the topic must exercise late drops");

    // The old per-record path: `inc()` each record processed, and record
    // each surviving record's lateness behind the running watermark.
    let records_in = Counter::new();
    let lateness = Histogram::new();
    let decoded = arrival_order(&broker, 3, &inputs);
    for limit in [37, decoded.len()] {
        let mut wm = BoundedOutOfOrderness::new(150);
        for &(_, t_us, v) in &decoded[..limit] {
            records_in.inc();
            if v % 4 == 1 {
                continue;
            }
            wm.observe(t_us);
            lateness.record(wm.current().0.saturating_sub(t_us));
        }
    }
    assert_eq!(crashed.records_in + full.records_in, records_in.get());
    assert_eq!(
        counter(&obs.registry, "pipeline_records_in_total"),
        records_in.get()
    );
    let got = histogram(&obs.registry, "watermark_lateness_us");
    assert!(lateness.snapshot().max > 0, "some records must run late");
    assert_eq!(got.snapshot(), lateness.snapshot());
    assert_eq!(got.nonzero_buckets(), lateness.nonzero_buckets());
    let family = obs
        .registry
        .snapshot()
        .histograms
        .into_iter()
        .find(|h| h.name == "watermark_lateness_us")
        .unwrap();
    assert_eq!(family.stats, lateness.snapshot());
}

#[test]
fn collect_registry_matches_per_record_recording() {
    let (broker, inputs) = late_topic();
    let obs = Obs::default();
    let clock = ManualTime::shared();
    let transform_clock = Arc::clone(&clock);
    let mut pipeline = PipelineBuilder::new(broker.clone(), TOPIC, decode)
        .filter(|v| v % 4 != 1)
        // Each surviving record takes a value-dependent modeled time.
        .map(move |v| {
            transform_clock.advance_micros(v % 13);
            v
        })
        .clock(clock)
        .obs(&obs)
        .build();
    let (_, first) = pipeline.collect().unwrap();
    let (items, second) = pipeline.collect().unwrap();

    let latency = Histogram::new();
    let run = Histogram::new();
    for _ in 0..2 {
        for &(_, _, v) in &event_order(&arrival_order(&broker, 3, &inputs)) {
            if v % 4 != 1 {
                latency.record(v % 13 * 1_000);
            }
        }
    }
    for &v in &items {
        run.record(v % 13 * 1_000);
    }
    let got = histogram(&obs.registry, "pipeline_record_latency_ns");
    assert_eq!(got.snapshot(), latency.snapshot());
    assert_eq!(got.nonzero_buckets(), latency.nonzero_buckets());
    assert_eq!(second.p50_latency_us, run.quantile(0.50) as f64 / 1_000.0);
    assert_eq!(second.p99_latency_us, run.quantile(0.99) as f64 / 1_000.0);
    assert_eq!(first, second);
    let decoded = arrival_order(&broker, 3, &inputs).len() as u64;
    assert_eq!(
        counter(&obs.registry, "pipeline_records_in_total"),
        2 * decoded
    );
    assert_eq!(
        counter(&obs.registry, "pipeline_records_out_total"),
        2 * items.len() as u64
    );
}

#[test]
fn windows_cover_their_event() {
    // Guards the reference model's pane arithmetic against the assigner.
    use augur_stream::WindowAssigner;
    let assigner = SlidingWindows::new(1_000, 250);
    let mut out = Vec::new();
    for t in [0u64, 999, 1_000, 1_250, 7_777] {
        assigner.assign(t, &mut out);
        let starts: Vec<u64> = (0..=t).step_by(250).filter(|s| s + 1_000 > t).collect();
        let want: Vec<Window> = starts.iter().map(|&s| Window::new(s, s + 1_000)).collect();
        assert_eq!(out, want, "t={t}");
    }
}
