//! Integration: stream substrate × analytics — windowed statistics over
//! broker-resident sensor data match direct computation, and recovery
//! preserves results across a simulated crash.
#![allow(clippy::unwrap_used, clippy::expect_used)] // integration tests: a panic here IS the test failure

use augur::analytics::IncrementalView;
use augur::core::{decode_vitals, encode_vitals};
use augur::sensor::{VitalsGenerator, VitalsParams};
use augur::stream::window::StatsAggregation;
use augur::stream::{
    Broker, CheckpointStore, PipelineBuilder, Record, TumblingWindows, WindowState,
};
use rand::SeedableRng;

fn vitals_broker(patients: u32, duration_s: f64, seed: u64) -> (Broker, usize) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (samples, _) = VitalsGenerator::new(VitalsParams {
        patients,
        duration_s,
        episodes_per_patient: 1.0,
        ..Default::default()
    })
    .generate(&mut rng);
    let broker = Broker::new();
    broker.create_topic("vitals", 4).unwrap();
    broker
        .append_batch(
            "vitals",
            samples
                .iter()
                .map(|s| Record::new(s.patient as u64, encode_vitals(s), s.time.as_micros())),
        )
        .unwrap();
    (broker, samples.len())
}

#[test]
fn windowed_stats_match_direct_aggregation() {
    let (broker, total) = vitals_broker(5, 300.0, 10);
    // Windowed per-patient stats over 60 s tumbling windows.
    let mut pipeline =
        PipelineBuilder::new(broker.clone(), "vitals", |r| decode_vitals(&r.payload))
            .watermark_bound_us(0)
            .build();
    let (results, metrics) = pipeline
        .run_windowed(
            TumblingWindows::new(60_000_000),
            StatsAggregation::new(|r: &augur::core::VitalsRecord| r.value),
            None,
            None,
            false,
        )
        .unwrap();
    assert_eq!(metrics.records_in as usize, total);
    // 5 patients × 5 windows of 60 s.
    assert_eq!(results.len(), 25);
    // Counts per window: 60 samples × 3 signs.
    for r in &results {
        assert_eq!(r.value.count, 180, "window {:?}", r.window);
        assert!(r.value.min <= r.value.max);
    }
    // Cross-check one window against a direct scan of the log.
    let target = &results[0];
    let mut direct = 0u64;
    let mut direct_sum = 0.0;
    for p in 0..broker.partition_count("vitals").unwrap() {
        for pr in broker
            .poll("vitals", augur::stream::PartitionId(p), 0, usize::MAX)
            .unwrap()
        {
            if let Some(v) = decode_vitals(&pr.record.payload) {
                if v.patient as u64 == target.key && target.window.contains(v.t_us) {
                    direct += 1;
                    direct_sum += v.value;
                }
            }
        }
    }
    assert_eq!(direct, target.value.count);
    assert!((direct_sum - target.value.sum).abs() < 1e-6);
}

#[test]
fn crash_recovery_preserves_every_window() {
    let (broker, _) = vitals_broker(4, 240.0, 11);
    let store: CheckpointStore<WindowState<augur::stream::window::NumericStats>> =
        CheckpointStore::new();
    let window = TumblingWindows::new(30_000_000);
    let agg = || StatsAggregation::new(|r: &augur::core::VitalsRecord| r.value);

    let mut reference =
        PipelineBuilder::new(broker.clone(), "vitals", |r| decode_vitals(&r.payload))
            .watermark_bound_us(0)
            .build();
    let (mut want, _) = reference
        .run_windowed(window, agg(), None, None, false)
        .unwrap();

    let mut crashing =
        PipelineBuilder::new(broker.clone(), "vitals", |r| decode_vitals(&r.payload))
            .watermark_bound_us(0)
            .build();
    let (partial, _) = crashing
        .run_windowed(window, agg(), Some((&store, 500)), Some(1_300), false)
        .unwrap();
    let mut resumed = PipelineBuilder::new(broker, "vitals", |r| decode_vitals(&r.payload))
        .watermark_bound_us(0)
        .build();
    let (rest, _) = resumed
        .run_windowed(window, agg(), Some((&store, 500)), None, true)
        .unwrap();

    let mut got = partial;
    got.extend(rest);
    let canon = |v: &mut Vec<augur::stream::WindowResult<augur::stream::window::NumericStats>>| {
        v.sort_by_key(|r| (r.window.start_us, r.key));
        v.dedup_by_key(|r| (r.window.start_us, r.key));
    };
    canon(&mut got);
    canon(&mut want);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.key, w.key);
        assert_eq!(g.window, w.window);
        assert_eq!(g.value.count, w.value.count);
        assert!((g.value.sum - w.value.sum).abs() < 1e-6);
    }
}

#[test]
fn incremental_view_over_stream_matches_pipeline_collect() {
    let (broker, total) = vitals_broker(3, 120.0, 12);
    let mut pipeline =
        PipelineBuilder::new(broker, "vitals", |r| decode_vitals(&r.payload)).build();
    let (records, _) = pipeline.collect().unwrap();
    assert_eq!(records.len(), total);
    let mut view = IncrementalView::new();
    for r in &records {
        view.update(r.patient as u64, r.value);
    }
    assert_eq!(view.group_count(), 3);
    let per_patient = total as u64 / 3;
    for p in 0..3u64 {
        assert_eq!(view.get(p).unwrap().count, per_patient);
    }
}
