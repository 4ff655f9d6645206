//! Failure injection and degraded-mode behaviour across crates: the
//! platform must stay sane when sensors die, channels saturate, and
//! inputs go hostile.

use augur::analytics::ThresholdDetector;
use augur::geo::Enu;
use augur::sensor::{
    GpsParams, GpsSensor, ImuParams, ImuSensor, RandomWaypoint, Trajectory, TrajectoryParams,
};
use augur::stream::{Broker, PipelineBuilder, Record};
use augur::track::{registration::run_tracker, KalmanParams, KalmanTracker, Tracker};
use rand::SeedableRng;

#[test]
fn tracker_survives_total_gps_outage() {
    // GPS dies entirely: the Kalman tracker must keep producing finite
    // poses from IMU alone (they will drift, but never NaN or panic).
    let params = TrajectoryParams::default();
    let truth =
        RandomWaypoint::new(params, rand::rngs::StdRng::seed_from_u64(1)).sample(30.0, 30.0);
    let gps_params = GpsParams {
        dropout_probability: 1.0, // nothing ever arrives
        ..Default::default()
    };
    let fixes = GpsSensor::new(gps_params, rand::rngs::StdRng::seed_from_u64(2)).track(&truth);
    assert!(fixes.is_empty());
    let readings =
        ImuSensor::new(ImuParams::default(), rand::rngs::StdRng::seed_from_u64(3)).track(&truth);
    let mut tracker = KalmanTracker::new(KalmanParams::default());
    let poses = run_tracker(&mut tracker, &truth, &fixes, &readings);
    assert_eq!(poses.len(), truth.len());
    for p in &poses {
        assert!(p.position.east.is_finite() && p.position.north.is_finite());
        assert!(p.heading_deg.is_finite());
    }
    assert!(
        !tracker.is_initialized(),
        "no fix ever initialised position"
    );
}

#[test]
fn tracker_recovers_after_long_outage() {
    // GPS returns after a 20 s gap: the filter must re-converge rather
    // than diverge on stale covariance.
    let mut tracker = KalmanTracker::new(KalmanParams::default());
    let fix = |t_ms: u64, e: f64| augur::sensor::GpsFix {
        time: augur::sensor::Timestamp::from_millis(t_ms),
        position: Enu::new(e, 0.0, 0.0),
        speed_mps: 0.0,
        accuracy_m: 4.0,
    };
    for i in 0..10 {
        tracker.update_gps(&fix(i * 1000, i as f64));
    }
    // 20 s silence, then fixes at a new location.
    for i in 0..20 {
        tracker.update_gps(&fix(30_000 + i * 1000, 100.0));
    }
    let pose = tracker.pose(augur::sensor::Timestamp::from_secs(50));
    assert!(
        (pose.position.east - 100.0).abs() < 5.0,
        "re-converged east {}",
        pose.position.east
    );
}

#[test]
fn pipeline_survives_hostile_payloads() {
    let broker = Broker::new();
    broker.create_topic("t", 2).unwrap();
    // A mix of garbage: empty payloads, giant payloads, truncated ints.
    broker
        .append_batch(
            "t",
            (0..1_000u64).map(|i| {
                let payload: Vec<u8> = match i % 5 {
                    0 => vec![],
                    1 => vec![0u8; 10_000],
                    2 => vec![1, 2, 3],
                    3 => i.to_le_bytes().to_vec(),
                    _ => i
                        .to_le_bytes()
                        .iter()
                        .chain([0xFFu8].iter())
                        .copied()
                        .collect(),
                };
                Record::new(i, payload, i)
            }),
        )
        .unwrap();
    let mut pipeline = PipelineBuilder::new(broker, "t", |r| {
        // Strict 8-byte decoder: everything else must be skipped.
        let bytes: [u8; 8] = r.payload.as_ref().try_into().ok()?;
        Some(u64::from_le_bytes(bytes))
    })
    .build();
    let (items, metrics) = pipeline.collect().unwrap();
    assert_eq!(items.len(), 200, "exactly the i%5==3 records decode");
    assert_eq!(metrics.records_in, 200);
}

#[test]
fn continuous_pipeline_stops_cleanly_under_load() {
    let broker = Broker::new();
    broker.create_topic("t", 4).unwrap();
    let b2 = broker.clone();
    // Producer thread hammers the topic while we start and stop the
    // consumer; nothing may deadlock or panic.
    let producer = std::thread::spawn(move || {
        for i in 0..50_000u64 {
            b2.append("t", Record::new(i, i.to_le_bytes().to_vec(), i))
                .unwrap();
        }
    });
    let p = PipelineBuilder::new(broker, "t", |r| {
        r.payload.as_ref().try_into().ok().map(u64::from_le_bytes)
    })
    .build();
    let handle = p
        .spawn_continuous(|v| {
            std::hint::black_box(v);
        })
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let seen_before_stop = handle.processed();
    handle.stop(); // must join promptly even with the producer running
    producer.join().unwrap();
    assert!(seen_before_stop > 0, "consumer made progress before stop");
}

#[test]
fn detector_handles_nan_and_extreme_values() {
    let mut d = ThresholdDetector::new(50.0, 100.0, 2, 3).unwrap();
    // NaN compares false on both bounds: treated as in-range; must not
    // poison the detector state.
    assert!(d.observe(0, f64::NAN).is_none());
    assert!(d.observe(1, f64::INFINITY).is_none());
    let alert = d.observe(2, f64::INFINITY);
    assert!(alert.is_some(), "two consecutive +inf breach high bound");
    assert!(alert.unwrap().severity.is_infinite());
    // Recovery still works afterwards.
    for t in 3..6 {
        d.observe(t, 75.0);
    }
    assert!(!d.is_active());
}

#[test]
fn consumer_group_rebalance_mid_consumption() {
    use augur::stream::ConsumerGroup;
    let broker = Broker::new();
    broker.create_topic("t", 8).unwrap();
    broker
        .append_batch("t", (0..800u64).map(|i| Record::new(i, vec![0u8], i)))
        .unwrap();
    let group = ConsumerGroup::new("g", broker);
    group.join("m0");
    // m0 consumes everything it owns and commits.
    let mut consumed = 0usize;
    for pid in group.assignment("t", "m0").unwrap() {
        let recs = group.poll("t", "m0", pid, 10_000).unwrap();
        consumed += recs.len();
        if let Some(last) = recs.last() {
            group.commit("t", pid, last.offset.0 + 1);
        }
    }
    assert_eq!(consumed, 800);
    // A second member joins: m0 keeps only half the partitions, and its
    // old commits remain valid for the partitions it retains.
    group.join("m1");
    let m0_parts = group.assignment("t", "m0").unwrap();
    let m1_parts = group.assignment("t", "m1").unwrap();
    assert_eq!(m0_parts.len() + m1_parts.len(), 8);
    for pid in &m0_parts {
        assert!(group.poll("t", "m0", *pid, 100).unwrap().is_empty());
    }
    // Offsets are *group*-level: m1 resumes from the group's commits on
    // its newly assigned partitions, so nothing is re-processed — the
    // exactly-once-per-group property rebalances must preserve.
    let m1_total: usize = m1_parts
        .iter()
        .map(|pid| group.poll("t", "m1", *pid, 10_000).unwrap().len())
        .sum();
    assert_eq!(m1_total, 0, "group commits survive the rebalance");
    assert_eq!(group.lag("t").unwrap(), 0);
}
