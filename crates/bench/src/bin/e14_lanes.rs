//! E14 — worker-lane observability: per-lane trace rings, measured
//! contention, and parallel efficiency over a deterministic 4-producer
//! workload, plus a real-clock continuous-pipeline lane demo.
//!
//! Part one drives four producer lanes on real OS threads, each with
//! its *own* `ManualTime`: every lane's span stream is a pure function
//! of the seed and the per-lane item costs, so the merged drain — and
//! therefore the xray JSON and Chrome trace artifacts — are
//! byte-identical across runs no matter how the OS schedules the
//! threads. Real commit-lock contention still happens (the four lanes
//! hammer one `ConsumerGroup` commit lock), but a blocked window whose
//! *measured* duration is zero records nothing and consumes no span-id
//! salt, so the artifacts stay deterministic while the instrumentation
//! path is genuinely exercised.
//!
//! `AUGUR_LANE_STALL=<us>` injects a modeled per-item stall on
//! producer-2 — the red-gate probe: `augur-doctor diff` from the
//! committed baseline must fail naming stage `produce` and lane
//! `producer-2`.
//!
//! Part two runs the continuous pipeline with lanes attached through
//! [`PipelineBuilder::obs`] on the wall clock: printed only (never
//! written to artifacts), it shows its one lane parked on an empty
//! topic and then busy with a slow sink.
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use std::sync::Arc;

use augur_bench::{f, header, row, sized, write_artifacts, Snapshot};
use augur_stream::{Broker, ConsumerGroup, PartitionId, PipelineBuilder, Record};
use augur_telemetry::{BlockedSite, Clock, Lanes, ManualTime, Obs};
use augur_xray::artifacts::Artifacts;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header(
        "E14",
        "worker lanes: measured busy/blocked time and parallel efficiency",
    );
    let items = sized(400, 100) as u64;
    let stall_us: u64 = std::env::var("AUGUR_LANE_STALL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let mut snap = Snapshot::new("e14_lanes");
    snap.param_num("items_per_lane", items as f64);
    snap.param_num("producer_lanes", 4.0);

    // Four producer lanes, registered in program order on the control
    // thread so lane ids (1..=4) are deterministic, then moved onto
    // real threads. Lane i models 50+10*i µs of produce work per item
    // on its own manual clock; producer-2 optionally stalls.
    let broker = Broker::new();
    broker.create_topic("lanes", 4)?;
    let group = Arc::new(ConsumerGroup::new("e14", broker.clone()));
    let lanes = Lanes::new(14, 1 << 14);
    let mut joins = Vec::new();
    for idx in 0u64..4 {
        let lane = lanes.register(&format!("producer-{idx}"));
        let broker = broker.clone();
        let group = Arc::clone(&group);
        joins.push(std::thread::spawn(move || {
            let time = ManualTime::shared();
            let clock: Clock = time.clone();
            let produce = lane.recorder().intern("produce");
            let cost_us = 50 + 10 * idx;
            for i in 0..items {
                let w = lane.work(&clock, lane.root(), produce);
                time.advance_micros(cost_us);
                broker
                    .append("lanes", Record::new(idx, i.to_le_bytes().to_vec(), i))
                    .expect("topic exists");
                // Real multi-producer contention on the shared commit
                // lock; under manual clocks a contended wait measures
                // 0 µs, records nothing, and burns no span-id salt —
                // the artifacts stay byte-identical across schedules.
                group.commit_contended(
                    "lanes",
                    PartitionId(idx as u32),
                    i + 1,
                    &lane,
                    &clock,
                    w.ctx(),
                );
                if stall_us > 0 && idx == 2 {
                    let b = lane.block(&clock, w.ctx(), BlockedSite::Stall);
                    time.advance_micros(stall_us);
                    b.end();
                }
                w.end();
            }
        }));
    }
    for j in joins {
        j.join().expect("producer lane panicked");
    }

    let merged = lanes.merge_drains();
    for lane in &merged.lanes {
        assert_eq!(
            lane.drained + lane.dropped,
            lane.total,
            "lane {} drain accounting must balance",
            lane.name
        );
    }
    let report = augur_xray::analyze_merged("e14_lanes", &merged);
    print!("{}", report.render_panel());
    row(&[
        "lane".into(),
        "busy µs".into(),
        "blocked µs".into(),
        "utilization".into(),
        "blocked share".into(),
    ]);
    for lane in &report.lanes {
        row(&[
            lane.name.clone(),
            lane.busy_us.to_string(),
            lane.blocked_us.to_string(),
            f(lane.utilization, 3),
            f(lane.blocked_share, 3),
        ]);
    }
    snap.gauge(
        "measured_parallel_efficiency",
        &[],
        report.measured.parallel_efficiency,
    );
    snap.gauge("measured_busy_us", &[], report.measured.busy_us as f64);
    snap.gauge(
        "measured_blocked_us",
        &[],
        report.measured.blocked_us as f64,
    );
    for lane in &report.lanes {
        let labels = [("lane", lane.name.as_str())];
        snap.gauge("lane_utilization", &labels, lane.utilization);
        snap.gauge("lane_blocked_share", &labels, lane.blocked_share);
    }
    assert_eq!(report.measured.lanes, 4);
    assert!(!report.truncated, "per-lane rings must not overflow");
    if stall_us == 0 {
        // Σ busy = items·(50+60+70+80); makespan = items·80 (the
        // slowest lane); efficiency = 260/320 = 0.8125 exactly, at
        // any --smoke scale.
        assert!(
            (report.measured.parallel_efficiency - 0.8125).abs() < 1e-9,
            "modeled lane layout pins efficiency at 0.8125, got {}",
            report.measured.parallel_efficiency
        );
        assert_eq!(report.measured.blocked_us, 0);
        assert_eq!(
            group.committed_offset("lanes", PartitionId(2)),
            items,
            "contended commits must still reach the final offset"
        );
    } else {
        assert!(
            report
                .lanes
                .iter()
                .any(|l| l.name == "producer-2" && l.blocked_us > 0),
            "injected stall must surface as producer-2 blocked time"
        );
    }
    println!(
        "\nmeasured efficiency {} over {} lanes (stall {} µs/item on producer-2)",
        f(report.measured.parallel_efficiency, 4),
        report.measured.lanes,
        stall_us,
    );

    // The bundle's Chrome trace has one tid lane per worker with
    // thread_name metadata, byte-identical across same-seed runs.
    write_artifacts(&Artifacts {
        name: "e14_lanes".into(),
        events: Some(merged.events),
        lanes: merged.lanes,
        xray: Some(report),
        ..Artifacts::default()
    })?;

    header(
        "E14b",
        "continuous pipeline on the wall clock (printed only, never gated)",
    );
    // Real-clock demo of the same substrate under the continuous
    // pipeline: its one thread registers a lane, parks on the empty
    // topic (blocked/channel_recv), then works through an append with a
    // deliberately slow sink. Wall-clock numbers are nondeterministic,
    // so nothing here is written to artifacts.
    let live = Broker::new();
    live.create_topic("live", 1)?;
    let live_lanes = Lanes::new(15, 1 << 14);
    let handle = PipelineBuilder::new(live.clone(), "live", |r: &Record| {
        r.payload
            .get(0..8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
    })
    .obs(&Obs {
        lanes: Some(live_lanes.clone()),
        ..Obs::default()
    })
    .build()
    .spawn_continuous(|_| std::thread::sleep(std::time::Duration::from_micros(100)))?;
    std::thread::sleep(std::time::Duration::from_millis(25));
    live.append_batch(
        "live",
        (0..250u64).map(|i| Record::new(i, i.to_le_bytes().to_vec(), i)),
    )?;
    std::thread::sleep(std::time::Duration::from_millis(50));
    handle.stop();
    let live_merged = live_lanes.merge_drains();
    let live_report = augur_xray::analyze_merged("e14_lanes_live", &live_merged);
    row(&["lane".into(), "busy µs".into(), "blocked µs".into()]);
    for lane in &live_report.lanes {
        row(&[
            lane.name.clone(),
            lane.busy_us.to_string(),
            lane.blocked_us.to_string(),
        ]);
    }
    println!(
        "live efficiency {} over {} lanes (wall clock; expect the lane parked until the append, then busy)",
        f(live_report.measured.parallel_efficiency, 3),
        live_report.measured.lanes,
    );

    snap.write()?;
    Ok(())
}
