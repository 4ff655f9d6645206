//! E12 — §1's 3Vs on the stream substrate: throughput vs partition
//! count, variety mix handling, and checkpoint/recovery cost.
//!
//! The printed tables carry the measured timings; the snapshot carries
//! only what is deterministic under the seed (record counts, the
//! exactly-once verdict), so the committed baseline pins it byte for
//! byte.
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use std::sync::Arc;

use augur_bench::timed;
use augur_bench::{f, header, row, sized, write_artifacts, BenchLog, Snapshot};
use augur_stream::window::CountAggregation;
use augur_stream::{
    Broker, CheckpointStore, ModeledCosts, PipelineBuilder, Record, TumblingWindows, WindowState,
};
use augur_telemetry::sample::Sampler;
use augur_telemetry::{FlightRecorder, Labels, ManualTime, Obs, Registry, TraceContext};
use augur_xray::artifacts::Artifacts;
use rand::{Rng, SeedableRng};

fn fill(broker: &Broker, topic: &str, n: u64, schema_families: u32, seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    broker
        .append_batch(
            topic,
            (0..n).map(|i| {
                // Variety: three payload schema families of different sizes.
                let family = rng.gen_range(0..schema_families);
                let payload: Vec<u8> = match family {
                    0 => i.to_le_bytes().to_vec(), // compact numeric
                    1 => {
                        let mut p = i.to_le_bytes().to_vec();
                        p.extend_from_slice(&[0u8; 56]); // fixed struct
                        p
                    }
                    _ => {
                        let mut p = i.to_le_bytes().to_vec();
                        p.extend(std::iter::repeat_n(b'x', rng.gen_range(64..256)));
                        p
                    }
                };
                Record::new(i % 64, payload, i * 100)
            }),
        )
        .expect("topic exists");
}

/// Series the collect pipelines time on the real clock.
const REAL_CLOCK: [&str; 3] = [
    "pipeline_stage_busy_us_total",
    "pipeline_record_latency_ns",
    "span_duration_us",
];

/// Copies every series of `from` into `to` except the [`REAL_CLOCK`]
/// ones, which vary run to run.
fn copy_deterministic(from: &Registry, to: &Registry) {
    fn pairs(l: &Labels) -> Vec<(&str, &str)> {
        l.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect()
    }
    let keep = |name: &str| !REAL_CLOCK.contains(&name);
    let snapshot = from.snapshot();
    for c in snapshot.counters.iter().filter(|c| keep(&c.name)) {
        to.counter_labeled(&c.name, &pairs(&c.labels)).add(c.value);
    }
    for g in snapshot.gauges.iter().filter(|g| keep(&g.name)) {
        to.gauge_labeled(&g.name, &pairs(&g.labels)).set(g.value);
    }
    for (name, l, h) in from.histogram_handles() {
        if keep(&name) {
            to.histogram_labeled(&name, &pairs(&l)).merge(&h);
        }
    }
}

fn decode(r: &Record) -> Option<u64> {
    r.payload.get(0..8)?.try_into().ok().map(u64::from_le_bytes)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header(
        "E12",
        "3Vs: pipeline throughput vs partition count (200k mixed records)",
    );
    row(&[
        "partitions".into(),
        "records/s".into(),
        "MB/s".into(),
        "p99 µs".into(),
        "windows out".into(),
    ]);
    let n = sized(200_000, 10_000) as u64;
    let mut snap = Snapshot::new("e12_stream");
    snap.param_num("records", n as f64);
    snap.param_num("schema_families", 3.0);
    let blog = BenchLog::new("e12_stream");
    let obs = Obs {
        log: Some(blog.handle().clone()),
        ..Obs::default()
    };
    let flight_root = TraceContext::root(12, 0xE12);
    let collect_registry = Registry::new();
    for &parts in &[1u32, 2, 4, 8, 16] {
        let broker = Broker::new();
        broker.create_topic("events", parts)?;
        fill(&broker, "events", n, 3, parts as u64);
        let mut pipeline = PipelineBuilder::new(broker.clone(), "events", decode)
            .obs(&Obs {
                registry: collect_registry.clone(),
                parent: flight_root.child(u64::from(parts)),
                ..obs.clone()
            })
            .build();
        let (_items, metrics) = pipeline.collect()?;
        let mut windowed = PipelineBuilder::new(broker, "events", decode)
            .watermark_bound_us(1_000)
            .obs(&Obs {
                registry: Registry::new(),
                parent: flight_root.child(u64::from(parts) | 0x100),
                ..obs.clone()
            })
            .build();
        let (results, wm) = windowed.run_windowed(
            TumblingWindows::new(1_000_000),
            CountAggregation,
            None,
            None,
            false,
        )?;
        row(&[
            parts.to_string(),
            f(metrics.throughput_rps(), 0),
            f(
                metrics.bytes_in as f64 / 1e6 / metrics.elapsed_s.max(1e-9),
                1,
            ),
            f(metrics.p99_latency_us, 2),
            results.len().to_string(),
        ]);
        assert_eq!(wm.records_in, n);
    }
    copy_deterministic(&collect_registry, snap.registry());

    header("E12b", "checkpoint / crash / recovery cost (100k records)");
    let cp_n = sized(100_000, 20_000) as u64;
    let crash_at = (cp_n * 6 / 10) as usize;
    let every = (cp_n / 10) as usize;
    snap.param_num("checkpoint_records", cp_n as f64);
    let broker = Broker::new();
    broker.create_topic("cp", 4)?;
    fill(&broker, "cp", cp_n, 3, 99);
    let store: CheckpointStore<WindowState<u64>> = CheckpointStore::new();
    let log_only = |parent| Obs {
        parent,
        log: Some(blog.handle().clone()),
        ..Obs::default()
    };
    let mut p1 = PipelineBuilder::new(broker.clone(), "cp", decode)
        .watermark_bound_us(1_000)
        .obs(&log_only(flight_root.child(0x201)))
        .build();
    let ((partial, _), crash_run_us) = timed(|| {
        p1.run_windowed(
            TumblingWindows::new(1_000_000),
            CountAggregation,
            Some((&store, every)),
            Some(crash_at),
            false,
        )
        .expect("crash run")
    });
    let mut p2 = PipelineBuilder::new(broker.clone(), "cp", decode)
        .watermark_bound_us(1_000)
        .obs(&log_only(flight_root.child(0x202)))
        .build();
    let ((rest, m2), resume_us) = timed(|| {
        p2.run_windowed(
            TumblingWindows::new(1_000_000),
            CountAggregation,
            Some((&store, every)),
            None,
            true,
        )
        .expect("resume run")
    });
    let mut p_ref = PipelineBuilder::new(broker, "cp", decode)
        .watermark_bound_us(1_000)
        .obs(&log_only(flight_root.child(0x203)))
        .build();
    let ((want, _), full_us) = timed(|| {
        p_ref
            .run_windowed(
                TumblingWindows::new(1_000_000),
                CountAggregation,
                None,
                None,
                false,
            )
            .expect("reference run")
    });
    let recovered_total: u64 = partial.iter().chain(&rest).map(|r| r.value).sum::<u64>();
    let reference_total: u64 = want.iter().map(|r| r.value).sum();
    row(&["".into(), "time ms".into(), "records".into(), "".into()]);
    row(&[
        "run to crash".into(),
        f(crash_run_us / 1e3, 1),
        crash_at.to_string(),
        "".into(),
    ]);
    row(&[
        "resume".into(),
        f(resume_us / 1e3, 1),
        m2.records_in.to_string(),
        "".into(),
    ]);
    row(&[
        "uninterrupted".into(),
        f(full_us / 1e3, 1),
        cp_n.to_string(),
        "".into(),
    ]);
    snap.gauge(
        "exactly_once",
        &[],
        f64::from(u8::from(recovered_total == reference_total)),
    );
    println!(
        "\nwindow-count totals: crash+resume {recovered_total} vs reference {reference_total}\n\
         (equal totals ⇒ effective exactly-once across the simulated failure)\n\
         expected shape: resume re-reads only the unprocessed suffix, so\n\
         crash+resume ≈ uninterrupted cost; throughput scales with partitions\n\
         until the in-process merge dominates"
    );
    header(
        "E12x",
        "xray: modeled per-stage critical path & speedup bound",
    );
    // Modeled stage costs under ManualTime (1 unit ≙ 1 µs/record): the
    // span tree and the --artifacts bundle are a pure function of the
    // seed, so the committed baseline pins the shape byte for byte.
    // AUGUR_XRAY_SLOW_WINDOW=<us> injects extra per-record window
    // cost: the red-gate probe that must flip the critical-path
    // head to pipeline/window, which `augur-doctor diff` names.
    let slow_window: u64 = std::env::var("AUGUR_XRAY_SLOW_WINDOW")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    // AUGUR_SAMPLE_RATE=<n> turns on deterministic head sampling
    // for the xray runs: the verdict is pure in (seed, trace id),
    // so the sampled bundle is still byte-identical across runs
    // (CI double-runs and diffs it). Unset keeps everything.
    let rate: u64 = std::env::var("AUGUR_SAMPLE_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let sampler = Sampler::new(12, rate);
    let costs = ModeledCosts {
        read_us: 1,
        transform_us: 3,
        window_us: 2 + slow_window,
    };
    let xn = sized(20_000, 5_000) as u64;
    let time = Arc::new(ManualTime::new());
    let xrec = FlightRecorder::new(1 << 16);
    let xobs = Obs {
        flight: Some(xrec.clone()),
        sampler: Some(sampler.clone()),
        ..Obs::default()
    };
    let xreg = &xobs.registry;
    let xroot = TraceContext::root(12, 0xE12A);
    let broker = Broker::new();
    broker.create_topic("xray", 4)?;
    fill(&broker, "xray", xn, 3, 7);
    let mut p = PipelineBuilder::new(broker.clone(), "xray", decode)
        .modeled_costs(&time, costs)
        .obs(&Obs {
            parent: xroot.child(1),
            ..xobs.clone()
        })
        .build();
    let _ = p.collect()?;
    let mut w = PipelineBuilder::new(broker, "xray", decode)
        .watermark_bound_us(1_000)
        .modeled_costs(&time, costs)
        .obs(&Obs {
            parent: xroot.child(2),
            ..xobs.clone()
        })
        .build();
    let _ = w.run_windowed(
        TumblingWindows::new(1_000_000),
        CountAggregation,
        None,
        None,
        false,
    )?;
    let events = xrec.drain();
    let mut report = augur_xray::analyze("e12_stream", &events, xrec.dropped_events())
        .with_registry(&xreg.snapshot());
    if sampler.is_sampling() {
        report = report.with_sampling(sampler.effective_rate());
    }
    print!("{}", report.render_panel());
    if slow_window == 0 && !sampler.is_sampling() {
        // The number the sharding arc (ROADMAP item 1) must beat:
        // read(1)+transform(3) in collect plus read(1)+window(2) in
        // the windowed run bound pipelined speedup at 7/3 ≈ 2.33x.
        assert!(
            report.parallel_speedup_bound > 1.5,
            "stage layout must leave >1.5x pipelining headroom, got {:.2}x",
            report.parallel_speedup_bound
        );
        assert_eq!(report.head(), Some("pipeline/transform"));
    }
    // The measured section must exist even for this single-lane
    // (control) drain, beside the modeled bound above. (A sampled
    // run may mute both pipeline chains entirely — the artifact
    // stays deterministic but can be empty, so only the unsampled
    // shape is asserted.)
    if !sampler.is_sampling() {
        assert!(
            report.measured.lanes >= 1 && report.measured.parallel_efficiency > 0.0,
            "xray must report a measured section, got {:?}",
            report.measured
        );
    }
    write_artifacts(&Artifacts {
        name: "e12_stream".into(),
        events: Some(events),
        xray: Some(report),
        ..Artifacts::default()
    })?;
    blog.finish();
    snap.write()?;
    Ok(())
}
