//! Ablation A1 — watermark out-of-orderness bound.
//!
//! The bound trades completeness (late records dropped) against window
//! result delay. This sweep feeds a stream with bounded random disorder
//! and reports drops and result counts per bound — the tuning decision a
//! deployment makes once per source.
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use augur_bench::{f, header, row, sized, BenchLog, Snapshot};
use augur_stream::window::CountAggregation;
use augur_stream::{Broker, Obs, PipelineBuilder, Record, TumblingWindows};
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header("A1", "watermark bound vs late drops (disorder up to 50 ms)");
    // Events in timestamp order per device, but devices' clocks jitter:
    // each event's time is its sequence time ± up to 50 ms.
    let n = sized(100_000, 5_000) as u64;
    let mut snap = Snapshot::new("a1_watermark");
    snap.param_num("events", n as f64);
    snap.param_num("disorder_us", 50_000.0);
    // Pipeline-emitted log records (run summaries, rate-limited late-drop
    // warnings) land here and print on stderr at exit.
    let blog = BenchLog::new("a1_watermark");
    let disorder_us = 50_000i64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut events: Vec<(u64, u64)> = (0..n)
        .map(|i| {
            let t = (i * 1_000) as i64 + rng.gen_range(-disorder_us..=disorder_us);
            (i % 8, t.max(0) as u64)
        })
        .collect();
    // Arrival order: sort by *sequence* (already is), so event times are
    // out of order by up to 2×disorder.
    let arrival: Vec<Record> = events
        .iter()
        .map(|&(k, t)| Record::new(k, t.to_le_bytes().to_vec(), t))
        .collect();
    events.sort_by_key(|e| e.1);

    row(&[
        "bound ms".into(),
        "late dropped".into(),
        "dropped %".into(),
        "windows".into(),
        "counted".into(),
    ]);
    for &bound_ms in &[0u64, 10, 25, 50, 100, 250] {
        let broker = Broker::new();
        broker.create_topic("t", 1)?;
        broker.append_batch("t", arrival.iter().cloned())?;
        let mut pipeline = PipelineBuilder::new(broker, "t", |r| {
            r.payload
                .as_ref()
                .try_into()
                .ok()
                .map(u64::from_le_bytes)
        })
        .watermark_bound_us(bound_ms * 1_000)
        // Arrival order preserves the simulated clock skew — the whole
        // point of this ablation.
        .arrival_order(true)
        .obs(&Obs {
            parent: blog.root().child(bound_ms),
            log: Some(blog.handle().clone()),
            ..Obs::default()
        })
        .build();
        let (results, metrics) = pipeline.run_windowed(
            TumblingWindows::new(100_000),
            CountAggregation,
            None,
            None,
            false,
        )?;
        let counted: u64 = results.iter().map(|r| r.value).sum();
        let bound = bound_ms.to_string();
        let labels = [("bound_ms", bound.as_str())];
        snap.gauge("late_dropped", &labels, metrics.late_dropped as f64);
        snap.gauge("windows", &labels, results.len() as f64);
        row(&[
            bound,
            metrics.late_dropped.to_string(),
            f(metrics.late_dropped as f64 / n as f64 * 100.0, 2),
            results.len().to_string(),
            counted.to_string(),
        ]);
    }
    println!(
        "\nexpected shape: drops fall to zero once the bound covers the actual\n\
         disorder (~100 ms here); larger bounds cost only result delay, which\n\
         is why the default errs high (1 s)"
    );
    blog.finish();
    snap.write()?;
    Ok(())
}
