//! `window_batch`: one batch job at a time over a filled topic (closed loop).
//!
//! Set-up fills a four-partition topic once with mixed-schema keyed
//! records (`Broker::append_batch`): three in four are vitals samples, the
//! rest GPS-shaped payloads the vitals decoder skips. Each operation then
//! runs `Pipeline::run_windowed` over the whole topic: poll and decode,
//! event-time merge, watermarks, and a keyed tumbling-window aggregation.
//! This is the stream read path that batch-at-a-time operators and key
//! sharding must speed up; `geo` and `render` sit idle.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use augur_core::{decode_vitals, encode_vitals, VitalsRecord};
use augur_sensor::{Timestamp, VitalSign, VitalsSample};
use augur_stream::pipeline::WindowedRun;
use augur_stream::window::{NumericStats, StatsAggregation};
use augur_stream::{
    BoundedOutOfOrderness, Broker, PartitionId, Pipeline, PipelineBuilder, Record, TumblingWindows,
    WatermarkGenerator, WindowResult, WindowedAggregator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{self, Spans};
use crate::util::{median, metric, mix64, peak_rss_mb, percentile, process_cpu_s, sorted};
use crate::{Plan, Report};

const TOPIC: &str = "mixed";
const PARTITIONS: u32 = 4;
/// Records in the topic; one operation reads all of them.
const RECORDS: usize = 400_000;
/// Share of records that are vitals samples; the rest are foreign.
const VITALS_SHARE: f64 = 0.75;
const DEVICES: u64 = 128;
/// Event time the topic covers, and how far records stray from order.
const EVENT_SPAN_US: u64 = 60_000_000;
const JITTER_US: u64 = 200_000;
const WINDOW_US: u64 = 1_000_000;
const WATERMARK_BOUND_US: u64 = 1_000_000;
/// Records per `append_batch` call while filling the topic.
const APPEND_BATCH: usize = 8_192;
/// Records per `Broker::poll` call, as the pipeline polls.
const POLL_BATCH: usize = 1_024;
/// The p90 pass time is `tail_us`: a 30 s run has about 200 passes.
const TAIL_Q: f64 = 0.90;

/// One generated input record, before encoding.
struct Input {
    key: u64,
    t_us: u64,
    /// `Some` for a vitals sample, `None` for a foreign-schema record.
    vitals: Option<(VitalSign, f64)>,
}

fn inputs(seed: u64) -> Vec<Input> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0b47);
    (0..RECORDS as u64)
        .map(|i| {
            let key = rng.gen_range(0..DEVICES);
            let t_us = i * EVENT_SPAN_US / RECORDS as u64 + rng.gen_range(0..JITTER_US);
            let vitals = rng.gen_bool(VITALS_SHARE).then(|| {
                let sign = VitalSign::ALL[rng.gen_range(0..VitalSign::ALL.len())];
                let value = sign.baseline() + rng.gen_range(-3.0..3.0) * sign.noise_sigma();
                (sign, value)
            });
            Input { key, t_us, vitals }
        })
        .collect()
}

fn encode(input: &Input, rng: &mut StdRng) -> Record {
    let payload: Vec<u8> = match input.vitals {
        Some((sign, value)) => encode_vitals(&VitalsSample {
            time: Timestamp::from_micros(input.t_us),
            patient: input.key as u32,
            sign,
            value,
            in_anomaly: false,
        }),
        // A GPS-shaped payload: three little-endian f64s.
        None => (0..3)
            .flat_map(|_| rng.gen_range(-1e3..1e3f64).to_le_bytes())
            .collect(),
    };
    Record::new(input.key, payload, input.t_us)
}

struct SetupTimes {
    total_s: f64,
    append_s: f64,
}

/// Generates the records and fills a fresh broker with them.
fn setup(seed: u64) -> Result<(Broker, SetupTimes), String> {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf0_7e1d);
    let records: Vec<Record> = inputs(seed).iter().map(|i| encode(i, &mut rng)).collect();
    let broker = Broker::new();
    broker
        .create_topic(TOPIC, PARTITIONS)
        .map_err(|e| e.to_string())?;
    let mut append = Duration::ZERO;
    let mut records = records.into_iter();
    loop {
        let chunk: Vec<Record> = records.by_ref().take(APPEND_BATCH).collect();
        if chunk.is_empty() {
            break;
        }
        let t = Instant::now();
        broker
            .append_batch(TOPIC, chunk)
            .map_err(|e| e.to_string())?;
        append += t.elapsed();
    }
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        append_s: append.as_secs_f64(),
    };
    Ok((broker, times))
}

/// Brute-force per-(key, window start) aggregation of the generated input.
fn reference(seed: u64) -> BTreeMap<(u64, u64), NumericStats> {
    let mut out: BTreeMap<(u64, u64), NumericStats> = BTreeMap::new();
    for i in inputs(seed) {
        if let Some((_, value)) = i.vitals {
            let start = i.t_us / WINDOW_US * WINDOW_US;
            out.entry((i.key, start))
                .or_insert_with(NumericStats::empty)
                .add(value);
        }
    }
    out
}

/// Whether a pass's windows equal the reference aggregation. Sums may
/// differ in the last bits, since the order of additions may differ.
fn matches_reference(
    got: &[WindowResult<NumericStats>],
    want: &BTreeMap<(u64, u64), NumericStats>,
) -> bool {
    got.len() == want.len()
        && got.iter().all(|r| {
            r.window.end_us == r.window.start_us + WINDOW_US
                && want.get(&(r.key, r.window.start_us)).is_some_and(|w| {
                    w.count == r.value.count
                        && w.min == r.value.min
                        && w.max == r.value.max
                        && (w.sum - r.value.sum).abs() <= 1e-9 * w.sum.abs().max(1.0)
                })
        })
}

/// A cheap digest of a pass's output, to check every later pass against
/// the first one.
fn digest(got: &[WindowResult<NumericStats>]) -> (usize, u64, u64) {
    got.iter().fold((got.len(), 0, 0), |(n, count, h), r| {
        let id = mix64(r.key ^ mix64(r.window.start_us) ^ r.value.count.rotate_left(32));
        (n, count + r.value.count, h.wrapping_add(id))
    })
}

fn value_of(v: &VitalsRecord) -> f64 {
    v.value
}

/// One operation: a windowed run over the whole topic.
fn pass(pipeline: &mut Pipeline<VitalsRecord>) -> Result<WindowedRun<NumericStats>, String> {
    pipeline
        .run_windowed(
            TumblingWindows::new(WINDOW_US),
            StatsAggregation::new(value_of),
            None,
            None,
            false,
        )
        .map_err(|e| e.to_string())
}

/// Every record of the topic, polled partition by partition and decoded,
/// as the pipeline's read stage does.
fn poll_all(broker: &Broker, out: &mut Vec<(u64, u64, VitalsRecord)>) -> Result<(), String> {
    out.clear();
    for p in 0..PARTITIONS {
        let end = broker
            .end_offset(TOPIC, PartitionId(p))
            .map_err(|e| e.to_string())?;
        let mut from = 0;
        while from < end {
            let batch = broker
                .poll(TOPIC, PartitionId(p), from, POLL_BATCH)
                .map_err(|e| e.to_string())?;
            let Some(last) = batch.last() else { break };
            from = last.offset.0 + 1;
            for pr in batch {
                if let Some(v) = decode_vitals(&pr.record.payload) {
                    out.push((pr.record.key, pr.record.event_time_us, v));
                }
            }
        }
    }
    Ok(())
}

/// The pipeline's window stage alone: watermarks and keyed tumbling-window
/// aggregation over records already decoded and in event-time order.
fn window_all(decoded: &[(u64, u64, VitalsRecord)]) -> usize {
    let mut agg = WindowedAggregator::new(
        TumblingWindows::new(WINDOW_US),
        StatsAggregation::new(value_of),
    );
    let mut wm = BoundedOutOfOrderness::new(WATERMARK_BOUND_US);
    let mut emitted = 0;
    for (key, t_us, v) in decoded {
        if wm.observe(*t_us).is_some() {
            emitted += agg.advance(wm.current()).len();
        }
        agg.offer(*key, *t_us, v);
    }
    emitted + agg.flush().len()
}

/// Counters from the pass loop.
struct Passes {
    lat_ns: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    failed: u64,
}

/// Runs passes back to back for `seconds`, checking each against the first
/// pass's digest. When `probe` holds the decoded topic in event-time order
/// (traced run), each operation also times the read and window stages on
/// their own, outside the timed pass.
fn passes<S: Spans>(
    broker: &Broker,
    pipeline: &mut Pipeline<VitalsRecord>,
    want: (usize, u64, u64),
    seconds: f64,
    spans: &mut S,
    probe: &[(u64, u64, VitalsRecord)],
) -> Result<Passes, String> {
    let mut decoded = Vec::with_capacity(probe.len());
    let mut out = Passes {
        lat_ns: Vec::new(),
        wall_s: 0.0,
        cpu_s: 0.0,
        failed: 0,
    };
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    loop {
        let root = spans.begin(trace::BATCH_OP, trace::NONE);
        let t0 = Instant::now();
        let sp = spans.begin(trace::RUN_WINDOWED, root);
        let (got, _) = pass(pipeline)?;
        spans.end(sp);
        let t1 = Instant::now();
        if !probe.is_empty() {
            let sp = spans.begin(trace::POLL, root);
            poll_all(broker, &mut decoded)?;
            spans.end(sp);
            let sp = spans.begin(trace::WINDOW, root);
            let windows = window_all(probe);
            spans.end(sp);
            out.failed += u64::from(windows != want.0 || decoded.len() != probe.len());
        }
        spans.end(root);
        out.lat_ns.push((t1 - t0).as_nanos() as f64);
        out.failed += u64::from(digest(&got) != want);
        if Instant::now() >= deadline {
            break;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - cpu0;
    Ok(out)
}

/// Runs the workload as `plan` says.
pub fn run(plan: &Plan) -> Result<Report, String> {
    let mut times = Vec::new();
    let mut broker = None;
    for _ in 0..plan.setup_reps.max(1) {
        drop(broker.take());
        let (b, t) = setup(plan.seed)?;
        broker = Some(b);
        times.push(t);
    }
    let broker = broker.ok_or("no set-up ran")?;
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());

    let mut pipeline = PipelineBuilder::new(broker.clone(), TOPIC, |r: &Record| {
        decode_vitals(&r.payload)
    })
    .watermark_bound_us(WATERMARK_BOUND_US)
    .build();
    // The first pass warms up and is checked in full against the reference.
    let (first, first_metrics) = pass(&mut pipeline)?;
    let first_failed = u64::from(!matches_reference(&first, &reference(plan.seed)));
    let want = digest(&first);

    if !plan.trace {
        let p = passes(
            &broker,
            &mut pipeline,
            want,
            plan.seconds,
            &mut trace::Off,
            &[],
        )?;
        let n = p.lat_ns.len() as f64;
        let lat = sorted(p.lat_ns);
        return Ok(Report {
            attempted: lat.len() as u64 + 1,
            failed: p.failed + first_failed,
            op_p50_us: percentile(&lat, 0.5) / 1e3,
            metrics: vec![
                metric("setup_s", med(|t| t.total_s), "s"),
                metric("p50_us", percentile(&lat, 0.5) / 1e3, "us"),
                metric("tail_us", percentile(&lat, TAIL_Q) / 1e3, "us"),
                metric("throughput_per_s", n * RECORDS as f64 / p.wall_s, "1/s"),
                metric("cpu_us_per_op", p.cpu_s * 1e6 / n, "us"),
                metric("peak_rss_mb", peak_rss_mb(), "MB"),
            ],
        });
    }

    let mut probe = Vec::with_capacity(RECORDS);
    poll_all(&broker, &mut probe)?;
    probe.sort_by_key(|(_, t_us, _)| *t_us);
    let mut buf = trace::Buffer::new();
    let p = passes(&broker, &mut pipeline, want, plan.seconds, &mut buf, &probe)?;
    buf.write_tsv(&trace::out_path("window_batch", plan.seed))
        .map_err(|e| e.to_string())?;
    let run_ns = buf.self_ns(trace::RUN_WINDOWED);
    let poll_ns = buf.self_ns(trace::POLL);
    let window_ns = buf.self_ns(trace::WINDOW);
    let overhead: Vec<f64> = run_ns
        .iter()
        .zip(&poll_ns)
        .zip(&window_ns)
        .map(|((r, p), w)| (r - p - w) / r)
        .collect();
    Ok(Report {
        attempted: p.lat_ns.len() as u64 + 1,
        failed: p.failed + first_failed,
        op_p50_us: median(&run_ns) / 1e3,
        metrics: vec![
            metric("stream.append_s", med(|t| t.append_s), "s"),
            metric(
                "stream.poll_ns_per_record",
                median(&poll_ns) / RECORDS as f64,
                "ns",
            ),
            metric(
                "stream.window_ns_per_record",
                median(&window_ns) / probe.len().max(1) as f64,
                "ns",
            ),
            metric("stream.pass_overhead_share", median(&overhead), "share"),
            metric("stream.windows_emitted", first.len() as f64, "count"),
            metric(
                "stream.late_dropped",
                first_metrics.late_dropped as f64,
                "count",
            ),
        ],
    })
}
