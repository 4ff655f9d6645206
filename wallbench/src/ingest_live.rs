//! `ingest_live`: sensor events arrive on a fixed schedule (open loop).
//!
//! One generator thread (the main thread) calls `AugurPlatform::ingest` on
//! a mix of vitals, GPS and IMU events at a fixed rate well below
//! saturation, stamping each event with the time it was due, and sleeps
//! until the next one is due, so it takes no core from the pipeline. One
//! continuous pipeline (`spawn_continuous`) tails the vitals topic and runs
//! an alert detector in its sink. Latency runs from an event's due time to
//! its arrival in the sink, so a stall anywhere, the generator included,
//! counts against every event it delays. Here writes run beside live
//! tailing reads, and the platform mirrors each vitals sample into its
//! time-series store.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use augur_core::{decode_vitals, AugurPlatform, PlatformConfig, VitalsRecord};
use augur_geo::{Enu, GeoPoint};
use augur_sensor::{
    DeviceId, GpsFix, ImuReading, SensorEvent, SensorReading, Timestamp, VitalSign, VitalsSample,
};
use augur_stream::{PartitionId, PipelineBuilder, Record, StopHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{self, Spans};
use crate::util::{median, metric, mix64, peak_rss_mb, percentile, process_cpu_s, sorted};
use crate::{Plan, Report};

/// Events offered per second, all families together; half are vitals.
const RATE: u64 = 40_000;
const PERIOD_NS: u64 = 1_000_000_000 / RATE;
/// Distinct events the generator cycles through, restamped on each use.
const POOL: usize = 1 << 18;
const PATIENTS: u32 = 48;
const DEVICES: u64 = 64;
const VITALS_TOPIC: &str = "vitals";
/// Backlog is sampled at most this often.
const LAG_EVERY_NS: u64 = 100_000;
/// How long the sink may take to drain after the last event.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// The p90 due-to-sink latency is `tail_us`: the pipeline's two spinning
/// threads fill both cores of a two-core host, and beyond p95 the
/// scheduler's time slices make the latency swing from run to run.
const TAIL_Q: f64 = 0.90;

fn event_pool(seed: u64) -> Vec<SensorEvent> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1f_e57a);
    let t = Timestamp::from_micros(0);
    (0..POOL)
        .map(|_| {
            let device = DeviceId(rng.gen_range(0..DEVICES));
            let reading = match rng.gen_range(0..4u32) {
                0 | 1 => {
                    let sign = VitalSign::ALL[rng.gen_range(0..VitalSign::ALL.len())];
                    SensorReading::Vitals(VitalsSample {
                        time: t,
                        patient: rng.gen_range(0..PATIENTS),
                        sign,
                        value: sign.baseline() + rng.gen_range(-4.0..4.0) * sign.noise_sigma(),
                        in_anomaly: false,
                    })
                }
                2 => SensorReading::Gps(GpsFix {
                    time: t,
                    position: Enu::new(rng.gen_range(-2e3..2e3), rng.gen_range(-2e3..2e3), 0.0),
                    speed_mps: rng.gen_range(0.0..2.0),
                    accuracy_m: 5.0,
                }),
                _ => SensorReading::Imu(ImuReading {
                    time: t,
                    accel_east: rng.gen_range(-1.0..1.0),
                    accel_north: rng.gen_range(-1.0..1.0),
                    yaw_rate_dps: rng.gen_range(-30.0..30.0),
                }),
            };
            SensorEvent::new(device, t, reading)
        })
        .collect()
}

/// `template` stamped as due at `due_us`.
fn stamped(template: &SensorEvent, due_us: u64) -> SensorEvent {
    let t = Timestamp::from_micros(due_us);
    let mut e = template.clone();
    e.time = t;
    match &mut e.reading {
        SensorReading::Vitals(v) => v.time = t,
        SensorReading::Gps(f) => f.time = t,
        SensorReading::Imu(r) => r.time = t,
        _ => {}
    }
    e
}

/// Order-independent digest term of one vitals sample.
fn vitals_digest(patient: u32, sign: VitalSign, value: f64, t_us: u64) -> u64 {
    mix64(u64::from(patient) ^ ((sign as u64) << 32) ^ mix64(value.to_bits()) ^ mix64(!t_us))
}

/// The sink's detector: whether a sample lies outside the clinical alert
/// range.
fn alerts(sign: VitalSign, value: f64) -> bool {
    let (lo, hi) = sign.alert_range();
    value < lo || value > hi
}

/// What the sink saw.
#[derive(Default)]
struct Sunk {
    lat_ns: Vec<f64>,
    count: u64,
    digest: u64,
    alerts: u64,
}

/// A platform with its continuous pipeline running.
struct Live {
    platform: AugurPlatform,
    handle: StopHandle,
    sunk: Arc<Mutex<Sunk>>,
    /// Event times are microseconds since this instant.
    epoch: Instant,
    pool: Vec<SensorEvent>,
}

fn setup(seed: u64, expected_vitals: usize) -> Result<(Live, f64), String> {
    let t0 = Instant::now();
    let pool = event_pool(seed);
    let origin = GeoPoint::new(22.3364, 114.2655).map_err(|e| e.to_string())?;
    let platform = AugurPlatform::new(PlatformConfig::new(origin)).map_err(|e| e.to_string())?;
    let epoch = Instant::now();
    let sunk = Arc::new(Mutex::new(Sunk {
        lat_ns: Vec::with_capacity(expected_vitals),
        ..Sunk::default()
    }));
    let sink_state = Arc::clone(&sunk);
    let sink = move |v: VitalsRecord| {
        let now_ns = epoch.elapsed().as_nanos() as u64;
        let mut s = sink_state.lock().unwrap_or_else(PoisonError::into_inner);
        s.lat_ns.push(now_ns.saturating_sub(v.t_us * 1_000) as f64);
        s.count += 1;
        s.digest = s
            .digest
            .wrapping_add(vitals_digest(v.patient, v.sign, v.value, v.t_us));
        s.alerts += u64::from(alerts(v.sign, v.value));
    };
    let handle = PipelineBuilder::new(platform.broker().clone(), VITALS_TOPIC, |r: &Record| {
        decode_vitals(&r.payload)
    })
    .build()
    .spawn_continuous(sink)
    .map_err(|e| e.to_string())?;
    let live = Live {
        platform,
        handle,
        sunk,
        epoch,
        pool,
    };
    Ok((live, t0.elapsed().as_secs_f64()))
}

/// Counters from the generator.
#[derive(Default)]
struct Generated {
    ingested: u64,
    vitals: u64,
    digest: u64,
    alerts: u64,
    late_ns: Vec<f64>,
    lag_max: u64,
    cpu_s: f64,
    sunk_in_run: u64,
}

/// Offers events on schedule for `seconds`.
fn generate<S: Spans>(live: &mut Live, seconds: f64, spans: &mut S) -> Result<Generated, String> {
    let partitions = live.platform.config().partitions;
    let now_ns = |live: &Live| live.epoch.elapsed().as_nanos() as u64;
    // Due times fall on whole microseconds, so event times carry them exactly.
    let start_ns = (now_ns(live) / 1_000 + 1_000) * 1_000;
    let end_ns = start_ns + (seconds * 1e9) as u64;
    let mut g = Generated {
        late_ns: Vec::with_capacity((seconds * RATE as f64) as usize + 1),
        ..Generated::default()
    };
    let mut next_lag = 0;
    let cpu0 = process_cpu_s();
    loop {
        let due = start_ns + g.ingested * PERIOD_NS;
        if due >= end_ns {
            break;
        }
        let now = now_ns(live);
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
            continue;
        }
        g.late_ns.push((now - due) as f64);
        let event = stamped(&live.pool[g.ingested as usize % POOL], due / 1_000);
        let sp = spans.begin(trace::CORE_INGEST, trace::NONE);
        live.platform.ingest(&event).map_err(|e| e.to_string())?;
        spans.end(sp);
        if let SensorReading::Vitals(v) = &event.reading {
            g.vitals += 1;
            g.alerts += u64::from(alerts(v.sign, v.value));
            g.digest =
                g.digest
                    .wrapping_add(vitals_digest(v.patient, v.sign, v.value, due / 1_000));
        }
        g.ingested += 1;
        if now >= next_lag {
            next_lag = now + LAG_EVERY_NS;
            let mut end = 0;
            for p in 0..partitions {
                end += live
                    .platform
                    .broker()
                    .end_offset(VITALS_TOPIC, PartitionId(p))
                    .map_err(|e| e.to_string())?;
            }
            g.lag_max = g.lag_max.max(end.saturating_sub(live.handle.processed()));
        }
    }
    g.cpu_s = process_cpu_s() - cpu0;
    g.sunk_in_run = live.handle.processed();
    Ok(g)
}

/// Runs the workload as `plan` says.
pub fn run(plan: &Plan) -> Result<Report, String> {
    let expected_vitals = (plan.seconds * RATE as f64 * 0.6) as usize;
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..plan.setup_reps.max(1) {
        drop(live.take());
        let (l, s) = setup(plan.seed, expected_vitals)?;
        live = Some(l);
        setups.push(s);
    }
    let mut live = live.ok_or("no set-up ran")?;

    let mut buf = plan.trace.then(trace::Buffer::new);
    let g = match &mut buf {
        Some(b) => generate(&mut live, plan.seconds, b)?,
        None => generate(&mut live, plan.seconds, &mut trace::Off)?,
    };
    let drain_deadline = Instant::now() + DRAIN_TIMEOUT;
    while live.handle.processed() < g.vitals && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Process CPU over one idle second with the pipeline running.
    let idle_cores = if plan.trace {
        let (cpu0, t0) = (process_cpu_s(), Instant::now());
        std::thread::sleep(Duration::from_secs(1));
        (process_cpu_s() - cpu0) / t0.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let Live {
        platform,
        handle,
        sunk,
        ..
    } = live;
    handle.stop();
    let sunk = std::mem::take(&mut *sunk.lock().unwrap_or_else(PoisonError::into_inner));
    let stored = platform.timeseries().sample_count() as u64;
    let failed = g.vitals.abs_diff(sunk.count)
        + u64::from(sunk.digest != g.digest)
        + g.alerts.abs_diff(sunk.alerts)
        + g.vitals.abs_diff(stored);
    let lat = sorted(sunk.lat_ns);

    let Some(buf) = buf else {
        return Ok(Report {
            attempted: g.ingested,
            failed,
            op_p50_us: percentile(&lat, 0.5) / 1e3,
            metrics: vec![
                metric("setup_s", median(&setups), "s"),
                metric("p50_us", percentile(&lat, 0.5) / 1e3, "us"),
                metric("tail_us", percentile(&lat, TAIL_Q) / 1e3, "us"),
                metric(
                    "throughput_per_s",
                    g.sunk_in_run as f64 / plan.seconds,
                    "1/s",
                ),
                metric("cpu_us_per_op", g.cpu_s * 1e6 / g.ingested as f64, "us"),
                metric("peak_rss_mb", peak_rss_mb(), "MB"),
            ],
        });
    };

    buf.write_tsv(&trace::out_path("ingest_live", plan.seed))
        .map_err(|e| e.to_string())?;
    let ingest = sorted(buf.self_ns(trace::CORE_INGEST));
    let late = sorted(g.late_ns);
    Ok(Report {
        attempted: g.ingested,
        failed,
        op_p50_us: percentile(&lat, 0.5) / 1e3,
        metrics: vec![
            metric("core.ingest_us", percentile(&ingest, 0.5) / 1e3, "us"),
            metric("core.ingest_tail_us", percentile(&ingest, 0.99) / 1e3, "us"),
            metric("stream.lag_records", g.lag_max as f64, "count"),
            metric("stream.idle_cpu_cores", idle_cores, "cores"),
            metric("gen.late_max_us", percentile(&late, 1.0) / 1e3, "us"),
            metric("gen.late_p99_us", percentile(&late, 0.99) / 1e3, "us"),
        ],
    })
}
