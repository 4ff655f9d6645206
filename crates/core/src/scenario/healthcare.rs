//! Healthcare scenario (§3.3, experiment E9).
//!
//! A patient cohort streams vitals through the broker; per-(patient,
//! sign) threshold detectors consume the time-ordered stream and raise
//! alerts. The report scores detection recall, false-alarm rate, and the
//! alert latency distribution against the generator's episode ground
//! truth — the "immediate field diagnosis" the paper promises, measured.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use rand::SeedableRng;

use augur_telemetry::log::Arg;
use augur_telemetry::{ManualTime, Obs, TimeSource, TraceContext};

use augur_analytics::ThresholdDetector;
use augur_sensor::{VitalsGenerator, VitalsParams};
use augur_stream::{Broker, PipelineBuilder, Record};

use crate::codec::{decode_vitals, encode_vitals};
use crate::error::CoreError;

/// Parameters for the healthcare scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthcareParams {
    /// Cohort size.
    pub patients: u32,
    /// Monitored duration, seconds.
    pub duration_s: f64,
    /// Vitals sample period, seconds.
    pub period_s: f64,
    /// Expected anomaly episodes per patient.
    pub episodes_per_patient: f64,
    /// Episode length, seconds.
    pub episode_length_s: f64,
    /// Broker partitions for the vitals topic.
    pub partitions: u32,
    /// Consecutive breaches (m of n = m+1) required to alert.
    pub confirm_m: usize,
    /// Per-sample motion-artifact probability (unlabelled spikes).
    pub artifact_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HealthcareParams {
    fn default() -> Self {
        HealthcareParams {
            patients: 50,
            duration_s: 1_800.0,
            period_s: 1.0,
            episodes_per_patient: 2.0,
            episode_length_s: 120.0,
            partitions: 4,
            confirm_m: 2,
            artifact_probability: 0.002,
            seed: 31,
        }
    }
}

/// Results of the healthcare scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthcareReport {
    /// Ground-truth anomaly episodes injected.
    pub episodes: usize,
    /// Episodes with at least one alert inside their window.
    pub detected: usize,
    /// Detection recall.
    pub recall: f64,
    /// Alerts raised outside any episode window.
    pub false_alarms: usize,
    /// False alarms per patient-hour.
    pub false_alarm_rate_per_patient_hour: f64,
    /// Median alert latency from episode onset, seconds (sim time).
    pub median_latency_s: f64,
    /// 95th-percentile alert latency, seconds.
    pub p95_latency_s: f64,
    /// Samples streamed through the broker.
    pub samples_streamed: u64,
    /// Pipeline wall-clock throughput, records/second.
    pub pipeline_throughput_rps: f64,
}

/// Detector records processed per observed cycle (see [`run`]): the
/// detect stage reports once per chunk, so a healthy cycle models ~1 ms
/// of work.
const CYCLE_CHUNK: usize = 1_000;

/// Runs the scenario, reporting into `obs` (see
/// [the module docs](crate::scenario)). The registry receives the
/// per-stage breakdown (`span_duration_us{span="healthcare/…"}`) and the
/// broker pipeline's own stage spans and counters, since the pipeline
/// runs against the same sinks and manual clock. With a flight recorder,
/// a root span covers the run with the four stages as children, and
/// patient 0's vitals samples carry per-record root trace contexts
/// through the broker, so the pipeline's per-record spans link back to
/// the producing sample. With an event log, the pipeline logs its
/// run/checkpoint/late-drop rationale under the run root, each
/// undetected episode gets a WARN (`healthcare/missed_episode`), and
/// the run closes with an INFO (`healthcare/summary`). With a cycle
/// sink, the generate and stream stages tick it and the detect stage
/// reports one observed cycle per `CYCLE_CHUNK` records; every
/// detected episode's sample-to-alert latency lands in
/// `alert_latency_us{scenario=healthcare}` either way.
///
/// # Errors
///
/// [`CoreError::InvalidScenario`] for degenerate parameters; stream and
/// analytics errors propagate.
pub fn run(params: &HealthcareParams, obs: &Obs) -> Result<HealthcareReport, CoreError> {
    if params.patients == 0 {
        return Err(CoreError::InvalidScenario("patients must be positive"));
    }
    if params.duration_s <= 0.0 || params.period_s <= 0.0 {
        return Err(CoreError::InvalidScenario("durations must be positive"));
    }
    let clock = ManualTime::shared();
    let so = super::ScenarioObs::start(obs, "healthcare", params.seed, &clock);
    let generate = so.stage("healthcare/generate");
    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
    let gen_params = VitalsParams {
        patients: params.patients,
        period_s: params.period_s,
        duration_s: params.duration_s,
        episodes_per_patient: params.episodes_per_patient,
        episode_length_s: params.episode_length_s,
        circadian_amplitude: 0.05,
        artifact_probability: params.artifact_probability,
    };
    let (samples, episodes) = VitalsGenerator::new(gen_params).generate(&mut rng);
    clock.advance_micros(samples.len() as u64);
    let generate_t0 = generate.start_us;
    generate.end_tick();

    // Stream through the broker keyed by patient (per-patient order is
    // preserved within a partition). The pipeline shares the scenario's
    // registry and manual clock; a map stage advances the clock one work
    // unit per record, so pipeline latency and throughput are modeled
    // and deterministic.
    let stream = so.stage("healthcare/stream");
    let broker = Broker::new();
    broker.create_topic("vitals", params.partitions)?;
    // Under tracing, patient 0's samples become causal roots: each gets
    // a producer span (modeled production order within the generate
    // window, one work unit apiece) and carries its context through the
    // broker so the pipeline's per-record spans link back to it.
    let sample_wire = obs
        .flight
        .as_ref()
        .map(|r| (r, r.intern("healthcare/sample")));
    broker.append_batch(
        "vitals",
        samples.iter().enumerate().map(|(i, s)| {
            let rec = Record::new(s.patient as u64, encode_vitals(s), s.time.as_micros());
            match sample_wire {
                Some((r, name)) if s.patient == 0 => {
                    let ctx = TraceContext::root(params.seed, i as u64);
                    r.record_span(ctx, name, generate_t0 + i as u64, 1);
                    rec.with_trace(ctx)
                }
                _ => rec,
            }
        }),
    )?;

    let pipeline_clock = clock.clone();
    let mut pipeline = PipelineBuilder::new(broker, "vitals", |r| decode_vitals(&r.payload))
        .obs(&so.child_obs())
        .clock(clock.clone())
        .map(move |v| {
            pipeline_clock.advance_micros(1);
            v
        })
        .build();
    let (records, metrics) = pipeline.collect()?;
    stream.end_tick();

    // Per-(patient, sign) m-of-n threshold detectors.
    let detect = so.stage("healthcare/detect");
    let mut detectors: HashMap<(u32, u8), ThresholdDetector> = HashMap::new();
    let mut alerts: Vec<(u32, augur_sensor::VitalSign, u64)> = Vec::new();
    // The clock advances one work unit per record *inside* the loop
    // (same stage total as a bulk advance), so a cycle sink can observe
    // the detect stage as per-chunk cycles. Chunk trace roots carry a
    // tag so their ids never collide with the patient-0 sample roots
    // above — the exemplar on a slow chunk points at a distinct
    // deterministic trace.
    let chunk_ctx =
        |chunk: usize| TraceContext::root(params.seed, 0x6368_756e_6b00_0000 | chunk as u64);
    let mut chunk_t0 = detect.start_us;
    for (i, r) in records.iter().enumerate() {
        let key = (r.patient, sign_idx(r.sign));
        let det = match detectors.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let (lo, hi) = r.sign.alert_range();
                v.insert(ThresholdDetector::new(
                    lo,
                    hi,
                    params.confirm_m,
                    params.confirm_m + 1,
                )?)
            }
        };
        if let Some(alert) = det.observe(r.t_us, r.value) {
            alerts.push((r.patient, r.sign, alert.t_us));
        }
        clock.advance_micros(1);
        if (i + 1) % CYCLE_CHUNK == 0 {
            so.cycle(chunk_t0, chunk_ctx(i / CYCLE_CHUNK));
            chunk_t0 = clock.now_micros();
        }
    }
    if records.len() % CYCLE_CHUNK != 0 {
        so.cycle(chunk_t0, chunk_ctx(records.len() / CYCLE_CHUNK));
    }
    detect.end();

    // Score against episode ground truth.
    let score = so.stage("healthcare/score");
    let mut detected = 0usize;
    let mut latencies: Vec<f64> = Vec::new();
    // Sample-to-alert latency distribution, for the declared
    // `healthcare_alert_p95` objective (and anyone else scraping the
    // registry). Sim time, microseconds.
    let alert_latency = obs
        .registry
        .histogram_labeled("alert_latency_us", &[("scenario", "healthcare")]);
    for ep in &episodes {
        let hit = alerts
            .iter()
            .filter(|(p, s, t)| {
                *p == ep.patient
                    && *s == ep.kind.sign()
                    && *t >= ep.start.as_micros()
                    && *t < ep.end.as_micros()
            })
            .map(|(_, _, t)| (*t - ep.start.as_micros()) as f64 / 1e6)
            .fold(f64::INFINITY, f64::min);
        if hit.is_finite() {
            detected += 1;
            latencies.push(hit);
            alert_latency.record((hit * 1e6) as u64);
        } else {
            so.warn(
                "healthcare/missed_episode",
                &[
                    ("patient", Arg::U64(ep.patient as u64)),
                    ("onset_us", Arg::U64(ep.start.as_micros())),
                ],
            );
        }
    }
    let false_alarms = alerts
        .iter()
        .filter(|(p, s, t)| {
            !episodes.iter().any(|ep| {
                ep.patient == *p
                    && ep.kind.sign() == *s
                    && *t >= ep.start.as_micros()
                    && *t < ep.end.as_micros()
            })
        })
        .count();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            0.0
        } else {
            latencies[((latencies.len() as f64 * p) as usize).min(latencies.len() - 1)]
        }
    };
    let patient_hours = params.patients as f64 * params.duration_s / 3600.0;
    clock.advance_micros(episodes.len() as u64);
    score.end();
    so.finish();
    so.info(
        "healthcare/summary",
        &[
            ("episodes", Arg::U64(episodes.len() as u64)),
            ("detected", Arg::U64(detected as u64)),
            ("false_alarms", Arg::U64(false_alarms as u64)),
            ("samples", Arg::U64(metrics.records_in)),
        ],
    );
    Ok(HealthcareReport {
        episodes: episodes.len(),
        detected,
        recall: if episodes.is_empty() {
            1.0
        } else {
            detected as f64 / episodes.len() as f64
        },
        false_alarms,
        false_alarm_rate_per_patient_hour: false_alarms as f64 / patient_hours.max(1e-9),
        median_latency_s: pct(0.5),
        p95_latency_s: pct(0.95),
        samples_streamed: metrics.records_in,
        pipeline_throughput_rps: metrics.throughput_rps(),
    })
}

fn sign_idx(s: augur_sensor::VitalSign) -> u8 {
    match s {
        augur_sensor::VitalSign::HeartRate => 0,
        augur_sensor::VitalSign::SpO2 => 1,
        augur_sensor::VitalSign::Temperature => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HealthcareParams {
        HealthcareParams {
            // Large enough that recall is not dominated by small-sample noise:
            // a handful of episodes are structurally undetectable (censored at
            // the end of the monitoring window), which caps recall near 0.95.
            patients: 20,
            duration_s: 900.0,
            episodes_per_patient: 2.0,
            ..Default::default()
        }
    }

    #[test]
    fn detects_most_episodes_quickly() {
        let r = run(&small(), &Obs::default()).unwrap();
        assert!(r.episodes > 0, "generator should inject episodes");
        assert!(r.recall > 0.85, "recall {}", r.recall);
        // m-of-n with m=2 at 1 Hz: detection within a few seconds.
        assert!(r.median_latency_s <= 5.0, "median {}", r.median_latency_s);
        assert!(r.p95_latency_s >= r.median_latency_s);
    }

    #[test]
    fn false_alarm_rate_is_low() {
        let r = run(&small(), &Obs::default()).unwrap();
        assert!(
            r.false_alarm_rate_per_patient_hour < 2.0,
            "rate {}",
            r.false_alarm_rate_per_patient_hour
        );
    }

    #[test]
    fn streams_every_sample() {
        let r = run(&small(), &Obs::default()).unwrap();
        // patients × signs × (duration / period)
        assert_eq!(r.samples_streamed, 20 * 3 * 900);
        assert!(r.pipeline_throughput_rps > 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run(&small(), &Obs::default()).unwrap();
        let b = run(&small(), &Obs::default()).unwrap();
        assert_eq!(a.episodes, b.episodes);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.false_alarms, b.false_alarms);
    }

    #[test]
    fn instrumented_spans_cover_scenario_and_pipeline_stages() {
        let snapshot_of = || {
            let obs = Obs::default();
            run(&small(), &obs).unwrap();
            obs.registry.snapshot()
        };
        let a = snapshot_of();
        let b = snapshot_of();
        assert_eq!(a, b, "span breakdown must be seed-deterministic");
        let spans: Vec<&str> = a
            .histograms
            .iter()
            .filter(|h| h.name == augur_telemetry::SPAN_METRIC)
            .flat_map(|h| &h.labels)
            .filter(|(k, _)| k == augur_telemetry::SPAN_LABEL)
            .map(|(_, v)| v.as_str())
            .collect();
        // The scenario's own stages plus the broker pipeline's, since the
        // pipeline shares the scenario registry.
        for stage in [
            "healthcare/generate",
            "healthcare/stream",
            "healthcare/detect",
            "healthcare/score",
            "pipeline/read",
            "pipeline/transform",
        ] {
            assert!(spans.contains(&stage), "missing stage span {stage}");
        }
    }

    #[test]
    fn rejects_degenerate_params() {
        let params = HealthcareParams {
            patients: 0,
            ..Default::default()
        };
        assert!(run(&params, &Obs::default()).is_err());
        let params = HealthcareParams {
            period_s: 0.0,
            ..Default::default()
        };
        assert!(run(&params, &Obs::default()).is_err());
    }
}
