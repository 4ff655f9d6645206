//! Physiological sensor streams with injected anomaly episodes.
//!
//! §3.3 of the paper imagines "each of us becoming a walking data
//! generator": wearables streaming heart rate, blood oxygen, and similar
//! vitals into the platform, with AR surfacing alerts in-situ. Real EHR
//! and wearable corpora are gated, so [`VitalsGenerator`] synthesises
//! per-patient streams — circadian baseline plus noise — and injects
//! labelled anomaly episodes (tachycardia, desaturation, fever) whose
//! detection latency and recall experiment E9 measures.

use rand::Rng;

use crate::clock::Timestamp;

/// The vital signs the generator models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VitalSign {
    /// Heart rate, beats per minute.
    HeartRate,
    /// Peripheral oxygen saturation, percent.
    SpO2,
    /// Body temperature, °C.
    Temperature,
}

impl VitalSign {
    /// All modelled signs.
    pub const ALL: [VitalSign; 3] = [
        VitalSign::HeartRate,
        VitalSign::SpO2,
        VitalSign::Temperature,
    ];

    /// Healthy resting baseline for the sign.
    pub fn baseline(&self) -> f64 {
        match self {
            VitalSign::HeartRate => 70.0,
            VitalSign::SpO2 => 97.5,
            VitalSign::Temperature => 36.8,
        }
    }

    /// Measurement noise standard deviation.
    pub fn noise_sigma(&self) -> f64 {
        match self {
            VitalSign::HeartRate => 2.0,
            VitalSign::SpO2 => 0.5,
            VitalSign::Temperature => 0.1,
        }
    }

    /// The (low, high) alerting thresholds clinicians would configure.
    pub fn alert_range(&self) -> (f64, f64) {
        match self {
            VitalSign::HeartRate => (45.0, 115.0),
            VitalSign::SpO2 => (92.0, 100.5),
            VitalSign::Temperature => (35.0, 38.2),
        }
    }
}

impl std::fmt::Display for VitalSign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            VitalSign::HeartRate => "heart-rate",
            VitalSign::SpO2 => "spo2",
            VitalSign::Temperature => "temperature",
        };
        f.write_str(s)
    }
}

/// Kinds of injected anomaly episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// Sustained elevated heart rate.
    Tachycardia,
    /// Sustained depressed SpO₂.
    Desaturation,
    /// Sustained elevated temperature.
    Fever,
}

impl AnomalyKind {
    /// The sign this anomaly perturbs.
    pub fn sign(&self) -> VitalSign {
        match self {
            AnomalyKind::Tachycardia => VitalSign::HeartRate,
            AnomalyKind::Desaturation => VitalSign::SpO2,
            AnomalyKind::Fever => VitalSign::Temperature,
        }
    }

    /// Offset applied to the baseline during the episode.
    pub fn offset(&self) -> f64 {
        match self {
            AnomalyKind::Tachycardia => 55.0,
            AnomalyKind::Desaturation => -8.0,
            AnomalyKind::Fever => 2.2,
        }
    }
}

/// One vitals sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VitalsSample {
    /// Sample time.
    pub time: Timestamp,
    /// Patient index within the cohort.
    pub patient: u32,
    /// Which sign was measured.
    pub sign: VitalSign,
    /// Measured value.
    pub value: f64,
    /// Ground-truth label: inside an injected anomaly episode.
    pub in_anomaly: bool,
}

/// A labelled anomaly episode in a generated stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Episode {
    /// Patient index.
    pub patient: u32,
    /// Episode kind.
    pub kind: AnomalyKind,
    /// Episode start.
    pub start: Timestamp,
    /// Episode end (exclusive).
    pub end: Timestamp,
}

/// Parameters for [`VitalsGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct VitalsParams {
    /// Number of patients in the cohort.
    pub patients: u32,
    /// Sample period per sign, seconds.
    pub period_s: f64,
    /// Total duration, seconds.
    pub duration_s: f64,
    /// Expected anomaly episodes per patient over the duration.
    pub episodes_per_patient: f64,
    /// Episode length, seconds.
    pub episode_length_s: f64,
    /// Circadian swing amplitude as a fraction of baseline.
    pub circadian_amplitude: f64,
    /// Probability per sample of a single-sample motion artifact — the
    /// large transient spikes real wearables produce when the sensor
    /// shifts. Artifacts are *not* labelled anomalous; detectors must
    /// ride through them (the m-of-n confirmation knob, experiment E9).
    pub artifact_probability: f64,
}

impl Default for VitalsParams {
    fn default() -> Self {
        VitalsParams {
            patients: 10,
            period_s: 1.0,
            duration_s: 3600.0,
            episodes_per_patient: 2.0,
            episode_length_s: 120.0,
            circadian_amplitude: 0.05,
            artifact_probability: 0.002,
        }
    }
}

/// Generates a cohort's vitals streams with labelled anomalies.
#[derive(Debug, Clone)]
pub struct VitalsGenerator {
    params: VitalsParams,
}

impl VitalsGenerator {
    /// Creates a generator.
    pub fn new(params: VitalsParams) -> Self {
        VitalsGenerator { params }
    }

    /// Generates samples (time-ordered) and the episode ground truth.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> (Vec<VitalsSample>, Vec<Episode>) {
        let p = &self.params;
        let kinds = [
            AnomalyKind::Tachycardia,
            AnomalyKind::Desaturation,
            AnomalyKind::Fever,
        ];
        // Plan episodes per patient.
        let mut episodes = Vec::new();
        for patient in 0..p.patients {
            let n = poisson_knuth(rng, p.episodes_per_patient);
            for _ in 0..n {
                let start_s = rng.gen_range(0.0..(p.duration_s - p.episode_length_s).max(1.0));
                let kind = kinds[rng.gen_range(0..kinds.len())];
                episodes.push(Episode {
                    patient,
                    kind,
                    start: Timestamp::from_secs_f64(start_s),
                    end: Timestamp::from_secs_f64(start_s + p.episode_length_s),
                });
            }
        }
        // Emit samples.
        let steps = (p.duration_s / p.period_s) as u64;
        let mut samples = Vec::new();
        for step in 0..steps {
            let t = Timestamp::from_secs_f64(step as f64 * p.period_s);
            for patient in 0..p.patients {
                for sign in VitalSign::ALL {
                    let circadian = sign.baseline()
                        * p.circadian_amplitude
                        * (std::f64::consts::TAU * t.as_secs_f64() / 86_400.0).sin();
                    let episode = episodes.iter().find(|e| {
                        e.patient == patient && e.kind.sign() == sign && t >= e.start && t < e.end
                    });
                    let offset = episode.map(|e| e.kind.offset()).unwrap_or(0.0);
                    let noise = normal(rng) * sign.noise_sigma();
                    let artifact = if rng.gen_bool(p.artifact_probability) {
                        let magnitude = rng.gen_range(8.0f64..30.0) * sign.noise_sigma();
                        if rng.gen_bool(0.5) {
                            magnitude
                        } else {
                            -magnitude
                        }
                    } else {
                        0.0
                    };
                    samples.push(VitalsSample {
                        time: t,
                        patient,
                        sign,
                        value: sign.baseline() + circadian + offset + noise + artifact,
                        in_anomaly: episode.is_some(),
                    });
                }
            }
        }
        (samples, episodes)
    }
}

fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn poisson_knuth<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u32 {
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0);
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k; // guard against pathological lambda
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    #[test]
    fn generates_expected_sample_count() {
        let params = VitalsParams {
            patients: 3,
            period_s: 1.0,
            duration_s: 60.0,
            ..Default::default()
        };
        let (samples, _) = VitalsGenerator::new(params).generate(&mut rng());
        assert_eq!(samples.len(), 60 * 3 * 3); // steps × patients × signs
    }

    #[test]
    fn healthy_samples_stay_in_alert_range() {
        let params = VitalsParams {
            patients: 2,
            duration_s: 600.0,
            episodes_per_patient: 0.0,
            ..Default::default()
        };
        let (samples, episodes) = VitalsGenerator::new(params).generate(&mut rng());
        assert!(episodes.is_empty());
        let out_of_range = samples
            .iter()
            .filter(|s| {
                let (lo, hi) = s.sign.alert_range();
                s.value < lo || s.value > hi
            })
            .count();
        // Gaussian tails allow rare excursions only.
        assert!(
            (out_of_range as f64) < samples.len() as f64 * 0.01,
            "{out_of_range}/{} out of range",
            samples.len()
        );
    }

    #[test]
    fn anomalies_breach_thresholds() {
        let params = VitalsParams {
            patients: 5,
            duration_s: 1200.0,
            episodes_per_patient: 3.0,
            episode_length_s: 120.0,
            ..Default::default()
        };
        let (samples, episodes) = VitalsGenerator::new(params).generate(&mut rng());
        assert!(!episodes.is_empty());
        // During a tachycardia episode heart-rate samples must mostly
        // breach the high threshold.
        let in_episode: Vec<&VitalsSample> = samples
            .iter()
            .filter(|s| s.in_anomaly && s.sign == VitalSign::HeartRate)
            .collect();
        if !in_episode.is_empty() {
            let breaching = in_episode
                .iter()
                .filter(|s| s.value > s.sign.alert_range().1)
                .count();
            assert!(
                breaching as f64 > in_episode.len() as f64 * 0.9,
                "{breaching}/{}",
                in_episode.len()
            );
        }
    }

    #[test]
    fn labels_match_episode_windows() {
        let params = VitalsParams {
            patients: 4,
            duration_s: 900.0,
            episodes_per_patient: 2.0,
            ..Default::default()
        };
        let (samples, episodes) = VitalsGenerator::new(params).generate(&mut rng());
        for s in &samples {
            let inside = episodes.iter().any(|e| {
                e.patient == s.patient
                    && e.kind.sign() == s.sign
                    && s.time >= e.start
                    && s.time < e.end
            });
            assert_eq!(s.in_anomaly, inside);
        }
    }

    #[test]
    fn samples_are_time_ordered() {
        let (samples, _) = VitalsGenerator::new(VitalsParams {
            duration_s: 120.0,
            ..Default::default()
        })
        .generate(&mut rng());
        for w in samples.windows(2) {
            assert!(w[1].time >= w[0].time);
        }
    }

    #[test]
    fn poisson_mean_is_roughly_lambda() {
        let mut r = rng();
        let n = 2000;
        let total: u32 = (0..n).map(|_| poisson_knuth(&mut r, 3.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.2, "mean {mean}");
    }
}
