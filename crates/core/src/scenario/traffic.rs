//! Public-services traffic scenario (§3.4, experiment E10).
//!
//! Vehicles drive a grid city sharing (position, velocity) beacons over
//! a lossy VANET channel at a configurable period. Each vehicle
//! extrapolates the last beacon it heard from every neighbour and warns
//! when the predicted closest approach falls under a threshold — the
//! AR windshield "watch for vehicles in your blind spot" display. The
//! report scores warning lead time and false alarms against the
//! ground-truth near-miss events.

use std::collections::HashMap;

use rand::{Rng, SeedableRng};

use augur_telemetry::log::Arg;
use augur_telemetry::Obs;
use augur_telemetry::{ManualTime, TimeSource, TraceContext};

use augur_geo::{CityModel, CityParams, Enu};
use augur_sensor::{RoadGridWalk, Trajectory};

use crate::error::CoreError;

/// Parameters for the traffic scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficParams {
    /// Number of vehicles.
    pub vehicles: usize,
    /// Simulation duration, seconds.
    pub duration_s: f64,
    /// Simulation step, seconds.
    pub dt_s: f64,
    /// Beacon sharing period, seconds.
    pub share_period_s: f64,
    /// Per-beacon loss probability.
    pub loss: f64,
    /// Near-miss distance threshold, metres.
    pub warn_threshold_m: f64,
    /// Prediction horizon, seconds.
    pub horizon_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrafficParams {
    fn default() -> Self {
        TrafficParams {
            vehicles: 60,
            duration_s: 120.0,
            dt_s: 0.2,
            share_period_s: 0.5,
            loss: 0.05,
            warn_threshold_m: 12.0,
            horizon_s: 4.0,
            seed: 41,
        }
    }
}

/// Results of the traffic scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// Ground-truth near-miss events (pair entered the threshold).
    pub near_misses: usize,
    /// Near-misses preceded by a warning within the horizon.
    pub warned_in_time: usize,
    /// Warning coverage (warned / near-misses).
    pub coverage: f64,
    /// Mean warning lead time, seconds (over warned events).
    pub mean_lead_time_s: f64,
    /// Warnings that never materialised into a near miss.
    pub false_alarms: usize,
    /// False-alarm ratio over all warnings.
    pub false_alarm_ratio: f64,
    /// Beacons actually delivered.
    pub beacons_delivered: u64,
    /// Beacons lost to the channel.
    pub beacons_lost: u64,
}

#[derive(Debug, Clone, Copy)]
struct Beacon {
    t_s: f64,
    position: Enu,
    velocity: Enu,
}

fn predicted_min_distance(a: &Beacon, b: &Beacon, now_s: f64, horizon_s: f64) -> f64 {
    // Extrapolate both to `now`, then minimise |Δp + Δv·t| over [0, horizon].
    let pa = (
        a.position.east + a.velocity.east * (now_s - a.t_s),
        a.position.north + a.velocity.north * (now_s - a.t_s),
    );
    let pb = (
        b.position.east + b.velocity.east * (now_s - b.t_s),
        b.position.north + b.velocity.north * (now_s - b.t_s),
    );
    let dp = (pa.0 - pb.0, pa.1 - pb.1);
    let dv = (
        a.velocity.east - b.velocity.east,
        a.velocity.north - b.velocity.north,
    );
    let dv2 = dv.0 * dv.0 + dv.1 * dv.1;
    let t_star = if dv2 > 1e-12 {
        (-(dp.0 * dv.0 + dp.1 * dv.1) / dv2).clamp(0.0, horizon_s)
    } else {
        0.0
    };
    let dx = dp.0 + dv.0 * t_star;
    let dy = dp.1 + dv.1 * t_star;
    (dx * dx + dy * dy).sqrt()
}

/// Runs the scenario, reporting into `obs` (see
/// [the module docs](crate::scenario)). The registry receives the
/// per-stage breakdown (`span_duration_us{span="traffic/…"}`). With a
/// flight recorder, a root span covers the run with `traffic/setup`,
/// `traffic/simulate` and `traffic/score` as children. With an event
/// log, each collision warning a windshield display raises gets a
/// rate-limited WARN (`traffic/warning_raised`), and the run closes with
/// an INFO (`traffic/summary`). With a cycle sink, the setup stage
/// ticks it and every simulation step is one observed cycle.
///
/// # Errors
///
/// [`CoreError::InvalidScenario`] for degenerate parameters.
pub fn run(params: &TrafficParams, obs: &Obs) -> Result<TrafficReport, CoreError> {
    if params.vehicles < 2 {
        return Err(CoreError::InvalidScenario("need at least two vehicles"));
    }
    if params.dt_s <= 0.0 || params.duration_s <= 0.0 || params.share_period_s <= 0.0 {
        return Err(CoreError::InvalidScenario(
            "time parameters must be positive",
        ));
    }
    if !(0.0..1.0).contains(&params.loss) {
        return Err(CoreError::InvalidScenario("loss must be in [0, 1)"));
    }
    let clock = ManualTime::shared();
    let so = super::ScenarioObs::start(obs, "traffic", params.seed, &clock);
    let setup = so.stage("traffic/setup");
    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
    let city = CityModel::generate(&CityParams::default(), &mut rng);
    let half_extent = city.extent().max_x();
    let mut walkers: Vec<RoadGridWalk<rand::rngs::StdRng>> = (0..params.vehicles)
        .map(|i| {
            let speed = rng.gen_range(8.0..16.0);
            RoadGridWalk::new(
                city.roads().clone(),
                speed,
                0.4,
                half_extent,
                rand::rngs::StdRng::seed_from_u64(params.seed ^ (i as u64 + 100)),
            )
        })
        .collect();
    // Scatter starting phases so vehicles don't all begin at the centre.
    for (i, w) in walkers.iter_mut().enumerate() {
        for _ in 0..(i * 7) % 200 {
            w.step(params.dt_s);
        }
    }
    clock.advance_micros(params.vehicles as u64);
    setup.end_tick();

    let simulate = so.stage("traffic/simulate");
    let steps = (params.duration_s / params.dt_s) as usize;
    let n = params.vehicles;
    let mut last_heard: Vec<HashMap<usize, Beacon>> = vec![HashMap::new(); n];
    let mut warned_at: HashMap<(usize, usize), f64> = HashMap::new(); // active warnings
    let mut warnings: Vec<((usize, usize), f64)> = Vec::new(); // all raised
    let mut in_near_miss: HashMap<(usize, usize), bool> = HashMap::new();
    let mut near_miss_events: Vec<((usize, usize), f64)> = Vec::new();
    let mut beacons_delivered = 0u64;
    let mut beacons_lost = 0u64;
    let share_every = (params.share_period_s / params.dt_s).round().max(1.0) as usize;

    let mut states: Vec<augur_sensor::MotionState> = walkers.iter().map(|w| w.state()).collect();
    for step in 0..steps {
        let now_s = step as f64 * params.dt_s;
        let step_t0 = clock.now_micros();
        let beacons_before = beacons_delivered + beacons_lost;
        for (state, w) in states.iter_mut().zip(walkers.iter_mut()) {
            *state = w.step(params.dt_s);
        }
        // Broadcast beacons. (Pairwise index loops are the natural shape
        // here — every ordered (i, j) pair is a distinct channel.)
        #[allow(clippy::needless_range_loop)]
        if step % share_every == 0 {
            for i in 0..n {
                let beacon = Beacon {
                    t_s: now_s,
                    position: states[i].position,
                    velocity: states[i].velocity,
                };
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    if rng.gen_bool(params.loss) {
                        beacons_lost += 1;
                    } else {
                        beacons_delivered += 1;
                        last_heard[j].insert(i, beacon);
                    }
                }
            }
        }
        // Warnings from received state; ground truth from true state.
        for i in 0..n {
            for j in (i + 1)..n {
                let pair = (i, j);
                // Ground truth near miss (rising edge).
                let de = states[i].position.east - states[j].position.east;
                let dn = states[i].position.north - states[j].position.north;
                let true_d = (de * de + dn * dn).sqrt();
                let was_in = in_near_miss.get(&pair).copied().unwrap_or(false);
                if true_d < params.warn_threshold_m && !was_in {
                    in_near_miss.insert(pair, true);
                    near_miss_events.push((pair, now_s));
                } else if true_d >= params.warn_threshold_m * 1.5 && was_in {
                    in_near_miss.insert(pair, false);
                }
                // Prediction from what vehicle i heard about j.
                if let Some(bj) = last_heard[i].get(&j) {
                    let bi = Beacon {
                        t_s: now_s,
                        position: states[i].position,
                        velocity: states[i].velocity,
                    };
                    let pred = predicted_min_distance(&bi, bj, now_s, params.horizon_s);
                    let active = warned_at.contains_key(&pair);
                    if pred < params.warn_threshold_m && !active {
                        warned_at.insert(pair, now_s);
                        warnings.push((pair, now_s));
                        so.warn(
                            "traffic/warning_raised",
                            &[
                                ("vehicle", Arg::U64(i as u64)),
                                ("neighbour", Arg::U64(j as u64)),
                                ("predicted_m", Arg::F64(pred)),
                            ],
                        );
                    } else if pred >= params.warn_threshold_m * 2.0 && active {
                        warned_at.remove(&pair);
                    }
                }
            }
        }
        // One work unit per beacon sent this step; advancing inside the
        // loop (same stage total as a bulk advance) lets a cycle sink
        // observe each simulation step as a cycle. Each step gets its own
        // deterministic trace root (tagged so step ids never collide with
        // other roots), so the cycle histogram can pin an exemplar trace
        // per bucket.
        clock.advance_micros(beacons_delivered + beacons_lost - beacons_before);
        let step_ctx = TraceContext::root(params.seed, 0x7374_6570_0000_0000 | step as u64);
        so.cycle(step_t0, step_ctx);
    }

    simulate.end();

    // Score: a near miss is covered if a warning for the pair was raised
    // within [event - horizon, event]; a warning is a false alarm if no
    // near miss for the pair occurred within horizon after it.
    let score = so.stage("traffic/score");
    let mut warned_in_time = 0usize;
    let mut lead_times = Vec::new();
    for (pair, t_event) in &near_miss_events {
        let best = warnings
            .iter()
            .filter(|(p, tw)| p == pair && *tw <= *t_event && *tw >= t_event - params.horizon_s)
            .map(|(_, tw)| t_event - tw)
            .fold(f64::NEG_INFINITY, f64::max);
        if best.is_finite() {
            warned_in_time += 1;
            lead_times.push(best);
        }
    }
    let false_alarms = warnings
        .iter()
        .filter(|(pair, tw)| {
            !near_miss_events
                .iter()
                .any(|(p, te)| p == pair && *te >= *tw && *te <= tw + params.horizon_s)
        })
        .count();
    let mean_lead = if lead_times.is_empty() {
        0.0
    } else {
        lead_times.iter().sum::<f64>() / lead_times.len() as f64
    };
    clock.advance_micros((warnings.len() + near_miss_events.len()) as u64);
    score.end();
    so.finish();
    so.info(
        "traffic/summary",
        &[
            ("near_misses", Arg::U64(near_miss_events.len() as u64)),
            ("warned_in_time", Arg::U64(warned_in_time as u64)),
            ("false_alarms", Arg::U64(false_alarms as u64)),
            ("beacons_lost", Arg::U64(beacons_lost)),
        ],
    );
    Ok(TrafficReport {
        near_misses: near_miss_events.len(),
        warned_in_time,
        coverage: if near_miss_events.is_empty() {
            1.0
        } else {
            warned_in_time as f64 / near_miss_events.len() as f64
        },
        mean_lead_time_s: mean_lead,
        false_alarms,
        false_alarm_ratio: if warnings.is_empty() {
            0.0
        } else {
            false_alarms as f64 / warnings.len() as f64
        },
        beacons_delivered,
        beacons_lost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TrafficParams {
        TrafficParams {
            vehicles: 30,
            duration_s: 60.0,
            ..Default::default()
        }
    }

    #[test]
    fn produces_near_misses_and_warnings() {
        let r = run(&small(), &Obs::default()).unwrap();
        assert!(r.near_misses > 0, "grid traffic should produce near misses");
        assert!(r.warned_in_time > 0);
        assert!(r.coverage > 0.5, "coverage {}", r.coverage);
        assert!(r.mean_lead_time_s > 0.0);
    }

    #[test]
    fn loss_accounting_matches_probability() {
        let params = TrafficParams {
            loss: 0.3,
            ..small()
        };
        let r = run(&params, &Obs::default()).unwrap();
        let total = (r.beacons_delivered + r.beacons_lost) as f64;
        let rate = r.beacons_lost as f64 / total;
        assert!((rate - 0.3).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn sparser_sharing_degrades_coverage() {
        let dense_params = TrafficParams {
            share_period_s: 0.2,
            seed: 77,
            ..small()
        };
        let dense = run(&dense_params, &Obs::default()).unwrap();
        let sparse_params = TrafficParams {
            share_period_s: 4.0,
            seed: 77,
            ..small()
        };
        let sparse = run(&sparse_params, &Obs::default()).unwrap();
        assert!(
            sparse.coverage <= dense.coverage + 0.05,
            "sparse {} vs dense {}",
            sparse.coverage,
            dense.coverage
        );
    }

    #[test]
    fn rejects_degenerate_params() {
        let params = TrafficParams {
            vehicles: 1,
            ..small()
        };
        assert!(run(&params, &Obs::default()).is_err());
        let params = TrafficParams {
            loss: 1.0,
            ..small()
        };
        assert!(run(&params, &Obs::default()).is_err());
        let params = TrafficParams {
            dt_s: 0.0,
            ..small()
        };
        assert!(run(&params, &Obs::default()).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run(&small(), &Obs::default()).unwrap();
        let b = run(&small(), &Obs::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn instrumented_span_breakdown_is_deterministic() {
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
        for stage in ["traffic/setup", "traffic/simulate", "traffic/score"] {
            assert!(spans.contains(&stage), "missing stage span {stage}");
        }
    }

    #[test]
    fn predicted_min_distance_head_on() {
        // Two vehicles 100 m apart closing at 20 m/s: min distance ~0
        // within a 6 s horizon.
        let a = Beacon {
            t_s: 0.0,
            position: Enu::new(0.0, 0.0, 0.0),
            velocity: Enu::new(10.0, 0.0, 0.0),
        };
        let b = Beacon {
            t_s: 0.0,
            position: Enu::new(100.0, 0.0, 0.0),
            velocity: Enu::new(-10.0, 0.0, 0.0),
        };
        let d = predicted_min_distance(&a, &b, 0.0, 6.0);
        assert!(d < 1.0, "head-on predicted distance {d}");
        // Diverging: min distance is current distance.
        let c = Beacon {
            t_s: 0.0,
            position: Enu::new(100.0, 0.0, 0.0),
            velocity: Enu::new(10.0, 0.0, 0.0),
        };
        let d2 = predicted_min_distance(&a, &c, 0.0, 6.0);
        assert!((d2 - 100.0).abs() < 1e-9);
    }
}
