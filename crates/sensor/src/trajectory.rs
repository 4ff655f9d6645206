//! Ground-truth motion models.
//!
//! Trajectories produce the *true* [`MotionState`] that sensors then
//! corrupt. Three generators cover the mobility regimes the paper's
//! scenarios need: [`RandomWaypoint`] (pedestrians in open space),
//! [`RoadGridWalk`] (vehicles and pedestrians constrained to streets, for
//! the VANET experiment), and [`LevyFlight`] (human mobility with
//! heavy-tailed jumps, following González, Hidalgo & Barabási — the
//! paper's reference \[9\] — whose re-identification findings experiment
//! E11 reproduces).

use rand::Rng;

use augur_geo::{Enu, RoadGrid};

use crate::clock::Timestamp;

/// Instantaneous kinematic ground truth in a local ENU frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MotionState {
    /// Time of validity.
    pub time: Timestamp,
    /// Position, metres ENU.
    pub position: Enu,
    /// Velocity, metres/second ENU.
    pub velocity: Enu,
    /// Heading in degrees clockwise from north.
    pub heading_deg: f64,
}

/// A source of ground-truth motion sampled at fixed steps.
///
/// Implementations are deterministic given their seed; stepping twice
/// yields the continuation of the same path.
pub trait Trajectory {
    /// Advances by `dt_s` seconds and returns the new state.
    fn step(&mut self, dt_s: f64) -> MotionState;

    /// The current state without advancing.
    fn state(&self) -> MotionState;

    /// Samples the trajectory at `hz` for `duration_s` seconds.
    fn sample(&mut self, hz: f64, duration_s: f64) -> Vec<MotionState>
    where
        Self: Sized,
    {
        let dt = 1.0 / hz;
        let n = (duration_s * hz).round() as usize;
        (0..n).map(|_| self.step(dt)).collect()
    }
}

/// Shared parameters for the walkers.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryParams {
    /// Half-width of the square roaming area, metres.
    pub half_extent_m: f64,
    /// Walking/driving speed in metres/second.
    pub speed_mps: f64,
    /// Pause time at waypoints, seconds.
    pub pause_s: f64,
}

impl Default for TrajectoryParams {
    fn default() -> Self {
        TrajectoryParams {
            half_extent_m: 1000.0,
            speed_mps: 1.4, // typical walking speed
            pause_s: 2.0,
        }
    }
}

fn heading_of(v: Enu) -> f64 {
    if v.east == 0.0 && v.north == 0.0 {
        0.0
    } else {
        (v.east.atan2(v.north).to_degrees() + 360.0) % 360.0
    }
}

/// The classic random-waypoint mobility model: pick a uniform waypoint,
/// travel to it at constant speed, pause, repeat.
#[derive(Debug, Clone)]
pub struct RandomWaypoint<R: Rng> {
    params: TrajectoryParams,
    rng: R,
    state: MotionState,
    target: Enu,
    pausing_s: f64,
}

impl<R: Rng> RandomWaypoint<R> {
    /// Creates a walker starting at the origin.
    pub fn new(params: TrajectoryParams, mut rng: R) -> Self {
        let target = Enu::new(
            rng.gen_range(-params.half_extent_m..=params.half_extent_m),
            rng.gen_range(-params.half_extent_m..=params.half_extent_m),
            0.0,
        );
        RandomWaypoint {
            params,
            rng,
            state: MotionState::default(),
            target,
            pausing_s: 0.0,
        }
    }
}

impl<R: Rng> Trajectory for RandomWaypoint<R> {
    fn step(&mut self, dt_s: f64) -> MotionState {
        let t = self.state.time + std::time::Duration::from_secs_f64(dt_s);
        if self.pausing_s > 0.0 {
            self.pausing_s -= dt_s;
            self.state.time = t;
            self.state.velocity = Enu::default();
            return self.state;
        }
        let to_target = Enu::new(
            self.target.east - self.state.position.east,
            self.target.north - self.state.position.north,
            0.0,
        );
        let dist = to_target.horizontal_norm();
        let step = self.params.speed_mps * dt_s;
        if dist <= step {
            self.state.position = self.target;
            self.pausing_s = self.params.pause_s;
            self.target = Enu::new(
                self.rng
                    .gen_range(-self.params.half_extent_m..=self.params.half_extent_m),
                self.rng
                    .gen_range(-self.params.half_extent_m..=self.params.half_extent_m),
                0.0,
            );
            self.state.velocity = Enu::default();
        } else {
            let scale = step / dist;
            let v = Enu::new(
                to_target.east / dist * self.params.speed_mps,
                to_target.north / dist * self.params.speed_mps,
                0.0,
            );
            self.state.position = Enu::new(
                self.state.position.east + to_target.east * scale,
                self.state.position.north + to_target.north * scale,
                0.0,
            );
            self.state.velocity = v;
            self.state.heading_deg = heading_of(v);
        }
        self.state.time = t;
        self.state
    }

    fn state(&self) -> MotionState {
        self.state
    }
}

/// A walker constrained to a street grid: proceeds along a street, turns
/// at intersections with configurable probability. Used by the VANET
/// experiment (E10), where vehicles follow roads.
#[derive(Debug, Clone)]
pub struct RoadGridWalk<R: Rng> {
    roads: RoadGrid,
    speed_mps: f64,
    turn_probability: f64,
    rng: R,
    state: MotionState,
    direction: (f64, f64), // unit vector along a street axis
    half_extent_m: f64,
}

impl<R: Rng> RoadGridWalk<R> {
    /// Creates a walker at the street intersection nearest the origin.
    pub fn new(
        roads: RoadGrid,
        speed_mps: f64,
        turn_probability: f64,
        half_extent_m: f64,
        mut rng: R,
    ) -> Self {
        let (e, n) = roads.nearest_intersection(0.0, 0.0);
        let dirs = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)];
        let direction = dirs[rng.gen_range(0..4usize)];
        RoadGridWalk {
            roads,
            speed_mps,
            turn_probability,
            rng,
            state: MotionState {
                position: Enu::new(e, n, 0.0),
                ..MotionState::default()
            },
            direction,
            half_extent_m,
        }
    }

    fn at_intersection(&self) -> bool {
        let p = self.state.position;
        let (e, n) = self.roads.nearest_intersection(p.east, p.north);
        ((p.east - e).powi(2) + (p.north - n).powi(2)).sqrt() < self.speed_mps * 0.5
    }
}

impl<R: Rng> Trajectory for RoadGridWalk<R> {
    fn step(&mut self, dt_s: f64) -> MotionState {
        let t = self.state.time + std::time::Duration::from_secs_f64(dt_s);
        // Turn or reverse at intersections.
        if self.at_intersection() && self.rng.gen_bool(self.turn_probability) {
            let dirs = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)];
            self.direction = dirs[self.rng.gen_range(0..4usize)];
        }
        let step = self.speed_mps * dt_s;
        let mut e = self.state.position.east + self.direction.0 * step;
        let mut n = self.state.position.north + self.direction.1 * step;
        // Bounce at the area boundary.
        if e.abs() > self.half_extent_m {
            self.direction.0 = -self.direction.0;
            e = e.clamp(-self.half_extent_m, self.half_extent_m);
        }
        if n.abs() > self.half_extent_m {
            self.direction.1 = -self.direction.1;
            n = n.clamp(-self.half_extent_m, self.half_extent_m);
        }
        let v = Enu::new(
            self.direction.0 * self.speed_mps,
            self.direction.1 * self.speed_mps,
            0.0,
        );
        self.state = MotionState {
            time: t,
            position: Enu::new(e, n, 0.0),
            velocity: v,
            heading_deg: heading_of(v),
        };
        self.state
    }

    fn state(&self) -> MotionState {
        self.state
    }
}

/// Heavy-tailed human mobility: jump lengths follow a truncated power law
/// (Lévy flight), with pauses at destinations. González et al. showed
/// such trajectories are highly identifying — the basis of experiment
/// E11's re-identification attack.
#[derive(Debug, Clone)]
pub struct LevyFlight<R: Rng> {
    params: TrajectoryParams,
    /// Power-law exponent for jump lengths (β ≈ 1.75 in the Nature paper).
    beta: f64,
    min_jump_m: f64,
    rng: R,
    state: MotionState,
    target: Enu,
    pausing_s: f64,
}

impl<R: Rng> LevyFlight<R> {
    /// Creates a Lévy walker starting at the origin with exponent `beta`.
    pub fn new(params: TrajectoryParams, beta: f64, rng: R) -> Self {
        let mut walker = LevyFlight {
            params,
            beta,
            min_jump_m: 10.0,
            rng,
            state: MotionState::default(),
            target: Enu::default(),
            pausing_s: 0.0,
        };
        walker.target = walker.pick_target();
        walker
    }

    fn pick_target(&mut self) -> Enu {
        // Inverse-CDF sample of a truncated power law on jump length:
        // p(l) ∝ l^{-beta}, l in [min_jump, max_jump].
        let max_jump = self.params.half_extent_m;
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let a = self.min_jump_m.powf(1.0 - self.beta);
        let b = max_jump.powf(1.0 - self.beta);
        let len = (a + u * (b - a)).powf(1.0 / (1.0 - self.beta));
        let angle: f64 = self.rng.gen_range(0.0..std::f64::consts::TAU);
        let p = self.state.position;
        Enu::new(
            (p.east + len * angle.cos()).clamp(-max_jump, max_jump),
            (p.north + len * angle.sin()).clamp(-max_jump, max_jump),
            0.0,
        )
    }
}

impl<R: Rng> Trajectory for LevyFlight<R> {
    fn step(&mut self, dt_s: f64) -> MotionState {
        let t = self.state.time + std::time::Duration::from_secs_f64(dt_s);
        if self.pausing_s > 0.0 {
            self.pausing_s -= dt_s;
            self.state.time = t;
            self.state.velocity = Enu::default();
            return self.state;
        }
        let to_target = Enu::new(
            self.target.east - self.state.position.east,
            self.target.north - self.state.position.north,
            0.0,
        );
        let dist = to_target.horizontal_norm();
        let step = self.params.speed_mps * dt_s;
        if dist <= step {
            self.state.position = self.target;
            self.pausing_s = self.params.pause_s;
            self.target = self.pick_target();
            self.state.velocity = Enu::default();
        } else {
            let v = Enu::new(
                to_target.east / dist * self.params.speed_mps,
                to_target.north / dist * self.params.speed_mps,
                0.0,
            );
            self.state.position = Enu::new(
                self.state.position.east + v.east * dt_s,
                self.state.position.north + v.north * dt_s,
                0.0,
            );
            self.state.velocity = v;
            self.state.heading_deg = heading_of(v);
        }
        self.state.time = t;
        self.state
    }

    fn state(&self) -> MotionState {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(5)
    }

    #[test]
    fn random_waypoint_stays_in_bounds_and_moves() {
        let params = TrajectoryParams {
            half_extent_m: 100.0,
            speed_mps: 2.0,
            pause_s: 0.5,
        };
        let mut w = RandomWaypoint::new(params, rng());
        let samples = w.sample(10.0, 120.0);
        assert_eq!(samples.len(), 1200);
        let mut moved = 0.0;
        let mut prev = samples[0].position;
        for s in &samples {
            assert!(s.position.east.abs() <= 100.0 + 1e-9);
            assert!(s.position.north.abs() <= 100.0 + 1e-9);
            moved += s.position.distance(prev);
            prev = s.position;
        }
        assert!(moved > 50.0, "walker should cover ground, got {moved}");
    }

    #[test]
    fn random_waypoint_speed_bounded() {
        let params = TrajectoryParams {
            half_extent_m: 500.0,
            speed_mps: 1.5,
            pause_s: 0.0,
        };
        let mut w = RandomWaypoint::new(params, rng());
        let samples = w.sample(5.0, 60.0);
        let mut prev = samples[0];
        for s in samples.iter().skip(1) {
            let d = s.position.distance(prev.position);
            assert!(d <= 1.5 * 0.2 + 1e-6, "step too large: {d}");
            prev = *s;
        }
    }

    #[test]
    fn timestamps_advance_monotonically() {
        let mut w = RandomWaypoint::new(TrajectoryParams::default(), rng());
        let samples = w.sample(30.0, 5.0);
        for pair in samples.windows(2) {
            assert!(pair[1].time > pair[0].time);
        }
    }

    #[test]
    fn road_grid_walk_stays_on_streets() {
        use augur_geo::{CityModel, CityParams};
        let city = CityModel::generate(&CityParams::default(), &mut rng());
        let mut w = RoadGridWalk::new(city.roads().clone(), 10.0, 0.3, 400.0, rng());
        let samples = w.sample(2.0, 300.0);
        let on_street = samples
            .iter()
            .filter(|s| city.roads().on_street(s.position.east, s.position.north))
            .count();
        // The walker follows centrelines; allow slack for boundary bounces.
        assert!(
            on_street as f64 >= samples.len() as f64 * 0.9,
            "only {on_street}/{} samples on street",
            samples.len()
        );
    }

    #[test]
    fn levy_flight_has_heavy_tailed_jumps() {
        let params = TrajectoryParams {
            half_extent_m: 5000.0,
            speed_mps: 1e9, // effectively teleport per step: isolates jumps
            pause_s: 0.0,
        };
        let mut w = LevyFlight::new(params, 1.75, rng());
        let mut jumps = Vec::new();
        let mut prev = w.state().position;
        for _ in 0..2000 {
            let s = w.step(1.0);
            let d = s.position.distance(prev);
            if d > 0.0 {
                jumps.push(d);
            }
            prev = s.position;
        }
        assert!(jumps.len() > 100);
        jumps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = jumps[jumps.len() / 2];
        let p99 = jumps[jumps.len() * 99 / 100];
        // Heavy tail: 99th percentile far exceeds the median.
        assert!(
            p99 > median * 5.0,
            "tail not heavy: median {median}, p99 {p99}"
        );
    }

    #[test]
    fn levy_flight_stays_in_bounds() {
        let params = TrajectoryParams {
            half_extent_m: 300.0,
            speed_mps: 50.0,
            pause_s: 0.1,
        };
        let mut w = LevyFlight::new(params, 1.6, rng());
        for _ in 0..5000 {
            let s = w.step(0.5);
            assert!(s.position.east.abs() <= 300.0 + 1e-9);
            assert!(s.position.north.abs() <= 300.0 + 1e-9);
        }
    }
}
