//! The context engine.
//!
//! AR needs to know not just *where* the user is but *what they are
//! doing* to pick the right overlays (§2.2, §3). The engine fuses the
//! tracker's pose stream into an activity classification and carries the
//! preference state that the interpretation rules consume.

use augur_semantic::UserContext;
use augur_track::Pose;

/// Coarse activity classes inferred from motion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Speed below the walking threshold.
    Stationary,
    /// Pedestrian speeds.
    Walking,
    /// Vehicle speeds.
    Driving,
}

impl Activity {
    /// Classifies from horizontal speed (m/s): < 0.3 stationary,
    /// < 3.0 walking, else driving.
    pub fn from_speed(speed_mps: f64) -> Activity {
        if speed_mps < 0.3 {
            Activity::Stationary
        } else if speed_mps < 3.0 {
            Activity::Walking
        } else {
            Activity::Driving
        }
    }

    /// The activity string used by interpretation rules.
    pub fn as_str(&self) -> &'static str {
        match self {
            Activity::Stationary => "stationary",
            Activity::Walking => "walking",
            Activity::Driving => "driving",
        }
    }
}

impl std::fmt::Display for Activity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Fuses pose updates into user context; see the module docs.
///
/// Activity uses hysteresis: a class change only commits after
/// `stable_updates` consecutive agreeing observations, so GPS noise
/// doesn't flap the interface between modes.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextEngine {
    interests: Vec<String>,
    health_monitoring: bool,
    activity: Activity,
    candidate: Activity,
    candidate_count: u32,
    stable_updates: u32,
    last_pose: Option<Pose>,
}

impl Default for ContextEngine {
    fn default() -> Self {
        Self::new(3)
    }
}

impl ContextEngine {
    /// Creates an engine requiring `stable_updates` consecutive
    /// observations before an activity switch (minimum 1).
    pub fn new(stable_updates: u32) -> Self {
        ContextEngine {
            interests: Vec::new(),
            health_monitoring: false,
            activity: Activity::Stationary,
            candidate: Activity::Stationary,
            candidate_count: 0,
            stable_updates: stable_updates.max(1),
            last_pose: None,
        }
    }

    /// Sets the user's interest tags.
    pub fn set_interests(&mut self, interests: Vec<String>) {
        self.interests = interests;
    }

    /// Enables or disables health monitoring.
    pub fn set_health_monitoring(&mut self, enabled: bool) {
        self.health_monitoring = enabled;
    }

    /// Feeds a pose update; returns the (possibly new) activity.
    pub fn update_pose(&mut self, pose: Pose) -> Activity {
        let speed = pose.velocity.horizontal_norm();
        let observed = Activity::from_speed(speed);
        if observed == self.activity {
            self.candidate_count = 0;
        } else if observed == self.candidate {
            self.candidate_count += 1;
            if self.candidate_count >= self.stable_updates {
                self.activity = observed;
                self.candidate_count = 0;
            }
        } else {
            self.candidate = observed;
            self.candidate_count = 1;
            if self.stable_updates == 1 {
                self.activity = observed;
                self.candidate_count = 0;
            }
        }
        self.last_pose = Some(pose);
        self.activity
    }

    /// Current activity.
    pub fn activity(&self) -> Activity {
        self.activity
    }

    /// Most recent pose, if any.
    pub fn pose(&self) -> Option<&Pose> {
        self.last_pose.as_ref()
    }

    /// Materialises the context the interpretation rules consume. The
    /// activity string can be overridden (e.g. "shopping" when inside a
    /// geofenced store), since semantic venues refine motion classes.
    pub fn user_context(&self, activity_override: Option<&str>) -> UserContext {
        UserContext {
            activity: activity_override
                .map(str::to_string)
                .unwrap_or_else(|| self.activity.as_str().to_string()),
            interests: self.interests.clone(),
            health_monitoring: self.health_monitoring,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_geo::Enu;
    use augur_sensor::Timestamp;

    fn pose_with_speed(speed: f64, t_ms: u64) -> Pose {
        Pose {
            time: Timestamp::from_millis(t_ms),
            position: Enu::default(),
            velocity: Enu::new(speed, 0.0, 0.0),
            heading_deg: 90.0,
        }
    }

    #[test]
    fn classification_thresholds() {
        assert_eq!(Activity::from_speed(0.1), Activity::Stationary);
        assert_eq!(Activity::from_speed(1.4), Activity::Walking);
        assert_eq!(Activity::from_speed(15.0), Activity::Driving);
    }

    #[test]
    fn hysteresis_suppresses_flapping() {
        let mut e = ContextEngine::new(3);
        // One noisy fast sample must not flip to driving.
        e.update_pose(pose_with_speed(0.0, 0));
        assert_eq!(
            e.update_pose(pose_with_speed(20.0, 100)),
            Activity::Stationary
        );
        assert_eq!(
            e.update_pose(pose_with_speed(0.0, 200)),
            Activity::Stationary
        );
        // Three consecutive walking samples switch.
        e.update_pose(pose_with_speed(1.4, 300));
        e.update_pose(pose_with_speed(1.4, 400));
        assert_eq!(e.update_pose(pose_with_speed(1.4, 500)), Activity::Walking);
        assert_eq!(e.activity(), Activity::Walking);
    }

    #[test]
    fn immediate_switch_with_one_update() {
        let mut e = ContextEngine::new(1);
        assert_eq!(e.update_pose(pose_with_speed(10.0, 0)), Activity::Driving);
    }

    #[test]
    fn context_materialisation() {
        let mut e = ContextEngine::default();
        e.set_interests(vec!["food".into()]);
        e.set_health_monitoring(true);
        let ctx = e.user_context(None);
        assert_eq!(ctx.activity, "stationary");
        assert!(ctx.health_monitoring);
        assert_eq!(ctx.interests, vec!["food".to_string()]);
        let shopping = e.user_context(Some("shopping"));
        assert_eq!(shopping.activity, "shopping");
    }

    #[test]
    fn pose_is_retained() {
        let mut e = ContextEngine::default();
        assert!(e.pose().is_none());
        e.update_pose(pose_with_speed(1.0, 42));
        assert_eq!(e.pose().unwrap().time, Timestamp::from_millis(42));
    }
}
