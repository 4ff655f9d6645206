//! Frame-budget accounting and level of detail.
//!
//! Azuma's second requirement — "interactive in real time" — translates
//! to a hard per-frame budget (33 ms at 30 Hz). [`FrameBudget`] tracks
//! how pipeline stages spend it; [`LodLevel`] trades render cost against
//! distance so the budget survives dense scenes.

/// One stage's share of a frame.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name ("track", "analytics", "layout", "occlusion"...).
    pub stage: String,
    /// Time spent, microseconds.
    pub micros: u64,
}

/// Accounts one frame against a budget.
///
/// # Example
///
/// ```
/// use augur_render::FrameBudget;
///
/// let mut frame = FrameBudget::for_fps(30.0);
/// frame.record("track", 2_000);
/// frame.record("layout", 5_000);
/// assert!(frame.within_budget());
/// assert_eq!(frame.spent_micros(), 7_000);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrameBudget {
    budget_micros: u64,
    stages: Vec<StageTiming>,
}

impl FrameBudget {
    /// A budget for the given frame rate.
    pub fn for_fps(fps: f64) -> Self {
        assert!(fps > 0.0, "fps must be positive");
        FrameBudget {
            budget_micros: (1e6 / fps) as u64,
            stages: Vec::new(),
        }
    }

    /// The total budget in microseconds.
    pub fn budget_micros(&self) -> u64 {
        self.budget_micros
    }

    /// Records a stage's cost.
    pub fn record(&mut self, stage: &str, micros: u64) {
        self.stages.push(StageTiming {
            stage: stage.to_string(),
            micros,
        });
    }

    /// Total spent this frame.
    pub fn spent_micros(&self) -> u64 {
        self.stages.iter().map(|s| s.micros).sum()
    }

    /// Remaining budget (saturating).
    pub fn remaining_micros(&self) -> u64 {
        self.budget_micros.saturating_sub(self.spent_micros())
    }

    /// Whether the frame fits the budget.
    pub fn within_budget(&self) -> bool {
        self.spent_micros() <= self.budget_micros
    }

    /// The most expensive stage, if any.
    pub fn bottleneck(&self) -> Option<&StageTiming> {
        self.stages.iter().max_by_key(|s| s.micros)
    }

    /// Recorded stages in order.
    pub fn stages(&self) -> &[StageTiming] {
        &self.stages
    }

    /// Clears stage records for the next frame.
    pub fn reset(&mut self) {
        self.stages.clear();
    }
}

/// Render detail levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LodLevel {
    /// Full geometry + text.
    High,
    /// Simplified geometry, short text.
    Medium,
    /// Icon/dot only.
    Low,
    /// Not rendered.
    Culled,
}

impl LodLevel {
    /// Selects detail by distance with the standard thresholds: High
    /// within 50 m, Medium within 200 m, Low within `far_m`, Culled
    /// beyond.
    pub fn for_distance(distance_m: f64, far_m: f64) -> LodLevel {
        if distance_m < 0.0 || distance_m > far_m {
            LodLevel::Culled
        } else if distance_m <= 50.0 {
            LodLevel::High
        } else if distance_m <= 200.0 {
            LodLevel::Medium
        } else {
            LodLevel::Low
        }
    }

    /// Relative render cost weight (used by the frame simulator).
    pub fn cost_weight(&self) -> f64 {
        match self {
            LodLevel::High => 1.0,
            LodLevel::Medium => 0.35,
            LodLevel::Low => 0.08,
            LodLevel::Culled => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_accounting() {
        let mut f = FrameBudget::for_fps(30.0);
        assert_eq!(f.budget_micros(), 33_333);
        f.record("track", 10_000);
        f.record("layout", 20_000);
        assert!(f.within_budget());
        assert_eq!(f.remaining_micros(), 3_333);
        f.record("render", 10_000);
        assert!(!f.within_budget());
        assert_eq!(f.remaining_micros(), 0);
        assert_eq!(f.bottleneck().unwrap().stage, "layout");
        f.reset();
        assert_eq!(f.spent_micros(), 0);
        assert!(f.stages().is_empty());
    }

    #[test]
    #[should_panic(expected = "fps must be positive")]
    fn zero_fps_rejected() {
        let _ = FrameBudget::for_fps(0.0);
    }

    #[test]
    fn lod_thresholds() {
        assert_eq!(LodLevel::for_distance(10.0, 1000.0), LodLevel::High);
        assert_eq!(LodLevel::for_distance(50.0, 1000.0), LodLevel::High);
        assert_eq!(LodLevel::for_distance(120.0, 1000.0), LodLevel::Medium);
        assert_eq!(LodLevel::for_distance(500.0, 1000.0), LodLevel::Low);
        assert_eq!(LodLevel::for_distance(1500.0, 1000.0), LodLevel::Culled);
        assert_eq!(LodLevel::for_distance(-1.0, 1000.0), LodLevel::Culled);
    }

    #[test]
    fn lod_cost_is_monotone() {
        assert!(LodLevel::High.cost_weight() > LodLevel::Medium.cost_weight());
        assert!(LodLevel::Medium.cost_weight() > LodLevel::Low.cost_weight());
        assert!(LodLevel::Low.cost_weight() > LodLevel::Culled.cost_weight());
    }
}
