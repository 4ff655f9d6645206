//! Reconstruction of Figure 5's "influence circles" (experiment E1).
//!
//! The paper classifies the influence of AR × big data on various fields
//! into five qualitative levels. Here the classification is *derived*
//! from measured scenario outputs instead of asserted: each field's
//! score combines data intensity (how much data the scenario consumed),
//! analytic uplift (how much the big-data method beat its no-data
//! baseline), and real-time benefit (how much the AR delivery loop
//! improved on its naive presentation), then buckets into the paper's
//! five levels.

use crate::scenario::healthcare::HealthcareReport;
use crate::scenario::retail::RetailReport;
use crate::scenario::tourism::TourismReport;
use crate::scenario::traffic::TrafficReport;

/// The application fields of §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Field {
    /// Retail (§3.1).
    Retail,
    /// Tourism (§3.2).
    Tourism,
    /// Health care (§3.3).
    HealthCare,
    /// Public services (§3.4).
    PublicServices,
}

impl std::fmt::Display for Field {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Field::Retail => "retail",
            Field::Tourism => "tourism",
            Field::HealthCare => "health care",
            Field::PublicServices => "public services",
        };
        f.write_str(s)
    }
}

/// The paper's five influence levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InfluenceLevel {
    /// No measurable interaction.
    Absent,
    /// Marginal benefit.
    Low,
    /// Clear but bounded benefit.
    Medium,
    /// Strong benefit on a headline metric.
    High,
    /// Transformative: the scenario does not function without the pairing.
    VeryHigh,
}

impl InfluenceLevel {
    /// Buckets a normalised score in `[0, 1]`.
    pub fn from_score(score: f64) -> InfluenceLevel {
        match score {
            s if s < 0.1 => InfluenceLevel::Absent,
            s if s < 0.3 => InfluenceLevel::Low,
            s if s < 0.5 => InfluenceLevel::Medium,
            s if s < 0.75 => InfluenceLevel::High,
            _ => InfluenceLevel::VeryHigh,
        }
    }
}

impl std::fmt::Display for InfluenceLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InfluenceLevel::Absent => "absent",
            InfluenceLevel::Low => "low",
            InfluenceLevel::Medium => "medium",
            InfluenceLevel::High => "high",
            InfluenceLevel::VeryHigh => "very high",
        };
        f.write_str(s)
    }
}

/// One field's derived influence entry.
#[derive(Debug, Clone, PartialEq)]
pub struct InfluenceReport {
    /// The field.
    pub field: Field,
    /// Data-intensity component in `[0, 1]` (log-scaled volume).
    pub data_intensity: f64,
    /// Analytic-uplift component in `[0, 1]`.
    pub analytic_uplift: f64,
    /// Delivery-benefit component in `[0, 1]`.
    pub delivery_benefit: f64,
    /// Combined score in `[0, 1]`.
    pub score: f64,
    /// The bucketed level.
    pub level: InfluenceLevel,
}

fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

/// Log-scaled data volume: 10³ events ≈ 0.33, 10⁶ ≈ 0.67, 10⁹ ≈ 1.0.
fn volume_score(events: f64) -> f64 {
    clamp01(events.max(1.0).log10() / 9.0)
}

fn combine(data: f64, uplift: f64, delivery: f64) -> f64 {
    0.3 * data + 0.4 * uplift + 0.3 * delivery
}

/// Derives all four influence entries from scenario reports.
pub fn influence_report(
    retail: &RetailReport,
    tourism: &TourismReport,
    health: &HealthcareReport,
    traffic: &TrafficReport,
) -> Vec<InfluenceReport> {
    let mut out = Vec::with_capacity(4);

    // Retail: uplift = CF vs popularity hit-rate; delivery = overlap
    // removed by decluttering.
    {
        let data = volume_score(retail.log_size as f64);
        let uplift = clamp01((retail.uplift_vs_popularity - 1.0) / 2.0);
        let delivery =
            clamp01(retail.naive_layout.overlap_ratio - retail.decluttered_layout.overlap_ratio);
        let score = combine(data, uplift, delivery);
        out.push(InfluenceReport {
            field: Field::Retail,
            data_intensity: data,
            analytic_uplift: uplift,
            delivery_benefit: delivery,
            score,
            level: InfluenceLevel::from_score(score),
        });
    }
    // Tourism: uplift = index speed-up (log-scaled); delivery = overlap
    // removed plus x-ray reveals actually used.
    {
        let data = volume_score(tourism.pois_surfaced as f64 * 100.0);
        let uplift = clamp01(tourism.index_speedup.max(1.0).log10() / 3.0);
        let xray = if tourism.pois_surfaced > 0 {
            tourism.xray_reveals as f64 / tourism.pois_surfaced as f64
        } else {
            0.0
        };
        let delivery = clamp01(tourism.naive_overlap - tourism.decluttered_overlap + xray);
        let score = combine(data, uplift, delivery);
        out.push(InfluenceReport {
            field: Field::Tourism,
            data_intensity: data,
            analytic_uplift: uplift,
            delivery_benefit: delivery,
            score,
            level: InfluenceLevel::from_score(score),
        });
    }
    // Health care: uplift = recall; delivery = promptness (inverse
    // latency against a 60 s clinical window).
    {
        let data = volume_score(health.samples_streamed as f64);
        let uplift = clamp01(health.recall);
        let delivery = clamp01(1.0 - health.median_latency_s / 60.0);
        let score = combine(data, uplift, delivery);
        out.push(InfluenceReport {
            field: Field::HealthCare,
            data_intensity: data,
            analytic_uplift: uplift,
            delivery_benefit: delivery,
            score,
            level: InfluenceLevel::from_score(score),
        });
    }
    // Public services: uplift = warning coverage; delivery = lead time
    // against the horizon.
    {
        let data = volume_score(traffic.beacons_delivered as f64);
        let uplift = clamp01(traffic.coverage);
        let delivery = clamp01(traffic.mean_lead_time_s / 4.0);
        let score = combine(data, uplift, delivery);
        out.push(InfluenceReport {
            field: Field::PublicServices,
            data_intensity: data,
            analytic_uplift: uplift,
            delivery_benefit: delivery,
            score,
            level: InfluenceLevel::from_score(score),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_bucketing() {
        assert_eq!(InfluenceLevel::from_score(0.0), InfluenceLevel::Absent);
        assert_eq!(InfluenceLevel::from_score(0.2), InfluenceLevel::Low);
        assert_eq!(InfluenceLevel::from_score(0.4), InfluenceLevel::Medium);
        assert_eq!(InfluenceLevel::from_score(0.6), InfluenceLevel::High);
        assert_eq!(InfluenceLevel::from_score(0.9), InfluenceLevel::VeryHigh);
        assert!(InfluenceLevel::VeryHigh > InfluenceLevel::Low);
    }

    #[test]
    fn volume_scales_logarithmically() {
        assert!(volume_score(1.0) < 0.01);
        assert!((volume_score(1e3) - 1.0 / 3.0).abs() < 0.01);
        assert_eq!(volume_score(1e12), 1.0);
    }

    #[test]
    fn display_strings() {
        assert_eq!(Field::HealthCare.to_string(), "health care");
        assert_eq!(InfluenceLevel::VeryHigh.to_string(), "very high");
    }
}
