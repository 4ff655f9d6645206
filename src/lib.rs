//! # Augur
//!
//! An AR + big-data convergence platform: a full implementation of the
//! system sketched in *"When Augmented Reality Meets Big Data"* (Huang,
//! Hui, Peylo — ICDCS 2017 workshops). This umbrella crate re-exports
//! every subsystem; depend on it to get the whole platform, or on the
//! individual `augur-*` crates for a single substrate.
//!
//! ## The loop
//!
//! Sensors produce events ([`sensor`]) anchored in space ([`geo`]);
//! events land in a partitioned log and flow through event-time windows
//! ([`stream`]) into stores ([`store`]) and analytics ([`analytics`]);
//! facts are interpreted under user context into AR directives
//! ([`semantic`]); directives materialise as registered, decluttered,
//! occlusion-aware overlays ([`render`]) positioned by fused tracking
//! ([`track`]); heavy stages offload to the cloud when the network makes
//! that worthwhile ([`cloud`]); personal data is protected — and attacked,
//! to verify the protection ([`privacy`]). The [`core`] crate wires the
//! loop together and ships the paper's four application scenarios.
//!
//! ## Quickstart
//!
//! ```
//! use augur::core::{AugurPlatform, PlatformConfig};
//! use augur::geo::{poi::synthetic_database, GeoPoint, PoiId};
//! use augur::semantic::{ActionTemplate, Condition, Fact, FeatureId, Rule};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let origin = GeoPoint::new(22.3364, 114.2655)?;
//! let mut platform = AugurPlatform::new(PlatformConfig::new(origin))?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! platform.set_pois(synthetic_database(origin, 100, &mut rng)?);
//! platform.add_rule(Rule::new(
//!     "recommend",
//!     vec![Condition::FactIs("recommendation".into())],
//!     ActionTemplate::ShowLabel { text: "Score {value}".into(), priority: 0.8 },
//! )?);
//! let fact = Fact::new("recommendation", FeatureId(3), 0.9);
//! let shown = platform.surface(&fact, PoiId(3), None)?;
//! assert_eq!(shown.len(), 1);
//! assert_eq!(platform.scene().len(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! ## Reproduction harness
//!
//! Every claim of the source paper maps to an experiment binary in
//! `augur-bench` (`e1_influence` … `e12_stream`, ablations `a1`–`a3`);
//! DESIGN.md carries the index and EXPERIMENTS.md the measured results.

/// The §3 scenarios' declared service-level objectives, as watch
/// session configs.
pub mod slo;

/// Streaming analytics: detectors, sketches, mining, recommenders.
pub use augur_analytics as analytics;
/// Computation offloading between device and cloud.
pub use augur_cloud as cloud;
/// Platform assembly, scenarios, and the influence matrix.
pub use augur_core as core;
/// Geospatial substrate: coordinates, indexes, POIs, city models.
pub use augur_geo as geo;
/// Privacy mechanisms and attack evaluations.
pub use augur_privacy as privacy;
/// AR presentation: occlusion, layout, frame pacing.
pub use augur_render as render;
/// Semantic content model, JSON, interpretation, entity linking.
pub use augur_semantic as semantic;
/// Synthetic sensors and mobility models.
pub use augur_sensor as sensor;
/// Storage engines: columnar, LSM, time-series.
pub use augur_store as store;
/// The streaming substrate: broker, pipelines, windows.
pub use augur_stream as stream;
/// Observability: metrics, spans, time sources, exposition, the
/// structured event log, trace sampling and the `Obs` handle.
pub use augur_telemetry as telemetry;
/// Pose tracking and registration.
pub use augur_track as track;
/// Health monitoring: rollups, SLO burn-rate alerts, live endpoint.
pub use augur_watch as watch;
/// Bottleneck analysis: critical paths, speedup bounds, queueing models.
pub use augur_xray as xray;
