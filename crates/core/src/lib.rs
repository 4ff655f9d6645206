//! Platform core: the convergence layer the paper sketches.
//!
//! Everything below the line exists in its own crate — geospatial
//! context ([`augur_geo`]), sensing ([`augur_sensor`]), tracking
//! ([`augur_track`]), the stream substrate ([`augur_stream`]), storage
//! ([`augur_store`]), analytics ([`augur_analytics`]), privacy
//! ([`augur_privacy`]), semantics ([`augur_semantic`]), presentation
//! ([`augur_render`]), and offloading ([`augur_cloud`]). This crate
//! wires them into the system of §2–§3:
//!
//! - [`context`]: the context engine fusing pose, motion, and
//!   preferences into the [`augur_semantic::UserContext`] rules consume.
//! - [`codec`]: compact byte codecs moving typed events through the
//!   broker's opaque records.
//! - [`platform`]: the [`AugurPlatform`] facade — ingest, analyze,
//!   interpret, present.
//! - [`scenario`]: the four §3 applications as runnable simulations
//!   (retail, tourism, healthcare, public-services traffic), each
//!   producing a typed report.
//! - [`influence`]: reconstruction of Figure 5's "influence circles"
//!   from measured scenario outputs (experiment E1).
//! - [`collab`]: §2.2's collaborative mode — one shared scene, per-user
//!   cameras and role filters, private annotations.

/// Record encodings shared between scenarios and the broker.
pub mod codec;
/// Multi-user shared-overlay sessions.
pub mod collab;
/// Context inference from motion and location.
pub mod context;
/// The crate error type.
pub mod error;
/// The paper's AR-on-big-data influence matrix, quantified.
pub mod influence;
/// The assembled platform facade.
pub mod platform;
/// End-to-end application scenarios (§3 of the paper).
pub mod scenario;

/// Vitals codec re-exported from [`codec`].
pub use codec::{decode_vitals, encode_vitals, VitalsRecord};
/// Collaboration types re-exported from [`collab`].
pub use collab::{CollabSession, ParticipantId, SharedOverlay};
/// Context inference re-exported from [`context`].
pub use context::{Activity, ContextEngine};
/// The crate error type, re-exported from [`error`].
pub use error::CoreError;
/// Influence reporting re-exported from [`influence`].
pub use influence::{influence_report, Field, InfluenceLevel, InfluenceReport};
/// The platform facade re-exported from [`platform`].
pub use platform::{AugurPlatform, PlatformConfig};
/// The healthcare scenario (§3.3, experiment E9).
pub use scenario::healthcare::{self, HealthcareParams, HealthcareReport};
/// The retail scenario (§3.1).
pub use scenario::retail::{self, RetailParams, RetailReport};
/// The tourism scenario (§3.2, experiments E4/E5/E8).
pub use scenario::tourism::{self, TourismParams, TourismReport};
/// The traffic scenario (§3.4).
pub use scenario::traffic::{self, TrafficParams, TrafficReport};
