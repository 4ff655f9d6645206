//! Cloud-offloading models for the Augur platform.
//!
//! §4.1: "a dramatic shift has been moving towards cloud computing …
//! offloading computation and data storage enables client-side AR
//! devices to be small and sustainable". Whether offloading *helps*
//! depends on the compute-speed ratio versus the transfer cost — this
//! crate models both sides so experiment E3 can locate the break-even:
//!
//! - [`network`]: parametric link models (RTT, bandwidth, jitter, loss)
//!   with presets calibrated to published WiFi/LTE/5G/3G figures.
//! - [`executor`]: device and cloud compute resources.
//! - [`task`]: AR pipeline task graphs (DAGs of compute + data).
//! - [`offload`]: plan enumeration, end-to-end latency estimation, and
//!   a device energy model (CloudRiDAR's decision problem, reference
//!   \[13\] of the paper).

/// The crate error type.
pub mod error;
/// Compute resources: the phone and the datacenter.
pub mod executor;
/// Parametric network link models.
pub mod network;
/// Offloading plans, latency estimation, energy accounting.
pub mod offload;
/// AR pipeline task graphs.
pub mod task;

/// The crate error type, re-exported from [`error`].
pub use error::CloudError;
/// Compute resources re-exported from [`executor`].
pub use executor::ComputeResource;
/// Network models re-exported from [`network`].
pub use network::NetworkProfile;
/// Offloading machinery re-exported from [`offload`].
pub use offload::{
    best_plan, best_plan_logged, estimate, estimate_traced, EnergyParams, Estimate, OffloadPlan,
    Placement,
};
/// Task graphs re-exported from [`task`].
pub use task::{Task, TaskGraph, TaskId};
