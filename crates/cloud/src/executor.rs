//! Compute resources: the phone and the datacenter.

use crate::error::CloudError;

/// A compute resource characterised by effective throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeResource {
    /// Name for reports.
    pub name: String,
    /// Effective throughput, giga-operations per second.
    pub speed_gops: f64,
}

impl ComputeResource {
    /// Creates a resource.
    ///
    /// # Errors
    ///
    /// [`CloudError::InvalidParameter`] for non-positive speed.
    pub fn new(name: &str, speed_gops: f64) -> Result<Self, CloudError> {
        if speed_gops <= 0.0 || !speed_gops.is_finite() {
            return Err(CloudError::InvalidParameter("speed_gops"));
        }
        Ok(ComputeResource {
            name: name.to_string(),
            speed_gops,
        })
    }

    /// A mid-range phone SoC (effective sustained throughput).
    pub fn phone() -> Self {
        // Constructed directly: preset constants satisfy `new`'s invariants
        // by inspection, and the hot path must stay panic-free.
        ComputeResource {
            name: String::from("phone"),
            speed_gops: 2.0,
        }
    }

    /// A cloud VM slice with accelerators.
    pub fn cloud_vm() -> Self {
        ComputeResource {
            name: String::from("cloud"),
            speed_gops: 100.0,
        }
    }

    /// Time to execute `gigaops` of work, milliseconds.
    pub fn compute_ms(&self, gigaops: f64) -> f64 {
        gigaops / self.speed_gops * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_and_presets() {
        assert!(ComputeResource::new("x", 0.0).is_err());
        assert!(ComputeResource::new("x", f64::NAN).is_err());
        let phone = ComputeResource::phone();
        let cloud = ComputeResource::cloud_vm();
        assert!(cloud.speed_gops > phone.speed_gops * 10.0);
    }

    #[test]
    fn compute_time_is_linear() {
        let r = ComputeResource::new("r", 10.0).unwrap();
        assert_eq!(r.compute_ms(10.0), 1_000.0);
        assert_eq!(r.compute_ms(1.0), 100.0);
    }
}
