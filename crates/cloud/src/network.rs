//! Parametric network link models.
//!
//! Transfer cost is the deterministic `rtt/2 + bytes/bandwidth` plus,
//! when sampling, jitter and loss-induced retransmissions. Presets are
//! calibrated to commonly published figures (order-of-magnitude, which
//! is all the break-even analysis needs).

use rand::Rng;

use crate::error::CloudError;

/// A network link model.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProfile {
    /// Profile name for reports.
    pub name: String,
    /// Round-trip time, milliseconds.
    pub rtt_ms: f64,
    /// Bandwidth, megabits per second.
    pub bandwidth_mbps: f64,
    /// Jitter standard deviation, milliseconds.
    pub jitter_ms: f64,
    /// Packet/transfer loss probability per transfer.
    pub loss: f64,
}

impl NetworkProfile {
    /// Creates a profile.
    ///
    /// # Errors
    ///
    /// [`CloudError::InvalidParameter`] for non-positive RTT/bandwidth,
    /// negative jitter, or loss outside `[0, 1)`.
    pub fn new(
        name: &str,
        rtt_ms: f64,
        bandwidth_mbps: f64,
        jitter_ms: f64,
        loss: f64,
    ) -> Result<Self, CloudError> {
        if rtt_ms <= 0.0 || !rtt_ms.is_finite() {
            return Err(CloudError::InvalidParameter("rtt_ms"));
        }
        if bandwidth_mbps <= 0.0 || !bandwidth_mbps.is_finite() {
            return Err(CloudError::InvalidParameter("bandwidth_mbps"));
        }
        if jitter_ms < 0.0 || !jitter_ms.is_finite() {
            return Err(CloudError::InvalidParameter("jitter_ms"));
        }
        if !(0.0..1.0).contains(&loss) {
            return Err(CloudError::InvalidParameter("loss"));
        }
        Ok(NetworkProfile {
            name: name.to_string(),
            rtt_ms,
            bandwidth_mbps,
            jitter_ms,
            loss,
        })
    }

    // Presets are constructed directly: the constants satisfy `new`'s
    // invariants by inspection, and the hot path must stay panic-free.
    fn preset(name: &str, rtt_ms: f64, bandwidth_mbps: f64, jitter_ms: f64, loss: f64) -> Self {
        NetworkProfile {
            name: name.to_string(),
            rtt_ms,
            bandwidth_mbps,
            jitter_ms,
            loss,
        }
    }

    /// Home/office WiFi: ~10 ms RTT, 100 Mbps.
    pub fn wifi() -> Self {
        Self::preset("wifi", 10.0, 100.0, 2.0, 0.005)
    }

    /// LTE: ~50 ms RTT, 20 Mbps.
    pub fn lte() -> Self {
        Self::preset("lte", 50.0, 20.0, 10.0, 0.01)
    }

    /// 5G NR: ~5 ms RTT, 300 Mbps.
    pub fn nr5g() -> Self {
        Self::preset("5g", 5.0, 300.0, 1.0, 0.002)
    }

    /// 3G/UMTS: ~150 ms RTT, 2 Mbps.
    pub fn umts3g() -> Self {
        Self::preset("3g", 150.0, 2.0, 30.0, 0.03)
    }

    /// All presets, fastest first.
    pub fn presets() -> Vec<NetworkProfile> {
        vec![Self::nr5g(), Self::wifi(), Self::lte(), Self::umts3g()]
    }

    /// Expected one-way transfer time for `bytes`, milliseconds
    /// (deterministic: half-RTT + serialisation, inflated by expected
    /// retransmissions).
    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        let serialise_ms = (bytes as f64 * 8.0) / (self.bandwidth_mbps * 1e6) * 1e3;
        (self.rtt_ms / 2.0 + serialise_ms) / (1.0 - self.loss)
    }

    /// Samples one transfer with jitter and loss-retries.
    pub fn sample_transfer_ms<R: Rng + ?Sized>(&self, bytes: u64, rng: &mut R) -> f64 {
        let mut total = 0.0;
        loop {
            let jitter = normal(rng) * self.jitter_ms;
            let serialise_ms = (bytes as f64 * 8.0) / (self.bandwidth_mbps * 1e6) * 1e3;
            total += (self.rtt_ms / 2.0 + serialise_ms + jitter).max(0.1);
            if !rng.gen_bool(self.loss) {
                return total;
            }
            // Lost: retransmit (accumulates).
        }
    }
}

fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn validation() {
        assert!(NetworkProfile::new("x", 0.0, 1.0, 0.0, 0.0).is_err());
        assert!(NetworkProfile::new("x", 1.0, 0.0, 0.0, 0.0).is_err());
        assert!(NetworkProfile::new("x", 1.0, 1.0, -1.0, 0.0).is_err());
        assert!(NetworkProfile::new("x", 1.0, 1.0, 0.0, 1.0).is_err());
    }

    #[test]
    fn transfer_time_scales_with_bytes_and_bandwidth() {
        let wifi = NetworkProfile::wifi();
        let small = wifi.transfer_ms(1_000);
        let big = wifi.transfer_ms(10_000_000);
        assert!(big > small);
        // 10 MB over 100 Mbps ≈ 800 ms + overhead.
        assert!((790.0..900.0).contains(&big), "{big}");
        let g5 = NetworkProfile::nr5g();
        assert!(g5.transfer_ms(10_000_000) < big / 2.0);
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        let p = NetworkProfile::presets();
        // For a latency-dominated payload, 5G < WiFi < LTE < 3G.
        let times: Vec<f64> = p.iter().map(|n| n.transfer_ms(100)).collect();
        for w in times.windows(2) {
            assert!(w[0] < w[1], "{times:?}");
        }
    }

    #[test]
    fn sampled_mean_close_to_deterministic() {
        let lte = NetworkProfile::lte();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = 5_000;
        let mean: f64 = (0..n)
            .map(|_| lte.sample_transfer_ms(50_000, &mut rng))
            .sum::<f64>()
            / n as f64;
        let det = lte.transfer_ms(50_000);
        assert!((mean - det).abs() / det < 0.15, "mean {mean} vs {det}");
    }

    #[test]
    fn lossy_links_inflate_expectation() {
        let clean = NetworkProfile::new("c", 10.0, 10.0, 0.0, 0.0).unwrap();
        let lossy = NetworkProfile::new("l", 10.0, 10.0, 0.0, 0.5).unwrap();
        assert!(lossy.transfer_ms(1_000) > clean.transfer_ms(1_000) * 1.9);
    }
}
