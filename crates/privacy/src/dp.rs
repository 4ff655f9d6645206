//! Differential-privacy mechanisms and budget accounting.

use rand::Rng;

use crate::error::PrivacyError;

/// Adds Laplace noise calibrated to `sensitivity / epsilon`, giving
/// ε-differential privacy for a query with the given L1 sensitivity.
///
/// # Errors
///
/// [`PrivacyError::InvalidParameter`] if `epsilon <= 0` or
/// `sensitivity <= 0`.
///
/// # Example
///
/// ```
/// use augur_privacy::laplace_mechanism;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let noisy = laplace_mechanism(100.0, 1.0, 0.5, &mut rng)?;
/// assert!((noisy - 100.0).abs() < 50.0); // noise scale 2
/// # Ok::<(), augur_privacy::PrivacyError>(())
/// ```
pub fn laplace_mechanism<R: Rng + ?Sized>(
    true_value: f64,
    sensitivity: f64,
    epsilon: f64,
    rng: &mut R,
) -> Result<f64, PrivacyError> {
    if epsilon <= 0.0 || !epsilon.is_finite() {
        return Err(PrivacyError::InvalidParameter("epsilon"));
    }
    if sensitivity <= 0.0 || !sensitivity.is_finite() {
        return Err(PrivacyError::InvalidParameter("sensitivity"));
    }
    let scale = sensitivity / epsilon;
    Ok(true_value + sample_laplace(scale, rng))
}

/// Adds Gaussian noise for (ε, δ)-differential privacy with L2
/// sensitivity `sensitivity` (σ = sensitivity · √(2 ln(1.25/δ)) / ε,
/// valid for ε ≤ 1).
///
/// # Errors
///
/// [`PrivacyError::InvalidParameter`] for out-of-domain parameters.
pub fn gaussian_mechanism<R: Rng + ?Sized>(
    true_value: f64,
    sensitivity: f64,
    epsilon: f64,
    delta: f64,
    rng: &mut R,
) -> Result<f64, PrivacyError> {
    if epsilon <= 0.0 || epsilon > 1.0 {
        return Err(PrivacyError::InvalidParameter("epsilon"));
    }
    if !(delta > 0.0 && delta < 1.0) {
        return Err(PrivacyError::InvalidParameter("delta"));
    }
    if sensitivity <= 0.0 || !sensitivity.is_finite() {
        return Err(PrivacyError::InvalidParameter("sensitivity"));
    }
    let sigma = sensitivity * (2.0 * (1.25 / delta).ln()).sqrt() / epsilon;
    Ok(true_value + sample_normal(rng) * sigma)
}

/// Randomized response for one boolean: answers truthfully with
/// probability `e^ε / (e^ε + 1)`, giving ε-DP for the bit. Returns the
/// (possibly flipped) response.
///
/// # Errors
///
/// [`PrivacyError::InvalidParameter`] if `epsilon <= 0`.
pub fn randomized_response<R: Rng + ?Sized>(
    truth: bool,
    epsilon: f64,
    rng: &mut R,
) -> Result<bool, PrivacyError> {
    if epsilon <= 0.0 || !epsilon.is_finite() {
        return Err(PrivacyError::InvalidParameter("epsilon"));
    }
    let p_truth = epsilon.exp() / (epsilon.exp() + 1.0);
    Ok(if rng.gen_bool(p_truth) { truth } else { !truth })
}

/// Debiases an aggregate of randomized responses: given the observed
/// fraction of "true" answers and ε, estimates the true fraction.
pub fn debias_randomized_response(observed_fraction: f64, epsilon: f64) -> f64 {
    let p = epsilon.exp() / (epsilon.exp() + 1.0);
    ((observed_fraction - (1.0 - p)) / (2.0 * p - 1.0)).clamp(0.0, 1.0)
}

fn sample_laplace<R: Rng + ?Sized>(scale: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen_range(-0.5..0.5);
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

fn sample_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Sequential-composition ε-budget accountant: every query spends part of
/// the budget; once exhausted, further queries are refused — the
/// discipline that keeps "access data with a limited privacy risk"
/// honest.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyBudget {
    total: f64,
    spent: f64,
}

impl PrivacyBudget {
    /// Creates a budget of `total_epsilon`.
    ///
    /// # Errors
    ///
    /// [`PrivacyError::InvalidParameter`] if non-positive.
    pub fn new(total_epsilon: f64) -> Result<Self, PrivacyError> {
        if total_epsilon <= 0.0 || !total_epsilon.is_finite() {
            return Err(PrivacyError::InvalidParameter("total_epsilon"));
        }
        Ok(PrivacyBudget {
            total: total_epsilon,
            spent: 0.0,
        })
    }

    /// Remaining ε.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// ε spent so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Attempts to spend `epsilon`; on success the budget is debited.
    ///
    /// # Errors
    ///
    /// [`PrivacyError::BudgetExhausted`] if insufficient budget remains,
    /// [`PrivacyError::InvalidParameter`] for non-positive requests.
    pub fn spend(&mut self, epsilon: f64) -> Result<(), PrivacyError> {
        if epsilon <= 0.0 || !epsilon.is_finite() {
            return Err(PrivacyError::InvalidParameter("epsilon"));
        }
        if epsilon > self.remaining() + 1e-12 {
            return Err(PrivacyError::BudgetExhausted {
                requested: epsilon,
                remaining: self.remaining(),
            });
        }
        self.spent += epsilon;
        Ok(())
    }

    /// Runs a Laplace query under the budget: spends `epsilon` and, if
    /// granted, returns the noised value.
    ///
    /// # Errors
    ///
    /// Budget and parameter errors as in [`PrivacyBudget::spend`] and
    /// [`laplace_mechanism`].
    pub fn laplace_query<R: Rng + ?Sized>(
        &mut self,
        true_value: f64,
        sensitivity: f64,
        epsilon: f64,
        rng: &mut R,
    ) -> Result<f64, PrivacyError> {
        self.spend(epsilon)?;
        laplace_mechanism(true_value, sensitivity, epsilon, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn laplace_noise_scale_matches_theory() {
        let mut r = rng(1);
        let eps = 0.5;
        let n = 20_000;
        let mut sum_abs = 0.0;
        for _ in 0..n {
            let v = laplace_mechanism(0.0, 1.0, eps, &mut r).unwrap();
            sum_abs += v.abs();
        }
        // E|Laplace(b)| = b = 1/ε = 2.
        let mean_abs = sum_abs / n as f64;
        assert!((mean_abs - 2.0).abs() < 0.1, "mean |noise| {mean_abs}");
    }

    #[test]
    fn smaller_epsilon_means_more_noise() {
        let mut r = rng(2);
        let spread = |eps: f64, r: &mut rand::rngs::StdRng| {
            let mut s = 0.0;
            for _ in 0..5_000 {
                s += laplace_mechanism(0.0, 1.0, eps, r).unwrap().abs();
            }
            s / 5_000.0
        };
        let tight = spread(2.0, &mut r);
        let loose = spread(0.1, &mut r);
        assert!(loose > tight * 5.0, "ε=0.1: {loose}, ε=2: {tight}");
    }

    #[test]
    fn parameter_validation() {
        let mut r = rng(3);
        assert!(laplace_mechanism(0.0, 1.0, 0.0, &mut r).is_err());
        assert!(laplace_mechanism(0.0, 0.0, 1.0, &mut r).is_err());
        assert!(gaussian_mechanism(0.0, 1.0, 2.0, 0.1, &mut r).is_err());
        assert!(gaussian_mechanism(0.0, 1.0, 0.5, 0.0, &mut r).is_err());
        assert!(randomized_response(true, 0.0, &mut r).is_err());
    }

    #[test]
    fn gaussian_noise_sigma_matches_theory() {
        let mut r = rng(4);
        let (eps, delta): (f64, f64) = (0.5, 1e-5);
        let expected_sigma = (2.0 * (1.25 / delta).ln()).sqrt() / eps;
        let n = 20_000;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let v = gaussian_mechanism(0.0, 1.0, eps, delta, &mut r).unwrap();
            sum2 += v * v;
        }
        let sigma = (sum2 / n as f64).sqrt();
        assert!(
            (sigma - expected_sigma).abs() / expected_sigma < 0.05,
            "sigma {sigma} vs {expected_sigma}"
        );
    }

    #[test]
    fn randomized_response_debias_recovers_fraction() {
        let mut r = rng(5);
        let eps = 1.0;
        let true_fraction = 0.3;
        let n = 50_000;
        let mut yes = 0;
        for i in 0..n {
            let truth = (i as f64 / n as f64) < true_fraction;
            if randomized_response(truth, eps, &mut r).unwrap() {
                yes += 1;
            }
        }
        let est = debias_randomized_response(yes as f64 / n as f64, eps);
        assert!((est - true_fraction).abs() < 0.02, "estimate {est}");
    }

    #[test]
    fn budget_enforces_composition() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        let mut r = rng(6);
        assert!(b.laplace_query(10.0, 1.0, 0.4, &mut r).is_ok());
        assert!(b.laplace_query(10.0, 1.0, 0.4, &mut r).is_ok());
        assert!((b.remaining() - 0.2).abs() < 1e-9);
        let err = b.laplace_query(10.0, 1.0, 0.4, &mut r).unwrap_err();
        assert!(matches!(err, PrivacyError::BudgetExhausted { .. }));
        // Failed query must not spend.
        assert!((b.spent() - 0.8).abs() < 1e-9);
        assert!(b.spend(0.2).is_ok());
    }

    #[test]
    fn budget_validation() {
        assert!(PrivacyBudget::new(0.0).is_err());
        let mut b = PrivacyBudget::new(1.0).unwrap();
        assert!(b.spend(-0.1).is_err());
    }
}
