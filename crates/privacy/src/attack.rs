//! Mobility re-identification attack.
//!
//! González, Hidalgo & Barabási (the paper's reference \[9\]) showed human
//! trajectories are so regular that a handful of frequently visited
//! locations identifies a person. This module implements that attack:
//! build a [`LocationSignature`] (top visited cells) per user from a
//! labelled history, then match *anonymised* traces back to users by
//! signature overlap. Experiment E11 runs it against each protection
//! mechanism and reports the re-identification rate.

use std::collections::HashMap;

use augur_geo::Enu;

use crate::error::PrivacyError;

/// A user's (possibly anonymised) sequence of positions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Positions in time order, local ENU metres.
    pub positions: Vec<Enu>,
}

impl Trace {
    /// Creates a trace from positions.
    pub fn new(positions: Vec<Enu>) -> Self {
        Trace { positions }
    }

    /// Number of position samples.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// The top-k most visited cells of a trace, with visit fractions.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationSignature {
    cells: Vec<((i64, i64), f64)>, // sorted by fraction desc
}

impl LocationSignature {
    /// Builds a signature from a trace: bucket positions into
    /// `cell_m`-sized cells, keep the `top_k` most visited with their
    /// visit fractions.
    ///
    /// # Errors
    ///
    /// [`PrivacyError::InvalidParameter`] for `cell_m <= 0`, `top_k == 0`,
    /// or an empty trace.
    pub fn build(trace: &Trace, cell_m: f64, top_k: usize) -> Result<Self, PrivacyError> {
        if cell_m <= 0.0 || !cell_m.is_finite() {
            return Err(PrivacyError::InvalidParameter("cell_m"));
        }
        if top_k == 0 {
            return Err(PrivacyError::InvalidParameter("top_k"));
        }
        if trace.is_empty() {
            return Err(PrivacyError::InvalidParameter("trace"));
        }
        let mut counts: HashMap<(i64, i64), usize> = HashMap::new();
        for p in &trace.positions {
            let cell = (
                (p.east / cell_m).floor() as i64,
                (p.north / cell_m).floor() as i64,
            );
            *counts.entry(cell).or_insert(0) += 1;
        }
        let total = trace.len() as f64;
        let mut cells: Vec<((i64, i64), f64)> = counts
            .into_iter()
            .map(|(c, n)| (c, n as f64 / total))
            .collect();
        cells.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        cells.truncate(top_k);
        Ok(LocationSignature { cells })
    }

    /// Weighted overlap similarity in `[0, 1]`: sum over shared cells of
    /// min(fraction_a, fraction_b).
    pub fn similarity(&self, other: &LocationSignature) -> f64 {
        let mine: HashMap<(i64, i64), f64> = self.cells.iter().copied().collect();
        other
            .cells
            .iter()
            .filter_map(|(c, f)| mine.get(c).map(|m| m.min(*f)))
            .sum()
    }

    /// The signature's cells (most visited first).
    pub fn cells(&self) -> &[((i64, i64), f64)] {
        &self.cells
    }
}

/// The re-identification attack; see the module docs.
#[derive(Debug, Clone)]
pub struct ReidentificationAttack {
    cell_m: f64,
    top_k: usize,
    signatures: HashMap<u64, LocationSignature>,
}

impl ReidentificationAttack {
    /// Trains the attacker on labelled history (`user → trace`).
    ///
    /// # Errors
    ///
    /// Parameter errors as in [`LocationSignature::build`]; users with
    /// empty traces are rejected.
    pub fn train(
        history: &HashMap<u64, Trace>,
        cell_m: f64,
        top_k: usize,
    ) -> Result<Self, PrivacyError> {
        let mut signatures = HashMap::new();
        for (user, trace) in history {
            signatures.insert(*user, LocationSignature::build(trace, cell_m, top_k)?);
        }
        Ok(ReidentificationAttack {
            cell_m,
            top_k,
            signatures,
        })
    }

    /// Attempts to identify the user behind an anonymised trace; returns
    /// the best-matching user and the similarity score.
    ///
    /// # Errors
    ///
    /// [`PrivacyError::InvalidParameter`] for an empty trace or an
    /// untrained attacker.
    pub fn identify(&self, trace: &Trace) -> Result<(u64, f64), PrivacyError> {
        if self.signatures.is_empty() {
            return Err(PrivacyError::InvalidParameter("no training data"));
        }
        let sig = LocationSignature::build(trace, self.cell_m, self.top_k)?;
        let mut best = (0u64, f64::NEG_INFINITY);
        // Deterministic tie-breaking by user id.
        let mut users: Vec<&u64> = self.signatures.keys().collect();
        users.sort();
        for user in users {
            let s = self.signatures[user].similarity(&sig);
            if s > best.1 {
                best = (*user, s);
            }
        }
        Ok(best)
    }

    /// Runs the attack over a labelled test set, returning the fraction
    /// correctly re-identified.
    ///
    /// # Errors
    ///
    /// Propagates [`ReidentificationAttack::identify`] errors.
    pub fn success_rate(&self, test: &HashMap<u64, Trace>) -> Result<f64, PrivacyError> {
        if test.is_empty() {
            return Ok(0.0);
        }
        let mut correct = 0usize;
        for (user, trace) in test {
            let (guess, _) = self.identify(trace)?;
            if guess == *user {
                correct += 1;
            }
        }
        Ok(correct as f64 / test.len() as f64)
    }

    /// Number of trained signatures.
    pub fn population(&self) -> usize {
        self.signatures.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Users with distinct home/work anchor pairs, Gaussian scatter.
    fn population(n: u64, seed: u64) -> (HashMap<u64, Trace>, HashMap<u64, Trace>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut train = HashMap::new();
        let mut test = HashMap::new();
        for u in 0..n {
            let home = (
                rng.gen_range(-2000.0..2000.0),
                rng.gen_range(-2000.0..2000.0),
            );
            let work = (
                rng.gen_range(-2000.0..2000.0),
                rng.gen_range(-2000.0..2000.0),
            );
            let make = |rng: &mut rand::rngs::StdRng| {
                let mut pts = Vec::new();
                for i in 0..200 {
                    let (cx, cy) = if i % 2 == 0 { home } else { work };
                    pts.push(Enu::new(
                        cx + rng.gen_range(-30.0..30.0),
                        cy + rng.gen_range(-30.0..30.0),
                        0.0,
                    ));
                }
                Trace::new(pts)
            };
            train.insert(u, make(&mut rng));
            test.insert(u, make(&mut rng));
        }
        (train, test)
    }

    #[test]
    fn signature_orders_by_visits() {
        let mut pts = vec![Enu::new(5.0, 5.0, 0.0); 8];
        pts.extend(vec![Enu::new(500.0, 500.0, 0.0); 2]);
        let sig = LocationSignature::build(&Trace::new(pts), 100.0, 5).unwrap();
        assert_eq!(sig.cells()[0].0, (0, 0));
        assert!((sig.cells()[0].1 - 0.8).abs() < 1e-9);
        assert_eq!(sig.cells().len(), 2);
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let a = LocationSignature::build(&Trace::new(vec![Enu::new(5.0, 5.0, 0.0); 10]), 100.0, 3)
            .unwrap();
        let b = LocationSignature::build(
            &Trace::new(vec![Enu::new(5.0, 5.0, 0.0), Enu::new(500.0, 0.0, 0.0)]),
            100.0,
            3,
        )
        .unwrap();
        let s1 = a.similarity(&b);
        let s2 = b.similarity(&a);
        assert!((s1 - s2).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&s1));
        assert!((a.similarity(&a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn attack_reidentifies_unprotected_traces() {
        let (train, test) = population(50, 7);
        let attack = ReidentificationAttack::train(&train, 100.0, 5).unwrap();
        let rate = attack.success_rate(&test).unwrap();
        assert!(rate > 0.9, "unprotected re-identification rate {rate}");
    }

    #[test]
    fn geo_indistinguishability_reduces_success() {
        use crate::location::geo_indistinguishable;
        let (train, test) = population(50, 8);
        let attack = ReidentificationAttack::train(&train, 100.0, 5).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        // Strong noise: mean radius 2/ε = 2000 m.
        let noised: HashMap<u64, Trace> = test
            .iter()
            .map(|(u, t)| {
                let pts = t
                    .positions
                    .iter()
                    .map(|p| geo_indistinguishable(*p, 0.001, &mut rng).unwrap())
                    .collect();
                (*u, Trace::new(pts))
            })
            .collect();
        let clean = attack.success_rate(&test).unwrap();
        let protected = attack.success_rate(&noised).unwrap();
        assert!(
            protected < clean * 0.5,
            "protected {protected} vs clean {clean}"
        );
    }

    #[test]
    fn validation_errors() {
        let t = Trace::new(vec![Enu::default()]);
        assert!(LocationSignature::build(&t, 0.0, 3).is_err());
        assert!(LocationSignature::build(&t, 10.0, 0).is_err());
        assert!(LocationSignature::build(&Trace::default(), 10.0, 3).is_err());
        let empty = ReidentificationAttack::train(&HashMap::new(), 10.0, 3).unwrap();
        assert!(empty.identify(&t).is_err());
    }

    #[test]
    fn success_rate_on_empty_test_is_zero() {
        let (train, _) = population(5, 10);
        let attack = ReidentificationAttack::train(&train, 100.0, 5).unwrap();
        assert_eq!(attack.success_rate(&HashMap::new()).unwrap(), 0.0);
        assert_eq!(attack.population(), 5);
    }
}
