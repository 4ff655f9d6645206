//! Pattern mining over history: frequent itemsets, association rules,
//! correlation, and trend detection.
//!
//! §4.2 notes that "big data is good at discovering correlations …  but
//! it does not tell us which correlations are meaningful". This module is
//! the discovery side; the semantic layer (augur-semantic) is where
//! the platform decides which of them to surface.

use std::collections::{HashMap, HashSet};

use crate::error::AnalyticsError;

/// Frequent itemsets mined with Apriori.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrequentItemsets {
    /// (itemset, support count), itemsets sorted internally.
    pub sets: Vec<(Vec<u64>, usize)>,
    /// Number of baskets mined.
    pub baskets: usize,
}

impl FrequentItemsets {
    /// Mines itemsets appearing in at least `min_support` baskets, up to
    /// size `max_len`.
    ///
    /// # Errors
    ///
    /// [`AnalyticsError::InvalidParameter`] if `min_support == 0` or
    /// `max_len == 0`.
    pub fn mine(
        baskets: &[Vec<u64>],
        min_support: usize,
        max_len: usize,
    ) -> Result<Self, AnalyticsError> {
        if min_support == 0 {
            return Err(AnalyticsError::InvalidParameter("min_support"));
        }
        if max_len == 0 {
            return Err(AnalyticsError::InvalidParameter("max_len"));
        }
        let basket_sets: Vec<HashSet<u64>> = baskets
            .iter()
            .map(|b| b.iter().copied().collect())
            .collect();
        // L1.
        let mut counts: HashMap<Vec<u64>, usize> = HashMap::new();
        for b in &basket_sets {
            for &item in b {
                *counts.entry(vec![item]).or_insert(0) += 1;
            }
        }
        let mut frequent: Vec<(Vec<u64>, usize)> = counts
            .into_iter()
            .filter(|(_, c)| *c >= min_support)
            .collect();
        let mut current: Vec<Vec<u64>> = frequent.iter().map(|(s, _)| s.clone()).collect();
        let mut all = frequent.clone();
        let mut k = 1;
        while !current.is_empty() && k < max_len {
            // Candidate generation: join sets sharing a (k-1)-prefix.
            let mut candidates: HashSet<Vec<u64>> = HashSet::new();
            for (i, a) in current.iter().enumerate() {
                for b in current.iter().skip(i + 1) {
                    // Itemsets at level k are non-empty, so `last` always holds.
                    if let (true, Some(&tail)) = (a[..k - 1] == b[..k - 1], b.last()) {
                        let mut c = a.clone();
                        c.push(tail);
                        c.sort_unstable();
                        c.dedup();
                        if c.len() == k + 1 {
                            candidates.insert(c);
                        }
                    }
                }
            }
            let mut next_counts: HashMap<Vec<u64>, usize> = HashMap::new();
            for b in &basket_sets {
                for c in &candidates {
                    if c.iter().all(|i| b.contains(i)) {
                        *next_counts.entry(c.clone()).or_insert(0) += 1;
                    }
                }
            }
            frequent = next_counts
                .into_iter()
                .filter(|(_, c)| *c >= min_support)
                .collect();
            current = frequent.iter().map(|(s, _)| s.clone()).collect();
            all.extend(frequent.clone());
            k += 1;
        }
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Ok(FrequentItemsets {
            sets: all,
            baskets: baskets.len(),
        })
    }

    /// Support of an itemset as a fraction of baskets.
    pub fn support(&self, itemset: &[u64]) -> f64 {
        let mut key = itemset.to_vec();
        key.sort_unstable();
        self.sets
            .iter()
            .find(|(s, _)| *s == key)
            .map(|(_, c)| *c as f64 / self.baskets.max(1) as f64)
            .unwrap_or(0.0)
    }

    /// Derives association rules `antecedent → consequent` with at least
    /// `min_confidence` from the mined 2-itemsets.
    pub fn rules(&self, min_confidence: f64) -> Vec<AssociationRule> {
        let singles: HashMap<u64, usize> = self
            .sets
            .iter()
            .filter(|(s, _)| s.len() == 1)
            .map(|(s, c)| (s[0], *c))
            .collect();
        let mut out = Vec::new();
        for (set, count) in self.sets.iter().filter(|(s, _)| s.len() == 2) {
            for (a, b) in [(set[0], set[1]), (set[1], set[0])] {
                if let Some(&ca) = singles.get(&a) {
                    let conf = *count as f64 / ca as f64;
                    if conf >= min_confidence {
                        let support_b = singles.get(&b).copied().unwrap_or(0) as f64
                            / self.baskets.max(1) as f64;
                        out.push(AssociationRule {
                            antecedent: a,
                            consequent: b,
                            confidence: conf,
                            lift: if support_b > 0.0 {
                                conf / support_b
                            } else {
                                0.0
                            },
                        });
                    }
                }
            }
        }
        out.sort_by(|x, y| {
            y.confidence
                .partial_cmp(&x.confidence)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }
}

/// An association rule between two items.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssociationRule {
    /// If a basket contains this item...
    pub antecedent: u64,
    /// ...it likely contains this one.
    pub consequent: u64,
    /// P(consequent | antecedent).
    pub confidence: f64,
    /// Confidence / P(consequent): > 1 means genuinely associated.
    pub lift: f64,
}

/// Pearson correlation between two equal-length series.
///
/// # Errors
///
/// [`AnalyticsError::InsufficientData`] for fewer than two points or
/// mismatched lengths; [`AnalyticsError::InvalidParameter`] if either
/// series is constant (correlation undefined).
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64, AnalyticsError> {
    if x.len() != y.len() || x.len() < 2 {
        return Err(AnalyticsError::InsufficientData {
            needed: 2,
            got: x.len().min(y.len()),
        });
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx).powi(2);
        vy += (b - my).powi(2);
    }
    if vx == 0.0 || vy == 0.0 {
        return Err(AnalyticsError::InvalidParameter("constant series"));
    }
    Ok(cov / (vx * vy).sqrt())
}

/// Rolling linear-trend detector: fits a least-squares slope over a
/// sliding window and flags sustained drift.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendDetector {
    window: usize,
    buf: Vec<f64>,
}

impl TrendDetector {
    /// Creates a detector over the last `window` samples.
    ///
    /// # Errors
    ///
    /// [`AnalyticsError::InvalidParameter`] if `window < 2`.
    pub fn new(window: usize) -> Result<Self, AnalyticsError> {
        if window < 2 {
            return Err(AnalyticsError::InvalidParameter("window"));
        }
        Ok(TrendDetector {
            window,
            buf: Vec::new(),
        })
    }

    /// Feeds a sample and returns the current slope (per sample), or
    /// `None` until the window fills.
    pub fn observe(&mut self, v: f64) -> Option<f64> {
        self.buf.push(v);
        if self.buf.len() > self.window {
            self.buf.remove(0);
        }
        (self.buf.len() == self.window).then(|| self.slope())
    }

    fn slope(&self) -> f64 {
        let n = self.buf.len() as f64;
        let mx = (n - 1.0) / 2.0;
        let my = self.buf.iter().sum::<f64>() / n;
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, y) in self.buf.iter().enumerate() {
            let dx = i as f64 - mx;
            num += dx * (y - my);
            den += dx * dx;
        }
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baskets() -> Vec<Vec<u64>> {
        // bread(1)+butter(2) co-occur strongly; milk(3) is common alone.
        vec![
            vec![1, 2, 3],
            vec![1, 2],
            vec![1, 2, 4],
            vec![3, 4],
            vec![1, 2, 3],
            vec![3],
            vec![1, 2],
            vec![2, 3],
        ]
    }

    #[test]
    fn mines_frequent_pairs() {
        let fi = FrequentItemsets::mine(&baskets(), 3, 3).unwrap();
        assert!(fi.support(&[1, 2]) >= 5.0 / 8.0);
        assert!(
            fi.support(&[2, 1]) == fi.support(&[1, 2]),
            "order-insensitive"
        );
        assert_eq!(fi.support(&[1, 4]), 0.0, "below min support");
    }

    #[test]
    fn rules_have_confidence_and_lift() {
        let fi = FrequentItemsets::mine(&baskets(), 3, 2).unwrap();
        let rules = fi.rules(0.8);
        let bread_butter = rules
            .iter()
            .find(|r| r.antecedent == 1 && r.consequent == 2)
            .expect("bread→butter should be a rule");
        assert!(
            bread_butter.confidence >= 0.99,
            "{}",
            bread_butter.confidence
        );
        assert!(bread_butter.lift > 1.0);
    }

    #[test]
    fn mining_validates_parameters() {
        assert!(FrequentItemsets::mine(&baskets(), 0, 2).is_err());
        assert!(FrequentItemsets::mine(&baskets(), 1, 0).is_err());
    }

    #[test]
    fn triple_itemsets_found() {
        let b = vec![vec![1, 2, 3], vec![1, 2, 3], vec![1, 2, 3], vec![4, 5]];
        let fi = FrequentItemsets::mine(&b, 3, 3).unwrap();
        assert_eq!(fi.support(&[1, 2, 3]), 0.75);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &z).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_error_cases() {
        assert!(pearson(&[1.0], &[2.0]).is_err());
        assert!(pearson(&[1.0, 2.0], &[2.0]).is_err());
        assert!(pearson(&[1.0, 1.0], &[2.0, 3.0]).is_err());
    }

    #[test]
    fn trend_detects_drift() {
        let mut t = TrendDetector::new(10).unwrap();
        let mut slope = None;
        for i in 0..20 {
            slope = t.observe(i as f64 * 0.5);
        }
        assert!((slope.unwrap() - 0.5).abs() < 1e-9);
        // Flat series: slope ~0.
        let mut t = TrendDetector::new(5).unwrap();
        let mut s = None;
        for _ in 0..10 {
            s = t.observe(3.0);
        }
        assert_eq!(s, Some(0.0));
    }

    #[test]
    fn trend_requires_full_window() {
        let mut t = TrendDetector::new(4).unwrap();
        assert_eq!(t.observe(1.0), None);
        assert_eq!(t.observe(2.0), None);
        assert_eq!(t.observe(3.0), None);
        assert!(t.observe(4.0).is_some());
        assert!(TrendDetector::new(1).is_err());
    }
}
