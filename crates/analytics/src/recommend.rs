//! Recommenders for the retail scenario (§3.1, experiment E7).
//!
//! The paper's retail pitch is that big data lets AR show "the right
//! product recommendation" instead of generic ads. Concretely that is a
//! collaborative-filtering problem over interaction logs:
//!
//! - [`ItemItemRecommender`]: cosine-similarity item-item CF — the
//!   "big-data-powered" recommender.
//! - [`PopularityRecommender`]: global best-sellers — what a retailer
//!   without per-user data can do.
//! - [`RandomRecommender`]: the floor.
//!
//! [`evaluate`] runs leave-one-out hit-rate@k and MRR over a log,
//! producing the ordering E7 reports.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use rand::Rng;

/// One user-item interaction (purchase, dwell, rating...).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interaction {
    /// User id.
    pub user: u64,
    /// Item id.
    pub item: u64,
    /// Interaction strength (1.0 for a purchase; dwell seconds, etc.).
    pub weight: f64,
}

/// A recommender trained on an interaction log.
pub trait Recommender {
    /// Top-`k` item recommendations for `user`, excluding items the user
    /// has already interacted with, best first.
    fn recommend(&self, user: u64, k: usize) -> Vec<u64>;

    /// Name for reports.
    fn name(&self) -> &'static str;
}

/// Item-item cosine-similarity collaborative filtering.
#[derive(Debug, Clone)]
pub struct ItemItemRecommender {
    user_items: BTreeMap<u64, BTreeMap<u64, f64>>,
    // For each item, its top-similar items with scores.
    similar: BTreeMap<u64, Vec<(u64, f64)>>,
}

impl ItemItemRecommender {
    /// Trains on a log, keeping the `neighbors` most similar items per
    /// item.
    pub fn train(log: &[Interaction], neighbors: usize) -> Self {
        let mut user_items: BTreeMap<u64, BTreeMap<u64, f64>> = BTreeMap::new();
        let mut item_users: BTreeMap<u64, BTreeMap<u64, f64>> = BTreeMap::new();
        for i in log {
            *user_items
                .entry(i.user)
                .or_default()
                .entry(i.item)
                .or_insert(0.0) += i.weight;
            *item_users
                .entry(i.item)
                .or_default()
                .entry(i.user)
                .or_insert(0.0) += i.weight;
        }
        // Cosine similarity between item vectors (over users).
        let norms: BTreeMap<u64, f64> = item_users
            .iter()
            .map(|(it, users)| (*it, users.values().map(|w| w * w).sum::<f64>().sqrt()))
            .collect();
        let mut similar: BTreeMap<u64, Vec<(u64, f64)>> = BTreeMap::new();
        // Accumulate dot products via co-occurrence through users — this
        // is O(Σ per-user items²), fine at simulation scale.
        let mut dots: BTreeMap<(u64, u64), f64> = BTreeMap::new();
        for items in user_items.values() {
            let entries: Vec<(&u64, &f64)> = items.iter().collect();
            for (ai, (a, wa)) in entries.iter().enumerate() {
                for (b, wb) in entries.iter().skip(ai + 1) {
                    let key = if a < b { (**a, **b) } else { (**b, **a) };
                    *dots.entry(key).or_insert(0.0) += **wa * **wb;
                }
            }
        }
        for ((a, b), dot) in dots {
            let sim = dot / (norms[&a] * norms[&b]).max(f64::EPSILON);
            similar.entry(a).or_default().push((b, sim));
            similar.entry(b).or_default().push((a, sim));
        }
        for list in similar.values_mut() {
            list.sort_by(|x, y| {
                y.1.partial_cmp(&x.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(x.0.cmp(&y.0))
            });
            list.truncate(neighbors);
        }
        ItemItemRecommender {
            user_items,
            similar,
        }
    }

    /// Number of items with at least one similarity edge.
    pub fn item_count(&self) -> usize {
        self.similar.len()
    }
}

impl Recommender for ItemItemRecommender {
    fn recommend(&self, user: u64, k: usize) -> Vec<u64> {
        let owned = match self.user_items.get(&user) {
            Some(m) => m,
            None => return Vec::new(),
        };
        let mut scores: BTreeMap<u64, f64> = BTreeMap::new();
        for (item, weight) in owned {
            if let Some(neigh) = self.similar.get(item) {
                for (other, sim) in neigh {
                    if !owned.contains_key(other) {
                        *scores.entry(*other).or_insert(0.0) += sim * weight;
                    }
                }
            }
        }
        let mut ranked: Vec<(u64, f64)> = scores.into_iter().collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        ranked.into_iter().take(k).map(|(i, _)| i).collect()
    }

    fn name(&self) -> &'static str {
        "item-item-cf"
    }
}

/// Global popularity ranking.
#[derive(Debug, Clone)]
pub struct PopularityRecommender {
    ranked: Vec<u64>,
    user_items: BTreeMap<u64, BTreeSet<u64>>,
}

impl PopularityRecommender {
    /// Trains on a log.
    pub fn train(log: &[Interaction]) -> Self {
        let mut counts: BTreeMap<u64, f64> = BTreeMap::new();
        let mut user_items: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        for i in log {
            *counts.entry(i.item).or_insert(0.0) += i.weight;
            user_items.entry(i.user).or_default().insert(i.item);
        }
        let mut ranked: Vec<(u64, f64)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        PopularityRecommender {
            ranked: ranked.into_iter().map(|(i, _)| i).collect(),
            user_items,
        }
    }
}

impl Recommender for PopularityRecommender {
    fn recommend(&self, user: u64, k: usize) -> Vec<u64> {
        let owned = self.user_items.get(&user);
        self.ranked
            .iter()
            .filter(|i| owned.is_none_or(|o| !o.contains(i)))
            .take(k)
            .copied()
            .collect()
    }

    fn name(&self) -> &'static str {
        "popularity"
    }
}

/// Uniform random recommendations (the evaluation floor).
#[derive(Debug, Clone)]
pub struct RandomRecommender {
    items: Vec<u64>,
    seed: u64,
}

impl RandomRecommender {
    /// Trains (collects the item universe); `seed` fixes the permutation
    /// per user.
    pub fn train(log: &[Interaction], seed: u64) -> Self {
        let mut items: Vec<u64> = log.iter().map(|i| i.item).collect();
        items.sort_unstable();
        items.dedup();
        RandomRecommender { items, seed }
    }
}

impl Recommender for RandomRecommender {
    fn recommend(&self, user: u64, k: usize) -> Vec<u64> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed ^ user);
        let mut pool = self.items.clone();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k.min(pool.len()) {
            let i = rng.gen_range(0..pool.len());
            out.push(pool.swap_remove(i));
        }
        out
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Leave-one-out evaluation results.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalReport {
    /// Fraction of held-out items recovered in the top-k.
    pub hit_rate: f64,
    /// Mean reciprocal rank of the held-out item (0 when missed).
    pub mrr: f64,
    /// Users evaluated.
    pub users: usize,
}

/// Leave-one-out evaluation: for each user with ≥2 interactions, hold out
/// the last item, train-free re-rank with the provided recommender, and
/// measure hit-rate@k and MRR.
///
/// The recommender must have been trained on `train_log` (with the
/// held-out interactions removed); `held_out` maps user → held item.
pub fn evaluate<R: Recommender>(rec: &R, held_out: &HashMap<u64, u64>, k: usize) -> EvalReport {
    let mut hits = 0usize;
    let mut mrr_sum = 0.0;
    // Iterate in sorted user order so the floating-point sum is
    // deterministic run to run.
    let mut pairs: Vec<(&u64, &u64)> = held_out.iter().collect();
    pairs.sort();
    for (user, item) in pairs {
        let recs = rec.recommend(*user, k);
        if let Some(pos) = recs.iter().position(|r| r == item) {
            hits += 1;
            mrr_sum += 1.0 / (pos as f64 + 1.0);
        }
    }
    let n = held_out.len().max(1);
    EvalReport {
        hit_rate: hits as f64 / n as f64,
        mrr: mrr_sum / n as f64,
        users: held_out.len(),
    }
}

/// Splits a log leave-one-out: returns (training log, held-out map).
/// Users with fewer than two interactions stay entirely in training.
pub fn leave_one_out(log: &[Interaction]) -> (Vec<Interaction>, HashMap<u64, u64>) {
    let mut per_user: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, inter) in log.iter().enumerate() {
        per_user.entry(inter.user).or_default().push(i);
    }
    let mut held: HashMap<u64, u64> = HashMap::new();
    let mut exclude: BTreeSet<usize> = BTreeSet::new();
    for (user, idxs) in &per_user {
        if idxs.len() >= 2 {
            if let Some(&last) = idxs.last() {
                held.insert(*user, log[last].item);
                exclude.insert(last);
            }
        }
    }
    let train: Vec<Interaction> = log
        .iter()
        .enumerate()
        .filter(|(i, _)| !exclude.contains(i))
        .map(|(_, x)| *x)
        .collect();
    (train, held)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Synthetic log with affinity structure: users belong to taste
    /// groups that buy from group-specific item pools, with Zipf-skewed
    /// item popularity within each pool (so the popularity baseline has
    /// real signal to exploit, as in real purchase logs).
    fn affinity_log(users: u64, items_per_group: u64, groups: u64, seed: u64) -> Vec<Interaction> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Precompute the Zipf CDF over within-group ranks.
        let weights: Vec<f64> = (1..=items_per_group).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut log = Vec::new();
        for u in 0..users {
            let g = u % groups;
            let pool_start = g * items_per_group;
            for _ in 0..8 {
                let mut x = rng.gen_range(0.0..total);
                let mut rank = 0usize;
                for (i, w) in weights.iter().enumerate() {
                    if x < *w {
                        rank = i;
                        break;
                    }
                    x -= w;
                }
                log.push(Interaction {
                    user: u,
                    item: pool_start + rank as u64,
                    weight: 1.0,
                });
            }
        }
        log
    }

    #[test]
    fn cf_recommends_within_taste_group() {
        let log = affinity_log(100, 20, 5, 7);
        let (train, _) = leave_one_out(&log);
        let cf = ItemItemRecommender::train(&train, 20);
        // User 0 is in group 0: items 0..20.
        let recs = cf.recommend(0, 5);
        assert!(!recs.is_empty());
        for r in &recs {
            assert!(*r < 20, "recommended {r} outside user 0's taste group");
        }
    }

    #[test]
    fn cf_beats_popularity_beats_random() {
        let log = affinity_log(200, 30, 4, 8);
        let (train, held) = leave_one_out(&log);
        let cf = ItemItemRecommender::train(&train, 30);
        let pop = PopularityRecommender::train(&train);
        let rnd = RandomRecommender::train(&train, 1);
        let k = 10;
        let e_cf = evaluate(&cf, &held, k);
        let e_pop = evaluate(&pop, &held, k);
        let e_rnd = evaluate(&rnd, &held, k);
        assert!(
            e_cf.hit_rate > e_pop.hit_rate,
            "cf {} <= pop {}",
            e_cf.hit_rate,
            e_pop.hit_rate
        );
        assert!(
            e_pop.hit_rate >= e_rnd.hit_rate,
            "pop {} < random {}",
            e_pop.hit_rate,
            e_rnd.hit_rate
        );
    }

    #[test]
    fn recommendations_exclude_owned_items() {
        let log = vec![
            Interaction {
                user: 1,
                item: 10,
                weight: 1.0,
            },
            Interaction {
                user: 1,
                item: 11,
                weight: 1.0,
            },
            Interaction {
                user: 2,
                item: 10,
                weight: 1.0,
            },
            Interaction {
                user: 2,
                item: 12,
                weight: 1.0,
            },
        ];
        let cf = ItemItemRecommender::train(&log, 10);
        let recs = cf.recommend(1, 5);
        assert!(!recs.contains(&10));
        assert!(!recs.contains(&11));
        let pop = PopularityRecommender::train(&log);
        let recs = pop.recommend(1, 5);
        assert!(!recs.contains(&10) && !recs.contains(&11));
    }

    #[test]
    fn unknown_user_gets_empty_cf_but_popular_fallback_possible() {
        let log = affinity_log(10, 5, 2, 9);
        let cf = ItemItemRecommender::train(&log, 5);
        assert!(cf.recommend(999, 5).is_empty());
        let pop = PopularityRecommender::train(&log);
        assert_eq!(pop.recommend(999, 3).len(), 3);
    }

    #[test]
    fn leave_one_out_excludes_exactly_one_per_eligible_user() {
        let log = affinity_log(50, 10, 2, 10);
        let (train, held) = leave_one_out(&log);
        assert_eq!(held.len(), 50);
        assert_eq!(train.len(), log.len() - 50);
    }

    #[test]
    fn random_recommender_is_deterministic_per_user() {
        let log = affinity_log(10, 10, 2, 11);
        let rnd = RandomRecommender::train(&log, 5);
        assert_eq!(rnd.recommend(3, 5), rnd.recommend(3, 5));
        assert_eq!(rnd.name(), "random");
    }

    #[test]
    fn eval_report_on_empty_held_out() {
        let log = affinity_log(10, 10, 2, 12);
        let cf = ItemItemRecommender::train(&log, 5);
        let e = evaluate(&cf, &HashMap::new(), 10);
        assert_eq!(e.users, 0);
        assert_eq!(e.hit_rate, 0.0);
    }
}
