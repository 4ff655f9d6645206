//! Retail scenario (§3.1, experiment E7).
//!
//! Synthesises a digital-consumer purchase log with taste-group affinity
//! and Zipf popularity, trains the three recommenders, evaluates them
//! leave-one-out, and runs an in-store AR session in which the winning
//! recommender's suggestions are interpreted into shelf overlays.

use rand::{Rng, SeedableRng};

use augur_telemetry::log::Arg;
use augur_telemetry::{ManualTime, Obs, TraceContext};

use augur_analytics::recommend::{evaluate, leave_one_out};
use augur_analytics::{
    EvalReport, Interaction, ItemItemRecommender, PopularityRecommender, RandomRecommender,
    Recommender,
};
use augur_render::{greedy_layout, naive_layout, LabelBox, LayoutMetrics, Viewport};
use augur_semantic::{
    ActionTemplate, Condition, Fact, FeatureId, InterpretationEngine, Rule, UserContext,
};

use crate::error::CoreError;

/// Parameters for the retail scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RetailParams {
    /// Number of shoppers in the log.
    pub users: u64,
    /// Products per taste group.
    pub products_per_group: u64,
    /// Number of taste groups.
    pub groups: u64,
    /// Interactions per shopper.
    pub interactions_per_user: u32,
    /// Recommendations per shopper (k for hit-rate@k).
    pub top_k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RetailParams {
    fn default() -> Self {
        RetailParams {
            users: 1_000,
            products_per_group: 100,
            groups: 5,
            interactions_per_user: 12,
            top_k: 10,
            seed: 17,
        }
    }
}

/// Results of the retail scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RetailReport {
    /// Collaborative-filtering evaluation.
    pub cf: EvalReport,
    /// Popularity-baseline evaluation.
    pub popularity: EvalReport,
    /// Random-baseline evaluation.
    pub random: EvalReport,
    /// CF hit-rate divided by popularity hit-rate (the "big data" uplift).
    pub uplift_vs_popularity: f64,
    /// Interactions in the generated log (data volume proxy).
    pub log_size: usize,
    /// Overlays surfaced during the AR shopping session.
    pub overlays_shown: usize,
    /// Label-layout quality for the naive bubble baseline.
    pub naive_layout: LayoutMetrics,
    /// Label-layout quality after decluttering.
    pub decluttered_layout: LayoutMetrics,
}

/// Generates the purchase log: users belong to taste groups; items are
/// drawn from the group pool with Zipf( exponent 1 ) popularity.
pub fn purchase_log(params: &RetailParams) -> Vec<Interaction> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
    let weights: Vec<f64> = (1..=params.products_per_group)
        .map(|r| 1.0 / r as f64)
        .collect();
    let total: f64 = weights.iter().sum();
    let mut log = Vec::new();
    for u in 0..params.users {
        let g = u % params.groups;
        let pool_start = g * params.products_per_group;
        for _ in 0..params.interactions_per_user {
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

/// Runs the scenario, reporting into `obs` (see
/// [the module docs](crate::scenario)). The registry receives the
/// per-stage breakdown (`span_duration_us{span="retail/…"}`). With a
/// flight recorder, a root span covers the run with `retail/log`,
/// `retail/train`, `retail/evaluate` and `retail/session` as children.
/// With an event log, a WARN (`retail/declutter_drop`) marks an AR
/// session whose decluttered shelf layout had to drop labels, and the
/// run closes with an INFO (`retail/summary`). With a cycle sink, each
/// of the four stages is one observed cycle
/// (`frame_latency_us{scenario=retail}` under a watch session).
///
/// # Errors
///
/// [`CoreError::InvalidScenario`] for degenerate parameters.
pub fn run(params: &RetailParams, obs: &Obs) -> Result<RetailReport, CoreError> {
    if params.users == 0 || params.groups == 0 || params.products_per_group == 0 {
        return Err(CoreError::InvalidScenario("retail sizes must be positive"));
    }
    if params.top_k == 0 {
        return Err(CoreError::InvalidScenario("top_k must be positive"));
    }
    let clock = ManualTime::shared();
    let so = super::ScenarioObs::start(obs, "retail", params.seed, &clock);
    // Each observed stage cycle carries a tagged deterministic trace
    // root, so the cycle histogram's exemplars name a distinct trace
    // per stage (tag keeps the ids clear of other scenario roots).
    let cycle_ctx = |stage: u64| TraceContext::root(params.seed, 0x7263_7963_0000_0000 | stage);
    let stage = so.stage("retail/log");
    let log = purchase_log(params);
    clock.advance_micros(log.len() as u64);
    let t0 = stage.start_us;
    stage.end();
    so.cycle(t0, cycle_ctx(0));

    let stage = so.stage("retail/train");
    let (train, held) = leave_one_out(&log);
    let cf_model = ItemItemRecommender::train(&train, 30);
    let pop_model = PopularityRecommender::train(&train);
    let rnd_model = RandomRecommender::train(&train, params.seed);
    clock.advance_micros(train.len() as u64);
    let t0 = stage.start_us;
    stage.end();
    so.cycle(t0, cycle_ctx(1));

    let stage = so.stage("retail/evaluate");
    let cf = evaluate(&cf_model, &held, params.top_k);
    let popularity = evaluate(&pop_model, &held, params.top_k);
    let random = evaluate(&rnd_model, &held, params.top_k);
    clock.advance_micros(3 * held.len() as u64);
    let t0 = stage.start_us;
    stage.end();
    so.cycle(t0, cycle_ctx(2));

    // AR session: shopper 0 walks an aisle; their top-k recommendations
    // become shelf labels, interpreted under a shopping context.
    let stage = so.stage("retail/session");
    let mut engine = InterpretationEngine::new();
    engine.add_rule(
        Rule::new(
            "recommend-on-shelf",
            vec![
                Condition::FactIs("recommendation".into()),
                Condition::ActivityIs("shopping".into()),
            ],
            ActionTemplate::ShowLabel {
                text: "Recommended for you (score {value})".into(),
                priority: 0.8,
            },
        )
        .map_err(CoreError::Semantic)?,
    );
    let ctx = UserContext {
        activity: "shopping".into(),
        interests: vec![],
        health_monitoring: false,
    };
    let recs = cf_model.recommend(0, params.top_k);
    let mut directives = Vec::new();
    for (rank, item) in recs.iter().enumerate() {
        let fact = Fact::new(
            "recommendation",
            FeatureId(*item),
            1.0 - rank as f64 / params.top_k as f64,
        );
        directives.extend(engine.interpret(&fact, &ctx));
    }
    // Shelf labels: products project to a dense horizontal strip — the
    // worst case for floating bubbles.
    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed ^ 0xA5A5);
    let labels: Vec<LabelBox> = directives
        .iter()
        .enumerate()
        .map(|(i, _)| LabelBox {
            id: i as u64,
            anchor_px: (
                400.0 + rng.gen_range(0.0..600.0),
                500.0 + rng.gen_range(-40.0..40.0),
            ),
            width_px: 180.0,
            height_px: 36.0,
            priority: 1.0 - i as f64 * 0.05,
        })
        .collect();
    let vp = Viewport::default();
    let naive = LayoutMetrics::measure(&labels, &naive_layout(&labels, vp));
    let decluttered = LayoutMetrics::measure(&labels, &greedy_layout(&labels, vp));
    if decluttered.drop_ratio > 0.0 {
        so.warn(
            "retail/declutter_drop",
            &[
                ("labels", Arg::U64(labels.len() as u64)),
                ("drop_ratio", Arg::F64(decluttered.drop_ratio)),
            ],
        );
    }
    clock.advance_micros((directives.len() + labels.len()) as u64);
    stage.end_cycle(cycle_ctx(3));
    so.finish();
    so.info(
        "retail/summary",
        &[
            ("log_size", Arg::U64(log.len() as u64)),
            ("overlays", Arg::U64(directives.len() as u64)),
            ("cf_hit_rate", Arg::F64(cf.hit_rate)),
            ("pop_hit_rate", Arg::F64(popularity.hit_rate)),
        ],
    );

    Ok(RetailReport {
        uplift_vs_popularity: if popularity.hit_rate > 0.0 {
            cf.hit_rate / popularity.hit_rate
        } else {
            f64::INFINITY
        },
        cf,
        popularity,
        random,
        log_size: log.len(),
        overlays_shown: directives.len(),
        naive_layout: naive,
        decluttered_layout: decluttered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cf_beats_baselines_at_default_scale() {
        let report = run(&RetailParams::default(), &Obs::default()).unwrap();
        assert!(
            report.cf.hit_rate > report.popularity.hit_rate,
            "cf {} vs pop {}",
            report.cf.hit_rate,
            report.popularity.hit_rate
        );
        assert!(report.popularity.hit_rate > report.random.hit_rate);
        assert!(report.uplift_vs_popularity > 1.0);
        assert_eq!(report.log_size, 12_000);
    }

    #[test]
    fn session_produces_decluttered_overlays() {
        let report = run(&RetailParams::default(), &Obs::default()).unwrap();
        assert!(report.overlays_shown > 0);
        assert!(report.decluttered_layout.overlap_ratio <= report.naive_layout.overlap_ratio);
        assert_eq!(report.decluttered_layout.overlap_ratio, 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run(&RetailParams::default(), &Obs::default()).unwrap();
        let b = run(&RetailParams::default(), &Obs::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_degenerate_params() {
        let params = RetailParams {
            users: 0,
            ..Default::default()
        };
        assert!(run(&params, &Obs::default()).is_err());
        let params = RetailParams {
            top_k: 0,
            ..Default::default()
        };
        assert!(run(&params, &Obs::default()).is_err());
    }

    #[test]
    fn smaller_scale_still_orders_correctly() {
        let params = RetailParams {
            users: 200,
            products_per_group: 40,
            groups: 4,
            interactions_per_user: 10,
            top_k: 8,
            seed: 5,
        };
        let report = run(&params, &Obs::default()).unwrap();
        assert!(report.cf.hit_rate >= report.random.hit_rate);
    }
}
