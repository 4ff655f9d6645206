//! Ablation A3 — item-item CF neighbourhood size vs quality and cost.
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use augur_analytics::recommend::{evaluate, leave_one_out};
use augur_analytics::{ItemItemRecommender, Recommender};
use augur_bench::{f, header, row, sized, timed, BenchLog, Snapshot};
use augur_core::retail::{purchase_log, RetailParams};
use augur_telemetry::log::Arg;

fn main() {
    header("A3", "CF neighbourhood size vs hit-rate@10 and cost");
    let users = sized(1_000, 200) as u64;
    let mut snap = Snapshot::new("a3_neighbors");
    snap.param_num("users", users as f64);
    snap.param_num("top_k", 10.0);
    let blog = BenchLog::new("a3_neighbors");
    let log = purchase_log(&RetailParams {
        users,
        ..RetailParams::default()
    });
    let (train, held) = leave_one_out(&log);
    row(&[
        "neighbors".into(),
        "hit-rate".into(),
        "mrr".into(),
        "train ms".into(),
        "recommend µs".into(),
    ]);
    for &k in &[5usize, 10, 20, 40, 80] {
        let (model, train_us) = timed(|| ItemItemRecommender::train(&train, k));
        let eval = evaluate(&model, &held, 10);
        let (_, rec_us) = timed(|| {
            for u in 0..200u64 {
                std::hint::black_box(model.recommend(u, 10));
            }
        });
        blog.note(
            "a3/neighbors_point",
            &[
                ("k", Arg::U64(k as u64)),
                ("hit_rate", Arg::F64(eval.hit_rate)),
                ("train_ms", Arg::F64(train_us / 1e3)),
            ],
        );
        let kl = k.to_string();
        let labels = [("neighbors", kl.as_str())];
        snap.gauge("hit_rate", &labels, eval.hit_rate);
        snap.gauge("mrr", &labels, eval.mrr);
        snap.gauge("train_ms", &labels, train_us / 1e3);
        row(&[
            k.to_string(),
            f(eval.hit_rate, 3),
            f(eval.mrr, 4),
            f(train_us / 1e3, 1),
            f(rec_us / 200.0, 1),
        ]);
    }
    println!(
        "\nexpected shape: quality saturates past a moderate neighbourhood\n\
         while recommendation cost keeps rising — the truncation the\n\
         platform defaults to (30) buys nearly all the quality"
    );
    blog.finish();
    snap.write().expect("snapshot write");
}
