//! E11 — §4.3 privacy: re-identification risk vs protection strength,
//! and the utility collapse at small ε the paper warns about.
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use std::collections::HashMap;

use augur_bench::{f, header, row, sized, BenchLog, Snapshot};
use augur_geo::Enu;
use augur_privacy::{
    cloak_k_anonymous, geo_indistinguishable, laplace_mechanism, ReidentificationAttack, Trace,
};
use augur_telemetry::log::Arg;
use rand::{Rng, SeedableRng};

/// Synthetic population: each user has home/work anchors (González-style
/// regular mobility).
fn population(n: u64, seed: u64) -> (HashMap<u64, Trace>, HashMap<u64, Trace>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut train = HashMap::new();
    let mut test = HashMap::new();
    for u in 0..n {
        let home = (
            rng.gen_range(-2500.0..2500.0),
            rng.gen_range(-2500.0..2500.0),
        );
        let work = (
            rng.gen_range(-2500.0..2500.0),
            rng.gen_range(-2500.0..2500.0),
        );
        let make = |rng: &mut rand::rngs::StdRng| {
            Trace::new(
                (0..300)
                    .map(|i| {
                        let (cx, cy) = if i % 2 == 0 { home } else { work };
                        Enu::new(
                            cx + rng.gen_range(-40.0..40.0),
                            cy + rng.gen_range(-40.0..40.0),
                            0.0,
                        )
                    })
                    .collect(),
            )
        };
        train.insert(u, make(&mut rng));
        test.insert(u, make(&mut rng));
    }
    (train, test)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header(
        "E11a",
        "§4.3: re-identification rate vs geo-indistinguishability ε",
    );
    let users = sized(100, 25) as u64;
    let mut snap = Snapshot::new("e11_privacy");
    snap.param_num("users", users as f64);
    snap.param_num("points_per_trace", 300.0);
    let blog = BenchLog::new("e11_privacy");
    let (train, test) = population(users, 7);
    let attack = ReidentificationAttack::train(&train, 150.0, 5)?;
    // Users in id order: the seeded noise below lands on the same user
    // every run, and sums add up in the same order. (The attack already
    // breaks similarity ties by user id.)
    let mut users: Vec<u64> = test.keys().copied().collect();
    users.sort_unstable();
    row(&[
        "ε (1/m)".into(),
        "mean noise m".into(),
        "re-id rate%".into(),
        "loc error m".into(),
    ]);
    // Baseline: no protection.
    let clean = attack.success_rate(&test)?;
    snap.gauge("reid_rate_unprotected", &[], clean);
    row(&["(none)".into(), "0".into(), f(clean * 100.0, 1), "0".into()]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for &eps in &[0.1f64, 0.02, 0.005, 0.002, 0.001] {
        let mut loc_err = 0.0;
        let mut count = 0usize;
        let noised: HashMap<u64, Trace> = users
            .iter()
            .map(|u| {
                let pts: Vec<Enu> = test[u]
                    .positions
                    .iter()
                    .map(|p| {
                        let q = geo_indistinguishable(*p, eps, &mut rng).unwrap();
                        loc_err += q.distance(*p);
                        count += 1;
                        q
                    })
                    .collect();
                (*u, Trace::new(pts))
            })
            .collect();
        let rate = attack.success_rate(&noised)?;
        blog.note(
            "e11/geoind_point",
            &[
                ("epsilon", Arg::F64(eps)),
                ("reid_rate", Arg::F64(rate)),
                ("location_error_m", Arg::F64(loc_err / count as f64)),
            ],
        );
        let el = format!("{eps}");
        let labels = [("epsilon", el.as_str())];
        snap.gauge("reid_rate_geoind", &labels, rate);
        snap.gauge("location_error_m", &labels, loc_err / count as f64);
        row(&[
            f(eps, 3),
            f(2.0 / eps, 0),
            f(rate * 100.0, 1),
            f(loc_err / count as f64, 0),
        ]);
    }

    header(
        "E11b",
        "re-identification rate vs k-anonymity cloaking cell",
    );
    row(&["cell m".into(), "re-id rate%".into(), "loc error m".into()]);
    for &cell in &[100.0f64, 300.0, 1_000.0, 3_000.0] {
        let cloaked: HashMap<u64, Trace> = users
            .iter()
            .map(|u| {
                let (pts, _, _) = cloak_k_anonymous(&test[u].positions, 1, &[cell]).unwrap();
                (*u, Trace::new(pts))
            })
            .collect();
        let rate = attack.success_rate(&cloaked)?;
        let cl = format!("{cell}");
        snap.gauge("reid_rate_cloaked", &[("cell_m", cl.as_str())], rate);
        let err: f64 = users
            .iter()
            .flat_map(|u| {
                test[u]
                    .positions
                    .iter()
                    .zip(&cloaked[u].positions)
                    .map(|(a, b)| a.distance(*b))
            })
            .sum::<f64>()
            / (test.len() * 300) as f64;
        row(&[f(cell, 0), f(rate * 100.0, 1), f(err, 0)]);
    }

    header("E11c", "§4.3: DP count-query utility vs ε (the collapse)");
    row(&[
        "ε".into(),
        "true count".into(),
        "mean |error|".into(),
        "rel error%".into(),
    ]);
    let true_count = 250.0; // e.g. visitors in a POI cell
    let mut rng2 = rand::rngs::StdRng::seed_from_u64(11);
    for &eps in &[2.0f64, 1.0, 0.5, 0.1, 0.01] {
        let n = 2_000;
        let mut err = 0.0;
        for _ in 0..n {
            let noisy = laplace_mechanism(true_count, 1.0, eps, &mut rng2)?;
            err += (noisy - true_count).abs();
        }
        let mean_err = err / n as f64;
        let el = format!("{eps}");
        snap.gauge(
            "dp_count_mean_abs_error",
            &[("epsilon", el.as_str())],
            mean_err,
        );
        row(&[
            f(eps, 2),
            f(true_count, 0),
            f(mean_err, 1),
            f(mean_err / true_count * 100.0, 1),
        ]);
    }
    println!(
        "\nexpected shape: (a) mobility re-identifies >90% unprotected, dropping\n\
         towards chance as noise grows past the anchor spacing; (b) cloaking only\n\
         helps once cells exceed home-work separation; (c) DP count error explodes\n\
         at small ε — \"the information is reduced too far to be useful\", as §4.3\n\
         puts it — while locations still re-identify at mild ε. All three HOLD\n\
         when the monotone trends above are visible."
    );
    blog.finish();
    snap.write()?;
    Ok(())
}
