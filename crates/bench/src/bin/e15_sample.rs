//! E15 — deterministic sampling: head verdicts, tail-based retention,
//! metric exemplars, and observability self-cost accounting.
//!
//! Four producer lanes on real OS threads replay a deterministic
//! heavy-tailed workload (per-item modeled durations from the same
//! SplitMix64 mix that decides sampling), with every item a distinct
//! trace root. Head sampling at `AUGUR_SAMPLE_RATE` (default 64 for
//! this bench) mutes ~63/64 of the per-item spans **before** they are
//! recorded; the tail reservoir still retains the slowest decile plus
//! every error trace — the traces an operator actually reads. The
//! cycle histogram carries OpenMetrics exemplars linking buckets to
//! trace ids, and a [`SelfCost`] meter prices the instrumentation
//! against the 1% budget.
//!
//! Everything is a pure function of the seed: CI double-runs this
//! bench with `--artifacts` and `diff -r`s the snapshot and the bundle
//! byte for byte. `AUGUR_OBS_OVERHEAD_INJECT=<mult>` inflates the
//! cost model so the `obs_overhead_share` verdict demonstrably fires
//! (the red-gate probe greps for the firing line below).
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use std::collections::{BTreeMap, BTreeSet};

use augur_bench::{f, header, row, sized, write_artifacts, Snapshot};
use augur_telemetry::sample::{
    retained_events, ObsCostModel, Sampler, SelfCost, TailReservoir, OBS_OVERHEAD_BUDGET,
};
use augur_telemetry::{mix64, Clock, Lanes, ManualTime, TraceContext};
use augur_xray::artifacts::Artifacts;

const SEED: u64 = 15;

/// One workload item: identity, modeled cost, and whether it errors.
struct Item {
    key: u64,
    trace_id: u64,
    start_us: u64,
    dur_us: u64,
    error: bool,
}

/// The deterministic heavy-tailed workload: ~1 item in 16 lands in a
/// millisecond-scale tail, ~1 in 97 carries an error. Start times are
/// per-lane prefix sums (item `i` runs on lane `i % 4`), so the thread
/// replay below and this single-threaded spec agree exactly.
fn workload(items: u64) -> Vec<Item> {
    let mut lane_now = [0u64; 4];
    (0..items)
        .map(|i| {
            let h = mix64(SEED ^ mix64(i));
            let mut dur_us = 100 + h % 400;
            if h.is_multiple_of(16) {
                dur_us += 2_000 + (h >> 8) % 3_000;
            }
            let lane = (i % 4) as usize;
            let start_us = lane_now[lane];
            lane_now[lane] += dur_us;
            Item {
                key: i,
                trace_id: TraceContext::root(SEED, i).trace_id,
                start_us,
                dur_us,
                error: i % 97 == 0,
            }
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header(
        "E15",
        "deterministic sampling: head verdicts, tail retention, exemplars, self-cost",
    );
    let items = sized(4_096, 512) as u64;
    let env_u64 = |name: &str| std::env::var(name).ok().and_then(|v| v.parse::<u64>().ok());
    let rate = env_u64("AUGUR_SAMPLE_RATE").unwrap_or(64).max(1);
    let inject = env_u64("AUGUR_OBS_OVERHEAD_INJECT").unwrap_or(1).max(1);
    let sampler = Sampler::new(SEED, rate);
    let mut snap = Snapshot::new("e15_sample");
    snap.param_num("items", items as f64);
    snap.param_num("sample_rate", rate as f64);
    let spec = workload(items);

    // Four producer lanes replay the spec on their own manual clocks.
    // The admitted contexts record one span per item; rejected contexts
    // reach the recorder with the unsampled bit set and cost nothing on
    // the wait-free path — which is the whole point of head sampling.
    let lanes = Lanes::new(SEED, 1 << 14);
    let mut joins = Vec::new();
    for lane_idx in 0u64..4 {
        let lane = lanes.register(&format!("producer-{lane_idx}"));
        let sampler = sampler.clone();
        let script: Vec<(u64, u64)> = spec
            .iter()
            .filter(|it| it.key % 4 == lane_idx)
            .map(|it| (it.key, it.dur_us))
            .collect();
        joins.push(std::thread::spawn(move || {
            let time = ManualTime::shared();
            let clock: Clock = time.clone();
            let produce = lane.recorder().intern("produce");
            for (key, dur_us) in script {
                let ctx = sampler.apply(TraceContext::root(SEED, key));
                let t0 = clock.now_micros();
                time.advance_micros(dur_us);
                lane.add_busy_us(dur_us);
                lane.recorder().record_span(ctx, produce, t0, dur_us);
            }
        }));
    }
    for j in joins {
        j.join().expect("producer lane panicked");
    }
    let merged = lanes.merge_drains();
    assert!(!merged.truncated, "per-lane rings must not overflow");

    // The head-sampling invariant: exactly the admits-filtered item set
    // shows up in the merged drain, regardless of thread scheduling.
    let drained_ids: BTreeSet<u64> = merged.events.iter().map(|e| e.trace_id).collect();
    let expected_ids: BTreeSet<u64> = spec
        .iter()
        .filter(|it| sampler.admits(it.trace_id))
        .map(|it| it.trace_id)
        .collect();
    assert_eq!(
        drained_ids, expected_ids,
        "the drain must hold exactly the admitted traces"
    );
    assert!(
        sampler.admitted() > 0,
        "seed {SEED} at 1/{rate} must admit at least one trace"
    );

    // Tail retention: offer every finished item (admitted or not; the
    // rejected ones carry no events but keep their identity), capacity
    // one decile. The slowest decile and every error trace survive.
    let mut by_trace: BTreeMap<u64, Vec<augur_telemetry::FlightEvent>> = BTreeMap::new();
    for ev in &merged.events {
        by_trace.entry(ev.trace_id).or_default().push(ev.clone());
    }
    let capacity = (items as usize / 10).max(1);
    let mut reservoir = TailReservoir::new(SEED, capacity);
    for it in &spec {
        reservoir.offer(
            it.trace_id,
            it.dur_us,
            it.error,
            by_trace.get(&it.trace_id).cloned().unwrap_or_default(),
        );
    }
    let kept = reservoir.drain();
    let kept_ids: BTreeSet<u64> = kept.iter().map(|t| t.trace_id).collect();
    // Reproduce the reservoir's retention order to name the expected
    // slowest decile among non-error items.
    let priority = |it: &Item| (it.dur_us, mix64(SEED ^ mix64(it.trace_id)), it.trace_id);
    let mut non_error: Vec<&Item> = spec.iter().filter(|it| !it.error).collect();
    non_error.sort_by_key(|it| std::cmp::Reverse(priority(it)));
    for it in non_error.iter().take(capacity) {
        assert!(
            kept_ids.contains(&it.trace_id),
            "slowest-decile trace {:016x} ({} µs) must be retained",
            it.trace_id,
            it.dur_us
        );
    }
    for it in spec.iter().filter(|it| it.error) {
        assert!(
            kept_ids.contains(&it.trace_id),
            "error trace {:016x} must always be retained",
            it.trace_id
        );
    }
    let slowest = kept.first().expect("reservoir kept something");
    row(&[
        "retained".into(),
        "slowest µs".into(),
        "errors kept".into(),
        "kept fraction".into(),
    ]);
    row(&[
        kept.len().to_string(),
        slowest.dur_us.to_string(),
        kept.iter().filter(|t| t.error).count().to_string(),
        f(reservoir.effective_rate(), 4),
    ]);

    // Metric exemplars: the item histogram sees every duration (metrics
    // are aggregates — sampling never biases them), but only admitted
    // items pin a trace-id exemplar on their bucket.
    let hist = snap.registry().histogram("sample_item_us");
    hist.enable_exemplars();
    for it in &spec {
        let exemplar_id = if sampler.admits(it.trace_id) {
            it.trace_id
        } else {
            0
        };
        hist.record_traced(it.dur_us, exemplar_id, it.start_us + it.dur_us);
    }
    let openmetrics = snap.registry().render_openmetrics();
    assert!(
        openmetrics.contains("# {trace_id="),
        "OpenMetrics exposition must carry at least one exemplar"
    );

    // Self-cost: the flight events actually recorded, priced by the
    // (possibly inject-scaled) model against total modeled busy time.
    let busy_us: u64 = spec.iter().map(|it| it.dur_us).sum();
    let mut obs = SelfCost::new(snap.registry(), ObsCostModel::CALIBRATED.scaled(inject));
    obs.observe(merged.total_events, merged.dropped_events, 0, busy_us);
    let share = obs.overhead_share();
    println!(
        "\nobs self-cost: {} events over {busy_us} µs busy -> share {} (budget {})",
        merged.total_events,
        f(share, 8),
        OBS_OVERHEAD_BUDGET,
    );
    if inject > 1 {
        assert!(
            !obs.within_budget(),
            "the inject probe must blow the budget (share {share})"
        );
        // CI greps this exact phrase to prove the alarm path works.
        println!(
            "obs_overhead_share SLO firing: share {} > budget {OBS_OVERHEAD_BUDGET}",
            f(share, 6)
        );
    } else {
        assert!(
            obs.within_budget(),
            "healthy instrumentation must stay within the 1% budget, got {share}"
        );
    }

    snap.gauge("sampler_admitted", &[], sampler.admitted() as f64);
    snap.gauge("sampler_rejected", &[], sampler.rejected() as f64);
    snap.gauge("sampler_observed_rate", &[], sampler.observed_rate());
    snap.gauge("reservoir_retained", &[], kept.len() as f64);
    snap.gauge("reservoir_kept_fraction", &[], reservoir.effective_rate());
    snap.gauge("slowest_trace_us", &[], slowest.dur_us as f64);

    // The xray report speaks about the population via inverse scaling;
    // `sampled` + `effective_rate` tell a reader of the report (and
    // `augur-doctor diff`) this is deliberate loss, not ring overflow.
    let mut report = augur_xray::analyze_merged("e15_sample", &merged);
    if sampler.is_sampling() {
        report = report.with_sampling(sampler.effective_rate());
    }
    print!("{}", report.render_panel());
    // The bundle's trace and profiles hold what the reservoir kept: the
    // tail an operator chases from an exemplar, slowest first.
    write_artifacts(&Artifacts {
        name: "e15_sample".into(),
        events: Some(retained_events(&kept)),
        xray: Some(report),
        ..Artifacts::default()
    })?;

    snap.write()?;
    Ok(())
}
