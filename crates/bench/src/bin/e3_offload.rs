//! E3 — §4.1 cloud offloading: on-device vs offloaded latency and the
//! break-even compute demand per network profile.
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use augur_bench::{f, header, row, smoke, write_artifacts, BenchLog, Snapshot};
use augur_cloud::{
    best_plan_logged, estimate, estimate_traced, ComputeResource, EnergyParams, NetworkProfile,
    OffloadPlan, TaskGraph,
};
use augur_telemetry::{FlightRecorder, Obs, TraceContext};
use augur_xray::artifacts::Artifacts;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header(
        "E3",
        "§4.1: device vs cloud latency across network profiles",
    );
    let phone = ComputeResource::phone();
    let cloud = ComputeResource::cloud_vm();
    let energy = EnergyParams::default();
    let frame_bytes = 500_000u64; // one compressed camera frame
    let demands: &[f64] = if smoke() {
        &[0.1, 1.0, 10.0]
    } else {
        &[0.01, 0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0]
    };
    let mut snap = Snapshot::new("e3_offload");
    snap.param_num("frame_bytes", frame_bytes as f64);
    snap.param_num("demand_points", demands.len() as f64);
    // Every planning decision logs its rationale (INFO "offload/plan"):
    // which plan won, against what all-device baseline.
    let blog = BenchLog::new("e3_offload");
    let mut plan_seq = 0u64;
    let recorder = FlightRecorder::new(1 << 16);
    // Re-estimating the winning plan lands per-task spans and headline
    // gauges in the snapshot registry, and the per-task span tree on the
    // flight ring the --artifacts bundle is rendered from.
    let estimate_obs = Obs {
        registry: snap.registry().clone(),
        parent: TraceContext::root(3, 0xE3),
        flight: Some(recorder.clone()),
        ..Obs::default()
    };

    for net in NetworkProfile::presets() {
        println!(
            "\nnetwork: {} (rtt {} ms, {} Mbps)",
            net.name, net.rtt_ms, net.bandwidth_mbps
        );
        row(&[
            "gigaops".into(),
            "device ms".into(),
            "cloud ms".into(),
            "best ms".into(),
            "offloaded".into(),
            "energy save".into(),
        ]);
        let mut break_even: Option<f64> = None;
        for &g in demands {
            let graph = TaskGraph::ar_pipeline(g, frame_bytes).expect("valid pipeline");
            let local = estimate(
                &graph,
                &OffloadPlan::all_device(&graph),
                &phone,
                &cloud,
                &net,
                &energy,
            )?;
            let remote = estimate(
                &graph,
                &OffloadPlan::all_cloud(&graph),
                &phone,
                &cloud,
                &net,
                &energy,
            )?;
            plan_seq += 1;
            let plan_obs = Obs {
                parent: blog.root().child(plan_seq),
                log: Some(blog.handle().clone()),
                ..Obs::default()
            };
            let (plan, best) =
                best_plan_logged(&graph, &phone, &cloud, &net, &energy, &plan_obs, plan_seq)?;
            let _ = estimate_traced(&graph, &plan, &phone, &cloud, &net, &energy, &estimate_obs)?;
            if remote.latency_ms < local.latency_ms && break_even.is_none() {
                break_even = Some(g);
            }
            let gl = format!("{g}");
            let labels = [("network", net.name.as_str()), ("gigaops", gl.as_str())];
            snap.gauge("device_ms", &labels, local.latency_ms);
            snap.gauge("cloud_ms", &labels, remote.latency_ms);
            snap.gauge("best_ms", &labels, best.latency_ms);
            row(&[
                f(g, 1),
                f(local.latency_ms, 1),
                f(remote.latency_ms, 1),
                f(best.latency_ms, 1),
                format!("{}/{}", plan.offloaded_count(), graph.len()),
                format!(
                    "{:.0}%",
                    (1.0 - best.device_energy_mj / local.device_energy_mj.max(1e-9)) * 100.0
                ),
            ]);
        }
        match break_even {
            Some(g) => println!("  → offloading wins from ~{g} gigaops on {}", net.name),
            None => println!(
                "  → offloading never wins in the swept range on {}",
                net.name
            ),
        }
    }
    println!(
        "\nexpected shape: faster networks (5G, WiFi) break even at lower compute\n\
         demand than LTE/3G; heavy analytics always offloads — the paper's cloud\n\
         argument HOLDS if the break-even ordering follows network speed"
    );
    let bundle = Artifacts::from_events("e3_offload", recorder.drain(), recorder.dropped_events());
    if let Some(report) = &bundle.xray {
        print!("{}", report.render_panel());
    }
    write_artifacts(&bundle)?;
    blog.finish();
    snap.write()?;
    Ok(())
}
