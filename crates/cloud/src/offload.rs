//! Offloading plans, latency estimation, and energy accounting.
//!
//! An [`OffloadPlan`] assigns every task to the device or the cloud.
//! [`estimate`] computes end-to-end latency along the DAG (compute on
//! the assigned resource, plus a network transfer whenever an edge
//! crosses the boundary) and device energy (compute power while running
//! locally, radio power while transferring). [`best_plan`] enumerates
//! all valid plans — AR pipelines are small DAGs, so exhaustive search
//! is exact and fast — giving experiment E3 its optimum curve.

use augur_telemetry::log::{Arg, Level, LogSite};
use augur_telemetry::{Obs, Registry, TraceContext, SPAN_LABEL, SPAN_METRIC};

use crate::error::CloudError;
use crate::executor::ComputeResource;
use crate::network::NetworkProfile;
use crate::task::TaskGraph;

/// Where a task runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// On the user's device.
    Device,
    /// In the cloud.
    Cloud,
}

/// A full assignment of tasks to placements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffloadPlan {
    /// Placement per task, indexed by task id.
    pub placements: Vec<Placement>,
}

impl OffloadPlan {
    /// Everything on the device.
    pub fn all_device(graph: &TaskGraph) -> Self {
        OffloadPlan {
            placements: vec![Placement::Device; graph.len()],
        }
    }

    /// Everything offloadable in the cloud (pinned tasks stay local).
    pub fn all_cloud(graph: &TaskGraph) -> Self {
        OffloadPlan {
            placements: graph
                .tasks()
                .iter()
                .map(|t| {
                    if t.pinned_to_device {
                        Placement::Device
                    } else {
                        Placement::Cloud
                    }
                })
                .collect(),
        }
    }

    /// Whether the plan respects device pinning.
    pub fn respects_pinning(&self, graph: &TaskGraph) -> bool {
        graph
            .tasks()
            .iter()
            .zip(&self.placements)
            .all(|(t, p)| !t.pinned_to_device || *p == Placement::Device)
    }

    /// Number of tasks placed in the cloud.
    pub fn offloaded_count(&self) -> usize {
        self.placements
            .iter()
            .filter(|p| **p == Placement::Cloud)
            .count()
    }
}

/// Device energy model parameters (typical smartphone figures).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Device power while computing, watts.
    pub compute_w: f64,
    /// Device power while the radio transfers, watts.
    pub radio_w: f64,
    /// Device idle power while waiting on the cloud, watts.
    pub idle_w: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            compute_w: 3.0,
            radio_w: 1.5,
            idle_w: 0.3,
        }
    }
}

/// The result of evaluating one plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// End-to-end latency, milliseconds (critical path through the DAG).
    pub latency_ms: f64,
    /// Device energy, millijoules.
    pub device_energy_mj: f64,
    /// Bytes shipped across the device/cloud boundary.
    pub transferred_bytes: u64,
}

/// Evaluates a plan.
///
/// Latency is the critical path: each task finishes at
/// `max(dep finish + edge transfer) + compute`, where edge transfer is
/// nonzero only when the edge crosses the boundary. Device energy counts
/// local compute at `compute_w`, boundary transfers at `radio_w`, and
/// cloud-side waits at `idle_w`.
///
/// # Errors
///
/// [`CloudError::PlanShapeMismatch`] when placements don't cover the
/// graph; [`CloudError::InvalidParameter`] when pinning is violated.
pub fn estimate(
    graph: &TaskGraph,
    plan: &OffloadPlan,
    device: &ComputeResource,
    cloud: &ComputeResource,
    network: &NetworkProfile,
    energy: &EnergyParams,
) -> Result<Estimate, CloudError> {
    estimate_inner(graph, plan, device, cloud, network, energy, None)
}

/// [`estimate`] reported through `obs`:
///
/// - **registry**: each task's modeled compute time lands in the span
///   family `span_duration_us{span="offload/<task>"}`, boundary
///   transfers in `span_duration_us{span="offload/transfer"}`, and the
///   plan's totals in the gauges `offload_latency_ms` /
///   `offload_device_energy_mj` and the counter
///   `offload_transferred_bytes_total`.
/// - **flight**: every task span lands on the ring as a child of its
///   critical-path predecessor (the dependency whose finish time gated
///   the task's start), rooted under `obs.parent`; boundary transfers
///   become children of the *producing* task. The resulting Chrome
///   trace renders the offload DAG as a timeline whose parent links
///   spell out exactly which edge made the plan slow.
///
/// All times are the estimator's modeled arithmetic, so with a fixed
/// graph and plan the metrics and events are bit-for-bit deterministic.
///
/// # Errors
///
/// Same contract as [`estimate`].
pub fn estimate_traced(
    graph: &TaskGraph,
    plan: &OffloadPlan,
    device: &ComputeResource,
    cloud: &ComputeResource,
    network: &NetworkProfile,
    energy: &EnergyParams,
    obs: &Obs,
) -> Result<Estimate, CloudError> {
    let est = estimate_inner(graph, plan, device, cloud, network, energy, Some(obs))?;
    let registry = &obs.registry;
    registry.gauge("offload_latency_ms").set(est.latency_ms);
    registry
        .gauge("offload_device_energy_mj")
        .set(est.device_energy_mj);
    registry
        .counter("offload_transferred_bytes_total")
        .add(est.transferred_bytes);
    Ok(est)
}

/// Records a modeled span duration into `span_duration_us{span=name}`.
fn record_span(registry: &Registry, name: &str, us: u64) {
    registry
        .histogram_labeled(SPAN_METRIC, &[(SPAN_LABEL, name)])
        .record(us);
}

/// Milliseconds (modeled, f64) to whole non-negative microseconds.
fn ms_to_us(ms: f64) -> u64 {
    if ms.is_finite() && ms > 0.0 {
        (ms * 1_000.0).round() as u64
    } else {
        0
    }
}

fn estimate_inner(
    graph: &TaskGraph,
    plan: &OffloadPlan,
    device: &ComputeResource,
    cloud: &ComputeResource,
    network: &NetworkProfile,
    energy: &EnergyParams,
    obs: Option<&Obs>,
) -> Result<Estimate, CloudError> {
    if plan.placements.len() != graph.len() {
        return Err(CloudError::PlanShapeMismatch {
            tasks: graph.len(),
            placements: plan.placements.len(),
        });
    }
    if !plan.respects_pinning(graph) {
        return Err(CloudError::InvalidParameter("plan violates device pinning"));
    }
    let registry = obs.map(|o| &o.registry);
    let flight = obs.and_then(|o| o.flight.as_ref().map(|rec| (rec, o.parent)));
    let mut finish = vec![0.0f64; graph.len()];
    // Per-task flight contexts: a task hangs off its critical-path
    // predecessor so parent links follow the latency-determining edges.
    let mut ctxs: Vec<TraceContext> = Vec::new();
    if let Some((_, parent)) = flight {
        ctxs = vec![parent; graph.len()];
    }
    let mut device_busy_ms = 0.0; // local compute time
    let mut radio_ms = 0.0; // boundary transfer time
    let mut transferred = 0u64;
    for &tid in graph.topo_order() {
        let t = graph.get(tid)?;
        let place = plan.placements[tid.0 as usize];
        let mut ready = 0.0f64;
        let mut gating: Option<u32> = None; // dep that determines `ready`
        for d in &t.deps {
            let dep_place = plan.placements[d.0 as usize];
            let dep_task = graph.get(*d)?;
            let mut at = finish[d.0 as usize];
            if dep_place != place {
                let ms = network.transfer_ms(dep_task.output_bytes);
                at += ms;
                radio_ms += ms;
                transferred += dep_task.output_bytes;
                if let Some(reg) = registry {
                    record_span(reg, "offload/transfer", ms_to_us(ms));
                }
                if let Some((rec, parent)) = flight {
                    // The transfer is caused by the producing task.
                    let dep_ctx = ctxs.get(d.0 as usize).copied().unwrap_or(parent);
                    let ctx = dep_ctx.child_named("offload/transfer");
                    let name = rec.intern("offload/transfer");
                    rec.record_span(ctx, name, ms_to_us(finish[d.0 as usize]), ms_to_us(ms));
                }
            }
            if at > ready {
                ready = at;
                gating = Some(d.0);
            }
        }
        let compute_ms = match place {
            Placement::Device => {
                let ms = device.compute_ms(t.gigaops);
                device_busy_ms += ms;
                ms
            }
            Placement::Cloud => cloud.compute_ms(t.gigaops),
        };
        let mut span = String::with_capacity(8 + t.name.len());
        span.push_str("offload/");
        span.push_str(&t.name);
        if let Some(reg) = registry {
            record_span(reg, &span, ms_to_us(compute_ms));
        }
        if let Some((rec, parent)) = flight {
            let base = match gating {
                Some(d) => ctxs.get(d as usize).copied().unwrap_or(parent),
                None => parent,
            };
            let ctx = base.child_named(&span);
            let name = rec.intern(&span);
            rec.record_span(ctx, name, ms_to_us(ready), ms_to_us(compute_ms));
            if let Some(slot) = ctxs.get_mut(tid.0 as usize) {
                *slot = ctx;
            }
        }
        finish[tid.0 as usize] = ready + compute_ms;
    }
    let latency_ms = finish.iter().cloned().fold(0.0, f64::max);
    let idle_ms = (latency_ms - device_busy_ms - radio_ms).max(0.0);
    let device_energy_mj =
        device_busy_ms * energy.compute_w + radio_ms * energy.radio_w + idle_ms * energy.idle_w;
    Ok(Estimate {
        latency_ms,
        device_energy_mj,
        transferred_bytes: transferred,
    })
}

/// Exhaustively searches all pin-respecting plans for the one minimising
/// latency (ties broken by device energy). Exact for graphs up to ~20
/// offloadable tasks.
///
/// # Errors
///
/// [`CloudError::InvalidParameter`] if the graph has more than 24
/// offloadable tasks (enumeration would explode); estimation errors
/// propagate.
pub fn best_plan(
    graph: &TaskGraph,
    device: &ComputeResource,
    cloud: &ComputeResource,
    network: &NetworkProfile,
    energy: &EnergyParams,
) -> Result<(OffloadPlan, Estimate), CloudError> {
    let free: Vec<usize> = graph
        .tasks()
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.pinned_to_device)
        .map(|(i, _)| i)
        .collect();
    if free.len() > 24 {
        return Err(CloudError::InvalidParameter(
            "too many offloadable tasks for exhaustive search",
        ));
    }
    let mut best: Option<(OffloadPlan, Estimate)> = None;
    for mask in 0u64..(1u64 << free.len()) {
        let mut placements = vec![Placement::Device; graph.len()];
        for (bit, &idx) in free.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                placements[idx] = Placement::Cloud;
            }
        }
        let plan = OffloadPlan { placements };
        let est = estimate(graph, &plan, device, cloud, network, energy)?;
        let better = match &best {
            None => true,
            Some((_, b)) => {
                est.latency_ms < b.latency_ms - 1e-12
                    || ((est.latency_ms - b.latency_ms).abs() <= 1e-12
                        && est.device_energy_mj < b.device_energy_mj)
            }
        };
        if better {
            best = Some((plan, est));
        }
    }
    // The mask loop always evaluates mask 0 (all-device), so `best` is Some
    // whenever we reach this point; a missing plan still maps to an error
    // rather than a panic.
    best.ok_or(CloudError::InvalidParameter("no offload plan evaluated"))
}

/// [`best_plan`] with the selection **rationale** on `obs.log`: one
/// INFO `offload/plan` record under `obs.parent` (timestamped `now_us`)
/// saying how many tasks went to the cloud, the winning latency, how
/// many milliseconds that saves over running everything on the device,
/// and the device energy spent. Plan selection is a rare, deliberate
/// decision, so the record is never rate-limited. Without a log this is
/// [`best_plan`].
///
/// # Errors
///
/// Same contract as [`best_plan`].
pub fn best_plan_logged(
    graph: &TaskGraph,
    device: &ComputeResource,
    cloud: &ComputeResource,
    network: &NetworkProfile,
    energy: &EnergyParams,
    obs: &Obs,
    now_us: u64,
) -> Result<(OffloadPlan, Estimate), CloudError> {
    let (plan, est) = best_plan(graph, device, cloud, network, energy)?;
    let Some(log) = &obs.log else {
        return Ok((plan, est));
    };
    let baseline = estimate(
        graph,
        &OffloadPlan::all_device(graph),
        device,
        cloud,
        network,
        energy,
    )?;
    log.event(
        &LogSite::unlimited(),
        Level::Info,
        obs.parent,
        "offload/plan",
        now_us,
        &[
            ("offloaded", Arg::U64(plan.offloaded_count() as u64)),
            ("latency_ms", Arg::F64(est.latency_ms)),
            ("saved_ms", Arg::F64(baseline.latency_ms - est.latency_ms)),
            ("energy_mj", Arg::F64(est.device_energy_mj)),
        ],
    );
    Ok((plan, est))
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_telemetry::log::FieldValue;

    fn setup() -> (TaskGraph, ComputeResource, ComputeResource, EnergyParams) {
        (
            TaskGraph::ar_pipeline(10.0, 500_000).unwrap(),
            ComputeResource::phone(),
            ComputeResource::cloud_vm(),
            EnergyParams::default(),
        )
    }

    #[test]
    fn best_plan_logged_records_the_selection_rationale() {
        use augur_telemetry::log::EventLog;
        let (g, phone, cloud, energy) = setup();
        let log = EventLog::new(16);
        let ctx = TraceContext::root(11, 3).child_named("offload");
        let obs = Obs {
            parent: ctx,
            log: Some(log.clone()),
            ..Obs::default()
        };
        let (plan, est) = best_plan_logged(
            &g,
            &phone,
            &cloud,
            &NetworkProfile::wifi(),
            &energy,
            &obs,
            2_500,
        )
        .unwrap();
        // Same winner as the unlogged search.
        let (want_plan, want_est) =
            best_plan(&g, &phone, &cloud, &NetworkProfile::wifi(), &energy).unwrap();
        assert_eq!(plan.placements, want_plan.placements);
        assert_eq!(est.latency_ms, want_est.latency_ms);
        let records = log.drain();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.msg, "offload/plan");
        assert_eq!(r.level, Level::Info);
        assert_eq!((r.trace_id, r.span_id), (ctx.trace_id, ctx.span_id));
        assert_eq!(r.ts_us, 2_500);
        let field = |k: &str| r.fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        assert_eq!(
            field("offloaded"),
            Some(&FieldValue::U64(plan.offloaded_count() as u64))
        );
        // Offloading the heavy analysis on wifi must save latency.
        match field("saved_ms") {
            Some(FieldValue::F64(saved)) => assert!(*saved > 0.0, "{saved}"),
            other => panic!("saved_ms missing or mistyped: {other:?}"),
        }
    }

    #[test]
    fn all_device_has_no_transfers() {
        let (g, phone, cloud, energy) = setup();
        let est = estimate(
            &g,
            &OffloadPlan::all_device(&g),
            &phone,
            &cloud,
            &NetworkProfile::wifi(),
            &energy,
        )
        .unwrap();
        assert_eq!(est.transferred_bytes, 0);
        // Dominated by the 10-gigaop analyze stage on a 2-GOPS phone: ≥ 5 s.
        assert!(est.latency_ms > 5_000.0, "{}", est.latency_ms);
    }

    #[test]
    fn offloading_heavy_analysis_wins_on_wifi() {
        let (g, phone, cloud, energy) = setup();
        let local = estimate(
            &g,
            &OffloadPlan::all_device(&g),
            &phone,
            &cloud,
            &NetworkProfile::wifi(),
            &energy,
        )
        .unwrap();
        let remote = estimate(
            &g,
            &OffloadPlan::all_cloud(&g),
            &phone,
            &cloud,
            &NetworkProfile::wifi(),
            &energy,
        )
        .unwrap();
        assert!(
            remote.latency_ms < local.latency_ms / 4.0,
            "remote {} vs local {}",
            remote.latency_ms,
            local.latency_ms
        );
        assert!(remote.transferred_bytes > 0);
    }

    #[test]
    fn light_compute_on_slow_network_stays_local() {
        // Tiny analysis, huge frame: shipping the frame over 3G loses.
        let g = TaskGraph::ar_pipeline(0.05, 5_000_000).unwrap();
        let phone = ComputeResource::phone();
        let cloud = ComputeResource::cloud_vm();
        let energy = EnergyParams::default();
        let (plan, _) = best_plan(&g, &phone, &cloud, &NetworkProfile::umts3g(), &energy).unwrap();
        assert_eq!(
            plan.offloaded_count(),
            0,
            "optimal plan should keep everything local"
        );
    }

    #[test]
    fn best_plan_is_at_least_as_good_as_baselines() {
        let (g, phone, cloud, energy) = setup();
        for net in NetworkProfile::presets() {
            let (plan, est) = best_plan(&g, &phone, &cloud, &net, &energy).unwrap();
            assert!(plan.respects_pinning(&g));
            for baseline in [OffloadPlan::all_device(&g), OffloadPlan::all_cloud(&g)] {
                let b = estimate(&g, &baseline, &phone, &cloud, &net, &energy).unwrap();
                assert!(
                    est.latency_ms <= b.latency_ms + 1e-9,
                    "{}: best {} vs baseline {}",
                    net.name,
                    est.latency_ms,
                    b.latency_ms
                );
            }
        }
    }

    #[test]
    fn plan_shape_and_pinning_validation() {
        let (g, phone, cloud, energy) = setup();
        let short = OffloadPlan {
            placements: vec![Placement::Device],
        };
        assert!(matches!(
            estimate(&g, &short, &phone, &cloud, &NetworkProfile::wifi(), &energy),
            Err(CloudError::PlanShapeMismatch { .. })
        ));
        let mut bad = OffloadPlan::all_device(&g);
        bad.placements[0] = Placement::Cloud; // capture is pinned
        assert!(estimate(&g, &bad, &phone, &cloud, &NetworkProfile::wifi(), &energy).is_err());
    }

    #[test]
    fn traced_estimate_matches_plain_and_records_spans() {
        let (g, phone, cloud, energy) = setup();
        let net = NetworkProfile::wifi();
        let plan = OffloadPlan::all_cloud(&g);
        let plain = estimate(&g, &plan, &phone, &cloud, &net, &energy).unwrap();
        let obs = Obs::default();
        let traced = estimate_traced(&g, &plan, &phone, &cloud, &net, &energy, &obs).unwrap();
        assert_eq!(plain, traced, "tracing must not change the estimate");
        let snap = obs.registry.snapshot();
        // One span family per task plus the transfer family.
        let span_names: Vec<&str> = snap
            .histograms
            .iter()
            .filter(|h| h.name == SPAN_METRIC)
            .flat_map(|h| &h.labels)
            .filter(|(k, _)| k == SPAN_LABEL)
            .map(|(_, v)| v.as_str())
            .collect();
        for t in g.tasks() {
            let span = format!("offload/{}", t.name);
            assert!(span_names.contains(&span.as_str()), "missing {span}");
        }
        assert!(span_names.contains(&"offload/transfer"));
        // Plan totals published as gauges/counters.
        assert_eq!(
            snap.gauges
                .iter()
                .find(|g| g.name == "offload_latency_ms")
                .map(|g| g.value),
            Some(traced.latency_ms)
        );
        assert_eq!(
            snap.counters
                .iter()
                .find(|c| c.name == "offload_transferred_bytes_total")
                .map(|c| c.value),
            Some(traced.transferred_bytes)
        );
    }

    #[test]
    fn flight_estimate_emits_causally_linked_task_spans() {
        use augur_telemetry::FlightRecorder;
        let (g, phone, cloud, energy) = setup();
        let net = NetworkProfile::wifi();
        let plan = OffloadPlan::all_cloud(&g);
        let recorder = FlightRecorder::new(128);
        let parent = TraceContext::root(11, 0);
        let obs = Obs {
            parent,
            flight: Some(recorder.clone()),
            ..Obs::default()
        };
        let plain = estimate(&g, &plan, &phone, &cloud, &net, &energy).unwrap();
        let est = estimate_traced(&g, &plan, &phone, &cloud, &net, &energy, &obs).unwrap();
        assert_eq!(plain, est, "flight recording must not change the estimate");
        let events = recorder.drain();
        // One span per task plus at least one boundary transfer.
        let task_spans: Vec<_> = events
            .iter()
            .filter(|e| e.name.starts_with("offload/") && e.name != "offload/transfer")
            .collect();
        assert_eq!(task_spans.len(), g.len());
        assert!(events.iter().any(|e| e.name == "offload/transfer"));
        // Every event is reachable from `parent` via parent_span_id links.
        for e in &events {
            assert_eq!(e.trace_id, parent.trace_id);
            let mut cursor = e.parent_span_id;
            let mut hops = 0;
            while cursor != parent.span_id {
                let Some(p) = events.iter().find(|x| x.span_id == cursor) else {
                    panic!("span {} has dangling parent {cursor:x}", e.name);
                };
                cursor = p.parent_span_id;
                hops += 1;
                assert!(hops <= events.len(), "parent chain must not cycle");
            }
        }
        // Determinism: a second identical run emits identical events.
        estimate_traced(&g, &plan, &phone, &cloud, &net, &energy, &obs).unwrap();
        assert_eq!(events, recorder.drain());
    }

    #[test]
    fn offloading_saves_device_energy_for_heavy_compute() {
        let (g, phone, cloud, energy) = setup();
        let net = NetworkProfile::wifi();
        let local = estimate(
            &g,
            &OffloadPlan::all_device(&g),
            &phone,
            &cloud,
            &net,
            &energy,
        )
        .unwrap();
        let remote = estimate(
            &g,
            &OffloadPlan::all_cloud(&g),
            &phone,
            &cloud,
            &net,
            &energy,
        )
        .unwrap();
        assert!(
            remote.device_energy_mj < local.device_energy_mj / 2.0,
            "remote {} vs local {} mJ",
            remote.device_energy_mj,
            local.device_energy_mj
        );
    }
}
