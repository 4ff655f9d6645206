//! # augur-xray
//!
//! Deterministic bottleneck analysis over flight-recorder drains: the
//! crate that tells the sharding arc *where* to shard and *how much* it
//! can win.
//!
//! The paper's scale argument (ROADMAP item 1) needs a number to beat
//! before any partitioning work starts. `augur-xray` produces that
//! number from artifacts the platform already emits:
//!
//! - **Critical path** ([`XrayReport::critical_path`]): per root trace
//!   tree, the longest causally-ordered chain of spans; frames are
//!   ranked by critical-path *self* time — time that actually gates
//!   end-to-end latency, unlike flat self time which also counts work
//!   hidden under concurrent siblings. [`XrayReport::head`] names the
//!   single heaviest frame: the first thing to shard.
//! - **Work/span speedup bounds** ([`XrayReport::parallel_speedup_bound`]):
//!   `work_us / span_us` (Brent's bound over independent root trees)
//!   and the pipelining bound `Σ stage busy / max stage busy` — the
//!   upper bound any sharding/pipelining change can realize. A PR that
//!   claims a 3× speedup where xray bounds it at 1.6× is measuring
//!   something else.
//! - **Queueing model** ([`XrayReport::stages`]): per-stage arrival
//!   rate, service time, utilization ρ and an M/M/1 queue-wait
//!   estimate, plus live queue occupancy ([`XrayReport::queues`])
//!   merged from the `pipeline_queue_*` metrics `augur-stream`'s
//!   continuous mode exports.
//!
//! Reports are a pure function of the drained events (BTreeMap
//! aggregation, fixed tie-breaks, canonical JSON via
//! [`render_json`]), so two same-seed runs produce byte-identical
//! artifacts: CI requires them to equal the committed baselines byte
//! for byte, and `augur-doctor diff` explains a difference.
//!
//! Lossy drains degrade loudly, never silently: when the ring dropped
//! events, [`XrayReport::truncated`] is set and consumers (doctor, the
//! watch panel) surface it instead of trusting a critical path with
//! holes in it.
//!
//! ## Example
//!
//! ```
//! use augur_telemetry::{FlightRecorder, TraceContext};
//!
//! let rec = FlightRecorder::new(64);
//! let root = TraceContext::root(7, 1);
//! let (read, transform) = (rec.intern("read"), rec.intern("transform"));
//! rec.record_span(root.child_named("read"), read, 0, 10);
//! rec.record_span(root.child_named("transform"), transform, 10, 30);
//! rec.record_span(root, rec.intern("run"), 0, 40);
//!
//! let report = augur_xray::analyze("demo", &rec.drain(), 0);
//! assert_eq!(report.head(), Some("transform"));
//! assert!(!report.truncated);
//! ```

use std::collections::BTreeMap;

use augur_telemetry::{MergedDrain, RegistrySnapshot};

use crate::tree::SpanForest;

/// One artifact bundle per run: trace, folded, speedscope, xray and
/// log files under one directory.
pub mod artifacts;
mod critical;
/// Flamegraph folding: per-stack-path self time, folded stacks and
/// speedscope JSON.
pub mod profile;
mod queue;
/// Canonical JSON and dashboard-panel rendering.
pub mod render;
mod tree;

/// Canonical JSON artifact and dashboard-panel renderers.
pub use render::{render_json, render_panel};

/// Span names under this prefix are **blocked windows** (contention:
/// channel full/empty, lock waits, injected stalls), not work. The
/// measured section counts them as blocked time, never busy time.
pub const BLOCKED_PREFIX: &str = "blocked/";

/// One span name's standing in the critical-path ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalFrame {
    /// Span name.
    pub name: String,
    /// Critical-path self time, microseconds (see [`crate`] docs).
    pub self_us: u64,
    /// Spans of this name that sat on a critical path.
    pub count: u64,
    /// Fraction of all critical-path time this name owns (0..=1).
    pub share: f64,
}

/// One service station (span name) in the queueing model.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStat {
    /// Span name.
    pub name: String,
    /// Jobs served (span count).
    pub count: u64,
    /// Total exclusive self time, microseconds.
    pub busy_us: u64,
    /// Arrival rate λ: jobs per second of makespan.
    pub arrival_per_s: f64,
    /// Mean service time S: busy time per job, microseconds.
    pub service_us: f64,
    /// Utilization ρ: busy time over makespan (0..=1, may reach 1).
    pub utilization: f64,
    /// M/M/1 queue-wait estimate `ρ/(1−ρ)·S`, microseconds (ρ clamped
    /// below 1 so saturation reads as a large finite wait).
    pub queue_wait_us: f64,
    /// `Wq / (Wq + S)`: the share of a job's sojourn spent waiting.
    pub queue_wait_share: f64,
    /// Measured blocked time attributed to this stage: Σ duration of
    /// `blocked/…` child spans recorded under spans of this name, µs.
    pub blocked_us: u64,
    /// `blocked / (busy + blocked)`: the measured share of this
    /// stage's wall time spent blocked rather than working.
    pub blocked_share: f64,
}

/// Measured (not modeled) per-lane accounting over a drain: the busy
/// and blocked time each worker lane actually spent, from its spans
/// and its `lane_busy_us` / `lane_blocked_us` counters.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneStat {
    /// Deterministic lane id (0 = control lane).
    pub lane: u16,
    /// Lane name from the merged drain (`lane-<id>` when analyzed
    /// from bare events).
    pub name: String,
    /// Busy time, µs: span self time outside `blocked/…` windows, or
    /// the lane's `lane_busy_us` counter when larger (spans may have
    /// been dropped by the ring; the counter never is).
    pub busy_us: u64,
    /// Blocked time, µs (`blocked/…` spans / `lane_blocked_us`).
    pub blocked_us: u64,
    /// Events this lane's ring dropped (exact, from the merged drain).
    pub dropped_events: u64,
    /// `busy / makespan`: the lane's measured utilization.
    pub utilization: f64,
    /// `blocked / makespan`: the share of the run this lane sat
    /// blocked on channels or locks.
    pub blocked_share: f64,
}

/// The *measured* parallelism section, reported beside the modeled
/// [`XrayReport::parallel_speedup_bound`]: what the lanes actually did,
/// not what the span structure says they could do.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeasuredSection {
    /// Lanes counted in the efficiency denominator: the worker lanes
    /// when any exist, else 1 for a pure control-lane drain.
    pub lanes: u64,
    /// Σ busy over the counted lanes, µs.
    pub busy_us: u64,
    /// Σ blocked over the counted lanes, µs.
    pub blocked_us: u64,
    /// `Σ busy / (lanes × makespan)`: measured parallel efficiency —
    /// near 1 means every lane worked the whole run; the number the
    /// sharding arc's 1→4→8 scaling claims are graded on. Worker-lane
    /// drains stay within `0..=1`; a pure control-lane drain whose
    /// modeled spans overlap (concurrent offload tasks on one
    /// recorder) can exceed 1, like stage utilization.
    pub parallel_efficiency: f64,
}

/// Live queue occupancy for one pipeline channel, merged from the
/// `pipeline_queue_*` metric families via [`XrayReport::with_registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueueStat {
    /// Pipeline topic the channel feeds.
    pub topic: String,
    /// Records enqueued over the run.
    pub enqueued: u64,
    /// Records dequeued over the run.
    pub dequeued: u64,
    /// Queue depth at snapshot time.
    pub depth: f64,
    /// Mean observed occupancy at enqueue time.
    pub occupancy_mean: f64,
    /// p95 observed occupancy at enqueue time.
    pub occupancy_p95: u64,
}

/// The full bottleneck readout; see the [`crate`] docs for semantics
/// and [`render_json`] for the artifact schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct XrayReport {
    /// Scenario or bench the drain came from.
    pub scenario: String,
    /// True when the ring dropped events: the critical path has holes
    /// and must not be trusted for gating. **Reserved for real loss** —
    /// intentional sampling reports `sampled` + `effective_rate`
    /// instead, so a reader of the report can tell the two apart.
    pub truncated: bool,
    /// Events the recorder accepted over its lifetime.
    pub total_events: u64,
    /// Events the ring dropped (not present in the drain).
    pub dropped_events: u64,
    /// True when the drain was produced under an intentional sampling
    /// policy (head sampling and/or tail retention); set via
    /// [`XrayReport::with_sampling`].
    pub sampled: bool,
    /// The kept fraction under the policy (1.0 when not sampling).
    pub effective_rate: f64,
    /// Inverse-probability estimate of the *population* root count:
    /// `roots / effective_rate` — the sampled stats scaled back up.
    pub estimated_roots: u64,
    /// Inverse-probability estimate of the population event count.
    pub estimated_events: u64,
    /// Root trace trees analyzed.
    pub roots: u64,
    /// Wall extent of the drain: max span end − min span start, µs.
    pub makespan_us: u64,
    /// Σ over roots of each root's critical-path length, µs.
    pub work_us: u64,
    /// Longest single root critical path, µs.
    pub span_us: u64,
    /// `work_us / span_us`: speedup bound from running independent
    /// root trees concurrently (conservative when roots overlap).
    pub work_span_bound: f64,
    /// `Σ stage busy / max stage busy`: speedup bound from pipelining
    /// the stages.
    pub stage_bound: f64,
    /// The headline: max of the two bounds — what a sharding PR must
    /// not claim to exceed.
    pub parallel_speedup_bound: f64,
    /// Measured parallelism (busy/blocked over lanes), beside the
    /// modeled bound above.
    pub measured: MeasuredSection,
    /// Per-name critical-path ranking, heaviest self time first.
    pub critical_path: Vec<CriticalFrame>,
    /// Per-name queueing model, sorted by name.
    pub stages: Vec<StageStat>,
    /// Measured per-lane accounting, sorted by lane id.
    pub lanes: Vec<LaneStat>,
    /// Live channel occupancy (empty until [`XrayReport::with_registry`]).
    pub queues: Vec<QueueStat>,
}

impl XrayReport {
    /// The heaviest critical-path frame — the first thing to shard —
    /// or `None` for an empty drain.
    pub fn head(&self) -> Option<&str> {
        self.critical_path.first().map(|f| f.name.as_str())
    }

    /// Merges live queue occupancy out of a registry snapshot: the
    /// `pipeline_enqueued_total` / `pipeline_dequeued_total` counters,
    /// the `pipeline_queue_depth` gauge and the
    /// `pipeline_queue_occupancy` histogram, grouped by their `topic`
    /// label. Returns `self` for chaining.
    pub fn with_registry(mut self, snap: &RegistrySnapshot) -> XrayReport {
        use std::collections::BTreeMap;
        let topic_of = |labels: &[(String, String)]| -> Option<String> {
            labels
                .iter()
                .find(|(k, _)| k == "topic")
                .map(|(_, v)| v.clone())
        };
        let mut by_topic: BTreeMap<String, QueueStat> = BTreeMap::new();
        fn slot(map: &mut BTreeMap<String, QueueStat>, topic: String) -> &mut QueueStat {
            map.entry(topic.clone()).or_insert(QueueStat {
                topic,
                enqueued: 0,
                dequeued: 0,
                depth: 0.0,
                occupancy_mean: 0.0,
                occupancy_p95: 0,
            })
        }
        for c in &snap.counters {
            let Some(topic) = topic_of(&c.labels) else {
                continue;
            };
            match c.name.as_str() {
                "pipeline_enqueued_total" => slot(&mut by_topic, topic).enqueued = c.value,
                "pipeline_dequeued_total" => slot(&mut by_topic, topic).dequeued = c.value,
                _ => {}
            }
        }
        for g in &snap.gauges {
            if g.name != "pipeline_queue_depth" {
                continue;
            }
            let Some(topic) = topic_of(&g.labels) else {
                continue;
            };
            slot(&mut by_topic, topic).depth = g.value;
        }
        for h in &snap.histograms {
            if h.name != "pipeline_queue_occupancy" {
                continue;
            }
            let Some(topic) = topic_of(&h.labels) else {
                continue;
            };
            let s = slot(&mut by_topic, topic);
            s.occupancy_mean = h.stats.mean();
            s.occupancy_p95 = h.stats.p95;
        }
        self.queues = by_topic.into_values().collect();
        self
    }

    /// Marks the report as intentionally sampled at `effective_rate`
    /// (the kept fraction, in `(0, 1]`) and fills the
    /// inverse-probability estimates: roots and events scale by
    /// `1/rate` so the report still speaks about the population the
    /// sample was drawn from. Non-positive or non-finite rates are
    /// treated as 1.0 (not sampling). Returns `self` for chaining.
    pub fn with_sampling(mut self, effective_rate: f64) -> XrayReport {
        let rate = if effective_rate.is_finite() && effective_rate > 0.0 {
            effective_rate.min(1.0)
        } else {
            1.0
        };
        self.effective_rate = rate;
        self.sampled = rate < 1.0;
        self.estimated_roots = inverse_scale(self.roots, rate);
        self.estimated_events = inverse_scale(self.total_events, rate);
        self
    }

    /// Renders the canonical JSON artifact (see [`render_json`]).
    pub fn render_json(&self) -> String {
        render::render_json(self)
    }

    /// Renders the dashboard panel (see [`render_panel`]).
    pub fn render_panel(&self) -> String {
        render::render_panel(self)
    }
}

/// Analyzes a drained event slice into an [`XrayReport`].
///
/// `dropped_events` comes from [`augur_telemetry::FlightRecorder::dropped_events`]
/// at drain time; any loss sets [`XrayReport::truncated`] because a
/// drain with holes can misattribute the critical path.
pub fn analyze(
    scenario: &str,
    events: &[augur_telemetry::FlightEvent],
    dropped_events: u64,
) -> XrayReport {
    let forest = SpanForest::build(events);
    let cp = critical::extract(&forest);
    let (stages, makespan_us, stage_bound) = queue::stage_stats(&forest);
    let (lanes, measured) = measured_lanes(&forest, makespan_us);
    let mut critical_path: Vec<CriticalFrame> = cp
        .per_name
        .iter()
        .map(|(name, acc)| CriticalFrame {
            name: name.clone(),
            self_us: acc.self_us,
            count: acc.count,
            share: if cp.work_us > 0 {
                acc.self_us as f64 / cp.work_us as f64
            } else {
                0.0
            },
        })
        .collect();
    critical_path.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.name.cmp(&b.name)));
    let work_span_bound = if cp.span_us > 0 {
        cp.work_us as f64 / cp.span_us as f64
    } else {
        1.0
    };
    let total_events = (events.len() as u64).saturating_add(dropped_events);
    XrayReport {
        scenario: scenario.to_string(),
        truncated: dropped_events > 0,
        total_events,
        dropped_events,
        sampled: false,
        effective_rate: 1.0,
        estimated_roots: cp.roots,
        estimated_events: total_events,
        roots: cp.roots,
        makespan_us,
        work_us: cp.work_us,
        span_us: cp.span_us,
        work_span_bound,
        stage_bound,
        parallel_speedup_bound: work_span_bound.max(stage_bound),
        measured,
        critical_path,
        stages,
        lanes,
        queues: Vec::new(),
    }
}

/// Analyzes a deterministic multi-lane merged drain: the merged event
/// list plus each lane's exact loss and busy/blocked counters. The
/// counters override span-derived accounting when larger (a lapped
/// ring drops spans; the counters never lose), and
/// [`MergedDrain::truncated`] propagates into [`XrayReport::truncated`].
pub fn analyze_merged(scenario: &str, merged: &MergedDrain) -> XrayReport {
    let mut report = analyze(scenario, &merged.events, merged.dropped_events);
    // Reconcile the event-derived lane stats with the merged summaries.
    for summary in &merged.lanes {
        let stat = match report.lanes.iter_mut().find(|l| l.lane == summary.id.0) {
            Some(stat) => stat,
            None => {
                report.lanes.push(LaneStat {
                    lane: summary.id.0,
                    name: String::new(),
                    busy_us: 0,
                    blocked_us: 0,
                    dropped_events: 0,
                    utilization: 0.0,
                    blocked_share: 0.0,
                });
                let idx = report.lanes.len() - 1;
                &mut report.lanes[idx]
            }
        };
        stat.name = summary.name.clone();
        stat.dropped_events = summary.dropped;
        stat.busy_us = stat.busy_us.max(summary.busy_us);
        stat.blocked_us = stat.blocked_us.max(summary.blocked_us);
    }
    report.lanes.sort_by_key(|l| l.lane);
    let makespan = report.makespan_us;
    for stat in &mut report.lanes {
        stat.utilization = ratio(stat.busy_us, makespan);
        stat.blocked_share = ratio(stat.blocked_us, makespan);
    }
    report.measured = summarize_lanes(&report.lanes, makespan);
    report.total_events = merged.total_events.max(report.total_events);
    report.estimated_events = report.total_events;
    report
}

/// Scales a sampled count back to its population estimate (`v / rate`,
/// rounded).
fn inverse_scale(v: u64, rate: f64) -> u64 {
    (v as f64 / rate).round() as u64
}

/// Per-lane busy/blocked accounting from the span forest alone: busy
/// is span *self* time outside `blocked/…` windows, blocked is the
/// summed duration of `blocked/…` spans.
fn measured_lanes(forest: &SpanForest, makespan_us: u64) -> (Vec<LaneStat>, MeasuredSection) {
    let mut acc: BTreeMap<u16, (u64, u64)> = BTreeMap::new();
    for (idx, node) in forest.nodes().iter().enumerate() {
        let slot = acc.entry(node.lane.0).or_insert((0, 0));
        if node.name.starts_with(BLOCKED_PREFIX) {
            slot.1 = slot.1.saturating_add(node.dur_us);
        } else {
            slot.0 = slot.0.saturating_add(forest.self_us(idx));
        }
    }
    let lanes: Vec<LaneStat> = acc
        .into_iter()
        .map(|(lane, (busy_us, blocked_us))| LaneStat {
            lane,
            name: if lane == 0 {
                "control".to_string()
            } else {
                format!("lane-{lane}")
            },
            busy_us,
            blocked_us,
            dropped_events: 0,
            utilization: ratio(busy_us, makespan_us),
            blocked_share: ratio(blocked_us, makespan_us),
        })
        .collect();
    let measured = summarize_lanes(&lanes, makespan_us);
    (lanes, measured)
}

/// Rolls per-lane stats up into the measured section: worker lanes
/// when any exist, else the control lane counted as one.
fn summarize_lanes(lanes: &[LaneStat], makespan_us: u64) -> MeasuredSection {
    let workers: Vec<&LaneStat> = lanes.iter().filter(|l| l.lane != 0).collect();
    let counted: Vec<&LaneStat> = if workers.is_empty() {
        lanes.iter().collect()
    } else {
        workers
    };
    let n = counted.len() as u64;
    let busy_us = counted
        .iter()
        .fold(0u64, |a, l| a.saturating_add(l.busy_us));
    let blocked_us = counted
        .iter()
        .fold(0u64, |a, l| a.saturating_add(l.blocked_us));
    let denom = n.saturating_mul(makespan_us);
    MeasuredSection {
        lanes: n.max(u64::from(!lanes.is_empty())),
        busy_us,
        blocked_us,
        parallel_efficiency: ratio(busy_us, denom),
    }
}

/// `num / den` as a float, 0 when the denominator is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den > 0 {
        num as f64 / den as f64
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_telemetry::{FlightRecorder, Registry, TraceContext};

    fn staged_frames(rec: &FlightRecorder, frames: u64) {
        // Frames of read(10) → transform(30) → layout(10) running back
        // to back: transform dominates.
        let (read, transform, layout) = (
            rec.intern("read"),
            rec.intern("transform"),
            rec.intern("layout"),
        );
        let frame = rec.intern("frame");
        for i in 0..frames {
            let root = TraceContext::root(9, i);
            let t0 = i * 50;
            rec.record_span(root.child_named("read"), read, t0, 10);
            rec.record_span(root.child_named("transform"), transform, t0 + 10, 30);
            rec.record_span(root.child_named("layout"), layout, t0 + 40, 10);
            rec.record_span(root, frame, t0, 50);
        }
    }

    #[test]
    fn head_names_the_dominant_stage() {
        let rec = FlightRecorder::new(64);
        staged_frames(&rec, 2);
        let report = analyze("unit", &rec.drain(), 0);
        assert_eq!(report.head(), Some("transform"));
        assert_eq!(report.roots, 2);
        assert_eq!(report.work_us, 100);
        assert_eq!(report.span_us, 50);
        assert!((report.work_span_bound - 2.0).abs() < 1e-12);
        // transform busy 60 of 100 total busy → stage bound 100/60.
        assert!((report.stage_bound - 100.0 / 60.0).abs() < 1e-12);
        assert!((report.parallel_speedup_bound - 2.0).abs() < 1e-12);
        let shares: f64 = report.critical_path.iter().map(|f| f.share).sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares partition the work");
    }

    #[test]
    fn lossy_drain_sets_truncated() {
        // Capacity-8 ring, 16 spans recorded → drops; the report must
        // flag itself rather than pass off a partial critical path.
        let rec = FlightRecorder::new(8);
        staged_frames(&rec, 4);
        let events = rec.drain();
        let dropped = rec.dropped_events();
        assert!(dropped > 0, "ring must have overflowed");
        let report = analyze("lossy", &events, dropped);
        assert!(report.truncated);
        assert_eq!(report.total_events, events.len() as u64 + dropped);
        assert!(report.render_json().contains("\"truncated\":true"));
    }

    #[test]
    fn registry_merge_fills_queue_stats() {
        let reg = Registry::new();
        let labels = &[("topic", "sensors")];
        reg.counter_labeled("pipeline_enqueued_total", labels)
            .add(100);
        reg.counter_labeled("pipeline_dequeued_total", labels)
            .add(98);
        reg.gauge_labeled("pipeline_queue_depth", labels).set(2.0);
        let occ = reg.histogram_labeled("pipeline_queue_occupancy", labels);
        for v in [1u64, 2, 3, 4] {
            occ.record(v);
        }
        let report = analyze("q", &[], 0).with_registry(&reg.snapshot());
        assert_eq!(report.queues.len(), 1);
        let q = &report.queues[0];
        assert_eq!(q.topic, "sensors");
        assert_eq!(q.enqueued, 100);
        assert_eq!(q.dequeued, 98);
        assert!((q.depth - 2.0).abs() < 1e-12);
        assert!(q.occupancy_mean > 0.0);
        assert!(q.occupancy_p95 >= 3);
    }

    #[test]
    fn render_is_deterministic_and_ordered() {
        let rec = FlightRecorder::new(64);
        staged_frames(&rec, 2);
        let events = rec.drain();
        let a = analyze("det", &events, 0).render_json();
        let b = analyze("det", &events, 0).render_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"xray\":\"det\""));
        assert!(a.contains("\"head\":\"transform\""));
        let t_at = a.find("\"name\":\"transform\"").unwrap_or(usize::MAX);
        let r_at = a.find("\"name\":\"read\"").unwrap_or(0);
        assert!(t_at < r_at, "critical path ranks heaviest first");
    }

    #[test]
    fn empty_drain_renders_null_head() {
        let report = analyze("empty", &[], 0);
        assert_eq!(report.head(), None);
        let json = report.render_json();
        assert!(json.contains("\"head\":null"));
        assert!(report.render_panel().contains("no spans drained"));
    }

    #[test]
    fn measured_section_covers_worker_lanes_and_blocked_time() {
        use augur_telemetry::{BlockedSite, Clock, Lanes, ManualTime};
        let lanes = Lanes::new(11, 64);
        let a = lanes.register("producer-0");
        let b = lanes.register("producer-1");
        // Each lane drives its own manual clock, the way the lane
        // benches do, so per-lane timelines are deterministic.
        for (lane, busy, stall) in [(&a, 80u64, 0u64), (&b, 60, 20)] {
            let time = ManualTime::shared();
            let clock: Clock = time.clone();
            let stage = lane.recorder().intern("produce");
            let w = lane.work(&clock, lane.root(), stage);
            time.advance_micros(busy);
            if stall > 0 {
                let blk = lane.block(&clock, w.ctx(), BlockedSite::Stall);
                time.advance_micros(stall);
                blk.end();
            }
            w.end();
        }
        let merged = lanes.merge_drains();
        assert_eq!(merged.lanes[1].busy_us, 60, "stall must not count busy");
        assert_eq!(merged.lanes[1].blocked_us, 20);
        let report = analyze_merged("lanes", &merged);
        // Both lanes span 0..80 -> makespan 80; busy 80 + 60 over
        // 2 lanes -> efficiency 140/160.
        assert_eq!(report.makespan_us, 80);
        assert_eq!(report.measured.lanes, 2);
        assert_eq!(report.measured.busy_us, 140);
        assert_eq!(report.measured.blocked_us, 20);
        assert!((report.measured.parallel_efficiency - 0.875).abs() < 1e-12);
        assert_eq!(report.lanes.len(), 2);
        assert_eq!(report.lanes[0].name, "producer-0");
        assert!((report.lanes[0].utilization - 1.0).abs() < 1e-12);
        assert!((report.lanes[1].blocked_share - 0.25).abs() < 1e-12);
        // The stall charged the stage it interrupted.
        let produce = report
            .stages
            .iter()
            .find(|s| s.name == "produce")
            .cloned()
            .unwrap_or_else(|| unreachable!("produce stage must exist"));
        assert_eq!(produce.blocked_us, 20);
        assert!((produce.blocked_share - 0.125).abs() < 1e-12);
        // The artifact renders both the modeled bound and the
        // measured section.
        let json = report.render_json();
        assert!(json.contains("\"parallel_speedup_bound\":"));
        assert!(json.contains("\"measured\":{\"lanes\":2,\"busy_us\":140,\"blocked_us\":20,"));
        assert!(json.contains("\"lanes\":[{\"lane\":1,\"name\":\"producer-0\""));
        let panel = report.render_panel();
        assert!(panel.contains("measured efficiency 0.88 over 2 lane(s)"));
        assert!(panel.contains("producer-1"));
    }

    #[test]
    fn single_lane_drain_measures_one_control_lane() {
        let rec = FlightRecorder::new(64);
        staged_frames(&rec, 2);
        let report = analyze("solo", &rec.drain(), 0);
        assert_eq!(report.measured.lanes, 1);
        assert_eq!(report.lanes.len(), 1);
        assert_eq!(report.lanes[0].name, "control");
        assert!(report.measured.parallel_efficiency > 0.0);
        assert_eq!(report.measured.blocked_us, 0);
    }

    #[test]
    fn merged_truncation_propagates_per_lane_drops() {
        use augur_telemetry::Lanes;
        let lanes = Lanes::new(12, 8);
        let lossy = lanes.register("lossy");
        let n = lossy.recorder().intern("x");
        for i in 0..20u64 {
            lossy
                .recorder()
                .record_span(lossy.next_ctx(lossy.root()), n, i, 1);
        }
        let merged = lanes.merge_drains();
        let report = analyze_merged("lossy", &merged);
        assert!(report.truncated);
        assert_eq!(report.dropped_events, 12);
        assert_eq!(report.total_events, 20);
        assert_eq!(report.lanes[0].dropped_events, 12);
        assert!(report.render_json().contains("\"dropped\":12"));
    }

    #[test]
    fn panel_lists_stages_by_critical_share() {
        let rec = FlightRecorder::new(64);
        staged_frames(&rec, 2);
        let report = analyze("panel", &rec.drain(), 0);
        let panel = report.render_panel();
        assert!(panel.contains("parallel speedup bound 2.00x"));
        let t_at = panel.find("transform").unwrap_or(usize::MAX);
        let r_at = panel.find("read").unwrap_or(0);
        assert!(t_at < r_at);
    }
}
