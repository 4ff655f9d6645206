//! The dataflow executor: source → transforms → (windowed) sink.
//!
//! Two execution modes cover the platform's needs:
//!
//! - **Bounded runs** ([`Pipeline::collect`], [`Pipeline::run_windowed`])
//!   process everything currently in the topic and return results plus
//!   [`PipelineMetrics`] — the workhorse of the throughput and timeliness
//!   experiments (E2, E12). Bounded runs support periodic checkpoints and
//!   crash injection so recovery semantics are testable.
//! - **Continuous mode** ([`Pipeline::spawn_continuous`]) runs a source
//!   thread feeding a bounded crossbeam channel (providing backpressure)
//!   into a worker thread, until the returned [`StopHandle`] stops it.
//!
//! Every run is instrumented through `augur-telemetry`: per-stage spans
//! (`span_duration_us{span="pipeline/…", topic}`), record/byte counters,
//! a per-record latency histogram, and a watermark-lateness histogram all
//! land in the builder's [`augur_telemetry::Registry`] (a private one by
//! default; plug in a shared one, plus flight/log/sampler/lane sinks, via
//! [`PipelineBuilder::obs`]).
//! Time is read through the pluggable [`Clock`] — [`MonotonicTime`] by
//! default, a [`augur_telemetry::ManualTime`] for deterministic runs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use augur_log::{EventLog, Level, LogSite, SymId, Value};
use augur_sample::Sampler;
use augur_telemetry::{
    BlockedSite, Clock, Counter, FlightRecorder, Gauge, Histogram, Lane, LaneBlock, LaneWork,
    Lanes, LocalHistogram, ManualTime, MonotonicTime, NameId, TraceContext, Tracer,
};
use crossbeam::channel;

use crate::broker::Broker;
use crate::checkpoint::CheckpointStore;
use crate::error::StreamError;
use crate::obs::Obs;
use crate::record::{PartitionId, Record};
use crate::watermark::{BoundedOutOfOrderness, WatermarkGenerator};
use crate::window::{Aggregation, WindowAssigner, WindowResult, WindowState, WindowedAggregator};

/// Metrics from a pipeline run.
///
/// This is a **view over the registry**: the fields are computed by
/// reading the pipeline's pre-registered counters at run start and end
/// and diffing, so the same numbers are visible to any exporter attached
/// to the registry (cumulatively, across runs) and to the caller (per
/// run, here).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineMetrics {
    /// Records read from the log.
    pub records_in: u64,
    /// Records surviving transforms (or window results emitted).
    pub records_out: u64,
    /// Payload bytes read.
    pub bytes_in: u64,
    /// Records dropped as late at the window operator.
    pub late_dropped: u64,
    /// Wall-clock duration of the run, seconds.
    pub elapsed_s: f64,
    /// Median per-record source→sink latency, microseconds (collect only).
    pub p50_latency_us: f64,
    /// 99th-percentile per-record latency, microseconds (collect only).
    pub p99_latency_us: f64,
}

impl PipelineMetrics {
    /// Records per second over the run.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.records_in as f64 / self.elapsed_s
        } else {
            0.0
        }
    }
}

/// A shared record decoder: turns opaque log payloads into typed items.
pub type Decoder<T> = Arc<dyn Fn(&Record) -> Option<T> + Send + Sync>;

/// A boxed transform stage (filter/map) over typed items.
pub type Transform<T> = Box<dyn FnMut(T) -> Option<T> + Send>;

/// The results of a bounded windowed run: emitted windows plus metrics.
pub type WindowedRun<Acc> = (Vec<WindowResult<Acc>>, PipelineMetrics);

/// Modeled per-record stage costs for deterministic runs (the workspace
/// convention: 1 work unit ≙ 1 µs of [`ManualTime`]). Used with
/// [`PipelineBuilder::modeled_costs`] so stage spans, busy counters and
/// xray critical paths come out identical on every same-seed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModeledCosts {
    /// Modeled microseconds charged per record read from the log.
    pub read_us: u64,
    /// Modeled microseconds charged per record in the transform stage
    /// (bounded [`Pipeline::collect`] runs).
    pub transform_us: u64,
    /// Modeled microseconds charged per record at the window operator
    /// (bounded [`Pipeline::run_windowed`] runs).
    pub window_us: u64,
}

/// Builds a [`Pipeline`]; see the module docs.
pub struct PipelineBuilder<T> {
    broker: Broker,
    topic: String,
    decoder: Decoder<T>,
    transforms: Vec<Transform<T>>,
    watermark_bound_us: u64,
    poll_batch: usize,
    channel_capacity: usize,
    arrival_order: bool,
    obs: Obs,
    clock: Clock,
    modeled: Option<(Arc<ManualTime>, ModeledCosts)>,
}

impl<T> std::fmt::Debug for PipelineBuilder<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineBuilder")
            .field("topic", &self.topic)
            .field("transforms", &self.transforms.len())
            .field("watermark_bound_us", &self.watermark_bound_us)
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> PipelineBuilder<T> {
    /// Starts a builder reading `topic` from `broker`, decoding payloads
    /// with `decoder` (records failing to decode are skipped — the
    /// "Variety" reality of mixed-schema topics).
    ///
    /// Bounded runs call `decoder` on records borrowed from the log while
    /// holding their partition's read lock, so it must not append to the
    /// topic it reads: that would deadlock on the partition's write lock.
    pub fn new(
        broker: Broker,
        topic: &str,
        decoder: impl Fn(&Record) -> Option<T> + Send + Sync + 'static,
    ) -> Self {
        PipelineBuilder {
            broker,
            topic: topic.to_string(),
            decoder: Arc::new(decoder),
            transforms: Vec::new(),
            watermark_bound_us: 1_000_000,
            poll_batch: 1024,
            channel_capacity: 4096,
            arrival_order: false,
            obs: Obs::default(),
            clock: MonotonicTime::shared(),
            modeled: None,
        }
    }

    /// Reports this pipeline into `obs` instead of the builder's private
    /// default registry:
    ///
    /// - **registry**: counters, latency histograms and stage spans.
    /// - **flight**: each bounded run emits a `pipeline/run` span (a
    ///   child of `obs.parent`) with `pipeline/read` /
    ///   `pipeline/transform` / `pipeline/window` stage children;
    ///   records carrying their own [`TraceContext`] also get
    ///   per-record events on the *producer's* chain, so a slow frame
    ///   can be traced through the stream layer.
    /// - **log**: run summaries and checkpoint/resume decisions at INFO,
    ///   late-drop and backpressure decisions at WARN (rate-limited per
    ///   site). Records carry the *same* span ids as the run's flight
    ///   spans, so Perfetto shows them inline via
    ///   `render_chrome_trace_with_logs`.
    /// - **sampler**: every flight-bound context — the per-run context
    ///   and each record's producer context — passes through the policy
    ///   first, so rejected chains record nothing. The verdict is a pure
    ///   function of `(seed, trace_id)`. Log records are never sampled.
    /// - **lanes**: the continuous-mode source pump and transform worker
    ///   each register a deterministic [`augur_telemetry::LaneId`] at
    ///   spawn; time blocked on the bounded channel is recorded as
    ///   `blocked/…` spans plus lane busy/blocked counters. Bounded runs
    ///   execute on the caller's thread and are unaffected.
    ///
    /// Every emit path is lock-free; a sink left `None` costs nothing.
    pub fn obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Reads time from `clock` instead of the default [`MonotonicTime`].
    /// Plug in an [`augur_telemetry::ManualTime`] to make span durations
    /// and `elapsed_s` deterministic in simulations.
    pub fn clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Puts the pipeline in **modeled-cost mode**: the pipeline reads
    /// time from `time` and *advances* it by the per-record stage costs
    /// in `costs` as records flow. Stage spans, the
    /// `pipeline_stage_busy_us_total` counters and any downstream xray
    /// analysis then describe the modeled workload exactly, identically
    /// on every same-seed run — the substrate the sharding-bound
    /// baselines are built on.
    pub fn modeled_costs(mut self, time: &Arc<ManualTime>, costs: ModeledCosts) -> Self {
        self.clock = time.clone();
        self.modeled = Some((Arc::clone(time), costs));
        self
    }

    /// Keeps only items satisfying `pred`.
    pub fn filter(mut self, mut pred: impl FnMut(&T) -> bool + Send + 'static) -> Self {
        self.transforms
            .push(Box::new(move |t| if pred(&t) { Some(t) } else { None }));
        self
    }

    /// Transforms each item.
    pub fn map(mut self, mut f: impl FnMut(T) -> T + Send + 'static) -> Self {
        self.transforms.push(Box::new(move |t| Some(f(t))));
        self
    }

    /// Sets the watermark out-of-orderness bound (default 1 s).
    pub fn watermark_bound_us(mut self, bound: u64) -> Self {
        self.watermark_bound_us = bound;
        self
    }

    /// Sets the channel capacity for continuous mode (default 4096).
    /// Smaller capacities apply backpressure sooner.
    pub fn channel_capacity(mut self, cap: usize) -> Self {
        self.channel_capacity = cap.max(1);
        self
    }

    /// Processes bounded runs in partition **arrival order** instead of
    /// merging by event time (the default). Arrival order is what a
    /// replay of a real log looks like: event times arrive out of order
    /// up to the sources' clock skew, which is exactly the situation
    /// watermarks exist for. Leave off for deterministic event-time
    /// processing; turn on to study lateness behaviour (ablation A1).
    pub fn arrival_order(mut self, on: bool) -> Self {
        self.arrival_order = on;
        self
    }

    /// Finalises the pipeline, registering its metric families up front
    /// so the record hot path touches only pre-registered atomic handles.
    pub fn build(self) -> Pipeline<T> {
        let instruments = Instruments::new(&self.obs, &self.clock, &self.topic);
        Pipeline {
            inner: self,
            instruments,
        }
    }
}

/// Flight-recorder wiring for one pipeline: the recorder and names
/// interned once at build time so the per-record path never takes the
/// interner lock.
#[derive(Clone)]
struct FlightWire {
    recorder: FlightRecorder,
    run_name: NameId,
    read_name: NameId,
    transform_name: NameId,
    window_name: NameId,
    record_name: NameId,
    late_name: NameId,
}

impl FlightWire {
    fn new(recorder: FlightRecorder) -> FlightWire {
        FlightWire {
            run_name: recorder.intern("pipeline/run"),
            read_name: recorder.intern("pipeline/read"),
            transform_name: recorder.intern("pipeline/transform"),
            window_name: recorder.intern("pipeline/window"),
            record_name: recorder.intern("pipeline/record"),
            late_name: recorder.intern("pipeline/late_drop"),
            recorder,
        }
    }
}

/// Structured-log wiring for one pipeline: the log, messages and keys
/// interned once at build time, and per-site token buckets so noisy
/// decision paths rate-limit themselves.
struct LogWire {
    log: EventLog,
    run_msg: SymId,
    late_msg: SymId,
    checkpoint_msg: SymId,
    resume_msg: SymId,
    backpressure_msg: SymId,
    key_records_in: SymId,
    key_records_out: SymId,
    key_late: SymId,
    key_lag_us: SymId,
    key_key: SymId,
    key_offset: SymId,
    key_topic: SymId,
    key_queued: SymId,
    topic_sym: SymId,
    /// Lifecycle records (run summary, checkpoint, resume): unlimited.
    run_site: LogSite,
    /// Per-record decision records (late drops, backpressure): a storm
    /// must degrade to a rate-limited sample plus a suppressed count.
    drop_site: LogSite,
    backpressure_site: LogSite,
}

impl LogWire {
    fn new(log: EventLog, topic: &str) -> LogWire {
        LogWire {
            run_msg: log.intern("pipeline/run"),
            late_msg: log.intern("pipeline/late_drop"),
            checkpoint_msg: log.intern("pipeline/checkpoint"),
            resume_msg: log.intern("pipeline/resume"),
            backpressure_msg: log.intern("pipeline/backpressure"),
            key_records_in: log.intern("records_in"),
            key_records_out: log.intern("records_out"),
            key_late: log.intern("late_dropped"),
            key_lag_us: log.intern("lag_us"),
            key_key: log.intern("key"),
            key_offset: log.intern("offset"),
            key_topic: log.intern("topic"),
            key_queued: log.intern("queued"),
            topic_sym: log.intern(topic),
            run_site: LogSite::unlimited(),
            drop_site: LogSite::new(16, 100),
            backpressure_site: LogSite::new(4, 10),
            log,
        }
    }
}

/// Pre-registered metric handles for one pipeline. The per-record hot
/// path updates these atomics only; the registry maps are never touched
/// after construction.
struct Instruments {
    tracer: Tracer,
    clock: Clock,
    records_in: Counter,
    records_out: Counter,
    late_dropped: Counter,
    record_latency_ns: Histogram,
    lateness_us: Histogram,
    /// Per-stage busy time (`pipeline_stage_busy_us_total{stage,topic}`),
    /// fed by every bounded run whether or not flight recording is on —
    /// the registry-side input to xray's stage utilization model.
    stage_busy_read: Counter,
    stage_busy_transform: Counter,
    stage_busy_window: Counter,
    /// Continuous-mode channel occupancy: enqueue/dequeue counters, the
    /// live depth gauge, and the depth-at-enqueue histogram xray merges
    /// into its queue report.
    enqueued: Counter,
    dequeued: Counter,
    queue_depth: Gauge,
    queue_occupancy: Histogram,
    /// The causal parent every run hangs off, on the flight ring and in
    /// the log alike.
    parent: TraceContext,
    flight: Option<FlightWire>,
    log: Option<Arc<LogWire>>,
    /// Head-sampling policy every flight-bound trace context passes
    /// through (`None` keeps everything).
    sampler: Option<Sampler>,
    /// Ordinal of the next bounded run; salts the per-run trace context
    /// so consecutive runs get distinct (but deterministic) span ids.
    runs: AtomicU64,
}

impl std::fmt::Debug for Instruments {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instruments").finish_non_exhaustive()
    }
}

/// Pipeline stages named on the flight ring.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    Run,
    Read,
    Transform,
    Window,
}

/// Counter readings captured at run start; diffing against them at run
/// end yields the per-run [`PipelineMetrics`] view.
struct RunStart {
    records_in: u64,
    records_out: u64,
    late_dropped: u64,
    start_nanos: u64,
}

impl Instruments {
    fn new(obs: &Obs, clock: &Clock, topic: &str) -> Instruments {
        let registry = &obs.registry;
        let labels = [("topic", topic)];
        Instruments {
            tracer: Tracer::with_labels(registry, Arc::clone(clock), &labels),
            clock: Arc::clone(clock),
            records_in: registry.counter_labeled("pipeline_records_in_total", &labels),
            records_out: registry.counter_labeled("pipeline_records_out_total", &labels),
            late_dropped: registry.counter_labeled("pipeline_late_dropped_total", &labels),
            record_latency_ns: registry.histogram_labeled("pipeline_record_latency_ns", &labels),
            lateness_us: registry.histogram_labeled("watermark_lateness_us", &labels),
            stage_busy_read: registry.counter_labeled(
                "pipeline_stage_busy_us_total",
                &[("stage", "read"), ("topic", topic)],
            ),
            stage_busy_transform: registry.counter_labeled(
                "pipeline_stage_busy_us_total",
                &[("stage", "transform"), ("topic", topic)],
            ),
            stage_busy_window: registry.counter_labeled(
                "pipeline_stage_busy_us_total",
                &[("stage", "window"), ("topic", topic)],
            ),
            enqueued: registry.counter_labeled("pipeline_enqueued_total", &labels),
            dequeued: registry.counter_labeled("pipeline_dequeued_total", &labels),
            queue_depth: registry.gauge_labeled("pipeline_queue_depth", &labels),
            queue_occupancy: registry.histogram_labeled("pipeline_queue_occupancy", &labels),
            parent: obs.parent,
            flight: obs.flight.clone().map(FlightWire::new),
            log: obs
                .log
                .clone()
                .map(|log| Arc::new(LogWire::new(log, topic))),
            sampler: obs.sampler.clone(),
            runs: AtomicU64::new(0),
        }
    }

    /// Passes `ctx` through the head-sampling policy (identity when no
    /// sampler is configured).
    fn sample_ctx(&self, ctx: TraceContext) -> TraceContext {
        match &self.sampler {
            Some(s) => s.apply(ctx),
            None => ctx,
        }
    }

    /// Hands out the next bounded-run ordinal; it salts the per-run
    /// trace context so consecutive runs get distinct span ids.
    fn next_run(&self) -> u64 {
        self.runs.fetch_add(1, Ordering::Relaxed)
    }

    /// The contexts for bounded run `ordinal`, `(flight, log)`: one
    /// `pipeline/run` child of the parent, so log records share the run
    /// span's ids. The flight copy passes through the sampler; the log
    /// copy does not. Each is `None` when its sink is not wired.
    fn run_ctx(&self, ordinal: u64) -> (Option<TraceContext>, Option<TraceContext>) {
        let ctx = self.parent.child(ordinal ^ 0x70_69_70_65); // "pipe" salt
        (
            self.flight.as_ref().map(|_| self.sample_ctx(ctx)),
            self.log.as_ref().map(|_| ctx),
        )
    }

    /// Closes a stage at the current clock: charges the elapsed time to
    /// the stage's `pipeline_stage_busy_us_total` counter (always — the
    /// registry view feeds xray's utilization model even without a
    /// flight recorder) and records the stage span as a child of
    /// `run_ctx` on the flight ring when wired.
    fn flight_stage(&self, run_ctx: Option<TraceContext>, stage: Stage, start_us: u64) {
        let end = self.clock.now_micros();
        let busy = end.saturating_sub(start_us);
        match stage {
            Stage::Run => {}
            Stage::Read => self.stage_busy_read.add(busy),
            Stage::Transform => self.stage_busy_transform.add(busy),
            Stage::Window => self.stage_busy_window.add(busy),
        }
        if let (Some(w), Some(ctx)) = (&self.flight, run_ctx) {
            let (name, label) = match stage {
                Stage::Run => (w.run_name, "pipeline/run"),
                Stage::Read => (w.read_name, "pipeline/read"),
                Stage::Transform => (w.transform_name, "pipeline/transform"),
                Stage::Window => (w.window_name, "pipeline/window"),
            };
            let child = if stage == Stage::Run {
                ctx
            } else {
                ctx.child_named(label)
            };
            w.recorder.record_span(child, name, start_us, busy);
        }
    }

    /// Emits the per-run INFO summary record (no-op when logging is off).
    fn log_run_summary(&self, log_ctx: Option<TraceContext>, metrics: &PipelineMetrics) {
        if let (Some(w), Some(ctx)) = (&self.log, log_ctx) {
            w.log.record(
                &w.run_site,
                Level::Info,
                ctx,
                w.run_msg,
                self.clock.now_micros(),
                &[
                    (w.key_topic, Value::Sym(w.topic_sym)),
                    (w.key_records_in, Value::U64(metrics.records_in)),
                    (w.key_records_out, Value::U64(metrics.records_out)),
                    (w.key_late, Value::U64(metrics.late_dropped)),
                ],
            );
        }
    }

    fn run_start(&self) -> RunStart {
        RunStart {
            records_in: self.records_in.get(),
            records_out: self.records_out.get(),
            late_dropped: self.late_dropped.get(),
            start_nanos: self.clock.now_nanos(),
        }
    }

    /// The per-run metrics view: counters diffed against `start`, elapsed
    /// time from the pipeline clock, latency quantiles from the run-local
    /// histogram (`None` for windowed runs, which do not time individual
    /// records).
    fn per_run(
        &self,
        start: &RunStart,
        bytes_in: u64,
        latency: Option<&LocalHistogram>,
    ) -> PipelineMetrics {
        let elapsed_ns = self.clock.now_nanos().saturating_sub(start.start_nanos);
        PipelineMetrics {
            records_in: self.records_in.get().saturating_sub(start.records_in),
            records_out: self.records_out.get().saturating_sub(start.records_out),
            bytes_in,
            late_dropped: self.late_dropped.get().saturating_sub(start.late_dropped),
            elapsed_s: elapsed_ns as f64 / 1e9,
            p50_latency_us: latency.map_or(0.0, |h| h.quantile(0.50) as f64 / 1_000.0),
            p99_latency_us: latency.map_or(0.0, |h| h.quantile(0.99) as f64 / 1_000.0),
        }
    }
}

/// Lane wiring for one continuous-mode thread: the lane handle, the
/// clock it measures blocked/busy time on, and the pre-interned name
/// its work spans carry.
struct LaneIo {
    lane: Lane,
    clock: Clock,
    work_name: NameId,
}

impl LaneIo {
    fn register(lanes: &Lanes, lane_name: &str, work_name: &str, clock: &Clock) -> LaneIo {
        let lane = lanes.register(lane_name);
        LaneIo {
            work_name: lane.recorder().intern(work_name),
            clock: Arc::clone(clock),
            lane,
        }
    }

    /// A work span under the lane root covering one batch/burst.
    fn work(&self) -> LaneWork {
        self.lane
            .work(&self.clock, self.lane.root(), self.work_name)
    }

    /// A blocked window, parented under `parent` when the wait happens
    /// inside a work span (so xray attributes it to that stage).
    fn block(&self, parent: Option<TraceContext>, site: BlockedSite) -> LaneBlock {
        self.lane
            .block(&self.clock, parent.unwrap_or(self.lane.root()), site)
    }
}

/// A runnable pipeline; create via [`PipelineBuilder`].
#[derive(Debug)]
pub struct Pipeline<T> {
    inner: PipelineBuilder<T>,
    instruments: Instruments,
}

/// Item with routing metadata flowing through a pipeline.
struct Flow<T> {
    key: u64,
    time_us: u64,
    trace: Option<TraceContext>,
    value: T,
}

/// Flows per storage chunk of a bounded read.
const FLOW_CHUNK: usize = 1024;

/// Decoded flows in arrival (partition-then-offset) order, kept in
/// chunks of [`FLOW_CHUNK`] instead of one vector sized to the whole
/// read. One allocation that large is served from memory the process
/// already holds only when the heap has a single free hole that big, so
/// a run's peak resident memory would hinge on how earlier work left the
/// heap fragmented; chunks fit the holes there are.
struct Flows<T> {
    chunks: Vec<Vec<Flow<T>>>,
    len: usize,
}

impl<T> Flows<T> {
    /// Room for `n` flows in the chunk table; chunks are made as filled.
    fn with_capacity(n: usize) -> Self {
        Flows {
            chunks: Vec::with_capacity(n.div_ceil(FLOW_CHUNK)),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, flow: Flow<T>) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < FLOW_CHUNK => chunk.push(flow),
            _ => {
                let mut chunk = Vec::with_capacity(FLOW_CHUNK);
                chunk.push(flow);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
    }

    fn get(&self, i: usize) -> &Flow<T> {
        &self.chunks[i / FLOW_CHUNK][i % FLOW_CHUNK]
    }

    fn iter(&self) -> impl Iterator<Item = &Flow<T>> {
        self.chunks.iter().flatten()
    }

    fn swap(&mut self, a: usize, b: usize) {
        let (ca, cb) = (a / FLOW_CHUNK, b / FLOW_CHUNK);
        if ca == cb {
            self.chunks[ca].swap(a % FLOW_CHUNK, b % FLOW_CHUNK);
        } else {
            let (lo, hi) = if ca < cb { (a, b) } else { (b, a) };
            let (head, tail) = self.chunks.split_at_mut(hi / FLOW_CHUNK);
            std::mem::swap(
                &mut head[lo / FLOW_CHUNK][lo % FLOW_CHUNK],
                &mut tail[0][hi % FLOW_CHUNK],
            );
        }
    }
}

impl<T> IntoIterator for Flows<T> {
    type Item = Flow<T>;
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Vec<Flow<T>>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.chunks.into_iter().flatten()
    }
}

/// One bounded read of a topic.
struct Scan<T> {
    /// Decoded items in arrival (partition-then-offset) order.
    flows: Flows<T>,
    /// The order the run visits `flows` in, as indices into it.
    order: Vec<usize>,
    /// Payload bytes of every record read, decoded or not.
    bytes: u64,
}

/// Reorders `flows` in place so that the flow at `order[k]` lands at
/// `k`. Each cycle of the permutation is followed once, so every flow is
/// swapped into its place directly and no second copy of `flows` exists.
fn permute<T>(flows: &mut Flows<T>, mut order: Vec<usize>) {
    const PLACED: usize = usize::MAX;
    for start in 0..order.len() {
        let mut k = start;
        while order[k] != PLACED {
            let src = std::mem::replace(&mut order[k], PLACED);
            if src != start {
                flows.swap(k, src);
            }
            k = src;
        }
    }
}

impl<T: Send + 'static> Pipeline<T> {
    /// Reads everything the topic holds at the start of the run. Every
    /// partition's end offset is snapshotted first, so records appended
    /// during the read are left out. Each partition is then drained to
    /// its snapshot in `poll_batch` chunks, decoded straight from the log
    /// under the partition's read lock. The visit order is event time
    /// (ties in arrival order), or arrival order under
    /// [`PipelineBuilder::arrival_order`].
    fn read_all(&self) -> Result<Scan<T>, StreamError> {
        let b = &self.inner.broker;
        let topic = &self.inner.topic;
        let ends = (0..b.partition_count(topic)?)
            .map(|p| b.end_offset(topic, PartitionId(p)))
            .collect::<Result<Vec<u64>, _>>()?;
        let mut flows = Flows::with_capacity(ends.iter().sum::<u64>() as usize);
        let mut bytes = 0u64;
        for (p, &end) in (0..).map(PartitionId).zip(&ends) {
            let mut from = 0u64;
            while from < end {
                let max = (end - from).min(self.inner.poll_batch as u64) as usize;
                let read = b.visit(topic, p, from, max, |_, records| {
                    for r in records {
                        bytes += r.payload.len() as u64;
                        if let Some(v) = (self.inner.decoder)(r) {
                            flows.push(Flow {
                                key: r.key,
                                time_us: r.event_time_us,
                                // Head sampling decides here, once per
                                // record, so every downstream per-record
                                // flight event inherits the verdict.
                                trace: r.trace.map(|c| self.instruments.sample_ctx(c)),
                                value: v,
                            });
                        }
                    }
                    records.len()
                })?;
                if read == 0 {
                    break;
                }
                from += read as u64;
            }
        }
        let order = if self.inner.arrival_order {
            (0..flows.len()).collect()
        } else {
            // Sort compact (time, arrival index) keys, never the flows:
            // the index breaks ties, so this is exactly the permutation a
            // stable sort by event time gives.
            let mut keys: Vec<(u64, usize)> = flows
                .iter()
                .enumerate()
                .map(|(i, f)| (f.time_us, i))
                .collect();
            keys.sort_unstable();
            keys.into_iter().map(|(_, i)| i).collect()
        };
        Ok(Scan {
            flows,
            order,
            bytes,
        })
    }

    /// Processes everything currently in the topic through the
    /// transforms, returning the surviving items and metrics (including
    /// per-record latency percentiles).
    ///
    /// # Errors
    ///
    /// Propagates broker errors ([`StreamError::UnknownTopic`] etc.).
    pub fn collect(&mut self) -> Result<(Vec<T>, PipelineMetrics), StreamError> {
        let run = self.instruments.run_start();
        let ordinal = self.instruments.next_run();
        let (run_ctx, log_ctx) = self.instruments.run_ctx(ordinal);
        let run_t0 = self.instruments.clock.now_micros();
        let Scan {
            mut flows,
            order,
            bytes,
        } = {
            let _read = self.instruments.tracer.span("pipeline/read");
            self.read_all()?
        };
        if let Some((time, costs)) = &self.inner.modeled {
            time.advance_micros(costs.read_us.saturating_mul(flows.len() as u64));
        }
        self.instruments.flight_stage(run_ctx, Stage::Read, run_t0);
        self.instruments.records_in.add(flows.len() as u64);
        permute(&mut flows, order);
        // Run-local, non-atomic histogram for the per-run quantile view,
        // folded into the shared `pipeline_record_latency_ns` family once
        // at run end (`Histogram::merge_local`).
        let mut run_latency = LocalHistogram::new();
        let mut out = Vec::new();
        {
            let _transform = self.instruments.tracer.span("pipeline/transform");
            let transform_t0 = self.instruments.clock.now_micros();
            for flow in flows {
                let t0 = self.instruments.clock.now_nanos();
                if let Some((time, costs)) = &self.inner.modeled {
                    time.advance_micros(costs.transform_us);
                }
                let mut v = Some(flow.value);
                for tr in &mut self.inner.transforms {
                    v = match v {
                        Some(x) => tr(x),
                        None => break,
                    };
                }
                if let Some(x) = v {
                    let dt = self.instruments.clock.now_nanos().saturating_sub(t0);
                    run_latency.record(dt);
                    // A record carrying its producer's context gets a
                    // per-record span on that chain: the cross-layer link.
                    if let (Some(w), Some(ctx)) = (&self.instruments.flight, flow.trace) {
                        w.recorder.record_span(
                            ctx.child_named("pipeline/record"),
                            w.record_name,
                            t0 / 1_000,
                            dt / 1_000,
                        );
                    }
                    out.push(x);
                }
            }
            self.instruments
                .flight_stage(run_ctx, Stage::Transform, transform_t0);
        }
        self.instruments.records_out.add(out.len() as u64);
        self.instruments.record_latency_ns.merge_local(&run_latency);
        self.instruments.flight_stage(run_ctx, Stage::Run, run_t0);
        let metrics = self.instruments.per_run(&run, bytes, Some(&run_latency));
        self.instruments.log_run_summary(log_ctx, &metrics);
        Ok((out, metrics))
    }

    /// Runs the full windowed dataflow over everything currently in the
    /// topic: transforms, watermarking, keyed windowed aggregation.
    ///
    /// `checkpoints` optionally saves (offset, operator-state) snapshots
    /// every `interval` input records; `crash_after` aborts the run after
    /// that many records to simulate failure (used by recovery tests —
    /// resume by calling again with `resume: true`, which restores the
    /// latest checkpoint and re-reads only unprocessed input).
    ///
    /// # Errors
    ///
    /// Propagates broker and checkpoint errors.
    #[allow(clippy::too_many_arguments)]
    pub fn run_windowed<W, A>(
        &mut self,
        assigner: W,
        aggregation: A,
        checkpoints: Option<(&CheckpointStore<WindowState<A::Acc>>, usize)>,
        crash_after: Option<usize>,
        resume: bool,
    ) -> Result<WindowedRun<A::Acc>, StreamError>
    where
        T: Clone,
        W: WindowAssigner,
        A: Aggregation<T>,
    {
        let run = self.instruments.run_start();
        let mut agg = WindowedAggregator::new(assigner, aggregation);
        let mut wm = BoundedOutOfOrderness::new(self.inner.watermark_bound_us);
        let mut processed_before: u64 = 0;
        if resume {
            let store = checkpoints
                .as_ref()
                .ok_or(StreamError::InvalidPipelineState(
                    "resume requires a checkpoint store",
                ))?
                .0;
            let cp = store.latest()?;
            agg.restore(cp.state.clone());
            processed_before = *cp
                .offsets
                .get(&(self.inner.topic.clone(), u32::MAX))
                .unwrap_or(&0);
        }
        let ordinal = self.instruments.next_run();
        let (run_ctx, log_ctx) = self.instruments.run_ctx(ordinal);
        // Resume is a recovery *decision*: worth a log record saying
        // where the merged cursor restarted.
        if resume {
            if let (Some(w), Some(ctx)) = (&self.instruments.log, log_ctx) {
                w.log.record(
                    &w.run_site,
                    Level::Info,
                    ctx,
                    w.resume_msg,
                    self.instruments.clock.now_micros(),
                    &[
                        (w.key_topic, Value::Sym(w.topic_sym)),
                        (w.key_offset, Value::U64(processed_before)),
                    ],
                );
            }
        }
        let run_t0 = self.instruments.clock.now_micros();
        // The bounded run reads a time-ordered merge of all partitions;
        // the "offset" we checkpoint is the index into that merged order,
        // stored under partition u32::MAX (single logical cursor).
        let Scan {
            flows,
            order,
            bytes,
        } = {
            let _read = self.instruments.tracer.span("pipeline/read");
            self.read_all()?
        };
        if let Some((time, costs)) = &self.inner.modeled {
            time.advance_micros(costs.read_us.saturating_mul(flows.len() as u64));
        }
        self.instruments.flight_stage(run_ctx, Stage::Read, run_t0);
        // This run visits merged positions `first..stop`: a resume skips
        // what its checkpoint covers, and `crash_after` stops the run at
        // that position.
        let first = usize::try_from(processed_before)
            .unwrap_or(usize::MAX)
            .min(order.len());
        let stop = crash_after.map_or(order.len(), |limit| limit.clamp(first, order.len()));
        let crashed = stop < order.len();
        // Run-local, non-atomic lateness histogram, folded into the
        // shared `watermark_lateness_us` family once at run end.
        let mut run_lateness = LocalHistogram::new();
        let mut emitted: Vec<WindowResult<A::Acc>> = Vec::new();
        {
            let _window = self.instruments.tracer.span("pipeline/window");
            let window_t0 = self.instruments.clock.now_micros();
            for (i, &j) in (first..stop).zip(&order[first..stop]) {
                let flow = flows.get(j);
                if let Some((time, costs)) = &self.inner.modeled {
                    time.advance_micros(costs.window_us);
                }
                let mut v = Some(flow.value.clone());
                for tr in &mut self.inner.transforms {
                    v = match v {
                        Some(x) => tr(x),
                        None => break,
                    };
                }
                if let Some(x) = v {
                    if wm.observe(flow.time_us).is_some() {
                        emitted.extend(agg.advance(wm.current()));
                    }
                    // Lateness relative to the current watermark: 0 for
                    // on-time records, positive for stragglers — the
                    // distribution A1 uses to size the disorder bound.
                    let lateness = wm.current().0.saturating_sub(flow.time_us);
                    run_lateness.record(lateness);
                    let accepted = agg.offer(flow.key, flow.time_us, &x);
                    // Late drops become flight instants on the producer's
                    // chain: the trace shows *which* frame lost data.
                    if let (Some(w), Some(ctx), false) =
                        (&self.instruments.flight, flow.trace, accepted)
                    {
                        w.recorder.record_instant(
                            ctx.child_named("pipeline/late_drop"),
                            w.late_name,
                            self.instruments.clock.now_micros(),
                            lateness,
                        );
                    }
                    // And a WARN record explaining the decision — on the
                    // producer's chain when the record carries one, else
                    // under the run context. Rate-limited: a late storm
                    // degrades to a sample plus a suppressed count.
                    if !accepted {
                        if let Some(w) = &self.instruments.log {
                            let ctx = flow
                                .trace
                                .map(|c| c.child_named("pipeline/late_drop"))
                                .or(log_ctx);
                            if let Some(ctx) = ctx {
                                w.log.record(
                                    &w.drop_site,
                                    Level::Warn,
                                    ctx,
                                    w.late_msg,
                                    self.instruments.clock.now_micros(),
                                    &[
                                        (w.key_lag_us, Value::U64(lateness)),
                                        (w.key_key, Value::U64(flow.key)),
                                    ],
                                );
                            }
                        }
                    }
                }
                if let Some((store, interval)) = &checkpoints {
                    if interval > &0 && (i + 1) % interval == 0 {
                        let mut offsets = std::collections::HashMap::new();
                        offsets.insert((self.inner.topic.clone(), u32::MAX), (i + 1) as u64);
                        store.save(offsets, agg.snapshot());
                        if let (Some(w), Some(ctx)) = (&self.instruments.log, log_ctx) {
                            w.log.record(
                                &w.run_site,
                                Level::Info,
                                ctx,
                                w.checkpoint_msg,
                                self.instruments.clock.now_micros(),
                                &[
                                    (w.key_topic, Value::Sym(w.topic_sym)),
                                    (w.key_offset, Value::U64((i + 1) as u64)),
                                ],
                            );
                        }
                    }
                }
            }
            if !crashed {
                emitted.extend(agg.flush());
            }
            self.instruments
                .flight_stage(run_ctx, Stage::Window, window_t0);
        }
        self.instruments.records_in.add((stop - first) as u64);
        self.instruments.lateness_us.merge_local(&run_lateness);
        self.instruments.flight_stage(run_ctx, Stage::Run, run_t0);
        self.instruments.records_out.add(emitted.len() as u64);
        self.instruments.late_dropped.add(agg.late_dropped());
        let metrics = self.instruments.per_run(&run, bytes, None);
        self.instruments.log_run_summary(log_ctx, &metrics);
        Ok((emitted, metrics))
    }

    /// Spawns continuous execution: a source thread tails the topic and
    /// feeds a bounded channel (backpressure), a worker thread applies
    /// the transforms and calls `sink`.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn spawn_continuous(
        self,
        mut sink: impl FnMut(T) + Send + 'static,
    ) -> Result<StopHandle, StreamError> {
        let parts = self.inner.broker.partition_count(&self.inner.topic)?;
        let stop = Arc::new(AtomicBool::new(false));
        let processed = Arc::new(AtomicU64::new(0));
        let (tx, rx) = channel::bounded::<Flow<T>>(self.inner.channel_capacity);
        let broker = self.inner.broker.clone();
        let topic = self.inner.topic.clone();
        let decoder = Arc::clone(&self.inner.decoder);
        let poll_batch = self.inner.poll_batch;
        let stop_src = Arc::clone(&stop);
        let records_in = self.instruments.records_in.clone();
        let records_out = self.instruments.records_out.clone();
        let log_wire = self.instruments.log.as_ref().map(Arc::clone);
        let parent = self.instruments.parent;
        let sampler = self.instruments.sampler.clone();
        let clock = Arc::clone(&self.instruments.clock);
        let channel_capacity = self.inner.channel_capacity;
        // Channel occupancy accounting: an approximate depth counter
        // shared by both threads, exported as a gauge plus an enqueue-time
        // occupancy histogram — the live inputs to xray's queue report.
        // The worker may dequeue a record before the pump counts it in,
        // briefly wrapping the counter below zero; the pump's increment
        // therefore wraps too, landing back on the true depth.
        let depth = Arc::new(AtomicU64::new(0));
        let depth_src = Arc::clone(&depth);
        let depth_worker = Arc::clone(&depth);
        let enqueued = self.instruments.enqueued.clone();
        let dequeued = self.instruments.dequeued.clone();
        let queue_depth_src = self.instruments.queue_depth.clone();
        let queue_depth_worker = self.instruments.queue_depth.clone();
        let queue_occupancy = self.instruments.queue_occupancy.clone();
        // Lane registration happens here, on the *spawning* thread, so
        // lane ids are assigned in program order (pump then worker) no
        // matter how the OS schedules the threads.
        let pump_io = self.inner.obs.lanes.as_ref().map(|l| {
            LaneIo::register(
                l,
                &format!("{}/pump", self.inner.topic),
                "pipeline/pump",
                &clock,
            )
        });
        let worker_io = self.inner.obs.lanes.as_ref().map(|l| {
            LaneIo::register(
                l,
                &format!("{}/worker", self.inner.topic),
                "pipeline/process",
                &clock,
            )
        });
        let source = std::thread::spawn(move || {
            let mut offsets = vec![0u64; parts as usize];
            while !stop_src.load(Ordering::Acquire) {
                let mut idle = true;
                for p in 0..parts {
                    let batch = match broker.poll(
                        &topic,
                        PartitionId(p),
                        offsets[p as usize],
                        poll_batch,
                    ) {
                        Ok(b) => b,
                        Err(_) => return,
                    };
                    if let Some(last) = batch.last() {
                        offsets[p as usize] = last.offset.0 + 1;
                        idle = false;
                    }
                    // One pump work span per non-empty batch; send waits
                    // nest under it so xray charges them to the pump.
                    let batch_work = if batch.is_empty() {
                        None
                    } else {
                        pump_io.as_ref().map(LaneIo::work)
                    };
                    for pr in batch {
                        records_in.inc();
                        if let Some(v) = decoder(&pr.record) {
                            let flow = Flow {
                                key: pr.record.key,
                                time_us: pr.record.event_time_us,
                                trace: pr
                                    .record
                                    .trace
                                    .map(|c| sampler.as_ref().map_or(c, |s| s.apply(c))),
                                value: v,
                            };
                            // Try fast first: a full channel is the
                            // backpressure *decision*, logged (rate-
                            // limited) before spinning on the non-blocking
                            // send that applies it. The pump never takes a
                            // blocking call: backpressure is a yield loop
                            // that keeps honouring the stop flag.
                            match tx.try_send(flow) {
                                Ok(()) => {
                                    enqueued.inc();
                                    let d =
                                        depth_src.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
                                    queue_occupancy.record(d);
                                    queue_depth_src.set_u64(d);
                                }
                                Err(channel::TrySendError::Full(full)) => {
                                    if let Some(w) = &log_wire {
                                        w.log.record(
                                            &w.backpressure_site,
                                            Level::Warn,
                                            parent.child_named("pipeline/backpressure"),
                                            w.backpressure_msg,
                                            clock.now_micros(),
                                            &[
                                                (w.key_topic, Value::Sym(w.topic_sym)),
                                                (w.key_queued, Value::U64(channel_capacity as u64)),
                                            ],
                                        );
                                    }
                                    // The spin itself is the measured
                                    // blocked window: it ends the moment
                                    // the send succeeds (or the pump
                                    // gives up on stop/disconnect).
                                    let _blocked = pump_io.as_ref().map(|io| {
                                        io.block(
                                            batch_work.as_ref().map(LaneWork::ctx),
                                            BlockedSite::ChannelSend,
                                        )
                                    });
                                    let mut flow = full;
                                    loop {
                                        if stop_src.load(Ordering::Acquire) {
                                            return;
                                        }
                                        match tx.try_send(flow) {
                                            Ok(()) => {
                                                enqueued.inc();
                                                let d = depth_src
                                                    .fetch_add(1, Ordering::Relaxed)
                                                    .wrapping_add(1);
                                                queue_occupancy.record(d);
                                                queue_depth_src.set_u64(d);
                                                break;
                                            }
                                            Err(channel::TrySendError::Full(f)) => {
                                                flow = f;
                                                std::thread::yield_now();
                                            }
                                            Err(channel::TrySendError::Disconnected(_)) => return,
                                        }
                                    }
                                }
                                Err(channel::TrySendError::Disconnected(_)) => return,
                            }
                        }
                    }
                }
                if idle {
                    // An empty poll round parks with a scheduler yield —
                    // not a sleep — so the pump stays blocking-free and
                    // reacts to new records and to stop immediately.
                    std::thread::yield_now();
                }
            }
        });
        let mut transforms = self.inner.transforms;
        // An idle worker spins in place when the host has a core to
        // spare. Yielding hands the core to a pump that shares it, and
        // two threads trading one core keep each other cache-hot, so the
        // scheduler never moves either away: the pipeline would run on
        // one core or on two depending on where its threads started, and
        // its CPU cost and latency would change from run to run. On a
        // single core the worker must yield, or the pump would wait out
        // the worker's whole time slice for every record.
        let spin_in_place = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        let stop_worker = Arc::clone(&stop);
        let processed_worker = Arc::clone(&processed);
        let worker = std::thread::spawn(move || {
            // The worker alternates between a busy burst (one work span
            // covering consecutive records) and a blocked window on the
            // empty channel — together they cover the lane's timeline.
            let mut burst: Option<LaneWork> = None;
            let mut waiting: Option<LaneBlock> = None;
            loop {
                match rx.try_recv() {
                    Ok(flow) => {
                        waiting = None;
                        if burst.is_none() {
                            burst = worker_io.as_ref().map(LaneIo::work);
                        }
                        dequeued.inc();
                        let d = depth_worker
                            .fetch_sub(1, Ordering::Relaxed)
                            .saturating_sub(1);
                        queue_depth_worker.set_u64(d);
                        let mut v = Some(flow.value);
                        for tr in &mut transforms {
                            v = match v {
                                Some(x) => tr(x),
                                None => break,
                            };
                        }
                        if let Some(x) = v {
                            sink(x);
                            records_out.inc();
                            processed_worker.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(channel::TryRecvError::Empty) => {
                        burst = None;
                        // Drained: stop only once the queue is empty, so a
                        // stop signal never abandons accepted records.
                        if stop_worker.load(Ordering::Acquire) {
                            break;
                        }
                        if waiting.is_none() {
                            waiting = worker_io
                                .as_ref()
                                .map(|io| io.block(None, BlockedSite::ChannelRecv));
                        }
                        if spin_in_place {
                            std::hint::spin_loop();
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    Err(channel::TryRecvError::Disconnected) => break,
                }
            }
            drop(waiting);
            drop(burst);
        });
        Ok(StopHandle {
            stop,
            processed,
            handles: vec![source, worker],
        })
    }
}

/// Controls a continuously running pipeline.
#[derive(Debug)]
pub struct StopHandle {
    stop: Arc<AtomicBool>,
    processed: Arc<AtomicU64>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl StopHandle {
    /// Records processed by the worker so far.
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Signals stop and joins the threads.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for StopHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{CountAggregation, TumblingWindows};
    use std::time::Instant;

    fn setup(partitions: u32, n: u64) -> Broker {
        let b = Broker::new();
        b.create_topic("t", partitions).unwrap();
        b.append_batch(
            "t",
            (0..n).map(|i| Record::new(i % 10, i.to_le_bytes().to_vec(), i * 1_000)),
        )
        .unwrap();
        b
    }

    fn decode(r: &Record) -> Option<u64> {
        r.payload.as_ref().try_into().ok().map(u64::from_le_bytes)
    }

    #[test]
    fn collect_applies_transforms() {
        let b = setup(4, 100);
        let mut p = PipelineBuilder::new(b, "t", decode)
            .filter(|v| v % 2 == 0)
            .map(|v| v * 10)
            .build();
        let (items, metrics) = p.collect().unwrap();
        assert_eq!(items.len(), 50);
        assert!(items.iter().all(|v| v % 20 == 0));
        assert_eq!(metrics.records_in, 100);
        assert_eq!(metrics.records_out, 50);
        assert!(metrics.throughput_rps() > 0.0);
    }

    #[test]
    fn metrics_are_a_registry_view_and_deterministic_under_manual_time() {
        use augur_telemetry::ManualTime;
        let b = setup(2, 60);
        let obs = Obs::default();
        let clock = ManualTime::shared();
        let mut p = PipelineBuilder::new(b, "t", decode)
            .filter(|v| v % 3 == 0)
            .obs(&obs)
            .clock(clock.clone())
            .build();
        let (items, metrics) = p.collect().unwrap();
        assert_eq!(items.len(), 20);
        // The clock never advanced: a fully deterministic zero-duration run.
        assert_eq!(metrics.elapsed_s, 0.0);
        assert_eq!(metrics.p50_latency_us, 0.0);
        // The same numbers are visible through the registry.
        let snap = obs.registry.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
        };
        assert_eq!(counter("pipeline_records_in_total"), Some(60));
        assert_eq!(counter("pipeline_records_out_total"), Some(20));
        assert!(snap
            .counters
            .iter()
            .all(|c| c.labels.contains(&("topic".into(), "t".into()))));
        // Stage spans were recorded (read + transform).
        let spans: Vec<&str> = snap
            .histograms
            .iter()
            .filter(|h| h.name == augur_telemetry::SPAN_METRIC)
            .flat_map(|h| &h.labels)
            .filter(|(k, _)| k == augur_telemetry::SPAN_LABEL)
            .map(|(_, v)| v.as_str())
            .collect();
        assert!(spans.contains(&"pipeline/read"));
        assert!(spans.contains(&"pipeline/transform"));
        // A second run diffs cleanly: per-run metrics, cumulative registry.
        let (_, m2) = p.collect().unwrap();
        assert_eq!(m2.records_in, 60);
        let snap2 = obs.registry.snapshot();
        assert_eq!(
            snap2
                .counters
                .iter()
                .find(|c| c.name == "pipeline_records_in_total")
                .map(|c| c.value),
            Some(120)
        );
    }

    #[test]
    fn head_sampling_mutes_rejected_producer_chains() {
        let b = Broker::new();
        b.create_topic("t", 1).unwrap();
        // Each record rides its own producer root: distinct trace ids.
        for i in 0..64u64 {
            b.append(
                "t",
                Record::new(i, i.to_le_bytes().to_vec(), i * 1_000)
                    .with_trace(TraceContext::root(11, i)),
            )
            .unwrap();
        }
        let sampler = Sampler::new(11, 4);
        let rec = FlightRecorder::new(1 << 12);
        let parent = TraceContext::root(11, 0xFFFF);
        let mut p = PipelineBuilder::new(b, "t", decode)
            .obs(&Obs {
                parent,
                flight: Some(rec.clone()),
                sampler: Some(sampler.clone()),
                ..Obs::default()
            })
            .build();
        let (items, _) = p.collect().unwrap();
        assert_eq!(items.len(), 64, "sampling drops telemetry, never data");
        let events = rec.drain();
        let record_traces: std::collections::BTreeSet<u64> = events
            .iter()
            .filter(|e| e.name == "pipeline/record")
            .map(|e| e.trace_id)
            .collect();
        let expected: std::collections::BTreeSet<u64> = (0..64u64)
            .map(|i| TraceContext::root(11, i).trace_id)
            .filter(|&id| sampler.admits(id))
            .collect();
        assert_eq!(
            record_traces, expected,
            "exactly the admitted chains record per-record spans"
        );
        assert!(!expected.is_empty() && expected.len() < 64, "1/4 sampling");
        // The run spans follow the parent chain's own verdict.
        let run_spans = events.iter().filter(|e| e.name == "pipeline/run").count();
        if sampler.admits(parent.trace_id) {
            assert_eq!(run_spans, 1);
        } else {
            assert_eq!(run_spans, 0);
        }
    }

    #[test]
    fn windowed_run_records_lateness_distribution() {
        let b = Broker::new();
        b.create_topic("t", 1).unwrap();
        for t in [10_000u64, 20_000, 5_000, 30_000, 6_000] {
            b.append("t", Record::new(1, t.to_le_bytes().to_vec(), t))
                .unwrap();
        }
        let obs = Obs::default();
        let mut p = PipelineBuilder::new(b, "t", decode)
            .watermark_bound_us(0)
            .arrival_order(true)
            .obs(&obs)
            .build();
        let (_, m) = p
            .run_windowed(
                TumblingWindows::new(8_000),
                CountAggregation,
                None,
                None,
                false,
            )
            .unwrap();
        assert_eq!(m.late_dropped, 2);
        let snap = obs.registry.snapshot();
        let lateness = snap
            .histograms
            .iter()
            .find(|h| h.name == "watermark_lateness_us")
            .expect("lateness histogram registered");
        assert_eq!(lateness.stats.count, 5);
        // The last straggler (6 ms) arrives behind the 30 ms watermark:
        // max lateness is 30_000 - 6_000 = 24_000 µs.
        assert_eq!(lateness.stats.max, 24_000);
        assert_eq!(
            snap.counters
                .iter()
                .find(|c| c.name == "pipeline_late_dropped_total")
                .map(|c| c.value),
            Some(2)
        );
    }

    #[test]
    fn flight_recording_links_stages_and_records_causally() {
        use augur_telemetry::{FlightEventKind, FlightRecorder, ManualTime};
        let b = Broker::new();
        b.create_topic("t", 1).unwrap();
        // Producer side: every record carries a root context derived from
        // (seed, key) — the deterministic cross-layer link.
        for i in 0..4u64 {
            b.append(
                "t",
                Record::new(i, i.to_le_bytes().to_vec(), i * 1_000)
                    .with_trace(TraceContext::root(99, i)),
            )
            .unwrap();
        }
        let recorder = FlightRecorder::new(64);
        let parent = TraceContext::root(99, u64::MAX);
        let clock = ManualTime::shared();
        let mut p = PipelineBuilder::new(b, "t", decode)
            .clock(clock.clone())
            .obs(&Obs {
                parent,
                flight: Some(recorder.clone()),
                ..Obs::default()
            })
            .build();
        p.collect().unwrap();
        let events = recorder.drain();
        // Stage spans: run + read + transform, all in the parent's trace.
        let stage_names: Vec<&str> = events
            .iter()
            .filter(|e| e.trace_id == parent.trace_id)
            .map(|e| e.name.as_str())
            .collect();
        assert!(stage_names.contains(&"pipeline/run"));
        assert!(stage_names.contains(&"pipeline/read"));
        assert!(stage_names.contains(&"pipeline/transform"));
        // Per-record spans live on each *producer's* chain.
        let record_events: Vec<_> = events
            .iter()
            .filter(|e| e.name == "pipeline/record")
            .collect();
        assert_eq!(record_events.len(), 4);
        for (i, e) in record_events.iter().enumerate() {
            let root = TraceContext::root(99, i as u64);
            assert_eq!(e.trace_id, root.trace_id);
            assert_eq!(e.parent_span_id, root.span_id);
            assert_eq!(e.kind, FlightEventKind::Span);
        }
        assert_eq!(recorder.dropped_events(), 0);
        // Two runs produce distinct run span ids (salted by ordinal).
        p.collect().unwrap();
        let run_ids: Vec<u64> = recorder
            .drain()
            .iter()
            .chain(events.iter())
            .filter(|e| e.name == "pipeline/run")
            .map(|e| e.span_id)
            .collect();
        assert_eq!(run_ids.len(), 2);
        assert_ne!(run_ids[0], run_ids[1]);
    }

    #[test]
    fn late_drops_emit_flight_instants_on_the_producer_chain() {
        use augur_telemetry::FlightRecorder;
        let b = Broker::new();
        b.create_topic("t", 1).unwrap();
        for t in [10_000u64, 20_000, 5_000] {
            b.append(
                "t",
                Record::new(1, t.to_le_bytes().to_vec(), t).with_trace(TraceContext::root(7, t)),
            )
            .unwrap();
        }
        let recorder = FlightRecorder::new(64);
        let mut p = PipelineBuilder::new(b, "t", decode)
            .watermark_bound_us(0)
            .arrival_order(true)
            .obs(&Obs {
                parent: TraceContext::root(7, u64::MAX),
                flight: Some(recorder.clone()),
                ..Obs::default()
            })
            .build();
        let (_, m) = p
            .run_windowed(
                TumblingWindows::new(8_000),
                CountAggregation,
                None,
                None,
                false,
            )
            .unwrap();
        assert_eq!(m.late_dropped, 1);
        let events = recorder.drain();
        let late: Vec<_> = events
            .iter()
            .filter(|e| e.name == "pipeline/late_drop")
            .collect();
        assert_eq!(late.len(), 1);
        // The instant sits on the chain of the frame that lost data.
        let victim = TraceContext::root(7, 5_000);
        assert_eq!(late[0].trace_id, victim.trace_id);
        assert_eq!(late[0].arg, 20_000 - 5_000, "arg carries the lateness");
    }

    #[test]
    fn log_records_explain_run_checkpoint_resume_and_late_drops() {
        use augur_telemetry::ManualTime;
        let b = Broker::new();
        b.create_topic("t", 1).unwrap();
        for t in [10_000u64, 20_000, 5_000, 30_000] {
            b.append(
                "t",
                Record::new(1, t.to_le_bytes().to_vec(), t).with_trace(TraceContext::root(7, t)),
            )
            .unwrap();
        }
        let log = EventLog::new(64);
        let parent = TraceContext::root(7, u64::MAX);
        let store: CheckpointStore<WindowState<u64>> = CheckpointStore::new(4);
        let mut p = PipelineBuilder::new(b.clone(), "t", decode)
            .watermark_bound_us(0)
            .arrival_order(true)
            .clock(ManualTime::shared())
            .obs(&Obs {
                parent,
                log: Some(log.clone()),
                ..Obs::default()
            })
            .build();
        // Crash after 3 records (checkpointing every 2), then resume.
        p.run_windowed(
            TumblingWindows::new(8_000),
            CountAggregation,
            Some((&store, 2)),
            Some(3),
            false,
        )
        .unwrap();
        p.run_windowed(
            TumblingWindows::new(8_000),
            CountAggregation,
            Some((&store, 2)),
            None,
            true,
        )
        .unwrap();
        let records = log.drain();
        let by_msg = |msg: &str| -> Vec<&augur_log::LogRecord> {
            records.iter().filter(|r| r.msg == msg).collect()
        };
        // One run summary per bounded run, under the pipeline parent.
        let runs = by_msg("pipeline/run");
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|r| r.trace_id == parent.trace_id));
        assert_ne!(runs[0].span_id, runs[1].span_id, "ordinal-salted");
        assert_eq!(runs[0].level, Level::Info);
        // Checkpoint at offset 2 (run 1), resume from it (run 2).
        let cp = by_msg("pipeline/checkpoint");
        assert!(!cp.is_empty());
        assert!(cp[0]
            .fields
            .iter()
            .any(|(k, v)| k == "offset" && *v == augur_log::FieldValue::U64(2)));
        let resume = by_msg("pipeline/resume");
        assert_eq!(resume.len(), 1);
        assert!(resume[0]
            .fields
            .iter()
            .any(|(k, v)| k == "offset" && *v == augur_log::FieldValue::U64(2)));
        // The late drop (5k behind the 20k watermark) is a WARN on the
        // *producer's* chain with the lag spelled out. It appears twice:
        // once pre-crash, once on replay after resume (the restored
        // aggregator remembers its emitted watermark and re-drops it).
        let late = by_msg("pipeline/late_drop");
        assert_eq!(late.len(), 2);
        for r in &late {
            assert_eq!(r.level, Level::Warn);
            assert_eq!(r.trace_id, TraceContext::root(7, 5_000).trace_id);
        }
        assert!(late[0]
            .fields
            .iter()
            .any(|(k, v)| k == "lag_us" && *v == augur_log::FieldValue::U64(15_000)));
        assert_eq!(log.dropped_records(), 0);
    }

    #[test]
    fn undecodable_records_are_skipped() {
        let b = Broker::new();
        b.create_topic("t", 1).unwrap();
        b.append("t", Record::new(1, vec![1, 2, 3], 0)).unwrap(); // 3 bytes: bad
        b.append("t", Record::new(1, 42u64.to_le_bytes().to_vec(), 1))
            .unwrap();
        let mut p = PipelineBuilder::new(b, "t", decode).build();
        let (items, _) = p.collect().unwrap();
        assert_eq!(items, vec![42]);
    }

    #[test]
    fn run_windowed_counts_per_key_and_window() {
        let b = setup(2, 100); // keys 0..10, times 0..100ms
        let mut p = PipelineBuilder::new(b, "t", decode)
            .watermark_bound_us(0)
            .build();
        let (results, metrics) = p
            .run_windowed(
                TumblingWindows::new(50_000), // 50 ms windows
                CountAggregation,
                None,
                None,
                false,
            )
            .unwrap();
        assert_eq!(metrics.records_in, 100);
        // 2 windows × 10 keys.
        assert_eq!(results.len(), 20);
        let total: u64 = results.iter().map(|r| r.value).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn checkpoint_crash_resume_is_exactly_once() {
        let b = setup(2, 200);
        let store: CheckpointStore<WindowState<u64>> = CheckpointStore::new(4);

        // Reference run without failure.
        let mut p_ref = PipelineBuilder::new(b.clone(), "t", decode)
            .watermark_bound_us(0)
            .build();
        let (mut want, _) = p_ref
            .run_windowed(
                TumblingWindows::new(20_000),
                CountAggregation,
                None,
                None,
                false,
            )
            .unwrap();

        // Crashing run: checkpoint every 50, crash at 120.
        let mut p1 = PipelineBuilder::new(b.clone(), "t", decode)
            .watermark_bound_us(0)
            .build();
        let (partial, _) = p1
            .run_windowed(
                TumblingWindows::new(20_000),
                CountAggregation,
                Some((&store, 50)),
                Some(120),
                false,
            )
            .unwrap();
        // Resume from the latest checkpoint (at 100).
        let mut p2 = PipelineBuilder::new(b, "t", decode)
            .watermark_bound_us(0)
            .build();
        let (rest, _) = p2
            .run_windowed(
                TumblingWindows::new(20_000),
                CountAggregation,
                Some((&store, 50)),
                None,
                true,
            )
            .unwrap();
        // Results emitted before the crash (from processed prefix) plus
        // post-recovery results must equal the reference.
        let mut got = partial;
        got.extend(rest);
        // Deduplicate: windows emitted pre-crash may be re-emitted after
        // restore if the checkpoint predates their emission; exactly-once
        // is per *window*, so compare as sets keyed by (key, window).
        let canon = |v: &mut Vec<crate::window::WindowResult<u64>>| {
            v.sort_by_key(|r| (r.window.start_us, r.window.end_us, r.key));
            v.dedup_by_key(|r| (r.window.start_us, r.window.end_us, r.key));
        };
        canon(&mut got);
        canon(&mut want);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.key, w.key);
            assert_eq!(g.window, w.window);
            assert_eq!(g.value, w.value, "count mismatch for {:?}", g.window);
        }
    }

    #[test]
    fn resume_without_store_errors() {
        let b = setup(1, 10);
        let mut p = PipelineBuilder::new(b, "t", decode).build();
        let r = p.run_windowed(
            TumblingWindows::new(1_000),
            CountAggregation,
            None,
            None,
            true,
        );
        assert!(matches!(r, Err(StreamError::InvalidPipelineState(_))));
    }

    #[test]
    fn arrival_order_exposes_lateness_event_time_merge_hides_it() {
        // One partition, event times deliberately out of arrival order.
        let b = Broker::new();
        b.create_topic("t", 1).unwrap();
        for t in [10_000u64, 20_000, 5_000, 30_000, 6_000] {
            b.append("t", Record::new(1, t.to_le_bytes().to_vec(), t))
                .unwrap();
        }
        let windowed = |arrival: bool, bound: u64| {
            let mut p = PipelineBuilder::new(b.clone(), "t", decode)
                .watermark_bound_us(bound)
                .arrival_order(arrival)
                .build();
            p.run_windowed(
                TumblingWindows::new(8_000),
                CountAggregation,
                None,
                None,
                false,
            )
            .unwrap()
        };
        // Event-time merge: nothing is late even with a zero bound.
        let (_, m) = windowed(false, 0);
        assert_eq!(m.late_dropped, 0);
        // Arrival order with zero bound: 5k and 6k arrive behind the
        // watermark (20k) and their window [0, 8k) has fired.
        let (_, m) = windowed(true, 0);
        assert_eq!(m.late_dropped, 2);
        // A bound covering the full disorder saves them: the last record
        // (30 ms) must not push the watermark past the straggler's
        // window end (8 ms), so bound > 22 ms.
        let (_, m) = windowed(true, 25_000);
        assert_eq!(m.late_dropped, 0);
    }

    #[test]
    fn continuous_mode_processes_appends_until_stopped() {
        let b = Broker::new();
        b.create_topic("live", 2).unwrap();
        let collected = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink_ref = Arc::clone(&collected);
        let p = PipelineBuilder::new(b.clone(), "live", decode)
            .filter(|v| *v < 1_000)
            .build();
        let handle = p
            .spawn_continuous(move |v| sink_ref.lock().push(v))
            .unwrap();
        for i in 0..500u64 {
            b.append("live", Record::new(i, i.to_le_bytes().to_vec(), i))
                .unwrap();
        }
        // Wait for drain.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while handle.processed() < 500 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        handle.stop();
        let got = collected.lock();
        assert_eq!(got.len(), 500);
    }

    #[test]
    fn continuous_mode_registers_lanes_and_measures_contention() {
        let b = Broker::new();
        b.create_topic("live", 1).unwrap();
        b.append_batch(
            "live",
            (0..100u64).map(|i| Record::new(i, i.to_le_bytes().to_vec(), i)),
        )
        .unwrap();
        let lanes = Lanes::new(5, 4096);
        let p = PipelineBuilder::new(b, "live", decode)
            .channel_capacity(2)
            .obs(&Obs {
                lanes: Some(lanes.clone()),
                ..Obs::default()
            })
            .build();
        // A slow sink keeps the 2-slot channel full, so the pump must
        // spend measurable time blocked on send.
        let handle = p
            .spawn_continuous(|_| std::thread::sleep(std::time::Duration::from_micros(300)))
            .unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while handle.processed() < 100 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        handle.stop();
        assert_eq!(lanes.len(), 2, "pump + worker lanes");
        let merged = lanes.merge_drains();
        assert_eq!(merged.lanes[0].name, "live/pump");
        assert_eq!(merged.lanes[1].name, "live/worker");
        assert!(merged.events.iter().all(|e| e.lane.is_worker()));
        let names: std::collections::HashSet<&str> =
            merged.events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains("pipeline/pump"));
        assert!(names.contains("pipeline/process"));
        assert!(
            names.contains("blocked/channel_send"),
            "pump must record send backpressure: {names:?}"
        );
        assert!(merged.lanes[0].blocked_us > 0);
        assert!(merged.lanes[1].busy_us > 0);
        for l in &merged.lanes {
            assert_eq!(
                l.drained + l.dropped,
                l.total,
                "lane {} loss accounting",
                l.id
            );
        }
    }

    #[test]
    fn backpressure_small_channel_still_delivers_everything() {
        let b = Broker::new();
        b.create_topic("bp", 1).unwrap();
        b.append_batch(
            "bp",
            (0..2_000u64).map(|i| Record::new(i, i.to_le_bytes().to_vec(), i)),
        )
        .unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        let p = PipelineBuilder::new(b, "bp", decode)
            .channel_capacity(8)
            .build();
        let handle = p
            .spawn_continuous(move |_| {
                c.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while count.load(Ordering::Relaxed) < 2_000 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        handle.stop();
        assert_eq!(count.load(Ordering::Relaxed), 2_000);
    }

    #[test]
    fn observability_never_changes_outputs() {
        // Out-of-order event times on traced producer chains, so late
        // drops, per-record spans, checkpoints and their log records all
        // fire when the sinks are attached.
        let b = Broker::new();
        b.create_topic("t", 2).unwrap();
        b.append_batch(
            "t",
            (0..400u64).map(|i| {
                let t = (i * 7_919) % 50_000;
                Record::new(i % 10, t.to_le_bytes().to_vec(), t)
                    .with_trace(TraceContext::root(3, i))
            }),
        )
        .unwrap();
        let costs = ModeledCosts {
            read_us: 1,
            transform_us: 3,
            window_us: 2,
        };
        let outputs = |obs: Option<&Obs>| {
            let time = ManualTime::shared();
            let build = || {
                let builder = PipelineBuilder::new(b.clone(), "t", decode)
                    .filter(|v| v % 3 != 0)
                    .watermark_bound_us(2_000)
                    .arrival_order(true)
                    .modeled_costs(&time, costs);
                match obs {
                    Some(obs) => builder.obs(obs),
                    None => builder,
                }
                .build()
            };
            let collected = build().collect().unwrap();
            let store = CheckpointStore::new(4);
            let windowed = build()
                .run_windowed(
                    TumblingWindows::new(5_000),
                    CountAggregation,
                    Some((&store, 50)),
                    None,
                    false,
                )
                .unwrap();
            (collected, windowed)
        };
        let obs = Obs {
            parent: TraceContext::root(3, u64::MAX),
            flight: Some(FlightRecorder::new(1 << 12)),
            log: Some(EventLog::new(1 << 10)),
            sampler: Some(Sampler::new(3, 2)),
            ..Obs::default()
        };
        let plain = outputs(None);
        assert_eq!(plain, outputs(Some(&obs)));
        assert!(
            plain.1 .1.late_dropped > 0,
            "input must exercise late drops"
        );
        assert!(!obs.flight.unwrap().drain().is_empty());
        assert!(!obs.log.unwrap().drain().is_empty());
    }
}
