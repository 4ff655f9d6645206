//! The dataflow executor: source → transforms → (windowed) sink.
//!
//! Two execution modes cover the platform's needs:
//!
//! - **Bounded runs** ([`Pipeline::collect`], [`Pipeline::run_windowed`])
//!   process everything currently in the topic and return results plus
//!   [`PipelineMetrics`] — the workhorse of the throughput and timeliness
//!   experiments (E2, E12). Bounded runs support periodic checkpoints and
//!   crash injection so recovery semantics are testable.
//! - **Continuous mode** ([`Pipeline::spawn_continuous`]) runs one thread
//!   that tails the topic, processes each polled batch and parks on the
//!   topic's append signal when there is nothing to read, until the
//!   returned [`StopHandle`] stops it. The log is the only buffer.
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

use augur_telemetry::log::{EventLog, Level, LogSite, SymId, Value};
use augur_telemetry::sample::Sampler;
use augur_telemetry::{
    BlockedSite, Clock, Counter, FlightRecorder, Gauge, Histogram, Lane, LocalHistogram,
    ManualTime, MonotonicTime, NameId, Obs, TraceContext, Tracer,
};

use crate::broker::{Broker, Reader, Topic};
use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::error::StreamError;
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
    /// Bounded runs call `decoder` on records rebuilt from the log while
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
    ///   late-drop decisions at WARN (rate-limited). Records carry the
    ///   *same* span ids as the run's flight spans, so a record's
    ///   `span_id` finds the span that emitted it.
    /// - **sampler**: every flight-bound context — the per-run context
    ///   and each record's producer context — passes through the policy
    ///   first, so rejected chains record nothing. The verdict is a pure
    ///   function of `(seed, trace_id)`. Log records are never sampled.
    /// - **lanes**: the continuous-mode thread registers a deterministic
    ///   [`augur_telemetry::LaneId`] at spawn. Each processed batch is a
    ///   `pipeline/process` work span and each park on an empty topic a
    ///   `blocked/channel_recv` window, plus lane busy/blocked counters.
    ///   Bounded runs execute on the caller's thread and are unaffected.
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
    key_records_in: SymId,
    key_records_out: SymId,
    key_late: SymId,
    key_lag_us: SymId,
    key_key: SymId,
    key_offset: SymId,
    key_topic: SymId,
    topic_sym: SymId,
    /// Lifecycle records (run summary, checkpoint, resume): unlimited.
    run_site: LogSite,
    /// Per-record late-drop records: a storm must degrade to a
    /// rate-limited sample plus a suppressed count.
    drop_site: LogSite,
}

impl LogWire {
    fn new(log: EventLog, topic: &str) -> LogWire {
        LogWire {
            run_msg: log.intern("pipeline/run"),
            late_msg: log.intern("pipeline/late_drop"),
            checkpoint_msg: log.intern("pipeline/checkpoint"),
            resume_msg: log.intern("pipeline/resume"),
            key_records_in: log.intern("records_in"),
            key_records_out: log.intern("records_out"),
            key_late: log.intern("late_dropped"),
            key_lag_us: log.intern("lag_us"),
            key_key: log.intern("key"),
            key_offset: log.intern("offset"),
            key_topic: log.intern("topic"),
            topic_sym: log.intern(topic),
            run_site: LogSite::unlimited(),
            drop_site: LogSite::new(16, 100),
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
    /// Continuous-mode occupancy of the polled batch, the pipeline's one
    /// in-flight queue: enqueue/dequeue counters, the live depth gauge,
    /// and the batch-size histogram xray merges into its queue report.
    /// Each updates once per batch.
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

/// One bounded run as it begins: counter readings, which diffed against
/// at run end yield the per-run [`PipelineMetrics`] view, the start time,
/// and the run's contexts.
struct Run {
    records_in: u64,
    records_out: u64,
    late_dropped: u64,
    start_nanos: u64,
    start_us: u64,
    /// The `pipeline/run` context on the flight ring, after sampling;
    /// `None` when no recorder is wired.
    flight: Option<TraceContext>,
    /// The same context for log records, which are never sampled; `None`
    /// when no log is wired.
    log: Option<TraceContext>,
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

    /// Begins a bounded run. Its context is one `pipeline/run` child of
    /// the parent, salted by the run's ordinal so consecutive runs get
    /// distinct span ids, and log records share the run span's ids.
    fn begin_run(&self) -> Run {
        let ordinal = self.runs.fetch_add(1, Ordering::Relaxed);
        let ctx = self.parent.child(ordinal ^ 0x70_69_70_65); // "pipe" salt
        Run {
            records_in: self.records_in.get(),
            records_out: self.records_out.get(),
            late_dropped: self.late_dropped.get(),
            start_nanos: self.clock.now_nanos(),
            start_us: self.clock.now_micros(),
            flight: self.flight.as_ref().map(|_| self.sample_ctx(ctx)),
            log: self.log.as_ref().map(|_| ctx),
        }
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

    /// Ends `run`: closes its `Run` stage, then returns the per-run
    /// metrics view and logs it as the run summary. The view is the
    /// counters diffed against `run`, elapsed time from the pipeline
    /// clock, and latency quantiles from the run-local histogram (`None`
    /// for windowed runs, which do not time individual records).
    fn end_run(
        &self,
        run: &Run,
        bytes_in: u64,
        latency: Option<&LocalHistogram>,
    ) -> PipelineMetrics {
        self.flight_stage(run.flight, Stage::Run, run.start_us);
        let elapsed_ns = self.clock.now_nanos().saturating_sub(run.start_nanos);
        let metrics = PipelineMetrics {
            records_in: self.records_in.get().saturating_sub(run.records_in),
            records_out: self.records_out.get().saturating_sub(run.records_out),
            bytes_in,
            late_dropped: self.late_dropped.get().saturating_sub(run.late_dropped),
            elapsed_s: elapsed_ns as f64 / 1e9,
            p50_latency_us: latency.map_or(0.0, |h| h.quantile(0.50) as f64 / 1_000.0),
            p99_latency_us: latency.map_or(0.0, |h| h.quantile(0.99) as f64 / 1_000.0),
        };
        self.log_run_summary(run.log, &metrics);
        metrics
    }
}

/// A runnable pipeline; create via [`PipelineBuilder`].
#[derive(Debug)]
pub struct Pipeline<T> {
    inner: PipelineBuilder<T>,
    instruments: Instruments,
}

/// A decoded item of a bounded read and its routing key. Its event time
/// and trace context sit beside it in [`Scan`], so the sort and the
/// window loop walk no bytes they do not use.
struct Flow<T> {
    key: u64,
    value: T,
}

/// One bounded read of a topic.
struct Scan<T> {
    /// Decoded items in arrival (partition-then-offset) order.
    flows: Vec<Flow<T>>,
    /// Each flow's event time, by arrival index.
    times: Vec<u64>,
    /// Each flow's sampled producer context, by arrival index. It stays
    /// empty, unallocated, until a record carries a context, and then
    /// runs only to the latest such flow; see [`trace_at`].
    traces: Vec<Option<TraceContext>>,
    /// The order the run visits `flows` in, as indices into it.
    order: Vec<usize>,
    /// Payload bytes of every record read, decoded or not.
    bytes: u64,
    /// The `(log start, end offset)` snapshot of each partition read.
    bounds: Vec<(u64, u64)>,
}

/// The trace context of the flow at arrival index `i`, if it has one.
fn trace_at(traces: &[Option<TraceContext>], i: usize) -> Option<TraceContext> {
    traces.get(i).copied().flatten()
}

/// Reorders `flows` in place so that the flow at `order[k]` lands at
/// `k`. Each cycle of the permutation is followed once, so every flow is
/// swapped into its place directly and no second copy of `flows` exists.
fn permute<T>(flows: &mut [Flow<T>], mut order: Vec<usize>) {
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

/// The visit order that stably sorts flows by event time, given their
/// `times` in arrival order. It sorts compact keys, never the flows: one
/// word per flow, the time above the least one and the arrival index
/// below it, so the index breaks ties. A read whose time span leaves too
/// few bits for the index sorts `(time, index)` pairs instead; both give
/// the same order.
fn event_time_order(times: &[u64]) -> Vec<usize> {
    let (min, max) = times
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &t| (lo.min(t), hi.max(t)));
    let idx_bits = u64::BITS - (times.len() as u64).saturating_sub(1).leading_zeros();
    let span = max.saturating_sub(min);
    if span.checked_shr(u64::BITS - idx_bits).unwrap_or(0) != 0 {
        let mut keys: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        keys.sort_unstable();
        return keys.into_iter().map(|(_, i)| i).collect();
    }
    let mask = u64::MAX.checked_shr(u64::BITS - idx_bits).unwrap_or(0);
    let mut keys: Vec<u64> = (0u64..)
        .zip(times)
        .map(|(i, &t)| (t - min).checked_shl(idx_bits).unwrap_or(0) | i)
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|k| (k & mask) as usize).collect()
}

impl<T: Send + 'static> Pipeline<T> {
    /// The read stage of a bounded run: [`Pipeline::read_all`] under a
    /// `pipeline/read` span, then the modeled read cost and the `Read`
    /// stage.
    fn read_stage(&self, run: &Run, saved: Option<&[(u64, u64)]>) -> Result<Scan<T>, StreamError> {
        let scan = {
            let _read = self.instruments.tracer.span("pipeline/read");
            self.read_all(saved)?
        };
        if let Some((time, costs)) = &self.inner.modeled {
            time.advance_micros(costs.read_us.saturating_mul(scan.flows.len() as u64));
        }
        self.instruments
            .flight_stage(run.flight, Stage::Read, run.start_us);
        Ok(scan)
    }

    /// Reads a snapshot of the topic: the `saved` one of a checkpoint, or
    /// every partition's log start and end offset at the start of the
    /// run, so records appended during the read are left out. Each
    /// partition is drained to its snapshot in `poll_batch` chunks,
    /// decoded straight from the log under the partition's read lock. The
    /// run is not a registered reader: segments a registered reader
    /// releases meanwhile are skipped, each chunk starting at the log
    /// start, and a read of a `saved` snapshot that a release reached
    /// fails instead. The visit order is event time (ties in arrival
    /// order), or arrival order under [`PipelineBuilder::arrival_order`].
    fn read_all(&self, saved: Option<&[(u64, u64)]>) -> Result<Scan<T>, StreamError> {
        let b = &self.inner.broker;
        let topic = &self.inner.topic;
        let partitions = b.partition_count(topic)?;
        let bounds = match saved {
            None => (0..partitions)
                .map(|p| b.bounds(topic, PartitionId(p)))
                .collect::<Result<Vec<(u64, u64)>, _>>()?,
            Some(saved) if saved.len() == partitions as usize => saved.to_vec(),
            Some(_) => {
                return Err(StreamError::InvalidPipelineState(
                    "checkpoint snapshot does not match the topic's partitions",
                ))
            }
        };
        let total = bounds.iter().map(|(start, end)| end - start).sum::<u64>() as usize;
        let mut flows = Vec::with_capacity(total);
        let mut times = Vec::with_capacity(total);
        let mut traces = Vec::new();
        let mut bytes = 0u64;
        for (p, &(start, end)) in (0..).map(PartitionId).zip(&bounds) {
            let mut from = start;
            while from < end {
                let next = b.visit(topic, p, from, self.inner.poll_batch, end, |_, r| {
                    bytes += r.payload.len() as u64;
                    if let Some(v) = (self.inner.decoder)(r) {
                        if let Some(c) = r.trace {
                            // Head sampling decides here, once per
                            // record, so every downstream per-record
                            // flight event inherits the verdict.
                            traces.resize(flows.len(), None);
                            traces.push(Some(self.instruments.sample_ctx(c)));
                        }
                        times.push(r.event_time_us);
                        flows.push(Flow {
                            key: r.key,
                            value: v,
                        });
                    }
                })?;
                if next == from {
                    break;
                }
                from = next;
            }
        }
        // Log starts only move forward, so one at or below the saved start
        // now was there throughout the read, and no chunk skipped a record.
        if saved.is_some() {
            for (p, &(start, _)) in (0..).map(PartitionId).zip(&bounds) {
                if b.start_offset(topic, p)? > start {
                    return Err(StreamError::InvalidPipelineState(
                        "a release dropped records of the checkpoint's snapshot",
                    ));
                }
            }
        }
        let order = if self.inner.arrival_order {
            (0..flows.len()).collect()
        } else {
            event_time_order(&times)
        };
        Ok(Scan {
            flows,
            times,
            traces,
            order,
            bytes,
            bounds,
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
        let run = self.instruments.begin_run();
        let Scan {
            mut flows,
            traces,
            order,
            bytes,
            ..
        } = self.read_stage(&run, None)?;
        self.instruments.records_in.add(flows.len() as u64);
        // The contexts follow their flows into visit order.
        let traces: Vec<Option<TraceContext>> = if traces.is_empty() {
            traces
        } else {
            order.iter().map(|&j| trace_at(&traces, j)).collect()
        };
        permute(&mut flows, order);
        // Run-local, non-atomic histogram for the per-run quantile view,
        // folded into the shared `pipeline_record_latency_ns` family once
        // at run end (`Histogram::merge_local`).
        let mut run_latency = LocalHistogram::new();
        let mut out = Vec::new();
        {
            let _transform = self.instruments.tracer.span("pipeline/transform");
            let transform_t0 = self.instruments.clock.now_micros();
            for (k, flow) in flows.into_iter().enumerate() {
                let t0 = self.instruments.clock.now_nanos();
                if let Some((time, costs)) = &self.inner.modeled {
                    time.advance_micros(costs.transform_us);
                }
                if let Some(x) = apply(&mut self.inner.transforms, flow.value) {
                    let dt = self.instruments.clock.now_nanos().saturating_sub(t0);
                    run_latency.record(dt);
                    // A record carrying its producer's context gets a
                    // per-record span on that chain: the cross-layer link.
                    if let (Some(w), Some(ctx)) = (&self.instruments.flight, trace_at(&traces, k)) {
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
                .flight_stage(run.flight, Stage::Transform, transform_t0);
        }
        self.instruments.records_out.add(out.len() as u64);
        self.instruments.record_latency_ns.merge_local(&run_latency);
        let metrics = self.instruments.end_run(&run, bytes, Some(&run_latency));
        Ok((out, metrics))
    }

    /// Runs the full windowed dataflow over everything currently in the
    /// topic: transforms, watermarking, keyed windowed aggregation.
    ///
    /// `checkpoints` optionally saves a [`Checkpoint`] every `interval`
    /// input records: the per-partition `(log start, end)` snapshot the
    /// run read, its cursor in the run's merged order, and the operator
    /// state. `crash_after` aborts the run after that many records to
    /// simulate failure (used by recovery tests — resume by calling again
    /// with `resume: true`, which restores the latest checkpoint and
    /// replays the interrupted run's snapshot from its cursor). Records
    /// appended after the snapshot are left for the next run, as with any
    /// bounded run.
    ///
    /// # Errors
    ///
    /// Propagates broker and checkpoint errors. A resume returns
    /// [`StreamError::InvalidPipelineState`] without a store, or when a
    /// release has moved a partition's log start past the snapshot's, so
    /// the interrupted run's order can no longer be replayed.
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
        let mut agg = WindowedAggregator::new(assigner, aggregation);
        let mut wm = BoundedOutOfOrderness::new(self.inner.watermark_bound_us);
        let mut saved = None;
        if resume {
            let store = checkpoints
                .as_ref()
                .ok_or(StreamError::InvalidPipelineState(
                    "resume requires a checkpoint store",
                ))?
                .0;
            let cp = store.latest()?;
            if let Some(generator) = &cp.state.generator {
                wm = generator.clone();
            }
            agg.restore(cp.state);
            saved = Some((cp.bounds, cp.cursor));
        }
        let run = self.instruments.begin_run();
        // Resume is a recovery *decision*: worth a log record saying
        // where the merged cursor restarted.
        if let (Some((_, cursor)), Some(w), Some(ctx)) = (&saved, &self.instruments.log, run.log) {
            w.log.record(
                &w.run_site,
                Level::Info,
                ctx,
                w.resume_msg,
                self.instruments.clock.now_micros(),
                &[
                    (w.key_topic, Value::Sym(w.topic_sym)),
                    (w.key_offset, Value::U64(*cursor)),
                ],
            );
        }
        // The bounded run reads a time-ordered merge of all partitions;
        // a checkpoint's cursor is a position in that merged order.
        let Scan {
            flows,
            times,
            traces,
            order,
            bytes,
            bounds,
        } = self.read_stage(&run, saved.as_ref().map(|(bounds, _)| bounds.as_slice()))?;
        // This run visits merged positions `first..stop`: a resume skips
        // what its checkpoint covers, and `crash_after` stops the run at
        // that position.
        let first = usize::try_from(saved.map_or(0, |(_, cursor)| cursor))
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
                let (flow, time_us) = (&flows[j], times[j]);
                if let Some((time, costs)) = &self.inner.modeled {
                    time.advance_micros(costs.window_us);
                }
                if let Some(x) = apply(&mut self.inner.transforms, flow.value.clone()) {
                    if wm.observe(time_us).is_some() {
                        emitted.extend(agg.advance(wm.current()));
                    }
                    // Lateness relative to the current watermark: 0 for
                    // on-time records, positive for stragglers — the
                    // distribution A1 uses to size the disorder bound.
                    let lateness = wm.current().0.saturating_sub(time_us);
                    run_lateness.record(lateness);
                    let accepted = agg.offer(flow.key, time_us, &x);
                    if !accepted {
                        let trace = trace_at(&traces, j);
                        // Late drops become flight instants on the
                        // producer's chain: the trace shows *which* frame
                        // lost data.
                        if let (Some(w), Some(ctx)) = (&self.instruments.flight, trace) {
                            w.recorder.record_instant(
                                ctx.child_named("pipeline/late_drop"),
                                w.late_name,
                                self.instruments.clock.now_micros(),
                                lateness,
                            );
                        }
                        // And a WARN record explaining the decision — on
                        // the producer's chain when the record carries
                        // one, else under the run context. Rate-limited: a
                        // late storm degrades to a sample plus a
                        // suppressed count.
                        if let Some(w) = &self.instruments.log {
                            let ctx = trace
                                .map(|c| c.child_named("pipeline/late_drop"))
                                .or(run.log);
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
                        let mut state = agg.snapshot();
                        state.generator = Some(wm.clone());
                        store.save(Checkpoint {
                            bounds: bounds.clone(),
                            cursor: (i + 1) as u64,
                            state,
                        });
                        if let (Some(w), Some(ctx)) = (&self.instruments.log, run.log) {
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
                .flight_stage(run.flight, Stage::Window, window_t0);
        }
        self.instruments.records_in.add((stop - first) as u64);
        self.instruments.lateness_us.merge_local(&run_lateness);
        self.instruments.records_out.add(emitted.len() as u64);
        self.instruments.late_dropped.add(agg.late_dropped());
        let metrics = self.instruments.end_run(&run, bytes, None);
        Ok((emitted, metrics))
    }

    /// Spawns continuous execution on one thread, the consumer loop of a
    /// Kafka client. Each round it reads the topic's append epoch, then
    /// takes up to `poll_batch` records from every partition in turn,
    /// decoding them under the partition's read lock and running the
    /// transforms and `sink` over the batch outside it. A round that
    /// reads nothing parks the thread until an append moves the epoch
    /// or the pipeline is stopped, so an idle pipeline costs no CPU.
    ///
    /// The pipeline is a registered reader of its topic from this call
    /// until it is stopped, at offset 0 of every partition, and its
    /// position is the only record of its progress: each batch is read
    /// from it (so the first from each partition's log start), and after
    /// each batch the sealed segments it and every other registered
    /// reader have passed are released.
    ///
    /// The `pipeline_queue_*` and `pipeline_{en,de}queued_total` series
    /// describe the polled batch, the pipeline's only in-flight queue,
    /// and update once per batch.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn spawn_continuous(
        self,
        mut sink: impl FnMut(T) + Send + 'static,
    ) -> Result<StopHandle, StreamError> {
        let topic = self.inner.broker.topic(&self.inner.topic)?;
        let reader = Reader::register(Arc::clone(&topic), Some(0));
        let stop = Arc::new(AtomicBool::new(false));
        let processed = Arc::new(AtomicU64::new(0));
        // Registered here, on the spawning thread, so the lane id follows
        // program order however the OS schedules the thread.
        let lane: Option<(Lane, NameId)> = self.inner.obs.lanes.as_ref().map(|l| {
            let lane = l.register(&format!("{}/pipeline", self.inner.topic));
            let work = lane.recorder().intern("pipeline/process");
            (lane, work)
        });
        let Pipeline {
            inner:
                PipelineBuilder {
                    decoder,
                    mut transforms,
                    poll_batch,
                    ..
                },
            instruments: ins,
        } = self;
        let thread = {
            let (topic, stop, processed) = (
                Arc::clone(&topic),
                Arc::clone(&stop),
                Arc::clone(&processed),
            );
            std::thread::spawn(move || {
                let mut batch: Vec<T> = Vec::with_capacity(poll_batch);
                while !stop.load(Ordering::SeqCst) {
                    let seen = topic.epoch();
                    let mut idle = true;
                    for p in 0..topic.partition_count() {
                        let from = reader.position(p).unwrap_or(0);
                        let mut read = 0u64;
                        let next = topic.visit(p, from, poll_batch, u64::MAX, |_, r| {
                            read += 1;
                            batch.extend(decoder(r));
                        });
                        if read == 0 {
                            continue;
                        }
                        idle = false;
                        let _work = lane
                            .as_ref()
                            .map(|(l, work)| l.work(&ins.clock, l.root(), *work));
                        let queued = batch.len() as u64;
                        ins.records_in.add(read);
                        ins.enqueued.add(queued);
                        ins.queue_occupancy.record(queued);
                        ins.queue_depth.set_u64(queued);
                        let mut out = 0;
                        for value in batch.drain(..) {
                            if let Some(x) = apply(&mut transforms, value) {
                                sink(x);
                                out += 1;
                            }
                        }
                        ins.dequeued.add(queued);
                        ins.queue_depth.set_u64(0);
                        ins.records_out.add(out);
                        processed.fetch_add(out, Ordering::Relaxed);
                        reader.advance(p, next.unwrap_or(from));
                    }
                    if idle {
                        let _parked = lane
                            .as_ref()
                            .map(|(l, _)| l.block(&ins.clock, l.root(), BlockedSite::ChannelRecv));
                        topic.wait_for_append(seen, &stop);
                    }
                }
            })
        };
        Ok(StopHandle {
            stop,
            processed,
            topic,
            thread: Some(thread),
        })
    }
}

/// Runs `value` through `transforms` in order; `None` once one drops it.
fn apply<T>(transforms: &mut [Transform<T>], value: T) -> Option<T> {
    transforms.iter_mut().try_fold(value, |v, tr| tr(v))
}

/// Controls a continuously running pipeline. Dropping it stops the
/// pipeline as [`StopHandle::stop`] does.
#[derive(Debug)]
pub struct StopHandle {
    stop: Arc<AtomicBool>,
    processed: Arc<AtomicU64>,
    topic: Arc<Topic>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl StopHandle {
    /// Records delivered to the sink so far.
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Signals stop, wakes the thread if it is parked, and joins it. A
    /// batch already polled is delivered in full first. The pipeline is
    /// unregistered from its topic when its thread ends, so after `stop`
    /// returns it holds back no release.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for StopHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.topic.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{CountAggregation, TumblingWindows};
    use augur_telemetry::log::{FieldValue, LogRecord};
    use augur_telemetry::Lanes;
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
        let store: CheckpointStore<WindowState<u64>> = CheckpointStore::new();
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
        let by_msg =
            |msg: &str| -> Vec<&LogRecord> { records.iter().filter(|r| r.msg == msg).collect() };
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
            .any(|(k, v)| k == "offset" && *v == FieldValue::U64(2)));
        let resume = by_msg("pipeline/resume");
        assert_eq!(resume.len(), 1);
        assert!(resume[0]
            .fields
            .iter()
            .any(|(k, v)| k == "offset" && *v == FieldValue::U64(2)));
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
            .any(|(k, v)| k == "lag_us" && *v == FieldValue::U64(15_000)));
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
        let store: CheckpointStore<WindowState<u64>> = CheckpointStore::new();

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

    /// Waits up to `secs` seconds for `done`, yielding between checks.
    fn wait_until(secs: u64, mut done: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + std::time::Duration::from_secs(secs);
        while !done() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn continuous_mode_delivers_concurrent_appends_exactly_once() {
        const PRODUCERS: u64 = 4;
        const EACH: u64 = 2_000;
        let b = Broker::new();
        b.create_topic("live", 3).unwrap();
        let obs = Obs::default();
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let handle = PipelineBuilder::new(b.clone(), "live", decode)
            .obs(&obs)
            .build()
            .spawn_continuous(move |v| sink_seen.lock().push(v))
            .unwrap();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|t| {
                let b = b.clone();
                std::thread::spawn(move || {
                    for i in 0..EACH {
                        let v = t * 1_000_000 + i;
                        let r = Record::new(v, v.to_le_bytes().to_vec(), i);
                        // Half the producers go through `append`, half
                        // through `append_batch`: both signal the reader.
                        if t % 2 == 0 {
                            b.append("live", r).unwrap();
                        } else {
                            b.append_batch("live", [r]).unwrap();
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let total = PRODUCERS * EACH;
        assert!(wait_until(10, || handle.processed() == total));
        handle.stop();
        let mut got = seen.lock().clone();
        got.sort_unstable();
        let want: Vec<u64> = (0..PRODUCERS)
            .flat_map(|t| (0..EACH).map(move |i| t * 1_000_000 + i))
            .collect();
        assert_eq!(got, want, "every record exactly once");
        let counter = |name: &str| {
            obs.registry
                .counter_labeled(name, &[("topic", "live")])
                .get()
        };
        assert_eq!(counter("pipeline_records_in_total"), total);
        assert_eq!(counter("pipeline_records_out_total"), total);
        assert_eq!(counter("pipeline_enqueued_total"), total);
        assert_eq!(counter("pipeline_dequeued_total"), total);
        let depth = obs
            .registry
            .gauge_labeled("pipeline_queue_depth", &[("topic", "live")]);
        assert_eq!(depth.get(), 0.0, "nothing in flight at quiescence");
    }

    #[test]
    fn continuous_mode_wakes_for_every_single_append() {
        let b = Broker::new();
        b.create_topic("live", 2).unwrap();
        let handle = PipelineBuilder::new(b.clone(), "live", decode)
            .build()
            .spawn_continuous(|v| {
                std::hint::black_box(v);
            })
            .unwrap();
        // Each round appends one record to a parked pipeline and waits
        // for it: a lost wake-up leaves the record undelivered.
        for i in 0..2_000u64 {
            let r = Record::new(i, i.to_le_bytes().to_vec(), i);
            if i % 2 == 0 {
                b.append("live", r).unwrap();
            } else {
                b.append_batch("live", [r]).unwrap();
            }
            assert!(
                wait_until(5, || handle.processed() == i + 1),
                "round {i}: the append never woke the pipeline"
            );
        }
        handle.stop();
    }

    #[test]
    fn continuous_pipeline_spawned_after_a_release_starts_at_the_log_start() {
        use crate::broker::{ConsumerGroup, SEGMENT_SLOTS};
        let slots = SEGMENT_SLOTS as u64;
        let b = setup(2, 7 * slots);
        // A group commits everything, releasing each partition's sealed
        // segments, and stays registered.
        let group = ConsumerGroup::new("g", b.clone());
        let mut retained = Vec::new();
        for p in (0..2).map(PartitionId) {
            let end = b.end_offset("t", p).unwrap();
            group.commit("t", p, end);
            let start = b.start_offset("t", p).unwrap();
            assert_eq!(start, end / slots * slots);
            assert!(start > 0, "{p}: nothing released");
            // A poll from 0 begins at the log start.
            let polled = b.poll("t", p, 0, usize::MAX).unwrap();
            assert_eq!(polled.first().map(|r| r.offset.0), Some(start));
            retained.extend(polled.iter().filter_map(|r| decode(&r.record)));
        }
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let handle = PipelineBuilder::new(b.clone(), "t", decode)
            .build()
            .spawn_continuous(move |v| sink_seen.lock().push(v))
            .unwrap();
        let later = 7 * slots..7 * slots + 3_000;
        b.append_batch(
            "t",
            later
                .clone()
                .map(|i| Record::new(i % 10, i.to_le_bytes().to_vec(), i * 1_000)),
        )
        .unwrap();
        let total = (retained.len() + later.clone().count()) as u64;
        assert!(wait_until(10, || handle.processed() == total));
        handle.stop();
        let mut got = seen.lock().clone();
        got.sort_unstable();
        let mut want: Vec<u64> = retained.into_iter().chain(later).collect();
        want.sort_unstable();
        assert_eq!(got, want, "each retained record exactly once");
    }

    #[test]
    fn continuous_topic_keeps_everything_after_its_only_reader_stops() {
        use crate::broker::SEGMENT_SLOTS;
        let slots = SEGMENT_SLOTS as u64;
        let b = Broker::new();
        b.create_topic("live", 1).unwrap();
        let append = |range: std::ops::Range<u64>| {
            b.append_batch(
                "live",
                range.map(|i| Record::new(i, i.to_le_bytes().to_vec(), i)),
            )
            .unwrap()
        };
        let handle = PipelineBuilder::new(b.clone(), "live", decode)
            .build()
            .spawn_continuous(|_| {})
            .unwrap();
        let n = 3 * slots + 10;
        append(0..n);
        assert!(wait_until(10, || handle.processed() == n));
        // Stopping joins the thread, so its last release has happened.
        handle.stop();
        let p = PartitionId(0);
        assert_eq!(
            b.start_offset("live", p).unwrap(),
            3 * slots,
            "released behind the reader"
        );
        append(n..n + 5 * slots);
        assert_eq!(b.start_offset("live", p).unwrap(), 3 * slots);
        let held = b.poll("live", p, 0, usize::MAX).unwrap();
        let values: Vec<u64> = held.iter().filter_map(|r| decode(&r.record)).collect();
        assert_eq!(values, (3 * slots..n + 5 * slots).collect::<Vec<u64>>());
        let stats = b.stats("live").unwrap();
        assert_eq!(stats.records, n + 5 * slots);
        assert_eq!(stats.bytes, 8 * (n + 5 * slots - 3 * slots));
    }

    #[test]
    fn continuous_mode_stop_joins_a_parked_pipeline_promptly() {
        let b = Broker::new();
        b.create_topic("live", 1).unwrap();
        let handle = PipelineBuilder::new(b, "live", decode)
            .build()
            .spawn_continuous(|_| {})
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Stop from another thread, so a missed wake-up fails the test
        // instead of hanging it.
        let (done, joined) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            handle.stop();
            done.send(()).unwrap();
        });
        assert!(joined
            .recv_timeout(std::time::Duration::from_secs(1))
            .is_ok());
    }

    #[test]
    fn continuous_mode_lane_records_work_and_parked_windows() {
        let b = Broker::new();
        b.create_topic("live", 1).unwrap();
        let lanes = Lanes::new(5, 4096);
        let handle = PipelineBuilder::new(b.clone(), "live", decode)
            .obs(&Obs {
                lanes: Some(lanes.clone()),
                ..Obs::default()
            })
            .build()
            .spawn_continuous(|_| std::thread::sleep(std::time::Duration::from_micros(100)))
            .unwrap();
        // Parked on the empty topic, then busy with a slow sink.
        std::thread::sleep(std::time::Duration::from_millis(20));
        b.append_batch(
            "live",
            (0..100u64).map(|i| Record::new(i, i.to_le_bytes().to_vec(), i)),
        )
        .unwrap();
        assert!(wait_until(5, || handle.processed() == 100));
        handle.stop();
        assert_eq!(lanes.len(), 1, "one pipeline thread, one lane");
        let merged = lanes.merge_drains();
        assert_eq!(merged.lanes[0].name, "live/pipeline");
        assert!(merged.events.iter().all(|e| e.lane.is_worker()));
        let names: std::collections::HashSet<&str> =
            merged.events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains("pipeline/process"), "{names:?}");
        assert!(names.contains("blocked/channel_recv"), "{names:?}");
        let lane = &merged.lanes[0];
        assert!(lane.busy_us >= 10_000, "100 sink calls of 100 µs: {lane:?}");
        assert!(lane.blocked_us >= 10_000, "parked for 20 ms: {lane:?}");
        assert_eq!(lane.drained + lane.dropped, lane.total, "loss accounting");
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
            let store = CheckpointStore::new();
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
