//! In-process distributed stream substrate for the Augur platform.
//!
//! The paper's "Velocity" dimension — data "streaming in and out at high
//! speed \[that\] must be processed within a timely way" — presumes a
//! Kafka-style partitioned log plus a Flink-style dataflow engine. Those
//! clusters are not available to a library build, so this crate
//! implements both *semantically*, in process:
//!
//! - [`broker`]: named topics of partitioned, append-only logs with
//!   producers, consumer groups, and committed offsets.
//! - [`record`]: the wire record (key, payload bytes, event time).
//! - [`watermark`]: bounded-out-of-orderness event-time watermarks.
//! - [`window`]: tumbling, sliding, and session window assigners plus a
//!   keyed windowed aggregator with late-data accounting.
//! - [`pipeline`]: a threaded dataflow executor (source → operators →
//!   sink) with bounded channels providing backpressure.
//! - [`checkpoint`]: offset + operator-state snapshots and recovery.
//! - [`obs`]: the one observability handle runs report to.
//!
//! Absolute throughput differs from a real cluster; the *semantics* —
//! ordering per partition, event-time windows, exactly-once-style
//! recovery from checkpoints — are what the platform and experiments
//! (E2, E9, E12) depend on, and those are implemented faithfully.
//!
//! # Example
//!
//! ```
//! use augur_stream::{Broker, Record};
//!
//! let broker = Broker::new();
//! broker.create_topic("events", 4)?;
//! broker.append("events", Record::new(7, b"hello".as_ref(), 1_000))?;
//! let polled = broker.poll("events", broker.partition_for("events", 7)?, 0, 10)?;
//! assert_eq!(polled.len(), 1);
//! assert_eq!(&polled[0].record.payload[..], b"hello");
//! # Ok::<(), augur_stream::StreamError>(())
//! ```

/// The partitioned in-memory broker and consumer groups.
pub mod broker;
/// Pipeline checkpointing for exactly-once resumption.
pub mod checkpoint;
/// The crate error type.
pub mod error;
/// The observability handle: registry, trace parent, and optional sinks.
pub mod obs;
/// Dataflow pipelines over the broker.
pub mod pipeline;
/// Record, offset, and partition types.
pub mod record;
/// Event-time watermarks.
pub mod watermark;
/// Windowed aggregation: tumbling, sliding, session.
pub mod window;

/// Broker types re-exported from [`broker`].
pub use broker::{Broker, ConsumerGroup, TopicStats};
/// Checkpoint types re-exported from [`checkpoint`].
pub use checkpoint::{Checkpoint, CheckpointStore};
/// The crate error type, re-exported from [`error`].
pub use error::StreamError;
/// The observability handle, re-exported from [`obs`].
pub use obs::Obs;
/// Pipeline types re-exported from [`pipeline`].
pub use pipeline::{ModeledCosts, Pipeline, PipelineBuilder, PipelineMetrics, StopHandle};
/// Record types re-exported from [`record`].
pub use record::{Offset, PartitionId, PolledRecord, Record};
/// Watermark types re-exported from [`watermark`].
pub use watermark::{BoundedOutOfOrderness, Watermark, WatermarkGenerator};
/// Windowing types re-exported from [`window`].
pub use window::{
    SessionWindows, SlidingWindows, TumblingWindows, Window, WindowAssigner, WindowResult,
    WindowState, WindowedAggregator,
};
