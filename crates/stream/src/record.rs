//! Wire records for the partitioned log.

use augur_telemetry::TraceContext;
use bytes::Bytes;

/// Offset of a record within a partition (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Offset(pub u64);

impl Offset {
    /// The next offset after this one.
    pub fn next(&self) -> Offset {
        Offset(self.0 + 1)
    }
}

impl std::fmt::Display for Offset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Index of a partition within a topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PartitionId(pub u32);

impl std::fmt::Display for PartitionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A record in the log: routing key, opaque payload, event time.
///
/// Event time is microseconds since the simulation epoch — the time the
/// underlying phenomenon occurred, which is what windows are computed
/// over (processing time is irrelevant to correctness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Routing key; records with equal keys land in the same partition
    /// and are therefore totally ordered relative to one another.
    pub key: u64,
    /// Opaque payload bytes.
    pub payload: Bytes,
    /// Event time, microseconds since the epoch.
    pub event_time_us: u64,
    /// Causal trace context, if the producer is tracing. Propagated
    /// verbatim through the log and the pipeline so downstream spans can
    /// link back to the producing frame. Not part of the wire payload.
    pub trace: Option<TraceContext>,
}

impl Record {
    /// Creates a record. Accepts anything convertible into [`Bytes`]
    /// (`Vec<u8>`, `&'static [u8]`, `Bytes`...).
    pub fn new(key: u64, payload: impl Into<Bytes>, event_time_us: u64) -> Self {
        Record {
            key,
            payload: payload.into(),
            event_time_us,
            trace: None,
        }
    }

    /// Attaches a causal trace context (builder style).
    ///
    /// ```
    /// use augur_stream::Record;
    /// use augur_telemetry::TraceContext;
    ///
    /// let ctx = TraceContext::root(42, 7);
    /// let r = Record::new(7, vec![1u8], 10).with_trace(ctx);
    /// assert_eq!(r.trace, Some(ctx));
    /// ```
    pub fn with_trace(mut self, ctx: TraceContext) -> Self {
        self.trace = Some(ctx);
        self
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }
}

/// A record returned from a poll, tagged with its offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolledRecord {
    /// Offset within the polled partition.
    pub offset: Offset,
    /// The record.
    pub record: Record,
}

/// FNV-1a hash used for key → partition routing (stable across runs and
/// platforms, unlike `DefaultHasher`).
pub(crate) fn route(key: u64, partitions: u32) -> u32 {
    (augur_telemetry::fnv1a64(&key.to_le_bytes()) % partitions as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_construction_from_various_payloads() {
        let a = Record::new(1, vec![1u8, 2, 3], 10);
        let b = Record::new(1, Bytes::from_static(b"abc"), 10);
        assert_eq!(a.payload_len(), 3);
        assert_eq!(b.payload_len(), 3);
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for key in 0..1000u64 {
            let p = route(key, 7);
            assert!(p < 7);
            assert_eq!(p, route(key, 7), "routing must be deterministic");
        }
    }

    #[test]
    fn routing_spreads_keys() {
        let mut counts = [0usize; 8];
        for key in 0..8000u64 {
            counts[route(key, 8) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (700..1300).contains(&c),
                "partition {i} has skewed count {c}"
            );
        }
    }

    #[test]
    fn offset_next_and_display() {
        assert_eq!(Offset(4).next(), Offset(5));
        assert_eq!(Offset(4).to_string(), "@4");
        assert_eq!(PartitionId(2).to_string(), "p2");
    }
}
