//! Error types for the stream substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by the stream substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// The named topic does not exist.
    UnknownTopic(String),
    /// A topic with this name already exists.
    TopicExists(String),
    /// A partition index was out of range for the topic.
    UnknownPartition {
        /// Topic the caller addressed.
        topic: String,
        /// Out-of-range partition index.
        partition: u32,
    },
    /// Partition count must be at least one.
    InvalidPartitionCount(u32),
    /// A consumer group member requested a partition it does not own.
    NotAssigned {
        /// Consumer group the member belongs to.
        group: String,
        /// Partition the member is not assigned.
        partition: u32,
    },
    /// The pipeline was already started or already stopped.
    InvalidPipelineState(&'static str),
    /// No checkpoint exists to restore from.
    NoCheckpoint,
    /// A record's payload is longer than
    /// [`MAX_PAYLOAD`](crate::broker::MAX_PAYLOAD) bytes.
    PayloadTooLarge(usize),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::UnknownTopic(t) => write!(f, "unknown topic {t:?}"),
            StreamError::TopicExists(t) => write!(f, "topic {t:?} already exists"),
            StreamError::UnknownPartition { topic, partition } => {
                write!(f, "partition {partition} out of range for topic {topic:?}")
            }
            StreamError::InvalidPartitionCount(n) => {
                write!(f, "partition count {n} must be at least 1")
            }
            StreamError::NotAssigned { group, partition } => {
                write!(f, "partition {partition} not assigned in group {group:?}")
            }
            StreamError::InvalidPipelineState(what) => {
                write!(f, "invalid pipeline state: {what}")
            }
            StreamError::NoCheckpoint => write!(f, "no checkpoint available"),
            StreamError::PayloadTooLarge(len) => write!(
                f,
                "payload of {len} bytes exceeds the {} byte record limit",
                crate::broker::MAX_PAYLOAD
            ),
        }
    }
}

impl Error for StreamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(StreamError::UnknownTopic("t".into())
            .to_string()
            .contains("unknown topic"));
        assert!(StreamError::UnknownPartition {
            topic: "t".into(),
            partition: 9
        }
        .to_string()
        .contains("9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + std::error::Error>() {}
        check::<StreamError>();
    }
}
