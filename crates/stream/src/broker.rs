//! The in-process partitioned-log broker.
//!
//! Semantics mirror a minimal Kafka: topics are split into partitions,
//! each an append-only log with dense offsets; producers route records by
//! key; consumer groups own disjoint partition sets and commit offsets.
//! Everything is behind [`parking_lot`] locks so producers and consumers
//! on different threads interleave safely — the pipeline executor relies
//! on this.

use std::collections::HashMap;
use std::sync::Arc;

use augur_log::{EventLog, Level, LogSite};
use augur_telemetry::{BlockedSite, Clock, Lane, Registry, TraceContext};
use parking_lot::{Mutex, RwLock};

use crate::error::StreamError;
use crate::record::{route, Offset, PartitionId, PolledRecord, Record};

#[derive(Debug, Default)]
struct Partition {
    records: Vec<Record>,
}

#[derive(Debug)]
struct Topic {
    partitions: Vec<RwLock<Partition>>,
}

/// Per-topic statistics snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicStats {
    /// Partition count.
    pub partitions: u32,
    /// Total records across partitions.
    pub records: u64,
    /// Total payload bytes across partitions.
    pub bytes: u64,
}

/// The broker: a set of named topics. Cheap to clone (shared state).
///
/// # Example
///
/// ```
/// use augur_stream::{Broker, Record};
/// let broker = Broker::new();
/// broker.create_topic("t", 2)?;
/// let (partition, offset) = broker.append("t", Record::new(1, b"x".as_ref(), 5))?;
/// assert_eq!(offset.0, 0);
/// let _ = partition;
/// # Ok::<(), augur_stream::StreamError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Broker {
    inner: Arc<RwLock<HashMap<String, Arc<Topic>>>>,
}

impl Broker {
    /// Creates an empty broker.
    pub fn new() -> Self {
        Broker::default()
    }

    /// Creates a topic with `partitions` partitions.
    ///
    /// # Errors
    ///
    /// [`StreamError::TopicExists`] if the name is taken,
    /// [`StreamError::InvalidPartitionCount`] if `partitions == 0`.
    pub fn create_topic(&self, name: &str, partitions: u32) -> Result<(), StreamError> {
        if partitions == 0 {
            return Err(StreamError::InvalidPartitionCount(partitions));
        }
        let mut topics = self.inner.write();
        if topics.contains_key(name) {
            return Err(StreamError::TopicExists(name.to_string()));
        }
        topics.insert(
            name.to_string(),
            Arc::new(Topic {
                partitions: (0..partitions)
                    .map(|_| RwLock::new(Partition::default()))
                    .collect(),
            }),
        );
        Ok(())
    }

    fn topic(&self, name: &str) -> Result<Arc<Topic>, StreamError> {
        self.inner
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StreamError::UnknownTopic(name.to_string()))
    }

    /// The partition a key routes to.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn partition_for(&self, topic: &str, key: u64) -> Result<PartitionId, StreamError> {
        let t = self.topic(topic)?;
        Ok(PartitionId(route(key, t.partitions.len() as u32)))
    }

    /// Appends a record, routing by key. Returns the partition and the
    /// assigned offset.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn append(
        &self,
        topic: &str,
        record: Record,
    ) -> Result<(PartitionId, Offset), StreamError> {
        let t = self.topic(topic)?;
        let pid = route(record.key, t.partitions.len() as u32);
        let mut p = t.partitions[pid as usize].write();
        let offset = Offset(p.records.len() as u64);
        p.records.push(record);
        Ok((PartitionId(pid), offset))
    }

    /// Appends a batch of records (single lock acquisition per partition
    /// group), returning the count appended.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn append_batch(
        &self,
        topic: &str,
        records: impl IntoIterator<Item = Record>,
    ) -> Result<usize, StreamError> {
        let t = self.topic(topic)?;
        let n_parts = t.partitions.len() as u32;
        let mut grouped: Vec<Vec<Record>> = t.partitions.iter().map(|_| Vec::new()).collect();
        let mut n = 0usize;
        for r in records {
            grouped[route(r.key, n_parts) as usize].push(r);
            n += 1;
        }
        // Partitions are extended in index order, the same in every run;
        // a hash map's order would change from run to run, and with it
        // the order the partition logs grow and reallocate in.
        for (partition, batch) in t.partitions.iter().zip(grouped) {
            if !batch.is_empty() {
                partition.write().records.extend(batch);
            }
        }
        Ok(n)
    }

    /// Reads up to `max` records from `partition` starting at `from`.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownTopic`] / [`StreamError::UnknownPartition`].
    pub fn poll(
        &self,
        topic: &str,
        partition: PartitionId,
        from: u64,
        max: usize,
    ) -> Result<Vec<PolledRecord>, StreamError> {
        self.visit(topic, partition, from, max, |start, records| {
            records
                .iter()
                .zip(start..)
                .map(|(r, offset)| PolledRecord {
                    offset: Offset(offset),
                    record: r.clone(),
                })
                .collect()
        })
    }

    /// Calls `visit(start, records)` on up to `max` records of
    /// `partition` from offset `from` (`start` is the first one's offset,
    /// `from` clamped to the partition's end), borrowed straight from the
    /// log, and returns its result. The one partition-slice read path.
    ///
    /// `visit` runs under the partition's read lock: it must not append
    /// to this topic, or it deadlocks on the write lock.
    pub(crate) fn visit<R>(
        &self,
        topic: &str,
        partition: PartitionId,
        from: u64,
        max: usize,
        visit: impl FnOnce(u64, &[Record]) -> R,
    ) -> Result<R, StreamError> {
        let t = self.topic(topic)?;
        let p = t
            .partitions
            .get(partition.0 as usize)
            .ok_or(StreamError::UnknownPartition {
                topic: topic.to_string(),
                partition: partition.0,
            })?
            .read();
        let start = (from as usize).min(p.records.len());
        let end = start.saturating_add(max).min(p.records.len());
        Ok(visit(start as u64, &p.records[start..end]))
    }

    /// The end offset (next offset to be written) of a partition.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownTopic`] / [`StreamError::UnknownPartition`].
    pub fn end_offset(&self, topic: &str, partition: PartitionId) -> Result<u64, StreamError> {
        // An empty visit past the end starts at the end offset.
        self.visit(topic, partition, u64::MAX, 0, |end, _| end)
    }

    /// Number of partitions in a topic.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn partition_count(&self, topic: &str) -> Result<u32, StreamError> {
        Ok(self.topic(topic)?.partitions.len() as u32)
    }

    /// Statistics snapshot for a topic.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn stats(&self, topic: &str) -> Result<TopicStats, StreamError> {
        let t = self.topic(topic)?;
        let mut records = 0u64;
        let mut bytes = 0u64;
        for p in &t.partitions {
            let p = p.read();
            records += p.records.len() as u64;
            bytes += p
                .records
                .iter()
                .map(|r| r.payload.len() as u64)
                .sum::<u64>();
        }
        Ok(TopicStats {
            partitions: t.partitions.len() as u32,
            records,
            bytes,
        })
    }

    /// Topic names currently registered.
    pub fn topics(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// A consumer group: owns committed offsets per (topic, partition) and
/// assigns partitions to members round-robin.
#[derive(Debug)]
pub struct ConsumerGroup {
    name: String,
    broker: Broker,
    committed: Mutex<HashMap<(String, u32), u64>>,
    members: Mutex<Vec<String>>,
    telemetry: Mutex<Option<Registry>>,
    log: Mutex<Option<GroupLog>>,
}

/// Structured-log wiring for a consumer group: pre-interned symbols plus
/// an unlimited site (membership changes are rare lifecycle events).
struct GroupLog {
    log: EventLog,
    ctx: TraceContext,
    clock: Clock,
    rebalance_msg: augur_log::SymId,
    key_group: augur_log::SymId,
    key_member: augur_log::SymId,
    key_members: augur_log::SymId,
    group_sym: augur_log::SymId,
    site: LogSite,
}

impl std::fmt::Debug for GroupLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupLog").finish_non_exhaustive()
    }
}

impl ConsumerGroup {
    /// Creates a group against a broker.
    pub fn new(name: &str, broker: Broker) -> Self {
        ConsumerGroup {
            name: name.to_string(),
            broker,
            committed: Mutex::new(HashMap::new()),
            members: Mutex::new(Vec::new()),
            telemetry: Mutex::new(None),
            log: Mutex::new(None),
        }
    }

    /// Attaches a metric registry: every subsequent [`ConsumerGroup::lag`]
    /// call publishes its result to the gauge
    /// `consumer_lag_records{group, topic}`.
    pub fn instrument(&self, registry: &Registry) {
        *self.telemetry.lock() = Some(registry.clone());
    }

    /// Attaches a structured log: every membership change that forces a
    /// rebalance is recorded at INFO under `ctx` (`group/rebalance`,
    /// with the member and the resulting member count), timestamped
    /// from `clock`.
    pub fn instrument_log(&self, log: &EventLog, ctx: TraceContext, clock: &Clock) {
        *self.log.lock() = Some(GroupLog {
            rebalance_msg: log.intern("group/rebalance"),
            key_group: log.intern("group"),
            key_member: log.intern("member"),
            key_members: log.intern("members"),
            group_sym: log.intern(&self.name),
            site: LogSite::unlimited(),
            log: log.clone(),
            ctx,
            clock: Arc::clone(clock),
        });
    }

    /// The group name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers a member and returns its id. Triggers a rebalance of
    /// partition assignments on next [`ConsumerGroup::assignment`].
    pub fn join(&self, member: &str) -> usize {
        let mut members = self.members.lock();
        if let Some(i) = members.iter().position(|m| m == member) {
            return i;
        }
        members.push(member.to_string());
        // A membership change redistributes partitions — the kind of
        // decision a post-mortem wants on the record.
        if let Some(g) = self.log.lock().as_ref() {
            g.log.record(
                &g.site,
                Level::Info,
                g.ctx.child_named(member),
                g.rebalance_msg,
                g.clock.now_micros(),
                &[
                    (g.key_group, augur_log::Value::Sym(g.group_sym)),
                    (g.key_member, augur_log::Value::Sym(g.log.intern(member))),
                    (g.key_members, augur_log::Value::U64(members.len() as u64)),
                ],
            );
        }
        members.len() - 1
    }

    /// The partitions of `topic` assigned to `member` (round-robin over
    /// the current membership).
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn assignment(&self, topic: &str, member: &str) -> Result<Vec<PartitionId>, StreamError> {
        let n = self.broker.partition_count(topic)?;
        let members = self.members.lock();
        let idx = members
            .iter()
            .position(|m| m == member)
            .ok_or(StreamError::NotAssigned {
                group: self.name.clone(),
                partition: u32::MAX,
            })?;
        Ok((0..n)
            .filter(|p| (*p as usize) % members.len() == idx)
            .map(PartitionId)
            .collect())
    }

    /// Polls up to `max` records from one assigned partition, starting at
    /// the committed offset.
    ///
    /// # Errors
    ///
    /// [`StreamError::NotAssigned`] if the member does not own the
    /// partition, plus broker errors.
    pub fn poll(
        &self,
        topic: &str,
        member: &str,
        partition: PartitionId,
        max: usize,
    ) -> Result<Vec<PolledRecord>, StreamError> {
        if !self.assignment(topic, member)?.contains(&partition) {
            return Err(StreamError::NotAssigned {
                group: self.name.clone(),
                partition: partition.0,
            });
        }
        let from = self.committed_offset(topic, partition);
        self.broker.poll(topic, partition, from, max)
    }

    /// Commits `offset` (the *next* offset to read) for a partition.
    ///
    /// Commits are monotonic: a stale commit from a member that lost the
    /// partition in a rebalance can never move the group backwards,
    /// which would re-deliver already-processed records.
    pub fn commit(&self, topic: &str, partition: PartitionId, next_offset: u64) {
        let mut committed = self.committed.lock();
        let entry = committed
            .entry((topic.to_string(), partition.0))
            .or_insert(0);
        *entry = (*entry).max(next_offset);
    }

    /// Like [`ConsumerGroup::commit`], but charges time spent waiting
    /// on the group's commit lock to `lane`: an uncontended commit
    /// takes the `try_lock` fast path; when another member holds the
    /// lock, the wait is measured on `clock`, added to the lane's
    /// `lane_blocked_us` counter, and recorded as a
    /// `blocked/commit_lock` span under `parent` — the contention xray
    /// attributes to the committing stage.
    pub fn commit_contended(
        &self,
        topic: &str,
        partition: PartitionId,
        next_offset: u64,
        lane: &Lane,
        clock: &Clock,
        parent: TraceContext,
    ) {
        let mut committed = match self.committed.try_lock() {
            Some(guard) => guard,
            None => {
                let blocked = lane.block(clock, parent, BlockedSite::CommitLock);
                let guard = self.committed.lock();
                blocked.end();
                guard
            }
        };
        let entry = committed
            .entry((topic.to_string(), partition.0))
            .or_insert(0);
        *entry = (*entry).max(next_offset);
    }

    /// The committed next-offset for a partition (0 if never committed).
    pub fn committed_offset(&self, topic: &str, partition: PartitionId) -> u64 {
        *self
            .committed
            .lock()
            .get(&(topic.to_string(), partition.0))
            .unwrap_or(&0)
    }

    /// Total lag (end offset − committed) across a topic's partitions.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn lag(&self, topic: &str) -> Result<u64, StreamError> {
        let n = self.broker.partition_count(topic)?;
        let mut lag = 0u64;
        for p in 0..n {
            let end = self.broker.end_offset(topic, PartitionId(p))?;
            lag += end.saturating_sub(self.committed_offset(topic, PartitionId(p)));
        }
        if let Some(registry) = self.telemetry.lock().as_ref() {
            registry
                .gauge_labeled(
                    "consumer_lag_records",
                    &[("group", self.name.as_str()), ("topic", topic)],
                )
                .set_u64(lag);
        }
        Ok(lag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key: u64, t: u64) -> Record {
        Record::new(key, format!("v{key}").into_bytes(), t)
    }

    #[test]
    fn group_joins_log_rebalance_decisions() {
        use augur_telemetry::ManualTime;
        let group = ConsumerGroup::new("g", Broker::new());
        let log = EventLog::new(16);
        let ctx = TraceContext::root(3, 1);
        let clock: Clock = ManualTime::shared();
        group.instrument_log(&log, ctx, &clock);
        group.join("a");
        group.join("b");
        group.join("a"); // re-join: no membership change, no record
        let records = log.drain();
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.msg == "group/rebalance"));
        assert!(records.iter().all(|r| r.trace_id == ctx.trace_id));
        let counts: Vec<_> = records
            .iter()
            .map(|r| {
                r.fields
                    .iter()
                    .find(|(k, _)| k == "members")
                    .map(|(_, v)| v.clone())
            })
            .collect();
        assert_eq!(
            counts,
            vec![
                Some(augur_log::FieldValue::U64(1)),
                Some(augur_log::FieldValue::U64(2))
            ]
        );
    }

    #[test]
    fn create_and_duplicate_topic() {
        let b = Broker::new();
        assert!(b.create_topic("a", 3).is_ok());
        assert_eq!(
            b.create_topic("a", 3),
            Err(StreamError::TopicExists("a".into()))
        );
        assert_eq!(
            b.create_topic("z", 0),
            Err(StreamError::InvalidPartitionCount(0))
        );
        assert_eq!(b.topics(), vec!["a".to_string()]);
    }

    #[test]
    fn append_assigns_dense_offsets_per_partition() {
        let b = Broker::new();
        b.create_topic("t", 1).unwrap();
        for i in 0..10 {
            let (_, off) = b.append("t", rec(i, i)).unwrap();
            assert_eq!(off.0, i);
        }
        assert_eq!(b.end_offset("t", PartitionId(0)).unwrap(), 10);
    }

    #[test]
    fn same_key_preserves_order() {
        let b = Broker::new();
        b.create_topic("t", 8).unwrap();
        for i in 0..100 {
            b.append("t", Record::new(42, vec![i as u8], i)).unwrap();
        }
        let pid = b.partition_for("t", 42).unwrap();
        let polled = b.poll("t", pid, 0, 1000).unwrap();
        assert_eq!(polled.len(), 100);
        for (i, pr) in polled.iter().enumerate() {
            assert_eq!(pr.record.payload[0], i as u8);
        }
    }

    #[test]
    fn poll_respects_from_and_max() {
        let b = Broker::new();
        b.create_topic("t", 1).unwrap();
        b.append_batch("t", (0..50).map(|i| rec(0, i))).unwrap();
        let polled = b.poll("t", PartitionId(0), 10, 5).unwrap();
        assert_eq!(polled.len(), 5);
        assert_eq!(polled[0].offset, Offset(10));
        // Past the end: empty.
        assert!(b.poll("t", PartitionId(0), 100, 5).unwrap().is_empty());
    }

    #[test]
    fn unknown_topic_and_partition_errors() {
        let b = Broker::new();
        assert!(matches!(
            b.poll("nope", PartitionId(0), 0, 1),
            Err(StreamError::UnknownTopic(_))
        ));
        b.create_topic("t", 1).unwrap();
        assert!(matches!(
            b.poll("t", PartitionId(5), 0, 1),
            Err(StreamError::UnknownPartition { .. })
        ));
    }

    #[test]
    fn stats_count_records_and_bytes() {
        let b = Broker::new();
        b.create_topic("t", 4).unwrap();
        b.append_batch("t", (0..100).map(|i| rec(i, i))).unwrap();
        let s = b.stats("t").unwrap();
        assert_eq!(s.partitions, 4);
        assert_eq!(s.records, 100);
        assert!(s.bytes >= 200);
    }

    #[test]
    fn consumer_group_assignment_partitions_disjoint() {
        let b = Broker::new();
        b.create_topic("t", 8).unwrap();
        let g = ConsumerGroup::new("g", b);
        g.join("m0");
        g.join("m1");
        g.join("m2");
        let mut all: Vec<u32> = Vec::new();
        for m in ["m0", "m1", "m2"] {
            all.extend(g.assignment("t", m).unwrap().iter().map(|p| p.0));
        }
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn consumer_group_poll_commit_lag() {
        let b = Broker::new();
        b.create_topic("t", 2).unwrap();
        b.append_batch("t", (0..20).map(|i| rec(i, i))).unwrap();
        let g = ConsumerGroup::new("g", b.clone());
        g.join("m");
        let total_before = g.lag("t").unwrap();
        assert_eq!(total_before, 20);
        for pid in g.assignment("t", "m").unwrap() {
            let recs = g.poll("t", "m", pid, 100).unwrap();
            if let Some(last) = recs.last() {
                g.commit("t", pid, last.offset.0 + 1);
            }
        }
        assert_eq!(g.lag("t").unwrap(), 0);
        // Re-poll returns nothing new.
        for pid in g.assignment("t", "m").unwrap() {
            assert!(g.poll("t", "m", pid, 100).unwrap().is_empty());
        }
    }

    #[test]
    fn commit_contended_fast_path_charges_nothing() {
        use augur_telemetry::{Lanes, ManualTime};
        let b = Broker::new();
        b.create_topic("t", 1).unwrap();
        let g = ConsumerGroup::new("g", b);
        let lanes = Lanes::new(9, 64);
        let lane = lanes.register("committer");
        let clock: Clock = ManualTime::shared();
        g.commit_contended(
            "t",
            PartitionId(0),
            5,
            &lane,
            &clock,
            TraceContext::root(9, 1),
        );
        assert_eq!(g.committed_offset("t", PartitionId(0)), 5);
        // Monotonic: a stale lower commit cannot move the group back.
        g.commit_contended(
            "t",
            PartitionId(0),
            3,
            &lane,
            &clock,
            TraceContext::root(9, 2),
        );
        assert_eq!(g.committed_offset("t", PartitionId(0)), 5);
        assert_eq!(lane.blocked_us(), 0);
        assert!(lanes.merge_drains().events.is_empty());
    }

    #[test]
    fn commit_contended_charges_blocked_time_under_contention() {
        use augur_telemetry::{Lanes, MonotonicTime};
        use std::sync::atomic::{AtomicBool, Ordering};
        let b = Broker::new();
        b.create_topic("t", 1).unwrap();
        let g = Arc::new(ConsumerGroup::new("g", b));
        let lanes = Lanes::new(9, 64);
        let lane = lanes.register("committer");
        let clock: Clock = MonotonicTime::shared();
        let held = g.committed.lock();
        let entered = Arc::new(AtomicBool::new(false));
        let t = {
            let (g, lane, clock, entered) = (
                Arc::clone(&g),
                lane.clone(),
                Arc::clone(&clock),
                Arc::clone(&entered),
            );
            std::thread::spawn(move || {
                entered.store(true, Ordering::Release);
                g.commit_contended(
                    "t",
                    PartitionId(0),
                    7,
                    &lane,
                    &clock,
                    TraceContext::root(9, 3),
                );
            })
        };
        while !entered.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // Keep the lock held long enough that the committer is firmly
        // in the blocked path before we release it.
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(held);
        t.join()
            .unwrap_or_else(|_| unreachable!("committer panicked"));
        assert_eq!(g.committed_offset("t", PartitionId(0)), 7);
        assert!(
            lane.blocked_us() > 0,
            "wait on the held lock must be charged"
        );
        let merged = lanes.merge_drains();
        assert!(merged
            .events
            .iter()
            .any(|e| e.name == "blocked/commit_lock" && e.lane == lane.id()));
    }

    #[test]
    fn poll_unowned_partition_is_rejected() {
        let b = Broker::new();
        b.create_topic("t", 2).unwrap();
        let g = ConsumerGroup::new("g", b);
        g.join("m0");
        g.join("m1");
        // m0 owns partition 0, m1 owns partition 1.
        assert!(matches!(
            g.poll("t", "m0", PartitionId(1), 1),
            Err(StreamError::NotAssigned { .. })
        ));
    }

    #[test]
    fn concurrent_producers_do_not_lose_records() {
        let b = Broker::new();
        b.create_topic("t", 4).unwrap();
        let mut handles = Vec::new();
        for th in 0..4u64 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    b.append("t", Record::new(th * 1000 + i, vec![0u8], i))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.stats("t").unwrap().records, 4000);
    }
}
