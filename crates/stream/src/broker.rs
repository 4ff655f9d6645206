//! The in-process partitioned-log broker.
//!
//! Semantics mirror a minimal Kafka: topics are split into partitions,
//! each an append-only log with dense offsets; producers route records by
//! key; consumer groups own disjoint partition sets and commit offsets.
//! Everything is behind [`parking_lot`] locks so producers and consumers
//! on different threads interleave safely — the pipeline executor relies
//! on this.
//!
//! A partition's log is a run of segments, as in Kafka. Each segment
//! holds [`SEGMENT_SLOTS`](crate::broker::SEGMENT_SLOTS) consecutive
//! records as a fixed-width index (key, event time, payload position)
//! over one contiguous payload buffer, so an append copies its payload
//! into the buffer and allocates nothing of its own. Reads rebuild each [`Record`] on the stack from
//! its index entry; a payload of up to [`bytes::INLINE_CAP`] bytes is
//! carried inline, so that costs no allocation either.
//!
//! Retention works at segment granularity too. A topic keeps a registry
//! of readers, each with a position per partition: a running continuous
//! pipeline holds one in every partition, and a consumer group holds one
//! in each partition from its first commit there. A sealed segment is
//! released once every reader holding a position in its partition has
//! passed the segment's end. A partition no reader holds a position in
//! keeps everything.
//! Offsets never move: a partition's log start is its count of released
//! segments times [`SEGMENT_SLOTS`], and its end offset still counts every
//! record ever appended.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use augur_telemetry::log::{EventLog, Level, LogSite, SymId, Value};
use augur_telemetry::{BlockedSite, Clock, Lane, Obs, Registry, TraceContext};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};

use crate::error::StreamError;
use crate::record::{route, Offset, PartitionId, PolledRecord, Record};

/// log2 of [`SEGMENT_SLOTS`].
const SEGMENT_BITS: u32 = 12;

/// Records per log segment. A power of two, so an offset's segment is
/// `offset >> 12` and its slot within it `offset & (SEGMENT_SLOTS - 1)`.
pub const SEGMENT_SLOTS: usize = 1 << SEGMENT_BITS;

/// The longest payload a record may carry (1 MiB, Kafka's default
/// message limit). A full segment of such records fills exactly the
/// `u32` range its index addresses payload bytes with.
pub const MAX_PAYLOAD: usize = 1 << (u32::BITS - SEGMENT_BITS);

/// Where one record sits in its segment: 24 bytes.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    event_time_us: u64,
    /// Payload position in [`Segment::payload`].
    start: u32,
    len: u32,
}

/// Up to [`SEGMENT_SLOTS`] consecutive records of one partition.
#[derive(Debug, Default)]
struct Segment {
    index: Vec<Entry>,
    /// Every record's payload, back to back in slot order.
    payload: Vec<u8>,
    /// Each slot's trace context. It stays empty, unallocated, until a
    /// traced record arrives, and then runs only to the latest such slot.
    traces: Vec<Option<TraceContext>>,
}

impl Segment {
    /// The record in `slot`, rebuilt from the index.
    fn record(&self, slot: usize, e: &Entry) -> Record {
        Record {
            key: e.key,
            payload: Bytes::copy_from_prefix(&self.payload[e.start as usize..], e.len as usize),
            event_time_us: e.event_time_us,
            trace: self.traces.get(slot).copied().flatten(),
        }
    }
}

/// One partition's log: the sealed segments still held, the count
/// released before them, and the segment being filled.
#[derive(Debug, Default)]
struct Partition {
    sealed: VecDeque<Segment>,
    /// Sealed segments released from the front of the log.
    released: u64,
    head: Segment,
}

impl Partition {
    /// The log start: the offset of the first record still held.
    fn start(&self) -> u64 {
        self.released << SEGMENT_BITS
    }

    /// The end offset: the offset the next append gets. It counts every
    /// record ever appended, released ones included.
    fn len(&self) -> u64 {
        self.start() + (self.sealed.len() * SEGMENT_SLOTS + self.head.index.len()) as u64
    }

    /// Appends `r`. A head segment that fills is sealed at once, its
    /// buffers trimmed to what they hold, so a reader that has read it
    /// all can release it.
    fn push(&mut self, r: &Record) {
        let head = &mut self.head;
        if let Some(ctx) = r.trace {
            head.traces.resize(head.index.len(), None);
            head.traces.push(Some(ctx));
        }
        head.index.push(Entry {
            key: r.key,
            event_time_us: r.event_time_us,
            start: head.payload.len() as u32,
            len: r.payload.len() as u32,
        });
        head.payload.extend_from_slice(&r.payload);
        if head.index.len() == SEGMENT_SLOTS {
            let mut full = std::mem::take(head);
            full.payload.shrink_to_fit();
            full.traces.shrink_to_fit();
            self.sealed.push_back(full);
        }
    }

    /// How many sealed segments lie wholly below `position`.
    fn releasable(&self, position: u64) -> u64 {
        (position >> SEGMENT_BITS)
            .min(self.released + self.sealed.len() as u64)
            .saturating_sub(self.released)
    }

    /// Drops the sealed segments that lie wholly below `position`.
    fn release_below(&mut self, position: u64) {
        let n = self.releasable(position);
        self.sealed.drain(..n as usize);
        self.released += n;
    }

    /// Calls `each(offset, record)` on the records at offsets
    /// `from..to`, which must lie within the held log.
    fn visit(&self, from: u64, to: u64, mut each: impl FnMut(u64, &Record)) {
        let mut offset = from;
        while offset < to {
            let segment = self
                .sealed
                .get(((offset >> SEGMENT_BITS) - self.released) as usize)
                .unwrap_or(&self.head);
            let first = (offset as usize) & (SEGMENT_SLOTS - 1);
            let last = first + (to - offset).min((SEGMENT_SLOTS - first) as u64) as usize;
            for (slot, e) in (first..).zip(&segment.index[first..last]) {
                each(offset, &segment.record(slot, e));
                offset += 1;
            }
        }
    }

    /// Payload bytes held (released segments excluded).
    fn payload_bytes(&self) -> u64 {
        self.sealed
            .iter()
            .chain([&self.head])
            .map(|s| s.payload.len() as u64)
            .sum()
    }
}

/// One topic's partition logs plus the append signal readers park on.
///
/// Appends bump `epoch` after their records land. A reader that saw
/// epoch `e` before draining the partitions parks in
/// [`Topic::wait_for_append`] until the epoch moves past `e`, so an
/// append that lands mid-drain is never slept through. The epoch and the
/// waiter count are both `SeqCst`: either the appender sees the parked
/// reader and notifies it under the wake lock, or the reader sees the
/// new epoch and does not park.
///
/// It also holds the registered readers' positions (see [`Reader`]).
/// Appends never look at them; only a reader's progress releases
/// segments.
#[derive(Debug)]
pub(crate) struct Topic {
    partitions: Vec<RwLock<Partition>>,
    epoch: AtomicU64,
    /// Readers inside [`Topic::wait_for_append`]; appends take the wake
    /// lock only when this is nonzero.
    waiters: AtomicU64,
    wake: Mutex<()>,
    appended: Condvar,
    /// Each registered reader's positions.
    readers: Mutex<Vec<Positions>>,
}

/// A reader's position in each partition of its topic: its next offset
/// plus one, or 0 where it holds none.
type Positions = Arc<[AtomicU64]>;

/// The next offset a stored position stands for, `None` if it is unset.
fn position(at: &AtomicU64) -> Option<u64> {
    at.load(Ordering::SeqCst).checked_sub(1)
}

impl Topic {
    fn new(partitions: u32) -> Topic {
        Topic {
            partitions: (0..partitions)
                .map(|_| RwLock::new(Partition::default()))
                .collect(),
            epoch: AtomicU64::new(0),
            waiters: AtomicU64::new(0),
            wake: Mutex::new(()),
            appended: Condvar::new(),
            readers: Mutex::new(Vec::new()),
        }
    }

    /// Number of partitions.
    pub(crate) fn partition_count(&self) -> u32 {
        self.partitions.len() as u32
    }

    /// The append epoch: it moves after every append lands.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Parks the calling thread until the epoch differs from `seen` or
    /// `stop` is raised, returning at once if either already holds. The
    /// one place a stream thread blocks: a dedicated reader with nothing
    /// to read sleeps here instead of polling.
    pub(crate) fn wait_for_append(&self, seen: u64, stop: &AtomicBool) {
        let mut guard = self.wake.lock();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        while self.epoch.load(Ordering::SeqCst) == seen && !stop.load(Ordering::SeqCst) {
            self.appended.wait(&mut guard);
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes every parked reader so it re-checks its condition. A caller
    /// that raised a reader's stop flag calls this after raising it.
    pub(crate) fn wake(&self) {
        let _guard = self.wake.lock();
        self.appended.notify_all();
    }

    /// Publishes an append: moves the epoch, then wakes parked readers if
    /// there are any.
    fn publish(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.wake();
        }
    }

    /// Calls `each(offset, record)` on up to `max` records of
    /// `partition`, each rebuilt from the log. The visit begins at
    /// `from`, or at the log start if `from` lies below it, and stops
    /// before `until` and before the partition's end. Returns the offset
    /// after the last record visited (where the visit began, if it
    /// visited none), or `None` if the partition does not exist.
    ///
    /// `each` runs under the partition's read lock: it must not append
    /// to this topic, or it deadlocks on the write lock.
    pub(crate) fn visit(
        &self,
        partition: u32,
        from: u64,
        max: usize,
        until: u64,
        each: impl FnMut(u64, &Record),
    ) -> Option<u64> {
        let p = self.partitions.get(partition as usize)?.read();
        let end = p.len().min(until);
        let start = from.max(p.start()).min(end);
        let stop = start.saturating_add(max as u64).min(end);
        p.visit(start, stop, each);
        Some(stop)
    }

    /// The log start and end offset of `partition`, or `None` if it does
    /// not exist.
    fn bounds(&self, partition: u32) -> Option<(u64, u64)> {
        let p = self.partitions.get(partition as usize)?.read();
        Some((p.start(), p.len()))
    }

    /// Releases the sealed segments of `partition` that every reader
    /// holding a position there has passed. The registry stays locked
    /// throughout, so a reader registering meanwhile is either counted or
    /// starts at the new log start. The write lock is taken only when a
    /// segment goes.
    fn release(&self, partition: usize) {
        let readers = self.readers.lock();
        let Some(slowest) = readers
            .iter()
            .filter_map(|r| position(r.get(partition)?))
            .min()
        else {
            return;
        };
        let Some(log) = self.partitions.get(partition) else {
            return;
        };
        if log.read().releasable(slowest) == 0 {
            return;
        }
        log.write().release_below(slowest);
    }
}

/// A registered reader of one topic and the one record of its progress:
/// while it lives, no record at or above its position in a partition is
/// released. A partition where it holds no position holds back nothing.
/// Dropping it unregisters it.
#[derive(Debug)]
pub(crate) struct Reader {
    topic: Arc<Topic>,
    positions: Positions,
}

impl Reader {
    /// Registers a reader of `topic` at offset `at` in every partition,
    /// or, for `None`, holding a position in none until it advances there.
    pub(crate) fn register(topic: Arc<Topic>, at: Option<u64>) -> Reader {
        let stored = at.map_or(0, |next| next.saturating_add(1));
        let positions: Positions = (0..topic.partitions.len())
            .map(|_| AtomicU64::new(stored))
            .collect();
        topic.readers.lock().push(Arc::clone(&positions));
        Reader { topic, positions }
    }

    /// This reader's next offset in `partition`, or `None` if it holds no
    /// position there.
    pub(crate) fn position(&self, partition: u32) -> Option<u64> {
        position(self.positions.get(partition as usize)?)
    }

    /// Moves this reader's position in `partition` forward to `next`
    /// (never back), setting it if unset. When that crosses a segment
    /// boundary, the segments every reader holding a position there has
    /// passed are released, so a release is tried at most once per
    /// [`SEGMENT_SLOTS`] records.
    pub(crate) fn advance(&self, partition: u32, next: u64) {
        let Some(at) = self.positions.get(partition as usize) else {
            return;
        };
        let before = at
            .fetch_max(next.saturating_add(1), Ordering::SeqCst)
            .saturating_sub(1);
        if next >> SEGMENT_BITS > before >> SEGMENT_BITS {
            self.topic.release(partition as usize);
        }
    }
}

impl Drop for Reader {
    fn drop(&mut self) {
        self.topic
            .readers
            .lock()
            .retain(|r| !Arc::ptr_eq(r, &self.positions));
    }
}

/// Per-topic statistics snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicStats {
    /// Partition count.
    pub partitions: u32,
    /// Records ever appended across partitions, released ones included
    /// (the sum of the end offsets).
    pub records: u64,
    /// Payload bytes the partitions hold now. Released segments no
    /// longer count, so on a topic with a registered reader this can
    /// fall.
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
        topics.insert(name.to_string(), Arc::new(Topic::new(partitions)));
        Ok(())
    }

    pub(crate) fn topic(&self, name: &str) -> Result<Arc<Topic>, StreamError> {
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
    /// [`StreamError::UnknownTopic`] if the topic does not exist,
    /// [`StreamError::PayloadTooLarge`] if the payload is longer than
    /// [`MAX_PAYLOAD`].
    pub fn append(
        &self,
        topic: &str,
        record: Record,
    ) -> Result<(PartitionId, Offset), StreamError> {
        let t = self.topic(topic)?;
        check_payload(&record)?;
        let pid = route(record.key, t.partitions.len() as u32);
        let offset = {
            let mut p = t.partitions[pid as usize].write();
            let offset = Offset(p.len());
            p.push(&record);
            offset
        };
        t.publish();
        Ok((PartitionId(pid), offset))
    }

    /// Appends a batch of records in order, each routed by key, and
    /// wakes parked readers once; returns the count appended.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownTopic`] if the topic does not exist (nothing
    /// is appended), [`StreamError::PayloadTooLarge`] at the first record
    /// whose payload is longer than [`MAX_PAYLOAD`] (the records before
    /// it stay appended).
    pub fn append_batch(
        &self,
        topic: &str,
        records: impl IntoIterator<Item = Record>,
    ) -> Result<usize, StreamError> {
        let t = self.topic(topic)?;
        let n_parts = t.partitions.len() as u32;
        let mut n = 0usize;
        let mut checked = Ok(());
        for r in records {
            checked = check_payload(&r);
            if checked.is_err() {
                break;
            }
            t.partitions[route(r.key, n_parts) as usize]
                .write()
                .push(&r);
            n += 1;
        }
        if n > 0 {
            t.publish();
        }
        checked.map(|()| n)
    }

    /// Reads up to `max` records from `partition` starting at `from`,
    /// or at the log start if `from` lies below it.
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
        let mut out = Vec::new();
        self.visit(topic, partition, from, max, u64::MAX, |offset, record| {
            out.push(PolledRecord {
                offset: Offset(offset),
                record: record.clone(),
            });
        })?;
        Ok(out)
    }

    /// [`Topic::visit`] by topic name: the one partition read path.
    pub(crate) fn visit(
        &self,
        topic: &str,
        partition: PartitionId,
        from: u64,
        max: usize,
        until: u64,
        each: impl FnMut(u64, &Record),
    ) -> Result<u64, StreamError> {
        self.topic(topic)?
            .visit(partition.0, from, max, until, each)
            .ok_or_else(|| unknown_partition(topic, partition))
    }

    /// The log start and end offset of a partition.
    pub(crate) fn bounds(
        &self,
        topic: &str,
        partition: PartitionId,
    ) -> Result<(u64, u64), StreamError> {
        self.topic(topic)?
            .bounds(partition.0)
            .ok_or_else(|| unknown_partition(topic, partition))
    }

    /// The log start of a partition: the offset of the first record it
    /// still holds. It is 0 until a sealed segment is released, then a
    /// multiple of [`SEGMENT_SLOTS`].
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownTopic`] / [`StreamError::UnknownPartition`].
    pub fn start_offset(&self, topic: &str, partition: PartitionId) -> Result<u64, StreamError> {
        Ok(self.bounds(topic, partition)?.0)
    }

    /// The end offset (next offset to be written) of a partition. It
    /// counts every record ever appended, released ones included.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownTopic`] / [`StreamError::UnknownPartition`].
    pub fn end_offset(&self, topic: &str, partition: PartitionId) -> Result<u64, StreamError> {
        Ok(self.bounds(topic, partition)?.1)
    }

    /// Number of partitions in a topic.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn partition_count(&self, topic: &str) -> Result<u32, StreamError> {
        Ok(self.topic(topic)?.partition_count())
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
            records += p.len();
            bytes += p.payload_bytes();
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

fn unknown_partition(topic: &str, partition: PartitionId) -> StreamError {
    StreamError::UnknownPartition {
        topic: topic.to_string(),
        partition: partition.0,
    }
}

/// `Ok` if `r`'s payload fits a segment slot.
fn check_payload(r: &Record) -> Result<(), StreamError> {
    if r.payload.len() > MAX_PAYLOAD {
        return Err(StreamError::PayloadTooLarge(r.payload.len()));
    }
    Ok(())
}

/// A consumer group: owns committed offsets per (topic, partition) and
/// assigns partitions to members round-robin.
///
/// The group's committed offsets are the positions of a reader it
/// registers on each topic at its first commit there. It holds a position
/// in a partition from its first commit to that partition on, so the
/// topic releases only the sealed segments the group has committed past,
/// and a partition it never committed holds back nothing. Dropping the
/// group unregisters it.
#[derive(Debug)]
pub struct ConsumerGroup {
    name: String,
    broker: Broker,
    /// The group's reader on each topic it committed on.
    committed: Mutex<HashMap<String, Reader>>,
    members: Mutex<Vec<String>>,
    obs: Mutex<Option<GroupObs>>,
}

/// Moves the committed offset of (`topic`, `partition`) in `readers`
/// forward to `next` (never back), registering the group on the topic at
/// its first commit there. A topic the broker does not know records
/// nothing.
fn commit(
    readers: &mut HashMap<String, Reader>,
    broker: &Broker,
    topic: &str,
    partition: u32,
    next: u64,
) {
    if !readers.contains_key(topic) {
        let Ok(t) = broker.topic(topic) else {
            return;
        };
        readers.insert(topic.to_string(), Reader::register(t, None));
    }
    if let Some(reader) = readers.get(topic) {
        reader.advance(partition, next);
    }
}

/// Observability wiring (see [`ConsumerGroup::instrument`]).
struct GroupObs {
    registry: Registry,
    parent: TraceContext,
    clock: Clock,
    /// The log and its interned `group/rebalance`, `group`, `member`
    /// and `members` symbols plus the group's own name.
    log: Option<(EventLog, [SymId; 5])>,
    /// Unlimited: membership changes are rare lifecycle events.
    site: LogSite,
}

impl std::fmt::Debug for GroupObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupObs")
            .field("parent", &self.parent)
            .finish_non_exhaustive()
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
            obs: Mutex::new(None),
        }
    }

    /// Reports this group through `obs`: every subsequent
    /// [`ConsumerGroup::lag`] call publishes its result to the gauge
    /// `consumer_lag_records{group, topic}` in `obs.registry`, and, when
    /// `obs.log` is set, every membership change that forces a rebalance
    /// is recorded at INFO under `obs.parent` (`group/rebalance`, with
    /// the member and the resulting member count), timestamped from
    /// `clock`.
    pub fn instrument(&self, obs: &Obs, clock: &Clock) {
        let log = obs.log.as_ref().map(|log| {
            let syms = ["group/rebalance", "group", "member", "members", &self.name];
            (log.clone(), syms.map(|s| log.intern(s)))
        });
        *self.obs.lock() = Some(GroupObs {
            registry: obs.registry.clone(),
            parent: obs.parent,
            clock: Arc::clone(clock),
            log,
            site: LogSite::unlimited(),
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
        if let Some(g) = self.obs.lock().as_ref() {
            if let Some((log, [msg, key_group, key_member, key_members, group])) = &g.log {
                log.record(
                    &g.site,
                    Level::Info,
                    g.parent.child_named(member),
                    *msg,
                    g.clock.now_micros(),
                    &[
                        (*key_group, Value::Sym(*group)),
                        (*key_member, Value::Sym(log.intern(member))),
                        (*key_members, Value::U64(members.len() as u64)),
                    ],
                );
            }
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
    /// which would re-deliver already-processed records. A commit that
    /// carries the group past a segment boundary may release segments.
    pub fn commit(&self, topic: &str, partition: PartitionId, next_offset: u64) {
        commit(
            &mut self.committed.lock(),
            &self.broker,
            topic,
            partition.0,
            next_offset,
        );
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
        commit(
            &mut committed,
            &self.broker,
            topic,
            partition.0,
            next_offset,
        );
    }

    /// The committed next-offset for a partition (0 if never committed).
    pub fn committed_offset(&self, topic: &str, partition: PartitionId) -> u64 {
        self.committed
            .lock()
            .get(topic)
            .and_then(|reader| reader.position(partition.0))
            .unwrap_or(0)
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
        if let Some(g) = self.obs.lock().as_ref() {
            g.registry
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
    use augur_telemetry::log::FieldValue;

    fn rec(key: u64, t: u64) -> Record {
        Record::new(key, format!("v{key}").into_bytes(), t)
    }

    #[test]
    fn group_joins_log_rebalance_decisions() {
        use augur_telemetry::ManualTime;
        let broker = Broker::new();
        broker.create_topic("t", 1).unwrap();
        broker.append("t", rec(1, 0)).unwrap();
        let group = ConsumerGroup::new("g", broker);
        let log = EventLog::new(16);
        let ctx = TraceContext::root(3, 1);
        let clock: Clock = ManualTime::shared();
        let obs = Obs {
            parent: ctx,
            log: Some(log.clone()),
            ..Obs::default()
        };
        group.instrument(&obs, &clock);
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
            vec![Some(FieldValue::U64(1)), Some(FieldValue::U64(2))]
        );
        // The same handle carries the lag gauge's registry.
        assert_eq!(group.lag("t").unwrap(), 1);
        let gauges = obs.registry.snapshot().gauges;
        let lag = gauges.iter().find(|g| g.name == "consumer_lag_records");
        assert_eq!(lag.map(|g| g.value), Some(1.0));
    }

    /// Heap bytes `p` holds, by capacity.
    fn heap_bytes(p: &Partition) -> usize {
        let segment = |s: &Segment| {
            s.index.capacity() * std::mem::size_of::<Entry>()
                + s.payload.capacity()
                + s.traces.capacity() * std::mem::size_of::<Option<TraceContext>>()
        };
        p.sealed.capacity() * std::mem::size_of::<Segment>()
            + p.sealed.iter().chain([&p.head]).map(segment).sum::<usize>()
    }

    #[test]
    fn partitions_keep_45_bytes_per_small_record() {
        assert_eq!(std::mem::size_of::<Entry>(), 24);
        // A 21-byte payload (a vitals sample) plus its index entry.
        const PER_RECORD: usize = 21 + 24;
        for n in [
            1,
            100,
            SEGMENT_SLOTS,
            SEGMENT_SLOTS + 1,
            10 * SEGMENT_SLOTS + 123,
        ] {
            let mut p = Partition::default();
            for i in 0..n as u64 {
                p.push(&Record::new(i, vec![i as u8; 21], i));
            }
            assert_eq!(p.len(), n as u64);
            let held = heap_bytes(&p);
            assert!(
                held <= (n + SEGMENT_SLOTS) * PER_RECORD,
                "{n} records hold {held} bytes"
            );
        }
    }

    #[test]
    fn partitions_tailed_by_a_reader_hold_one_sealed_segment_and_the_head() {
        const PER_RECORD: usize = 21 + 24;
        // One trimmed sealed segment, plus a head whose payload buffer may
        // have grown to twice what it holds, plus the deque's slots.
        const BOUND: usize =
            SEGMENT_SLOTS * (PER_RECORD + 24 + 2 * 21) + 4 * std::mem::size_of::<Segment>();
        let b = Broker::new();
        b.create_topic("t", 1).unwrap();
        let topic = b.topic("t").unwrap();
        let reader = Reader::register(Arc::clone(&topic), Some(0));
        let n = 10 * SEGMENT_SLOTS as u64 + 123;
        let mut next = 0;
        for i in 0..n {
            b.append("t", Record::new(i, vec![i as u8; 21], i)).unwrap();
            // The reader tails in batches of up to 256, every 100 appends.
            if i % 100 == 99 {
                next = topic.visit(0, next, 256, u64::MAX, |_, _| {}).unwrap();
                reader.advance(0, next);
            }
            let p = topic.partitions[0].read();
            assert!(p.sealed.len() <= 1, "{} sealed after {i}", p.sealed.len());
            let held = heap_bytes(&p);
            assert!(held <= BOUND, "{held} bytes held after {i}");
        }
        let (start, end) = topic.bounds(0).unwrap();
        assert_eq!(end, n);
        assert_eq!(start, 10 * SEGMENT_SLOTS as u64);
        // Once the reader is gone, the topic keeps everything.
        drop(reader);
        b.append_batch("t", (0..2 * SEGMENT_SLOTS as u64).map(|i| rec(i, i)))
            .unwrap();
        assert_eq!(topic.bounds(0).unwrap().0, start);
    }

    #[test]
    fn oversized_payloads_are_rejected() {
        let b = Broker::new();
        b.create_topic("t", 2).unwrap();
        let big = || Record::new(3, vec![0u8; MAX_PAYLOAD + 1], 0);
        assert_eq!(
            b.append("t", big()),
            Err(StreamError::PayloadTooLarge(MAX_PAYLOAD + 1))
        );
        assert_eq!(b.stats("t").unwrap().records, 0);
        // A batch stops at the oversized record.
        let batch = vec![rec(1, 0), big(), rec(2, 0)];
        assert!(b.append_batch("t", batch).is_err());
        assert_eq!(b.stats("t").unwrap().records, 1);
        b.append("t", Record::new(3, vec![7u8; MAX_PAYLOAD], 0))
            .unwrap();
        assert_eq!(b.stats("t").unwrap().bytes, 2 + MAX_PAYLOAD as u64);
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
