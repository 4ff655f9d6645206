//! Property-based tests for the stream substrate.

#![allow(clippy::unwrap_used)] // integration tests: a panic here IS the test failure

use augur_stream::broker::SEGMENT_SLOTS;
use augur_stream::window::{Aggregation, CountAggregation};
use augur_stream::{
    BoundedOutOfOrderness, Broker, ConsumerGroup, Offset, PartitionId, PolledRecord, Record,
    SessionWindows, SlidingWindows, TumblingWindows, Watermark, WatermarkGenerator, WindowAssigner,
    WindowResult, WindowedAggregator,
};
use augur_telemetry::{mix64, TraceContext};
use proptest::prelude::*;

/// Keeps every value in fold order, so a result pins which records a
/// window folded and in what order sessions merged.
struct Values;

impl Aggregation<u64> for Values {
    type Acc = Vec<u64>;
    fn init(&self) -> Vec<u64> {
        Vec::new()
    }
    fn fold(&self, acc: &mut Vec<u64>, item: &u64) {
        acc.push(*item);
    }
    fn merge(&self, mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
        a.extend(b);
        a
    }
}

/// A window as `((end, key, start), values)`, the order results fire in.
type Pane = ((u64, u64, u64), Vec<u64>);

fn panes(results: Vec<WindowResult<Vec<u64>>>) -> Vec<Pane> {
    results
        .into_iter()
        .map(|r| ((r.window.end_us, r.key, r.window.start_us), r.value))
        .collect()
}

/// How the naive model assigns windows.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Panes of `size` every `slide` (tumbling when they are equal).
    Panes { size: u64, slide: u64 },
    /// Sessions closing after `gap` of inactivity.
    Sessions { gap: u64 },
}

/// The aggregator's contract as a plain list of open windows: a record
/// is late when every window it belongs to ends at or before the
/// watermark; otherwise it is folded into each of its windows that is
/// still open. A session record opens `[t, t + gap)` and absorbs, by
/// brute force until nothing changes, every open session of its key
/// that overlaps or touches it, its own value first and then theirs in
/// start order. An advance fires every window ending at or before the
/// new watermark, sorted by (end, key, start).
struct Model {
    shape: Shape,
    open: Vec<Pane>,
    watermark: u64,
    late: u64,
}

impl Model {
    fn offer(&mut self, key: u64, t: u64, v: u64) -> bool {
        match self.shape {
            Shape::Panes { size, slide } => {
                let starts: Vec<u64> = (0..=t)
                    .step_by(slide as usize)
                    .filter(|s| s + size > t)
                    .collect();
                if starts.iter().all(|s| s + size <= self.watermark) {
                    self.late += 1;
                    return false;
                }
                for s in starts.into_iter().filter(|s| s + size > self.watermark) {
                    let id = (s + size, key, s);
                    match self.open.iter_mut().find(|(p, _)| *p == id) {
                        Some((_, values)) => values.push(v),
                        None => self.open.push((id, vec![v])),
                    }
                }
            }
            Shape::Sessions { gap } => {
                if t + gap <= self.watermark {
                    self.late += 1;
                    return false;
                }
                let (mut start, mut end) = (t, t + gap);
                let mut absorbed: Vec<Pane> = Vec::new();
                while let Some(i) = self
                    .open
                    .iter()
                    .position(|((e, k, s), _)| *k == key && *s <= end && start <= *e)
                {
                    let pane = self.open.swap_remove(i);
                    let (e, _, s) = pane.0;
                    start = start.min(s);
                    end = end.max(e);
                    absorbed.push(pane);
                }
                absorbed.sort_by_key(|((_, _, s), _)| *s);
                let mut values = vec![v];
                values.extend(absorbed.into_iter().flat_map(|(_, vs)| vs));
                self.open.push(((end, key, start), values));
            }
        }
        true
    }

    fn fire(&mut self, upto: u64) -> Vec<Pane> {
        let (mut fired, open): (Vec<Pane>, Vec<Pane>) = self
            .open
            .drain(..)
            .partition(|((end, _, _), _)| *end <= upto);
        self.open = open;
        fired.sort_by_key(|(id, _)| *id);
        fired
    }

    fn advance(&mut self, watermark: u64) -> Vec<Pane> {
        if watermark <= self.watermark {
            return Vec::new();
        }
        self.watermark = watermark;
        self.fire(watermark)
    }
}

/// One step driven into both the aggregator and the model.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Offer a record of `key` at event time `t`.
    Offer { key: u64, t: u64 },
    /// Advance the watermark to `to`.
    Advance { to: u64 },
    /// Snapshot the aggregator and continue on a fresh one restored
    /// from that snapshot.
    Restore,
}

/// Random interleavings over `keys` keys: event times drift forward
/// about 40 µs a step and stray up to 1.5 ms either way, and watermarks
/// trail the drift by up to 1 ms, so records run late and windows fire
/// mid-stream.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    (
        1u64..=6,
        prop::collection::vec((0u8..12, 0u64..6, 0u64..3_000), 0..250),
    )
        .prop_map(|(keys, raw)| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (kind, key, jitter))| {
                    let base = 1_500 + i as u64 * 40;
                    match kind {
                        0..=7 => Op::Offer {
                            key: key % keys,
                            t: base + jitter - 1_500,
                        },
                        8..=10 => Op::Advance {
                            to: base.saturating_sub(jitter / 3),
                        },
                        _ => Op::Restore,
                    }
                })
                .collect()
        })
}

/// Drives `ops` into a fresh aggregator and the model, comparing the
/// emitted windows, the late count and the live-window count after each
/// step and the flushed remainder at the end.
fn check_against_model<W: WindowAssigner + Copy>(assigner: W, shape: Shape, ops: &[Op]) {
    let mut agg = WindowedAggregator::new(assigner, Values);
    let mut model = Model {
        shape,
        open: Vec::new(),
        watermark: 0,
        late: 0,
    };
    for (v, &op) in (0u64..).zip(ops) {
        match op {
            Op::Offer { key, t } => {
                prop_assert_eq!(agg.offer(key, t, &v), model.offer(key, t, v), "{:?}", op);
            }
            Op::Advance { to } => {
                prop_assert_eq!(
                    panes(agg.advance(Watermark(to))),
                    model.advance(to),
                    "{:?}",
                    op
                );
            }
            Op::Restore => {
                let snap = agg.snapshot();
                agg = WindowedAggregator::new(assigner, Values);
                agg.restore(snap);
            }
        }
        prop_assert_eq!(agg.late_dropped(), model.late);
        prop_assert_eq!(agg.live_windows(), model.open.len());
    }
    prop_assert_eq!(panes(agg.flush()), model.fire(u64::MAX));
    prop_assert_eq!(agg.live_windows(), 0);
}

/// One step against the broker and its model.
#[derive(Debug, Clone, Copy)]
enum BrokerOp {
    /// Append the record made from `seed`.
    Append { seed: u64 },
    /// Append `n` records made from `seed`, `seed + 1`, ... in one batch.
    AppendBatch { seed: u64, n: usize },
    /// `Broker::poll(partition, from, max)`.
    Poll {
        partition: u32,
        from: u64,
        max: usize,
    },
    /// `end_offset` of every partition, then `stats`.
    Ends,
    /// A consumer group member joins.
    Join { member: u8 },
    /// A member polls a partition from the committed offset.
    GroupPoll {
        member: u8,
        partition: u32,
        max: usize,
    },
    /// Commit `next` for a partition.
    Commit { partition: u32, next: u64 },
    /// The group's total lag.
    Lag,
    /// A tailing reader (a second group, started if none runs) polls a
    /// partition from its committed offset and commits past what it got.
    Tail { partition: u32, max: usize },
    /// The tailing reader stops: its group is dropped.
    StopTail,
}

/// The record a seed stands for: one of 16 keys, a payload of 0..=64
/// bytes (both sides of the inline cap), and a trace context on one
/// record in four.
fn seeded_record(seed: u64) -> Record {
    let h = mix64(seed);
    let len = (h % 65) as usize;
    let payload: Vec<u8> = (0..len)
        .map(|i| (h >> (i % 8 * 8)) as u8 ^ i as u8)
        .collect();
    let r = Record::new(h >> 60, payload, h >> 20);
    if (h >> 8).is_multiple_of(4) {
        r.with_trace(TraceContext::root(seed, h))
    } else {
        r
    }
}

/// Random interleavings of broker, consumer-group and tailing-reader
/// calls. Batches run up to one and a half segments, so a case's
/// partitions cross segment boundaries and its readers release segments;
/// reads start anywhere up to two segments in.
fn broker_ops() -> impl Strategy<Value = Vec<BrokerOp>> {
    let slots = SEGMENT_SLOTS as u64;
    prop::collection::vec((0u8..23, any::<u64>(), 0u64..2 * slots, 0u32..4), 0..60).prop_map(
        move |raw| {
            raw.into_iter()
                .map(|(kind, seed, n, partition)| match kind {
                    0..=5 => BrokerOp::Append { seed },
                    6..=8 => BrokerOp::AppendBatch {
                        seed,
                        n: (n * 3 / 4) as usize,
                    },
                    9..=11 => BrokerOp::Poll {
                        partition,
                        from: seed % (2 * slots),
                        max: n as usize,
                    },
                    12 => BrokerOp::Ends,
                    13 => BrokerOp::Join {
                        member: (seed % 3) as u8,
                    },
                    14..=16 => BrokerOp::GroupPoll {
                        member: (seed % 3) as u8,
                        partition,
                        max: n as usize,
                    },
                    17..=18 => BrokerOp::Commit {
                        partition,
                        next: seed % (2 * slots),
                    },
                    19 => BrokerOp::Lag,
                    20..=21 => BrokerOp::Tail {
                        partition,
                        max: n as usize,
                    },
                    _ => BrokerOp::StopTail,
                })
                .collect()
        },
    )
}

/// The broker's contract as plain vectors: each partition a
/// `Vec<Record>` of every record ever appended, whose index is the
/// offset, and its log start; the group as its member list (partition
/// `p` belongs to member `p % len`) and committed offsets that only move
/// forward; and the tailing reader's committed offsets while it runs.
///
/// Retention: a group holds a position in a partition from its first
/// commit there, at its committed offset (`None` before). When a
/// reader's position crosses a segment boundary, every full segment
/// below the slowest position held in that partition is released.
struct BrokerModel {
    partitions: Vec<Vec<Record>>,
    starts: Vec<u64>,
    members: Vec<String>,
    committed: Vec<Option<u64>>,
    /// The tailing reader's committed offsets, while it runs.
    tail: Option<Vec<Option<u64>>>,
}

impl BrokerModel {
    fn poll(&self, partition: u32, from: u64, max: usize) -> Vec<PolledRecord> {
        let log = &self.partitions[partition as usize];
        let start = (from.max(self.starts[partition as usize]) as usize).min(log.len());
        let end = start.saturating_add(max).min(log.len());
        (start..end)
            .map(|i| PolledRecord {
                offset: Offset(i as u64),
                record: log[i].clone(),
            })
            .collect()
    }

    fn owns(&self, member: &str, partition: u32) -> bool {
        self.members
            .iter()
            .position(|m| m == member)
            .is_some_and(|i| partition as usize % self.members.len() == i)
    }

    /// The slowest position a reader holds in `partition`, if any does.
    fn slowest(&self, partition: usize) -> Option<u64> {
        let tail = self.tail.as_ref().and_then(|c| c[partition]);
        self.committed[partition].into_iter().chain(tail).min()
    }

    /// A registered reader moved from `before` to `after` in `partition`.
    fn advanced(&mut self, partition: usize, before: u64, after: u64) {
        let slots = SEGMENT_SLOTS as u64;
        if after / slots > before / slots {
            let slowest = self.slowest(partition).unwrap();
            let held_to = slowest.min(self.partitions[partition].len() as u64);
            let start = &mut self.starts[partition];
            *start = (*start).max(held_to / slots * slots);
        }
    }

    /// Payload bytes at or above the log starts.
    fn held_bytes(&self) -> u64 {
        self.partitions
            .iter()
            .zip(&self.starts)
            .flat_map(|(log, &start)| &log[start as usize..])
            .map(|r| r.payload.len() as u64)
            .sum()
    }
}

/// Runs `ops` against a fresh broker with a consumer group and a tailing
/// reader, and against the model, comparing every result. After every op
/// it checks the retention invariants: the log start matches the model,
/// never moves back, and never passes the slowest registered reader; end
/// offsets and `records` never move back; `bytes` is the held payload.
/// Returns the final log starts.
fn check_broker_against_model(partitions: u32, ops: &[BrokerOp]) -> Vec<u64> {
    let broker = Broker::new();
    broker.create_topic("t", partitions).unwrap();
    let group = ConsumerGroup::new("g", broker.clone());
    let mut tail: Option<ConsumerGroup> = None;
    let mut model = BrokerModel {
        partitions: vec![Vec::new(); partitions as usize],
        starts: vec![0; partitions as usize],
        members: Vec::new(),
        committed: vec![None; partitions as usize],
        tail: None,
    };
    let push = |model: &mut BrokerModel, r: Record| {
        let p = broker.partition_for("t", r.key).unwrap();
        model.partitions[p.0 as usize].push(r);
    };
    let mut last_ends = vec![0u64; partitions as usize];
    let mut last_starts = vec![0u64; partitions as usize];
    let mut last_records = 0u64;
    for &op in ops {
        match op {
            BrokerOp::Append { seed } => {
                let r = seeded_record(seed);
                let p = broker.partition_for("t", r.key).unwrap();
                let end = model.partitions[p.0 as usize].len() as u64;
                prop_assert_eq!(broker.append("t", r.clone()).unwrap(), (p, Offset(end)));
                push(&mut model, r);
            }
            BrokerOp::AppendBatch { seed, n } => {
                let records: Vec<Record> = (0..n as u64)
                    .map(|i| seeded_record(seed.wrapping_add(i)))
                    .collect();
                prop_assert_eq!(broker.append_batch("t", records.clone()).unwrap(), n);
                for r in records {
                    push(&mut model, r);
                }
            }
            BrokerOp::Poll {
                partition,
                from,
                max,
            } => {
                let got = broker.poll("t", PartitionId(partition), from, max);
                if partition < partitions {
                    prop_assert_eq!(got.unwrap(), model.poll(partition, from, max), "{:?}", op);
                } else {
                    prop_assert!(got.is_err());
                }
            }
            BrokerOp::Ends => {
                for (p, log) in (0..).zip(&model.partitions) {
                    prop_assert_eq!(
                        broker.end_offset("t", PartitionId(p)).unwrap(),
                        log.len() as u64
                    );
                }
                let stats = broker.stats("t").unwrap();
                let all = model.partitions.iter().flatten();
                prop_assert_eq!(stats.records, all.count() as u64);
                prop_assert_eq!(stats.bytes, model.held_bytes());
            }
            BrokerOp::Join { member } => {
                let name = format!("m{member}");
                let id = group.join(&name);
                if !model.members.contains(&name) {
                    model.members.push(name.clone());
                }
                prop_assert_eq!(model.members[id].as_str(), name.as_str());
            }
            BrokerOp::GroupPoll {
                member,
                partition,
                max,
            } => {
                let name = format!("m{member}");
                let got = group.poll("t", &name, PartitionId(partition), max);
                if partition < partitions && model.owns(&name, partition) {
                    let from = model.committed[partition as usize].unwrap_or(0);
                    prop_assert_eq!(got.unwrap(), model.poll(partition, from, max), "{:?}", op);
                } else {
                    prop_assert!(got.is_err(), "{:?}", op);
                }
            }
            BrokerOp::Commit { partition, next } => {
                let partition = partition % partitions;
                group.commit("t", PartitionId(partition), next);
                let p = partition as usize;
                let before = model.committed[p].unwrap_or(0);
                let after = before.max(next);
                model.committed[p] = Some(after);
                prop_assert_eq!(group.committed_offset("t", PartitionId(partition)), after);
                model.advanced(p, before, after);
            }
            BrokerOp::Lag => {
                let lag: u64 = model
                    .partitions
                    .iter()
                    .zip(&model.committed)
                    .map(|(log, &c)| (log.len() as u64).saturating_sub(c.unwrap_or(0)))
                    .sum();
                prop_assert_eq!(group.lag("t").unwrap(), lag);
            }
            BrokerOp::Tail { partition, max } => {
                let partition = partition % partitions;
                let p = partition as usize;
                let reader = tail.get_or_insert_with(|| {
                    let g = ConsumerGroup::new("tail", broker.clone());
                    g.join("tail");
                    g
                });
                let committed = model
                    .tail
                    .get_or_insert_with(|| vec![None; partitions as usize]);
                let from = committed[p].unwrap_or(0);
                let got = reader
                    .poll("t", "tail", PartitionId(partition), max)
                    .unwrap();
                prop_assert_eq!(&got, &model.poll(partition, from, max), "{:?}", op);
                if let Some(last) = got.last() {
                    let next = last.offset.0 + 1;
                    reader.commit("t", PartitionId(partition), next);
                    if let Some(committed) = &mut model.tail {
                        committed[p] = Some(next);
                    }
                    model.advanced(p, from, next);
                }
            }
            BrokerOp::StopTail => {
                tail = None;
                model.tail = None;
            }
        }
        let stats = broker.stats("t").unwrap();
        prop_assert!(stats.records >= last_records, "{:?}", op);
        last_records = stats.records;
        prop_assert_eq!(stats.bytes, model.held_bytes(), "{:?}", op);
        for p in 0..partitions {
            let (i, pid) = (p as usize, PartitionId(p));
            let start = broker.start_offset("t", pid).unwrap();
            prop_assert_eq!(start, model.starts[i], "{:?}", op);
            prop_assert!(start >= last_starts[i], "{:?}", op);
            // What this op released lies below every registered reader. A
            // reader registered after a release sits below the start and
            // reads from it.
            if let Some(slowest) = model.slowest(i) {
                prop_assert!(
                    start <= slowest.max(last_starts[i]),
                    "{:?}: released a record at {}",
                    op,
                    slowest
                );
            }
            last_starts[i] = start;
            let end = broker.end_offset("t", pid).unwrap();
            prop_assert!(end >= last_ends[i] && end >= start, "{:?}", op);
            last_ends[i] = end;
            // A poll from below the log start begins at the start.
            let first = broker.poll("t", pid, 0, 1).unwrap();
            prop_assert_eq!(
                first.first().map(|r| r.offset.0),
                (start < end).then_some(start)
            );
        }
    }
    model.starts
}

/// A group that commits one partition holds back release there only: the
/// tailing reader's progress still releases segments in the partition the
/// group never committed.
#[test]
fn a_group_holds_back_only_the_partitions_it_committed() {
    let slots = SEGMENT_SLOTS as u64;
    let ops = [
        BrokerOp::AppendBatch {
            seed: 1,
            n: 3 * SEGMENT_SLOTS,
        },
        BrokerOp::Commit {
            partition: 0,
            next: 5,
        },
        BrokerOp::Tail {
            partition: 0,
            max: 2 * SEGMENT_SLOTS,
        },
        BrokerOp::Tail {
            partition: 1,
            max: 2 * SEGMENT_SLOTS,
        },
        BrokerOp::Ends,
    ];
    assert_eq!(check_broker_against_model(2, &ops), vec![0, slots]);
}

proptest! {
    #[test]
    fn broker_and_group_match_the_model(ops in broker_ops(), partitions in 1u32..4) {
        check_broker_against_model(partitions, &ops);
    }

    #[test]
    fn broker_preserves_per_key_order(
        keys in prop::collection::vec(0u64..8, 1..300),
        partitions in 1u32..8,
    ) {
        let broker = Broker::new();
        broker.create_topic("t", partitions).unwrap();
        for (seq, &k) in keys.iter().enumerate() {
            broker
                .append("t", Record::new(k, (seq as u64).to_le_bytes().to_vec(), seq as u64))
                .unwrap();
        }
        // For every key: the sequence numbers read back from its
        // partition, filtered to that key, must be increasing.
        for k in 0..8u64 {
            let pid = broker.partition_for("t", k).unwrap();
            let polled = broker.poll("t", pid, 0, usize::MAX).unwrap();
            let seqs: Vec<u64> = polled
                .iter()
                .filter(|pr| pr.record.key == k)
                .map(|pr| u64::from_le_bytes(pr.record.payload.as_ref().try_into().unwrap()))
                .collect();
            for w in seqs.windows(2) {
                prop_assert!(w[1] > w[0]);
            }
        }
    }

    #[test]
    fn broker_total_records_conserved(
        counts in prop::collection::vec(0u64..40, 1..6),
        partitions in 1u32..16,
    ) {
        let broker = Broker::new();
        broker.create_topic("t", partitions).unwrap();
        let mut total = 0u64;
        for (round, &c) in counts.iter().enumerate() {
            broker
                .append_batch(
                    "t",
                    (0..c).map(|i| Record::new(i * 31 + round as u64, vec![1u8], i)),
                )
                .unwrap();
            total += c;
        }
        prop_assert_eq!(broker.stats("t").unwrap().records, total);
        let mut read = 0u64;
        for p in 0..partitions {
            read += broker.end_offset("t", PartitionId(p)).unwrap();
        }
        prop_assert_eq!(read, total);
    }

    #[test]
    fn watermark_is_monotone(times in prop::collection::vec(0u64..1_000_000, 1..200), bound in 0u64..10_000) {
        let mut wm = BoundedOutOfOrderness::new(bound);
        let mut prev = Watermark(0);
        for t in times {
            wm.observe(t);
            let cur = wm.current();
            prop_assert!(cur >= prev);
            prev = cur;
        }
    }

    #[test]
    fn tumbling_windows_partition_the_timeline(size in 1u64..10_000, t in 0u64..1_000_000) {
        let assigner = TumblingWindows::new(size);
        let mut windows = Vec::new();
        assigner.assign(t, &mut windows);
        prop_assert_eq!(windows.len(), 1);
        prop_assert!(windows[0].contains(t));
        prop_assert_eq!(windows[0].len_us(), size);
        prop_assert_eq!(windows[0].start_us % size, 0);
    }

    #[test]
    fn sliding_windows_all_contain_event(
        slide in 1u64..1_000,
        factor in 1u64..8,
        t in 0u64..100_000,
    ) {
        let size = slide * factor;
        let assigner = SlidingWindows::new(size, slide);
        let mut windows = Vec::new();
        assigner.assign(t, &mut windows);
        // Near the epoch there are no negative window starts, so fewer
        // than `factor` panes exist.
        let expected = factor.min(t / slide + 1);
        prop_assert_eq!(windows.len() as u64, expected);
        for w in &windows {
            prop_assert!(w.contains(t), "window {w} must contain {t}");
        }
    }

    #[test]
    fn windowed_count_conserves_events(
        events in prop::collection::vec((0u64..5, 0u64..100_000), 1..300),
        size in 1_000u64..20_000,
    ) {
        let mut agg = WindowedAggregator::new(TumblingWindows::new(size), CountAggregation);
        for &(k, t) in &events {
            prop_assert!(agg.offer(k, t, &()));
        }
        let fired = agg.flush();
        let total: u64 = fired.iter().map(|r| r.value).sum();
        prop_assert_eq!(total, events.len() as u64);
    }

    #[test]
    fn session_windows_conserve_events_and_respect_gap(
        times in prop::collection::vec(0u64..200_000, 1..150),
        gap in 100u64..20_000,
    ) {
        let mut agg = WindowedAggregator::new(SessionWindows::new(gap), CountAggregation);
        for &t in &times {
            agg.offer(1, t, &());
        }
        let fired = agg.flush();
        let total: u64 = fired.iter().map(|r| r.value).sum();
        prop_assert_eq!(total, times.len() as u64);
        // Sessions for one key never overlap and are separated by > gap
        // between end and next start.
        let mut windows: Vec<_> = fired.iter().map(|r| r.window).collect();
        windows.sort_by_key(|w| w.start_us);
        for pair in windows.windows(2) {
            prop_assert!(pair[1].start_us >= pair[0].end_us,
                "sessions overlap: {} then {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn late_plus_counted_equals_offered(
        times in prop::collection::vec(0u64..50_000, 1..200),
        advance_at in 10usize..100,
    ) {
        let mut agg = WindowedAggregator::new(TumblingWindows::new(1_000), CountAggregation);
        let mut counted = 0u64;
        for (i, &t) in times.iter().enumerate() {
            if i == advance_at.min(times.len() - 1) {
                agg.advance(Watermark(25_000));
            }
            if agg.offer(1, t, &()) {
                counted += 1;
            }
        }
        let emitted: u64 = agg.flush().iter().map(|r| r.value).sum();
        // Everything offered before the watermark already fired.
        let pre_fired: u64 = {
            // Events accepted before the advance with window end <= 25000.
            times
                .iter()
                .take(advance_at.min(times.len() - 1))
                .filter(|t| (**t / 1_000) * 1_000 + 1_000 <= 25_000)
                .count() as u64
        };
        prop_assert_eq!(emitted + pre_fired, counted);
        prop_assert_eq!(counted + agg.late_dropped(), times.len() as u64);
    }

    #[test]
    fn tumbling_aggregator_matches_the_model(ops in ops(), slots in 1u64..6) {
        let size = slots * 500;
        check_against_model(
            TumblingWindows::new(size),
            Shape::Panes { size, slide: size },
            &ops,
        );
    }

    #[test]
    fn sliding_aggregator_matches_the_model(ops in ops(), slots in 1u64..6, shift in 0u32..3) {
        let size = slots * 500;
        let slide = size >> shift;
        check_against_model(SlidingWindows::new(size, slide), Shape::Panes { size, slide }, &ops);
    }

    #[test]
    fn session_aggregator_matches_the_model(ops in ops(), gap in 50u64..1_500) {
        check_against_model(SessionWindows::new(gap), Shape::Sessions { gap }, &ops);
    }
}
