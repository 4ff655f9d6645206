//! Property-based tests for the stream substrate.

use augur_stream::window::CountAggregation;
use augur_stream::{
    BoundedOutOfOrderness, Broker, PartitionId, Record, SessionWindows, SlidingWindows,
    TumblingWindows, Watermark, WatermarkGenerator, WindowAssigner, WindowedAggregator,
};
use proptest::prelude::*;

proptest! {
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
}
