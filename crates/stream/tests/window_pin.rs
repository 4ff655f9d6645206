//! Pins `WindowedAggregator`'s observable behaviour by digest: the
//! `Debug` text of a snapshot taken mid-run and of every result emitted,
//! for fixed tumbling, sliding and session runs over several keys with
//! out-of-order event times and a late record. The aggregation keeps
//! every value in fold order, so the digests also pin which records each
//! window folded and in what order sessions merged. The constants never
//! change in a refactor.

#![allow(clippy::unwrap_used)] // integration tests: a panic here IS the test failure

use augur_stream::window::Aggregation;
use augur_stream::{
    BoundedOutOfOrderness, SessionWindows, SlidingWindows, TumblingWindows, WatermarkGenerator,
    WindowAssigner, WindowedAggregator,
};

/// 64-bit FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Keeps every value in fold order.
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

/// 600 records over 6 keys: event times advance about 37 µs a record
/// and stray up to ~1.5 ms behind, so the watermark (bound 800 µs)
/// drops some of them. After record 300 a record 40 ms in the past is
/// offered, which is late for every assigner.
fn events() -> Vec<(u64, u64, u64)> {
    let mut s = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..600u64)
        .map(|i| {
            let r = next();
            let back = if r % 5 == 0 { (r >> 8) % 1_500 } else { 0 };
            let t = (10_000 + i * 37 + (r >> 20) % 60).saturating_sub(back);
            (r % 6, t, i)
        })
        .collect()
}

/// Runs the events through a watermarked aggregator. Returns the digest
/// of the snapshot taken after record 300 (with the live-window and
/// late counts at that point) and the digest of every emitted result.
/// The second half runs on a fresh aggregator restored from that
/// snapshot.
fn run<W: WindowAssigner + Copy>(assigner: W) -> (u64, u64) {
    let mut agg = WindowedAggregator::new(assigner, Values);
    let mut wm = BoundedOutOfOrderness::new(800);
    let mut emitted = Vec::new();
    let mut snap_text = String::new();
    for (i, (key, t, v)) in events().into_iter().enumerate() {
        if i == 300 {
            let snap = agg.snapshot();
            snap_text = format!(
                "{snap:?} live={} late={}",
                agg.live_windows(),
                agg.late_dropped()
            );
            agg = WindowedAggregator::new(assigner, Values);
            agg.restore(snap);
            assert!(!agg.offer(2, t.saturating_sub(40_000), &9_999));
        }
        if wm.observe(t).is_some() {
            emitted.extend(agg.advance(wm.current()));
        }
        agg.offer(key, t, &v);
    }
    emitted.extend(agg.flush());
    let results_text = format!("{emitted:?} late={}", agg.late_dropped());
    (fnv1a(snap_text.as_bytes()), fnv1a(results_text.as_bytes()))
}

#[test]
fn tumbling_runs_are_pinned() {
    let (snap, results) = run(TumblingWindows::new(1_000));
    assert_eq!(
        (snap, results),
        (0x79f7_404c_79f6_8b44, 0xb143_d8c0_f13a_0347),
        "tumbling digests ({snap:#018x}, {results:#018x})"
    );
}

#[test]
fn sliding_runs_are_pinned() {
    let (snap, results) = run(SlidingWindows::new(1_000, 250));
    assert_eq!(
        (snap, results),
        (0x0a75_0d3a_43fb_f89a, 0xae9e_22b1_01c1_757e),
        "sliding digests ({snap:#018x}, {results:#018x})"
    );
}

#[test]
fn session_runs_are_pinned() {
    let (snap, results) = run(SessionWindows::new(300));
    assert_eq!(
        (snap, results),
        (0xb073_1b2a_6b6a_ab70, 0x54f3_8239_b6cf_87b2),
        "session digests ({snap:#018x}, {results:#018x})"
    );
}
