//! Observability self-cost accounting: what the instrumentation itself
//! costs, measured in the same deterministic currency as everything
//! else.
//!
//! Recording a flight span, bumping a histogram, appending a log record
//! — each has a calibrated per-op cost ([`ObsCostModel`]). A
//! [`SelfCost`] accountant turns the cumulative totals a watch session
//! already tracks (flight events, drops, log records, busy time) into
//! `augur_obs_*` counters plus the [`OBS_OVERHEAD_SHARE`] gauge:
//! estimated record-path time over busy time. The budget is
//! [`OBS_OVERHEAD_BUDGET`] (1%), graded by a `RatioBelow` SLO over
//! [`OBS_RECORD_NS_TOTAL`] / [`OBS_BUSY_NS_TOTAL`] and by the doctor
//! gate over the gauge. Everything stays deterministic: the costs are
//! model constants, not wall-clock measurements, so same-seed runs
//! produce byte-identical accounting.

use crate::flight::FlightEvent;
use crate::metric::{Counter, Gauge};
use crate::registry::Registry;

/// Counter: observability events admitted (flight events + log records).
pub const OBS_EVENTS_TOTAL: &str = "augur_obs_events_total";
/// Counter: observability events dropped (flight ring overwrites/tears).
pub const OBS_DROPPED_TOTAL: &str = "augur_obs_dropped_total";
/// Counter: estimated bytes retained by observability buffers.
pub const OBS_BYTES_TOTAL: &str = "augur_obs_bytes_total";
/// Counter: estimated record-path time spent in instrumentation, ns.
pub const OBS_RECORD_NS_TOTAL: &str = "augur_obs_record_ns_total";
/// Counter: busy (worked) time the instrumentation rode along with, ns.
pub const OBS_BUSY_NS_TOTAL: &str = "augur_obs_busy_ns_total";
/// Gauge: cumulative `record_ns / busy_ns` — the self-cost share.
pub const OBS_OVERHEAD_SHARE: &str = "obs_overhead_share";
/// The observability budget: instrumentation may cost at most 1% of
/// busy time.
pub const OBS_OVERHEAD_BUDGET: f64 = 0.01;

/// Estimated per-record log bytes (ring slot + interned strings share).
const LOG_RECORD_BYTES: u64 = 128;

/// Calibrated per-op instrumentation costs, in nanoseconds. The
/// defaults come from microbenching the wait-free record paths on the
/// reference container (an interned span record is a seqlock slot
/// write; a log append adds field encoding); they are model constants,
/// deliberately not re-measured at runtime, so accounting stays
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsCostModel {
    /// Cost of one flight-recorder span/instant record.
    pub flight_ns: u64,
    /// Cost of one structured log append.
    pub log_ns: u64,
}

impl ObsCostModel {
    /// The calibrated defaults.
    pub const CALIBRATED: ObsCostModel = ObsCostModel {
        flight_ns: 120,
        log_ns: 400,
    };

    /// This model with every cost multiplied by `factor` (saturating).
    pub fn scaled(self, factor: u64) -> ObsCostModel {
        ObsCostModel {
            flight_ns: self.flight_ns.saturating_mul(factor),
            log_ns: self.log_ns.saturating_mul(factor),
        }
    }
}

/// Running observability self-cost accountant; see the module docs.
///
/// Feed it cumulative totals via [`SelfCost::observe`] each tick; it
/// differences them internally (the delta-export pattern the watch
/// session uses for flight loss) and maintains the `augur_obs_*`
/// counters and the share gauge in the target registry.
#[derive(Debug)]
pub struct SelfCost {
    model: ObsCostModel,
    events: Counter,
    dropped: Counter,
    bytes: Counter,
    record_ns: Counter,
    busy_ns: Counter,
    share: Gauge,
    prev_flight: u64,
    prev_dropped: u64,
    prev_logs: u64,
    prev_busy_us: u64,
}

impl SelfCost {
    /// An accountant over `registry` pricing records with `model`.
    pub fn new(registry: &Registry, model: ObsCostModel) -> SelfCost {
        SelfCost {
            model,
            events: registry.counter(OBS_EVENTS_TOTAL),
            dropped: registry.counter(OBS_DROPPED_TOTAL),
            bytes: registry.counter(OBS_BYTES_TOTAL),
            record_ns: registry.counter(OBS_RECORD_NS_TOTAL),
            busy_ns: registry.counter(OBS_BUSY_NS_TOTAL),
            share: registry.gauge(OBS_OVERHEAD_SHARE),
            prev_flight: 0,
            prev_dropped: 0,
            prev_logs: 0,
            prev_busy_us: 0,
        }
    }

    /// The model in force.
    pub fn model(&self) -> ObsCostModel {
        self.model
    }

    /// Accounts one tick from **cumulative** totals: flight events
    /// recorded, flight events dropped, log records appended, and busy
    /// (worked) microseconds. Deltas against the previous call update
    /// the counters; the share gauge tracks the cumulative ratio.
    pub fn observe(
        &mut self,
        flight_events: u64,
        flight_dropped: u64,
        log_records: u64,
        busy_us: u64,
    ) {
        let ev = flight_events.saturating_sub(self.prev_flight);
        let dr = flight_dropped.saturating_sub(self.prev_dropped);
        let lg = log_records.saturating_sub(self.prev_logs);
        let busy = busy_us.saturating_sub(self.prev_busy_us);
        self.prev_flight = flight_events;
        self.prev_dropped = flight_dropped;
        self.prev_logs = log_records;
        self.prev_busy_us = busy_us;

        self.events.add(ev + lg);
        self.dropped.add(dr);
        self.bytes.add(
            ev.saturating_mul(std::mem::size_of::<FlightEvent>() as u64)
                + lg.saturating_mul(LOG_RECORD_BYTES),
        );
        self.record_ns
            .add(ev.saturating_mul(self.model.flight_ns) + lg.saturating_mul(self.model.log_ns));
        self.busy_ns.add(busy.saturating_mul(1_000));
        self.share.set(self.overhead_share());
    }

    /// The cumulative overhead share: estimated instrumentation time
    /// over busy time (0 before any busy time was observed).
    pub fn overhead_share(&self) -> f64 {
        let busy = self.busy_ns.get();
        if busy == 0 {
            0.0
        } else {
            self.record_ns.get() as f64 / busy as f64
        }
    }

    /// Whether the share is inside [`OBS_OVERHEAD_BUDGET`].
    pub fn within_budget(&self) -> bool {
        self.overhead_share() <= OBS_OVERHEAD_BUDGET
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_differences_cumulative_totals() {
        let reg = Registry::new();
        let mut sc = SelfCost::new(&reg, ObsCostModel::CALIBRATED);
        sc.observe(100, 2, 10, 1_000_000);
        sc.observe(150, 2, 15, 2_000_000);
        assert_eq!(reg.counter(OBS_EVENTS_TOTAL).get(), 150 + 15);
        assert_eq!(reg.counter(OBS_DROPPED_TOTAL).get(), 2);
        assert_eq!(reg.counter(OBS_RECORD_NS_TOTAL).get(), 150 * 120 + 15 * 400);
        assert_eq!(reg.counter(OBS_BUSY_NS_TOTAL).get(), 2_000_000_000);
        let share = reg.gauge(OBS_OVERHEAD_SHARE).get();
        assert!((share - sc.overhead_share()).abs() < 1e-15);
        assert!(sc.within_budget(), "2s of work, ~24us of obs: way inside");
        assert!(share > 0.0);
    }

    #[test]
    fn inflated_model_blows_the_budget() {
        let reg = Registry::new();
        let mut sc = SelfCost::new(&reg, ObsCostModel::CALIBRATED.scaled(200));
        // 1000 spans over 2ms busy: 1000*24000ns / 2_000_000ns = 12.
        sc.observe(1_000, 0, 0, 2_000);
        assert!(!sc.within_budget());
        assert!(sc.overhead_share() > OBS_OVERHEAD_BUDGET);
    }

    #[test]
    fn zero_busy_time_reads_zero_share() {
        let reg = Registry::new();
        let mut sc = SelfCost::new(&reg, ObsCostModel::CALIBRATED);
        sc.observe(10, 0, 0, 0);
        assert_eq!(sc.overhead_share(), 0.0);
        assert!(sc.within_budget());
    }

    #[test]
    fn bytes_account_flight_and_log_records() {
        let reg = Registry::new();
        let mut sc = SelfCost::new(&reg, ObsCostModel::CALIBRATED);
        sc.observe(3, 0, 2, 100);
        let expected = 3 * std::mem::size_of::<FlightEvent>() as u64 + 2 * 128;
        assert_eq!(reg.counter(OBS_BYTES_TOTAL).get(), expected);
    }
}
