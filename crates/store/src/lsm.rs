//! A log-structured merge key-value store.
//!
//! Writes land in a sorted memtable; when it exceeds the flush threshold
//! it becomes an immutable sorted run. Reads consult the memtable, then
//! runs newest-first. Compaction merges all runs, dropping shadowed
//! versions and tombstones. The shape — write-optimised ingest with
//! read amplification bounded by run count — is the same trade the
//! paper's data-hungry ingestion side makes.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use augur_telemetry::log::{EventLog, Level, LogSite, SymId, Value};
use augur_telemetry::{Clock, Counter, FlightRecorder, Histogram, NameId, Obs, TraceContext};
use bytes::Bytes;

use crate::error::StoreError;

/// Tuning for [`LsmStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsmParams {
    /// Memtable entry count that triggers a flush to a sorted run.
    pub memtable_flush_entries: usize,
    /// Run count that triggers automatic full compaction.
    pub compaction_trigger_runs: usize,
}

impl Default for LsmParams {
    fn default() -> Self {
        LsmParams {
            memtable_flush_entries: 4096,
            compaction_trigger_runs: 8,
        }
    }
}

/// Statistics snapshot of an [`LsmStore`].
///
/// A view over the store's telemetry counters plus its structural state;
/// when the store is [instrumented](LsmStore::instrument), the same
/// flush/compaction counts are visible through the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LsmStats {
    /// Entries currently in the memtable.
    pub memtable_entries: usize,
    /// Number of immutable sorted runs.
    pub runs: usize,
    /// Total entries across runs (including shadowed and tombstones).
    pub run_entries: usize,
    /// Flushes performed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
}

// A run entry: None = tombstone.
type RunEntry = (Bytes, Option<Bytes>);

/// The LSM store; see the module docs.
///
/// # Example
///
/// ```
/// use augur_store::LsmStore;
///
/// let mut db = LsmStore::new(Default::default());
/// db.put(b"user:1".as_ref(), b"alice".as_ref());
/// assert_eq!(db.get(b"user:1").as_deref(), Some(b"alice".as_ref()));
/// db.delete(b"user:1".as_ref());
/// assert_eq!(db.get(b"user:1"), None);
/// ```
#[derive(Debug)]
pub struct LsmStore {
    params: LsmParams,
    memtable: BTreeMap<Bytes, Option<Bytes>>,
    runs: Vec<Vec<RunEntry>>, // newest last; each sorted by key
    metrics: LsmMetrics,
    trace: Option<LsmTrace>,
}

/// Trace wiring (see [`LsmStore::instrument`]): each flush and
/// compaction becomes a causal span on the flight ring and an INFO
/// decision record on the event log, whichever the [`Obs`] carries.
#[derive(Clone)]
struct LsmTrace {
    clock: Clock,
    parent: TraceContext,
    /// The ring and its interned `[lsm/flush, lsm/compact]` span names.
    flight: Option<(FlightRecorder, [NameId; 2])>,
    /// The log and its interned [`LOG_SYMS`].
    log: Option<(EventLog, [SymId; 7])>,
    /// Unlimited: flushes and compactions are rare, deliberate decisions.
    site: Arc<LogSite>,
    /// Ordinal salting each op's span id so repeated flushes stay
    /// distinct (and deterministic) within one store's trace.
    ops: u64,
}

/// Message, field-key and trigger symbols the log records use.
const LOG_SYMS: [&str; 7] = [
    "lsm/flush",
    "lsm/compact",
    "entries",
    "runs",
    "trigger",
    "threshold",
    "forced",
];

impl std::fmt::Debug for LsmTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmTrace")
            .field("parent", &self.parent)
            .field("ops", &self.ops)
            .finish_non_exhaustive()
    }
}

/// Telemetry handles: detached atomics by default, swapped for
/// registry-registered families by [`LsmStore::instrument`].
#[derive(Debug)]
struct LsmMetrics {
    flushes: Counter,
    compactions: Counter,
    /// Sorted runs probed per [`LsmStore::get`] — the store's read
    /// amplification (0 = memtable hit).
    read_amp: Histogram,
}

impl LsmMetrics {
    fn detached() -> LsmMetrics {
        LsmMetrics {
            flushes: Counter::new(),
            compactions: Counter::new(),
            read_amp: Histogram::new(),
        }
    }
}

impl Clone for LsmStore {
    /// Clones the data; the clone gets its own metric cells seeded with
    /// the current flush/compaction counts (shared cells would make two
    /// independent stores double-count) and a fresh read-amplification
    /// histogram.
    fn clone(&self) -> Self {
        LsmStore {
            params: self.params,
            memtable: self.memtable.clone(),
            runs: self.runs.clone(),
            metrics: LsmMetrics {
                flushes: Counter::with_value(self.metrics.flushes.get()),
                compactions: Counter::with_value(self.metrics.compactions.get()),
                read_amp: Histogram::new(),
            },
            // The clone keeps recording to the same (shared) sinks; its op
            // ordinal carries over so span ids stay distinct.
            trace: self.trace.clone(),
        }
    }
}

impl Default for LsmStore {
    fn default() -> Self {
        Self::new(LsmParams::default())
    }
}

impl LsmStore {
    /// Creates an empty store.
    pub fn new(params: LsmParams) -> Self {
        LsmStore {
            params,
            memtable: BTreeMap::new(),
            runs: Vec::new(),
            metrics: LsmMetrics::detached(),
            trace: None,
        }
    }

    /// Reports this store through `obs`:
    ///
    /// - **registry**: the families `lsm_flushes_total`,
    ///   `lsm_compactions_total`, and `lsm_read_amplification`, all
    ///   labeled `{store=name}`. Counts accumulated so far carry over;
    ///   read-amplification history does not (histograms cannot be
    ///   seeded).
    /// - **flight**: flush and compaction work as causal spans under
    ///   `obs.parent`. `lsm/flush` spans carry a **modeled** duration of
    ///   one microsecond per entry written (the workspace's work-unit
    ///   convention), `lsm/compact` one per entry merged.
    /// - **log**: one INFO record per flush and compaction, carrying its
    ///   span's ids, saying what fired (`lsm/flush`, `lsm/compact`), how
    ///   much it moved (`entries`, `runs`), and **why**
    ///   (`trigger=threshold` when the memtable or run count crossed its
    ///   configured limit, `trigger=forced` for explicit calls).
    ///
    /// Spans and records are timestamped on `clock`; with a manual clock
    /// and a fixed workload they are bit-for-bit reproducible. The
    /// sampler and lanes are pipeline policies and do not apply here.
    pub fn instrument(&mut self, obs: &Obs, name: &str, clock: &Clock) {
        let registry = &obs.registry;
        let labels = [("store", name)];
        let flushes = registry.counter_labeled("lsm_flushes_total", &labels);
        flushes.add(self.metrics.flushes.get());
        let compactions = registry.counter_labeled("lsm_compactions_total", &labels);
        compactions.add(self.metrics.compactions.get());
        self.metrics = LsmMetrics {
            flushes,
            compactions,
            read_amp: registry.histogram_labeled("lsm_read_amplification", &labels),
        };
        let flight = obs.flight.as_ref().map(|rec| {
            let names = [rec.intern("lsm/flush"), rec.intern("lsm/compact")];
            (rec.clone(), names)
        });
        let log = obs
            .log
            .as_ref()
            .map(|log| (log.clone(), LOG_SYMS.map(|s| log.intern(s))));
        self.trace = (flight.is_some() || log.is_some()).then(|| LsmTrace {
            clock: clock.clone(),
            parent: obs.parent,
            flight,
            log,
            site: Arc::new(LogSite::unlimited()),
            ops: 0,
        });
    }

    /// Emits one flush/compaction span and decision record (a no-op
    /// unless [`LsmStore::instrument`] attached a flight ring or a log).
    fn trace_op(&mut self, compact: bool, entries: u64, runs: u64, forced: bool) {
        let Some(t) = &mut self.trace else {
            return;
        };
        let salt = if compact {
            0x636f_6d70u64 // "comp"
        } else {
            0x666c_7573u64 // "flus"
        };
        let ctx = t.parent.child(salt ^ (t.ops << 32));
        t.ops += 1;
        let now = t.clock.now_micros();
        if let Some((rec, [flush, compaction])) = &t.flight {
            let name = if compact { *compaction } else { *flush };
            rec.record_span(ctx, name, now, entries);
        }
        if let Some((
            log,
            [flush, compaction, key_entries, key_runs, key_trigger, threshold, forced_sym],
        )) = &t.log
        {
            log.record(
                &t.site,
                Level::Info,
                ctx,
                if compact { *compaction } else { *flush },
                now,
                &[
                    (*key_entries, Value::U64(entries)),
                    (*key_runs, Value::U64(runs)),
                    (
                        *key_trigger,
                        Value::Sym(if forced { *forced_sym } else { *threshold }),
                    ),
                ],
            );
        }
    }

    /// Inserts or overwrites a key.
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        self.memtable.insert(key.into(), Some(value.into()));
        self.maybe_flush();
    }

    /// Deletes a key (writes a tombstone).
    pub fn delete(&mut self, key: impl Into<Bytes>) {
        self.memtable.insert(key.into(), None);
        self.maybe_flush();
    }

    /// Looks a key up (memtable first, then runs newest-first), recording
    /// the number of runs probed into the read-amplification histogram.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        if let Some(v) = self.memtable.get(key) {
            self.metrics.read_amp.record(0);
            return v.clone();
        }
        let mut probed = 0u64;
        for run in self.runs.iter().rev() {
            probed += 1;
            if let Ok(i) = run.binary_search_by(|(k, _)| k.as_ref().cmp(key)) {
                self.metrics.read_amp.record(probed);
                return run[i].1.clone();
            }
        }
        self.metrics.read_amp.record(probed);
        None
    }

    /// Iterates live key-value pairs with keys in `[start, end)`, in key
    /// order, resolving shadowing across memtable and runs.
    pub fn scan(&self, start: &[u8], end: &[u8]) -> Vec<(Bytes, Bytes)> {
        // Merge all sources; newer sources win. Collect into a BTreeMap
        // applying oldest-first so newer overwrite.
        let mut merged: BTreeMap<Bytes, Option<Bytes>> = BTreeMap::new();
        for run in &self.runs {
            let from = run.partition_point(|(k, _)| k.as_ref() < start);
            for (k, v) in &run[from..] {
                if k.as_ref() >= end {
                    break;
                }
                merged.insert(k.clone(), v.clone());
            }
        }
        for (k, v) in self
            .memtable
            .range::<[u8], _>((Bound::Included(start), Bound::Excluded(end)))
        {
            merged.insert(k.clone(), v.clone());
        }
        merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect()
    }

    /// Number of live keys (linear; intended for tests and reports).
    pub fn len(&self) -> usize {
        // Merge every source, newest last, and count non-tombstones.
        let mut merged: BTreeMap<&[u8], bool> = BTreeMap::new();
        for run in &self.runs {
            for (k, v) in run {
                merged.insert(k.as_ref(), v.is_some());
            }
        }
        for (k, v) in &self.memtable {
            merged.insert(k.as_ref(), v.is_some());
        }
        merged.values().filter(|live| **live).count()
    }

    /// Whether the store holds no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forces the memtable out to a run.
    pub fn flush(&mut self) {
        self.flush_inner(true);
    }

    fn flush_inner(&mut self, forced: bool) {
        if self.memtable.is_empty() {
            return;
        }
        let run: Vec<RunEntry> = std::mem::take(&mut self.memtable).into_iter().collect();
        let entries = run.len() as u64;
        self.runs.push(run);
        self.metrics.flushes.inc();
        self.trace_op(false, entries, self.runs.len() as u64, forced);
        if self.runs.len() >= self.params.compaction_trigger_runs {
            self.compact_inner(false);
        }
    }

    fn maybe_flush(&mut self) {
        if self.memtable.len() >= self.params.memtable_flush_entries {
            self.flush_inner(false);
        }
    }

    /// Merges all runs into one, dropping shadowed versions and
    /// tombstones.
    pub fn compact(&mut self) {
        self.compact_inner(true);
    }

    fn compact_inner(&mut self, forced: bool) {
        if self.runs.len() <= 1 {
            return;
        }
        let runs_before = self.runs.len() as u64;
        let mut merged: BTreeMap<Bytes, Option<Bytes>> = BTreeMap::new();
        let mut merged_entries = 0u64;
        for run in self.runs.drain(..) {
            merged_entries += run.len() as u64;
            for (k, v) in run {
                merged.insert(k, v);
            }
        }
        let compacted: Vec<RunEntry> = merged.into_iter().filter(|(_, v)| v.is_some()).collect();
        if !compacted.is_empty() {
            self.runs.push(compacted);
        }
        self.metrics.compactions.inc();
        self.trace_op(true, merged_entries, runs_before, forced);
    }

    /// Statistics snapshot (a view over the telemetry counters).
    pub fn stats(&self) -> LsmStats {
        LsmStats {
            memtable_entries: self.memtable.len(),
            runs: self.runs.len(),
            run_entries: self.runs.iter().map(|r| r.len()).sum(),
            flushes: self.metrics.flushes.get(),
            compactions: self.metrics.compactions.get(),
        }
    }

    /// Read-amplification quantiles observed so far: the (p50, p99) of
    /// runs probed per `get` (0 means the memtable answered).
    pub fn read_amplification(&self) -> (u64, u64) {
        (
            self.metrics.read_amp.quantile(0.50),
            self.metrics.read_amp.quantile(0.99),
        )
    }

    /// Validates an `LsmParams` before use elsewhere.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidParameter`] if any threshold is zero.
    pub fn validate_params(params: &LsmParams) -> Result<(), StoreError> {
        if params.memtable_flush_entries == 0 {
            return Err(StoreError::InvalidParameter("memtable_flush_entries"));
        }
        if params.compaction_trigger_runs == 0 {
            return Err(StoreError::InvalidParameter("compaction_trigger_runs"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_telemetry::log::{FieldValue, LogRecord};

    fn small() -> LsmStore {
        LsmStore::new(LsmParams {
            memtable_flush_entries: 8,
            compaction_trigger_runs: 4,
        })
    }

    #[test]
    fn instrumented_store_emits_causal_flush_and_compact_spans() {
        use augur_telemetry::{FlightEventKind, ManualTime};
        use std::sync::Arc;

        let recorder = FlightRecorder::new(256);
        let clock: Clock = Arc::new(ManualTime::new());
        let parent = TraceContext::root(7, 0xDB);
        let mut db = LsmStore::new(LsmParams {
            memtable_flush_entries: 4,
            compaction_trigger_runs: 2,
        });
        let log = EventLog::new(64);
        let obs = Obs {
            parent,
            flight: Some(recorder.clone()),
            log: Some(log.clone()),
            ..Obs::default()
        };
        db.instrument(&obs, "traced", &clock);
        // 12 distinct keys through a 4-entry memtable: 3 flushes, and the
        // 2-run compaction trigger fires along the way.
        for i in 0..12u8 {
            db.put(vec![i], vec![i]);
        }
        let events = recorder.drain();
        assert_eq!(recorder.dropped_events(), 0);
        let flushes: Vec<_> = events.iter().filter(|e| e.name == "lsm/flush").collect();
        let compacts: Vec<_> = events.iter().filter(|e| e.name == "lsm/compact").collect();
        assert_eq!(flushes.len() as u64, db.stats().flushes);
        assert_eq!(compacts.len() as u64, db.stats().compactions);
        assert!(!flushes.is_empty() && !compacts.is_empty());
        let mut span_ids = std::collections::HashSet::new();
        for e in &events {
            assert_eq!(e.kind, FlightEventKind::Span);
            assert_eq!(e.trace_id, parent.trace_id, "same causal tree");
            assert_eq!(e.parent_span_id, parent.span_id, "child of store root");
            assert!(span_ids.insert(e.span_id), "span ids must be distinct");
        }
        for f in &flushes {
            assert_eq!(f.dur_us, 4, "modeled 1 us per flushed entry");
        }
        // Each decision record carries its span's ids.
        let spans: Vec<(u64, &str)> = events
            .iter()
            .map(|e| (e.span_id, e.name.as_str()))
            .collect();
        let records = log.drain();
        let logged: Vec<(u64, &str)> = records
            .iter()
            .map(|r| (r.span_id, r.msg.as_str()))
            .collect();
        assert_eq!(logged, spans);
    }

    #[test]
    fn log_records_carry_flush_and_compaction_rationale() {
        use augur_telemetry::ManualTime;
        use std::sync::Arc;

        let log = EventLog::new(64);
        let clock: Clock = Arc::new(ManualTime::new());
        let parent = TraceContext::root(7, 0xDB);
        let mut db = LsmStore::new(LsmParams {
            memtable_flush_entries: 4,
            compaction_trigger_runs: 2,
        });
        let obs = Obs {
            parent,
            log: Some(log.clone()),
            ..Obs::default()
        };
        db.instrument(&obs, "logged", &clock);
        for i in 0..8u8 {
            db.put(vec![i], vec![i]);
        }
        db.put(vec![99], vec![99]);
        db.flush(); // explicit: must say trigger=forced
        let records = log.drain();
        assert_eq!(log.dropped_records(), 0);
        let trigger_of = |r: &LogRecord| -> String {
            r.fields
                .iter()
                .find(|(k, _)| k == "trigger")
                .map(|(_, v)| match v {
                    FieldValue::Str(s) => s.clone(),
                    other => format!("{other:?}"),
                })
                .unwrap_or_default()
        };
        let flushes: Vec<_> = records.iter().filter(|r| r.msg == "lsm/flush").collect();
        let compacts: Vec<_> = records.iter().filter(|r| r.msg == "lsm/compact").collect();
        assert_eq!(flushes.len() as u64, db.stats().flushes);
        assert_eq!(compacts.len() as u64, db.stats().compactions);
        // The two memtable-threshold flushes say so; the explicit one
        // says forced. The auto compaction (2-run trigger) is threshold.
        assert_eq!(trigger_of(flushes[0]), "threshold");
        assert_eq!(trigger_of(flushes[1]), "threshold");
        assert_eq!(trigger_of(flushes[2]), "forced");
        assert!(compacts.iter().all(|r| trigger_of(r) == "threshold"));
        assert!(records.iter().all(|r| r.level == Level::Info));
        assert!(records.iter().all(|r| r.trace_id == parent.trace_id));
        // Span ids stay distinct across ops (ordinal-salted).
        let ids: std::collections::HashSet<u64> = records.iter().map(|r| r.span_id).collect();
        assert_eq!(ids.len(), records.len());
        // Entries moved are spelled out.
        assert!(flushes[0]
            .fields
            .iter()
            .any(|(k, v)| k == "entries" && *v == FieldValue::U64(4)));
    }

    #[test]
    fn put_get_overwrite() {
        let mut db = LsmStore::default();
        db.put(b"k".as_ref(), b"v1".as_ref());
        db.put(b"k".as_ref(), b"v2".as_ref());
        assert_eq!(db.get(b"k").as_deref(), Some(b"v2".as_ref()));
        assert_eq!(db.get(b"missing"), None);
    }

    #[test]
    fn delete_shadows_older_runs() {
        let mut db = small();
        db.put(b"a".as_ref(), b"1".as_ref());
        db.flush();
        db.delete(b"a".as_ref());
        assert_eq!(db.get(b"a"), None);
        db.flush();
        assert_eq!(db.get(b"a"), None, "tombstone must survive flush");
    }

    #[test]
    fn newest_run_wins() {
        let mut db = small();
        db.put(b"x".as_ref(), b"old".as_ref());
        db.flush();
        db.put(b"x".as_ref(), b"new".as_ref());
        db.flush();
        assert_eq!(db.get(b"x").as_deref(), Some(b"new".as_ref()));
    }

    #[test]
    fn automatic_flush_on_threshold() {
        let mut db = small();
        for i in 0..20u8 {
            db.put(vec![i], vec![i]);
        }
        let s = db.stats();
        assert!(s.flushes >= 2, "flushes {}", s.flushes);
        for i in 0..20u8 {
            assert_eq!(db.get(&[i]).as_deref(), Some([i].as_ref()));
        }
    }

    #[test]
    fn compaction_collapses_runs_and_drops_tombstones() {
        let mut db = small();
        for i in 0..16u8 {
            db.put(vec![i], vec![i]);
        }
        db.flush();
        for i in 0..8u8 {
            db.delete(vec![i]);
        }
        db.flush();
        db.compact();
        let s = db.stats();
        assert_eq!(s.runs, 1);
        assert_eq!(s.run_entries, 8, "tombstones and shadowed gone");
        assert_eq!(db.len(), 8);
        assert_eq!(db.get(&[3]), None);
        assert_eq!(db.get(&[12]).as_deref(), Some([12].as_ref()));
    }

    #[test]
    fn scan_is_ordered_and_resolves_shadowing() {
        let mut db = small();
        for i in (0..30u8).rev() {
            db.put(vec![i], vec![i]);
        }
        db.delete(vec![5u8]);
        db.put(vec![6u8], vec![66u8]);
        let hits = db.scan(&[3], &[8]);
        let keys: Vec<u8> = hits.iter().map(|(k, _)| k[0]).collect();
        assert_eq!(keys, vec![3, 4, 6, 7]);
        let six = hits.iter().find(|(k, _)| k[0] == 6).unwrap();
        assert_eq!(six.1.as_ref(), &[66u8]);
    }

    #[test]
    fn stats_and_validate() {
        let db = LsmStore::default();
        assert_eq!(db.stats(), LsmStats::default());
        assert!(LsmStore::validate_params(&LsmParams::default()).is_ok());
        assert!(LsmStore::validate_params(&LsmParams {
            memtable_flush_entries: 0,
            compaction_trigger_runs: 1
        })
        .is_err());
    }

    #[test]
    fn instrument_publishes_counters_and_read_amplification() {
        let mut db = small();
        for i in 0..16u8 {
            db.put(vec![i], vec![i]);
        }
        let obs = Obs::default();
        let reg = &obs.registry;
        let clock: Clock = augur_telemetry::ManualTime::shared();
        db.instrument(&obs, "hot", &clock);
        // Pre-instrumentation flushes carried over into the registry.
        let pre = db.stats().flushes;
        assert!(pre >= 2);
        db.put(b"z".as_ref(), b"z".as_ref());
        db.flush();
        let snap = reg.snapshot();
        let flushes = snap
            .counters
            .iter()
            .find(|c| c.name == "lsm_flushes_total")
            .expect("flush counter registered");
        assert_eq!(flushes.value, pre + 1);
        assert!(flushes.labels.contains(&("store".into(), "hot".into())));
        // Probing runs records read amplification; memtable hits record 0.
        db.put(b"mem".as_ref(), b"hit".as_ref());
        let _ = db.get(b"mem");
        let _ = db.get(&[0u8]);
        let (p50, p99) = db.read_amplification();
        assert!(p99 >= p50);
        let ra = reg
            .snapshot()
            .histograms
            .into_iter()
            .find(|h| h.name == "lsm_read_amplification")
            .expect("read-amp histogram registered");
        assert_eq!(ra.stats.count, 2);
        assert_eq!(ra.stats.min, 0, "memtable hit probes zero runs");
        assert!(ra.stats.max >= 1, "run lookup probes at least one run");
    }

    #[test]
    fn clone_does_not_share_metric_cells() {
        let mut db = small();
        for i in 0..16u8 {
            db.put(vec![i], vec![i]);
        }
        let before = db.stats().flushes;
        let mut copy = db.clone();
        copy.put(b"c".as_ref(), b"c".as_ref());
        copy.flush();
        assert_eq!(db.stats().flushes, before, "original unaffected by clone");
        assert_eq!(copy.stats().flushes, before + 1);
    }

    #[test]
    fn large_workload_consistency() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let mut db = LsmStore::new(LsmParams {
            memtable_flush_entries: 64,
            compaction_trigger_runs: 4,
        });
        let mut model: std::collections::HashMap<u16, Option<u16>> =
            std::collections::HashMap::new();
        for _ in 0..20_000 {
            let k: u16 = rng.gen_range(0..500);
            if rng.gen_bool(0.2) {
                db.delete(k.to_be_bytes().to_vec());
                model.insert(k, None);
            } else {
                let v: u16 = rng.gen();
                db.put(k.to_be_bytes().to_vec(), v.to_be_bytes().to_vec());
                model.insert(k, Some(v));
            }
        }
        for (k, v) in &model {
            let got = db.get(&k.to_be_bytes());
            match v {
                Some(v) => assert_eq!(got.as_deref(), Some(v.to_be_bytes().as_ref())),
                None => assert_eq!(got, None),
            }
        }
    }
}
