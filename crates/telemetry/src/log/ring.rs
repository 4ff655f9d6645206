//! The bounded lock-free MPSC log ring.
//!
//! Records are pushed into telemetry's [`SeqRing`] (see
//! [`crate::ring`] for the slot protocol) — **no lock, no
//! allocation, never blocks**. Overwritten or torn records are charged
//! to [`EventLog::dropped_records`], so at quiescence
//! `drained + dropped == total_records` exactly. This module only
//! encodes records into ring cells and decodes them back.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crate::ring::{Interner, SeqRing};
use crate::trace::TraceContext;

use super::level::Level;
use super::site::LogSite;

/// Fields beyond this many are truncated at emit time (the count that
/// survives is encoded in the slot, so truncation is visible, not
/// silent).
pub const MAX_FIELDS: usize = 4;

/// An interned symbol (message text, field key, or string field value):
/// hot paths carry this copyable id instead of a heap string. Intern at
/// setup via [`EventLog::intern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymId(pub(crate) u32);

/// A typed field value as carried on the emit path (one `u64` of bits
/// plus a tag; strings travel as interned [`SymId`]s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (bit-exact through the ring).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// An interned string.
    Sym(SymId),
}

/// A typed field value for the convenience [`EventLog::event`] path,
/// which interns `Str` on the fly (short lock — keep off per-record hot
/// paths; pre-intern and use [`EventLog::record`] there).
#[derive(Debug, Clone, Copy)]
pub enum Arg<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// A string value, interned at emit time.
    Str(&'a str),
}

/// A field value as drained (symbols resolved back to strings).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Resolved string.
    Str(String),
}

/// One drained log record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Emission time on the caller's clock, microseconds.
    pub ts_us: u64,
    /// Severity.
    pub level: Level,
    /// Resolved message text.
    pub msg: String,
    /// Causal chain the record belongs to (0 when logged outside one).
    pub trace_id: u64,
    /// The span the record was emitted under.
    pub span_id: u64,
    /// Typed key-value fields, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

/// Value-cell tags (slot encoding; append-only).
const TAG_U64: u64 = 0;
const TAG_I64: u64 = 1;
const TAG_F64: u64 = 2;
const TAG_BOOL: u64 = 3;
const TAG_SYM: u64 = 4;

fn encode(value: Value) -> (u64, u64) {
    match value {
        Value::U64(v) => (TAG_U64, v),
        Value::I64(v) => (TAG_I64, v as u64),
        Value::F64(v) => (TAG_F64, v.to_bits()),
        Value::Bool(v) => (TAG_BOOL, u64::from(v)),
        Value::Sym(s) => (TAG_SYM, u64::from(s.0)),
    }
}

/// Ring cells per record: trace id, span id, `(msg_id << 16) |
/// (n_fields << 8) | level`, timestamp, then per field
/// `(tag << 32) | key_id` and the value bits.
const CELLS: usize = 4 + 2 * MAX_FIELDS;

#[derive(Debug)]
struct LogInner {
    ring: SeqRing<CELLS>,
    /// Interned symbols; written only on the registration path.
    syms: Interner,
    min_level: AtomicU8,
}

/// The bounded lock-free structured log. Cloning shares the ring.
#[derive(Debug, Clone)]
pub struct EventLog {
    inner: Arc<LogInner>,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(4096)
    }
}

impl EventLog {
    /// A log holding up to `capacity` records (rounded up to a power of
    /// two, minimum 8), admitting `Info` and above.
    pub fn new(capacity: usize) -> EventLog {
        EventLog::with_min_level(capacity, Level::Info)
    }

    /// A log with an explicit severity floor.
    pub fn with_min_level(capacity: usize, min_level: Level) -> EventLog {
        EventLog {
            inner: Arc::new(LogInner {
                ring: SeqRing::new(capacity),
                syms: Interner::default(),
                min_level: AtomicU8::new(min_level as u8),
            }),
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.inner.ring.capacity()
    }

    /// The current severity floor.
    pub fn min_level(&self) -> Level {
        Level::from_u8(self.inner.min_level.load(Ordering::Relaxed))
    }

    /// Whether a record at `level` would pass the floor.
    pub fn enabled(&self, level: Level) -> bool {
        level >= self.min_level()
    }

    /// Interns a symbol, returning the id hot paths pass to
    /// [`EventLog::record`]. Takes a short lock — call at setup.
    pub fn intern(&self, s: &str) -> SymId {
        SymId(self.inner.syms.intern(s))
    }

    /// Records admitted so far (drained, pending, or dropped). Level- or
    /// rate-suppressed emits never reach this count; suppression is
    /// visible per site via [`LogSite::suppressed`].
    pub fn total_records(&self) -> u64 {
        self.inner.ring.total()
    }

    /// Records overwritten before a drain could read them (plus
    /// abandoned or torn slots). Monotonic; updated at drain time.
    pub fn dropped_records(&self) -> u64 {
        self.inner.ring.dropped()
    }

    /// Emits a record with pre-interned message and keys. Lock-free and
    /// allocation-free; a no-op when the level is below the floor, the
    /// context is unsampled, or `site`'s token bucket denies it. Fields
    /// beyond [`MAX_FIELDS`] are truncated.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        site: &LogSite,
        level: Level,
        ctx: TraceContext,
        msg: SymId,
        ts_us: u64,
        fields: &[(SymId, Value)],
    ) {
        if !ctx.sampled || !self.enabled(level) || !site.admit(ts_us) {
            return;
        }
        let n = fields.len().min(MAX_FIELDS) as u64;
        let meta = (u64::from(msg.0) << 16) | (n << 8) | level as u64;
        let mut cells = [0; CELLS];
        cells[..4].copy_from_slice(&[ctx.trace_id, ctx.span_id, meta, ts_us]);
        for (pair, (key, value)) in cells[4..].as_chunks_mut().0.iter_mut().zip(fields) {
            let (tag, bits) = encode(*value);
            *pair = [(tag << 32) | u64::from(key.0), bits];
        }
        self.inner.ring.push(cells);
    }

    /// Convenience emit that interns the message, keys, and string
    /// values on the fly (short lock). For control-plane call sites;
    /// per-record hot paths should pre-intern and use
    /// [`EventLog::record`].
    #[allow(clippy::too_many_arguments)]
    pub fn event(
        &self,
        site: &LogSite,
        level: Level,
        ctx: TraceContext,
        msg: &str,
        ts_us: u64,
        fields: &[(&str, Arg<'_>)],
    ) {
        if !ctx.sampled || !self.enabled(level) {
            return;
        }
        let msg = self.intern(msg);
        let mut encoded: [(SymId, Value); MAX_FIELDS] = [(SymId(0), Value::U64(0)); MAX_FIELDS];
        let n = fields.len().min(MAX_FIELDS);
        for (dst, (key, arg)) in encoded.iter_mut().zip(fields.iter().take(MAX_FIELDS)) {
            let value = match *arg {
                Arg::U64(v) => Value::U64(v),
                Arg::I64(v) => Value::I64(v),
                Arg::F64(v) => Value::F64(v),
                Arg::Bool(v) => Value::Bool(v),
                Arg::Str(s) => Value::Sym(self.intern(s)),
            };
            *dst = (self.intern(key), value);
        }
        if let Some(encoded) = encoded.get(..n) {
            self.record(site, level, ctx, msg, ts_us, encoded);
        }
    }

    /// Drains every currently-readable record in ticket order, advancing
    /// the read cursor and charging overwritten or torn tickets to
    /// [`EventLog::dropped_records`]. At quiescence
    /// `drained_total + dropped_records == total_records` exactly.
    pub fn drain(&self) -> Vec<LogRecord> {
        let syms = &self.inner.syms;
        let decode = |[trace_id, span_id, meta, ts_us, body @ ..]: [u64; CELLS]| LogRecord {
            ts_us,
            level: Level::from_u8((meta & 0xff) as u8),
            msg: syms.resolve(meta >> 16),
            trace_id,
            span_id,
            fields: (body.as_chunks().0.iter())
                .take(((meta >> 8) & 0xff) as usize)
                .map(|&[key_tag, bits]| {
                    let value = match key_tag >> 32 {
                        TAG_U64 => FieldValue::U64(bits),
                        TAG_I64 => FieldValue::I64(bits as i64),
                        TAG_F64 => FieldValue::F64(f64::from_bits(bits)),
                        TAG_BOOL => FieldValue::Bool(bits != 0),
                        _ => FieldValue::Str(syms.resolve(bits)),
                    };
                    (syms.resolve(key_tag & 0xffff_ffff), value)
                })
                .collect(),
        };
        self.inner.ring.drain().into_iter().map(decode).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_drains_with_typed_fields() {
        let log = EventLog::with_min_level(16, Level::Debug);
        let site = LogSite::unlimited();
        let msg = log.intern("pipeline/late_drop");
        let key = log.intern("lag_us");
        let reason = log.intern("reason");
        let watermark = log.intern("watermark");
        let ctx = TraceContext::root(9, 1);
        log.record(
            &site,
            Level::Warn,
            ctx,
            msg,
            1_500,
            &[
                (key, Value::U64(250)),
                (reason, Value::Sym(watermark)),
                (log.intern("ratio"), Value::F64(0.25)),
                (log.intern("shed"), Value::Bool(true)),
            ],
        );
        let records = log.drain();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.level, Level::Warn);
        assert_eq!(r.msg, "pipeline/late_drop");
        assert_eq!(r.ts_us, 1_500);
        assert_eq!(r.trace_id, ctx.trace_id);
        assert_eq!(r.span_id, ctx.span_id);
        assert_eq!(r.fields.len(), 4);
        assert_eq!(r.fields[0], ("lag_us".into(), FieldValue::U64(250)));
        assert_eq!(
            r.fields[1],
            ("reason".into(), FieldValue::Str("watermark".into()))
        );
        assert_eq!(r.fields[2], ("ratio".into(), FieldValue::F64(0.25)));
        assert_eq!(r.fields[3], ("shed".into(), FieldValue::Bool(true)));
        assert!(log.drain().is_empty(), "drain consumes");
        assert_eq!(log.dropped_records(), 0);
    }

    #[test]
    fn level_floor_and_unsampled_contexts_are_noops() {
        let log = EventLog::new(16); // floor: Info
        let site = LogSite::unlimited();
        let ctx = TraceContext::root(1, 1);
        log.event(&site, Level::Debug, ctx, "chatty", 0, &[]);
        log.event(&site, Level::Info, ctx.unsampled(), "unsampled", 0, &[]);
        assert_eq!(log.total_records(), 0);
    }

    #[test]
    fn overflow_is_counted_not_silent() {
        let log = EventLog::new(8);
        let site = LogSite::unlimited();
        let msg = log.intern("x");
        let ctx = TraceContext::root(2, 2);
        for i in 0..20u64 {
            log.record(&site, Level::Info, ctx, msg, i, &[]);
        }
        let records = log.drain();
        assert_eq!(records.len(), 8, "only the last `capacity` survive");
        assert_eq!(log.dropped_records(), 12);
        assert_eq!(
            records.len() as u64 + log.dropped_records(),
            log.total_records()
        );
        assert_eq!(records[0].ts_us, 12);
        assert_eq!(records[7].ts_us, 19);
    }

    #[test]
    fn rate_limited_site_suppresses_without_charging_the_ring() {
        let log = EventLog::new(64);
        let site = LogSite::new(2, 0); // 2-burst, never refills
        let msg = log.intern("spam");
        let ctx = TraceContext::root(3, 3);
        for i in 0..10u64 {
            log.record(&site, Level::Warn, ctx, msg, i, &[]);
        }
        assert_eq!(log.total_records(), 2);
        assert_eq!(site.suppressed(), 8);
        assert_eq!(log.drain().len(), 2);
        assert_eq!(log.dropped_records(), 0);
    }

    #[test]
    fn field_truncation_is_encoded_not_silent() {
        let log = EventLog::new(8);
        let site = LogSite::unlimited();
        let ctx = TraceContext::root(4, 4);
        let fields: Vec<(&str, Arg<'_>)> = vec![
            ("a", Arg::U64(1)),
            ("b", Arg::U64(2)),
            ("c", Arg::U64(3)),
            ("d", Arg::U64(4)),
            ("e", Arg::U64(5)),
        ];
        log.event(&site, Level::Info, ctx, "wide", 0, &fields);
        let records = log.drain();
        assert_eq!(records[0].fields.len(), MAX_FIELDS);
        assert_eq!(records[0].fields[3].0, "d");
    }
}
