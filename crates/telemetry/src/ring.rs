//! The one bounded lock-free MPSC ring behind the flight recorder and
//! the event log, plus the string interner both share.
//!
//! A [`SeqRing<W>`] holds records of `W` `u64` cells. [`SeqRing::push`]
//! takes a ticket with one `fetch_add`, claims the ticket's slot with at
//! most one `compare_exchange` and stores the cells — **no lock, no
//! allocation, never blocks or spins**. When the ring wraps before a
//! drain, old records are overwritten and counted in
//! [`SeqRing::dropped`]; losing telemetry is acceptable, stalling a
//! frame is not (the paper's timeliness constraint, §4).
//!
//! ## Slot protocol (why this is torn-proof without `unsafe`)
//!
//! Each slot is `W` `AtomicU64` cells plus a `seq` cell holding its
//! owner's stamp `ticket + 1` (0: never written), with the `BUSY` bit set
//! while the owner writes. A writer with ticket `t` loads `seq` and
//! abandons `t` if the slot is `BUSY` or its owner ticket is `≥ t`;
//! otherwise it CASes `seq` to `(t + 1) | BUSY`, abandoning `t` if that
//! fails (no retry loop). The owner then stores the cells with `Release`
//! and publishes by storing `t + 1` into `seq` with `Release`. Slot
//! ownership is therefore monotonic: a lapped writer can never publish
//! over a newer ticket or interleave its cells with another writer's.
//!
//! A drain accepts ticket `t` only if `seq == t + 1` both **before and
//! after** reading the cells. If a newer writer stored a cell in
//! between, the drain's `Acquire` load of that cell synchronizes with
//! its `Release` store and makes the newer claim visible, so the second
//! check fails. Lapped, abandoned and torn tickets are all charged as
//! dropped: every ticket is accounted **exactly once**, and at
//! quiescence `drained + dropped == total`. Draining locks only the read
//! cursor; drains are control-plane operations.
//!
//! # Example
//!
//! ```
//! use augur_telemetry::SeqRing;
//!
//! let ring: SeqRing<2> = SeqRing::new(8);
//! for i in 0..10u64 {
//!     ring.push([i, i * i]);
//! }
//! assert_eq!(ring.lost(), 2, "two tickets lapped, not yet drained");
//! let records = ring.drain();
//! assert_eq!(records.first(), Some(&[2, 4]));
//! assert_eq!(records.len() as u64 + ring.dropped(), ring.total());
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};

/// Set in `seq` while the slot's owner is writing its cells.
const BUSY: u64 = 1 << 63;

#[derive(Debug)]
struct Slot<const W: usize> {
    /// Owner stamp `ticket + 1` (0: never written), `BUSY` while written.
    seq: AtomicU64,
    cells: [AtomicU64; W],
}

impl<const W: usize> Slot<W> {
    fn publish(&self, ticket: u64, cells: [u64; W]) {
        for (cell, value) in self.cells.iter().zip(cells) {
            cell.store(value, Ordering::Release);
        }
        self.seq.store(ticket + 1, Ordering::Release);
    }

    /// `ticket`'s cells, if `seq` shows it published before and after.
    fn read(&self, ticket: u64) -> Option<[u64; W]> {
        if self.seq.load(Ordering::Acquire) != ticket + 1 {
            return None;
        }
        let cells = self.cells.each_ref().map(|c| c.load(Ordering::Acquire));
        (self.seq.load(Ordering::Acquire) == ticket + 1).then_some(cells)
    }
}

/// A bounded lock-free MPSC ring of `W`-cell records. See the module
/// docs for the protocol and guarantees.
#[derive(Debug)]
pub struct SeqRing<const W: usize> {
    slots: Vec<Slot<W>>,
    mask: u64,
    /// Next ticket to hand out; also the total number of records pushed.
    write: AtomicU64,
    /// Tickets below this have been consumed (drained or dropped).
    read: Mutex<u64>,
    dropped: AtomicU64,
}

impl<const W: usize> SeqRing<W> {
    /// A ring holding up to `capacity` records (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> SeqRing<W> {
        let cap = capacity.max(8).next_power_of_two();
        let slot = || Slot {
            seq: AtomicU64::new(0),
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
        };
        SeqRing {
            slots: (0..cap).map(|_| slot()).collect(),
            mask: cap as u64 - 1,
            write: AtomicU64::new(0),
            read: Mutex::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records pushed so far (drained, pending, or dropped).
    pub fn total(&self) -> u64 {
        self.write.load(Ordering::Relaxed)
    }

    /// Records lapped, abandoned or torn before a drain could read them.
    /// Monotonic; updated at drain time.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// [`SeqRing::dropped`] plus what a drain would charge right now: the
    /// drain's own scan, without consuming, so at quiescence it equals
    /// the next drain's charge exactly. Locks the read cursor briefly.
    pub fn lost(&self) -> u64 {
        let read = self.read.lock();
        self.dropped() + self.scan(*read, |_| {}).1
    }

    /// Appends one record. Lock-free and allocation-free; never blocks.
    pub fn push(&self, cells: [u64; W]) {
        let ticket = self.write.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.claim(ticket) {
            slot.publish(ticket, cells);
        }
    }

    fn slot(&self, ticket: u64) -> Option<&Slot<W>> {
        self.slots.get((ticket & self.mask) as usize)
    }

    /// Claims `ticket`'s slot with at most one CAS, or abandons it.
    fn claim(&self, ticket: u64) -> Option<&Slot<W>> {
        let slot = self.slot(ticket)?;
        let owner = slot.seq.load(Ordering::Relaxed);
        if owner & BUSY != 0 || owner > ticket {
            return None;
        }
        // Acquire: the previous owner's cell stores happen before ours.
        let stamp = (ticket + 1) | BUSY;
        let claimed = slot
            .seq
            .compare_exchange(owner, stamp, Ordering::Acquire, Ordering::Relaxed);
        claimed.ok().map(|_| slot)
    }

    /// Drains every readable record in ticket (chronological) order,
    /// advancing the read cursor and charging the rest to
    /// [`SeqRing::dropped`].
    pub fn drain(&self) -> Vec<[u64; W]> {
        let mut read = self.read.lock();
        let mut out = Vec::new();
        let (end, charged) = self.scan(*read, |cells| out.push(cells));
        self.dropped.fetch_add(charged, Ordering::Relaxed);
        *read = end;
        out
    }

    /// Visits the readable records from `read` to the write cursor `w`;
    /// returns `w` and the tickets a drain charges: lapped ones plus
    /// those in `[max(read, w - cap), w)` not published in their slot.
    fn scan(&self, read: u64, mut visit: impl FnMut([u64; W])) -> (u64, u64) {
        let w = self.write.load(Ordering::Acquire);
        let start = read.max(w.saturating_sub(self.slots.len() as u64));
        let mut charged = start - read;
        for ticket in start..w {
            match self.slot(ticket).and_then(|s| s.read(ticket)) {
                Some(cells) => visit(cells),
                None => charged += 1,
            }
        }
        (w, charged)
    }
}

/// The intern table behind [`crate::NameId`] and the event log's
/// symbols: hot paths carry a `u32` id, drains resolve it back.
#[derive(Debug, Default)]
pub struct Interner {
    names: RwLock<Vec<String>>,
}

impl Interner {
    /// The id of `name`, added on first sight. Takes a short write lock —
    /// call at setup, not per record.
    pub fn intern(&self, name: &str) -> u32 {
        let mut names = self.names.write();
        if let Some(pos) = names.iter().position(|n| n == name) {
            return pos as u32;
        }
        names.push(name.to_string());
        (names.len() - 1) as u32
    }

    /// The string interned as `id`, or `"?"` for an unknown id.
    pub fn resolve(&self, id: u64) -> String {
        let names = self.names.read();
        names
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| "?".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::thread;

    /// Two writers one lap apart, interleaved by hand in one thread.
    fn lapped_pair() -> (SeqRing<3>, u64, u64) {
        let ring = SeqRing::<3>::new(8);
        let older = ring.write.fetch_add(1, Ordering::Relaxed);
        for _ in 1..8 {
            ring.push([0; 3]);
        }
        let newer = ring.write.fetch_add(1, Ordering::Relaxed);
        assert_eq!(older & ring.mask, newer & ring.mask, "same slot");
        (ring, older, newer)
    }

    #[test]
    fn older_ticket_arriving_after_a_newer_claim_abandons() {
        let (ring, older, newer) = lapped_pair();
        let slot = ring.claim(newer).expect("newer claims an idle slot");
        assert!(ring.claim(older).is_none(), "older sees a busy slot");
        slot.publish(newer, [2; 3]);
        assert!(ring.claim(older).is_none(), "older sees a newer owner");
        let drained = ring.drain();
        assert_eq!(drained.last(), Some(&[2; 3]));
        assert_eq!(drained.len() as u64 + ring.dropped(), ring.total());
    }

    #[test]
    fn newer_ticket_finding_the_slot_busy_abandons() {
        let (ring, older, newer) = lapped_pair();
        let slot = ring.claim(older).expect("older claims its slot");
        assert!(ring.claim(newer).is_none(), "newer sees a busy slot");
        slot.publish(older, [1; 3]);
        // The slot shows the lapped ticket, never the abandoned newer one.
        let drained = ring.drain();
        assert_eq!(drained.len(), 7);
        assert!(drained.iter().all(|cells| *cells == [0; 3]));
        assert_eq!(ring.dropped(), 2, "older lapped, newer abandoned");
        assert_eq!(drained.len() as u64 + ring.dropped(), ring.total());
    }

    #[test]
    fn an_unpublished_claim_is_charged_not_read() {
        let ring = SeqRing::<2>::new(8);
        let ticket = ring.write.fetch_add(1, Ordering::Relaxed);
        let slot = ring.claim(ticket).expect("fresh slot");
        slot.cells[0].store(9, Ordering::Release); // half-written payload
        assert_eq!(ring.lost(), 1);
        assert!(ring.drain().is_empty());
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.lost(), 1, "lost matches the drain's charge");
    }

    /// 4 producers overflow a small ring while a drainer races them;
    /// every cell of a record is derived from one value, so a record
    /// whose cells disagree would be a payload mixed from two writers.
    fn overflow_stress<const W: usize>() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 50_000;
        fn cells_of<const W: usize>(v: u64) -> [u64; W] {
            std::array::from_fn(|i| v.rotate_left(i as u32 * 5) ^ i as u64)
        }
        let ring = Arc::new(SeqRing::<W>::new(64));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ring = Arc::clone(&ring);
                thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        ring.push(cells_of(p * PER_PRODUCER + i));
                    }
                })
            })
            .collect();
        let mut drained = Vec::new();
        while handles.iter().any(|h| !h.is_finished()) {
            drained.extend(ring.drain());
        }
        for h in handles {
            h.join().expect("producer thread panicked");
        }
        let lost = ring.lost();
        drained.extend(ring.drain());
        assert_eq!(lost, ring.dropped(), "quiescent lost is exact");
        for cells in &drained {
            assert_eq!(*cells, cells_of(cells[0]), "mixed payload");
        }
        let unique: HashSet<u64> = drained.iter().map(|c| c[0]).collect();
        assert_eq!(unique.len(), drained.len(), "a record drained twice");
        assert_eq!(ring.total(), PRODUCERS * PER_PRODUCER);
        assert_eq!(drained.len() as u64 + ring.dropped(), ring.total());
    }

    #[test]
    fn four_producer_overflow_never_mixes_flight_width_payloads() {
        overflow_stress::<7>();
    }

    #[test]
    fn four_producer_overflow_never_mixes_log_width_payloads() {
        overflow_stress::<12>();
    }

    #[test]
    fn interner_is_idempotent_and_resolves() {
        let names = Interner::default();
        let a = names.intern("a");
        let b = names.intern("b");
        assert_eq!(names.intern("a"), a);
        assert_eq!(names.resolve(u64::from(b)), "b");
        assert_eq!(names.resolve(99), "?");
    }
}
