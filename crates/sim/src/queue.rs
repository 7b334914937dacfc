//! The bucketed calendar event queue, shared by both executors.
//!
//! A discrete-event executor pops every event in `(time, seq)` order. A
//! `BinaryHeap` gives that order at O(log n) per operation with poor
//! locality; this queue exploits the structure of real schedules —
//! almost every event lands within a bounded distance of `now` — with
//! two levels:
//!
//! * **near**: a ring of `WINDOW` one-unit buckets covering
//!   `[window_start, window_start + WINDOW)`, plus an occupancy bitmap
//!   (one bit per bucket) so finding the next pending time is a
//!   find-first-set scan instead of a unit-by-unit slide. Push and pop
//!   are O(1). Within a bucket all events share the same time, and
//!   both live pushes (monotonically increasing `seq`) and overflow
//!   spills (heap order) arrive in ascending `seq`, so FIFO order *is*
//!   `seq` order. A **summary** word (bit `w` set iff occupancy word
//!   `w` is non-zero) makes find-next two `trailing_zeros` at any width
//!   up to 4096 buckets.
//! * **far**: a `BinaryHeap` fallback for events at or beyond the
//!   window's end. As the window advances, events whose time comes into
//!   range spill into their buckets before any live push can target
//!   them, preserving the total `(time, seq)` order exactly.
//!
//! The window is a const parameter sized to the executor's spread of
//! pending events: the simulator keeps 256 one-cycle buckets (most
//! events land within a few dozen cycles of `now`), the virtual-time
//! lock service 4096 one-ns buckets (its ≈ 34 pending events spread
//! over ≈ 600 ns). The time unit is the caller's.
//!
//! Invariants:
//! 1. no event exists with `time < window_start` (callers schedule at
//!    or after the last popped time, and `window_start` trails it);
//! 2. `overflow` holds only events with `time >= window_start + WINDOW`;
//! 3. every bucket holds events of exactly one time value, in ascending
//!    `seq` order;
//! 4. `occ` bit `i` is set iff bucket `i` is non-empty, and `summary`
//!    bit `w` is set iff `occ[w] != 0`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Null link in the bucket lists.
const NIL: u32 = u32::MAX;
/// Most occupancy words a window may have: one summary bit each, so
/// the widest window is 64 × 64 = 4096 buckets.
const MAX_WORDS: usize = 64;

/// One scheduled event: `ev` fires at `time`, and among events at the
/// same time the lower `seq` fires first.
#[derive(Debug)]
pub struct EventEntry<E> {
    /// Absolute time the event fires at, in the executor's unit.
    pub time: u64,
    /// Tie-breaker: unique, and strictly increasing in push order.
    pub seq: u64,
    /// The payload.
    pub ev: E,
}

/// An overflow-heap entry. Its ordering looks at `(time, seq)` only and
/// is *reversed*, so the max-heap `BinaryHeap` pops the earliest first.
struct Far<E>(EventEntry<E>);

impl<E> Ord for Far<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
    }
}

impl<E> PartialOrd for Far<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Far<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Far<E> {}

/// One near-window event, linked into its bucket's list. Nodes live in
/// a recycled slab so the hot set stays small and cache-resident.
struct Node<E> {
    seq: u64,
    ev: Option<E>,
    next: u32,
}

/// Two-level bucketed calendar queue over payloads `E`, with a near
/// window of `WINDOW` one-unit buckets; see the module docs.
///
/// `WINDOW` must be a power of two between 64 and 4096 (checked at
/// compile time). Callers own the sequence numbers: every push must
/// carry a `seq` above all earlier ones, and a `time` at or after the
/// last popped event's.
///
/// ```
/// use alewife_sim::{EventEntry, EventQueue};
///
/// let mut q: EventQueue<&str, 64> = EventQueue::new();
/// q.push(EventEntry { time: 500, seq: 1, ev: "far" });
/// q.push(EventEntry { time: 3, seq: 2, ev: "near" });
/// q.push(EventEntry { time: 3, seq: 3, ev: "tie" });
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| (e.time, e.ev)).collect();
/// assert_eq!(order, [(3, "near"), (3, "tie"), (500, "far")]);
/// ```
pub struct EventQueue<E, const WINDOW: usize> {
    /// Slab backing every bucket list (and the free list).
    nodes: Vec<Node<E>>,
    /// Head of the free list through `nodes[..].next`.
    free: u32,
    /// `ends[t % WINDOW]` is the `(head, tail)` of the bucket list for
    /// time `t`, for any `t` inside the current window, in ascending
    /// `seq` order. Fixed-size so masked indexing needs no bounds check.
    ends: Box<[(u32, u32); WINDOW]>,
    /// Occupancy bitmap over the buckets; only the first `WORDS` words
    /// are used.
    occ: [u64; MAX_WORDS],
    /// Bit `w` set iff `occ[w] != 0`.
    summary: u64,
    /// Earliest time any pending event may have.
    window_start: u64,
    /// Events currently in buckets.
    near: usize,
    /// Far-future events (`time >= window_start + WINDOW`).
    overflow: BinaryHeap<Far<E>>,
    /// `overflow`'s minimum time (`u64::MAX` when empty), cached so the
    /// per-pop spill check is a register compare.
    overflow_min: u64,
}

impl<E, const WINDOW: usize> EventQueue<E, WINDOW> {
    /// Occupancy words in use (the window's width is checked here, at
    /// compile time, on first use).
    const WORDS: usize = {
        assert!(
            WINDOW.is_power_of_two() && WINDOW >= 64 && WINDOW <= 64 * MAX_WORDS,
            "an event-queue window is a power of two in 64..=4096"
        );
        WINDOW / 64
    };
    const MASK: usize = WINDOW - 1;

    /// An empty queue whose window starts at time 0.
    pub fn new() -> Self {
        let _ = Self::WORDS;
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            ends: Box::new([(NIL, NIL); WINDOW]),
            occ: [0; MAX_WORDS],
            summary: 0,
            window_start: 0,
            near: 0,
            overflow: BinaryHeap::new(),
            overflow_min: u64::MAX,
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.near + self.overflow.len()
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn mark(&mut self, slot: usize) {
        self.occ[slot / 64] |= 1 << (slot % 64);
        self.summary |= 1 << (slot / 64);
    }

    #[inline]
    fn unmark(&mut self, slot: usize) {
        let w = slot / 64;
        self.occ[w] &= !(1 << (slot % 64));
        if self.occ[w] == 0 {
            self.summary &= !(1 << w);
        }
    }

    /// Take a slab node off the free list (or grow) for `(seq, ev)`.
    #[inline]
    fn alloc_node(&mut self, seq: u64, ev: E) -> u32 {
        if self.free != NIL {
            let i = self.free;
            let n = &mut self.nodes[i as usize];
            self.free = n.next;
            n.seq = seq;
            n.ev = Some(ev);
            n.next = NIL;
            i
        } else {
            Self::grow_slab(&mut self.nodes, seq, ev)
        }
    }

    /// Append to the tail of `time`'s bucket list.
    #[inline]
    fn place(&mut self, time: u64, seq: u64, ev: E) {
        let slot = (time as usize) & Self::MASK;
        let i = self.alloc_node(seq, ev);
        let (h, t) = self.ends[slot];
        if h == NIL {
            self.ends[slot] = (i, i);
            self.mark(slot);
        } else {
            self.nodes[t as usize].next = i;
            self.ends[slot] = (h, i);
        }
        self.near += 1;
    }

    #[cold]
    fn grow_slab(nodes: &mut Vec<Node<E>>, seq: u64, ev: E) -> u32 {
        nodes.push(Node {
            seq,
            ev: Some(ev),
            next: NIL,
        });
        (nodes.len() - 1) as u32
    }

    /// Schedule one event.
    #[inline]
    pub fn push(&mut self, e: EventEntry<E>) {
        debug_assert!(
            e.time >= self.window_start,
            "event scheduled in the past ({} < {})",
            e.time,
            self.window_start
        );
        if e.time < self.window_start + WINDOW as u64 {
            self.place(e.time, e.seq, e.ev);
        } else {
            self.overflow_min = self.overflow_min.min(e.time);
            self.overflow.push(Far(e));
        }
    }

    /// Bulk-append `evs` at `time`, with sequence numbers
    /// `base_seq + 1 ..= base_seq + n`, and return `n` (the caller
    /// advances its counter by it). Equivalent to pushing them one by
    /// one, but the bucket is located and its tail and occupancy
    /// updated once per burst — an invalidation storm wakes dozens of
    /// watchers at a single instant.
    pub(crate) fn push_burst(
        &mut self,
        time: u64,
        base_seq: u64,
        evs: impl IntoIterator<Item = E>,
    ) -> u64 {
        debug_assert!(time >= self.window_start);
        let mut seq = base_seq;
        if time >= self.window_start + WINDOW as u64 {
            for ev in evs {
                seq += 1;
                self.overflow_min = self.overflow_min.min(time);
                self.overflow.push(Far(EventEntry { time, seq, ev }));
            }
            return seq - base_seq;
        }
        let slot = (time as usize) & Self::MASK;
        let mut first = NIL;
        let mut prev = NIL;
        for ev in evs {
            seq += 1;
            let i = self.alloc_node(seq, ev);
            if prev == NIL {
                first = i;
            } else {
                self.nodes[prev as usize].next = i;
            }
            prev = i;
        }
        if first == NIL {
            return 0;
        }
        let (h, t) = self.ends[slot];
        if h == NIL {
            self.ends[slot] = (first, prev);
            self.mark(slot);
        } else {
            self.nodes[t as usize].next = first;
            self.ends[slot] = (h, prev);
        }
        let n = seq - base_seq;
        self.near += n as usize;
        n
    }

    /// Time of the next pending event, **without** committing any
    /// window movement (pure with respect to event order). The parallel
    /// conservative scheduler reads every shard's next-event time to
    /// compute the global safe horizon.
    #[inline]
    pub(crate) fn peek_time(&self) -> Option<u64> {
        // Fast path: an event is pending at the window's current head
        // (the overwhelmingly common case right after a same-time push).
        if self.ends[(self.window_start as usize) & Self::MASK].0 != NIL {
            Some(self.window_start)
        } else if self.near > 0 {
            Some(self.scan_from(self.window_start))
        } else if self.overflow_min != u64::MAX {
            // Nothing near: the earliest far event is next.
            Some(self.overflow_min)
        } else {
            None
        }
    }

    /// Commit the window to `t` (the next pending time). Advancing
    /// exposes the times `[old_start + WINDOW, t + WINDOW)`; any
    /// overflow event in that range must spill before a live push can
    /// target it. (Spilled times all exceed `t`, and land in buckets
    /// that were empty — the scan skipped them — so per-bucket seq
    /// order is preserved.)
    #[inline]
    fn advance_to(&mut self, t: u64) {
        self.window_start = t;
        if self.overflow_min < t + WINDOW as u64 {
            self.spill_below(t + WINDOW as u64);
        }
    }

    /// Time of the next event, advancing the window up to it. After
    /// `Some(t)`, the bucket at `t` is non-empty and [`EventQueue::pop`]
    /// is O(1).
    #[cfg(test)]
    fn next_time(&mut self) -> Option<u64> {
        let t = self.peek_time()?;
        self.advance_to(t);
        Some(t)
    }

    /// Absolute time of the first occupied bucket at or after `from`
    /// (which must exist: `near > 0` and no event precedes `from`).
    #[inline]
    fn scan_from(&self, from: u64) -> u64 {
        let base = from - from % WINDOW as u64;
        let start = (from as usize) & Self::MASK;
        let start_w = start / 64;
        // Bits at or above `start` in its word: times in this lap.
        let here = self.occ[start_w] & (u64::MAX << (start % 64));
        let slot = if here != 0 {
            start_w * 64 + here.trailing_zeros() as usize
        } else {
            // The first non-empty word after `start_w` in this lap, else
            // the first at or before it in the next one (bits at or
            // above `start` in `start_w` were just seen clear, so its
            // lowest set bit lies below `start`).
            let later = self.summary & (u64::MAX << start_w) & !(1 << start_w);
            let w = if later != 0 {
                later.trailing_zeros()
            } else {
                self.summary.trailing_zeros()
            } as usize;
            debug_assert!(w < Self::WORDS, "near > 0 but occupancy bitmap empty");
            w * 64 + self.occ[w].trailing_zeros() as usize
        };
        // Slots before `start` hold times in the *next* lap.
        if slot >= start {
            base + slot as u64
        } else {
            base + WINDOW as u64 + slot as u64
        }
    }

    /// Pop the next event in `(time, seq)` order.
    #[inline]
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        self.pop_at_most(u64::MAX)
    }

    /// Pop the next event only if its time is `<= limit` (the
    /// simulator's fused peek-then-pop; one window scan per event). A
    /// rejected pop commits nothing: the window stays put, so events
    /// may still be scheduled at any `time >= now`, e.g. after a
    /// bounded `run_until` stops short of a far-future event.
    #[inline]
    pub(crate) fn pop_at_most(&mut self, limit: u64) -> Option<EventEntry<E>> {
        let time = self.peek_time()?;
        if time > limit {
            return None;
        }
        self.advance_to(time);
        Some(self.pop_bucket(time))
    }

    #[inline]
    fn pop_bucket(&mut self, time: u64) -> EventEntry<E> {
        let slot = (time as usize) & Self::MASK;
        let (i, t) = self.ends[slot];
        debug_assert_ne!(i, NIL, "next_time returned an empty bucket");
        let n = &mut self.nodes[i as usize];
        let seq = n.seq;
        let ev = n.ev.take().expect("bucket node without an event");
        let next = n.next;
        n.next = self.free;
        self.free = i;
        self.ends[slot] = (next, t);
        if next == NIL {
            self.unmark(slot);
        }
        self.near -= 1;
        EventEntry { time, seq, ev }
    }

    /// Move every overflow event with `time < end` into its bucket
    /// (heap order keeps per-bucket `seq` ascending).
    fn spill_below(&mut self, end: u64) {
        while self.overflow.peek().is_some_and(|f| f.0.time < end) {
            let Far(e) = self.overflow.pop().expect("peeked event vanished");
            self.place(e.time, e.seq, e.ev);
        }
        self.overflow_min = self.overflow.peek().map_or(u64::MAX, |f| f.0.time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    /// The simulator's window and the lock service's.
    const NARROW: usize = 256;
    const WIDE: usize = 4096;

    /// Any interleaving of schedule/pop matches a plain heap on
    /// `(time, seq)` event-for-event, including far-future times (up to
    /// 4 × `W`) that exercise the overflow heap and window jumps. The
    /// payload is the event's own `seq`, so pops are cross-checked.
    fn check_matches_heap<const W: usize>(ops: &[u64]) {
        let w = W as u64;
        let mut q: EventQueue<u64, W> = EventQueue::new();
        let mut model = BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for &op in ops {
            // ~1 in 4 ops is a pop; the rest push at now + delta,
            // biased near like real schedules.
            if op % 4 == 0 {
                let got = q.pop();
                let want = model.pop();
                match (got, want) {
                    (None, None) => {}
                    (Some(e), Some(Reverse((t, s)))) => {
                        prop_assert_eq!((e.time, e.seq, e.ev), (t, s, s));
                        now = t;
                    }
                    (g, w) => {
                        let g = g.map(|e| (e.time, e.seq));
                        prop_assert_eq!(g, w.map(|r| r.0), "pop mismatch");
                    }
                }
            } else {
                let delta = match op % 16 {
                    0..=11 => (op / 16) % (w * 3 / 4),
                    12..=14 => (op / 16) % w,
                    _ => (op / 16) % (4 * w),
                };
                seq += 1;
                let t = now + delta;
                q.push(EventEntry {
                    time: t,
                    seq,
                    ev: seq,
                });
                model.push(Reverse((t, seq)));
            }
            prop_assert_eq!(q.len(), model.len());
        }
        // Drain both; tails must agree too.
        while let Some(e) = q.pop() {
            let Reverse((t, s)) = model.pop().expect("model drained early");
            prop_assert_eq!((e.time, e.seq), (t, s));
        }
        prop_assert!(model.is_empty());
        prop_assert!(q.is_empty());
    }

    /// Ties on time pop in seq order even when they arrive via
    /// different paths (live push vs overflow spill).
    fn check_ties_break_by_seq<const W: usize>(start: u64, n: usize) {
        let mut q: EventQueue<u64, W> = EventQueue::new();
        let t = start + 3 * W as u64; // force everything through overflow
        for seq in 1..=n as u64 {
            q.push(EventEntry {
                time: t,
                seq,
                ev: seq,
            });
        }
        // Join the spilled bucket with a live burst behind it.
        q.next_time();
        let tail = q.push_burst(t, n as u64, [0, 0]);
        for want in 1..=n as u64 + tail {
            let e = q.pop().expect("missing event");
            prop_assert_eq!((e.time, e.seq), (t, want));
        }
        prop_assert!(q.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn matches_heap_reference(ops in prop::collection::vec(0u64..u64::MAX, 1..400)) {
            check_matches_heap::<NARROW>(&ops);
        }

        #[test]
        fn matches_heap_reference_wide(ops in prop::collection::vec(0u64..u64::MAX, 1..400)) {
            check_matches_heap::<WIDE>(&ops);
        }

        #[test]
        fn ties_break_by_seq(start in 0u64..100_000, n in 1usize..60) {
            check_ties_break_by_seq::<NARROW>(start, n);
        }

        #[test]
        fn ties_break_by_seq_wide(start in 0u64..100_000, n in 1usize..60) {
            check_ties_break_by_seq::<WIDE>(start, n);
        }
    }

    /// The summary scan wraps into the next lap: the window starts in
    /// occupancy word 5, that word and every later one are empty, and
    /// the next event sits in word 2 (then word 5, below the start).
    #[test]
    fn summary_scan_wraps_to_an_earlier_word_of_the_next_lap() {
        let w = WIDE as u64;
        let mut q: EventQueue<u64, WIDE> = EventQueue::new();
        q.push(EventEntry {
            time: 5 * 64 + 10,
            seq: 1,
            ev: 1,
        });
        assert_eq!(q.pop().map(|e| e.time), Some(330));
        q.push(EventEntry {
            time: w + 5 * 64 + 3,
            seq: 2,
            ev: 2,
        });
        q.push(EventEntry {
            time: w + 2 * 64 + 7,
            seq: 3,
            ev: 3,
        });
        assert_eq!(q.peek_time(), Some(w + 135));
        assert_eq!(q.pop().map(|e| (e.time, e.ev)), Some((w + 135, 3)));
        // Now the start is in word 2 and the event in a later word.
        assert_eq!(q.pop().map(|e| (e.time, e.ev)), Some((w + 323, 2)));
        // From the last word, the next event is in word 0 of the next lap.
        q.push(EventEntry {
            time: 2 * w - 6,
            seq: 4,
            ev: 4,
        });
        assert_eq!(q.pop().map(|e| e.time), Some(2 * w - 6));
        q.push(EventEntry {
            time: 2 * w + 1,
            seq: 5,
            ev: 5,
        });
        assert_eq!(q.pop().map(|e| (e.time, e.ev)), Some((2 * w + 1, 5)));
        assert!(q.is_empty());
    }

    #[test]
    fn empty_pops_none() {
        let mut q: EventQueue<u64, NARROW> = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.next_time().is_none());
        assert!(q.is_empty());
    }
}
