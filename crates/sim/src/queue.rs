//! The bucketed calendar event queue.
//!
//! The executor pops every simulation event in `(time, seq)` order. A
//! `BinaryHeap` gives that order at O(log n) per operation with poor
//! locality; this queue exploits the structure of simulator schedules —
//! almost every event lands within a few hundred cycles of `now` — with
//! two levels:
//!
//! * **near**: a ring of [`WINDOW`] one-cycle buckets covering
//!   `[window_start, window_start + WINDOW)`, plus an occupancy bitmap
//!   (one bit per bucket) so finding the next pending time is a
//!   find-first-set scan instead of a cycle-by-cycle slide. Push and
//!   pop are O(1). Within a bucket all events share the same time, and
//!   both live pushes (monotonically increasing `seq`) and overflow
//!   spills (heap order) arrive in ascending `seq`, so FIFO order *is*
//!   `seq` order.
//! * **far**: a `BinaryHeap` fallback for events at or beyond the
//!   window's end. As the window advances, events whose time comes into
//!   range spill into their buckets before any live push can target
//!   them, preserving the total `(time, seq)` order exactly.
//!
//! Invariants:
//! 1. no event exists with `time < window_start` (schedules clamp to
//!    `now`, and `window_start` trails the last popped time);
//! 2. `overflow` holds only events with `time >= window_start + WINDOW`;
//! 3. every bucket holds events of exactly one time value, in ascending
//!    `seq` order;
//! 4. `occ` bit `i` is set iff `buckets[i]` is non-empty.

use std::collections::BinaryHeap;

use crate::exec::{Ev, EventEntry};

/// Width of the near window in cycles. Sized for cache residency of the
/// bucket head/tail tables (2 KiB each): the bulk of simulator events
/// land within a few dozen cycles of `now`, and the occasional long
/// delay (blocking ≈ 465 cycles, think loops ≈ 500) rides the heap
/// fallback instead.
pub(crate) const WINDOW: u64 = 256;
const WORDS: usize = (WINDOW as usize) / 64;
/// Null link in the bucket lists.
const NIL: u32 = u32::MAX;

/// One near-window event, linked into its bucket's list. Nodes live in
/// a recycled slab so the hot set stays small and cache-resident.
struct Node {
    seq: u64,
    ev: Option<Ev>,
    next: u32,
}

/// Two-level bucketed event queue; see the module docs.
pub(crate) struct EventQueue {
    /// Slab backing every bucket list (and the free list).
    nodes: Vec<Node>,
    /// Head of the free list through `nodes[..].next`.
    free: u32,
    /// `ends[t % WINDOW]` is the `(head, tail)` of the bucket list for
    /// time `t`, for any `t` inside the current window, in ascending
    /// `seq` order. Fixed-size so masked indexing needs no bounds check.
    ends: Box<[(u32, u32); WINDOW as usize]>,
    /// Occupancy bitmap over the buckets.
    occ: [u64; WORDS],
    /// Earliest time any pending event may have.
    window_start: u64,
    /// Events currently in buckets.
    near: usize,
    /// Far-future events (`time >= window_start + WINDOW`).
    overflow: BinaryHeap<EventEntry>,
    /// `overflow`'s minimum time (`u64::MAX` when empty), cached so the
    /// per-pop spill check is a register compare.
    overflow_min: u64,
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            ends: Box::new([(NIL, NIL); WINDOW as usize]),
            occ: [0; WORDS],
            window_start: 0,
            near: 0,
            overflow: BinaryHeap::new(),
            overflow_min: u64::MAX,
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.near + self.overflow.len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn mark(&mut self, slot: usize) {
        self.occ[slot / 64] |= 1 << (slot % 64);
    }

    /// Take a slab node off the free list (or grow) for `(seq, ev)`.
    #[inline]
    fn alloc_node(&mut self, seq: u64, ev: Ev) -> u32 {
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
    fn place(&mut self, time: u64, seq: u64, ev: Ev) {
        let slot = (time as usize) & (WINDOW as usize - 1);
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
    fn grow_slab(nodes: &mut Vec<Node>, seq: u64, ev: Ev) -> u32 {
        nodes.push(Node {
            seq,
            ev: Some(ev),
            next: NIL,
        });
        (nodes.len() - 1) as u32
    }

    #[inline]
    pub fn push(&mut self, e: EventEntry) {
        debug_assert!(
            e.time >= self.window_start,
            "event scheduled in the past ({} < {})",
            e.time,
            self.window_start
        );
        if e.time < self.window_start + WINDOW {
            self.place(e.time, e.seq, e.ev);
        } else {
            self.overflow_min = self.overflow_min.min(e.time);
            self.overflow.push(e);
        }
    }

    /// Bulk-append watcher wakes for `tasks` at `time`, with sequence
    /// numbers `base_seq + 1 ..= base_seq + n`, and return `n` (the
    /// caller advances the global counter by it). Equivalent to pushing
    /// the `Ev::Wake`s one by one, but the bucket is located and its
    /// tail/occupancy updated once per burst — invalidation storms wake
    /// dozens of watchers at a single instant.
    pub fn push_wakes(
        &mut self,
        time: u64,
        base_seq: u64,
        tasks: impl Iterator<Item = crate::exec::TaskId>,
    ) -> u64 {
        debug_assert!(time >= self.window_start);
        let mut seq = base_seq;
        if time >= self.window_start + WINDOW {
            for t in tasks {
                seq += 1;
                self.overflow_min = self.overflow_min.min(time);
                self.overflow.push(EventEntry {
                    time,
                    seq,
                    ev: Ev::Wake(t),
                });
            }
            return seq - base_seq;
        }
        let slot = (time as usize) & (WINDOW as usize - 1);
        let mut first = NIL;
        let mut prev = NIL;
        for t in tasks {
            seq += 1;
            let i = self.alloc_node(seq, Ev::Wake(t));
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
    /// window movement (pure with respect to event order). Public
    /// within the crate: the parallel conservative scheduler reads
    /// every shard's next-event time to compute the global safe
    /// horizon.
    #[inline]
    pub fn peek_time(&self) -> Option<u64> {
        // Fast path: an event is pending at the window's current head
        // (the overwhelmingly common case right after a same-time push).
        if self.ends[(self.window_start as usize) & (WINDOW as usize - 1)].0 != NIL {
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
        if self.overflow_min < t + WINDOW {
            self.spill_below(t + WINDOW);
        }
    }

    /// Time of the next event, advancing the window up to it. After
    /// `Some(t)`, the bucket at `t` is non-empty and [`EventQueue::pop`]
    /// is O(1).
    #[cfg(test)]
    pub fn next_time(&mut self) -> Option<u64> {
        let t = self.peek_time()?;
        self.advance_to(t);
        Some(t)
    }

    /// Absolute time of the first occupied bucket at or after `from`
    /// (which must exist: `near > 0` and no event precedes `from`).
    #[inline]
    fn scan_from(&self, from: u64) -> u64 {
        let base = from - from % WINDOW;
        let start = (from % WINDOW) as usize;
        let start_w = start / 64;
        let mut w = start_w;
        // Mask off bits below `start` in the first word.
        let mut word = self.occ[w] & !((1u64 << (start % 64)) - 1);
        let mut wrapped = false;
        loop {
            if word != 0 {
                let slot = w as u64 * 64 + word.trailing_zeros() as u64;
                // Slots before `start` hold times in the *next* lap.
                return if slot >= start as u64 {
                    base + slot
                } else {
                    base + WINDOW + slot
                };
            }
            debug_assert!(
                !(wrapped && w == start_w),
                "near > 0 but occupancy bitmap empty"
            );
            w += 1;
            if w == WORDS {
                w = 0;
                wrapped = true;
            }
            word = self.occ[w];
            if wrapped && w == start_w {
                // Back at the start word: only bits below `start` remain.
                word &= (1u64 << (start % 64)) - 1;
            }
        }
    }

    /// Pop the next event in `(time, seq)` order.
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<EventEntry> {
        self.pop_at_most(u64::MAX)
    }

    /// Pop the next event only if its time is `<= limit` (the executor's
    /// fused peek-then-pop; one window scan per event). A rejected pop
    /// commits nothing: the window stays put, so events may still be
    /// scheduled at any `time >= now`, e.g. after a bounded
    /// `run_until` stops short of a far-future event.
    pub fn pop_at_most(&mut self, limit: u64) -> Option<EventEntry> {
        let time = self.peek_time()?;
        if time > limit {
            return None;
        }
        self.advance_to(time);
        Some(self.pop_bucket(time))
    }

    #[inline]
    fn pop_bucket(&mut self, time: u64) -> EventEntry {
        let slot = (time as usize) & (WINDOW as usize - 1);
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
            self.occ[slot / 64] &= !(1 << (slot % 64));
        }
        self.near -= 1;
        EventEntry { time, seq, ev }
    }

    /// Move every overflow event with `time < end` into its bucket
    /// (heap order keeps per-bucket `seq` ascending).
    fn spill_below(&mut self, end: u64) {
        while self.overflow.peek().is_some_and(|e| e.time < end) {
            let e = self.overflow.pop().expect("peeked event vanished");
            self.place(e.time, e.seq, e.ev);
        }
        self.overflow_min = self.overflow.peek().map_or(u64::MAX, |e| e.time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::TaskId;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    /// Reference model: a plain binary heap on `(time, seq)`.
    #[derive(Default)]
    struct RefModel {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
    }

    fn payload(seq: u64) -> Ev {
        // Encode seq into the payload so pops can be cross-checked.
        Ev::Wake(TaskId(seq as usize))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Any interleaving of schedule/pop matches the heap model
        /// event-for-event, including far-future times that exercise the
        /// overflow heap and window jumps.
        #[test]
        fn matches_heap_reference(
            ops in prop::collection::vec(0u64..u64::MAX, 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut model = RefModel::default();
            let mut now = 0u64;
            let mut seq = 0u64;
            for op in ops {
                // ~1 in 4 ops is a pop; the rest push at now + delta,
                // with deltas spanning well past the near window.
                if op % 4 == 0 {
                    let got = q.pop();
                    let want = model.heap.pop();
                    match (got, want) {
                        (None, None) => {}
                        (Some(e), Some(Reverse((t, s)))) => {
                            prop_assert_eq!(e.time, t);
                            prop_assert_eq!(e.seq, s);
                            match e.ev {
                                Ev::Wake(TaskId(p)) => prop_assert_eq!(p as u64, s),
                                _ => prop_assert!(false, "wrong payload variant"),
                            }
                            now = t;
                        }
                        (g, w) => {
                            let g = g.map(|e| (e.time, e.seq));
                            prop_assert_eq!(g, w.map(|r| r.0), "pop mismatch");
                        }
                    }
                } else {
                    // Mix of near (0..WINDOW) and far (up to 4*WINDOW)
                    // deltas, biased near like real schedules.
                    let delta = match op % 16 {
                        0..=11 => (op / 16) % 200,
                        12..=14 => (op / 16) % WINDOW,
                        _ => (op / 16) % (4 * WINDOW),
                    };
                    seq += 1;
                    let t = now + delta;
                    q.push(EventEntry { time: t, seq, ev: payload(seq) });
                    model.heap.push(Reverse((t, seq)));
                }
                prop_assert_eq!(q.len(), model.heap.len());
            }
            // Drain both; tails must agree too.
            while let Some(e) = q.pop() {
                let Reverse((t, s)) = model.heap.pop().expect("model drained early");
                prop_assert_eq!((e.time, e.seq), (t, s));
            }
            prop_assert!(model.heap.is_empty());
            prop_assert!(q.is_empty());
        }

        /// Ties on time pop in seq order even when they arrive via
        /// different paths (live push vs overflow spill).
        #[test]
        fn ties_break_by_seq(start in 0u64..100_000, n in 1usize..60) {
            let mut q = EventQueue::new();
            let t = start + 3 * WINDOW; // force everything through overflow
            for seq in 1..=n as u64 {
                q.push(EventEntry { time: t, seq, ev: payload(seq) });
            }
            for want in 1..=n as u64 {
                let e = q.pop().expect("missing event");
                prop_assert_eq!((e.time, e.seq), (t, want));
            }
            prop_assert!(q.is_empty());
        }
    }

    #[test]
    fn empty_pops_none() {
        let mut q = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.next_time().is_none());
        assert!(q.is_empty());
    }
}
