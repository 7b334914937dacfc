//! Directory-based cache coherence with LimitLESS-style limited pointers.
//!
//! Each line has a home node whose directory serially services coherence
//! requests (occupancy = `dir_service` cycles plus work). The protocol is
//! a standard invalidate MSI protocol with the two Alewife-specific
//! behaviours the paper's results hinge on:
//!
//! * invalidations are issued **sequentially** (`inval_issue` apart), so a
//!   write to a widely-shared line (e.g. a released test-and-test-and-set
//!   lock) occupies the directory for O(sharers) cycles; and
//! * once a line's sharer count exceeds the hardware pointer count, the
//!   directory is **software-extended** and every subsequent operation on
//!   the line pays a `limitless_trap` penalty, unless the machine is
//!   configured as a full-map directory (`Dir_NB` in Figure 3.2).
//!
//! A directory entry stores what Alewife's directory stores: `HW_PTRS`
//! 16-bit sharer pointers inline, an owner, a count and the extended bit,
//! in 14 bytes and no heap. Only a line that outgrows its pointers pays
//! for more: its whole sharer list moves to a slot of one slab
//! ([`DirSpill`]) that also keeps the list as a node bitset, the slot
//! index rides in the entry, and the slot returns to a free list
//! (keeping its buffer) once the list fits inline again. Sharer order
//! is insertion order, which is invalidation order, in either form.
//!
//! The directory is the only record of who caches a line: a node holds
//! it `Exclusive` when it is the owner, `Shared` when it is on the
//! sharer list, and not at all otherwise ([`DirEntry::cached`]). Cache
//! state changes at directory service time, so a hit check reads the
//! entry; membership is a scan of at most `HW_PTRS` pointers or one bit
//! of the spilled slot's bitset.
//!
//! Values live in a single authoritative word array mutated at directory
//! service time (or at local exclusive hits); because a processor stalls
//! on each of its own memory operations and transactions serialize at the
//! home directory, the resulting value history is linearizable.

use crate::exec::{Completion, Ev};
use crate::net;
use crate::state::{bit, set_bit, Addr, LineId, State, HW_PTRS};

/// State of a line in a node's local cache (absence means invalid),
/// as the line's directory entry records it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CacheState {
    /// Read-cached; other nodes may also hold copies.
    Shared,
    /// Exclusively owned (read/write hits, possibly dirty).
    Exclusive,
}

/// Sentinel for "no exclusive owner" in a directory entry.
pub(crate) const NO_OWNER: u16 = u16::MAX;

/// [`DirEntry::meta`]'s top bit: the line is software-extended.
const EXTENDED: u16 = 1 << 15;

/// The most nodes a machine may have: a sharer count must fit the 15
/// bits beside [`EXTENDED`], which also keeps every node id below
/// [`NO_OWNER`].
pub(crate) const MAX_NODES: usize = (EXTENDED - 1) as usize;

/// Directory entry for one line: the owner (sentinel-coded), `HW_PTRS`
/// inline sharer pointers, and the sharer count sharing a word with the
/// extended bit. A line with more than `HW_PTRS` sharers keeps its whole
/// list in a [`DirSpill`] slot whose `u32` index sits in `ptrs[0..2]`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DirEntry {
    pub owner: u16,
    ptrs: [u16; HW_PTRS],
    /// Sharer count in the low 15 bits, [`EXTENDED`] in the top one.
    meta: u16,
}

const _: () = assert!(size_of::<DirEntry>() <= 14);

impl DirEntry {
    pub const EMPTY: DirEntry = DirEntry {
        owner: NO_OWNER,
        ptrs: [0; HW_PTRS],
        meta: 0,
    };

    #[inline]
    pub fn len(&self) -> usize {
        (self.meta & !EXTENDED) as usize
    }

    /// `n` is at most the node count, below [`MAX_NODES`].
    #[inline]
    fn set_len(&mut self, n: usize) {
        debug_assert!(n <= MAX_NODES);
        self.meta = (self.meta & EXTENDED) | n as u16;
    }

    #[inline]
    pub fn extended(&self) -> bool {
        self.meta & EXTENDED != 0
    }

    #[inline]
    pub fn set_extended(&mut self, on: bool) {
        if on {
            self.meta |= EXTENDED;
        } else {
            self.meta &= !EXTENDED;
        }
    }

    /// The spill slot of a line with more than `HW_PTRS` sharers.
    #[inline]
    fn slot(&self) -> usize {
        (self.ptrs[0] as u32 | (self.ptrs[1] as u32) << 16) as usize
    }

    /// The sharers in insertion (= invalidation) order.
    #[inline]
    pub fn sharers<'a>(&'a self, spill: &'a DirSpill) -> &'a [u16] {
        let n = self.len();
        if n > HW_PTRS {
            &spill.slots[self.slot()]
        } else {
            &self.ptrs[..n]
        }
    }

    /// Whether `s` is on the sharer list.
    #[inline]
    pub fn is_sharer(&self, spill: &DirSpill, s: u16) -> bool {
        let n = self.len();
        if n > HW_PTRS {
            spill.has(self.slot(), s)
        } else {
            self.ptrs[..n].contains(&s)
        }
    }

    /// What `node`'s cache holds of this line.
    #[inline]
    pub fn cached(&self, spill: &DirSpill, node: u16) -> Option<CacheState> {
        if self.owner == node {
            Some(CacheState::Exclusive)
        } else if self.is_sharer(spill, node) {
            Some(CacheState::Shared)
        } else {
            None
        }
    }

    /// Append `s`; the sixth sharer moves the list to a spill slot.
    #[inline]
    pub fn push(&mut self, spill: &mut DirSpill, s: u16) {
        let n = self.len();
        if n < HW_PTRS {
            self.ptrs[n] = s;
        } else {
            if n == HW_PTRS {
                let slot = spill.take_slot();
                for p in self.ptrs {
                    spill.add(slot, p);
                }
                self.ptrs[0] = slot as u16;
                self.ptrs[1] = (slot >> 16) as u16;
            }
            spill.add(self.slot(), s);
        }
        self.set_len(n + 1);
    }

    /// Keep only the sharers `keep` accepts, in order; a list that fits
    /// inline again leaves its spill slot.
    pub fn retain(&mut self, spill: &mut DirSpill, mut keep: impl FnMut(&u16) -> bool) {
        let n = self.len();
        if n <= HW_PTRS {
            let mut k = 0;
            for i in 0..n {
                let s = self.ptrs[i];
                if keep(&s) {
                    self.ptrs[k] = s;
                    k += 1;
                }
            }
            self.set_len(k);
            return;
        }
        let slot = self.slot();
        let (list, bits) = spill.slot_mut(slot);
        list.retain(|s| {
            let k = keep(s);
            if !k {
                set_bit(bits, *s as usize, false);
            }
            k
        });
        let k = list.len();
        if k <= HW_PTRS {
            self.ptrs[..k].copy_from_slice(list);
            spill.free_slot(slot);
        }
        self.set_len(k);
    }

    /// Forget every sharer.
    pub fn clear(&mut self, spill: &mut DirSpill) {
        if self.len() > HW_PTRS {
            spill.free_slot(self.slot());
        }
        self.set_len(0);
    }
}

/// Sharer lists of the lines that outgrew their inline pointers, one
/// slot per such line, each kept twice: in order (for invalidation) and
/// as a bitset over the nodes (for membership), `words` bitset words per
/// slot in one flat arena. A freed slot is emptied but keeps its buffer
/// and is handed out again before the slab grows, so a line that is
/// extended and written round after round reuses one slot. (After a
/// write to a hot line every former sharer misses, and each miss asks
/// twice whether it is listed, so scanning the list instead is
/// quadratic in the sharers per round.)
pub(crate) struct DirSpill {
    pub slots: Vec<Vec<u16>>,
    bits: Vec<u64>,
    words: usize,
    free: Vec<u32>,
}

impl DirSpill {
    pub fn new(nodes: usize) -> DirSpill {
        DirSpill {
            slots: Vec::new(),
            bits: Vec::new(),
            words: nodes.div_ceil(64),
            free: Vec::new(),
        }
    }

    fn take_slot(&mut self) -> usize {
        if let Some(s) = self.free.pop() {
            return s as usize;
        }
        self.slots.push(Vec::new());
        self.bits.resize(self.bits.len() + self.words, 0);
        self.slots.len() - 1
    }

    fn free_slot(&mut self, slot: usize) {
        self.slots[slot].clear();
        self.slot_mut(slot).1.fill(0);
        self.free.push(slot as u32);
    }

    /// Slot `slot`'s list and bitset.
    #[inline]
    fn slot_mut(&mut self, slot: usize) -> (&mut Vec<u16>, &mut [u64]) {
        let w = self.words;
        (
            &mut self.slots[slot],
            &mut self.bits[slot * w..(slot + 1) * w],
        )
    }

    #[inline]
    fn add(&mut self, slot: usize, s: u16) {
        self.slots[slot].push(s);
        set_bit(&mut self.bits[slot * self.words..], s as usize, true);
    }

    #[inline]
    fn has(&self, slot: usize, s: u16) -> bool {
        bit(&self.bits[slot * self.words..], s as usize)
    }
}

/// An atomic read-modify-write applied at the home directory (or at a
/// local exclusive hit).
#[derive(Clone, Copy, Debug)]
pub(crate) enum RmwOp {
    Write(u64),
    TestAndSet,
    FetchAndStore(u64),
    CompareAndSwap(u64, u64),
    FetchAndAdd(u64),
    /// Store a value and set the full bit; returns the previous full bit.
    WriteFill(u64),
    /// If full: return the value, clear the bit (I-structure take).
    TakeIfFull,
    /// Clear the full bit (J-structure reset).
    ResetEmpty,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum ReqKind {
    /// Read for shared access; second result word is the full bit.
    Read,
    /// Read-modify-write for exclusive access.
    Own(RmwOp),
}

/// A coherence request in flight to a home directory (kept compact:
/// it crosses the in-flight slab twice per miss).
pub(crate) struct CohReq {
    pub addr: Addr,
    pub line: LineId,
    pub from: u16,
    pub kind: ReqKind,
    pub comp: Completion,
}

/// Apply an RMW to the authoritative arrays; returns `[primary, aux]`
/// result words (op-specific).
fn apply(st: &mut State, addr: Addr, op: RmwOp) -> [u64; 2] {
    let i = addr.0 as usize;
    let old = st.mem[i];
    match op {
        RmwOp::Write(v) => {
            st.mem[i] = v;
            [old, 0]
        }
        RmwOp::TestAndSet => {
            st.mem[i] = 1;
            [old, 0]
        }
        RmwOp::FetchAndStore(v) => {
            st.mem[i] = v;
            [old, 0]
        }
        RmwOp::CompareAndSwap(expect, new) => {
            if old == expect {
                st.mem[i] = new;
                [1, old]
            } else {
                [0, old]
            }
        }
        RmwOp::FetchAndAdd(d) => {
            st.mem[i] = old.wrapping_add(d);
            [old, 0]
        }
        RmwOp::WriteFill(v) => {
            let was = bit(&st.full_bits, i);
            st.mem[i] = v;
            set_bit(&mut st.full_bits, i, true);
            [was as u64, 0]
        }
        RmwOp::TakeIfFull => {
            if bit(&st.full_bits, i) {
                set_bit(&mut st.full_bits, i, false);
                [old, 1]
            } else {
                [0, 0]
            }
        }
        RmwOp::ResetEmpty => {
            set_bit(&mut st.full_bits, i, false);
            [old, 0]
        }
    }
}

/// Issue a read from `node`; fulfills `comp` with `[value, full_bit]`.
pub(crate) fn issue_read(st: &mut State, node: usize, addr: Addr, comp: Completion) {
    let line = st.line_of(addr);
    // DSM cost model: no caching, so every access to a remotely-homed
    // word is a remote memory reference, hit or miss.
    if st.home_of(line) != node {
        st.stats.rmr_dsm[node] += 1;
    }
    if st.dir[line.idx()]
        .cached(&st.dir_spill, node as u16)
        .is_some()
    {
        // Local hit: our copy is valid, so the authoritative arrays agree
        // with it (any remote write would have invalidated us first).
        let v = st.mem[addr.0 as usize];
        let f = bit(&st.full_bits, addr.0 as usize) as u64;
        let t = st.now + st.cost.cache_hit;
        st.schedule_complete(t, comp, [v, f]);
        return;
    }
    st.stats.remote_misses += 1;
    // CC cost model: a coherence miss crosses the interconnect.
    st.stats.rmr_cc[node] += 1;
    let home = st.home_of(line);
    let arrive = st.now + net::latency(st, node, home);
    let idx = st.put_coh(CohReq {
        addr,
        line,
        from: node as u16,
        kind: ReqKind::Read,
        comp,
    });
    st.schedule(arrive, Ev::DirArrive(home as u32, idx));
}

/// Issue a read-modify-write from `node`; fulfills `comp` with the
/// op-specific result pair.
pub(crate) fn issue_own(st: &mut State, node: usize, addr: Addr, op: RmwOp, comp: Completion) {
    let line = st.line_of(addr);
    // DSM model: see `issue_read`.
    if st.home_of(line) != node {
        st.stats.rmr_dsm[node] += 1;
    }
    // Only the owner holds the line exclusively.
    if st.dir[line.idx()].owner == node as u16 {
        // Exclusive hit: mutate in place. No other node can hold a valid
        // copy, but bump the version anyway so any in-flight watcher
        // re-checks rather than sleeping on a stale epoch.
        let res = apply(st, addr, op);
        let t = st.now + st.cost.cache_hit;
        st.touch_line(line, t);
        st.schedule_complete(t, comp, res);
        return;
    }
    st.stats.remote_misses += 1;
    // CC model: see `issue_read`.
    st.stats.rmr_cc[node] += 1;
    let home = st.home_of(line);
    let arrive = st.now + net::latency(st, node, home);
    let idx = st.put_coh(CohReq {
        addr,
        line,
        from: node as u16,
        kind: ReqKind::Own(op),
        comp,
    });
    st.schedule(arrive, Ev::DirArrive(home as u32, idx));
}

/// The in-flight request `coh_slab[idx]` arrived at `node`'s
/// directory queue.
pub(crate) fn dir_arrive(st: &mut State, node: usize, idx: u32) {
    let d = &mut st.dirs[node];
    d.q.push_back(idx);
    if !d.scheduled {
        d.scheduled = true;
        let at = st.now.max(d.busy);
        st.schedule(at, Ev::DirService(node as u32));
    }
}

/// Service the next queued request at `node`'s directory.
pub(crate) fn dir_service(st: &mut State, node: usize) {
    st.dirs[node].scheduled = false;
    let Some(idx) = st.dirs[node].q.pop_front() else {
        return;
    };
    let req = st.take_coh(idx);
    let from = req.from as usize;
    st.stats.dir_requests += 1;
    let t0 = st.now;
    let li = req.line.idx();
    // The entry is edited in place: the directory is serially occupied,
    // so nothing else touches it meanwhile, and a spilled sharer list
    // stays in its slab slot. (A whole-entry copy out and back in costs
    // a store-forwarding stall on every request.)
    let mut owner = st.dir[li].owner;

    let grant_t;
    let result;
    match req.kind {
        ReqKind::Read => {
            let mut t = t0 + st.cost.dir_service;
            if owner != NO_OWNER && owner != req.from {
                // Fetch/downgrade the remote owner to shared. (A reading
                // owner raced with itself and is just granted.) An owner
                // is never on the sharer list, so it joins it.
                let o = owner as usize;
                t += st.cost.owner_fetch + 2 * net::latency(st, node, o);
                debug_assert!(!st.dir[li].is_sharer(&st.dir_spill, owner));
                st.dir[li].push(&mut st.dir_spill, owner);
                owner = NO_OWNER;
            }
            if owner != req.from && !st.dir[li].is_sharer(&st.dir_spill, req.from) {
                st.dir[li].push(&mut st.dir_spill, req.from);
            }
            if !st.full_map && st.dir[li].len() > HW_PTRS {
                st.dir[li].set_extended(true);
                st.stats.limitless_traps += 1;
                t += st.cost.limitless_trap;
            }
            let v = st.mem[req.addr.0 as usize];
            let f = bit(&st.full_bits, req.addr.0 as usize) as u64;
            result = [v, f];
            grant_t = t;
        }
        ReqKind::Own(op) => {
            let mut t = t0 + st.cost.dir_service;
            if st.dir[li].extended() && !st.full_map {
                st.stats.limitless_traps += 1;
                t += st.cost.limitless_trap;
            }
            if owner != NO_OWNER && owner != req.from {
                // Invalidate the remote exclusive owner.
                t += st.cost.owner_fetch + 2 * net::latency(st, node, owner as usize);
                st.stats.invalidations += 1;
            }
            // Sequentially invalidate every other sharer; the grant waits
            // for the last acknowledgement.
            st.dir[li].retain(&mut st.dir_spill, |&s| s != req.from);
            let mut last_ack = t;
            let sharers = st.dir[li].sharers(&st.dir_spill);
            for (i, &s) in sharers.iter().enumerate() {
                let issue_at = t + (i as u64 + 1) * st.cost.inval_issue;
                let ack_at = issue_at + 2 * net::latency(st, node, s as usize);
                last_ack = last_ack.max(ack_at);
            }
            st.stats.invalidations += sharers.len() as u64;
            t += sharers.len() as u64 * st.cost.inval_issue;
            grant_t = t.max(last_ack);
            result = apply(st, req.addr, op);
            owner = req.from;
            let e = &mut st.dir[li];
            e.clear(&mut st.dir_spill);
            e.set_extended(false);
            // Wake read-pollers once the line has settled: they will
            // re-read (missing, since their copies were just invalidated)
            // and serialize at this directory, reproducing the
            // invalidate-and-refetch storm of §3.1.1.
            st.touch_line(req.line, grant_t);
        }
    }

    st.dir[li].owner = owner;
    let reply_at = grant_t + net::latency(st, node, from);
    st.stats.net_msgs += 2;
    let d = &mut st.dirs[node];
    d.busy = grant_t;
    let more = !d.q.is_empty();
    if more {
        d.scheduled = true;
    }
    st.schedule_complete(reply_at, req.comp, result);
    if more {
        st.schedule(grant_t, Ev::DirService(node as u32));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Random push / retain / clear / ownership sequences on a few
    /// entries sharing one spill slab, checked after every step against
    /// a model per entry (a `Vec<u16>` of sharers, an owner and the
    /// extended bit): same sharers in the same order, same extended bit,
    /// the same derived cache state for every id, and a slab that never
    /// holds more slots than were ever spilled at once.
    fn sharers_match_a_vec(ids: u16, seed: u64) {
        const LINES: usize = 4;
        let mut rng = seed;
        let mut below = |n: u16| crate::rng::below(&mut rng, n as u64) as u16;
        let mut spill = DirSpill::new(ids as usize);
        let mut dir = [DirEntry::EMPTY; LINES];
        let mut model: [(Vec<u16>, u16, bool); LINES] =
            std::array::from_fn(|_| (Vec::new(), NO_OWNER, false));
        let (mut peak, mut crossings) = (0, [0usize; 2]);
        for _ in 0..4_000 {
            let l = below(LINES as u16) as usize;
            let (e, (want, owner, ext)) = (&mut dir[l], &mut model[l]);
            let was_spilled = want.len() > HW_PTRS;
            match below(22) {
                // One new sharer: the protocol never lists a node twice,
                // nor lists the owner.
                0..=10 => {
                    let s = below(ids);
                    if !want.contains(&s) && s != *owner {
                        e.push(&mut spill, s);
                        want.push(s);
                    }
                }
                // Every missing id, so the list reaches `ids`.
                11 => {
                    for s in 0..ids {
                        if !want.contains(&s) && s != *owner {
                            e.push(&mut spill, s);
                            want.push(s);
                        }
                    }
                }
                // A kill: the dead node leaves the list and the owner slot.
                12 | 13 => {
                    let s = below(ids);
                    e.retain(&mut spill, |&x| x != s);
                    want.retain(|&x| x != s);
                    if e.owner == s {
                        e.owner = NO_OWNER;
                        *owner = NO_OWNER;
                    }
                }
                // A write: the writer drops off the list, the rest are
                // invalidated, and the writer owns the line.
                14 => {
                    let s = below(ids);
                    e.retain(&mut spill, |&x| x != s);
                    e.clear(&mut spill);
                    e.owner = s;
                    want.clear();
                    *owner = s;
                }
                // A read fetches the owner's copy: it becomes a sharer.
                15 => {
                    if *owner != NO_OWNER {
                        e.push(&mut spill, *owner);
                        want.push(*owner);
                        e.owner = NO_OWNER;
                        *owner = NO_OWNER;
                    }
                }
                // Drop most of the list at once.
                16 | 17 => {
                    let m = below(4) + 2;
                    e.retain(&mut spill, |&x| x % m == 0);
                    want.retain(|&x| x % m == 0);
                }
                18 => {
                    e.clear(&mut spill);
                    want.clear();
                }
                _ => {
                    *ext = below(2) == 1;
                    e.set_extended(*ext);
                }
            }
            let spilled = want.len() > HW_PTRS;
            if spilled != was_spilled {
                crossings[spilled as usize] += 1;
            }
            assert_eq!(e.sharers(&spill), &want[..]);
            assert_eq!(e.len(), want.len());
            assert_eq!(e.extended(), *ext);
            let mut listed = vec![false; ids as usize];
            for &s in want.iter() {
                listed[s as usize] = true;
            }
            for s in 0..ids {
                let held = if s == *owner {
                    Some(CacheState::Exclusive)
                } else if listed[s as usize] {
                    Some(CacheState::Shared)
                } else {
                    None
                };
                assert_eq!(e.cached(&spill, s), held, "id {s}");
            }
            let now = model.iter().filter(|(w, ..)| w.len() > HW_PTRS).count();
            peak = peak.max(now);
            assert_eq!(spill.slots.len(), peak, "a freed slot is reused first");
            assert_eq!(spill.bits.len(), peak * spill.words);
            assert_eq!(spill.free.len(), peak - now);
        }
        assert!(crossings[0] > 10 && crossings[1] > 10, "{crossings:?}");
    }

    #[test]
    fn sharers_match_a_vec_across_the_pointer_limit() {
        for ids in [6, 64, 300] {
            for seed in 1..=5 {
                sharers_match_a_vec(ids, seed);
            }
        }
    }
}
