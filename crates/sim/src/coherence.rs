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
//! Values live in a single authoritative word array mutated at directory
//! service time (or at local exclusive hits); because a processor stalls
//! on each of its own memory operations and transactions serialize at the
//! home directory, the resulting value history is linearizable.

use crate::exec::{Completion, Ev};
use crate::net;
use crate::state::{Addr, LineId, State, HW_PTRS};

/// State of a line in a node's local cache (absence means invalid).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheState {
    /// Read-cached; other nodes may also hold copies.
    Shared,
    /// Exclusively owned (read/write hits, possibly dirty).
    Exclusive,
}

/// Sentinel for "no exclusive owner" in a directory entry.
pub(crate) const NO_OWNER: u32 = u32::MAX;

/// Directory entry for one line (compact: node ids are `u32`, owner is
/// a sentinel-coded field — the entry is shuffled on every request).
#[derive(Clone, Debug)]
pub(crate) struct DirEntry {
    pub owner: u32,
    pub sharers: Vec<u32>,
    pub extended: bool,
}

impl Default for DirEntry {
    fn default() -> Self {
        DirEntry {
            owner: NO_OWNER,
            sharers: Vec::new(),
            extended: false,
        }
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
    pub from: u32,
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
            let was = st.full_bits[i];
            st.mem[i] = v;
            st.full_bits[i] = true;
            [was as u64, 0]
        }
        RmwOp::TakeIfFull => {
            if st.full_bits[i] {
                st.full_bits[i] = false;
                [old, 1]
            } else {
                [0, 0]
            }
        }
        RmwOp::ResetEmpty => {
            st.full_bits[i] = false;
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
    if st.cache[st.cache_slot(node, line)].is_some() {
        // Local hit: our copy is valid, so the authoritative arrays agree
        // with it (any remote write would have invalidated us first).
        let v = st.mem[addr.0 as usize];
        let f = st.full_bits[addr.0 as usize] as u64;
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
        from: node as u32,
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
    if st.cache[st.cache_slot(node, line)] == Some(CacheState::Exclusive) {
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
        from: node as u32,
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
    // Take the entry's fields out of the arena (the sharer list by
    // value, so its capacity survives the round trip); the directory is
    // serially occupied, so nothing else reads the entry meanwhile.
    let mut extended = st.dir[li].extended;
    let mut owner = st.dir[li].owner;
    let mut sharers = std::mem::take(&mut st.dir[li].sharers);
    debug_assert!(from != NO_OWNER as usize);
    let from32 = req.from;

    let grant_t;
    let result;
    match req.kind {
        ReqKind::Read => {
            let mut t = t0 + st.cost.dir_service;
            if owner != NO_OWNER {
                let o = owner as usize;
                if o != from {
                    // Fetch/downgrade the remote owner to shared.
                    t += st.cost.owner_fetch + 2 * net::latency(st, node, o);
                    let slot = st.cache_slot(o, req.line);
                    // Sharer-list membership is mirrored by the cache
                    // table (`Shared` ⟺ on the list), so the duplicate
                    // check is O(1) instead of a list scan.
                    if st.cache[slot] != Some(CacheState::Shared) {
                        sharers.push(owner);
                    }
                    st.cache[slot] = Some(CacheState::Shared);
                    owner = NO_OWNER;
                } else {
                    // Reading node already owns it (raced with itself);
                    // just grant.
                }
            }
            if owner != from32 {
                let slot = st.cache_slot(from, req.line);
                if st.cache[slot] != Some(CacheState::Shared) {
                    sharers.push(from32);
                }
            }
            if !st.full_map && sharers.len() > HW_PTRS {
                if !extended {
                    extended = true;
                }
                st.stats.limitless_traps += 1;
                t += st.cost.limitless_trap;
            }
            let v = st.mem[req.addr.0 as usize];
            let f = st.full_bits[req.addr.0 as usize] as u64;
            result = [v, f];
            grant_t = t;
            if owner != from32 {
                let slot = st.cache_slot(from, req.line);
                st.cache[slot] = Some(CacheState::Shared);
            }
        }
        ReqKind::Own(op) => {
            let mut t = t0 + st.cost.dir_service;
            if extended && !st.full_map {
                st.stats.limitless_traps += 1;
                t += st.cost.limitless_trap;
            }
            if owner != NO_OWNER {
                let o = owner as usize;
                if o != from {
                    // Invalidate the remote exclusive owner.
                    t += st.cost.owner_fetch + 2 * net::latency(st, node, o);
                    let slot = st.cache_slot(o, req.line);
                    st.cache[slot] = None;
                    st.stats.invalidations += 1;
                }
            }
            // Sequentially invalidate every other sharer; the grant waits
            // for the last acknowledgement.
            sharers.retain(|&s| s != from32);
            let mut last_ack = t;
            for (i, &s) in sharers.iter().enumerate() {
                let issue_at = t + (i as u64 + 1) * st.cost.inval_issue;
                let ack_at = issue_at + 2 * net::latency(st, node, s as usize);
                last_ack = last_ack.max(ack_at);
                let slot = st.cache_slot(s as usize, req.line);
                st.cache[slot] = None;
                st.stats.invalidations += 1;
            }
            t += sharers.len() as u64 * st.cost.inval_issue;
            grant_t = t.max(last_ack);
            result = apply(st, req.addr, op);
            owner = from32;
            sharers.clear();
            extended = false;
            let slot = st.cache_slot(from, req.line);
            st.cache[slot] = Some(CacheState::Exclusive);
            // Wake read-pollers once the line has settled: they will
            // re-read (missing, since their copies were just invalidated)
            // and serialize at this directory, reproducing the
            // invalidate-and-refetch storm of §3.1.1.
            st.touch_line(req.line, grant_t);
        }
    }

    let entry = &mut st.dir[li];
    entry.owner = owner;
    entry.sharers = sharers;
    entry.extended = extended;
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
