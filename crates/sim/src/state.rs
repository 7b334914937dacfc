//! The master simulation state shared (via `Rc<RefCell<_>>`) between the
//! executor, the coherence engine, the message engine, and the thread
//! runtime.
//!
//! Hot-path layout: everything keyed by cache line is stored in dense
//! `Vec` arenas indexed by [`LineId`] (lines are interned at allocation
//! time, so ids are contiguous from 0), and the event queue is a
//! bucketed calendar queue ([`EventQueue`], `EVENT_WINDOW` cycles
//! wide). No `HashMap` sits on the per-event or per-memory-op path.
//!
//! A line costs the same whatever the node count: its four words, one
//! full/empty bit per word, a home, a version, a 14-byte directory entry
//! and a watcher list — about 66 bytes. No table is kept per (line,
//! node): which nodes cache a line is read off its directory entry.

use std::collections::VecDeque;

use crate::coherence::{CohReq, DirEntry, DirSpill};
use crate::cost::CostModel;
use crate::exec::{BoxFut, Completion, Ev, TaskId};
use crate::fault::FaultEvent;
use crate::msg::{ActiveMsg, HandlerFn};
use crate::queue::{EventEntry, EventQueue};
use crate::stats::Stats;
use crate::thread::{NodeSched, WaitQueue};

/// Width of the simulator's event-queue window in cycles. Sized for
/// cache residency of the bucket head/tail table (2 KiB): the bulk of
/// simulator events land within a few dozen cycles of `now`, and the
/// occasional long delay (blocking ≈ 465 cycles, think loops ≈ 500)
/// rides the overflow heap instead.
const EVENT_WINDOW: usize = 256;

/// A word address in simulated globally-shared memory.
///
/// Addresses are word-granular; the unit of coherence is the *line*
/// (four consecutive words). Use [`Addr::plus`] to address into an
/// allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub u64);

/// Words per cache line (Alewife's four-word line); a power of two, so
/// dividing by it compiles to one shift.
pub(crate) const LINE_WORDS: u64 = 4;
/// Hardware directory pointers per line; a read that would track more
/// sharers takes a LimitLESS software trap unless the machine models a
/// full-map directory.
pub(crate) const HW_PTRS: usize = 5;

impl Addr {
    /// The address `words` words past `self`.
    pub fn plus(self, words: u64) -> Addr {
        Addr(self.0 + words)
    }
}

/// Dense identifier of a cache line. Allocation hands out lines
/// contiguously from 0, so a `LineId` indexes the per-line arenas
/// (`line_home`, `line_ver`, `dir`, `watchers`) directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct LineId(pub u32);

impl LineId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Task table entry: every task is a scheduler-managed thread. The
/// pollable future lives in the parallel `State::futs` vector so the
/// per-event poll touches only that row.
#[derive(Debug)]
pub(crate) struct ThreadInfo {
    pub node: usize,
    /// Completion the thread awaits while it is off the processor.
    pub resume: Option<Completion>,
    /// Whether the thread's registers are resident in a hardware context.
    pub loaded: bool,
}

/// One node's serially-occupied engine (directory or message handler):
/// its input queue, the time it is busy until, and whether a service
/// event is pending. One struct per node keeps all three on the same
/// cache line.
#[derive(Default)]
pub(crate) struct Engine {
    pub q: VecDeque<u32>,
    pub busy: u64,
    pub scheduled: bool,
}

/// End of a watcher chain.
const NIL: u32 = u32::MAX;

/// The tasks watching one line, oldest first: a FIFO threaded through
/// the shared [`WatchSlab`], 8 bytes and no heap buffer per line. The
/// links live in the slab's nodes rather than one per task because a
/// task can be on one line's list twice (a deadline exit leaves its
/// entry behind and a stale wake then registers again) and on two
/// lines' lists at once, and each entry is one wake event.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WatchList {
    head: u32,
    tail: u32,
}

const _: () = assert!(size_of::<WatchList>() == 8);

impl WatchList {
    pub const EMPTY: WatchList = WatchList {
        head: NIL,
        tail: NIL,
    };

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

/// The `(task, next)` nodes of every line's [`WatchList`]; free nodes are
/// chained from `free` through the same `next` field.
pub(crate) struct WatchSlab {
    pub nodes: Vec<(u32, u32)>,
    free: u32,
}

impl Default for WatchSlab {
    fn default() -> Self {
        WatchSlab {
            nodes: Vec::new(),
            free: NIL,
        }
    }
}

impl WatchSlab {
    /// Append `tid` to `list`.
    #[inline]
    pub fn push(&mut self, list: &mut WatchList, tid: TaskId) {
        assert!(tid.0 < NIL as usize, "task id overflows a watcher node");
        let node = (tid.0 as u32, NIL);
        let i = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].1;
            self.nodes[i as usize] = node;
            i
        };
        if list.head == NIL {
            list.head = i;
        } else {
            self.nodes[list.tail as usize].1 = i;
        }
        list.tail = i;
    }

    /// The tasks on `list`, oldest first.
    #[inline]
    pub fn iter(&self, list: WatchList) -> impl Iterator<Item = TaskId> + '_ {
        let mut i = list.head;
        std::iter::from_fn(move || {
            if i == NIL {
                return None;
            }
            let (t, next) = self.nodes[i as usize];
            i = next;
            Some(TaskId(t as usize))
        })
    }

    /// Empty `list`: its whole chain joins the free chain in one splice.
    #[inline]
    pub fn clear(&mut self, list: &mut WatchList) {
        if !list.is_empty() {
            self.nodes[list.tail as usize].1 = self.free;
            self.free = list.head;
            *list = WatchList::EMPTY;
        }
    }

    /// Drop the tasks `keep` rejects from `list`; survivors keep their
    /// order.
    pub fn retain(&mut self, list: &mut WatchList, mut keep: impl FnMut(TaskId) -> bool) {
        let mut kept = WatchList::EMPTY;
        let mut i = list.head;
        while i != NIL {
            let (t, next) = self.nodes[i as usize];
            if keep(TaskId(t as usize)) {
                if kept.head == NIL {
                    kept.head = i;
                } else {
                    self.nodes[kept.tail as usize].1 = i;
                }
                kept.tail = i;
            } else {
                self.nodes[i as usize].1 = self.free;
                self.free = i;
            }
            i = next;
        }
        if !kept.is_empty() {
            self.nodes[kept.tail as usize].1 = NIL;
        }
        *list = kept;
    }
}

/// Cap on pooled [`Completion`] allocations (see
/// [`State::recycle_completion`]).
const COMP_POOL_CAP: usize = 256;

/// Slab of RPCs awaiting replies, keyed by generation-tagged tokens so
/// the reply path is a bounds-checked index instead of a `HashMap`
/// probe (the PR 2 arena invariant: no hash maps on the per-message
/// path).
///
/// A token packs `(generation << 32) | (slot + 1)`; the `+ 1` keeps the
/// raw value nonzero so `ReplyToken(0)` stays the "no token" sentinel.
/// The generation is bumped on every removal, so a stale token (already
/// replied) misses rather than aliasing a recycled slot.
#[derive(Default)]
pub(crate) struct RpcSlab {
    slots: Vec<(u32, Option<(Completion, usize)>)>,
    free: Vec<u32>,
}

impl RpcSlab {
    /// Register a pending RPC; returns its raw (nonzero) token value.
    pub fn insert(&mut self, val: (Completion, usize)) -> u64 {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push((0, None));
                (self.slots.len() - 1) as u32
            }
        };
        let entry = &mut self.slots[slot as usize];
        debug_assert!(entry.1.is_none());
        entry.1 = Some(val);
        ((entry.0 as u64) << 32) | (slot as u64 + 1)
    }

    /// Complete the RPC for `token`; `None` if unknown or already
    /// replied.
    pub fn remove(&mut self, token: u64) -> Option<(Completion, usize)> {
        let slot = ((token & 0xffff_ffff) as u32).checked_sub(1)?;
        let entry = self.slots.get_mut(slot as usize)?;
        if entry.0 as u64 != token >> 32 {
            return None;
        }
        let val = entry.1.take()?;
        entry.0 = entry.0.wrapping_add(1);
        self.free.push(slot);
        Some(val)
    }
}

pub(crate) struct State {
    // --- configuration ---
    pub nodes_n: usize,
    pub cost: CostModel,
    pub full_map: bool,
    /// Per-node mesh coordinates, precomputed so the network-latency
    /// hot path never divides.
    pub coords: Vec<(u16, u16)>,

    // --- executor ---
    pub now: u64,
    pub seq: u64,
    pub events: EventQueue<Ev, EVENT_WINDOW>,
    pub tasks: Vec<Option<ThreadInfo>>,
    /// `futs[tid]` is the task's future, taken out while it runs.
    pub futs: Vec<Option<BoxFut>>,
    pub free_tasks: Vec<usize>,
    pub current_task: Option<TaskId>,
    pub live_tasks: usize,
    /// Recycled one-shot completions (cuts per-operation `Rc` churn).
    pub comp_pool: Vec<Completion>,
    /// In-flight coherence requests; `Ev::DirArrive` carries an index
    /// here so events stay 16 bytes.
    pub coh_slab: Vec<Option<CohReq>>,
    pub coh_free: Vec<u32>,
    /// In-flight active messages; `Ev::MsgArrive` carries an index here.
    pub msg_slab: Vec<Option<ActiveMsg>>,
    pub msg_free: Vec<u32>,

    // --- shared memory & coherence (dense per-line arenas) ---
    pub mem: Vec<u64>,
    /// One full/empty bit per word of `mem` (see [`bit`]).
    pub full_bits: Vec<u64>,
    pub next_word: u64,
    pub line_home: Vec<u32>,
    pub line_ver: Vec<u64>,
    pub dir: Vec<DirEntry>,
    /// Sharer lists of the lines with more than `HW_PTRS` sharers.
    pub dir_spill: DirSpill,
    pub dirs: Vec<Engine>,
    pub watchers: Vec<WatchList>,
    /// The nodes every line's watcher list runs through.
    pub watch_nodes: WatchSlab,

    // --- active messages ---
    /// `handlers[node][port]` — flat per-node dispatch table.
    pub handlers: Vec<Vec<Option<HandlerFn>>>,
    pub msgs: Vec<Engine>,
    pub rpc_pending: RpcSlab,

    // --- thread runtime ---
    pub scheds: Vec<NodeSched>,
    pub wait_queues: Vec<WaitQueue>,
    /// `wait_link[tid]` is the thread queued behind `tid` on the one
    /// wait queue it is blocked on (grown when a task id first blocks).
    pub wait_link: Vec<u32>,

    // --- fault injection ---
    /// Per-node liveness; killed nodes stay dead until a recovery.
    pub alive: Vec<bool>,
    /// Per-node abort epoch, bumped by abort signals; abortable waits
    /// snapshot it and give up when it moves.
    pub abort_epoch: Vec<u64>,
    /// Per-node recovery thread factories (see `Machine::on_recovery`).
    pub recovery: Vec<Option<RecoveryFn>>,
    /// Log of fault actions that actually fired, in order.
    pub fault_log: Vec<FaultEvent>,

    // --- misc ---
    pub rng: u64,
    pub stats: Stats,
}

/// Factory producing a fresh recovery future each time its node
/// recovers from a kill.
pub(crate) type RecoveryFn = Box<dyn Fn() -> BoxFut>;

/// Bit `i` of a bitset kept as `u64` words.
#[inline]
pub(crate) fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 != 0
}

/// Set or clear bit `i` of a bitset kept as `u64` words.
#[inline]
pub(crate) fn set_bit(words: &mut [u64], i: usize, on: bool) {
    let m = 1 << (i % 64);
    if on {
        words[i / 64] |= m;
    } else {
        words[i / 64] &= !m;
    }
}

/// Grow an arena to `len` entries of `fill`. With `exact` it is
/// reallocated at most once, to exactly `len` (a batch of allocations);
/// without, `Vec`'s doubling keeps one-at-a-time growth amortised.
pub(crate) fn grow<T: Clone>(v: &mut Vec<T>, len: usize, fill: T, exact: bool) {
    if exact {
        v.reserve_exact(len.saturating_sub(v.len()));
    }
    v.resize(len, fill);
}

impl State {
    pub fn new(nodes: usize, cost: CostModel, full_map: bool, seed: u64) -> State {
        State {
            nodes_n: nodes,
            cost,
            full_map,
            coords: crate::net::coords_for(nodes),
            now: 0,
            seq: 0,
            events: EventQueue::new(),
            tasks: Vec::new(),
            futs: Vec::new(),
            free_tasks: Vec::new(),
            current_task: None,
            live_tasks: 0,
            comp_pool: Vec::new(),
            coh_slab: Vec::new(),
            coh_free: Vec::new(),
            msg_slab: Vec::new(),
            msg_free: Vec::new(),
            mem: Vec::new(),
            full_bits: Vec::new(),
            next_word: 0,
            line_home: Vec::new(),
            line_ver: Vec::new(),
            dir: Vec::new(),
            dir_spill: DirSpill::new(nodes),
            dirs: (0..nodes).map(|_| Engine::default()).collect(),
            watchers: Vec::new(),
            watch_nodes: WatchSlab::default(),
            handlers: (0..nodes).map(|_| Vec::new()).collect(),
            msgs: (0..nodes).map(|_| Engine::default()).collect(),
            rpc_pending: RpcSlab::default(),
            scheds: (0..nodes).map(|_| NodeSched::default()).collect(),
            wait_queues: Vec::new(),
            wait_link: Vec::new(),
            alive: vec![true; nodes],
            abort_epoch: vec![0; nodes],
            recovery: (0..nodes).map(|_| None).collect(),
            fault_log: Vec::new(),
            rng: if seed == 0 { 1 } else { seed },
            stats: Stats::new(nodes),
        }
    }

    /// Enqueue `ev` to fire at absolute virtual time `at` (>= now).
    #[inline]
    pub fn schedule(&mut self, at: u64, ev: Ev) {
        let at = at.max(self.now);
        self.seq += 1;
        self.events.push(EventEntry {
            time: at,
            seq: self.seq,
            ev,
        });
    }

    /// Schedule a completion event: the result value is stashed in the
    /// completion now; the event merely sets the done flag at `at` and
    /// polls the waiter.
    #[inline]
    pub fn schedule_complete(&mut self, at: u64, c: Completion, v: [u64; 2]) {
        c.set_value(v);
        self.schedule(at, Ev::Complete(c));
    }

    /// Park an in-flight coherence request; the returned index rides in
    /// the `DirArrive` event.
    #[inline]
    pub fn put_coh(&mut self, req: CohReq) -> u32 {
        match self.coh_free.pop() {
            Some(i) => {
                self.coh_slab[i as usize] = Some(req);
                i
            }
            None => {
                self.coh_slab.push(Some(req));
                (self.coh_slab.len() - 1) as u32
            }
        }
    }

    /// Reclaim an in-flight coherence request.
    pub fn take_coh(&mut self, idx: u32) -> CohReq {
        let req = self.coh_slab[idx as usize]
            .take()
            .expect("coherence slab index taken twice");
        self.coh_free.push(idx);
        req
    }

    /// Park an in-flight active message (see [`State::put_coh`]).
    pub fn put_msg(&mut self, msg: ActiveMsg) -> u32 {
        match self.msg_free.pop() {
            Some(i) => {
                self.msg_slab[i as usize] = Some(msg);
                i
            }
            None => {
                self.msg_slab.push(Some(msg));
                (self.msg_slab.len() - 1) as u32
            }
        }
    }

    /// Reclaim an in-flight active message.
    pub fn take_msg(&mut self, idx: u32) -> ActiveMsg {
        let msg = self.msg_slab[idx as usize]
            .take()
            .expect("message slab index taken twice");
        self.msg_free.push(idx);
        msg
    }

    /// Pop a pooled completion (or allocate one). Pair with
    /// [`State::recycle_completion`] at the completion's single-owner
    /// point to avoid a fresh `Rc` per operation.
    pub fn new_completion(&mut self) -> Completion {
        match self.comp_pool.pop() {
            Some(c) => {
                c.reset();
                c
            }
            None => Completion::new(),
        }
    }

    /// Return a completion to the pool if nothing else still holds it.
    pub fn recycle_completion(&mut self, c: Completion) {
        if c.is_unique() && self.comp_pool.len() < COMP_POOL_CAP {
            self.comp_pool.push(c);
        }
    }

    #[inline]
    pub fn line_of(&self, addr: Addr) -> LineId {
        LineId((addr.0 / LINE_WORDS) as u32)
    }

    pub fn home_of(&self, line: LineId) -> usize {
        self.line_home
            .get(line.idx())
            .map_or(line.idx() % self.nodes_n, |&h| h as usize)
    }

    /// Allocate `words` words of shared memory whose lines are homed on
    /// `node`. Always starts on a fresh line so distinct allocations never
    /// exhibit false sharing with each other. Interns the new lines:
    /// every per-line arena is grown to cover them.
    #[cold]
    pub fn alloc_on(&mut self, node: usize, words: u64) -> Addr {
        assert!(node < self.nodes_n, "alloc_on: node out of range");
        self.alloc_blocks(1, words, false, |_| node).0
    }

    /// `n` allocations of `words` words, allocation `i` homed on node
    /// `i % nodes`: the addresses, lines and homes of `n` successive
    /// [`State::alloc_on`] calls, with every arena grown once, to its
    /// exact new size. Returns the first address and the stride.
    #[cold]
    pub fn alloc_striped(&mut self, n: usize, words: u64) -> (Addr, u64) {
        let nodes = self.nodes_n;
        self.alloc_blocks(n, words, true, |i| i % nodes)
    }

    /// `n` line-aligned blocks of `words` words, block `i` homed on
    /// `home(i)`. `exact` reserves each arena's new size up front; a
    /// single allocation keeps `Vec`'s amortised doubling instead.
    fn alloc_blocks(
        &mut self,
        n: usize,
        words: u64,
        exact: bool,
        home: impl Fn(usize) -> usize,
    ) -> (Addr, u64) {
        assert!(words > 0, "alloc: zero-sized allocation");
        let lw = LINE_WORDS;
        let lines_each = words.div_ceil(lw);
        // Round up to a line boundary.
        let base = self.next_word.next_multiple_of(lw);
        if n == 0 {
            return (Addr(base), lines_each * lw);
        }
        self.next_word = base + n as u64 * lines_each * lw;
        let words_total = self.next_word as usize;
        let lines_total = words_total / lw as usize;
        grow(&mut self.mem, words_total, 0, exact);
        grow(&mut self.full_bits, words_total.div_ceil(64), 0, exact);
        let first_line = (base / lw) as usize;
        grow(&mut self.line_home, lines_total, 0, exact);
        for (i, homes) in self.line_home[first_line..]
            .chunks_exact_mut(lines_each as usize)
            .enumerate()
        {
            homes.fill(home(i) as u32);
        }
        grow(&mut self.line_ver, lines_total, 0, exact);
        grow(&mut self.dir, lines_total, DirEntry::EMPTY, exact);
        grow(&mut self.watchers, lines_total, WatchList::EMPTY, exact);
        (Addr(base), lines_each * lw)
    }

    /// Register `tid` to be woken by the next [`State::touch_line`] of
    /// `line`.
    #[inline]
    pub fn watch(&mut self, line: LineId, tid: TaskId) {
        self.watch_nodes.push(&mut self.watchers[line.idx()], tid);
    }

    /// Bump the line version (invalidation epoch) and wake all watchers.
    /// Watchers are woken at `wake_at` (e.g. when the invalidation would
    /// reach them) and re-check whatever condition they were watching.
    pub fn touch_line(&mut self, line: LineId, wake_at: u64) {
        self.line_ver[line.idx()] += 1;
        let list = &mut self.watchers[line.idx()];
        if !list.is_empty() {
            // The whole burst lands at one instant, so the queue appends
            // it to a single bucket in one go, oldest watcher first.
            let at = wake_at.max(self.now);
            self.seq +=
                self.events
                    .push_burst(at, self.seq, self.watch_nodes.iter(*list).map(Ev::Wake));
            self.watch_nodes.clear(list);
        }
    }

    pub fn rand_below(&mut self, bound: u64) -> u64 {
        crate::rng::below(&mut self.rng, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Ev;

    fn listed(slab: &WatchSlab, list: WatchList) -> Vec<TaskId> {
        slab.iter(list).collect()
    }

    /// Random register / touch / kill-retain sequences checked against a
    /// `Vec<Vec<TaskId>>` after every step. Few task ids over few lines,
    /// so one task sits on a list twice and on two lists at once.
    #[test]
    fn watchers_match_a_vec_per_line() {
        const LINES: usize = 5;
        for seed in 1..=20 {
            let mut rng = seed;
            let mut below = |n: u64| crate::rng::below(&mut rng, n) as usize;
            let mut slab = WatchSlab::default();
            let mut lists = [WatchList::EMPTY; LINES];
            let mut model: [Vec<TaskId>; LINES] = Default::default();
            let mut peak = 0;
            for _ in 0..2_000 {
                let l = below(LINES as u64);
                match below(10) {
                    0..=5 => {
                        let t = TaskId(below(8));
                        slab.push(&mut lists[l], t);
                        model[l].push(t);
                    }
                    6 | 7 => {
                        assert_eq!(listed(&slab, lists[l]), model[l]);
                        slab.clear(&mut lists[l]);
                        model[l].clear();
                    }
                    _ => {
                        let dead = [below(8), below(8)];
                        for (list, want) in lists.iter_mut().zip(&mut model) {
                            slab.retain(list, |t| !dead.contains(&t.0));
                            want.retain(|t| !dead.contains(&t.0));
                        }
                    }
                }
                for (list, want) in lists.iter().zip(&model) {
                    assert_eq!(listed(&slab, *list), *want);
                    assert_eq!(list.is_empty(), want.is_empty());
                }
                let live: usize = model.iter().map(Vec::len).sum();
                peak = peak.max(live);
                assert_eq!(slab.nodes.len(), peak, "a freed node is reused first");
            }
        }
    }

    #[test]
    fn touch_line_wakes_each_entry_oldest_first() {
        let mut st = State::new(2, CostModel::nwo(), false, 1);
        let a = st.alloc_on(0, LINE_WORDS);
        let b = st.alloc_on(1, LINE_WORDS);
        let (la, lb) = (st.line_of(a), st.line_of(b));
        // Task 3 twice on line a and once on line b.
        for (line, t) in [(la, 3), (lb, 3), (la, 1), (la, 3), (lb, 2)] {
            st.watch(line, TaskId(t));
        }
        let woken = |st: &mut State, line| {
            let seq = st.seq;
            st.touch_line(line, 10);
            let mut out = Vec::new();
            while let Some(e) = st.events.pop() {
                let Ev::Wake(t) = e.ev else {
                    panic!("only wakes were scheduled")
                };
                assert_eq!((e.time, e.seq), (10, seq + 1 + out.len() as u64));
                out.push(t.0);
            }
            assert_eq!(st.seq, seq + out.len() as u64);
            out
        };
        assert_eq!(woken(&mut st, la), [3, 1, 3]);
        assert_eq!(woken(&mut st, la), [0; 0]);
        assert_eq!(woken(&mut st, lb), [3, 2]);
        assert_eq!(st.line_ver[la.idx()], 2);
        // The drained nodes serve the next registrations.
        st.watch(lb, TaskId(4));
        assert_eq!(st.watch_nodes.nodes.len(), 5);
    }
}
