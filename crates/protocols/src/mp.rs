//! Message-passing synchronization protocols (§3.6).
//!
//! These use the machine's atomic active-message handlers instead of
//! shared memory. Under high contention they win on communication
//! efficiency (a fetch-and-op is exactly one request + one reply); under
//! low contention the fixed send/receive overheads make them more
//! expensive than shared-memory protocols — the same contention-
//! dependent tradeoff, resolved by the reactive algorithms in
//! `reactive-core`.
//!
//! * [`MpQueueLock`] — a lock manager node queues requesters and grants
//!   the lock by (deferred) RPC reply.
//! * [`MpCounter`] — a centralized fetch-and-op: the counter lives in a
//!   manager handler; two messages per operation.
//! * [`MpCombiningTree`] — handlers relay requests up a tree of nodes,
//!   combining requests that arrive within a short window (the paper's
//!   handlers "poll the network to detect messages to combine with"; the
//!   window models that batching).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use alewife_sim::{Cpu, HandlerCtx, Machine, Port, ReplyToken};

use crate::spin::Lock;

/// Reply value used by reactive message-passing protocols to tell a
/// requester the protocol is invalid and it must re-dispatch.
pub const MP_RETRY: u64 = u64::MAX;

static NEXT_PORT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0x100);

fn fresh_port() -> Port {
    // order: Relaxed — unique-id allocation; nothing is published.
    Port(NEXT_PORT.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
}

// ---------------------------------------------------------------------
// Message-passing queue lock
// ---------------------------------------------------------------------

/// State shared by a lock manager's request/release handlers.
#[derive(Debug, Default)]
struct MpLockState {
    held: bool,
    waiters: VecDeque<u64>,
    /// Reactive protocols set this false to bounce requesters (§3.6).
    valid: bool,
}

/// A message-passing queue lock: a designated manager node maintains the
/// queue of waiting requesters in its private state and grants the lock
/// by replying to their RPCs.
#[derive(Clone, Debug)]
pub struct MpQueueLock {
    manager: usize,
    req: Port,
    rel: Port,
    chg: Port,
    state: Rc<RefCell<MpLockState>>,
}

impl MpQueueLock {
    /// Install a lock manager on `manager` and return the client handle.
    pub fn new(m: &Machine, manager: usize) -> MpQueueLock {
        Self::with_validity(m, manager, true)
    }

    /// Install a manager whose initial validity is `valid` (the invalid
    /// state is used as a consensus object by reactive algorithms).
    pub fn with_validity(m: &Machine, manager: usize, valid: bool) -> MpQueueLock {
        let state = Rc::new(RefCell::new(MpLockState {
            held: false,
            waiters: VecDeque::new(),
            valid,
        }));
        let req = fresh_port();
        let rel = fresh_port();
        let chg = fresh_port();
        {
            let state = state.clone();
            m.register_handler(manager, req, move |ctx, _args| {
                let mut s = state.borrow_mut();
                let tok = ctx.token();
                if !s.valid {
                    drop(s);
                    ctx.reply_to(tok, MP_RETRY);
                    return;
                }
                if s.held {
                    s.waiters.push_back(tok.0);
                } else {
                    s.held = true;
                    drop(s);
                    // Grant reply encodes (queued-behind-us + 1).
                    ctx.reply_to(tok, 1);
                }
            });
        }
        {
            let state = state.clone();
            m.register_handler(manager, rel, move |ctx, _args| {
                let mut s = state.borrow_mut();
                debug_assert!(s.held, "release of an unheld MP lock");
                match s.waiters.pop_front() {
                    Some(t) => {
                        let qlen = s.waiters.len() as u64;
                        drop(s);
                        ctx.reply_to(ReplyToken(t), qlen + 1);
                    }
                    None => s.held = false,
                }
            });
        }
        {
            // Protocol-change port (used by reactive algorithms, §3.6):
            // arg 0 = 0 invalidates the manager and bounces every queued
            // waiter with MP_RETRY; arg 0 = 1 validates it with the lock
            // marked held by the sender (the protocol changer holds the
            // overall lock).
            let state = state.clone();
            m.register_handler(manager, chg, move |ctx, args| {
                let mut s = state.borrow_mut();
                if args[0] == 0 {
                    s.valid = false;
                    s.held = false;
                    let ws = std::mem::take(&mut s.waiters);
                    drop(s);
                    for t in ws {
                        ctx.reply_to(ReplyToken(t), MP_RETRY);
                    }
                } else {
                    s.valid = true;
                    s.held = true;
                }
            });
        }
        MpQueueLock {
            manager,
            req,
            rel,
            chg,
            state,
        }
    }

    /// Ask the manager to invalidate itself, bouncing queued waiters.
    /// Only the current lock holder may do this (protocol change).
    pub async fn invalidate_via(&self, cpu: &Cpu) {
        cpu.send(self.manager, self.chg, [0, 0, 0, 0]).await;
    }

    /// Ask the manager to become valid with the lock held by the caller
    /// (the target half of a protocol change).
    pub async fn validate_held_via(&self, cpu: &Cpu) {
        cpu.send(self.manager, self.chg, [1, 0, 0, 0]).await;
    }

    /// Grant-time queue length monitoring: acquire and also report how
    /// many waiters were queued behind us at grant time. `None` when
    /// bounced (invalid manager).
    pub async fn try_acquire_with_qlen(&self, cpu: &Cpu) -> Option<u64> {
        let r = cpu.rpc(self.manager, self.req, [1, 0, 0, 0]).await;
        if r == MP_RETRY {
            None
        } else {
            Some(r - 1)
        }
    }

    /// Mark the manager invalid so requesters get [`MP_RETRY`]. Must be
    /// called from a protocol-change critical section (holding the
    /// lock), which guarantees the waiter queue is quiescent.
    pub fn invalidate(&self) {
        let mut s = self.state.borrow_mut();
        s.valid = false;
    }

    /// Mark the manager valid again (target of a protocol change).
    pub fn validate(&self) {
        self.state.borrow_mut().valid = true;
    }

    /// Acquire; returns `false` if the manager bounced us (invalid).
    pub async fn try_acquire(&self, cpu: &Cpu) -> bool {
        cpu.rpc(self.manager, self.req, [0; 4]).await != MP_RETRY
    }
}

impl Lock for MpQueueLock {
    type Token = ();

    async fn acquire(&self, cpu: &Cpu) {
        let granted = self.try_acquire(cpu).await;
        assert!(granted, "passive MpQueueLock bounced a requester");
    }

    async fn release(&self, cpu: &Cpu, _t: ()) {
        cpu.send(self.manager, self.rel, [0; 4]).await;
    }
}

// ---------------------------------------------------------------------
// Centralized message-passing fetch-and-op
// ---------------------------------------------------------------------

/// Centralized message-passing fetch-and-op: the counter lives at the
/// manager; each operation is one request and one reply (the theoretical
/// minimum, §3.6).
#[derive(Clone, Debug)]
pub struct MpCounter {
    manager: usize,
    port: Port,
    chg: Port,
    value: Rc<RefCell<u64>>,
}

impl MpCounter {
    /// Install the counter handler on `manager`.
    pub fn new(m: &Machine, manager: usize) -> MpCounter {
        Self::with_validity(m, manager, true)
    }

    /// Install with explicit initial validity (for reactive selection).
    pub fn with_validity(m: &Machine, manager: usize, valid: bool) -> MpCounter {
        let value = Rc::new(RefCell::new(0u64));
        let valid_flag = Rc::new(RefCell::new(valid));
        let port = fresh_port();
        let chg = fresh_port();
        {
            let value = value.clone();
            let valid_flag = valid_flag.clone();
            m.register_handler(manager, port, move |ctx, args| {
                let tok = ctx.token();
                if !*valid_flag.borrow() {
                    ctx.reply_to(tok, MP_RETRY);
                    return;
                }
                let mut v = value.borrow_mut();
                let old = *v;
                *v = v.wrapping_add(args[0]);
                drop(v);
                ctx.reply_to(tok, old);
            });
        }
        {
            // Protocol-change port: handlers are atomic, so the change
            // serializes against every pending operation (the handler IS
            // the consensus object, §3.6). arg0 = 0: invalidate and
            // reply the final value; arg0 = 1: validate with value arg1.
            let value = value.clone();
            let valid_flag = valid_flag.clone();
            m.register_handler(manager, chg, move |ctx, args| {
                let tok = ctx.token();
                if args[0] == 0 || args[0] == 2 {
                    // arg0 = 2 is the *conditional* invalidate: the
                    // handler is the consensus object, so concurrent
                    // changers arbitrate here — a loser (counter
                    // already invalid) is bounced with MP_RETRY.
                    if args[0] == 2 && !*valid_flag.borrow() {
                        ctx.reply_to(tok, MP_RETRY);
                        return;
                    }
                    *valid_flag.borrow_mut() = false;
                    ctx.reply_to(tok, *value.borrow());
                } else {
                    *value.borrow_mut() = args[1];
                    *valid_flag.borrow_mut() = true;
                    ctx.reply_to(tok, 1);
                }
            });
        }
        MpCounter {
            manager,
            port,
            chg,
            value,
        }
    }

    /// Atomically invalidate the counter via its handler, returning the
    /// final value (protocol change, first half).
    pub async fn invalidate_via(&self, cpu: &Cpu) -> u64 {
        cpu.rpc(self.manager, self.chg, [0, 0, 0, 0]).await
    }

    /// Conditionally invalidate: wins (and returns the final value)
    /// only if the counter was still valid — the handler arbitrates
    /// between concurrent protocol changers. `None` = lost the race.
    pub async fn try_invalidate_via(&self, cpu: &Cpu) -> Option<u64> {
        match cpu.rpc(self.manager, self.chg, [2, 0, 0, 0]).await {
            MP_RETRY => None,
            v => Some(v),
        }
    }

    /// Atomically validate the counter with `value` (change, 2nd half).
    pub async fn validate_via(&self, cpu: &Cpu, value: u64) {
        cpu.rpc(self.manager, self.chg, [1, value, 0, 0]).await;
    }

    /// Current value (host-side inspection / protocol-change transfer).
    pub fn value(&self) -> u64 {
        *self.value.borrow()
    }

    /// Set the value (protocol-change transfer).
    pub fn set_value(&self, v: u64) {
        *self.value.borrow_mut() = v;
    }

    /// One operation; `Err(())` means the manager bounced us (invalid).
    pub async fn try_fetch_add(&self, cpu: &Cpu, delta: u64) -> Result<u64, ()> {
        let r = cpu.rpc(self.manager, self.port, [delta, 0, 0, 0]).await;
        if r == MP_RETRY {
            Err(())
        } else {
            Ok(r)
        }
    }
}

impl crate::fetch_op::FetchOp for MpCounter {
    async fn fetch_add(&self, cpu: &Cpu, delta: u64) -> u64 {
        self.try_fetch_add(cpu, delta)
            .await
            .expect("passive MpCounter bounced a requester")
    }
}

// ---------------------------------------------------------------------
// Message-passing combining tree
// ---------------------------------------------------------------------

/// A batch entry: either a waiting RPC requester or a child node's
/// forwarded batch.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Rpc(u64),
    Child { idx: usize, batch: u64 },
}

#[derive(Debug, Default)]
struct MpTreeNode {
    pending_sum: u64,
    pending: Vec<(Entry, u64)>,
    flushing: bool,
    next_batch: u64,
    inflight: Vec<(u64, Vec<(Entry, u64)>)>,
}

/// Cycles a node waits for combinable partners before forwarding.
const COMBINE_WINDOW: u64 = 40;

/// Flush-marker sentinel in `args[1]`.
const FLUSH: u64 = u64::MAX;

/// A message-passing combining tree for fetch-and-add: a binary tree of
/// handler nodes mapped onto processors. Requests arriving at a node
/// within a combining window are merged and forwarded as one; the root
/// handler owns the counter and results fan back down.
#[derive(Clone, Debug)]
pub struct MpCombiningTree {
    /// `(node, request-port, result-port)` per heap index; index 0 unused.
    places: Rc<Vec<(usize, Port, Port)>>,
    leaves: usize,
    counter: Rc<RefCell<u64>>,
    chg: Port,
}

impl MpCombiningTree {
    /// Build a tree with one leaf per processor (rounded up to a power
    /// of two); the counter lives at the root handler on `root_node`.
    pub fn new(m: &Machine, root_node: usize, procs: usize) -> MpCombiningTree {
        Self::with_validity(m, root_node, procs, true)
    }

    /// Build with explicit initial validity (for reactive selection).
    pub fn with_validity(
        m: &Machine,
        root_node: usize,
        procs: usize,
        valid: bool,
    ) -> MpCombiningTree {
        let leaves = procs.next_power_of_two().max(2);
        let mut places = vec![(0usize, Port(0), Port(0)); 2 * leaves];
        for (idx, p) in places.iter_mut().enumerate().skip(1) {
            let node = if idx == 1 { root_node } else { idx % m.nodes() };
            *p = (node, fresh_port(), fresh_port());
        }
        let places = Rc::new(places);
        let counter = Rc::new(RefCell::new(0u64));
        let valid_flag = Rc::new(RefCell::new(valid));
        let chg = fresh_port();
        {
            // Root protocol-change handler: atomic with respect to root
            // combining (handlers on a node serialize). arg0 = 0:
            // invalidate + reply final value; arg0 = 1: validate with
            // value arg1.
            let counter = counter.clone();
            let valid_flag = valid_flag.clone();
            m.register_handler(root_node, chg, move |ctx, args| {
                let tok = ctx.token();
                if args[0] == 0 || args[0] == 2 {
                    // arg0 = 2: conditional invalidate (see MpCounter);
                    // concurrent changers arbitrate at this handler.
                    if args[0] == 2 && !*valid_flag.borrow() {
                        ctx.reply_to(tok, MP_RETRY);
                        return;
                    }
                    *valid_flag.borrow_mut() = false;
                    ctx.reply_to(tok, *counter.borrow());
                } else {
                    *counter.borrow_mut() = args[1];
                    *valid_flag.borrow_mut() = true;
                    ctx.reply_to(tok, 1);
                }
            });
        }
        let root_place = places[1].0;

        for idx in 1..2 * leaves {
            let state = Rc::new(RefCell::new(MpTreeNode::default()));
            let (node, req, res) = places[idx];

            // Request handler: accumulate entries; on flush, apply at the
            // root or forward the combined batch to the parent.
            {
                let state = state.clone();
                let places = places.clone();
                let counter = counter.clone();
                let valid_flag = valid_flag.clone();
                m.register_handler(node, req, move |ctx, args| {
                    let mut s = state.borrow_mut();
                    if args[1] == FLUSH {
                        s.flushing = false;
                        if s.pending.is_empty() {
                            return;
                        }
                        let sum = s.pending_sum;
                        let entries = std::mem::take(&mut s.pending);
                        s.pending_sum = 0;
                        if idx == 1 {
                            // Root: apply the combined op and distribute.
                            let base = if *valid_flag.borrow() {
                                let mut c = counter.borrow_mut();
                                let old = *c;
                                *c = c.wrapping_add(sum);
                                old
                            } else {
                                MP_RETRY
                            };
                            drop(s);
                            for (e, off) in entries {
                                route_result(ctx, &places, e, base, off);
                            }
                        } else {
                            let id = s.next_batch;
                            s.next_batch += 1;
                            s.inflight.push((id, entries));
                            drop(s);
                            let parent = places[idx / 2];
                            ctx.send(parent.0, parent.1, [sum, 0, id, idx as u64]);
                        }
                        return;
                    }
                    // A new entry joins the pending batch.
                    let entry = if ctx.token().0 != 0 {
                        Entry::Rpc(ctx.token().0)
                    } else {
                        Entry::Child {
                            idx: args[3] as usize,
                            batch: args[2],
                        }
                    };
                    let offset = s.pending_sum;
                    s.pending_sum = s.pending_sum.wrapping_add(args[0]);
                    s.pending.push((entry, offset));
                    let first = !s.flushing;
                    if first {
                        s.flushing = true;
                    }
                    drop(s);
                    if first {
                        let window = if idx == 1 {
                            COMBINE_WINDOW / 2
                        } else {
                            COMBINE_WINDOW
                        };
                        ctx.send_self_delayed(req, [0, FLUSH, 0, 0], window);
                    }
                });
            }

            // Result handler: `[base, batch_id]` for a forwarded batch.
            {
                let state = state.clone();
                let places = places.clone();
                m.register_handler(node, res, move |ctx, args| {
                    let (base, id) = (args[0], args[1]);
                    let batch = {
                        let mut s = state.borrow_mut();
                        let pos = s
                            .inflight
                            .iter()
                            .position(|(b, _)| *b == id)
                            .expect("MP tree: result for unknown batch");
                        s.inflight.remove(pos).1
                    };
                    for (e, off) in batch {
                        route_result(ctx, &places, e, base, off);
                    }
                });
            }
        }

        let tree = MpCombiningTree {
            places,
            leaves,
            counter,
            chg,
        };
        let _ = root_place;
        tree
    }

    /// Atomically invalidate the tree root via its handler, returning
    /// the final counter value (protocol change, first half). Combined
    /// batches already queued bounce with [`MP_RETRY`].
    pub async fn invalidate_via(&self, cpu: &Cpu) -> u64 {
        cpu.rpc(self.places[1].0, self.chg, [0, 0, 0, 0]).await
    }

    /// Conditionally invalidate the root: wins (and returns the final
    /// value) only if the tree was still valid; `None` = a concurrent
    /// protocol changer got there first (the root handler arbitrates).
    pub async fn try_invalidate_via(&self, cpu: &Cpu) -> Option<u64> {
        match cpu.rpc(self.places[1].0, self.chg, [2, 0, 0, 0]).await {
            MP_RETRY => None,
            v => Some(v),
        }
    }

    /// Atomically validate the root with `value` (change, second half).
    pub async fn validate_via(&self, cpu: &Cpu, value: u64) {
        cpu.rpc(self.places[1].0, self.chg, [1, value, 0, 0]).await;
    }

    fn leaf_of(&self, proc_id: usize) -> usize {
        self.leaves + (proc_id % self.leaves)
    }

    /// Current counter value (inspection / protocol-change transfer).
    pub fn value(&self) -> u64 {
        *self.counter.borrow()
    }

    /// Set the counter (protocol-change transfer).
    pub fn set_value(&self, v: u64) {
        *self.counter.borrow_mut() = v;
    }

    /// One operation; `Err(())` means the root bounced the batch.
    pub async fn try_fetch_add(&self, cpu: &Cpu, delta: u64) -> Result<u64, ()> {
        let (node, req, _res) = self.places[self.leaf_of(cpu.node())];
        let r = cpu.rpc(node, req, [delta, 0, 0, 0]).await;
        if r == MP_RETRY {
            Err(())
        } else {
            Ok(r)
        }
    }
}

impl crate::fetch_op::FetchOp for MpCombiningTree {
    async fn fetch_add(&self, cpu: &Cpu, delta: u64) -> u64 {
        self.try_fetch_add(cpu, delta)
            .await
            .expect("passive MpCombiningTree bounced a requester")
    }
}

fn route_result(
    ctx: &mut HandlerCtx<'_>,
    places: &[(usize, Port, Port)],
    entry: Entry,
    base: u64,
    offset: u64,
) {
    let value = if base == MP_RETRY {
        MP_RETRY
    } else {
        base.wrapping_add(offset)
    };
    match entry {
        Entry::Rpc(tok) => ctx.reply_to(ReplyToken(tok), value),
        Entry::Child { idx, batch } => {
            let (node, _req, res) = places[idx];
            ctx.send(node, res, [value, batch, 0, 0]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch_op::FetchOp;
    use alewife_sim::Config;

    #[test]
    fn mp_queue_lock_mutual_exclusion() {
        let m = Machine::new(Config::default().nodes(8));
        let lock = MpQueueLock::new(&m, 0);
        let shared = m.alloc_on(1, 1);
        for p in 0..8 {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                for _ in 0..20 {
                    lock.acquire(&cpu).await;
                    let v = cpu.read(shared).await;
                    cpu.work(10).await;
                    cpu.write(shared, v + 1).await;
                    lock.release(&cpu, ()).await;
                    cpu.work(cpu.rand_below(100)).await;
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0);
        assert_eq!(m.read_word(shared), 160);
    }

    #[test]
    fn mp_queue_lock_grants_fifo() {
        let m = Machine::new(Config::default().nodes(4));
        let lock = MpQueueLock::new(&m, 0);
        let order = m.alloc_on(1, 4);
        let slot = m.alloc_on(2, 1);
        for p in 0..4 {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                cpu.work(300 * p as u64).await;
                lock.acquire(&cpu).await;
                cpu.work(2_000).await;
                let s = cpu.fetch_and_add(slot, 1).await;
                cpu.write(order.plus(s), p as u64).await;
                lock.release(&cpu, ()).await;
            });
        }
        m.run();
        let got: Vec<u64> = (0..4).map(|i| m.read_word(order.plus(i))).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn mp_counter_linearizes() {
        let m = Machine::new(Config::default().nodes(8));
        let c = MpCounter::new(&m, 3);
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for p in 0..8 {
            let cpu = m.cpu(p);
            let c = c.clone();
            let seen = seen.clone();
            m.spawn(p, async move {
                for _ in 0..25 {
                    let v = c.fetch_add(&cpu, 1).await;
                    seen.borrow_mut().push(v);
                    cpu.work(cpu.rand_below(80)).await;
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0);
        let mut got = seen.borrow().clone();
        got.sort_unstable();
        assert_eq!(got, (0..200u64).collect::<Vec<_>>());
        assert_eq!(c.value(), 200);
    }

    #[test]
    fn mp_combining_tree_linearizes() {
        let m = Machine::new(Config::default().nodes(16));
        let t = MpCombiningTree::new(&m, 0, 16);
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for p in 0..16 {
            let cpu = m.cpu(p);
            let t = t.clone();
            let seen = seen.clone();
            m.spawn(p, async move {
                for _ in 0..10 {
                    let v = t.fetch_add(&cpu, 1).await;
                    seen.borrow_mut().push(v);
                    cpu.work(cpu.rand_below(100)).await;
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0);
        let mut got = seen.borrow().clone();
        got.sort_unstable();
        assert_eq!(got, (0..160u64).collect::<Vec<_>>());
        assert_eq!(t.value(), 160);
    }

    #[test]
    fn mp_retry_bounces_requesters() {
        let m = Machine::new(Config::default().nodes(2));
        let c = MpCounter::with_validity(&m, 0, false);
        let out = m.alloc_on(1, 1);
        let cpu = m.cpu(1);
        let cc = c.clone();
        m.spawn(1, async move {
            let r = cc.try_fetch_add(&cpu, 1).await;
            cpu.write(out, if r.is_err() { 7 } else { 0 }).await;
        });
        m.run();
        assert_eq!(m.read_word(out), 7);
        assert_eq!(c.value(), 0);
    }
}
