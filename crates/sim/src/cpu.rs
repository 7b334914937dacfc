//! The per-processor handle protocol code uses to interact with the
//! simulated machine.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use crate::coherence::{self, RmwOp};
use crate::exec::{CompFuture, Completion, MapFut};
use crate::msg::{self, Port};
use crate::state::{Addr, State};
use crate::thread::{self, WaitQueueId};
use crate::FullEmpty;

/// A handle onto one simulated processor.
///
/// All memory operations are *blocking* (the processor stalls for the
/// full round trip), matching Alewife's default behaviour. `Cpu` is
/// cheaply cloneable; clones refer to the same processor.
#[derive(Clone)]
pub struct Cpu {
    pub(crate) st: Rc<RefCell<State>>,
    pub(crate) node: usize,
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu").field("node", &self.node).finish()
    }
}

impl Cpu {
    /// The node this processor belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Current virtual time in cycles.
    pub fn now(&self) -> u64 {
        self.st.borrow().now
    }

    /// Total number of nodes in the machine.
    pub fn nodes(&self) -> usize {
        self.st.borrow().nodes_n
    }

    /// Deterministic random value in `[0, bound)`.
    pub fn rand_below(&self, bound: u64) -> u64 {
        self.st.borrow_mut().rand_below(bound)
    }

    /// Allocate shared memory homed on `node` (no cycles charged; models
    /// drawing from a pre-allocated pool, e.g. MCS queue nodes).
    pub fn alloc_on(&self, node: usize, words: u64) -> Addr {
        self.st.borrow_mut().alloc_on(node, words)
    }

    /// A handle for issuing operations as a *different* node (e.g. to
    /// hand to a thread spawned there).
    pub fn on(&self, node: usize) -> Cpu {
        assert!(
            node < self.st.borrow().nodes_n,
            "Cpu::on: node out of range"
        );
        Cpu {
            st: self.st.clone(),
            node,
        }
    }

    /// Create a fresh wait queue (for dynamically created sync objects).
    pub fn new_wait_queue(&self) -> WaitQueueId {
        thread::new_wait_queues(&mut self.st.borrow_mut(), 1)
    }

    /// Increment a named statistics counter.
    pub fn bump(&self, name: &str, n: u64) {
        self.st.borrow_mut().stats.bump(name, n);
    }

    /// Record a waiting time into a named histogram.
    pub fn record_wait(&self, name: &str, t: u64) {
        self.st.borrow_mut().stats.record_wait(name, t);
    }

    /// Build the await-side future for `c`; must be called with the
    /// issuing task current (inside its poll).
    fn comp_future_in(st: &crate::state::State, c: Completion) -> CompFuture {
        let tid = st
            .current_task
            .expect("sim operation issued outside the sim executor");
        CompFuture::new(tid, c)
    }

    /// Busy-compute for `cycles` (the processor is occupied).
    ///
    /// Like every memory/compute primitive on `Cpu`, this issues the
    /// operation immediately and returns a one-frame future — there is
    /// no intermediate async-fn state machine on the hot path.
    pub fn work(&self, cycles: u64) -> impl Future<Output = ()> {
        let fut = {
            let mut st = self.st.borrow_mut();
            let c = st.new_completion();
            let at = st.now + cycles;
            st.schedule_complete(at, c.clone(), [0, 0]);
            Self::comp_future_in(&st, c)
        };
        MapFut::new(fut, |_| ())
    }

    // ------------------------------------------------------------------
    // Shared memory
    // ------------------------------------------------------------------

    #[inline]
    fn read_fut(&self, a: Addr) -> CompFuture {
        let mut st = self.st.borrow_mut();
        let c = st.new_completion();
        coherence::issue_read(&mut st, self.node, a, c.clone());
        Self::comp_future_in(&st, c)
    }

    #[inline]
    fn own_fut(&self, a: Addr, op: RmwOp) -> CompFuture {
        let mut st = self.st.borrow_mut();
        let c = st.new_completion();
        coherence::issue_own(&mut st, self.node, a, op, c.clone());
        Self::comp_future_in(&st, c)
    }

    /// Load a word.
    pub fn read(&self, a: Addr) -> impl Future<Output = u64> {
        MapFut::new(self.read_fut(a), |v| v[0])
    }

    /// Load a word as the raw `[value, full_bit]` pair a
    /// [`Cpu::poll_cond`] condition tests.
    pub fn read_raw(&self, a: Addr) -> impl Future<Output = [u64; 2]> {
        self.read_fut(a)
    }

    /// Store a word.
    pub fn write(&self, a: Addr, v: u64) -> impl Future<Output = ()> {
        MapFut::new(self.own_fut(a, RmwOp::Write(v)), |_| ())
    }

    /// Atomic `test&set`: set the word to 1, return the previous value.
    pub fn test_and_set(&self, a: Addr) -> impl Future<Output = u64> {
        MapFut::new(self.own_fut(a, RmwOp::TestAndSet), |v| v[0])
    }

    /// Atomic `fetch&store` (swap); Sparcle's native RMW primitive.
    pub fn fetch_and_store(&self, a: Addr, v: u64) -> impl Future<Output = u64> {
        MapFut::new(self.own_fut(a, RmwOp::FetchAndStore(v)), |v| v[0])
    }

    /// Atomic compare-and-swap; returns `true` on success.
    pub fn compare_and_swap(&self, a: Addr, expect: u64, new: u64) -> impl Future<Output = bool> {
        MapFut::new(self.own_fut(a, RmwOp::CompareAndSwap(expect, new)), |v| {
            v[0] != 0
        })
    }

    /// Atomic fetch-and-add; returns the previous value.
    pub fn fetch_and_add(&self, a: Addr, d: u64) -> impl Future<Output = u64> {
        MapFut::new(self.own_fut(a, RmwOp::FetchAndAdd(d)), |v| v[0])
    }

    /// Store a value and set the word's full bit (producer side of a
    /// J-structure/future). Returns `true` if the word was already full.
    pub fn write_fill(&self, a: Addr, v: u64) -> impl Future<Output = bool> {
        MapFut::new(self.own_fut(a, RmwOp::WriteFill(v)), |v| v[0] != 0)
    }

    /// If the word is full, atomically read it and reset it to empty
    /// (I-structure take).
    pub fn take_if_full(&self, a: Addr) -> impl Future<Output = FullEmpty> {
        MapFut::new(self.own_fut(a, RmwOp::TakeIfFull), |[v, ok]| {
            if ok != 0 {
                FullEmpty::Full(v)
            } else {
                FullEmpty::Empty
            }
        })
    }

    /// Reset a word's full bit.
    pub fn reset_empty(&self, a: Addr) -> impl Future<Output = ()> {
        MapFut::new(self.own_fut(a, RmwOp::ResetEmpty), |_| ())
    }

    // ------------------------------------------------------------------
    // Read-polling
    // ------------------------------------------------------------------

    /// Read-poll `a` until `cond([value, full_bit])` yields a value,
    /// `deadline` passes (`None`), or — when `epoch0` is a snapshot of
    /// this node's abort epoch — an abort signal moves the epoch past it
    /// (`None`). `deadline == u64::MAX` never expires and arms no timer.
    fn spin<'a, C: Fn([u64; 2]) -> Option<u64> + Unpin + 'a>(
        &'a self,
        a: Addr,
        cond: C,
        deadline: u64,
        epoch0: Option<u64>,
    ) -> SpinRead<'a, C> {
        SpinRead {
            cpu: self,
            a,
            cond,
            deadline,
            epoch0,
            state: SpinSt::Start,
        }
    }

    /// Read-poll `a` until `cond([value, full_bit])` yields a value or
    /// `deadline` passes; returns the value, or `None` on timeout. Pass
    /// `u64::MAX` for a wait only its condition can end (it then never
    /// returns `None`).
    ///
    /// Models test-and-test-and-set-style spinning on a cached copy: the
    /// first poll may miss, subsequent polls hit in the local cache, and
    /// the waiter re-fetches (serializing at the home directory) each
    /// time the line is invalidated by a writer. Every `poll_until*`
    /// method is this wait with its condition, deadline and abort
    /// sensitivity filled in; all run on one hand-rolled future (see
    /// `SpinRead`), so each spin re-check costs a single state borrow and
    /// no nested state machines.
    pub fn poll_cond<'a>(
        &'a self,
        a: Addr,
        cond: impl Fn([u64; 2]) -> Option<u64> + Unpin + 'a,
        deadline: u64,
    ) -> impl Future<Output = Option<u64>> + 'a {
        self.spin(a, cond, deadline, None)
    }

    /// Read-poll `a` until `pred(value)` holds; returns the value.
    pub fn poll_until<'a>(
        &'a self,
        a: Addr,
        pred: impl Fn(u64) -> bool + Unpin + 'a,
    ) -> impl Future<Output = u64> + 'a {
        MapFut::new(self.spin(a, word(pred), u64::MAX, None), unbounded)
    }

    /// Read-poll until the word's full bit is set; returns the value.
    pub fn poll_until_full(&self, a: Addr) -> impl Future<Output = u64> + '_ {
        MapFut::new(self.spin(a, full, u64::MAX, None), unbounded)
    }

    /// Read-poll `a` until `pred(value)` holds or `deadline` passes.
    /// Returns `Some(value)` on success, `None` on timeout — the polling
    /// phase of a two-phase waiting algorithm.
    pub fn poll_until_deadline<'a>(
        &'a self,
        a: Addr,
        pred: impl Fn(u64) -> bool + Unpin + 'a,
        deadline: u64,
    ) -> impl Future<Output = Option<u64>> + 'a {
        self.spin(a, word(pred), deadline, None)
    }

    /// Read-poll until the word's full bit is set or `deadline` passes.
    pub fn poll_until_full_deadline(
        &self,
        a: Addr,
        deadline: u64,
    ) -> impl Future<Output = Option<u64>> + '_ {
        self.spin(a, full, deadline, None)
    }

    /// This node's abort epoch (bumped by fault-plan abort signals).
    pub fn abort_epoch(&self) -> u64 {
        self.st.borrow().abort_epoch[self.node]
    }

    /// Read-poll `a` until `pred(value)` holds, `deadline` passes, or an
    /// abort signal is delivered to this node (its abort epoch moves
    /// past the snapshot taken at the start of the wait). Returns
    /// `Some(value)` on success, `None` on timeout or abort — the
    /// waiting primitive of abortable lock protocols. Pass
    /// `u64::MAX` as the deadline for an abort-only wait.
    pub fn poll_until_abortable<'a>(
        &'a self,
        a: Addr,
        pred: impl Fn(u64) -> bool + Unpin + 'a,
        deadline: u64,
    ) -> impl Future<Output = Option<u64>> + 'a {
        self.spin(a, word(pred), deadline, Some(self.abort_epoch()))
    }

    // ------------------------------------------------------------------
    // Active messages
    // ------------------------------------------------------------------

    /// Fire-and-forget active message (costs `msg_send` on this CPU).
    pub async fn send(&self, dest: usize, port: Port, args: [u64; 4]) {
        let cost = {
            let mut st = self.st.borrow_mut();
            msg::issue_send(&mut st, self.node, dest, port, args);
            st.cost.msg_send
        };
        self.work(cost).await;
    }

    /// Remote procedure call: send a message and wait for some handler to
    /// reply (possibly much later — e.g. a queued lock grant).
    pub fn rpc(&self, dest: usize, port: Port, args: [u64; 4]) -> impl Future<Output = u64> {
        let fut = {
            let mut st = self.st.borrow_mut();
            let c = st.new_completion();
            msg::issue_rpc(&mut st, self.node, dest, port, args, c.clone());
            Self::comp_future_in(&st, c)
        };
        MapFut::new(fut, |v| v[0])
    }

    // ------------------------------------------------------------------
    // Thread runtime
    // ------------------------------------------------------------------

    /// Block the current thread on `q` (signaling waiting mechanism).
    /// Pays the unload cost now and the reload cost when rescheduled;
    /// the signaller pays the reenable cost. Total ≈ `B` (Table 4.1).
    pub async fn block_on(&self, q: WaitQueueId) {
        let fut = {
            let mut st = self.st.borrow_mut();
            let c = thread::begin_block(&mut st, self.node, q);
            Self::comp_future_in(&st, c)
        };
        fut.await;
    }

    /// Wake one thread blocked on `q`, paying the reenable cost if a
    /// thread was actually woken. Returns whether one was woken.
    pub async fn signal_one(&self, q: WaitQueueId) -> bool {
        let woke = thread::signal_one(&mut self.st.borrow_mut(), q);
        if woke {
            let reenable = self.st.borrow().cost.reenable;
            self.work(reenable).await;
        }
        woke
    }

    /// Wake every thread blocked on `q` *at the time of the call*;
    /// returns how many were woken. (Snapshotting the count first keeps
    /// a signaller from chasing a waiter that re-blocks because its
    /// condition is still unsatisfied.)
    pub async fn signal_all(&self, q: WaitQueueId) -> usize {
        let n = self.queue_len(q);
        for _ in 0..n {
            self.signal_one(q).await;
        }
        n
    }

    /// Number of threads currently blocked on `q`.
    pub fn queue_len(&self, q: WaitQueueId) -> usize {
        thread::queue_len(&self.st.borrow(), q)
    }

    /// Switch to the next ready thread on this node, if any (polling
    /// waiting mechanism on a multithreaded processor: switch-spinning).
    /// Returns `true` if a switch happened.
    pub async fn yield_now(&self) -> bool {
        let fut = {
            let mut st = self.st.borrow_mut();
            thread::begin_yield(&mut st, self.node).map(|c| Self::comp_future_in(&st, c))
        };
        match fut {
            Some(fut) => {
                fut.await;
                true
            }
            None => false,
        }
    }

    /// Spawn a new scheduler-managed thread on `node` (dynamic thread
    /// creation, e.g. future-spawning runtimes). Returns its task id.
    pub fn spawn(
        &self,
        node: usize,
        fut: impl std::future::Future<Output = ()> + 'static,
    ) -> crate::exec::TaskId {
        thread::spawn_thread(&mut self.st.borrow_mut(), node, Box::pin(fut))
    }
}

/// The word condition of a spin: `pred` on the value, whatever the tag.
fn word(pred: impl Fn(u64) -> bool) -> impl Fn([u64; 2]) -> Option<u64> {
    move |[v, _full]| pred(v).then_some(v)
}

/// The full/empty condition of a spin: the value once its tag is set.
fn full([v, full]: [u64; 2]) -> Option<u64> {
    (full != 0).then_some(v)
}

/// The result of a spin that has no deadline and takes no aborts.
fn unbounded(v: Option<u64>) -> u64 {
    v.expect("a spin with no deadline and no abort ends only on its condition")
}

/// State of a [`SpinRead`] spin loop.
enum SpinSt {
    /// Next poll issues the read (and snapshots the line version).
    Start,
    /// A read is in flight.
    Read {
        c: Completion,
        tid: crate::exec::TaskId,
        line: crate::state::LineId,
        seen: u64,
    },
    /// Registered as a line watcher, waiting for an invalidation (with
    /// this round's deadline wake armed, if there is a deadline).
    Watch {
        line: crate::state::LineId,
        seen: u64,
    },
    /// Deadline hit; one final read races the last write.
    FinalRead {
        c: Completion,
        tid: crate::exec::TaskId,
    },
}

/// The one fused read-polling future, behind every `Cpu::poll_until*`
/// method and [`Cpu::poll_cond`]: issue read → (miss or hit) → test
/// condition → watch line → re-read on invalidation, giving up when the
/// deadline passes or the node's abort epoch leaves `epoch0` (fault-plan
/// abort signals wake the node's tasks, so that check runs promptly).
/// Schedule order — read issues, watcher registrations, one deadline
/// wake armed per re-check round — is identical to the naive
/// `loop { read().await; LineChangeFuture.await }`, but each transition
/// runs under a single state borrow with no nested async-fn frames. A
/// `u64::MAX` deadline arms no timer and an absent epoch is never
/// compared, so the plain spin pays for neither.
struct SpinRead<'a, C: Fn([u64; 2]) -> Option<u64>> {
    cpu: &'a Cpu,
    a: Addr,
    cond: C,
    deadline: u64,
    epoch0: Option<u64>,
    state: SpinSt,
}

impl<C: Fn([u64; 2]) -> Option<u64>> SpinRead<'_, C> {
    /// Whether an abort signal reached this node since the wait began.
    fn aborted(&self, st: &State) -> bool {
        self.epoch0
            .is_some_and(|e| st.abort_epoch[self.cpu.node] != e)
    }
}

impl<C: Fn([u64; 2]) -> Option<u64> + Unpin> Future for SpinRead<'_, C> {
    type Output = Option<u64>;

    fn poll(
        self: std::pin::Pin<&mut Self>,
        _cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Option<u64>> {
        use std::task::Poll;
        let this = self.get_mut();
        loop {
            match &this.state {
                SpinSt::Start => {
                    let mut st = this.cpu.st.borrow_mut();
                    let line = st.line_of(this.a);
                    let seen = st.line_ver[line.idx()];
                    let c = st.new_completion();
                    coherence::issue_read(&mut st, this.cpu.node, this.a, c.clone());
                    let tid = st
                        .current_task
                        .expect("sim operation issued outside the sim executor");
                    this.state = SpinSt::Read { c, tid, line, seen };
                }
                SpinSt::Read { c, tid, line, seen } => {
                    if !c.is_done() {
                        c.set_waiter(*tid);
                        return Poll::Pending;
                    }
                    if let Some(v) = (this.cond)(c.value()) {
                        return Poll::Ready(Some(v));
                    }
                    let (line, seen, tid) = (*line, *seen, *tid);
                    let mut st = this.cpu.st.borrow_mut();
                    if this.aborted(&st) || st.now >= this.deadline {
                        return Poll::Ready(None);
                    }
                    if st.line_ver[line.idx()] != seen {
                        // Invalidated while we examined the value:
                        // re-read immediately.
                        drop(st);
                        this.state = SpinSt::Start;
                        continue;
                    }
                    // Watch the line and arm this round's deadline wake
                    // (registration first, then the timer — the order the
                    // unfused loop scheduled them in).
                    st.watch(line, tid);
                    if this.deadline != u64::MAX {
                        st.schedule(this.deadline, crate::exec::Ev::Wake(tid));
                    }
                    drop(st);
                    this.state = SpinSt::Watch { line, seen };
                    return Poll::Pending;
                }
                SpinSt::Watch { line, seen } => {
                    let (line, seen) = (*line, *seen);
                    let mut st = this.cpu.st.borrow_mut();
                    if this.aborted(&st) {
                        return Poll::Ready(None);
                    }
                    if st.line_ver[line.idx()] != seen {
                        drop(st);
                        this.state = SpinSt::Start;
                        continue;
                    }
                    if st.now >= this.deadline {
                        // Deadline passed: issue the final racing read.
                        let c = st.new_completion();
                        coherence::issue_read(&mut st, this.cpu.node, this.a, c.clone());
                        let tid = st
                            .current_task
                            .expect("sim operation issued outside the sim executor");
                        drop(st);
                        this.state = SpinSt::FinalRead { c, tid };
                        continue;
                    }
                    // Stale wake: re-register; any armed timer stays.
                    let cur = st
                        .current_task
                        .expect("sim future polled outside the sim executor");
                    st.watch(line, cur);
                    return Poll::Pending;
                }
                SpinSt::FinalRead { c, tid } => {
                    if !c.is_done() {
                        c.set_waiter(*tid);
                        return Poll::Pending;
                    }
                    return Poll::Ready((this.cond)(c.value()));
                }
            }
        }
    }
}
