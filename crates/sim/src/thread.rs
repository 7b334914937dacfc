//! The per-node thread runtime: non-preemptive scheduling with
//! Alewife-like costs (§2.2.4, Table 4.1).
//!
//! Each node runs at most one thread at a time. Threads leave the
//! processor only at explicit points: [`crate::Cpu::block_on`] (unload,
//! ≈300 cycles), [`crate::Cpu::yield_now`] (context switch, 14 cycles),
//! or exit. A blocked thread sits on a [`WaitQueueId`] until a signaller
//! pays the reenable cost (≈100 cycles) to move it to its node's ready
//! queue; it then pays the reload cost (≈65 cycles) when dispatched.
//! Scheduling is non-preemptive: a spinning thread starves its peers,
//! exactly the hazard that motivates two-phase waiting (Chapter 4).

use std::collections::VecDeque;

use crate::exec::{Completion, Ev, TaskId};
use crate::state::State;

/// Identifier of a simulator-level wait queue (a list of blocked
/// threads attached to a synchronization condition).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WaitQueueId(pub(crate) usize);

impl WaitQueueId {
    /// The queue `i` places after this one: queue `i` of a batch made by
    /// [`crate::Machine::new_wait_queues`], given the batch's first id.
    pub fn offset(self, i: usize) -> WaitQueueId {
        WaitQueueId(self.0 + i)
    }
}

/// End of a wait-queue chain.
const NIL: u32 = u32::MAX;

/// A FIFO of blocked threads, intrusive: the chain runs through
/// `State::wait_link`, one `u32` per task, which is enough because a
/// blocked thread sits on exactly one queue. 12 bytes, no heap buffer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WaitQueue {
    head: u32,
    tail: u32,
    len: u32,
}

const _: () = assert!(size_of::<WaitQueue>() == 12);

impl WaitQueue {
    const EMPTY: WaitQueue = WaitQueue {
        head: NIL,
        tail: NIL,
        len: 0,
    };

    fn push_back(&mut self, link: &mut Vec<u32>, tid: TaskId) {
        assert!(tid.0 < NIL as usize, "task id overflows a wait-queue link");
        let t = tid.0 as u32;
        if link.len() <= tid.0 {
            link.resize(tid.0 + 1, NIL);
        }
        link[tid.0] = NIL;
        if self.len == 0 {
            self.head = t;
        } else {
            link[self.tail as usize] = t;
        }
        self.tail = t;
        self.len += 1;
    }

    fn pop_front(&mut self, link: &[u32]) -> Option<TaskId> {
        if self.len == 0 {
            return None;
        }
        let t = self.head;
        self.head = link[t as usize];
        self.len -= 1;
        Some(TaskId(t as usize))
    }

    /// Drop every thread `keep` rejects, leaving the rest in order.
    pub fn retain(&mut self, link: &mut Vec<u32>, keep: impl Fn(TaskId) -> bool) {
        let mut old = std::mem::replace(self, WaitQueue::EMPTY);
        while let Some(t) = old.pop_front(link) {
            if keep(t) {
                self.push_back(link, t);
            }
        }
    }
}

/// Per-node scheduler state: one running thread and a FIFO of ready
/// ones. A node holds any number of threads (no hardware-context
/// limit is modelled), and blocked threads always unload.
#[derive(Debug, Default)]
pub(crate) struct NodeSched {
    pub running: Option<TaskId>,
    pub ready: VecDeque<TaskId>,
}

/// Spawn a scheduler-managed thread on `node`.
pub(crate) fn spawn_thread(st: &mut State, node: usize, fut: crate::exec::BoxFut) -> TaskId {
    let info = crate::state::ThreadInfo {
        node,
        resume: None,
        loaded: false,
    };
    let tid = crate::exec::insert_task(st, fut, info);
    st.scheds[node].ready.push_back(tid);
    let now = st.now;
    st.schedule(now, Ev::Dispatch(node as u32));
    tid
}

/// If `node` is idle, start its next ready thread (charging a context
/// switch for loaded threads or a reload for unloaded/new ones).
pub(crate) fn dispatch(st: &mut State, node: usize) {
    if st.scheds[node].running.is_some() {
        return;
    }
    let Some(tid) = st.scheds[node].ready.pop_front() else {
        return;
    };
    st.scheds[node].running = Some(tid);
    let (cost, resume) = {
        let info = st.tasks[tid.0]
            .as_mut()
            .expect("dispatched a finished task");
        let cost = if info.loaded {
            st.cost.ctx_switch
        } else {
            st.cost.reload
        };
        info.loaded = true;
        (cost, info.resume.take())
    };
    let at = st.now + cost;
    match resume {
        Some(c) => st.schedule_complete(at, c, [0, 0]),
        // First dispatch: the task has never been polled.
        None => st.schedule(at, Ev::Wake(tid)),
    }
}

/// The running thread on `node` finished; free the processor.
pub(crate) fn thread_exited(st: &mut State, node: usize) {
    st.scheds[node].running = None;
    let now = st.now;
    st.schedule(now, Ev::Dispatch(node as u32));
}

/// Create `n` fresh wait queues with consecutive ids; returns the first.
/// A batch grows the queue table once, to its exact new size.
pub(crate) fn new_wait_queues(st: &mut State, n: usize) -> WaitQueueId {
    let first = st.wait_queues.len();
    crate::state::grow(&mut st.wait_queues, first + n, WaitQueue::EMPTY, n > 1);
    WaitQueueId(first)
}

/// Block the current thread on `q`. Returns the completion the caller
/// must await; all scheduler state transitions happen here, and the
/// processor is handed off after the unload cost.
pub(crate) fn begin_block(st: &mut State, node: usize, q: WaitQueueId) -> Completion {
    let tid = st.current_task.expect("block_on outside a task");
    debug_assert_eq!(
        st.scheds[node].running,
        Some(tid),
        "block_on by a thread that is not running on its node"
    );
    let comp = st.new_completion();
    {
        let info = st.tasks[tid.0]
            .as_mut()
            .expect("block_on by a finished task");
        info.resume = Some(comp.clone());
        info.loaded = false;
    }
    st.wait_queues[q.0].push_back(&mut st.wait_link, tid);
    st.scheds[node].running = None;
    let at = st.now + st.cost.unload;
    st.schedule(at, Ev::Dispatch(node as u32));
    comp
}

/// Pop one blocked thread from `q` and make it ready. Returns whether a
/// thread was woken. The *caller* pays the reenable cost separately.
pub(crate) fn signal_one(st: &mut State, q: WaitQueueId) -> bool {
    match st.wait_queues[q.0].pop_front(&st.wait_link) {
        Some(tid) => {
            let node = st.tasks[tid.0]
                .as_ref()
                .expect("signalled a finished task")
                .node;
            st.scheds[node].ready.push_back(tid);
            let now = st.now;
            st.schedule(now, Ev::Dispatch(node as u32));
            true
        }
        None => false,
    }
}

/// Yield the processor to the next ready thread, if any. Returns the
/// completion to await (`None` when there is nothing to switch to).
pub(crate) fn begin_yield(st: &mut State, node: usize) -> Option<Completion> {
    if st.scheds[node].ready.is_empty() {
        return None;
    }
    let tid = st.current_task.expect("yield outside a task");
    let comp = st.new_completion();
    {
        let info = st.tasks[tid.0].as_mut().expect("yield by a finished task");
        info.resume = Some(comp.clone());
        // Stays loaded: this is a cheap context switch, not an unload.
    }
    st.scheds[node].ready.push_back(tid);
    st.scheds[node].running = None;
    let now = st.now;
    st.schedule(now, Ev::Dispatch(node as u32));
    Some(comp)
}

/// Number of threads blocked on `q`.
pub(crate) fn queue_len(st: &State, q: WaitQueueId) -> usize {
    st.wait_queues[q.0].len as usize
}
