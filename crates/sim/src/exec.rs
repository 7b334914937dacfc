//! The deterministic event-driven executor.
//!
//! Simulated processors are ordinary Rust `async` tasks driven by a
//! single-threaded executor. Time never advances while a task is running;
//! every awaited operation (memory access, compute delay, message RPC,
//! scheduler interaction) registers a [`Completion`] that an event fires
//! at a computed future instant. Events are totally ordered by
//! `(time, sequence)`, so simulations are exactly reproducible.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::state::State;

/// Identifier of a simulated task (a processor's thread of control).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) usize);

pub(crate) type BoxFut = Pin<Box<dyn Future<Output = ()>>>;

/// A one-shot, two-word completion used to resume a task at a computed
/// virtual time. Cheap to clone (shared cell).
#[derive(Clone)]
pub(crate) struct Completion {
    inner: Rc<CompletionInner>,
}

struct CompletionInner {
    done: Cell<bool>,
    val: Cell<[u64; 2]>,
    waiter: Cell<Option<TaskId>>,
}

impl Completion {
    pub fn new() -> Completion {
        Completion {
            inner: Rc::new(CompletionInner {
                done: Cell::new(false),
                val: Cell::new([0, 0]),
                waiter: Cell::new(None),
            }),
        }
    }

    /// Stash the result value ahead of time (e.g. when the completion
    /// event is scheduled). Invisible until [`Completion::finish`] sets
    /// the done flag.
    pub fn set_value(&self, v: [u64; 2]) {
        self.inner.val.set(v);
    }

    /// Mark done and take the waiter to poll, if any.
    pub fn finish(&self) -> Option<TaskId> {
        debug_assert!(!self.inner.done.get(), "completion fulfilled twice");
        self.inner.done.set(true);
        self.inner.waiter.take()
    }

    pub fn is_done(&self) -> bool {
        self.inner.done.get()
    }

    /// Whether this handle is the only one left (safe to recycle).
    pub fn is_unique(&self) -> bool {
        Rc::strong_count(&self.inner) == 1
    }

    /// Clear the completion for reuse from the pool.
    pub fn reset(&self) {
        self.inner.done.set(false);
        self.inner.val.set([0, 0]);
        self.inner.waiter.set(None);
    }

    pub fn value(&self) -> [u64; 2] {
        self.inner.val.get()
    }

    pub(crate) fn set_waiter(&self, t: TaskId) {
        self.inner.waiter.set(Some(t));
    }
}

impl std::fmt::Debug for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completion")
            .field("done", &self.inner.done.get())
            .finish()
    }
}

/// Maps a sim future's result through a zero-size closure — the
/// await-side of every memory/compute operation (over a
/// [`CompFuture`]'s `[u64; 2]`) and of the unbounded spins, one poll
/// frame deep (no intermediate async-fn state machines).
pub(crate) struct MapFut<I, F> {
    fut: I,
    map: F,
}

impl<T, I: Future, F: Fn(I::Output) -> T> MapFut<I, F> {
    pub fn new(fut: I, map: F) -> Self {
        MapFut { fut, map }
    }
}

impl<T, I: Future + Unpin, F: Fn(I::Output) -> T + Unpin> Future for MapFut<I, F> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let this = self.get_mut();
        match Pin::new(&mut this.fut).poll(cx) {
            Poll::Ready(v) => Poll::Ready((this.map)(v)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Future resolving when a [`Completion`] is fulfilled. Carries the
/// awaiting task's id (captured at issue time, when the task is the
/// current one) so polling never has to re-borrow the state.
pub(crate) struct CompFuture {
    tid: TaskId,
    c: Completion,
}

impl CompFuture {
    pub fn new(tid: TaskId, c: Completion) -> CompFuture {
        CompFuture { tid, c }
    }
}

impl Future for CompFuture {
    type Output = [u64; 2];

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<[u64; 2]> {
        if self.c.is_done() {
            Poll::Ready(self.c.value())
        } else {
            self.c.set_waiter(self.tid);
            Poll::Pending
        }
    }
}

/// A simulation event. Kept small (16 bytes): bulky payloads live in
/// the state's in-flight slabs ([`crate::state::State::coh_slab`],
/// [`crate::state::State::msg_slab`]) and events carry their index;
/// completion events stash their value in the completion up front.
pub(crate) enum Ev {
    /// Poll the task (it will re-check whatever it is waiting on).
    Wake(TaskId),
    /// Finish a completion (value already stashed) and poll its waiter.
    Complete(Completion),
    /// The coherence request `coh_slab[idx]` arrives at node `n`'s
    /// directory input queue (`DirArrive(n, idx)`).
    DirArrive(u32, u32),
    /// The directory at `node` is free to service its next request.
    DirService(u32),
    /// The active message `msg_slab[idx]` arrives at node `n`'s
    /// handler input queue (`MsgArrive(n, idx)`).
    MsgArrive(u32, u32),
    /// The handler engine at `node` is free to run its next handler.
    MsgService(u32),
    /// The thread scheduler at `node` should start its next ready thread
    /// if the processor is idle.
    Dispatch(u32),
    /// Fault injection: kill the node (destroy its threads and volatile
    /// state; NVM survives).
    Kill(u32),
    /// Fault injection: recover the node (spawn its recovery thread).
    Recover(u32),
    /// Fault injection: deliver an abort signal to the node.
    Abort(u32),
}

// The 16-byte ceiling above is a load-bearing layout invariant (the
// calendar queue copies events densely); enforced at compile time and
// checked by the repo lint (`cargo run -p check --bin lint`).
const _: () = assert!(std::mem::size_of::<Ev>() <= 16);

/// A polled future together with its poll result, awaiting end-of-poll
/// bookkeeping.
pub(crate) type PolledFut = (BoxFut, Poll<()>);
/// Alias clarifying the deferred-recycle completion slot.
pub(crate) type SpentCompletion = Completion;

/// First half of a task poll, run under the event loop's borrow: take
/// the future out of its slot (so the task may freely re-borrow the
/// state while running) and mark the task current. Returns `None` for
/// stale wakes (task finished, or already running further up the
/// stack).
#[inline]
pub(crate) fn begin_poll(st: &mut State, tid: TaskId) -> Option<BoxFut> {
    let f = st.futs.get_mut(tid.0)?.take()?;
    st.current_task = Some(tid);
    Some(f)
}

/// Drive one poll of a task future (no state borrow held).
#[inline]
pub(crate) fn poll_once(fut: &mut BoxFut) -> Poll<()> {
    let waker = Waker::noop();
    let mut cx = Context::from_waker(waker);
    fut.as_mut().poll(&mut cx)
}

/// Second half of a task poll: restore or retire the future and recycle
/// the completion that triggered the poll (by now the awaiting future
/// has dropped its handle). Runs under the caller's borrow so it can
/// share one with the next event pop.
pub(crate) fn end_poll(
    st: &mut State,
    tid: TaskId,
    fut: BoxFut,
    res: Poll<()>,
    spent: Option<Completion>,
) {
    st.current_task = None;
    if let Some(c) = spent {
        st.recycle_completion(c);
    }
    match res {
        Poll::Pending => {
            if st.tasks.get(tid.0).is_some_and(|s| s.is_some()) {
                st.futs[tid.0] = Some(fut);
            }
        }
        Poll::Ready(()) => {
            drop(fut);
            let slot = st.tasks[tid.0].take();
            st.free_tasks.push(tid.0);
            st.live_tasks -= 1;
            if let Some(thr) = slot {
                crate::thread::thread_exited(st, thr.node);
            }
        }
    }
}

pub(crate) fn insert_task(st: &mut State, fut: BoxFut, thread: crate::state::ThreadInfo) -> TaskId {
    st.live_tasks += 1;
    if let Some(i) = st.free_tasks.pop() {
        st.tasks[i] = Some(thread);
        st.futs[i] = Some(fut);
        TaskId(i)
    } else {
        st.tasks.push(Some(thread));
        st.futs.push(Some(fut));
        TaskId(st.tasks.len() - 1)
    }
}
