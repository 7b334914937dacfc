//! The TTS and MCS spin locks of §3.1.1, written once over the
//! [`Memory`] trait, which the simulator (`reactive-core`), host atomics
//! (`reactive-native`) and the model checker (the host text on trapping
//! shims) implement. Each operation names the [`Ordering`] its call site
//! needs; the simulator ignores it.
//!
//! The MCS lock is the `fetch&store`-only variant (Alewife had no
//! `compare&swap`) of Figure 3.28. As a reactive sub-lock it is invalid
//! while its tail holds [`INVALID_PTR`] ([`invalidate_from`] puts it
//! there and bounces every waiter; [`acquire_invalid`] installs a
//! holder); an invalid TTS sub-lock is one left [`BUSY`].

use std::future::Future;
pub use std::sync::atomic::Ordering;

/// Lock word value: free.
pub const FREE: u64 = 0;
/// Lock word value: held.
pub const BUSY: u64 = 1;

/// Queue-node status: waiting for a predecessor's signal.
pub const WAITING: u64 = 0;
/// Queue-node status: lock granted.
pub const GO: u64 = 1;
/// Queue-node status: the queue protocol was invalidated — retry with
/// the other protocol (§3.7.3).
pub const INVALID_STATUS: u64 = 2;

/// Tail/next pointer word: no node.
pub const NIL: u64 = 0;
/// Tail pointer word: the queue lock is invalid.
pub const INVALID_PTR: u64 = 1;

/// Shared memory as the spin locks see it. Every method returns a
/// future: the simulator's complete after the modelled latency, the
/// host's are ready at once.
pub trait Memory {
    /// A handle naming one shared word.
    type Word: Copy;
    /// A handle naming one queue node (`next` and `status` words).
    type Node: Copy;

    /// Load a word.
    fn load(&self, w: Self::Word, order: Ordering) -> impl Future<Output = u64>;
    /// Store a word.
    fn store(&self, w: Self::Word, v: u64, order: Ordering) -> impl Future<Output = ()>;
    /// Atomically store `v` and return the previous value
    /// (`fetch&store`).
    fn swap(&self, w: Self::Word, v: u64, order: Ordering) -> impl Future<Output = u64>;
    /// Atomically set the word to [`BUSY`] and return the previous
    /// value.
    fn test_and_set(&self, w: Self::Word, order: Ordering) -> impl Future<Output = u64>;
    /// Read-poll `w` until `pred` holds (`Some(value)`) or the clock
    /// passes `deadline` (`None`); `u64::MAX` never expires.
    fn poll_until(
        &self,
        w: Self::Word,
        pred: impl Fn(u64) -> bool + Unpin + 'static,
        deadline: u64,
        order: Ordering,
    ) -> impl Future<Output = Option<u64>>;
    /// One randomized backoff step of mean length `delay`.
    fn pause(&self, delay: u64) -> impl Future<Output = ()>;

    /// Take a queue node for this process.
    fn take_node(&self) -> Self::Node;
    /// Give a queue node back once no other process can touch it.
    fn put_node(&self, q: Self::Node);
    /// The node's `next` pointer word.
    fn next(q: Self::Node) -> Self::Word;
    /// The node's status word.
    fn status(q: Self::Node) -> Self::Word;
    /// Encode a node as a pointer word (never [`NIL`] or
    /// [`INVALID_PTR`]).
    fn enc(q: Self::Node) -> u64;
    /// Decode a pointer word written by [`Memory::enc`].
    fn dec(v: u64) -> Self::Node;

    /// The clock [`Memory::poll_until`]'s deadlines and switch events
    /// are read against (cycles / nanoseconds).
    fn now(&self) -> u64;
    /// Count a named event (the simulator's machine counters).
    fn note(&self, _event: &'static str) {}
}

/// Randomized exponential backoff (Anderson, §3.1.1): a mean delay that
/// doubles after every lost `test&set`, up to a cap.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    delay: u64,
    max: u64,
}

impl Backoff {
    /// Start at mean `initial`, capped at `max` (each at least 1).
    pub fn new(initial: u64, max: u64) -> Backoff {
        Backoff {
            delay: initial.max(1),
            max: max.max(1),
        }
    }

    /// Wait one step, then double the mean (up to the cap).
    pub async fn pause<M: Memory>(&mut self, m: &M) {
        m.pause(self.delay).await;
        self.delay = (self.delay * 2).min(self.max);
    }
}

/// Try the TTS lock at `flag` once: test, then `test&set` only if it
/// looked free. `true` on a win.
pub async fn tts_try_acquire<M: Memory>(m: &M, flag: M::Word) -> bool {
    // order: Relaxed — a probe; the test&set decides.
    m.load(flag, Ordering::Relaxed).await == FREE
        // order: Acquire pairs with the Release store in `tts_release`.
        && m.test_and_set(flag, Ordering::Acquire).await == FREE
}

/// Acquire the TTS lock at `flag`: read-poll until it looks free, then
/// `test&set`, backing off after every lost attempt.
pub async fn tts_acquire<M: Memory>(m: &M, flag: M::Word, mut b: Backoff) {
    loop {
        // order: Relaxed — wait until the flag *looks* free; the
        // acquiring test&set below provides the real edge.
        m.poll_until(flag, |v| v == FREE, u64::MAX, Ordering::Relaxed)
            .await;
        // order: Acquire pairs with the Release store in `tts_release`,
        // making the previous holder's critical section visible.
        if m.test_and_set(flag, Ordering::Acquire).await == FREE {
            return;
        }
        b.pause(m).await;
    }
}

/// Figure 3.28's `acquire_tts`: acquire the TTS lock at `flag` while
/// the mode hint at `mode` still reads `valid`. Returns `Some(failed
/// test&sets)` on a win — only a `test&set` lost after reading the flag
/// free counts, the contention estimate of §3.3.1 — or `None` once the
/// hint changes. A busy flag is read-polled for at most `window` clock
/// units between hint checks: an invalid flag stays busy forever.
pub async fn tts_acquire_while<M: Memory>(
    m: &M,
    flag: M::Word,
    mode: M::Word,
    valid: u64,
    mut b: Backoff,
    window: u64,
) -> Option<u64> {
    let mut failures = 0;
    loop {
        // order: Relaxed — a probe; the test&set decides.
        if m.load(flag, Ordering::Relaxed).await == FREE {
            // order: Acquire — see `tts_acquire`.
            if m.test_and_set(flag, Ordering::Acquire).await == FREE {
                return Some(failures);
            }
            failures += 1;
            b.pause(m).await;
        } else {
            let deadline = m.now() + window;
            // order: Relaxed — see `tts_acquire`.
            m.poll_until(flag, |v| v == FREE, deadline, Ordering::Relaxed)
                .await;
        }
        // order: Acquire pairs with the switcher's Release publish; a
        // stale hint only costs a retry.
        if m.load(mode, Ordering::Acquire).await != valid {
            return None;
        }
    }
}

/// Release the TTS lock at `flag`.
pub async fn tts_release<M: Memory>(m: &M, flag: M::Word) {
    // order: Release pairs with the Acquire test&set of the next
    // holder, publishing the critical section.
    m.store(flag, FREE, Ordering::Release).await;
}

/// Acquire the MCS lock at `tail` with the caller's node `q`; `true` if
/// the queue was empty (a plain MCS queue is never invalid).
pub async fn mcs_acquire<M: Memory>(m: &M, tail: M::Word, q: M::Node) -> bool {
    mcs_prepare(m, q).await;
    let pred = mcs_swap(m, tail, q).await;
    if pred == NIL {
        return true;
    }
    mcs_chain(m, q, pred).await;
    let granted = mcs_wait(m, q).await;
    debug_assert!(granted, "a plain MCS queue is never invalidated");
    false
}

/// Clear `q`'s `next` pointer, ready for [`mcs_swap`].
pub async fn mcs_prepare<M: Memory>(m: &M, q: M::Node) {
    // order: Relaxed — private initialization of our own node; the
    // tail swap publishes it.
    m.store(M::next(q), NIL, Ordering::Relaxed).await;
}

/// Swap `q` into the tail. Returns the predecessor word: [`NIL`] (lock
/// acquired), [`INVALID_PTR`] (the queue is invalid — the caller owes
/// an [`invalidate_from`]), or a node to [`mcs_chain`] behind.
pub async fn mcs_swap<M: Memory>(m: &M, tail: M::Word, q: M::Node) -> u64 {
    // order: AcqRel — Release publishes our initialized node to the
    // next enqueuer; Acquire sees the predecessor's (and, on an empty
    // queue, the last releaser's critical section).
    m.swap(tail, M::enc(q), Ordering::AcqRel).await
}

/// Link `q` behind the predecessor word `pred` from [`mcs_swap`].
pub async fn mcs_chain<M: Memory>(m: &M, q: M::Node, pred: u64) {
    // order: Relaxed — nobody signals `q` before the link below
    // publishes it.
    m.store(M::status(q), WAITING, Ordering::Relaxed).await;
    // order: Release publishes our node to the predecessor's release,
    // which loads `next` with Acquire.
    m.store(M::next(M::dec(pred)), M::enc(q), Ordering::Release)
        .await;
}

/// Spin on `q`'s own status word until signalled. `true`: [`GO`], the
/// lock is held via `q`. `false`: [`INVALID_STATUS`], the queue was
/// switched away while we waited, and `q` is the caller's to put back.
pub async fn mcs_wait<M: Memory>(m: &M, q: M::Node) -> bool {
    // order: Acquire pairs with the Release signal of the predecessor
    // (a grant hands over its critical section).
    let status = m
        .poll_until(M::status(q), |v| v != WAITING, u64::MAX, Ordering::Acquire)
        .await;
    status == Some(GO)
}

/// Release the MCS lock held via `q`, handling the usurper race of the
/// `fetch&store`-only variant (Figure 3.28), in which the usurper may
/// also switch the queue away. `q` is the caller's to put back.
pub async fn mcs_release<M: Memory>(m: &M, tail: M::Word, q: M::Node) {
    // order: Acquire pairs with the successor's Release link.
    let mut next = m.load(M::next(q), Ordering::Acquire).await;
    if next == NIL {
        // No known successor: try to empty the queue.
        // order: AcqRel — Release publishes our critical section to the
        // next empty-queue acquirer; Acquire sees a racing enqueuer.
        let old_tail = m.swap(tail, NIL, Ordering::AcqRel).await;
        if old_tail == M::enc(q) {
            return; // really had no successor
        }
        // Someone was enqueueing: restore the tail and find them.
        // order: AcqRel — as above, for the usurper's node.
        let usurper = m.swap(tail, old_tail, Ordering::AcqRel).await;
        next = wait_link(m, q).await;
        // Regression mutant `usurper_splice`: drop the arm below, so a
        // releaser whose restore took a usurper's sentinel splices its
        // successor chain behind INVALID_PTR instead of bouncing it.
        #[cfg(conc_check_mutant)]
        let splice = crate::kernel::mutant("usurper_splice");
        #[cfg(not(conc_check_mutant))]
        let splice = false;
        if usurper == INVALID_PTR && !splice {
            // A usurper switched the queue away and our restore took its
            // sentinel: put it back and bounce our successor chain.
            invalidate_from(m, tail, M::dec(next)).await;
            return;
        }
        if usurper != NIL {
            // A process enqueued while the queue looked empty; splice
            // our successor chain behind it.
            // order: Release — the usurper's release loads it Acquire.
            m.store(M::next(M::dec(usurper)), next, Ordering::Release)
                .await;
            return;
        }
    }
    // order: Release hands our critical section to the successor's
    // Acquire spin.
    m.store(M::status(M::dec(next)), GO, Ordering::Release)
        .await;
}

/// Wait for a successor to link itself behind `q`.
async fn wait_link<M: Memory>(m: &M, q: M::Node) -> u64 {
    // order: Acquire pairs with the enqueuer's Release link store.
    let next = m.poll_until(M::next(q), |v| v != NIL, u64::MAX, Ordering::Acquire);
    next.await.expect("an unbounded poll returns a value")
}

/// Figure 3.29's `acquire_invalid_queue`: install `q` as the head of
/// the (currently invalid) queue, making it valid and held. Retries if
/// stale-mode racers piled onto the queue first.
pub async fn acquire_invalid<M: Memory>(m: &M, tail: M::Word, q: M::Node) {
    loop {
        mcs_prepare(m, q).await;
        let pred = mcs_swap(m, tail, q).await;
        if pred == INVALID_PTR {
            return;
        }
        // Landed behind a racer on an invalid queue: wait for its
        // INVALID signal to ripple to us, then retry.
        mcs_chain(m, q, pred).await;
        mcs_wait(m, q).await;
    }
}

/// Figure 3.29's `invalidate_queue`: swap the tail to [`INVALID_PTR`]
/// and walk from `head` to the old tail, signalling every node to
/// retry. `head` is the caller's node (the caller puts it back) or, in
/// [`mcs_release`], its successor's.
pub async fn invalidate_from<M: Memory>(m: &M, tail: M::Word, head: M::Node) {
    // order: AcqRel — Acquire sees every enqueued node up to the old
    // tail; Release publishes the sentinel to later enqueuers.
    let last = m.swap(tail, INVALID_PTR, Ordering::AcqRel).await;
    let mut q = head;
    while M::enc(q) != last {
        // Read the link first: a signalled waiter may reuse its node.
        let next = wait_link(m, q).await;
        // order: Release — the waiter's Acquire spin sees our state.
        m.store(M::status(q), INVALID_STATUS, Ordering::Release)
            .await;
        q = M::dec(next);
    }
    // order: Release — as above.
    m.store(M::status(q), INVALID_STATUS, Ordering::Release)
        .await;
}
