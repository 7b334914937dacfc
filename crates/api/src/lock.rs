//! The reactive spin lock (§3.3.1, §3.7.3, Figures 3.27–3.29), written
//! once for the simulator, host hardware and the model checker.
//!
//! The TTS and MCS sub-locks are the consensus objects and are never
//! both free: the inactive one is left busy (flag [`BUSY`](spin::BUSY),
//! tail [`INVALID_PTR`]), so the mode word is only a dispatch hint.
//! Only the holder switches, under the kernel's `Handoff`, and it holds
//! a sub-lock until the commit (DESIGN.md, "Reactive lock"). In TTS mode
//! `test&set`s lost after reading the flag free estimate contention; in
//! queue mode an empty-queue grant is a calm execution. Each world wraps
//! [`LockRef`] in its own lock type and picks its row of [`Tuning`].

use crate::kernel::{KernelWorld, SwitchKernel, SwitchableObject};
use crate::spin::{self, Backoff, Memory, Ordering, INVALID_PTR, NIL};
use crate::{Observation, ProtocolId};

/// Slot of the test-and-test-and-set protocol (cheap, low latency).
pub const PROTO_TTS: ProtocolId = ProtocolId(0);
/// Slot of the MCS queue protocol (scalable, fair).
pub const PROTO_QUEUE: ProtocolId = ProtocolId(1);

/// The mode hint's TTS value (the hint stores the valid protocol's id).
const MODE_TTS: u64 = PROTO_TTS.0 as u64;

/// Lost `test&set`s in one acquisition above which the monitor reports
/// TTS as suboptimal (the hysteresis of §3.7.3).
pub const TTS_RETRY_LIMIT: u64 = 4;

/// Estimated residual cost of serving one high-contention acquisition
/// with the TTS protocol instead of the queue (§3.5.5), scaled by the
/// failure count over the limit (at most 4×).
pub const TTS_RESIDUAL: f64 = 150.0;
/// Estimated residual cost of serving one low-contention acquisition
/// with the queue protocol instead of TTS (§3.5.5).
pub const QUEUE_RESIDUAL: f64 = 15.0;

/// The reactive lock's per-world constants (DESIGN.md says why each
/// row differs); every other constant is shared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tuning {
    /// Consecutive empty-queue acquisitions after which the calm streak
    /// proposes TTS.
    pub empty_queue_limit: u64,
    /// How long a TTS waiter read-polls a busy flag between mode-hint
    /// checks (clock units of the world's [`Memory::now`]).
    pub poll_window: u64,
}

impl Tuning {
    /// The simulator: the paper's hysteresis (§3.7.3) in cycles, pinned
    /// by the determinism goldens.
    pub const SIMULATOR: Tuning = Tuning {
        empty_queue_limit: 4,
        poll_window: 400,
    };
    /// Host hardware, in nanoseconds.
    pub const HOST: Tuning = Tuning {
        empty_queue_limit: 16,
        poll_window: 1_000,
    };
    /// The host text under the model checker, whose clock counts
    /// scheduled steps: a waiter re-reads the hint after every probe,
    /// as a mode change must be seen within the explored schedule.
    pub const MODEL: Tuning = Tuning {
        poll_window: 1,
        ..Tuning::HOST
    };
}

/// What [`LockRef::release`] must do — the paper's `release_mode`
/// (Figure 3.27), carrying the queue node where one is in play.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReleaseMode<N> {
    /// Held via the TTS sub-lock; plain release.
    Tts,
    /// Held via the TTS sub-lock; switch to the queue protocol on
    /// release.
    TtsToQueue,
    /// Held via the queue sub-lock (node attached); plain release.
    Queue(N),
    /// Held via the queue sub-lock; switch to TTS on release.
    QueueToTts(N),
}

/// One reactive lock, borrowed for one call in one world's [`Memory`].
pub struct LockRef<'a, M: Memory, W: KernelWorld> {
    /// The world's memory, as seen by the calling process.
    pub mem: &'a M,
    /// The TTS sub-lock's flag.
    pub flag: M::Word,
    /// The queue sub-lock's tail.
    pub tail: M::Word,
    /// The mode hint.
    pub mode: M::Word,
    /// The lock's switching kernel.
    pub kernel: &'a SwitchKernel<W>,
    /// The TTS waiters' initial backoff.
    pub backoff: Backoff,
    /// The world's constants.
    pub tuning: Tuning,
}

impl<M: Memory, W: KernelWorld> LockRef<'_, M, W> {
    /// The optimistic attempt (§3.7.3): in queue mode the TTS flag is
    /// pinned busy, so a win implies the TTS protocol is valid.
    pub async fn try_acquire(&self) -> Option<ReleaseMode<M::Node>> {
        let won = spin::tts_try_acquire(self.mem, self.flag).await;
        won.then(|| self.after_tts(0))
    }

    /// Dispatch on the mode hint until a sub-lock is won; call it after
    /// [`LockRef::try_acquire`] fails. The returned [`ReleaseMode`] goes
    /// to [`LockRef::release`].
    pub async fn acquire_contended(&self) -> ReleaseMode<M::Node> {
        let m = self.mem;
        loop {
            // order: Acquire pairs with `publish_mode`'s Release.
            let r = if m.load(self.mode, Ordering::Acquire).await == MODE_TTS {
                let window = self.tuning.poll_window;
                spin::tts_acquire_while(m, self.flag, self.mode, MODE_TTS, self.backoff, window)
                    .await
                    .map(|failures| self.after_tts(failures))
            } else {
                self.acquire_queue().await
            };
            if let Some(r) = r {
                return r;
            }
            // Protocol changed under us (or the queue was invalid):
            // re-dispatch on the fresh hint.
        }
    }

    /// Monitor + policy decision after winning the TTS sub-lock.
    #[inline]
    fn after_tts(&self, failures: u64) -> ReleaseMode<M::Node> {
        let obs = if failures > TTS_RETRY_LIMIT {
            let residual = TTS_RESIDUAL * (failures as f64 / TTS_RETRY_LIMIT as f64).min(4.0);
            Observation::suboptimal(PROTO_TTS, PROTO_QUEUE, residual)
        } else {
            Observation::optimal(PROTO_TTS)
        };
        match self.kernel.observe(&obs) {
            Some(_queue) => ReleaseMode::TtsToQueue,
            None => ReleaseMode::Tts,
        }
    }

    /// Figure 3.28's `acquire_queue`; `None` if the queue was invalid.
    async fn acquire_queue(&self) -> Option<ReleaseMode<M::Node>> {
        let m = self.mem;
        let q = m.take_node();
        spin::mcs_prepare(m, q).await;
        let pred = spin::mcs_swap(m, self.tail, q).await;
        if pred == INVALID_PTR {
            // We swapped our node onto an *invalid* queue: restore the
            // sentinel (bouncing anyone who chained behind us) and
            // retry with the other protocol.
            spin::invalidate_from(m, self.tail, q).await;
            m.put_node(q);
            return None;
        }
        let target = if pred == NIL {
            // Empty queue: acquired at once (a calm execution).
            let limit = self.tuning.empty_queue_limit;
            self.kernel
                .observe_calm(PROTO_QUEUE, PROTO_TTS, limit, QUEUE_RESIDUAL)
        } else {
            spin::mcs_chain(m, q, pred).await;
            // A busy queue ends the calm run now, not at our grant: a
            // usurper that finds the tail momentarily NIL in between
            // (`mcs_release`'s race) starts a fresh run.
            self.kernel.end_calm_streak();
            if !spin::mcs_wait(m, q).await {
                // Switched away while we waited: re-dispatch.
                m.put_node(q);
                return None;
            }
            // User policies may direct a switch on any observation.
            self.kernel.observe(&Observation::optimal(PROTO_QUEUE))
        };
        // The only other slot is TTS, so an approved target is it.
        Some(match target {
            Some(_tts) => ReleaseMode::QueueToTts(q),
            None => ReleaseMode::Queue(q),
        })
    }

    /// Release the lock, performing any protocol change the acquisition
    /// decided on (Figure 3.29).
    pub async fn release(&self, rm: ReleaseMode<M::Node>) {
        let m = self.mem;
        match rm {
            ReleaseMode::Tts => spin::tts_release(m, self.flag).await,
            ReleaseMode::Queue(q) => {
                spin::mcs_release(m, self.tail, q).await;
                m.put_node(q);
            }
            ReleaseMode::TtsToQueue => {
                // `release_tts_to_queue`: the kernel validates the queue
                // (installing our node as its head, TTS left BUSY) and
                // publishes the hint; then we release via the queue.
                let q = m.take_node();
                let hooks = LockSwitch { lock: self, q };
                self.kernel.switch(&hooks, m, PROTO_TTS, PROTO_QUEUE).await;
                spin::mcs_release(m, self.tail, q).await;
                m.put_node(q);
            }
            ReleaseMode::QueueToTts(q) => {
                // `release_queue_to_tts`: the kernel flips the hint and
                // invalidates the queue (bouncing any waiters); freeing
                // the TTS flag is our release through the new protocol.
                let hooks = LockSwitch { lock: self, q };
                self.kernel.switch(&hooks, m, PROTO_QUEUE, PROTO_TTS).await;
                spin::tts_release(m, self.flag).await;
            }
        }
    }
}

/// The lock's [`SwitchableObject`] hooks, bound to the transition's
/// queue node (installed for TTS → queue, held for queue → TTS). No
/// hook writes the TTS flag: invalid means left busy, and valid means
/// freed by the switcher's own release afterwards.
struct LockSwitch<'l, 'a, M: Memory, W: KernelWorld> {
    lock: &'l LockRef<'a, M, W>,
    q: M::Node,
}

impl<M: Memory, W: KernelWorld> SwitchableObject for LockSwitch<'_, '_, M, W> {
    type Ctx = M;

    async fn validate(&self, m: &M, to: ProtocolId, _from: ProtocolId, _state: u64) {
        if to == PROTO_QUEUE {
            // Install our node as the head of the invalid queue, making
            // the queue protocol valid and held.
            spin::acquire_invalid(m, self.lock.tail, self.q).await;
        }
    }

    async fn invalidate(&self, m: &M, from: ProtocolId, _to: ProtocolId) -> Option<u64> {
        if from == PROTO_QUEUE {
            // Bounce every queued waiter back to dispatch and leave the
            // sentinel in the tail.
            spin::invalidate_from(m, self.lock.tail, self.q).await;
            m.put_node(self.q);
        }
        Some(0)
    }

    async fn publish_mode(&self, m: &M, to: ProtocolId) {
        // order: Release pairs with the dispatchers' Acquire loads.
        m.store(self.lock.mode, to.0 as u64, Ordering::Release)
            .await;
    }

    fn now(&self, m: &M) -> u64 {
        m.now()
    }

    fn note_switch(&self, m: &M, _from: ProtocolId, to: ProtocolId) {
        m.note(if to == PROTO_QUEUE {
            "reactive_lock.to_queue"
        } else {
            "reactive_lock.to_tts"
        });
    }
}
