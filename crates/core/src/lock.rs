//! The reactive spin lock (§3.3.1, §3.7.3, Figures 3.27-3.29).
//!
//! Combines the low uncontended latency of a test-and-test-and-set lock
//! with the scalability and fairness of the MCS queue lock by switching
//! protocol at run time. The two sub-locks *are* the consensus objects:
//!
//! * The algorithm maintains the invariant that **the two sub-locks are
//!   never free at the same time** — the inactive sub-lock is left in a
//!   busy state (TTS flag held `BUSY`; queue tail holding the `INVALID`
//!   marker), so at most one process can ever win a sub-lock.
//! * The mode variable is therefore only a *hint* for fast dispatch: a
//!   process that races a protocol change simply finds the stale
//!   sub-lock busy (or receives an `INVALID` signal on the queue) and
//!   retries with the other protocol.
//! * Protocol changes are performed only by the current lock holder,
//!   which serializes them with all protocol executions (C-serialization
//!   via consensus objects, §3.2.5).
//!
//! Contention monitoring (§3.3.1): in TTS mode the number of failed
//! `test&set` attempts per acquisition estimates contention; in queue
//! mode an empty-queue acquisition is a calm execution, and the
//! switching kernel's calm streak proposes TTS after
//! [`EMPTY_QUEUE_LIMIT`] of them in a row. The monitor turns those
//! signals into [`Observation`]s; the configured
//! [`Policy`](crate::Policy) decides whether to actually switch, and every
//! committed change is reported to the [`Instrument`](crate::Instrument)
//! sink as a [`crate::policy::SwitchEvent`].
//!
//! Construction goes through the builder:
//!
//! ```
//! use alewife_sim::{Config, Machine};
//! use reactive_core::policy::Hysteresis;
//! use reactive_core::ReactiveLock;
//!
//! let m = Machine::new(Config::default().nodes(4));
//! let lock = ReactiveLock::builder(&m, 0)
//!     .max_procs(4)
//!     .policy(Hysteresis::new(4, 4))
//!     .build();
//! # drop(lock);
//! ```

use std::rc::Rc;

use alewife_sim::{Addr, Cpu, Machine};
use sync_protocols::spin::{Lock, McsLock, TtsLock, BUSY, FREE, INVALID_PTR, NIL};

use crate::policy::{Observation, ProtocolId, SimKernel, SwitchStyle, SwitchableObject};
use crate::{Builder, InitialProtocol, MaxProcs, Reactive};

/// Slot of the test-and-test-and-set protocol (cheap, low latency).
pub const PROTO_TTS: ProtocolId = ProtocolId(0);
/// Slot of the MCS queue protocol (scalable, fair).
pub const PROTO_QUEUE: ProtocolId = ProtocolId(1);

/// Mode word values (the mode hint stores the valid protocol's id).
const MODE_TTS: u64 = PROTO_TTS.0 as u64;
const MODE_QUEUE: u64 = PROTO_QUEUE.0 as u64;

/// Failed `test&set` attempts in one acquisition that signal high
/// contention (the monitor's hysteresis, §3.7.3).
pub const TTS_RETRY_LIMIT: u64 = 4;

/// Consecutive empty-queue acquisitions that signal low contention.
pub const EMPTY_QUEUE_LIMIT: u64 = 4;

/// Estimated residual cost (cycles) of serving one high-contention
/// acquisition with the TTS protocol instead of the queue (§3.5.5).
pub const TTS_RESIDUAL: f64 = 150.0;

/// Estimated residual cost of serving one low-contention acquisition
/// with the queue protocol instead of TTS (§3.5.5).
pub const QUEUE_RESIDUAL: f64 = 15.0;

/// Empirical round-trip protocol-switching cost (§3.5.5: ≈ 8000 cycles
/// TTS→queue plus ≈ 800 cycles queue→TTS).
pub const SWITCH_ROUND_TRIP: f64 = 8_800.0;

/// What [`ReactiveLock::release`] must do — the paper's `release_mode`
/// (Figure 3.27), carrying the queue node where one is in play.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReleaseMode {
    /// Held via the TTS sub-lock; plain release.
    Tts,
    /// Held via the TTS sub-lock; switch to the queue protocol on
    /// release.
    TtsToQueue,
    /// Held via the queue sub-lock (queue node attached); plain release.
    Queue(Addr),
    /// Held via the queue sub-lock; switch to TTS on release.
    QueueToTts(Addr),
}

impl Reactive for ReactiveLock {
    type Params = ();

    // Both sub-locks are holder-based consensus objects: mode changes
    // run under the paper's handoff discipline (validate the target,
    // publish the hint, leave the source pinned).
    const PROTOCOLS: &'static [(&'static str, SwitchStyle)] = &[
        ("tts", SwitchStyle::Handoff),
        ("mcs-queue", SwitchStyle::Handoff),
    ];

    /// The initial protocol's sub-lock free, the other pinned busy —
    /// never both free.
    fn assemble(m: &Machine, home: usize, n: usize, _: (), kernel: Rc<SimKernel>) -> Self {
        let locks = m.alloc_on(home, 2);
        let mode = m.alloc_on(home, 1);
        if kernel.current() == PROTO_QUEUE {
            // Queue mode: queue valid and empty, TTS pinned busy.
            m.write_word(locks, BUSY);
            m.write_word(locks.plus(1), NIL);
            m.write_word(mode, MODE_QUEUE);
        } else {
            // TTS mode: TTS lock free, queue invalid.
            m.write_word(locks, FREE);
            m.write_word(locks.plus(1), INVALID_PTR);
            m.write_word(mode, MODE_TTS);
        }
        ReactiveLock {
            tts: TtsLock::over(locks, n),
            queue: McsLock::over(m, locks.plus(1)),
            mode,
            kernel,
        }
    }
}

impl MaxProcs for ReactiveLock {}
impl InitialProtocol for ReactiveLock {}

/// The reactive spin lock. Cheap to clone; clones share the lock.
#[derive(Clone)]
pub struct ReactiveLock {
    /// The two sub-locks, over one line `[tts_flag, queue_tail]`
    /// (§3.7.3 recommends they share a line so the optimistic
    /// `test&set` prefetches the queue tail).
    tts: TtsLock,
    queue: McsLock,
    /// Mode hint on its own (mostly-read) line.
    mode: Addr,
    kernel: Rc<SimKernel>,
}

impl std::fmt::Debug for ReactiveLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactiveLock")
            .field("tts", &self.tts)
            .field("queue", &self.queue)
            .field("mode", &self.mode)
            .finish()
    }
}

impl ReactiveLock {
    /// Start building a reactive lock homed on `home`.
    pub fn builder(m: &Machine, home: usize) -> Builder<'_, ReactiveLock> {
        Builder::new(m, home, m.nodes(), ())
    }

    /// Create a reactive lock homed on `home` with the default
    /// switch-immediately policy, sized for `max_procs` contenders.
    pub fn new(m: &Machine, home: usize, max_procs: usize) -> ReactiveLock {
        Builder::new(m, home, max_procs, ()).build()
    }

    /// Number of protocol changes performed so far.
    pub fn switches(&self) -> u64 {
        self.kernel.switches()
    }

    /// Raw word addresses `(tts_flag, queue_tail, mode)` for invariant
    /// inspection in tests and tools (e.g. checking the never-both-free
    /// invariant at quiescence).
    pub fn inspect_words(&self) -> (Addr, Addr, Addr) {
        (self.tts.flag(), self.queue.tail(), self.mode)
    }

    /// Acquire the lock; the returned [`ReleaseMode`] must be passed to
    /// [`ReactiveLock::release`].
    pub async fn acquire(&self, cpu: &Cpu) -> ReleaseMode {
        // Optimistic attempt (§3.7.3): in QUEUE mode the TTS flag is
        // permanently BUSY, so success implies the TTS protocol is
        // valid. Test before test&set so the optimism costs only a
        // cache hit while the queue protocol is in force (the flag is
        // constant-BUSY then, so the line stays read-cached).
        let flag = self.tts.flag();
        if cpu.read(flag).await == FREE && cpu.test_and_set(flag).await == FREE {
            return self.decide_after_tts(0);
        }
        loop {
            let mode = cpu.read(self.mode).await;
            let r = if mode == MODE_TTS {
                let won = self.tts.acquire_while(cpu, self.mode, MODE_TTS).await;
                won.map(|failures| self.decide_after_tts(failures))
            } else {
                self.acquire_queue(cpu).await
            };
            if let Some(r) = r {
                return r;
            }
            // Protocol changed under us (or the queue was invalid):
            // re-dispatch on the fresh mode hint.
        }
    }

    /// Monitor + policy decision after winning the TTS sub-lock.
    fn decide_after_tts(&self, failures: u64) -> ReleaseMode {
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

    /// Queue-protocol acquisition (Figure 3.28's `acquire_queue`).
    /// Returns `None` if the queue protocol was invalid.
    async fn acquire_queue(&self, cpu: &Cpu) -> Option<ReleaseMode> {
        let q = self.queue.prepare_qnode(cpu).await;
        let pred = self.queue.swap_tail(cpu, q).await;
        if pred == INVALID_PTR {
            // We swapped our node onto an *invalid* queue: restore the
            // INVALID marker (propagating it to anyone who chained
            // behind us) and retry with the other protocol.
            self.queue.invalidate_from(cpu, q).await;
            return None;
        }
        let target = if pred == NIL {
            // Empty queue: lock acquired immediately (low contention).
            self.kernel
                .observe_calm(PROTO_QUEUE, PROTO_TTS, EMPTY_QUEUE_LIMIT, QUEUE_RESIDUAL)
        } else {
            self.queue.chain(cpu, q, pred).await;
            // A busy queue ends the calm run now, not at our grant: a
            // usurper that finds the tail momentarily NIL in between
            // (`release_qnode`'s race) starts a fresh run.
            self.kernel.end_calm_streak();
            if !self.queue.wait_granted(cpu, q).await {
                // The queue protocol was switched away while we waited;
                // retry via dispatch (mode now points at TTS).
                return None;
            }
            // Honor the policy even on this optimal path: user policies
            // may direct a switch on any observation.
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
    pub async fn release(&self, cpu: &Cpu, rm: ReleaseMode) {
        match rm {
            ReleaseMode::Tts => self.tts.release(cpu, ()).await,
            ReleaseMode::Queue(q) => self.queue.release_qnode(cpu, q).await,
            ReleaseMode::TtsToQueue => {
                // `release_tts_to_queue` (Figure 3.29), driven by the
                // switching kernel: validate the queue (leaving the TTS
                // flag BUSY), publish the hint, then release via the
                // queue.
                let q = self.queue.take_qnode(cpu);
                self.kernel
                    .switch(&LockSwitch { lock: self, q }, cpu, PROTO_TTS, PROTO_QUEUE)
                    .await;
                self.queue.release_qnode(cpu, q).await;
            }
            ReleaseMode::QueueToTts(q) => {
                // `release_queue_to_tts`: the kernel flips the hint and
                // invalidates the queue (bouncing any waiters); freeing
                // the TTS flag is this holder's release through the
                // now-valid protocol.
                self.kernel
                    .switch(&LockSwitch { lock: self, q }, cpu, PROTO_QUEUE, PROTO_TTS)
                    .await;
                self.tts.release(cpu, ()).await;
            }
        }
    }
}

/// The lock's [`SwitchableObject`] hooks: the physical realization of
/// "make a sub-lock valid / invalid" for the two consensus objects,
/// bound to the queue node `q` involved in the transition (the node
/// being installed for TTS → queue, the held node for queue → TTS).
/// Sequencing, validity bookkeeping, and event emission are the
/// kernel's.
struct LockSwitch<'a> {
    lock: &'a ReactiveLock,
    q: Addr,
}

impl SwitchableObject for LockSwitch<'_> {
    type Ctx = Cpu;

    async fn validate(&self, cpu: &Cpu, to: ProtocolId, _from: ProtocolId, _state: u64) {
        if to == PROTO_QUEUE {
            // Install our node as the head of the (invalid) queue,
            // making the queue protocol valid-and-held.
            self.lock.queue.acquire_invalid(cpu, self.q).await;
        }
        // TTS becomes valid when the switcher frees the flag — that is
        // its release through the new protocol, after the transaction.
    }

    async fn invalidate(&self, cpu: &Cpu, from: ProtocolId, _to: ProtocolId) -> Option<u64> {
        if from == PROTO_QUEUE {
            // Bounce every queued waiter back to dispatch and leave the
            // INVALID sentinel in the tail.
            self.lock.queue.invalidate_from(cpu, self.q).await;
        }
        // An invalid TTS flag is simply left BUSY (never written). The
        // holder-based discipline is exclusive, so this cannot lose.
        Some(0)
    }

    async fn publish_mode(&self, cpu: &Cpu, to: ProtocolId) {
        cpu.write(self.lock.mode, to.0 as u64).await;
    }

    fn now(&self, cpu: &Cpu) -> u64 {
        cpu.now()
    }

    fn note_switch(&self, cpu: &Cpu, _from: ProtocolId, to: ProtocolId) {
        let name = if to == PROTO_QUEUE {
            "reactive_lock.to_queue"
        } else {
            "reactive_lock.to_tts"
        };
        cpu.bump(name, 1);
    }
}

impl Lock for ReactiveLock {
    type Token = ReleaseMode;

    async fn acquire(&self, cpu: &Cpu) -> ReleaseMode {
        ReactiveLock::acquire(self, cpu).await
    }

    async fn release(&self, cpu: &Cpu, t: ReleaseMode) {
        ReactiveLock::release(self, cpu, t).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Always, Competitive3, SwitchLog};
    use alewife_sim::{Config, Machine};

    fn hammer(
        lock_of: impl Fn(&Machine) -> ReactiveLock,
        procs: usize,
        iters: u64,
    ) -> (u64, u64, u64) {
        let m = Machine::new(Config::default().nodes(procs.max(2)));
        let lock = lock_of(&m);
        let shared = m.alloc_on(1, 1);
        for p in 0..procs {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                for _ in 0..iters {
                    let t = lock.acquire(&cpu).await;
                    let v = cpu.read(shared).await;
                    cpu.work(10).await;
                    cpu.write(shared, v + 1).await;
                    lock.release(&cpu, t).await;
                    cpu.work(cpu.rand_below(100)).await;
                }
            });
        }
        let t = m.run();
        assert_eq!(m.live_tasks(), 0, "reactive lock deadlock");
        (m.read_word(shared), t, lock.switches())
    }

    fn always(m: &Machine) -> ReactiveLock {
        ReactiveLock::builder(m, 0).policy(Always).build()
    }

    #[test]
    fn starts_in_queue_mode_when_asked() {
        let (v, _, _) = hammer(
            |m| {
                ReactiveLock::builder(m, 0)
                    .initial_protocol(PROTO_QUEUE)
                    .policy(Always)
                    .build()
            },
            8,
            40,
        );
        assert_eq!(v, 320);
        // Never-both-free must hold from birth in queue mode too.
        let m = Machine::new(Config::default().nodes(2));
        let lock = ReactiveLock::builder(&m, 0)
            .initial_protocol(PROTO_QUEUE)
            .build();
        let (tts, tail, mode) = lock.inspect_words();
        assert_eq!(m.read_word(tts), BUSY);
        assert_eq!(m.read_word(tail), NIL);
        assert_eq!(m.read_word(mode), MODE_QUEUE);
    }

    #[test]
    #[should_panic(expected = "not P5")]
    fn rejects_unknown_initial_protocol() {
        let m = Machine::new(Config::default().nodes(2));
        let _ = ReactiveLock::builder(&m, 0).initial_protocol(ProtocolId(5));
    }

    #[test]
    fn mutual_exclusion_single_proc() {
        let (v, _, _) = hammer(always, 1, 200);
        assert_eq!(v, 200);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let (v, _, switches) = hammer(always, 16, 30);
        assert_eq!(v, 480);
        // Heavy contention from the start: it should have moved to the
        // queue protocol.
        assert!(switches >= 1, "never switched protocols");
    }

    #[test]
    fn mutual_exclusion_two_procs() {
        let (v, _, _) = hammer(always, 2, 150);
        assert_eq!(v, 300);
    }

    #[test]
    fn stays_in_tts_mode_uncontended() {
        let m = Machine::new(Config::default().nodes(2));
        let lock = ReactiveLock::new(&m, 0, 2);
        let cpu = m.cpu(0);
        let l2 = lock.clone();
        m.spawn(0, async move {
            for _ in 0..100 {
                let t = l2.acquire(&cpu).await;
                cpu.work(10).await;
                l2.release(&cpu, t).await;
                cpu.work(20).await;
            }
        });
        m.run();
        assert_eq!(lock.switches(), 0, "uncontended lock should not switch");
        assert_eq!(m.read_word(lock.mode), MODE_TTS);
    }

    #[test]
    fn switches_to_queue_under_sustained_contention() {
        let (_, _, switches) = hammer(always, 32, 20);
        assert!(switches >= 1);
    }

    #[test]
    fn switch_events_reach_the_sink() {
        let log = Rc::new(SwitchLog::new());
        let sink = log.clone();
        let (_, _, switches) = hammer(
            move |m| {
                ReactiveLock::builder(m, 0)
                    .max_procs(16)
                    .instrument(sink.clone())
                    .build()
            },
            16,
            30,
        );
        let evs = log.events();
        assert_eq!(evs.len() as u64, switches, "sink missed events");
        assert!(!evs.is_empty());
        // First change under heavy load is TTS -> queue, with the
        // monitor's residual attached and a real timestamp.
        assert_eq!((evs[0].from, evs[0].to), (PROTO_TTS, PROTO_QUEUE));
        assert!(evs[0].residual > 0.0);
        let mut last = 0;
        for e in &evs {
            assert!(e.time >= last, "events out of order");
            last = e.time;
            assert_ne!(e.from, e.to);
        }
    }

    #[test]
    fn switches_back_to_tts_when_contention_fades() {
        // Phase 1: 8 procs hammer the lock; phase 2: only proc 0 uses it.
        let m = Machine::new(Config::default().nodes(8));
        let lock = ReactiveLock::new(&m, 0, 8);
        let shared = m.alloc_on(1, 1);
        for p in 0..8 {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                for _ in 0..20 {
                    let t = lock.acquire(&cpu).await;
                    cpu.work(50).await;
                    cpu.fetch_and_add(shared, 1).await;
                    lock.release(&cpu, t).await;
                    cpu.work(cpu.rand_below(100)).await;
                }
                if cpu.node() == 0 {
                    // Solo phase: far more than EMPTY_QUEUE_LIMIT
                    // acquisitions with an empty queue.
                    for _ in 0..30 {
                        let t = lock.acquire(&cpu).await;
                        cpu.work(10).await;
                        cpu.fetch_and_add(shared, 1).await;
                        lock.release(&cpu, t).await;
                        cpu.work(20).await;
                    }
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0);
        assert_eq!(m.read_word(shared), 8 * 20 + 30);
        // After the solo phase the lock must have returned to TTS mode.
        assert_eq!(m.read_word(lock.mode), MODE_TTS, "did not fall back to TTS");
        let st = m.stats();
        assert!(st.counter("reactive_lock.to_queue") >= 1);
        assert!(st.counter("reactive_lock.to_tts") >= 1);
    }

    #[test]
    fn competitive_policy_switches_more_conservatively() {
        let (_, _, sw_always) = hammer(always, 16, 25);
        let (_, _, sw_comp) = hammer(
            |m| {
                ReactiveLock::builder(m, 0)
                    .max_procs(16)
                    .policy(Competitive3::new(SWITCH_ROUND_TRIP))
                    .build()
            },
            16,
            25,
        );
        assert!(
            sw_comp <= sw_always,
            "3-competitive ({sw_comp}) switched more than always ({sw_always})"
        );
    }

    #[test]
    fn reactive_close_to_best_static_at_both_extremes() {
        use sync_protocols::spin::{McsLock, TtsLock};

        fn run_static<L: sync_protocols::spin::Lock>(
            mk: impl Fn(&Machine) -> L,
            procs: usize,
            iters: u64,
        ) -> u64 {
            let m = Machine::new(Config::default().nodes(procs.max(2)));
            let lock = mk(&m);
            for p in 0..procs {
                let cpu = m.cpu(p);
                let lock = lock.clone();
                m.spawn(p, async move {
                    for _ in 0..iters {
                        let t = lock.acquire(&cpu).await;
                        cpu.work(100).await;
                        lock.release(&cpu, t).await;
                        cpu.work(cpu.rand_below(500)).await;
                    }
                });
            }
            let t = m.run();
            assert_eq!(m.live_tasks(), 0);
            t
        }

        fn run_reactive(procs: usize, iters: u64) -> u64 {
            let m = Machine::new(Config::default().nodes(procs.max(2)));
            let lock = ReactiveLock::new(&m, 0, procs);
            for p in 0..procs {
                let cpu = m.cpu(p);
                let lock = lock.clone();
                m.spawn(p, async move {
                    for _ in 0..iters {
                        let t = lock.acquire(&cpu).await;
                        cpu.work(100).await;
                        lock.release(&cpu, t).await;
                        cpu.work(cpu.rand_below(500)).await;
                    }
                });
            }
            let t = m.run();
            assert_eq!(m.live_tasks(), 0);
            t
        }

        // Uncontended: reactive should be within 1.5x of TTS.
        let tts1 = run_static(|m| TtsLock::new(m, 0, 1), 1, 150);
        let re1 = run_reactive(1, 150);
        assert!(
            (re1 as f64) < 1.5 * tts1 as f64,
            "reactive {re1} vs TTS {tts1} uncontended"
        );

        // Contended: reactive should be within 1.5x of MCS.
        let mcs16 = run_static(|m| McsLock::new(m, 0), 16, 25);
        let re16 = run_reactive(16, 25);
        assert!(
            (re16 as f64) < 1.5 * mcs16 as f64,
            "reactive {re16} vs MCS {mcs16} contended"
        );
    }
}
