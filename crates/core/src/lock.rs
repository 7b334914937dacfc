//! The reactive spin lock (§3.3.1, §3.7.3, Figures 3.27-3.29) on the
//! simulated machine: the words, kernel and [`Tuning::SIMULATOR`] row
//! of [`reactive_api::lock`]'s protocol, which the native lock shares.
//! The configured [`Policy`](crate::Policy) decides every switch, and
//! each commit reaches the [`Instrument`](crate::Instrument) sink.
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
use reactive_api::lock::{LockRef, Tuning};
use reactive_api::spin::{self, BUSY, FREE, INVALID_PTR, NIL};
use reactive_api::LocalWorld;
use sync_protocols::spin::Lock;

use crate::policy::{SimKernel, SwitchStyle};
use crate::spin::{McsLock, SimMem, TtsLock};
use crate::{Builder, InitialProtocol, MaxProcs, Reactive};

pub use reactive_api::lock::{
    PROTO_QUEUE, PROTO_TTS, QUEUE_RESIDUAL, TTS_RESIDUAL, TTS_RETRY_LIMIT,
};

/// Consecutive empty-queue acquisitions that signal low contention.
pub const EMPTY_QUEUE_LIMIT: u64 = Tuning::SIMULATOR.empty_queue_limit;

/// Empirical round-trip protocol-switching cost (§3.5.5: ≈ 8000 cycles
/// TTS→queue plus ≈ 800 cycles queue→TTS).
pub const SWITCH_ROUND_TRIP: f64 = 8_800.0;

/// What [`ReactiveLock::release`] must do (Figure 3.27's
/// `release_mode`), carrying the queue node where one is in play.
pub type ReleaseMode = reactive_api::lock::ReleaseMode<Addr>;

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
        } else {
            // TTS mode: TTS lock free, queue invalid.
            m.write_word(locks, FREE);
            m.write_word(locks.plus(1), INVALID_PTR);
        }
        m.write_word(mode, kernel.current().0 as u64);
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
#[derive(Clone, Debug)]
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

    /// The shared lock text over `m`.
    fn at<'a>(&'a self, m: &'a SimMem<'a>) -> LockRef<'a, SimMem<'a>, LocalWorld> {
        LockRef {
            mem: m,
            flag: self.tts.flag(),
            tail: self.queue.tail(),
            mode: self.mode,
            kernel: &self.kernel,
            backoff: self.tts.backoff(),
            tuning: Tuning::SIMULATOR,
        }
    }

    /// Acquire the lock; the returned [`ReleaseMode`] must be passed to
    /// [`ReactiveLock::release`].
    pub async fn acquire(&self, cpu: &Cpu) -> ReleaseMode {
        let m = self.queue.mem(cpu);
        let lock = self.at(&m);
        match lock.try_acquire().await {
            Some(rm) => rm,
            None => lock.acquire_contended().await,
        }
    }

    /// Release the lock, performing any protocol change the acquisition
    /// decided on (Figure 3.29).
    pub async fn release(&self, cpu: &Cpu, rm: ReleaseMode) {
        match rm {
            // Shallower futures on the uncontended path (EXPERIMENTS.md).
            ReleaseMode::Tts => spin::tts_release(&self.queue.mem(cpu), self.tts.flag()).await,
            rm => self.at(&self.queue.mem(cpu)).release(rm).await,
        }
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
    use crate::policy::{Always, Competitive3, ProtocolId, SwitchLog};
    use alewife_sim::{Config, Machine};

    const MODE_TTS: u64 = PROTO_TTS.0 as u64;
    const MODE_QUEUE: u64 = PROTO_QUEUE.0 as u64;

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

    /// Every simulated acquire and release is one of these futures
    /// nested in a task, so their sizes are a counted host cost: growth
    /// fails here, and a shrink should lower the bounds to match.
    #[test]
    fn lock_futures_stay_within_their_measured_sizes() {
        let m = Machine::new(Config::default().nodes(2));
        let lock = ReactiveLock::new(&m, 0, 2);
        let cpu = m.cpu(0);
        let acquire = std::mem::size_of_val(&lock.acquire(&cpu));
        let release = std::mem::size_of_val(&lock.release(&cpu, ReleaseMode::Tts));
        assert!(acquire <= 352, "acquire future grew to {acquire} B");
        assert!(release <= 544, "release future grew to {release} B");
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
        fn run_static<L: Lock>(mk: impl Fn(&Machine) -> L, procs: usize, iters: u64) -> u64 {
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
