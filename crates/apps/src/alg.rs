//! Runtime-selectable algorithm wrappers used by the applications and
//! the benchmark harness to sweep synchronization algorithms.

use std::rc::Rc;

use alewife_sim::{Addr, Cpu, Machine, WaitQueueId};
use reactive_core::lock::{ReactiveLock, ReleaseMode};
use reactive_core::policy::{Competitive3, Hysteresis, Instrument};
use reactive_core::spin::{McsLock, TtsLock};
use reactive_core::waiting::{SwitchSpin, TwoPhase, TwoPhaseSwitchSpin};
use reactive_core::ReactiveFetchOp;
use sync_protocols::fetch_op::{CombiningTree, FetchOp, LockFetchOp};
use sync_protocols::mp::{MpCombiningTree, MpCounter, MpQueueLock};
use sync_protocols::spin::{Lock, TestAndSetLock, FREE};
use sync_protocols::waiting::{AlwaysBlock, AlwaysSpin, WaitStrategy};

/// Selectable spin-lock algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockAlg {
    /// test&set with exponential backoff.
    TestAndSet,
    /// test-and-test-and-set with exponential backoff.
    Tts,
    /// MCS queue lock.
    Mcs,
    /// The reactive lock (switch-immediately policy).
    Reactive,
    /// The reactive lock with the 3-competitive policy.
    ReactiveCompetitive,
    /// The reactive lock with Hysteresis(x, y).
    ReactiveHysteresis(u64, u64),
    /// Message-passing queue lock (manager on the lock's home node).
    MpQueue,
}

/// A lock of any algorithm (enum dispatch over [`LockAlg`]).
#[derive(Clone, Debug)]
pub enum AnyLock {
    /// test&set.
    Ts(TestAndSetLock),
    /// test-and-test-and-set.
    Tts(TtsLock),
    /// MCS.
    Mcs(McsLock),
    /// Reactive.
    Reactive(ReactiveLock),
    /// Message-passing queue lock.
    Mp(MpQueueLock),
}

/// Release token for [`AnyLock`].
#[derive(Clone, Copy, Debug)]
pub enum AnyToken {
    /// No per-acquisition state.
    Unit,
    /// MCS queue node.
    Node(Addr),
    /// Reactive release mode.
    RMode(ReleaseMode),
}

impl AnyLock {
    /// Construct a lock homed on `home` for up to `procs` contenders.
    pub fn make(m: &Machine, home: usize, alg: LockAlg, procs: usize) -> AnyLock {
        AnyLock::make_instrumented(m, home, alg, procs, None)
    }

    /// Construct a lock, additionally attaching a switch-event sink to
    /// the reactive variants (the passive algorithms never switch, so
    /// the sink is unused for them).
    pub fn make_instrumented(
        m: &Machine,
        home: usize,
        alg: LockAlg,
        procs: usize,
        sink: Option<Rc<dyn Instrument>>,
    ) -> AnyLock {
        let reactive_builder = || {
            let b = ReactiveLock::builder(m, home).max_procs(procs);
            match sink.clone() {
                Some(s) => b.instrument(s),
                None => b,
            }
        };
        match alg {
            LockAlg::TestAndSet => AnyLock::Ts(TestAndSetLock::new(m, home, procs)),
            LockAlg::Tts => AnyLock::Tts(TtsLock::new(m, home, procs)),
            LockAlg::Mcs => AnyLock::Mcs(McsLock::new(m, home)),
            LockAlg::Reactive => AnyLock::Reactive(reactive_builder().build()),
            LockAlg::ReactiveCompetitive => AnyLock::Reactive(
                reactive_builder()
                    .policy(Competitive3::new(reactive_core::lock::SWITCH_ROUND_TRIP))
                    .build(),
            ),
            LockAlg::ReactiveHysteresis(x, y) => {
                AnyLock::Reactive(reactive_builder().policy(Hysteresis::new(x, y)).build())
            }
            LockAlg::MpQueue => AnyLock::Mp(MpQueueLock::new(m, home)),
        }
    }

    /// Acquire; returns the token to release with.
    pub async fn acquire(&self, cpu: &Cpu) -> AnyToken {
        match self {
            AnyLock::Ts(l) => {
                l.acquire(cpu).await;
                AnyToken::Unit
            }
            AnyLock::Tts(l) => {
                l.acquire(cpu).await;
                AnyToken::Unit
            }
            AnyLock::Mcs(l) => AnyToken::Node(l.acquire(cpu).await),
            AnyLock::Reactive(l) => AnyToken::RMode(l.acquire(cpu).await),
            AnyLock::Mp(l) => {
                l.acquire(cpu).await;
                AnyToken::Unit
            }
        }
    }

    /// Release with the token from [`AnyLock::acquire`].
    pub async fn release(&self, cpu: &Cpu, t: AnyToken) {
        match (self, t) {
            (AnyLock::Ts(l), AnyToken::Unit) => l.release(cpu, ()).await,
            (AnyLock::Tts(l), AnyToken::Unit) => l.release(cpu, ()).await,
            (AnyLock::Mcs(l), AnyToken::Node(q)) => l.release(cpu, q).await,
            (AnyLock::Reactive(l), AnyToken::RMode(r)) => l.release(cpu, r).await,
            (AnyLock::Mp(l), AnyToken::Unit) => l.release(cpu, ()).await,
            _ => panic!("token does not match lock variant"),
        }
    }
}

impl Lock for AnyLock {
    type Token = AnyToken;

    async fn acquire(&self, cpu: &Cpu) -> AnyToken {
        AnyLock::acquire(self, cpu).await
    }

    async fn release(&self, cpu: &Cpu, t: AnyToken) {
        AnyLock::release(self, cpu, t).await
    }
}

/// Selectable fetch-and-op algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchOpAlg {
    /// Counter under a TTS lock.
    TtsLock,
    /// Counter under an MCS queue lock.
    QueueLock,
    /// Goodman combining tree.
    Combining,
    /// The reactive fetch-and-op.
    Reactive,
    /// Centralized message-passing counter.
    MpCentral,
    /// Message-passing combining tree.
    MpCombining,
}

/// A fetch-and-add object of any algorithm.
#[derive(Clone, Debug)]
pub enum AnyFetchOp {
    /// TTS-lock based.
    TtsLock(LockFetchOp<TtsLock>),
    /// Queue-lock based.
    Queue(LockFetchOp<McsLock>),
    /// Combining tree.
    Tree(CombiningTree),
    /// Reactive.
    Reactive(ReactiveFetchOp),
    /// Centralized message-passing.
    MpCentral(MpCounter),
    /// Message-passing combining tree.
    MpTree(MpCombiningTree),
}

impl AnyFetchOp {
    /// Construct an object homed on `home` for up to `procs` requesters.
    pub fn make(m: &Machine, home: usize, alg: FetchOpAlg, procs: usize) -> AnyFetchOp {
        match alg {
            FetchOpAlg::TtsLock => {
                AnyFetchOp::TtsLock(LockFetchOp::new(m, home, TtsLock::new(m, home, procs)))
            }
            FetchOpAlg::QueueLock => {
                AnyFetchOp::Queue(LockFetchOp::new(m, home, McsLock::new(m, home)))
            }
            FetchOpAlg::Combining => AnyFetchOp::Tree(CombiningTree::new(m, home, procs)),
            FetchOpAlg::Reactive => AnyFetchOp::Reactive(ReactiveFetchOp::new(m, home, procs)),
            FetchOpAlg::MpCentral => AnyFetchOp::MpCentral(MpCounter::new(m, home)),
            FetchOpAlg::MpCombining => AnyFetchOp::MpTree(MpCombiningTree::new(m, home, procs)),
        }
    }

    /// Atomically add `delta`; returns the previous value.
    pub async fn fetch_add(&self, cpu: &Cpu, delta: u64) -> u64 {
        match self {
            AnyFetchOp::TtsLock(f) => f.fetch_add(cpu, delta).await,
            AnyFetchOp::Queue(f) => f.fetch_add(cpu, delta).await,
            AnyFetchOp::Tree(f) => f.fetch_add(cpu, delta).await,
            AnyFetchOp::Reactive(f) => f.fetch_add(cpu, delta).await,
            AnyFetchOp::MpCentral(f) => f.fetch_add(cpu, delta).await,
            AnyFetchOp::MpTree(f) => f.fetch_add(cpu, delta).await,
        }
    }
}

impl FetchOp for AnyFetchOp {
    async fn fetch_add(&self, cpu: &Cpu, delta: u64) -> u64 {
        AnyFetchOp::fetch_add(self, cpu, delta).await
    }
}

/// Selectable waiting algorithm (Chapter 4's experiments).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitAlg {
    /// Always poll.
    Spin,
    /// Always signal.
    Block,
    /// Two-phase with `Lpoll` in cycles.
    TwoPhase(u64),
    /// Switch-spinning (multithreaded polling).
    SwitchSpin,
    /// Two-phase switch-spinning with `Lpoll` in cycles.
    TwoPhaseSwitchSpin(u64),
}

impl WaitAlg {
    /// Short human-readable label for report tables.
    pub fn label(&self) -> String {
        match self {
            WaitAlg::Spin => "always-spin".into(),
            WaitAlg::Block => "always-block".into(),
            WaitAlg::TwoPhase(l) => format!("2phase(L={l})"),
            WaitAlg::SwitchSpin => "switch-spin".into(),
            WaitAlg::TwoPhaseSwitchSpin(l) => format!("2phase-ss(L={l})"),
        }
    }
}

/// Enum dispatch: each wait builds the selected algorithm's strategy
/// value and runs it.
impl WaitStrategy for WaitAlg {
    async fn wait(
        &self,
        cpu: &Cpu,
        addr: Addr,
        q: WaitQueueId,
        cond: impl Fn([u64; 2]) -> Option<u64> + Unpin,
    ) -> u64 {
        match *self {
            WaitAlg::Spin => AlwaysSpin.wait(cpu, addr, q, cond).await,
            WaitAlg::Block => AlwaysBlock.wait(cpu, addr, q, cond).await,
            WaitAlg::TwoPhase(l) => TwoPhase::new(l).wait(cpu, addr, q, cond).await,
            WaitAlg::SwitchSpin => SwitchSpin.wait(cpu, addr, q, cond).await,
            WaitAlg::TwoPhaseSwitchSpin(lpoll) => {
                TwoPhaseSwitchSpin { lpoll }.wait(cpu, addr, q, cond).await
            }
        }
    }
}

/// A mutex whose *waiting mechanism* is pluggable (Chapter 4's
/// mutual-exclusion benchmarks): a test-and-test-and-set lock whose
/// contenders wait with any [`WaitStrategy`], and whose releases signal
/// potential blockers. Waiting times are recorded in the `"mutex"`
/// histogram (Figures 4.10-4.11).
#[derive(Clone, Copy, Debug)]
pub struct WaitLock {
    flag: Addr,
    q: WaitQueueId,
}

impl WaitLock {
    /// Create a waitable mutex homed on `home`.
    pub fn new(m: &Machine, home: usize) -> WaitLock {
        WaitLock {
            flag: m.alloc_on(home, 1),
            q: m.new_wait_queue(),
        }
    }

    /// Acquire, waiting with `w`.
    pub async fn acquire<W: WaitStrategy>(&self, cpu: &Cpu, w: &W) {
        let t0 = cpu.now();
        loop {
            if cpu.test_and_set(self.flag).await == FREE {
                cpu.record_wait("mutex", cpu.now() - t0);
                return;
            }
            w.wait_word(cpu, self.flag, self.q, |v| v == FREE).await;
        }
    }

    /// Release and wake one waiter (if any blocked).
    pub async fn release(&self, cpu: &Cpu) {
        cpu.write(self.flag, FREE).await;
        cpu.signal_one(self.q).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alewife_sim::Config;

    #[test]
    fn any_lock_all_variants_exclude() {
        for alg in [
            LockAlg::TestAndSet,
            LockAlg::Tts,
            LockAlg::Mcs,
            LockAlg::Reactive,
            LockAlg::ReactiveCompetitive,
            LockAlg::ReactiveHysteresis(4, 8),
            LockAlg::MpQueue,
        ] {
            let m = Machine::new(Config::default().nodes(4));
            let lock = AnyLock::make(&m, 0, alg, 4);
            let shared = m.alloc_on(1, 1);
            for p in 0..4 {
                let cpu = m.cpu(p);
                let lock = lock.clone();
                m.spawn(p, async move {
                    for _ in 0..10 {
                        let t = lock.acquire(&cpu).await;
                        let v = cpu.read(shared).await;
                        cpu.work(10).await;
                        cpu.write(shared, v + 1).await;
                        lock.release(&cpu, t).await;
                        cpu.work(cpu.rand_below(50)).await;
                    }
                });
            }
            m.run();
            assert_eq!(m.live_tasks(), 0, "{alg:?} deadlocked");
            assert_eq!(m.read_word(shared), 40, "{alg:?} lost updates");
        }
    }

    #[test]
    fn any_fetch_op_all_variants_count() {
        for alg in [
            FetchOpAlg::TtsLock,
            FetchOpAlg::QueueLock,
            FetchOpAlg::Combining,
            FetchOpAlg::Reactive,
            FetchOpAlg::MpCentral,
            FetchOpAlg::MpCombining,
        ] {
            let m = Machine::new(Config::default().nodes(4));
            let f = AnyFetchOp::make(&m, 0, alg, 4);
            let sum = std::rc::Rc::new(std::cell::Cell::new(0u64));
            for p in 0..4 {
                let cpu = m.cpu(p);
                let f = f.clone();
                let sum = sum.clone();
                m.spawn(p, async move {
                    for _ in 0..10 {
                        f.fetch_add(&cpu, 1).await;
                        sum.set(sum.get() + 1);
                        cpu.work(cpu.rand_below(50)).await;
                    }
                });
            }
            m.run();
            assert_eq!(m.live_tasks(), 0, "{alg:?} deadlocked");
            assert_eq!(sum.get(), 40);
        }
    }

    #[test]
    fn wait_lock_with_all_wait_algs() {
        for alg in [
            WaitAlg::Spin,
            WaitAlg::Block,
            WaitAlg::TwoPhase(465),
            WaitAlg::TwoPhase(232),
        ] {
            let m = Machine::new(Config::default().nodes(4));
            let lock = WaitLock::new(&m, 0);
            let shared = m.alloc_on(1, 1);
            for p in 0..4 {
                let cpu = m.cpu(p);
                m.spawn(p, async move {
                    for _ in 0..10 {
                        lock.acquire(&cpu, &alg).await;
                        let v = cpu.read(shared).await;
                        cpu.work(20).await;
                        cpu.write(shared, v + 1).await;
                        lock.release(&cpu).await;
                        cpu.work(cpu.rand_below(100)).await;
                    }
                });
            }
            m.run();
            assert_eq!(m.live_tasks(), 0, "{alg:?} deadlocked");
            assert_eq!(m.read_word(shared), 40, "{alg:?} lost updates");
        }
    }
}
