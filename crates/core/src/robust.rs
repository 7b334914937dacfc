//! The **robust reactive lock**: run-time selection between an
//! abortable queue lock (cheap, deadline-capable, but wedged by a
//! holder crash) and a crash-recoverable mutex (every passage survives
//! kills, at `O(log n)` RMR cost), driven by the switching kernel.
//!
//! The monitor watches the machine's fault history through one NVM
//! word: the per-node recovery routine ([`RobustLock::recover`]) bumps
//! a crash counter, and
//!
//! * in **abortable** mode, a grant that observes new crashes reports
//!   the protocol suboptimal (a future crash of a holder would wedge
//!   the MCS queue) and the holder switches to the recoverable
//!   protocol on release;
//! * in **recoverable** mode, each crash-free passage is a calm
//!   execution; once the switching kernel's calm streak passes
//!   [`CALM_LIMIT`] it reports the `O(log n)` passages as overpriced
//!   and the holder switches back.
//!
//! Both mode changes run through [`crate::policy::SimKernel`] with the
//! Handoff discipline: only the current holder switches, so changes are
//! C-serialized against all passages. Validity lives in two NVM words
//! (at most one set); a process that wins a sub-lock re-checks its
//! validity word and bails out to dispatch if it won a dead protocol —
//! the analogue of the reactive spin lock's pinned-busy trick for
//! sub-locks that cannot be pinned. The kernel's write-ahead journal
//! (modelled as NVM) makes a crash *during* the transaction repairable:
//! [`RobustLock::recover`] runs [`SwitchKernel::recover`] through the
//! same hooks, which either rolls the NVM validity words back or
//! completes the transition — idempotently.
//!
//! Deadlines: honored by the abortable protocol. The recoverable
//! protocol trades abortability for crash-tolerance, so in recoverable
//! mode a deadline is ignored and the acquire blocks until granted —
//! the cross-protocol price §3.2 calls "the semantics of the protocol
//! in force".
//!
//! [`SwitchKernel::recover`]: reactive_api::SwitchKernel::recover

use std::cell::Cell;
use std::rc::Rc;

use alewife_sim::{Addr, Cpu, Machine};
use sync_protocols::abortable::{AbortableMcsLock, Acquired};
use sync_protocols::recover::{RecoverableMutex, Recovery};

use crate::policy::{Observation, ProtocolId, SimKernel, SwitchStyle, SwitchableObject};
use crate::{Builder, InitialProtocol, Reactive};
use reactive_api::SwitchRecovery;

/// Slot of the abortable MCS protocol (cheap, deadline-capable).
pub const PROTO_ABORTABLE: ProtocolId = ProtocolId(0);
/// Slot of the crash-recoverable Peterson-tree protocol.
pub const PROTO_RECOVERABLE: ProtocolId = ProtocolId(1);

/// Crash-free passages in recoverable mode before the monitor calls the
/// crash-tolerance overpriced.
pub const CALM_LIMIT: u64 = 8;

/// Residual cost (cycles) of serving a passage with the recoverable
/// protocol when no crashes are occurring (`O(log n)` tree climb vs one
/// queue handoff).
pub const RECOVERABLE_RESIDUAL: f64 = 400.0;

/// Residual cost charged per observed crash while in abortable mode
/// (a wedged queue costs a full recovery epoch).
pub const CRASH_RESIDUAL: f64 = 5_000.0;

/// What [`RobustLock::acquire`] returned with a grant; pass it back to
/// [`RobustLock::release`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RobustToken {
    proto: ProtocolId,
    /// Queue node when held via the abortable protocol.
    qnode: Option<Addr>,
    /// Switch target the monitor decided on, performed at release.
    switch_to: Option<ProtocolId>,
}

/// The robust reactive lock. Cheap to clone; clones share the lock.
#[derive(Clone)]
pub struct RobustLock {
    abortable: AbortableMcsLock,
    recoverable: RecoverableMutex,
    /// Two NVM validity words (at most one is 1).
    valid: Addr,
    /// NVM mode hint.
    mode: Addr,
    /// NVM crash counter, bumped by each node recovery.
    crashes: Addr,
    kernel: Rc<SimKernel>,
    /// Crash count already reacted to by the monitor.
    seen_crashes: Rc<Cell<u64>>,
}

impl std::fmt::Debug for RobustLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RobustLock")
            .field("valid", &self.valid)
            .field("mode", &self.mode)
            .finish()
    }
}

impl Reactive for RobustLock {
    type Params = ();

    const PROTOCOLS: &'static [(&'static str, SwitchStyle)] = &[
        ("abortable-mcs", SwitchStyle::Handoff),
        ("recoverable-tree", SwitchStyle::Handoff),
    ];

    /// The initial protocol's validity word set, the other clear.
    fn assemble(m: &Machine, home: usize, n: usize, _: (), kernel: Rc<SimKernel>) -> Self {
        let initial = kernel.current();
        let valid = m.alloc_on(home, 2);
        let mode = m.alloc_on(home, 1);
        let crashes = m.alloc_on(home, 1);
        m.write_word(valid.plus(initial.index() as u64), 1);
        m.write_word(mode, initial.0 as u64);
        RobustLock {
            abortable: AbortableMcsLock::new(m, home, n),
            recoverable: RecoverableMutex::new(m, n),
            valid,
            mode,
            crashes,
            kernel,
            seen_crashes: Rc::new(Cell::new(0)),
        }
    }
}

impl InitialProtocol for RobustLock {}

impl RobustLock {
    /// Start building a robust lock for `procs` processes, control
    /// words homed on `home`.
    pub fn builder(m: &Machine, home: usize, procs: usize) -> Builder<'_, RobustLock> {
        Builder::new(m, home, procs, ())
    }

    /// Build with the defaults (abortable initial protocol,
    /// [`Always`](crate::policy::Always) policy).
    pub fn new(m: &Machine, home: usize, procs: usize) -> RobustLock {
        RobustLock::builder(m, home, procs).build()
    }

    /// Number of protocol changes committed so far.
    pub fn switches(&self) -> u64 {
        self.kernel.switches()
    }

    /// The currently valid protocol according to the kernel.
    pub fn current(&self) -> ProtocolId {
        self.kernel.current()
    }

    fn valid_word(&self, p: ProtocolId) -> Addr {
        self.valid.plus(p.index() as u64)
    }

    /// Acquire as process `p` with an absolute-cycle `deadline`
    /// (`u64::MAX` = no deadline). Returns `None` when the attempt was
    /// abandoned — only possible while the abortable protocol is in
    /// force; the recoverable protocol blocks until granted.
    pub async fn acquire(&self, cpu: &Cpu, p: usize, deadline: u64) -> Option<RobustToken> {
        loop {
            let mode = ProtocolId(cpu.read(self.mode).await as u8);
            if mode == PROTO_ABORTABLE {
                match self.abortable.acquire(cpu, p, deadline).await {
                    Acquired::Aborted => return None,
                    Acquired::Granted(q) => {
                        if cpu.read(self.valid_word(PROTO_ABORTABLE)).await == 1 {
                            return Some(self.decide(cpu, PROTO_ABORTABLE, Some(q)).await);
                        }
                        // Won a dead protocol: bail out to dispatch.
                        self.abortable.release(cpu, q).await;
                    }
                }
            } else {
                self.recoverable.acquire(cpu, p).await;
                if cpu.read(self.valid_word(PROTO_RECOVERABLE)).await == 1 {
                    return Some(self.decide(cpu, PROTO_RECOVERABLE, None).await);
                }
                self.recoverable.release(cpu, p).await;
            }
        }
    }

    /// The monitor: consult the crash counter, report the passage to
    /// the kernel (a crash-free recoverable passage is a calm one), and
    /// bind any approved switch to this grant's token.
    async fn decide(&self, cpu: &Cpu, proto: ProtocolId, qnode: Option<Addr>) -> RobustToken {
        let crashes = cpu.read(self.crashes).await;
        let seen = self.seen_crashes.replace(crashes);
        let fresh = crashes > seen;
        let switch_to = if proto == PROTO_ABORTABLE {
            self.kernel.observe(&if fresh {
                let n = crashes - seen;
                Observation::suboptimal(
                    PROTO_ABORTABLE,
                    PROTO_RECOVERABLE,
                    CRASH_RESIDUAL * n as f64,
                )
            } else {
                Observation::optimal(PROTO_ABORTABLE)
            })
        } else if fresh {
            self.kernel
                .observe(&Observation::optimal(PROTO_RECOVERABLE))
        } else {
            self.kernel.observe_calm(
                PROTO_RECOVERABLE,
                PROTO_ABORTABLE,
                CALM_LIMIT,
                RECOVERABLE_RESIDUAL,
            )
        };
        RobustToken {
            proto,
            qnode,
            switch_to,
        }
    }

    /// Release as process `p`, performing any protocol change the
    /// monitor decided on at grant time.
    pub async fn release(&self, cpu: &Cpu, p: usize, t: RobustToken) {
        if let Some(to) = t.switch_to {
            // Holder-based Handoff: we hold `t.proto`'s sub-lock, so
            // the transaction cannot lose.
            self.kernel
                .switch(&RobustSwitch { lock: self }, cpu, t.proto, to)
                .await;
        }
        match t.proto {
            PROTO_ABORTABLE => {
                self.abortable
                    .release(cpu, t.qnode.expect("abortable grant carries a node"))
                    .await;
            }
            _ => self.recoverable.release(cpu, p).await,
        }
    }

    /// Per-node crash recovery: bump the NVM crash counter, repair the
    /// recoverable sub-lock's tree state for `p`, and repair any
    /// mode-change transaction the crash interrupted (via the kernel's
    /// write-ahead journal — roll back before commit, complete after).
    /// Install it from the machine's recovery factory
    /// (`m.on_recovery(node, ...)`).
    ///
    /// Returns what the sub-lock recovery found plus what the kernel
    /// recovery did.
    pub async fn recover(&self, cpu: &Cpu, p: usize) -> (Recovery, SwitchRecovery) {
        cpu.fetch_and_add(self.crashes, 1).await;
        // Kernel repair FIRST: if the crash interrupted a switch away
        // from the recoverable protocol, the recovery fence must clear
        // its validity word *before* the tree repair below releases the
        // dead hold — otherwise a waiter could win the tree, pass the
        // stale validity check, and overlap a critical section admitted
        // by the already-published new mode.
        let k = self.kernel.recover(&RobustSwitch { lock: self }, cpu).await;
        let r = self.recoverable.recover(cpu, p).await;
        (r, k)
    }

    /// Raw word addresses `(valid_abortable, valid_recoverable, mode)`
    /// for invariant inspection in tests and scenarios.
    pub fn inspect_words(&self) -> (Addr, Addr, Addr) {
        (
            self.valid_word(PROTO_ABORTABLE),
            self.valid_word(PROTO_RECOVERABLE),
            self.mode,
        )
    }
}

/// The robust lock's [`SwitchableObject`] hooks: validity is realized
/// as the two NVM words, so every hook is an idempotent single-word
/// store — which is what lets [`RobustLock::recover`] re-run them
/// after a crash mid-transaction.
struct RobustSwitch<'a> {
    lock: &'a RobustLock,
}

impl SwitchableObject for RobustSwitch<'_> {
    type Ctx = Cpu;

    async fn validate(&self, cpu: &Cpu, to: ProtocolId, _from: ProtocolId, _state: u64) {
        cpu.write(self.lock.valid_word(to), 1).await;
    }

    async fn invalidate(&self, cpu: &Cpu, from: ProtocolId, _to: ProtocolId) -> Option<u64> {
        cpu.write(self.lock.valid_word(from), 0).await;
        Some(0)
    }

    async fn publish_mode(&self, cpu: &Cpu, to: ProtocolId) {
        cpu.write(self.lock.mode, to.0 as u64).await;
    }

    fn now(&self, cpu: &Cpu) -> u64 {
        cpu.now()
    }

    fn note_switch(&self, cpu: &Cpu, _from: ProtocolId, to: ProtocolId) {
        let name = if to == PROTO_RECOVERABLE {
            "robust_lock.to_recoverable"
        } else {
            "robust_lock.to_abortable"
        };
        cpu.bump(name, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SwitchLog;
    use alewife_sim::{Config, FaultPlan, Machine};

    fn workload(lock: &RobustLock, m: &Machine, procs: usize, iters: u64, shared: Addr) {
        for p in 0..procs {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                for _ in 0..iters {
                    if let Some(t) = lock.acquire(&cpu, p, u64::MAX).await {
                        let v = cpu.read(shared).await;
                        cpu.work(20).await;
                        cpu.write(shared, v + 1).await;
                        lock.release(&cpu, p, t).await;
                    }
                    cpu.work(cpu.rand_below(100)).await;
                }
            });
        }
    }

    #[test]
    fn mutual_exclusion_without_faults() {
        let procs = 8;
        let m = Machine::new(Config::default().nodes(procs));
        let lock = RobustLock::new(&m, 0, procs);
        let shared = m.alloc_on(1, 1);
        workload(&lock, &m, procs, 25, shared);
        m.run();
        assert_eq!(m.live_tasks(), 0);
        assert_eq!(m.read_word(shared), 200);
        assert_eq!(lock.switches(), 0, "no faults, no reason to switch");
    }

    #[test]
    fn crashes_drive_a_switch_to_the_recoverable_protocol() {
        let procs = 4;
        let m = Machine::new(
            Config::default()
                .nodes(procs)
                .faults(FaultPlan::new().kill_for(4_000, 3, 2_000)),
        );
        let lock = RobustLock::new(&m, 0, procs);
        let shared = m.alloc_on(1, 1);
        // Only procs 0..3 run the workload; node 3 idles and dies (a
        // holder crash would wedge the abortable queue — the monitor
        // reacts to the *observed* crash before that can happen).
        workload(&lock, &m, 3, 30, shared);
        let rcpu = m.cpu(3);
        let rlock = lock.clone();
        m.on_recovery(3, move || {
            let cpu = rcpu.clone();
            let lock = rlock.clone();
            Box::pin(async move {
                lock.recover(&cpu, 3).await;
            })
        });
        m.run();
        assert_eq!(m.live_tasks(), 0);
        assert_eq!(m.read_word(shared), 90);
        assert!(
            lock.switches() >= 1,
            "observed crash should have driven a switch"
        );
        assert_eq!(
            m.stats().counter("robust_lock.to_recoverable"),
            1,
            "first switch goes to the recoverable protocol"
        );
    }

    #[test]
    fn calm_period_switches_back_to_abortable() {
        let procs = 4;
        let m = Machine::new(
            Config::default()
                .nodes(procs)
                .faults(FaultPlan::new().kill_for(2_000, 3, 1_000)),
        );
        let lock = RobustLock::new(&m, 0, procs);
        let shared = m.alloc_on(1, 1);
        // Long run: crash early, then a long calm stretch.
        workload(&lock, &m, 3, 60, shared);
        let rcpu = m.cpu(3);
        let rlock = lock.clone();
        m.on_recovery(3, move || {
            let cpu = rcpu.clone();
            let lock = rlock.clone();
            Box::pin(async move {
                lock.recover(&cpu, 3).await;
            })
        });
        m.run();
        assert_eq!(m.live_tasks(), 0);
        assert_eq!(m.read_word(shared), 180);
        assert!(
            m.stats().counter("robust_lock.to_abortable") >= 1,
            "calm streak should have switched back"
        );
        assert_eq!(lock.current(), PROTO_ABORTABLE);
    }

    #[test]
    fn deadlines_are_honored_in_abortable_mode() {
        let procs = 4;
        let m = Machine::new(Config::default().nodes(procs));
        let lock = RobustLock::new(&m, 0, procs);
        let abort_tally = m.alloc_on(2, 1);
        for p in 0..procs {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                for _ in 0..25 {
                    match lock.acquire(&cpu, p, cpu.now() + 300).await {
                        Some(t) => {
                            cpu.work(500).await; // CS longer than the deadline
                            lock.release(&cpu, p, t).await;
                        }
                        None => {
                            cpu.fetch_and_add(abort_tally, 1).await;
                        }
                    }
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0);
        assert!(
            m.read_word(abort_tally) > 0,
            "tight deadlines must abort some attempts"
        );
    }

    /// Crash the holder *during* the mode-change transaction at every
    /// crash point; kernel recovery must leave exactly one validity
    /// word set and a working lock.
    #[test]
    fn crash_mid_switch_recovers_at_every_point() {
        use reactive_api::CrashPoint;
        for (point, expect) in [
            (
                CrashPoint::AfterSourceInvalidated,
                SwitchRecovery::RolledBack {
                    from: PROTO_ABORTABLE,
                    to: PROTO_RECOVERABLE,
                },
            ),
            (
                CrashPoint::AfterTargetValidated,
                SwitchRecovery::Completed {
                    from: PROTO_ABORTABLE,
                    to: PROTO_RECOVERABLE,
                },
            ),
            (
                CrashPoint::AfterCommit,
                SwitchRecovery::Completed {
                    from: PROTO_ABORTABLE,
                    to: PROTO_RECOVERABLE,
                },
            ),
        ] {
            let m = Machine::new(Config::default().nodes(2));
            let lock = RobustLock::new(&m, 0, 2);
            let cpu = m.cpu(0);
            let l2 = lock.clone();
            m.spawn(0, async move {
                // Simulate a crash mid-transaction, then run recovery as
                // the recovering node would.
                l2.kernel
                    .switch_crashed(
                        &RobustSwitch { lock: &l2 },
                        &cpu,
                        PROTO_ABORTABLE,
                        PROTO_RECOVERABLE,
                        point,
                    )
                    .await;
                let (_, k) = l2.recover(&cpu, 0).await;
                assert_eq!(k, expect, "at {point:?}");
                // Exactly one validity word survives, matching the
                // kernel's view.
                let (va, vr, mode) = l2.inspect_words();
                let a = cpu.read(va).await;
                let r = cpu.read(vr).await;
                assert_eq!(a + r, 1, "exactly one valid word after recovery");
                let cur = l2.current();
                assert_eq!(r == 1, cur == PROTO_RECOVERABLE);
                assert_eq!(cpu.read(mode).await, cur.0 as u64, "mode hint repaired");
                // The lock still works end-to-end.
                let t = l2.acquire(&cpu, 0, u64::MAX).await.unwrap();
                l2.release(&cpu, 0, t).await;
            });
            m.run();
            assert_eq!(m.live_tasks(), 0);
        }
    }

    #[test]
    fn switch_events_reach_the_sink() {
        let procs = 4;
        let log = Rc::new(SwitchLog::new());
        let m = Machine::new(
            Config::default()
                .nodes(procs)
                .faults(FaultPlan::new().kill_for(3_000, 3, 1_500)),
        );
        let lock = RobustLock::builder(&m, 0, procs)
            .instrument(log.clone())
            .build();
        let shared = m.alloc_on(1, 1);
        workload(&lock, &m, 3, 40, shared);
        let rcpu = m.cpu(3);
        let rlock = lock.clone();
        m.on_recovery(3, move || {
            let cpu = rcpu.clone();
            let lock = rlock.clone();
            Box::pin(async move {
                lock.recover(&cpu, 3).await;
            })
        });
        m.run();
        let evs = log.events();
        assert_eq!(evs.len() as u64, lock.switches());
        assert!(!evs.is_empty());
        assert_eq!(
            (evs[0].from, evs[0].to),
            (PROTO_ABORTABLE, PROTO_RECOVERABLE)
        );
        // The commit log satisfies the §3.2 oracle.
        assert!(reactive_api::oracle::check_switch_history(&evs, 2, PROTO_ABORTABLE).is_ok());
    }
}
