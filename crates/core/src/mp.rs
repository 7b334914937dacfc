//! Reactive selection between shared-memory and message-passing
//! protocols (§3.6).
//!
//! Recent machines let software bypass shared memory and talk to the
//! message layer directly; message-passing protocols win under high
//! contention (better communication patterns, handler atomicity) but
//! lose under low contention (fixed send/receive overheads). These
//! reactive algorithms make that choice at run time:
//!
//! * [`ReactiveMpLock`] — test-and-test-and-set (shared memory) vs. a
//!   message-passing queue lock. Consensus objects: the TTS flag (left
//!   busy when invalid) and the manager's validity (an invalid manager
//!   bounces requesters with a retry reply).
//! * [`ReactiveMpFetchOp`] — TTS-lock-protected counter vs. centralized
//!   message-passing fetch-and-op vs. message-passing combining tree.
//!   Protocol changes transfer the counter value; the changer performs
//!   them while holding the currently-valid consensus object.
//!
//! Both are built through the shared [`Builder`] and speak the shared
//! reactive API: monitors emit [`Observation`]s or report calm
//! executions (a grant with an empty manager queue, a fast central
//! round trip), whose runs the switching kernel's calm streak turns
//! into a proposal of TTS after `EMPTY_LIMIT` of them; the pluggable
//! [`Policy`](crate::Policy) decides, and committed changes are counted
//! and reported to the configured [`Instrument`](crate::Instrument) sink.

use std::rc::Rc;

use crate::spin::TtsLock;
use alewife_sim::{Addr, Cpu, Machine};
use sync_protocols::fetch_op::FetchOp;
use sync_protocols::mp::{MpCombiningTree, MpCounter, MpQueueLock};
use sync_protocols::spin::Lock;

use crate::lock::{TTS_RESIDUAL, TTS_RETRY_LIMIT};
use crate::policy::{Observation, ProtocolId, SimKernel, SwitchStyle, SwitchableObject};
use crate::{Builder, MaxProcs, Reactive};

/// Slot of the shared-memory TTS protocol (locks and fetch-ops).
pub const PROTO_TTS: ProtocolId = ProtocolId(0);
/// Slot of the centralized message-passing protocol.
pub const PROTO_MP: ProtocolId = ProtocolId(1);
/// Slot of the message-passing combining tree (fetch-op only).
pub const PROTO_MP_TREE: ProtocolId = ProtocolId(2);

const MODE_TTS: u64 = PROTO_TTS.0 as u64;
const MODE_MP: u64 = PROTO_MP.0 as u64;

/// Consecutive zero-length grant queues signalling low contention.
const EMPTY_LIMIT: u64 = 4;

/// Release token for [`ReactiveMpLock`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpReleaseMode {
    /// Held via TTS; plain release.
    Tts,
    /// Held via TTS; switch to the message-passing queue on release.
    TtsToMp,
    /// Held via the MP queue; plain release.
    Mp,
    /// Held via the MP queue; switch to TTS on release.
    MpToTts,
}

impl Reactive for ReactiveMpLock {
    /// The node the MP handlers run on.
    type Params = usize;

    // Both consensus objects are holder-based here: the TTS flag is
    // pinned busy while invalid, and the manager's validity flips under
    // the lock holder's RPC.
    const PROTOCOLS: &'static [(&'static str, SwitchStyle)] = &[
        ("tts", SwitchStyle::Handoff),
        ("mp-queue", SwitchStyle::Handoff),
    ];

    /// TTS valid; MP manager invalid.
    fn assemble(m: &Machine, home: usize, n: usize, manager: usize, kernel: Rc<SimKernel>) -> Self {
        let tts = TtsLock::new(m, home, n);
        let mode = m.alloc_on(home, 1);
        m.write_word(mode, MODE_TTS);
        ReactiveMpLock {
            tts,
            mode,
            mp: MpQueueLock::with_validity(m, manager, false),
            kernel,
        }
    }
}

impl MaxProcs for ReactiveMpLock {}

/// Reactive spin lock selecting between a shared-memory TTS protocol
/// and a message-passing queue-lock protocol (§3.6).
#[derive(Clone)]
pub struct ReactiveMpLock {
    tts: TtsLock,
    mode: Addr,
    mp: MpQueueLock,
    kernel: Rc<SimKernel>,
}

impl std::fmt::Debug for ReactiveMpLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactiveMpLock")
            .field("tts", &self.tts)
            .finish()
    }
}

impl ReactiveMpLock {
    /// Start building a lock homed on `home` whose MP manager runs on
    /// `manager`.
    pub fn builder(m: &Machine, home: usize, manager: usize) -> Builder<'_, ReactiveMpLock> {
        Builder::new(m, home, m.nodes(), manager)
    }

    /// Create with the TTS protocol initially valid; the MP lock manager
    /// is installed on `manager`.
    pub fn new(m: &Machine, home: usize, manager: usize, max_procs: usize) -> ReactiveMpLock {
        Builder::new(m, home, max_procs, manager).build()
    }

    /// Number of protocol changes so far.
    pub fn switches(&self) -> u64 {
        self.kernel.switches()
    }

    /// Acquire; pass the returned token to [`ReactiveMpLock::release`].
    pub async fn acquire(&self, cpu: &Cpu) -> MpReleaseMode {
        loop {
            if cpu.read(self.mode).await == MODE_TTS {
                if let Some(r) = self.acquire_tts(cpu).await {
                    return r;
                }
            } else if let Some(r) = self.acquire_mp(cpu).await {
                return r;
            }
        }
    }

    async fn acquire_tts(&self, cpu: &Cpu) -> Option<MpReleaseMode> {
        let failures = self.tts.acquire_while(cpu, self.mode, MODE_TTS).await?;
        let obs = if failures > TTS_RETRY_LIMIT {
            Observation::suboptimal(PROTO_TTS, PROTO_MP, TTS_RESIDUAL)
        } else {
            Observation::optimal(PROTO_TTS)
        };
        Some(if self.kernel.observe(&obs).is_some() {
            MpReleaseMode::TtsToMp
        } else {
            MpReleaseMode::Tts
        })
    }

    async fn acquire_mp(&self, cpu: &Cpu) -> Option<MpReleaseMode> {
        let qlen = self.mp.try_acquire_with_qlen(cpu).await?;
        let target = if qlen == 0 {
            self.kernel
                .observe_calm(PROTO_MP, PROTO_TTS, EMPTY_LIMIT, 40.0)
        } else {
            self.kernel.observe(&Observation::optimal(PROTO_MP))
        };
        Some(if target.is_some() {
            MpReleaseMode::MpToTts
        } else {
            MpReleaseMode::Mp
        })
    }

    /// Release, performing any protocol change decided at acquire time.
    pub async fn release(&self, cpu: &Cpu, rm: MpReleaseMode) {
        match rm {
            MpReleaseMode::Tts => self.tts.release(cpu, ()).await,
            MpReleaseMode::Mp => self.mp.release(cpu, ()).await,
            MpReleaseMode::TtsToMp => {
                // The kernel validates the manager with the lock held
                // by us and flips the hint (TTS stays BUSY); we then
                // release through the manager.
                self.kernel
                    .switch(&MpLockSwitch { lock: self }, cpu, PROTO_TTS, PROTO_MP)
                    .await;
                self.mp.release(cpu, ()).await;
            }
            MpReleaseMode::MpToTts => {
                // The kernel flips the hint and invalidates the manager
                // (queued requesters bounce); freeing the TTS flag is
                // our release through the new protocol.
                self.kernel
                    .switch(&MpLockSwitch { lock: self }, cpu, PROTO_MP, PROTO_TTS)
                    .await;
                self.tts.release(cpu, ()).await;
            }
        }
    }
}

/// The MP lock's [`SwitchableObject`] hooks: manager validity RPCs plus
/// the pinned TTS flag.
struct MpLockSwitch<'a> {
    lock: &'a ReactiveMpLock,
}

impl SwitchableObject for MpLockSwitch<'_> {
    type Ctx = Cpu;

    async fn validate(&self, cpu: &Cpu, to: ProtocolId, _from: ProtocolId, _state: u64) {
        if to == PROTO_MP {
            // The validate RPC runs in the manager's handler, atomically
            // with any queued requests, while we hold the lock.
            self.lock.mp.validate_held_via(cpu).await;
        }
        // TTS becomes valid when the switcher frees the flag.
    }

    async fn invalidate(&self, cpu: &Cpu, from: ProtocolId, _to: ProtocolId) -> Option<u64> {
        if from == PROTO_MP {
            // The invalidate RPC serializes in the manager handler;
            // queued requesters receive retry replies. The changer
            // holds the lock, so the attempt is exclusive.
            self.lock.mp.invalidate_via(cpu).await;
        }
        // An invalid TTS flag is left BUSY.
        Some(0)
    }

    async fn publish_mode(&self, cpu: &Cpu, to: ProtocolId) {
        cpu.write(self.lock.mode, to.0 as u64).await;
    }

    fn now(&self, cpu: &Cpu) -> u64 {
        cpu.now()
    }

    fn note_switch(&self, cpu: &Cpu, _from: ProtocolId, to: ProtocolId) {
        let name = if to == PROTO_MP {
            "reactive_mp_lock.to_mp"
        } else {
            "reactive_mp_lock.to_tts"
        };
        cpu.bump(name, 1);
    }
}

impl Lock for ReactiveMpLock {
    type Token = MpReleaseMode;

    async fn acquire(&self, cpu: &Cpu) -> MpReleaseMode {
        ReactiveMpLock::acquire(self, cpu).await
    }

    async fn release(&self, cpu: &Cpu, t: MpReleaseMode) {
        ReactiveMpLock::release(self, cpu, t).await
    }
}

impl Reactive for ReactiveMpFetchOp {
    /// The node the MP handlers run on.
    type Params = usize;

    // Every slot here is value-carrying consensus: leaving a protocol
    // must capture the counter atomically with its invalidation and
    // install it into the target, so all exits use the kernel's
    // Transfer discipline.
    const PROTOCOLS: &'static [(&'static str, SwitchStyle)] = &[
        ("tts-counter", SwitchStyle::Transfer),
        ("mp-central", SwitchStyle::Transfer),
        ("mp-combining-tree", SwitchStyle::Transfer),
    ];

    /// Shared-memory TTS valid; MP protocols invalid.
    fn assemble(m: &Machine, home: usize, n: usize, manager: usize, kernel: Rc<SimKernel>) -> Self {
        let tts = TtsLock::new(m, home, n);
        let var = m.alloc_on(home, 1);
        let mode = m.alloc_on(home, 1);
        m.write_word(mode, MODE_TTS);
        ReactiveMpFetchOp {
            tts,
            var,
            mode,
            central: MpCounter::with_validity(m, manager, false),
            tree: MpCombiningTree::with_validity(m, manager, n, false),
            kernel,
        }
    }
}

impl MaxProcs for ReactiveMpFetchOp {}

/// Reactive fetch-and-op selecting among a shared-memory TTS-lock
/// counter, a centralized message-passing counter, and a
/// message-passing combining tree (§3.6).
///
/// Monitoring: failed `test&set`s promote TTS → central MP; central-MP
/// round-trip times (which grow with manager occupancy) promote central
/// → tree and demote tree → central; a calm streak of fast central
/// round trips demotes back to TTS. Counter-value transfer happens at
/// switch time under the current consensus object.
#[derive(Clone)]
pub struct ReactiveMpFetchOp {
    tts: TtsLock,
    var: Addr,
    mode: Addr,
    central: MpCounter,
    tree: MpCombiningTree,
    kernel: Rc<SimKernel>,
}

impl std::fmt::Debug for ReactiveMpFetchOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactiveMpFetchOp")
            .field("var", &self.var)
            .finish()
    }
}

/// Central-counter RPC round-trip (cycles) above which combining wins.
const RTT_HIGH: u64 = 700;
/// Round-trip below which the tree is overkill.
const RTT_LOW: u64 = 260;

impl ReactiveMpFetchOp {
    /// Start building a fetch-op homed on `home` whose MP handlers run
    /// on `manager`.
    pub fn builder(m: &Machine, home: usize, manager: usize) -> Builder<'_, ReactiveMpFetchOp> {
        Builder::new(m, home, m.nodes(), manager)
    }

    /// Create with the shared-memory TTS protocol initially valid; MP
    /// handlers are installed on `manager`.
    pub fn new(m: &Machine, home: usize, manager: usize, max_procs: usize) -> ReactiveMpFetchOp {
        Builder::new(m, home, max_procs, manager).build()
    }

    /// Number of protocol changes so far.
    pub fn switches(&self) -> u64 {
        self.kernel.switches()
    }

    /// The final counter value (host-side inspection after a run).
    pub fn value(&self, m: &Machine) -> u64 {
        // The value lives wherever the currently-valid protocol keeps it.
        match m.read_word(self.mode) {
            MODE_TTS => m.read_word(self.var),
            MODE_MP => self.central.value(),
            _ => self.tree.value(),
        }
    }

    /// Atomically add `delta`, returning the previous value.
    pub async fn fetch_add(&self, cpu: &Cpu, delta: u64) -> u64 {
        loop {
            match cpu.read(self.mode).await {
                MODE_TTS => {
                    if let Some(v) = self.try_tts(cpu, delta).await {
                        return v;
                    }
                }
                MODE_MP => {
                    if let Some(v) = self.try_central(cpu, delta).await {
                        return v;
                    }
                }
                _ => {
                    if let Ok(v) = self.tree.try_fetch_add(cpu, delta).await {
                        // Tree demotion is decided by sampled round
                        // trips; see `note_tree_op`.
                        self.note_tree_op(cpu).await;
                        return v;
                    }
                }
            }
        }
    }

    async fn try_tts(&self, cpu: &Cpu, delta: u64) -> Option<u64> {
        let failures = self.tts.acquire_while(cpu, self.mode, MODE_TTS).await?;
        let old = cpu.read(self.var).await;
        cpu.write(self.var, old.wrapping_add(delta)).await;
        let obs = if failures > TTS_RETRY_LIMIT {
            Observation::suboptimal(PROTO_TTS, PROTO_MP, TTS_RESIDUAL)
        } else {
            Observation::optimal(PROTO_TTS)
        };
        match self.kernel.observe(&obs) {
            Some(target) => {
                self.kernel
                    .switch(&MpFopSwitch { f: self }, cpu, PROTO_TTS, target)
                    .await;
            }
            None => self.tts.release(cpu, ()).await,
        }
        Some(old)
    }

    async fn try_central(&self, cpu: &Cpu, delta: u64) -> Option<u64> {
        let t0 = cpu.now();
        let old = self.central.try_fetch_add(cpu, delta).await.ok()?;
        let rtt = cpu.now() - t0;
        let target = if rtt > RTT_HIGH {
            self.kernel.observe(&Observation::suboptimal(
                PROTO_MP,
                PROTO_MP_TREE,
                (rtt - RTT_HIGH) as f64,
            ))
        } else if rtt < RTT_LOW {
            self.kernel
                .observe_calm(PROTO_MP, PROTO_TTS, EMPTY_LIMIT, 40.0)
        } else {
            self.kernel.observe(&Observation::optimal(PROTO_MP))
        };
        if let Some(target) = target {
            // Any completed requester may decide a change here, so the
            // attempt is fallible: the manager handler arbitrates
            // between concurrent changers, and a loser abandons its
            // stale decision (the winner owns the transition).
            let won = self
                .kernel
                .try_switch(&MpFopSwitch { f: self }, cpu, PROTO_MP, target)
                .await;
            if won && target == PROTO_TTS {
                self.tts.release(cpu, ()).await;
            }
        }
        Some(old)
    }

    /// Tree-mode monitoring: sample the machine every so often by
    /// demoting when the tree's own round trips are fast (little
    /// combining → little contention).
    async fn note_tree_op(&self, cpu: &Cpu) {
        // Sample 1 op in 8 to keep monitoring cheap.
        if cpu.rand_below(8) != 0 {
            return;
        }
        let t0 = cpu.now();
        // A no-op fetch_add(0) probes the tree's latency end to end.
        if self.tree.try_fetch_add(cpu, 0).await.is_ok() {
            let rtt = cpu.now() - t0;
            let obs = if rtt < RTT_HIGH {
                Observation::suboptimal(PROTO_MP_TREE, PROTO_MP, 100.0)
            } else {
                Observation::optimal(PROTO_MP_TREE)
            };
            if let Some(target) = self.kernel.observe(&obs) {
                // Fallible for the same reason as `try_central`.
                let won = self
                    .kernel
                    .try_switch(&MpFopSwitch { f: self }, cpu, PROTO_MP_TREE, target)
                    .await;
                if won && target == PROTO_TTS {
                    self.tts.release(cpu, ()).await;
                }
            }
        }
    }
}

/// The MP fetch-op's [`SwitchableObject`] hooks: all three consensus
/// objects carry the counter value, so `invalidate` captures it and
/// `validate` installs it (the kernel's Transfer discipline).
struct MpFopSwitch<'a> {
    f: &'a ReactiveMpFetchOp,
}

impl SwitchableObject for MpFopSwitch<'_> {
    type Ctx = Cpu;

    async fn validate(&self, cpu: &Cpu, to: ProtocolId, _from: ProtocolId, state: u64) {
        match to {
            PROTO_MP => self.f.central.validate_via(cpu, state).await,
            PROTO_MP_TREE => self.f.tree.validate_via(cpu, state).await,
            _ => cpu.write(self.f.var, state).await,
        }
    }

    async fn invalidate(&self, cpu: &Cpu, from: ProtocolId, _to: ProtocolId) -> Option<u64> {
        match from {
            // Leaving TTS: we hold the flag (and leave it pinned BUSY);
            // capturing the counter is a plain read under it, and the
            // hold makes the attempt exclusive.
            PROTO_TTS => Some(cpu.read(self.f.var).await),
            // Leaving an MP protocol: unlike the lock, *any* completed
            // requester may decide a change, so concurrent changers are
            // possible. The conditional-invalidate RPC arbitrates at
            // the manager handler (it IS the consensus object, §3.6):
            // exactly one changer captures the final value; the rest
            // observe the loss and abandon their stale decisions.
            PROTO_MP => self.f.central.try_invalidate_via(cpu).await,
            _ => self.f.tree.try_invalidate_via(cpu).await,
        }
    }

    async fn publish_mode(&self, cpu: &Cpu, to: ProtocolId) {
        cpu.write(self.f.mode, to.0 as u64).await;
    }

    fn now(&self, cpu: &Cpu) -> u64 {
        cpu.now()
    }

    fn note_switch(&self, cpu: &Cpu, from: ProtocolId, to: ProtocolId) {
        let name = match (from, to) {
            (PROTO_MP_TREE, PROTO_MP) => "reactive_mp_fop.tree_to_central",
            (PROTO_MP_TREE, _) => "reactive_mp_fop.tree_to_tts",
            (_, PROTO_MP) => "reactive_mp_fop.to_central",
            (_, PROTO_MP_TREE) => "reactive_mp_fop.to_tree",
            _ => "reactive_mp_fop.to_tts",
        };
        cpu.bump(name, 1);
    }
}

impl FetchOp for ReactiveMpFetchOp {
    async fn fetch_add(&self, cpu: &Cpu, delta: u64) -> u64 {
        ReactiveMpFetchOp::fetch_add(self, cpu, delta).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Hysteresis, SwitchLog};
    use alewife_sim::Config;
    use std::cell::RefCell;

    #[test]
    fn mp_lock_mutual_exclusion_and_adaptation() {
        let m = Machine::new(Config::default().nodes(8));
        let lock = ReactiveMpLock::new(&m, 0, 0, 8);
        let shared = m.alloc_on(1, 1);
        for p in 0..8 {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                for _ in 0..25 {
                    let t = lock.acquire(&cpu).await;
                    let v = cpu.read(shared).await;
                    cpu.work(10).await;
                    cpu.write(shared, v + 1).await;
                    lock.release(&cpu, t).await;
                    cpu.work(cpu.rand_below(80)).await;
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0, "reactive MP lock deadlock");
        assert_eq!(m.read_word(shared), 200);
    }

    #[test]
    fn mp_lock_single_proc_stays_tts() {
        let m = Machine::new(Config::default().nodes(2));
        let lock = ReactiveMpLock::new(&m, 0, 1, 2);
        let cpu = m.cpu(0);
        let l2 = lock.clone();
        m.spawn(0, async move {
            for _ in 0..60 {
                let t = l2.acquire(&cpu).await;
                cpu.work(10).await;
                l2.release(&cpu, t).await;
                cpu.work(30).await;
            }
        });
        m.run();
        assert_eq!(lock.switches(), 0);
    }

    #[test]
    fn mp_lock_builder_policy_and_sink_are_honored() {
        let m = Machine::new(Config::default().nodes(8));
        let log = Rc::new(SwitchLog::new());
        // A huge hysteresis threshold: the policy must suppress every
        // switch the Always default would have taken.
        let lock = ReactiveMpLock::builder(&m, 0, 0)
            .max_procs(8)
            .policy(Hysteresis::new(1_000_000, 1_000_000))
            .instrument(log.clone())
            .build();
        let shared = m.alloc_on(1, 1);
        for p in 0..8 {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                for _ in 0..20 {
                    let t = lock.acquire(&cpu).await;
                    cpu.work(10).await;
                    cpu.fetch_and_add(shared, 1).await;
                    lock.release(&cpu, t).await;
                    cpu.work(cpu.rand_below(60)).await;
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0);
        assert_eq!(m.read_word(shared), 160);
        assert_eq!(lock.switches(), 0, "hysteresis(1M) must suppress switches");
        assert_eq!(log.count(), 0);
    }

    #[test]
    fn mp_fetch_op_linearizes_across_switches() {
        let m = Machine::new(Config::default().nodes(16));
        let f = ReactiveMpFetchOp::new(&m, 0, 0, 16);
        let seen = Rc::new(RefCell::new(Vec::new()));
        for p in 0..16 {
            let cpu = m.cpu(p);
            let f = f.clone();
            let seen = seen.clone();
            m.spawn(p, async move {
                for _ in 0..15 {
                    let v = f.fetch_add(&cpu, 1).await;
                    seen.borrow_mut().push(v);
                    cpu.work(cpu.rand_below(80)).await;
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0, "reactive MP fetch-op deadlock");
        let mut got = seen.borrow().clone();
        got.sort_unstable();
        assert_eq!(got, (0..240u64).collect::<Vec<_>>());
        assert_eq!(f.value(&m), 240);
    }

    #[test]
    fn mp_fetch_op_single_proc_stays_shared_memory() {
        let m = Machine::new(Config::default().nodes(2));
        let f = ReactiveMpFetchOp::new(&m, 0, 1, 2);
        let cpu = m.cpu(0);
        let f2 = f.clone();
        m.spawn(0, async move {
            for _ in 0..80 {
                f2.fetch_add(&cpu, 1).await;
                cpu.work(20).await;
            }
        });
        m.run();
        assert_eq!(f.switches(), 0);
        assert_eq!(f.value(&m), 80);
    }
}
