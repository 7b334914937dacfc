//! A reactive barrier built on the switching kernel — the "fifth
//! reactive object".
//!
//! The paper's protocol-selection argument applies to barriers exactly
//! as to locks and fetch-and-op: a **centralized sense-reversing
//! barrier** has minimal fixed cost but every arrival contends on one
//! counter line, while a **software combining arrival tree** bounds
//! sharing per line at [`FANOUT`] but pays a level of counter updates
//! per `log_f P`. This object selects between them at run time.
//!
//! It exists to demonstrate the switching-kernel architecture: the
//! whole mode-change machinery — registration, valid/invalid
//! bookkeeping, policy handling, the calm streak, commit, `SwitchEvent`
//! emission — comes from [`SwitchKernel`](crate::policy::SwitchKernel);
//! this file contributes only the two arrival protocols, a contention
//! monitor (mean arrival-counter latency per round: a tree round below
//! [`TREE_LAT_LOW`] is a calm one, and [`TREE_CALM_LIMIT`] of them in a
//! row propose the central protocol), and ~30 lines of
//! [`SwitchableObject`] hooks. Compare with
//! the ~600-line forks each new reactive object needed before the
//! kernel existed.
//!
//! # Consensus discipline
//!
//! The barrier's consensus object is the **round-completion token**:
//! the last arriver of a round holds it exclusively — every other
//! participant has arrived and is waiting on the sense word, touching
//! no arrival structure. Protocol changes are performed only at that
//! point, *before* the sense flip, so:
//!
//! * a participant can never execute an invalid arrival protocol — the
//!   mode hint it read at entry cannot change until after its own
//!   arrival is counted (the round cannot complete without it), making
//!   the dispatch hint exact rather than merely a hint;
//! * waiter migration is trivial — at the switch point the only waiters
//!   are sense-pollers, and the sense release serves them identically
//!   under either protocol (no waiter can be lost across a change).

use std::cell::Cell;
use std::rc::Rc;

use alewife_sim::{Addr, Cpu, Machine, WaitQueueId};
use sync_protocols::barrier::{ArrivalTree, BarrierCtx};
use sync_protocols::waiting::WaitStrategy;

use crate::policy::{Observation, ProtocolId, SimKernel, SwitchStyle, SwitchableObject};
use crate::{Builder, InitialProtocol, Reactive};

/// Slot of the centralized sense-reversing protocol (cheap).
pub const PROTO_CENTRAL: ProtocolId = ProtocolId(0);
/// Slot of the combining arrival tree (scalable).
pub const PROTO_TREE: ProtocolId = ProtocolId(1);

const MODE_CENTRAL: u64 = PROTO_CENTRAL.0 as u64;

/// Mean arrival-counter latency (cycles) above which the central
/// counter is melting and the tree pays off.
pub const CENTRAL_LAT_LIMIT: u64 = 60;
/// Mean leaf-counter latency below which the tree's fixed cost is
/// wasted on an uncontended barrier.
pub const TREE_LAT_LOW: u64 = 45;
/// Consecutive calm tree rounds before proposing the central protocol.
pub const TREE_CALM_LIMIT: u64 = 3;
/// Arrival-tree fanout: processors sharing one counter line.
pub const FANOUT: usize = 4;

impl Reactive for ReactiveBarrier {
    type Params = ();

    const PROTOCOLS: &'static [(&'static str, SwitchStyle)] = &[
        ("central-sense", SwitchStyle::Handoff),
        ("combining-tree", SwitchStyle::Handoff),
    ];

    fn assemble(m: &Machine, home: usize, n: usize, _: (), kernel: Rc<SimKernel>) -> Self {
        let count = m.alloc_on(home, 1);
        let sense = m.alloc_on(home, 1);
        let mode = m.alloc_on(home, 1);
        m.write_word(mode, kernel.current().0 as u64);
        ReactiveBarrier {
            count,
            sense,
            mode,
            tree: ArrivalTree::new(m, n, FANOUT),
            q: m.new_wait_queue(),
            participants: n as u64,
            kernel,
            round_lat: Rc::new(Cell::new(0)),
        }
    }
}

impl InitialProtocol for ReactiveBarrier {}

/// A reactive barrier: centralized sense-reversing under light arrival
/// contention, combining arrival tree under heavy, switching at run
/// time through the shared [`SwitchKernel`](crate::policy::SwitchKernel). Cheap to clone; clones
/// share the barrier.
#[derive(Clone)]
pub struct ReactiveBarrier {
    count: Addr,
    sense: Addr,
    mode: Addr,
    tree: ArrivalTree,
    q: WaitQueueId,
    participants: u64,
    kernel: Rc<SimKernel>,
    /// Sum of this round's arrival-counter latencies (the monitor).
    round_lat: Rc<Cell<u64>>,
}

impl std::fmt::Debug for ReactiveBarrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactiveBarrier")
            .field("participants", &self.participants)
            .field("switches", &self.kernel.switches())
            .finish()
    }
}

impl ReactiveBarrier {
    /// Start building a reactive barrier for participants
    /// `0..participants` (who call [`ReactiveBarrier::wait`] from their
    /// own node), homed on `home`.
    pub fn builder(m: &Machine, home: usize, participants: usize) -> Builder<'_, ReactiveBarrier> {
        assert!(participants > 0, "barrier needs at least one participant");
        Builder::new(m, home, participants, ())
    }

    /// Create with defaults (central protocol initially,
    /// [`Always`](crate::policy::Always) policy).
    pub fn new(m: &Machine, home: usize, participants: usize) -> ReactiveBarrier {
        ReactiveBarrier::builder(m, home, participants).build()
    }

    /// Number of protocol changes performed so far.
    pub fn switches(&self) -> u64 {
        self.kernel.switches()
    }

    /// Enter the barrier; returns when all participants have arrived.
    ///
    /// The mode read here is exact, not a racy hint: this round cannot
    /// complete (and therefore cannot change protocols) before this
    /// very arrival is counted.
    pub async fn wait<W: WaitStrategy>(&self, cpu: &Cpu, ctx: &mut BarrierCtx, wait: &W) {
        let new_sense = 1 - ctx.local_sense();
        ctx.set_local_sense(new_sense);
        let last = if cpu.read(self.mode).await == MODE_CENTRAL {
            let t0 = cpu.now();
            let arrived = cpu.fetch_and_add(self.count, 1).await;
            self.round_lat.set(self.round_lat.get() + (cpu.now() - t0));
            if arrived == self.participants - 1 {
                // Complete the central protocol before any mode change.
                cpu.write(self.count, 0).await;
                self.finish_round(cpu, PROTO_CENTRAL).await;
                true
            } else {
                false
            }
        } else {
            let a = self.tree.arrive(cpu, cpu.node()).await;
            self.round_lat.set(self.round_lat.get() + a.leaf_latency);
            if a.winner {
                self.finish_round(cpu, PROTO_TREE).await;
                true
            } else {
                false
            }
        };
        if last {
            cpu.write(self.sense, new_sense).await;
            cpu.signal_all(self.q).await;
        } else {
            wait.wait_word(cpu, self.sense, self.q, move |v| v == new_sense)
                .await;
        }
    }

    /// Last-arriver monitoring + policy consultation, holding the
    /// round-completion token (every other participant waits on the
    /// sense word).
    async fn finish_round(&self, cpu: &Cpu, current: ProtocolId) {
        let avg = self.round_lat.take() / self.participants;
        let target = if current == PROTO_CENTRAL {
            self.kernel.observe(&if avg > CENTRAL_LAT_LIMIT {
                let residual = ((avg - CENTRAL_LAT_LIMIT) * self.participants) as f64;
                Observation::suboptimal(PROTO_CENTRAL, PROTO_TREE, residual)
            } else {
                Observation::optimal(PROTO_CENTRAL)
            })
        } else if avg < TREE_LAT_LOW {
            let residual = 50.0 * self.participants as f64;
            self.kernel
                .observe_calm(PROTO_TREE, PROTO_CENTRAL, TREE_CALM_LIMIT, residual)
        } else {
            self.kernel.observe(&Observation::optimal(PROTO_TREE))
        };
        if let Some(target) = target {
            self.kernel
                .switch(&BarrierSwitch { b: self }, cpu, current, target)
                .await;
            // A straggler's latency from the old protocol may have
            // landed since `take`; the new protocol's first round
            // starts from zero.
            self.round_lat.set(0);
        }
    }
}

/// The barrier's [`SwitchableObject`] hooks. Validation resets the
/// entering protocol's arrival counters; invalidation is a no-op
/// because the exiting protocol is quiescent at a round boundary (its
/// completion *is* the consensus token).
struct BarrierSwitch<'a> {
    b: &'a ReactiveBarrier,
}

impl SwitchableObject for BarrierSwitch<'_> {
    type Ctx = Cpu;

    async fn validate(&self, cpu: &Cpu, to: ProtocolId, _from: ProtocolId, _state: u64) {
        if to == PROTO_TREE {
            self.b.tree.reset(cpu).await;
        } else {
            cpu.write(self.b.count, 0).await;
        }
    }

    async fn invalidate(&self, _cpu: &Cpu, _from: ProtocolId, _to: ProtocolId) -> Option<u64> {
        // The exiting protocol is quiescent at a round boundary and the
        // round token is held exclusively: nothing to do, cannot lose.
        Some(0)
    }

    async fn publish_mode(&self, cpu: &Cpu, to: ProtocolId) {
        cpu.write(self.b.mode, to.0 as u64).await;
    }

    fn now(&self, cpu: &Cpu) -> u64 {
        cpu.now()
    }

    fn note_switch(&self, cpu: &Cpu, _from: ProtocolId, to: ProtocolId) {
        let name = if to == PROTO_TREE {
            "reactive_barrier.to_tree"
        } else {
            "reactive_barrier.to_central"
        };
        cpu.bump(name, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SwitchLog;
    use alewife_sim::Config;
    use sync_protocols::waiting::AlwaysSpin;

    fn run_rounds(procs: usize, rounds: u64, bar_of: impl Fn(&Machine) -> ReactiveBarrier) -> u64 {
        let m = Machine::new(Config::default().nodes(procs));
        let bar = bar_of(&m);
        let acc = m.alloc_on(0, rounds);
        let check = m.alloc_on(if procs > 1 { 1 } else { 0 }, 1);
        for p in 0..procs {
            let cpu = m.cpu(p);
            let bar = bar.clone();
            m.spawn(p, async move {
                let mut ctx = BarrierCtx::default();
                for r in 0..rounds {
                    cpu.work(cpu.rand_below(300)).await;
                    cpu.fetch_and_add(acc.plus(r), 1).await;
                    bar.wait(&cpu, &mut ctx, &AlwaysSpin).await;
                    let v = cpu.read(acc.plus(r)).await;
                    if v != cpu.nodes() as u64 {
                        cpu.fetch_and_add(check, 1).await;
                    }
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0, "reactive barrier deadlock");
        assert_eq!(m.read_word(check), 0, "barrier released someone early");
        for r in 0..rounds {
            assert_eq!(m.read_word(acc.plus(r)), procs as u64);
        }
        bar.switches()
    }

    #[test]
    fn small_barrier_stays_central() {
        let switches = run_rounds(2, 10, |m| ReactiveBarrier::new(m, 0, 2));
        assert_eq!(switches, 0, "2 participants should never leave central");
    }

    #[test]
    fn single_participant() {
        run_rounds(1, 10, |m| ReactiveBarrier::new(m, 0, 1));
    }

    #[test]
    fn contended_barrier_switches_to_tree() {
        let m = Machine::new(Config::default().nodes(32));
        let log = Rc::new(SwitchLog::new());
        let bar = ReactiveBarrier::builder(&m, 0, 32)
            .instrument(log.clone())
            .build();
        let done = m.alloc_on(1, 1);
        for p in 0..32 {
            let cpu = m.cpu(p);
            let bar = bar.clone();
            m.spawn(p, async move {
                let mut ctx = BarrierCtx::default();
                for _ in 0..8 {
                    cpu.work(cpu.rand_below(100)).await;
                    bar.wait(&cpu, &mut ctx, &AlwaysSpin).await;
                }
                cpu.fetch_and_add(done, 1).await;
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0);
        assert_eq!(m.read_word(done), 32);
        assert!(
            bar.switches() >= 1,
            "32-way arrivals should reach the tree; switches = 0"
        );
        let evs = log.events();
        assert_eq!(evs.len() as u64, bar.switches());
        assert_eq!((evs[0].from, evs[0].to), (PROTO_CENTRAL, PROTO_TREE));
        let st = m.stats();
        assert!(st.counter("reactive_barrier.to_tree") >= 1);
    }

    #[test]
    fn starts_in_tree_when_asked_and_falls_back() {
        // 2 participants starting in the tree: calm rounds must pull it
        // down to the central protocol.
        let switches = run_rounds(2, 12, |m| {
            ReactiveBarrier::builder(m, 0, 2)
                .initial_protocol(PROTO_TREE)
                .build()
        });
        assert!(switches >= 1, "calm tree should fall back to central");
    }

    #[test]
    #[should_panic(expected = "not P7")]
    fn rejects_unknown_initial_protocol() {
        let m = Machine::new(Config::default().nodes(2));
        let _ = ReactiveBarrier::builder(&m, 0, 2).initial_protocol(ProtocolId(7));
    }
}
