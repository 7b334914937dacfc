//! Deterministic fault injection: node crashes, recoveries, and abort
//! signals delivered at event boundaries.
//!
//! The failure model is the standard recoverable-mutual-exclusion one
//! (Golab & Ramaraju): *processors* crash, *memory* survives. A kill
//! wipes everything volatile on the node — the running and ready
//! threads (their future state machines are the simulated registers),
//! the node's cache contents, and its directory presence — while the
//! authoritative word array (`State::mem`) persists as the node's
//! "NVM". A recovery brings the node back and spawns its registered
//! recovery thread (see `Machine::on_recovery`), which inspects NVM to
//! repair protocol state.
//!
//! A [`FaultPlan`] is a schedule of such actions fixed before the run.
//! Its entries become ordinary simulator events, so the same seed and
//! plan replay the same fault schedule down to the event interleaving —
//! and an **empty plan adds no events and perturbs nothing**, which is
//! what keeps the determinism goldens bit-exact. Randomized plans
//! ([`FaultPlan::crash_storm`], [`FaultPlan::abort_storm`]) draw from a
//! private xorshift64* stream derived from their seed argument, never
//! from the machine's stream.

use crate::exec::{BoxFut, Ev, TaskId};
use crate::state::State;

/// A pre-run schedule of fault actions, installed with
/// [`crate::Config::faults`].
///
/// Times are absolute virtual cycles. Kills and recoveries target a
/// node; aborts bump the node's abort epoch (observed by
/// [`crate::Cpu::poll_until_abortable`]). Actions at the same instant
/// fire in insertion order.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pub(crate) entries: Vec<(u64, FaultAction)>,
}

/// One scheduled fault action.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FaultAction {
    Kill(u32),
    Recover(u32),
    Abort(u32),
}

impl FaultPlan {
    /// An empty plan (injects nothing; simulation is unperturbed).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan schedules any action at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Kill `node` at virtual time `at`: every scheduler-managed thread
    /// on the node is destroyed (volatile state lost), its cache is
    /// wiped, and the directories forget it. Shared memory ("NVM")
    /// survives. No-op if the node is already dead at that time.
    pub fn kill_at(mut self, at: u64, node: usize) -> FaultPlan {
        self.entries.push((at, FaultAction::Kill(node as u32)));
        self
    }

    /// Recover `node` at virtual time `at`: the node is marked alive
    /// and its registered recovery thread (if any) is spawned. No-op if
    /// the node is alive.
    pub fn recover_at(mut self, at: u64, node: usize) -> FaultPlan {
        self.entries.push((at, FaultAction::Recover(node as u32)));
        self
    }

    /// Kill `node` at `at` and recover it `outage` cycles later.
    pub fn kill_for(self, at: u64, node: usize, outage: u64) -> FaultPlan {
        self.kill_at(at, node).recover_at(at + outage, node)
    }

    /// Deliver an abort signal to `node` at `at`: the node's abort
    /// epoch is bumped and its threads are woken so abortable waits
    /// ([`crate::Cpu::poll_until_abortable`]) observe the change.
    pub fn abort_at(mut self, at: u64, node: usize) -> FaultPlan {
        self.entries.push((at, FaultAction::Abort(node as u32)));
        self
    }

    /// A deterministic crash storm: `kills` kill/recover cycles spread
    /// uniformly over `(0, window]` across `nodes` nodes, each with the
    /// given `outage`, drawn from a private stream seeded by `seed`.
    pub fn crash_storm(
        seed: u64,
        nodes: usize,
        kills: usize,
        window: u64,
        outage: u64,
    ) -> FaultPlan {
        let mut s = mix_seed(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..kills {
            let at = crate::rng::below(&mut s, window.max(1)) + 1;
            let node = crate::rng::below(&mut s, nodes.max(1) as u64) as usize;
            plan = plan.kill_for(at, node, outage);
        }
        plan
    }

    /// A deterministic abort storm: `aborts` abort signals spread
    /// uniformly over `(0, window]` across `nodes` nodes, drawn from a
    /// private stream seeded by `seed`.
    pub fn abort_storm(seed: u64, nodes: usize, aborts: usize, window: u64) -> FaultPlan {
        let mut s = mix_seed(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..aborts {
            let at = crate::rng::below(&mut s, window.max(1)) + 1;
            let node = crate::rng::below(&mut s, nodes.max(1) as u64) as usize;
            plan = plan.abort_at(at, node);
        }
        plan
    }
}

/// Derive the plan's private RNG state from a user seed, decorrelating
/// it from the machine stream even when both use the same seed value.
fn mix_seed(seed: u64) -> u64 {
    let s = seed ^ 0xFA17_1A7E_D15A_57E5;
    if s == 0 {
        1
    } else {
        s
    }
}

/// One entry of the machine's fault log ([`crate::Machine::fault_log`]):
/// the actions that actually fired, in order, with their effects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// A node was killed at `at`, destroying `tasks_killed` threads.
    Kill {
        /// Virtual time of the kill.
        at: u64,
        /// The node that died.
        node: usize,
        /// Scheduler-managed threads destroyed by the kill.
        tasks_killed: u64,
    },
    /// A node came back at `at`.
    Recover {
        /// Virtual time of the recovery.
        at: u64,
        /// The node that recovered.
        node: usize,
    },
    /// An abort signal was delivered to a node at `at`.
    Abort {
        /// Virtual time of the signal.
        at: u64,
        /// The node whose abort epoch was bumped.
        node: usize,
    },
}

/// Kill `node`: destroy its threads, wipe its volatile cache/directory
/// presence, keep NVM. Runs at an event boundary (no poll in flight).
/// Returns the dead threads' futures (the volatile registers) for the
/// caller to drop once its borrow of the state has ended, since their
/// destructors may use a `Cpu`.
pub(crate) fn kill_node(st: &mut State, node: usize) -> Vec<BoxFut> {
    if !st.alive[node] {
        return Vec::new();
    }
    st.alive[node] = false;
    // Destroy every scheduler-managed thread on the node. Slots are
    // retired but deliberately NOT returned to the free list: in-flight
    // events still name these task ids, and a recycled id would alias a
    // stale wake onto a fresh task. The leak is bounded by kills.
    let mut dead = vec![false; st.tasks.len()];
    let mut killed = 0u64;
    let mut futs = Vec::new();
    for (i, slot) in dead.iter_mut().enumerate() {
        let on_node = st.tasks[i].as_ref().is_some_and(|t| t.node == node);
        if on_node {
            *slot = true;
            killed += 1;
            futs.extend(st.futs[i].take());
            st.tasks[i] = None;
            st.live_tasks -= 1;
        }
    }
    st.scheds[node].running = None;
    st.scheds[node].ready.clear();
    // Survivors keep their places: each queue is relinked in order.
    for q in &mut st.wait_queues {
        q.retain(&mut st.wait_link, |t| !dead[t.0]);
    }
    for w in &mut st.watchers {
        st.watch_nodes.retain(w, |t| !dead[t.0]);
    }
    // Volatile cache contents are lost and the coherence directories
    // forget the node (a crashed cache can never acknowledge an
    // invalidation or service an owner fetch). Values are safe: the
    // authoritative word array is updated at grant time, so a dead
    // exclusive owner holds no data the directory still needs.
    let id = node as u16;
    for d in &mut st.dir {
        if d.owner == id {
            d.owner = crate::coherence::NO_OWNER;
        }
        d.retain(&mut st.dir_spill, |&s| s != id);
    }
    st.fault_log.push(FaultEvent::Kill {
        at: st.now,
        node,
        tasks_killed: killed,
    });
    futs
}

/// Recover `node`: mark it alive and spawn its registered recovery
/// thread, if any.
pub(crate) fn recover_node(st: &mut State, node: usize) {
    if st.alive[node] {
        return;
    }
    st.alive[node] = true;
    st.fault_log.push(FaultEvent::Recover { at: st.now, node });
    let fut = st.recovery[node].as_ref().map(|f| f());
    if let Some(fut) = fut {
        crate::thread::spawn_thread(st, node, fut);
    }
}

/// Deliver an abort signal to `node`: bump its epoch and wake its
/// threads so abortable waits re-check.
pub(crate) fn abort_node(st: &mut State, node: usize) {
    st.abort_epoch[node] += 1;
    st.fault_log.push(FaultEvent::Abort { at: st.now, node });
    let tids: Vec<TaskId> = (0..st.tasks.len())
        .filter(|&i| st.tasks[i].as_ref().is_some_and(|t| t.node == node))
        .map(TaskId)
        .collect();
    let now = st.now;
    for tid in tids {
        st.schedule(now, Ev::Wake(tid));
    }
}
