//! The **switching kernel** — the consensus-object mode-change engine
//! shared by every reactive object in both worlds.
//!
//! The paper's reactive algorithms (§3.2.5, §3.4) all share one
//! mechanism: N passive protocols, each guarded by a consensus object
//! with a valid/invalid state; a monitor that produces [`Observation`]s;
//! a [`Policy`] that turns observations into [`Decision`]s; and a
//! mode-change transaction that invalidates the old protocol, validates
//! the new one, migrates or bounces waiters, and publishes the new
//! dispatch hint. Before this module existed that state machine was
//! re-implemented by every reactive object (simulator lock, fetch-op,
//! message-passing objects, native lock). [`SwitchKernel`] owns it
//! once:
//!
//! * **protocol registration** — slots are registered in id order with a
//!   name and an exit [`SwitchStyle`];
//! * **valid/invalid flag transitions** — the kernel tracks the
//!   authoritative validity state machine and asserts the §3.2.3
//!   invariant (*at most one protocol valid at any instant*) across
//!   every transition;
//! * **policy handling** — [`SwitchKernel::observe`] consults the
//!   configured policy, filters self/out-of-range targets, and carries
//!   the approving residual to the commit point;
//! * **the mode-change transaction** — [`SwitchKernel::switch`]
//!   sequences the per-world [`SwitchableObject`] hooks (validate,
//!   publish, invalidate/migrate) in the order the exiting protocol's
//!   consensus discipline requires;
//! * **the calm streak** — [`SwitchKernel::observe_calm`] counts the
//!   run of calm executions (empty-queue grants, low combining rates,
//!   short barrier latencies — §3.3's evidence that the cheap protocol
//!   would do) and turns it into an [`Observation`]: optimal up to the
//!   object's limit, then a proposal of the cheaper protocol. Any
//!   other observation, every commit (including one
//!   [`SwitchKernel::recover`] completes) and every rolled-back
//!   transaction reset the run;
//! * **commit bookkeeping** — switch counting, policy evidence reset,
//!   and [`SwitchEvent`] emission through the configured
//!   [`Instrument`] sink.
//!
//! What stays in each reactive object is exactly the part that cannot
//! be shared: the physical realization of "make protocol *i* valid /
//! invalid" (pin a TTS flag busy, poison an MCS queue tail with the
//! `INVALID` sentinel, RPC a manager's validity flag) and the monitor
//! that classifies each execution. Those are supplied to the kernel as
//! [`SwitchableObject`] hooks and `observe`/`observe_calm` calls.
//!
//! # Worlds
//!
//! The simulator is single-threaded and shares objects through `Rc`;
//! host hardware is multi-threaded and shares through `Arc` with `Send`
//! policies. [`KernelWorld`] abstracts exactly that difference
//! ([`LocalWorld`] / [`SharedWorld`]), so the kernel's engine — and
//! therefore its observable `Decision`/`SwitchEvent` behaviour — is the
//! same type in both worlds. `crates/api/tests/conformance.rs` feeds
//! identical observation traces to a kernel of each world and asserts
//! bit-identical outputs.
//!
//! # Hook execution
//!
//! Hooks are `async` because simulator-side transitions issue simulated
//! memory operations (`cpu.write(...).await`). Native hooks are plain
//! atomics and never await; [`drive`] polls such an always-ready future
//! to completion synchronously.

use std::future::Future;
use std::pin::pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

use crate::{
    Always, Decision, Instrument, Observation, Policy, ProtocolId, ProtocolInfo, SwitchEvent,
};

// ---------------------------------------------------------------------
// Worlds
// ---------------------------------------------------------------------

/// The sharing/threading regime a [`SwitchKernel`] lives in.
///
/// The kernel engine is identical across worlds; only the pointer and
/// auto-trait plumbing differs — what a boxed policy must implement and
/// how the instrumentation sink is shared.
pub trait KernelWorld {
    /// The boxed policy trait object this world stores (`dyn Policy` on
    /// the single-threaded simulator, `dyn Policy + Send` on hardware).
    type Policy: Policy + ?Sized;
    /// The shared instrumentation sink handle (`Rc<dyn Instrument>` /
    /// `Arc<dyn Instrument + Send + Sync>`).
    type Sink: Instrument;

    /// The world's default policy (the paper's switch-immediately
    /// [`Always`]).
    fn default_policy() -> Box<Self::Policy>;
}

/// Single-threaded world: `Rc` sharing, `!Send` policies allowed. The
/// simulator-side reactive objects live here.
#[derive(Debug)]
pub enum LocalWorld {}

impl KernelWorld for LocalWorld {
    type Policy = dyn Policy;
    type Sink = Rc<dyn Instrument>;

    fn default_policy() -> Box<dyn Policy> {
        Box::new(Always)
    }
}

/// Multi-threaded world: `Arc` sharing, `Send` policies. The native
/// (host-atomics) reactive objects live here.
#[derive(Debug)]
pub enum SharedWorld {}

impl KernelWorld for SharedWorld {
    type Policy = dyn Policy + Send;
    type Sink = Arc<dyn Instrument + Send + Sync>;

    fn default_policy() -> Box<dyn Policy + Send> {
        Box::new(Always)
    }
}

// ---------------------------------------------------------------------
// Switch styles and the object hook trait
// ---------------------------------------------------------------------

/// How mode changes *leaving* a protocol slot must sequence the
/// validity transitions — the two consensus disciplines that appear in
/// the paper's algorithms.
///
/// Every transaction runs one sequence, `validate(to)` →
/// `publish_mode(to)` → commit; the style decides only where
/// `invalidate(from)` runs in it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchStyle {
    /// Holder-based consensus (sub-locks as consensus objects, §3.2.5):
    /// the switching process already holds the exiting protocol's
    /// consensus object, so the target is validated first and the
    /// source invalidated after commit (often implicitly, by leaving
    /// its consensus object pinned busy). Sequence:
    /// `validate(to)` → `publish_mode(to)` → commit → `invalidate(from)`.
    Handoff,
    /// Value-carrying consensus (manager validity flags, §3.6): the
    /// exiting protocol holds state (e.g. the fetch-and-op value) that
    /// must be captured atomically with its invalidation and installed
    /// into the target. Sequence:
    /// `state = invalidate(from)` → `validate(to, state)` →
    /// `publish_mode(to)` → commit.
    Transfer,
}

/// The per-world hooks a reactive object supplies to the kernel: the
/// physical realization of validity transitions, waiter migration, and
/// the dispatch hint.
///
/// Hooks are `async` so simulator-side implementations can issue
/// simulated memory operations; native implementations never await and
/// are driven synchronously with [`drive`].
///
/// # The consensus-object discipline (§3.2.5)
///
/// A reactive object serializes protocol changes with protocol
/// executions through per-protocol *consensus objects* (a lock word, a
/// queue tail, a manager's validity flag). Its protocols and these hooks
/// must guarantee:
///
/// 1. **Executions of an invalid protocol never take effect** — they
///    observe the invalidity through the consensus object and return
///    *retry* (a pinned-busy lock flag, an `INVALID` queue signal, a
///    bounce reply from a manager).
/// 2. **Only a process holding the currently valid consensus object
///    changes protocols**, which C-serializes the change with every
///    execution.
/// 3. The *combinator* (the N-way reactive object), not each protocol,
///    maintains the global invariant that **at most one protocol is
///    valid at any time** — e.g. the reactive lock's "the two sub-locks
///    are never both free". Individual protocols only promise (1) and
///    (2) locally.
///
/// # Contract
///
/// * `validate` / `invalidate` run while the switching process holds
///   the consensus object the exiting protocol's [`SwitchStyle`]
///   requires, so they need no additional synchronization.
/// * `invalidate` is also the **waiter-migration hook**: any process
///   waiting on the exiting protocol must be bounced (told to retry
///   through dispatch, §3.2.5's *invalid executions return retry*) or
///   migrated to the entering protocol before it returns.
/// * An object whose consensus discipline clears validity atomically
///   with the *decision* (e.g. under a combining-tree root lock) does
///   so before calling [`SwitchKernel::switch`] and leaves its
///   `invalidate` hook a no-op.
#[allow(async_fn_in_trait)] // hooks are driven in-world; no Send bound wanted
pub trait SwitchableObject {
    /// World-specific execution context threaded through to every hook
    /// (the simulated `Cpu` on the simulator, `()` on host hardware).
    type Ctx;

    /// Make `to`'s consensus object valid. Under
    /// [`SwitchStyle::Transfer`], `state` carries the value captured by
    /// `invalidate(from)`; otherwise it is 0.
    async fn validate(&self, ctx: &Self::Ctx, to: ProtocolId, from: ProtocolId, state: u64);

    /// Invalidate `from`'s consensus object, bouncing or migrating its
    /// waiters. Under [`SwitchStyle::Transfer`], returns the captured
    /// protocol state to install into `to` — or `None` when the
    /// consensus object arbitrated the change away (it was already
    /// invalid: a concurrent changer won; see
    /// [`SwitchKernel::try_switch`]). Under [`SwitchStyle::Handoff`]
    /// invalidation runs after commit and must succeed (`Some`).
    async fn invalidate(&self, ctx: &Self::Ctx, from: ProtocolId, to: ProtocolId) -> Option<u64>;

    /// Publish the dispatch hint (the mode word). The hint is only an
    /// optimization — correctness rests on the consensus objects — so
    /// this is a plain store/write.
    async fn publish_mode(&self, ctx: &Self::Ctx, to: ProtocolId);

    /// The clock used to stamp [`SwitchEvent`]s (simulated cycles /
    /// nanoseconds since object creation).
    fn now(&self, ctx: &Self::Ctx) -> u64;

    /// Per-pair diagnostics (e.g. named machine counters).
    fn note_switch(&self, _ctx: &Self::Ctx, _from: ProtocolId, _to: ProtocolId) {}
}

/// Drive a hook future that never awaits to completion (the native
/// world's synchronous execution of the kernel's async transaction).
///
/// # Panics
/// If the future returns `Poll::Pending` — which would mean a
/// supposedly synchronous hook tried to await.
#[inline(always)]
pub fn drive<F: Future>(fut: F) -> F::Output {
    let mut fut = pin!(fut);
    let waker = Waker::noop();
    match fut.as_mut().poll(&mut Context::from_waker(waker)) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!("kernel hook future awaited in a synchronous world"),
    }
}

// ---------------------------------------------------------------------
// Regression mutants (conc-check builds only)
// ---------------------------------------------------------------------

/// Whether the named regression mutant is active. Compiled only into
/// `conc-check` mutant builds (`RUSTFLAGS=--cfg conc_check_mutant`);
/// selected at run time by the `CONC_CHECK_MUTANT` environment
/// variable, so one mutant build can rediscover each seeded race in a
/// separate run. The kernel's own mutants re-introduce the races its
/// invariants fixed when it was extracted (see `try_switch`), the
/// shared MCS release seeds one more (`usurper_splice`, in
/// [`crate::spin`]), and `crates/check` seeds one in its slab
/// miniature through this same switch. The model checker must find
/// them all.
#[cfg(conc_check_mutant)]
#[doc(hidden)]
pub fn mutant(name: &str) -> bool {
    use std::sync::OnceLock;
    static SELECTED: OnceLock<String> = OnceLock::new();
    SELECTED.get_or_init(|| std::env::var("CONC_CHECK_MUTANT").unwrap_or_default()) == name
}

// ---------------------------------------------------------------------
// The kernel
// ---------------------------------------------------------------------

/// How far an in-flight mode-change transaction had progressed when it
/// was journaled — the recovery decision hinges on whether the commit
/// point was reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// The source's shadow validity was cleared; no hook has run yet
    /// (or, under [`SwitchStyle::Transfer`], the capture is still in
    /// flight). Recovery rolls back.
    Cleared,
    /// The target was physically validated (and its shadow flag set)
    /// but the commit bookkeeping has not landed. The transition is
    /// physically irreversible (a racer may already hold the target),
    /// so recovery rolls *forward*.
    Validated,
    /// The commit point was passed; only post-commit steps (publish,
    /// source invalidation) may be missing. Recovery completes them.
    Committed,
}

/// The write-ahead record of an in-flight mode-change transaction:
/// enough to decide, after a crash, whether to roll back or complete.
#[derive(Clone, Copy, Debug)]
struct Journal {
    from: ProtocolId,
    to: ProtocolId,
    phase: Phase,
}

/// Where [`SwitchKernel::switch_crashed`] stops a transaction — the
/// crash points a fault-injection run or the model checker exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Immediately after the source's shadow validity is cleared,
    /// before any object hook runs.
    AfterSourceInvalidated,
    /// Immediately after the target's `validate` hook (and its shadow
    /// flag) land.
    AfterTargetValidated,
    /// Immediately after the commit bookkeeping, before the remaining
    /// post-commit hooks (publish / source invalidation).
    AfterCommit,
}

/// What [`SwitchKernel::recover`] found and did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchRecovery {
    /// No transaction was in flight; nothing to do.
    Clean,
    /// A pre-commit crash: the source's validity was restored and the
    /// attempt's pending residual dropped. The object is exactly as if
    /// the switch was never attempted.
    RolledBack {
        /// The transaction's source protocol (valid again).
        from: ProtocolId,
        /// The abandoned target.
        to: ProtocolId,
    },
    /// A post-validation or post-commit crash: the transition was
    /// completed (commit bookkeeping if missing, mode publication,
    /// source invalidation). The object is exactly as if the switch
    /// finished normally.
    Completed {
        /// The invalidated source protocol.
        from: ProtocolId,
        /// The now-current target.
        to: ProtocolId,
    },
}

/// Mutable engine state, serialized by the holder of the currently
/// valid consensus object (so the mutex is uncontended by design).
struct KernelState<W: KernelWorld> {
    policy: Box<W::Policy>,
    /// `(target, residual)` carried from the approving observation to
    /// the commit point (decisions are often taken at acquire time
    /// while the switch machinery runs at release time). Keyed by the
    /// approved target so a losing concurrent attempt, or an aborted
    /// one, cannot donate its residual to an unrelated commit.
    pending: Option<(ProtocolId, f64)>,
    /// The authoritative validity flags (§3.2.3: at most one set).
    valid: Vec<bool>,
    /// The currently valid protocol (the last committed target).
    current: ProtocolId,
    /// Write-ahead journal of the in-flight transaction, if any —
    /// written before the first destructive step, advanced at the
    /// validate and commit points, cleared when the transaction ends.
    /// [`SwitchKernel::recover`] consults it after a crash.
    journal: Option<Journal>,
}

/// The consensus-object mode-change engine of an N-way reactive object.
///
/// Owns protocol registration, the valid/invalid state machine, policy
/// consultation, the mode-change transaction ordering, switch counting,
/// and [`SwitchEvent`] emission. Built through
/// [`SwitchKernel::builder`]; reactive objects embed one per object
/// (shared via `Rc`/`Arc` clones of the enclosing object).
pub struct SwitchKernel<W: KernelWorld> {
    protocols: Vec<ProtocolInfo>,
    exits: Vec<SwitchStyle>,
    /// The policy's [`Policy::optimal_is_noop`] capability, read once
    /// at build: when set, [`SwitchKernel::observe`] answers optimal
    /// observations without touching `state`.
    optimal_is_noop: bool,
    state: Mutex<KernelState<W>>,
    switches: AtomicU64,
    /// Consecutive calm executions since the last other observation,
    /// commit or rollback (see [`SwitchKernel::observe_calm`]).
    calm_streak: AtomicU64,
    sink: Option<W::Sink>,
}

impl<W: KernelWorld> std::fmt::Debug for SwitchKernel<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchKernel")
            .field("protocols", &self.protocols)
            .field("switches", &self.switches())
            .finish()
    }
}

/// Builder for [`SwitchKernel`]: protocol registration plus the
/// optional policy, sink, and initial protocol.
pub struct KernelBuilder<W: KernelWorld> {
    protocols: Vec<ProtocolInfo>,
    exits: Vec<SwitchStyle>,
    policy: Option<Box<W::Policy>>,
    sink: Option<W::Sink>,
    initial: ProtocolId,
}

impl<W: KernelWorld> Default for KernelBuilder<W> {
    fn default() -> Self {
        KernelBuilder {
            protocols: Vec::new(),
            exits: Vec::new(),
            policy: None,
            sink: None,
            initial: ProtocolId(0),
        }
    }
}

impl<W: KernelWorld> KernelBuilder<W> {
    /// Register the next protocol slot.
    ///
    /// # Panics
    /// If `id` is not the next slot in id order `0..N` — which also
    /// rejects registering the same [`ProtocolId`] twice.
    pub fn register(mut self, id: ProtocolId, name: &'static str, exit: SwitchStyle) -> Self {
        assert_eq!(
            id.index(),
            self.protocols.len(),
            "protocol slots must be in id order (duplicate or out-of-order registration)"
        );
        self.protocols.push(ProtocolInfo { id, name });
        self.exits.push(exit);
        self
    }

    /// Use the given (already-boxed) switching policy (default: the
    /// world's [`Always`]).
    pub fn policy(mut self, p: Box<W::Policy>) -> Self {
        self.policy = Some(p);
        self
    }

    /// Report every committed protocol change to `sink`.
    pub fn sink(mut self, sink: W::Sink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Start with the given protocol valid (slot 0 by default).
    pub fn initial(mut self, p: ProtocolId) -> Self {
        self.initial = p;
        self
    }

    /// Build the kernel with the initial protocol valid.
    ///
    /// # Panics
    /// * If no protocol was registered — a reactive object with no
    ///   protocols cannot serve any request.
    /// * If the initial protocol is not a registered slot.
    pub fn build(self) -> SwitchKernel<W> {
        assert!(
            !self.protocols.is_empty(),
            "a reactive object needs at least one protocol"
        );
        assert!(
            self.initial.index() < self.protocols.len(),
            "initial protocol {} is not a registered slot",
            self.initial
        );
        let mut valid = vec![false; self.protocols.len()];
        valid[self.initial.index()] = true;
        let policy = self.policy.unwrap_or_else(W::default_policy);
        SwitchKernel {
            protocols: self.protocols,
            exits: self.exits,
            optimal_is_noop: policy.optimal_is_noop(),
            state: Mutex::new(KernelState {
                policy,
                pending: None,
                valid,
                current: self.initial,
                journal: None,
            }),
            switches: AtomicU64::new(0),
            calm_streak: AtomicU64::new(0),
            sink: self.sink,
        }
    }
}

impl<W: KernelWorld> SwitchKernel<W> {
    /// Start building a kernel.
    pub fn builder() -> KernelBuilder<W> {
        KernelBuilder::default()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, KernelState<W>> {
        self.state.lock().expect("switch kernel poisoned")
    }

    /// Feed one acquisition's observation to the policy. Returns the
    /// switch target if the policy directed a change (always a
    /// registered, non-current slot), or `None` to stay. Ends any calm
    /// streak.
    #[inline]
    pub fn observe(&self, obs: &Observation) -> Option<ProtocolId> {
        self.end_calm_streak();
        self.decide(obs)
    }

    /// Report one calm execution of `current` — an acquisition that met
    /// no contention, the §3.3 evidence that `cheaper` would serve as
    /// well for less. The kernel extends the calm streak and feeds the
    /// policy `Observation::optimal(current)` while the streak is at
    /// most `limit`, then `Observation::suboptimal(current, cheaper,
    /// residual)`: the first proposal is calm execution `limit + 1`.
    /// Returns what [`SwitchKernel::observe`] would for that
    /// observation. Takes no lock below the limit when the policy's
    /// [`Policy::optimal_is_noop`] holds.
    #[inline]
    pub fn observe_calm(
        &self,
        current: ProtocolId,
        cheaper: ProtocolId,
        limit: u64,
        residual: f64,
    ) -> Option<ProtocolId> {
        // order: Relaxed — a monitoring heuristic guarding no data; on
        // hardware the caller holds the object, and a bump lost to a
        // racing reset only delays a proposal.
        let streak = self.calm_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak > limit {
            self.decide(&Observation::suboptimal(current, cheaper, residual))
        } else {
            self.decide(&Observation::optimal(current))
        }
    }

    /// End the calm streak without consulting the policy: for
    /// contention an object sees before its execution's observation is
    /// ready (an enqueuer that finds the queue busy has broken the run
    /// even while it still waits for its grant). [`SwitchKernel::observe`]
    /// does this itself. Loads first so that a run of non-calm
    /// executions (every uncontended TTS win) never writes the line.
    #[inline]
    pub fn end_calm_streak(&self) {
        // order: Relaxed — see `observe_calm`.
        if self.calm_streak.load(Ordering::Relaxed) != 0 {
            // order: Relaxed — see `observe_calm`.
            self.calm_streak.store(0, Ordering::Relaxed);
        }
    }

    #[inline]
    fn decide(&self, obs: &Observation) -> Option<ProtocolId> {
        if self.optimal_is_noop && obs.better.is_none() {
            // The policy promised `Stay` with no state change, and a
            // stay leaves `pending` alone: nothing to serialize.
            return None;
        }
        self.consult_policy(obs)
    }

    #[inline(never)] // the mutex path; inlined, it bloats callers' fast paths
    fn consult_policy(&self, obs: &Observation) -> Option<ProtocolId> {
        let mut st = self.state();
        match st.policy.decide(obs) {
            Decision::SwitchTo(t) if t != obs.current && t.index() < self.protocols.len() => {
                st.pending = Some((t, obs.residual));
                Some(t)
            }
            _ => None,
        }
    }

    /// Run the mode-change transaction `from → to` through `obj`'s
    /// hooks, in the order required by `from`'s registered
    /// [`SwitchStyle`], with commit bookkeeping (validity flags, switch
    /// count, policy reset, [`SwitchEvent`] emission) owned here.
    ///
    /// For protocols whose discipline gives the switching process
    /// *exclusive* hold of the consensus object (a held lock, a barrier
    /// round token), the attempt cannot lose; use this method — a lost
    /// race then indicates a broken discipline and panics.
    ///
    /// # Panics
    /// If the transaction aborts (see [`SwitchKernel::try_switch`]) or
    /// `to` is not a registered slot.
    pub async fn switch<O: SwitchableObject>(
        &self,
        obj: &O,
        ctx: &O::Ctx,
        from: ProtocolId,
        to: ProtocolId,
    ) {
        assert!(
            self.try_switch(obj, ctx, from, to).await,
            "switch {from} -> {to} lost the consensus race under an exclusive discipline"
        );
    }

    /// [`SwitchKernel::switch`] for protocols whose consensus object
    /// *arbitrates* between concurrent change attempts (a manager
    /// handler, §3.6): returns `false` — with no observable transition
    /// — when this attempt lost, either because another changer already
    /// committed (the kernel's `current` has moved on) or because the
    /// exiting protocol's invalidation found the consensus object
    /// already claimed (the Transfer-style invalidate hook returned
    /// `None`). The caller simply abandons its stale decision; the
    /// winning transaction owns the transition.
    ///
    /// # Panics
    /// If `to` is not a registered slot, or a Handoff invalidate hook
    /// returns `None` (it runs after commit and must succeed).
    pub async fn try_switch<O: SwitchableObject>(
        &self,
        obj: &O,
        ctx: &O::Ctx,
        from: ProtocolId,
        to: ProtocolId,
    ) -> bool {
        self.run_switch(obj, ctx, from, to, None).await
    }

    /// Fault-injection entry: run the mode-change transaction exactly
    /// as [`SwitchKernel::try_switch`] would, but stop dead at `crash`
    /// — as a processor crash at that instant would — leaving the
    /// write-ahead journal (and any partially-applied shadow state)
    /// behind for [`SwitchKernel::recover`] to repair. Used by the
    /// crash-storm scenarios and the `crates/check` model checker.
    pub async fn switch_crashed<O: SwitchableObject>(
        &self,
        obj: &O,
        ctx: &O::Ctx,
        from: ProtocolId,
        to: ProtocolId,
        crash: CrashPoint,
    ) -> bool {
        self.run_switch(obj, ctx, from, to, Some(crash)).await
    }

    async fn run_switch<O: SwitchableObject>(
        &self,
        obj: &O,
        ctx: &O::Ctx,
        from: ProtocolId,
        to: ProtocolId,
        crash: Option<CrashPoint>,
    ) -> bool {
        assert!(
            to.index() < self.protocols.len(),
            "switch target {to} is not a registered slot"
        );
        // Leaving protocol stops accepting executions: from this point
        // until `validate` completes, zero protocols are valid (both
        // consensus objects deny entry — the lock's "never both free").
        // Regression mutant `double_commit`: drop the stale-decision
        // abort (half of the fix for the MP fetch-op race where two
        // completed requesters both committed a change, double-freeing
        // the entering protocol's consensus object).
        #[cfg(conc_check_mutant)]
        let stale_abort = !mutant("double_commit");
        #[cfg(not(conc_check_mutant))]
        let stale_abort = true;
        {
            let mut st = self.state();
            if stale_abort && st.current != from {
                // A concurrent changer already moved the object; this
                // decision is stale. Drop its pending residual so it
                // cannot be attributed to a later unrelated commit.
                if matches!(st.pending, Some((t, _)) if t == to) {
                    st.pending = None;
                }
                return false;
            }
            st.valid[from.index()] = false;
            // Journal before any hook runs: a crash from here on leaves
            // a record recovery can act on.
            st.journal = Some(Journal {
                from,
                to,
                phase: Phase::Cleared,
            });
        }
        if crash == Some(CrashPoint::AfterSourceInvalidated) {
            return true;
        }
        let transfer = self.exits[from.index()] == SwitchStyle::Transfer;
        let state = if transfer {
            let inv = obj.invalidate(ctx, from, to).await;
            // Regression mutant `double_commit`: the other half of the
            // MP fetch-op fix — treat a lost consensus-object
            // arbitration as success (the pre-kernel managers
            // invalidated unconditionally), so both changers commit.
            #[cfg(conc_check_mutant)]
            let inv = if inv.is_none() && mutant("double_commit") {
                Some(0)
            } else {
                inv
            };
            let Some(state) = inv else {
                // The consensus object arbitrated the race to a
                // concurrent changer mid-flight; that transaction (which
                // already cleared `valid[from]` exactly as we did)
                // completes the transition. Drop this attempt's pending
                // residual and its journal entry (the winner owns the
                // transition now).
                let mut st = self.state();
                if matches!(st.pending, Some((t, _)) if t == to) {
                    st.pending = None;
                }
                st.journal = None;
                return false;
            };
            state
        } else {
            0
        };
        obj.validate(ctx, to, from, state).await;
        self.mark_valid(to);
        self.journal_phase(Phase::Validated);
        if crash == Some(CrashPoint::AfterTargetValidated) {
            return true;
        }
        obj.publish_mode(ctx, to).await;
        self.commit(obj.now(ctx), from, to);
        obj.note_switch(ctx, from, to);
        if crash == Some(CrashPoint::AfterCommit) {
            return true;
        }
        if !transfer {
            let inv = obj.invalidate(ctx, from, to).await;
            assert!(inv.is_some(), "post-commit invalidation cannot lose");
        }
        self.state().journal = None;
        // No post-transaction snapshot assert here: on real hardware a
        // racing thread may legitimately begin (and commit) an opposite
        // change the instant `publish_mode` lands, so the only sound
        // invariant checks are the per-step ones taken under the state
        // mutex in `mark_valid`.
        true
    }

    /// Repair the kernel after a crash that may have interrupted a
    /// mode-change transaction (e.g. the switching node was killed by a
    /// `FaultPlan`). Consults the write-ahead journal:
    ///
    /// * no journal — nothing was in flight; returns
    ///   [`SwitchRecovery::Clean`];
    /// * crash before the target was validated — rolls back: the
    ///   source's validity is restored and the attempt's pending
    ///   residual dropped, with **no** object hooks run (nothing
    ///   physical happened yet);
    /// * crash at or after validation — rolls forward: commit
    ///   bookkeeping if it is missing, then the idempotent tail
    ///   (`publish_mode`, `invalidate(from)`) so stale waiters are
    ///   fenced off the dead source protocol.
    ///
    /// Idempotent: the journal is cleared only after the repair
    /// completes, so a crash *during* recovery just re-runs it, and a
    /// second call returns [`SwitchRecovery::Clean`]. The object hooks
    /// invoked on the roll-forward path (`publish_mode`, `invalidate`)
    /// are idempotent by the [`SwitchableObject`] contract;
    /// `invalidate` finding the source already invalid (`None`) is
    /// accepted here — the first, interrupted run may already have
    /// claimed it.
    pub async fn recover<O: SwitchableObject>(&self, obj: &O, ctx: &O::Ctx) -> SwitchRecovery {
        let Some(j) = ({
            let st = self.state();
            st.journal
        }) else {
            return SwitchRecovery::Clean;
        };
        if j.phase == Phase::Cleared {
            // Nothing physical happened: restore the shadow state.
            let mut st = self.state();
            st.valid[j.to.index()] = false;
            st.valid[j.from.index()] = true;
            if matches!(st.pending, Some((t, _)) if t == j.to) {
                st.pending = None;
            }
            st.journal = None;
            self.end_calm_streak();
            return SwitchRecovery::RolledBack {
                from: j.from,
                to: j.to,
            };
        }
        // The target is physically valid: the transition must complete.
        if j.phase == Phase::Validated {
            // Crash landed between validate and commit.
            self.commit(obj.now(ctx), j.from, j.to);
            obj.note_switch(ctx, j.from, j.to);
        }
        // Both styles set the target's shadow flag before the journal
        // leaves `Cleared`, so a roll-forward finds it already set.
        assert!(
            self.state().valid[j.to.index()],
            "recovering {} -> {} past validation with the target's flag unset",
            j.from,
            j.to
        );
        obj.publish_mode(ctx, j.to).await;
        // Regression mutant `drop_recovery_fence`: skip the source
        // invalidation on the recovery path. Waiters parked on the dead
        // protocol are then never bounced, and a fresh acquirer racing
        // the recovery can enter through the stale consensus object —
        // the two-valid/double-grant interleaving the model checker's
        // `kernel_recovery` scenario must rediscover.
        #[cfg(conc_check_mutant)]
        let fence = !mutant("drop_recovery_fence");
        #[cfg(not(conc_check_mutant))]
        let fence = true;
        if fence {
            // The recovery fence: bounce/migrate everything still
            // parked on the source. A `None` is fine here (the
            // interrupted run may already have invalidated it).
            let _ = obj.invalidate(ctx, j.from, j.to).await;
        }
        self.state().journal = None;
        SwitchRecovery::Completed {
            from: j.from,
            to: j.to,
        }
    }

    /// The in-flight transaction `(from, to)` recorded in the journal,
    /// if any — for oracles and diagnostics. `None` in quiescence.
    pub fn in_flight(&self) -> Option<(ProtocolId, ProtocolId)> {
        self.state().journal.map(|j| (j.from, j.to))
    }

    /// Advance the in-flight journal to `phase` (no-op if the journal
    /// was already cleared).
    fn journal_phase(&self, phase: Phase) {
        if let Some(j) = &mut self.state().journal {
            j.phase = phase;
        }
    }

    /// Mark `to` valid, asserting the §3.2.3 invariant.
    fn mark_valid(&self, to: ProtocolId) {
        let mut st = self.state();
        st.valid[to.index()] = true;
        let count = st.valid.iter().filter(|&&v| v).count();
        assert!(
            count <= 1,
            "{count} protocols valid after validating {to} (invariant: at most 1)"
        );
    }

    /// Commit bookkeeping: advance `current`, bump the switch counter,
    /// reset the policy's evidence and the calm streak, and emit the
    /// [`SwitchEvent`].
    fn commit(&self, now: u64, from: ProtocolId, to: ProtocolId) {
        let residual = {
            let mut st = self.state();
            st.current = to;
            st.policy.reset();
            // The commit point: from here recovery completes, never
            // rolls back.
            if let Some(j) = &mut st.journal {
                j.phase = Phase::Committed;
            }
            // Consume the pending residual only if it belongs to this
            // transition's target (concurrent approvals of *different*
            // targets must not cross-attribute).
            match st.pending.take() {
                Some((t, r)) if t == to => r,
                _ => 0.0,
            }
        };
        // order: Relaxed — diagnostic counter; transition ordering is
        // carried by the state mutex, not this increment.
        self.switches.fetch_add(1, Ordering::Relaxed);
        self.end_calm_streak();
        if let Some(sink) = &self.sink {
            sink.switch_event(SwitchEvent {
                time: now,
                from,
                to,
                residual,
            });
        }
    }

    /// Number of protocol changes committed so far.
    pub fn switches(&self) -> u64 {
        // order: Relaxed — diagnostic snapshot.
        self.switches.load(Ordering::Relaxed)
    }

    /// The currently valid protocol (the last committed target, or the
    /// initial protocol). Diagnostics: mid-transaction it reports the
    /// transaction's source until commit.
    pub fn current(&self) -> ProtocolId {
        self.state().current
    }

    /// Snapshot of the validity flags — the protocols currently
    /// accepting executions (at most one; empty mid-transaction).
    pub fn valid_protocols(&self) -> Vec<ProtocolId> {
        self.state()
            .valid
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v)
            .map(|(i, _)| ProtocolId(i as u8))
            .collect()
    }

    /// Identity of the protocol in slot `id`.
    ///
    /// # Panics
    /// If `id` is not a registered slot.
    pub fn protocol(&self, id: ProtocolId) -> ProtocolInfo {
        self.protocols[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Competitive3, SwitchLog, SwitchTally};
    use std::cell::RefCell;

    const A: ProtocolId = ProtocolId(0);
    const B: ProtocolId = ProtocolId(1);

    /// A hook recorder: every hook call appends a tagged entry.
    #[derive(Default)]
    struct Recorder {
        calls: RefCell<Vec<String>>,
        clock: std::cell::Cell<u64>,
    }

    impl SwitchableObject for Recorder {
        type Ctx = ();

        async fn validate(&self, _ctx: &(), to: ProtocolId, from: ProtocolId, state: u64) {
            self.calls
                .borrow_mut()
                .push(format!("validate {from}->{to} state={state}"));
        }

        async fn invalidate(&self, _ctx: &(), from: ProtocolId, to: ProtocolId) -> Option<u64> {
            self.calls
                .borrow_mut()
                .push(format!("invalidate {from}->{to}"));
            Some(42)
        }

        async fn publish_mode(&self, _ctx: &(), to: ProtocolId) {
            self.calls.borrow_mut().push(format!("publish {to}"));
        }

        fn now(&self, _ctx: &()) -> u64 {
            self.clock.set(self.clock.get() + 1);
            self.clock.get()
        }

        fn note_switch(&self, _ctx: &(), from: ProtocolId, to: ProtocolId) {
            self.calls.borrow_mut().push(format!("note {from}->{to}"));
        }
    }

    fn two(exit_a: SwitchStyle, exit_b: SwitchStyle) -> SwitchKernel<LocalWorld> {
        SwitchKernel::<LocalWorld>::builder()
            .register(A, "a", exit_a)
            .register(B, "b", exit_b)
            .build()
    }

    #[test]
    fn handoff_orders_validate_publish_commit_invalidate() {
        let k = two(SwitchStyle::Handoff, SwitchStyle::Handoff);
        let r = Recorder::default();
        drive(k.switch(&r, &(), A, B));
        assert_eq!(
            *r.calls.borrow(),
            vec![
                "validate P0->P1 state=0",
                "publish P1",
                "note P0->P1",
                "invalidate P0->P1",
            ]
        );
        assert_eq!(k.current(), B);
        assert_eq!(k.switches(), 1);
    }

    #[test]
    fn transfer_captures_state_before_validating() {
        let k = two(SwitchStyle::Transfer, SwitchStyle::Transfer);
        let r = Recorder::default();
        drive(k.switch(&r, &(), A, B));
        assert_eq!(
            *r.calls.borrow(),
            vec![
                "invalidate P0->P1",
                "validate P0->P1 state=42",
                "publish P1",
                "note P0->P1",
            ]
        );
    }

    #[test]
    fn observe_validates_targets_and_carries_residual_to_commit() {
        let log = Rc::new(SwitchLog::new());
        let k = SwitchKernel::<LocalWorld>::builder()
            .register(A, "a", SwitchStyle::Handoff)
            .register(B, "b", SwitchStyle::Handoff)
            .sink(log.clone() as Rc<dyn Instrument>)
            .build();
        assert_eq!(k.observe(&Observation::optimal(A)), None);
        // Out-of-range and self targets are filtered.
        assert_eq!(k.observe(&Observation::suboptimal(A, A, 9.0)), None);
        assert_eq!(
            k.observe(&Observation::suboptimal(A, B, 123.0)),
            Some(B),
            "Always policy approves the monitor's proposal"
        );
        let r = Recorder::default();
        drive(k.switch(&r, &(), A, B));
        let evs = log.events();
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].from, evs[0].to, evs[0].residual), (A, B, 123.0));
        assert_eq!(evs[0].time, 1, "stamped with the object's clock");
    }

    #[test]
    fn policy_evidence_resets_on_commit() {
        let k = SwitchKernel::<LocalWorld>::builder()
            .register(A, "a", SwitchStyle::Handoff)
            .register(B, "b", SwitchStyle::Handoff)
            .policy(Box::new(Competitive3::new(100.0)))
            .build();
        assert_eq!(k.observe(&Observation::suboptimal(A, B, 60.0)), None);
        assert_eq!(k.observe(&Observation::suboptimal(A, B, 60.0)), Some(B));
        let r = Recorder::default();
        drive(k.switch(&r, &(), A, B));
        // Accumulated evidence was cleared by the commit.
        assert_eq!(k.observe(&Observation::suboptimal(B, A, 60.0)), None);
    }

    #[test]
    fn tally_counts_match_kernel_counts() {
        let tally = Rc::new(SwitchTally::new());
        let k = SwitchKernel::<LocalWorld>::builder()
            .register(A, "a", SwitchStyle::Handoff)
            .register(B, "b", SwitchStyle::Handoff)
            .sink(tally.clone() as Rc<dyn Instrument>)
            .build();
        let r = Recorder::default();
        drive(k.switch(&r, &(), A, B));
        drive(k.switch(&r, &(), B, A));
        assert_eq!(k.switches(), 2);
        assert_eq!(tally.count(), 2);
    }

    #[test]
    fn validity_flags_track_transitions() {
        let k = two(SwitchStyle::Handoff, SwitchStyle::Handoff);
        assert_eq!(k.valid_protocols(), vec![A]);
        let r = Recorder::default();
        drive(k.switch(&r, &(), A, B));
        assert_eq!(k.valid_protocols(), vec![B]);
        assert_eq!(k.current(), B);
    }

    #[test]
    #[should_panic(expected = "lost the consensus race")]
    fn switching_from_an_invalid_protocol_panics() {
        let k = two(SwitchStyle::Handoff, SwitchStyle::Handoff);
        let r = Recorder::default();
        drive(k.switch(&r, &(), B, A));
    }

    #[test]
    fn try_switch_reports_stale_decisions_without_transitioning() {
        let k = two(SwitchStyle::Handoff, SwitchStyle::Handoff);
        let r = Recorder::default();
        assert!(!drive(k.try_switch(&r, &(), B, A)), "stale source loses");
        assert!(
            r.calls.borrow().is_empty(),
            "no hooks on an aborted attempt"
        );
        assert_eq!(k.valid_protocols(), vec![A]);
        assert_eq!(k.switches(), 0);
        assert!(drive(k.try_switch(&r, &(), A, B)));
        assert_eq!(k.switches(), 1);
    }

    #[test]
    fn transfer_invalidation_loss_aborts_without_committing() {
        /// An object whose exiting consensus object was already claimed
        /// by a concurrent changer: invalidate reports the loss.
        struct Claimed;
        impl SwitchableObject for Claimed {
            type Ctx = ();
            async fn validate(&self, _c: &(), _t: ProtocolId, _f: ProtocolId, _s: u64) {
                panic!("loser must not validate");
            }
            async fn invalidate(&self, _c: &(), _f: ProtocolId, _t: ProtocolId) -> Option<u64> {
                None
            }
            async fn publish_mode(&self, _c: &(), _t: ProtocolId) {
                panic!("loser must not publish");
            }
            fn now(&self, _c: &()) -> u64 {
                0
            }
        }
        let k = two(SwitchStyle::Transfer, SwitchStyle::Transfer);
        assert!(!drive(k.try_switch(&Claimed, &(), A, B)));
        assert_eq!(k.switches(), 0, "aborted attempts do not commit");
    }

    #[test]
    #[should_panic(expected = "at least one protocol")]
    fn zero_protocol_build_panics() {
        let _ = SwitchKernel::<LocalWorld>::builder().build();
    }

    #[test]
    #[should_panic(expected = "duplicate or out-of-order registration")]
    fn duplicate_registration_panics() {
        let _ = SwitchKernel::<LocalWorld>::builder()
            .register(A, "a", SwitchStyle::Handoff)
            .register(A, "a-again", SwitchStyle::Handoff);
    }

    #[test]
    #[should_panic(expected = "not a registered slot")]
    fn unknown_initial_protocol_panics() {
        let _ = SwitchKernel::<LocalWorld>::builder()
            .register(A, "a", SwitchStyle::Handoff)
            .initial(ProtocolId(7))
            .build();
    }

    #[test]
    fn shared_world_kernel_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SwitchKernel<SharedWorld>>();
    }

    // -- the calm streak -----------------------------------------------

    const LIMIT: u64 = 3;

    /// Report calm executions of `cur` until the kernel proposes
    /// `cheaper`; returns how many it took.
    fn calm_until_proposal(
        k: &SwitchKernel<LocalWorld>,
        cur: ProtocolId,
        cheaper: ProtocolId,
    ) -> u64 {
        (1..=LIMIT + 1)
            .find(|_| k.observe_calm(cur, cheaper, LIMIT, 5.0).is_some())
            .expect("the calm streak never proposed the cheaper protocol")
    }

    #[test]
    fn first_calm_proposal_is_execution_limit_plus_one() {
        for limit in [0, 1, 4] {
            let log = Rc::new(SwitchLog::new());
            let k = SwitchKernel::<LocalWorld>::builder()
                .register(A, "a", SwitchStyle::Handoff)
                .register(B, "b", SwitchStyle::Handoff)
                .sink(log.clone() as Rc<dyn Instrument>)
                .initial(B)
                .build();
            for _ in 0..limit {
                assert_eq!(k.observe_calm(B, A, limit, 5.0), None);
            }
            assert_eq!(k.observe_calm(B, A, limit, 5.0), Some(A), "limit {limit}");
            // The proposal carries the object's residual to the commit.
            drive(k.switch(&Recorder::default(), &(), B, A));
            assert_eq!(log.events()[0].residual, 5.0);
        }
    }

    #[test]
    fn busy_executions_end_the_calm_streak() {
        for case in 0..3 {
            let k = two(SwitchStyle::Handoff, SwitchStyle::Handoff);
            for _ in 0..LIMIT {
                assert_eq!(k.observe_calm(A, B, LIMIT, 5.0), None);
            }
            match case {
                0 => drop(k.observe(&Observation::optimal(A))),
                1 => drop(k.observe(&Observation::suboptimal(A, B, 1.0))),
                _ => k.end_calm_streak(),
            }
            assert_eq!(calm_until_proposal(&k, A, B), LIMIT + 1, "case {case}");
        }
    }

    #[test]
    fn a_commit_ends_the_calm_streak() {
        for style in [SwitchStyle::Handoff, SwitchStyle::Transfer] {
            let k = two(style, style);
            for _ in 0..LIMIT {
                assert_eq!(k.observe_calm(A, B, LIMIT, 5.0), None);
            }
            drive(k.switch(&Recorder::default(), &(), A, B));
            assert_eq!(calm_until_proposal(&k, B, A), LIMIT + 1, "{style:?}");
        }
    }

    #[test]
    fn a_repaired_crash_ends_the_calm_streak() {
        // Rolled back: the source is current again, with a fresh run.
        let k = two(SwitchStyle::Handoff, SwitchStyle::Handoff);
        let r = Recorder::default();
        for _ in 0..LIMIT {
            assert_eq!(k.observe_calm(A, B, LIMIT, 5.0), None);
        }
        drive(k.switch_crashed(&r, &(), A, B, CrashPoint::AfterSourceInvalidated));
        assert_eq!(
            drive(k.recover(&r, &())),
            SwitchRecovery::RolledBack { from: A, to: B }
        );
        assert_eq!(calm_until_proposal(&k, A, B), LIMIT + 1);

        // Completed: recovery commits, and the commit resets.
        let k = two(SwitchStyle::Handoff, SwitchStyle::Handoff);
        drive(k.switch_crashed(&r, &(), A, B, CrashPoint::AfterTargetValidated));
        for _ in 0..LIMIT {
            assert_eq!(k.observe_calm(B, A, LIMIT, 5.0), None);
        }
        assert_eq!(
            drive(k.recover(&r, &())),
            SwitchRecovery::Completed { from: A, to: B }
        );
        assert_eq!(calm_until_proposal(&k, B, A), LIMIT + 1);
    }

    // -- crash / recovery ---------------------------------------------

    #[test]
    fn crash_before_validation_rolls_back() {
        for style in [SwitchStyle::Handoff, SwitchStyle::Transfer] {
            let k = two(style, style);
            let r = Recorder::default();
            drive(k.switch_crashed(&r, &(), A, B, CrashPoint::AfterSourceInvalidated));
            assert!(r.calls.borrow().is_empty(), "no hooks ran before the crash");
            assert!(k.valid_protocols().is_empty(), "crash left zero valid");
            assert_eq!(k.in_flight(), Some((A, B)));
            let rec = drive(k.recover(&r, &()));
            assert_eq!(rec, SwitchRecovery::RolledBack { from: A, to: B });
            assert_eq!(k.valid_protocols(), vec![A], "source valid again");
            assert_eq!(k.current(), A);
            assert_eq!(k.switches(), 0, "rolled-back attempts never commit");
            assert!(
                r.calls.borrow().is_empty(),
                "rollback is shadow-only: no hooks"
            );
        }
    }

    #[test]
    fn handoff_crash_after_validation_completes_forward() {
        let k = two(SwitchStyle::Handoff, SwitchStyle::Handoff);
        let r = Recorder::default();
        drive(k.switch_crashed(&r, &(), A, B, CrashPoint::AfterTargetValidated));
        // Physically B is valid but the commit never landed.
        assert_eq!(k.valid_protocols(), vec![B]);
        assert_eq!(k.current(), A);
        let rec = drive(k.recover(&r, &()));
        assert_eq!(rec, SwitchRecovery::Completed { from: A, to: B });
        assert_eq!(k.current(), B);
        assert_eq!(k.switches(), 1);
        // The tail ran: publish + the recovery fence (invalidate).
        let calls = r.calls.borrow();
        assert!(calls.iter().any(|c| c == "publish P1"));
        assert!(calls.iter().any(|c| c == "invalidate P0->P1"));
    }

    #[test]
    fn recovery_is_idempotent() {
        let k = two(SwitchStyle::Handoff, SwitchStyle::Handoff);
        let r = Recorder::default();
        drive(k.switch_crashed(&r, &(), A, B, CrashPoint::AfterCommit));
        assert_eq!(
            drive(k.recover(&r, &())),
            SwitchRecovery::Completed { from: A, to: B }
        );
        let switches = k.switches();
        assert_eq!(
            drive(k.recover(&r, &())),
            SwitchRecovery::Clean,
            "second recovery finds nothing in flight"
        );
        assert_eq!(k.switches(), switches);
        assert_eq!(k.current(), B);
        // The repaired kernel keeps working normally.
        drive(k.switch(&r, &(), B, A));
        assert_eq!(k.current(), A);
        assert_eq!(k.in_flight(), None);
    }

    #[test]
    fn recover_on_quiescent_kernel_is_clean() {
        let k = two(SwitchStyle::Handoff, SwitchStyle::Handoff);
        let r = Recorder::default();
        assert_eq!(drive(k.recover(&r, &())), SwitchRecovery::Clean);
        drive(k.switch(&r, &(), A, B));
        assert_eq!(
            drive(k.recover(&r, &())),
            SwitchRecovery::Clean,
            "a completed switch leaves no journal"
        );
    }

    #[test]
    fn rolled_back_pending_residual_is_dropped() {
        let k = two(SwitchStyle::Handoff, SwitchStyle::Handoff);
        assert_eq!(k.observe(&Observation::suboptimal(A, B, 77.0)), Some(B));
        let r = Recorder::default();
        drive(k.switch_crashed(&r, &(), A, B, CrashPoint::AfterSourceInvalidated));
        drive(k.recover(&r, &()));
        // A later switch must not inherit the dead attempt's residual.
        let log = Rc::new(SwitchLog::new());
        let k2 = SwitchKernel::<LocalWorld>::builder()
            .register(A, "a", SwitchStyle::Handoff)
            .register(B, "b", SwitchStyle::Handoff)
            .sink(log.clone() as Rc<dyn Instrument>)
            .build();
        assert_eq!(k2.observe(&Observation::suboptimal(A, B, 77.0)), Some(B));
        drive(k2.switch_crashed(&r, &(), A, B, CrashPoint::AfterSourceInvalidated));
        drive(k2.recover(&r, &()));
        drive(k2.switch(&r, &(), A, B));
        assert_eq!(log.events()[0].residual, 0.0);
    }
}
