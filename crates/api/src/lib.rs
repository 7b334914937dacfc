//! # reactive-api — the shared reactive protocol-selection API
//!
//! The paper's contribution is a *framework* (§3.2, §3.4): passive
//! protocol objects serialized by consensus objects, plus a switching
//! policy that decides, from run-time observations, which protocol
//! should be valid. This crate is that framework's public surface,
//! shared by every reactive object in the workspace — the simulator-side
//! algorithms in `reactive-core` and the host-hardware algorithms in
//! `reactive-native` — so that policies, instrumentation, and protocol
//! identities are written once and plug into either world.
//!
//! * [`ProtocolId`] — a small integer naming one protocol slot of a
//!   reactive object. Reactive objects are N-way (the reactive lock has
//!   2 protocols, the reactive fetch-and-op 3); nothing in this API
//!   assumes two.
//! * [`Policy`] — the switching policy trait (§3.4): observe one
//!   acquisition's [`Observation`] and return a [`Decision`]. Ships
//!   with the paper's three policies ([`Always`], [`Competitive3`],
//!   [`Hysteresis`]); it is object-safe, so users bring their own by
//!   boxing any impl. [`online_rule`] runs any of them as the on-line
//!   player of a task system, which is how the 3-competitive bound is
//!   checked against the shipped code.
//! * [`SwitchEvent`] / [`Instrument`] / [`SwitchLog`] — instrumentation:
//!   every protocol change is reported with time, endpoints, and the
//!   residual estimate that triggered it, so experiments read switch
//!   counts from the API instead of poking object internals.
//! * [`kernel`] — the **switching kernel**: the consensus-object
//!   mode-change engine ([`SwitchKernel`]) every reactive object in the
//!   workspace is built on. Protocol registration, the valid/invalid
//!   state machine, policy handling, waiter-migration ordering, and
//!   switch-event emission live here once; objects supply only the
//!   per-world [`SwitchableObject`] hooks, whose docs carry the
//!   consensus-object discipline every protocol slot must obey
//!   (invalid protocols bounce executions with *retry*; the object
//!   keeps at most one valid).
//! * [`spin`], [`lock`] — the TTS, MCS and reactive locks, once.
//! * [`oracle`] — the §3.2 correctness checkers (C-seriality,
//!   at-most-one-valid) runnable against any kernel commit log.

#![deny(missing_docs)]

pub mod kernel;
pub mod lock;
pub mod oracle;
pub mod spin;

pub use kernel::{
    drive, CrashPoint, KernelBuilder, KernelWorld, LocalWorld, SharedWorld, SwitchKernel,
    SwitchRecovery, SwitchStyle, SwitchableObject,
};

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------
// Protocol identity
// ---------------------------------------------------------------------

/// Names one protocol slot of an N-way reactive object.
///
/// Slot numbering is per-object and ordered by cost profile: lower ids
/// are the cheap/low-latency protocols, higher ids the
/// contention-tolerant ones. The reactive lock uses `{0: TTS, 1: MCS
/// queue}`; the reactive fetch-and-op uses `{0: TTS-lock counter,
/// 1: queue-lock counter, 2: combining tree}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProtocolId(pub u8);

impl ProtocolId {
    /// The slot index as a usize (for table lookups).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Static description of one protocol slot in a reactive object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolInfo {
    /// The slot this protocol occupies.
    pub id: ProtocolId,
    /// Short human-readable name (e.g. `"tts"`, `"mcs-queue"`).
    pub name: &'static str,
}

// ---------------------------------------------------------------------
// Observations and decisions
// ---------------------------------------------------------------------

/// One acquisition's monitoring verdict, fed to a [`Policy`].
///
/// The reactive object's *monitor* (failed test&set counts, empty-queue
/// streaks, queue waiting times, combining rates — §3.3) produces one
/// observation per protocol execution: either the execution ran under
/// the right protocol, or some `better` protocol would have served it
/// cheaper, wasting about `residual` cycles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Observation {
    /// The protocol that served this acquisition.
    pub current: ProtocolId,
    /// The protocol the monitor believes would have served it better,
    /// or `None` if the current protocol was the right choice.
    pub better: Option<ProtocolId>,
    /// Estimated cycles wasted by serving this acquisition under
    /// `current` instead of `better` (0 when optimal).
    pub residual: f64,
}

impl Observation {
    /// An acquisition served by the right protocol.
    pub fn optimal(current: ProtocolId) -> Observation {
        Observation {
            current,
            better: None,
            residual: 0.0,
        }
    }

    /// An acquisition that `better` would have served cheaper by about
    /// `residual` cycles.
    pub fn suboptimal(current: ProtocolId, better: ProtocolId, residual: f64) -> Observation {
        Observation {
            current,
            better: Some(better),
            residual,
        }
    }
}

/// A [`Policy`]'s verdict for one observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Keep executing the current protocol.
    Stay,
    /// Change protocols to the given target. The reactive object
    /// performs the change through its consensus objects and then calls
    /// [`Policy::reset`].
    SwitchTo(ProtocolId),
}

// ---------------------------------------------------------------------
// The policy trait and the paper's three policies
// ---------------------------------------------------------------------

/// A protocol-switching policy (§3.4): turns a stream of observations
/// into switch decisions, trading adaptation speed against thrash
/// resistance.
///
/// The trait is object-safe; reactive objects hold policies as
/// `Box<dyn Policy>` (plus `Send` on the native side), so any
/// user-defined impl plugs in. State is `&mut self`: the enclosing
/// reactive object provides whatever sharing/synchronization its world
/// needs (a `RefCell` on the single-threaded simulator, a mutex on real
/// hardware — policy calls are already serialized by the object's own
/// critical section).
pub trait Policy {
    /// Digest one observation; possibly direct a protocol change.
    ///
    /// A policy that decides to switch should normally target
    /// `obs.better`; returning some other (valid) protocol is allowed —
    /// the reactive object will honor any target it has machinery for.
    /// Returning `SwitchTo(obs.current)` is treated as [`Decision::Stay`].
    fn decide(&mut self, obs: &Observation) -> Decision;

    /// Clear accumulated evidence. Reactive objects call this after a
    /// committed protocol change; the shipped policies also reset
    /// themselves when `decide` returns a switch.
    fn reset(&mut self) {}

    /// Capability: `true` promises that for every observation with
    /// `better == None`, [`Policy::decide`] returns [`Decision::Stay`]
    /// *and* leaves the policy's state untouched (the same future
    /// decisions on any suffix). [`SwitchKernel`] reads it once at
    /// build and then answers such observations — every uncontended
    /// acquisition — without consulting the policy or taking its state
    /// mutex. The conservative default is `false`; a policy that
    /// counts or resets anything on an optimal observation (like
    /// [`Hysteresis`], whose streak breaks) must leave it so.
    fn optimal_is_noop(&self) -> bool {
        false
    }
}

impl<P: Policy + ?Sized> Policy for Box<P> {
    fn decide(&mut self, obs: &Observation) -> Decision {
        (**self).decide(obs)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn optimal_is_noop(&self) -> bool {
        (**self).optimal_is_noop()
    }
}

/// Switch as soon as the monitor reports a better protocol (§3.4's
/// default policy; tracks contention closely, can thrash).
#[derive(Clone, Copy, Debug, Default)]
pub struct Always;

impl Policy for Always {
    fn decide(&mut self, obs: &Observation) -> Decision {
        match obs.better {
            Some(t) if t != obs.current => Decision::SwitchTo(t),
            _ => Decision::Stay,
        }
    }

    fn optimal_is_noop(&self) -> bool {
        true // stateless
    }
}

/// The 3-competitive policy from the Borodin-Linial-Saks task-system
/// algorithm (§3.4.1): accumulate the residual cost of staying and
/// switch when it exceeds `round_trip`, the round-trip protocol-change
/// cost (`d_AB + d_BA`; the empirical §3.5.5 value is ≈ 8000 + 800 =
/// 8800 cycles). Worst case 3× the off-line optimum. Unlike
/// [`Hysteresis`], the cumulative cost persists across breaks in the
/// suboptimality streak.
#[derive(Clone, Copy, Debug)]
pub struct Competitive3 {
    round_trip: f64,
    accumulated: f64,
}

impl Competitive3 {
    /// Create with the given round-trip switching cost.
    pub fn new(round_trip: f64) -> Competitive3 {
        assert!(round_trip > 0.0, "round-trip cost must be positive");
        Competitive3 {
            round_trip,
            accumulated: 0.0,
        }
    }

    /// The configured round-trip switching cost.
    pub fn round_trip(&self) -> f64 {
        self.round_trip
    }
}

impl Policy for Competitive3 {
    fn decide(&mut self, obs: &Observation) -> Decision {
        if obs.better.is_some() {
            self.accumulated += obs.residual;
        }
        match obs.better {
            Some(t) if t != obs.current && self.accumulated > self.round_trip => {
                self.reset();
                Decision::SwitchTo(t)
            }
            _ => Decision::Stay,
        }
    }

    fn reset(&mut self) {
        self.accumulated = 0.0;
    }

    fn optimal_is_noop(&self) -> bool {
        true // only sub-optimal observations accumulate
    }
}

/// Hysteresis(x, y) (§3.5.5): switch only after a *consecutive* streak
/// of sub-optimal acquisitions — `x` of them to move to a more scalable
/// (higher-id) protocol, `y` to move to a cheaper (lower-id) one.
/// Streak breaks reset the evidence entirely.
#[derive(Clone, Copy, Debug)]
pub struct Hysteresis {
    x: u64,
    y: u64,
    streak: u64,
}

impl Hysteresis {
    /// Create with thresholds `x` (toward scalable) and `y` (toward
    /// cheap).
    pub fn new(x: u64, y: u64) -> Hysteresis {
        assert!(x > 0 && y > 0, "hysteresis thresholds must be positive");
        Hysteresis { x, y, streak: 0 }
    }
}

impl Policy for Hysteresis {
    fn decide(&mut self, obs: &Observation) -> Decision {
        match obs.better {
            Some(t) if t != obs.current => {
                self.streak += 1;
                let limit = if t > obs.current { self.x } else { self.y };
                if self.streak >= limit {
                    self.reset();
                    Decision::SwitchTo(t)
                } else {
                    Decision::Stay
                }
            }
            _ => {
                self.reset();
                Decision::Stay
            }
        }
    }

    fn reset(&mut self) {
        self.streak = 0;
    }
}

/// A [`Policy`] as the decision rule of a task system
/// (`waiting_theory::task_system::TaskSystem::run_online`): called with
/// the current state, the cheapest state for the next request and the
/// residual cost of staying, it consults the policy the way a reactive
/// object does — one [`Observation`] per request, [`Policy::reset`] after
/// a switch — and returns the state to serve the request in. States are
/// protocol slots, so the competitive analysis and its property tests
/// run the policies the locks run, not a model of them.
pub fn online_rule(
    policy: &mut (impl Policy + ?Sized),
) -> impl FnMut(usize, usize, f64) -> usize + '_ {
    move |state, best, residual| {
        let current = ProtocolId(state as u8);
        let obs = if best == state {
            Observation::optimal(current)
        } else {
            Observation::suboptimal(current, ProtocolId(best as u8), residual)
        };
        match policy.decide(&obs) {
            Decision::SwitchTo(target) if target != current => {
                policy.reset();
                target.index()
            }
            _ => state,
        }
    }
}

// ---------------------------------------------------------------------
// Switch-event instrumentation
// ---------------------------------------------------------------------

/// One committed protocol change, as reported by a reactive object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwitchEvent {
    /// When the change committed: simulator cycles on the simulated
    /// machine, nanoseconds since object creation on real hardware.
    pub time: u64,
    /// The protocol that was valid before the change.
    pub from: ProtocolId,
    /// The protocol made valid by the change.
    pub to: ProtocolId,
    /// The residual estimate carried by the observation that triggered
    /// the change.
    pub residual: f64,
}

/// A sink for [`SwitchEvent`]s. Reactive objects report every committed
/// protocol change to their configured sink.
///
/// `&self` receivers plus the `Send + Sync` bounds demanded by the
/// native side mean one sink type (e.g. [`SwitchLog`]) serves both the
/// single-threaded simulator and multi-threaded hardware runs.
pub trait Instrument {
    /// Record one committed protocol change.
    fn switch_event(&self, ev: SwitchEvent);
}

impl<T: Instrument + ?Sized> Instrument for std::rc::Rc<T> {
    fn switch_event(&self, ev: SwitchEvent) {
        (**self).switch_event(ev)
    }
}

impl<T: Instrument + ?Sized> Instrument for std::sync::Arc<T> {
    fn switch_event(&self, ev: SwitchEvent) {
        (**self).switch_event(ev)
    }
}

/// An [`Instrument`] that appends every event to a mutex-protected log.
///
/// Works in both worlds: on the simulator the mutex is never contended;
/// on hardware events are recorded while the reporting object's own
/// critical section already serializes reporters.
#[derive(Debug, Default)]
pub struct SwitchLog {
    events: Mutex<Vec<SwitchEvent>>,
}

impl SwitchLog {
    /// Create an empty log.
    pub fn new() -> SwitchLog {
        SwitchLog::default()
    }

    /// Snapshot the recorded events in commit order.
    pub fn events(&self) -> Vec<SwitchEvent> {
        self.events.lock().expect("switch log poisoned").clone()
    }

    /// Number of events recorded so far.
    pub fn count(&self) -> usize {
        self.events.lock().expect("switch log poisoned").len()
    }
}

impl Instrument for SwitchLog {
    fn switch_event(&self, ev: SwitchEvent) {
        self.events.lock().expect("switch log poisoned").push(ev);
    }
}

/// An [`Instrument`] that only counts events — constant-memory, for
/// long runs where the full log would grow unboundedly.
#[derive(Debug, Default)]
pub struct SwitchTally {
    count: AtomicU64,
}

impl SwitchTally {
    /// Create a zeroed tally.
    pub fn new() -> SwitchTally {
        SwitchTally::default()
    }

    /// Number of events recorded so far.
    pub fn count(&self) -> u64 {
        // order: Relaxed — diagnostic counter snapshot.
        self.count.load(Ordering::Relaxed)
    }
}

impl Instrument for SwitchTally {
    fn switch_event(&self, _ev: SwitchEvent) {
        // order: Relaxed — count only; emission order is carried by the
        // kernel's commit serialization, not this increment.
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ProtocolId = ProtocolId(0);
    const B: ProtocolId = ProtocolId(1);
    const C: ProtocolId = ProtocolId(2);

    #[test]
    fn always_switches_immediately() {
        let mut p = Always;
        assert_eq!(p.decide(&Observation::optimal(A)), Decision::Stay);
        assert_eq!(
            p.decide(&Observation::suboptimal(A, B, 100.0)),
            Decision::SwitchTo(B)
        );
    }

    #[test]
    fn always_ignores_self_targets() {
        let mut p = Always;
        assert_eq!(
            p.decide(&Observation::suboptimal(A, A, 100.0)),
            Decision::Stay
        );
    }

    #[test]
    fn competitive3_waits_for_cumulative_cost() {
        let mut p = Competitive3::new(1_000.0);
        for _ in 0..9 {
            assert_eq!(
                p.decide(&Observation::suboptimal(A, B, 100.0)),
                Decision::Stay
            );
        }
        // 10th observation pushes the total over the round trip.
        assert_eq!(
            p.decide(&Observation::suboptimal(A, B, 150.0)),
            Decision::SwitchTo(B)
        );
        // Evidence resets after a switch.
        assert_eq!(
            p.decide(&Observation::suboptimal(B, A, 100.0)),
            Decision::Stay
        );
    }

    #[test]
    fn competitive3_persists_across_streak_breaks() {
        let mut p = Competitive3::new(1_000.0);
        for _ in 0..6 {
            p.decide(&Observation::suboptimal(A, B, 100.0));
            // Optimal acquisitions do NOT reset the accumulator.
            p.decide(&Observation::optimal(A));
        }
        assert_eq!(
            p.decide(&Observation::suboptimal(A, B, 500.0)),
            Decision::SwitchTo(B)
        );
    }

    #[test]
    fn hysteresis_requires_consecutive_evidence() {
        let mut p = Hysteresis::new(3, 5);
        assert_eq!(
            p.decide(&Observation::suboptimal(A, B, 1.0)),
            Decision::Stay
        );
        assert_eq!(
            p.decide(&Observation::suboptimal(A, B, 1.0)),
            Decision::Stay
        );
        // A break resets the streak.
        assert_eq!(p.decide(&Observation::optimal(A)), Decision::Stay);
        assert_eq!(
            p.decide(&Observation::suboptimal(A, B, 1.0)),
            Decision::Stay
        );
        assert_eq!(
            p.decide(&Observation::suboptimal(A, B, 1.0)),
            Decision::Stay
        );
        assert_eq!(
            p.decide(&Observation::suboptimal(A, B, 1.0)),
            Decision::SwitchTo(B)
        );
    }

    #[test]
    fn hysteresis_is_direction_sensitive() {
        let mut p = Hysteresis::new(1, 3);
        assert_eq!(
            p.decide(&Observation::suboptimal(A, B, 1.0)),
            Decision::SwitchTo(B)
        );
        assert_eq!(
            p.decide(&Observation::suboptimal(B, A, 1.0)),
            Decision::Stay
        );
        assert_eq!(
            p.decide(&Observation::suboptimal(B, A, 1.0)),
            Decision::Stay
        );
        assert_eq!(
            p.decide(&Observation::suboptimal(B, A, 1.0)),
            Decision::SwitchTo(A)
        );
    }

    #[test]
    fn hysteresis_generalizes_to_three_protocols() {
        // In a 3-protocol object, a move from the queue counter (1) to
        // the combining tree (2) is "toward scalable" and uses x.
        let mut p = Hysteresis::new(2, 4);
        assert_eq!(
            p.decide(&Observation::suboptimal(B, C, 10.0)),
            Decision::Stay
        );
        assert_eq!(
            p.decide(&Observation::suboptimal(B, C, 10.0)),
            Decision::SwitchTo(C)
        );
        // And tree (2) back down to queue (1) uses y.
        for _ in 0..3 {
            assert_eq!(
                p.decide(&Observation::suboptimal(C, B, 10.0)),
                Decision::Stay
            );
        }
        assert_eq!(
            p.decide(&Observation::suboptimal(C, B, 10.0)),
            Decision::SwitchTo(B)
        );
    }

    #[test]
    fn boxed_policies_are_policies() {
        let mut p: Box<dyn Policy> = Box::new(Always);
        assert_eq!(
            p.decide(&Observation::suboptimal(A, B, 1.0)),
            Decision::SwitchTo(B)
        );
    }

    #[test]
    fn switch_log_records_in_order() {
        let log = SwitchLog::new();
        log.switch_event(SwitchEvent {
            time: 10,
            from: A,
            to: B,
            residual: 150.0,
        });
        log.switch_event(SwitchEvent {
            time: 20,
            from: B,
            to: A,
            residual: 15.0,
        });
        let evs = log.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(log.count(), 2);
        assert_eq!(evs[0].to, B);
        assert_eq!(evs[1].time, 20);
    }

    #[test]
    fn switch_tally_counts() {
        let t = SwitchTally::new();
        for i in 0..5 {
            t.switch_event(SwitchEvent {
                time: i,
                from: A,
                to: B,
                residual: 0.0,
            });
        }
        assert_eq!(t.count(), 5);
    }

    #[test]
    fn protocol_ids_order_and_display() {
        assert!(A < B && B < C);
        assert_eq!(format!("{B}"), "P1");
        assert_eq!(C.index(), 2);
    }
}
