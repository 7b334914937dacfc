//! Cross-world conformance: the switching kernel is one engine, not
//! two implementations that happen to agree. Feeding identical
//! [`Observation`] traces to a [`LocalWorld`] kernel (the simulator's
//! `Rc`/`!Send` regime) and a [`SharedWorld`] kernel (the native
//! `Arc`/`Send` regime) must produce **bit-identical** decision and
//! [`SwitchEvent`] sequences for every shipped policy.
//!
//! The same harness pins down the kernel's lock-free answer to optimal
//! observations ([`Policy::optimal_is_noop`]): a kernel whose policy
//! declares the capability and one whose policy hides it behind a
//! wrapper must emit identical traces.
//!
//! The calm streak is kernel state too: seeded runs of calm executions,
//! broken by busy ones, must turn into the same proposals in both
//! worlds.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use reactive_api::{
    drive, Always, Competitive3, Hysteresis, Instrument, KernelWorld, LocalWorld, Observation,
    Policy, ProtocolId, SharedWorld, SwitchEvent, SwitchKernel, SwitchLog, SwitchStyle,
    SwitchableObject,
};

/// A hook-free object with a deterministic clock: transitions carry no
/// per-world physics here, so the traces compare the *kernel's* part
/// of the behaviour only.
#[derive(Default)]
struct NullObject {
    clock: Cell<u64>,
}

impl SwitchableObject for NullObject {
    type Ctx = ();

    async fn validate(&self, _ctx: &(), _to: ProtocolId, _from: ProtocolId, _state: u64) {}

    async fn invalidate(&self, _ctx: &(), _from: ProtocolId, _to: ProtocolId) -> Option<u64> {
        Some(7)
    }

    async fn publish_mode(&self, _ctx: &(), _to: ProtocolId) {}

    fn now(&self, _ctx: &()) -> u64 {
        self.clock.set(self.clock.get() + 10);
        self.clock.get()
    }
}

/// A deterministic observation trace over `n` protocols: a mix of
/// optimal acquisitions and proposals to every other slot, with
/// residuals large enough to trip Competitive3 periodically.
fn trace(n: u8, len: u64) -> Vec<(u8, f64)> {
    // (proposed_target_offset, residual); offset 0 encodes "optimal".
    let mut x = 0x9E37_79B9u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x % n as u64) as u8, (x >> 8) as f64 % 4_000.0)
        })
        .collect()
}

/// Run a trace through one kernel; returns (decisions, events).
fn run<W: KernelWorld>(
    kernel: &SwitchKernel<W>,
    events: impl Fn() -> Vec<SwitchEvent>,
    n: u8,
    steps: &[(u8, f64)],
) -> (Vec<Option<ProtocolId>>, Vec<SwitchEvent>) {
    let obj = NullObject::default();
    let mut cur = ProtocolId(0);
    let mut decisions = Vec::new();
    for &(offset, residual) in steps {
        let obs = if offset == 0 {
            Observation::optimal(cur)
        } else {
            let better = ProtocolId((cur.0 + offset) % n);
            Observation::suboptimal(cur, better, residual)
        };
        let d = kernel.observe(&obs);
        decisions.push(d);
        if let Some(t) = d {
            drive(kernel.switch(&obj, &(), cur, t));
            cur = t;
        }
    }
    (decisions, events())
}

fn conformance_with(make_policy: &dyn Fn() -> Box<dyn Policy + Send>, n: u8) {
    let steps = trace(n, 600);

    let local_log = Rc::new(SwitchLog::new());
    let mut local = SwitchKernel::<LocalWorld>::builder()
        .policy(make_policy())
        .sink(local_log.clone() as Rc<dyn Instrument>);
    let shared_log = Arc::new(SwitchLog::new());
    let mut shared = SwitchKernel::<SharedWorld>::builder()
        .policy(make_policy())
        .sink(shared_log.clone() as Arc<dyn Instrument + Send + Sync>);
    for i in 0..n {
        // Styles differ per world in the real objects; the emitted
        // decision/event stream must not depend on them.
        local = local.register(ProtocolId(i), "p", SwitchStyle::Handoff);
        shared = shared.register(ProtocolId(i), "p", SwitchStyle::CommitFirst);
    }
    let local = local.build();
    let shared = shared.build();

    let (ld, le) = run(&local, || local_log.events(), n, &steps);
    let (sd, se) = run(&shared, || shared_log.events(), n, &steps);

    assert_eq!(ld, sd, "decision sequences diverged across worlds");
    assert_eq!(le, se, "switch-event sequences diverged across worlds");
    assert_eq!(local.switches(), shared.switches());
    assert_eq!(local.current(), shared.current());
    assert!(
        !le.is_empty(),
        "trace must exercise switching to be a meaningful conformance check"
    );
}

#[test]
fn always_policy_conforms_across_worlds() {
    conformance_with(&|| Box::new(Always), 2);
    conformance_with(&|| Box::new(Always), 4);
}

#[test]
fn competitive3_conforms_across_worlds() {
    conformance_with(&|| Box::new(Competitive3::new(8_800.0)), 2);
    conformance_with(&|| Box::new(Competitive3::new(8_800.0)), 3);
}

#[test]
fn hysteresis_conforms_across_worlds() {
    conformance_with(&|| Box::new(Hysteresis::new(4, 4)), 2);
    conformance_with(&|| Box::new(Hysteresis::new(2, 5)), 4);
}

/// Forwards `decide`/`reset` but not the `optimal_is_noop` capability,
/// so a kernel built on it consults the policy — under its state mutex
/// — for every observation.
struct Opaque<P>(P);

impl<P: Policy> Policy for Opaque<P> {
    fn decide(&mut self, obs: &Observation) -> reactive_api::Decision {
        self.0.decide(obs)
    }

    fn reset(&mut self) {
        self.0.reset()
    }
}

/// Trace of a `W` kernel over `make_policy()`, with its switch count.
fn trace_of<W: KernelWorld>(
    policy: Box<W::Policy>,
    sink: W::Sink,
    events: impl Fn() -> Vec<SwitchEvent>,
    n: u8,
) -> (Vec<Option<ProtocolId>>, Vec<SwitchEvent>, u64) {
    let mut b = SwitchKernel::<W>::builder().policy(policy).sink(sink);
    for i in 0..n {
        b = b.register(ProtocolId(i), "p", SwitchStyle::CommitFirst);
    }
    let kernel = b.build();
    let (decisions, events) = run(&kernel, events, n, &trace(n, 600));
    (decisions, events, kernel.switches())
}

fn fast_path_is_invisible<P: Policy + Send + Copy + 'static>(policy: P, n: u8) {
    assert!(
        policy.optimal_is_noop(),
        "policy must declare the capability"
    );
    assert!(!Opaque(policy).optimal_is_noop(), "wrapper must hide it");

    let (fast_log, slow_log) = (Arc::new(SwitchLog::new()), Arc::new(SwitchLog::new()));
    let fast = trace_of::<SharedWorld>(Box::new(policy), fast_log.clone(), || fast_log.events(), n);
    let slow = trace_of::<SharedWorld>(
        Box::new(Opaque(policy)),
        slow_log.clone(),
        || slow_log.events(),
        n,
    );
    assert_eq!(fast, slow, "shared world: fast path changed the trace");

    let (fast_log, slow_log) = (Rc::new(SwitchLog::new()), Rc::new(SwitchLog::new()));
    let fast_local =
        trace_of::<LocalWorld>(Box::new(policy), fast_log.clone(), || fast_log.events(), n);
    let slow_local = trace_of::<LocalWorld>(
        Box::new(Opaque(policy)),
        slow_log.clone(),
        || slow_log.events(),
        n,
    );
    assert_eq!(
        fast_local, slow_local,
        "local world: fast path changed the trace"
    );
    assert_eq!(fast, fast_local);
    assert!(fast.2 > 0, "trace must switch to mean anything");
}

#[test]
fn optimal_fast_path_leaves_kernel_traces_bit_identical() {
    fast_path_is_invisible(Always, 2);
    fast_path_is_invisible(Always, 4);
    fast_path_is_invisible(Competitive3::new(8_800.0), 2);
    fast_path_is_invisible(Competitive3::new(8_800.0), 3);
}

/// A seeded sequence of executions for the calm-streak conformance:
/// mostly calm (runs long enough to pass the limit), broken by busy
/// executions of three kinds — an optimal observation, a proposal of
/// the other protocol, and contention seen before any observation
/// (`end_calm_streak`).
fn calm_trace(len: u64) -> Vec<u8> {
    let mut x = 0x2545_F491u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 16) as u8
        })
        .collect()
}

/// Run a calm/busy sequence through one two-protocol kernel, switching
/// whenever it approves; returns (decisions, events).
fn run_calm<W: KernelWorld>(
    kernel: &SwitchKernel<W>,
    events: impl Fn() -> Vec<SwitchEvent>,
    steps: &[u8],
) -> (Vec<Option<ProtocolId>>, Vec<SwitchEvent>) {
    const LIMIT: u64 = 4;
    let obj = NullObject::default();
    let mut cur = ProtocolId(0);
    let mut decisions = Vec::new();
    for &kind in steps {
        let other = ProtocolId(1 - cur.0);
        let d = match kind {
            0 => kernel.observe(&Observation::optimal(cur)),
            1 => kernel.observe(&Observation::suboptimal(cur, other, 900.0)),
            2 => {
                kernel.end_calm_streak();
                None
            }
            _ => kernel.observe_calm(cur, other, LIMIT, 150.0),
        };
        decisions.push(d);
        if let Some(t) = d {
            drive(kernel.switch(&obj, &(), cur, t));
            cur = t;
        }
    }
    (decisions, events())
}

fn calm_conformance_with(make_policy: &dyn Fn() -> Box<dyn Policy + Send>) {
    let steps = calm_trace(2_000);
    let local_log = Rc::new(SwitchLog::new());
    let local = SwitchKernel::<LocalWorld>::builder()
        .policy(make_policy())
        .sink(local_log.clone() as Rc<dyn Instrument>)
        .register(ProtocolId(0), "p", SwitchStyle::Handoff)
        .register(ProtocolId(1), "p", SwitchStyle::Handoff)
        .build();
    let shared_log = Arc::new(SwitchLog::new());
    let shared = SwitchKernel::<SharedWorld>::builder()
        .policy(make_policy())
        .sink(shared_log.clone() as Arc<dyn Instrument + Send + Sync>)
        .register(ProtocolId(0), "p", SwitchStyle::CommitFirst)
        .register(ProtocolId(1), "p", SwitchStyle::CommitFirst)
        .build();

    let (ld, le) = run_calm(&local, || local_log.events(), &steps);
    let (sd, se) = run_calm(&shared, || shared_log.events(), &steps);

    assert_eq!(ld, sd, "decision sequences diverged across worlds");
    assert_eq!(le, se, "switch-event sequences diverged across worlds");
    assert!(
        le.iter().any(|e| e.residual == 150.0),
        "some switch must be the calm streak's proposal"
    );
}

#[test]
fn calm_streak_conforms_across_worlds() {
    calm_conformance_with(&|| Box::new(Always));
    calm_conformance_with(&|| Box::new(Competitive3::new(400.0)));
    calm_conformance_with(&|| Box::new(Hysteresis::new(2, 2)));
}
