//! Negative-path tests for the simulator-side reactive builder: the
//! documented panic behaviour on misconfiguration — duplicate protocol
//! registration, unknown initial protocol, zero-protocol build, and
//! invalid policy parameters — is part of the public API contract, and
//! so is a fresh object that has not switched.

use std::rc::Rc;

use alewife_sim::{Config, Machine};
use reactive_core::mp::{ReactiveMpFetchOp, ReactiveMpLock};
use reactive_core::policy::{
    Competitive3, Hysteresis, Instrument, ProtocolId, SimKernel, SwitchLog, SwitchStyle,
};
use reactive_core::{
    Builder, Reactive, ReactiveBarrier, ReactiveFetchOp, ReactiveLock, RobustLock,
};

fn machine() -> Machine {
    Machine::new(Config::default().nodes(4))
}

// -- protocol registration (now owned by the switching kernel) ---------

#[test]
#[should_panic(expected = "duplicate or out-of-order registration")]
fn kernel_rejects_duplicate_protocol_ids() {
    let _ = SimKernel::builder()
        .register(ProtocolId(0), "a", SwitchStyle::Handoff)
        .register(ProtocolId(0), "a-again", SwitchStyle::Handoff);
}

#[test]
#[should_panic(expected = "duplicate or out-of-order registration")]
fn kernel_rejects_out_of_order_slots() {
    let _ = SimKernel::builder()
        .register(ProtocolId(1), "b", SwitchStyle::Handoff)
        .register(ProtocolId(0), "a", SwitchStyle::Handoff);
}

#[test]
#[should_panic(expected = "at least one protocol")]
fn kernel_rejects_zero_protocol_build() {
    let _ = SimKernel::builder().build();
}

#[test]
#[should_panic(expected = "not a registered slot")]
fn kernel_rejects_unregistered_initial_protocol() {
    let _ = SimKernel::builder()
        .register(ProtocolId(0), "a", SwitchStyle::Handoff)
        .initial(ProtocolId(3))
        .build();
}

// -- initial protocol --------------------------------------------------

#[test]
#[should_panic(expected = "not P5")]
fn lock_builder_rejects_unknown_initial_protocol() {
    let m = machine();
    let _ = ReactiveLock::builder(&m, 0).initial_protocol(ProtocolId(5));
}

#[test]
#[should_panic(expected = "not P2")]
fn lock_builder_rejects_fetch_op_only_protocol() {
    // The fetch-op object has a slot 2 (combining tree); the lock does
    // not — ids are per-object, not global.
    let m = machine();
    let _ = ReactiveLock::builder(&m, 0).initial_protocol(ProtocolId(2));
}

#[test]
#[should_panic(expected = "not P2")]
fn robust_lock_builder_rejects_unknown_initial_protocol() {
    let m = machine();
    let _ = RobustLock::builder(&m, 0, 4).initial_protocol(ProtocolId(2));
}

// -- policy parameter validation through the builders ------------------

#[test]
#[should_panic(expected = "round-trip cost must be positive")]
fn lock_builder_rejects_nonpositive_competitive_threshold() {
    let m = machine();
    let _ = ReactiveLock::builder(&m, 0).policy(Competitive3::new(0.0));
}

#[test]
#[should_panic(expected = "hysteresis thresholds must be positive")]
fn fetch_op_builder_rejects_zero_hysteresis() {
    let m = machine();
    let _ = ReactiveFetchOp::builder(&m, 0).policy(Hysteresis::new(0, 4));
}

// -- the happy path next to the cliffs ---------------------------------

#[test]
fn valid_builder_configurations_still_build() {
    let m = machine();
    let log = Rc::new(SwitchLog::new());
    let _ = ReactiveLock::builder(&m, 0)
        .max_procs(4)
        .policy(Hysteresis::new(4, 4))
        .instrument(log.clone() as Rc<dyn Instrument>)
        .initial_protocol(reactive_core::lock::PROTO_QUEUE)
        .build();
    let _ = ReactiveFetchOp::builder(&m, 0)
        .max_procs(4)
        .policy(Competitive3::new(8_800.0))
        .build();
    assert_eq!(log.count(), 0, "building must not emit switch events");
}

/// Build `b` with a fresh `SwitchLog` attached and the default policy;
/// the new object must neither report an event nor count a switch.
fn assert_builds_quiet<O: Reactive>(b: Builder<'_, O>, switches: impl Fn(&O) -> u64) {
    let log = Rc::new(SwitchLog::new());
    let obj = b.instrument(log.clone() as Rc<dyn Instrument>).build();
    let name = std::any::type_name::<O>();
    assert_eq!(log.count(), 0, "{name}: building emitted a switch event");
    assert_eq!(switches(&obj), 0, "{name}: a fresh object counts a switch");
}

#[test]
fn every_object_builds_without_switching() {
    let m = machine();
    assert_builds_quiet(ReactiveLock::builder(&m, 0), ReactiveLock::switches);
    assert_builds_quiet(ReactiveFetchOp::builder(&m, 0), ReactiveFetchOp::switches);
    assert_builds_quiet(ReactiveMpLock::builder(&m, 0, 1), ReactiveMpLock::switches);
    assert_builds_quiet(
        ReactiveMpFetchOp::builder(&m, 0, 1),
        ReactiveMpFetchOp::switches,
    );
    assert_builds_quiet(
        ReactiveBarrier::builder(&m, 0, 4),
        ReactiveBarrier::switches,
    );
    assert_builds_quiet(RobustLock::builder(&m, 0, 4), RobustLock::switches);
}
