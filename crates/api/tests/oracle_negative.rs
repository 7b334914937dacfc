//! Negative-path tests for the §3.2 oracle: hand-corrupted commit
//! logs and operation histories that MUST be rejected.
//!
//! The oracle is itself the last line of defense — the conformance
//! suite and the model checker both lean on it — so this file
//! mutation-tests the oracle: each test pairs a well-formed history
//! (accepted) with a minimally corrupted twin (rejected), and asserts
//! the rejection message names the culprit. An oracle that cannot see
//! these corruptions would silently pass broken kernels.

use reactive_api::oracle::{
    check_abort_safety, check_at_most_one_valid, check_bounded_bypass, check_c_serial,
    check_no_double_grant, check_no_lost_waiters, check_switch_history, check_waiter_conservation,
    lock_event, LockEvent, LockOpKind, OpKind, OpRecord,
};
use reactive_api::{ProtocolId, SwitchEvent};

fn rec(proc_id: usize, obj: usize, kind: OpKind, start: u64, end: u64) -> OpRecord {
    OpRecord {
        proc_id,
        obj,
        kind,
        start,
        end,
        valid_execution: true,
    }
}

fn ev(time: u64, from: u8, to: u8) -> SwitchEvent {
    SwitchEvent {
        time,
        from: ProtocolId(from),
        to: ProtocolId(to),
        residual: 0.0,
    }
}

/// Corruption 1: a double-valid window. The commit log records two
/// switches leaving protocol A with no intervening switch back, so
/// replaying it makes both B and C valid at once.
#[test]
fn double_valid_commit_log_is_rejected() {
    let good = vec![ev(10, 0, 1), ev(20, 1, 0), ev(30, 0, 2)];
    assert!(check_switch_history(&good, 3, ProtocolId(0)).is_ok());

    // Drop the middle B -> A hop: A is now "left" twice.
    let bad = vec![ev(10, 0, 1), ev(30, 0, 2)];
    let err = check_switch_history(&bad, 3, ProtocolId(0)).unwrap_err();
    assert!(
        err.contains("event 1 (P0 -> P2 at t=30) leaves P0 while P1 is the valid protocol"),
        "rejection must name the event that broke the chain, got: {err}"
    );
}

/// Commit-log corruption (a): the same `A -> B` committed twice, the
/// footprint of two consensus holders at once (the `double_commit`
/// mutant of the kernel).
#[test]
fn repeated_commit_is_rejected() {
    assert!(check_switch_history(&[ev(10, 0, 1)], 2, ProtocolId(0)).is_ok());

    let bad = [ev(10, 0, 1), ev(20, 0, 1)];
    let err = check_switch_history(&bad, 2, ProtocolId(0)).unwrap_err();
    assert!(err.starts_with("event 1 "), "must name event 1, got: {err}");
    assert!(
        err.contains("leaves P0 while P1 is the valid protocol"),
        "got: {err}"
    );
}

/// Commit-log corruption (b): the first change leaves `B` although `A`
/// is the initial protocol.
#[test]
fn first_commit_leaving_the_wrong_protocol_is_rejected() {
    assert!(check_switch_history(&[ev(10, 1, 0)], 2, ProtocolId(1)).is_ok());

    let err = check_switch_history(&[ev(10, 1, 0)], 2, ProtocolId(0)).unwrap_err();
    assert!(err.starts_with("event 0 "), "must name event 0, got: {err}");
    assert!(
        err.contains("leaves P1 while P0 is the valid protocol"),
        "got: {err}"
    );
}

/// Commit-log corruption (c): a self-switch `A -> A` is no change at
/// all, so no consensus holder would commit it.
#[test]
fn self_switch_is_rejected() {
    let bad = [ev(10, 0, 1), ev(20, 1, 1)];
    let err = check_switch_history(&bad, 2, ProtocolId(0)).unwrap_err();
    assert!(err.starts_with("event 1 "), "must name event 1, got: {err}");
    assert!(err.contains("switches P1 to itself"), "got: {err}");
}

/// Commit-log corruption (d): an event entering slot 5 of an object
/// with 2 protocols is an error, not a panic; so is an out-of-range
/// initial protocol.
#[test]
fn out_of_range_slot_is_rejected() {
    let bad = [ev(10, 0, 1), ev(20, 1, 5)];
    let err = check_switch_history(&bad, 2, ProtocolId(0)).unwrap_err();
    assert!(err.starts_with("event 1 "), "must name event 1, got: {err}");
    assert!(err.contains("enters P5, not one of 2 slots"), "got: {err}");

    let err = check_switch_history(&[], 2, ProtocolId(5)).unwrap_err();
    assert!(err.contains("initial protocol P5"), "got: {err}");
}

/// Commit-log corruption (e): a commit stamped before the one it
/// follows. Commits are serialized, so their times cannot go back.
#[test]
fn commit_stamped_before_its_predecessor_is_rejected() {
    let good = [ev(10, 0, 1), ev(10, 1, 0), ev(30, 0, 1)];
    assert!(check_switch_history(&good, 2, ProtocolId(0)).is_ok());

    let bad = [ev(10, 0, 1), ev(30, 1, 0), ev(20, 0, 1)];
    let err = check_switch_history(&bad, 2, ProtocolId(0)).unwrap_err();
    assert!(err.starts_with("event 2 "), "must name event 2, got: {err}");
    assert!(
        err.contains("commits at t=20 before its predecessor at t=30"),
        "got: {err}"
    );
}

/// Corruption 1b: the same window expressed as raw operation records —
/// a Validate with no matching Invalidate of the previously valid
/// object.
#[test]
fn double_valid_record_history_is_rejected() {
    let good = vec![
        rec(1, 0, OpKind::Invalidate, 10, 11),
        rec(1, 1, OpKind::Validate, 12, 13),
    ];
    assert!(check_at_most_one_valid(&good, 2, 0).is_ok());

    let bad = vec![rec(1, 1, OpKind::Validate, 12, 13)];
    let err = check_at_most_one_valid(&bad, 2, 0).unwrap_err();
    assert!(err.contains("valid after"), "got: {err}");
}

/// Corruption 2: a lost waiter. A process executes its protocol after
/// the manager invalidated that object — the waiter was enqueued under
/// the old protocol and never migrated.
#[test]
fn lost_waiter_is_rejected() {
    // Well-formed: the execution lands on the object that is valid at
    // its start instant (object 1, validated at t=13).
    let good = vec![
        rec(1, 0, OpKind::Invalidate, 10, 11),
        rec(1, 1, OpKind::Validate, 12, 13),
        rec(2, 1, OpKind::DoProtocol, 20, 25),
    ];
    assert!(check_no_lost_waiters(&good, 2, 0).is_ok());

    // Corrupted: the same execution still targets object 0, which was
    // invalidated at t=11 — a waiter stranded on the dead protocol.
    let bad = vec![
        rec(1, 0, OpKind::Invalidate, 10, 11),
        rec(1, 1, OpKind::Validate, 12, 13),
        rec(2, 0, OpKind::DoProtocol, 20, 25),
    ];
    let err = check_no_lost_waiters(&bad, 2, 0).unwrap_err();
    assert!(err.contains("lost waiter"), "got: {err}");
    assert!(err.contains("invalid"), "got: {err}");
}

/// Corruption 2b: the execution itself reports it found the object
/// invalid (`valid_execution: false`) — rejected regardless of the
/// replayed validity.
#[test]
fn self_reported_invalid_execution_is_rejected() {
    let bad = vec![OpRecord {
        proc_id: 2,
        obj: 0,
        kind: OpKind::DoProtocol,
        start: 5,
        end: 6,
        valid_execution: false,
    }];
    let err = check_no_lost_waiters(&bad, 2, 0).unwrap_err();
    assert!(err.contains("lost waiter"), "got: {err}");
}

/// Corruption 3: an out-of-order invalidation. The Invalidate of the
/// old object serializes *after* the Validate of the new one, opening
/// a window in which both objects are valid.
#[test]
fn out_of_order_invalidation_is_rejected() {
    let good = vec![
        rec(1, 0, OpKind::Invalidate, 10, 11),
        rec(1, 1, OpKind::Validate, 12, 13),
    ];
    assert!(check_at_most_one_valid(&good, 2, 0).is_ok());

    // Same two operations, invalidation serialized late.
    let bad = vec![
        rec(1, 1, OpKind::Validate, 12, 13),
        rec(1, 0, OpKind::Invalidate, 20, 21),
    ];
    let err = check_at_most_one_valid(&bad, 2, 0).unwrap_err();
    assert!(err.contains("2 objects valid"), "got: {err}");
}

/// Corruption 3b: the out-of-order change op also overlaps a running
/// protocol execution — a C-seriality violation on top of the validity
/// one, caught by the interval checker.
#[test]
fn change_overlapping_execution_is_rejected() {
    let good = vec![
        rec(2, 0, OpKind::DoProtocol, 0, 9),
        rec(1, 0, OpKind::Invalidate, 10, 11),
    ];
    assert!(check_c_serial(&good).is_ok());

    let bad = vec![
        rec(2, 0, OpKind::DoProtocol, 0, 15),
        rec(1, 0, OpKind::Invalidate, 10, 11),
    ];
    let err = check_c_serial(&bad).unwrap_err();
    assert!(err.contains("overlaps"), "got: {err}");
}

/// Corruption 3c: an object id outside the checked range — as the
/// initial object, or in a record — is an error that names it, not a
/// panic.
#[test]
fn out_of_range_object_in_a_validity_replay_is_rejected() {
    let good = vec![rec(1, 0, OpKind::Invalidate, 10, 11)];
    let err = check_at_most_one_valid(&good, 2, 2).unwrap_err();
    assert!(
        err.contains("initial object 2 is not one of 2 objects"),
        "got: {err}"
    );

    let bad = vec![
        rec(1, 0, OpKind::Invalidate, 10, 11),
        rec(1, 5, OpKind::Validate, 12, 13),
    ];
    let err = check_at_most_one_valid(&bad, 2, 0).unwrap_err();
    assert!(
        err.starts_with("record 1 "),
        "must name record 1, got: {err}"
    );
    assert!(err.contains("names object 5"), "got: {err}");
}

/// Corruption 3d: the same two out-of-range ids given to the
/// lost-waiter replay.
#[test]
fn out_of_range_object_in_a_lost_waiter_replay_is_rejected() {
    let good = vec![rec(2, 0, OpKind::DoProtocol, 20, 25)];
    let err = check_no_lost_waiters(&good, 2, 7).unwrap_err();
    assert!(
        err.contains("initial object 7 is not one of 2 objects"),
        "got: {err}"
    );

    let bad = vec![
        rec(2, 0, OpKind::DoProtocol, 20, 25),
        rec(3, 4, OpKind::DoProtocol, 30, 35),
    ];
    let err = check_no_lost_waiters(&bad, 2, 0).unwrap_err();
    assert!(
        err.starts_with("record 1 "),
        "must name record 1, got: {err}"
    );
    assert!(err.contains("names object 4"), "got: {err}");
}

// ---------------------------------------------------------------------
// Crash-aware lock-history corruptions
// ---------------------------------------------------------------------

use LockOpKind::{Abort, Crash, Grant, Recover, Release, Request};

/// A faulty-but-correct baseline history: a crash mid-hold, a recovery,
/// an abort with a successful retry. Every corruption below is this
/// history minus or plus one event.
fn crash_baseline() -> Vec<LockEvent> {
    vec![
        lock_event(0, 0, Request),
        lock_event(1, 0, Grant),
        lock_event(2, 1, Request),
        lock_event(5, 0, Crash),
        lock_event(6, 1, Abort),
        lock_event(7, 0, Recover),
        lock_event(8, 1, Request),
        lock_event(9, 1, Grant),
        lock_event(10, 1, Release),
    ]
}

/// Corruption 4: a lost waiter across a crash. Drop p1's Abort and
/// retry — its original request then never resolves, which is exactly
/// what a recovery pass that forgets queued waiters produces.
#[test]
fn waiter_lost_across_crash_is_rejected() {
    assert!(check_waiter_conservation(&crash_baseline()).is_ok());

    let bad = vec![
        lock_event(0, 0, Request),
        lock_event(1, 0, Grant),
        lock_event(2, 1, Request),
        lock_event(5, 0, Crash),
        lock_event(7, 0, Recover),
        // p1 is never granted, aborted, or crashed: stranded.
    ];
    let err = check_waiter_conservation(&bad).unwrap_err();
    assert!(err.contains("lost waiter"), "got: {err}");
    assert!(err.contains("proc 1"), "must name the culprit, got: {err}");
}

/// Corruption 4b: a grant out of thin air — the releaser handed the
/// lock to a process that never (re-)requested it.
#[test]
fn grant_without_request_is_rejected() {
    let bad = vec![
        lock_event(0, 0, Request),
        lock_event(1, 0, Grant),
        lock_event(2, 0, Release),
        lock_event(3, 1, Grant),
    ];
    let err = check_waiter_conservation(&bad).unwrap_err();
    assert!(err.contains("without an outstanding request"), "got: {err}");
}

/// Corruption 5: an aborted waiter later granted. p1 aborts at t=6 but
/// the releaser's stale pointer grants it anyway at t=9 — the race the
/// abortable lock's WAITING→ABORTED CAS exists to forbid.
#[test]
fn aborted_waiter_later_granted_is_rejected() {
    assert!(check_abort_safety(&crash_baseline()).is_ok());

    let bad = vec![
        lock_event(0, 0, Request),
        lock_event(1, 0, Grant),
        lock_event(2, 1, Request),
        lock_event(6, 1, Abort),
        lock_event(8, 0, Release),
        lock_event(9, 1, Grant), // no fresh request since the abort
    ];
    let err = check_abort_safety(&bad).unwrap_err();
    assert!(err.contains("abort-safety"), "got: {err}");
    assert!(err.contains("proc 1"), "must name the culprit, got: {err}");
}

/// Corruption 6: a double grant across a recovery. The recovered
/// process re-enters its critical section (its pre-crash grant was
/// never cleaned up) while p1 holds — the outcome when a recovery path
/// skips releasing a crashed holder's claim but the history records no
/// crash for it.
#[test]
fn double_grant_is_rejected() {
    assert!(check_no_double_grant(&crash_baseline()).is_ok());

    let bad = vec![
        lock_event(0, 0, Request),
        lock_event(1, 0, Grant),
        lock_event(2, 1, Request),
        lock_event(3, 1, Grant), // p0 still holds
    ];
    let err = check_no_double_grant(&bad).unwrap_err();
    assert!(err.contains("double grant"), "got: {err}");
    assert!(err.contains("proc 0"), "must name the holder, got: {err}");
}

/// A crash legitimately vacates the hold: the same second grant is
/// accepted once the first holder's crash is on record — the checker
/// must not reject correct crash-recovery histories.
#[test]
fn crash_vacates_hold_for_the_next_grant() {
    let ok = vec![
        lock_event(0, 0, Request),
        lock_event(1, 0, Grant),
        lock_event(2, 1, Request),
        lock_event(3, 0, Crash),
        lock_event(4, 1, Grant),
        lock_event(5, 1, Release),
    ];
    assert!(check_no_double_grant(&ok).is_ok());
    assert!(check_waiter_conservation(&ok).is_ok());
}

/// Bounded bypass, FIFO: p0, p1, p2 request in that order and are
/// granted in that order, so nobody is overtaken.
#[test]
fn fifo_history_has_zero_bypass() {
    let fifo = vec![
        lock_event(0, 0, Request),
        lock_event(1, 1, Request),
        lock_event(2, 2, Request),
        lock_event(3, 0, Grant),
        lock_event(4, 0, Release),
        lock_event(5, 1, Grant),
        lock_event(6, 1, Release),
        lock_event(7, 2, Grant),
        lock_event(8, 2, Release),
    ];
    assert_eq!(check_bounded_bypass(&fifo, 0), Ok(0));
}

/// Bounded bypass, one overtake: p1 requests first but p2 is granted
/// before it. That breaks `k = 0`, naming p1 and its request, and fits
/// `k = 1`.
#[test]
fn one_overtake_breaks_zero_bypass() {
    let overtaken = vec![
        lock_event(0, 0, Request),
        lock_event(1, 0, Grant),
        lock_event(2, 1, Request),
        lock_event(3, 2, Request),
        lock_event(4, 0, Release),
        lock_event(5, 2, Grant),
        lock_event(6, 2, Release),
        lock_event(7, 1, Grant),
        lock_event(8, 1, Release),
    ];
    let err = check_bounded_bypass(&overtaken, 0).unwrap_err();
    assert!(
        err.contains("proc 1 requested at t=2 and was overtaken 1 times"),
        "must name the waiter, its request and the count, got: {err}"
    );
    assert_eq!(check_bounded_bypass(&overtaken, 1), Ok(1));
}

/// Bounded bypass: overtakes of a waiter that then aborts are not
/// charged. p1 is passed twice and gives up; its fresh request is
/// served next.
#[test]
fn overtakes_of_an_aborted_wait_are_not_charged() {
    let h = vec![
        lock_event(0, 1, Request),
        lock_event(1, 0, Request),
        lock_event(2, 0, Grant),
        lock_event(3, 0, Release),
        lock_event(4, 0, Request),
        lock_event(5, 0, Grant),
        lock_event(6, 1, Abort),
        lock_event(7, 1, Request),
        lock_event(8, 0, Release),
        lock_event(9, 1, Grant),
    ];
    assert_eq!(check_bounded_bypass(&h, 0), Ok(0));
}

/// Bounded bypass: a crash ends the wait. p1 is overtaken, crashes,
/// recovers and requests again; only the fresh wait is charged.
#[test]
fn a_crash_ends_the_wait() {
    let h = vec![
        lock_event(0, 1, Request),
        lock_event(1, 0, Request),
        lock_event(2, 0, Grant),
        lock_event(3, 1, Crash),
        lock_event(4, 1, Recover),
        lock_event(5, 1, Request),
        lock_event(6, 0, Release),
        lock_event(7, 1, Grant),
    ];
    assert_eq!(check_bounded_bypass(&h, 0), Ok(0));
    // Without the crash the grant to p0 overtakes p1's first wait.
    let no_crash = [h[0], h[1], h[2], h[6], h[7]];
    let err = check_bounded_bypass(&no_crash, 0).unwrap_err();
    assert!(err.contains("proc 1 requested at t=0"), "got: {err}");
}
