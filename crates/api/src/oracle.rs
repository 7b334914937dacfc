//! The kernel's cross-object oracle: C-serializability and
//! single-validity checkers (§3.2, Definitions 1-2).
//!
//! Two kinds of history are checked here:
//!
//! * Operation intervals ([`OpRecord`]s), as the naive protocol-manager
//!   reference design (Figures 3.5-3.7, `reactive_core::framework`'s
//!   `NaiveManager`) records them:
//!   * [`check_c_serial`] — Definition 1: at every object, each
//!     protocol-change operation (`Invalidate`/`Validate`) is totally
//!     ordered with respect to every other operation on that object.
//!   * [`check_at_most_one_valid`] — the §3.2.3 manager invariant:
//!     replaying the change operations in serialization order, at most
//!     one protocol object is ever valid.
//!   * [`check_no_lost_waiters`] — every execution ran against the
//!     object valid at its start.
//! * Commit logs: [`check_switch_history`] replays a [`SwitchEvent`]
//!   stream as a chain — each change leaves the protocol the previous
//!   one entered — so every kernel-built reactive object, simulator or
//!   native, is checked without per-object recording code.

use crate::{ProtocolId, SwitchEvent};

/// Operation kinds at a protocol object (Figure 3.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Execute the synchronization protocol.
    DoProtocol,
    /// Invalidate the object (first half of a protocol change).
    Invalidate,
    /// Update + validate the object (second half of a change).
    Validate,
}

/// One recorded operation interval at a protocol object.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    /// Issuing process (node id; 0 when unknown).
    pub proc_id: usize,
    /// Protocol object id.
    pub obj: usize,
    /// Operation kind.
    pub kind: OpKind,
    /// Serialization interval start (cycles).
    pub start: u64,
    /// Serialization interval end (cycles).
    pub end: u64,
    /// For `DoProtocol`: whether the execution found the object valid.
    pub valid_execution: bool,
}

/// Check Definition 1 (C-seriality): for each object, no
/// `Invalidate`/`Validate` interval may overlap any other operation's
/// interval on the same object.
pub fn check_c_serial(records: &[OpRecord]) -> Result<(), String> {
    for (i, a) in records.iter().enumerate() {
        if a.kind == OpKind::DoProtocol {
            continue;
        }
        for (j, b) in records.iter().enumerate() {
            if i == j || a.obj != b.obj {
                continue;
            }
            let disjoint = a.end <= b.start || b.end <= a.start;
            if !disjoint {
                return Err(format!(
                    "change op {a:?} overlaps {b:?} on object {}",
                    a.obj
                ));
            }
        }
    }
    Ok(())
}

/// What both validity replays start from: the change operations in
/// serialization order, and the validity of the `objects` protocol
/// objects before them (only `initial_valid`). An `initial_valid` or a
/// record's `obj` outside `0..objects` is an `Err` naming it.
fn replay_start(
    records: &[OpRecord],
    objects: usize,
    initial_valid: usize,
) -> Result<(Vec<&OpRecord>, Vec<bool>), String> {
    if initial_valid >= objects {
        return Err(format!(
            "initial object {initial_valid} is not one of {objects} objects"
        ));
    }
    if let Some((i, r)) = records.iter().enumerate().find(|(_, r)| r.obj >= objects) {
        return Err(format!(
            "record {i} ({r:?}) names object {}, not one of {objects} objects",
            r.obj
        ));
    }
    let mut changes: Vec<&OpRecord> = records
        .iter()
        .filter(|r| r.kind != OpKind::DoProtocol)
        .collect();
    changes.sort_by_key(|r| r.start);
    let mut valid = vec![false; objects];
    valid[initial_valid] = true;
    Ok((changes, valid))
}

/// Check the §3.2.3 manager invariant: replaying the change operations
/// in serialization order, at most one object is ever valid (given
/// `initial_valid`). An object id outside `0..objects` is an `Err`.
pub fn check_at_most_one_valid(
    records: &[OpRecord],
    objects: usize,
    initial_valid: usize,
) -> Result<(), String> {
    let (changes, mut valid) = replay_start(records, objects, initial_valid)?;
    for c in changes {
        valid[c.obj] = c.kind == OpKind::Validate;
        let count = valid.iter().filter(|&&v| v).count();
        if count > 1 {
            return Err(format!(
                "{count} objects valid after {c:?} (invariant: ≤ 1)"
            ));
        }
    }
    Ok(())
}

/// Check that no synchronization operation was lost to a protocol
/// change: every `DoProtocol` record must have executed against an
/// object that was valid at its start instant, and must itself report
/// a valid execution.
///
/// A violation is the classic *lost waiter*: a process enqueued under
/// the old protocol (say a queue lock) executes after the manager has
/// invalidated that protocol without migrating it, so its operation
/// runs against a dead object and the process hangs. Under C-seriality
/// change operations never overlap a `DoProtocol` interval, so the
/// object's validity is constant across the interval and checking the
/// start instant suffices; run [`check_c_serial`] first. An object id
/// outside `0..objects` is an `Err`.
pub fn check_no_lost_waiters(
    records: &[OpRecord],
    objects: usize,
    initial_valid: usize,
) -> Result<(), String> {
    let (changes, initial) = replay_start(records, objects, initial_valid)?;
    for r in records.iter().filter(|r| r.kind == OpKind::DoProtocol) {
        if !r.valid_execution {
            return Err(format!(
                "lost waiter: {r:?} reports executing against an \
                 invalidated protocol object"
            ));
        }
        let mut valid = initial.clone();
        for c in changes.iter().filter(|c| c.end <= r.start) {
            valid[c.obj] = c.kind == OpKind::Validate;
        }
        if !valid[r.obj] {
            return Err(format!(
                "lost waiter: {r:?} ran on object {} which was invalid \
                 at t={}",
                r.obj, r.start
            ));
        }
    }
    Ok(())
}

/// Check a kernel commit log against §3.2 by replaying it as a chain.
///
/// Every change is made by the holder of the consensus object of the
/// one valid protocol, so a log is correct exactly when each event
/// leaves the protocol the previous event entered (`initial` for the
/// first), enters a different one of the `protocols` slots, and is
/// stamped no earlier than its predecessor. The replay keeps two
/// values, the valid protocol and the last commit time; the first
/// event that breaks a rule is named, by index, in the `Err`.
pub fn check_switch_history(
    events: &[SwitchEvent],
    protocols: usize,
    initial: ProtocolId,
) -> Result<(), String> {
    if initial.index() >= protocols {
        return Err(format!(
            "initial protocol {initial} is not one of {protocols} slots"
        ));
    }
    let (mut valid, mut last) = (initial, 0);
    for (i, ev) in events.iter().enumerate() {
        let broken = if ev.from != valid {
            format!("leaves {} while {valid} is the valid protocol", ev.from)
        } else if ev.to == valid {
            format!("switches {valid} to itself")
        } else if ev.to.index() >= protocols {
            format!("enters {}, not one of {protocols} slots", ev.to)
        } else if ev.time < last {
            format!(
                "commits at t={} before its predecessor at t={last}",
                ev.time
            )
        } else {
            (valid, last) = (ev.to, ev.time);
            continue;
        };
        return Err(format!(
            "event {i} ({} -> {} at t={}) {broken}",
            ev.from, ev.to, ev.time
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Crash-aware lock-history checkers
// ---------------------------------------------------------------------

/// One event in a lock's request/grant history, including the crash and
/// abort events a `FaultPlan` run injects. Times are cycles; ties are
/// broken by position in the slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockEvent {
    /// Event time (cycles).
    pub time: u64,
    /// The process the event concerns.
    pub proc_id: usize,
    /// What happened.
    pub kind: LockOpKind,
}

/// The kinds of [`LockEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockOpKind {
    /// The process asked for the lock (enqueued / began acquiring).
    Request,
    /// The process was granted the lock.
    Grant,
    /// The process released the lock it held.
    Release,
    /// The process abandoned its outstanding request (timeout or abort
    /// signal) and observed the abandonment take effect.
    Abort,
    /// The process crashed: its volatile state — including any
    /// outstanding request or held lock — is gone.
    Crash,
    /// The process completed crash recovery and may request again.
    Recover,
}

/// Convenience constructor for [`LockEvent`].
pub fn lock_event(time: u64, proc_id: usize, kind: LockOpKind) -> LockEvent {
    LockEvent {
        time,
        proc_id,
        kind,
    }
}

fn sorted(events: &[LockEvent]) -> Vec<LockEvent> {
    let mut evs = events.to_vec();
    // Stable: equal-time events keep their recorded order.
    evs.sort_by_key(|e| e.time);
    evs
}

/// **Waiter conservation** across kills and recoveries: every `Request`
/// resolves as exactly one of `Grant`, `Abort`, or `Crash` (of the
/// requester), and every `Grant`/`Abort`/`Release` matches an
/// outstanding request or held lock. A request still unresolved at the
/// end of the history — e.g. a waiter stranded when a crash wiped a
/// queue link, or dropped by a recovery pass — is the *lost waiter*
/// this checker exists to catch.
pub fn check_waiter_conservation(events: &[LockEvent]) -> Result<(), String> {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Idle,
        Waiting,
        Holding,
    }
    let n = events.iter().map(|e| e.proc_id + 1).max().unwrap_or(0);
    let mut st = vec![St::Idle; n];
    for ev in sorted(events) {
        let p = ev.proc_id;
        match ev.kind {
            LockOpKind::Request => {
                if st[p] != St::Idle {
                    return Err(format!(
                        "proc {p} issued a request at t={} while its previous \
                         request/hold was unresolved",
                        ev.time
                    ));
                }
                st[p] = St::Waiting;
            }
            LockOpKind::Grant => {
                if st[p] != St::Waiting {
                    return Err(format!(
                        "proc {p} granted at t={} without an outstanding request",
                        ev.time
                    ));
                }
                st[p] = St::Holding;
            }
            LockOpKind::Release => {
                if st[p] != St::Holding {
                    return Err(format!(
                        "proc {p} released at t={} without holding",
                        ev.time
                    ));
                }
                st[p] = St::Idle;
            }
            LockOpKind::Abort => {
                if st[p] != St::Waiting {
                    return Err(format!(
                        "proc {p} aborted at t={} without an outstanding request",
                        ev.time
                    ));
                }
                st[p] = St::Idle;
            }
            // A crash resolves whatever the process had in flight; a
            // recovery changes nothing about conservation.
            LockOpKind::Crash => st[p] = St::Idle,
            LockOpKind::Recover => {}
        }
    }
    for (p, s) in st.iter().enumerate() {
        if *s == St::Waiting {
            return Err(format!(
                "lost waiter: proc {p}'s request never resolved \
                 (no grant, abort, or crash)"
            ));
        }
    }
    Ok(())
}

/// **Abort safety**: once a process's request has aborted, that request
/// is dead — a later `Grant` to the process is legal only after a
/// *fresh* `Request`. A grant landing on an aborted request is the
/// race this checker catches: the releaser handed the lock to a waiter
/// that already left, so the lock is lost (nobody will release it) or
/// the leaver re-enters a critical section it renounced.
pub fn check_abort_safety(events: &[LockEvent]) -> Result<(), String> {
    let n = events.iter().map(|e| e.proc_id + 1).max().unwrap_or(0);
    let mut waiting = vec![false; n];
    let mut aborted = vec![false; n];
    for ev in sorted(events) {
        let p = ev.proc_id;
        match ev.kind {
            LockOpKind::Request => {
                waiting[p] = true;
                aborted[p] = false;
            }
            LockOpKind::Abort => {
                waiting[p] = false;
                aborted[p] = true;
            }
            LockOpKind::Grant => {
                if aborted[p] && !waiting[p] {
                    return Err(format!(
                        "abort-safety violation: proc {p} granted at t={} \
                         after its request aborted (no fresh request between)",
                        ev.time
                    ));
                }
                waiting[p] = false;
            }
            LockOpKind::Crash => {
                waiting[p] = false;
                aborted[p] = false;
            }
            LockOpKind::Release | LockOpKind::Recover => {}
        }
    }
    Ok(())
}

/// **Mutual exclusion** across crashes: at most one live holder at any
/// instant. A holder's crash vacates the lock (recovery is then
/// responsible for making it grantable again — which is what lets a
/// later grant be legal); a second `Grant` while a live holder exists
/// is the double-grant this checker catches.
pub fn check_no_double_grant(events: &[LockEvent]) -> Result<(), String> {
    let mut holder: Option<usize> = None;
    for ev in sorted(events) {
        let p = ev.proc_id;
        match ev.kind {
            LockOpKind::Grant => {
                if let Some(h) = holder {
                    return Err(format!(
                        "double grant: proc {p} granted at t={} while proc {h} \
                         still holds",
                        ev.time
                    ));
                }
                holder = Some(p);
            }
            // A crash releases the hold the same way an explicit
            // release does (the recovery routine rebuilds the lock).
            LockOpKind::Release | LockOpKind::Crash if holder == Some(p) => {
                holder = None;
            }
            _ => {}
        }
    }
    Ok(())
}

/// **Bounded bypass**: how often a waiter is overtaken. A process's
/// bypass is the number of `Grant`s, between its `Request` and its own
/// `Grant`, to other processes that requested after it (in the stable
/// time order; a FIFO lock has bypass 0). A wait that ends in its own
/// `Abort` or `Crash` is not charged, and neither is one still open
/// when the history ends (a lost waiter is
/// [`check_waiter_conservation`]'s finding). Returns the largest
/// bypass, or an error naming the first waiter granted after more than
/// `k` overtakes.
pub fn check_bounded_bypass(events: &[LockEvent], k: usize) -> Result<usize, String> {
    let n = events.iter().map(|e| e.proc_id + 1).max().unwrap_or(0);
    // Per waiting process: (position of its request in the order,
    // request time, overtakes so far).
    let mut waits: Vec<Option<(usize, u64, usize)>> = vec![None; n];
    let mut worst = 0;
    for (i, ev) in sorted(events).into_iter().enumerate() {
        let p = ev.proc_id;
        match ev.kind {
            LockOpKind::Request => waits[p] = Some((i, ev.time, 0)),
            LockOpKind::Grant => {
                let Some((order, requested, bypass)) = waits[p].take() else {
                    continue;
                };
                for (_, _, overtaken) in waits.iter_mut().flatten().filter(|w| w.0 < order) {
                    *overtaken += 1;
                }
                if bypass > k {
                    return Err(format!(
                        "bypass violation: proc {p} requested at t={requested} and was \
                         overtaken {bypass} times before its grant at t={} (bound {k})",
                        ev.time
                    ));
                }
                worst = worst.max(bypass);
            }
            LockOpKind::Abort | LockOpKind::Crash => waits[p] = None,
            LockOpKind::Release | LockOpKind::Recover => {}
        }
    }
    Ok(worst)
}

/// Run all three crash-aware lock checkers
/// ([`check_waiter_conservation`], [`check_abort_safety`],
/// [`check_no_double_grant`]) over one history.
pub fn check_crash_lock_history(events: &[LockEvent]) -> Result<(), String> {
    check_waiter_conservation(events)?;
    check_abort_safety(events)?;
    check_no_double_grant(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_rejects_overlapping_change() {
        let bad = vec![
            OpRecord {
                proc_id: 0,
                obj: 0,
                kind: OpKind::DoProtocol,
                start: 0,
                end: 100,
                valid_execution: true,
            },
            OpRecord {
                proc_id: 1,
                obj: 0,
                kind: OpKind::Invalidate,
                start: 50,
                end: 150,
                valid_execution: true,
            },
        ];
        assert!(check_c_serial(&bad).is_err());
    }

    #[test]
    fn checker_accepts_overlapping_protocol_executions() {
        // Concurrent DoProtocol executions are explicitly allowed
        // (that is the whole point of C-serial vs serial, §3.2.5).
        let ok = vec![
            OpRecord {
                proc_id: 0,
                obj: 0,
                kind: OpKind::DoProtocol,
                start: 0,
                end: 100,
                valid_execution: true,
            },
            OpRecord {
                proc_id: 1,
                obj: 0,
                kind: OpKind::DoProtocol,
                start: 50,
                end: 150,
                valid_execution: true,
            },
        ];
        assert!(check_c_serial(&ok).is_ok());
    }

    #[test]
    fn validity_checker_detects_double_valid() {
        let bad = vec![OpRecord {
            proc_id: 0,
            obj: 1,
            kind: OpKind::Validate,
            start: 0,
            end: 10,
            valid_execution: true,
        }];
        // Object 0 was initially valid and never invalidated.
        assert!(check_at_most_one_valid(&bad, 2, 0).is_err());
    }

    #[test]
    fn crash_lock_checkers_accept_a_faulty_but_correct_history() {
        use LockOpKind::*;
        // p0 acquires, crashes in CS, recovers; p1's wait spans the
        // crash, aborts once, retries, and wins.
        let h = vec![
            lock_event(0, 0, Request),
            lock_event(1, 0, Grant),
            lock_event(2, 1, Request),
            lock_event(5, 0, Crash),
            lock_event(6, 1, Abort),
            lock_event(7, 0, Recover),
            lock_event(8, 1, Request),
            lock_event(9, 1, Grant),
            lock_event(10, 1, Release),
        ];
        assert!(check_crash_lock_history(&h).is_ok());
    }

    #[test]
    fn replay_catches_inconsistent_event_chains() {
        // A second A -> B change without an intervening change back
        // means two protocols would have been valid.
        let a = ProtocolId(0);
        let b = ProtocolId(1);
        let evs = vec![
            SwitchEvent {
                time: 10,
                from: a,
                to: b,
                residual: 0.0,
            },
            SwitchEvent {
                time: 20,
                from: a,
                to: ProtocolId(2),
                residual: 0.0,
            },
        ];
        assert!(check_switch_history(&evs[..1], 3, a).is_ok());
        assert!(check_switch_history(&evs, 3, a).is_err());
    }
}
