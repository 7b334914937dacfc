//! The protocol-selection framework of §3.2: the naive lock-based
//! reference design and the checkers for its recorded histories.
//!
//! The practical reactive algorithms ([`crate::lock`],
//! [`crate::fetch_op`]) collapse this layering for performance (§3.2.6)
//! and run their mode changes through the shared
//! [`SwitchKernel`](crate::policy::SwitchKernel). This module keeps the
//! framework itself executable:
//!
//! * [`NaiveProtocolObject`] / [`NaiveManager`] implement the lock-based
//!   reference design of Figures 3.5-3.7 verbatim on the simulator —
//!   correct for *any* protocol, but with the serialization overheads
//!   §3.2.4 identifies.
//! * [`History`] records per-object operation intervals, and the §3.2
//!   checkers — re-exported from [`reactive_api::oracle`] — verify them:
//!   [`check_c_serial`] (Definition 1: every protocol-change operation
//!   is totally ordered with respect to every other operation at its
//!   object) and [`check_at_most_one_valid`] (§3.2.3: at any time, at
//!   most one protocol object is valid). We record the *serialization
//!   intervals* (the locked sections), whose C-seriality witnesses an
//!   equivalent legal C-serial history for the full request/response
//!   history.
//!
//! Kernel-built reactive objects — the sim lock/fetch-op/MP objects,
//! the barrier, the native lock — record no intervals: their commit logs
//! are replayed as a chain by
//! [`reactive_api::oracle::check_switch_history`] in tests
//! (`crates/core/tests/kernel_oracle.rs`,
//! `crates/native/tests/kernel_oracle.rs`).

use std::cell::RefCell;
use std::rc::Rc;

use crate::spin::TtsLock;
use alewife_sim::{Addr, Cpu, Machine};
use sync_protocols::spin::Lock;

pub use reactive_api::oracle::{check_at_most_one_valid, check_c_serial, OpKind, OpRecord};

/// A shared recorder of operation intervals.
#[derive(Clone, Debug, Default)]
pub struct History {
    records: Rc<RefCell<Vec<OpRecord>>>,
}

impl History {
    /// Create an empty history.
    pub fn new() -> History {
        History::default()
    }

    /// Append a record.
    pub fn record(&self, r: OpRecord) {
        self.records.borrow_mut().push(r);
    }

    /// Snapshot the records.
    pub fn snapshot(&self) -> Vec<OpRecord> {
        self.records.borrow().clone()
    }
}

/// The naive lock-based protocol object of Figure 3.7, specialized to a
/// counter protocol (the protocol state is one word; `RunProtocol` adds
/// a delta; `UpdateProtocol` copies the state in).
#[derive(Clone)]
pub struct NaiveProtocolObject {
    /// Object id for history records.
    pub id: usize,
    lock: TtsLock,
    valid: Addr,
    state: Addr,
    history: History,
    /// Cycles `RunProtocol` busies the processor (models protocol work).
    work: u64,
}

impl NaiveProtocolObject {
    /// Allocate a protocol object homed on `home`.
    pub fn new(
        m: &Machine,
        home: usize,
        id: usize,
        initially_valid: bool,
        work: u64,
        history: History,
    ) -> NaiveProtocolObject {
        let valid = m.alloc_on(home, 1);
        m.write_word(valid, initially_valid as u64);
        NaiveProtocolObject {
            id,
            lock: TtsLock::new(m, home, 64),
            valid,
            state: m.alloc_on(home, 1),
            history,
            work,
        }
    }

    /// `DoProtocol` (Figure 3.7): run the protocol under the object
    /// lock; returns `None` if the object was invalid.
    pub async fn do_protocol(&self, cpu: &Cpu, delta: u64) -> Option<u64> {
        self.lock.acquire(cpu).await;
        let t0 = cpu.now();
        let valid = cpu.read(self.valid).await == 1;
        let result = if valid {
            let old = cpu.read(self.state).await;
            cpu.work(self.work).await;
            cpu.write(self.state, old.wrapping_add(delta)).await;
            Some(old)
        } else {
            None
        };
        let t1 = cpu.now();
        self.lock.release(cpu, ()).await;
        self.history.record(OpRecord {
            proc_id: cpu.node(),
            obj: self.id,
            kind: OpKind::DoProtocol,
            start: t0,
            end: t1,
            valid_execution: valid,
        });
        result
    }

    /// `Invalidate` (Figure 3.7): returns the captured state if the
    /// object was valid (so the manager can transfer it), else `None`.
    pub async fn invalidate(&self, cpu: &Cpu) -> Option<u64> {
        self.lock.acquire(cpu).await;
        let t0 = cpu.now();
        let was_valid = cpu.read(self.valid).await == 1;
        let state = if was_valid {
            cpu.write(self.valid, 0).await;
            Some(cpu.read(self.state).await)
        } else {
            None
        };
        let t1 = cpu.now();
        self.lock.release(cpu, ()).await;
        self.history.record(OpRecord {
            proc_id: cpu.node(),
            obj: self.id,
            kind: OpKind::Invalidate,
            start: t0,
            end: t1,
            valid_execution: was_valid,
        });
        state
    }

    /// `Validate` (Figure 3.7): `UpdateProtocol` (copy the transferred
    /// state in) and mark valid.
    pub async fn validate(&self, cpu: &Cpu, state: u64) {
        self.lock.acquire(cpu).await;
        let t0 = cpu.now();
        if cpu.read(self.valid).await == 0 {
            cpu.write(self.state, state).await;
            cpu.write(self.valid, 1).await;
        }
        let t1 = cpu.now();
        self.lock.release(cpu, ()).await;
        self.history.record(OpRecord {
            proc_id: cpu.node(),
            obj: self.id,
            kind: OpKind::Validate,
            start: t0,
            end: t1,
            valid_execution: true,
        });
    }

    /// `IsValid` (unlocked hint read, as in Figure 3.7).
    pub async fn is_valid(&self, cpu: &Cpu) -> bool {
        cpu.read(self.valid).await == 1
    }
}

/// The protocol manager of Figure 3.6 over two protocol objects.
#[derive(Clone)]
pub struct NaiveManager {
    /// Protocol object 1.
    pub p1: NaiveProtocolObject,
    /// Protocol object 2.
    pub p2: NaiveProtocolObject,
}

impl NaiveManager {
    /// Build a manager over a pair of counter protocols; protocol 1
    /// starts valid. `work1`/`work2` are the protocols' per-op costs.
    pub fn new(m: &Machine, home: usize, work1: u64, work2: u64, history: History) -> NaiveManager {
        NaiveManager {
            p1: NaiveProtocolObject::new(m, home, 0, true, work1, history.clone()),
            p2: NaiveProtocolObject::new(m, home, 1, false, work2, history),
        }
    }

    /// `DoSynchOp` (Figure 3.6): loop until a valid protocol executes.
    pub async fn do_synch_op(&self, cpu: &Cpu, delta: u64) -> u64 {
        loop {
            if self.p1.is_valid(cpu).await {
                if let Some(v) = self.p1.do_protocol(cpu, delta).await {
                    return v;
                }
            } else if self.p2.is_valid(cpu).await {
                if let Some(v) = self.p2.do_protocol(cpu, delta).await {
                    return v;
                }
            }
        }
    }

    /// `DoChange` (Figure 3.6): invalidate whichever protocol is valid
    /// and validate the other, transferring the state.
    pub async fn do_change(&self, cpu: &Cpu) {
        if let Some(state) = self.p1.invalidate(cpu).await {
            self.p2.validate(cpu, state).await;
        } else if let Some(state) = self.p2.invalidate(cpu).await {
            self.p1.validate(cpu, state).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alewife_sim::Config;

    #[test]
    fn naive_manager_counts_correctly_under_changes() {
        let m = Machine::new(Config::default().nodes(8));
        let history = History::new();
        let mgr = NaiveManager::new(&m, 0, 20, 60, history.clone());
        for p in 0..7 {
            let cpu = m.cpu(p);
            let mgr = mgr.clone();
            m.spawn(p, async move {
                for _ in 0..20 {
                    mgr.do_synch_op(&cpu, 1).await;
                    cpu.work(cpu.rand_below(150)).await;
                }
            });
        }
        // A dedicated changer flips protocols repeatedly (§3.2.1 models
        // changes as generated by an internal process).
        {
            let cpu = m.cpu(7);
            let mgr = mgr.clone();
            m.spawn(7, async move {
                for _ in 0..10 {
                    cpu.work(1_000).await;
                    mgr.do_change(&cpu).await;
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0, "framework deadlock");
        // All 140 increments must have landed in exactly one of the two
        // protocol states (whichever is currently valid holds the total).
        let recs = history.snapshot();
        let total_valid_ops = recs
            .iter()
            .filter(|r| r.kind == OpKind::DoProtocol && r.valid_execution)
            .count();
        assert_eq!(total_valid_ops, 140, "an op was lost or double-counted");
    }

    #[test]
    fn histories_are_c_serial() {
        let m = Machine::new(Config::default().nodes(6));
        let history = History::new();
        let mgr = NaiveManager::new(&m, 0, 10, 30, history.clone());
        for p in 0..5 {
            let cpu = m.cpu(p);
            let mgr = mgr.clone();
            m.spawn(p, async move {
                for _ in 0..15 {
                    mgr.do_synch_op(&cpu, 1).await;
                    cpu.work(cpu.rand_below(100)).await;
                }
            });
        }
        {
            let cpu = m.cpu(5);
            let mgr = mgr.clone();
            m.spawn(5, async move {
                for _ in 0..6 {
                    cpu.work(800).await;
                    mgr.do_change(&cpu).await;
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0);
        let recs = history.snapshot();
        check_c_serial(&recs).expect("history not C-serial");
        check_at_most_one_valid(&recs, 2, 0).expect("validity invariant broken");
    }

    // The basic accept/reject cases of the checkers are unit-tested
    // next to their implementation in `reactive_api::oracle`; here we
    // keep the case that depends on the multi-object framing.
    #[test]
    fn checker_allows_changes_on_different_objects() {
        // H3 of Figure 3.8: a change on x may overlap an op on y.
        let ok = vec![
            OpRecord {
                proc_id: 0,
                obj: 0,
                kind: OpKind::Invalidate,
                start: 0,
                end: 100,
                valid_execution: true,
            },
            OpRecord {
                proc_id: 1,
                obj: 1,
                kind: OpKind::DoProtocol,
                start: 50,
                end: 150,
                valid_execution: true,
            },
        ];
        assert!(check_c_serial(&ok).is_ok());
    }
}
