//! Measurement harnesses for the RMR (remote-memory-reference) and
//! crash-robustness scenario family.
//!
//! Three workloads, all deterministic (fixed seeds, fixed fault
//! plans), each returning the raw quantities the scenario claims are
//! stated over:
//!
//! * [`recoverable_rmr`] — the crash-recoverable mutex under a periodic
//!   kill schedule; RMRs per passage in the CC model (O(log n) for the
//!   Peterson tree — the DSM cost of a Peterson tree is unbounded and
//!   deliberately not claimed).
//! * [`abortable_rmr`] — the abortable MCS lock under deadline pressure
//!   plus an abort storm; RMRs per *operation* (passages + aborts) in
//!   **both** cost models (the O(1)-amortized claim).
//! * [`crash_storm`] — the recoverable mutex under
//!   [`FaultPlan::crash_storm`], with the full lock-event history fed
//!   to the crash-aware §3.2 oracle: waiter conservation, abort
//!   safety, no double grant, plus a measured worst recovery lag.
//!
//! Event recording happens at the workload level (the protocols don't
//! know they are being watched), so the oracle checks the *observable*
//! history — the same trust boundary the conformance suite uses.

use std::cell::RefCell;
use std::rc::Rc;

use alewife_sim::{Config, FaultEvent, FaultPlan, Machine};
use reactive_api::oracle::{check_crash_lock_history, lock_event, LockEvent, LockOpKind};
use sync_protocols::abortable::{AbortableMcsLock, Acquired};
use sync_protocols::recover::RecoverableMutex;

/// What one RMR workload measured.
#[derive(Clone, Copy, Debug)]
pub struct RmrSample {
    /// Completed passages (critical sections executed).
    pub passages: u64,
    /// Abandoned acquires (abortable lock only; 0 for the mutex).
    pub aborts: u64,
    /// Total coherence-model RMRs across all nodes.
    pub rmr_cc: u64,
    /// Total DSM-model RMRs across all nodes.
    pub rmr_dsm: u64,
    /// Node kills injected by the fault plan.
    pub kills: u64,
}

/// Run the recoverable mutex on `procs` single-task nodes for `iters`
/// passages each, killing node `procs - 1` every `period` cycles for
/// `outage` cycles (`kills` times). The victim's recovery routine
/// repairs the tree and finishes the victim's remaining passages.
pub fn recoverable_rmr(
    procs: usize,
    iters: u64,
    kills: u32,
    period: u64,
    outage: u64,
) -> RmrSample {
    let mut plan = FaultPlan::new();
    let victim = procs - 1;
    for k in 0..kills {
        plan = plan.kill_for(period * (k as u64 + 1), victim, outage);
    }
    let m = Machine::new(Config::default().nodes(procs).faults(plan));
    let lock = RecoverableMutex::new(&m, procs);
    // NVM tally: one word per process, so passages survive kills.
    let tally = m.alloc_on(0, procs as u64);
    for p in 0..procs {
        let cpu = m.cpu(p);
        let lock = lock.clone();
        m.spawn(p, async move {
            for _ in 0..iters {
                lock.acquire(&cpu, p).await;
                let t = tally.plus(p as u64);
                let v = cpu.read(t).await;
                cpu.write(t, v + 1).await;
                lock.release(&cpu, p).await;
                cpu.work(cpu.rand_below(60)).await;
            }
        });
    }
    let rcpu = m.cpu(victim);
    let rlock = lock.clone();
    m.on_recovery(victim, move || {
        let cpu = rcpu.clone();
        let lock = rlock.clone();
        Box::pin(async move {
            lock.recover(&cpu, victim).await;
            // Resume the victim's share of the workload: up to `iters`
            // total passages, counted against its NVM tally.
            loop {
                let t = tally.plus(victim as u64);
                if cpu.read(t).await >= iters {
                    break;
                }
                lock.acquire(&cpu, victim).await;
                let v = cpu.read(t).await;
                cpu.write(t, v + 1).await;
                lock.release(&cpu, victim).await;
                cpu.work(cpu.rand_below(60)).await;
            }
        })
    });
    m.run();
    assert_eq!(m.live_tasks(), 0, "a waiter wedged under the kill schedule");
    let passages: u64 = (0..procs).map(|p| m.read_word(tally.plus(p as u64))).sum();
    let st = m.stats();
    RmrSample {
        passages,
        aborts: 0,
        rmr_cc: st.rmr_cc_total(),
        rmr_dsm: st.rmr_dsm_total(),
        kills: count_kills(&m),
    }
}

/// Run the abortable MCS lock on `procs` nodes for `iters` attempts
/// each under deadline pressure (every attempt carries a deadline of
/// `now + deadline_gap`) plus a seeded abort storm. Every attempt
/// resolves to exactly one passage or one abort (asserted).
pub fn abortable_rmr(
    procs: usize,
    iters: u64,
    deadline_gap: u64,
    storm_aborts: usize,
) -> RmrSample {
    let m = Machine::new(
        Config::default()
            .nodes(procs)
            .faults(FaultPlan::abort_storm(11, procs, storm_aborts, 50_000)),
    );
    let lock = AbortableMcsLock::new(&m, 0, procs);
    let tally = m.alloc_on(0, 2); // [passages, aborts]
    for p in 0..procs {
        let cpu = m.cpu(p);
        let lock = lock.clone();
        m.spawn(p, async move {
            for _ in 0..iters {
                let deadline = cpu.now() + deadline_gap;
                match lock.acquire(&cpu, p, deadline).await {
                    Acquired::Granted(q) => {
                        cpu.work(40).await;
                        cpu.fetch_and_add(tally, 1).await;
                        lock.release(&cpu, q).await;
                    }
                    Acquired::Aborted => {
                        cpu.fetch_and_add(tally.plus(1), 1).await;
                        cpu.work(cpu.rand_below(120)).await;
                    }
                }
            }
        });
    }
    m.run();
    assert_eq!(m.live_tasks(), 0);
    let passages = m.read_word(tally);
    let aborts = m.read_word(tally.plus(1));
    assert_eq!(
        passages + aborts,
        iters * procs as u64,
        "an attempt resolved to neither a passage nor an abort"
    );
    let st = m.stats();
    RmrSample {
        passages,
        aborts,
        rmr_cc: st.rmr_cc_total(),
        rmr_dsm: st.rmr_dsm_total(),
        kills: 0,
    }
}

/// What the crash-storm workload measured.
#[derive(Clone, Debug)]
pub struct StormOutcome {
    /// Completed passages across all nodes (from the NVM tally).
    pub passages: u64,
    /// Kills the storm actually delivered.
    pub kills: u64,
    /// Oracle verdict over the full observable lock-event history:
    /// `None` = every checker passed; `Some(why)` = a violation.
    pub violation: Option<String>,
    /// Worst observed lag (cycles) from a node's kill to its recovery
    /// routine completing — the storm's outage plus tree repair.
    pub recovery_worst: u64,
    /// Recorded lock events (for debugging; already oracle-checked).
    pub events: usize,
}

/// Run the recoverable mutex through a [`FaultPlan::crash_storm`] and
/// feed the observable history to the crash-aware oracle. Every node
/// gets a recovery routine that repairs the tree and resumes its share
/// of the workload, so the storm tests repair-under-contention, not
/// just survival.
pub fn crash_storm(
    procs: usize,
    iters: u64,
    kills: usize,
    window: u64,
    outage: u64,
) -> StormOutcome {
    let m = Machine::new(
        Config::default()
            .nodes(procs)
            .faults(FaultPlan::crash_storm(7, procs, kills, window, outage)),
    );
    let lock = RecoverableMutex::new(&m, procs);
    let tally = m.alloc_on(0, procs as u64);
    let events: Rc<RefCell<Vec<LockEvent>>> = Rc::new(RefCell::new(Vec::new()));

    fn log(ev: &Rc<RefCell<Vec<LockEvent>>>, t: u64, p: usize, k: LockOpKind) {
        ev.borrow_mut().push(lock_event(t, p, k));
    }

    async fn share(
        cpu: &alewife_sim::Cpu,
        lock: &RecoverableMutex,
        ev: &Rc<RefCell<Vec<LockEvent>>>,
        tally: alewife_sim::Addr,
        p: usize,
        iters: u64,
    ) {
        loop {
            let t = tally.plus(p as u64);
            if cpu.read(t).await >= iters {
                break;
            }
            log(ev, cpu.now(), p, LockOpKind::Request);
            lock.acquire(cpu, p).await;
            log(ev, cpu.now(), p, LockOpKind::Grant);
            let v = cpu.read(t).await;
            cpu.work(30).await;
            cpu.write(t, v + 1).await;
            // Log the release *before* running it: the successor can be
            // granted (and log its Grant) the instant the hand-off word
            // flips, before this task resumes — logging afterwards would
            // order that Grant inside our hold and trip the
            // double-grant checker on a correct execution.
            log(ev, cpu.now(), p, LockOpKind::Release);
            lock.release(cpu, p).await;
            cpu.work(cpu.rand_below(80)).await;
        }
    }

    for p in 0..procs {
        let (cpu, l2, e2) = (m.cpu(p), lock.clone(), events.clone());
        m.spawn(p, async move {
            share(&cpu, &l2, &e2, tally, p, iters).await;
        });
    }
    for node in 0..procs {
        let (cpu, l2, e2) = (m.cpu(node), lock.clone(), events.clone());
        m.on_recovery(node, move || {
            let (cpu, l3, e3) = (cpu.clone(), l2.clone(), e2.clone());
            Box::pin(async move {
                l3.recover(&cpu, node).await;
                log(&e3, cpu.now(), node, LockOpKind::Recover);
                share(&cpu, &l3, &e3, tally, node, iters).await;
            })
        });
    }
    m.run();
    assert_eq!(m.live_tasks(), 0, "a waiter was lost in the storm");

    // Fold the machine's fault log into the history (Crash events) and
    // measure the worst kill-to-repaired lag.
    let mut history = events.borrow().clone();
    let mut kill_q: Vec<Vec<u64>> = vec![Vec::new(); procs];
    let mut kills_seen = 0u64;
    for f in m.fault_log() {
        if let FaultEvent::Kill { at, node, .. } = f {
            history.push(lock_event(at, node, LockOpKind::Crash));
            kill_q[node].push(at);
            kills_seen += 1;
        }
    }
    // Pair each node's kills with its Recover events in time order:
    // the lag is kill-to-repair-complete (outage + tree repair).
    let mut recovery_worst = 0u64;
    let mut next_kill = vec![0usize; procs];
    for e in events.borrow().iter() {
        if e.kind == LockOpKind::Recover {
            let q = &kill_q[e.proc_id];
            let i = next_kill[e.proc_id];
            if i < q.len() {
                recovery_worst = recovery_worst.max(e.time.saturating_sub(q[i]));
                next_kill[e.proc_id] = i + 1;
            }
        }
    }
    let violation = check_crash_lock_history(&history).err();
    let passages: u64 = (0..procs).map(|p| m.read_word(tally.plus(p as u64))).sum();
    StormOutcome {
        passages,
        kills: kills_seen,
        violation,
        recovery_worst,
        events: history.len(),
    }
}

fn count_kills(m: &Machine) -> u64 {
    m.fault_log()
        .iter()
        .filter(|f| matches!(f, FaultEvent::Kill { .. }))
        .count() as u64
}
