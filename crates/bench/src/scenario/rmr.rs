//! Beyond the paper — crash/abort robustness and RMR
//! (remote-memory-reference) accounting.
//!
//! Three workloads, all deterministic (fixed seeds, fixed fault plans):
//!
//! * `rmr_recoverable` — the crash-recoverable mutex under a periodic
//!   kill schedule; RMRs per passage in the CC model (O(log n) for the
//!   Peterson tree — the DSM cost of a Peterson tree is unbounded and
//!   deliberately not claimed).
//! * `rmr_abortable` — the abortable MCS lock under deadline pressure
//!   plus an abort storm; RMRs per *operation* (passages + aborts) in
//!   **both** cost models (the O(1)-amortized claim).
//! * `storm_robustness` — the recoverable mutex under
//!   [`FaultPlan::crash_storm`], with the full lock-event history fed to
//!   the crash-aware §3.2 oracle: waiter conservation, abort safety, no
//!   double grant, plus a measured worst recovery lag.
//!
//! Event recording happens at the workload level (the protocols don't
//! know they are being watched), so the oracle checks the *observable*
//! history — the same trust boundary the conformance suite uses.

use std::cell::RefCell;
use std::rc::Rc;

use alewife_sim::{Addr, Config, Cpu, FaultEvent, FaultPlan, Machine};
use reactive_api::oracle::{check_crash_lock_history, lock_event, LockEvent, LockOpKind};
use sync_protocols::abortable::{AbortableMcsLock, Acquired};
use sync_protocols::recover::RecoverableMutex;

use super::{worst, Outcome, Scale, Scenario};
use crate::claim::Claim;

pub(super) const RMR_RECOVERABLE: Scenario = Scenario {
    name: "rmr_recoverable",
    figure: "— (beyond the paper; Golab–Ramaraju RME bound)",
    paper_says: "the crash-recoverable mutex costs O(log n) CC-model RMRs per passage \
                 even across crash/recovery schedules, and no passage is lost",
    claims: &[
        // RMRs per passage grow no faster than c * log2(n) (c calibrated
        // with headroom over the deterministic measurement).
        Claim::BoundedRatio {
            num: "rmr/cc_per_passage_per_log",
            den: None,
            min: 0.0,
            max: 12.0,
        },
        // Conservation: every scheduled passage completed despite the
        // kills (the NVM tally reaches iters on every node).
        Claim::BoundedRatio {
            num: "rmr/passages_conserved",
            den: None,
            min: 1.0,
            max: 1.0,
        },
        // The schedule actually crashed nodes.
        Claim::BoundedRatio {
            num: "kills_total",
            den: None,
            min: 1.0,
            max: f64::INFINITY,
        },
    ],
    run: rmr_recoverable,
};

fn rmr_recoverable(scale: Scale) -> Outcome {
    let procs: &[usize] = scale.pick(&[2, 4, 8, 16], &[2, 8]);
    let iters = scale.pick(40, 16);
    let kills = scale.pick(3, 2);
    let mut per_passage = Vec::new();
    let mut per_log = Vec::new();
    let mut conserved = Vec::new();
    let mut kills_total = 0.0;
    for &p in procs {
        let (passages, rmr_cc, killed) = recoverable_run(p, iters, kills, 6_000, 1_500);
        let x = p as f64;
        let per = rmr_cc as f64 / passages as f64;
        per_passage.push((x, per));
        // log2(n), floored at 1 so the n = 2 point divides by the tree's
        // single level.
        per_log.push((x, per / (p as f64).log2().max(1.0)));
        conserved.push((x, passages as f64 / (iters * p as u64) as f64));
        kills_total += killed as f64;
    }
    let worst = worst(&per_log);
    let mut o = Outcome {
        sweep: "RMR \\ procs",
        headline: format!(
            "recoverable mutex: <= {worst:.1} CC RMR per passage per log2(n) across \
             crash schedules ({kills_total:.0} kills injected); every passage conserved"
        ),
        ..Outcome::default()
    };
    o.push("rmr/cc_per_passage", per_passage);
    o.push("rmr/cc_per_passage_per_log", per_log);
    o.push("rmr/passages_conserved", conserved);
    o.scalar("kills_total", kills_total);
    o
}

/// Run the recoverable mutex on `procs` single-task nodes for `iters`
/// passages each, killing node `procs - 1` every `period` cycles for
/// `outage` cycles (`kills` times). The victim's recovery routine
/// repairs the tree and finishes the victim's remaining passages.
/// Returns `(passages, CC-model RMRs, kills delivered)`.
fn recoverable_run(
    procs: usize,
    iters: u64,
    kills: u32,
    period: u64,
    outage: u64,
) -> (u64, u64, u64) {
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
    let killed = m
        .fault_log()
        .iter()
        .filter(|f| matches!(f, FaultEvent::Kill { .. }))
        .count() as u64;
    (passages, m.stats().rmr_cc_total(), killed)
}

pub(super) const RMR_ABORTABLE: Scenario = Scenario {
    name: "rmr_abortable",
    figure: "— (beyond the paper; O(1)-amortized abortable lock)",
    paper_says: "the abortable MCS lock costs O(1) amortized RMRs per operation \
                 (passage or abort) in both the CC and DSM cost models",
    claims: &[
        // O(1) amortized, CC model: a constant independent of P.
        Claim::BoundedRatio {
            num: "rmr/cc_per_op",
            den: None,
            min: 0.0,
            max: 16.0,
        },
        // ...and DSM model (qnodes are homed locally, so the walk stays
        // constant-cost there too).
        Claim::BoundedRatio {
            num: "rmr/dsm_per_op",
            den: None,
            min: 0.0,
            max: 16.0,
        },
        // The deadline/storm schedule actually exercised aborts.
        Claim::BoundedRatio {
            num: "aborts_happened",
            den: None,
            min: 0.01,
            max: f64::INFINITY,
        },
        // Flat: per-op cost does not grow with P (the amortized
        // constant, restated as a scaling shape).
        Claim::FlatScaling {
            series: "rmr/cc_per_op",
            from_x: 2.0,
            factor: 4.0,
        },
    ],
    run: rmr_abortable,
};

fn rmr_abortable(scale: Scale) -> Outcome {
    let procs: &[usize] = scale.pick(&[2, 4, 8, 16], &[2, 8]);
    let iters = scale.pick(60, 24);
    let mut cc_per_op = Vec::new();
    let mut dsm_per_op = Vec::new();
    let mut abort_share = Vec::new();
    for &p in procs {
        let [cc, dsm, aborted] = abortable_run(p, iters, 400, 10);
        let x = p as f64;
        cc_per_op.push((x, cc));
        dsm_per_op.push((x, dsm));
        abort_share.push((x, aborted));
    }
    let cc_worst = worst(&cc_per_op);
    let dsm_worst = worst(&dsm_per_op);
    let aborted: f64 = abort_share.iter().map(|&(_, v)| v).sum::<f64>();
    let mut o = Outcome {
        sweep: "RMR \\ procs",
        headline: format!(
            "abortable MCS: amortized RMR per operation stays flat — \
             <= {cc_worst:.1} (CC) and <= {dsm_worst:.1} (DSM) per passage-or-abort \
             from P = {} to {}, aborts included",
            procs[0],
            procs[procs.len() - 1],
        ),
        ..Outcome::default()
    };
    o.push("rmr/cc_per_op", cc_per_op);
    o.push("rmr/dsm_per_op", dsm_per_op);
    o.push("rmr/abort_share", abort_share);
    o.scalar("aborts_happened", aborted);
    o
}

/// Run the abortable MCS lock on `procs` nodes for `iters` attempts
/// each under deadline pressure (every attempt carries a deadline of
/// `now + deadline_gap`) plus a seeded abort storm. Every attempt
/// resolves to exactly one passage or one abort (asserted). Returns the
/// per-operation (passage or abort) `[CC RMRs, DSM RMRs, abort share]`.
fn abortable_run(procs: usize, iters: u64, deadline_gap: u64, storm_aborts: usize) -> [f64; 3] {
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
    let ops = (passages + aborts) as f64;
    [
        st.rmr_cc_total() as f64 / ops,
        st.rmr_dsm_total() as f64 / ops,
        aborts as f64 / ops,
    ]
}

pub(super) const STORM_ROBUSTNESS: Scenario = Scenario {
    name: "storm_robustness",
    figure: "— (beyond the paper; crash-storm robustness)",
    paper_says: "under a randomized crash storm the recoverable mutex loses no waiter, \
                 never double-grants, and every node is repaired within a bounded lag \
                 of its outage",
    claims: &[
        // The crash-aware §3.2 oracle (waiter conservation, abort
        // safety, no double grant) over the full observable history.
        Claim::BoundedRatio {
            num: "storm/oracle_violations",
            den: None,
            min: 0.0,
            max: 0.0,
        },
        // No lost passages: every node's NVM tally reaches its quota.
        Claim::BoundedRatio {
            num: "storm/passages_conserved",
            den: None,
            min: 1.0,
            max: 1.0,
        },
        // The storm actually delivered kills.
        Claim::BoundedRatio {
            num: "storm/kills",
            den: None,
            min: 1.0,
            max: f64::INFINITY,
        },
        // Bounded recovery: kill-to-repaired lag is the outage plus a
        // bounded repair tail (tree unwind + re-entry), not an unbounded
        // stall.
        Claim::BoundedRatio {
            num: "storm/recovery_worst",
            den: Some("storm/outage"),
            min: 0.0,
            max: 3.0,
        },
    ],
    run: storm_robustness,
};

type EventLog = Rc<RefCell<Vec<LockEvent>>>;

fn log(ev: &EventLog, t: u64, p: usize, k: LockOpKind) {
    ev.borrow_mut().push(lock_event(t, p, k));
}

/// One node's share of the storm workload: passages until its NVM
/// tally reaches `iters`, each logged to `ev`.
async fn share(
    cpu: &Cpu,
    lock: &RecoverableMutex,
    ev: &EventLog,
    tally: Addr,
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
        // order that Grant inside our hold and trip the double-grant
        // checker on a correct execution.
        log(ev, cpu.now(), p, LockOpKind::Release);
        lock.release(cpu, p).await;
        cpu.work(cpu.rand_below(80)).await;
    }
}

/// The recoverable mutex through a [`FaultPlan::crash_storm`], its
/// observable history fed to the crash-aware oracle. Every node gets a
/// recovery routine that repairs the tree and resumes its share of the
/// workload, so the storm tests repair-under-contention, not just
/// survival.
fn storm_robustness(scale: Scale) -> Outcome {
    let procs = scale.pick(12, 6);
    let iters = scale.pick(30, 12);
    let kills = scale.pick(10, 4);
    let outage = 1_200u64;
    let m = Machine::new(
        Config::default()
            .nodes(procs)
            .faults(FaultPlan::crash_storm(7, procs, kills, 40_000, outage)),
    );
    let lock = RecoverableMutex::new(&m, procs);
    let tally = m.alloc_on(0, procs as u64);
    let events: EventLog = Rc::new(RefCell::new(Vec::new()));
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
    // Pair each node's kills with its Recover events in time order: the
    // lag is kill-to-repair-complete (outage + tree repair).
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
    let mut o = Outcome {
        sweep: "",
        headline: format!(
            "crash storm ({kills_seen} kills over {procs} nodes): {passages} passages all \
             conserved, oracle clean over {} events, worst kill-to-repaired lag \
             {recovery_worst} cycles (outage {outage}){}",
            history.len(),
            match &violation {
                Some(v) => format!("; VIOLATION: {v}"),
                None => String::new(),
            },
        ),
        ..Outcome::default()
    };
    o.scalar(
        "storm/oracle_violations",
        if violation.is_some() { 1.0 } else { 0.0 },
    );
    o.scalar(
        "storm/passages_conserved",
        passages as f64 / (iters * procs as u64) as f64,
    );
    o.scalar("storm/kills", kills_seen as f64);
    o.scalar("storm/recovery_worst", recovery_worst as f64);
    o.scalar("storm/outage", outage as f64);
    o
}
