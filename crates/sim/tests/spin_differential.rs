//! Differential test of the one read-polling future: the three ways a
//! `Cpu` spin can be bounded are the same wait with exits switched off,
//! and these equivalences are why one future serves all of them.
//!
//! * `poll_until_abortable(.., u64::MAX)` with no abort delivered is
//!   `poll_until`;
//! * `poll_until_abortable(.., d)` with no abort delivered is
//!   `poll_until_deadline(.., d)`;
//! * with an abort delivered mid-wait, the abortable wait is the
//!   undisturbed one up to the signal and ends at it — `None` at the
//!   wake itself, or whatever the one read then in flight decides.
//!
//! "Is" means the same result at the same virtual time with the same
//! `sim_events` and `net_msgs`, over random machine shapes, write
//! schedules, targets, deadlines and abort times.

use std::cell::Cell;
use std::rc::Rc;

use alewife_sim::{Config, FaultPlan, Machine};
use proptest::prelude::*;

/// How the waiter's spin is bounded.
#[derive(Clone, Copy, Debug)]
enum Wait {
    Plain,
    Deadline(u64),
    Abortable(u64),
}

/// One waiter polling for `word >= target` while a writer on the word's
/// home counts it up through `gaps.len()`, one write per gap, and a
/// bystander keeps a second cached copy of the line alive.
#[derive(Clone, Debug)]
struct Scenario {
    nodes: usize,
    seed: u64,
    waiter: usize,
    gaps: Vec<u64>,
    target: u64,
    /// Abort signal for the waiter's node, if any.
    abort_at: Option<u64>,
}

/// What the waiter saw, and what the machine counted by the end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Outcome {
    result: Option<u64>,
    started: u64,
    done: u64,
    sim_events: u64,
    net_msgs: u64,
}

fn run(sc: &Scenario, wait: Wait) -> Outcome {
    let mut cfg = Config::default().nodes(sc.nodes).seed(sc.seed);
    if let Some(at) = sc.abort_at {
        cfg = cfg.faults(FaultPlan::new().abort_at(at, sc.waiter));
    }
    let m = Machine::new(cfg);
    let word = m.alloc_on(0, 1);
    let last = sc.gaps.len() as u64;

    let (c0, gaps) = (m.cpu(0), sc.gaps.clone());
    m.spawn(0, async move {
        for (i, gap) in gaps.into_iter().enumerate() {
            c0.work(gap).await;
            c0.write(word, i as u64 + 1).await;
        }
    });
    let bystander = m.cpu(sc.nodes - 1);
    m.spawn(sc.nodes - 1, async move {
        bystander.poll_until(word, move |v| v >= last).await;
    });

    let seen = Rc::new(Cell::new((None, 0, 0)));
    let (cpu, out, target) = (m.cpu(sc.waiter), seen.clone(), sc.target);
    m.spawn(sc.waiter, async move {
        cpu.work(50).await;
        let started = cpu.now();
        let pred = move |v| v >= target;
        let result = match wait {
            Wait::Plain => Some(cpu.poll_until(word, pred).await),
            Wait::Deadline(d) => cpu.poll_until_deadline(word, pred, d).await,
            Wait::Abortable(d) => cpu.poll_until_abortable(word, pred, d).await,
        };
        out.set((result, started, cpu.now()));
    });
    m.run();
    assert_eq!(m.live_tasks(), 0, "{sc:?} / {wait:?} left a task waiting");
    let (result, started, done) = seen.get();
    let st = m.stats();
    Outcome {
        result,
        started,
        done,
        sim_events: st.sim_events,
        net_msgs: st.net_msgs,
    }
}

/// An upper bound on one read's round trip in these machines (≤ 8
/// nodes, one writer): request, directory queueing behind a write that
/// invalidates both sharers, owner fetch, reply.
const READ_SLACK: u64 = 200;

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// No deadline and no abort: the abortable spin is the plain one.
    #[test]
    fn abortable_without_deadline_or_abort_is_poll_until(
        nodes in 3usize..9,
        seed in 1u64..u64::MAX,
        waiter_raw in 0usize..8,
        gaps in prop::collection::vec(1u64..900, 1..12),
        target_raw in 0u64..12,
    ) {
        let target = 1 + target_raw % gaps.len() as u64; // always reached
        let sc = Scenario { nodes, seed, waiter: 1 + waiter_raw % (nodes - 2), gaps, target, abort_at: None };
        let plain = run(&sc, Wait::Plain);
        prop_assert!(plain.result.is_some_and(|v| v >= target));
        prop_assert_eq!(plain, run(&sc, Wait::Abortable(u64::MAX)));
    }

    /// No abort: the abortable spin is the deadline-bounded one, whether
    /// the deadline falls before the wait starts, mid-wait, or after the
    /// last write, and whether or not the target is ever written.
    #[test]
    fn abortable_without_abort_is_poll_until_deadline(
        nodes in 3usize..9,
        seed in 1u64..u64::MAX,
        waiter_raw in 0usize..8,
        gaps in prop::collection::vec(1u64..900, 1..12),
        target_raw in 0u64..14,
        deadline_permille in 0u64..1300,
    ) {
        let target = 1 + target_raw % (gaps.len() as u64 + 2); // may never come
        let deadline = gaps.iter().sum::<u64>() * deadline_permille / 1000;
        let sc = Scenario { nodes, seed, waiter: 1 + waiter_raw % (nodes - 2), gaps, target, abort_at: None };
        prop_assert_eq!(run(&sc, Wait::Deadline(deadline)), run(&sc, Wait::Abortable(deadline)));
    }

    /// An abort signal ends the wait it interrupts: nothing differs
    /// before it, and the wait returns at the wake (`None`) or as soon as
    /// the read then in flight completes.
    #[test]
    fn abort_ends_an_abortable_wait_at_the_wake(
        nodes in 3usize..9,
        seed in 1u64..u64::MAX,
        waiter_raw in 0usize..8,
        gaps in prop::collection::vec(1u64..900, 1..12),
        target_raw in 0u64..14,
        deadline_permille in 0u64..2600,
        abort_permille in 0u64..1300,
    ) {
        let total = gaps.iter().sum::<u64>();
        let target = 1 + target_raw % (gaps.len() as u64 + 2);
        // Half the cases have no deadline at all.
        let deadline = if deadline_permille >= 1300 { u64::MAX } else { total * deadline_permille / 1000 };
        let abort_at = 300 + total * abort_permille / 1000;
        let quiet = Scenario { nodes, seed, waiter: 1 + waiter_raw % (nodes - 2), gaps, target, abort_at: None };
        let stormy = Scenario { abort_at: Some(abort_at), ..quiet.clone() };
        let stormy_out = run(&stormy, Wait::Abortable(deadline));
        prop_assert!(stormy_out.started < abort_at, "the wait must begin before the signal");
        if target > quiet.gaps.len() as u64 && deadline == u64::MAX {
            // Only the abort can end this wait.
            prop_assert_eq!(stormy_out.result, None);
            prop_assert!((abort_at..=abort_at + READ_SLACK).contains(&stormy_out.done));
            return;
        }
        let quiet_out = run(&quiet, Wait::Abortable(deadline));
        let undisturbed = (stormy_out.result, stormy_out.done) == (quiet_out.result, quiet_out.done);
        if quiet_out.done < abort_at {
            // Over before the signal: the signal changes nothing it saw.
            prop_assert!(undisturbed, "{stormy_out:?} vs {quiet_out:?}");
        } else if !(quiet_out.done == abort_at && undisturbed) {
            // (A wait that ends at the very instant of the signal may
            // still finish first.)
            prop_assert!(
                (abort_at..=abort_at + READ_SLACK).contains(&stormy_out.done),
                "interrupted at {abort_at}, returned {stormy_out:?} (undisturbed: {quiet_out:?})"
            );
            // `Some` can only be the verdict of a read already in flight.
            prop_assert!(stormy_out.result.is_none() || stormy_out.done > abort_at);
        }
    }
}
