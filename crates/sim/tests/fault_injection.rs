//! Fault-injection layer tests: kills destroy volatile state but not
//! NVM, recoveries respawn, aborts reach waiting futures, and the whole
//! schedule is deterministic and replayable.

use alewife_sim::{Config, CostModel, FaultEvent, FaultPlan, Machine};

#[test]
fn kill_destroys_threads_but_not_nvm() {
    let m = Machine::new(
        Config::default()
            .nodes(2)
            .faults(FaultPlan::new().kill_at(5_000, 1)),
    );
    let word = m.alloc_on(1, 1);
    let cpu = m.cpu(1);
    m.spawn(1, async move {
        cpu.write(word, 42).await;
        // Spin forever; only the kill ends this thread.
        cpu.poll_until(word, |v| v == 999).await;
    });
    m.run();
    assert_eq!(m.live_tasks(), 0, "killed thread still counted live");
    assert_eq!(m.read_word(word), 42, "NVM must survive the kill");
    assert!(!m.alive(1));
    assert_eq!(
        m.fault_log(),
        vec![FaultEvent::Kill {
            at: 5_000,
            node: 1,
            tasks_killed: 1
        }]
    );
}

#[test]
fn kill_only_hits_the_named_node() {
    let m = Machine::new(
        Config::default()
            .nodes(4)
            .faults(FaultPlan::new().kill_at(100, 2)),
    );
    let a = m.alloc_on(0, 1);
    for p in 0..4 {
        let cpu = m.cpu(p);
        m.spawn(p, async move {
            cpu.work(10_000).await;
            cpu.fetch_and_add(a, 1).await;
        });
    }
    m.run();
    assert_eq!(m.read_word(a), 3, "survivors must finish normally");
    assert!(m.alive(0) && m.alive(1) && m.alive(3) && !m.alive(2));
}

#[test]
fn recovery_thread_runs_and_sees_nvm() {
    let m = Machine::new(
        Config::default()
            .nodes(2)
            .faults(FaultPlan::new().kill_for(2_000, 1, 3_000)),
    );
    let progress = m.alloc_on(1, 2);
    let cpu = m.cpu(1);
    m.spawn(1, async move {
        cpu.write(progress, 7).await;
        cpu.poll_until(progress, |v| v == 999).await; // dies here
    });
    let rcpu = m.cpu(1);
    m.on_recovery(1, move || {
        let cpu = rcpu.clone();
        Box::pin(async move {
            // NVM records how far the dead thread got.
            let seen = cpu.read(progress).await;
            cpu.write(progress.plus(1), seen + 1).await;
        })
    });
    m.run();
    assert_eq!(m.read_word(progress.plus(1)), 8);
    assert!(m.alive(1));
    let log = m.fault_log();
    assert_eq!(log.len(), 2);
    assert!(matches!(log[1], FaultEvent::Recover { at: 5_000, node: 1 }));
}

#[test]
fn abort_signal_reaches_a_waiting_future() {
    let m = Machine::new(
        Config::default()
            .nodes(2)
            .faults(FaultPlan::new().abort_at(4_000, 1)),
    );
    let flag = m.alloc_on(0, 1);
    let out = m.alloc_on(1, 1);
    let cpu = m.cpu(1);
    m.spawn(1, async move {
        // No deadline: only the abort signal can end this wait.
        let r = cpu.poll_until_abortable(flag, |v| v != 0, u64::MAX).await;
        assert!(r.is_none(), "wait should end by abort, not success");
        cpu.write(out, 1).await;
    });
    let t = m.run();
    assert_eq!(m.read_word(out), 1);
    assert!(
        (4_000..8_000).contains(&t),
        "abort should land promptly, got {t}"
    );
    assert_eq!(m.live_tasks(), 0);
}

#[test]
fn abortable_wait_still_times_out_and_succeeds() {
    // Timeout path.
    let m = Machine::new(Config::default().nodes(2));
    let flag = m.alloc_on(0, 1);
    let out = m.alloc_on(1, 1);
    let cpu = m.cpu(1);
    m.spawn(1, async move {
        let r = cpu.poll_until_abortable(flag, |v| v != 0, 3_000).await;
        cpu.write(out, if r.is_none() { 1 } else { 2 }).await;
    });
    m.run();
    assert_eq!(m.read_word(out), 1);

    // Success path.
    let m = Machine::new(Config::default().nodes(2));
    let flag = m.alloc_on(0, 1);
    let out = m.alloc_on(1, 1);
    let c0 = m.cpu(0);
    let c1 = m.cpu(1);
    m.spawn(0, async move {
        c0.work(1_000).await;
        c0.write(flag, 5).await;
    });
    m.spawn(1, async move {
        let r = c1.poll_until_abortable(flag, |v| v != 0, u64::MAX).await;
        c1.write(out, r.unwrap()).await;
    });
    m.run();
    assert_eq!(m.read_word(out), 5);
}

#[test]
fn crash_storm_is_deterministic_and_replayable() {
    let run = || {
        let plan = FaultPlan::crash_storm(0xDEAD, 8, 6, 50_000, 2_000);
        let m = Machine::new(Config::default().nodes(8).seed(7).faults(plan));
        let a = m.alloc_on(0, 1);
        for p in 0..8 {
            let cpu = m.cpu(p);
            m.spawn(p, async move {
                for _ in 0..40 {
                    cpu.fetch_and_add(a, 1).await;
                    cpu.work(cpu.rand_below(200)).await;
                }
            });
        }
        let t = m.run();
        (t, m.read_word(a), m.fault_log(), m.stats().net_msgs)
    };
    let (t1, v1, log1, n1) = run();
    let (t2, v2, log2, n2) = run();
    assert_eq!(t1, t2);
    assert_eq!(v1, v2);
    assert_eq!(log1, log2);
    assert_eq!(n1, n2);
    assert!(!log1.is_empty(), "storm should actually kill something");
}

#[test]
fn empty_plan_is_bit_identical_to_no_plan() {
    let run = |with_plan: bool| {
        let mut cfg = Config::default().nodes(8).seed(3);
        if with_plan {
            cfg = cfg.faults(FaultPlan::new());
        }
        let m = Machine::new(cfg);
        let a = m.alloc_on(0, 1);
        for p in 0..8 {
            let cpu = m.cpu(p);
            m.spawn(p, async move {
                for _ in 0..30 {
                    cpu.fetch_and_add(a, 1).await;
                    cpu.work(cpu.rand_below(64)).await;
                }
            });
        }
        let t = m.run();
        let s = m.stats();
        (t, s.net_msgs, s.sim_events, s.remote_misses)
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn rmr_counters_follow_the_cost_models() {
    let m = Machine::new(Config::default().nodes(2));
    let remote = m.alloc_on(0, 1); // homed on 0, accessed by 1
    let local = m.alloc_on(1, 1); // homed on 1, accessed by 1
    let cpu = m.cpu(1);
    m.spawn(1, async move {
        cpu.read(remote).await; // CC: miss (1); DSM: remote (1)
        cpu.read(remote).await; // CC: hit (0); DSM: remote (1)
        cpu.read(local).await; // CC: miss (1); DSM: local (0)
        cpu.read(local).await; // CC: hit (0); DSM: local (0)
    });
    m.run();
    let s = m.stats();
    assert_eq!(s.rmr_cc[1], 2, "CC counts coherence misses");
    assert_eq!(s.rmr_dsm[1], 2, "DSM counts remotely-homed accesses");
    assert_eq!(s.rmr_cc[0], 0);
    assert_eq!(s.rmr_dsm[0], 0);
    assert_eq!(s.rmr_cc_total(), 2);
}

#[test]
fn kill_drops_a_spilled_sharer_and_keeps_the_other_watchers_in_order() {
    // Seven pollers share (and watch) one line, past the five hardware
    // pointers; node 3 dies among them before node 8 writes. A flat
    // mesh puts every poller as far from the home as every other, so
    // their re-reads after the write reach the directory in wake order
    // and each one's finish time ranks its wake.
    let cost = CostModel {
        net_per_hop: 0,
        ..CostModel::nwo()
    };
    let m = Machine::new(
        Config::default()
            .nodes(9)
            .cost(cost)
            .faults(FaultPlan::new().kill_at(2_000, 3)),
    );
    let a = m.alloc_on(0, 1);
    let done: Vec<_> = (0..9).map(|n| m.alloc_on(n, 1)).collect();
    for (p, &out) in done.iter().enumerate().take(8).skip(1) {
        let cpu = m.cpu(p);
        m.spawn(p, async move {
            cpu.poll_until(a, |v| v == 1).await;
            cpu.write(out, cpu.now()).await;
        });
    }
    let cpu = m.cpu(8);
    m.spawn(8, async move {
        cpu.work(3_000).await;
        cpu.write(a, 1).await;
    });
    m.run();
    let s = m.stats();
    assert!(s.limitless_traps > 0, "the line never outgrew its pointers");
    assert_eq!(
        s.invalidations, 6,
        "the write invalidates the six live sharers"
    );
    assert_eq!(m.read_word(done[3]), 0, "the dead poller never finished");
    let mut woke: Vec<_> = [1, 2, 4, 5, 6, 7]
        .into_iter()
        .map(|p| (m.read_word(done[p]), p))
        .collect();
    assert!(woke.iter().all(|&(t, _)| t > 3_000), "{woke:?}");
    woke.sort();
    let order: Vec<_> = woke.iter().map(|&(_, p)| p).collect();
    assert_eq!(order, [1, 2, 4, 5, 6, 7], "{woke:?}");
}
