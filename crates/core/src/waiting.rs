//! Two-phase waiting algorithms (Chapter 4).
//!
//! A two-phase waiting algorithm polls until the cost of polling reaches
//! `Lpoll`, then blocks (cost `B`). With `Lpoll = B` it is 2-competitive
//! against any adversary; with the tuned static choices of §4.5
//! (`Lpoll = 0.54·B` for exponential waits, `0.62·B` for uniform waits)
//! it approaches the on-line optimum of `e/(e-1) ≈ 1.58` against a
//! restricted adversary.
//!
//! [`SwitchSpin`] is the multithreaded-processor variant (§4.1): the
//! polling phase yields to the node's other ready threads between polls.
//! The simulator does not model a hardware-context count, so the β of
//! §4.1's cost analysis (polling costs `t/β`) is a parameter of
//! `waiting_theory::expected` only; here `Lpoll` bounds elapsed cycles.

use alewife_sim::{Addr, Cpu, WaitQueueId};
use sync_protocols::waiting::{block_until, WaitStrategy};

/// Two-phase waiting: poll up to `lpoll` cycles, then block.
#[derive(Clone, Copy, Debug)]
pub struct TwoPhase {
    /// Maximum cycles spent polling before blocking (`Lpoll`).
    pub lpoll: u64,
}

impl TwoPhase {
    /// Two-phase waiting with an explicit polling limit.
    pub fn new(lpoll: u64) -> TwoPhase {
        TwoPhase { lpoll }
    }

    /// `Lpoll = α·B` for a machine whose blocking cost is `block_cost`.
    pub fn with_alpha(alpha: f64, block_cost: u64) -> TwoPhase {
        assert!(alpha >= 0.0);
        TwoPhase {
            lpoll: (alpha * block_cost as f64) as u64,
        }
    }

    /// The §4.5.1 optimum for exponential waits: `Lpoll = ln(e-1)·B`.
    pub fn optimal_exponential(block_cost: u64) -> TwoPhase {
        TwoPhase::with_alpha(0.5413, block_cost)
    }

    /// The §4.5.2 optimum for uniform waits: `Lpoll = 0.62·B`.
    pub fn optimal_uniform(block_cost: u64) -> TwoPhase {
        TwoPhase::with_alpha(0.62, block_cost)
    }
}

impl WaitStrategy for TwoPhase {
    async fn wait(
        &self,
        cpu: &Cpu,
        addr: Addr,
        q: WaitQueueId,
        cond: impl Fn([u64; 2]) -> Option<u64> + Unpin,
    ) -> u64 {
        // Phase 1: poll. (Spinning costs exactly the elapsed cycles.)
        let deadline = cpu.now() + self.lpoll;
        if let Some(v) = cpu.poll_cond(addr, &cond, deadline).await {
            return v;
        }
        // Phase 2: block until signalled, then re-check.
        block_until(cpu, addr, q, cond).await
    }
}

/// Switch-spinning (§4.1): a polling mechanism on a multithreaded node
/// that switches to the node's other ready threads between polls, so
/// waiting overlaps their computation. Falls back to plain spinning when
/// no peer thread is ready.
#[derive(Clone, Copy, Debug, Default)]
pub struct SwitchSpin;

impl WaitStrategy for SwitchSpin {
    async fn wait(
        &self,
        cpu: &Cpu,
        addr: Addr,
        _q: WaitQueueId,
        cond: impl Fn([u64; 2]) -> Option<u64> + Unpin,
    ) -> u64 {
        loop {
            if let Some(v) = cond(cpu.read_raw(addr).await) {
                return v;
            }
            if !cpu.yield_now().await {
                // Nobody to switch to: read-poll until the line changes.
                let deadline = cpu.now() + 200;
                if let Some(v) = cpu.poll_cond(addr, &cond, deadline).await {
                    return v;
                }
            }
        }
    }
}

/// Two-phase switch-spinning: switch-spin for `Lpoll` cycles, then
/// block — the waiting algorithm Alewife's runtime uses on multithreaded
/// nodes (§4.6).
#[derive(Clone, Copy, Debug)]
pub struct TwoPhaseSwitchSpin {
    /// Maximum cycles spent switch-spinning before blocking.
    pub lpoll: u64,
}

impl WaitStrategy for TwoPhaseSwitchSpin {
    async fn wait(
        &self,
        cpu: &Cpu,
        addr: Addr,
        q: WaitQueueId,
        cond: impl Fn([u64; 2]) -> Option<u64> + Unpin,
    ) -> u64 {
        let deadline = cpu.now() + self.lpoll;
        loop {
            if let Some(v) = cond(cpu.read_raw(addr).await) {
                return v;
            }
            if cpu.now() >= deadline {
                break;
            }
            if !cpu.yield_now().await {
                cpu.poll_cond(addr, &cond, deadline).await;
            }
        }
        block_until(cpu, addr, q, cond).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alewife_sim::{Config, CostModel, Machine};
    use sync_protocols::waiting::{AlwaysBlock, AlwaysSpin};

    /// One waiter, one producer who fills after `delay`; returns the
    /// waiter's completion time. (Not the machine drain time: a
    /// two-phase waiter that resolves in its polling phase leaves a
    /// stale deadline timer behind, which would inflate drain time.)
    fn one_wait<W: WaitStrategy>(w: W, delay: u64) -> u64 {
        let m = Machine::new(Config::default().nodes(2));
        let slot = m.alloc_on(0, 1);
        let q = m.new_wait_queue();
        let done = m.alloc_on(1, 1);
        let c0 = m.cpu(0);
        m.spawn(0, async move {
            let v = w.wait_full(&c0, slot, q).await;
            assert_eq!(v, 1);
            c0.write(done, c0.now()).await;
        });
        let c1 = m.cpu(1);
        m.spawn(1, async move {
            c1.work(delay).await;
            c1.write_fill(slot, 1).await;
            c1.signal_all(q).await;
        });
        m.run();
        assert_eq!(m.live_tasks(), 0, "two-phase deadlock");
        let done_at = m.read_word(done);
        assert!(done_at > 0, "waiter never completed");
        done_at
    }

    #[test]
    fn short_wait_resolves_in_polling_phase() {
        let b = CostModel::nwo().block_cost();
        // Wait shorter than Lpoll: should behave like spinning.
        let t_2p = one_wait(TwoPhase::new(b), 100);
        let t_spin = one_wait(AlwaysSpin, 100);
        assert!(
            t_2p <= t_spin + 50,
            "two-phase ({t_2p}) much slower than spin ({t_spin}) on short wait"
        );
    }

    #[test]
    fn long_wait_blocks() {
        let b = CostModel::nwo().block_cost();
        let delay = 20 * b;
        // On long waits two-phase completes like blocking (within the
        // polling phase + reload noise).
        let t_2p = one_wait(TwoPhase::new(b), delay);
        let t_block = one_wait(AlwaysBlock, delay);
        assert!(
            t_2p < t_block + 2 * b,
            "two-phase ({t_2p}) not close to block ({t_block}) on long wait"
        );
    }

    #[test]
    fn zero_lpoll_is_always_block() {
        let t = one_wait(TwoPhase::new(0), 2_000);
        let t_block = one_wait(AlwaysBlock, 2_000);
        assert!(t.abs_diff(t_block) < 100);
    }

    #[test]
    fn optimal_constructors() {
        let b = 465;
        assert_eq!(
            TwoPhase::optimal_exponential(b).lpoll,
            (0.5413 * 465.0) as u64
        );
        assert_eq!(TwoPhase::optimal_uniform(b).lpoll, (0.62 * 465.0) as u64);
    }

    #[test]
    fn two_phase_frees_processor_for_peer_thread() {
        // Node 0 runs the waiter AND a compute thread. With two-phase
        // waiting the waiter blocks after Lpoll and the compute thread
        // runs; with always-spin the compute thread starves until the
        // producer fills the slot.
        fn run<W: WaitStrategy>(w: W) -> u64 {
            let m = Machine::new(Config::default().nodes(2));
            let slot = m.alloc_on(1, 1);
            let q = m.new_wait_queue();
            let compute_done = m.alloc_on(0, 1);
            let c0a = m.cpu(0);
            m.spawn(0, async move {
                w.wait_full(&c0a, slot, q).await;
            });
            let c0b = m.cpu(0);
            m.spawn(0, async move {
                c0b.work(1_000).await;
                c0b.write(compute_done, c0b.now()).await;
            });
            let c1 = m.cpu(1);
            m.spawn(1, async move {
                c1.work(50_000).await;
                c1.write_fill(slot, 1).await;
                c1.signal_all(q).await;
            });
            m.run();
            assert_eq!(m.live_tasks(), 0);
            m.read_word(compute_done)
        }
        let done_2p = run(TwoPhase::new(465));
        let done_spin = run(AlwaysSpin);
        assert!(
            done_2p < 10_000,
            "compute thread should run once the waiter blocks ({done_2p})"
        );
        assert!(
            done_spin > 40_000,
            "spin-waiting should starve the compute thread ({done_spin})"
        );
    }

    #[test]
    fn switch_spin_overlaps_waiting_with_computation() {
        // Like above, but switch-spinning interleaves rather than blocks.
        let m = Machine::new(Config::default().nodes(2));
        let slot = m.alloc_on(1, 1);
        let q = m.new_wait_queue();
        let compute_done = m.alloc_on(0, 1);
        let c0a = m.cpu(0);
        m.spawn(0, async move {
            SwitchSpin.wait_full(&c0a, slot, q).await;
        });
        let c0b = m.cpu(0);
        m.spawn(0, async move {
            for _ in 0..100 {
                c0b.work(100).await;
                c0b.yield_now().await;
            }
            c0b.write(compute_done, c0b.now()).await;
        });
        let c1 = m.cpu(1);
        m.spawn(1, async move {
            c1.work(60_000).await;
            c1.write_fill(slot, 1).await;
            c1.signal_all(q).await;
        });
        m.run();
        assert_eq!(m.live_tasks(), 0);
        let done = m.read_word(compute_done);
        assert!(
            done > 0 && done < 60_000,
            "switch-spinning should let the compute thread finish early ({done})"
        );
    }

    #[test]
    fn two_phase_switch_spin_eventually_blocks() {
        let m = Machine::new(Config::default().nodes(2));
        let slot = m.alloc_on(1, 1);
        let q = m.new_wait_queue();
        // [waiter resumed, slot filled]
        let times = m.alloc_on(0, 2);
        let c0 = m.cpu(0);
        m.spawn(0, async move {
            let v = TwoPhaseSwitchSpin { lpoll: 465 }
                .wait_full(&c0, slot, q)
                .await;
            assert_eq!(v, 9);
            c0.write(times, c0.now()).await;
        });
        let c1 = m.cpu(1);
        m.spawn(1, async move {
            c1.work(30_000).await;
            c1.write_fill(slot, 9).await;
            let filled = c1.now();
            c1.signal_all(q).await;
            c1.write(times.plus(1), filled).await;
        });
        m.run();
        assert_eq!(m.live_tasks(), 0);
        // A poller sees the fill one miss later; a blocked waiter is
        // woken only by the signal after the fill and must then reload
        // (the signaller pays the reenable cost after waking it).
        let (resumed, filled) = (m.read_word(times), m.read_word(times.plus(1)));
        let reload = CostModel::nwo().reload;
        assert!(
            resumed >= filled + reload,
            "waiter resumed at {resumed}, fill at {filled}: it never blocked"
        );
    }
}
