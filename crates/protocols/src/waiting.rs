//! Waiting strategies: how a thread waits for a synchronization
//! condition (Chapter 4).
//!
//! The [`WaitStrategy`] trait abstracts the *waiting mechanism* choice so
//! the synchronization constructs in this crate ([`crate::barrier`],
//! [`crate::pc`]) can be run under always-spin, always-block, or the
//! two-phase algorithm from `reactive-core`. A strategy states its
//! algorithm once, in [`WaitStrategy::wait`], over a condition on the raw
//! `[value, full_bit]` pair; waiting on a word predicate or on the
//! full/empty bit are the two conditions callers pass it. Only the
//! baselines live here; two-phase waiting is the paper's contribution.

use std::future::Future;

use alewife_sim::{Addr, Cpu, WaitQueueId};

/// How a thread waits for a condition on one memory word.
///
/// Implementations decide the mix of polling and signaling. The
/// synchronization object supplies a [`WaitQueueId`] that its *setters*
/// signal after updating the word, so blocking implementations are safe.
pub trait WaitStrategy: Clone + 'static {
    /// Wait until `cond([value, full_bit])` yields a value; returns it.
    fn wait(
        &self,
        cpu: &Cpu,
        addr: Addr,
        q: WaitQueueId,
        cond: impl Fn([u64; 2]) -> Option<u64> + Unpin,
    ) -> impl Future<Output = u64>;

    /// Wait until `pred(word)` holds; returns the satisfying value.
    fn wait_word(
        &self,
        cpu: &Cpu,
        addr: Addr,
        q: WaitQueueId,
        pred: impl Fn(u64) -> bool + Clone + Unpin + 'static,
    ) -> impl Future<Output = u64> {
        self.wait(cpu, addr, q, move |[v, _full]| pred(v).then_some(v))
    }

    /// Wait until the word's full/empty bit is set; returns the value.
    fn wait_full(&self, cpu: &Cpu, addr: Addr, q: WaitQueueId) -> impl Future<Output = u64> {
        self.wait(cpu, addr, q, |[v, full]| (full != 0).then_some(v))
    }
}

/// The signaling mechanism: re-check `cond`, block on `q`, repeat — all
/// of [`AlwaysBlock`] and the second phase of every two-phase algorithm.
pub async fn block_until(
    cpu: &Cpu,
    addr: Addr,
    q: WaitQueueId,
    cond: impl Fn([u64; 2]) -> Option<u64>,
) -> u64 {
    loop {
        // The check and the enqueue happen at the same virtual
        // instant (no await between them), so no wakeup can be lost.
        if let Some(v) = cond(cpu.read_raw(addr).await) {
            return v;
        }
        cpu.block_on(q).await;
    }
}

/// Always poll (spin). Zero fixed cost; waiting cost grows with the
/// waiting time, and on a multithreaded node it starves ready peers
/// (non-preemptive scheduling).
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysSpin;

impl WaitStrategy for AlwaysSpin {
    async fn wait(
        &self,
        cpu: &Cpu,
        addr: Addr,
        _q: WaitQueueId,
        cond: impl Fn([u64; 2]) -> Option<u64> + Unpin,
    ) -> u64 {
        cpu.poll_cond(addr, cond, u64::MAX)
            .await
            .expect("a spin with no deadline ends only on its condition")
    }
}

/// Always block (signal). Fixed cost `B` ≈ 465 cycles regardless of the
/// waiting time; frees the processor for other threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysBlock;

impl WaitStrategy for AlwaysBlock {
    fn wait(
        &self,
        cpu: &Cpu,
        addr: Addr,
        q: WaitQueueId,
        cond: impl Fn([u64; 2]) -> Option<u64> + Unpin,
    ) -> impl Future<Output = u64> {
        block_until(cpu, addr, q, cond)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alewife_sim::{Config, Machine};

    fn producer_consumer<W: WaitStrategy>(w: W, produce_delay: u64) -> (u64, u64) {
        let m = Machine::new(Config::default().nodes(2));
        let slot = m.alloc_on(0, 1);
        let q = m.new_wait_queue();
        let out = m.alloc_on(1, 1);
        let c0 = m.cpu(0);
        let c1 = m.cpu(1);
        m.spawn(0, async move {
            let v = w.wait_full(&c0, slot, q).await;
            c0.write(out, v).await;
        });
        m.spawn(1, async move {
            c1.work(produce_delay).await;
            c1.write_fill(slot, 7).await;
            c1.signal_all(q).await;
        });
        let t = m.run();
        assert_eq!(m.live_tasks(), 0);
        (m.read_word(out), t)
    }

    #[test]
    fn spin_sees_value() {
        assert_eq!(producer_consumer(AlwaysSpin, 1_000).0, 7);
    }

    #[test]
    fn block_sees_value() {
        assert_eq!(producer_consumer(AlwaysBlock, 1_000).0, 7);
    }

    #[test]
    fn spin_faster_for_short_waits_block_frees_processor() {
        // For a short wait, spinning resumes sooner than blocking.
        let (_, t_spin) = producer_consumer(AlwaysSpin, 100);
        let (_, t_block) = producer_consumer(AlwaysBlock, 100);
        assert!(t_spin < t_block, "spin {t_spin} vs block {t_block}");
    }

    #[test]
    fn block_immediate_value_no_block() {
        // If the value is already there, AlwaysBlock never blocks.
        let m = Machine::new(Config::default().nodes(1));
        let slot = m.alloc_on(0, 1);
        m.write_word(slot, 9);
        m.set_full(slot, true);
        let q = m.new_wait_queue();
        let out = m.alloc_on(0, 1);
        let c = m.cpu(0);
        m.spawn(0, async move {
            let v = AlwaysBlock.wait_full(&c, slot, q).await;
            c.write(out, v).await;
        });
        m.run();
        assert_eq!(m.read_word(out), 9);
    }

    #[test]
    fn wait_word_with_predicate() {
        let m = Machine::new(Config::default().nodes(2));
        let word = m.alloc_on(0, 1);
        let q = m.new_wait_queue();
        let out = m.alloc_on(1, 1);
        let c0 = m.cpu(0);
        let c1 = m.cpu(1);
        m.spawn(0, async move {
            let v = AlwaysBlock.wait_word(&c0, word, q, |v| v >= 3).await;
            c0.write(out, v).await;
        });
        m.spawn(1, async move {
            for i in 1..=3u64 {
                c1.work(500).await;
                c1.write(word, i).await;
                c1.signal_all(q).await;
            }
        });
        m.run();
        assert_eq!(m.read_word(out), 3);
        assert_eq!(m.live_tasks(), 0);
    }
}
