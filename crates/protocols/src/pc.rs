//! Producer-consumer synchronization with full/empty bits (§4.6.1):
//! J-structures and futures, the constructs behind the waiting-time
//! profiles of Figures 4.6-4.7 and the benchmarks of Figure 4.12.
//!
//! A slot of either is one simulated line (its word and full/empty bit)
//! plus one wait queue for blocked readers. A [`JStructure`] of `n`
//! slots allocates its lines and queues as two batches and keeps only
//! where each batch starts, so the handle is four words whatever `n` is
//! and every task that reads or writes the structure holds a copy.

use alewife_sim::{Addr, Cpu, Machine, WaitQueueId};

use crate::waiting::WaitStrategy;

/// A J-structure: an array of write-once slots tagged with full/empty
/// bits. Readers of an empty slot wait until a producer fills it; slots
/// can be reset for reuse. Multiple readers may consume one write
/// (unlike I-structure `take`, which is also provided).
///
/// The handle is `Copy`: slot `i` lives at `first + i * stride` and
/// waits on queue `queue0 + i`.
#[derive(Clone, Copy, Debug)]
pub struct JStructure {
    first: Addr,
    stride: u64,
    len: usize,
    queue0: WaitQueueId,
}

impl JStructure {
    /// Allocate `n` slots, striped across the machine's nodes for
    /// locality (slot `i` homed on node `i % nodes`).
    pub fn new(m: &Machine, n: usize) -> JStructure {
        let (first, stride) = m.alloc_striped(n, 1);
        JStructure {
            first,
            stride,
            len: n,
            queue0: m.new_wait_queues(n),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the structure has zero slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of slot `i` (for custom polling).
    ///
    /// # Panics
    /// If `i` is not below [`JStructure::len`].
    pub fn slot(&self, i: usize) -> Addr {
        assert!(
            i < self.len,
            "J-structure slot {i} out of range ({} slots)",
            self.len
        );
        self.first.plus(i as u64 * self.stride)
    }

    /// The wait queue of slot `i` (checked by the [`JStructure::slot`]
    /// call every use pairs it with).
    fn queue(&self, i: usize) -> WaitQueueId {
        self.queue0.offset(i)
    }

    /// Read slot `i`, waiting (per `wait`) until it is full. Records the
    /// waiting time in the `"jstruct"` histogram (Figure 4.6).
    pub async fn read<W: WaitStrategy>(&self, cpu: &Cpu, wait: &W, i: usize) -> u64 {
        let t0 = cpu.now();
        let v = wait.wait_full(cpu, self.slot(i), self.queue(i)).await;
        cpu.record_wait("jstruct", cpu.now() - t0);
        v
    }

    /// Write slot `i` and mark it full, waking any blocked readers.
    ///
    /// # Panics
    /// Panics (in debug) if the slot was already full: J-structure slots
    /// are write-once between resets.
    pub async fn write(&self, cpu: &Cpu, i: usize, v: u64) {
        let was_full = cpu.write_fill(self.slot(i), v).await;
        debug_assert!(!was_full, "J-structure slot {i} written twice");
        cpu.signal_all(self.queue(i)).await;
    }

    /// Reset slot `i` to empty (reuse across phases).
    pub async fn reset(&self, cpu: &Cpu, i: usize) {
        cpu.reset_empty(self.slot(i)).await;
    }
}

/// A future cell: a single write-once value produced by one thread and
/// touched (possibly repeatedly) by others — the synchronization beneath
/// Mul-T futures (§2.2.3). A consumer that touches an undetermined
/// future waits.
#[derive(Clone, Copy, Debug)]
pub struct FutureCell {
    slot: Addr,
    queue: WaitQueueId,
}

impl FutureCell {
    /// Allocate a future cell homed on `home`.
    pub fn new(m: &Machine, home: usize) -> FutureCell {
        FutureCell {
            slot: m.alloc_on(home, 1),
            queue: m.new_wait_queue(),
        }
    }

    /// Allocate a future cell from inside a running task (dynamic
    /// future creation, e.g. a future-spawning runtime).
    pub fn new_on_cpu(cpu: &Cpu, home: usize) -> FutureCell {
        FutureCell {
            slot: cpu.alloc_on(home, 1),
            queue: cpu.new_wait_queue(),
        }
    }

    /// The underlying slot address.
    pub fn slot(&self) -> Addr {
        self.slot
    }

    /// Resolve the future with `v`, waking touchers.
    pub async fn determine(&self, cpu: &Cpu, v: u64) {
        let was_full = cpu.write_fill(self.slot, v).await;
        debug_assert!(!was_full, "future determined twice");
        cpu.signal_all(self.queue).await;
    }

    /// Touch the future: wait (per `wait`) until determined, then return
    /// its value. Records waiting time in the `"future"` histogram
    /// (Figure 4.7).
    pub async fn touch<W: WaitStrategy>(&self, cpu: &Cpu, wait: &W) -> u64 {
        let t0 = cpu.now();
        let v = wait.wait_full(cpu, self.slot, self.queue).await;
        cpu.record_wait("future", cpu.now() - t0);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waiting::{AlwaysBlock, AlwaysSpin};
    use alewife_sim::{Config, Machine};

    fn pipeline<W: WaitStrategy>(w: W, n: usize) {
        // Producer fills slots in order with i*i; consumers read them.
        let m = Machine::new(Config::default().nodes(4));
        let js = JStructure::new(&m, n);
        let sum_out = m.alloc_on(0, 1);
        {
            let cpu = m.cpu(0);
            m.spawn(0, async move {
                for i in 0..js.len() {
                    cpu.work(cpu.rand_below(300)).await;
                    js.write(&cpu, i, (i * i) as u64).await;
                }
            });
        }
        for p in 1..4 {
            let cpu = m.cpu(p);
            let w = w.clone();
            m.spawn(p, async move {
                let mut sum = 0;
                for i in 0..js.len() {
                    sum += js.read(&cpu, &w, i).await;
                }
                cpu.fetch_and_add(sum_out, sum).await;
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0, "producer-consumer deadlock");
        let expect: u64 = (0..n as u64).map(|i| i * i).sum();
        assert_eq!(m.read_word(sum_out), 3 * expect);
    }

    #[test]
    fn jstructure_spin_readers() {
        pipeline(AlwaysSpin, 16);
    }

    #[test]
    fn jstructure_block_readers() {
        pipeline(AlwaysBlock, 16);
    }

    #[test]
    fn jstructure_reset_reuse() {
        let m = Machine::new(Config::default().nodes(2));
        let js = JStructure::new(&m, 1);
        let out = m.alloc_on(0, 2);
        let c0 = m.cpu(0);
        m.spawn(0, async move {
            let a = js.read(&c0, &AlwaysSpin, 0).await;
            c0.write(out, a).await;
            // Wait for the reset+rewrite, then read phase 2.
            c0.work(3_000).await;
            let b = js.read(&c0, &AlwaysSpin, 0).await;
            c0.write(out.plus(1), b).await;
        });
        let c1 = m.cpu(1);
        m.spawn(1, async move {
            js.write(&c1, 0, 5).await;
            c1.work(1_000).await;
            js.reset(&c1, 0).await;
            c1.work(1_000).await;
            js.write(&c1, 0, 9).await;
        });
        m.run();
        assert_eq!(m.read_word(out), 5);
        assert_eq!(m.read_word(out.plus(1)), 9);
    }

    #[test]
    fn jstructure_of_zero_and_one_slots() {
        let m = Machine::new(Config::default().nodes(2));
        let empty = JStructure::new(&m, 0);
        assert!(empty.is_empty());
        let one = JStructure::new(&m, 1);
        assert_eq!(one.len(), 1);
        // The empty structure took no memory; the one slot fills a line.
        let next = m.alloc_on(1, 1);
        assert_eq!((one.slot(0), next), (Addr(0), Addr(4)));
        let cpu = m.cpu(1);
        m.spawn(1, async move {
            one.write(&cpu, 0, 3).await;
            assert_eq!(one.read(&cpu, &AlwaysBlock, 0).await, 3);
        });
        m.run();
        assert_eq!(m.live_tasks(), 0);
    }

    #[test]
    #[should_panic(expected = "J-structure slot 3 out of range (3 slots)")]
    fn jstructure_slot_past_the_end_panics() {
        let m = Machine::new(Config::default().nodes(2));
        JStructure::new(&m, 3).slot(3);
    }

    #[test]
    fn future_touch_before_and_after_determine() {
        let m = Machine::new(Config::default().nodes(3));
        let f = FutureCell::new(&m, 0);
        let out = m.alloc_on(1, 2);
        // Toucher 1 arrives before determination, toucher 2 after.
        let c1 = m.cpu(1);
        let f1 = f;
        m.spawn(1, async move {
            let v = f1.touch(&c1, &AlwaysBlock).await;
            c1.write(out, v).await;
        });
        let c2 = m.cpu(2);
        m.spawn(2, async move {
            c2.work(5_000).await;
            let v = f.touch(&c2, &AlwaysBlock).await;
            c2.write(out.plus(1), v).await;
        });
        let c0 = m.cpu(0);
        m.spawn(0, async move {
            c0.work(1_500).await;
            f.determine(&c0, 77).await;
        });
        m.run();
        assert_eq!(m.live_tasks(), 0);
        assert_eq!(m.read_word(out), 77);
        assert_eq!(m.read_word(out.plus(1)), 77);
    }

    #[test]
    fn waiting_times_recorded() {
        let m = Machine::new(Config::default().nodes(2));
        let f = FutureCell::new(&m, 0);
        let c1 = m.cpu(1);
        m.spawn(1, async move {
            f.touch(&c1, &AlwaysSpin).await;
        });
        let c0 = m.cpu(0);
        m.spawn(0, async move {
            c0.work(2_000).await;
            f.determine(&c0, 1).await;
        });
        m.run();
        let st = m.stats();
        let h = st.waits.get("future").expect("future histogram");
        assert_eq!(h.count, 1);
        assert!(h.max >= 1_500);
    }
}
