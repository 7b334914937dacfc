//! A crash-recoverable mutual-exclusion lock (Golab–Ramaraju style).
//!
//! The failure model matches the simulator's fault layer: a crash
//! destroys a process's registers (its future state machine) but every
//! protocol word lives in simulated shared memory, which persists as
//! "NVM". The lock is a tournament tree of 2-process Peterson locks —
//! chosen because Peterson's algorithm uses only idempotent single-word
//! stores, so a crashed process's recovery can blindly re-issue or undo
//! its steps without corrupting the other contender's state.
//!
//! Per-process recoverability state is one NVM word, `prog[p]`:
//! written to `l + 1` *before* process `p` starts acquiring tree level
//! `l`, and to `levels + 1` once `p` is in the critical section. After
//! a crash, [`RecoverableMutex::recover`] reads `prog[p]` and releases
//! every level `p` held or may have partially claimed (store `flag = 0`
//! — the released state — which is safe whether or not the claim
//! succeeded), then clears the critical-section word if `p` crashed
//! inside it. Writes are **self-revealing**: the CS word holds `p + 1`
//! and each Peterson flag slot is owned by exactly one side, so
//! recovery can decide "did my in-flight write land?" by reading NVM —
//! the kill may have raced an operation whose reply was lost.
//!
//! RMR complexity (CC model): a passage climbs `log2 n` levels; at each
//! level the spin words share one cache line that only the two
//! contenders write, so re-reads are invalidation-driven and bounded.
//! Per-passage remote references are `O(log n)` — the bound the
//! `rmr_recoverable` scenario gates. (Under the DSM model a Peterson
//! tree is not local-spin; use the abortable queue lock there.)

use alewife_sim::{Addr, Cpu, Machine};

/// Peterson-node word offsets within one cache line.
const FLAG0: u64 = 0;
const FLAG1: u64 = 1;
const TURN: u64 = 2;

/// Re-check period (cycles) for the two-word Peterson wait condition;
/// wakes are normally invalidation-driven (both words share a line), so
/// this only bounds the stall of a lost wake race.
const PATIENCE: u64 = 150;

/// What [`RecoverableMutex::recover`] found in NVM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recovery {
    /// The process was not in a passage when it crashed.
    Idle,
    /// The process crashed while acquiring; its claims were released.
    WasAcquiring,
    /// The process crashed inside the critical section; the caller must
    /// repair application state before the lock is handed on (the lock
    /// itself has been released).
    WasInCs,
}

/// A crash-recoverable mutex for `procs` processes (one per node in the
/// intended use), built as a Peterson tournament tree over NVM.
#[derive(Clone, Debug)]
pub struct RecoverableMutex {
    /// Number of tree levels (`log2` of the padded process count).
    levels: u32,
    /// Padded (power-of-two) process count.
    n_pow: usize,
    /// Internal tree nodes in heap order (`tree[v - 1]` for node `v`,
    /// `v` in `1..n_pow`); each is one line of `{flag0, flag1, turn}`.
    tree: Vec<Addr>,
    /// Per-process NVM progress word, homed on the process's node.
    prog: Vec<Addr>,
    /// Critical-section word: `p + 1` while `p` is inside, else 0.
    cs: Addr,
}

impl RecoverableMutex {
    /// Build a lock for `procs` processes on `m`. Tree nodes are spread
    /// across the machine; `prog[p]` is homed on node `p % nodes`.
    pub fn new(m: &Machine, procs: usize) -> RecoverableMutex {
        assert!(procs >= 1);
        let n_pow = procs.next_power_of_two();
        let levels = n_pow.trailing_zeros();
        let tree = (1..n_pow).map(|v| m.alloc_on(v % m.nodes(), 4)).collect();
        let prog = (0..procs).map(|p| m.alloc_on(p % m.nodes(), 1)).collect();
        RecoverableMutex {
            levels,
            n_pow,
            tree,
            prog,
            cs: m.alloc_on(0, 1),
        }
    }

    /// The internal node `p` meets at level `l` (heap numbering).
    fn node(&self, p: usize, l: u32) -> Addr {
        let v = (self.n_pow + p) >> (l + 1);
        self.tree[v - 1]
    }

    /// Which side of that node `p` plays.
    fn side(p: usize, l: u32) -> u64 {
        ((p >> l) & 1) as u64
    }

    /// Wait out the Peterson condition at one node: proceed when the
    /// peer's flag is down or the turn word points away from us.
    async fn peterson_wait(cpu: &Cpu, flag_other: Addr, turn: Addr, me: u64) {
        loop {
            if cpu.read(flag_other).await == 0 {
                return;
            }
            if cpu.read(turn).await != me {
                return;
            }
            // Sleep until the node's line changes (both words share it),
            // with a patience timer against the read-then-register race.
            let deadline = cpu.now() + PATIENCE;
            if cpu
                .poll_until_deadline(turn, move |t| t != me, deadline)
                .await
                .is_some()
            {
                return;
            }
        }
    }

    /// Acquire the lock as process `p`, recording progress in NVM so a
    /// crash at any point is recoverable.
    pub async fn acquire(&self, cpu: &Cpu, p: usize) {
        for l in 0..self.levels {
            // NVM: "level l is now uncertain" — written before the
            // first store of the Peterson handshake.
            cpu.write(self.prog[p], l as u64 + 1).await;
            let node = self.node(p, l);
            let side = Self::side(p, l);
            let (mine, other) = if side == 0 {
                (node.plus(FLAG0), node.plus(FLAG1))
            } else {
                (node.plus(FLAG1), node.plus(FLAG0))
            };
            cpu.write(mine, 1).await;
            cpu.write(node.plus(TURN), side).await;
            Self::peterson_wait(cpu, other, node.plus(TURN), side).await;
        }
        cpu.write(self.prog[p], self.levels as u64 + 1).await;
        // Self-revealing CS marker: the value names the holder.
        cpu.write(self.cs, p as u64 + 1).await;
    }

    /// Release the lock as process `p` (root first, then down the tree).
    pub async fn release(&self, cpu: &Cpu, p: usize) {
        cpu.write(self.cs, 0).await;
        self.unwind(cpu, p, self.levels).await;
    }

    /// Store 0 into `p`'s flag at levels `0..upto`, root first. Safe
    /// whether or not each claim landed: 0 is the released state.
    async fn unwind(&self, cpu: &Cpu, p: usize, upto: u32) {
        for l in (0..upto).rev() {
            let node = self.node(p, l);
            let side = Self::side(p, l);
            let mine = if side == 0 {
                node.plus(FLAG0)
            } else {
                node.plus(FLAG1)
            };
            cpu.write(mine, 0).await;
        }
        cpu.write(self.prog[p], 0).await;
    }

    /// Repair after a crash of process `p`: inspect NVM, release every
    /// level `p` held or may have claimed, clear the CS word if `p`
    /// died inside the critical section. Idempotent — a crash *during
    /// recovery* is repaired by running recovery again.
    pub async fn recover(&self, cpu: &Cpu, p: usize) -> Recovery {
        let k = cpu.read(self.prog[p]).await;
        if k == 0 {
            return Recovery::Idle;
        }
        let in_cs = cpu.read(self.cs).await == p as u64 + 1;
        if in_cs {
            cpu.write(self.cs, 0).await;
        }
        let upto = (k as u32).min(self.levels);
        self.unwind(cpu, p, upto).await;
        if in_cs {
            Recovery::WasInCs
        } else {
            Recovery::WasAcquiring
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alewife_sim::{Config, FaultPlan, Machine};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn mutual_exclusion_without_crashes() {
        let procs = 8;
        let m = Machine::new(Config::default().nodes(procs));
        let lock = RecoverableMutex::new(&m, procs);
        let shared = m.alloc_on(0, 1);
        for p in 0..procs {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                for _ in 0..20 {
                    lock.acquire(&cpu, p).await;
                    let v = cpu.read(shared).await;
                    cpu.work(10).await;
                    cpu.write(shared, v + 1).await;
                    lock.release(&cpu, p).await;
                    cpu.work(cpu.rand_below(80)).await;
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0, "deadlock");
        assert_eq!(m.read_word(shared), 20 * procs as u64);
    }

    #[test]
    fn single_process_fast_path() {
        let m = Machine::new(Config::default().nodes(2));
        let lock = RecoverableMutex::new(&m, 1);
        let cpu = m.cpu(0);
        let l2 = lock.clone();
        let out = m.alloc_on(0, 1);
        m.spawn(0, async move {
            for _ in 0..50 {
                l2.acquire(&cpu, 0).await;
                let v = cpu.read(out).await;
                cpu.write(out, v + 1).await;
                l2.release(&cpu, 0).await;
            }
        });
        m.run();
        assert_eq!(m.read_word(out), 50);
    }

    /// Crash a holder mid-critical-section; recovery must release the
    /// lock so the survivors make progress, and the repaired counter
    /// must show no lost or double increments afterwards.
    #[test]
    fn crash_in_critical_section_recovers() {
        let procs = 4;
        let victim = 1usize;
        // Kill node 1 once, early; recover shortly after.
        let m = Machine::new(
            Config::default()
                .nodes(procs)
                .faults(FaultPlan::new().kill_for(8_000, victim, 4_000)),
        );
        let lock = RecoverableMutex::new(&m, procs);
        let shared = m.alloc_on(0, 1);
        // Per-process passage tallies, in NVM so they survive the kill.
        let mine = m.alloc_on(1, procs as u64);
        let done = Rc::new(RefCell::new(vec![false; procs]));
        for p in 0..procs {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            let done = done.clone();
            m.spawn(p, async move {
                for _ in 0..15 {
                    lock.acquire(&cpu, p).await;
                    let v = cpu.read(shared).await;
                    // Long critical section: the victim is very likely
                    // to die while holding the lock.
                    cpu.work(600).await;
                    cpu.write(shared, v + 1).await;
                    cpu.fetch_and_add(mine.plus(p as u64), 1).await;
                    lock.release(&cpu, p).await;
                }
                done.borrow_mut()[p] = true;
            });
        }
        let rcpu = m.cpu(victim);
        let rlock = lock.clone();
        let rdone = done.clone();
        m.on_recovery(victim, move || {
            let cpu = rcpu.clone();
            let lock = rlock.clone();
            let done = rdone.clone();
            Box::pin(async move {
                lock.recover(&cpu, victim).await;
                // Resume a shortened workload after repair.
                for _ in 0..5 {
                    lock.acquire(&cpu, victim).await;
                    let v = cpu.read(shared).await;
                    cpu.work(50).await;
                    cpu.write(shared, v + 1).await;
                    cpu.fetch_and_add(mine.plus(victim as u64), 1).await;
                    lock.release(&cpu, victim).await;
                }
                done.borrow_mut()[victim] = true;
            })
        });
        m.run();
        assert_eq!(m.live_tasks(), 0, "survivors deadlocked after crash");
        assert!(
            done.borrow().iter().all(|&d| d),
            "some process never finished: {:?}",
            done.borrow()
        );
        // Conservation: the shared counter must equal the sum of the
        // per-process tallies, except that the single kill may have
        // fallen between the two CS writes (then shared leads by one).
        // Any lost update or double grant would break the balance.
        let v = m.read_word(shared);
        let tallied: u64 = (0..procs).map(|p| m.read_word(mine.plus(p as u64))).sum();
        assert!(
            v == tallied || v == tallied + 1,
            "counter {v} vs tallies {tallied}: lost or duplicated update"
        );
        // Survivors completed everything; the victim at least its
        // post-recovery passages.
        assert!(tallied >= 15 * (procs as u64 - 1) + 5);
    }

    /// Crash a process while it is *waiting* (not holding); recovery
    /// must clear its partial claims so the tree is not wedged.
    #[test]
    fn crash_while_waiting_recovers() {
        let procs = 2;
        let m = Machine::new(
            Config::default()
                .nodes(procs)
                .faults(FaultPlan::new().kill_for(3_000, 1, 3_000)),
        );
        let lock = RecoverableMutex::new(&m, procs);
        let shared = m.alloc_on(0, 1);
        let c0 = m.cpu(0);
        let l0 = lock.clone();
        m.spawn(0, async move {
            // Hold the lock across the kill window so process 1 dies
            // while spinning in the tree.
            l0.acquire(&c0, 0).await;
            c0.work(6_000).await;
            l0.release(&c0, 0).await;
            for _ in 0..10 {
                l0.acquire(&c0, 0).await;
                let v = c0.read(shared).await;
                c0.write(shared, v + 1).await;
                l0.release(&c0, 0).await;
            }
        });
        let c1 = m.cpu(1);
        let l1 = lock.clone();
        m.spawn(1, async move {
            // Start after process 0 surely holds the lock, so the kill
            // at t=3000 lands while this acquire is waiting in the tree.
            c1.work(1_000).await;
            l1.acquire(&c1, 1).await; // dies in here
            let v = c1.read(shared).await;
            c1.write(shared, v + 1).await;
            l1.release(&c1, 1).await;
        });
        let rcpu = m.cpu(1);
        let rlock = lock.clone();
        m.on_recovery(1, move || {
            let cpu = rcpu.clone();
            let lock = rlock.clone();
            Box::pin(async move {
                let r = lock.recover(&cpu, 1).await;
                assert_ne!(r, Recovery::WasInCs, "waiter cannot have been in CS");
                for _ in 0..5 {
                    lock.acquire(&cpu, 1).await;
                    let v = cpu.read(shared).await;
                    cpu.write(shared, v + 1).await;
                    lock.release(&cpu, 1).await;
                }
            })
        });
        m.run();
        assert_eq!(m.live_tasks(), 0, "tree wedged after waiter crash");
        assert_eq!(m.read_word(shared), 15);
    }

    /// Same seed, same plan: the crash schedule and every downstream
    /// effect replay exactly.
    #[test]
    fn crashes_replay_deterministically() {
        let run = || {
            let plan = FaultPlan::crash_storm(11, 4, 3, 40_000, 2_500);
            let m = Machine::new(Config::default().nodes(4).seed(5).faults(plan));
            let lock = RecoverableMutex::new(&m, 4);
            let shared = m.alloc_on(0, 1);
            for p in 0..4 {
                let cpu = m.cpu(p);
                let wlock = lock.clone();
                m.spawn(p, async move {
                    for _ in 0..10 {
                        wlock.acquire(&cpu, p).await;
                        let v = cpu.read(shared).await;
                        cpu.work(100).await;
                        cpu.write(shared, v + 1).await;
                        wlock.release(&cpu, p).await;
                    }
                });
                let rcpu = m.cpu(p);
                let rlock = lock.clone();
                m.on_recovery(p, move || {
                    let cpu = rcpu.clone();
                    let lock = rlock.clone();
                    Box::pin(async move {
                        lock.recover(&cpu, p).await;
                    })
                });
            }
            let t = m.run();
            (
                t,
                m.read_word(shared),
                m.fault_log(),
                m.stats().rmr_cc_total(),
            )
        };
        assert_eq!(run(), run());
    }
}
