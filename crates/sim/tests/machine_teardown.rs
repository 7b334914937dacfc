//! Machine teardown: a dropped `Machine` frees everything it was given
//! to run — tasks, handlers, recovery factories — whether the run
//! finished, deadlocked, or never started. Live heap bytes are counted
//! by a `#[global_allocator]` that wraps the system allocator. This
//! binary holds one test so no other test's allocations land in the
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use alewife_sim::{Config, Cpu, FaultPlan, Machine, Port};

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract is `System`'s, forwarded below.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as-is; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            // order: a plain counter; no other memory is published through it.
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    // SAFETY: as for `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        // order: a plain counter; no other memory is published through it.
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // SAFETY: as for `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as-is; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // order: a plain counter; no other memory is published through it.
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            // order: as above.
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Live bytes a case may leave behind: the harness's own threads
/// allocate a little, and only add to the count.
const SLACK: usize = 4 << 10;

/// Machines built per case, so a leak of one small machine per build
/// stands well clear of [`SLACK`].
const REPS: usize = 8;

/// (a) Fifty 64-node machines, each with 64 lock-loop threads, dropped
/// without running.
fn lock_loops_dropped_unrun() {
    for _ in 0..50 {
        let m = Machine::new(Config::default().nodes(64));
        let lock = m.alloc_on(0, 1);
        let count = m.alloc_on(1, 1);
        for p in 0..64 {
            let cpu = m.cpu(p);
            m.spawn(p, async move {
                for _ in 0..10 {
                    while cpu.test_and_set(lock).await != 0 {
                        cpu.poll_until(lock, |v| v == 0).await;
                    }
                    cpu.fetch_and_add(count, 1).await;
                    cpu.write(lock, 0).await;
                }
            });
        }
    }
}

/// (b) A run that ends with a thread blocked forever on a wait queue.
fn blocked_forever() {
    for _ in 0..REPS {
        let m = Machine::new(Config::default().nodes(16));
        let q = m.new_wait_queue();
        let done = m.alloc_on(0, 1);
        for p in 0..16 {
            let cpu = m.cpu(p);
            m.spawn(p, async move {
                if p == 5 {
                    cpu.block_on(q).await; // nobody signals
                }
                cpu.fetch_and_add(done, 1).await;
            });
        }
        m.run();
        assert_eq!(m.read_word(done), 15);
        assert_eq!(m.live_tasks(), 1, "the blocked thread should still be live");
    }
}

/// (c) A handler and a recovery factory that each capture a `Cpu`, after
/// a run that used both.
fn handler_and_recovery_hold_cpus() {
    for _ in 0..REPS {
        let plan = FaultPlan::new().kill_for(100, 2, 1_000);
        let m = Machine::new(Config::default().nodes(16).faults(plan));
        let hcpu = m.cpu(3);
        m.register_handler(3, Port(1), move |ctx, args| {
            let tok = ctx.token();
            ctx.reply_to(tok, args[0] + hcpu.node() as u64);
        });
        let done = m.alloc_on(2, 1);
        let rcpu = m.cpu(2);
        m.on_recovery(2, move || {
            let cpu = rcpu.clone();
            Box::pin(async move { cpu.write(done, 1).await })
        });
        let cpu = m.cpu(0);
        m.spawn(0, async move {
            assert_eq!(cpu.rpc(3, Port(1), [4, 0, 0, 0]).await, 7);
        });
        m.run();
        assert_eq!(m.read_word(done), 1, "the recovery thread did not run");
        assert_eq!(m.live_tasks(), 0);
    }
}

/// Reads the machine through its `Cpu` when dropped, and counts drops.
struct NowOnDrop {
    cpu: Cpu,
    drops: Rc<Cell<u32>>,
}

impl Drop for NowOnDrop {
    fn drop(&mut self) {
        let _ = self.cpu.now();
        self.drops.set(self.drops.get() + 1);
    }
}

/// A thread on node 1 that holds a [`NowOnDrop`] and spins forever.
fn spawn_spinner_holding(m: &Machine, drops: &Rc<Cell<u32>>) {
    let cpu = m.cpu(1);
    let guard = NowOnDrop {
        cpu: cpu.clone(),
        drops: drops.clone(),
    };
    let word = m.alloc_on(1, 1);
    m.spawn(1, async move {
        let _guard = guard;
        cpu.poll_until(word, |v| v == 1).await;
    });
}

/// (d) The spinner's machine dropped without running: the destructor
/// runs, and may use its `Cpu`.
fn destructor_uses_cpu_dropped_unrun() {
    for _ in 0..REPS {
        let drops = Rc::new(Cell::new(0));
        let m = Machine::new(Config::default().nodes(16));
        spawn_spinner_holding(&m, &drops);
        drop(m);
        assert_eq!(drops.get(), 1, "the task was not dropped");
    }
}

/// (d) The spinner killed by a fault plan: its destructor runs at the
/// kill, and may use its `Cpu`.
fn destructor_uses_cpu_killed() {
    for _ in 0..REPS {
        let drops = Rc::new(Cell::new(0));
        let plan = FaultPlan::new().kill_at(1_000, 1);
        let m = Machine::new(Config::default().nodes(16).faults(plan));
        spawn_spinner_holding(&m, &drops);
        m.run();
        assert_eq!(drops.get(), 1, "the kill did not drop the task");
        assert_eq!(m.live_tasks(), 0);
    }
}

/// Live bytes `case` leaves behind, or what it panicked with.
fn leak(case: fn()) -> Result<isize, String> {
    // order: the cases run on this thread; the harness's own threads
    // allocate little and only add to the count.
    let before = LIVE.load(Ordering::Relaxed);
    let outcome = panic::catch_unwind(case);
    // order: as above.
    let after = LIVE.load(Ordering::Relaxed);
    match outcome {
        Ok(()) => Ok(after as isize - before as isize),
        Err(e) => Err(e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()),
    }
}

#[test]
fn a_dropped_machine_frees_what_it_was_given_to_run() {
    let cases: [(&str, fn()); 5] = [
        ("(a) 50 x 64 lock loops, unrun", lock_loops_dropped_unrun),
        ("(b) thread blocked forever", blocked_forever),
        (
            "(c) handler + recovery hold Cpus",
            handler_and_recovery_hold_cpus,
        ),
        (
            "(d) Cpu-using destructor, unrun",
            destructor_uses_cpu_dropped_unrun,
        ),
        (
            "(d) Cpu-using destructor, killed",
            destructor_uses_cpu_killed,
        ),
    ];
    let report = cases.map(|(name, case)| (name, leak(case)));
    let clean = report
        .iter()
        .all(|(_, r)| matches!(r, Ok(b) if b.unsigned_abs() <= SLACK));
    assert!(
        clean,
        "live heap bytes left per case (slack {SLACK}): {report:#?}"
    );
}
