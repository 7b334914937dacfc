//! J-structure footprint: a Jacobi run's heap high-water, counted by a
//! `#[global_allocator]` that wraps the system allocator.
//!
//! A J-structure slot is one simulated line plus one wait queue; the
//! handle the tasks share is a few words, not a per-slot index table
//! copied into every reader. This binary holds one test so no other
//! test's allocations land in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sim_apps::alg::WaitAlg;
use sim_apps::jacobi::{self, JacobiConfig};
use sync_protocols::pc::JStructure;

/// Bytes currently allocated, and the most ever allocated at once.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract is `System`'s, forwarded below.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as-is; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
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
            grew(new_size);
        }
        p
    }
}

fn grew(size: usize) {
    // order: plain counters; no other memory is published through them.
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    // order: as above.
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MIB: usize = 1 << 20;

#[test]
fn jacobi_heap_high_water_is_bounded() {
    let cfg = JacobiConfig {
        procs: 32,
        iterations: 300,
        ..JacobiConfig::small(32, WaitAlg::TwoPhase(465))
    };
    // order: the run below is on this thread; the harness's own
    // threads allocate little and only add to the count.
    let base = LIVE.load(Ordering::Relaxed);
    // order: as above.
    PEAK.store(base, Ordering::Relaxed);
    let r = jacobi::run_jstructures(&cfg);
    // order: as above.
    let high = PEAK.load(Ordering::Relaxed) - base;
    let mib = high as f64 / MIB as f64;
    eprintln!("jacobi 32 x 300 heap high-water: {mib:.2} MiB");
    assert!(r.elapsed > 0);
    assert!(
        high <= 2 * MIB,
        "jacobi 32 x 300 heap high-water {mib:.1} MiB > 2 MiB"
    );
    assert!(
        size_of::<JStructure>() <= 32,
        "a J-structure handle is {} bytes",
        size_of::<JStructure>()
    );
}
