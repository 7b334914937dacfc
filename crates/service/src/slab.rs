//! The inflated-lock slab: a slot word's index field points in here.
//!
//! The read side is a wait-free **chunked pointer table**: a fixed
//! directory of chunks whose sizes double (32, 64, 128, … entries), so
//! a chunk, once allocated, never moves or shrinks and an index maps to
//! `(chunk, offset)` with two bit operations. An acquirer reads its
//! entry with two plain atomic loads — no lock, no reference count —
//! because the slot word already pins it (**pin by registration**):
//!
//! 1. *Lookup after registration.* An acquirer dereferences entry `i`
//!    only after its `+REF_ONE` CAS succeeded on a word carrying
//!    `INFLATED | i`. The demotion CAS demands an in-flight count of
//!    exactly the holder's own 1, so while the acquirer stays
//!    registered the object cannot deflate and entry `i` cannot be
//!    retired. (Even a stale registration that lands, ABA-style, on a
//!    later inflation of the same index is safe: it reads the table
//!    *afterwards*, so it finds that era's lock.)
//! 2. *Retire after the demotion CAS.* Only the thread whose demotion
//!    CAS flattened the word calls [`Slab::retire`]; from that CAS on,
//!    no new registration for this era can succeed.
//! 3. *Free after the deflater's own release.* The deflater is the
//!    lock's holder and its registration was the only one, so once its
//!    own `release` call has returned nobody can still be inside the
//!    lock; only then does it drop the [`Retired`] handle.
//!
//! Step 3 needs "unregistered" to mean "no longer touching the lock",
//! and a `release` is not one store: one that switches protocols lets
//! the next holder in and then keeps writing (it drains the queue it
//! just validated). So every thread deregisters only *after* its
//! `release` call has returned; a holder that got in meanwhile reads an
//! in-flight count of 2 or more and cannot deflate.
//!
//! Writers (inflation, deflation, diagnostics) share one plain mutex;
//! retired indices are recycled through a free list, which keeps the
//! table bounded by the *peak concurrent* hot set rather than the
//! total number of inflations ever. The slot word's index field bounds
//! that hot set: with [`slot::INDEX_LIMIT`] locks live, an insert is
//! refused and the caller leaves its object flat.

use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Mutex;

use reactive_native::ReactiveLock;

use crate::slot;

/// Entries in chunk 0; chunk `k` holds `FIRST_CHUNK << k`.
const FIRST_CHUNK: u64 = 32;
/// Directory size: chunks `0..8` cover every index the slot word's
/// index field can name (`32 * (2^8 - 1) >= 2^12`).
const CHUNKS: usize = 8;

const _: () = assert!(FIRST_CHUNK * ((1 << CHUNKS) - 1) >= slot::INDEX_LIMIT as u64);

type Entry = AtomicPtr<ReactiveLock>;

/// `(chunk, offset)` of table index `idx`.
fn locate(idx: u32) -> (usize, usize) {
    let n = u64::from(idx) + FIRST_CHUNK;
    let top = n.ilog2();
    (
        (top - FIRST_CHUNK.ilog2()) as usize,
        (n ^ (1 << top)) as usize,
    )
}

/// Entries in chunk `chunk`.
fn chunk_len(chunk: usize) -> usize {
    (FIRST_CHUNK << chunk) as usize
}

/// Writer-side bookkeeping, under [`Slab::writer`].
struct Writer {
    /// Retired indices awaiting reuse.
    free: Vec<u32>,
    /// Indices ever handed out (the table's physical length).
    len: u32,
    /// Entries currently holding a lock.
    live: u64,
    /// Kernel switch counts of retired locks, folded in at retirement
    /// so `lock_switches` survives reclamation.
    retired_switches: u64,
}

/// The slab; see the module docs.
pub(crate) struct Slab {
    chunks: [AtomicPtr<Entry>; CHUNKS],
    writer: Mutex<Writer>,
}

/// Sole ownership of a retired lock; dropping it frees the lock.
pub(crate) struct Retired(NonNull<ReactiveLock>);

impl Retired {
    /// Whether this is the allocation `lock` lives in.
    pub(crate) fn is(&self, lock: &ReactiveLock) -> bool {
        ptr::eq(self.0.as_ptr(), lock)
    }
}

impl Drop for Retired {
    fn drop(&mut self) {
        // SAFETY: the pointer came from `Box::into_raw` in `insert`,
        // `retire` swapped it out of the table (so no one can find it
        // again), and `retire`'s contract makes this drop the last use.
        drop(unsafe { Box::from_raw(self.0.as_ptr()) });
    }
}

impl Slab {
    /// An empty slab; chunks are allocated by the first insert that
    /// needs them.
    pub(crate) fn new() -> Slab {
        Slab {
            chunks: [const { AtomicPtr::new(ptr::null_mut()) }; CHUNKS],
            writer: Mutex::new(Writer {
                free: Vec::new(),
                len: 0,
                live: 0,
                retired_switches: 0,
            }),
        }
    }

    fn writer(&self) -> std::sync::MutexGuard<'_, Writer> {
        self.writer.lock().expect("inflation slab poisoned")
    }

    /// The entry cell of `idx`, if its chunk exists.
    fn entry(&self, idx: u32) -> Option<&Entry> {
        let (chunk, offset) = locate(idx);
        // order: Acquire — pairs with the Release chunk publish in
        // `insert`, making the chunk's zero-initialized cells visible.
        let base = self.chunks[chunk].load(Ordering::Acquire);
        if base.is_null() {
            return None;
        }
        debug_assert!(offset < chunk_len(chunk));
        // SAFETY: a published chunk is a live allocation of
        // `chunk_len(chunk)` cells that is never freed or moved before
        // `self` drops, and `locate` keeps `offset` below that length.
        Some(unsafe { &*base.add(offset) })
    }

    /// The live lock in entry `idx` — wait-free.
    ///
    /// # Safety
    /// The caller must be *registered* on a slot word that carries
    /// `INFLATED | idx` (its `+REF_ONE` CAS succeeded and it has not
    /// deregistered), and must not use the reference after it
    /// deregisters — or, if it deflates the object itself, after its
    /// own release of the lock.
    // SAFETY: a declaration; the `# Safety` section above is the contract.
    pub(crate) unsafe fn get(&self, idx: u32) -> &ReactiveLock {
        // order: Acquire — pairs with `insert`'s Release entry store;
        // the registration CAS already synchronized with the inflater's
        // word publish, this keeps the pairing local and explicit.
        let lock = self
            .entry(idx)
            .map_or(ptr::null_mut(), |e| e.load(Ordering::Acquire));
        assert!(!lock.is_null(), "registered slab index was retired");
        // SAFETY: non-null entries point at a live boxed lock, and the
        // caller's registration keeps this one from being retired (the
        // module docs' step 1), hence from being freed.
        unsafe { &*lock }
    }

    /// Install the lock `make` builds and return its index, reusing a
    /// retired index before growing the table. `None`, without calling
    /// `make`, when every index the slot word can name holds a live
    /// lock.
    pub(crate) fn insert(&self, make: impl FnOnce() -> ReactiveLock) -> Option<u32> {
        let mut w = self.writer();
        let idx = match w.free.pop() {
            Some(idx) => idx,
            None if w.len < slot::INDEX_LIMIT => {
                w.len += 1;
                w.len - 1
            }
            None => return None,
        };
        let lock = Box::into_raw(Box::new(make()));
        let (chunk, _) = locate(idx);
        // order: Relaxed — chunks are only ever published under the
        // writer mutex, which we hold.
        if self.chunks[chunk].load(Ordering::Relaxed).is_null() {
            let cells: Box<[Entry]> = (0..chunk_len(chunk))
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect();
            // order: Release — publishes the initialized cells to
            // `entry`'s Acquire load.
            self.chunks[chunk].store(Box::into_raw(cells).cast::<Entry>(), Ordering::Release);
        }
        let cell = self.entry(idx).expect("chunk was just ensured");
        debug_assert!(
            // order: Relaxed — cells only change under the writer mutex.
            cell.load(Ordering::Relaxed).is_null(),
            "free list pointed at a live slab entry"
        );
        // order: Release — publishes the lock's construction to the
        // Acquire load in `get`.
        cell.store(lock, Ordering::Release);
        w.live += 1;
        Some(idx)
    }

    /// Remove entry `idx` from the table and take ownership of its
    /// lock; the index goes to the free list.
    ///
    /// # Safety
    /// The caller's demotion CAS on the slot word carrying
    /// `INFLATED | idx` must have succeeded (it held the lock and its
    /// registration was the only one), and it must drop the returned
    /// handle only after its own release of the lock.
    // SAFETY: a declaration; the `# Safety` section above is the contract.
    pub(crate) unsafe fn retire(&self, idx: u32) -> Retired {
        let mut w = self.writer();
        let cell = self.entry(idx).expect("retiring an index never issued");
        // order: Relaxed — the caller registered on this entry, so the
        // pointer it swaps out is one it already synchronized with;
        // nobody may read the cell again until `insert` refills it.
        let lock = NonNull::new(cell.swap(ptr::null_mut(), Ordering::Relaxed))
            .expect("retiring an already-retired slab entry");
        // SAFETY: the caller still holds the lock (see above), so the
        // allocation is live; `switches` is a shared read.
        w.retired_switches += unsafe { lock.as_ref() }.switches();
        w.live -= 1;
        w.free.push(idx);
        Retired(lock)
    }

    /// Entries currently holding a lock.
    pub(crate) fn live(&self) -> u64 {
        self.writer().live
    }

    /// Indices ever handed out, retired ones included — stays at the
    /// peak live count when the free list recycles.
    pub(crate) fn entries(&self) -> u64 {
        u64::from(self.writer().len)
    }

    /// Kernel-internal protocol switches across all locks, live and
    /// retired.
    pub(crate) fn lock_switches(&self) -> u64 {
        let w = self.writer();
        let live: u64 = (0..w.len)
            .filter_map(|idx| {
                // order: Relaxed — entries only change under the
                // writer mutex, which we hold.
                NonNull::new(self.entry(idx)?.load(Ordering::Relaxed))
            })
            // SAFETY: an entry that is non-null under the writer mutex
            // has not been retired, and a lock is freed only after
            // `retire` (which needs this mutex) removed it.
            .map(|lock| unsafe { lock.as_ref() }.switches())
            .sum();
        w.retired_switches + live
    }

    /// Heap bytes of the table itself: allocated chunks plus the free
    /// list (the locks are counted per live entry by the caller).
    pub(crate) fn table_bytes(&self) -> u64 {
        let w = self.writer();
        let cells: usize = (0..CHUNKS)
            // order: Relaxed — chunks only appear under the writer
            // mutex, which we hold.
            .filter(|&c| !self.chunks[c].load(Ordering::Relaxed).is_null())
            .map(chunk_len)
            .sum();
        (cells * std::mem::size_of::<Entry>() + w.free.capacity() * std::mem::size_of::<u32>())
            as u64
    }
}

impl Drop for Slab {
    fn drop(&mut self) {
        for (chunk, base) in self.chunks.iter_mut().enumerate() {
            let base = *base.get_mut();
            if base.is_null() {
                continue;
            }
            // SAFETY: `base` is the `Box<[Entry]>` of `chunk_len(chunk)`
            // cells that `insert` leaked into the directory, and
            // `&mut self` means no reader is left.
            let cells =
                unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(base, chunk_len(chunk))) };
            for cell in cells.into_vec() {
                let lock = cell.into_inner();
                if !lock.is_null() {
                    // SAFETY: a non-null cell owns the boxed lock that
                    // `insert` stored there and nobody retired.
                    drop(unsafe { Box::from_raw(lock) });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_walks_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(31), (0, 31));
        assert_eq!(locate(32), (1, 0));
        assert_eq!(locate(95), (1, 63));
        assert_eq!(locate(96), (2, 0));
        // Every index lands inside its chunk, chunks tile the index
        // space without gaps, and the directory covers every index the
        // slot word can name.
        let top = u64::from(slot::INDEX_LIMIT - 1);
        let mut next = 0u64;
        for chunk in 0..CHUNKS {
            assert_eq!(locate(next as u32), (chunk, 0));
            let last = (next + chunk_len(chunk) as u64 - 1).min(top);
            assert_eq!(locate(last as u32), (chunk, (last - next) as usize));
            next += chunk_len(chunk) as u64;
            if next > top {
                break;
            }
        }
        assert!(next > top, "directory too small for the index field");
        assert_eq!(locate(top as u32).0, CHUNKS - 1);
    }

    #[test]
    fn growth_leaves_earlier_chunks_in_place() {
        let slab = Slab::new();
        // SAFETY: nothing retires entries in this test, so every issued
        // index stays live as long as the slab.
        let get = |idx| unsafe { slab.get(idx) };
        let insert = || slab.insert(ReactiveLock::new).expect("room");
        let first = insert();
        let held = get(first);
        // Grow through three more chunks while `held` borrows chunk 0.
        let n = FIRST_CHUNK as u32 * 8;
        for i in 1..n {
            assert_eq!(insert(), i);
        }
        assert!(ptr::eq(held, get(first)));
        let h = held.acquire();
        held.release(h);
        assert_eq!(slab.entries(), u64::from(n));
        assert_eq!(slab.live(), u64::from(n));
        assert_eq!(
            slab.table_bytes(),
            (32 + 64 + 128 + 256) * std::mem::size_of::<Entry>() as u64
        );
        // Distinct indices reach distinct locks on both sides of a
        // chunk boundary.
        let (a, b) = (FIRST_CHUNK as u32 - 1, FIRST_CHUNK as u32);
        assert!(!ptr::eq(get(a), get(b)));
    }

    #[test]
    fn retire_then_reuse_keeps_entries_at_the_peak() {
        let slab = Slab::new();
        let insert = || slab.insert(ReactiveLock::new).expect("room");
        let idx: Vec<u32> = (0..40).map(|_| insert()).collect();
        assert_eq!(slab.entries(), 40);
        for &i in &idx[10..30] {
            // SAFETY: single-threaded — nobody is registered on or
            // holding this lock, and `lock` is unused once `retired`
            // drops at the end of the iteration.
            let (lock, retired) = unsafe { (slab.get(i), slab.retire(i)) };
            assert!(retired.is(lock));
        }
        assert_eq!(slab.live(), 20);
        assert_eq!(slab.entries(), 40, "retired entries keep their index");
        let mut reused: Vec<u32> = (0..20).map(|_| insert()).collect();
        reused.sort_unstable();
        assert_eq!(reused, idx[10..30], "free list must recycle every index");
        assert_eq!(slab.live(), 40);
        assert_eq!(slab.entries(), 40, "reuse must not grow the table");
        assert_eq!(insert(), 40);
    }

    #[test]
    fn retired_switch_counts_survive_reclamation() {
        use reactive_native::reactive::PROTO_QUEUE;
        let slab = Slab::new();
        let idx = slab
            .insert(|| {
                ReactiveLock::builder()
                    .initial_protocol(PROTO_QUEUE)
                    .build()
            })
            .expect("room");
        // SAFETY: single-threaded — the entry is live until the
        // `retire` below, and `lock` is not used after it.
        let lock = unsafe { slab.get(idx) };
        // Solo traffic pulls a queue-born lock down to TTS: one switch.
        for _ in 0..100 {
            let h = lock.acquire();
            lock.release(h);
        }
        assert_eq!(slab.lock_switches(), 1);
        // SAFETY: single-threaded — the lock is free and unregistered.
        drop(unsafe { slab.retire(idx) });
        assert_eq!(slab.live(), 0);
        assert_eq!(slab.lock_switches(), 1);
    }
}
