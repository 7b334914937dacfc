//! The sharded object arena: one packed word per object, at rest.
//!
//! The arena is the memory-bound half of the tentpole contract: hosting
//! 10⁶ adaptive objects means the *per-object* cost must be a handful
//! of bytes, not a kernel-backed lock each. The arena therefore stores
//! exactly one 4-byte `AtomicU32` slot word per object (layout in
//! [`crate::slot`]; 4 MB at 10⁶ objects); everything else — switch
//! journals, hot-object statistics, inflated native locks, limiter
//! state — is *per shard* or *per hot object*, allocated lazily, and
//! accounted for by [`Footprint`] so the bytes/object claim is measured
//! rather than asserted.
//!
//! Sharding is `object mod shards`, which spreads each tenant's
//! contiguous object range across all shards — a hot tenant heats every
//! limiter a little instead of one limiter a lot. When the shard count
//! is a power of two (every config this repo ships) the modulo is a
//! single mask; the router keeps a precomputed mask for that case and
//! falls back to the division only for odd shard counts.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::slot::Word;

/// One slot word in the arena. Every object pays for one, so its size
/// is pinned at compile time.
type Slot = AtomicU32;

const _: () = assert!(std::mem::size_of::<Slot>() == 4);

/// The slot array plus shard router.
pub struct ObjectArena {
    slots: Box<[Slot]>,
    shards: u32,
    /// `shards - 1` when `shards` is a power of two (so `object & mask`
    /// equals `object % shards`), else `None`.
    shard_mask: Option<u64>,
}

impl ObjectArena {
    /// Allocate `objects` slots routed across `shards` shards, all in
    /// TTS mode with clear streaks (slot word 0).
    ///
    /// # Panics
    /// If `objects` or `shards` is 0.
    pub fn new(objects: u64, shards: u32) -> Self {
        assert!(objects > 0, "arena must hold at least one object");
        assert!(shards > 0, "arena must have at least one shard");
        let slots = (0..objects).map(|_| Slot::new(0)).collect();
        let shard_mask = shards.is_power_of_two().then(|| u64::from(shards) - 1);
        ObjectArena {
            slots,
            shards,
            shard_mask,
        }
    }

    /// Number of objects hosted.
    pub fn objects(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Shard owning `object`: `object % shards`, computed as a mask
    /// when the shard count is a power of two.
    pub fn shard_of(&self, object: u64) -> u32 {
        match self.shard_mask {
            Some(mask) => (object & mask) as u32,
            None => (object % u64::from(self.shards)) as u32,
        }
    }

    /// Read a slot word. Relaxed suffices for the deterministic
    /// executor (single-threaded) and for native heuristic reads whose
    /// decisions are re-validated under the fast-path bit.
    pub fn load(&self, object: u64) -> Word {
        // order: Relaxed — heuristic read; any mutation that matters is
        // re-checked by a CAS on the same word.
        self.slots[object as usize].load(Ordering::Relaxed)
    }

    /// Read a slot word with acquire ordering (native executor): pairs
    /// with [`store_release`](Self::store_release) so a reader that
    /// observes a published word also sees everything the publisher
    /// wrote before it — in particular, an `INFLATED` word's slab entry.
    pub fn load_acquire(&self, object: u64) -> Word {
        // order: Acquire — pairs with store_release; observing an
        // INFLATED word must make the slab push that preceded it
        // visible, and observing a cleared HELD bit must make the
        // previous holder's critical section visible.
        self.slots[object as usize].load(Ordering::Acquire)
    }

    /// Ask the CPU to start pulling `object`'s slot word into cache, so
    /// a load issued a little later does not stall on it. A hint only:
    /// no value is read and nothing is ordered. Compiles to nothing off
    /// `x86_64`.
    #[inline]
    pub fn prefetch(&self, object: u64) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let word: *const Slot = &self.slots[object as usize];
            // SAFETY: a prefetch never faults and changes no memory.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(word.cast()) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = object;
    }

    /// Unconditionally store a slot word (deterministic executor only,
    /// where the simulation loop is the sole mutator).
    pub fn store(&self, object: u64, word: Word) {
        // order: Relaxed — single-mutator virtual-time executor.
        self.slots[object as usize].store(word, Ordering::Relaxed)
    }

    /// Store a slot word with release ordering (native executor). This
    /// is the unlock/publish store: clearing `HELD` must make the
    /// critical section visible to the next acquirer's
    /// [`cas`](Self::cas)/[`load_acquire`](Self::load_acquire), and
    /// publishing `INFLATED | index` must order the slab push before
    /// the word that points at it.
    pub fn store_release(&self, object: u64, word: Word) {
        // order: Release — pairs with the Acquire side of cas/
        // load_acquire; the slot word doubles as a lock word in the
        // native fast path.
        self.slots[object as usize].store(word, Ordering::Release)
    }

    /// Compare-and-swap a slot word (native executor). Success is
    /// AcqRel: acquiring the HELD bit must see the critical section it
    /// protects, releasing must publish it.
    pub fn cas(&self, object: u64, old: Word, new: Word) -> Result<Word, Word> {
        // order: AcqRel/Acquire — slot word doubles as a lock word in
        // the native fast path.
        self.slots[object as usize].compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Bytes occupied by at-rest per-object state: the slot array only.
    pub fn resident_bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<Slot>()) as u64
    }
}

/// Measured memory footprint of a service instance, split so the
/// bytes/object claim can distinguish the at-rest cost (which must stay
/// flat as the arena grows) from the hot-object cost (which tracks the
/// *working set*, not the arena size).
#[derive(Clone, Copy, Debug, Default)]
pub struct Footprint {
    /// Objects hosted.
    pub objects: u64,
    /// Slot-array bytes (4 × objects).
    pub slot_bytes: u64,
    /// Per-shard fixed state: limiters, switch logs, router tables.
    pub shard_bytes: u64,
    /// Lazily allocated hot-object side state (journals, stats,
    /// inflated locks).
    pub hot_bytes: u64,
    /// Hot objects currently tracked.
    pub hot_objects: u64,
}

impl Footprint {
    /// At-rest bytes per object: slot array plus shard overhead,
    /// excluding hot side state (which scales with the working set).
    pub fn at_rest_bytes_per_object(&self) -> f64 {
        if self.objects == 0 {
            return 0.0;
        }
        (self.slot_bytes + self.shard_bytes) as f64 / self.objects as f64
    }

    /// Total bytes per object including hot side state.
    pub fn total_bytes_per_object(&self) -> f64 {
        if self.objects == 0 {
            return 0.0;
        }
        (self.slot_bytes + self.shard_bytes + self.hot_bytes) as f64 / self.objects as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_array_is_four_bytes_per_object() {
        let a = ObjectArena::new(1_000, 8);
        assert_eq!(a.resident_bytes(), 4_000);
        assert_eq!(a.objects(), 1_000);
    }

    #[test]
    fn router_covers_all_shards() {
        let a = ObjectArena::new(100, 7);
        let mut seen = [false; 7];
        for obj in 0..100 {
            seen[a.shard_of(obj) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    proptest::proptest! {
        /// The mask fast path must be indistinguishable from the
        /// modulo definition for every object id and shard count.
        #[test]
        fn router_is_object_mod_shards(object in 0u64..u64::MAX,
                                       shards in 1u32..4097) {
            let a = ObjectArena::new(1, shards);
            proptest::prop_assert_eq!(
                u64::from(a.shard_of(object)),
                object % u64::from(shards)
            );
            proptest::prop_assert!(a.shard_of(object) < shards);
        }
    }

    #[test]
    fn cas_and_load_roundtrip() {
        let a = ObjectArena::new(4, 2);
        assert_eq!(a.load(3), 0);
        assert!(a.cas(3, 0, 42).is_ok());
        assert_eq!(a.load(3), 42);
        assert_eq!(a.cas(3, 0, 7), Err(42));
    }

    #[test]
    fn at_rest_footprint_is_flat() {
        let small = Footprint {
            objects: 1_000,
            slot_bytes: 4_000,
            shard_bytes: 4_096,
            ..Footprint::default()
        };
        let big = Footprint {
            objects: 1_000_000,
            slot_bytes: 4_000_000,
            shard_bytes: 4_096,
            ..Footprint::default()
        };
        assert!(big.at_rest_bytes_per_object() < small.at_rest_bytes_per_object());
        assert!(big.at_rest_bytes_per_object() < 5.0);
    }
}
