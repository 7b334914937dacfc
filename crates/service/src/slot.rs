//! The packed per-object slot word.
//!
//! At 10⁶ objects the per-object state must be memory-bounded: a full
//! [`SwitchKernel`](reactive_api::SwitchKernel)-backed reactive lock
//! carries a boxed policy, an instrumentation `Arc`, and a journal —
//! hundreds of bytes. The arena instead keeps **one `u32` per object at
//! rest** and packs everything the cold path needs into it; switch
//! journals, per-object statistics, and (in the native executor) a full
//! kernel-backed [`ReactiveLock`](reactive_native::ReactiveLock) are
//! lazily allocated only once an object proves hot. Every bit is paid
//! once per object, so the word is the thin-lock trade (Bacon et al.,
//! PLDI '98): a lock in a fraction of a header word.
//!
//! Layout (low to high bits):
//!
//! | bits  | field            | meaning                                          |
//! |-------|------------------|--------------------------------------------------|
//! | 0     | `HELD`           | native fast-path spin bit                        |
//! | 1     | `INFLATED`       | native: object promoted to a full reactive lock  |
//! | 2-3   | `MODE`           | current protocol (0 = TTS-like, 1 = queue)       |
//! | 4-7   | contended streak | saturating count of consecutive contended grants |
//! | 8-11  | calm streak      | saturating count of consecutive calm grants      |
//! | 12    | `WAITERS`        | native: a spinner registered during this hold    |
//! | 13    | `SIDE`           | virtual: the object has a waiter-queue entry     |
//! | 14-19 | in-flight count  | native: registered inflated-path acquirers (≤ 63)|
//! | 20-31 | inflation index  | slab index of the inflated lock (when `INFLATED`)|
//!
//! The two native-only counters are narrow on purpose, and the native
//! executor keeps them total instead of letting them carry: an acquirer
//! that finds the in-flight count at [`INFLIGHT_MAX`] backs off without
//! registering, and an inflation that would need an index past
//! [`INDEX_LIMIT`] is refused like a limiter denial (see `native.rs`).
//!
//! The mode/validity discipline mirrors the switching kernel's: the
//! mode field is committed in one store together with the streak reset,
//! so an object is never observably "between" protocols, and in the
//! native world the `INFLATED` bit is only ever set by the current
//! holder of the fast-path bit (see `native.rs`), preserving the
//! at-most-one-valid-protocol invariant across the promotion.
//!
//! Two fields exist purely for the native executor's *demotion*
//! (deflation) protocol. `WAITERS` is the futex-style contended bit: a
//! flat spinner sets it once per hold, the releasing owner reads it as
//! this hold's contention evidence, and the next flat winner clears it
//! — so streaks accrue at release time and survive the capture effect
//! (one thread re-winning its own lock) that starves acquirer-side
//! observation on small machines. The in-flight count is the
//! registration refcount of inflated-path acquirers: registering (a
//! `+= REF_ONE` CAS) and deflating (a CAS that requires the count to be
//! exactly the holder's own 1) arbitrate on the same word, which is
//! what makes demotion linearizable without a stop-the-world quiesce.

/// A packed slot word.
pub type Word = u32;

/// Native fast-path lock bit.
pub const HELD: Word = 1;
/// Object has been promoted to a full kernel-backed reactive lock.
pub const INFLATED: Word = 1 << 1;
/// Native flat path: a spinner registered interest during the current
/// hold. Set by waiters, read (as contention evidence) and cleared by
/// the release/acquire that ends the hold.
pub const WAITERS: Word = 1 << 12;
/// Virtual executor only: a side-table entry (the object's waiter
/// queue) exists, so a release must look it up. Set with the entry by
/// the first waiter and cleared with it by the release that finds the
/// queue empty; a calm release sees it clear and skips the lookup. The
/// native executor never sets it.
pub const SIDE: Word = 1 << 13;
/// One in-flight inflated-path acquirer (the registration refcount
/// lives in bits 14-19; add/subtract this to register/deregister).
pub const REF_ONE: Word = 1 << REF_SHIFT;
/// The largest in-flight count the field holds: an acquirer that finds
/// it must not register.
pub const INFLIGHT_MAX: u32 = REF_MASK;
/// Slab indices the index field can name: `0..INDEX_LIMIT`.
pub const INDEX_LIMIT: u32 = 1 << (Word::BITS - INDEX_SHIFT);

const MODE_SHIFT: u32 = 2;
const MODE_MASK: Word = 0b11 << MODE_SHIFT;
const CONTENDED_SHIFT: u32 = 4;
const CALM_SHIFT: u32 = 8;
const STREAK_MASK: Word = 0xF;
const STREAKS: Word = (STREAK_MASK << CONTENDED_SHIFT) | (STREAK_MASK << CALM_SHIFT);
const REF_SHIFT: u32 = 14;
const REF_MASK: Word = 0x3F;
const INDEX_SHIFT: u32 = 20;

/// The flat word a deflating holder publishes: TTS mode, clear streaks,
/// and no hold, waiter, refcount or index state. Nothing of the
/// inflated word survives demotion.
pub const DEFLATED: Word = (MODE_TTS as Word) << MODE_SHIFT;

/// Protocol id of the TTS-like (cheap, unfair, melts under contention)
/// mode — matches [`reactive_native::reactive::PROTO_TTS`].
pub const MODE_TTS: u8 = 0;
/// Protocol id of the queue (scalable, FIFO, dearer when idle) mode —
/// matches [`reactive_native::reactive::PROTO_QUEUE`].
pub const MODE_QUEUE: u8 = 1;

/// Current protocol of a slot word.
pub fn mode(word: Word) -> u8 {
    ((word & MODE_MASK) >> MODE_SHIFT) as u8
}

/// Replace the protocol field, clearing both streaks (a mode change
/// resets the evidence that drove it, exactly like the kernel's
/// post-commit policy reset). `m` is masked to the 2-bit field so an
/// out-of-range id can never leak into the streak bits.
pub fn with_mode(word: Word, m: u8) -> Word {
    (word & !(MODE_MASK | STREAKS)) | ((Word::from(m) << MODE_SHIFT) & MODE_MASK)
}

/// Saturating contended-grant streak.
pub fn contended_streak(word: Word) -> u8 {
    ((word >> CONTENDED_SHIFT) & STREAK_MASK) as u8
}

/// Saturating calm-grant streak.
pub fn calm_streak(word: Word) -> u8 {
    ((word >> CALM_SHIFT) & STREAK_MASK) as u8
}

/// Record one grant observation: bump the matching streak (saturating
/// at 15) and zero the opposite one.
pub fn observe(word: Word, contended: bool) -> Word {
    let shift = if contended {
        CONTENDED_SHIFT
    } else {
        CALM_SHIFT
    };
    let streak = ((word >> shift) & STREAK_MASK).saturating_add(1).min(15);
    (word & !STREAKS) | (streak << shift)
}

/// Zero both streaks (the limiter-denied backoff: the object must
/// re-accumulate its evidence before asking again, which spreads a
/// thundering herd of switch requests over time).
pub fn clear_streaks(word: Word) -> Word {
    word & !STREAKS
}

/// Raise the contended streak to at least `streak` (saturating at 15)
/// and zero the calm streak — the long-wait fast path: a winner whose
/// measured flat wait was pathological seeds the full inflation
/// evidence at once, instead of waiting for per-release observations
/// that a capturing holder keeps wiping out.
pub fn saturate_contended(word: Word, streak: u8) -> Word {
    let new = Word::from(contended_streak(word).max(streak).min(15));
    (word & !STREAKS) | (new << CONTENDED_SHIFT)
}

/// Registered inflated-path acquirers currently in flight (meaningful
/// only while `INFLATED` is set; the holder's own registration counts).
pub fn inflight(word: Word) -> u32 {
    (word >> REF_SHIFT) & REF_MASK
}

/// Inflation slab index (meaningful only when `INFLATED` is set).
pub fn index(word: Word) -> u32 {
    word >> INDEX_SHIFT
}

/// Mark the word inflated with the given slab index, which must be
/// below [`INDEX_LIMIT`].
pub fn with_index(word: Word, idx: u32) -> Word {
    debug_assert!(idx < INDEX_LIMIT, "slab index {idx} past the index field");
    (word & !(Word::MAX << INDEX_SHIFT)) | INFLATED | (idx << INDEX_SHIFT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_roundtrip_preserves_other_bits() {
        let w = HELD | WAITERS | with_index(0, 7);
        for m in [MODE_TTS, MODE_QUEUE, 2, 3] {
            let v = with_mode(w, m);
            assert_eq!(mode(v), m);
            assert_eq!(v & HELD, HELD);
            assert_eq!(v & WAITERS, WAITERS);
            assert_eq!(index(v), 7);
        }
    }

    #[test]
    fn out_of_range_mode_is_masked_to_the_field() {
        let w = HELD | WAITERS | with_index(0, 7);
        // Only the low two bits of `m` may land in the word: bit 2 of
        // an oversized id must not shift into the contended streak.
        let v = with_mode(w, 0b111);
        assert_eq!(mode(v), 0b11);
        assert_eq!(contended_streak(v), 0);
        assert_eq!(calm_streak(v), 0);
        assert_eq!(v & HELD, HELD);
        assert_eq!(v & WAITERS, WAITERS);
        assert_eq!(index(v), 7);
    }

    #[test]
    fn observe_bumps_and_clears() {
        let mut w = 0;
        for i in 1..=20u8 {
            w = observe(w, true);
            assert_eq!(contended_streak(w), i.min(15));
            assert_eq!(calm_streak(w), 0);
        }
        w = observe(w, false);
        assert_eq!(contended_streak(w), 0);
        assert_eq!(calm_streak(w), 1);
        assert_eq!(clear_streaks(w), 0);
    }

    #[test]
    fn mode_change_resets_streaks() {
        let mut w = 0;
        for _ in 0..5 {
            w = observe(w, true);
        }
        let v = with_mode(w, MODE_QUEUE);
        assert_eq!(mode(v), MODE_QUEUE);
        assert_eq!(contended_streak(v), 0);
        assert_eq!(calm_streak(v), 0);
    }

    #[test]
    fn index_field_is_independent() {
        let w = with_mode(HELD, MODE_QUEUE) + INFLIGHT_MAX * REF_ONE;
        let v = with_index(w, INDEX_LIMIT - 1);
        assert_eq!(index(v), INDEX_LIMIT - 1);
        assert_eq!(inflight(v), INFLIGHT_MAX);
        assert_eq!(mode(v), MODE_QUEUE);
        assert_ne!(v & INFLATED, 0);
        assert_eq!(index(with_index(v, 5)), 5, "a new index replaces the old");
    }

    #[test]
    fn saturate_contended_seeds_without_touching_other_fields() {
        let word = with_index(HELD | WAITERS | REF_ONE, 7);
        let seeded = saturate_contended(word, 3);
        assert_eq!(contended_streak(seeded), 3);
        assert_eq!(calm_streak(seeded), 0);
        assert_eq!(seeded & !0xFF0, word & !0xFF0, "only streak fields move");
        // Already past the seed: the higher streak survives.
        let hot = observe(observe(observe(observe(word, true), true), true), true);
        assert_eq!(contended_streak(saturate_contended(hot, 3)), 4);
        // Saturates at the 4-bit field cap.
        assert_eq!(contended_streak(saturate_contended(word, 99)), 15);
    }

    #[test]
    fn refcount_field_is_independent() {
        let mut w = with_index(with_mode(WAITERS, MODE_QUEUE), 9);
        assert_eq!(inflight(w), 0);
        for n in 1..=INFLIGHT_MAX {
            w += REF_ONE;
            assert_eq!(inflight(w), n);
        }
        // Registration arithmetic up to the saturated count must not
        // leak into its neighbours.
        assert_eq!(index(w), 9);
        assert_eq!(mode(w), MODE_QUEUE);
        assert_ne!(w & WAITERS, 0);
        w -= REF_ONE;
        assert_eq!(inflight(w), INFLIGHT_MAX - 1);
        // Streak observation leaves the refcount alone.
        assert_eq!(inflight(observe(w, true)), INFLIGHT_MAX - 1);
        assert_eq!(inflight(with_mode(w, MODE_TTS)), INFLIGHT_MAX - 1);
    }

    #[test]
    fn deflated_word_carries_nothing() {
        let d = DEFLATED;
        assert_eq!(mode(d), MODE_TTS);
        assert_eq!((contended_streak(d), calm_streak(d)), (0, 0));
        assert_eq!(inflight(d), 0);
        assert_eq!(d & (HELD | INFLATED | WAITERS | SIDE), 0);
        assert_eq!(d, 0, "no field of an inflated word survives demotion");
    }

    /// The 64-bit layout the word had before it shrank (with its dead
    /// `HOT` bit 12 and `WAITERS`/`SIDE` at bits 13/14): the reference
    /// every accessor and decision of the narrow word is held to.
    mod wide {
        pub const HELD: u64 = 1;
        pub const INFLATED: u64 = 1 << 1;
        pub const WAITERS: u64 = 1 << 13;
        pub const SIDE: u64 = 1 << 14;
        pub const REF_ONE: u64 = 1 << 16;
        const MODE_MASK: u64 = 0b11 << 2;
        const STREAK_MASK: u64 = 0xF;

        pub fn mode(w: u64) -> u8 {
            ((w & MODE_MASK) >> 2) as u8
        }
        pub fn with_mode(w: u64, m: u8) -> u64 {
            (w & !(MODE_MASK | (STREAK_MASK << 4) | (STREAK_MASK << 8)))
                | ((u64::from(m) << 2) & MODE_MASK)
        }
        pub fn contended_streak(w: u64) -> u8 {
            ((w >> 4) & STREAK_MASK) as u8
        }
        pub fn calm_streak(w: u64) -> u8 {
            ((w >> 8) & STREAK_MASK) as u8
        }
        pub fn observe(w: u64, contended: bool) -> u64 {
            let (bump, clear) = if contended { (4, 8) } else { (8, 4) };
            let streak = ((w >> bump) & STREAK_MASK).saturating_add(1).min(15);
            (w & !((STREAK_MASK << bump) | (STREAK_MASK << clear))) | (streak << bump)
        }
        pub fn clear_streaks(w: u64) -> u64 {
            w & !((STREAK_MASK << 4) | (STREAK_MASK << 8))
        }
        pub fn saturate_contended(w: u64, streak: u8) -> u64 {
            let new = u64::from(contended_streak(w).max(streak).min(15));
            clear_streaks(w) | (new << 4)
        }
        pub fn inflight(w: u64) -> u32 {
            ((w >> 16) & 0xFFFF) as u32
        }
        pub fn index(w: u64) -> u32 {
            (w >> 32) as u32
        }
        pub fn with_index(w: u64, idx: u32) -> u64 {
            (w & !(u64::MAX << 32)) | INFLATED | (u64::from(idx) << 32)
        }
    }

    /// The wide word holding the same fields as `w`.
    fn widen(w: Word) -> u64 {
        let flag = |bit: Word, wide: u64| if w & bit != 0 { wide } else { 0 };
        u64::from(w & 0xFFF)
            | flag(WAITERS, wide::WAITERS)
            | flag(SIDE, wide::SIDE)
            | (u64::from(inflight(w)) * wide::REF_ONE)
            | (u64::from(index(w)) << 32)
    }

    /// Every accessor, every transition and every threshold either
    /// executor decides on agrees with the wide layout on `w`.
    fn agrees_with_the_wide_layout(w: Word) {
        let v = widen(w);
        assert_eq!(mode(w), wide::mode(v), "{w:#x}");
        assert_eq!(contended_streak(w), wide::contended_streak(v), "{w:#x}");
        assert_eq!(calm_streak(w), wide::calm_streak(v), "{w:#x}");
        assert_eq!(inflight(w), wide::inflight(v), "{w:#x}");
        assert_eq!(index(w), wide::index(v), "{w:#x}");
        for (bit, wide_bit) in [
            (HELD, wide::HELD),
            (INFLATED, wide::INFLATED),
            (WAITERS, wide::WAITERS),
            (SIDE, wide::SIDE),
        ] {
            assert_eq!(w & bit != 0, v & wide_bit != 0, "{w:#x}");
        }
        // The thresholds: inflate / switch up, deflate, switch down, and
        // the calm-grant test of an inflated release.
        assert_eq!(contended_streak(w) >= 3, wide::contended_streak(v) >= 3);
        assert_eq!(calm_streak(w) >= 8, wide::calm_streak(v) >= 8);
        assert_eq!(calm_streak(w) >= 12, wide::calm_streak(v) >= 12);
        assert_eq!(inflight(w) == 1, wide::inflight(v) == 1);
        for contended in [false, true] {
            assert_eq!(widen(observe(w, contended)), wide::observe(v, contended));
        }
        for m in 0..=4 {
            assert_eq!(widen(with_mode(w, m)), wide::with_mode(v, m), "{w:#x}");
        }
        for s in [0, 3, 15, 99] {
            assert_eq!(
                widen(saturate_contended(w, s)),
                wide::saturate_contended(v, s)
            );
        }
        assert_eq!(widen(clear_streaks(w)), wide::clear_streaks(v));
        for idx in [0, 1, INDEX_LIMIT - 1] {
            assert_eq!(widen(with_index(w, idx)), wide::with_index(v, idx));
        }
        if inflight(w) < INFLIGHT_MAX {
            assert_eq!(widen(w + REF_ONE), v + wide::REF_ONE, "{w:#x}");
        }
        if inflight(w) > 0 {
            assert_eq!(widen(w - REF_ONE), v - wide::REF_ONE, "{w:#x}");
        }
    }

    #[test]
    fn narrow_word_decides_as_the_wide_one_did() {
        // Every flat word: all fourteen low bits, no count or index.
        for w in 0..1 << REF_SHIFT {
            agrees_with_the_wide_layout(w);
        }
        // A sample of inflated words: every count against a spread of
        // indices, low bits drawn from a fixed xorshift stream.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        for count in 0..=INFLIGHT_MAX {
            for idx in [0, 1, 2, 31, 32, 1000, INDEX_LIMIT - 2, INDEX_LIMIT - 1] {
                for _ in 0..16 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let low = (state as Word) & ((1 << REF_SHIFT) - 1);
                    agrees_with_the_wide_layout(with_index(low, idx) + count * REF_ONE);
                }
            }
        }
    }
}
