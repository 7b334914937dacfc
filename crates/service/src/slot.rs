//! The packed per-object slot word.
//!
//! At 10⁶ objects the per-object state must be memory-bounded: a full
//! [`SwitchKernel`](reactive_api::SwitchKernel)-backed reactive lock
//! carries a boxed policy, an instrumentation `Arc`, and a journal —
//! hundreds of bytes. The arena instead keeps **one `u64` per object at
//! rest** and packs everything the cold path needs into it; switch
//! journals, per-object statistics, and (in the native executor) a full
//! kernel-backed [`ReactiveLock`](reactive_native::ReactiveLock) are
//! lazily allocated only once an object proves hot.
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
//! | 12    | `HOT`            | a lazily allocated hot-stat entry exists         |
//! | 13    | `WAITERS`        | native: a spinner registered during this hold    |
//! | 14    | `SIDE`           | virtual: the object has a waiter-queue entry     |
//! | 15    | (reserved)       | zero                                             |
//! | 16-31 | in-flight count  | native: registered inflated-path acquirers       |
//! | 32-63 | inflation index  | slab index of the inflated lock (when `INFLATED`)|
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

/// Native fast-path lock bit.
pub const HELD: u64 = 1;
/// Object has been promoted to a full kernel-backed reactive lock.
pub const INFLATED: u64 = 1 << 1;
/// A lazily allocated hot-stat entry exists for this object.
pub const HOT: u64 = 1 << 12;
/// Native flat path: a spinner registered interest during the current
/// hold. Set by waiters, read (as contention evidence) and cleared by
/// the release/acquire that ends the hold.
pub const WAITERS: u64 = 1 << 13;
/// Virtual executor only: a side-table entry (the object's waiter
/// queue) exists, so a release must look it up. Set with the entry by
/// the first waiter and cleared with it by the release that finds the
/// queue empty; a calm release sees it clear and skips the lookup. The
/// native executor never sets it.
pub const SIDE: u64 = 1 << 14;
/// One in-flight inflated-path acquirer (the registration refcount
/// lives in bits 16-31; add/subtract this to register/deregister).
pub const REF_ONE: u64 = 1 << REF_SHIFT;

const MODE_SHIFT: u32 = 2;
const MODE_MASK: u64 = 0b11 << MODE_SHIFT;
const CONTENDED_SHIFT: u32 = 4;
const CALM_SHIFT: u32 = 8;
const STREAK_MASK: u64 = 0xF;
const REF_SHIFT: u32 = 16;
const REF_MASK: u64 = 0xFFFF;
const INDEX_SHIFT: u32 = 32;

/// Per-object bits that survive a protocol promotion or demotion: the
/// hot-stat marker is object identity, not hold state, so inflation and
/// deflation must carry it through their published words.
const CARRY_MASK: u64 = HOT;

/// Protocol id of the TTS-like (cheap, unfair, melts under contention)
/// mode — matches [`reactive_native::reactive::PROTO_TTS`].
pub const MODE_TTS: u8 = 0;
/// Protocol id of the queue (scalable, FIFO, dearer when idle) mode —
/// matches [`reactive_native::reactive::PROTO_QUEUE`].
pub const MODE_QUEUE: u8 = 1;

/// Current protocol of a slot word.
pub fn mode(word: u64) -> u8 {
    ((word & MODE_MASK) >> MODE_SHIFT) as u8
}

/// Replace the protocol field, clearing both streaks (a mode change
/// resets the evidence that drove it, exactly like the kernel's
/// post-commit policy reset). `m` is masked to the 2-bit field so an
/// out-of-range id can never leak into the streak bits.
pub fn with_mode(word: u64, m: u8) -> u64 {
    let cleared =
        word & !(MODE_MASK | (STREAK_MASK << CONTENDED_SHIFT) | (STREAK_MASK << CALM_SHIFT));
    cleared | (((m as u64) << MODE_SHIFT) & MODE_MASK)
}

/// Saturating contended-grant streak.
pub fn contended_streak(word: u64) -> u8 {
    ((word >> CONTENDED_SHIFT) & STREAK_MASK) as u8
}

/// Saturating calm-grant streak.
pub fn calm_streak(word: u64) -> u8 {
    ((word >> CALM_SHIFT) & STREAK_MASK) as u8
}

/// Record one grant observation: bump the matching streak (saturating
/// at 15) and zero the opposite one.
pub fn observe(word: u64, contended: bool) -> u64 {
    let (bump_shift, clear_shift) = if contended {
        (CONTENDED_SHIFT, CALM_SHIFT)
    } else {
        (CALM_SHIFT, CONTENDED_SHIFT)
    };
    let streak = ((word >> bump_shift) & STREAK_MASK)
        .saturating_add(1)
        .min(15);
    (word & !((STREAK_MASK << bump_shift) | (STREAK_MASK << clear_shift))) | (streak << bump_shift)
}

/// Zero both streaks (the limiter-denied backoff: the object must
/// re-accumulate its evidence before asking again, which spreads a
/// thundering herd of switch requests over time).
pub fn clear_streaks(word: u64) -> u64 {
    word & !((STREAK_MASK << CONTENDED_SHIFT) | (STREAK_MASK << CALM_SHIFT))
}

/// Raise the contended streak to at least `streak` (saturating at 15)
/// and zero the calm streak — the long-wait fast path: a winner whose
/// measured flat wait was pathological seeds the full inflation
/// evidence at once, instead of waiting for per-release observations
/// that a capturing holder keeps wiping out.
pub fn saturate_contended(word: u64, streak: u8) -> u64 {
    let cur = contended_streak(word);
    let new = u64::from(cur.max(streak).min(15));
    (word & !((STREAK_MASK << CONTENDED_SHIFT) | (STREAK_MASK << CALM_SHIFT)))
        | (new << CONTENDED_SHIFT)
}

/// Registered inflated-path acquirers currently in flight (meaningful
/// only while `INFLATED` is set; the holder's own registration counts).
pub fn inflight(word: u64) -> u32 {
    ((word >> REF_SHIFT) & REF_MASK) as u32
}

/// The per-object bits that persist across inflation and deflation
/// (currently just `HOT`); everything transient — hold bits, streaks,
/// refcount, index — is dropped.
pub fn carry_bits(word: u64) -> u64 {
    word & CARRY_MASK
}

/// The flat word a deflating holder publishes: demoted to TTS mode with
/// clear streaks and no hold/waiter/refcount state, carrying only the
/// persistent per-object bits.
pub fn deflated(word: u64) -> u64 {
    with_mode(carry_bits(word), MODE_TTS)
}

/// Inflation slab index (meaningful only when `INFLATED` is set).
pub fn index(word: u64) -> u32 {
    (word >> INDEX_SHIFT) as u32
}

/// Mark the word inflated with the given slab index.
pub fn with_index(word: u64, idx: u32) -> u64 {
    (word & !(u64::MAX << INDEX_SHIFT)) | INFLATED | ((idx as u64) << INDEX_SHIFT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_roundtrip_preserves_other_bits() {
        let w = HELD | HOT | with_index(0, 7);
        for m in [MODE_TTS, MODE_QUEUE, 2, 3] {
            let v = with_mode(w, m);
            assert_eq!(mode(v), m);
            assert_eq!(v & HELD, HELD);
            assert_eq!(v & HOT, HOT);
            assert_eq!(index(v), 7);
        }
    }

    #[test]
    fn out_of_range_mode_is_masked_to_the_field() {
        let w = HELD | HOT | with_index(0, 7);
        // Only the low two bits of `m` may land in the word: bit 2 of
        // an oversized id must not shift into the contended streak.
        let v = with_mode(w, 0b111);
        assert_eq!(mode(v), 0b11);
        assert_eq!(contended_streak(v), 0);
        assert_eq!(calm_streak(v), 0);
        assert_eq!(v & HELD, HELD);
        assert_eq!(v & HOT, HOT);
        assert_eq!(index(v), 7);
    }

    #[test]
    fn observe_bumps_and_clears() {
        let mut w = 0u64;
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
        let mut w = 0u64;
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
        let w = with_mode(HELD, MODE_QUEUE);
        let v = with_index(w, u32::MAX);
        assert_eq!(index(v), u32::MAX);
        assert_eq!(mode(v), MODE_QUEUE);
        assert_ne!(v & INFLATED, 0);
    }

    #[test]
    fn saturate_contended_seeds_without_touching_other_fields() {
        let word = with_index(HELD | WAITERS | HOT | REF_ONE, 7);
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
        let mut w = with_index(with_mode(HOT | WAITERS, MODE_QUEUE), 9);
        assert_eq!(inflight(w), 0);
        for n in 1..=5u32 {
            w += REF_ONE;
            assert_eq!(inflight(w), n);
        }
        // Registration arithmetic must not leak into its neighbours.
        assert_eq!(index(w), 9);
        assert_eq!(mode(w), MODE_QUEUE);
        assert_ne!(w & HOT, 0);
        assert_ne!(w & WAITERS, 0);
        w -= REF_ONE;
        assert_eq!(inflight(w), 4);
        // Streak observation leaves the refcount alone.
        assert_eq!(inflight(observe(w, true)), 4);
        assert_eq!(inflight(with_mode(w, MODE_TTS)), 4);
    }

    #[test]
    fn deflated_word_keeps_only_carry_bits() {
        let mut w = with_index(HELD | HOT | WAITERS, 3) + 2 * REF_ONE;
        for _ in 0..5 {
            w = observe(w, false);
        }
        let d = deflated(w);
        assert_eq!(d, HOT, "only the carry bits survive demotion");
        assert_eq!(mode(d), MODE_TTS);
        assert_eq!(inflight(d), 0);
        assert_eq!(calm_streak(d), 0);
        assert_eq!(d & (HELD | INFLATED | WAITERS), 0);
        assert_eq!(carry_bits(w), HOT);
    }
}
