//! Deterministic pseudo-random number generation for the simulator.
//!
//! All nondeterminism in a simulation (think times, backoff jitter,
//! workload shapes) is drawn from a single seeded xorshift64* stream so
//! that runs are exactly reproducible.

/// xorshift64* step. Never returns 0 as the next state provided the seed
/// is non-zero; callers must not seed with 0 (we substitute a constant).
pub fn next(state: &mut u64) -> u64 {
    if *state == 0 {
        *state = 0x9E37_79B9_7F4A_7C15;
    }
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Uniform value in `[0, bound)`; `bound == 0` yields 0.
pub fn below(state: &mut u64, bound: u64) -> u64 {
    if bound == 0 {
        return 0;
    }
    next(state) % bound
}

/// Uniform value in `[0, 1)` with 53 bits of precision (IEEE-exact, so
/// runs are reproducible across hosts).
pub(crate) fn unit(state: &mut u64) -> f64 {
    (next(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = 42;
        let mut b = 42;
        let xs: Vec<u64> = (0..8).map(|_| next(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| next(&mut b)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn streams_are_independent_and_deterministic() {
        let (mut a, mut b, mut c) = (5u64, 5u64, 6u64);
        let xs: Vec<u64> = (0..16).map(|_| next(&mut a)).collect();
        let ys: Vec<u64> = (0..16).map(|_| next(&mut b)).collect();
        let zs: Vec<u64> = (0..16).map(|_| next(&mut c)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn zero_seed_recovers() {
        let mut s = 0;
        let v = next(&mut s);
        assert_ne!(v, 0);
        assert_ne!(s, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut s = 7;
        for bound in [1u64, 2, 3, 10, 501] {
            for _ in 0..100 {
                assert!(below(&mut s, bound) < bound);
            }
        }
        assert_eq!(below(&mut s, 0), 0);
    }
}
