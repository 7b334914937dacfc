//! The benchmark's own load generators: a seeded xorshift, a Zipf table
//! and pre-generated request streams. They are built during `setup_s`;
//! the program under test sees only the finished `(object, hold_ns)`
//! arrays (or a config carrying the seed), never a generator.

/// xorshift64* — small, seedable, and independent of the RNGs inside the
/// crates under test, so a change there cannot alter the offered load.
#[derive(Clone, Debug)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeded generator; any seed is valid (0 is remapped).
    pub fn new(seed: u64) -> XorShift {
        // splitmix64 step: neighbouring seeds give unrelated streams.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        XorShift(if z == 0 { 0x2545_F491_4F6C_DD1D } else { z })
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Exact Zipf(θ) over ranks `0..n` as a cumulative table (rank 0 is the
/// hottest), sampled by binary search.
#[derive(Clone, Debug)]
pub struct ZipfTable {
    cumulative: Vec<f64>,
}

impl ZipfTable {
    /// Build the table: `P(rank r) ∝ (r + 1)^-θ`.
    pub fn new(n: usize, theta: f64) -> ZipfTable {
        assert!(n > 0, "Zipf over an empty range");
        assert!(theta >= 0.0, "negative Zipf exponent");
        let mut cumulative = Vec::with_capacity(n);
        let mut sum = 0.0;
        for r in 0..n {
            sum += ((r + 1) as f64).powf(-theta);
            cumulative.push(sum);
        }
        for c in &mut cumulative {
            *c /= sum;
        }
        ZipfTable { cumulative }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut XorShift) -> usize {
        let u = rng.unit();
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// One pre-generated request: which object to lock and for how long.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Arena object id.
    pub object: u32,
    /// Time to hold the lock, in host nanoseconds.
    pub hold_ns: u32,
}

/// Multiplier that scatters Zipf ranks over the object range, so hot
/// ranks do not sit in adjacent slots (and so not in one cache line or
/// one shard).
const SCATTER: u64 = 1_000_003;

/// A request stream of `len` entries over objects `0..objects`.
pub fn build_stream(
    len: usize,
    zipf: &ZipfTable,
    objects: u64,
    hold_ns: u32,
    seed: u64,
) -> Vec<Request> {
    assert_eq!(gcd(SCATTER, objects), 1, "scatter must permute the range");
    assert!(objects <= u64::from(u32::MAX), "object ids are 32-bit");
    let mut rng = XorShift::new(seed);
    (0..len)
        .map(|_| {
            let rank = zipf.sample(&mut rng) as u64;
            Request {
                object: ((rank * SCATTER) % objects) as u32,
                hold_ns,
            }
        })
        .collect()
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_seeded() {
        let a: Vec<u64> = {
            let mut r = XorShift::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = XorShift::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = XorShift::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = XorShift::new(1);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_zero_is_uniform_and_high_theta_is_skewed() {
        let mut r = XorShift::new(3);
        let flat = ZipfTable::new(10, 0.0);
        let mut seen = [0u32; 10];
        for _ in 0..20_000 {
            seen[flat.sample(&mut r)] += 1;
        }
        assert!(
            seen.iter().all(|&c| (1_600..2_400).contains(&c)),
            "{seen:?}"
        );

        let hot = ZipfTable::new(8, 0.95);
        let mut first = 0;
        for _ in 0..20_000 {
            first += u32::from(hot.sample(&mut r) == 0);
        }
        // P(rank 0) = 1 / H(8, 0.95) ≈ 0.355.
        assert!((6_500..7_700).contains(&first), "{first}");
    }

    #[test]
    fn streams_are_seeded_and_in_range() {
        let z = ZipfTable::new(1_000, 0.2);
        let a = build_stream(4_096, &z, 1_000, 200, 1);
        let b = build_stream(4_096, &z, 1_000, 200, 1);
        let c = build_stream(4_096, &z, 1_000, 200, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|r| r.object < 1_000 && r.hold_ns == 200));
    }

    #[test]
    fn scatter_is_a_permutation() {
        let z = ZipfTable::new(8, 0.0);
        let s = build_stream(2_000, &z, 8, 0, 5);
        let mut seen = [false; 8];
        for r in &s {
            seen[r.object as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
