//! Order statistics for repeated timings: medians, quartiles and
//! nearest-rank percentiles, plus the [`Summary`] a timing is reported as.

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
/// If `v` is empty or holds a NaN.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(v, n=4)` (exclusive method), so a spread
/// computed here is the spread the accepting driver computes. A single
/// sample is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "quartiles of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let n = s.len();
    if n == 1 {
        return (s[0], s[0]);
    }
    let cut = |i: usize| {
        // Python: j = i * (n + 1) // 4 clamped to [1, n - 1]; delta is the
        // remainder; result interpolates s[j - 1]..s[j].
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Percentile (`p` in 0..=100) of an ascending slice of integer samples,
/// by the grouped-data rule: find the nearest-rank value `v`, then add
/// the share of `v`'s tie group that lies below the rank. Integer
/// nanoseconds and cycles tie in their thousands, so a plain nearest
/// rank would read the same integer on every run and hide a shift of
/// the distribution until it crossed a whole unit.
pub fn percentile_grouped(sorted: &[u64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = (p / 100.0) * n as f64;
    let v = sorted[(rank.ceil() as usize).clamp(1, n) - 1];
    let below = sorted.partition_point(|&x| x < v);
    let through = sorted.partition_point(|&x| x <= v);
    let share = ((rank - below as f64) / (through - below) as f64).clamp(0.0, 1.0);
    v as f64 + share
}

/// Percentile from power-of-two bucket counts (`buckets[i]` counts
/// samples in `[2^i, 2^(i+1))`, bucket 0 holds 0 and 1), interpolating
/// within the bucket by count. Coarse in value but exact in population:
/// every sample is counted, where a reservoir keeps a few dozen samples
/// past a 99.9th percentile and so moves with the sampling.
pub fn percentile_from_buckets(buckets: &[u64], p: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    assert!(total > 0, "percentile of no samples");
    let rank = (p / 100.0) * total as f64;
    let mut before = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n > 0 && (before + n) as f64 >= rank {
            let (lo, width) = if i == 0 {
                (0.0, 2.0)
            } else {
                ((1u64 << i) as f64, (1u64 << i) as f64)
            };
            return lo + width * ((rank - before as f64) / n as f64).clamp(0.0, 1.0);
        }
        before += n;
    }
    unreachable!("rank {rank} beyond {total} samples")
}

/// Geometric mean of positive values.
pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geometric mean of no values");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// How one metric is reported: the median over repetitions with its
/// quartiles and the sample count. A counted (exact) metric has one
/// sample and `q1 == median == q3`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median over the repetitions.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Repetitions summarised.
    pub n: usize,
}

impl Summary {
    /// Summarise repeated samples.
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, q3) = quartiles(samples);
        Summary {
            median: median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// A single counted value.
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn percentile_interpolates_within_ties() {
        // Distinct values: the nearest-rank value plus a full step.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_grouped(&v, 50.0), 51.0);
        assert_eq!(percentile_grouped(&v, 0.0), 1.0);
        assert!((percentile_grouped(&[7u64], 99.9) - 7.999).abs() < 1e-12);
        // 60 samples of 15 then 40 of 90: the median rank 50 lies 50/60
        // of the way through the 15s.
        let mut tied = vec![15u64; 60];
        tied.extend([90; 40]);
        assert!((percentile_grouped(&tied, 50.0) - (15.0 + 50.0 / 60.0)).abs() < 1e-12);
        assert!((percentile_grouped(&tied, 80.0) - 90.5).abs() < 1e-12);
        assert_eq!(percentile_grouped(&tied, 100.0), 91.0);
    }

    #[test]
    fn bucket_percentile_interpolates_by_count() {
        // 100 samples in [0,2), 100 in [4,8), 10 in [1024,2048).
        let mut b = vec![0u64; 11];
        (b[0], b[2], b[10]) = (100, 100, 10);
        assert_eq!(percentile_from_buckets(&b, 0.0), 0.0);
        // Rank 105 of 210: 5 of the 100 samples into [4,8).
        assert!((percentile_from_buckets(&b, 50.0) - 4.2).abs() < 1e-12);
        // Rank 205: half way through the last bucket.
        let p = 100.0 * 205.0 / 210.0;
        assert!((percentile_from_buckets(&b, p) - 1536.0).abs() < 1e-9);
        assert_eq!(percentile_from_buckets(&b, 100.0), 2048.0);
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        assert!((geomean(&[4.0, 0.25]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_spread() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.n, 5);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::exact(9.0).spread(), 0.0);
    }
}
