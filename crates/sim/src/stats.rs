//! Simulation statistics: machine-level counters and waiting-time
//! histograms used by the Chapter 4 experiments (Figures 4.6-4.11) and
//! the lock-service percentile reporting (p50/p99/p999).

use std::cell::{Cell, Ref, RefCell};
use std::collections::BTreeMap;

/// A histogram of waiting times (cycles) with power-of-two buckets plus
/// exact moments. Keeps up to [`WaitHistogram::MAX_RAW`] raw samples for
/// percentile/profile plots; past the cap it switches to seeded
/// reservoir sampling (Algorithm R over a deterministic xorshift64*
/// stream), so percentiles of long runs stay a uniform — and, for a
/// fixed seed and input stream, bit-reproducible — sample instead of a
/// biased prefix.
#[derive(Clone, Debug, Default)]
pub struct WaitHistogram {
    /// bucket\[i\] counts samples in `[2^i, 2^(i+1))` (bucket 0 holds 0-1).
    pub buckets: Vec<u64>,
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Retained samples (size capped; reservoir-sampled past the cap).
    pub raw: Vec<u64>,
    /// Lazily maintained sorted copy of `raw` for percentile queries;
    /// rebuilt only when `raw` has changed since the last query instead
    /// of clone-and-sort on every call.
    sorted: RefCell<Vec<u64>>,
    /// Dirty flag for `sorted` (reservoir replacement mutates `raw`
    /// without growing it, so a length check is not enough).
    stale: Cell<bool>,
    /// xorshift64* state for reservoir replacement. 0 (the default)
    /// lets the generator substitute its fixed non-zero constant, so a
    /// default-built histogram is already deterministically seeded.
    rng: u64,
    /// Raw-sample cap override; 0 means [`WaitHistogram::MAX_RAW`].
    cap: usize,
}

impl WaitHistogram {
    /// Cap on retained raw samples (default; see [`Self::with_sampling`]).
    pub const MAX_RAW: usize = 200_000;

    /// Reserve step for `raw` (chunked so long runs do not pay a
    /// doubling reallocation storm on the record path).
    const RAW_CHUNK: usize = 4_096;

    /// Create an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty histogram with an explicit reservoir capacity
    /// and seed. Two histograms fed the same sample stream with the
    /// same `cap` and `seed` retain identical reservoirs, so reported
    /// percentiles are reproducible run-to-run.
    ///
    /// # Panics
    /// If `cap` is 0 (a percentile query needs at least one sample).
    pub fn with_sampling(cap: usize, seed: u64) -> Self {
        assert!(cap > 0, "reservoir capacity must be positive");
        WaitHistogram {
            rng: seed,
            cap,
            ..Self::default()
        }
    }

    /// The effective raw-sample cap.
    fn raw_cap(&self) -> usize {
        if self.cap == 0 {
            Self::MAX_RAW
        } else {
            self.cap
        }
    }

    /// Record one waiting time in cycles.
    pub fn record(&mut self, t: u64) {
        let b = (64 - t.leading_zeros()).saturating_sub(1) as usize;
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += t;
        self.max = self.max.max(t);
        let cap = self.raw_cap();
        if self.raw.len() < cap {
            if self.raw.len() == self.raw.capacity() {
                // Pre-reserve growth toward the cap in fixed chunks.
                let grow = Self::RAW_CHUNK.min(cap - self.raw.len());
                self.raw.reserve_exact(grow);
            }
            self.raw.push(t);
            self.stale.set(true);
        } else {
            // Algorithm R: sample `count` (1-based index of this item)
            // replaces a uniformly random reservoir slot with
            // probability cap/count, keeping the reservoir a uniform
            // sample of everything seen so far.
            let j = crate::rng::below(&mut self.rng, self.count);
            if (j as usize) < cap {
                self.raw[j as usize] = t;
                self.stale.set(true);
            }
        }
    }

    /// Mean waiting time, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Sorted view of the retained samples, rebuilt only when `record`
    /// has touched `raw` since the last query.
    fn sorted(&self) -> Ref<'_, Vec<u64>> {
        {
            let mut s = self.sorted.borrow_mut();
            if self.stale.get() || s.len() != self.raw.len() {
                s.clear();
                s.extend_from_slice(&self.raw);
                s.sort_unstable();
                self.stale.set(false);
            }
        }
        self.sorted.borrow()
    }

    /// `p`-th percentile (0-100) from retained raw samples.
    pub fn percentile(&self, p: f64) -> u64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0;
        }
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        v[idx.min(v.len() - 1)]
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// 99.9th percentile — the lock-service tail-latency gate. Like
    /// every percentile here it is computed over the retained reservoir,
    /// so past the cap it is an estimate from a uniform (seeded,
    /// reproducible) sample; `max` stays exact regardless.
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Merge `other` into `self` (parallel-mode stat collection: each
    /// worker records into its own histogram and the shards are folded
    /// at the end).
    ///
    /// Moments and buckets combine exactly. The raw reservoirs combine
    /// by a weighted Algorithm R merge: when the union still fits the
    /// cap it is kept whole; past the cap, elements are drawn without
    /// replacement from the two reservoirs: a side with probability
    /// proportional to the population its remaining elements represent
    /// (`count/len` per element), then a uniformly random remaining
    /// element of that side (a reservoir below its cap holds its
    /// samples in arrival order, so taking them in order would keep
    /// the oldest). The merged reservoir is again a uniform sample of
    /// the combined population. Draws come from `self`'s seeded
    /// stream, so a fixed merge order is reproducible.
    pub fn merge(&mut self, other: &WaitHistogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        let cap = self.raw_cap();
        if self.raw.len() + other.raw.len() <= cap {
            self.raw.extend_from_slice(&other.raw);
        } else {
            // Weighted draw: each remaining element of reservoir i
            // stands in for `count_i / len_i` of its population.
            let (n1, n2) = (self.count as f64, other.count as f64);
            let (l1, l2) = (self.raw.len() as f64, other.raw.len() as f64);
            let (w1, w2) = (n1 / l1.max(1.0), n2 / l2.max(1.0));
            // Each side's remaining elements, drawn by swap-remove; the
            // two hold more than `cap` between them.
            let mut left = [std::mem::take(&mut self.raw), other.raw.clone()];
            let mut out = Vec::with_capacity(cap);
            while out.len() < cap {
                let rem1 = w1 * left[0].len() as f64;
                let rem2 = w2 * left[1].len() as f64;
                let side = if left[1].is_empty() {
                    0
                } else if left[0].is_empty() {
                    1
                } else {
                    usize::from(crate::rng::unit(&mut self.rng) * (rem1 + rem2) >= rem1)
                };
                let k = crate::rng::below(&mut self.rng, left[side].len() as u64) as usize;
                out.push(left[side].swap_remove(k));
            }
            self.raw = out;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.stale.set(true);
    }

    /// Fraction of samples strictly below `t`.
    pub fn frac_below(&self, t: u64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let below = v.partition_point(|&x| x < t);
        below as f64 / v.len() as f64
    }
}

/// Machine-wide statistics, retrievable with `Machine::stats`.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Coherence/network messages (requests + replies).
    pub net_msgs: u64,
    /// Cache misses that went to a directory.
    pub remote_misses: u64,
    /// Invalidation messages issued by directories.
    pub invalidations: u64,
    /// LimitLESS software-extension traps taken by directories.
    pub limitless_traps: u64,
    /// Coherence requests serviced by directories.
    pub dir_requests: u64,
    /// Active messages delivered.
    pub active_msgs: u64,
    /// Events processed by the executor (the simulator's unit of work;
    /// `sim_throughput` divides this by wall time for events/sec).
    pub sim_events: u64,
    /// Per-node remote memory references under the **CC** (cache-
    /// coherent) cost model: one per coherence miss — an access that
    /// crossed the interconnect to a directory. Local-cache spins are
    /// free; each invalidation-triggered re-fetch counts.
    pub rmr_cc: Vec<u64>,
    /// Per-node remote memory references under the **DSM** (distributed
    /// shared memory, no-caching) cost model: one per access to a word
    /// whose home is another node, hit or miss.
    pub rmr_dsm: Vec<u64>,
    /// Named event counters incremented by protocol code.
    pub counters: BTreeMap<String, u64>,
    /// Named waiting-time histograms recorded by protocol code.
    pub waits: BTreeMap<String, WaitHistogram>,
}

impl Stats {
    pub(crate) fn new(nodes: usize) -> Self {
        Stats {
            rmr_cc: vec![0; nodes],
            rmr_dsm: vec![0; nodes],
            ..Self::default()
        }
    }

    /// Add `n` to the named counter. Only the first bump of a name
    /// allocates its key.
    pub fn bump(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Record a waiting time into the named histogram. Only the first
    /// record under a name allocates its key.
    pub fn record_wait(&mut self, name: &str, t: u64) {
        match self.waits.get_mut(name) {
            Some(h) => h.record(t),
            None => self.waits.entry(name.to_string()).or_default().record(t),
        }
    }

    /// Read a named counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fold `other`'s counts into `self` (parallel collection: one
    /// partial `Stats` per worker, absorbed in shard order at the end).
    /// Scalar counters and named counters sum; per-node RMR vectors sum
    /// elementwise (extending to the longer shape); wait histograms
    /// merge via [`WaitHistogram::merge`].
    pub fn absorb(&mut self, other: &Stats) {
        self.net_msgs += other.net_msgs;
        self.remote_misses += other.remote_misses;
        self.invalidations += other.invalidations;
        self.limitless_traps += other.limitless_traps;
        self.dir_requests += other.dir_requests;
        self.active_msgs += other.active_msgs;
        self.sim_events += other.sim_events;
        if self.rmr_cc.len() < other.rmr_cc.len() {
            self.rmr_cc.resize(other.rmr_cc.len(), 0);
        }
        for (a, &b) in self.rmr_cc.iter_mut().zip(&other.rmr_cc) {
            *a += b;
        }
        if self.rmr_dsm.len() < other.rmr_dsm.len() {
            self.rmr_dsm.resize(other.rmr_dsm.len(), 0);
        }
        for (a, &b) in self.rmr_dsm.iter_mut().zip(&other.rmr_dsm) {
            *a += b;
        }
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, w) in &other.waits {
            self.waits.entry(name.clone()).or_default().merge(w);
        }
    }

    /// Machine-wide RMR total under the CC model.
    pub fn rmr_cc_total(&self) -> u64 {
        self.rmr_cc.iter().sum()
    }

    /// Machine-wide RMR total under the DSM model.
    pub fn rmr_dsm_total(&self) -> u64 {
        self.rmr_dsm.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_moments() {
        let mut h = WaitHistogram::new();
        for t in [1u64, 2, 3, 4, 10] {
            h.record(t);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 20);
        assert_eq!(h.max, 10);
        assert!((h.mean() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_power_of_two() {
        let mut h = WaitHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        // 0,1 -> bucket 0; 2,3 -> bucket 1; 4 -> bucket 2.
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 1);
    }

    #[test]
    fn percentile_and_cdf() {
        let mut h = WaitHistogram::new();
        for t in 1..=100u64 {
            h.record(t);
        }
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(100.0), 100);
        let med = h.percentile(50.0);
        assert!((45..=55).contains(&med));
        assert!((h.frac_below(51) - 0.5).abs() < 0.02);
    }

    #[test]
    fn counters() {
        let mut s = Stats::new(1);
        s.bump("x", 2);
        s.bump("x", 3);
        assert_eq!(s.counter("x"), 5);
        assert_eq!(s.counter("y"), 0);
    }
}
