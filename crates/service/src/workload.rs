//! Tenant and workload model: who asks for which lock, when.
//!
//! A tenant is a population of clients hammering a contiguous range of
//! arena objects. Three orthogonal knobs describe it:
//!
//! * **Object skew** — a [`Zipf`] sampler picks *which* object each
//!   request targets. High skew concentrates a tenant's traffic on a
//!   few hot objects (the ones worth switching to queue mode); low skew
//!   spreads it thin (objects that should stay in the cheap TTS mode).
//! * **Arrival curve** — an [`ArrivalCurve`] shapes *when* open-loop
//!   requests arrive: constant, diurnal (sinusoid-approximating ramp),
//!   or bursty (square wave between a base and a spike rate).
//! * **Loop discipline** — [`Load::Open`] arrivals ignore completions
//!   (a timer fires regardless of queueing, so latency can blow up —
//!   the honest way to measure tails); [`Load::Closed`] clients issue
//!   the next request only after the previous one finishes, plus think
//!   time.
//!
//! Everything is seeded and deterministic: a [`TenantConfig`] plus a
//! seed reproduces the exact request sequence, which is what lets the
//! bench gate p999 numbers in CI.

use alewife_sim::rng;

/// Uniform `f64` in `(0, 1]` (never 0, so `ln` is always finite) — the
/// simulator's own `unit` is `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    let bits = rng::next(state) >> 11; // 53 significant bits
    (bits + 1) as f64 / (1u64 << 53) as f64
}

/// Approximate Zipf(θ) sampler over `{0, 1, …, n-1}` using the Gray et
/// al. two-segment inversion (SIGMOD '94 quickly-generating skewed
/// data): rank 0 gets probability ~`1/H`, and the remaining mass falls
/// off as `rank^-θ`. Exact enough for workload shaping (the property
/// tests in `tests/generators.rs` pin the empirical skew), O(1) per
/// draw, no per-rank table — important when a tenant spans 10⁶ objects.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `1 + 0.5^θ`: the `u·ζ(n)` below which a draw is rank 1.
    rank1_below: f64,
    state: u64,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `theta` in `[0, 1)`
    /// (`theta = 0` is uniform; ~0.99 is the YCSB-style hot default).
    ///
    /// # Panics
    /// If `n == 0` or `theta` is outside `[0, 1)`.
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        assert!(n > 0, "Zipf over an empty range");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
            rank1_below: 1.0 + 0.5f64.powf(theta),
            state: seed,
        }
    }

    /// Generalized harmonic number `H_{n,θ}`, summed directly for small
    /// `n` and via the Euler–Maclaurin head + integral tail for large
    /// `n` (the sum is a one-time cost per tenant, but 10⁶ terms per
    /// tenant per run adds up in `--quick` CI).
    fn zeta(n: u64, theta: f64) -> f64 {
        const DIRECT: u64 = 10_000;
        let head = (1..=n.min(DIRECT))
            .map(|i| (i as f64).powf(-theta))
            .sum::<f64>();
        if n <= DIRECT {
            return head;
        }
        // Integral of x^-θ from DIRECT to n plus midpoint correction.
        let (a, b) = (DIRECT as f64, n as f64);
        let tail = (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
            + 0.5 * (b.powf(-theta) - a.powf(-theta));
        head + tail
    }

    /// Draw one rank in `[0, n)`; rank 0 is the hottest.
    pub fn sample(&mut self) -> u64 {
        if self.theta == 0.0 {
            return rng::below(&mut self.state, self.n);
        }
        let u = unit(&mut self.state);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_below {
            return 1.min(self.n - 1);
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Shape of an open-loop tenant's arrival rate over virtual time.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalCurve {
    /// Fixed rate forever.
    Constant {
        /// Mean arrivals per second of virtual time.
        rate_per_sec: f64,
    },
    /// Linear ramp between a trough and a peak and back, with period
    /// `period_ns` — a triangle-wave stand-in for a day's load curve.
    Diurnal {
        /// Rate at the trough (per second).
        low_per_sec: f64,
        /// Rate at the peak (per second).
        high_per_sec: f64,
        /// Full trough→peak→trough period in virtual ns.
        period_ns: u64,
    },
    /// Square wave: `base_per_sec` normally, `spike_per_sec` for the
    /// first `duty_ns` of every `period_ns` — the stampede-inducing
    /// load the switch-rate limiter exists for.
    Burst {
        /// Off-spike rate (per second).
        base_per_sec: f64,
        /// In-spike rate (per second).
        spike_per_sec: f64,
        /// Spike length in virtual ns.
        duty_ns: u64,
        /// Spike-to-spike period in virtual ns.
        period_ns: u64,
    },
}

impl ArrivalCurve {
    /// Instantaneous rate (arrivals per virtual ns) at time `t`.
    pub fn rate_per_ns(&self, t: u64) -> f64 {
        const NS: f64 = 1e-9;
        match *self {
            ArrivalCurve::Constant { rate_per_sec } => rate_per_sec * NS,
            ArrivalCurve::Diurnal {
                low_per_sec,
                high_per_sec,
                period_ns,
            } => {
                let phase = (t % period_ns.max(1)) as f64 / period_ns.max(1) as f64;
                // Triangle: 0→1 over the first half, 1→0 over the second.
                let frac = if phase < 0.5 {
                    2.0 * phase
                } else {
                    2.0 * (1.0 - phase)
                };
                (low_per_sec + (high_per_sec - low_per_sec) * frac) * NS
            }
            ArrivalCurve::Burst {
                base_per_sec,
                spike_per_sec,
                duty_ns,
                period_ns,
            } => {
                if t % period_ns.max(1) < duty_ns {
                    spike_per_sec * NS
                } else {
                    base_per_sec * NS
                }
            } // order of match arms mirrors the enum; no default so a new
              // curve variant is a compile error here.
        }
    }

    /// The same curve shape with every rate multiplied by `factor`.
    /// The native driver partitions one tenant's open-loop process
    /// across its worker threads by handing each a `1/threads`-scaled
    /// copy (with a distinct seed): the superposition of independent
    /// thinned Poisson processes at `rate/T` is a Poisson process at
    /// `rate`, so the offered load is preserved exactly.
    pub fn scaled(&self, factor: f64) -> ArrivalCurve {
        match *self {
            ArrivalCurve::Constant { rate_per_sec } => ArrivalCurve::Constant {
                rate_per_sec: rate_per_sec * factor,
            },
            ArrivalCurve::Diurnal {
                low_per_sec,
                high_per_sec,
                period_ns,
            } => ArrivalCurve::Diurnal {
                low_per_sec: low_per_sec * factor,
                high_per_sec: high_per_sec * factor,
                period_ns,
            },
            ArrivalCurve::Burst {
                base_per_sec,
                spike_per_sec,
                duty_ns,
                period_ns,
            } => ArrivalCurve::Burst {
                base_per_sec: base_per_sec * factor,
                spike_per_sec: spike_per_sec * factor,
                duty_ns,
                period_ns,
            },
        }
    }

    /// Peak instantaneous rate (arrivals per virtual ns) — used to
    /// bound the thinning envelope in [`Arrivals`].
    fn peak_per_ns(&self) -> f64 {
        const NS: f64 = 1e-9;
        match *self {
            ArrivalCurve::Constant { rate_per_sec } => rate_per_sec * NS,
            ArrivalCurve::Diurnal {
                low_per_sec,
                high_per_sec,
                ..
            } => low_per_sec.max(high_per_sec) * NS,
            ArrivalCurve::Burst {
                base_per_sec,
                spike_per_sec,
                ..
            } => base_per_sec.max(spike_per_sec) * NS,
        }
    }
}

/// Open- vs closed-loop discipline for a tenant's clients.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Timer-driven arrivals from the tenant's [`ArrivalCurve`];
    /// arrivals do not wait for completions.
    Open {
        /// The arrival process shape.
        curve: ArrivalCurve,
    },
    /// `clients` independent clients, each issuing its next request
    /// `think_ns` of virtual time after the previous one completes.
    Closed {
        /// Number of concurrent clients.
        clients: u32,
        /// Mean think time between a completion and the next request
        /// (exponentially distributed), in virtual ns.
        think_ns: u64,
    },
}

/// One tenant: an object range, a skew, and a load discipline.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// First arena object id owned by this tenant.
    pub first_object: u64,
    /// Number of consecutive objects owned.
    pub objects: u64,
    /// Zipf exponent for object choice within the range (`0` uniform,
    /// `0.99` hot-spot heavy).
    pub theta: f64,
    /// Load discipline (open- or closed-loop).
    pub load: Load,
    /// Critical-section service time in virtual ns (work done while
    /// holding the lock).
    pub hold_ns: u64,
    /// Acquire deadline in virtual ns; a request whose acquire has not
    /// been granted by `deadline_ns` after arrival aborts (PR 7's
    /// abortable-acquire path). 0 disables deadlines.
    pub deadline_ns: u64,
}

/// A seeded open-loop arrival-time generator for one tenant: a
/// non-homogeneous Poisson process realised by thinning (Lewis &
/// Shedler) against the curve's peak rate, so inter-arrival times are
/// exact for constant curves and correctly rate-modulated for diurnal
/// and bursty ones.
#[derive(Clone, Debug)]
pub struct Arrivals {
    curve: ArrivalCurve,
    peak_per_ns: f64,
    state: u64,
    now_ns: f64,
}

impl Arrivals {
    /// New process starting at virtual time 0.
    pub fn new(curve: ArrivalCurve, seed: u64) -> Self {
        Arrivals {
            curve,
            peak_per_ns: curve.peak_per_ns(),
            state: seed,
            now_ns: 0.0,
        }
    }

    /// Virtual time of the next arrival, or `None` if the curve's rate
    /// is zero (no arrivals ever).
    pub fn next_arrival(&mut self) -> Option<u64> {
        if self.peak_per_ns <= 0.0 {
            return None;
        }
        // Thinning: candidate gaps at the peak rate, accepted with
        // probability rate(t)/peak. Bounded retries keep a zero-rate
        // trough from spinning forever in pathological configs.
        for _ in 0..100_000 {
            let gap = -unit(&mut self.state).ln() / self.peak_per_ns;
            self.now_ns += gap;
            let t = self.now_ns as u64;
            let accept = self.curve.rate_per_ns(t) / self.peak_per_ns;
            if unit(&mut self.state) <= accept {
                return Some(t);
            }
        }
        None
    }
}

/// Exponentially distributed think time with the given mean, for
/// closed-loop clients (mean 0 yields 0).
pub fn think_time(mean_ns: u64, state: &mut u64) -> u64 {
    if mean_ns == 0 {
        return 0;
    }
    (-unit(state).ln() * mean_ns as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_in_half_open_range() {
        let mut s = 9;
        for _ in 0..1_000 {
            let u = unit(&mut s);
            assert!(u > 0.0 && u <= 1.0);
        }
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let mut z = Zipf::new(10, 0.0, 7);
        let mut seen = [0u64; 10];
        for _ in 0..10_000 {
            seen[z.sample() as usize] += 1;
        }
        for &c in &seen {
            assert!(
                (600..1_400).contains(&c),
                "uniform draw count {c} out of band"
            );
        }
    }

    #[test]
    fn zipf_rank0_dominates_at_high_theta() {
        let mut z = Zipf::new(1_000, 0.99, 11);
        let hits = (0..10_000).filter(|_| z.sample() == 0).count();
        // H_{1000,0.99} ~ 7.5, so rank 0 carries ~13% of the mass.
        assert!(hits > 800, "rank 0 hit only {hits}/10000 times");
    }

    #[test]
    fn constant_curve_rate_is_flat() {
        let c = ArrivalCurve::Constant { rate_per_sec: 1e6 };
        assert_eq!(c.rate_per_ns(0), c.rate_per_ns(123_456));
    }

    #[test]
    fn burst_curve_switches_rates() {
        let c = ArrivalCurve::Burst {
            base_per_sec: 1e3,
            spike_per_sec: 1e6,
            duty_ns: 100,
            period_ns: 1_000,
        };
        assert!(c.rate_per_ns(50) > c.rate_per_ns(500) * 100.0);
    }

    #[test]
    fn scaled_curve_scales_every_rate() {
        let c = ArrivalCurve::Burst {
            base_per_sec: 1e3,
            spike_per_sec: 1e6,
            duty_ns: 100,
            period_ns: 1_000,
        };
        let half = c.scaled(0.5);
        for t in [0u64, 50, 500, 999] {
            assert!((half.rate_per_ns(t) - c.rate_per_ns(t) * 0.5).abs() < 1e-15);
        }
        let d = ArrivalCurve::Diurnal {
            low_per_sec: 10.0,
            high_per_sec: 90.0,
            period_ns: 1_000,
        }
        .scaled(2.0);
        assert!((d.rate_per_ns(0) - 20.0e-9).abs() < 1e-12);
    }

    #[test]
    fn arrivals_are_monotone_and_deterministic() {
        let curve = ArrivalCurve::Constant { rate_per_sec: 1e7 };
        let mut a = Arrivals::new(curve, 3);
        let mut b = Arrivals::new(curve, 3);
        let mut last = 0;
        for _ in 0..1_000 {
            let ta = a.next_arrival().unwrap();
            let tb = b.next_arrival().unwrap();
            assert_eq!(ta, tb);
            assert!(ta >= last);
            last = ta;
        }
    }
}
