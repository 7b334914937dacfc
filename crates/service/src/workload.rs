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
    unit_of(rng::next(state) >> 11) // 53 significant bits
}

/// The `(0, 1]` value of a 53-bit draw: `(bits + 1) / 2^53`, exact.
fn unit_of(bits: u64) -> f64 {
    (bits + 1) as f64 / (1u64 << 53) as f64
}

/// The fast draw's table has `2^CELL_BITS` cells; the top `CELL_BITS`
/// bits of a 53-bit draw pick one.
const CELL_BITS: u32 = 10;
/// Low bits of a 53-bit draw: its offset inside the cell.
const CELL_SHIFT: u32 = 53 - CELL_BITS;
const CELL_MASK: u64 = (1 << CELL_SHIFT) - 1;
/// Subtracted from a draw's in-cell offset to centre it: the cell's
/// midpoint in `bits + 1` units.
const CELL_MID: i64 = (1 << (CELL_SHIFT - 1)) - 1;
/// Unit roundoff of `f64` (half an ulp of 1).
const EPS: f64 = f64::EPSILON / 2.0;

/// One cell of [`Zipf`]'s fast draw: a cubic in the draw's offset from
/// the cell's midpoint that estimates the reference rank expression,
/// and a proven bound on how far the reference can be from it.
#[derive(Clone, Copy, Debug)]
struct Cell {
    coef: [f64; 4],
    /// `∞` until the cell is filled; `f64::MAX` for a cell that always
    /// falls back. Either makes [`Cell::rank`] answer `None`.
    err: f64,
}

impl Cell {
    const UNFILLED: Cell = Cell {
        coef: [0.0; 4],
        err: f64::INFINITY,
    };
    const FALLBACK: Cell = Cell {
        coef: [0.0; 4],
        err: f64::MAX,
    };

    /// The reference rank of the 53-bit draw `bits` in this cell, when
    /// no integer lies within `err` of the estimate. `as u64` is
    /// monotone, so equal casts at both ends of the interval are the
    /// cast of every value in it, the reference's included.
    #[inline]
    fn rank(&self, bits: u64) -> Option<u64> {
        let d = ((bits & CELL_MASK) as i64 - CELL_MID) as f64;
        let [c0, c1, c2, c3] = self.coef;
        let est = c0 + d * (c1 + d * (c2 + d * c3));
        let lo = (est - self.err) as u64;
        (lo == (est + self.err) as u64).then_some(lo)
    }
}

/// Approximate Zipf(θ) sampler over `{0, 1, …, n-1}` using the Gray et
/// al. two-segment inversion (SIGMOD '94 quickly-generating skewed
/// data): rank 0 gets probability ~`1/H`, and the remaining mass falls
/// off as `rank^-θ`. Exact enough for workload shaping (the property
/// tests in `tests/generators.rs` pin the empirical skew), O(1) per
/// draw, and no per-rank table — important when a tenant spans 10⁶
/// objects.
///
/// Past ranks 0 and 1 the inversion is `n·(ηu − η + 1)^α`: one `powf`,
/// the reference. A draw first tries a table over `u` instead, 1024
/// cells whatever `n` is (40 KiB, allocated at the first draw past rank
/// 1 and filled cell by cell as draws reach them, never in
/// [`Zipf::new`]). Each cell holds the cubic Taylor expansion of the
/// exact expression about its midpoint and a bound on
/// `|estimate − reference|`: the Taylor remainder over the cell, the
/// rounding of the coefficients and of their evaluation, and the
/// rounding of the reference itself (its three flops, and `powf` within
/// 2 ulps). The estimate is returned only when that interval holds no
/// integer; otherwise, and in cells where the expression is too steep
/// to bound, the draw runs the reference. Every draw is thus the
/// reference's rank, bit for bit; 0.14 % of draws fall back at θ = 0.2
/// over 5·10⁵ ranks, 0.001 % at θ = 0.95.
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
    /// The fast draw's cells; empty until the first draw past rank 1,
    /// and for good when `n < 3` or `η` is not a positive number.
    cells: Vec<Cell>,
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
            cells: Vec::new(),
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
        let bits = rng::next(&mut self.state) >> 11;
        self.rank_of(bits)
    }

    /// The rank of the 53-bit draw `bits` (for `θ > 0`).
    fn rank_of(&mut self, bits: u64) -> u64 {
        let u = unit_of(bits);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_below {
            return 1.min(self.n - 1);
        }
        let cell = self.cells.get((bits >> CELL_SHIFT) as usize);
        match cell.and_then(|cell| cell.rank(bits)) {
            Some(rank) => rank.min(self.n - 1),
            None => self.slow_rank(bits),
        }
    }

    /// A draw the table did not answer: fill its cell if that has not
    /// happened yet and retry, else run the reference.
    #[cold]
    fn slow_rank(&mut self, bits: u64) -> u64 {
        if self.cells.is_empty() && self.n >= 3 && self.eta > 0.0 && self.eta.is_finite() {
            self.cells = vec![Cell::UNFILLED; 1 << CELL_BITS];
        }
        let index = (bits >> CELL_SHIFT) as usize;
        if let Some(cell) = self.cells.get(index) {
            if cell.err == f64::INFINITY {
                let filled = self.fill(index);
                self.cells[index] = filled;
                if let Some(rank) = filled.rank(bits) {
                    return rank.min(self.n - 1);
                }
            }
        }
        self.reference_rank(unit_of(bits))
    }

    /// Gray's rank expression, as every draw past rank 1 computes it.
    fn reference_rank(&self, u: f64) -> u64 {
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The cell over `u ∈ [c·h, (c+1)·h]`, `h = 2^-CELL_BITS`, for
    /// `f(u) = n·g(u)^α` with `g(u) = 1 − η(1 − u)`, in exact arithmetic
    /// on the stored `n`, `η` and `α`. Its coefficients are
    /// `f⁽ʲ⁾(u_c)/j!` at the midpoint `u_c`, scaled to an offset counted
    /// in 53-bit draws. Its `err` is twice the sum of three bounds (the
    /// doubling covers second-order terms and the rounding of
    /// `estimate ± err`):
    ///
    /// * the reference against `f`: `g`'s three roundings leave it within
    ///   `ε(η + 1)` absolute, so within `ρ = 1.01·ε(η + 1)/g` relative,
    ///   which the power turns into `≤ 1.001·αρ` while `αρ ≤ 10⁻³`; the
    ///   `powf` and the product by `n` add `≤ 5ε`;
    /// * the cubic against `f`: the Lagrange remainder
    ///   `max|f⁗|·(h/2)⁴/24`, where `|f⁗| = n·|α(α−1)(α−2)(α−3)|·η⁴·g^(α−4)`
    ///   is largest at one end of the cell;
    /// * the stored coefficients against the exact ones (`g(u_c)`'s
    ///   rounding raised to powers up to `α + 3`, and `≤ 32ε` of
    ///   products), and Horner's evaluation (`≤ 7ε`), both relative to
    ///   `Σ|cⱼ|·(h/2)ʲ`.
    ///
    /// Cells where `g` comes within a few roundings of 0 always fall
    /// back.
    fn fill(&self, c: usize) -> Cell {
        let (n, eta, alpha) = (self.n as f64, self.eta, self.alpha);
        let h = 1.0 / (1u64 << CELL_BITS) as f64;
        let g_err = 1.01 * EPS * (eta + 1.0);
        let g = |u: f64| 1.0 - eta * (1.0 - u);
        // The cell's ends, widened by several roundings of `g`.
        let g_lo = g(c as f64 * h) - 4.0 * g_err;
        let g_hi = g((c + 1) as f64 * h) + 4.0 * g_err;
        let rho = g_err / g_lo;
        if !(g_lo > 0.0 && alpha * rho <= 1e-3) {
            return Cell::FALLBACK;
        }
        let reference = n * g_hi.powf(alpha) * (1.001 * alpha * rho + 5.0 * EPS);
        let fourth = n
            * (alpha * (alpha - 1.0) * (alpha - 2.0) * (alpha - 3.0)).abs()
            * eta.powi(4)
            * g_lo.powf(alpha - 4.0).max(g_hi.powf(alpha - 4.0));
        let remainder = fourth / 24.0 * (h / 2.0).powi(4);
        // Coefficients at the midpoint, per draw of offset: `c_{j+1} =
        // c_j · (α − j)/(j + 1) · η/g(u_c) · 2^-53`.
        let g_mid = g((c as f64 + 0.5) * h);
        let step = eta / g_mid / (1u64 << 53) as f64;
        let mut coef = [n * g_mid.powf(alpha), 0.0, 0.0, 0.0];
        for j in 0..3 {
            coef[j + 1] = coef[j] * (alpha - j as f64) / (j + 1) as f64 * step;
        }
        let half = (1u64 << (CELL_SHIFT - 1)) as f64;
        let reach: f64 = coef
            .iter()
            .zip([1.0, half, half * half, half * half * half])
            .map(|(c, d)| c.abs() * d)
            .sum();
        let kappa = 1.001 * (alpha + 3.0) * g_err / g_mid + 39.0 * EPS;
        let err = 2.0 * (reference + remainder + kappa * reach);
        if !(err.is_finite() && coef.iter().all(|c| c.is_finite())) {
            return Cell::FALLBACK;
        }
        Cell { coef, err }
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

    /// The first virtual ns at or after `t` where the rate is positive,
    /// or `None` if there is none.
    #[cold]
    fn next_positive(&self, t: u64) -> Option<u64> {
        match *self {
            ArrivalCurve::Constant { .. } => (self.rate_per_ns(t) > 0.0).then_some(t),
            // The triangle is 0 at most at one phase of a period.
            ArrivalCurve::Diurnal { period_ns, .. } => {
                (t..=t.saturating_add(period_ns)).find(|&s| self.rate_per_ns(s) > 0.0)
            }
            ArrivalCurve::Burst {
                base_per_sec,
                spike_per_sec,
                duty_ns,
                period_ns,
            } => {
                if self.rate_per_ns(t) > 0.0 {
                    return Some(t);
                }
                let period = period_ns.max(1);
                let start = t - t % period;
                if t % period < duty_ns {
                    // A silent spike: the base rate resumes at its end.
                    (base_per_sec > 0.0 && duty_ns < period).then(|| start + duty_ns)
                } else {
                    // A silent base: the next spike starts the next period.
                    (spike_per_sec > 0.0 && duty_ns > 0).then(|| start.saturating_add(period))
                }
            }
        }
    }

    /// The piece of the curve that `t` lies in: the highest rate
    /// (arrivals per virtual ns) the curve reaches from `t` up to the
    /// piece's end, and that end, the first ns past `t` where the curve
    /// changes shape (`u64::MAX` for a constant). A Burst piece is one
    /// spike or one gap between spikes; a Diurnal piece is one rising
    /// or falling half of the triangle, whose highest rate is at one
    /// of its ends.
    #[cold]
    fn piece(&self, t: u64) -> (f64, u64) {
        match *self {
            ArrivalCurve::Constant { .. } => (self.rate_per_ns(t), u64::MAX),
            ArrivalCurve::Diurnal { period_ns, .. } => {
                let period = period_ns.max(1);
                let start = t - t % period;
                // The rising half is the phases below one half.
                let mid = start.saturating_add(period.div_ceil(2));
                let end = if t < mid {
                    mid
                } else {
                    start.saturating_add(period)
                };
                let last = self.rate_per_ns(end - 1);
                (self.rate_per_ns(t).max(last), end)
            }
            ArrivalCurve::Burst {
                duty_ns, period_ns, ..
            } => {
                let period = period_ns.max(1);
                let start = t - t % period;
                let end = if t % period < duty_ns {
                    start.saturating_add(duty_ns.min(period))
                } else {
                    start.saturating_add(period)
                };
                (self.rate_per_ns(t), end)
            }
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
    /// is zero from then on (no arrivals ever).
    pub fn next_arrival(&mut self) -> Option<u64> {
        if self.peak_per_ns <= 0.0 {
            return None;
        }
        // Thinning: candidate gaps at the peak rate, accepted with
        // probability rate(t)/peak. A rate far below the peak rejects
        // nearly every candidate, so past a bounded number of them the
        // stream goes on piece by piece instead.
        for _ in 0..100_000 {
            let gap = -unit(&mut self.state).ln() / self.peak_per_ns;
            self.now_ns += gap;
            let t = self.now_ns as u64;
            let rate = self.curve.rate_per_ns(t);
            if rate <= 0.0 {
                // No arrival can land before the rate turns positive
                // again, and the candidate process is memoryless, so
                // it restarts there.
                self.now_ns = self.curve.next_positive(t)? as f64;
                continue;
            }
            if unit(&mut self.state) <= rate / self.peak_per_ns {
                return Some(t);
            }
        }
        self.next_by_piece()
    }

    /// The rest of [`Self::next_arrival`]: thinning against the highest
    /// rate of the piece the stream is in rather than the curve's peak.
    /// A candidate past the piece's end is dropped and the stream
    /// restarts at that end, which keeps it Poisson (the candidate
    /// process is memoryless), so any envelope that stays at or above
    /// the rate thins as correctly as the peak does.
    ///
    /// The piece is found from a whole-ns time kept beside the `f64`
    /// clock, so a candidate past a piece's end always moves on to the
    /// next piece, even where the `f64` clock cannot tell the two ends
    /// apart; the stream ends only where `u64` time does.
    #[cold]
    fn next_by_piece(&mut self) -> Option<u64> {
        let mut at = self.now_ns as u64;
        loop {
            let (bound, end) = self.curve.piece(at);
            let candidate = if bound > 0.0 {
                self.now_ns - unit(&mut self.state).ln() / bound
            } else {
                // A silent piece: no candidate lands in it.
                f64::INFINITY
            };
            if candidate < end as f64 {
                self.now_ns = candidate;
                at = (candidate as u64).min(end - 1);
                if unit(&mut self.state) <= self.curve.rate_per_ns(at) / bound {
                    return Some(at);
                }
                continue;
            }
            if end == u64::MAX {
                return None;
            }
            at = if bound > 0.0 {
                end
            } else {
                self.curve.next_positive(end)?
            };
            self.now_ns = at as f64;
        }
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

    /// Gray's expression as every draw computed it before the table:
    /// the rank 0 and rank 1 branches, then one `powf`.
    fn reference(z: &Zipf, bits: u64) -> u64 {
        let u = unit_of(bits);
        let uz = u * z.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < z.rank1_below {
            return 1.min(z.n - 1);
        }
        z.reference_rank(u)
    }

    /// Shapes the differential tests sweep: the pinned digests' five,
    /// the service rows' 0.5 and 0.9, a 10⁶-object arena, and the
    /// smallest `n` the table serves.
    const SHAPES: [(u64, f64); 9] = [
        (500_000, 0.95),
        (500_000, 0.2),
        (1_000, 0.99),
        (2, 0.5),
        (1, 0.5),
        (100_000, 0.5),
        (512, 0.9),
        (1_000_000, 0.99),
        (3, 0.3),
    ];

    const DRAWS: u64 = 1 << 53;

    /// Draws within a few ulps of every cell edge, and of every place
    /// the reference steps from one rank to the next (for all ranks
    /// below 2 000 and 2 000 more spread over the rest), must rank as
    /// the reference ranks them.
    #[test]
    fn zipf_matches_the_reference_at_cell_edges_and_rank_steps() {
        for (n, theta) in SHAPES {
            let mut z = Zipf::new(n, theta, 1);
            let mut probes: Vec<u64> = Vec::new();
            for c in 0..=1u64 << CELL_BITS {
                let edge = c << CELL_SHIFT;
                probes.extend((edge.saturating_sub(4)..=edge + 4).filter(|&b| b < DRAWS));
            }
            let spread = (2_000..n).step_by((n / 2_000).max(1) as usize);
            let ranks: Vec<u64> = (2..n.min(2_000)).chain(spread).collect();
            let mut steps = 0;
            for &k in &ranks {
                // Solve n·(η(u − 1) + 1)^α = k for u, then find the
                // first draw the reference ranks at k or above.
                let g = (k as f64 / n as f64).powf(1.0 / z.alpha);
                let guess = ((1.0 - (1.0 - g) / z.eta) * DRAWS as f64) as u64;
                let (mut lo, mut hi) = (
                    guess.saturating_sub(1 << 24),
                    (guess + (1 << 24)).min(DRAWS - 1),
                );
                if reference(&z, lo) >= k || reference(&z, hi) < k {
                    continue;
                }
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if reference(&z, mid) >= k {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                // The next draws, then draws out to where the table's
                // interval first clears the step.
                let near = (1..=8).chain((3..43).map(|j| 1 << j));
                probes.extend(near.flat_map(|d| [hi.saturating_sub(d), hi + d - 1]));
                steps += 1;
            }
            eprintln!(
                "(n {n}, theta {theta}): {steps} of {} rank steps",
                ranks.len()
            );
            assert!(
                steps * 10 >= ranks.len() * 9,
                "{steps} of {} rank steps found",
                ranks.len()
            );
            probes.retain(|&b| b < DRAWS);
            for bits in probes {
                assert_eq!(
                    z.rank_of(bits),
                    reference(&z, bits),
                    "(n {n}, theta {theta}) at draw {bits:#x}"
                );
            }
        }
    }

    /// `sample` draws the reference's rank on a long random stream, and
    /// the table answers all but a few of the draws past rank 1.
    #[test]
    fn zipf_samples_the_reference_and_rarely_falls_back() {
        for (n, theta) in SHAPES {
            let mut z = Zipf::new(n, theta, 7);
            let mut state = z.state;
            let (mut past_rank1, mut fallbacks, mut worst) = (0u64, 0u64, 0.0f64);
            for _ in 0..200_000 {
                let bits = rng::next(&mut state) >> 11;
                let want = reference(&z, bits);
                assert_eq!(z.sample(), want, "(n {n}, theta {theta}) at draw {bits:#x}");
                let u = unit_of(bits);
                if u * z.zetan < z.rank1_below {
                    continue;
                }
                past_rank1 += 1;
                let Some(cell) = z.cells.get((bits >> CELL_SHIFT) as usize) else {
                    fallbacks += 1;
                    continue;
                };
                fallbacks += u64::from(cell.rank(bits).is_none());
                if cell.err < f64::MAX {
                    // The proven bound is doubled; the reference should
                    // sit well inside its first half.
                    let d = ((bits & CELL_MASK) as i64 - CELL_MID) as f64;
                    let [c0, c1, c2, c3] = cell.coef;
                    let est = c0 + d * (c1 + d * (c2 + d * c3));
                    let exact = n as f64 * (z.eta * u - z.eta + 1.0).powf(z.alpha);
                    worst = worst.max((exact - est).abs() / cell.err);
                }
            }
            assert!(
                worst <= 0.5,
                "(n {n}, theta {theta}): off by {worst} of the bound"
            );
            if n >= 3 {
                let share = fallbacks as f64 / past_rank1 as f64;
                eprintln!(
                    "(n {n}, theta {theta}): {share:.5} fell back, worst {worst:.3} of the bound"
                );
                assert!(share < 0.01, "(n {n}, theta {theta}): {share:.4} fell back");
            } else {
                assert!(z.cells.is_empty(), "n = {n} has no rank past 1 to tabulate");
            }
        }
    }

    #[test]
    fn zipf_table_fills_lazily() {
        let mut z = Zipf::new(500_000, 0.95, 3);
        assert!(z.cells.is_empty(), "the table costs nothing until a draw");
        for _ in 0..100 {
            z.sample();
        }
        assert_eq!(z.cells.len(), 1 << CELL_BITS);
        assert!(std::mem::size_of::<Cell>() * z.cells.len() <= 64 << 10);
        let filled = z.cells.iter().filter(|c| c.err != f64::INFINITY).count();
        assert!((1..=100).contains(&filled), "{filled} cells for 100 draws");
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
