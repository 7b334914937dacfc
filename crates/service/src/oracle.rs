//! The no-stampede oracle.
//!
//! The limiter in [`crate::limiter`] *claims* a window bound; this
//! module *checks* it, from the outside, against the raw switch log —
//! the same offline-oracle discipline as the repo's conc-check gate
//! (record everything, replay nothing, verify an invariant the
//! implementation cannot vouch for about itself).
//!
//! **Invariant (no-stampede).** For a shard limited by
//! `(burst, period_ns)`, every time window of length `W` contains at
//! most `burst + W / period_ns + 1` committed switches. The check
//! slides a window over the per-shard switch log starting at each
//! event, for several window lengths spanning one to many refill
//! periods — a stampede that squeaks past one window length is caught
//! by another.
//!
//! A long-running native service keeps no log: each shard checks the
//! same invariant *as each switch commits*, over the times of its last
//! `burst + 65` commits — exactly the look-back the offline windows
//! need, so forgetting older commits hides nothing.
//!
//! The checker has teeth: the bench's stampede scenario also runs a
//! limiter-off control and asserts the oracle *rejects* it (see
//! `violates_without_limiter` below and the `service_stampede`
//! scenario), so a vacuously-green checker cannot hide.

use std::collections::VecDeque;

use crate::limiter::LimiterConfig;

/// One committed protocol switch, as logged by an executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchRecord {
    /// Time of the commit, in virtual (or native monotonic) ns.
    pub time_ns: u64,
    /// Shard that performed it.
    pub shard: u32,
    /// Arena object id.
    pub object: u64,
    /// Protocol switched from.
    pub from: u8,
    /// Protocol switched to.
    pub to: u8,
}

/// A detected violation of the no-stampede invariant.
#[derive(Clone, Copy, Debug)]
pub struct Stampede {
    /// Shard in which the over-dense window was found.
    pub shard: u32,
    /// Start of the offending window (ns).
    pub window_start_ns: u64,
    /// Length of the offending window (ns).
    pub window_ns: u64,
    /// Switches observed inside the window.
    pub observed: u64,
    /// Maximum the invariant allows in a window of this length.
    pub allowed: u64,
}

/// Window lengths to scan, as multiples of the refill period: one
/// period (catches raw bursts above `burst + 2`), and three longer
/// windows (catch sustained over-rate leaks a single period can hide).
const WINDOW_PERIODS: [u64; 4] = [1, 4, 16, 64];

/// Check the no-stampede invariant over a switch log. Records may be
/// in any order (they are sorted per shard internally). Returns every
/// violation found, or an empty vec if the log is clean.
///
/// # Errors
/// If `cfg.period_ns` is 0: such a limiter meters nothing, so there is
/// no window bound to check against. The `Err` names the config.
pub fn check_no_stampede(
    log: &[SwitchRecord],
    cfg: LimiterConfig,
) -> Result<Vec<Stampede>, String> {
    if cfg.period_ns == 0 {
        return Err(format!(
            "limiter config {cfg:?} has period_ns 0: no refill rate to check against"
        ));
    }
    let mut violations = Vec::new();
    let mut shards: Vec<u32> = log.iter().map(|r| r.shard).collect();
    shards.sort_unstable();
    shards.dedup();
    for shard in shards {
        let mut times: Vec<u64> = log
            .iter()
            .filter(|r| r.shard == shard)
            .map(|r| r.time_ns)
            .collect();
        times.sort_unstable();
        for &mult in &WINDOW_PERIODS {
            let w = cfg.period_ns.saturating_mul(mult);
            let allowed = u64::from(cfg.burst) + w / cfg.period_ns + 1;
            // Two-pointer sweep: for each window anchored at a switch,
            // count switches with time in [t0, t0 + w).
            let mut hi = 0usize;
            for (lo, &t0) in times.iter().enumerate() {
                if hi < lo {
                    hi = lo;
                }
                let end = t0.saturating_add(w);
                while hi < times.len() && times[hi] < end {
                    hi += 1;
                }
                let observed = (hi - lo) as u64;
                if observed > allowed {
                    violations.push(Stampede {
                        shard,
                        window_start_ns: t0,
                        window_ns: w,
                        observed,
                        allowed,
                    });
                    break; // one violation per (shard, window length) is enough
                }
            }
        }
    }
    Ok(violations)
}

/// One shard's no-stampede check, run online as switches commit.
///
/// A window of `m` periods is over-dense exactly when some
/// `burst + m + 2` consecutive switches span less than `m` periods, so
/// at each commit it is enough to compare the new time with the one
/// `burst + m + 1` commits back, for each `m` in the oracle's window
/// set. The check therefore keeps the times of the last `burst + 65`
/// commits and the first violation per window length — nothing else —
/// and its verdict is the one [`check_no_stampede`] gives over the
/// whole stream.
pub(crate) struct StampedeCheck {
    shard: u32,
    cfg: LimiterConfig,
    /// Most recent commit times, oldest first; at most
    /// [`Self::lookback`] of them, and never more capacity.
    times: VecDeque<u64>,
    /// First violation per window length.
    stampedes: [Option<Stampede>; WINDOW_PERIODS.len()],
}

impl StampedeCheck {
    /// An empty check of `shard` against `cfg`; allocates nothing until
    /// the first commit.
    pub(crate) fn new(shard: u32, cfg: LimiterConfig) -> Self {
        StampedeCheck {
            shard,
            cfg,
            times: VecDeque::new(),
            stampedes: [None; WINDOW_PERIODS.len()],
        }
    }

    /// Commit times kept: `burst + 65`, the longest window's `allowed`.
    fn lookback(&self) -> usize {
        self.cfg.burst as usize + WINDOW_PERIODS[WINDOW_PERIODS.len() - 1] as usize + 1
    }

    /// Check a commit at `time_ns`. Times must be non-decreasing (the
    /// caller stamps them under the shard lock that serializes pushes).
    pub(crate) fn push(&mut self, time_ns: u64) {
        debug_assert!(self.times.back().is_none_or(|&b| b <= time_ns));
        for (slot, &mult) in self.stampedes.iter_mut().zip(&WINDOW_PERIODS) {
            let w = self.cfg.period_ns.saturating_mul(mult);
            let allowed = u64::from(self.cfg.burst) + mult + 1;
            // The commit that opens a window holding `allowed + 1`
            // switches once this one joins it.
            let Some(first) = (self.times.len() as u64)
                .checked_sub(allowed)
                .map(|i| self.times[i as usize])
            else {
                continue;
            };
            if slot.is_none() && time_ns < first.saturating_add(w) {
                *slot = Some(Stampede {
                    shard: self.shard,
                    window_start_ns: first,
                    window_ns: w,
                    observed: allowed + 1,
                    allowed,
                });
            }
        }
        let (len, lookback) = (self.times.len(), self.lookback());
        if len == lookback {
            self.times.pop_front();
        } else if len == self.times.capacity() {
            // Grow by doubling, but never past the look-back.
            self.times.reserve_exact(len.max(4).min(lookback - len));
        }
        self.times.push_back(time_ns);
    }

    /// Violations caught so far (at most one per window length).
    pub(crate) fn stampedes(&self) -> impl Iterator<Item = Stampede> + '_ {
        self.stampedes.iter().flatten().copied()
    }

    /// Heap bytes the kept times occupy.
    pub(crate) fn heap_bytes(&self) -> u64 {
        (self.times.capacity() * std::mem::size_of::<u64>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alewife_sim::rng::below;

    fn rec(time_ns: u64, shard: u32) -> SwitchRecord {
        SwitchRecord {
            time_ns,
            shard,
            object: 0,
            from: 0,
            to: 1,
        }
    }

    const CFG: LimiterConfig = LimiterConfig {
        burst: 2,
        period_ns: 100,
    };

    #[test]
    fn clean_log_passes() {
        // 2-burst then exactly one per period: the limiter's own shape.
        let log: Vec<_> = [0, 0, 100, 200, 300, 400]
            .iter()
            .map(|&t| rec(t, 0))
            .collect();
        assert!(check_no_stampede(&log, CFG).unwrap().is_empty());
    }

    #[test]
    fn violates_without_limiter() {
        // A stampede: 20 switches in one period-sized window.
        let log: Vec<_> = (0..20).map(|i| rec(i, 0)).collect();
        let v = check_no_stampede(&log, CFG).unwrap();
        assert!(!v.is_empty(), "oracle must reject an unthrottled burst");
        assert!(v[0].observed > v[0].allowed);
    }

    #[test]
    fn sustained_over_rate_caught_by_long_window() {
        // 2 per period forever: each 1-period window holds 2 <= 2+1+1,
        // but a 64-period window holds 128 > 2+64+1.
        let log: Vec<_> = (0..200u64).map(|i| rec(i * 50, 0)).collect();
        let v = check_no_stampede(&log, CFG).unwrap();
        assert!(
            v.iter().any(|s| s.window_ns > CFG.period_ns),
            "sustained leak must be caught by a multi-period window"
        );
    }

    #[test]
    fn shards_are_checked_independently() {
        // 3 shards each at the legal rate; together they'd exceed a
        // single bucket, but the invariant is per shard.
        let mut log = Vec::new();
        for shard in 0..3 {
            for i in 0..10u64 {
                log.push(rec(i * 100, shard));
            }
        }
        assert!(check_no_stampede(&log, CFG).unwrap().is_empty());
    }

    #[test]
    fn zero_period_config_is_rejected_not_divided_by() {
        let cfg = LimiterConfig {
            burst: 2,
            period_ns: 0,
        };
        let err = check_no_stampede(&[rec(0, 0), rec(1, 0)], cfg).unwrap_err();
        assert!(err.contains("period_ns: 0"), "names the config: {err}");
    }

    #[test]
    fn unsorted_log_is_handled() {
        let mut log: Vec<_> = (0..20).map(|i| rec(i, 0)).collect();
        log.reverse();
        assert!(!check_no_stampede(&log, CFG).unwrap().is_empty());
    }

    /// Push `times` through a fresh online check.
    fn check(times: &[u64], cfg: LimiterConfig) -> StampedeCheck {
        let mut c = StampedeCheck::new(0, cfg);
        for &t in times {
            c.push(t);
        }
        c
    }

    /// `(window_ns, window_start_ns)` of each violation, in report order.
    fn windows(v: impl Iterator<Item = Stampede>) -> Vec<(u64, u64)> {
        v.map(|s| (s.window_ns, s.window_start_ns)).collect()
    }

    /// Assert that the online check and the offline oracle find the
    /// same windows in a one-shard timeline; returns them.
    fn agree(times: &[u64], cfg: LimiterConfig) -> Vec<(u64, u64)> {
        let log: Vec<_> = times.iter().map(|&t| rec(t, 0)).collect();
        let offline = windows(check_no_stampede(&log, cfg).unwrap().into_iter());
        let online = windows(check(times, cfg).stampedes());
        assert_eq!(
            online,
            offline,
            "burst {}, {} commits",
            cfg.burst,
            times.len()
        );
        offline
    }

    /// A seeded timeline of bursts (commits a few ns apart), gaps (up to
    /// 100 periods) and steady runs (a commit every half to one and a
    /// half periods, fixed per run), reaching well past the look-back.
    fn random_timeline(seed: &mut u64, cfg: LimiterConfig) -> Vec<u64> {
        let (p, burst) = (cfg.period_ns, u64::from(cfg.burst));
        let len = 1 + below(seed, 6 * burst + 400);
        let (mut t, mut times) = (0, Vec::new());
        while (times.len() as u64) < len {
            let (n, lo, hi) = match below(seed, 3) {
                0 => (below(seed, 2 * burst + 70), 0, p / 16),
                1 => (1, 0, 100 * p),
                _ => {
                    let step = p / 2 + below(seed, p + 1);
                    (below(seed, 300), step, step)
                }
            };
            for _ in 0..n {
                t += lo + below(seed, hi - lo + 1);
                times.push(t);
            }
        }
        times
    }

    #[test]
    fn online_check_agrees_with_the_offline_oracle() {
        agree(&[0, 0, 100, 200, 300, 400], CFG);
        agree(&(0..20).collect::<Vec<_>>(), CFG);
        agree(&(0..200).map(|i| i * 50).collect::<Vec<_>>(), CFG);
        // Legal rate, then a burst late in the run.
        let late: Vec<_> = (0..100).map(|i| i * 100).chain(10_000..10_010).collect();
        agree(&late, CFG);
        // Seeded timelines under small, default and oversized bursts.
        let mut seed = 0x0005_7A3B_EDE5_EED5;
        for burst in [1, 8, 300] {
            let cfg = LimiterConfig {
                burst,
                period_ns: 100,
            };
            let stampeded = (0..100)
                .filter(|_| !agree(&random_timeline(&mut seed, cfg), cfg).is_empty())
                .count();
            // Both verdicts are common, so agreement is not vacuous.
            assert!(
                (10..=90).contains(&stampeded),
                "burst {burst}: {stampeded}/100"
            );
        }
    }

    #[test]
    fn check_keeps_its_lookback_and_what_it_saw() {
        // A stampede first, then legal traffic long enough to leave it
        // far behind the look-back.
        let times: Vec<_> = (0..20).chain((1..=10_000).map(|i| i * 1_000)).collect();
        let c = check(&times, CFG);
        assert!(c.stampedes().next().is_some(), "the burst must stay seen");
        assert_eq!(c.times.len(), c.lookback());
        assert_eq!(c.heap_bytes(), 8 * c.lookback() as u64);
    }

    #[test]
    fn oversized_burst_widens_the_ring_to_its_lookback() {
        let cfg = LimiterConfig {
            burst: 10_000,
            period_ns: 100,
        };
        // burst + 3 switches at one instant break the 1-period window;
        // the look-back must still reach the commit that opens it.
        assert_eq!(agree(&[7; 10_003], cfg), [(100, 7)]);
    }
}
