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
//! A long-running native service cannot keep every record, so its
//! per-shard log is a `SwitchRing`: the most recent records, plus the
//! same invariant checked *as each record arrives* against exactly the
//! look-back the offline windows need — truncation hides nothing.
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
pub fn check_no_stampede(log: &[SwitchRecord], cfg: LimiterConfig) -> Vec<Stampede> {
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
    violations
}

/// Records a [`SwitchRing`] keeps before it starts dropping the oldest.
const RING_RECORDS: usize = 4096;

/// One shard's bounded switch log with the no-stampede check run
/// online.
///
/// A window of `m` periods is over-dense exactly when some
/// `burst + m + 2` consecutive switches span less than `m` periods, so
/// at each push it is enough to compare the new timestamp with the one
/// `burst + m + 1` records back, for each `m` in the oracle's window
/// set: a look-back of at most `burst + 65` records. The ring always
/// retains that many (4096, or more under an oversized burst), so a
/// violation is seen when it happens, whatever is dropped later.
pub(crate) struct SwitchRing {
    /// Most recent records, oldest first; grows on demand up to `cap`.
    recent: VecDeque<SwitchRecord>,
    cap: usize,
    dropped: u64,
    limiter: Option<LimiterConfig>,
    /// First online violation per window length.
    stampedes: [Option<Stampede>; WINDOW_PERIODS.len()],
}

impl SwitchRing {
    /// An empty ring checking against `limiter` (no check without one).
    pub(crate) fn new(limiter: Option<LimiterConfig>) -> Self {
        let lookback = limiter.map_or(0, |l| l.burst as usize + 65);
        SwitchRing {
            recent: VecDeque::new(),
            cap: RING_RECORDS.max(lookback),
            dropped: 0,
            limiter,
            stampedes: [None; WINDOW_PERIODS.len()],
        }
    }

    /// Append a record. Times must be non-decreasing (the caller stamps
    /// them under the shard lock that serializes pushes).
    pub(crate) fn push(&mut self, rec: SwitchRecord) {
        debug_assert!(self.recent.back().is_none_or(|b| b.time_ns <= rec.time_ns));
        if let Some(cfg) = self.limiter {
            for (slot, &mult) in self.stampedes.iter_mut().zip(&WINDOW_PERIODS) {
                let w = cfg.period_ns.saturating_mul(mult);
                let allowed = u64::from(cfg.burst) + mult + 1;
                // The record that opens a window holding `allowed + 1`
                // switches once `rec` joins it.
                let Some(first) = (self.recent.len() as u64)
                    .checked_sub(allowed)
                    .map(|i| self.recent[i as usize])
                else {
                    continue;
                };
                if slot.is_none() && rec.time_ns < first.time_ns.saturating_add(w) {
                    *slot = Some(Stampede {
                        shard: rec.shard,
                        window_start_ns: first.time_ns,
                        window_ns: w,
                        observed: allowed + 1,
                        allowed,
                    });
                }
            }
        }
        if self.recent.len() == self.cap {
            self.recent.pop_front();
            self.dropped += 1;
        }
        self.recent.push_back(rec);
    }

    /// The retained tail, oldest first.
    pub(crate) fn records(&self) -> impl Iterator<Item = &SwitchRecord> {
        self.recent.iter()
    }

    /// Records pushed out of the ring so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Violations caught at push time (at most one per window length).
    pub(crate) fn stampedes(&self) -> impl Iterator<Item = Stampede> + '_ {
        self.stampedes.iter().flatten().copied()
    }

    /// Heap bytes the ring occupies.
    pub(crate) fn heap_bytes(&self) -> u64 {
        (self.recent.capacity() * std::mem::size_of::<SwitchRecord>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(check_no_stampede(&log, CFG).is_empty());
    }

    #[test]
    fn violates_without_limiter() {
        // A stampede: 20 switches in one period-sized window.
        let log: Vec<_> = (0..20).map(|i| rec(i, 0)).collect();
        let v = check_no_stampede(&log, CFG);
        assert!(!v.is_empty(), "oracle must reject an unthrottled burst");
        assert!(v[0].observed > v[0].allowed);
    }

    #[test]
    fn sustained_over_rate_caught_by_long_window() {
        // 2 per period forever: each 1-period window holds 2 <= 2+1+1,
        // but a 64-period window holds 128 > 2+64+1.
        let log: Vec<_> = (0..200u64).map(|i| rec(i * 50, 0)).collect();
        let v = check_no_stampede(&log, CFG);
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
        assert!(check_no_stampede(&log, CFG).is_empty());
    }

    #[test]
    fn unsorted_log_is_handled() {
        let mut log: Vec<_> = (0..20).map(|i| rec(i, 0)).collect();
        log.reverse();
        assert!(!check_no_stampede(&log, CFG).is_empty());
    }

    /// Push a timeline through a fresh ring; returns it.
    fn ring(times: impl IntoIterator<Item = u64>, cfg: LimiterConfig) -> SwitchRing {
        let mut r = SwitchRing::new(Some(cfg));
        for t in times {
            r.push(rec(t, 0));
        }
        r
    }

    #[test]
    fn online_check_agrees_with_the_offline_oracle() {
        let timelines: [Vec<u64>; 4] = [
            vec![0, 0, 100, 200, 300, 400],
            (0..20).collect(),
            (0..200u64).map(|i| i * 50).collect(),
            // Legal rate, then a burst late in the run.
            (0..100u64)
                .map(|i| i * 100)
                .chain((0..10).map(|i| 10_000 + i))
                .collect(),
        ];
        for times in timelines {
            let log: Vec<_> = times.iter().map(|&t| rec(t, 0)).collect();
            let offline: Vec<u64> = check_no_stampede(&log, CFG)
                .iter()
                .map(|s| s.window_ns)
                .collect();
            let online: Vec<u64> = ring(times, CFG).stampedes().map(|s| s.window_ns).collect();
            assert_eq!(online, offline);
        }
    }

    #[test]
    fn ring_keeps_the_tail_and_what_it_saw() {
        // A stampede first, then legal traffic long enough to push the
        // stampede out of the ring.
        let calm = (1..=RING_RECORDS as u64 + 10).map(|i| i * 1_000);
        let r = ring((0..20).chain(calm), CFG);
        assert_eq!(r.records().count(), RING_RECORDS);
        assert_eq!(r.dropped(), 30);
        assert_eq!(
            r.records().last().map(|r| r.time_ns),
            Some((RING_RECORDS as u64 + 10) * 1_000)
        );
        let tail: Vec<_> = r.records().copied().collect();
        assert!(
            check_no_stampede(&tail, CFG).is_empty(),
            "tail alone is clean"
        );
        assert!(
            r.stampedes().next().is_some(),
            "truncation must not hide the burst"
        );
        assert!(r.heap_bytes() >= (RING_RECORDS * std::mem::size_of::<SwitchRecord>()) as u64);
    }

    #[test]
    fn oversized_burst_widens_the_ring_to_its_lookback() {
        let cfg = LimiterConfig {
            burst: 10_000,
            period_ns: 100,
        };
        // burst + 3 switches at one instant break the 1-period window;
        // the ring must still hold the record that opens it.
        let r = ring(std::iter::repeat_n(7, 10_003), cfg);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.stampedes().count(), 1);
    }
}
