//! The machine-checkable predicates a scenario's "Paper says" column
//! becomes: a [`Claim`] reads an [`Outcome`]'s series and scalars by
//! label and returns a [`ClaimResult`].

use crate::scenario::{Outcome, Series};

/// A machine-checkable predicate encoding one "Paper says" statement.
#[derive(Clone, Copy, Debug)]
pub enum Claim {
    /// `cheap` wins at the sweep's low end, `scalable` at the high end
    /// (the paper's protocol-crossover shape: TTS vs MCS, lock-based vs
    /// combining fetch-and-op, shared-memory vs message-passing).
    Crossover {
        /// Series that must win at the first sweep point.
        cheap: &'static str,
        /// Series that must win at the last sweep point.
        scalable: &'static str,
    },
    /// Every value of `num` (divided pointwise by `den` if given) lies
    /// in `[min, max]`. `num`/`den` may name a series or a scalar; a
    /// scalar broadcasts against a series.
    BoundedRatio {
        /// Numerator series/scalar.
        num: &'static str,
        /// Optional denominator series/scalar.
        den: Option<&'static str>,
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// Over sweep points with `x >= from_x`, the series' max/min stays
    /// below `factor` (no meltdown — the paper's "flat" curves).
    FlatScaling {
        /// Series that must stay flat.
        series: &'static str,
        /// Ignore the sweep below this x (uncontended points are cheap
        /// for everyone and would understate the min).
        from_x: f64,
        /// Maximum allowed max/min spread.
        factor: f64,
    },
    /// At every sweep point, `series <= slack * min(over...)` — the
    /// reactive/two-phase algorithm tracks the best static choice.
    TracksBest {
        /// The adaptive series.
        series: &'static str,
        /// The static alternatives it must track.
        over: &'static [&'static str],
        /// Allowed multiplicative slack over the pointwise best.
        slack: f64,
    },
}

impl Outcome {
    /// Look a name up for a claim: scalars first, then a series'
    /// y-values. A missing name, an empty series or a NaN value is an
    /// error naming it.
    fn values(&self, name: &str) -> Result<Vec<f64>, String> {
        if let Some(&(_, v)) = self.scalars.iter().find(|(n, _)| *n == name) {
            if v.is_nan() {
                return Err(format!("scalar {name} is NaN"));
            }
            return Ok(vec![v]);
        }
        let s = self.claim_series(name)?;
        Ok(s.points.iter().map(|&(_, y)| y).collect())
    }

    /// [`Outcome::series_named`] for a claim: a NaN point is an error
    /// too, since every comparison against it is false.
    fn claim_series(&self, name: &str) -> Result<&Series, String> {
        let s = self.series_named(name)?;
        match s.points.iter().find(|&&(_, y)| y.is_nan()) {
            Some(&(x, _)) => Err(format!("series {name} is NaN at x = {x}")),
            None => Ok(s),
        }
    }
}

impl Claim {
    /// Short human-readable form (stable: used as the JSON key).
    pub fn describe(&self) -> String {
        match self {
            Claim::Crossover { cheap, scalable } => {
                format!("crossover: {cheap} wins low end, {scalable} wins high end")
            }
            Claim::BoundedRatio { num, den, min, max } => match den {
                Some(d) => format!("bounded: {min} <= {num}/{d} <= {max}"),
                None => format!("bounded: {min} <= {num} <= {max}"),
            },
            Claim::FlatScaling {
                series,
                from_x,
                factor,
            } => {
                format!("flat: {series} spread <= {factor}x for x >= {from_x}")
            }
            Claim::TracksBest {
                series,
                over,
                slack,
            } => {
                format!("tracks-best: {series} <= {slack}x min{over:?}")
            }
        }
    }

    /// Evaluate against an outcome. `Ok` carries the witnessing detail,
    /// `Err` the violation.
    pub fn check(&self, o: &Outcome) -> Result<String, String> {
        match *self {
            Claim::Crossover { cheap, scalable } => {
                let c = o.claim_series(cheap)?;
                let s = o.claim_series(scalable)?;
                let (c0, cn) = (c.points[0].1, c.points[c.points.len() - 1].1);
                let (s0, sn) = (s.points[0].1, s.points[s.points.len() - 1].1);
                if c0 > s0 {
                    return Err(format!(
                        "{cheap} ({c0:.1}) loses to {scalable} ({s0:.1}) at low end"
                    ));
                }
                if sn > cn {
                    return Err(format!(
                        "{scalable} ({sn:.1}) loses to {cheap} ({cn:.1}) at high end"
                    ));
                }
                Ok(format!(
                    "{cheap} {c0:.1} <= {s0:.1} low; {scalable} {sn:.1} <= {cn:.1} high"
                ))
            }
            Claim::BoundedRatio { num, den, min, max } => {
                let n = o.values(num)?;
                let d = match den {
                    Some(d) => o.values(d)?,
                    None => vec![1.0],
                };
                let len = n.len().max(d.len());
                if n.len() != len && n.len() != 1 || d.len() != len && d.len() != 1 {
                    return Err(format!("{num}/{den:?} length mismatch"));
                }
                let mut worst_lo = f64::INFINITY;
                let mut worst_hi = f64::NEG_INFINITY;
                for i in 0..len {
                    let nv = n[i.min(n.len() - 1)];
                    let dv = d[i.min(d.len() - 1)];
                    let r = nv / dv;
                    worst_lo = worst_lo.min(r);
                    worst_hi = worst_hi.max(r);
                    if !(min..=max).contains(&r) {
                        return Err(format!(
                            "point {i}: {nv:.3}/{dv:.3} = {r:.3} outside [{min}, {max}]"
                        ));
                    }
                }
                Ok(format!(
                    "in [{worst_lo:.3}, {worst_hi:.3}] ⊆ [{min}, {max}]"
                ))
            }
            Claim::FlatScaling {
                series,
                from_x,
                factor,
            } => {
                let s = o.claim_series(series)?;
                let ys: Vec<f64> = s
                    .points
                    .iter()
                    .filter(|&&(x, _)| x >= from_x)
                    .map(|&(_, y)| y)
                    .collect();
                if ys.len() < 2 {
                    return Err(format!("{series}: fewer than 2 points at x >= {from_x}"));
                }
                let (lo, hi) = ys
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &y| {
                        (l.min(y), h.max(y))
                    });
                // All-zero points give 0/0: no spread was measured.
                let spread = hi / lo;
                if spread.is_nan() || spread > factor {
                    Err(format!(
                        "{series} spread {spread:.2}x > {factor}x ({lo:.1}..{hi:.1})"
                    ))
                } else {
                    Ok(format!("{series} spread {spread:.2}x <= {factor}x"))
                }
            }
            Claim::TracksBest {
                series,
                over,
                slack,
            } => {
                let s = o.claim_series(series)?;
                let mut worst = 0f64;
                for (i, &(x, y)) in s.points.iter().enumerate() {
                    let mut best = f64::INFINITY;
                    for &other in over {
                        let os = o.claim_series(other)?;
                        if os.points.len() != s.points.len() {
                            return Err(format!(
                                "series {other} has {} points but {series} has {}",
                                os.points.len(),
                                s.points.len()
                            ));
                        }
                        best = best.min(os.points[i].1);
                    }
                    let r = y / best;
                    worst = worst.max(r);
                    if r > slack {
                        return Err(format!(
                            "at x = {x}: {series} {y:.1} is {r:.2}x best static {best:.1} (> {slack}x)"
                        ));
                    }
                }
                Ok(format!(
                    "{series} <= {worst:.2}x best static (allowed {slack}x)"
                ))
            }
        }
    }
}

/// One claim's verdict, as reported by the runners.
#[derive(Clone, Debug)]
pub struct ClaimResult {
    /// [`Claim::describe`] of the claim checked.
    pub claim: String,
    /// Whether the outcome satisfied it.
    pub pass: bool,
    /// Witness (pass) or violation (fail) detail.
    pub detail: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_checks_catch_violations() {
        let mut o = Outcome::default();
        o.push("a", vec![(1.0, 1.0), (2.0, 10.0)]);
        o.push("b", vec![(1.0, 2.0), (2.0, 3.0)]);
        o.scalar("s", 5.0);
        // Crossover holds: a wins at x=1, b wins at x=2.
        assert!(Claim::Crossover {
            cheap: "a",
            scalable: "b"
        }
        .check(&o)
        .is_ok());
        // ...and fails when reversed.
        assert!(Claim::Crossover {
            cheap: "b",
            scalable: "a"
        }
        .check(&o)
        .is_err());
        assert!(Claim::BoundedRatio {
            num: "s",
            den: None,
            min: 4.0,
            max: 6.0
        }
        .check(&o)
        .is_ok());
        assert!(Claim::BoundedRatio {
            num: "a",
            den: Some("b"),
            min: 0.0,
            max: 1.0
        }
        .check(&o)
        .is_err());
        assert!(Claim::FlatScaling {
            series: "b",
            from_x: 1.0,
            factor: 2.0
        }
        .check(&o)
        .is_ok());
        assert!(Claim::FlatScaling {
            series: "a",
            from_x: 1.0,
            factor: 2.0
        }
        .check(&o)
        .is_err());
        assert!(Claim::TracksBest {
            series: "a",
            over: &["b"],
            slack: 4.0
        }
        .check(&o)
        .is_ok());
        assert!(Claim::TracksBest {
            series: "a",
            over: &["b"],
            slack: 2.0
        }
        .check(&o)
        .is_err());
        assert!(Claim::BoundedRatio {
            num: "s",
            den: Some("s"),
            min: 1.0,
            max: 1.0
        }
        .check(&o)
        .is_ok());
        // Missing names are errors, not panics.
        assert!(Claim::BoundedRatio {
            num: "zzz",
            den: None,
            min: 0.0,
            max: 1.0
        }
        .check(&o)
        .is_err());
        // So is an empty series, for every kind of claim.
        o.push("none", vec![]);
        o.push("void", vec![]);
        let empty = [
            Claim::Crossover {
                cheap: "none",
                scalable: "b",
            },
            Claim::TracksBest {
                series: "none",
                over: &["b"],
                slack: 4.0,
            },
            Claim::BoundedRatio {
                num: "none",
                den: Some("void"),
                min: 0.0,
                max: 1.0,
            },
            Claim::BoundedRatio {
                num: "none",
                den: Some("s"),
                min: 1.0,
                max: 1.0,
            },
        ];
        for claim in empty {
            let err = claim.check(&o).expect_err(&claim.describe());
            assert_eq!(err, "series none is empty", "{}", claim.describe());
        }
        // A NaN value fails every kind of claim that reads it, naming
        // it; every comparison against NaN is false, so none may pass
        // by default.
        o.push("nan_end", vec![(1.0, 1.0), (2.0, f64::NAN)]);
        o.push("nan_mid", vec![(1.0, 1.0), (2.0, f64::NAN), (3.0, 1.5)]);
        o.push("zeros", vec![(1.0, 0.0), (2.0, 0.0)]);
        o.scalar("s_nan", f64::NAN);
        let nan = [
            (
                Claim::Crossover {
                    cheap: "nan_end",
                    scalable: "b",
                },
                "nan_end",
            ),
            (
                Claim::FlatScaling {
                    series: "nan_mid",
                    from_x: 1.0,
                    factor: 2.0,
                },
                "nan_mid",
            ),
            (
                Claim::FlatScaling {
                    series: "zeros",
                    from_x: 1.0,
                    factor: 2.0,
                },
                "zeros",
            ),
            (
                Claim::TracksBest {
                    series: "nan_end",
                    over: &["b"],
                    slack: 4.0,
                },
                "nan_end",
            ),
            (
                Claim::TracksBest {
                    series: "a",
                    over: &["nan_end"],
                    slack: 4.0,
                },
                "nan_end",
            ),
            (
                Claim::BoundedRatio {
                    num: "s_nan",
                    den: Some("s"),
                    min: 1.0,
                    max: 1.0,
                },
                "s_nan",
            ),
            (
                Claim::BoundedRatio {
                    num: "s",
                    den: Some("s_nan"),
                    min: 1.0,
                    max: 1.0,
                },
                "s_nan",
            ),
        ];
        for (claim, name) in nan {
            let err = claim.check(&o).expect_err(&claim.describe());
            assert!(err.contains(name), "{}: {err}", claim.describe());
        }
    }
}
