//! Sketch-backed aggregates — the approximate tier of the framework.
//!
//! §5 leaves MEDIAN as the canonical "neither removable nor mergeable"
//! operator: no constant-size *exact* summary exists. Sketches buy back
//! both capabilities by answering approximately with a documented,
//! runtime-queryable error bound (cf. Macke et al.'s
//! distribution-sensitive interval guarantees — approximate answers are
//! acceptable when the bound is explicit):
//!
//! * [`Percentile`] and MEDIAN ride a log-bucket [`QuantileSketch`]
//!   whose bucket counts form a group — merge **and exact retract**;
//! * [`CountDistinct`] rides HyperLogLog++ — merge-only (a window
//!   recovers eviction by re-merging surviving partials, the MIN/MAX
//!   path).
//!
//! The exact `compute` path remains the oracle everywhere: sketches are
//! only consulted when a streaming window is explicitly configured for
//! them, and every partial reports its current error bound
//! ([`SketchPartial::error_bound`]).

use crate::traits::Aggregate;
use scorpion_sketch::{HyperLogLog, QuantileSketch, SketchPartial};

/// The sketch-partial decomposition of an aggregate, reached through
/// [`Aggregate::sketch`]: an approximate tier beside the exact
/// [`crate::IncrementalAggregate`] algebra.
///
/// Unlike an `AggState`, a [`SketchPartial`] owns heap state and
/// carries its own algebra: inserting, merging and retracting go
/// through the partial, which also answers whether it can retract
/// ([`SketchPartial::retractable`]) and how far off it may be right now
/// ([`SketchPartial::error_bound`]). The operator contributes the empty
/// partial and the finalizer.
///
/// Laws (verified in `tests/` and the sketch crate's property tests):
///
/// 1. `sketch_finalize(p)` is within `p.error_bound()` of `compute(D)`
///    for the bag `D` inserted into `p`;
/// 2. partial merge ≡ single-stream insertion (bit-exact);
/// 3. when `p.retractable()`, retracting a merged partial restores the
///    pre-merge partial bit-exactly.
pub trait SketchAggregate: Aggregate {
    /// A fresh, empty sketch partial for this operator.
    fn sketch_empty(&self) -> SketchPartial;

    /// Recovers the (approximate) aggregate value from a partial.
    fn sketch_finalize(&self, partial: &SketchPartial) -> f64;
}

/// `PERCENTILE(x, p)` — exact rank statistic with a sketch-backed
/// approximate tier.
///
/// Rank convention: `rank = clamp(ceil(p·n), 1, n)` over the ascending
/// sort, which makes `p = 0.5` coincide with [`crate::Median`]'s lower
/// median. `compute` is exact (black-box, like MEDIAN); the sketch path
/// answers within the quantile sketch's relative-value bound. Empty bag
/// → `0.0`.
///
/// The fraction is stored in basis points (`p50` ⇒ 5000), which keeps
/// the operator `Copy` and gives common percentiles stable names.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    /// Percentile in basis points: `p = bp / 10_000`, in `(0, 10_000]`.
    bp: u32,
}

impl Percentile {
    /// Build from a fraction in `(0, 1]`. Returns `None` outside that
    /// range (a 0th percentile is `min`; use MIN).
    pub fn new(fraction: f64) -> Option<Self> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return None;
        }
        let bp = (fraction * 10_000.0).round() as u32;
        if bp == 0 || bp > 10_000 {
            None
        } else {
            Some(Self { bp })
        }
    }

    /// The percentile as a fraction in `(0, 1]`.
    pub fn fraction(&self) -> f64 {
        self.bp as f64 / 10_000.0
    }
}

impl Aggregate for Percentile {
    /// Common percentiles get their canonical short name (`p50`, `p90`,
    /// …); anything else reports the generic `"percentile"`.
    fn name(&self) -> &'static str {
        match self.bp {
            1000 => "p10",
            2500 => "p25",
            5000 => "p50",
            7500 => "p75",
            9000 => "p90",
            9500 => "p95",
            9900 => "p99",
            9990 => "p999",
            10_000 => "p100",
            _ => "percentile",
        }
    }

    fn compute(&self, vals: &[f64]) -> f64 {
        if vals.is_empty() {
            return 0.0;
        }
        let mut v = vals.to_vec();
        let n = v.len();
        let rank = ((self.fraction() * n as f64).ceil() as usize).clamp(1, n);
        let (_, m, _) = v.select_nth_unstable_by(rank - 1, |a, b| a.total_cmp(b));
        *m
    }

    fn sketch(&self) -> Option<&dyn SketchAggregate> {
        Some(self)
    }
}

impl SketchAggregate for Percentile {
    fn sketch_empty(&self) -> SketchPartial {
        SketchPartial::Quantile(QuantileSketch::default_sketch())
    }

    fn sketch_finalize(&self, partial: &SketchPartial) -> f64 {
        match partial {
            SketchPartial::Quantile(s) => s.quantile(self.fraction()),
            _ => 0.0,
        }
    }
}

impl SketchAggregate for crate::order::Median {
    fn sketch_empty(&self) -> SketchPartial {
        SketchPartial::Quantile(QuantileSketch::default_sketch())
    }

    fn sketch_finalize(&self, partial: &SketchPartial) -> f64 {
        match partial {
            SketchPartial::Quantile(s) => s.quantile(0.5),
            _ => 0.0,
        }
    }
}

/// `COUNT DISTINCT(x)` — exact distinct count with an HLL++-backed
/// approximate tier.
///
/// `compute` is exact via a hash set over canonicalized bit patterns
/// (`-0.0 ≡ 0.0`, NaNs collapse). Like MEDIAN it is black-box for the
/// influence framework: not incrementally removable (removing a value
/// needs to know whether a duplicate survives) and with no constant-size
/// exact partial. The sketch tier is merge-only. Empty bag → `0.0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountDistinct;

impl Aggregate for CountDistinct {
    fn name(&self) -> &'static str {
        "count_distinct"
    }

    fn compute(&self, vals: &[f64]) -> f64 {
        let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for &v in vals {
            seen.insert(canonical_bits(v));
        }
        seen.len() as f64
    }

    fn sketch(&self) -> Option<&dyn SketchAggregate> {
        Some(self)
    }
}

/// Canonical `f64` bits matching the sketch crate's hashing (kept here
/// so the exact oracle and the HLL agree on what "distinct" means).
fn canonical_bits(v: f64) -> u64 {
    if v == 0.0 {
        0
    } else if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

impl SketchAggregate for CountDistinct {
    fn sketch_empty(&self) -> SketchPartial {
        SketchPartial::Distinct(HyperLogLog::default_sketch())
    }

    fn sketch_finalize(&self, partial: &SketchPartial) -> f64 {
        match partial {
            SketchPartial::Distinct(s) => s.estimate(),
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::Median;

    #[test]
    fn percentile_construction_bounds() {
        assert!(Percentile::new(0.0).is_none());
        assert!(Percentile::new(-0.5).is_none());
        assert!(Percentile::new(1.5).is_none());
        assert!(Percentile::new(1.0).is_some());
        assert_eq!(Percentile::new(0.5).unwrap().name(), "p50");
        assert_eq!(Percentile::new(0.999).unwrap().name(), "p999");
        assert_eq!(Percentile::new(0.87).unwrap().name(), "percentile");
        assert!((Percentile::new(0.87).unwrap().fraction() - 0.87).abs() < 1e-12);
    }

    #[test]
    fn p50_matches_lower_median() {
        let p50 = Percentile::new(0.5).unwrap();
        for vals in [
            vec![5.0, 1.0, 3.0],
            vec![4.0, 1.0, 3.0, 2.0],
            vec![8.0],
            vec![2.0, 2.0, 9.0, -4.0, 0.0, 7.0],
        ] {
            assert_eq!(p50.compute(&vals), Median.compute(&vals), "{vals:?}");
        }
        assert_eq!(p50.compute(&[]), 0.0);
    }

    #[test]
    fn percentile_ranks_are_exact() {
        let vals: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(Percentile::new(0.90).unwrap().compute(&vals), 90.0);
        assert_eq!(Percentile::new(0.99).unwrap().compute(&vals), 99.0);
        assert_eq!(Percentile::new(1.0).unwrap().compute(&vals), 100.0);
        assert_eq!(Percentile::new(0.01).unwrap().compute(&vals), 1.0);
    }

    #[test]
    fn percentile_sketch_tier_is_retractable_and_accurate() {
        let p90 = Percentile::new(0.9).unwrap();
        let s = p90.sketch().expect("percentile has a sketch tier");
        assert!(s.sketch_empty().retractable());
        let mut partial = s.sketch_empty();
        let vals: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        for &v in &vals {
            partial.insert(v);
        }
        let est = s.sketch_finalize(&partial);
        let exact = p90.compute(&vals);
        let bound = partial.error_bound().magnitude();
        assert!((est - exact).abs() <= bound * exact + 1e-9, "est {est} exact {exact}");
    }

    #[test]
    fn median_sketch_tier_matches_its_convention() {
        let s = Median.sketch().expect("median has a sketch tier");
        let mut partial = s.sketch_empty();
        for i in 1..=101 {
            partial.insert(i as f64);
        }
        let est = s.sketch_finalize(&partial);
        let exact = Median.compute(&(1..=101).map(|i| i as f64).collect::<Vec<_>>());
        let bound = partial.error_bound().magnitude();
        assert!((est - exact).abs() <= bound * exact + 1e-9);
    }

    #[test]
    fn count_distinct_exact_and_sketch() {
        let cd = CountDistinct;
        assert_eq!(cd.compute(&[]), 0.0);
        assert_eq!(cd.compute(&[1.0, 1.0, 2.0, 2.0, 3.0]), 3.0);
        assert_eq!(cd.compute(&[0.0, -0.0]), 1.0, "signed zeros are one value");
        let s = cd.sketch().expect("count_distinct has a sketch tier");
        assert!(!s.sketch_empty().retractable());
        let mut partial = s.sketch_empty();
        for i in 0..500 {
            partial.insert(i as f64);
            partial.insert(i as f64);
        }
        let est = s.sketch_finalize(&partial);
        assert!((est - 500.0).abs() <= 3.0 * 0.0163 * 500.0 + 1.0, "est {est}");
    }

    #[test]
    fn sketch_capability_is_opt_in() {
        use crate::{Avg, Max, Min, Sum};
        assert!(Sum.sketch().is_none());
        assert!(Avg.sketch().is_none());
        assert!(Min.sketch().is_none());
        assert!(Max.sketch().is_none());
        assert!(Median.sketch().is_some());
    }
}
