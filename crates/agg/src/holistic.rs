//! PERCENTILE and COUNT DISTINCT — *holistic* aggregates, like MEDIAN:
//! no constant-size exact state summarizes a bag of their inputs, so
//! they implement `compute` alone. The Scorer evaluates them as black
//! boxes, re-aggregating the surviving tuples, and a streaming window
//! keeps their raw values.

use crate::traits::Aggregate;

/// `PERCENTILE(x, p)` — exact rank statistic.
///
/// Rank convention: `rank = clamp(ceil(p·n), 1, n)` over the ascending
/// sort, which makes `p = 0.5` coincide with [`crate::Median`]'s lower
/// median. Black-box, like MEDIAN. Empty bag → `0.0`.
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
}

/// `COUNT DISTINCT(x)` — exact distinct count.
///
/// `compute` is exact via a hash set over canonicalized bit patterns
/// (`-0.0 ≡ 0.0`, NaNs collapse). Like MEDIAN it is black-box for the
/// influence framework: not incrementally removable (removing a value
/// needs to know whether a duplicate survives) and with no constant-size
/// exact state. Empty bag → `0.0`.
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
}

/// The `f64` bits that decide what "distinct" means: both zeros are one
/// value, and so are all NaNs.
fn canonical_bits(v: f64) -> u64 {
    if v == 0.0 {
        0
    } else if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
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
    fn count_distinct_is_exact() {
        let cd = CountDistinct;
        assert_eq!(cd.compute(&[]), 0.0);
        assert_eq!(cd.compute(&[1.0, 1.0, 2.0, 2.0, 3.0]), 3.0);
        assert_eq!(cd.compute(&[0.0, -0.0]), 1.0, "signed zeros are one value");
        assert_eq!(cd.compute(&[f64::NAN, -f64::NAN]), 1.0, "NaNs are one value");
    }
}
