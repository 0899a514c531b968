//! [`SketchPartial`] — the uniform per-chunk sketch state the aggregate
//! layer carries alongside its fixed-size `AggState` partials. One
//! variant per value-sketch family.

use crate::error::{ErrorBound, SketchError};
use crate::hll::HyperLogLog;
use crate::quantile::QuantileSketch;
use crate::Result;

/// A per-partition sketch state for one group's values.
///
/// Unlike `AggState` (a fixed 4-float register file), a sketch partial
/// owns heap state, so it lives in a parallel side-car structure; the
/// enum keeps the window layer agnostic of which sketch an aggregate
/// uses.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchPartial {
    /// Log-bucket quantile sketch (MEDIAN / PERCENTILE family).
    Quantile(QuantileSketch),
    /// HyperLogLog++ (COUNT DISTINCT family).
    Distinct(HyperLogLog),
}

impl SketchPartial {
    /// Offer one value to the sketch.
    pub fn insert(&mut self, v: f64) {
        match self {
            SketchPartial::Quantile(s) => s.insert(v),
            SketchPartial::Distinct(s) => s.insert_f64(v),
        }
    }

    /// Merge a same-variant partial into this one.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        match (self, other) {
            (SketchPartial::Quantile(a), SketchPartial::Quantile(b)) => a.merge(b),
            (SketchPartial::Distinct(a), SketchPartial::Distinct(b)) => a.merge(b),
            _ => Err(SketchError::Incompatible("sketch partials of different variants")),
        }
    }

    /// Subtract a same-variant partial, if this family supports
    /// retraction. Returns `Ok(true)` when the retraction was applied,
    /// `Ok(false)` when the family is merge-only (HLL) and the caller
    /// must re-merge surviving partials instead.
    pub fn retract(&mut self, other: &Self) -> Result<bool> {
        match (self, other) {
            (SketchPartial::Quantile(a), SketchPartial::Quantile(b)) => {
                a.retract(b)?;
                Ok(true)
            }
            (SketchPartial::Distinct(_), SketchPartial::Distinct(_)) => Ok(false),
            _ => Err(SketchError::Incompatible("sketch partials of different variants")),
        }
    }

    /// Whether this family supports retraction.
    pub fn retractable(&self) -> bool {
        matches!(self, SketchPartial::Quantile(_))
    }

    /// The current error bound of the underlying sketch.
    pub fn error_bound(&self) -> ErrorBound {
        match self {
            SketchPartial::Quantile(s) => s.error_bound(),
            SketchPartial::Distinct(s) => s.error_bound(),
        }
    }

    /// A fresh empty partial of the same variant and configuration.
    pub fn fresh(&self) -> Self {
        match self {
            SketchPartial::Quantile(s) => SketchPartial::Quantile(s.fresh()),
            SketchPartial::Distinct(s) => SketchPartial::Distinct(
                HyperLogLog::new(s.precision()).expect("precision already validated"),
            ),
        }
    }

    /// Approximate heap footprint in bytes (for resident accounting).
    pub fn approx_bytes(&self) -> usize {
        match self {
            SketchPartial::Quantile(s) => s.approx_bytes(),
            SketchPartial::Distinct(s) => s.approx_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_partial_is_retractable() {
        let mut p = SketchPartial::Quantile(QuantileSketch::default_sketch());
        for i in 0..100 {
            p.insert(i as f64);
        }
        assert!(p.retractable());
    }

    #[test]
    fn distinct_partial_is_merge_only() {
        let mut p = SketchPartial::Distinct(HyperLogLog::new(8).unwrap());
        for i in 0..100 {
            p.insert(i as f64);
        }
        assert!(!p.retractable());
        let other = p.clone();
        let mut p2 = p.clone();
        assert!(!p2.retract(&other).unwrap());
    }

    #[test]
    fn cross_variant_merge_refuses() {
        let mut q = SketchPartial::Quantile(QuantileSketch::default_sketch());
        let d = SketchPartial::Distinct(HyperLogLog::new(8).unwrap());
        assert!(q.merge(&d).is_err());
        assert!(q.retract(&d).is_err());
    }
}
