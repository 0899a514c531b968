//! Error and error-bound types shared by every sketch.

use std::fmt;

/// Errors produced by sketch construction and combination.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchError {
    /// A construction parameter is out of its documented range.
    BadConfig(&'static str),
    /// Two partials from incompatible configurations (different α
    /// family, register count, or capacity) were combined.
    Incompatible(&'static str),
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::BadConfig(msg) => write!(f, "bad sketch configuration: {msg}"),
            SketchError::Incompatible(msg) => write!(f, "incompatible sketch partials: {msg}"),
        }
    }
}

impl std::error::Error for SketchError {}

/// A runtime-queryable error bound: what the sketch guarantees about
/// its estimate *right now* (bounds can widen as a sketch compacts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Deterministic relative-value bound: `|est − true| ≤ rel·|true|`,
    /// except within `floor` of zero where the absolute error is at
    /// most `floor` (log buckets cannot resolve a neighborhood of 0).
    RelativeValue {
        /// Relative error on the value.
        rel: f64,
        /// Absolute error floor near zero.
        floor: f64,
    },
    /// Probabilistic relative bound: the standard error of the estimate
    /// is `rel·true` (so ~65% of estimates fall within one `rel`, ~95%
    /// within two).
    RelativeStdDev(f64),
    /// Deterministic absolute bound: `true ≤ est ≤ true + abs`.
    AbsoluteCount(f64),
    /// The estimate is exact.
    Exact,
}

impl fmt::Display for ErrorBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorBound::RelativeValue { rel, floor } => {
                write!(f, "relative value error <= {:.4} (floor {:.1e} near 0)", rel, floor)
            }
            ErrorBound::RelativeStdDev(rel) => {
                write!(f, "relative standard error ~= {:.4}", rel)
            }
            ErrorBound::AbsoluteCount(abs) => write!(f, "absolute overcount <= {abs:.1}"),
            ErrorBound::Exact => write!(f, "exact"),
        }
    }
}

impl ErrorBound {
    /// The bound's headline magnitude (relative or absolute), for
    /// rendering and comparisons.
    pub fn magnitude(&self) -> f64 {
        match self {
            ErrorBound::RelativeValue { rel, .. } => *rel,
            ErrorBound::RelativeStdDev(rel) => *rel,
            ErrorBound::AbsoluteCount(abs) => *abs,
            ErrorBound::Exact => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SketchError::BadConfig("alpha");
        assert!(e.to_string().contains("alpha"));
        let b = ErrorBound::RelativeValue { rel: 0.01, floor: 1e-9 };
        assert!(b.to_string().contains("0.0100"));
        assert_eq!(b.magnitude(), 0.01);
        assert_eq!(ErrorBound::Exact.magnitude(), 0.0);
    }
}
