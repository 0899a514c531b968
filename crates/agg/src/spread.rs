//! STDDEV and VARIANCE — incrementally removable, independent aggregates
//! over `[sum, sum-of-squares, n]` states.

use crate::state::AggState;
use crate::traits::{AggProperties, Aggregate, IncrementalAggregate};

fn variance_of(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    let n = vals.len() as f64;
    let mean = vals.iter().sum::<f64>() / n;
    vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n
}

fn recover_variance(m: &AggState) -> f64 {
    // m = [sum, sumsq, n]
    if m[2].abs() < 0.5 {
        return 0.0;
    }
    let n = m[2];
    let mean = m[0] / n;
    let var = m[1] / n - mean * mean;
    // Cancellation can push the moment formula fractionally negative;
    // clamp that, but let a NaN (from a NaN or ±∞ input) through.
    if var < 0.0 {
        0.0
    } else {
        var
    }
}

/// Population `STDDEV(x)`: incrementally removable (state
/// `[sum, sumsq, n]`), independent. Empty bag → `0.0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdDev;

impl Aggregate for StdDev {
    fn name(&self) -> &'static str {
        "stddev"
    }

    fn compute(&self, vals: &[f64]) -> f64 {
        variance_of(vals).sqrt()
    }

    fn properties(&self) -> AggProperties {
        AggProperties { independent: true }
    }

    fn incremental(&self) -> Option<&dyn IncrementalAggregate> {
        Some(self)
    }
}

impl IncrementalAggregate for StdDev {
    fn empty(&self) -> AggState {
        AggState::zero(3)
    }
    fn state_one(&self, v: f64) -> AggState {
        AggState::new(&[v, v * v, 1.0])
    }
    fn recover(&self, m: &AggState) -> f64 {
        recover_variance(m).sqrt()
    }
}

/// Population `VARIANCE(x)`: incrementally removable (state
/// `[sum, sumsq, n]`), independent. Empty bag → `0.0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Variance;

impl Aggregate for Variance {
    fn name(&self) -> &'static str {
        "variance"
    }

    fn compute(&self, vals: &[f64]) -> f64 {
        variance_of(vals)
    }

    fn properties(&self) -> AggProperties {
        AggProperties { independent: true }
    }

    fn incremental(&self) -> Option<&dyn IncrementalAggregate> {
        Some(self)
    }
}

impl IncrementalAggregate for Variance {
    fn empty(&self) -> AggState {
        AggState::zero(3)
    }
    fn state_one(&self, v: f64) -> AggState {
        AggState::new(&[v, v * v, 1.0])
    }
    fn recover(&self, m: &AggState) -> f64 {
        recover_variance(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stddev_known_values() {
        // Population stddev of {2, 4, 4, 4, 5, 5, 7, 9} is exactly 2.
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((StdDev.compute(&data) - 2.0).abs() < 1e-12);
        assert!((Variance.compute(&data) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(StdDev.compute(&[]), 0.0);
        assert_eq!(Variance.compute(&[]), 0.0);
        assert_eq!(StdDev.compute(&[42.0]), 0.0);
        assert_eq!(Variance.compute(&[42.0]), 0.0);
    }

    #[test]
    fn incremental_matches_blackbox() {
        let data = [1.0, 5.0, -3.0, 8.0, 2.0, 2.0];
        let rm = [5.0, 2.0];
        let kept = [1.0, -3.0, 8.0, 2.0];
        for (agg, inc) in [
            (&StdDev as &dyn Aggregate, &StdDev as &dyn IncrementalAggregate),
            (&Variance, &Variance),
        ] {
            let d = inc.state_of(&data);
            let got = inc.recover(&inc.remove(&d, &inc.state_of(&rm)));
            let want = agg.compute(&kept);
            assert!((got - want).abs() < 1e-9, "{}", agg.name());
        }
    }

    #[test]
    fn remove_everything_is_zero() {
        let d = StdDev.state_of(&[3.0, 4.0]);
        assert_eq!(<StdDev as IncrementalAggregate>::recover(&StdDev, &StdDev.remove(&d, &d)), 0.0);
    }

    #[test]
    fn recover_never_returns_nan_on_cancellation() {
        // Identical large values: sumsq/n - mean^2 can dip below zero.
        let d = StdDev.state_of(&[1e8 + 0.1; 5]);
        let r = <StdDev as IncrementalAggregate>::recover(&StdDev, &d);
        assert!(r.is_finite());
        assert!(r >= 0.0);
    }

    #[test]
    fn properties() {
        assert!(StdDev.properties().independent);
        assert!(Variance.properties().independent);
        assert!(!StdDev.anti_monotonic_check(&[1.0]));
    }
}
