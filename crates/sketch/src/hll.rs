//! Dense HyperLogLog++ distinct counting.
//!
//! `m = 2^precision` one-byte registers; each hashed value selects a
//! register with its top `precision` bits and offers the position of
//! the first set bit in the rest. The harmonic-mean estimator with the
//! HLL++ small-range (linear counting) correction gives a relative
//! standard error of `≈ 1.04/√m`. Merge is register-wise max — a
//! semilattice, not a group, so there is **no retract**: windows
//! rebuild eviction by re-merging the surviving chunk partials, the
//! same path the exact MIN/MAX aggregates already take.

use crate::error::{ErrorBound, SketchError};
use crate::hash::{canonical_f64_bits, splitmix64};
use crate::Result;

/// Dense HyperLogLog++ sketch for approximate distinct counts.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperLogLog {
    precision: u8,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Default precision: 2^12 = 4096 registers, ≈1.6% standard error.
    pub const DEFAULT_PRECISION: u8 = 12;

    /// Sketch with [`Self::DEFAULT_PRECISION`].
    pub fn default_sketch() -> Self {
        Self::new(Self::DEFAULT_PRECISION).expect("default precision is valid")
    }

    /// Build a sketch with `2^precision` registers, `precision ∈ [4, 18]`.
    pub fn new(precision: u8) -> Result<Self> {
        if !(4..=18).contains(&precision) {
            return Err(SketchError::BadConfig("precision must be in [4, 18]"));
        }
        Ok(Self { precision, registers: vec![0; 1 << precision] })
    }

    /// Number of registers `m`.
    pub fn registers(&self) -> usize {
        self.registers.len()
    }

    /// The configured precision `p`.
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Relative standard error `1.04/√m`.
    pub fn relative_error(&self) -> f64 {
        1.04 / (self.registers.len() as f64).sqrt()
    }

    /// The probabilistic guarantee on [`Self::estimate`].
    pub fn error_bound(&self) -> ErrorBound {
        ErrorBound::RelativeStdDev(self.relative_error())
    }

    /// Offer a pre-hashed 64-bit value.
    pub fn insert_hash(&mut self, h: u64) {
        let p = self.precision as u32;
        let idx = (h >> (64 - p)) as usize;
        let rest = h << p;
        // Rank of the first set bit in the remaining 64−p bits, in 1..=64−p+1.
        let rho = if rest == 0 { 64 - p + 1 } else { rest.leading_zeros() + 1 } as u8;
        if rho > self.registers[idx] {
            self.registers[idx] = rho;
        }
    }

    /// Offer an `f64` (canonicalized so `-0.0 ≡ 0.0` and all NaNs
    /// collapse to one identity).
    pub fn insert_f64(&mut self, v: f64) {
        self.insert_hash(splitmix64(canonical_f64_bits(v)));
    }

    /// Estimate the number of distinct values offered so far.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            len => 0.7213 / (1.0 + 1.079 / len as f64),
        };
        let mut sum = 0.0f64;
        let mut zeros = 0u64;
        for &r in &self.registers {
            sum += 2f64.powi(-(r as i32));
            if r == 0 {
                zeros += 1;
            }
        }
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            // Small-range correction: linear counting.
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// `true` when nothing has been offered.
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }

    /// Merge `other` into `self` (register-wise max). Fails if the
    /// precisions differ.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        if self.precision != other.precision {
            return Err(SketchError::Incompatible("HLL sketches with different precision"));
        }
        for (a, &b) in self.registers.iter_mut().zip(other.registers.iter()) {
            if b > *a {
                *a = b;
            }
        }
        Ok(())
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.registers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_estimates_zero() {
        let s = HyperLogLog::default_sketch();
        assert!(s.is_empty());
        assert_eq!(s.estimate(), 0.0);
    }

    #[test]
    fn small_cardinalities_are_near_exact() {
        let mut s = HyperLogLog::default_sketch();
        for i in 0..100 {
            s.insert_f64(i as f64);
            s.insert_f64(i as f64); // duplicates must not inflate
        }
        let est = s.estimate();
        assert!((est - 100.0).abs() < 3.0, "est {est}");
    }

    #[test]
    fn large_cardinality_within_three_sigma() {
        let mut s = HyperLogLog::default_sketch();
        let n = 50_000u64;
        for i in 0..n {
            s.insert_f64(i as f64 * 1.000_001);
        }
        let est = s.estimate();
        let tol = 3.0 * s.relative_error() * n as f64;
        assert!((est - n as f64).abs() < tol, "est {est} n {n} tol {tol}");
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut all = HyperLogLog::default_sketch();
        let mut a = HyperLogLog::default_sketch();
        let mut b = HyperLogLog::default_sketch();
        for i in 0..10_000 {
            let v = i as f64 * 0.33;
            all.insert_f64(v);
            if i % 3 == 0 {
                a.insert_f64(v);
            } else {
                b.insert_f64(v);
            }
        }
        a.merge(&b).unwrap();
        assert_eq!(a, all);
    }

    #[test]
    fn mismatched_precision_refuses() {
        let mut a = HyperLogLog::new(10).unwrap();
        let b = HyperLogLog::new(12).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn zero_and_negative_zero_count_once() {
        let mut s = HyperLogLog::default_sketch();
        s.insert_f64(0.0);
        s.insert_f64(-0.0);
        let est = s.estimate();
        assert!((est - 1.0).abs() < 0.5, "est {est}");
    }
}
