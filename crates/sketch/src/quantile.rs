//! UDD/DDSketch-style log-bucketed quantile sketch.
//!
//! Values are binned by magnitude into logarithmic buckets: bucket `i`
//! covers `(γ^(i-1), γ^i]` where `γ = (1+α)/(1-α)`. Reporting the
//! bucket midpoint `2γ^i/(γ+1)` for any value in the bucket gives a
//! relative error of at most `α`. Negative values live in a mirrored
//! bucket store; values within `zero_floor` of 0 land in a dedicated
//! zero bucket (log buckets cannot resolve a neighborhood of zero).
//!
//! Because the state is just *counts per bucket*, the sketch forms a
//! group under merge: [`QuantileSketch::retract`] subtracts counts and
//! is an exact inverse of [`QuantileSketch::merge`] once compaction
//! levels are aligned. When the number of occupied buckets exceeds the
//! configured budget, adjacent bucket pairs collapse (`γ ← γ²`), which
//! widens `α`; the current guarantee is always available via
//! [`QuantileSketch::alpha`] / [`QuantileSketch::error_bound`].

use std::collections::BTreeMap;

use crate::error::{ErrorBound, SketchError};
use crate::Result;

/// Values with magnitude at or below this land in the zero bucket.
const ZERO_FLOOR: f64 = 1e-9;

/// Hard cap on pairwise collapses. At the default α₀ = 0.01 even level
/// 10 corresponds to γ ≈ 8·10⁸ — far past any useful guarantee — so
/// this is a divergence backstop, not a tuning knob.
const MAX_COMPACTIONS: u32 = 32;

/// A mergeable, retractable quantile sketch with a relative-value
/// error guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Initial (pre-collapse) relative error.
    alpha0: f64,
    /// Maximum occupied buckets (positive + negative stores) before a
    /// pairwise collapse doubles the bucket width.
    max_buckets: usize,
    /// Number of pairwise collapses applied so far.
    compactions: u32,
    /// `ln γ` at the current compaction level.
    ln_gamma: f64,
    /// Counts for positive magnitudes, keyed by bucket index.
    pos: BTreeMap<i64, u64>,
    /// Counts for negative magnitudes (bucket of `|v|`).
    neg: BTreeMap<i64, u64>,
    /// Count of values with `|v| <= ZERO_FLOOR`.
    zero: u64,
    /// Total inserted count.
    n: u64,
}

impl QuantileSketch {
    /// Default initial relative error (1%).
    pub const DEFAULT_ALPHA: f64 = 0.01;
    /// Default bucket budget. At α = 0.01 this spans ~18 decades of
    /// magnitude before the first collapse.
    pub const DEFAULT_MAX_BUCKETS: usize = 2048;

    /// Sketch with [`Self::DEFAULT_ALPHA`] and [`Self::DEFAULT_MAX_BUCKETS`].
    pub fn default_sketch() -> Self {
        Self::new(Self::DEFAULT_ALPHA, Self::DEFAULT_MAX_BUCKETS).expect("default config is valid")
    }

    /// Build a sketch with initial relative error `alpha` (in
    /// `(0, 0.5)`) and a bucket budget of at least 8.
    pub fn new(alpha: f64, max_buckets: usize) -> Result<Self> {
        if !(alpha > 0.0 && alpha < 0.5) {
            return Err(SketchError::BadConfig("alpha must be in (0, 0.5)"));
        }
        if max_buckets < 8 {
            return Err(SketchError::BadConfig("max_buckets must be >= 8"));
        }
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        Ok(Self {
            alpha0: alpha,
            max_buckets,
            compactions: 0,
            ln_gamma: gamma.ln(),
            pos: BTreeMap::new(),
            neg: BTreeMap::new(),
            zero: 0,
            n: 0,
        })
    }

    /// An empty sketch of the same family (same `α₀` and bucket
    /// budget), at compaction level 0.
    pub fn fresh(&self) -> Self {
        Self::new(self.alpha0, self.max_buckets).expect("existing config is valid")
    }

    /// Total number of inserted values still represented.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// `true` when no values are represented.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Current relative-error guarantee `α = (γ−1)/(γ+1) = tanh(ln γ / 2)`.
    /// Grows monotonically as the sketch collapses buckets.
    pub fn alpha(&self) -> f64 {
        (self.ln_gamma / 2.0).tanh()
    }

    /// Number of pairwise collapses applied so far (0 means the sketch
    /// still honors its construction-time `α`).
    pub fn compactions(&self) -> u32 {
        self.compactions
    }

    /// Occupied buckets across both magnitude stores.
    pub fn buckets(&self) -> usize {
        self.pos.len() + self.neg.len()
    }

    /// The guarantee on any quantile estimate, at the current
    /// compaction level.
    pub fn error_bound(&self) -> ErrorBound {
        ErrorBound::RelativeValue { rel: self.alpha(), floor: ZERO_FLOOR }
    }

    /// Bucket index for a magnitude strictly above `ZERO_FLOOR`:
    /// `i = ceil(ln x / ln γ)`, covering `(γ^(i-1), γ^i]`.
    fn bucket_of(&self, magnitude: f64) -> i64 {
        (magnitude.ln() / self.ln_gamma).ceil() as i64
    }

    /// Midpoint estimate for bucket `i`: `2γ^i/(γ+1)`, which bounds the
    /// relative error by `α` for every value in the bucket.
    fn estimate_of(&self, bucket: i64) -> f64 {
        let gamma = self.ln_gamma.exp();
        (bucket as f64 * self.ln_gamma).exp() * 2.0 / (gamma + 1.0)
    }

    /// Insert one value. NaN is ignored (consistent with the exact
    /// aggregates, which never see NaN from the table layer).
    pub fn insert(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.n += 1;
        let mag = v.abs();
        if mag <= ZERO_FLOOR {
            self.zero += 1;
        } else {
            let idx = self.bucket_of(mag);
            let store = if v > 0.0 { &mut self.pos } else { &mut self.neg };
            *store.entry(idx).or_insert(0) += 1;
        }
        self.maybe_collapse();
    }

    /// One pairwise collapse: `γ ← γ²`, old bucket `i` maps to
    /// `ceil(i/2)` (so `{2j−1, 2j} → j`, preserving the covering
    /// intervals exactly).
    fn collapse_once(&mut self) {
        self.compactions += 1;
        self.ln_gamma *= 2.0;
        for store in [&mut self.pos, &mut self.neg] {
            let old = std::mem::take(store);
            for (i, c) in old {
                *store.entry(map_up(i, 1)).or_insert(0) += c;
            }
        }
    }

    fn maybe_collapse(&mut self) {
        while self.buckets() > self.max_buckets && self.compactions < MAX_COMPACTIONS {
            self.collapse_once();
        }
    }

    /// Raise this sketch to at least `level` compactions.
    fn align_to(&mut self, level: u32) {
        while self.compactions < level {
            self.collapse_once();
        }
    }

    fn check_family(&self, other: &Self) -> Result<()> {
        if (self.alpha0 - other.alpha0).abs() > f64::EPSILON
            || self.max_buckets != other.max_buckets
        {
            return Err(SketchError::Incompatible(
                "quantile sketches built with different alpha or bucket budget",
            ));
        }
        Ok(())
    }

    /// Merge `other` into `self`. Both sketches are first aligned to
    /// the coarser compaction level; counts then add bucket-wise.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        self.check_family(other)?;
        self.align_to(other.compactions);
        let lift = self.compactions - other.compactions;
        for (store, theirs) in [(&mut self.pos, &other.pos), (&mut self.neg, &other.neg)] {
            for (&i, &c) in theirs {
                *store.entry(map_up(i, lift)).or_insert(0) += c;
            }
        }
        self.zero += other.zero;
        self.n += other.n;
        self.maybe_collapse();
        Ok(())
    }

    /// Subtract `other` from `self` — the inverse of [`Self::merge`]
    /// when `other`'s values are a subset of `self`'s history. `self`
    /// is aligned up to `other`'s compaction level if needed; counts
    /// saturate at zero so a stray over-retract cannot wrap.
    pub fn retract(&mut self, other: &Self) -> Result<()> {
        self.check_family(other)?;
        self.align_to(other.compactions);
        let lift = self.compactions - other.compactions;
        for (store, theirs) in [(&mut self.pos, &other.pos), (&mut self.neg, &other.neg)] {
            for (&i, &c) in theirs {
                let key = map_up(i, lift);
                if let Some(slot) = store.get_mut(&key) {
                    *slot = slot.saturating_sub(c);
                    if *slot == 0 {
                        store.remove(&key);
                    }
                }
            }
        }
        self.zero = self.zero.saturating_sub(other.zero);
        self.n = self.n.saturating_sub(other.n);
        Ok(())
    }

    /// Estimate the `q`-quantile (`q ∈ [0, 1]`) under the rank
    /// convention `rank = max(ceil(q·n), 1)` over the ascending sort —
    /// the same convention as the exact `percentile` aggregate, so
    /// `q = 0.5` matches the exact lower median. Returns 0.0 on an
    /// empty sketch.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut cum = 0u64;
        // Ascending value order: most-negative first (negative store by
        // descending bucket index), then zero, then positives ascending.
        for (&i, &c) in self.neg.iter().rev() {
            cum += c;
            if cum >= rank {
                return -self.estimate_of(i);
            }
        }
        cum += self.zero;
        if cum >= rank {
            return 0.0;
        }
        for (&i, &c) in self.pos.iter() {
            cum += c;
            if cum >= rank {
                return self.estimate_of(i);
            }
        }
        // Counts always sum to n; unreachable unless state was corrupted.
        match self.pos.keys().next_back() {
            Some(&i) => self.estimate_of(i),
            None => 0.0,
        }
    }

    /// Approximate heap footprint in bytes (for resident accounting).
    pub fn approx_bytes(&self) -> usize {
        // BTreeMap nodes are heavier than 16 bytes/entry; 48 is a fair
        // amortized figure for (i64, u64) leaves plus interior nodes.
        std::mem::size_of::<Self>() + 48 * self.buckets()
    }
}

/// Map a bucket index up `levels` pairwise collapses:
/// one level sends `{2j−1, 2j} → j`, i.e. `j = ceil(i/2)`.
fn map_up(mut i: i64, levels: u32) -> i64 {
    for _ in 0..levels {
        i = (i + 1).div_euclid(2);
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(values: &mut [f64], q: f64) -> f64 {
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        values[rank - 1]
    }

    #[test]
    fn empty_sketch_reports_zero() {
        let s = QuantileSketch::default_sketch();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0.0);
    }

    #[test]
    fn single_value_within_alpha() {
        let mut s = QuantileSketch::default_sketch();
        s.insert(42.0);
        let est = s.quantile(0.5);
        assert!((est - 42.0).abs() <= s.alpha() * 42.0 * (1.0 + 1e-9));
    }

    #[test]
    fn median_of_known_sequence_within_bound() {
        let mut s = QuantileSketch::default_sketch();
        let mut vals: Vec<f64> = (1..=1001).map(|i| i as f64).collect();
        for &v in &vals {
            s.insert(v);
        }
        let exact = exact_quantile(&mut vals, 0.5);
        let est = s.quantile(0.5);
        assert!(
            (est - exact).abs() <= s.alpha() * exact.abs() + 1e-9,
            "est {est} exact {exact} alpha {}",
            s.alpha()
        );
    }

    #[test]
    fn negative_and_zero_values_resolve() {
        let mut s = QuantileSketch::default_sketch();
        for v in [-10.0, -5.0, 0.0, 5.0, 10.0] {
            s.insert(v);
        }
        // rank ceil(0.5*5)=3 → value 0.0
        assert_eq!(s.quantile(0.5), 0.0);
        let lo = s.quantile(0.0); // rank 1 → -10
        assert!((lo - (-10.0)).abs() <= s.alpha() * 10.0 + 1e-9, "lo {lo}");
        let hi = s.quantile(1.0); // rank 5 → 10
        assert!((hi - 10.0).abs() <= s.alpha() * 10.0 + 1e-9, "hi {hi}");
    }

    #[test]
    fn merge_matches_single_stream() {
        let mut all = QuantileSketch::default_sketch();
        let mut a = QuantileSketch::default_sketch();
        let mut b = QuantileSketch::default_sketch();
        for i in 0..500 {
            let v = (i as f64) * 0.7 - 100.0;
            all.insert(v);
            if i % 2 == 0 {
                a.insert(v);
            } else {
                b.insert(v);
            }
        }
        a.merge(&b).unwrap();
        assert_eq!(a, all);
    }

    #[test]
    fn retract_inverts_merge_exactly() {
        let mut total = QuantileSketch::default_sketch();
        let mut chunk = QuantileSketch::default_sketch();
        for i in 0..300 {
            total.insert(i as f64);
        }
        let snapshot = total.clone();
        for v in [7.5, -3.25, 0.0, 1e6] {
            chunk.insert(v);
        }
        total.merge(&chunk).unwrap();
        total.retract(&chunk).unwrap();
        assert_eq!(total, snapshot);
    }

    #[test]
    fn collapse_widens_alpha_but_keeps_counts() {
        let mut s = QuantileSketch::new(0.01, 8).unwrap();
        let initial_alpha = s.alpha();
        for i in 0..1000 {
            s.insert((1.5f64).powi(i % 60) * if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        assert!(s.compactions() > 0, "tiny budget must force collapse");
        assert!(s.alpha() > initial_alpha);
        assert!(s.buckets() <= 8 || s.compactions() == 32);
        assert_eq!(s.count(), 1000);
    }

    #[test]
    fn merge_aligns_mismatched_compaction_levels() {
        let mut coarse = QuantileSketch::new(0.01, 8).unwrap();
        for i in 0..500 {
            coarse.insert((1.3f64).powi(i % 80));
        }
        assert!(coarse.compactions() > 0);
        let mut fine = QuantileSketch::new(0.01, 8).unwrap();
        fine.insert(2.0);
        let n = coarse.count() + fine.count();
        coarse.merge(&fine).unwrap();
        assert_eq!(coarse.count(), n);
        // And the other direction: merging coarse into fine lifts fine.
        let mut fine2 = QuantileSketch::new(0.01, 8).unwrap();
        fine2.insert(2.0);
        fine2.merge(&coarse).unwrap();
        assert!(fine2.compactions() >= coarse.compactions());
    }

    #[test]
    fn incompatible_families_refuse_to_merge() {
        let mut a = QuantileSketch::new(0.01, 64).unwrap();
        let b = QuantileSketch::new(0.02, 64).unwrap();
        assert!(matches!(a.merge(&b), Err(SketchError::Incompatible(_))));
    }
}
