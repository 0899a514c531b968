//! Two-stage approximate influence search: deterministic stratified row
//! samples and closed-form influence intervals.
//!
//! The exact Scorer walks every matched row of every labeled group per
//! candidate. At large group sizes most of that work only refines a
//! score whose *ordering* was already decided, so this module front-ends
//! the exact path with a cheap interval pass:
//!
//! 1. Per labeled group, a deterministic stratified sampler picks a
//!    fixed subset of rows (`GroupSample`): one stratum holds the rows
//!    most deviant from the group's mean value (the influence-carrying
//!    tail), the other a seeded hash-rank spread over the rest. The
//!    sampled rows of a candidate are
//!    scored exactly; the unsampled matched rows are only *counted*
//!    (their count `u` is exact — it falls out of the same popcount that
//!    produces `n`), and their value-sum is bracketed by the sums of the
//!    `u` smallest and `u` largest unsampled values, which the sample
//!    precomputes as prefix sums of the sorted unsampled values. This is
//!    the lineage-style closed-form bound of Afrati et al., applied to
//!    the deleted-tuple state of §5.1.
//! 2. The removed-sum interval maps through the aggregate's closed-form
//!    `delta_from_count_sum` hook to a Δ interval, and through the
//!    influence arithmetic (§3.2) to an influence interval per candidate.
//!    Candidates whose upper bound cannot reach the running top-k lower
//!    bound are pruned; survivors are scored exactly.
//!
//! Because every interval is a *deterministic envelope* — the true
//! influence always lies inside it, for every seed — the pruning is
//! conservative: the exact top-1 predicate can never be pruned, and the
//! reported error bound (worst distance between a pruned candidate's
//! estimate and its interval edge) is honest by construction. Aggregates
//! without a `(count, sum)`-determined state (MEDIAN, STDDEV, any
//! black-box) fall back to exact scoring with the reason recorded in
//! [`ApproxState::fallback`].

use crate::config::ApproxConfig;
use parking_lot::Mutex;
use scorpion_table::lru::LruShard;
use scorpion_table::{Clause, RowMask};
use std::sync::Arc;

/// Bound on memoized compressed clause bitmaps; past it the least
/// recently used is evicted (the same runaway-search guard as
/// [`scorpion_table::ClauseMaskCache`], at a larger bound: compressed
/// bitmaps are two orders of magnitude smaller).
const COMPRESSED_CLAUSE_CAP: usize = 4096;

/// The deterministic stratified sample of one labeled group.
///
/// Built once per data snapshot (the sort is the expensive part) and
/// shared read-only by every scoring pass over that snapshot.
#[derive(Debug, Clone)]
pub(crate) struct GroupSample {
    /// Sampled rows as a bitmap over the table's row domain (a subset of
    /// the group's mask, so the group's nonzero word span covers it).
    pub sampled: RowMask,
    /// Aggregate-attribute values of the *unsampled* rows, ascending.
    pub sorted_unsampled: Vec<f64>,
    /// `prefix[i]` = sum of the `i` smallest unsampled values
    /// (`prefix[len]` is the total unsampled sum).
    pub prefix: Vec<f64>,
    /// Mean of the unsampled values (0.0 when none) — the point estimate
    /// for one unsampled matched row.
    pub mean_unsampled: f64,
}

impl GroupSample {
    /// Samples `rows` (ascending, with `values` aligned) at `cfg`'s
    /// rate. Groups under `cfg.min_rows` are fully sampled, which
    /// degenerates the interval to the exact score.
    pub fn build(table_len: usize, rows: &[u32], values: &[f64], cfg: &ApproxConfig) -> Self {
        let len = rows.len();
        let target = if len < cfg.min_rows || cfg.sample_rate >= 1.0 {
            len
        } else {
            // At least 1 so every non-empty group anchors its estimate.
            ((cfg.sample_rate * len as f64).ceil() as usize).clamp(1, len)
        };
        let sampled_idx: Vec<usize> = if target == len {
            (0..len).collect()
        } else {
            // Stratified selection, both strata deterministic:
            //
            // * Half the budget goes to the rows most deviant from the
            //   group's mean value — the influence-carrying tail. Those
            //   rows are scored exactly for every candidate, which is
            //   what keeps the closed-form interval tight: the values
            //   the bound has to hedge over are the mid-range leftovers.
            // * The rest goes to a seeded hash-rank stratum over the
            //   remainder (smallest hashes win): uniform coverage that
            //   anchors the point estimate, stable under reruns.
            let mean = values.iter().sum::<f64>() / len as f64;
            let t_dev = target / 2;
            let mut by_dev: Vec<usize> = (0..len).collect();
            by_dev.sort_unstable_by(|&a, &b| {
                (values[b] - mean).abs().total_cmp(&(values[a] - mean).abs())
            });
            let mut chosen = vec![false; len];
            for &i in by_dev.iter().take(t_dev) {
                chosen[i] = true;
            }
            let t_hash = target - t_dev;
            if t_hash > 0 {
                let mut rest: Vec<(u64, usize)> = (0..len)
                    .filter(|&i| !chosen[i])
                    .map(|i| (splitmix64(cfg.seed ^ rows[i] as u64), i))
                    .collect();
                rest.select_nth_unstable(t_hash - 1);
                rest.truncate(t_hash);
                for (_, i) in rest {
                    chosen[i] = true;
                }
            }
            (0..len).filter(|&i| chosen[i]).collect()
        };
        let mut in_sample = vec![false; len];
        for &i in &sampled_idx {
            in_sample[i] = true;
        }
        let sampled_rows: Vec<u32> =
            rows.iter().zip(&in_sample).filter(|&(_, &s)| s).map(|(&r, _)| r).collect();
        let mut sorted_unsampled: Vec<f64> =
            values.iter().zip(&in_sample).filter(|&(_, &s)| !s).map(|(&v, _)| v).collect();
        sorted_unsampled.sort_unstable_by(f64::total_cmp);
        let mut prefix = Vec::with_capacity(sorted_unsampled.len() + 1);
        let mut acc = 0.0;
        prefix.push(0.0);
        for &v in &sorted_unsampled {
            acc += v;
            prefix.push(acc);
        }
        let mean_unsampled =
            if sorted_unsampled.is_empty() { 0.0 } else { acc / sorted_unsampled.len() as f64 };
        GroupSample {
            sampled: RowMask::from_rows(table_len, &sampled_rows),
            sorted_unsampled,
            prefix,
            mean_unsampled,
        }
    }

    /// Bounds the value-sum of a removed subset of which `sampled_sum`
    /// over the sampled rows is known exactly and `u` unsampled rows
    /// matched (count exact, identity unknown): the unknown part lies
    /// between the sums of the `u` smallest and `u` largest unsampled
    /// values. Returns `(lo, estimate, hi)`.
    #[inline]
    pub fn removed_sum_bounds(&self, sampled_sum: f64, u: usize) -> (f64, f64, f64) {
        debug_assert!(u <= self.sorted_unsampled.len());
        let n_uns = self.sorted_unsampled.len();
        let total = self.prefix[n_uns];
        let lo = sampled_sum + self.prefix[u];
        let hi = sampled_sum + (total - self.prefix[n_uns - u]);
        let est = sampled_sum + u as f64 * self.mean_unsampled;
        (lo, est, hi)
    }
}

/// The sampler state of one labeled query under one [`ApproxConfig`]:
/// per-group samples for the outlier and hold-out groups, in Scorer
/// order, or a fallback marker when the aggregate admits no closed-form
/// interval.
///
/// Built by [`crate::Scorer::build_approx`] once per data snapshot (the
/// per-group value sort dominates) and attached to run scorers with
/// [`crate::Scorer::with_approx_state`]; engines rebuild it on rebind.
#[derive(Debug)]
pub struct ApproxState {
    /// The knobs this state was built under.
    pub(crate) cfg: ApproxConfig,
    /// One sample per outlier group, in Scorer order.
    pub(crate) outliers: Vec<GroupSample>,
    /// One sample per hold-out group, in Scorer order.
    pub(crate) holdouts: Vec<GroupSample>,
    /// The *sample universe*: every sampled row across the labeled
    /// groups, per-group ascending, outlier groups then hold-outs.
    /// Position `i` in this array is bit `i` of every compressed bitmap,
    /// so the interval pass reads `k` and `s` from a word loop over
    /// `len/64` words instead of masking the full table's bitmaps.
    pub(crate) universe_rows: Vec<u32>,
    /// Aggregate-attribute values aligned with `universe_rows`.
    pub(crate) universe_vals: Vec<f64>,
    /// Universe position range of each slot (groups are contiguous by
    /// construction): outlier group `g` is slot `g`, hold-out group `g`
    /// is slot `n_outliers + g`.
    pub(crate) slot_ranges: Vec<std::ops::Range<usize>>,
    /// Per-clause bitmaps over the sample universe, memoized on first
    /// use (compressed from the clause's full-table mask).
    compressed: Mutex<LruShard<Clause, Arc<Vec<u64>>>>,
    /// Why interval pruning is unavailable (`None` = available). Scoring
    /// through a fallback state is exact; the reason surfaces in
    /// [`crate::Diagnostics::approx_fallback`].
    pub(crate) fallback: Option<&'static str>,
}

impl ApproxState {
    /// Assembles state from per-group samples, deriving the sample
    /// universe. `vals` is the full aggregate-attribute column, indexed
    /// by global row id.
    pub(crate) fn assemble(
        cfg: ApproxConfig,
        outliers: Vec<GroupSample>,
        holdouts: Vec<GroupSample>,
        fallback: Option<&'static str>,
        vals: &[f64],
    ) -> Self {
        let total: usize = outliers.iter().chain(&holdouts).map(|g| g.sampled.count_ones()).sum();
        let mut universe_rows = Vec::with_capacity(total);
        let mut universe_vals = Vec::with_capacity(total);
        let mut slot_ranges = Vec::with_capacity(outliers.len() + holdouts.len());
        for gs in outliers.iter().chain(&holdouts) {
            let start = universe_rows.len();
            for r in gs.sampled.iter() {
                universe_rows.push(r);
                universe_vals.push(vals[r as usize]);
            }
            slot_ranges.push(start..universe_rows.len());
        }
        ApproxState {
            cfg,
            outliers,
            holdouts,
            universe_rows,
            universe_vals,
            slot_ranges,
            compressed: Mutex::default(),
            fallback,
        }
    }

    /// Number of 64-bit words in a compressed (sample-universe) bitmap.
    pub(crate) fn universe_words(&self) -> usize {
        self.universe_rows.len().div_ceil(64)
    }

    /// The compressed bitmap of `clause` over the sample universe,
    /// derived from the clause's full-table mask on first use and
    /// memoized for the candidates (and batches) that share the clause.
    pub(crate) fn compressed_clause(&self, clause: &Clause, full: &RowMask) -> Arc<Vec<u64>> {
        if let Some(hit) = self.compressed.lock().get_mut(clause) {
            return hit.clone();
        }
        let mut words = vec![0u64; self.universe_words()];
        for (i, &r) in self.universe_rows.iter().enumerate() {
            if full.contains(r) {
                words[i >> 6] |= 1 << (i & 63);
            }
        }
        let built = Arc::new(words);
        self.compressed.lock().insert(clause, built.clone(), COMPRESSED_CLAUSE_CAP);
        built
    }

    /// The configuration this state was built under.
    pub fn config(&self) -> &ApproxConfig {
        &self.cfg
    }

    /// Why interval pruning is unavailable, if it is (`None` means the
    /// approximate path is active).
    pub fn fallback(&self) -> Option<&'static str> {
        self.fallback
    }
}

/// An influence interval: the true influence lies in `[lo, hi]`; `est`
/// is the point estimate used as the reported score when a candidate is
/// pruned without exact evaluation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InfluenceInterval {
    /// Lower envelope.
    pub lo: f64,
    /// Upper envelope.
    pub hi: f64,
    /// Point estimate (always inside `[lo, hi]` up to rounding).
    pub est: f64,
}

impl InfluenceInterval {
    /// Worst distance between the estimate and either envelope edge —
    /// the per-candidate contribution to
    /// [`crate::Diagnostics::approx_error_bound`].
    pub fn error_bound(&self) -> f64 {
        (self.est - self.lo).max(self.hi - self.est).max(0.0)
    }
}

/// SplitMix64: the standard 64-bit finalizer used as a stateless,
/// high-quality row hash (the sampler only needs uniform ranks, not
/// cryptographic strength).
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rate: f64, min_rows: usize) -> ApproxConfig {
        ApproxConfig { sample_rate: rate, min_rows, ..ApproxConfig::default() }
    }

    #[test]
    fn sample_is_deterministic_and_sized() {
        let rows: Vec<u32> = (0..1000).collect();
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let a = GroupSample::build(1000, &rows, &values, &cfg(0.1, 16));
        let b = GroupSample::build(1000, &rows, &values, &cfg(0.1, 16));
        assert_eq!(a.sampled.count_ones(), 100);
        assert_eq!(a.sampled.to_rows(), b.sampled.to_rows(), "same seed, same sample");
        let other =
            GroupSample::build(1000, &rows, &values, &ApproxConfig { seed: 7, ..cfg(0.1, 16) });
        assert_ne!(a.sampled.to_rows(), other.sampled.to_rows(), "seed changes the sample");
    }

    #[test]
    fn small_groups_are_exhaustive() {
        let rows: Vec<u32> = (0..10).collect();
        let values = vec![1.0; 10];
        let s = GroupSample::build(10, &rows, &values, &cfg(0.1, 256));
        assert!(s.sorted_unsampled.is_empty(), "everything sampled");
        assert_eq!(s.sampled.count_ones(), 10);
        // Exhaustive bounds collapse to the sampled sum.
        let (lo, est, hi) = s.removed_sum_bounds(4.0, 0);
        assert_eq!((lo, est, hi), (4.0, 4.0, 4.0));
    }

    #[test]
    fn removed_sum_bounds_bracket_every_subset() {
        let rows: Vec<u32> = (0..8).collect();
        let values = vec![5.0, -1.0, 2.0, 8.0, 0.0, 3.0, -4.0, 7.0];
        let s = GroupSample::build(8, &rows, &values, &cfg(0.25, 1));
        let unsampled: Vec<f64> = {
            let sampled = s.sampled.to_rows();
            values
                .iter()
                .enumerate()
                .filter(|(i, _)| !sampled.contains(&(*i as u32)))
                .map(|(_, &v)| v)
                .collect()
        };
        // Every subset of the unsampled values must fit its size's bounds.
        for bits in 0u32..(1 << unsampled.len()) {
            let subset: Vec<f64> = unsampled
                .iter()
                .enumerate()
                .filter(|(i, _)| bits >> i & 1 == 1)
                .map(|(_, &v)| v)
                .collect();
            let sum: f64 = subset.iter().sum();
            let (lo, est, hi) = s.removed_sum_bounds(0.0, subset.len());
            assert!(lo <= sum + 1e-9 && sum <= hi + 1e-9, "{sum} outside [{lo}, {hi}]");
            assert!(lo <= est + 1e-9 && est <= hi + 1e-9, "estimate outside its own envelope");
        }
    }

    /// The compressed-clause memo keeps at most 4,096 bitmaps, evicting
    /// the least recently used: a clause read since keeps its bitmap.
    #[test]
    fn compressed_clause_memo_evicts_least_recently_used() {
        let rows: Vec<u32> = (0..10).collect();
        let values: Vec<f64> = (0..10).map(f64::from).collect();
        let sample = GroupSample::build(10, &rows, &values, &cfg(1.0, 1));
        let st = ApproxState::assemble(cfg(1.0, 1), vec![sample], vec![], None, &values);
        let full = RowMask::from_rows(10, &[1, 2, 7]);
        let clause = |i: usize| Clause::range(0, i as f64, i as f64 + 1.0);
        let built: Vec<Arc<Vec<u64>>> =
            (0..COMPRESSED_CLAUSE_CAP).map(|i| st.compressed_clause(&clause(i), &full)).collect();
        assert_eq!(*built[0], [0b1000_0110], "bit i is universe row i");
        // Read 1 and 0, so 2 is the least recently used when 4,096 arrives.
        for i in [1, 0] {
            assert!(Arc::ptr_eq(&built[i], &st.compressed_clause(&clause(i), &full)));
        }
        st.compressed_clause(&clause(COMPRESSED_CLAUSE_CAP), &full);
        assert_eq!(st.compressed.lock().len(), COMPRESSED_CLAUSE_CAP, "bound enforced");
        for i in [0, 1, 3] {
            assert!(Arc::ptr_eq(&built[i], &st.compressed_clause(&clause(i), &full)), "{i}");
        }
        let rebuilt = st.compressed_clause(&clause(2), &full);
        assert!(!Arc::ptr_eq(&built[2], &rebuilt), "2 was evicted");
        assert_eq!(rebuilt, built[2], "and is rebuilt with the same bits");
    }

    #[test]
    fn interval_error_bound_is_nonnegative() {
        let i = InfluenceInterval { lo: -2.0, hi: 3.0, est: 1.0 };
        assert_eq!(i.error_bound(), 3.0);
        let exact = InfluenceInterval { lo: 1.0, hi: 1.0, est: 1.0 };
        assert_eq!(exact.error_bound(), 0.0);
    }
}
