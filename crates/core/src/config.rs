//! Configuration for the Scorpion engine and its algorithms.

use crate::error::{Result, ScorpionError};
use std::time::Duration;

/// The influence knobs shared by every algorithm.
///
/// * `lambda` (§3.2): weight of outlier influence vs. hold-out penalty in
///   `inf(O,H,p,V) = λ·avg_o inf(o,p,v_o) − (1−λ)·max_h |inf(h,p)|`.
/// * `c` (§7): the denominator exponent in `inf = Δ/|p(g_o)|^c`. `c = 0`
///   maximizes raw Δ regardless of how many tuples are deleted; larger `c`
///   demands more selective predicates. The paper's basic definition is
///   `c = 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InfluenceParams {
    /// Hold-out importance trade-off, in `[0, 1]`.
    pub lambda: f64,
    /// Selectivity exponent, `>= 0`.
    pub c: f64,
}

impl Default for InfluenceParams {
    fn default() -> Self {
        InfluenceParams { lambda: 0.5, c: 0.5 }
    }
}

impl InfluenceParams {
    /// Convenience constructor.
    pub fn new(lambda: f64, c: f64) -> Self {
        InfluenceParams { lambda, c }
    }

    /// Replaces `c`, keeping `lambda`.
    #[must_use]
    pub fn with_c(self, c: f64) -> Self {
        InfluenceParams { c, ..self }
    }

    /// Checks that λ is in `[0, 1]` and `c` is finite and `>= 0` (NaN
    /// fails both).
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.lambda) {
            return Err(ScorpionError::BadConfig("lambda must be in [0, 1]"));
        }
        if !(self.c.is_finite() && self.c >= 0.0) {
            return Err(ScorpionError::BadConfig("c must be finite and non-negative"));
        }
        Ok(())
    }
}

/// Configuration of the NAIVE exhaustive partitioner (§4.2, §8.2).
#[derive(Debug, Clone)]
pub struct NaiveConfig {
    /// Number of equi-width bins per continuous attribute (paper: 15).
    pub n_bins: usize,
    /// Maximum number of clauses per predicate (defaults to all attributes
    /// when 0).
    pub max_clauses: usize,
    /// Maximum cardinality of a discrete clause's value set.
    pub max_discrete_subset: usize,
    /// Cap on the distinct values considered per discrete attribute
    /// (values are drawn from the outlier input groups).
    pub max_discrete_values: usize,
    /// Anytime budget: the search stops after this much wall-clock time
    /// and returns the best predicate so far (the paper ran NAIVE for up
    /// to 40 minutes).
    pub time_budget: Option<Duration>,
    /// Record the best-so-far trace (Figure 11) at every improvement.
    pub keep_trace: bool,
}

impl Default for NaiveConfig {
    fn default() -> Self {
        NaiveConfig {
            n_bins: 15,
            max_clauses: 0,
            max_discrete_subset: 3,
            max_discrete_values: 64,
            time_budget: Some(Duration::from_secs(60)),
            keep_trace: false,
        }
    }
}

/// Configuration of the influence-weighted sampling inside DT (§6.1.2).
#[derive(Debug, Clone, Copy)]
pub struct SamplingConfig {
    /// `ε`: the assumed fraction of the dataset occupied by an influential
    /// cluster; drives the initial uniform sampling rate
    /// `min{ sr | 1 − (1−ε)^(sr·|D|) ≥ 0.95 }`.
    pub epsilon: f64,
    /// Groups smaller than this are never sampled.
    pub min_rows_to_sample: usize,
    /// Sampling-rate floor applied after stratified reweighting.
    pub min_rate: f64,
    /// RNG seed (sampling is deterministic given the seed).
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig { epsilon: 0.01, min_rows_to_sample: 4000, min_rate: 0.05, seed: 0x5C09 }
    }
}

/// Configuration of the two-stage approximate influence search.
///
/// When attached to a request, candidate predicates are first scored with
/// closed-form influence *intervals* derived from a deterministic
/// stratified row sample (per input group); candidates whose interval
/// upper bound cannot reach the running top-k lower bound are pruned
/// before exact scoring. The intervals are conservative envelopes — the
/// true influence always lies inside them — so the exact top-1 predicate
/// is never pruned and the reported `approx_error_bound` is honest by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxConfig {
    /// Fraction of each group's rows sampled exactly, in `(0, 1]`. Rows
    /// are chosen by seeded hash rank, so the sample is deterministic and
    /// identical across reruns. `1.0` degenerates to exact scoring.
    pub sample_rate: f64,
    /// Requested confidence level for the influence intervals, in
    /// `(0.5, 1]`. The current bounds are deterministic envelopes with
    /// coverage 1.0, so any admissible value is met; the knob is
    /// validated and reserved for future distribution-sensitive
    /// tightening (Macke et al.).
    pub confidence: f64,
    /// Groups smaller than this are never sampled (interval bounds on
    /// tiny groups cost more than exact scoring saves); their rows are
    /// scored exactly and contribute zero to the error bound.
    pub min_rows: usize,
    /// Seed of the hash-rank sampler (deterministic given the seed).
    pub seed: u64,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig { sample_rate: 0.1, confidence: 0.95, min_rows: 256, seed: 0x5C09 }
    }
}

/// Valid range for [`ApproxConfig::sample_rate`], used in error messages.
pub const APPROX_RATE_RANGE: &str = "(0.0, 1.0]";
/// Valid range for [`ApproxConfig::confidence`], used in error messages.
pub const APPROX_CONFIDENCE_RANGE: &str = "(0.5, 1.0]";

impl ApproxConfig {
    /// Validates the knobs, returning a message naming the offending
    /// field and its valid range on failure.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if !(self.sample_rate > 0.0 && self.sample_rate <= 1.0) {
            return Err(format!(
                "approx sample_rate must be in {APPROX_RATE_RANGE}, got {}",
                self.sample_rate
            ));
        }
        if !(self.confidence > 0.5 && self.confidence <= 1.0) {
            return Err(format!(
                "approx confidence must be in {APPROX_CONFIDENCE_RANGE}, got {}",
                self.confidence
            ));
        }
        Ok(())
    }
}

/// Configuration of the DT (decision-tree) partitioner (§6.1).
#[derive(Debug, Clone)]
pub struct DtConfig {
    /// Minimum multiplicative error threshold `τ_min` (§6.1.1).
    pub tau_min: f64,
    /// Maximum multiplicative error threshold `τ_max` (§6.1.1).
    pub tau_max: f64,
    /// Inflection point `p` of the threshold curve (paper: 0.5).
    pub inflection: f64,
    /// Do not split partitions with fewer sampled tuples than this.
    pub min_partition_size: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Number of candidate split points per continuous attribute
    /// (quantiles of the partition's sample).
    pub n_split_candidates: usize,
    /// Maximum number of prefix splits tried on a discrete attribute.
    pub max_discrete_splits: usize,
    /// §6.1.2 sampling; `None` disables it.
    pub sampling: Option<SamplingConfig>,
    /// Guard on the number of pieces one outlier partition may be carved
    /// into when combining with hold-out partitions (§6.1.4).
    pub max_carve_pieces: usize,
    /// Budget on leaves per tree side. Noisy (Hard) data keeps per-tuple
    /// influence variance above the stopping threshold, which would grow
    /// trees to the depth limit (§8.3.2 observes exactly this); once the
    /// budget is reached, remaining nodes become leaves as-is.
    pub max_leaves: usize,
    /// Overall cap on combined partitions handed to the Merger (its
    /// expansion scan is quadratic in the input size).
    pub max_partitions: usize,
    /// Worker threads for batched influence re-scoring
    /// ([`crate::Scorer::influence_batch`]) in the engine's warm path.
    /// `0` = auto-detect from the host's available parallelism.
    pub score_threads: usize,
    /// Merger settings for the DT pipeline.
    pub merger: MergerConfig,
}

impl Default for DtConfig {
    fn default() -> Self {
        DtConfig {
            tau_min: 0.025,
            tau_max: 0.2,
            inflection: 0.5,
            min_partition_size: 16,
            max_depth: 12,
            n_split_candidates: 16,
            max_discrete_splits: 16,
            sampling: Some(SamplingConfig::default()),
            max_carve_pieces: 64,
            max_leaves: 512,
            max_partitions: 1024,
            score_threads: 0,
            merger: MergerConfig { use_cached_tuples: true, ..MergerConfig::default() },
        }
    }
}

/// Configuration of the MC (bottom-up) partitioner (§6.2).
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Number of equi-width bins per continuous attribute (paper: 15).
    pub n_bins: usize,
    /// Cap on the distinct values considered per discrete attribute
    /// (values are drawn from the outlier input groups; values absent from
    /// every outlier group have non-positive influence and are pruned
    /// immediately by any positive `best`).
    pub max_discrete_values: usize,
    /// Cap on candidates carried between levels (kept by outlier-only
    /// influence); prevents worst-case blowup on hard data.
    pub max_candidates_per_level: usize,
    /// Maximum predicate dimensionality (defaults to all attributes
    /// when 0).
    pub max_dims: usize,
    /// Disable the §6.2 pruning rules (ablation only).
    pub disable_pruning: bool,
    /// Anytime budget: the level loop stops once this much wall-clock
    /// time has elapsed and returns the best predicates found so far
    /// (`McDiag::budget_exhausted` reports the early exit). `None` (the
    /// default) runs to convergence.
    pub time_budget: Option<Duration>,
    /// Worker threads for batched candidate scoring
    /// ([`crate::Scorer::influence_batch`]) at each level. `0` =
    /// auto-detect from the host's available parallelism.
    pub score_threads: usize,
    /// Merger settings for the MC pipeline (exact scoring; the
    /// cached-tuple approximation is a DT-specific optimization).
    pub merger: MergerConfig,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            n_bins: 15,
            max_discrete_values: 256,
            max_candidates_per_level: 4096,
            max_dims: 0,
            disable_pruning: false,
            time_budget: None,
            score_threads: 0,
            merger: MergerConfig {
                use_cached_tuples: false,
                require_same_attrs: true,
                ..MergerConfig::default()
            },
        }
    }
}

/// Configuration of the Merger (§4.3, §6.3).
#[derive(Debug, Clone)]
pub struct MergerConfig {
    /// §6.3 optimization 1: only expand seeds whose influence is in the
    /// top quartile of the input ranking.
    pub top_quartile_only: bool,
    /// §6.3 optimization 2: estimate merged influence from cached
    /// partition statistics instead of calling the Scorer (requires an
    /// incrementally removable aggregate and partition stats).
    pub use_cached_tuples: bool,
    /// Adjacency tolerance as a fraction of each attribute's domain span.
    pub adjacency_eps: f64,
    /// Only merge predicates constraining the same attribute set. MC sets
    /// this: in the subspace-clustering frame (§6.2), adjacent units live
    /// in the same subspace, and cross-subspace hulls would degenerate to
    /// unconstrained predicates; dimensionality grows only by
    /// intersection.
    pub require_same_attrs: bool,
    /// Maximum number of merge steps per seed.
    pub max_expansions: usize,
    /// Number of top results re-scored exactly and returned.
    pub max_results: usize,
}

impl Default for MergerConfig {
    fn default() -> Self {
        MergerConfig {
            top_quartile_only: true,
            use_cached_tuples: false,
            adjacency_eps: 1e-6,
            require_same_attrs: false,
            max_expansions: 64,
            max_results: 16,
        }
    }
}

/// Which partitioning algorithm to run.
#[derive(Debug, Clone, Default)]
pub enum Algorithm {
    /// Choose automatically from the aggregate's declared properties
    /// (§5): independent + anti-monotonic → MC; independent → DT;
    /// otherwise NAIVE.
    #[default]
    Auto,
    /// Exhaustive anytime search (§4.2).
    Naive(NaiveConfig),
    /// Top-down regression-tree partitioning (§6.1).
    DecisionTree(DtConfig),
    /// Bottom-up subspace search (§6.2).
    BottomUp(McConfig),
}

impl Algorithm {
    /// Diagnostic name: `"auto"`, `"naive"`, `"dt"`, or `"mc"` (the
    /// names [`crate::Diagnostics::algorithm`] reports).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Auto => "auto",
            Algorithm::Naive(_) => "naive",
            Algorithm::DecisionTree(_) => "dt",
            Algorithm::BottomUp(_) => "mc",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_papers() {
        let n = NaiveConfig::default();
        assert_eq!(n.n_bins, 15);
        let m = McConfig::default();
        assert_eq!(m.n_bins, 15);
        let d = DtConfig::default();
        assert!(d.tau_min < d.tau_max);
        assert_eq!(d.inflection, 0.5);
        let p = InfluenceParams::default();
        assert_eq!(p.lambda, 0.5);
    }

    #[test]
    fn with_c_preserves_lambda() {
        let p = InfluenceParams::new(0.7, 0.3).with_c(0.9);
        assert_eq!(p.lambda, 0.7);
        assert_eq!(p.c, 0.9);
    }

    #[test]
    fn approx_validation_names_range() {
        assert!(ApproxConfig::default().validate().is_ok());
        let bad_rate = ApproxConfig { sample_rate: 0.0, ..ApproxConfig::default() };
        let msg = bad_rate.validate().unwrap_err();
        assert!(msg.contains("sample_rate") && msg.contains(APPROX_RATE_RANGE), "{msg}");
        let bad_conf = ApproxConfig { confidence: 0.5, ..ApproxConfig::default() };
        let msg = bad_conf.validate().unwrap_err();
        assert!(msg.contains("confidence") && msg.contains(APPROX_CONFIDENCE_RANGE), "{msg}");
        let nan = ApproxConfig { sample_rate: f64::NAN, ..ApproxConfig::default() };
        assert!(nan.validate().is_err());
    }

    #[test]
    fn merger_defaults_differ_by_pipeline() {
        assert!(DtConfig::default().merger.use_cached_tuples);
        assert!(!McConfig::default().merger.use_cached_tuples);
    }
}
