//! The Scorer (§4.1): evaluates the influence of candidate predicates.
//!
//! The Scorer is the shared cost center of every partitioning algorithm.
//! For black-box aggregates it re-runs the aggregate over the tuples that
//! survive the predicate; for incrementally removable aggregates (§5.1) it
//! caches each input group's full state once and evaluates `Δ` by reading
//! only the *deleted* tuples:
//!
//! `Δ(p) = recover(m_D) − recover(remove(m_D, state(p(g))))`.
//!
//! Predicate evaluation is columnar: each candidate compiles to a
//! [`scorpion_table::RowMask`] (per-clause bitmap kernels, `AND`-combined,
//! memoized per distinct clause in a shared [`ClauseMaskCache`]), and
//! `(n, Δ)` per group falls out of a word-wise zip of the predicate mask
//! against the group's base mask — `n` from popcount, `Δ` from a masked
//! [`AggState`] fold that skips whole all-zero words. The row-at-a-time
//! [`scorpion_table::PredicateMatcher`] survives only as the reference
//! oracle ([`Scorer::influence_rowwise`]), parity-tested against the mask
//! path.

use crate::approx::{ApproxState, GroupSample, InfluenceInterval};
use crate::config::{ApproxConfig, InfluenceParams};
use crate::error::{Result, ScorpionError};
use crate::lru::LruShard;
use parking_lot::Mutex;
use scorpion_agg::{AggState, Aggregate, IncrementalAggregate};
use scorpion_obs::PhaseTiming;
use scorpion_table::{
    intersect_count_words, ClauseMaskCache, Predicate, PredicateMask, PredicateMatcher, RowMask,
    Table,
};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// `n^c` for the interval pass. `c = 0.5` (the paper's default) hits
/// `sqrt` instead of the generic `powf`; any ulp drift against the exact
/// path's arithmetic is covered by the interval's envelope pad.
#[inline]
fn pow_c(n: f64, c: f64) -> f64 {
    if c == 0.5 {
        n.sqrt()
    } else {
        n.powf(c)
    }
}

/// Batch-lifetime scratch for the interval (bound) pass: per-candidate
/// buffers reused across the batch plus the per-(group, leading-clause)
/// AND memo. Everything here is transient — it never outlives one
/// [`Scorer::influence_batch_pruned`] call.
#[derive(Default)]
struct BoundScratch {
    /// The current candidate's full-table clause masks.
    clause_masks: Vec<Arc<RowMask>>,
    /// The current candidate's compressed (sample-universe) clause bitmaps.
    comps: Vec<Arc<Vec<u64>>>,
    /// Per-slot matched sampled-row counts.
    ks: Vec<u32>,
    /// Per-slot matched sampled value-sums.
    ss: Vec<f64>,
    /// `group-mask ∧ leading-clause-mask` over the group's word span,
    /// keyed by both operands' addresses (stable for the batch).
    lead: HashMap<(usize, usize), Vec<u64>>,
}

/// Resolves a configured worker-thread count: `0` means "use the host's
/// available parallelism".
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// One labeled result: the rows of its input group and, for outliers, the
/// user's error-vector component `v_o` (+1 = "too high", −1 = "too low";
/// any magnitude is accepted and treated as a weight).
///
/// Rows are a *set*: the Scorer normalizes them to ascending order and
/// drops duplicates (groupings already produce sorted, unique row ids).
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// Row ids of the input group `g_o` (provenance of the result).
    pub rows: Vec<u32>,
    /// Error-vector component. Ignored for hold-out groups.
    pub error: f64,
}

/// A labeled group as shared handles — the zero-copy form
/// [`crate::ExplainRequest::scorer_at`] feeds from a grouping's cached
/// `Arc` slices and masks.
pub(crate) struct GroupHandle {
    /// Row ids, ascending and unique.
    pub rows: Arc<[u32]>,
    /// The same rows as a bitmap over the table's row domain.
    pub mask: Arc<RowMask>,
    /// Error-vector component (`1.0` for hold-outs).
    pub error: f64,
}

/// A labeled group prepared for scoring.
pub(crate) struct GroupCtx {
    /// Row ids of the input group, ascending and unique.
    pub rows: Arc<[u32]>,
    /// The group's rows as a bitmap over the table's row domain.
    pub mask: Arc<RowMask>,
    /// The nonzero word span of `mask` — the only words the masked
    /// accumulation loops visit.
    span: Range<usize>,
    /// Aggregate-attribute values aligned with `rows`.
    pub values: Vec<f64>,
    /// Error-vector component (`1.0` for hold-outs).
    pub error: f64,
    /// `agg(g)` over the full group.
    pub full_value: f64,
    /// `state(g)` when the aggregate is incrementally removable.
    pub full_state: Option<AggState>,
    /// Lazily computed per-tuple deltas `Δ(t) = agg(g) − agg(g − {t})`,
    /// aligned with `rows`.
    tuple_deltas: OnceLock<Vec<f64>>,
}

/// One predicate's cached, parameter-agnostic evaluation: per labeled
/// group, the matched-tuple count `n` and the aggregate delta `Δ`.
///
/// §8.3.3 observes that DT partitioning is `c`-agnostic; the same holds
/// one level deeper for *any* predicate's influence: `Δ` and `n` per
/// group do not depend on `c` or `λ` — only the final arithmetic
/// `λ·avg_o(v·Δ/n^c) − (1−λ)·max_h(|Δ|/n^c)` does. Caching `(n, Δ)`
/// therefore makes re-scoring at a new `c` free of matcher work for
/// every algorithm, not just DT.
#[derive(Debug, Clone, Default)]
struct CachedEval {
    /// `(n, Δ)` per outlier group (Scorer order), then per hold-out
    /// group. `None` until a full influence evaluation happened.
    /// `Arc`-wrapped so a cache hit is a pointer bump, not a copy of
    /// the per-group slices.
    groups: Option<Arc<GroupPairs>>,
    /// Cached result of [`Scorer::max_tuple_influence`].
    max_tuple: Option<f64>,
}

/// `(n, Δ)` pairs for the outlier groups and the hold-out groups.
type GroupPairs = (Box<[(f64, f64)]>, Box<[(f64, f64)]>);

/// One lock shard of an [`InfluenceCache`]: a [`LruShard`] of cached
/// evaluations keyed by predicate.
type CacheShard = LruShard<Predicate, CachedEval>;

/// A shareable cross-run influence cache keyed by predicate.
///
/// Attach one cache to every [`Scorer`] derived from the same labeled
/// query (same table, labels, and aggregate — the cached `(n, Δ)` pairs
/// are only meaningful for identical inputs) via [`Scorer::with_cache`];
/// re-scoring a known predicate under new [`InfluenceParams`] then skips
/// the matcher entirely and reproduces the direct computation
/// bit-for-bit.
///
/// The cache is bounded: past its capacity, inserting a new predicate
/// evicts the least-recently-used one (NAIVE enumerations can visit
/// millions of predicates; eviction bounds memory while keeping the hot
/// set warm). Evictions are counted and surface per run in
/// [`crate::Diagnostics::cache_evictions`].
pub struct InfluenceCache {
    /// Sharded by predicate hash so concurrent scoring workers
    /// ([`Scorer::influence_batch`]) do not serialize on one lock.
    shards: Vec<Mutex<CacheShard>>,
    /// Total capacity across shards (0 = the default cap).
    cap: usize,
    /// Cumulative LRU evictions.
    evictions: AtomicU64,
}

/// Default bound on cached predicates per [`InfluenceCache`].
const DEFAULT_CACHE_CAP: usize = 1 << 20;

/// Lock shards per cache (power of two).
const CACHE_SHARDS: usize = 16;

impl Default for InfluenceCache {
    fn default() -> Self {
        InfluenceCache {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::new(CacheShard::default())).collect(),
            cap: 0,
            evictions: AtomicU64::new(0),
        }
    }
}

impl InfluenceCache {
    /// An empty cache with the default capacity bound.
    pub fn new() -> Self {
        InfluenceCache::default()
    }

    /// An empty cache holding at most `cap` predicates, evicting the
    /// least recently used past that (`0` = the default bound). The
    /// bound is enforced per lock shard, so the effective capacity is
    /// `cap` rounded up to a multiple of the shard count — read it back
    /// with [`InfluenceCache::capacity`].
    pub fn with_capacity_bound(cap: usize) -> Self {
        InfluenceCache { cap, ..InfluenceCache::default() }
    }

    /// Number of cached predicates.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Drops every cached evaluation (the eviction counter survives —
    /// clearing is not evicting).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().clear();
        }
    }

    /// Total capacity in predicates: the configured bound (or the
    /// default when constructed with `0`), rounded up to shard
    /// granularity — this is the bound actually enforced.
    pub fn capacity(&self) -> usize {
        self.shard_cap() * CACHE_SHARDS
    }

    /// Cumulative number of LRU evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    fn effective_cap(&self) -> usize {
        if self.cap == 0 {
            DEFAULT_CACHE_CAP
        } else {
            self.cap
        }
    }

    fn shard(&self, p: &Predicate) -> &Mutex<CacheShard> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        p.hash(&mut h);
        &self.shards[(h.finish() as usize) & (CACHE_SHARDS - 1)]
    }

    fn shard_cap(&self) -> usize {
        self.effective_cap().div_ceil(CACHE_SHARDS)
    }

    fn count_evictions(&self, n: u64) {
        if n > 0 {
            self.evictions.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn get(&self, p: &Predicate) -> Option<CachedEval> {
        self.shard(p).lock().get_mut(p).map(|e| e.clone())
    }

    /// Updates `p`'s entry in place, or inserts a fresh one (evicting
    /// LRU past the shard bound). Returns how many entries this store
    /// evicted, so callers can attribute evictions to themselves.
    fn upsert(&self, p: &Predicate, update: impl FnOnce(&mut CachedEval)) -> u64 {
        let cap = self.shard_cap();
        let mut shard = self.shard(p).lock();
        if let Some(e) = shard.get_mut(p) {
            update(e);
            return 0;
        }
        let mut e = CachedEval::default();
        update(&mut e);
        let n = shard.insert(p, e, cap);
        drop(shard);
        self.count_evictions(n);
        n
    }

    fn store_groups(&self, p: &Predicate, groups: Arc<GroupPairs>) -> u64 {
        self.upsert(p, |e| e.groups = Some(groups))
    }

    fn store_max_tuple(&self, p: &Predicate, v: f64) -> u64 {
        self.upsert(p, |e| e.max_tuple = Some(v))
    }
}

/// Influence evaluator bound to one labeled query.
pub struct Scorer<'a> {
    table: &'a Table,
    agg: &'a dyn Aggregate,
    inc: Option<&'a dyn IncrementalAggregate>,
    agg_attr: usize,
    /// The full aggregate-attribute column (masked folds index it by
    /// global row id).
    vals: &'a [f64],
    outliers: Vec<GroupCtx>,
    holdouts: Vec<GroupCtx>,
    params: InfluenceParams,
    calls: AtomicU64,
    cache_hits: AtomicU64,
    cache_evictions: AtomicU64,
    cache: Option<Arc<InfluenceCache>>,
    /// Per-clause mask memo: every distinct clause is evaluated against
    /// the table once per cache lifetime, shared by all candidates.
    masks: Arc<ClauseMaskCache>,
    /// Clause-mask lookups *this Scorer* answered from the cache —
    /// attribution stays per-run even when concurrent runs share one
    /// cache (mirrors the per-Scorer `cache_hits` counter).
    mask_hits: AtomicU64,
    /// Nanoseconds spent in uncached mask-path evaluations, and how
    /// many there were — the `scorer.mask` phase.
    mask_nanos: AtomicU64,
    mask_timed: AtomicU64,
    /// Nanoseconds spent in the row-at-a-time oracle — the
    /// `scorer.rowwise` phase.
    rowwise_nanos: AtomicU64,
    rowwise_timed: AtomicU64,
    /// Sampler state of the two-stage approximate search; `None` keeps
    /// every batch exact.
    approx: Option<Arc<ApproxState>>,
    /// Candidates discarded by interval pruning
    /// ([`Scorer::influence_batch_pruned`]) on this Scorer.
    pruned: AtomicU64,
    /// Bit pattern of the largest per-batch error bound seen so far
    /// (bounds are non-negative, so `f64` bit order equals value order
    /// and a monotonic `fetch_max` suffices).
    bound_bits: AtomicU64,
    /// Nanoseconds building sampler state — the `sampler.build` phase.
    sampler_build_nanos: AtomicU64,
    sampler_build_timed: AtomicU64,
    /// Nanoseconds in interval-bound passes — the `sampler.bound` phase.
    sampler_bound_nanos: AtomicU64,
    sampler_bound_timed: AtomicU64,
}

impl<'a> Scorer<'a> {
    /// Builds a Scorer.
    ///
    /// `force_blackbox` disables the incremental fast path even when the
    /// aggregate supports it (used by the Scorer ablation benchmarks).
    pub fn new(
        table: &'a Table,
        agg: &'a dyn Aggregate,
        agg_attr: usize,
        outliers: Vec<GroupSpec>,
        holdouts: Vec<GroupSpec>,
        params: InfluenceParams,
        force_blackbox: bool,
    ) -> Result<Self> {
        let handle = |spec: GroupSpec| -> GroupHandle {
            let mut rows = spec.rows;
            rows.sort_unstable();
            rows.dedup();
            let mask = Arc::new(RowMask::from_rows(table.len(), &rows));
            GroupHandle { rows: rows.into(), mask, error: spec.error }
        };
        Scorer::from_handles(
            table,
            agg,
            agg_attr,
            outliers.into_iter().map(handle).collect(),
            holdouts.into_iter().map(handle).collect(),
            params,
            force_blackbox,
        )
    }

    /// Builds a Scorer from pre-shared group handles (row slices +
    /// masks), avoiding any per-group copying — the path
    /// [`crate::ExplainRequest::scorer_at`] takes from a grouping's cached
    /// shared groups.
    pub(crate) fn from_handles(
        table: &'a Table,
        agg: &'a dyn Aggregate,
        agg_attr: usize,
        outliers: Vec<GroupHandle>,
        holdouts: Vec<GroupHandle>,
        params: InfluenceParams,
        force_blackbox: bool,
    ) -> Result<Self> {
        if outliers.is_empty() {
            return Err(ScorpionError::NoOutliers);
        }
        params.validate()?;
        let inc = if force_blackbox { None } else { agg.incremental() };
        let vals = table.num(agg_attr)?;
        let build = |h: GroupHandle, default_error: Option<f64>| -> GroupCtx {
            let values: Vec<f64> = h.rows.iter().map(|&r| vals[r as usize]).collect();
            let full_state = inc.map(|i| i.state_of(&values));
            let full_value = match (&full_state, inc) {
                (Some(s), Some(i)) => i.recover(s),
                _ => agg.compute(&values),
            };
            let span = h.mask.nonzero_word_span();
            GroupCtx {
                rows: h.rows,
                mask: h.mask,
                span,
                values,
                error: default_error.unwrap_or(h.error),
                full_value,
                full_state,
                tuple_deltas: OnceLock::new(),
            }
        };
        Ok(Scorer {
            table,
            agg,
            inc,
            agg_attr,
            vals,
            outliers: outliers.into_iter().map(|h| build(h, None)).collect(),
            holdouts: holdouts.into_iter().map(|h| build(h, Some(1.0))).collect(),
            params,
            calls: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            cache: None,
            masks: Arc::new(ClauseMaskCache::new()),
            mask_hits: AtomicU64::new(0),
            mask_nanos: AtomicU64::new(0),
            mask_timed: AtomicU64::new(0),
            rowwise_nanos: AtomicU64::new(0),
            rowwise_timed: AtomicU64::new(0),
            approx: None,
            pruned: AtomicU64::new(0),
            bound_bits: AtomicU64::new(0),
            sampler_build_nanos: AtomicU64::new(0),
            sampler_build_timed: AtomicU64::new(0),
            sampler_bound_nanos: AtomicU64::new(0),
            sampler_bound_timed: AtomicU64::new(0),
        })
    }

    /// Attaches a shared [`InfluenceCache`]. The cache must have been
    /// built for this exact labeled query (same table, labels, and
    /// aggregate) — entries are parameter-agnostic but data-specific.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<InfluenceCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a shared [`ClauseMaskCache`]. The cache is
    /// table-specific: attach one per table snapshot (plans do this so
    /// every run over the same table reuses its clause masks) and drop
    /// it when the table changes.
    #[must_use]
    pub fn with_mask_cache(mut self, masks: Arc<ClauseMaskCache>) -> Self {
        self.masks = masks;
        self
    }

    /// The clause-mask cache this Scorer evaluates through.
    pub fn mask_cache(&self) -> &Arc<ClauseMaskCache> {
        &self.masks
    }

    /// Clause-mask lookups this Scorer answered from its cache. Only
    /// this Scorer's own lookups count, so attribution stays correct
    /// when concurrent runs share one cache.
    pub fn mask_cache_hits(&self) -> u64 {
        self.mask_hits.load(Ordering::Relaxed)
    }

    /// Distinct clauses currently resident in the attached cache.
    pub fn mask_cache_entries(&self) -> u64 {
        self.masks.len() as u64
    }

    /// The table this Scorer evaluates against.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// The aggregate attribute index.
    pub fn agg_attr(&self) -> usize {
        self.agg_attr
    }

    /// The influence parameters in force.
    pub fn params(&self) -> InfluenceParams {
        self.params
    }

    /// Returns a Scorer identical to this one but with different
    /// influence parameters. Group handles (row slices and masks) are
    /// shared by `Arc`, and the attached [`InfluenceCache`] and
    /// [`ClauseMaskCache`] are carried over (both are
    /// parameter-agnostic).
    pub fn with_params(&self, params: InfluenceParams) -> Result<Scorer<'a>> {
        let handles = |groups: &[GroupCtx]| {
            groups
                .iter()
                .map(|g| GroupHandle { rows: g.rows.clone(), mask: g.mask.clone(), error: g.error })
                .collect()
        };
        let mut s = Scorer::from_handles(
            self.table,
            self.agg,
            self.agg_attr,
            handles(&self.outliers),
            handles(&self.holdouts),
            params,
            self.inc.is_none() && self.agg.incremental().is_some(),
        )?;
        s.cache = self.cache.clone();
        s.masks = self.masks.clone();
        s.approx = self.approx.clone();
        Ok(s)
    }

    /// Builds the approximate-search sampler state
    /// ([`crate::ApproxState`]) for this labeled query under `cfg`.
    ///
    /// Expensive relative to a single batch (each group's unsampled
    /// values are sorted), so build once per data snapshot and attach
    /// the `Arc` to every scorer over that snapshot with
    /// [`Scorer::with_approx_state`]; engines do this in `prepare` and
    /// rebuild on rebind. Aggregates without a `(count, sum)`-determined
    /// state yield a *fallback* state: attaching it still succeeds, but
    /// batches score exactly and diagnostics carry the reason.
    pub fn build_approx(&self, cfg: ApproxConfig) -> Result<Arc<ApproxState>> {
        if cfg.validate().is_err() {
            return Err(ScorpionError::BadConfig(
                "approx sample_rate must be in (0.0, 1.0] and confidence in (0.5, 1.0]",
            ));
        }
        let start = Instant::now();
        let fallback = match self.inc {
            None => Some("aggregate is not incrementally removable; scored exactly"),
            // Probe the closed-form hook once: the empty removal is
            // representable iff any (count, sum) pair is.
            Some(inc) if inc.state_from_count_sum(0.0, 0.0).is_none() => {
                Some("aggregate state is not determined by (count, sum); scored exactly")
            }
            Some(_) => None,
        };
        let build = |groups: &[GroupCtx]| -> Vec<GroupSample> {
            if fallback.is_some() {
                return Vec::new();
            }
            groups
                .iter()
                .map(|g| GroupSample::build(self.table.len(), &g.rows, &g.values, &cfg))
                .collect()
        };
        let (outliers, holdouts) = (build(&self.outliers), build(&self.holdouts));
        let state = ApproxState::assemble(
            cfg,
            outliers,
            holdouts,
            fallback,
            self.vals,
            start.elapsed().as_nanos() as u64,
        );
        self.sampler_build_nanos.fetch_add(state.build_nanos, Ordering::Relaxed);
        self.sampler_build_timed.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(state))
    }

    /// Attaches prebuilt sampler state. The state must have been built
    /// for this exact labeled query (same table, labels, and aggregate —
    /// samples are row-id- and value-specific, though parameter-agnostic
    /// like the influence cache).
    #[must_use]
    pub fn with_approx_state(mut self, state: Arc<ApproxState>) -> Self {
        self.approx = Some(state);
        self
    }

    /// Builds sampler state under `cfg` and attaches it — the one-shot
    /// convenience over [`Scorer::build_approx`] +
    /// [`Scorer::with_approx_state`].
    pub fn with_approx(self, cfg: ApproxConfig) -> Result<Self> {
        let state = self.build_approx(cfg)?;
        Ok(self.with_approx_state(state))
    }

    /// The attached sampler state, if any.
    pub fn approx_state(&self) -> Option<&Arc<ApproxState>> {
        self.approx.as_ref()
    }

    /// Candidates discarded by interval pruning on this Scorer.
    pub fn candidates_pruned(&self) -> u64 {
        self.pruned.load(Ordering::Relaxed)
    }

    /// The largest per-batch pruning error bound this Scorer reported:
    /// the worst distance between a pruned candidate's estimated
    /// influence and its interval edge. `0.0` when nothing was pruned —
    /// every score returned so far is then exact.
    pub fn approx_error_bound(&self) -> f64 {
        f64::from_bits(self.bound_bits.load(Ordering::Relaxed))
    }

    /// True when the incremental (§5.1) fast path is active.
    pub fn is_incremental(&self) -> bool {
        self.inc.is_some()
    }

    /// Number of outlier groups.
    pub fn n_outliers(&self) -> usize {
        self.outliers.len()
    }

    /// Number of hold-out groups.
    pub fn n_holdouts(&self) -> usize {
        self.holdouts.len()
    }

    /// Row ids of outlier group `g`.
    pub fn outlier_rows(&self, g: usize) -> &[u32] {
        &self.outliers[g].rows
    }

    /// Row ids of hold-out group `g`.
    pub fn holdout_rows(&self, g: usize) -> &[u32] {
        &self.holdouts[g].rows
    }

    /// Aggregate-attribute values of outlier group `g` (aligned with
    /// [`Scorer::outlier_rows`]).
    pub fn outlier_values(&self, g: usize) -> &[f64] {
        &self.outliers[g].values
    }

    /// Aggregate-attribute values of hold-out group `g`.
    pub fn holdout_values(&self, g: usize) -> &[f64] {
        &self.holdouts[g].values
    }

    /// The error-vector component of outlier group `g`.
    pub fn outlier_error(&self, g: usize) -> f64 {
        self.outliers[g].error
    }

    /// Number of influence evaluations performed so far. Cache hits are
    /// not counted — they perform no matcher or aggregate work.
    pub fn scorer_calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Number of influence evaluations answered from the attached
    /// [`InfluenceCache`].
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Number of LRU evictions *this Scorer's* stores caused in the
    /// attached [`InfluenceCache`] — attribution stays correct when
    /// several runs share one cache concurrently.
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions.load(Ordering::Relaxed)
    }

    /// Wall-clock attribution of this Scorer's uncached evaluations:
    /// time in the vectorized mask-kernel path (`scorer.mask`) vs the
    /// row-at-a-time oracle (`scorer.rowwise`), plus the approximate
    /// search's sampler-state construction (`sampler.build`) and
    /// interval-bound passes (`sampler.bound`). Cache hits do none of
    /// these kinds of work and are not timed.
    pub fn timing_phases(&self) -> Vec<PhaseTiming> {
        [
            ("scorer.mask", &self.mask_nanos, &self.mask_timed),
            ("scorer.rowwise", &self.rowwise_nanos, &self.rowwise_timed),
            ("sampler.build", &self.sampler_build_nanos, &self.sampler_build_timed),
            ("sampler.bound", &self.sampler_bound_nanos, &self.sampler_bound_timed),
        ]
        .into_iter()
        .filter_map(|(name, nanos, count)| {
            let count = count.load(Ordering::Relaxed);
            (count > 0).then(|| PhaseTiming { name, nanos: nanos.load(Ordering::Relaxed), count })
        })
        .collect()
    }

    #[inline]
    fn note_mask_time(&self, start: Instant) {
        self.mask_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.mask_timed.fetch_add(1, Ordering::Relaxed);
    }

    /// The bitmap of `p` over this Scorer's table, through the attached
    /// clause-mask cache (hits attributed to this Scorer).
    pub(crate) fn predicate_mask(&self, p: &Predicate) -> Result<PredicateMask> {
        let (mask, hits) = p.mask_with_hits(self.table, &self.masks)?;
        if hits > 0 {
            self.mask_hits.fetch_add(hits, Ordering::Relaxed);
        }
        Ok(mask)
    }

    /// `Δ` and match count of `p` (as a mask) over one group: a
    /// word-wise zip of the predicate mask against the group's base
    /// mask. `n` comes from popcount; `Δ` from a masked [`AggState`]
    /// fold (incremental path) or a masked gather of the survivors
    /// (black-box path). All-zero words — groups the predicate does not
    /// touch — cost one `AND` per 64 rows.
    ///
    /// Rows are visited in ascending order, which is exactly the order
    /// the row-at-a-time oracle visits them (group rows are normalized
    /// ascending), so the floating-point accumulation is bit-identical
    /// to [`Scorer::influence_rowwise`].
    fn delta_ctx(&self, ctx: &GroupCtx, pm: &RowMask) -> (f64, usize) {
        let gw = ctx.mask.words();
        let pw = pm.words();
        match (self.inc, &ctx.full_state) {
            (Some(inc), Some(full)) => {
                let mut sub = AggState::zero(inc.state_len());
                let mut n = 0usize;
                // Chunked word-zip: AND and popcount 8 words at a time
                // (branch-free, auto-vectorizable), then bit-walk only
                // the chunks that matched anything. Rows are still
                // visited strictly ascending — the chunking reorders no
                // accumulation, so the fold stays bit-identical to the
                // rowwise oracle.
                let mut wi = ctx.span.start;
                let chunk_end = ctx.span.start + (ctx.span.len() & !7);
                while wi < chunk_end {
                    let mut anded = [0u64; 8];
                    let mut any = 0u64;
                    for (lane, a) in anded.iter_mut().enumerate() {
                        let w = gw[wi + lane] & pw[wi + lane];
                        *a = w;
                        any |= w;
                        n += w.count_ones() as usize;
                    }
                    if any != 0 {
                        for (lane, &a) in anded.iter().enumerate() {
                            let mut w = a;
                            while w != 0 {
                                let row = (((wi + lane) as u32) << 6) | w.trailing_zeros();
                                sub.accumulate(&inc.state_one(self.vals[row as usize]));
                                w &= w - 1;
                            }
                        }
                    }
                    wi += 8;
                }
                for wi in chunk_end..ctx.span.end {
                    let mut w = gw[wi] & pw[wi];
                    n += w.count_ones() as usize;
                    while w != 0 {
                        let row = ((wi as u32) << 6) | w.trailing_zeros();
                        sub.accumulate(&inc.state_one(self.vals[row as usize]));
                        w &= w - 1;
                    }
                }
                if n == 0 {
                    return (0.0, 0);
                }
                (ctx.full_value - inc.recover(&inc.remove(full, &sub)), n)
            }
            _ => {
                let mut kept = Vec::with_capacity(ctx.rows.len());
                let mut n = 0usize;
                for wi in ctx.span.clone() {
                    let g = gw[wi];
                    n += (g & pw[wi]).count_ones() as usize;
                    let mut w = g & !pw[wi];
                    while w != 0 {
                        let row = ((wi as u32) << 6) | w.trailing_zeros();
                        kept.push(self.vals[row as usize]);
                        w &= w - 1;
                    }
                }
                if n == 0 {
                    return (0.0, 0);
                }
                (ctx.full_value - self.agg.compute(&kept), n)
            }
        }
    }

    /// Row-at-a-time `Δ` and match count — the reference oracle the
    /// masked fold is parity-tested against.
    fn delta_ctx_rowwise(&self, ctx: &GroupCtx, m: &PredicateMatcher) -> (f64, usize) {
        match (self.inc, &ctx.full_state) {
            (Some(inc), Some(full)) => {
                let mut sub = AggState::zero(inc.state_len());
                let mut n = 0usize;
                for (i, &row) in ctx.rows.iter().enumerate() {
                    if m.matches(row) {
                        sub.accumulate(&inc.state_one(ctx.values[i]));
                        n += 1;
                    }
                }
                if n == 0 {
                    return (0.0, 0);
                }
                (ctx.full_value - inc.recover(&inc.remove(full, &sub)), n)
            }
            _ => {
                let mut kept = Vec::with_capacity(ctx.rows.len());
                for (i, &row) in ctx.rows.iter().enumerate() {
                    if !m.matches(row) {
                        kept.push(ctx.values[i]);
                    }
                }
                let n = ctx.rows.len() - kept.len();
                if n == 0 {
                    return (0.0, 0);
                }
                (ctx.full_value - self.agg.compute(&kept), n)
            }
        }
    }

    /// Full influence computed entirely row-at-a-time through the
    /// [`PredicateMatcher`] — the pre-vectorization reference
    /// implementation, kept as the parity oracle (and the baseline the
    /// `influence_throughput` bench measures the mask path against). No
    /// caches are consulted and no counters advance.
    pub fn influence_rowwise(&self, p: &Predicate) -> Result<f64> {
        let start = Instant::now();
        let m = p.matcher(self.table)?;
        let mut sum = 0.0;
        for ctx in &self.outliers {
            let (d, n) = self.delta_ctx_rowwise(ctx, &m);
            sum += self.inf_from_delta(d, n as f64, ctx.error);
        }
        let out = sum / self.outliers.len() as f64;
        let mut hold = 0.0f64;
        for ctx in &self.holdouts {
            let (d, n) = self.delta_ctx_rowwise(ctx, &m);
            hold = hold.max(self.inf_from_delta(d, n as f64, 1.0).abs());
        }
        self.rowwise_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.rowwise_timed.fetch_add(1, Ordering::Relaxed);
        Ok(self.combine_terms(out, hold))
    }

    /// `inf = v · Δ / n^c`, with the empty selection defined as zero.
    #[inline]
    fn inf_from_delta(&self, delta: f64, n: f64, error: f64) -> f64 {
        if n == 0.0 {
            0.0
        } else {
            error * delta / n.powf(self.params.c)
        }
    }

    /// `(n, Δ)` of `p` over every outlier group, in Scorer order.
    fn outlier_pairs(&self, pm: &RowMask) -> Box<[(f64, f64)]> {
        self.outliers
            .iter()
            .map(|ctx| {
                let (d, n) = self.delta_ctx(ctx, pm);
                (n as f64, d)
            })
            .collect()
    }

    /// `(n, Δ)` of `p` over every hold-out group, in Scorer order.
    fn holdout_pairs(&self, pm: &RowMask) -> Box<[(f64, f64)]> {
        self.holdouts
            .iter()
            .map(|ctx| {
                let (d, n) = self.delta_ctx(ctx, pm);
                (n as f64, d)
            })
            .collect()
    }

    /// `λ·(1/|O|)·Σ_o inf(o,p,v_o)` from per-group `(n, Δ)` pairs.
    fn outlier_term_from(&self, pairs: &[(f64, f64)]) -> f64 {
        debug_assert_eq!(
            pairs.len(),
            self.outliers.len(),
            "cached pairs belong to a different labeled query"
        );
        let mut sum = 0.0;
        for (ctx, &(n, d)) in self.outliers.iter().zip(pairs) {
            sum += self.inf_from_delta(d, n, ctx.error);
        }
        sum / self.outliers.len() as f64
    }

    /// `max_h |inf(h,p)|` from per-group `(n, Δ)` pairs.
    fn holdout_term_from(&self, pairs: &[(f64, f64)]) -> f64 {
        debug_assert_eq!(
            pairs.len(),
            self.holdouts.len(),
            "cached pairs belong to a different labeled query"
        );
        let mut max = 0.0f64;
        for &(n, d) in pairs {
            max = max.max(self.inf_from_delta(d, n, 1.0).abs());
        }
        max
    }

    /// Streaming (allocation-free) outlier term, for the uncached path.
    fn outlier_term_direct(&self, pm: &RowMask) -> f64 {
        let mut sum = 0.0;
        for ctx in &self.outliers {
            let (d, n) = self.delta_ctx(ctx, pm);
            sum += self.inf_from_delta(d, n as f64, ctx.error);
        }
        sum / self.outliers.len() as f64
    }

    /// Streaming (allocation-free) hold-out term, for the uncached path.
    fn holdout_term_direct(&self, pm: &RowMask) -> f64 {
        let mut max = 0.0f64;
        for ctx in &self.holdouts {
            let (d, n) = self.delta_ctx(ctx, pm);
            max = max.max(self.inf_from_delta(d, n as f64, 1.0).abs());
        }
        max
    }

    fn combine_terms(&self, out: f64, hold: f64) -> f64 {
        self.params.lambda * out - (1.0 - self.params.lambda) * hold
    }

    /// Full influence `inf(O, H, p, V)` (§3.2):
    /// `λ·(1/|O|)·Σ_o inf(o,p,v_o) − (1−λ)·max_h |inf(h,p)|`.
    ///
    /// With an attached [`InfluenceCache`], known predicates are scored
    /// from their cached per-group `(n, Δ)` pairs — no mask pass, no
    /// `scorer_calls` increment, and a result bit-identical to the
    /// direct computation at the current parameters. Without a cache the
    /// terms are folded directly from the predicate's mask.
    pub fn influence(&self, p: &Predicate) -> Result<f64> {
        let Some(cache) = &self.cache else {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let start = Instant::now();
            let pm = self.predicate_mask(p)?;
            let inf =
                self.combine_terms(self.outlier_term_direct(&pm), self.holdout_term_direct(&pm));
            self.note_mask_time(start);
            return Ok(inf);
        };
        if let Some(CachedEval { groups: Some(g), .. }) = cache.get(p) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(
                self.combine_terms(self.outlier_term_from(&g.0), self.holdout_term_from(&g.1))
            );
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let pm = self.predicate_mask(p)?;
        let (o, h) = (self.outlier_pairs(&pm), self.holdout_pairs(&pm));
        let inf = self.combine_terms(self.outlier_term_from(&o), self.holdout_term_from(&h));
        self.note_mask_time(start);
        let evicted = cache.store_groups(p, Arc::new((o, h)));
        self.cache_evictions.fetch_add(evicted, Ordering::Relaxed);
        Ok(inf)
    }

    /// Hold-out-free influence `inf(O, ∅, p, V)` — MC's conservative
    /// pruning estimate (§6.2, Figure 6a).
    ///
    /// On a cache miss with an attached cache, the hold-out groups are
    /// evaluated too so the stored entry can also answer later full
    /// [`Scorer::influence`] calls.
    pub fn influence_outliers_only(&self, p: &Predicate) -> Result<f64> {
        let Some(cache) = &self.cache else {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let start = Instant::now();
            let pm = self.predicate_mask(p)?;
            let inf = self.params.lambda * self.outlier_term_direct(&pm);
            self.note_mask_time(start);
            return Ok(inf);
        };
        if let Some(CachedEval { groups: Some(g), .. }) = cache.get(p) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(self.params.lambda * self.outlier_term_from(&g.0));
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let pm = self.predicate_mask(p)?;
        let (o, h) = (self.outlier_pairs(&pm), self.holdout_pairs(&pm));
        let inf = self.params.lambda * self.outlier_term_from(&o);
        self.note_mask_time(start);
        let evicted = cache.store_groups(p, Arc::new((o, h)));
        self.cache_evictions.fetch_add(evicted, Ordering::Relaxed);
        Ok(inf)
    }

    /// Per-tuple deltas of outlier group `g`, aligned with its rows.
    pub fn outlier_tuple_deltas(&self, g: usize) -> &[f64] {
        self.tuple_deltas_of(&self.outliers[g])
    }

    /// Per-tuple deltas of hold-out group `g`, aligned with its rows.
    pub fn holdout_tuple_deltas(&self, g: usize) -> &[f64] {
        self.tuple_deltas_of(&self.holdouts[g])
    }

    /// Per-tuple *influences* of outlier group `g`: `v_o · Δ(t)`
    /// (`|p({t})| = 1`, so the `c` exponent is irrelevant — single-tuple
    /// influence is `c`-agnostic, which is what makes DT partitioning
    /// cacheable across `c`, §8.3.3).
    pub fn outlier_tuple_influences(&self, g: usize) -> Vec<f64> {
        let e = self.outliers[g].error;
        self.outlier_tuple_deltas(g).iter().map(|d| d * e).collect()
    }

    /// Per-tuple influence magnitudes of hold-out group `g`: `|Δ(t)|`.
    pub fn holdout_tuple_influences(&self, g: usize) -> Vec<f64> {
        self.holdout_tuple_deltas(g).iter().map(|d| d.abs()).collect()
    }

    fn tuple_deltas_of<'s>(&'s self, ctx: &'s GroupCtx) -> &'s [f64] {
        ctx.tuple_deltas.get_or_init(|| match (self.inc, &ctx.full_state) {
            (Some(inc), Some(full)) => ctx
                .values
                .iter()
                .map(|&v| ctx.full_value - inc.recover(&inc.remove(full, &inc.state_one(v))))
                .collect(),
            _ => {
                // Black-box: leave-one-out recomputation, O(n²).
                let mut kept = Vec::with_capacity(ctx.values.len().saturating_sub(1));
                ctx.values
                    .iter()
                    .enumerate()
                    .map(|(i, _)| {
                        kept.clear();
                        kept.extend(
                            ctx.values.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &v)| v),
                        );
                        ctx.full_value - self.agg.compute(&kept)
                    })
                    .collect()
            }
        })
    }

    /// The maximum single-tuple influence among the outlier tuples matched
    /// by `p` — MC's anti-monotonicity escape hatch (§6.2): with `c = 1`,
    /// `inf(s) = mean_{t∈s} v·Δ(t)`, so no sub-predicate of `p` can exceed
    /// `max_{t∈p(g_O)} inf(t)`.
    pub fn max_tuple_influence(&self, p: &Predicate) -> Result<f64> {
        if let Some(cache) = &self.cache {
            if let Some(CachedEval { max_tuple: Some(v), .. }) = cache.get(p) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(v);
            }
        }
        let pm = self.predicate_mask(p)?;
        let mut best = f64::NEG_INFINITY;
        for (g, ctx) in self.outliers.iter().enumerate() {
            let deltas = self.outlier_tuple_deltas(g);
            for (i, &row) in ctx.rows.iter().enumerate() {
                if pm.contains(row) {
                    let inf = ctx.error * deltas[i];
                    if inf > best {
                        best = inf;
                    }
                }
            }
        }
        if let Some(cache) = &self.cache {
            let evicted = cache.store_max_tuple(p, best);
            self.cache_evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(best)
    }

    /// Influence estimated from pre-aggregated "removed" states — the
    /// Merger's cached-tuple approximation entry point (§6.3). For each
    /// group the caller supplies the estimated number of matched tuples
    /// and the estimated state of the removed subset.
    ///
    /// Errors with [`ScorpionError::UnsupportedAggregate`] when the
    /// aggregate is not incrementally removable.
    pub fn influence_from_states(
        &self,
        outlier_removed: &[(f64, AggState)],
        holdout_removed: &[(f64, AggState)],
    ) -> Result<f64> {
        let inc = self.inc.ok_or(ScorpionError::UnsupportedAggregate {
            algorithm: "cached-tuple approximation",
            requires: "an incrementally removable aggregate",
        })?;
        debug_assert_eq!(outlier_removed.len(), self.outliers.len());
        debug_assert_eq!(holdout_removed.len(), self.holdouts.len());
        let term = |ctx: &GroupCtx, n: f64, sub: &AggState, error: f64| -> f64 {
            if n <= 0.0 {
                return 0.0;
            }
            let full = ctx.full_state.as_ref().expect("incremental scorer has states");
            let delta = ctx.full_value - inc.recover(&inc.remove(full, sub));
            error * delta / n.powf(self.params.c)
        };
        let mut out = 0.0;
        for (ctx, (n, sub)) in self.outliers.iter().zip(outlier_removed) {
            out += term(ctx, *n, sub, ctx.error);
        }
        out /= self.outliers.len() as f64;
        let mut hold = 0.0f64;
        for (ctx, (n, sub)) in self.holdouts.iter().zip(holdout_removed) {
            hold = hold.max(term(ctx, *n, sub, 1.0).abs());
        }
        Ok(self.params.lambda * out - (1.0 - self.params.lambda) * hold)
    }

    /// The incremental decomposition, if active.
    pub fn incremental_agg(&self) -> Option<&'a dyn IncrementalAggregate> {
        self.inc
    }

    /// Scores a batch of predicates, optionally in parallel.
    ///
    /// §8.3.2 leaves parallelism to future work; this is that extension.
    /// The batch is chunked across `threads` scoped workers, each
    /// evaluating the same shared group state read-only. With
    /// `threads <= 1` the batch is scored sequentially. Results are in
    /// input order; scoring errors surface per predicate.
    ///
    /// Candidates at one DT/MC level share most of their clauses; the
    /// attached [`ClauseMaskCache`] evaluates each *distinct* clause
    /// against the table once for the whole batch. Before fanning out,
    /// the cache is pre-warmed serially so workers never race to build
    /// the same clause mask.
    pub fn influence_batch(&self, preds: &[Predicate], threads: usize) -> Vec<Result<f64>> {
        if threads <= 1 || preds.len() < 2 {
            return preds.iter().map(|p| self.influence(p)).collect();
        }
        for p in preds {
            // Errors resurface per predicate during scoring.
            if let Ok(hits) = p.warm_masks(self.table, &self.masks) {
                self.mask_hits.fetch_add(hits, Ordering::Relaxed);
            }
        }
        let threads = threads.min(preds.len());
        let chunk = preds.len().div_ceil(threads);
        let mut out: Vec<Result<f64>> = Vec::with_capacity(preds.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = preds
                .chunks(chunk)
                .map(|chunk| {
                    s.spawn(move || chunk.iter().map(|p| self.influence(p)).collect::<Vec<_>>())
                })
                .collect();
            for h in handles {
                out.extend(h.join().expect("scoring worker panicked"));
            }
        });
        out
    }

    /// The candidate's per-slot `(k, s)` — matched *sampled* row count
    /// and value-sum for every labeled group at once — from one word
    /// loop over the candidate's compressed (sample-universe) bitmap:
    /// the AND of its clauses' compressed bitmaps, each memoized in the
    /// state by [`ApproxState::compressed_clause`]. The universe is two
    /// orders of magnitude smaller than the table, which is what makes
    /// the bound pass cheap enough to win even when it prunes nothing.
    ///
    /// Results land in `scratch` (reused across the batch to keep the
    /// pass allocation-free). `None` when a clause's mask cannot be
    /// evaluated; the caller lets such candidates survive to exact
    /// scoring, which surfaces the error per predicate.
    fn sampled_stats(
        &self,
        p: &Predicate,
        st: &ApproxState,
        scratch: &mut BoundScratch,
    ) -> Option<()> {
        let clause_masks = &mut scratch.clause_masks;
        let comps = &mut scratch.comps;
        clause_masks.clear();
        comps.clear();
        for clause in p.clauses() {
            let (full, hit) = self
                .masks
                .get_or_eval_flagged(clause, || {
                    let col = self.table.column(clause.attr())?;
                    clause.eval_mask(col).ok_or_else(|| scorpion_table::TableError::TypeMismatch {
                        attr: format!("attr{}", clause.attr()),
                        expected: "clause-compatible",
                    })
                })
                .ok()?;
            if hit {
                self.mask_hits.fetch_add(1, Ordering::Relaxed);
            }
            comps.push(st.compressed_clause(clause, &full));
            clause_masks.push(full);
        }
        // The conjunction word is assembled on the fly (the match arm is
        // branch-predicted perfectly within a candidate); no conjunction
        // bitmap is materialized. Compressed clause bitmaps have all
        // out-of-universe tail bits clear, and the empty-conjunction
        // `u64::MAX` case is tail-safe because the per-slot edge masks
        // below never admit positions outside `slot_ranges`.
        let word_at = |wi: usize| -> u64 {
            match comps.as_slice() {
                [] => u64::MAX,
                [a] => a[wi],
                [a, b] => a[wi] & b[wi],
                many => many.iter().fold(u64::MAX, |acc, m| acc & m[wi]),
            }
        };
        let slots = st.slot_ranges.len();
        let (ks, ss) = (&mut scratch.ks, &mut scratch.ss);
        ks.clear();
        ks.resize(slots, 0);
        ss.clear();
        ss.resize(slots, 0.0);
        for (slot, range) in st.slot_ranges.iter().enumerate() {
            if range.is_empty() {
                continue;
            }
            let (w0, w1) = (range.start >> 6, (range.end - 1) >> 6);
            let mut k = 0u32;
            // Two accumulator lanes break the floating-point add
            // dependency chain; the lane split is positional, hence
            // deterministic.
            let (mut s0, mut s1) = (0.0f64, 0.0f64);
            for wi in w0..=w1 {
                let mut w = word_at(wi);
                if wi == w0 && range.start & 63 != 0 {
                    w &= u64::MAX << (range.start & 63);
                }
                if wi == w1 && range.end & 63 != 0 {
                    w &= (1u64 << (range.end & 63)) - 1;
                }
                k += w.count_ones();
                while w != 0 {
                    let pos = (wi << 6) | w.trailing_zeros() as usize;
                    s0 += st.universe_vals[pos];
                    w &= w - 1;
                    if w == 0 {
                        break;
                    }
                    let pos = (wi << 6) | w.trailing_zeros() as usize;
                    s1 += st.universe_vals[pos];
                    w &= w - 1;
                }
            }
            ks[slot] = k;
            ss[slot] = s0 + s1;
        }
        Some(())
    }

    /// `(n, Δ_lo, Δ_hi, Δ_est)` of a candidate over one group: `n` is
    /// exact (a fused AND-popcount of the clause masks against the group
    /// mask over its nonzero word span — no conjunction bitmap is ever
    /// materialized), the sampled matched values are exact (`k`, `s`
    /// from [`Scorer::sampled_stats`]), and the unsampled matched
    /// value-sum is bracketed through
    /// [`GroupSample::removed_sum_bounds`]. The Δ endpoints come from
    /// evaluating the aggregate's closed-form `(count, sum)` delta at
    /// both sum endpoints — monotone in the sum for every aggregate
    /// implementing the hook, so the endpoints bracket the true Δ.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn delta_interval(
        &self,
        ctx: &GroupCtx,
        gs: &GroupSample,
        clause_masks: &[Arc<RowMask>],
        k: u32,
        s: f64,
        inc: &dyn IncrementalAggregate,
        lead: &mut HashMap<(usize, usize), Vec<u64>>,
    ) -> (usize, f64, f64, f64) {
        let gw = ctx.mask.words();
        let n: usize = match clause_masks {
            [] => ctx.rows.len(),
            [a] => {
                let span = ctx.span.clone();
                intersect_count_words(&gw[span.clone()], &a.words()[span])
            }
            [a, b] => {
                // Candidates at one DT/MC level share leading clauses,
                // so `group ∧ leading-clause` is memoized per batch and
                // the triple intersection becomes a double one against a
                // cache-hot scratch row. Keys are addresses: the group
                // contexts and the cached clause masks are both pinned
                // for the batch's lifetime.
                let span = ctx.span.clone();
                let key = (ctx as *const GroupCtx as usize, Arc::as_ptr(a) as usize);
                let ga = lead.entry(key).or_insert_with(|| {
                    gw[span.clone()]
                        .iter()
                        .zip(&a.words()[span.clone()])
                        .map(|(&g, &x)| g & x)
                        .collect()
                });
                intersect_count_words(ga, &b.words()[span])
            }
            many => {
                let mut n = 0usize;
                for wi in ctx.span.clone() {
                    let mut w = gw[wi];
                    for m in many {
                        w &= m.words()[wi];
                    }
                    n += w.count_ones() as usize;
                }
                n
            }
        };
        if n == 0 {
            return (0, 0.0, 0.0, 0.0);
        }
        let (rs_lo, rs_est, rs_hi) = gs.removed_sum_bounds(s, n - k as usize);
        let full = ctx.full_state.as_ref().expect("approx states imply incremental state");
        let d_at = |rs: f64| {
            inc.delta_from_count_sum(full, ctx.full_value, n as f64, rs)
                .expect("probed at build time")
        };
        let (a, b) = (d_at(rs_lo), d_at(rs_hi));
        (n, a.min(b), a.max(b), d_at(rs_est))
    }

    /// The influence interval of a candidate under the attached sampler
    /// state: per-group Δ intervals pushed through the §3.2 arithmetic
    /// with endpoint monotonicity (the outlier term is a sum of linear
    /// images; the hold-out term maxes `|Δ|/n^c` intervals). `None` when
    /// the candidate's masks cannot be evaluated.
    fn influence_interval(
        &self,
        p: &Predicate,
        st: &ApproxState,
        scratch: &mut BoundScratch,
    ) -> Option<InfluenceInterval> {
        let inc = self.inc.expect("fallback states never reach the interval pass");
        self.sampled_stats(p, st, scratch)?;
        let BoundScratch { clause_masks: cms, ks, ss, lead, .. } = scratch;
        let c = self.params.c;
        let (mut out_lo, mut out_hi, mut out_est) = (0.0f64, 0.0f64, 0.0f64);
        for (slot, (ctx, gs)) in self.outliers.iter().zip(&st.outliers).enumerate() {
            let (n, d_lo, d_hi, d_est) =
                self.delta_interval(ctx, gs, cms, ks[slot], ss[slot], inc, lead);
            if n == 0 {
                continue;
            }
            let scale = ctx.error / pow_c(n as f64, c);
            let (a, b) = (d_lo * scale, d_hi * scale);
            out_lo += a.min(b);
            out_hi += a.max(b);
            out_est += d_est * scale;
        }
        let m = self.outliers.len() as f64;
        let (out_lo, out_hi, out_est) = (out_lo / m, out_hi / m, out_est / m);
        // Hold-out: `max(0, max_g t_g)` with `t_g ∈ [a_g, b_g]` lies in
        // `[max(0, max_g a_g), max(0, max_g b_g)]`.
        let base = self.outliers.len();
        let (mut hold_lo, mut hold_hi, mut hold_est) = (0.0f64, 0.0f64, 0.0f64);
        for (slot, (ctx, gs)) in self.holdouts.iter().zip(&st.holdouts).enumerate() {
            let (n, d_lo, d_hi, d_est) =
                self.delta_interval(ctx, gs, cms, ks[base + slot], ss[base + slot], inc, lead);
            if n == 0 {
                continue;
            }
            let scale = pow_c(n as f64, c).recip();
            let abs_lo =
                if d_lo <= 0.0 && d_hi >= 0.0 { 0.0 } else { d_lo.abs().min(d_hi.abs()) * scale };
            hold_lo = hold_lo.max(abs_lo);
            hold_hi = hold_hi.max(d_lo.abs().max(d_hi.abs()) * scale);
            hold_est = hold_est.max(d_est.abs() * scale);
        }
        let l = self.params.lambda;
        let mut lo = l * out_lo - (1.0 - l) * hold_hi;
        let mut hi = l * out_hi - (1.0 - l) * hold_lo;
        let est = l * out_est - (1.0 - l) * hold_est;
        // Pad the envelope against floating-point slop between this
        // arithmetic and the exact path's row-order accumulation, so
        // "the true influence lies inside" survives rounding.
        let pad = 1e-9 * (lo.abs().max(hi.abs()) + 1.0);
        lo -= pad;
        hi += pad;
        Some(InfluenceInterval { lo, hi, est })
    }

    /// Two-stage batch scoring: interval-prune, then score survivors
    /// exactly ([`Scorer::influence_batch`] semantics and threading).
    ///
    /// With attached sampler state, every candidate first gets a cheap
    /// influence interval; the pruning threshold `L` is the `top_k`-th
    /// largest interval *lower* bound, and candidates whose *upper*
    /// bound falls below `L` are dropped (their reported score is the
    /// interval's point estimate). Survivors are then scored exactly in
    /// descending-estimate order, with `L` refined to the `top_k`-th
    /// largest *exact* score seen so far, pruning borderline survivors
    /// the static pass could not. Either way a pruned candidate's true
    /// influence sits below its upper bound, hence below the threshold
    /// in force, hence below at least `top_k` exact scores — so the
    /// returned top-`top_k` scores, and in particular the best
    /// predicate, are always exact.
    ///
    /// Without sampler state (or with a fallback state) this is exactly
    /// [`Scorer::influence_batch`] with zero pruning.
    pub fn influence_batch_pruned(
        &self,
        preds: &[Predicate],
        threads: usize,
        top_k: usize,
    ) -> PrunedBatch {
        let top_k = top_k.max(1);
        let exact_only = match &self.approx {
            None => true,
            Some(st) => st.fallback.is_some() || preds.len() <= top_k,
        };
        if exact_only {
            return PrunedBatch {
                scores: self.influence_batch(preds, threads),
                pruned: 0,
                error_bound: 0.0,
            };
        }
        let st = self.approx.as_ref().expect("checked above").clone();
        let start = Instant::now();
        // No cache pre-warm pass: `sampled_stats` evaluates (and counts
        // hits for) each distinct clause itself, and the survivor batch
        // re-warms serially before any fan-out.
        let mut scratch = BoundScratch::default();
        let intervals: Vec<Option<InfluenceInterval>> =
            preds.iter().map(|p| self.influence_interval(p, &st, &mut scratch)).collect();
        let mut los: Vec<f64> = intervals.iter().flatten().map(|iv| iv.lo).collect();
        let threshold = if los.len() > top_k {
            los.select_nth_unstable_by(top_k - 1, |a, b| b.total_cmp(a));
            los[top_k - 1]
        } else {
            f64::NEG_INFINITY
        };
        self.sampler_bound_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.sampler_bound_timed.fetch_add(1, Ordering::Relaxed);
        // NaN-safe survivorship: only a *provably* dominated candidate
        // (`hi < L`) is pruned; NaN intervals and mask errors survive to
        // exact scoring.
        let survives: Vec<bool> = intervals
            .iter()
            .map(|iv| {
                iv.map(|iv| iv.hi.partial_cmp(&threshold) != Some(std::cmp::Ordering::Less))
                    .unwrap_or(true)
            })
            .collect();
        let mut order: Vec<usize> = (0..preds.len()).filter(|&i| survives[i]).collect();
        let mut error_bound = 0.0f64;
        let mut pruned = 0u64;
        let mut scores: Vec<Result<f64>> = preds.iter().map(|_| Ok(f64::NAN)).collect();
        if threads <= 1 || order.len() < 2 {
            // Dynamic threshold refinement (threshold-algorithm style):
            // survivors are visited in descending order of their interval
            // estimate, so the strongest candidates are scored exactly
            // first and the pruning threshold is raised to the `top_k`-th
            // largest *exact* score seen so far. A later survivor whose
            // upper bound falls below that refined threshold is provably
            // outside the exact top-`top_k` and is pruned without exact
            // scoring — the same invariant as the static pass, with a
            // tighter `L`. Candidates without an interval (mask errors)
            // sort first and are always scored exactly.
            order.sort_unstable_by(|&a, &b| {
                let ea = intervals[a].map(|iv| iv.est).unwrap_or(f64::INFINITY);
                let eb = intervals[b].map(|iv| iv.est).unwrap_or(f64::INFINITY);
                eb.total_cmp(&ea)
            });
            let mut thr = threshold;
            // The `top_k` largest exact scores so far, ascending.
            let mut exact_top: Vec<f64> = Vec::with_capacity(top_k);
            for &i in &order {
                if exact_top.len() == top_k {
                    if let Some(iv) = intervals[i] {
                        if iv.hi < thr {
                            error_bound = error_bound.max(iv.error_bound());
                            scores[i] = Ok(iv.est);
                            pruned += 1;
                            continue;
                        }
                    }
                }
                let sc = self.influence(&preds[i]);
                if let Ok(v) = sc {
                    if !v.is_nan() {
                        let pos = exact_top.partition_point(|&x| x < v);
                        exact_top.insert(pos, v);
                        if exact_top.len() > top_k {
                            exact_top.remove(0);
                        }
                        if exact_top.len() == top_k {
                            thr = thr.max(exact_top[0]);
                        }
                    }
                }
                scores[i] = sc;
            }
        } else {
            // Parallel survivor scoring keeps the static threshold: the
            // workers would serialize on a shared dynamic one.
            let survivors: Vec<Predicate> = order.iter().map(|&i| preds[i].clone()).collect();
            let exact = self.influence_batch(&survivors, threads);
            for (&i, sc) in order.iter().zip(exact) {
                scores[i] = sc;
            }
        }
        for (i, iv) in intervals.iter().enumerate() {
            if !survives[i] {
                let iv = iv.expect("pruned candidates have intervals");
                error_bound = error_bound.max(iv.error_bound());
                scores[i] = Ok(iv.est);
                pruned += 1;
            }
        }
        self.pruned.fetch_add(pruned, Ordering::Relaxed);
        self.bound_bits.fetch_max(error_bound.to_bits(), Ordering::Relaxed);
        PrunedBatch { scores, pruned, error_bound }
    }
}

/// Result of [`Scorer::influence_batch_pruned`]: per-candidate scores in
/// input order plus this batch's pruning statistics.
pub struct PrunedBatch {
    /// One score per input predicate: exact for survivors, the interval
    /// point estimate for pruned candidates.
    pub scores: Vec<Result<f64>>,
    /// Candidates pruned without exact scoring.
    pub pruned: u64,
    /// Worst distance between a pruned candidate's estimate and its
    /// interval edge (`0.0` when nothing was pruned).
    pub error_bound: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpion_agg::{Avg, Sum};
    use scorpion_table::{group_by, Clause, Field, Schema, TableBuilder};

    /// Builds the paper's running example (Tables 1 & 2).
    fn sensors() -> Table {
        let schema = Schema::new(vec![
            Field::disc("time"),
            Field::disc("sensorid"),
            Field::cont("voltage"),
            Field::cont("temp"),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        let rows: [(&str, &str, f64, f64); 9] = [
            ("11AM", "1", 2.64, 34.0),
            ("11AM", "2", 2.65, 35.0),
            ("11AM", "3", 2.63, 35.0),
            ("12PM", "1", 2.7, 35.0),
            ("12PM", "2", 2.7, 35.0),
            ("12PM", "3", 2.3, 100.0),
            ("1PM", "1", 2.7, 35.0),
            ("1PM", "2", 2.7, 35.0),
            ("1PM", "3", 2.3, 80.0),
        ];
        for (t, s, v, temp) in rows {
            b.push_row(vec![t.into(), s.into(), v.into(), temp.into()]).unwrap();
        }
        b.build()
    }

    fn paper_scorer(table: &Table, _c: f64) -> Scorer<'_> {
        let g = group_by(table, &[0]).unwrap();
        // α2 (12PM) and α3 (1PM) are outliers ("too high" → v = +1);
        // α1 (11AM) is the hold-out.
        Scorer::new(
            table,
            &Avg,
            3,
            vec![
                GroupSpec { rows: g.rows(1).to_vec(), error: 1.0 },
                GroupSpec { rows: g.rows(2).to_vec(), error: 1.0 },
            ],
            vec![GroupSpec { rows: g.rows(0).to_vec(), error: 1.0 }],
            InfluenceParams { lambda: 0.5, c: 1.0 },
            false,
        )
        .unwrap()
    }

    #[test]
    fn paper_single_tuple_influences() {
        // §3.2: in g_α2 = {35, 35, 100}, removing T4 (35) changes AVG from
        // 56.6 to 67.5 → inf = −10.8; removing T6 (100) → +21.6.
        let t = sensors();
        let s = paper_scorer(&t, 1.0);
        let deltas = s.outlier_tuple_deltas(0);
        assert!((deltas[0] - (56.0 + 2.0 / 3.0 - 67.5)).abs() < 1e-9);
        assert!((deltas[0] + 10.8333).abs() < 1e-3);
        assert!((deltas[2] - 21.6666).abs() < 1e-3);
        let infs = s.outlier_tuple_influences(0);
        assert!(infs[2] > infs[0]);
    }

    #[test]
    fn error_vector_flips_preference() {
        // §3.2: with v = <−1>, T4 becomes more influential than T6.
        let t = sensors();
        let g = group_by(&t, &[0]).unwrap();
        let s = Scorer::new(
            &t,
            &Avg,
            3,
            vec![GroupSpec { rows: g.rows(1).to_vec(), error: -1.0 }],
            vec![],
            InfluenceParams { lambda: 1.0, c: 1.0 },
            false,
        )
        .unwrap();
        let infs = s.outlier_tuple_influences(0);
        assert!(infs[0] > 0.0); // T4: −(−10.8)
        assert!(infs[2] < 0.0); // T6: −21.6
        assert!(infs[0] > infs[2]);
    }

    #[test]
    fn predicate_influence_prefers_voltage_explanation() {
        // voltage < 2.4 selects exactly T6 and T9 — the planted anomaly.
        let t = sensors();
        let s = paper_scorer(&t, 1.0);
        let bad_voltage = Predicate::conjunction([Clause::range(2, 0.0, 2.4)]).unwrap();
        let normal_voltage = Predicate::conjunction([Clause::range(2, 2.6, 3.0)]).unwrap();
        let inf_bad = s.influence(&bad_voltage).unwrap();
        let inf_norm = s.influence(&normal_voltage).unwrap();
        assert!(
            inf_bad > inf_norm,
            "low-voltage predicate should dominate: {inf_bad} vs {inf_norm}"
        );
        // The bad-voltage predicate does not touch the hold-out group, so
        // its influence is exactly λ·mean(Δ/n) = 0.5·mean(21.67, 15).
        let expect = 0.5 * (21.666_666 + 15.0) / 2.0;
        assert!((inf_bad - expect).abs() < 1e-3, "{inf_bad} vs {expect}");
    }

    #[test]
    fn holdout_penalty_applies() {
        let t = sensors();
        let s = paper_scorer(&t, 1.0);
        // Matches every sensor-3 row, including the hold-out group's.
        let sensor3 =
            Predicate::conjunction([Clause::in_set(1, [t.cat(1).unwrap().code_of("3").unwrap()])])
                .unwrap();
        let inf = s.influence(&sensor3).unwrap();
        // Outlier part identical to the voltage predicate, but the
        // hold-out group loses its 35° reading: avg 34.67 → 34.5,
        // penalty |Δ|/n = 0.1667.
        let expect = 0.5 * (21.666_666 + 15.0) / 2.0 - 0.5 * (34.666_666 - 34.5);
        assert!((inf - expect).abs() < 1e-3, "{inf} vs {expect}");
    }

    #[test]
    fn c_zero_ignores_cardinality() {
        let t = sensors();
        let g = group_by(&t, &[0]).unwrap();
        for c in [0.0, 0.5, 1.0] {
            let s = Scorer::new(
                &t,
                &Sum,
                3,
                vec![GroupSpec { rows: g.rows(1).to_vec(), error: 1.0 }],
                vec![],
                InfluenceParams { lambda: 1.0, c },
                false,
            )
            .unwrap();
            let two_rows = Predicate::conjunction([Clause::range(3, 34.9, 35.1)]).unwrap();
            let inf = s.influence(&two_rows).unwrap();
            // Δ = 70 (two 35° readings), n = 2.
            let expect = 70.0 / 2f64.powf(c);
            assert!((inf - expect).abs() < 1e-9, "c={c}");
        }
    }

    #[test]
    fn empty_selection_has_zero_influence() {
        let t = sensors();
        let s = paper_scorer(&t, 0.0);
        let nothing = Predicate::conjunction([Clause::range(3, 1000.0, 2000.0)]).unwrap();
        assert_eq!(s.influence(&nothing).unwrap(), 0.0);
    }

    #[test]
    fn blackbox_matches_incremental() {
        let t = sensors();
        let g = group_by(&t, &[0]).unwrap();
        let mk = |blackbox: bool| {
            Scorer::new(
                &t,
                &Avg,
                3,
                vec![
                    GroupSpec { rows: g.rows(1).to_vec(), error: 1.0 },
                    GroupSpec { rows: g.rows(2).to_vec(), error: 1.0 },
                ],
                vec![GroupSpec { rows: g.rows(0).to_vec(), error: 1.0 }],
                InfluenceParams { lambda: 0.5, c: 0.7 },
                blackbox,
            )
            .unwrap()
        };
        let fast = mk(false);
        let slow = mk(true);
        assert!(fast.is_incremental());
        assert!(!slow.is_incremental());
        for p in [
            Predicate::conjunction([Clause::range(2, 0.0, 2.4)]).unwrap(),
            Predicate::conjunction([Clause::range(3, 30.0, 90.0)]).unwrap(),
            Predicate::all(),
        ] {
            let a = fast.influence(&p).unwrap();
            let b = slow.influence(&p).unwrap();
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert_eq!(fast.scorer_calls(), 3);
    }

    #[test]
    fn removing_entire_group_is_total() {
        let t = sensors();
        let s = paper_scorer(&t, 1.0);
        let everything = Predicate::all();
        let inf = s.influence(&everything).unwrap();
        assert!(inf.is_finite());
    }

    #[test]
    fn max_tuple_influence_finds_t6() {
        let t = sensors();
        let s = paper_scorer(&t, 1.0);
        let all = Predicate::all();
        let m = s.max_tuple_influence(&all).unwrap();
        assert!((m - 21.6666).abs() < 1e-3);
        // Restricted to normal temperatures the max drops.
        let normals = Predicate::conjunction([Clause::range(3, 0.0, 50.0)]).unwrap();
        assert!(s.max_tuple_influence(&normals).unwrap() < 0.0);
    }

    #[test]
    fn influence_from_states_matches_exact_for_uniform_partition() {
        let t = sensors();
        let s = paper_scorer(&t, 1.0);
        let inc = s.incremental_agg().unwrap();
        // Partition = exactly the 100° tuple in group 0, nothing in group
        // 1; nothing in the hold-out.
        let est = s
            .influence_from_states(
                &[(1.0, inc.state_one(100.0)), (0.0, AggState::zero(2))],
                &[(0.0, AggState::zero(2))],
            )
            .unwrap();
        let exact =
            s.influence(&Predicate::conjunction([Clause::range(3, 99.0, 101.0)]).unwrap()).unwrap();
        assert!((est - exact).abs() < 1e-9, "{est} vs {exact}");
    }

    #[test]
    fn influence_batch_matches_sequential() {
        let t = sensors();
        let s = paper_scorer(&t, 1.0);
        let preds: Vec<Predicate> = (0..20)
            .map(|i| {
                let lo = 2.0 + i as f64 * 0.05;
                Predicate::conjunction([Clause::range(2, lo, lo + 0.3)]).unwrap()
            })
            .collect();
        let serial: Vec<f64> =
            s.influence_batch(&preds, 1).into_iter().map(|r| r.unwrap()).collect();
        let parallel: Vec<f64> =
            s.influence_batch(&preds, 4).into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn mask_path_matches_rowwise_oracle_bit_exactly() {
        let t = sensors();
        for c in [0.0, 0.3, 1.0] {
            let s = paper_scorer(&t, c).with_params(InfluenceParams { lambda: 0.5, c }).unwrap();
            let code3 = t.cat(1).unwrap().code_of("3").unwrap();
            for p in [
                Predicate::all(),
                Predicate::conjunction([Clause::range(2, 0.0, 2.4)]).unwrap(),
                Predicate::conjunction([Clause::in_set(1, [code3])]).unwrap(),
                Predicate::conjunction([Clause::range(2, 0.0, 2.4), Clause::in_set(1, [code3])])
                    .unwrap(),
                Predicate::conjunction([Clause::range(3, 1000.0, 2000.0)]).unwrap(),
            ] {
                let mask = s.influence(&p).unwrap();
                let oracle = s.influence_rowwise(&p).unwrap();
                assert!(
                    mask.to_bits() == oracle.to_bits(),
                    "c={c}: mask {mask} != oracle {oracle} for {}",
                    p.display(&t)
                );
            }
        }
    }

    #[test]
    fn batch_evaluates_each_distinct_clause_once() {
        let t = sensors();
        let s = paper_scorer(&t, 1.0);
        // 8 candidates built from 4 distinct voltage clauses and 2
        // distinct temp clauses.
        let volts: Vec<Clause> =
            (0..4).map(|i| Clause::range(2, 2.0 + i as f64 * 0.1, 2.8)).collect();
        let temps = [Clause::range(3, 0.0, 50.0), Clause::range(3, 50.0, 200.0)];
        let preds: Vec<Predicate> = volts
            .iter()
            .flat_map(|v| {
                temps.iter().map(|t| Predicate::conjunction([v.clone(), t.clone()]).unwrap())
            })
            .collect();
        for r in s.influence_batch(&preds, 4) {
            r.unwrap();
        }
        assert_eq!(s.mask_cache_entries(), 6, "one mask per distinct clause");
        let hits = s.mask_cache_hits();
        assert!(hits > 0, "shared clauses must hit the cache");
        // Re-scoring the same batch is pure cache traffic.
        for r in s.influence_batch(&preds, 1) {
            r.unwrap();
        }
        assert_eq!(s.mask_cache_entries(), 6);
        assert!(s.mask_cache_hits() > hits);
    }

    #[test]
    fn unsorted_group_rows_are_normalized() {
        let t = sensors();
        let g = group_by(&t, &[0]).unwrap();
        let mut shuffled = g.rows(1).to_vec();
        shuffled.reverse();
        let s = Scorer::new(
            &t,
            &Avg,
            3,
            vec![GroupSpec { rows: shuffled, error: 1.0 }],
            vec![],
            InfluenceParams { lambda: 1.0, c: 1.0 },
            false,
        )
        .unwrap();
        assert_eq!(s.outlier_rows(0), g.rows(1), "rows normalize ascending");
        let p = Predicate::conjunction([Clause::range(2, 0.0, 2.4)]).unwrap();
        assert_eq!(s.influence(&p).unwrap().to_bits(), s.influence_rowwise(&p).unwrap().to_bits());
    }

    #[test]
    fn influence_cache_evicts_lru_past_bound() {
        let t = sensors();
        let cache = Arc::new(InfluenceCache::with_capacity_bound(16));
        assert_eq!(cache.capacity(), 16);
        let s = paper_scorer(&t, 1.0).with_cache(cache.clone());
        let preds: Vec<Predicate> = (0..100)
            .map(|i| {
                let lo = i as f64 * 0.01;
                Predicate::conjunction([Clause::range(2, lo, lo + 0.5)]).unwrap()
            })
            .collect();
        for p in &preds {
            s.influence(p).unwrap();
        }
        assert!(cache.len() <= 16, "cache holds {} > bound", cache.len());
        // Every insert past a full shard evicts exactly one entry.
        assert_eq!(cache.evictions() as usize, preds.len() - cache.len());
        // The most recently inserted predicate is still resident.
        let hits = s.cache_hits();
        s.influence(preds.last().unwrap()).unwrap();
        assert_eq!(s.cache_hits(), hits + 1);
    }

    #[test]
    fn influence_cache_keeps_recently_touched_entries() {
        let t = sensors();
        let cache = Arc::new(InfluenceCache::with_capacity_bound(32));
        let s = paper_scorer(&t, 1.0).with_cache(cache.clone());
        let hot = Predicate::conjunction([Clause::range(2, 0.0, 2.4)]).unwrap();
        s.influence(&hot).unwrap();
        // Flood with distinct predicates, re-touching `hot` after each
        // insert: it is always MRU in its shard, so LRU never picks it.
        for i in 0..200 {
            let lo = 2.0 + i as f64 * 0.003;
            s.influence(&Predicate::conjunction([Clause::range(2, lo, lo + 0.1)]).unwrap())
                .unwrap();
            s.influence(&hot).unwrap();
        }
        assert!(cache.evictions() > 0, "flood must overflow the bound");
        let calls = s.scorer_calls();
        s.influence(&hot).unwrap();
        assert_eq!(s.scorer_calls(), calls, "hot predicate was evicted despite recency");
    }

    #[test]
    fn influence_cache_clear_keeps_eviction_counter() {
        let t = sensors();
        let cache = Arc::new(InfluenceCache::with_capacity_bound(16));
        let s = paper_scorer(&t, 1.0).with_cache(cache.clone());
        for i in 0..64 {
            let lo = i as f64 * 0.02;
            s.influence(&Predicate::conjunction([Clause::range(2, lo, lo + 0.5)]).unwrap())
                .unwrap();
        }
        let evicted = cache.evictions();
        assert!(evicted > 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.evictions(), evicted);
    }

    #[test]
    fn validation_errors() {
        let t = sensors();
        let g = group_by(&t, &[0]).unwrap();
        assert!(matches!(
            Scorer::new(&t, &Avg, 3, vec![], vec![], InfluenceParams::default(), false),
            Err(ScorpionError::NoOutliers)
        ));
        let spec = vec![GroupSpec { rows: g.rows(0).to_vec(), error: 1.0 }];
        let bad = [(2.0, 1.0), (f64::NAN, 1.0), (0.5, -1.0), (0.5, f64::NAN), (0.5, f64::INFINITY)];
        for (lambda, c) in bad {
            let params = InfluenceParams { lambda, c };
            let built = Scorer::new(&t, &Avg, 3, spec.clone(), vec![], params, false);
            assert!(matches!(built, Err(ScorpionError::BadConfig(_))), "{params:?}");
        }
    }
}
