//! Owned, shareable explain requests and the [`Scorpion`] builder — the
//! one way into the engine.
//!
//! An [`ExplainRequest`] owns everything through `Arc`s, so it can be
//! cloned cheaply, moved into sessions or worker threads, and re-run
//! under different influence parameters — the shape a long-lived
//! explanation service needs. It is also where the problem is checked
//! and resolved: label validation, the `A_rest` default, scorer
//! construction, and the §5 choice behind [`Algorithm::Auto`] live here
//! and nowhere else.
//!
//! The fluent entry point mirrors the paper's Figure 2 flow (query →
//! inspect results → label → explain):
//!
//! ```
//! # use scorpion_core::{Scorpion, Result};
//! # use scorpion_table::{Field, Schema, TableBuilder};
//! # fn demo() -> Result<()> {
//! # let schema = Schema::new(vec![
//! #     Field::disc("time"), Field::disc("sensorid"), Field::cont("temp"),
//! # ]).unwrap();
//! # let mut b = TableBuilder::new(schema);
//! # for (t, s, v) in [
//! #     ("11AM", "1", 35.0), ("11AM", "2", 35.0),
//! #     ("12PM", "1", 35.0), ("12PM", "2", 100.0),
//! # ] {
//! #     b.push_row(vec![t.into(), s.into(), v.into()]).unwrap();
//! # }
//! # let table = b.build();
//! let request = Scorpion::on(table)
//!     .sql("SELECT avg(temp) FROM sensors GROUP BY time")?
//!     .outlier(1, 1.0)
//!     .holdout(0)
//!     .params(0.5, 0.2)
//!     .build()?;
//! let explanation = request.explain()?;
//! # let _ = explanation;
//! # Ok(())
//! # }
//! # demo().unwrap();
//! ```

use crate::config::{Algorithm, ApproxConfig, DtConfig, InfluenceParams, McConfig, NaiveConfig};
use crate::engine::{DtPlan, McPlan, NaivePlan, PreparedPlan};
use crate::error::{Result, ScorpionError};
use crate::prepared::PreparedQuery;
use crate::result::Explanation;
use crate::scorer::{GroupHandle, Scorer};
use scorpion_agg::Aggregate;
use scorpion_table::{aggregate_groups, group_by, Grouping, Table, TableError};
use std::collections::HashSet;
use std::sync::Arc;

/// A fully specified Influential Predicates problem (§3.3) with owned,
/// `Arc`-shared data: the query (table + grouping + aggregate), the
/// labels (`O`, `V`, `H`), the influence parameters, and the search
/// options. Cloning is cheap (`Arc` bumps plus the label vectors).
///
/// Build one with [`Scorpion`]; run it with [`ExplainRequest::explain`],
/// or prepare it once and re-run it cheaply across parameter changes
/// with [`crate::session::ScorpionSession`].
#[derive(Clone)]
pub struct ExplainRequest {
    pub(crate) table: Arc<Table>,
    pub(crate) grouping: Arc<Grouping>,
    pub(crate) agg: Arc<dyn Aggregate>,
    pub(crate) agg_attr: usize,
    pub(crate) outliers: Vec<(usize, f64)>,
    pub(crate) holdouts: Vec<usize>,
    pub(crate) params: InfluenceParams,
    pub(crate) algorithm: Algorithm,
    pub(crate) explain_attrs: Option<Vec<usize>>,
    pub(crate) max_explain_attrs: Option<usize>,
    pub(crate) force_blackbox: bool,
    pub(crate) influence_cache_entries: usize,
    pub(crate) approx: Option<ApproxConfig>,
}

impl ExplainRequest {
    /// Assembles a request directly from owned parts — the programmatic
    /// path for callers that already hold a materialized table and
    /// grouping (e.g. the streaming engine). Labels are validated;
    /// parameters default to [`InfluenceParams::default`] and the
    /// algorithm to [`Algorithm::Auto`] (adjust with the `with_*`
    /// methods).
    pub fn from_parts(
        table: Arc<Table>,
        grouping: Arc<Grouping>,
        agg: Arc<dyn Aggregate>,
        agg_attr: usize,
        outliers: Vec<(usize, f64)>,
        holdouts: Vec<usize>,
    ) -> Result<Self> {
        let req = ExplainRequest {
            table,
            grouping,
            agg,
            agg_attr,
            outliers,
            holdouts,
            params: InfluenceParams::default(),
            algorithm: Algorithm::Auto,
            explain_attrs: None,
            max_explain_attrs: None,
            force_blackbox: false,
            influence_cache_entries: 0,
            approx: None,
        };
        req.validate()?;
        Ok(req)
    }

    /// The input relation `D`.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// The query's grouping (which doubles as provenance, §4.1).
    pub fn grouping(&self) -> &Arc<Grouping> {
        &self.grouping
    }

    /// The aggregate operator.
    pub fn aggregate(&self) -> &Arc<dyn Aggregate> {
        &self.agg
    }

    /// The aggregated attribute (`A_agg`).
    pub fn agg_attr(&self) -> usize {
        self.agg_attr
    }

    /// Outlier labels: `(result index, error-vector component)`.
    pub fn outliers(&self) -> &[(usize, f64)] {
        &self.outliers
    }

    /// Hold-out result indices.
    pub fn holdouts(&self) -> &[usize] {
        &self.holdouts
    }

    /// The influence parameters this request runs at by default.
    pub fn params(&self) -> InfluenceParams {
        self.params
    }

    /// The configured algorithm choice.
    pub fn algorithm(&self) -> &Algorithm {
        &self.algorithm
    }

    /// Returns a copy at different influence parameters.
    #[must_use]
    pub fn with_params(&self, params: InfluenceParams) -> Self {
        ExplainRequest { params, ..self.clone() }
    }

    /// Returns a copy at a different `c` (λ kept).
    #[must_use]
    pub fn with_c(&self, c: f64) -> Self {
        self.with_params(self.params.with_c(c))
    }

    /// Returns a copy running a different algorithm.
    #[must_use]
    pub fn with_algorithm(&self, algorithm: Algorithm) -> Self {
        ExplainRequest { algorithm, ..self.clone() }
    }

    /// Returns a copy restricted to the given explanation attributes
    /// (`None` restores the `A_rest` default).
    #[must_use]
    pub fn with_explain_attrs(&self, explain_attrs: Option<Vec<usize>>) -> Self {
        ExplainRequest { explain_attrs, ..self.clone() }
    }

    /// The configured [`crate::InfluenceCache`] bound for plans prepared
    /// from this request (`0` = the cache's default bound).
    pub fn influence_cache_entries(&self) -> usize {
        self.influence_cache_entries
    }

    /// Returns a copy whose prepared plans bound their influence cache
    /// to `entries` predicates, evicting LRU past that (`0` = default).
    #[must_use]
    pub fn with_influence_cache_entries(&self, entries: usize) -> Self {
        ExplainRequest { influence_cache_entries: entries, ..self.clone() }
    }

    /// The approximate-search configuration, if any.
    pub fn approx(&self) -> Option<&ApproxConfig> {
        self.approx.as_ref()
    }

    /// Returns a copy running the two-stage approximate influence
    /// search under `approx` (`None` restores the exact default).
    /// Validate the knobs with [`ApproxConfig::validate`] at the edge;
    /// plans also reject out-of-range values when building sampler
    /// state.
    #[must_use]
    pub fn with_approx(&self, approx: Option<ApproxConfig>) -> Self {
        ExplainRequest { approx, ..self.clone() }
    }

    /// Validates the labels against the grouping, the explanation
    /// attributes against the schema, and the influence parameters.
    pub fn validate(&self) -> Result<()> {
        if self.outliers.is_empty() {
            return Err(ScorpionError::NoOutliers);
        }
        let len = self.grouping.len();
        let mut seen = HashSet::new();
        for &(i, _) in &self.outliers {
            if i >= len {
                return Err(ScorpionError::BadLabel { index: i, len });
            }
            seen.insert(i);
        }
        for &i in &self.holdouts {
            if i >= len {
                return Err(ScorpionError::BadLabel { index: i, len });
            }
            if seen.contains(&i) {
                return Err(ScorpionError::OverlappingLabels { index: i });
            }
        }
        let n_attrs = self.table.schema().len();
        if let Some(&index) = self.explain_attrs.iter().flatten().find(|&&a| a >= n_attrs) {
            return Err(TableError::AttributeOutOfBounds { index, len: n_attrs }.into());
        }
        self.params.validate()
    }

    /// The explanation attributes `A_rest = A − A_gb − A_agg` (§3.1).
    pub fn default_explain_attrs(&self) -> Vec<usize> {
        (0..self.table.schema().len())
            .filter(|a| *a != self.agg_attr && !self.grouping.group_attrs().contains(a))
            .collect()
    }

    /// The attributes the search will run over: the configured set, or
    /// `A_rest`. Errors when nothing remains. (§6.4 feature selection,
    /// when configured, is applied by the engine during `prepare`.)
    pub fn resolved_attrs(&self) -> Result<Vec<usize>> {
        let attrs = match &self.explain_attrs {
            Some(a) => a.clone(),
            None => self.default_explain_attrs(),
        };
        if attrs.is_empty() {
            return Err(ScorpionError::NoExplainAttributes);
        }
        Ok(attrs)
    }

    /// Builds a Scorer at this request's own parameters.
    pub fn scorer(&self) -> Result<Scorer<'_>> {
        self.scorer_at(self.params)
    }

    /// Builds a Scorer at the given parameters. Group rows and masks come
    /// from the grouping's shared (`Arc`-cached) handles, so repeated
    /// scorer builds over the same grouping — plan re-runs, session
    /// re-scores, streaming rebinds — copy no row ids.
    pub fn scorer_at(&self, params: InfluenceParams) -> Result<Scorer<'_>> {
        let handle = |i: usize, error: f64| {
            let (rows, mask) = self.grouping.shared_group(i, self.table.len());
            GroupHandle { rows, mask, error }
        };
        Scorer::from_handles(
            &self.table,
            self.agg.as_ref(),
            self.agg_attr,
            self.outliers.iter().map(|&(i, e)| handle(i, e)).collect(),
            self.holdouts.iter().map(|&i| handle(i, 1.0)).collect(),
            params,
            self.force_blackbox,
        )
    }

    /// Resolves [`Algorithm::Auto`] from the aggregate's §5 properties:
    /// independent + anti-monotonic (per `check(D)` on the labeled data)
    /// → MC; independent → DT; otherwise NAIVE. Explicit choices pass
    /// through unchanged.
    pub fn resolve_algorithm(&self) -> Result<Algorithm> {
        if !matches!(self.algorithm, Algorithm::Auto) {
            return Ok(self.algorithm.clone());
        }
        let independent = self.agg.properties().independent;
        let anti = self.agg.anti_monotonic_check(&self.labeled_values()?);
        Ok(if independent && anti {
            Algorithm::BottomUp(McConfig::default())
        } else if independent {
            Algorithm::DecisionTree(DtConfig::default())
        } else {
            Algorithm::Naive(NaiveConfig::default())
        })
    }

    /// Values of the aggregate attribute across all labeled groups, used
    /// for the §5.3 `check(D)` anti-monotonicity test.
    fn labeled_values(&self) -> Result<Vec<f64>> {
        let vals = self.table.num(self.agg_attr)?;
        let labeled = self.outliers.iter().map(|&(i, _)| i).chain(self.holdouts.iter().copied());
        Ok(labeled.flat_map(|i| self.grouping.rows(i).iter().map(|&r| vals[r as usize])).collect())
    }

    /// Runs the expensive, `c`-agnostic preparation phase of the
    /// (resolved) algorithm, returning a plan that can be re-run cheaply
    /// under any [`InfluenceParams`].
    pub fn prepare(&self) -> Result<Box<dyn PreparedPlan>> {
        match self.resolve_algorithm()? {
            Algorithm::DecisionTree(cfg) => DtPlan::prepare(self, cfg),
            Algorithm::BottomUp(cfg) => McPlan::prepare(self, cfg, None),
            Algorithm::Naive(cfg) => NaivePlan::prepare(self, cfg, None),
            Algorithm::Auto => unreachable!("resolve_algorithm never returns Auto"),
        }
    }

    /// Solves the Influential Predicates problem: prepare + run at this
    /// request's parameters. For repeated runs under changing
    /// parameters, keep the [`ExplainRequest::prepare`] plan (or use a
    /// [`crate::session::ScorpionSession`]) instead of calling this in
    /// a loop.
    pub fn explain(&self) -> Result<Explanation> {
        self.prepare()?.run(&self.params)
    }
}

/// Auto-labels a result series for scripted exploration: the `k` results
/// deviating most from the median become outliers (error = sign of the
/// deviation), and up to `k` results closest to the median become
/// hold-outs. The two sets are always disjoint — on tiny series the
/// hold-out set shrinks (down to empty) rather than re-using an outlier
/// index.
pub fn label_extremes(results: &[f64], k: usize) -> (Vec<(usize, f64)>, Vec<usize>) {
    let n = results.len();
    let median = {
        let mut v = results.to_vec();
        let mid = (n.max(1) - 1) / 2;
        v.sort_by(f64::total_cmp);
        v.get(mid).copied().unwrap_or(0.0)
    };
    let mut by_dev: Vec<(usize, f64)> =
        results.iter().enumerate().map(|(i, &v)| (i, v - median)).collect();
    by_dev.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
    let k = k.min(n / 2).max(1.min(n));
    let outliers: Vec<(usize, f64)> =
        by_dev.iter().take(k).map(|&(i, d)| (i, d.signum())).collect();
    // Hold-outs come from the far (median-nearest) end of the ranking;
    // never overlap the outlier prefix.
    let h_k = k.min(n - outliers.len());
    let holdouts: Vec<usize> = by_dev.iter().rev().take(h_k).map(|&(i, _)| i).collect();
    (outliers, holdouts)
}

/// The fluent entry point: pick a table, run a query, label results,
/// build an [`ExplainRequest`].
pub struct Scorpion {
    table: Arc<Table>,
}

impl Scorpion {
    /// Starts a request on `table` (accepts `Table` or `Arc<Table>`).
    pub fn on(table: impl Into<Arc<Table>>) -> Self {
        Scorpion { table: table.into() }
    }

    /// Parses and executes a select-project-group-by SQL query (WHERE
    /// clauses are materialized, §3.1) and moves to the labeling stage.
    pub fn sql(self, sql: &str) -> Result<RequestBuilder> {
        let pq = PreparedQuery::new(&self.table, sql)?;
        Ok(RequestBuilder {
            table: Arc::new(pq.table),
            grouping: Arc::new(pq.grouping),
            agg: pq.agg,
            agg_attr: pq.agg_attr,
            results: pq.results,
            request: RequestOpts::default(),
        })
    }

    /// Groups the table by `group_attrs` and aggregates `agg_attr` with
    /// `agg` — the programmatic equivalent of
    /// `SELECT agg(a) … GROUP BY g`.
    pub fn group_by(
        self,
        group_attrs: &[usize],
        agg: Arc<dyn Aggregate>,
        agg_attr: usize,
    ) -> Result<RequestBuilder> {
        let grouping = group_by(&self.table, group_attrs)?;
        self.query(grouping, agg, agg_attr)
    }

    /// Uses an existing grouping (accepts `Grouping` or
    /// `Arc<Grouping>`) with the given aggregate.
    pub fn query(
        self,
        grouping: impl Into<Arc<Grouping>>,
        agg: Arc<dyn Aggregate>,
        agg_attr: usize,
    ) -> Result<RequestBuilder> {
        let grouping = grouping.into();
        let agg_ref = agg.clone();
        let results =
            aggregate_groups(&self.table, &grouping, agg_attr, move |v| agg_ref.compute(v))?;
        Ok(RequestBuilder {
            table: self.table,
            grouping,
            agg,
            agg_attr,
            results,
            request: RequestOpts::default(),
        })
    }
}

/// Options accumulated between the query stage and `build()`.
struct RequestOpts {
    outliers: Vec<(usize, f64)>,
    holdouts: Vec<usize>,
    params: InfluenceParams,
    algorithm: Algorithm,
    explain_attrs: Option<Vec<usize>>,
    max_explain_attrs: Option<usize>,
    force_blackbox: bool,
    influence_cache_entries: usize,
    approx: Option<ApproxConfig>,
}

impl Default for RequestOpts {
    fn default() -> Self {
        RequestOpts {
            outliers: Vec::new(),
            holdouts: Vec::new(),
            params: InfluenceParams::default(),
            algorithm: Algorithm::Auto,
            explain_attrs: None,
            max_explain_attrs: None,
            force_blackbox: false,
            influence_cache_entries: 0,
            approx: None,
        }
    }
}

/// Second builder stage: the query has run; label results and set knobs.
pub struct RequestBuilder {
    table: Arc<Table>,
    grouping: Arc<Grouping>,
    agg: Arc<dyn Aggregate>,
    agg_attr: usize,
    results: Vec<f64>,
    request: RequestOpts,
}

impl RequestBuilder {
    /// The aggregate result series, in group order (what a result chart
    /// shows the user).
    pub fn results(&self) -> &[f64] {
        &self.results
    }

    /// Number of results.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True when the query produced no results.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Human-readable key of result `i`.
    pub fn display_key(&self, i: usize) -> String {
        self.grouping.display_key(&self.table, i)
    }

    /// Result index of a displayed group key, if present.
    pub fn index_of_key(&self, key: &str) -> Option<usize> {
        (0..self.grouping.len()).find(|&i| self.display_key(i) == key)
    }

    /// The outlier labels staged so far.
    pub fn outlier_labels(&self) -> &[(usize, f64)] {
        &self.request.outliers
    }

    /// The hold-out labels staged so far.
    pub fn holdout_labels(&self) -> &[usize] {
        &self.request.holdouts
    }

    /// Labels result `i` an outlier with error-vector component `error`
    /// (+1 = "too high", −1 = "too low"; magnitudes are weights).
    #[must_use]
    pub fn outlier(mut self, i: usize, error: f64) -> Self {
        self.request.outliers.push((i, error));
        self
    }

    /// Labels several outliers at once.
    #[must_use]
    pub fn outliers(mut self, labels: impl IntoIterator<Item = (usize, f64)>) -> Self {
        self.request.outliers.extend(labels);
        self
    }

    /// Labels result `i` a hold-out ("this one looks normal").
    #[must_use]
    pub fn holdout(mut self, i: usize) -> Self {
        self.request.holdouts.push(i);
        self
    }

    /// Labels several hold-outs at once.
    #[must_use]
    pub fn holdouts(mut self, labels: impl IntoIterator<Item = usize>) -> Self {
        self.request.holdouts.extend(labels);
        self
    }

    /// Auto-labels the `k` most deviant results as outliers and up to
    /// `k` median-nearest results as hold-outs (see [`label_extremes`]).
    #[must_use]
    pub fn auto_label(mut self, k: usize) -> Self {
        let (o, h) = label_extremes(&self.results, k);
        self.request.outliers = o;
        self.request.holdouts = h;
        self
    }

    /// Sets both influence knobs (§3.2, §7).
    #[must_use]
    pub fn params(mut self, lambda: f64, c: f64) -> Self {
        self.request.params = InfluenceParams { lambda, c };
        self
    }

    /// Sets the selectivity exponent `c`, keeping λ.
    #[must_use]
    pub fn c(mut self, c: f64) -> Self {
        self.request.params = self.request.params.with_c(c);
        self
    }

    /// Picks the algorithm explicitly (default: [`Algorithm::Auto`]).
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.request.algorithm = algorithm;
        self
    }

    /// Restricts the explanation attributes (default: `A_rest`).
    #[must_use]
    pub fn explain_attrs(mut self, attrs: impl IntoIterator<Item = usize>) -> Self {
        self.request.explain_attrs = Some(attrs.into_iter().collect());
        self
    }

    /// §6.4 dimensionality reduction: keep only the `k` most associated
    /// attributes before searching.
    #[must_use]
    pub fn max_explain_attrs(mut self, k: usize) -> Self {
        self.request.max_explain_attrs = Some(k);
        self
    }

    /// Forces black-box aggregate evaluation even when an incremental
    /// decomposition exists (ablation).
    #[must_use]
    pub fn force_blackbox(mut self, on: bool) -> Self {
        self.request.force_blackbox = on;
        self
    }

    /// Bounds the prepared plan's influence cache to `entries`
    /// predicates, evicting LRU past that (`0` = the default bound).
    #[must_use]
    pub fn influence_cache_entries(mut self, entries: usize) -> Self {
        self.request.influence_cache_entries = entries;
        self
    }

    /// Opts into the two-stage approximate influence search. Exact
    /// scoring stays the default; with this set, candidate batches are
    /// interval-pruned before exact scoring and diagnostics report
    /// `candidates_pruned` and `approx_error_bound`.
    #[must_use]
    pub fn approx(mut self, cfg: ApproxConfig) -> Self {
        self.request.approx = Some(cfg);
        self
    }

    /// Validates the request ([`ExplainRequest::validate`]) and produces
    /// it.
    pub fn build(self) -> Result<ExplainRequest> {
        let req = ExplainRequest {
            table: self.table,
            grouping: self.grouping,
            agg: self.agg,
            agg_attr: self.agg_attr,
            outliers: self.request.outliers,
            holdouts: self.request.holdouts,
            params: self.request.params,
            algorithm: self.request.algorithm,
            explain_attrs: self.request.explain_attrs,
            max_explain_attrs: self.request.max_explain_attrs,
            force_blackbox: self.request.force_blackbox,
            influence_cache_entries: self.request.influence_cache_entries,
            approx: self.request.approx,
        };
        req.validate()?;
        Ok(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpion_agg::{Avg, Median, Sum};
    use scorpion_table::{Field, Schema, TableBuilder, Value};

    fn sensors() -> Table {
        let schema = Schema::new(vec![
            Field::disc("time"),
            Field::disc("sensorid"),
            Field::cont("voltage"),
            Field::cont("temp"),
        ])
        .unwrap();
        let rows: [(&str, &str, f64, f64); 9] = [
            ("11AM", "1", 2.64, 34.0),
            ("11AM", "2", 2.65, 35.0),
            ("11AM", "3", 2.63, 35.0),
            ("12PM", "1", 2.70, 35.0),
            ("12PM", "2", 2.70, 35.0),
            ("12PM", "3", 2.30, 100.0),
            ("1PM", "1", 2.70, 35.0),
            ("1PM", "2", 2.70, 35.0),
            ("1PM", "3", 2.30, 80.0),
        ];
        let mut b = TableBuilder::new(schema);
        for (t, s, v, temp) in rows {
            b.push_row(vec![t.into(), s.into(), v.into(), temp.into()]).unwrap();
        }
        b.build()
    }

    #[test]
    fn sql_builder_end_to_end() {
        let req = Scorpion::on(sensors())
            .sql("SELECT avg(temp), time FROM sensors GROUP BY time")
            .unwrap()
            .outlier(1, 1.0)
            .outlier(2, 1.0)
            .holdout(0)
            .params(0.5, 0.5)
            .build()
            .unwrap();
        let ex = req.explain().unwrap();
        let all: Vec<u32> = (0..req.table().len() as u32).collect();
        let sel = ex.best().predicate.select(req.table(), &all).unwrap();
        assert!(sel.contains(&5) && sel.contains(&8), "{sel:?}");
    }

    #[test]
    fn group_by_builder_matches_sql() {
        let t = sensors();
        let via_sql = Scorpion::on(t.clone())
            .sql("SELECT avg(temp) FROM s GROUP BY time")
            .unwrap()
            .outlier(1, 1.0)
            .holdout(0)
            .build()
            .unwrap();
        let via_group = Scorpion::on(t)
            .group_by(&[0], Arc::new(Avg), 3)
            .unwrap()
            .outlier(1, 1.0)
            .holdout(0)
            .build()
            .unwrap();
        let a = via_sql.explain().unwrap();
        let b = via_group.explain().unwrap();
        assert_eq!(a.best().predicate, b.best().predicate);
        assert!((a.best().influence - b.best().influence).abs() < 1e-12);
    }

    #[test]
    fn builder_exposes_results_and_keys() {
        let b = Scorpion::on(sensors()).sql("SELECT avg(temp) FROM s GROUP BY time").unwrap();
        assert_eq!(b.len(), 3);
        assert!((b.results()[1] - 56.6667).abs() < 1e-3);
        assert_eq!(b.index_of_key("12PM"), Some(1));
        assert_eq!(b.index_of_key("nope"), None);
    }

    #[test]
    fn build_validates_labels() {
        let mk = || Scorpion::on(sensors()).sql("SELECT avg(temp) FROM s GROUP BY time").unwrap();
        assert!(matches!(mk().build(), Err(ScorpionError::NoOutliers)));
        assert!(matches!(
            mk().outlier(9, 1.0).build(),
            Err(ScorpionError::BadLabel { index: 9, .. })
        ));
        assert!(matches!(
            mk().outlier(0, 1.0).holdout(0).build(),
            Err(ScorpionError::OverlappingLabels { index: 0 })
        ));
    }

    #[test]
    fn request_is_cheaply_cloneable_and_tweakable() {
        let req = Scorpion::on(sensors())
            .sql("SELECT avg(temp) FROM s GROUP BY time")
            .unwrap()
            .outlier(1, 1.0)
            .holdout(0)
            .build()
            .unwrap();
        let tweaked = req.with_c(0.9);
        assert_eq!(tweaked.params().c, 0.9);
        assert_eq!(tweaked.params().lambda, req.params().lambda);
        assert!(Arc::ptr_eq(req.table(), tweaked.table()));
    }

    #[test]
    fn label_extremes_is_always_disjoint() {
        for n in 1..8usize {
            for k in 1..4usize {
                let results: Vec<f64> = (0..n).map(|i| i as f64 * 10.0).collect();
                let (o, h) = label_extremes(&results, k);
                assert!(!o.is_empty(), "n={n} k={k}");
                for &i in &h {
                    assert!(
                        !o.iter().any(|&(oi, _)| oi == i),
                        "overlap at n={n} k={k}: outliers {o:?}, holdouts {h:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_result_yields_no_holdout() {
        let (o, h) = label_extremes(&[42.0], 1);
        assert_eq!(o.len(), 1);
        assert!(h.is_empty());
    }

    #[test]
    fn auto_label_flows_into_build() {
        let req = Scorpion::on(sensors())
            .sql("SELECT avg(temp) FROM s GROUP BY time")
            .unwrap()
            .auto_label(1)
            .build()
            .unwrap();
        assert_eq!(req.outliers().len(), 1);
        assert_eq!(req.holdouts().len(), 1);
        assert!(req.explain().unwrap().best().influence.is_finite());
    }

    /// Group "o" runs hot for x ∈ [20, 60); group "h" is uniform.
    fn planted(agg: Arc<dyn Aggregate>) -> RequestBuilder {
        let schema =
            Schema::new(vec![Field::disc("g"), Field::cont("x"), Field::cont("v")]).unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..200 {
            let x = (i as f64 * 7.3) % 100.0;
            let v = if (20.0..60.0).contains(&x) { 80.0 } else { 10.0 };
            b.push_row(vec!["o".into(), Value::from(x), v.into()]).unwrap();
            b.push_row(vec!["h".into(), Value::from(x), Value::from(10.0)]).unwrap();
        }
        Scorpion::on(b.build()).group_by(&[0], agg, 2).unwrap().outlier(0, 1.0).holdout(1)
    }

    #[test]
    fn auto_selects_mc_for_sum_on_nonnegative() {
        let algo = planted(Arc::new(Sum)).build().unwrap().resolve_algorithm().unwrap();
        assert!(matches!(algo, Algorithm::BottomUp(_)));
    }

    #[test]
    fn auto_selects_dt_for_avg() {
        let algo = planted(Arc::new(Avg)).build().unwrap().resolve_algorithm().unwrap();
        assert!(matches!(algo, Algorithm::DecisionTree(_)));
    }

    #[test]
    fn auto_selects_naive_for_median() {
        let algo = planted(Arc::new(Median)).build().unwrap().resolve_algorithm().unwrap();
        assert!(matches!(algo, Algorithm::Naive(_)));
    }

    #[test]
    fn sum_with_negatives_falls_back_to_dt() {
        let schema = Schema::new(vec![Field::disc("g"), Field::cont("v")]).unwrap();
        let mut b = TableBuilder::new(schema);
        b.push_row(vec!["a".into(), Value::from(-1.0)]).unwrap();
        b.push_row(vec!["b".into(), Value::from(2.0)]).unwrap();
        let req = Scorpion::on(b.build())
            .group_by(&[0], Arc::new(Sum), 1)
            .unwrap()
            .outlier(0, 1.0)
            .holdout(1)
            .build()
            .unwrap();
        let algo = req.resolve_algorithm().unwrap();
        assert!(matches!(algo, Algorithm::DecisionTree(_)));
    }

    #[test]
    fn end_to_end_explain_finds_planted_range() {
        let ex = planted(Arc::new(Avg)).params(0.5, 0.2).build().unwrap().explain().unwrap();
        assert_eq!(ex.diagnostics.algorithm, "dt");
        assert!(ex.diagnostics.scorer_calls > 0);
        let clause = ex.best().predicate.clause(1).expect("x clause");
        assert!(clause.matches_num(40.0));
        assert!(!clause.matches_num(90.0));
    }

    #[test]
    fn default_explain_attrs_exclude_roles() {
        let req = planted(Arc::new(Avg)).build().unwrap();
        // Attr 0 = group-by, attr 2 = aggregate → only attr 1 remains.
        assert_eq!(req.default_explain_attrs(), vec![1]);
    }

    #[test]
    fn out_of_range_explain_attrs_are_errors_for_every_algorithm() {
        let bad = |e: &ScorpionError| {
            matches!(e, ScorpionError::Table(TableError::AttributeOutOfBounds { index: 9, len: 3 }))
        };
        for algorithm in [
            Algorithm::DecisionTree(DtConfig::default()),
            Algorithm::BottomUp(McConfig::default()),
            Algorithm::Naive(NaiveConfig::default()),
        ] {
            let name = algorithm.name();
            let built =
                planted(Arc::new(Sum)).algorithm(algorithm.clone()).explain_attrs([9]).build();
            assert!(built.is_err_and(|e| bad(&e)), "{name}: build must reject attr 9");
            // A valid request re-pointed at a bad attribute fails at
            // prepare, not with a panic inside the engine.
            let req = planted(Arc::new(Sum)).algorithm(algorithm).build().unwrap();
            let req = req.with_explain_attrs(Some(vec![9]));
            assert!(req.explain().is_err_and(|e| bad(&e)), "{name}: explain must reject attr 9");
        }
    }
}
